//! Feed-forward networks: the float training path and the quantised,
//! fault-injectable inference path.

use crate::activation::Activation;
use crate::layer::Layer;
use shmd_fixed::{LaneAccumulator, Q16};
use shmd_volt::fault::LaneCorruptor;

/// A feed-forward multi-layer perceptron (float weights).
///
/// Build one with [`crate::builder::NetworkBuilder`]; train it with the
/// algorithms in [`crate::train`]; deploy it on the fault-injectable
/// datapath via [`Network::quantized`].
#[derive(Clone, Debug, PartialEq)]
pub struct Network {
    layers: Vec<Layer>,
}

impl Network {
    /// Assembles a network from layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or consecutive dimensions mismatch.
    pub fn from_layers(layers: Vec<Layer>) -> Network {
        assert!(!layers.is_empty(), "a network needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].out_dim(),
                pair[1].in_dim(),
                "consecutive layer dimensions must match"
            );
        }
        Network { layers }
    }

    /// The layers, input-side first.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable layer access (used by trainers).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Total number of weights (including biases).
    pub fn num_weights(&self) -> usize {
        self.layers.iter().map(Layer::len).sum()
    }

    /// Number of multiply–accumulate operations per inference.
    pub fn mac_count(&self) -> usize {
        self.layers.iter().map(|l| l.in_dim() * l.out_dim()).sum()
    }

    /// Exact floating-point forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`Network::input_dim`].
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        let mut trace = vec![0.0; self.trace_len()];
        self.forward_trace_into(input, &mut trace).to_vec()
    }

    /// Length of a forward trace: every layer's activations (hidden and
    /// output; the input is not copied).
    pub fn trace_len(&self) -> usize {
        self.layers.iter().map(Layer::out_dim).sum()
    }

    /// Forward pass that records every layer's activations into `trace`,
    /// input side first, and returns the output (the trace's last
    /// [`Network::output_dim`] values). Used by backpropagation; it does
    /// not allocate.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`Network::input_dim`] or
    /// `trace.len()` from [`Network::trace_len`].
    pub fn forward_trace_into<'t>(&self, input: &[f32], trace: &'t mut [f32]) -> &'t [f32] {
        self.forward_trace_lanes::<1>(input, trace);
        &trace[self.trace_len() - self.output_dim()..]
    }

    /// [`Network::forward_trace_into`] for `B` samples at once, lane-major
    /// like [`Layer::forward_lanes`]: `input[i * B + s]` is input `i` of
    /// sample `s`, and `trace[j * B + s]` receives trace value `j` of
    /// sample `s`. Every lane is bit-identical to its sample's own trace.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from `B ·` [`Network::input_dim`]
    /// or `trace.len()` from `B ·` [`Network::trace_len`].
    pub(crate) fn forward_trace_lanes<const B: usize>(&self, input: &[f32], trace: &mut [f32]) {
        assert_eq!(trace.len(), self.trace_len() * B, "trace length mismatch");
        let mut start = 0;
        for layer in &self.layers {
            let (done, rest) = trace.split_at_mut(start);
            let prev = if start == 0 {
                input
            } else {
                &done[start - layer.in_dim() * B..]
            };
            layer.forward_lanes::<B>(prev, &mut rest[..layer.out_dim() * B]);
            start += layer.out_dim() * B;
        }
    }

    /// Quantises the network to the Q16.16 datapath.
    pub fn quantized(&self) -> QuantizedNetwork {
        QuantizedNetwork {
            layers: self
                .layers
                .iter()
                .map(|l| {
                    let weights: Vec<Q16> = l.weights().iter().map(|&w| Q16::from_f32(w)).collect();
                    let row_abs = row_abs_sums(&weights, l.in_dim(), l.out_dim());
                    QuantizedLayer {
                        in_dim: l.in_dim(),
                        out_dim: l.out_dim(),
                        activation: l.activation(),
                        weights,
                        row_abs,
                    }
                })
                .collect(),
        }
    }
}

/// Per-neuron sum of weight magnitudes (weights only, bias excluded),
/// the precomputed half of the batched MAC's no-overflow bound: with
/// `|x| ≤ 2³¹` for any Q16.16 activation, every product in neuron `o`'s
/// row is bounded by `row_abs[o] · 2³¹` in total magnitude.
fn row_abs_sums(weights: &[Q16], in_dim: usize, out_dim: usize) -> Vec<u64> {
    let stride = in_dim + 1;
    (0..out_dim)
        .map(|o| {
            weights[o * stride..o * stride + in_dim]
                .iter()
                .map(|w| u64::from(w.to_bits().unsigned_abs()))
                .sum()
        })
        .collect()
}

/// A layer with Q16.16 weights.
#[derive(Clone, Debug, PartialEq)]
struct QuantizedLayer {
    in_dim: usize,
    out_dim: usize,
    activation: Activation,
    weights: Vec<Q16>,
    /// Per-neuron `Σ|w_raw|` (see [`row_abs_sums`]); derived from
    /// `weights`, never serialized independently.
    row_abs: Vec<u64>,
}

impl QuantizedLayer {
    /// Forward pass over a lane-major activation plane: `input` holds
    /// `in_dim × LANES` values with lane `l`'s activation for input `i` at
    /// `input[i * LANES + l]`, and `out` is filled the same way
    /// (`out[o * LANES + l]`). `LANES = 1` is a single query.
    ///
    /// The weight row is walked once for the whole batch, in two phases
    /// that keep the MAC loop free of *any* per-product stream logic:
    ///
    /// 1. **Event walk.** The corruptor's gap countdowns are drained over
    ///    the row ([`LaneCorruptor::lane_run`] hands back whole fault-free
    ///    runs per lane); each fault event computes just its own lane's
    ///    product, corrupts it, and records the substitution. Every lane
    ///    sees its draws in exactly the per-`(neuron, input)` order of a
    ///    walk over the products one at a time, so each lane's corruption
    ///    stream is independent of the width.
    /// 2. **Span + patch.** One uninterrupted
    ///    [`LaneAccumulator::mac_span_wrapping`] accumulates the whole row
    ///    for all lanes — the straight-line kernel the vectorizer chews
    ///    on — and the recorded substitutions are then patched into the
    ///    affected lane sums. A per-lane magnitude bound (`row_abs · 2³¹`
    ///    plus the bias and every substituted product) proves no partial
    ///    sum could have left the `i64` range, which makes the wrapped and
    ///    patched sum bit-identical to the sequential saturating
    ///    accumulation. That is the one overflow rule: every lane whose
    ///    bound cannot prove it, events or not, is replayed sequentially
    ///    with the recorded substitutions — the sequential law verbatim.
    fn forward_lanes<const LANES: usize, C: LaneCorruptor<LANES> + ?Sized>(
        &self,
        input: &[Q16],
        out: &mut Vec<Q16>,
        corruptor: &mut C,
        events: &mut Vec<RowEvent>,
    ) {
        debug_assert_eq!(input.len(), self.in_dim * LANES);
        let stride = self.in_dim + 1;
        out.clear();
        out.reserve(self.out_dim * LANES);
        for o in 0..self.out_dim {
            let row = &self.weights[o * stride..(o + 1) * stride];
            let bias = row[self.in_dim];
            // Phase 1: drain this row's fault events lane by lane. Each
            // lane's (lane_run, fault) call sequence — and so its RNG
            // draw sequence — is exactly the per-`(neuron, input)` walk
            // over this row, so per-lane bit-identity holds at every
            // width, and the MAC loop below stays free of any
            // per-product stream logic. A lane's whole fault-free row is
            // consumed by a single `lane_run` call.
            events.clear();
            let mut sub_mag = [0u128; LANES];
            let span = self.in_dim as u64;
            for l in 0..LANES {
                let mut at = 0u64;
                while at < span {
                    match corruptor.lane_run(l, span - at) {
                        Some(offset) => {
                            let j = (at + offset) as usize;
                            let p = Q16::raw_product(row[j], input[j * LANES + l]);
                            let c = corruptor.fault(l, p);
                            if c != p {
                                events.push(RowEvent {
                                    index: j as u32,
                                    lane: l as u32,
                                    product: p,
                                    corrupted: c,
                                });
                                // Double-counts |p| (already inside
                                // row_abs's bound) — conservative is fine.
                                sub_mag[l] +=
                                    u128::from(p.unsigned_abs()) + u128::from(c.unsigned_abs());
                            }
                            at += offset + 1;
                        }
                        None => break,
                    }
                }
            }
            // Phase 2: one straight-line wrapping span over the whole row…
            let bias_mag = u128::from(bias.to_bits().unsigned_abs()) << 16;
            let row_bound = (u128::from(self.row_abs[o]) << 31) + bias_mag;
            let mut acc = LaneAccumulator::<LANES>::new();
            acc.mac_span_wrapping(&row[..self.in_dim], &input[..self.in_dim * LANES]);
            // …then patch the substituted products in where the magnitude
            // bound proves no partial sum left i64, and replay every other
            // lane with the sequential saturating law verbatim. Real
            // quantized rows are provable, so an event-free row skips this.
            if !events.is_empty() || row_bound > i64::MAX as u128 {
                for ev in events.iter() {
                    let l = ev.lane as usize;
                    if row_bound + sub_mag[l] <= i64::MAX as u128 {
                        acc.patch(l, ev.product, ev.corrupted);
                    }
                }
                for l in 0..LANES {
                    if row_bound + sub_mag[l] > i64::MAX as u128 {
                        let mut sum = 0i64;
                        let mut next = events.iter().filter(|e| e.lane as usize == l);
                        let mut pending = next.next();
                        for (j, &w) in row[..self.in_dim].iter().enumerate() {
                            let mut p = Q16::raw_product(w, input[j * LANES + l]);
                            if let Some(e) = pending {
                                if e.index as usize == j {
                                    p = e.corrupted;
                                    pending = next.next();
                                }
                            }
                            sum = sum.saturating_add(p);
                        }
                        acc.set_raw(l, sum);
                    }
                }
            }
            acc.add_q16(bias);
            out.extend((0..LANES).map(|l| acc.to_q16(l)));
        }
        // Activations run on LUT/dedicated logic off the multiplier's
        // critical path, so they take no faults: the float pass's
        // activation loop, rounding to Q16, gives every sum
        // `Q16::from_f64(Activation::apply(sum))`. It takes the whole plane
        // eight sums at a time, so `tanh` vectorizes at width 1 too; the
        // remainder goes one sum at a time.
        let (chunks, rest) = out.as_chunks_mut::<8>();
        for chunk in chunks {
            self.activation.apply_lanes(&chunk.map(Q16::to_f64), chunk);
        }
        for q in rest {
            let sum = [q.to_f64()];
            self.activation.apply_lanes(&sum, std::array::from_mut(q));
        }
    }
}

/// One recorded fault substitution inside a neuron row: lane `lane`'s
/// product at weight `index` came out of the corruptor as `corrupted`
/// instead of `product`. Collected during the MAC's event walk and patched
/// into the lane sums after the straight-line span (see
/// [`QuantizedLayer::forward_lanes`]).
#[derive(Clone, Copy, Debug)]
struct RowEvent {
    index: u32,
    lane: u32,
    product: i64,
    corrupted: i64,
}

/// Reusable lane-major activation planes for the allocation-free inference
/// path.
///
/// One ping/pong pair serves the *whole batch*: a plane stores layer
/// activations for all `LANES` queries interleaved lane-major
/// (`plane[i * LANES + l]` is query `l`'s activation `i`), which is what
/// lets the per-weight MAC touch `LANES` adjacent values. Buffers grow to
/// the largest `layer width × LANES` seen and are reused thereafter, by
/// any number of inferences and any network, so the steady-state query
/// path performs no heap allocation.
#[derive(Clone, Debug)]
pub struct BatchScratch<const LANES: usize> {
    /// Lane-major quantised copy of the `f32` inputs.
    qin: Vec<Q16>,
    /// Ping-pong lane-major activation planes.
    ping: Vec<Q16>,
    pong: Vec<Q16>,
    /// Per-row fault-substitution records (cleared every neuron row).
    events: Vec<RowEvent>,
}

impl<const LANES: usize> BatchScratch<LANES> {
    /// An empty scratch; planes grow on first use.
    pub fn new() -> BatchScratch<LANES> {
        BatchScratch {
            qin: Vec::new(),
            ping: Vec::new(),
            pong: Vec::new(),
            events: Vec::new(),
        }
    }
}

impl<const LANES: usize> Default for BatchScratch<LANES> {
    fn default() -> BatchScratch<LANES> {
        BatchScratch::new()
    }
}

/// The scratch of one-query inference ([`QuantizedNetwork::infer_into`]).
pub type InferenceScratch = BatchScratch<1>;

/// A network quantised to Q16.16 whose multiplications run through a
/// [`LaneCorruptor`] — the deployment form of a (Stochastic-)HMD.
///
/// With [`shmd_volt::fault::ExactLanes`] this reproduces the float network
/// up to quantisation error; with a [`shmd_volt::fault::FaultStream`] (one
/// query) or a [`shmd_volt::fault::BatchFaultStream`] (one query per lane)
/// it becomes the undervolted detector. Every entry point runs one kernel,
/// [`QuantizedNetwork::infer_batch_into`]; the one-query entry points are
/// its width-1 case.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedNetwork {
    layers: Vec<QuantizedLayer>,
}

impl QuantizedNetwork {
    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim
    }

    /// Number of multiply–accumulate operations per inference.
    pub fn mac_count(&self) -> usize {
        self.layers.iter().map(|l| l.in_dim * l.out_dim).sum()
    }

    /// Approximate model size in bytes when stored as Q16.16 weights.
    pub fn size_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.weights.len() * 4).sum()
    }

    /// Convenience: quantises an `f32` input, runs the forward pass, and
    /// returns `f32` outputs. Allocates; see
    /// [`QuantizedNetwork::infer_into`] for the steady-state path.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`QuantizedNetwork::input_dim`].
    pub fn infer<C: LaneCorruptor<1> + ?Sized>(
        &self,
        input: &[f32],
        corruptor: &mut C,
    ) -> Vec<f32> {
        let mut scratch = InferenceScratch::new();
        self.infer_into(input, corruptor, &mut scratch)
            .iter()
            .map(|q| q.to_f32())
            .collect()
    }

    /// The one-query steady-state path: [`QuantizedNetwork::infer_batch_into`]
    /// at width 1, allocation-free once `scratch` has warmed up. The
    /// returned Q16.16 outputs borrow `scratch`; convert with
    /// [`Q16::to_f32`] as needed.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`QuantizedNetwork::input_dim`].
    pub fn infer_into<'s, C: LaneCorruptor<1> + ?Sized>(
        &self,
        input: &[f32],
        corruptor: &mut C,
        scratch: &'s mut InferenceScratch,
    ) -> &'s [Q16] {
        self.infer_batch_into(&[input], corruptor, scratch)
    }

    /// The inference kernel: quantises `LANES` `f32` inputs into the
    /// lane-major plane and runs the whole batch through every layer
    /// simultaneously, allocation-free once `scratch` has warmed up.
    /// Returns the lane-major Q16.16 output plane (`out[o * LANES + l]`),
    /// borrowing `scratch`.
    ///
    /// Lane `l`'s outputs depend only on its input and its corruption
    /// stream, never on the width or its neighbours: the batch changes
    /// memory layout and instruction scheduling, not arithmetic or fault
    /// law.
    ///
    /// # Panics
    ///
    /// Panics if any `inputs[l].len()` differs from
    /// [`QuantizedNetwork::input_dim`].
    pub fn infer_batch_into<'s, const LANES: usize, C: LaneCorruptor<LANES> + ?Sized>(
        &self,
        inputs: &[&[f32]; LANES],
        corruptor: &mut C,
        scratch: &'s mut BatchScratch<LANES>,
    ) -> &'s [Q16] {
        let in_dim = self.input_dim();
        for input in inputs {
            assert_eq!(input.len(), in_dim, "input width mismatch");
        }
        let BatchScratch {
            qin,
            ping,
            pong,
            events,
        } = scratch;
        qin.clear();
        qin.reserve(in_dim * LANES);
        for i in 0..in_dim {
            for input in inputs {
                qin.push(Q16::from_f32(input[i]));
            }
        }
        let (mut cur, mut next) = (ping, pong);
        self.layers[0].forward_lanes(qin, cur, corruptor, events);
        for layer in &self.layers[1..] {
            layer.forward_lanes(cur, next, corruptor, events);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::mac::NoisyMac;
    use proptest::prelude::*;
    use shmd_fixed::Accumulator;
    use shmd_volt::fault::{
        BatchFaultStream, ExactLanes, FaultModel, FaultStream, PerDrawInjector,
    };

    fn small_net(seed: u64) -> Network {
        NetworkBuilder::new(4)
            .hidden(6)
            .output(1)
            .seed(seed)
            .build()
            .expect("valid network")
    }

    /// A deeper, wider net than the smoke fixture, so several layers, the
    /// ping-pong swaps and multi-output planes are all exercised.
    fn deep_net(seed: u64) -> QuantizedNetwork {
        NetworkBuilder::new(4)
            .hidden(9)
            .hidden(5)
            .output(2)
            .seed(seed)
            .build()
            .expect("valid network")
            .quantized()
    }

    /// The sequential datapath the kernel must reproduce, written the
    /// straightforward way: every product through `corrupt` in
    /// `(neuron, input)` order, a saturating [`Accumulator::mac`] per
    /// product, and the scalar [`Activation::apply`] on every neuron. It lives
    /// here because it is the oracle the kernel is checked against, not a
    /// second way to serve a query.
    fn reference_infer(
        net: &QuantizedNetwork,
        input: &[f32],
        mut corrupt: impl FnMut(i64) -> i64,
    ) -> Vec<Q16> {
        let mut cur: Vec<Q16> = input.iter().map(|&v| Q16::from_f32(v)).collect();
        for layer in &net.layers {
            cur = layer
                .weights
                .chunks_exact(layer.in_dim + 1)
                .map(|row| {
                    let mut acc = Accumulator::new();
                    for (w, x) in row[..layer.in_dim].iter().zip(&cur) {
                        acc.mac(*w, *x, &mut corrupt);
                    }
                    acc.add_q16(row[layer.in_dim]);
                    Q16::from_f64(layer.activation.apply(acc.to_q16().to_f64()))
                })
                .collect();
        }
        cur
    }

    /// One product through a one-lane corruptor, the way a walk over the
    /// products one at a time drives it.
    fn per_product<C: LaneCorruptor<1>>(corruptor: &mut C, p: i64) -> i64 {
        match corruptor.lane_run(0, 1) {
            Some(_) => corruptor.fault(0, p),
            None => p,
        }
    }

    fn infer_vec<C: LaneCorruptor<1> + ?Sized>(
        net: &QuantizedNetwork,
        input: &[f32],
        corruptor: &mut C,
    ) -> Vec<Q16> {
        net.infer_into(input, corruptor, &mut InferenceScratch::new())
            .to_vec()
    }

    #[test]
    fn dims_and_counts() {
        let net = small_net(1);
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.output_dim(), 1);
        assert_eq!(net.mac_count(), 4 * 6 + 6);
        assert_eq!(net.num_weights(), 6 * 5 + 7);
    }

    #[test]
    fn forward_trace_matches_forward() {
        let net = small_net(2);
        let input = [0.1, -0.2, 0.3, 0.4];
        let mut trace = vec![f32::NAN; net.trace_len()];
        let output = net.forward_trace_into(&input, &mut trace).to_vec();
        assert_eq!(trace.len(), 6 + 1);
        assert_eq!(output, net.forward(&input));
        assert_eq!(&trace[..6], net.layers()[0].forward(&input).as_slice());
    }

    #[test]
    fn quantized_exact_path_matches_float() {
        let net = small_net(3);
        let q = net.quantized();
        for trial in 0..20 {
            let input: Vec<f32> = (0..4)
                .map(|i| ((trial * 4 + i) as f32 * 0.07) % 1.0)
                .collect();
            let float_out = net.forward(&input)[0];
            let q_out = q.infer(&input, &mut ExactLanes)[0];
            assert!(
                (float_out - q_out).abs() < 1e-2,
                "float {float_out} vs quantized {q_out}"
            );
        }
    }

    #[test]
    fn faulty_path_perturbs_scores() {
        let net = small_net(4);
        let q = net.quantized();
        let input = [0.3, 0.3, 0.3, 0.3];
        let exact = q.infer(&input, &mut ExactLanes)[0];
        let mut inj = FaultStream::new(FaultModel::from_error_rate(1.0).unwrap(), 9);
        let mut any_different = false;
        for _ in 0..50 {
            if (q.infer(&input, &mut inj)[0] - exact).abs() > 1e-4 {
                any_different = true;
            }
        }
        assert!(any_different, "er = 1 should visibly perturb scores");
    }

    #[test]
    fn faulty_scores_vary_across_runs() {
        // The moving-target property: the same input yields different
        // scores on different invocations.
        let net = small_net(5);
        let q = net.quantized();
        let input = [0.2, 0.4, 0.6, 0.8];
        let mut inj = FaultStream::new(FaultModel::from_error_rate(0.3).unwrap(), 10);
        let scores: Vec<f32> = (0..100).map(|_| q.infer(&input, &mut inj)[0]).collect();
        let distinct = scores
            .iter()
            .map(|s| s.to_bits())
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(distinct > 2, "only {distinct} distinct scores");
    }

    #[test]
    fn zero_error_rate_injector_is_exact() {
        let net = small_net(6);
        let q = net.quantized();
        let input = [0.5, 0.1, -0.3, 0.9];
        let exact = q.infer(&input, &mut ExactLanes)[0];
        let mut inj = FaultStream::new(FaultModel::exact(), 11);
        assert_eq!(q.infer(&input, &mut inj)[0], exact);
    }

    #[test]
    fn infer_through_dyn_and_infer_into_are_bit_identical_to_infer() {
        // A trait object and the allocation-free entry point must be exact
        // drop-in replacements for the generic path, faulty or not.
        let net = small_net(8);
        let q = net.quantized();
        let model = FaultModel::from_error_rate(0.4).unwrap();
        let mut scratch = InferenceScratch::new();
        for trial in 0..40i64 {
            let input: Vec<f32> = (0..4)
                .map(|i| ((trial * 4 + i) as f32 * 0.13).sin())
                .collect();
            // Same-seeded injectors: identical RNG streams per path.
            let mut a = FaultStream::new(model.clone(), trial as u64);
            let mut b = FaultStream::new(model.clone(), trial as u64);
            let mut c = FaultStream::new(model.clone(), trial as u64);
            let via_generic = q.infer(&input, &mut a);
            let dynamic: &mut dyn LaneCorruptor<1> = &mut b;
            let via_dyn = q.infer(&input, dynamic);
            let via_scratch: Vec<f32> = q
                .infer_into(&input, &mut c, &mut scratch)
                .iter()
                .map(|v| v.to_f32())
                .collect();
            assert_eq!(via_generic, via_dyn, "dyn diverged on {input:?}");
            assert_eq!(via_generic, via_scratch, "infer_into diverged on {input:?}");
        }
    }

    #[test]
    fn scratch_is_reusable_across_networks() {
        // A single scratch serves differently-shaped networks back to back.
        let small = small_net(9).quantized();
        let wide = NetworkBuilder::new(4)
            .hidden(11)
            .hidden(5)
            .output(2)
            .seed(10)
            .build()
            .expect("valid network")
            .quantized();
        let input = [0.2, -0.4, 0.6, 0.8];
        let mut scratch = InferenceScratch::new();
        let expect_small = small.infer(&input, &mut ExactLanes);
        let expect_wide = wide.infer(&input, &mut ExactLanes);
        for _ in 0..3 {
            let s: Vec<f32> = small
                .infer_into(&input, &mut ExactLanes, &mut scratch)
                .iter()
                .map(|v| v.to_f32())
                .collect();
            assert_eq!(s, expect_small);
            let w: Vec<f32> = wide
                .infer_into(&input, &mut ExactLanes, &mut scratch)
                .iter()
                .map(|v| v.to_f32())
                .collect();
            assert_eq!(w, expect_wide);
        }
    }

    #[test]
    fn new_path_preserves_sign_and_immune_lsb_invariants() {
        // The paper's structural immunities must survive the hot-path
        // rewrite: across many faulty inferences, the sign bit and the 8
        // immune LSBs of the raw product never flip.
        use shmd_volt::multiplier::{IMMUNE_LSBS, SIGN_BIT};
        let q = small_net(13).quantized();
        let mut inj = FaultStream::new(FaultModel::from_error_rate(0.9).unwrap(), 14);
        let mut scratch = InferenceScratch::new();
        for trial in 0..200i64 {
            let input: Vec<f32> = (0..4)
                .map(|i| ((trial * 4 + i) as f32 * 0.31).cos())
                .collect();
            let _ = q.infer_into(&input, &mut inj, &mut scratch);
        }
        let stats = inj.stats();
        assert!(stats.faulty > 0, "the workload must actually fault");
        assert_eq!(stats.bit_flips[SIGN_BIT], 0, "sign bit flipped");
        for bit in 0..IMMUNE_LSBS {
            assert_eq!(stats.bit_flips[bit], 0, "immune LSB {bit} flipped");
        }
    }

    fn batch_matches_scalar_at_width<const LANES: usize>(seed: u64) {
        let net = deep_net(seed);
        let model = FaultModel::from_error_rate(0.4)
            .unwrap()
            .with_near_zero_width(20);
        let inputs_owned: Vec<Vec<f32>> = (0..LANES)
            .map(|l| {
                (0..4)
                    .map(|i| ((seed as f32).mul_add(0.01, (l * 4 + i) as f32 * 0.17)).sin())
                    .collect()
            })
            .collect();
        let inputs: [&[f32]; LANES] = std::array::from_fn(|l| inputs_owned[l].as_slice());
        let seeds: [u64; LANES] = std::array::from_fn(|l| seed ^ (l as u64).wrapping_mul(0x9e37));
        let mut batch_scratch = BatchScratch::<LANES>::new();
        let mut stream = BatchFaultStream::new(&model, seeds);
        let plane = net
            .infer_batch_into(&inputs, &mut stream, &mut batch_scratch)
            .to_vec();
        assert_eq!(plane.len(), 2 * LANES);
        for l in 0..LANES {
            let mut scalar_stream = FaultStream::new(&model, seeds[l]);
            let scalar = reference_infer(&net, inputs[l], |p| scalar_stream.corrupt_product(p));
            for (o, &expected) in scalar.iter().enumerate() {
                assert_eq!(
                    plane[o * LANES + l],
                    expected,
                    "width {LANES}, lane {l}, output {o} diverged"
                );
            }
            assert_eq!(
                stream.stats(l),
                scalar_stream.stats(),
                "width {LANES}, lane {l} fault statistics diverged"
            );
        }
    }

    #[test]
    fn batch_inference_is_bit_identical_to_scalar_at_every_width() {
        // The tentpole determinism claim, at every batch width the serving
        // layer can dispatch, width 1 included: lane l of the kernel
        // reproduces the sequential reference bit for bit — outputs *and*
        // fault statistics.
        batch_matches_scalar_at_width::<1>(101);
        batch_matches_scalar_at_width::<2>(102);
        batch_matches_scalar_at_width::<3>(103);
        batch_matches_scalar_at_width::<4>(104);
        batch_matches_scalar_at_width::<5>(105);
        batch_matches_scalar_at_width::<6>(106);
        batch_matches_scalar_at_width::<7>(107);
        batch_matches_scalar_at_width::<8>(108);
        batch_matches_scalar_at_width::<9>(109);
        batch_matches_scalar_at_width::<10>(110);
        batch_matches_scalar_at_width::<11>(111);
        batch_matches_scalar_at_width::<12>(112);
        batch_matches_scalar_at_width::<13>(113);
        batch_matches_scalar_at_width::<14>(114);
        batch_matches_scalar_at_width::<15>(115);
        batch_matches_scalar_at_width::<16>(116);
    }

    /// A hidden layer whose first three rows carry weights near ±30 000
    /// (Σ|w_raw| > 2³², so the no-overflow bound cannot hold) and whose
    /// last three rows stay small, followed by a small linear output
    /// layer. Mixed signs make the saturating order visible: a row that
    /// clips at `i64::MAX` and then comes back down ends elsewhere than
    /// its exact (or wrapped) sum. Under `tanh`, the big rows' sums lie
    /// far beyond ±64, and on inputs in [−1, 1] the last two rows' sums
    /// lie in [14, 26] and [−26, −14], beyond ±8.
    fn overflow_net(hidden_activation: Activation) -> QuantizedNetwork {
        use crate::layer::Layer;
        let big: [[f32; 6]; 3] = [
            [30_000.0, 29_000.0, 30_000.0, 28_500.0, 30_000.0, 29_500.0],
            [
                30_000.0, 30_000.0, 30_000.0, -30_000.0, -29_000.0, -30_000.0,
            ],
            [
                -29_000.0, -30_000.0, -30_000.0, 30_000.0, 30_000.0, -28_000.0,
            ],
        ];
        let mut hidden = Layer::zeros(6, 6, hidden_activation);
        for (o, row) in hidden.weights_mut().chunks_exact_mut(7).enumerate() {
            for (i, w) in row[..6].iter_mut().enumerate() {
                *w = match (big.get(o), o) {
                    (Some(weights), _) => weights[i],
                    (None, 3) => 0.125 * (i as f32 - 2.5),
                    (None, _) => 1.0,
                };
            }
            row[6] = [1.5, 0.5, -0.5, -1.5, 20.0, -20.0][o];
        }
        let mut output = Layer::zeros(6, 2, Activation::Linear);
        for (o, row) in output.weights_mut().chunks_exact_mut(7).enumerate() {
            for (i, w) in row[..6].iter_mut().enumerate() {
                *w = if i % 2 == o { 0.5 } else { -0.25 };
            }
        }
        let net = Network::from_layers(vec![hidden, output]).quantized();
        let row_abs = &net.layers[0].row_abs;
        assert!(row_abs[..3]
            .iter()
            .all(|&s| u128::from(s) << 31 > i64::MAX as u128));
        assert!(row_abs[3..]
            .iter()
            .all(|&s| u128::from(s) << 31 <= i64::MAX as u128));
        net
    }

    fn overflow_rows_match_the_reference_at_width<const LANES: usize>(
        hidden_activation: Activation,
        er: f64,
    ) {
        let net = overflow_net(hidden_activation);
        let model = FaultModel::from_error_rate(er).unwrap();
        let mut scratch = BatchScratch::<LANES>::new();
        // Two passes with the big and small lanes swapped, so width 1 sees
        // both kinds of input.
        for pass in 0..2usize {
            let inputs_owned: Vec<Vec<f32>> = (0..LANES)
                .map(|l| {
                    if (l + pass) % 2 == 0 {
                        vec![30_000.0; 6]
                    } else {
                        (0..6).map(|i| ((l * 6 + i) as f32 * 0.7).sin()).collect()
                    }
                })
                .collect();
            let inputs: [&[f32]; LANES] = std::array::from_fn(|l| inputs_owned[l].as_slice());
            let seeds: [u64; LANES] = std::array::from_fn(|l| (pass * 64 + l) as u64);
            let mut stream = BatchFaultStream::new(&model, seeds);
            let plane = net
                .infer_batch_into(&inputs, &mut stream, &mut scratch)
                .to_vec();
            for l in 0..LANES {
                let mut lane_stream = FaultStream::new(&model, seeds[l]);
                let want = reference_infer(&net, inputs[l], |p| lane_stream.corrupt_product(p));
                for (o, &expected) in want.iter().enumerate() {
                    assert_eq!(
                        plane[o * LANES + l],
                        expected,
                        "{hidden_activation:?}, er {er}, width {LANES}, pass {pass}, lane {l}, \
                         output {o}"
                    );
                }
                assert_eq!(stream.stats(l), lane_stream.stats());
            }
        }
    }

    #[test]
    fn rows_past_the_overflow_bound_saturate_like_the_reference() {
        // Quantized detectors never get near the bound, so this builds
        // rows that do: lanes fed +30 000 everywhere saturate their
        // fault-free sums, the small lanes stay exact, and at er > 0 the
        // saturating lanes also carry fault events. Under `tanh` the same
        // rows hold the activation stage to libm on sums beyond ±8 and ±64.
        for (act, er) in [
            (Activation::Linear, 0.0),
            (Activation::Linear, 0.3),
            (Activation::Linear, 0.9),
            (Activation::SigmoidSymmetric, 0.0),
            (Activation::SigmoidSymmetric, 0.9),
        ] {
            overflow_rows_match_the_reference_at_width::<1>(act, er);
            overflow_rows_match_the_reference_at_width::<4>(act, er);
            overflow_rows_match_the_reference_at_width::<8>(act, er);
            overflow_rows_match_the_reference_at_width::<16>(act, er);
        }
    }

    #[test]
    fn exact_batch_matches_exact_scalar() {
        const LANES: usize = 8;
        let net = small_net(21).quantized();
        let inputs_owned: Vec<Vec<f32>> = (0..LANES)
            .map(|l| (0..4).map(|i| ((l * 4 + i) as f32 * 0.23).cos()).collect())
            .collect();
        let inputs: [&[f32]; LANES] = std::array::from_fn(|l| inputs_owned[l].as_slice());
        let mut scratch = BatchScratch::<LANES>::new();
        let plane = net
            .infer_batch_into(&inputs, &mut ExactLanes, &mut scratch)
            .to_vec();
        for (l, input) in inputs.iter().enumerate() {
            let scalar = reference_infer(&net, input, |p| p);
            for (o, &expected) in scalar.iter().enumerate() {
                assert_eq!(plane[o * LANES + l], expected, "lane {l}");
            }
        }
    }

    #[test]
    fn long_lived_stream_matches_the_reference_across_set_model() {
        // A detector drives one owned stream across queries, and across
        // retunes (`set_model`); each query starts where the last left the
        // countdown. The kernel must walk that stream exactly as the
        // reference walks a same-seeded one.
        let net = deep_net(41);
        let models = [
            FaultModel::from_error_rate(0.1).unwrap(),
            FaultModel::from_error_rate(0.45).unwrap(),
        ];
        let mut stream = FaultStream::new(models[0].clone(), 42);
        let mut reference = FaultStream::new(models[0].clone(), 42);
        let mut scratch = InferenceScratch::new();
        for q in 0..300 {
            if q == 170 {
                stream.set_model(models[1].clone());
                reference.set_model(models[1].clone());
            }
            let input: Vec<f32> = (0..4).map(|i| ((q * 4 + i) as f32 * 0.37).sin()).collect();
            let got = net.infer_into(&input, &mut stream, &mut scratch).to_vec();
            let want = reference_infer(&net, &input, |p| reference.corrupt_product(p));
            assert_eq!(got, want, "query {q} diverged");
            assert_eq!(stream.stats(), reference.stats(), "query {q} statistics");
        }
        assert!(stream.stats().faulty > 0, "the stream must fault");
    }

    #[test]
    fn per_product_corruptors_match_the_reference() {
        // Corruptors that see every multiplication (the software-noise MAC
        // and the per-draw oracle) run through the same kernel at width 1.
        let net = deep_net(51);
        let model = FaultModel::from_error_rate(0.3).unwrap();
        for q in 0..40 {
            let input: Vec<f32> = (0..4).map(|i| ((q * 4 + i) as f32 * 0.29).cos()).collect();
            let mut noisy = NoisyMac::new(1 << 16, q as u64);
            let mut noisy_ref = NoisyMac::new(1 << 16, q as u64);
            assert_eq!(
                infer_vec(&net, &input, &mut noisy),
                reference_infer(&net, &input, |p| per_product(&mut noisy_ref, p)),
                "noisy MAC, query {q}"
            );
            assert_eq!(noisy.queries(), net.mac_count() as u64);
            let mut per_draw = PerDrawInjector::new(model.clone(), q as u64);
            let mut per_draw_ref = PerDrawInjector::new(model.clone(), q as u64);
            assert_eq!(
                infer_vec(&net, &input, &mut per_draw),
                reference_infer(&net, &input, |p| per_draw_ref.corrupt_product(p)),
                "per-draw injector, query {q}"
            );
            assert_eq!(per_draw.stats(), per_draw_ref.stats());
        }
    }

    proptest! {
        #[test]
        fn batch_bit_identity_holds_for_arbitrary_inputs_and_seeds(
            seed in any::<u64>(),
            er in 0.05f64..0.9,
            inputs in proptest::collection::vec(
                proptest::collection::vec(-1.0f32..1.0, 4), 8)
        ) {
            const LANES: usize = 8;
            let net = small_net(31).quantized();
            let model = FaultModel::from_error_rate(er).unwrap().with_near_zero_width(20);
            let input_refs: [&[f32]; LANES] =
                std::array::from_fn(|l| inputs[l].as_slice());
            let seeds: [u64; LANES] =
                std::array::from_fn(|l| seed.wrapping_add(l as u64));
            let mut batch_scratch = BatchScratch::<LANES>::new();
            let mut stream = BatchFaultStream::new(&model, seeds);
            let plane = net
                .infer_batch_into(&input_refs, &mut stream, &mut batch_scratch)
                .to_vec();
            for l in 0..LANES {
                let mut scalar_stream = FaultStream::new(&model, seeds[l]);
                let scalar =
                    reference_infer(&net, input_refs[l], |p| scalar_stream.corrupt_product(p));
                for (o, &expected) in scalar.iter().enumerate() {
                    prop_assert_eq!(plane[o * LANES + l], expected,
                        "lane {} output {} diverged", l, o);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "consecutive layer dimensions must match")]
    fn mismatched_layers_panic() {
        use crate::layer::Layer;
        let _ = Network::from_layers(vec![
            Layer::zeros(2, 3, Activation::Sigmoid),
            Layer::zeros(4, 1, Activation::Sigmoid),
        ]);
    }

    #[test]
    fn size_bytes_counts_weights() {
        let q = small_net(7).quantized();
        assert_eq!(q.size_bytes(), (6 * 5 + 7) * 4);
    }

    proptest! {
        #[test]
        fn sigmoid_output_is_bounded_even_under_faults(
            seed in any::<u64>(),
            input in proptest::collection::vec(-1.0f32..1.0, 4)
        ) {
            let q = small_net(12).quantized();
            let mut inj = FaultStream::new(FaultModel::from_error_rate(0.8).unwrap(), seed);
            let out = q.infer(&input, &mut inj)[0];
            prop_assert!((0.0..=1.0).contains(&out), "sigmoid output {out} out of range");
        }
    }
}
