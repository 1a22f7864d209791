//! Feed-forward networks: the float training path and the quantised,
//! fault-injectable inference path.

use crate::activation::Activation;
use crate::fast_tanh::fast_tanh;
use crate::layer::Layer;
use serde::{Deserialize, Serialize};
use shmd_fixed::{Accumulator, LaneAccumulator, Q16};
use shmd_volt::fault::{LaneCorruptor, ProductCorruptor};

/// A feed-forward multi-layer perceptron (float weights).
///
/// Build one with [`crate::builder::NetworkBuilder`]; train it with the
/// algorithms in [`crate::train`]; deploy it on the fault-injectable
/// datapath via [`Network::quantized`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
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
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
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
    /// Writes the layer's activations into `out` (cleared first).
    ///
    /// Monomorphic over the corruptor so the per-MAC `corrupt` call inlines
    /// into the accumulation loop instead of going through a vtable.
    fn forward_into<C: ProductCorruptor + ?Sized>(
        &self,
        input: &[Q16],
        out: &mut Vec<Q16>,
        corruptor: &mut C,
    ) {
        let stride = self.in_dim + 1;
        out.clear();
        out.reserve(self.out_dim);
        for o in 0..self.out_dim {
            let row = &self.weights[o * stride..(o + 1) * stride];
            let mut acc = Accumulator::new();
            for (w, x) in row[..self.in_dim].iter().zip(input) {
                acc.mac(*w, *x, |p| corruptor.corrupt(p));
            }
            acc.add_q16(row[self.in_dim]);
            // Activations are computed by LUT/dedicated logic off the
            // multiplier's critical path, so they evaluate exactly.
            let activated = self.activation.apply(acc.to_q16().to_f64());
            out.push(Q16::from_f64(activated));
        }
    }

    /// Batched forward pass over a lane-major activation plane: `input`
    /// holds `in_dim × LANES` values with lane `l`'s activation for input
    /// `i` at `input[i * LANES + l]`, and `out` is filled the same way
    /// (`out[o * LANES + l]`).
    ///
    /// The weight row is walked once for the whole batch, in two phases
    /// that keep the MAC loop free of *any* per-product stream logic:
    ///
    /// 1. **Event walk.** The corruptor's gap countdowns are drained over
    ///    the row ([`LaneCorruptor::lane_run`] hands back whole fault-free
    ///    runs per lane); each fault event computes just its own lane's
    ///    product, corrupts it, and records the substitution. Every lane
    ///    sees its draws in exactly the per-`(neuron, input)` order the
    ///    scalar path uses, so each lane's corruption stream stays
    ///    bit-identical.
    /// 2. **Span + patch.** One uninterrupted
    ///    [`LaneAccumulator::mac_span`] accumulates the whole row for all
    ///    lanes — the straight-line kernel the vectorizer chews on — and
    ///    the recorded substitutions are then patched into the affected
    ///    lane sums. A per-row magnitude bound (`row_abs · 2³¹` plus the
    ///    bias and every substituted product) proves no partial sum could
    ///    have left the `i64` range, which makes the patched sum
    ///    bit-identical to the sequential saturating accumulation; in the
    ///    adversarial case where the bound cannot prove it, the affected
    ///    lane is replayed sequentially with the recorded substitutions —
    ///    the scalar law verbatim.
    fn forward_batch_into<const LANES: usize, C: LaneCorruptor<LANES> + ?Sized>(
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
            // the scalar path issues over this row, so per-lane
            // bit-identity is untouched, and the MAC loop below stays
            // free of any per-product stream logic. A lane's whole
            // fault-free row is consumed by a single `lane_run` call.
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
            // Phase 2: one straight-line span over the whole row…
            let bias_mag = u128::from(bias.to_bits().unsigned_abs()) << 16;
            let row_bound = (u128::from(self.row_abs[o]) << 31) + bias_mag;
            let mut acc = LaneAccumulator::<LANES>::new();
            if row_bound <= i64::MAX as u128 {
                // The magnitude bound already proves no partial sum can
                // leave i64, so the saturating clamps are dead code and
                // the span can use plain wrapping adds (about half the
                // vectorized cost). Real quantized rows land here.
                acc.mac_span_wrapping(&row[..self.in_dim], &input[..self.in_dim * LANES]);
            } else {
                acc.mac_span(&row[..self.in_dim], &input[..self.in_dim * LANES]);
            }
            // …then patch the (rare) substituted products in.
            if !events.is_empty() {
                for ev in events.iter() {
                    let l = ev.lane as usize;
                    if row_bound + sub_mag[l] <= i64::MAX as u128 {
                        acc.patch(l, ev.product, ev.corrupted);
                    }
                }
                // Lanes whose bound cannot rule out saturation replay the
                // scalar law verbatim with the recorded substitutions.
                for l in 0..LANES {
                    if sub_mag[l] != 0 && row_bound + sub_mag[l] > i64::MAX as u128 {
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
            // The activation stage is the batched path's largest
            // non-event cost (one libm call per neuron per lane), so
            // hidden tanh layers go through the exhaustively verified
            // fast table instead — see the `fast_tanh` module for why
            // that is bit-identical to `Activation::apply`, which the
            // scalar path keeps as the oracle.
            if self.activation == Activation::SigmoidSymmetric {
                let table = fast_tanh();
                for l in 0..LANES {
                    out.push(table.apply(acc.to_q16(l)));
                }
            } else {
                for l in 0..LANES {
                    let activated = self.activation.apply(acc.to_q16(l).to_f64());
                    out.push(Q16::from_f64(activated));
                }
            }
        }
    }
}

/// Reusable activation buffers for the allocation-free inference path.
///
/// One scratch serves any number of inferences (and any network): each
/// [`QuantizedNetwork::infer_into`] / [`QuantizedNetwork::forward_into`]
/// call clears and refills the buffers, so the steady-state query path
/// performs zero heap allocations once the buffers have grown to the
/// largest layer width seen.
#[derive(Clone, Debug, Default)]
pub struct InferenceScratch {
    /// Quantised copy of the `f32` input.
    qin: Vec<Q16>,
    /// Ping-pong activation buffers.
    ping: Vec<Q16>,
    pong: Vec<Q16>,
}

impl InferenceScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> InferenceScratch {
        InferenceScratch::default()
    }
}

/// Runs `input` through `layers`, ping-ponging activations between the two
/// scratch buffers, and returns a borrow of the buffer holding the output.
fn forward_loop<'s, C: ProductCorruptor + ?Sized>(
    layers: &[QuantizedLayer],
    input: &[Q16],
    ping: &'s mut Vec<Q16>,
    pong: &'s mut Vec<Q16>,
    corruptor: &mut C,
) -> &'s [Q16] {
    let (mut cur, mut next) = (ping, pong);
    layers[0].forward_into(input, cur, corruptor);
    for layer in &layers[1..] {
        layer.forward_into(cur, next, corruptor);
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// One recorded fault substitution inside a neuron row: lane `lane`'s
/// product at weight `index` came out of the corruptor as `corrupted`
/// instead of `product`. Collected during the batched MAC's event walk and
/// patched into the lane sums after the straight-line span (see
/// [`QuantizedLayer::forward_batch_into`]).
#[derive(Clone, Copy, Debug)]
struct RowEvent {
    index: u32,
    lane: u32,
    product: i64,
    corrupted: i64,
}

/// Reusable lane-major activation planes for the batched inference path —
/// the structure-of-arrays counterpart of [`InferenceScratch`].
///
/// One ping/pong pair serves the *whole batch*: a plane stores layer
/// activations for all `LANES` queries interleaved lane-major
/// (`plane[i * LANES + l]` is query `l`'s activation `i`), which is what
/// lets the per-weight MAC touch `LANES` adjacent values. Buffers grow to
/// the largest `layer width × LANES` seen and are reused thereafter.
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

/// Batched counterpart of [`forward_loop`] over lane-major planes.
fn forward_batch_loop<'s, const LANES: usize, C: LaneCorruptor<LANES> + ?Sized>(
    layers: &[QuantizedLayer],
    input: &[Q16],
    ping: &'s mut Vec<Q16>,
    pong: &'s mut Vec<Q16>,
    corruptor: &mut C,
    events: &mut Vec<RowEvent>,
) -> &'s [Q16] {
    let (mut cur, mut next) = (ping, pong);
    layers[0].forward_batch_into(input, cur, corruptor, events);
    for layer in &layers[1..] {
        layer.forward_batch_into(cur, next, corruptor, events);
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// A network quantised to Q16.16 whose multiplications run through a
/// [`ProductCorruptor`] — the deployment form of a (Stochastic-)HMD.
///
/// With [`shmd_volt::fault::ExactDatapath`] this reproduces the float
/// network up to quantisation error; with a
/// [`shmd_volt::fault::FaultStream`] it becomes the undervolted detector.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
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

    /// Forward pass over Q16.16 inputs (object-safe entry point; thin
    /// wrapper over [`QuantizedNetwork::forward_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`QuantizedNetwork::input_dim`].
    pub fn forward(&self, input: &[Q16], corruptor: &mut dyn ProductCorruptor) -> Vec<Q16> {
        self.forward_with(input, corruptor)
    }

    /// Monomorphic forward pass over Q16.16 inputs: identical results to
    /// [`QuantizedNetwork::forward`], with the corruptor statically
    /// dispatched.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`QuantizedNetwork::input_dim`].
    pub fn forward_with<C: ProductCorruptor + ?Sized>(
        &self,
        input: &[Q16],
        corruptor: &mut C,
    ) -> Vec<Q16> {
        let mut scratch = InferenceScratch::new();
        self.forward_into(input, corruptor, &mut scratch).to_vec()
    }

    /// Allocation-free forward pass: activations ping-pong through
    /// `scratch`, and the returned slice borrows the buffer holding the
    /// output layer. Bit-identical to [`QuantizedNetwork::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`QuantizedNetwork::input_dim`].
    pub fn forward_into<'s, C: ProductCorruptor + ?Sized>(
        &self,
        input: &[Q16],
        corruptor: &mut C,
        scratch: &'s mut InferenceScratch,
    ) -> &'s [Q16] {
        assert_eq!(input.len(), self.input_dim(), "input width mismatch");
        let InferenceScratch { ping, pong, .. } = scratch;
        forward_loop(&self.layers, input, ping, pong, corruptor)
    }

    /// Convenience: quantises an `f32` input, runs the forward pass, and
    /// returns `f32` outputs (object-safe entry point; thin wrapper over
    /// [`QuantizedNetwork::infer_with`]).
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`QuantizedNetwork::input_dim`].
    pub fn infer(&self, input: &[f32], corruptor: &mut dyn ProductCorruptor) -> Vec<f32> {
        self.infer_with(input, corruptor)
    }

    /// Monomorphic [`QuantizedNetwork::infer`]: identical results, with the
    /// corruptor statically dispatched so the per-MAC fault hook inlines.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`QuantizedNetwork::input_dim`].
    pub fn infer_with<C: ProductCorruptor + ?Sized>(
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

    /// The steady-state query path: quantises the input and runs the
    /// forward pass entirely inside `scratch`, performing no heap
    /// allocation once the scratch buffers have warmed up. The returned
    /// Q16.16 slice borrows `scratch`; convert with [`Q16::to_f32`] as
    /// needed. Bit-identical to [`QuantizedNetwork::infer`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`QuantizedNetwork::input_dim`].
    pub fn infer_into<'s, C: ProductCorruptor + ?Sized>(
        &self,
        input: &[f32],
        corruptor: &mut C,
        scratch: &'s mut InferenceScratch,
    ) -> &'s [Q16] {
        assert_eq!(input.len(), self.input_dim(), "input width mismatch");
        let InferenceScratch { qin, ping, pong } = scratch;
        qin.clear();
        qin.extend(input.iter().map(|&v| Q16::from_f32(v)));
        forward_loop(&self.layers, qin, ping, pong, corruptor)
    }

    /// Batched allocation-free forward pass over a lane-major Q16.16 input
    /// plane (`input[i * LANES + l]` is lane `l`'s input `i`). Returns the
    /// lane-major output plane (`out[o * LANES + l]`), borrowing `scratch`.
    ///
    /// Lane `l`'s outputs are bit-identical to a scalar
    /// [`QuantizedNetwork::forward_into`] run with a corruptor walking the
    /// same per-lane corruption stream — the batch only changes memory
    /// layout and instruction scheduling, never arithmetic or fault law.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from
    /// [`QuantizedNetwork::input_dim`]` × LANES`.
    pub fn forward_batch_into<'s, const LANES: usize, C: LaneCorruptor<LANES> + ?Sized>(
        &self,
        input: &[Q16],
        corruptor: &mut C,
        scratch: &'s mut BatchScratch<LANES>,
    ) -> &'s [Q16] {
        assert_eq!(
            input.len(),
            self.input_dim() * LANES,
            "lane-major input plane width mismatch"
        );
        let BatchScratch {
            ping, pong, events, ..
        } = scratch;
        forward_batch_loop(&self.layers, input, ping, pong, corruptor, events)
    }

    /// The batched steady-state query path: quantises `LANES` `f32` inputs
    /// into the lane-major plane and runs the whole batch through every
    /// layer simultaneously, allocation-free once `scratch` has warmed up.
    /// Returns the lane-major Q16.16 output plane (`out[o * LANES + l]`),
    /// borrowing `scratch`.
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
        forward_batch_loop(&self.layers, qin, ping, pong, corruptor, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use proptest::prelude::*;
    use shmd_volt::fault::{ExactDatapath, FaultModel, FaultStream};

    fn small_net(seed: u64) -> Network {
        NetworkBuilder::new(4)
            .hidden(6)
            .output(1)
            .seed(seed)
            .build()
            .expect("valid network")
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
            let q_out = q.infer(&input, &mut ExactDatapath)[0];
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
        let exact = q.infer(&input, &mut ExactDatapath)[0];
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
        let exact = q.infer(&input, &mut ExactDatapath)[0];
        let mut inj = FaultStream::new(FaultModel::exact(), 11);
        assert_eq!(q.infer(&input, &mut inj)[0], exact);
    }

    #[test]
    fn infer_with_and_infer_into_are_bit_identical_to_infer() {
        // The monomorphic and allocation-free entry points must be exact
        // drop-in replacements for the dyn path, faulty or not.
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
            let via_dyn = q.infer(&input, &mut a);
            let via_generic = q.infer_with(&input, &mut b);
            let via_scratch: Vec<f32> = q
                .infer_into(&input, &mut c, &mut scratch)
                .iter()
                .map(|v| v.to_f32())
                .collect();
            assert_eq!(via_dyn, via_generic, "infer_with diverged on {input:?}");
            assert_eq!(via_dyn, via_scratch, "infer_into diverged on {input:?}");
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
        let expect_small = small.infer(&input, &mut ExactDatapath);
        let expect_wide = wide.infer(&input, &mut ExactDatapath);
        for _ in 0..3 {
            let s: Vec<f32> = small
                .infer_into(&input, &mut ExactDatapath, &mut scratch)
                .iter()
                .map(|v| v.to_f32())
                .collect();
            assert_eq!(s, expect_small);
            let w: Vec<f32> = wide
                .infer_into(&input, &mut ExactDatapath, &mut scratch)
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
        use shmd_volt::fault::{BatchFaultStream, FaultStream};
        // A deeper, wider net than the smoke fixture so multiple layers,
        // ping-pong swaps, and multi-output planes are all exercised.
        let net = NetworkBuilder::new(4)
            .hidden(9)
            .hidden(5)
            .output(2)
            .seed(seed)
            .build()
            .expect("valid network")
            .quantized();
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
        let mut scratch = InferenceScratch::new();
        for l in 0..LANES {
            let mut scalar_stream = FaultStream::new(&model, seeds[l]);
            let scalar = net.infer_into(inputs[l], &mut scalar_stream, &mut scratch);
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
        // layer can dispatch: lane l of the batched path reproduces the
        // scalar path bit for bit — outputs *and* fault statistics.
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

    #[test]
    fn exact_batch_matches_exact_scalar() {
        use shmd_volt::fault::ExactLanes;
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
            let scalar = net.infer(input, &mut ExactDatapath);
            for (o, &expected) in scalar.iter().enumerate() {
                assert_eq!(plane[o * LANES + l].to_f32(), expected, "lane {l}");
            }
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
            use shmd_volt::fault::{BatchFaultStream, FaultStream};
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
            let mut scratch = InferenceScratch::new();
            for l in 0..LANES {
                let mut scalar_stream = FaultStream::new(&model, seeds[l]);
                let scalar = net.infer_into(input_refs[l], &mut scalar_stream, &mut scratch);
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
