//! Training: batch iRPROP− (FANN's default algorithm) over a [`TrainData`]
//! set.

mod batch;
mod data;
mod rprop;

pub use data::{TrainData, TrainDataError};
pub use rprop::RpropTrainer;

use crate::network::Network;
use batch::BatchPass;
use std::ops::Range;

/// Backpropagates `B` samples at once: writes the delta of the
/// half-squared error at every neuron into `delta`, laid out like `trace`,
/// the samples' lane-major forward trace at the network's current weights
/// (see [`Network::forward_trace_lanes`]); `target` is lane-major too.
/// Each lane's deltas are bit-identical to backpropagating its sample
/// alone (`B = 1`, the layout of [`Network::forward_trace_into`]).
pub(crate) fn backprop<const B: usize>(
    net: &Network,
    trace: &[f32],
    target: &[f32],
    delta: &mut [f64],
) {
    let layers = net.layers();
    // Output delta: (y - t) * f'(y)
    let out_layer = layers.last().expect("non-empty");
    let mut end = trace.len();
    let out = end - out_layer.out_dim() * B;
    let act = out_layer.activation();
    for ((d, &y), &t) in delta[out..end].iter_mut().zip(&trace[out..]).zip(target) {
        *d = f64::from(y - t) * act.derivative_from_output(f64::from(y));
    }
    // Walk the layers backwards; `end` marks where the current layer's
    // neurons end in `trace` and `delta`.
    for l in (1..layers.len()).rev() {
        let layer = &layers[l];
        let in_dim = layer.in_dim();
        let start = end - layer.out_dim() * B;
        let (below, cur) = delta[..end].split_at_mut(start);
        let next = &mut below[start - in_dim * B..];
        next.fill(0.0);
        let rows = layer.weights().chunks_exact(in_dim + 1);
        for (row, d) in rows.zip(cur.chunks_exact(B)) {
            for (nd, &w) in next.chunks_exact_mut(B).zip(&row[..in_dim]) {
                for (nd, &d) in nd.iter_mut().zip(d) {
                    *nd += d * f64::from(w);
                }
            }
        }
        let act = layers[l - 1].activation();
        for (nd, &a) in next.iter_mut().zip(&trace[start - in_dim * B..start]) {
            *nd *= act.derivative_from_output(f64::from(a));
        }
        end = start;
    }
}

/// Calls `f(slot, g)` with the f32 gradient `g` of each weight in `rows`,
/// one sample's worth. A row is one neuron's weights, bias last, and rows
/// are numbered like the trace (every neuron of layer 0, then layer 1, …),
/// so their weights follow [`crate::layer::Layer::weights`] order
/// concatenated input side first. `slots` holds one slot per weight of
/// `rows`, in that order; `delta` is the sample's [`backprop`].
#[inline]
fn for_each_gradient<T>(
    net: &Network,
    input: &[f32],
    trace: &[f32],
    delta: &[f64],
    rows: Range<usize>,
    mut slots: &mut [T],
    mut f: impl FnMut(&mut T, f32),
) {
    let mut first = 0;
    for layer in net.layers() {
        let in_dim = layer.in_dim();
        let lo = rows.start.max(first);
        let hi = rows.end.min(first + layer.out_dim());
        if lo < hi {
            let prev = if first == 0 {
                input
            } else {
                &trace[first - in_dim..first]
            };
            let (here, rest) = std::mem::take(&mut slots).split_at_mut((hi - lo) * (in_dim + 1));
            slots = rest;
            for (row, &d) in here.chunks_exact_mut(in_dim + 1).zip(&delta[lo..hi]) {
                let (weights, bias) = row.split_at_mut(in_dim);
                for (g, &x) in weights.iter_mut().zip(prev) {
                    f(g, (d * f64::from(x)) as f32);
                }
                f(&mut bias[0], d as f32);
            }
        }
        first += layer.out_dim();
    }
}

/// Every weight of the network: the layers' weights concatenated, input
/// side first, each laid out like [`crate::layer::Layer::weights`].
fn weights_mut(net: &mut Network) -> impl Iterator<Item = &mut f32> {
    net.layers_mut()
        .iter_mut()
        .flat_map(|l| l.weights_mut().iter_mut())
}

/// Panics unless the data's input and target widths are the network's.
fn assert_widths(net: &Network, data: &TrainData) {
    assert_eq!(data.input_dim(), net.input_dim(), "input width mismatch");
    assert_eq!(data.target_dim(), net.output_dim(), "target width mismatch");
}

/// Mean squared error of a network over a dataset.
///
/// # Panics
///
/// Panics if the data's input or target width differs from the network's.
pub fn mse(net: &Network, data: &TrainData) -> f64 {
    BatchPass::run(net, data, 1, |pass| pass.forward(net))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    /// Writes the per-weight gradients of the half-squared error on one
    /// sample into `grads`: the layers' weights concatenated, input side
    /// first, each laid out like [`crate::layer::Layer::weights`]. `trace`
    /// is the sample's forward trace at the network's current weights (see
    /// [`Network::forward_trace_into`]); `delta` is scratch of
    /// [`Network::trace_len`] values. The per-sample reference the batch
    /// pass is checked against.
    pub(super) fn gradients(
        net: &Network,
        input: &[f32],
        trace: &[f32],
        target: &[f32],
        grads: &mut [f32],
        delta: &mut [f64],
    ) {
        backprop::<1>(net, trace, target, delta);
        for_each_gradient(net, input, trace, delta, 0..trace.len(), grads, |g, v| {
            *g = v;
        });
    }

    fn xor_data() -> TrainData {
        TrainData::new(
            vec![vec![0., 0.], vec![0., 1.], vec![1., 0.], vec![1., 1.]],
            vec![vec![0.], vec![1.], vec![1.], vec![0.]],
        )
        .expect("valid")
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // lock-step indexing across arrays
    fn numeric_gradient_check() {
        let mut net = NetworkBuilder::new(2)
            .hidden(3)
            .output(1)
            .seed(11)
            .build()
            .unwrap();
        let input = [0.4f32, -0.7];
        let target = [1.0f32];
        let mut trace = vec![0.0; net.trace_len()];
        net.forward_trace_into(&input, &mut trace);
        let mut analytic = vec![0.0; net.num_weights()];
        let mut delta = vec![0.0; net.trace_len()];
        gradients(&net, &input, &trace, &target, &mut analytic, &mut delta);
        let eps = 1e-3f32;
        let loss = |n: &Network| {
            let y = n.forward(&input)[0];
            0.5 * f64::from(y - target[0]) * f64::from(y - target[0])
        };
        let mut k = 0;
        for l in 0..net.layers().len() {
            for w in 0..net.layers()[l].len() {
                let orig = net.layers()[l].weights()[w];
                net.layers_mut()[l].weights_mut()[w] = orig + eps;
                let hi = loss(&net);
                net.layers_mut()[l].weights_mut()[w] = orig - eps;
                let lo = loss(&net);
                net.layers_mut()[l].weights_mut()[w] = orig;
                let numeric = (hi - lo) / (2.0 * f64::from(eps));
                let got = f64::from(analytic[k]);
                assert!(
                    (numeric - got).abs() < 2e-2,
                    "layer {l} weight {w}: numeric {numeric} vs analytic {got}"
                );
                k += 1;
            }
        }
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn mse_panics_on_an_input_width_mismatch() {
        let net = NetworkBuilder::new(3).output(1).seed(5).build().unwrap();
        mse(&net, &xor_data());
    }

    #[test]
    fn rprop_learns_xor() {
        let mut net = NetworkBuilder::new(2)
            .hidden(4)
            .output(1)
            .seed(5)
            .build()
            .unwrap();
        let data = xor_data();
        RpropTrainer::new().epochs(800).train(&mut net, &data);
        assert!(mse(&net, &data) < 0.05, "mse = {}", mse(&net, &data));
    }

    /// Deterministic synthetic samples: uniform inputs in `[0, 1)` and a
    /// binary target that depends on a few of them.
    pub(super) fn synthetic(n: usize, dim: usize, seed: u64) -> TrainData {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen::<f32>()).collect())
            .collect();
        let targets = inputs
            .iter()
            .map(|x| vec![if x[0] + x[1] > x[2] + 0.5 { 1.0 } else { 0.0 }])
            .collect();
        TrainData::new(inputs, targets).expect("valid")
    }

    /// FNV-1a over every weight's bits, then the returned MSE's bits: a
    /// trained model's fingerprint.
    fn model_hash(net: &Network, mse: f64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let weights = net.layers().iter().flat_map(|l| l.weights());
        let bytes = weights
            .flat_map(|w| w.to_bits().to_le_bytes())
            .chain(mse.to_bits().to_le_bytes());
        for b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    pub(super) fn pinned_net(seed: u64) -> Network {
        NetworkBuilder::new(6)
            .hidden(5)
            .output(1)
            .seed(seed)
            .build()
            .unwrap()
    }

    /// `mse` and an untrained RPROP run return these bits, captured when
    /// `mse` still ran a forward-only pass of its own.
    #[test]
    fn pinned_mse() {
        let pins = [
            (4, 0x3fd2_7d04_1b2d_9894),
            (13, 0x3fd0_9084_95c0_5db5),
            (1_203, 0x3fd1_e27e_f334_bce7),
        ];
        for (n, want) in pins {
            let data = synthetic(n, 6, 5);
            let mut net = pinned_net(24);
            assert_eq!(mse(&net, &data).to_bits(), want, "mse, {n} samples");
            let untrained = RpropTrainer::new().epochs(0).train(&mut net, &data);
            assert_eq!(untrained.to_bits(), want, "0 epochs, {n} samples");
        }
    }

    // The pinned hashes below were captured before training shared its
    // forward passes between the MSE and the next gradient; any change to
    // the arithmetic or its accumulation order moves them.

    #[test]
    fn pinned_rprop_to_epoch_cap() {
        let data = synthetic(48, 6, 1);
        let mut net = pinned_net(21);
        let final_mse = RpropTrainer::new().epochs(40).train(&mut net, &data);
        assert_eq!(model_hash(&net, final_mse), 14_618_870_256_865_672_824);
    }

    #[test]
    fn pinned_rprop_early_stop() {
        let data = xor_data();
        let mut net = NetworkBuilder::new(2)
            .hidden(4)
            .output(1)
            .seed(5)
            .build()
            .unwrap();
        let final_mse = RpropTrainer::new()
            .epochs(10_000)
            .target_mse(0.01)
            .train(&mut net, &data);
        assert!(final_mse < 0.01, "mse = {final_mse}");
        assert_eq!(model_hash(&net, final_mse), 934_710_710_726_938_617);
    }
}
