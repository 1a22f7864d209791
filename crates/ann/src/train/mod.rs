//! Training algorithms: incremental SGD and batch iRPROP− (FANN's default).

mod data;
mod quantaware;
mod rprop;
mod sgd;

pub use data::{TrainData, TrainDataError};
pub use quantaware::QatTrainer;
pub use rprop::RpropTrainer;
pub use sgd::SgdTrainer;

use crate::network::Network;

/// Reusable backpropagation scratch: the deltas of the layer being walked
/// and of the one below it.
#[derive(Debug, Default)]
pub(crate) struct DeltaScratch {
    cur: Vec<f64>,
    next: Vec<f64>,
}

/// Writes the per-weight gradients of the half-squared error on one sample
/// into `grads`: the layers' weights concatenated, input side first, each
/// laid out like [`crate::layer::Layer::weights`]. `trace` is the sample's
/// forward trace at the network's current weights (see
/// [`Network::forward_trace_into`]). Allocation-free once `scratch` has
/// grown to the widest layer.
pub(crate) fn gradients(
    net: &Network,
    input: &[f32],
    trace: &[f32],
    target: &[f32],
    grads: &mut [f32],
    scratch: &mut DeltaScratch,
) {
    let layers = net.layers();
    let DeltaScratch { cur: delta, next } = scratch;
    // Output delta: (y - t) * f'(y)
    let out_layer = layers.last().expect("non-empty");
    let output = &trace[trace.len() - out_layer.out_dim()..];
    delta.clear();
    delta.extend(output.iter().zip(target).map(|(&y, &t)| {
        f64::from(y - t) * out_layer.activation().derivative_from_output(f64::from(y))
    }));

    // Walk the layers backwards; `t_end`/`w_end` mark where the current
    // layer's activations end in `trace` and its gradients in `grads`.
    let (mut t_end, mut w_end) = (trace.len(), grads.len());
    for (l, layer) in layers.iter().enumerate().rev() {
        let in_dim = layer.in_dim();
        t_end -= layer.out_dim();
        let prev = if l == 0 {
            input
        } else {
            &trace[t_end - in_dim..t_end]
        };
        let layer_grads = &mut grads[w_end - layer.len()..w_end];
        w_end -= layer.len();
        for (row, &d) in layer_grads.chunks_exact_mut(in_dim + 1).zip(delta.iter()) {
            for (g, &x) in row[..in_dim].iter_mut().zip(prev) {
                *g = (d * f64::from(x)) as f32;
            }
            row[in_dim] = d as f32; // bias
        }
        if l > 0 {
            // Propagate delta to the previous layer.
            let prev_layer = &layers[l - 1];
            next.clear();
            next.resize(in_dim, 0.0);
            for (o, &d) in delta.iter().enumerate() {
                for (nd, &w) in next.iter_mut().zip(&layer.row(o)[..in_dim]) {
                    *nd += d * f64::from(w);
                }
            }
            for (nd, &a) in next.iter_mut().zip(prev) {
                *nd *= prev_layer.activation().derivative_from_output(f64::from(a));
            }
            std::mem::swap(delta, next);
        }
    }
}

/// Forward-traces every sample into `traces` (one [`Network::trace_len`]
/// slot per sample, in sample order) and returns the mean squared error of
/// the outputs.
///
/// # Panics
///
/// Panics if `traces` does not hold exactly one trace per sample.
pub(crate) fn forward_all(net: &Network, data: &TrainData, traces: &mut [f32]) -> f64 {
    let trace_len = net.trace_len();
    assert_eq!(traces.len(), data.len() * trace_len, "one trace per sample");
    let mut total = 0.0;
    let mut count = 0usize;
    for ((input, target), trace) in data.iter().zip(traces.chunks_exact_mut(trace_len)) {
        for (&y, &t) in net.forward_trace_into(input, trace).iter().zip(target) {
            total += f64::from(y - t) * f64::from(y - t);
            count += 1;
        }
    }
    total / count.max(1) as f64
}

/// A batch epoch's buffers: every sample's trace from the last
/// [`BatchPass::forward`], one sample's f32 gradient, the backpropagation
/// scratch, and the f64 batch sum.
///
/// One forward pass per epoch serves two purposes: its MSE is the epoch's,
/// and its traces are what the next [`BatchPass::gradient`] backpropagates
/// through.
#[derive(Debug)]
pub(crate) struct BatchPass {
    traces: Vec<f32>,
    sample: Vec<f32>,
    scratch: DeltaScratch,
    sum: Vec<f64>,
}

impl BatchPass {
    pub(crate) fn new(net: &Network, data: &TrainData) -> BatchPass {
        BatchPass {
            traces: vec![0.0; data.len() * net.trace_len()],
            sample: vec![0.0; net.num_weights()],
            scratch: DeltaScratch::default(),
            sum: vec![0.0; net.num_weights()],
        }
    }

    /// Traces every sample at the network's current weights; returns the
    /// MSE.
    pub(crate) fn forward(&mut self, net: &Network, data: &TrainData) -> f64 {
        forward_all(net, data, &mut self.traces)
    }

    /// The batch gradient at the weights of the last
    /// [`BatchPass::forward`]: each sample's gradient rounded to f32,
    /// summed in f64 in sample order. Laid out like [`gradients`].
    pub(crate) fn gradient(&mut self, net: &Network, data: &TrainData) -> &[f64] {
        self.sum.fill(0.0);
        let traces = self.traces.chunks_exact(net.trace_len());
        for ((input, target), trace) in data.iter().zip(traces) {
            gradients(
                net,
                input,
                trace,
                target,
                &mut self.sample,
                &mut self.scratch,
            );
            for (a, &g) in self.sum.iter_mut().zip(&self.sample) {
                *a += f64::from(g);
            }
        }
        &self.sum
    }
}

/// Every weight of the network, input side first, in [`gradients`] order.
fn weights_mut(net: &mut Network) -> impl Iterator<Item = &mut f32> {
    net.layers_mut()
        .iter_mut()
        .flat_map(|l| l.weights_mut().iter_mut())
}

/// Mean squared error of a network over a dataset.
pub fn mse(net: &Network, data: &TrainData) -> f64 {
    forward_all(net, data, &mut vec![0.0; data.len() * net.trace_len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

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
        gradients(
            &net,
            &input,
            &trace,
            &target,
            &mut analytic,
            &mut DeltaScratch::default(),
        );
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
    fn sgd_learns_xor() {
        let mut net = NetworkBuilder::new(2)
            .hidden(4)
            .output(1)
            .seed(7)
            .build()
            .unwrap();
        let data = xor_data();
        SgdTrainer::new()
            .epochs(5000)
            .learning_rate(0.7)
            .train(&mut net, &data);
        assert!(mse(&net, &data) < 0.05, "mse = {}", mse(&net, &data));
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
    fn synthetic(n: usize, dim: usize, seed: u64) -> TrainData {
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

    fn pinned_net(seed: u64) -> Network {
        NetworkBuilder::new(6)
            .hidden(5)
            .output(1)
            .seed(seed)
            .build()
            .unwrap()
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

    #[test]
    fn pinned_sgd() {
        let data = synthetic(48, 6, 2);
        let mut net = pinned_net(22);
        let final_mse = SgdTrainer::new()
            .epochs(15)
            .learning_rate(0.3)
            .momentum(0.5)
            .seed(9)
            .train(&mut net, &data);
        assert_eq!(model_hash(&net, final_mse), 546_336_021_673_512_753);
    }

    #[test]
    fn pinned_qat_fine_tune() {
        let data = synthetic(48, 6, 3);
        let mut net = pinned_net(23);
        RpropTrainer::new().epochs(20).train(&mut net, &data);
        let final_mse = QatTrainer::new().epochs(6).fine_tune(&mut net, &data);
        assert_eq!(model_hash(&net, final_mse), 6_010_443_388_064_602_081);
    }

    #[test]
    fn rprop_converges_faster_than_sgd_per_epoch() {
        // Motivation for FANN's default choice on this tiny problem.
        let data = xor_data();
        let mut a = NetworkBuilder::new(2)
            .hidden(4)
            .output(1)
            .seed(5)
            .build()
            .unwrap();
        let mut b = a.clone();
        RpropTrainer::new().epochs(300).train(&mut a, &data);
        SgdTrainer::new()
            .epochs(300)
            .learning_rate(0.3)
            .train(&mut b, &data);
        assert!(mse(&a, &data) <= mse(&b, &data) + 0.05);
    }
}
