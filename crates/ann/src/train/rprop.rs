//! Batch iRPROP− training (FANN's default algorithm).
//!
//! Resilient propagation adapts a per-weight step size from the *sign* of
//! the batch gradient only, which makes it insensitive to gradient magnitude
//! and very fast on small dense networks like HMDs. The iRPROP− variant
//! zeroes the stored gradient after a sign change instead of backtracking.

use super::{weights_mut, BatchPass, TrainData};
use crate::network::Network;

/// iRPROP− trainer with FANN's default hyper-parameters.
#[derive(Clone, Debug)]
pub struct RpropTrainer {
    increase: f64,
    decrease: f64,
    delta_zero: f64,
    delta_min: f64,
    delta_max: f64,
    epochs: usize,
    target_mse: f64,
    threads: usize,
}

impl RpropTrainer {
    /// A trainer with the canonical constants
    /// (η⁺ = 1.2, η⁻ = 0.5, Δ₀ = 0.1, Δmin = 10⁻⁶, Δmax = 50).
    pub fn new() -> RpropTrainer {
        RpropTrainer {
            increase: 1.2,
            decrease: 0.5,
            delta_zero: 0.1,
            delta_min: 1e-6,
            delta_max: 50.0,
            epochs: 500,
            target_mse: 1e-4,
            threads: 1,
        }
    }

    /// Sets the maximum number of epochs.
    #[must_use]
    pub fn epochs(mut self, epochs: usize) -> RpropTrainer {
        self.epochs = epochs;
        self
    }

    /// Stops early when the MSE drops below this value.
    #[must_use]
    pub fn target_mse(mut self, mse: f64) -> RpropTrainer {
        self.target_mse = mse;
        self
    }

    /// Splits each epoch's forward pass and gradient across up to
    /// `threads` scoped workers (default 1; 0 counts as 1). This changes
    /// wall-clock time only: the trained weights and the returned MSE are
    /// bit-identical at every count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> RpropTrainer {
        self.threads = threads.max(1);
        self
    }

    /// Trains the network in place; returns the final MSE (the untouched
    /// network's MSE when `epochs` is 0).
    ///
    /// Each epoch makes one forward pass per sample: the pass that measures
    /// the epoch's MSE also backpropagates each sample, and the next
    /// epoch's gradient sums over the deltas it keeps.
    ///
    /// # Panics
    ///
    /// Panics if the data's input or target width differs from the
    /// network's.
    pub fn train(&self, net: &mut Network, data: &TrainData) -> f64 {
        let n = net.num_weights();
        let mut step = vec![self.delta_zero; n];
        let mut prev_grad = vec![0.0f64; n];
        BatchPass::run(&net.clone(), data, self.threads, |pass| {
            let mut last_mse = pass.forward(net);
            for _ in 0..self.epochs {
                let grad = pass.gradient(net);
                // Per-weight sign-based update.
                for (((wt, &g), step), prev) in weights_mut(net)
                    .zip(grad)
                    .zip(&mut step)
                    .zip(&mut prev_grad)
                {
                    let sign_product = g * *prev;
                    if sign_product > 0.0 {
                        *step = (*step * self.increase).min(self.delta_max);
                        *wt -= (g.signum() * *step) as f32;
                        *prev = g;
                    } else if sign_product < 0.0 {
                        *step = (*step * self.decrease).max(self.delta_min);
                        // iRPROP−: no weight revert, just forget the gradient.
                        *prev = 0.0;
                    } else {
                        *wt -= (g.signum() * *step) as f32;
                        *prev = g;
                    }
                }
                last_mse = pass.forward(net);
                if last_mse < self.target_mse {
                    break;
                }
            }
            last_mse
        })
    }
}

impl Default for RpropTrainer {
    fn default() -> RpropTrainer {
        RpropTrainer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::train::mse;

    fn or_data() -> TrainData {
        TrainData::new(
            vec![vec![0., 0.], vec![0., 1.], vec![1., 0.], vec![1., 1.]],
            vec![vec![0.], vec![1.], vec![1.], vec![1.]],
        )
        .unwrap()
    }

    #[test]
    fn learns_or() {
        let mut net = NetworkBuilder::new(2).output(1).seed(1).build().unwrap();
        let data = or_data();
        let final_mse = RpropTrainer::new().epochs(300).train(&mut net, &data);
        assert!(final_mse < 0.05, "mse = {final_mse}");
    }

    #[test]
    fn is_deterministic() {
        let data = or_data();
        let mut a = NetworkBuilder::new(2)
            .hidden(3)
            .output(1)
            .seed(2)
            .build()
            .unwrap();
        let mut b = a.clone();
        RpropTrainer::new().epochs(60).train(&mut a, &data);
        RpropTrainer::new().epochs(60).train(&mut b, &data);
        assert_eq!(a, b, "rprop is a deterministic batch algorithm");
    }

    #[test]
    fn early_stops_at_target() {
        let mut net = NetworkBuilder::new(2).output(1).seed(3).build().unwrap();
        let data = or_data();
        let final_mse = RpropTrainer::new()
            .epochs(1_000_000)
            .target_mse(0.05)
            .train(&mut net, &data);
        assert!(final_mse < 0.06);
    }

    #[test]
    fn zero_epochs_return_the_untouched_mse() {
        let data = or_data();
        let mut net = NetworkBuilder::new(2)
            .hidden(3)
            .output(1)
            .seed(4)
            .build()
            .unwrap();
        let before = net.clone();
        let final_mse = RpropTrainer::new().epochs(0).train(&mut net, &data);
        assert_eq!(net, before);
        assert_eq!(final_mse.to_bits(), mse(&net, &data).to_bits());
    }

    #[test]
    fn mse_decreases() {
        let data = or_data();
        let mut net = NetworkBuilder::new(2)
            .hidden(3)
            .output(1)
            .seed(4)
            .build()
            .unwrap();
        let before = mse(&net, &data);
        RpropTrainer::new().epochs(100).train(&mut net, &data);
        assert!(mse(&net, &data) < before);
    }
}
