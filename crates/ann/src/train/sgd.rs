//! Incremental stochastic gradient descent with momentum
//! (FANN's `FANN_TRAIN_INCREMENTAL`).

use super::{assert_widths, forward_mse, gradients, mse, weights_mut, Lanes, TrainData};
use crate::network::Network;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Incremental SGD trainer.
///
/// Weights update after every sample; sample order is reshuffled per epoch
/// with a deterministic seed.
#[derive(Clone, Debug)]
pub struct SgdTrainer {
    learning_rate: f64,
    momentum: f64,
    epochs: usize,
    target_mse: f64,
    seed: u64,
}

impl SgdTrainer {
    /// A trainer with FANN-like defaults (η = 0.7, no momentum).
    pub fn new() -> SgdTrainer {
        SgdTrainer {
            learning_rate: 0.7,
            momentum: 0.0,
            epochs: 500,
            target_mse: 1e-4,
            seed: 0,
        }
    }

    /// Sets the learning rate.
    #[must_use]
    pub fn learning_rate(mut self, lr: f64) -> SgdTrainer {
        self.learning_rate = lr;
        self
    }

    /// Sets the momentum coefficient.
    #[must_use]
    pub fn momentum(mut self, m: f64) -> SgdTrainer {
        self.momentum = m;
        self
    }

    /// Sets the maximum number of epochs.
    #[must_use]
    pub fn epochs(mut self, epochs: usize) -> SgdTrainer {
        self.epochs = epochs;
        self
    }

    /// Stops early when the MSE drops below this value.
    #[must_use]
    pub fn target_mse(mut self, mse: f64) -> SgdTrainer {
        self.target_mse = mse;
        self
    }

    /// Sets the shuffle seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> SgdTrainer {
        self.seed = seed;
        self
    }

    /// Trains the network in place; returns the final MSE (the untouched
    /// network's MSE when `epochs` is 0).
    ///
    /// # Panics
    ///
    /// Panics if the data's input or target width differs from the
    /// network's.
    pub fn train(&self, net: &mut Network, data: &TrainData) -> f64 {
        assert_widths(net, data);
        if self.epochs == 0 {
            return mse(net, data);
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut velocity = vec![0.0f32; net.num_weights()];
        let mut grads = vec![0.0f32; net.num_weights()];
        let mut trace = vec![0.0f32; net.trace_len()];
        let mut delta = vec![0.0f64; net.trace_len()];
        let mut epoch_traces = vec![0.0f32; data.len() * net.trace_len()];
        let mut lanes = Lanes::new(net);
        let mut last_mse = f64::INFINITY;
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                // Weights move after every sample, so each one is traced
                // afresh at the current weights.
                let (input, target) = data.sample(i);
                net.forward_trace_into(input, &mut trace);
                gradients(net, input, &trace, target, &mut grads, &mut delta);
                for ((wt, &g), vel) in weights_mut(net).zip(&grads).zip(&mut velocity) {
                    let v = self.momentum * f64::from(*vel) - self.learning_rate * f64::from(g);
                    *vel = v as f32;
                    *wt += v as f32;
                }
            }
            last_mse = forward_mse(net, data, &mut epoch_traces, &mut lanes);
            if last_mse < self.target_mse {
                break;
            }
        }
        last_mse
    }
}

impl Default for SgdTrainer {
    fn default() -> SgdTrainer {
        SgdTrainer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;

    fn and_data() -> TrainData {
        TrainData::new(
            vec![vec![0., 0.], vec![0., 1.], vec![1., 0.], vec![1., 1.]],
            vec![vec![0.], vec![0.], vec![0.], vec![1.]],
        )
        .unwrap()
    }

    #[test]
    fn learns_linearly_separable_problem() {
        let mut net = NetworkBuilder::new(2).output(1).seed(1).build().unwrap();
        let data = and_data();
        let final_mse = SgdTrainer::new().epochs(2000).train(&mut net, &data);
        assert!(final_mse < 0.05, "mse = {final_mse}");
    }

    #[test]
    fn early_stops_at_target() {
        let mut net = NetworkBuilder::new(2).output(1).seed(1).build().unwrap();
        let data = and_data();
        let final_mse = SgdTrainer::new()
            .epochs(100_000)
            .target_mse(0.05)
            .train(&mut net, &data);
        assert!(final_mse < 0.06);
    }

    #[test]
    fn momentum_does_not_break_training() {
        let mut net = NetworkBuilder::new(2).output(1).seed(2).build().unwrap();
        let data = and_data();
        let final_mse = SgdTrainer::new()
            .momentum(0.5)
            .epochs(2000)
            .train(&mut net, &data);
        assert!(final_mse < 0.05, "mse = {final_mse}");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let data = and_data();
        let mut a = NetworkBuilder::new(2)
            .hidden(3)
            .output(1)
            .seed(3)
            .build()
            .unwrap();
        let mut b = a.clone();
        SgdTrainer::new().seed(9).epochs(50).train(&mut a, &data);
        SgdTrainer::new().seed(9).epochs(50).train(&mut b, &data);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_epochs_return_the_untouched_mse() {
        let data = and_data();
        let mut net = NetworkBuilder::new(2)
            .hidden(3)
            .output(1)
            .seed(4)
            .build()
            .unwrap();
        let before = net.clone();
        let final_mse = SgdTrainer::new().epochs(0).train(&mut net, &data);
        assert_eq!(net, before);
        assert_eq!(final_mse.to_bits(), mse(&net, &data).to_bits());
    }

    #[test]
    #[should_panic(expected = "target width mismatch")]
    fn a_target_wider_than_the_output_panics_before_training() {
        let data = TrainData::new(vec![vec![0.0, 1.0]; 3], vec![vec![0.0, 1.0]; 3]).unwrap();
        let mut net = NetworkBuilder::new(2).output(1).seed(5).build().unwrap();
        SgdTrainer::new().epochs(3).train(&mut net, &data);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn mse_panics_on_an_input_width_mismatch() {
        let net = NetworkBuilder::new(3).output(1).seed(5).build().unwrap();
        mse(&net, &and_data());
    }

    #[test]
    fn mse_decreases_with_training() {
        let data = and_data();
        let mut net = NetworkBuilder::new(2)
            .hidden(3)
            .output(1)
            .seed(4)
            .build()
            .unwrap();
        let before = mse(&net, &data);
        SgdTrainer::new().epochs(500).train(&mut net, &data);
        assert!(mse(&net, &data) < before);
    }
}
