//! Quantisation-aware fine-tuning.
//!
//! The deployed HMD runs in Q16.16, but training happens in `f32`; the
//! quantisation gap slightly shifts scores near the decision boundary.
//! Quantisation-aware training (QAT) narrows it: after ordinary training, a
//! few fine-tuning epochs run the forward pass in floating point at the
//! weights snapped to the Q16.16 grid, not through the Q16.16 datapath
//! itself, and apply the resulting gradients to full-precision shadow
//! weights (a straight-through estimator: the snap counts as the
//! identity). The paper needs no QAT — its defense explicitly avoids
//! retraining — but a deployment that wants the last fraction of a percent
//! of baseline accuracy can apply it before enabling undervolting.

use super::{weights_mut, BatchPass, TrainData};
use crate::network::Network;
use shmd_fixed::Q16;

/// Quantisation-aware fine-tuner (straight-through estimator).
#[derive(Clone, Debug)]
pub struct QatTrainer {
    learning_rate: f64,
    epochs: usize,
}

impl QatTrainer {
    /// A fine-tuner with a deliberately small learning rate (QAT polishes,
    /// it does not re-learn).
    pub fn new() -> QatTrainer {
        QatTrainer {
            learning_rate: 0.05,
            epochs: 30,
        }
    }

    /// Sets the learning rate.
    #[must_use]
    pub fn learning_rate(mut self, lr: f64) -> QatTrainer {
        self.learning_rate = lr;
        self
    }

    /// Sets the number of fine-tuning epochs.
    #[must_use]
    pub fn epochs(mut self, epochs: usize) -> QatTrainer {
        self.epochs = epochs;
        self
    }

    /// Fine-tunes the network so that its *quantised* weights fit the data:
    /// each epoch snaps the weights to the Q16.16 grid, runs the float
    /// forward pass and gradient at the snapped point, and applies the
    /// gradient to the full-precision weights (straight-through). Leaves
    /// the network at its snapped weights and returns their float-forward
    /// MSE. Runs on one thread.
    ///
    /// # Panics
    ///
    /// Panics if the data's input or target width differs from the
    /// network's.
    pub fn fine_tune(&self, net: &mut Network, data: &TrainData) -> f64 {
        // Keep full-precision "shadow" weights; gradients accumulate there.
        let mut shadow: Vec<f32> = net
            .layers()
            .iter()
            .flat_map(|l| l.weights())
            .copied()
            .collect();
        let n = data.len() as f64;
        BatchPass::run(&net.clone(), data, 1, |pass| {
            for _ in 0..self.epochs {
                snap(net, &shadow);
                // Batch gradient at the snapped point.
                pass.forward(net);
                let grad = pass.gradient(net);
                // Straight-through: apply to the shadow weights.
                for (s, &g) in shadow.iter_mut().zip(grad) {
                    *s -= (self.learning_rate * g / n) as f32;
                }
            }
            // Leave the network holding the quantised weights.
            snap(net, &shadow);
            pass.forward(net)
        })
    }
}

/// Sets every weight to its shadow weight snapped to the Q16.16 grid.
fn snap(net: &mut Network, shadow: &[f32]) {
    for (w, &s) in weights_mut(net).zip(shadow) {
        *w = Q16::from_f32(s).to_f32();
    }
}

impl Default for QatTrainer {
    fn default() -> QatTrainer {
        QatTrainer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::train::{mse, RpropTrainer};
    use shmd_volt::fault::ExactDatapath;

    fn xor_data() -> TrainData {
        TrainData::new(
            vec![vec![0., 0.], vec![0., 1.], vec![1., 0.], vec![1., 1.]],
            vec![vec![0.], vec![1.], vec![1.], vec![0.]],
        )
        .expect("valid")
    }

    #[test]
    fn qat_leaves_weights_on_the_q16_grid() {
        let mut net = NetworkBuilder::new(2)
            .hidden(4)
            .output(1)
            .seed(3)
            .build()
            .unwrap();
        let data = xor_data();
        RpropTrainer::new().epochs(400).train(&mut net, &data);
        QatTrainer::new().epochs(5).fine_tune(&mut net, &data);
        for layer in net.layers() {
            for &w in layer.weights() {
                assert_eq!(
                    w,
                    shmd_fixed::Q16::from_f32(w).to_f32(),
                    "weight {w} is off the Q16.16 grid"
                );
            }
        }
    }

    #[test]
    fn qat_does_not_destroy_a_trained_network() {
        let mut net = NetworkBuilder::new(2)
            .hidden(4)
            .output(1)
            .seed(3)
            .build()
            .unwrap();
        let data = xor_data();
        RpropTrainer::new().epochs(600).train(&mut net, &data);
        let before = mse(&net, &data);
        let after = QatTrainer::new().fine_tune(&mut net, &data);
        assert!(after < before + 0.05, "QAT regressed: {before} -> {after}");
    }

    #[test]
    fn qat_shrinks_the_quantisation_gap() {
        let mut plain = NetworkBuilder::new(2)
            .hidden(4)
            .output(1)
            .seed(5)
            .build()
            .unwrap();
        let data = xor_data();
        RpropTrainer::new().epochs(600).train(&mut plain, &data);
        let mut tuned = plain.clone();
        QatTrainer::new().fine_tune(&mut tuned, &data);

        // Measure quantised-path MSE for both.
        let q_mse = |net: &Network| {
            let q = net.quantized();
            let mut scratch = crate::network::InferenceScratch::new();
            let mut total = 0.0;
            for (input, target) in data.iter() {
                let y =
                    f64::from(q.infer_into(input, &mut ExactDatapath, &mut scratch)[0].to_f32());
                total += (y - f64::from(target[0])).powi(2);
            }
            total / data.len() as f64
        };
        assert!(
            q_mse(&tuned) <= q_mse(&plain) + 1e-6,
            "QAT should not widen the quantised-path error: {} vs {}",
            q_mse(&tuned),
            q_mse(&plain)
        );
    }
}
