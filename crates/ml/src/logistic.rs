//! Logistic regression — the paper's "simple" attacker proxy model.

use crate::{validate, FitError};

/// Hyper-parameters for logistic-regression training.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogisticConfig {
    /// Gradient-descent learning rate.
    pub learning_rate: f64,
    /// Number of full-batch epochs.
    pub epochs: usize,
    /// L2 regularisation strength.
    pub l2: f64,
}

impl Default for LogisticConfig {
    fn default() -> LogisticConfig {
        LogisticConfig {
            learning_rate: 2.0,
            epochs: 1500,
            l2: 1e-5,
        }
    }
}

/// A fitted logistic-regression model.
///
/// Scores are `P(malware | x) = σ(w·x + b)`.
#[derive(Clone, Debug, PartialEq)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

impl LogisticRegression {
    /// Fits a model by full-batch gradient descent on the logistic loss.
    ///
    /// # Errors
    ///
    /// Returns a [`FitError`] for empty, mismatched, ragged, or
    /// single-class training data.
    pub fn fit(
        inputs: &[Vec<f32>],
        labels: &[bool],
        config: &LogisticConfig,
    ) -> Result<LogisticRegression, FitError> {
        let width = validate(inputs, labels)?;
        let n = inputs.len() as f64;
        let mut weights = vec![0.0f64; width];
        let mut bias = 0.0f64;
        for _ in 0..config.epochs {
            let mut grad_w = vec![0.0f64; width];
            let mut grad_b = 0.0f64;
            for (x, &y) in inputs.iter().zip(labels) {
                let z: f64 = bias
                    + weights
                        .iter()
                        .zip(x)
                        .map(|(w, &v)| w * f64::from(v))
                        .sum::<f64>();
                let p = 1.0 / (1.0 + (-z).exp());
                let err = p - f64::from(u8::from(y));
                for (g, &v) in grad_w.iter_mut().zip(x) {
                    *g += err * f64::from(v);
                }
                grad_b += err;
            }
            for (w, g) in weights.iter_mut().zip(&grad_w) {
                *w -= config.learning_rate * (g / n + config.l2 * *w);
            }
            bias -= config.learning_rate * grad_b / n;
        }
        Ok(LogisticRegression { weights, bias })
    }

    /// `P(malware | x)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training width.
    pub fn predict_proba(&self, x: &[f32]) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "feature width mismatch");
        let z: f64 = self.bias
            + self
                .weights
                .iter()
                .zip(x)
                .map(|(w, &v)| w * f64::from(v))
                .sum::<f64>();
        1.0 / (1.0 + (-z).exp())
    }

    /// Hard decision at threshold 0.5.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training width.
    pub fn predict(&self, x: &[f32]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// The learned weight vector (one entry per feature).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The learned bias.
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ConfusionMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn separable_data(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let malware = rng.gen_bool(0.5);
            let centre = if malware { 0.7 } else { 0.3 };
            inputs.push(vec![
                centre + rng.gen_range(-0.15..0.15),
                centre + rng.gen_range(-0.15..0.15),
            ]);
            labels.push(malware);
        }
        (inputs, labels)
    }

    #[test]
    fn learns_a_separable_problem() {
        let (inputs, labels) = separable_data(200, 1);
        let model = LogisticRegression::fit(&inputs, &labels, &LogisticConfig::default())
            .expect("fit succeeds");
        let m = ConfusionMatrix::from_pairs(
            inputs
                .iter()
                .zip(&labels)
                .map(|(x, &y)| (model.predict(x), y)),
        );
        assert!(m.accuracy() > 0.95, "accuracy {}", m.accuracy());
    }

    #[test]
    fn probabilities_are_probabilities() {
        let (inputs, labels) = separable_data(50, 2);
        let model = LogisticRegression::fit(&inputs, &labels, &LogisticConfig::default()).unwrap();
        for x in &inputs {
            let p = model.predict_proba(x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn weights_point_towards_malware() {
        let (inputs, labels) = separable_data(200, 3);
        let model = LogisticRegression::fit(&inputs, &labels, &LogisticConfig::default()).unwrap();
        // Malware has larger feature values, so weights must be positive.
        assert!(model.weights().iter().all(|&w| w > 0.0));
    }

    #[test]
    fn rejects_bad_data() {
        assert!(LogisticRegression::fit(&[], &[], &LogisticConfig::default()).is_err());
        let inputs = vec![vec![1.0], vec![2.0]];
        assert!(
            LogisticRegression::fit(&inputs, &[true, true], &LogisticConfig::default()).is_err()
        );
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn wrong_width_panics() {
        let (inputs, labels) = separable_data(20, 4);
        let model = LogisticRegression::fit(&inputs, &labels, &LogisticConfig::default()).unwrap();
        let _ = model.predict_proba(&[1.0]);
    }

    #[test]
    fn fit_is_deterministic() {
        let (inputs, labels) = separable_data(50, 5);
        let a = LogisticRegression::fit(&inputs, &labels, &LogisticConfig::default()).unwrap();
        let b = LogisticRegression::fit(&inputs, &labels, &LogisticConfig::default()).unwrap();
        assert_eq!(a, b);
    }
}
