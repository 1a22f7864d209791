//! Random forest (bagged CART trees) — a stronger non-differentiable
//! attacker model.
//!
//! The paper's HMD lineage (EnsembleHMD, RAID 2015 / TDSC 2018) shows
//! ensembles of specialised detectors outperform single models; the same
//! holds for the *attacker's proxy*. A random forest averages bootstrap
//! trees over random feature subsets, which smooths the staircase boundary
//! of a single CART tree and resists the label noise a Stochastic-HMD
//! feeds it — the natural "next move" for an adversary whose single-tree
//! proxy fails.

use crate::tree::{DecisionTree, TreeConfig};
use crate::{validate, FitError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hyper-parameters for random-forest training.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ForestConfig {
    /// Number of bootstrap trees.
    pub trees: usize,
    /// Per-tree CART parameters.
    pub tree: TreeConfig,
    /// Fraction of features each tree sees (√d-style subsampling).
    pub feature_fraction: f64,
    /// Bootstrap/feature-sampling seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> ForestConfig {
        ForestConfig {
            trees: 25,
            tree: TreeConfig::default(),
            feature_fraction: 0.6,
            seed: 0,
        }
    }
}

/// A fitted random forest.
#[derive(Clone, Debug, PartialEq)]
pub struct RandomForest {
    members: Vec<ForestMember>,
    width: usize,
}

#[derive(Clone, Debug, PartialEq)]
struct ForestMember {
    /// Which input columns this tree consumes.
    features: Vec<usize>,
    tree: DecisionTree,
}

impl RandomForest {
    /// Fits a forest of bootstrap trees over random feature subsets.
    ///
    /// # Errors
    ///
    /// Returns a [`FitError`] for unusable training data, including the
    /// degenerate case where every bootstrap draw is single-class.
    pub fn fit(
        inputs: &[Vec<f32>],
        labels: &[bool],
        config: &ForestConfig,
    ) -> Result<RandomForest, FitError> {
        let width = validate(inputs, labels)?;
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xf0e5_7000);
        let per_tree = ((width as f64 * config.feature_fraction).ceil() as usize).clamp(1, width);
        let mut members = Vec::with_capacity(config.trees.max(1));
        for _ in 0..config.trees.max(1) {
            // Bootstrap sample (with replacement).
            let sample: Vec<usize> = (0..inputs.len())
                .map(|_| rng.gen_range(0..inputs.len()))
                .collect();
            // Random feature subset (without replacement).
            let mut features: Vec<usize> = (0..width).collect();
            for i in (1..features.len()).rev() {
                features.swap(i, rng.gen_range(0..=i));
            }
            features.truncate(per_tree);
            features.sort_unstable();

            let sub_inputs: Vec<Vec<f32>> = sample
                .iter()
                .map(|&i| features.iter().map(|&f| inputs[i][f]).collect())
                .collect();
            let sub_labels: Vec<bool> = sample.iter().map(|&i| labels[i]).collect();
            match DecisionTree::fit(&sub_inputs, &sub_labels, &config.tree) {
                Ok(tree) => members.push(ForestMember { features, tree }),
                // A single-class bootstrap draw yields no tree; skip it.
                Err(FitError::SingleClass) => continue,
                Err(e) => return Err(e),
            }
        }
        if members.is_empty() {
            return Err(FitError::SingleClass);
        }
        Ok(RandomForest { members, width })
    }

    /// `P(malware | x)`: the mean vote of the member trees.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training width.
    pub fn predict_proba(&self, x: &[f32]) -> f64 {
        assert_eq!(x.len(), self.width, "feature width mismatch");
        let total: f64 = self
            .members
            .iter()
            .map(|m| {
                let sub: Vec<f32> = m.features.iter().map(|&f| x[f]).collect();
                m.tree.predict_proba(&sub)
            })
            .sum();
        total / self.members.len() as f64
    }

    /// Hard decision at threshold 0.5.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training width.
    pub fn predict(&self, x: &[f32]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Number of fitted member trees.
    pub fn tree_count(&self) -> usize {
        self.members.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ConfusionMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let malware = rng.gen_bool(0.5);
            let centre = if malware { 0.7 } else { 0.3 };
            inputs.push(vec![
                centre + rng.gen_range(-0.2..0.2),
                centre + rng.gen_range(-0.25..0.25),
                rng.gen_range(0.0..1.0),
            ]);
            labels.push(malware);
        }
        (inputs, labels)
    }

    #[test]
    fn forest_learns_blobs() {
        let (inputs, labels) = blobs(300, 1);
        let forest = RandomForest::fit(&inputs, &labels, &ForestConfig::default()).expect("fit");
        let m = ConfusionMatrix::from_pairs(
            inputs
                .iter()
                .zip(&labels)
                .map(|(x, &y)| (forest.predict(x), y)),
        );
        assert!(m.accuracy() > 0.9, "accuracy {}", m.accuracy());
        assert!(forest.tree_count() > 20);
    }

    #[test]
    fn forest_is_deterministic_per_seed() {
        let (inputs, labels) = blobs(120, 2);
        let a = RandomForest::fit(&inputs, &labels, &ForestConfig::default()).unwrap();
        let b = RandomForest::fit(&inputs, &labels, &ForestConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let (inputs, labels) = blobs(120, 3);
        let a = RandomForest::fit(&inputs, &labels, &ForestConfig::default()).unwrap();
        let cfg = ForestConfig {
            seed: 1,
            ..ForestConfig::default()
        };
        let b = RandomForest::fit(&inputs, &labels, &cfg).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn forest_is_noise_robust() {
        // The reason an adaptive attacker reaches for a forest: flip 10% of
        // labels and compare a single deep tree against the forest on clean
        // evaluation labels.
        let (inputs, labels) = blobs(400, 4);
        let mut rng = StdRng::seed_from_u64(9);
        let noisy: Vec<bool> = labels
            .iter()
            .map(|&l| if rng.gen_bool(0.10) { !l } else { l })
            .collect();
        let tree = DecisionTree::fit(&inputs, &noisy, &TreeConfig::default()).unwrap();
        let forest = RandomForest::fit(&inputs, &noisy, &ForestConfig::default()).unwrap();
        let acc = |pred: &dyn Fn(&[f32]) -> bool| {
            ConfusionMatrix::from_pairs(inputs.iter().zip(&labels).map(|(x, &y)| (pred(x), y)))
                .accuracy()
        };
        let tree_acc = acc(&|x| tree.predict(x));
        let forest_acc = acc(&|x| forest.predict(x));
        assert!(
            forest_acc >= tree_acc - 0.01,
            "forest should absorb label noise at least as well: {forest_acc} vs {tree_acc}"
        );
    }

    #[test]
    fn probabilities_are_probabilities() {
        let (inputs, labels) = blobs(100, 5);
        let forest = RandomForest::fit(&inputs, &labels, &ForestConfig::default()).unwrap();
        for x in &inputs {
            let p = forest.predict_proba(x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn rejects_bad_data() {
        assert!(RandomForest::fit(&[], &[], &ForestConfig::default()).is_err());
        let inputs = vec![vec![1.0], vec![2.0]];
        assert!(RandomForest::fit(&inputs, &[true, true], &ForestConfig::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn wrong_width_panics() {
        let (inputs, labels) = blobs(60, 6);
        let forest = RandomForest::fit(&inputs, &labels, &ForestConfig::default()).unwrap();
        let _ = forest.predict(&[0.1]);
    }
}
