//! CART decision tree — the paper's non-differentiable attacker proxy.
//!
//! The tree splits on Gini impurity with axis-aligned thresholds. Its
//! decision boundary is piecewise constant, which is precisely why the paper
//! includes it: gradient-based evasion does not apply, so the attack
//! framework must use search-based (greedy) evasion against it.

use crate::{validate, FitError};

/// Hyper-parameters for decision-tree training.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
}

impl Default for TreeConfig {
    fn default() -> TreeConfig {
        TreeConfig {
            max_depth: 8,
            min_samples_split: 8,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Node {
    Leaf {
        malware_fraction: f64,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted CART decision tree.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionTree {
    root: Node,
    width: usize,
    depth: usize,
    leaves: usize,
}

impl DecisionTree {
    /// Fits a tree by recursive Gini-impurity splitting.
    ///
    /// # Errors
    ///
    /// Returns a [`FitError`] for empty, mismatched, ragged, or
    /// single-class training data.
    pub fn fit(
        inputs: &[Vec<f32>],
        labels: &[bool],
        config: &TreeConfig,
    ) -> Result<DecisionTree, FitError> {
        let width = validate(inputs, labels)?;
        let indices: Vec<usize> = (0..inputs.len()).collect();
        let root = build(inputs, labels, &indices, config, 0);
        let (depth, leaves) = shape(&root);
        Ok(DecisionTree {
            root,
            width,
            depth,
            leaves,
        })
    }

    /// `P(malware | x)` — the malware fraction of the reached leaf.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training width.
    pub fn predict_proba(&self, x: &[f32]) -> f64 {
        assert_eq!(x.len(), self.width, "feature width mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { malware_fraction } => return *malware_fraction,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Hard decision at threshold 0.5.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training width.
    pub fn predict(&self, x: &[f32]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// The fitted depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }
}

fn gini(malware: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let p = malware as f64 / total as f64;
    2.0 * p * (1.0 - p)
}

#[allow(clippy::needless_range_loop)] // lock-step indexing across arrays
fn build(
    inputs: &[Vec<f32>],
    labels: &[bool],
    indices: &[usize],
    config: &TreeConfig,
    depth: usize,
) -> Node {
    let malware = indices.iter().filter(|&&i| labels[i]).count();
    let total = indices.len();
    let fraction = malware as f64 / total.max(1) as f64;
    if depth >= config.max_depth
        || total < config.min_samples_split
        || malware == 0
        || malware == total
    {
        return Node::Leaf {
            malware_fraction: fraction,
        };
    }

    let parent_impurity = gini(malware, total);
    let width = inputs[0].len();
    let mut best: Option<(usize, f32, f64)> = None;

    for feature in 0..width {
        // Sort sample indices by this feature and scan split points.
        let mut sorted: Vec<usize> = indices.to_vec();
        sorted.sort_by(|&a, &b| inputs[a][feature].total_cmp(&inputs[b][feature]));
        let mut left_malware = 0usize;
        for (pos, &i) in sorted.iter().enumerate().take(total - 1) {
            if labels[i] {
                left_malware += 1;
            }
            let next = sorted[pos + 1];
            if inputs[i][feature] == inputs[next][feature] {
                continue; // cannot split between equal values
            }
            let left_total = pos + 1;
            let right_total = total - left_total;
            let right_malware = malware - left_malware;
            let weighted = (left_total as f64 * gini(left_malware, left_total)
                + right_total as f64 * gini(right_malware, right_total))
                / total as f64;
            let gain = parent_impurity - weighted;
            // f32 midpoints between adjacent representable values can
            // round UP to the larger value, which would send every sample
            // left and split nothing; fall back to the smaller value.
            let (lo, hi) = (inputs[i][feature], inputs[next][feature]);
            let mut threshold = (lo + hi) / 2.0;
            if threshold >= hi {
                threshold = lo;
            }
            // Zero-gain splits are allowed on impure nodes (as in CART):
            // XOR-like structure only pays off one level deeper.
            if gain >= 0.0 && best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((feature, threshold, gain));
            }
        }
    }

    match best {
        None => Node::Leaf {
            malware_fraction: fraction,
        },
        Some((feature, threshold, _)) => {
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
                .iter()
                .partition(|&&i| inputs[i][feature] <= threshold);
            Node::Split {
                feature,
                threshold,
                left: Box::new(build(inputs, labels, &left_idx, config, depth + 1)),
                right: Box::new(build(inputs, labels, &right_idx, config, depth + 1)),
            }
        }
    }
}

fn shape(node: &Node) -> (usize, usize) {
    match node {
        Node::Leaf { .. } => (0, 1),
        Node::Split { left, right, .. } => {
            let (dl, ll) = shape(left);
            let (dr, lr) = shape(right);
            (1 + dl.max(dr), ll + lr)
        }
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
            let centre = if malware { 0.75 } else { 0.25 };
            inputs.push(vec![
                centre + rng.gen_range(-0.2..0.2),
                rng.gen_range(0.0..1.0),
            ]);
            labels.push(malware);
        }
        (inputs, labels)
    }

    #[test]
    fn learns_blobs() {
        let (inputs, labels) = blobs(300, 1);
        let tree = DecisionTree::fit(&inputs, &labels, &TreeConfig::default()).expect("fit");
        let m = ConfusionMatrix::from_pairs(
            inputs
                .iter()
                .zip(&labels)
                .map(|(x, &y)| (tree.predict(x), y)),
        );
        assert!(m.accuracy() > 0.9, "accuracy {}", m.accuracy());
    }

    #[test]
    fn xor_needs_depth_two() {
        let inputs = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let labels = vec![false, true, true, false];
        let config = TreeConfig {
            max_depth: 3,
            min_samples_split: 2,
        };
        let tree = DecisionTree::fit(&inputs, &labels, &config).expect("fit");
        for (x, &y) in inputs.iter().zip(&labels) {
            assert_eq!(tree.predict(x), y, "sample {x:?}");
        }
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn depth_limit_is_respected() {
        let (inputs, labels) = blobs(300, 2);
        let config = TreeConfig {
            max_depth: 2,
            min_samples_split: 2,
        };
        let tree = DecisionTree::fit(&inputs, &labels, &config).expect("fit");
        assert!(tree.depth() <= 2);
        assert!(tree.leaf_count() <= 4);
    }

    #[test]
    fn pure_split_makes_leaves() {
        let inputs = vec![vec![0.0], vec![0.1], vec![0.9], vec![1.0]];
        let labels = vec![false, false, true, true];
        let tree = DecisionTree::fit(
            &inputs,
            &labels,
            &TreeConfig {
                max_depth: 5,
                min_samples_split: 2,
            },
        )
        .expect("fit");
        assert_eq!(tree.depth(), 1, "one split separates the classes");
        assert_eq!(tree.predict_proba(&[0.05]), 0.0);
        assert_eq!(tree.predict_proba(&[0.95]), 1.0);
    }

    #[test]
    fn probabilities_are_probabilities() {
        let (inputs, labels) = blobs(100, 3);
        let tree = DecisionTree::fit(&inputs, &labels, &TreeConfig::default()).expect("fit");
        for x in &inputs {
            let p = tree.predict_proba(x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn rejects_bad_data() {
        assert!(DecisionTree::fit(&[], &[], &TreeConfig::default()).is_err());
        let inputs = vec![vec![1.0], vec![2.0]];
        assert!(DecisionTree::fit(&inputs, &[false, false], &TreeConfig::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn wrong_width_panics() {
        let (inputs, labels) = blobs(50, 4);
        let tree = DecisionTree::fit(&inputs, &labels, &TreeConfig::default()).unwrap();
        let _ = tree.predict(&[0.5, 0.5, 0.5]);
    }

    #[test]
    fn adjacent_f32_values_still_split() {
        // Regression: the midpoint of adjacent f32 values rounds up to the
        // larger value; the split must fall back to the smaller one instead
        // of producing an empty partition.
        let lo = 0.1f32;
        let hi = f32::from_bits(lo.to_bits() + 1);
        let inputs = vec![vec![lo], vec![lo], vec![hi], vec![hi]];
        let labels = vec![false, false, true, true];
        let cfg = TreeConfig {
            max_depth: 8,
            min_samples_split: 2,
        };
        let tree = DecisionTree::fit(&inputs, &labels, &cfg).expect("fit");
        assert_eq!(tree.depth(), 1, "one split separates adjacent values");
        assert!(!tree.predict(&[lo]));
        assert!(tree.predict(&[hi]));
    }

    #[test]
    fn fit_is_deterministic() {
        let (inputs, labels) = blobs(100, 5);
        let a = DecisionTree::fit(&inputs, &labels, &TreeConfig::default()).unwrap();
        let b = DecisionTree::fit(&inputs, &labels, &TreeConfig::default()).unwrap();
        assert_eq!(a, b);
    }
}
