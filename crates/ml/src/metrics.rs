//! Binary-classification metrics: the quantities the paper reports.
//!
//! Convention: the *positive* class is **malware**, so a false positive is
//! a benign program flagged as malware and a false negative is a missed
//! malware — matching the paper's FPR/FNR in Figure 2(a).

use std::fmt;

/// A 2×2 confusion matrix for malware (positive) vs benign (negative).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Malware classified as malware.
    pub true_positives: u64,
    /// Benign classified as benign.
    pub true_negatives: u64,
    /// Benign classified as malware.
    pub false_positives: u64,
    /// Malware classified as benign.
    pub false_negatives: u64,
}

impl ConfusionMatrix {
    /// An empty matrix.
    pub fn new() -> ConfusionMatrix {
        ConfusionMatrix::default()
    }

    /// Builds a matrix from `(predicted, actual)` pairs, `true` = malware.
    pub fn from_pairs<I: IntoIterator<Item = (bool, bool)>>(pairs: I) -> ConfusionMatrix {
        let mut m = ConfusionMatrix::new();
        for (predicted, actual) in pairs {
            m.record(predicted, actual);
        }
        m
    }

    /// Records one prediction.
    pub fn record(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.true_positives += 1,
            (false, false) => self.true_negatives += 1,
            (true, false) => self.false_positives += 1,
            (false, true) => self.false_negatives += 1,
        }
    }

    /// Total number of recorded predictions.
    pub fn total(&self) -> u64 {
        self.true_positives + self.true_negatives + self.false_positives + self.false_negatives
    }

    /// Fraction of correct predictions; `0` when empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.true_positives + self.true_negatives) as f64 / total as f64
    }

    /// False-positive rate: benign flagged as malware; `0` when no benign.
    pub fn false_positive_rate(&self) -> f64 {
        let negatives = self.true_negatives + self.false_positives;
        if negatives == 0 {
            return 0.0;
        }
        self.false_positives as f64 / negatives as f64
    }

    /// False-negative rate: malware that slipped through; `0` when no
    /// malware.
    pub fn false_negative_rate(&self) -> f64 {
        let positives = self.true_positives + self.false_negatives;
        if positives == 0 {
            return 0.0;
        }
        self.false_negatives as f64 / positives as f64
    }

    /// Detection rate (recall on the malware class): `1 − FNR`.
    pub fn detection_rate(&self) -> f64 {
        1.0 - self.false_negative_rate()
    }

    /// Merges another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.true_positives += other.true_positives;
        self.true_negatives += other.true_negatives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "acc {:.2}% fpr {:.2}% fnr {:.2}% (tp {} tn {} fp {} fn {})",
            100.0 * self.accuracy(),
            100.0 * self.false_positive_rate(),
            100.0 * self.false_negative_rate(),
            self.true_positives,
            self.true_negatives,
            self.false_positives,
            self.false_negatives
        )
    }
}

/// Mean and population standard deviation of a series; `(0, 0)` when empty.
///
/// The paper reports "the mean and standard deviation" over 50 repetitions
/// of each stochastic experiment.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_classifier() {
        let m = ConfusionMatrix::from_pairs([(true, true), (false, false)]);
        assert_eq!(m.accuracy(), 1.0);
        assert_eq!(m.false_positive_rate(), 0.0);
        assert_eq!(m.false_negative_rate(), 0.0);
        assert_eq!(m.detection_rate(), 1.0);
    }

    #[test]
    fn always_benign_classifier() {
        let m = ConfusionMatrix::from_pairs([(false, true), (false, true), (false, false)]);
        assert!((m.accuracy() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.false_negative_rate(), 1.0);
        assert_eq!(m.detection_rate(), 0.0);
        assert_eq!(m.false_positive_rate(), 0.0);
    }

    #[test]
    fn empty_matrix_is_safe() {
        let m = ConfusionMatrix::new();
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.false_positive_rate(), 0.0);
        assert_eq!(m.false_negative_rate(), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ConfusionMatrix::from_pairs([(true, true)]);
        let b = ConfusionMatrix::from_pairs([(false, true), (true, false)]);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.false_negatives, 1);
        assert_eq!(a.false_positives, 1);
    }

    #[test]
    fn display_contains_metrics() {
        let m = ConfusionMatrix::from_pairs([(true, true), (false, false)]);
        let s = m.to_string();
        assert!(s.contains("acc 100.00%"), "{s}");
    }

    #[test]
    fn mean_std_of_constant_is_zero_spread() {
        let (mean, std) = mean_std(&[2.0, 2.0, 2.0]);
        assert_eq!(mean, 2.0);
        assert_eq!(std, 0.0);
    }

    #[test]
    fn mean_std_known_values() {
        let (mean, std) = mean_std(&[1.0, 3.0]);
        assert_eq!(mean, 2.0);
        assert_eq!(std, 1.0);
    }

    #[test]
    fn mean_std_empty_is_zero() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    proptest! {
        #[test]
        fn accuracy_is_a_probability(pairs in proptest::collection::vec(any::<(bool, bool)>(), 1..100)) {
            let m = ConfusionMatrix::from_pairs(pairs);
            prop_assert!((0.0..=1.0).contains(&m.accuracy()));
            prop_assert!((0.0..=1.0).contains(&m.false_positive_rate()));
            prop_assert!((0.0..=1.0).contains(&m.false_negative_rate()));
        }

        #[test]
        fn totals_are_consistent(pairs in proptest::collection::vec(any::<(bool, bool)>(), 0..100)) {
            let m = ConfusionMatrix::from_pairs(pairs.clone());
            prop_assert_eq!(m.total() as usize, pairs.len());
        }
    }
}
