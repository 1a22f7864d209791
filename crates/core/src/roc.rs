//! ROC analysis and decision-threshold tuning.
//!
//! The paper's detectors threshold at 0.5, but a deployed HMD is tuned to
//! an FPR budget ("the security product may flag at most x% of benign
//! software"). This module computes ROC curves over a detector's scores and
//! picks the threshold meeting such a budget — including for stochastic
//! detectors, whose ROC is itself an expectation over fault draws.

use crate::detector::Detector;
use shmd_workload::dataset::Dataset;
use std::fmt;

/// One operating point of a ROC curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RocPoint {
    /// Score threshold producing this point.
    pub threshold: f64,
    /// False-positive rate at the threshold.
    pub fpr: f64,
    /// True-positive rate (detection rate) at the threshold.
    pub tpr: f64,
}

/// Error computing a ROC curve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RocError {
    /// The evaluation set lacks one of the classes.
    MissingClass,
}

impl fmt::Display for RocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RocError::MissingClass => f.write_str("ROC needs at least one sample of each class"),
        }
    }
}

impl std::error::Error for RocError {}

/// A ROC curve: points sorted by increasing FPR.
#[derive(Clone, Debug, PartialEq)]
pub struct RocCurve {
    points: Vec<RocPoint>,
}

impl RocCurve {
    /// Computes the curve from one detection score per program index.
    ///
    /// # Errors
    ///
    /// Returns [`RocError::MissingClass`] when `indices` holds only one
    /// class.
    pub fn from_scores(scores: &[(f64, bool)]) -> Result<RocCurve, RocError> {
        let positives = scores.iter().filter(|(_, y)| *y).count();
        let negatives = scores.len() - positives;
        if positives == 0 || negatives == 0 {
            return Err(RocError::MissingClass);
        }
        // Sweep thresholds at every distinct score (descending).
        let mut sorted: Vec<(f64, bool)> = scores.to_vec();
        sorted.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut points = vec![RocPoint {
            threshold: f64::INFINITY,
            fpr: 0.0,
            tpr: 0.0,
        }];
        let (mut tp, mut fp) = (0usize, 0usize);
        let mut i = 0;
        while i < sorted.len() {
            let threshold = sorted[i].0;
            // Consume all samples tied at this score.
            while i < sorted.len() && sorted[i].0 == threshold {
                if sorted[i].1 {
                    tp += 1;
                } else {
                    fp += 1;
                }
                i += 1;
            }
            points.push(RocPoint {
                threshold,
                fpr: fp as f64 / negatives as f64,
                tpr: tp as f64 / positives as f64,
            });
        }
        Ok(RocCurve { points })
    }

    /// Scores every index with `detector` (one stochastic detection each)
    /// and computes the curve.
    ///
    /// # Errors
    ///
    /// Returns [`RocError::MissingClass`] when `indices` holds only one
    /// class.
    pub fn from_detector(
        detector: &mut dyn Detector,
        dataset: &Dataset,
        indices: &[usize],
    ) -> Result<RocCurve, RocError> {
        let scores: Vec<(f64, bool)> = indices
            .iter()
            .map(|&i| {
                (
                    detector.score(dataset.trace(i)),
                    dataset.program(i).is_malware(),
                )
            })
            .collect();
        RocCurve::from_scores(&scores)
    }

    /// The curve's points, FPR-ascending.
    pub fn points(&self) -> &[RocPoint] {
        &self.points
    }

    /// Area under the curve (trapezoidal).
    pub fn auc(&self) -> f64 {
        let mut area = 0.0;
        for pair in self.points.windows(2) {
            area += (pair[1].fpr - pair[0].fpr) * (pair[0].tpr + pair[1].tpr) / 2.0;
        }
        area
    }

    /// The highest-TPR operating point whose FPR is within `budget`.
    pub fn threshold_for_fpr(&self, budget: f64) -> RocPoint {
        self.points
            .iter()
            .rev()
            .find(|p| p.fpr <= budget)
            .copied()
            .unwrap_or(self.points[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stochastic::StochasticHmd;
    use crate::train::{train_baseline, HmdTrainConfig};
    use shmd_workload::dataset::DatasetConfig;
    use shmd_workload::features::FeatureSpec;

    #[test]
    fn perfect_separation_has_auc_one() {
        let scores = [(0.9, true), (0.8, true), (0.2, false), (0.1, false)];
        let roc = RocCurve::from_scores(&scores).expect("computes");
        assert!((roc.auc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_scores_have_auc_near_half() {
        let scores: Vec<(f64, bool)> = (0..200)
            .map(|i| (f64::from(i % 10) / 10.0, i % 2 == 0))
            .collect();
        let roc = RocCurve::from_scores(&scores).expect("computes");
        assert!((roc.auc() - 0.5).abs() < 0.1, "auc {}", roc.auc());
    }

    #[test]
    fn inverted_scores_have_low_auc() {
        let scores = [(0.1, true), (0.2, true), (0.8, false), (0.9, false)];
        let roc = RocCurve::from_scores(&scores).expect("computes");
        assert!(roc.auc() < 0.1);
    }

    #[test]
    fn missing_class_errors() {
        assert_eq!(
            RocCurve::from_scores(&[(0.5, true)]),
            Err(RocError::MissingClass)
        );
    }

    #[test]
    fn threshold_respects_fpr_budget() {
        let scores = [
            (0.95, true),
            (0.9, true),
            (0.6, false),
            (0.55, true),
            (0.2, false),
            (0.1, false),
        ];
        let roc = RocCurve::from_scores(&scores).expect("computes");
        let point = roc.threshold_for_fpr(0.0);
        assert_eq!(point.fpr, 0.0);
        assert!((point.tpr - 2.0 / 3.0).abs() < 1e-12, "{point:?}");
        let looser = roc.threshold_for_fpr(0.4);
        assert!(looser.tpr >= point.tpr);
    }

    #[test]
    fn endpoints_are_correct() {
        let scores = [(0.9, true), (0.1, false)];
        let roc = RocCurve::from_scores(&scores).expect("computes");
        let first = roc.points().first().expect("non-empty");
        let last = roc.points().last().expect("non-empty");
        assert_eq!((first.fpr, first.tpr), (0.0, 0.0));
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
    }

    #[test]
    fn stochastic_detector_keeps_high_auc_at_operating_point() {
        let dataset = Dataset::generate(&DatasetConfig::small(100), 13);
        let split = dataset.three_fold_split(0);
        let baseline = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("trains");
        let mut protected = StochasticHmd::from_baseline(&baseline, 0.1, 3).expect("valid");
        let roc =
            RocCurve::from_detector(&mut protected, &dataset, split.testing()).expect("computes");
        assert!(roc.auc() > 0.9, "stochastic AUC {}", roc.auc());
    }
}
