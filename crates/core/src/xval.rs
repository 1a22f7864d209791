//! Generic cross-validation summaries.
//!
//! The paper reports every metric as a mean over the three fold rotations
//! (and, for stochastic detectors, over repetitions). This module provides
//! that harness for *any* detector construction, so new detector variants
//! get paper-style evaluation for free.

use crate::detector::Detector;
use crate::exec::{parallel_map_n, ExecConfig};
use crate::train::TrainHmdError;
use shmd_ml::metrics::{mean_std, ConfusionMatrix};
use shmd_workload::dataset::{Dataset, ThreeFoldSplit};

/// Aggregated cross-validation metrics (mean ± std across folds × reps).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct XvalSummary {
    /// Mean detection accuracy.
    pub accuracy_mean: f64,
    /// Standard deviation of the accuracy.
    pub accuracy_std: f64,
    /// Mean false-positive rate.
    pub fpr_mean: f64,
    /// Standard deviation of the FPR.
    pub fpr_std: f64,
    /// Mean false-negative rate.
    pub fnr_mean: f64,
    /// Standard deviation of the FNR.
    pub fnr_std: f64,
    /// Number of (fold × rep) evaluations aggregated.
    pub samples: usize,
}

impl XvalSummary {
    fn from_matrices(matrices: &[ConfusionMatrix]) -> XvalSummary {
        let accs: Vec<f64> = matrices.iter().map(ConfusionMatrix::accuracy).collect();
        let fprs: Vec<f64> = matrices
            .iter()
            .map(ConfusionMatrix::false_positive_rate)
            .collect();
        let fnrs: Vec<f64> = matrices
            .iter()
            .map(ConfusionMatrix::false_negative_rate)
            .collect();
        let (accuracy_mean, accuracy_std) = mean_std(&accs);
        let (fpr_mean, fpr_std) = mean_std(&fprs);
        let (fnr_mean, fnr_std) = mean_std(&fnrs);
        XvalSummary {
            accuracy_mean,
            accuracy_std,
            fpr_mean,
            fpr_std,
            fnr_mean,
            fnr_std,
            samples: matrices.len(),
        }
    }
}

/// Cross-validates an arbitrary detector construction on an automatically
/// sized thread pool. See [`cross_validate_with`].
///
/// # Errors
///
/// Propagates the construction error of the earliest failing
/// `(rotation, rep)` cell.
pub fn cross_validate<D, F>(
    dataset: &Dataset,
    reps: usize,
    build: F,
) -> Result<XvalSummary, TrainHmdError>
where
    D: Detector,
    F: Fn(&ThreeFoldSplit, usize, usize) -> Result<D, TrainHmdError> + Sync,
{
    cross_validate_with(dataset, reps, &ExecConfig::auto(), build)
}

/// Cross-validates an arbitrary detector construction.
///
/// `build` is called once per `(rotation, rep)` with the fold split and the
/// repetition index (use them to *derive* seeds for stochastic components —
/// see [`crate::exec::derive_seed`]); the returned detector is evaluated on
/// the rotation's test fold. Cells run concurrently under `exec`, and the
/// summary is bit-identical at any thread count.
///
/// # Errors
///
/// Propagates the construction error of the earliest failing
/// `(rotation, rep)` cell.
pub fn cross_validate_with<D, F>(
    dataset: &Dataset,
    reps: usize,
    exec: &ExecConfig,
    build: F,
) -> Result<XvalSummary, TrainHmdError>
where
    D: Detector,
    F: Fn(&ThreeFoldSplit, usize, usize) -> Result<D, TrainHmdError> + Sync,
{
    let reps = reps.max(1);
    let splits: Vec<ThreeFoldSplit> = (0..3).map(|r| dataset.three_fold_split(r)).collect();
    let matrices = parallel_map_n(exec, splits.len() * reps, |cell| {
        let rotation = cell / reps;
        let rep = cell % reps;
        let split = &splits[rotation];
        // The cell's detector classifies its entire test fold, so
        // detector-internal state (inference scratch buffers, the fault
        // injector's geometric gap counter) amortises across samples.
        let mut detector = build(split, rotation, rep)?;
        let mut m = ConfusionMatrix::new();
        for &i in split.testing() {
            m.record(
                detector.classify(dataset.trace(i)).is_malware(),
                dataset.program(i).is_malware(),
            );
        }
        Ok(m)
    })
    .into_iter()
    .collect::<Result<Vec<ConfusionMatrix>, TrainHmdError>>()?;
    Ok(XvalSummary::from_matrices(&matrices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stochastic::StochasticHmd;
    use crate::train::{train_baseline, HmdTrainConfig};
    use shmd_workload::dataset::DatasetConfig;
    use shmd_workload::features::FeatureSpec;

    fn dataset() -> Dataset {
        Dataset::generate(&DatasetConfig::small(80), 71)
    }

    #[test]
    fn baseline_cross_validation_summarises() {
        let d = dataset();
        let summary = cross_validate(&d, 1, |split, _, _| {
            train_baseline(
                &d,
                split.victim_training(),
                FeatureSpec::frequency(),
                &HmdTrainConfig::fast(),
            )
        })
        .expect("builds");
        assert_eq!(summary.samples, 3);
        assert!(summary.accuracy_mean > 0.85, "{summary:?}");
        // A deterministic detector's spread is pure inter-fold variance.
        assert!(summary.accuracy_std < 0.1, "{summary:?}");
    }

    #[test]
    fn stochastic_cross_validation_uses_rep_seeds() {
        let d = dataset();
        let summary = cross_validate(&d, 3, |split, rotation, rep| {
            let base = train_baseline(
                &d,
                split.victim_training(),
                FeatureSpec::frequency(),
                &HmdTrainConfig::fast(),
            )?;
            Ok(
                StochasticHmd::from_baseline(&base, 0.3, (rotation * 100 + rep) as u64)
                    .expect("valid rate"),
            )
        })
        .expect("builds");
        assert_eq!(summary.samples, 9);
        assert!(
            summary.accuracy_std > 0.0,
            "reps must add spread: {summary:?}"
        );
    }

    #[test]
    fn summary_is_thread_count_invariant() {
        let d = dataset();
        let build = |split: &ThreeFoldSplit, rotation: usize, rep: usize| {
            let base = train_baseline(
                &d,
                split.victim_training(),
                FeatureSpec::frequency(),
                &HmdTrainConfig::fast(),
            )?;
            Ok(StochasticHmd::from_baseline(
                &base,
                0.3,
                crate::exec::derive_seed(9, &[rotation as u64, rep as u64]),
            )
            .expect("valid rate"))
        };
        let serial = cross_validate_with(&d, 2, &ExecConfig::serial(), build).expect("serial");
        let parallel =
            cross_validate_with(&d, 2, &ExecConfig::threads(4), build).expect("parallel");
        assert_eq!(serial, parallel);
    }

    #[test]
    fn construction_errors_propagate() {
        let d = dataset();
        let result = cross_validate(&d, 1, |_, _, _| {
            Err::<StochasticHmd, _>(TrainHmdError::BadTrainingData("boom".into()))
        });
        assert!(matches!(result, Err(TrainHmdError::BadTrainingData(_))));
    }

    #[test]
    fn zero_reps_behaves_as_one() {
        let d = dataset();
        let summary = cross_validate(&d, 0, |split, _, _| {
            train_baseline(
                &d,
                split.victim_training(),
                FeatureSpec::frequency(),
                &HmdTrainConfig::fast(),
            )
        })
        .expect("builds");
        assert_eq!(summary.samples, 3);
    }
}
