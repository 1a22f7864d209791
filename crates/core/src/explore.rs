//! §VI space exploration: how the error rate shapes accuracy and
//! decision-boundary stochasticity.
//!
//! [`accuracy_sweep`] regenerates the data behind Figure 2(a): detection
//! accuracy, FPR, and FNR (mean ± standard deviation over repetitions ×
//! folds) as the error rate sweeps `[0, 1]`. [`confidence_distribution`]
//! regenerates Figure 2(b): the distribution of output scores per class at
//! a given error rate.

use crate::detector::Detector;
use crate::exec::{derive_seed, parallel_map_n, ExecConfig};
use crate::stochastic::StochasticHmd;
use crate::train::{train_baseline, HmdTrainConfig, TrainHmdError};
use shmd_ml::metrics::{mean_std, ConfusionMatrix};
use shmd_volt::fault::{FaultModel, FaultModelError};
use shmd_workload::dataset::Dataset;
use shmd_workload::features::FeatureSpec;
use std::fmt;

/// Seed-derivation tags separating this module's experiments under one
/// master seed.
const TAG_SWEEP: u64 = 0x2a;
const TAG_CONFIDENCE: u64 = 0x2b;

/// Error running a space-exploration sweep.
#[derive(Clone, Debug, PartialEq)]
pub enum ExploreError {
    /// Training a fold's baseline failed.
    Train(TrainHmdError),
    /// An error rate in the grid is invalid.
    Fault(FaultModelError),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Train(e) => write!(f, "training failed: {e}"),
            ExploreError::Fault(e) => write!(f, "invalid error rate: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<TrainHmdError> for ExploreError {
    fn from(e: TrainHmdError) -> ExploreError {
        ExploreError::Train(e)
    }
}

impl From<FaultModelError> for ExploreError {
    fn from(e: FaultModelError) -> ExploreError {
        ExploreError::Fault(e)
    }
}

/// One row of Figure 2(a): statistics at a single error rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// The multiplication error rate.
    pub error_rate: f64,
    /// Mean detection accuracy across repetitions × folds.
    pub accuracy_mean: f64,
    /// Standard deviation of the accuracy — the visible stochasticity of
    /// the decision boundary.
    pub accuracy_std: f64,
    /// Mean false-positive rate.
    pub fpr_mean: f64,
    /// Standard deviation of the FPR.
    pub fpr_std: f64,
    /// Mean false-negative rate.
    pub fnr_mean: f64,
    /// Standard deviation of the FNR.
    pub fnr_std: f64,
}

/// Runs the Figure 2(a) sweep on `exec`'s workers.
///
/// For each of the three cross-validation rotations, a baseline is trained
/// once and its held-out fold's feature vectors are extracted once; each
/// `(error rate, fold, repetition)` cell then becomes an independent task
/// whose fault-injector seed is [derived](derive_seed) from the master
/// seed and the cell's grid coordinates, so the result is bit-identical at
/// any thread count. Classification uses each detector's own threshold,
/// so sweep and deployment numbers agree.
///
/// # Errors
///
/// Returns [`ExploreError`] if training fails or a grid rate is invalid.
pub fn accuracy_sweep(
    dataset: &Dataset,
    er_grid: &[f64],
    reps: usize,
    config: &HmdTrainConfig,
    seed: u64,
    exec: &ExecConfig,
) -> Result<Vec<SweepPoint>, ExploreError> {
    // Validate the whole grid up front so the fan-out below is infallible.
    for &er in er_grid {
        FaultModel::from_error_rate(er)?;
    }
    let spec = FeatureSpec::frequency();
    // Train one baseline per rotation (concurrently — training is itself
    // seed-deterministic) and extract its test fold's features once,
    // instead of |grid| × reps times per sample.
    let folds = parallel_map_n(exec, 3, |rotation| -> Result<Fold, TrainHmdError> {
        let split = dataset.three_fold_split(rotation);
        let baseline = train_baseline(dataset, split.victim_training(), spec, config)?;
        let testing = split
            .testing()
            .iter()
            .map(|&i| {
                (
                    spec.extract(dataset.trace(i)),
                    dataset.program(i).is_malware(),
                )
            })
            .collect();
        Ok(Fold { baseline, testing })
    })
    .into_iter()
    .collect::<Result<Vec<Fold>, TrainHmdError>>()?;

    let reps = reps.max(1);
    let cells = er_grid.len() * folds.len() * reps;
    let evaluations = parallel_map_n(exec, cells, |cell| {
        let gi = cell / (folds.len() * reps);
        let fi = (cell / reps) % folds.len();
        let rep = cell % reps;
        let fold = &folds[fi];
        let inj_seed = derive_seed(seed, &[TAG_SWEEP, gi as u64, fi as u64, rep as u64]);
        let mut hmd = StochasticHmd::from_baseline(&fold.baseline, er_grid[gi], inj_seed)
            .expect("grid was validated above");
        let threshold = Detector::threshold(&hmd);
        let mut m = ConfusionMatrix::new();
        // One detector scores the whole test fold: its inference scratch and
        // geometric fault-gap state amortise across every sample, so the
        // inner loop neither allocates nor draws per-MAC randomness.
        for (features, is_malware) in &fold.testing {
            m.record(hmd.score_features(features) >= threshold, *is_malware);
        }
        (
            m.accuracy(),
            m.false_positive_rate(),
            m.false_negative_rate(),
        )
    });

    let points = er_grid
        .iter()
        .enumerate()
        .map(|(gi, &er)| {
            let cells = &evaluations[gi * folds.len() * reps..(gi + 1) * folds.len() * reps];
            let accs: Vec<f64> = cells.iter().map(|c| c.0).collect();
            let fprs: Vec<f64> = cells.iter().map(|c| c.1).collect();
            let fnrs: Vec<f64> = cells.iter().map(|c| c.2).collect();
            let (accuracy_mean, accuracy_std) = mean_std(&accs);
            let (fpr_mean, fpr_std) = mean_std(&fprs);
            let (fnr_mean, fnr_std) = mean_std(&fnrs);
            SweepPoint {
                error_rate: er,
                accuracy_mean,
                accuracy_std,
                fpr_mean,
                fpr_std,
                fnr_mean,
                fnr_std,
            }
        })
        .collect();
    Ok(points)
}

/// One trained rotation with its pre-extracted test fold.
struct Fold {
    baseline: crate::baseline::BaselineHmd,
    testing: Vec<(Vec<f32>, bool)>,
}

/// The Figure 2(b) data: output-score samples per true class at one error
/// rate.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfidenceDistribution {
    /// The multiplication error rate.
    pub error_rate: f64,
    /// Scores assigned to benign test samples.
    pub benign_scores: Vec<f64>,
    /// Scores assigned to malware test samples.
    pub malware_scores: Vec<f64>,
}

impl ConfidenceDistribution {
    /// `(mean, std)` of the malware-sample scores.
    pub fn malware_summary(&self) -> (f64, f64) {
        mean_std(&self.malware_scores)
    }
}

/// Collects the Figure 2(b) confidence distribution at one error rate
/// (rotation 0, `reps` stochastic detections per test sample) on `exec`'s
/// workers.
///
/// Each test sample is an independent task scoring `reps` stochastic
/// detections with a seed [derived](derive_seed) from the master seed and
/// the sample's index, so the distribution is bit-identical at any thread
/// count.
///
/// # Errors
///
/// Returns [`ExploreError`] if training fails or the rate is invalid.
pub fn confidence_distribution(
    dataset: &Dataset,
    er: f64,
    reps: usize,
    config: &HmdTrainConfig,
    seed: u64,
    exec: &ExecConfig,
) -> Result<ConfidenceDistribution, ExploreError> {
    FaultModel::from_error_rate(er)?;
    let spec = FeatureSpec::frequency();
    let split = dataset.three_fold_split(0);
    let baseline = train_baseline(dataset, split.victim_training(), spec, config)?;
    let testing = split.testing();
    let per_sample = parallel_map_n(exec, testing.len(), |si| {
        let i = testing[si];
        let f = spec.extract(dataset.trace(i));
        let mut hmd = StochasticHmd::from_baseline(
            &baseline,
            er,
            derive_seed(seed, &[TAG_CONFIDENCE, si as u64]),
        )
        .expect("rate was validated above");
        // All reps reuse one detector (and thus one inference scratch).
        let scores: Vec<f64> = (0..reps).map(|_| hmd.score_features(&f)).collect();
        (scores, dataset.program(i).is_malware())
    });
    let mut benign_scores = Vec::new();
    let mut malware_scores = Vec::new();
    for (scores, is_malware) in per_sample {
        if is_malware {
            malware_scores.extend(scores);
        } else {
            benign_scores.extend(scores);
        }
    }
    Ok(ConfidenceDistribution {
        error_rate: er,
        benign_scores,
        malware_scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmd_workload::dataset::DatasetConfig;

    fn dataset() -> Dataset {
        Dataset::generate(&DatasetConfig::small(60), 51)
    }

    #[test]
    fn sweep_shapes_match_fig2a() {
        let d = dataset();
        let grid = [0.0, 0.1, 0.9];
        let points = accuracy_sweep(
            &d,
            &grid,
            3,
            &HmdTrainConfig::fast(),
            7,
            &ExecConfig::auto(),
        )
        .expect("sweep");
        assert_eq!(points.len(), 3);
        // Accuracy at er = 0 is the (good) baseline.
        assert!(points[0].accuracy_mean > 0.88, "{:?}", points[0]);
        // er = 0 is deterministic per fold: only inter-fold spread remains.
        assert!(points[0].accuracy_std < 0.05, "{:?}", points[0]);
        // er = 0.1 costs little accuracy (paper: ≈2%).
        assert!(
            points[0].accuracy_mean - points[1].accuracy_mean < 0.08,
            "{:?} vs {:?}",
            points[0],
            points[1]
        );
        // er = 0.9 degrades markedly more.
        assert!(points[1].accuracy_mean > points[2].accuracy_mean);
        // Stochasticity appears at non-zero error rates.
        assert!(points[1].accuracy_std > 0.0);
    }

    #[test]
    fn confidence_spread_grows_with_error_rate() {
        let d = dataset();
        let cfg = HmdTrainConfig::fast();
        let exec = ExecConfig::auto();
        let low = confidence_distribution(&d, 0.1, 3, &cfg, 1, &exec).expect("low");
        let high = confidence_distribution(&d, 0.9, 3, &cfg, 1, &exec).expect("high");
        let (_, low_std) = low.malware_summary();
        let (_, high_std) = high.malware_summary();
        assert!(
            high_std > low_std,
            "uncertainty must grow with er: {low_std} vs {high_std}"
        );
    }

    #[test]
    fn zero_rate_distribution_is_degenerate_per_sample() {
        let d = dataset();
        let dist =
            confidence_distribution(&d, 0.0, 2, &HmdTrainConfig::fast(), 1, &ExecConfig::auto())
                .expect("dist");
        // With two deterministic reps per sample, consecutive scores pair up.
        for pair in dist.malware_scores.chunks(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn invalid_rate_is_an_error() {
        let d = dataset();
        let err = accuracy_sweep(
            &d,
            &[2.0],
            1,
            &HmdTrainConfig::fast(),
            1,
            &ExecConfig::auto(),
        )
        .expect_err("invalid");
        assert!(matches!(err, ExploreError::Fault(_)));
    }
}
