//! The training pipeline and per-fold evaluation. The fold × rep sweeps
//! that run it live in [`crate::explore`].

use crate::baseline::BaselineHmd;
use crate::detector::Detector;
use crate::exec::ExecConfig;
use shmd_ann::builder::{BuildNetworkError, NetworkBuilder};
use shmd_ann::train::{RpropTrainer, TrainData, TrainDataError};
use shmd_ml::metrics::ConfusionMatrix;
use shmd_workload::dataset::{Dataset, LabeledFeatures};
use shmd_workload::features::{FeatureSpec, FEATURE_DIM};
use std::fmt;

/// Error training an HMD.
#[derive(Clone, Debug, PartialEq)]
pub enum TrainHmdError {
    /// The training fold is unusable (empty / ragged / single class).
    BadTrainingData(String),
    /// The network topology is invalid.
    BadTopology(BuildNetworkError),
}

impl fmt::Display for TrainHmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainHmdError::BadTrainingData(msg) => write!(f, "bad training data: {msg}"),
            TrainHmdError::BadTopology(e) => write!(f, "bad network topology: {e}"),
        }
    }
}

impl std::error::Error for TrainHmdError {}

impl From<TrainDataError> for TrainHmdError {
    fn from(e: TrainDataError) -> TrainHmdError {
        TrainHmdError::BadTrainingData(e.to_string())
    }
}

impl From<BuildNetworkError> for TrainHmdError {
    fn from(e: BuildNetworkError) -> TrainHmdError {
        TrainHmdError::BadTopology(e)
    }
}

/// HMD training hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HmdTrainConfig {
    /// Hidden-layer width of the MLP.
    pub hidden: usize,
    /// iRPROP− epochs.
    pub epochs: usize,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl HmdTrainConfig {
    /// The configuration used for the paper-scale experiments.
    pub fn paper() -> HmdTrainConfig {
        HmdTrainConfig {
            hidden: 12,
            epochs: 200,
            seed: 0,
        }
    }

    /// A fast configuration for tests and examples.
    pub fn fast() -> HmdTrainConfig {
        HmdTrainConfig {
            hidden: 8,
            epochs: 80,
            seed: 0,
        }
    }
}

impl Default for HmdTrainConfig {
    fn default() -> HmdTrainConfig {
        HmdTrainConfig::paper()
    }
}

/// Fewest training samples per worker. On a 2-vCPU host, training a
/// 16-12-1 network for 80 or 200 epochs on two workers is 0.88–1.08× one
/// worker's speed for a 32-sample fold and 1.16–1.28× for a 64-sample fold,
/// where each worker has 32 samples, in runs where the host delivered both
/// cores; with fewer, the hand-offs between an epoch's steps cost what the
/// split saves (`cargo run --release -p shmd-ann --example train_threads`).
const MIN_SAMPLES_PER_TRAINING_WORKER: usize = 32;

/// Training workers for a fold of `samples`: [`ExecConfig::nested`] (every
/// core at top level, one inside a [`crate::exec::parallel_map_n`] task),
/// capped at one per [`MIN_SAMPLES_PER_TRAINING_WORKER`] samples.
fn training_threads(samples: usize) -> usize {
    ExecConfig::nested()
        .thread_count()
        .min(samples / MIN_SAMPLES_PER_TRAINING_WORKER)
        .max(1)
}

/// Trains a baseline HMD on a fold of the dataset.
///
/// Training splits across every core at top level and stays on one thread
/// inside a [`crate::exec::parallel_map_n`] task (see
/// [`ExecConfig::nested`]), with at most one worker per 32 samples. The
/// trained weights are bit-identical at every count.
///
/// # Errors
///
/// Returns [`TrainHmdError`] when the fold is unusable or the topology is
/// invalid.
pub fn train_baseline(
    dataset: &Dataset,
    indices: &[usize],
    spec: FeatureSpec,
    config: &HmdTrainConfig,
) -> Result<BaselineHmd, TrainHmdError> {
    train_on(dataset.labeled_features(indices, spec), spec, config)
}

/// [`train_baseline`] on a fold's extracted features.
fn train_on(
    lf: LabeledFeatures,
    spec: FeatureSpec,
    config: &HmdTrainConfig,
) -> Result<BaselineHmd, TrainHmdError> {
    let targets: Vec<Vec<f32>> = lf
        .labels
        .iter()
        .map(|&m| vec![if m { 1.0 } else { 0.0 }])
        .collect();
    let data = TrainData::new(lf.inputs, targets)?;
    let mut network = NetworkBuilder::new(FEATURE_DIM)
        .hidden(config.hidden)
        .output(1)
        .seed(config.seed)
        .build()?;
    RpropTrainer::new()
        .epochs(config.epochs)
        .threads(training_threads(data.len()))
        .train(&mut network, &data);
    Ok(BaselineHmd::new(format!("hmd[{spec}]"), spec, network))
}

/// Evaluates a detector over a set of program indices, one detection per
/// program.
pub fn evaluate(
    detector: &mut dyn Detector,
    dataset: &Dataset,
    indices: &[usize],
) -> ConfusionMatrix {
    let mut m = ConfusionMatrix::new();
    for &i in indices {
        m.record(
            detector.classify(dataset.trace(i)).is_malware(),
            dataset.program(i).is_malware(),
        );
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmd_workload::dataset::DatasetConfig;

    fn dataset() -> Dataset {
        Dataset::generate(&DatasetConfig::small(100), 31)
    }

    #[test]
    fn training_yields_accurate_detector() {
        let d = dataset();
        let split = d.three_fold_split(0);
        let mut hmd = train_baseline(
            &d,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("train");
        let m = evaluate(&mut hmd, &d, split.testing());
        assert!(m.accuracy() > 0.9, "{m}");
    }

    #[test]
    fn empty_fold_is_an_error() {
        let d = dataset();
        let err = train_baseline(&d, &[], FeatureSpec::frequency(), &HmdTrainConfig::fast())
            .expect_err("empty fold");
        assert!(matches!(err, TrainHmdError::BadTrainingData(_)));
    }

    #[test]
    fn a_non_finite_feature_is_bad_training_data() {
        let d = dataset();
        let split = d.three_fold_split(0);
        let spec = FeatureSpec::frequency();
        for bad in [f32::NAN, f32::INFINITY] {
            let mut lf = d.labeled_features(split.victim_training(), spec);
            lf.inputs[3][2] = bad;
            match train_on(lf, spec, &HmdTrainConfig::fast()) {
                Err(TrainHmdError::BadTrainingData(msg)) => {
                    assert!(
                        msg.contains("sample 3") && msg.contains("non-finite"),
                        "{msg}"
                    );
                }
                other => panic!("expected bad training data, got {other:?}"),
            }
        }
    }

    #[test]
    fn training_starts_no_workers_inside_a_grid_task() {
        use crate::exec::{parallel_map_n, ExecConfig};
        let fold = 4 * MIN_SAMPLES_PER_TRAINING_WORKER;
        let top = ExecConfig::auto().thread_count().min(4);
        assert_eq!(training_threads(fold), top);
        assert_eq!(training_threads(MIN_SAMPLES_PER_TRAINING_WORKER - 1), 1);
        for config in [ExecConfig::serial(), ExecConfig::threads(2)] {
            let inside = parallel_map_n(&config, 3, |_| training_threads(fold));
            assert_eq!(inside, vec![1, 1, 1]);
        }
        // And the model trained inside a task is the one trained outside.
        let d = dataset();
        let split = d.three_fold_split(0);
        let train = || {
            train_baseline(
                &d,
                split.victim_training(),
                FeatureSpec::frequency(),
                &HmdTrainConfig::fast(),
            )
            .unwrap()
        };
        let outside = train();
        let inside = parallel_map_n(&ExecConfig::threads(2), 2, |_| train());
        assert!(inside.iter().all(|m| m.network() == outside.network()));
    }

    #[test]
    fn training_is_deterministic() {
        let d = dataset();
        let split = d.three_fold_split(0);
        let a = train_baseline(
            &d,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .unwrap();
        let b = train_baseline(
            &d,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .unwrap();
        assert_eq!(a.network(), b.network());
    }

    #[test]
    fn different_specs_yield_different_detectors() {
        use shmd_workload::features::{DetectionPeriod, FeatureKind};
        let d = dataset();
        let split = d.three_fold_split(0);
        let cfg = HmdTrainConfig::fast();
        let a =
            train_baseline(&d, split.victim_training(), FeatureSpec::frequency(), &cfg).unwrap();
        let b = train_baseline(
            &d,
            split.victim_training(),
            FeatureSpec::new(FeatureKind::Burstiness, DetectionPeriod::EVERY_WINDOW),
            &cfg,
        )
        .unwrap();
        assert_ne!(a.network(), b.network());
    }

    /// Pins `train_baseline` bit for bit: FNV-1a over every trained weight.
    /// Captured before training shared its forward passes between the MSE
    /// and the next gradient.
    #[test]
    fn pinned_train_baseline_weights() {
        let d = Dataset::generate(&DatasetConfig::small(40), 7);
        let split = d.three_fold_split(0);
        let hmd = train_baseline(
            &d,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .unwrap();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for layer in hmd.network().layers() {
            for b in layer
                .weights()
                .iter()
                .flat_map(|w| w.to_bits().to_le_bytes())
            {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(h, 13_056_178_724_357_011_916);
    }

    #[test]
    fn error_display_is_informative() {
        let e = TrainHmdError::BadTrainingData("empty".into());
        assert!(e.to_string().contains("empty"));
    }
}
