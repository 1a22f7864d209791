//! Shared experiment setup: datasets and trained detectors.

use crate::cli::{Args, Scale};
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};
use stochastic_hmd::BaselineHmd;

/// The paper's selected operating point: a 10% multiplication error rate.
pub const OPERATING_ERROR_RATE: f64 = 0.1;

/// Generates the dataset for the chosen scale.
pub fn dataset(args: &Args) -> Dataset {
    let config = match args.scale {
        Scale::Fast => DatasetConfig::small(100),
        Scale::Medium => DatasetConfig::small(600),
        Scale::Paper => DatasetConfig::paper(),
    };
    Dataset::generate(&config, args.seed)
}

/// The training configuration for the chosen scale.
pub fn train_config(args: &Args) -> HmdTrainConfig {
    match args.scale {
        Scale::Fast => HmdTrainConfig::fast(),
        _ => HmdTrainConfig::paper(),
    }
}

/// Trains the victim baseline on fold `rotation`.
///
/// # Panics
///
/// Panics if training fails (cannot happen for generated datasets).
pub fn victim(dataset: &Dataset, rotation: usize, args: &Args) -> BaselineHmd {
    let split = dataset.three_fold_split(rotation);
    train_baseline(
        dataset,
        split.victim_training(),
        FeatureSpec::frequency(),
        &train_config(args),
    )
    .expect("training on a generated dataset always succeeds")
}

/// Trains a victim baseline with an overridden hidden-layer width (other
/// hyper-parameters from the chosen scale). Used by the batched-serving
/// bench to measure a wider deployment alongside the standard fixture.
///
/// # Panics
///
/// Panics if training fails (cannot happen for generated datasets).
pub fn victim_with_hidden(
    dataset: &Dataset,
    rotation: usize,
    args: &Args,
    hidden: usize,
) -> BaselineHmd {
    let split = dataset.three_fold_split(rotation);
    let config = HmdTrainConfig {
        hidden,
        ..train_config(args)
    };
    train_baseline(
        dataset,
        split.victim_training(),
        FeatureSpec::frequency(),
        &config,
    )
    .expect("training on a generated dataset always succeeds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::Args;

    #[test]
    fn fast_scale_is_small() {
        let args = Args::parse_from(["--fast".to_string()]);
        let d = dataset(&args);
        assert!(d.len() < 200);
    }

    #[test]
    fn victim_trains() {
        let args = Args::parse_from(["--fast".to_string()]);
        let d = dataset(&args);
        let v = victim(&d, 0, &args);
        assert_eq!(v.network().output_dim(), 1);
    }
}
