//! Inputs shared by every workload: the paper-scale corpus, the trained
//! victim detector, pre-extracted features, the seeded query order, and the
//! configurations each workload deploys. Everything a run feeds the
//! service is a function of the `--seed` argument.

use shmd_ml::anomaly::{AnomalyConfig, AnomalyScorer};
use shmd_volt::calibration::{CalibrationCurve, Calibrator, DeviceProfile};
use shmd_volt::environment::EnvironmentConfig;
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};
use stochastic_hmd::{BaselineHmd, RequeryConfig, ServeConfig, SupervisorConfig};

/// The paper-scale corpus: 3 000 malware and 600 benign programs.
fn dataset_config() -> DatasetConfig {
    DatasetConfig::paper()
}

/// Seed of the corpus and so of the trained victim. The deployed model is
/// part of the system under test, not of its input, so it stays fixed:
/// the workload seed draws the query order, arrival times, crash points
/// and the service's fault streams, and every seed exercises the same
/// model.
const CORPUS_SEED: u64 = 42;

/// Shards behind every deployment.
pub const SHARDS: usize = 4;

/// Worker threads a service may use.
pub const WORKERS: usize = 2;

/// A small deterministic generator (splitmix64) for schedules and orders.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed` and a stream `tag`.
    pub fn new(seed: u64, tag: u64) -> Rng {
        Rng(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The trained inputs every workload shares.
pub struct Fixture {
    /// The workload seed.
    pub seed: u64,
    /// The generated dataset.
    pub dataset: Dataset,
    /// The unprotected victim the services deploy.
    pub baseline: BaselineHmd,
    /// Every trace's features, in dataset order.
    pub features: Vec<Vec<f32>>,
    /// A seeded permutation of trace indices: the order queries arrive in.
    pub order: Vec<usize>,
}

/// Wall-clock seconds of each set-up stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Dataset generation and feature extraction.
    pub dataset_s: f64,
    /// Victim training.
    pub train_s: f64,
}

impl Fixture {
    /// Generates the corpus, trains the victim, and draws the query order
    /// for workload seed `seed`.
    pub fn build(seed: u64) -> (Fixture, SetupTimes) {
        let t = Instant::now();
        let dataset = Dataset::generate(&dataset_config(), CORPUS_SEED);
        let spec = FeatureSpec::frequency();
        let features: Vec<Vec<f32>> = (0..dataset.len())
            .map(|i| spec.extract(dataset.trace(i)))
            .collect();
        let mut order: Vec<usize> = (0..dataset.len()).collect();
        let mut rng = Rng::new(seed, 1);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_u64() as usize % (i + 1));
        }
        let dataset_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let split = dataset.three_fold_split(0);
        let baseline = train_baseline(
            &dataset,
            split.victim_training(),
            spec,
            &HmdTrainConfig::paper(),
        )
        .expect("training on a generated dataset succeeds");
        let train_s = t.elapsed().as_secs_f64();
        let fixture = Fixture {
            seed,
            dataset,
            baseline,
            features,
            order,
        };
        (fixture, SetupTimes { dataset_s, train_s })
    }

    /// Features of the `i`-th query of the arrival order.
    pub fn query(&self, i: usize) -> &[f32] {
        &self.features[self.order[i % self.order.len()]]
    }

    /// `count` consecutive queries of the arrival order from `first`,
    /// the last replaced by a width-poisoned vector when `poison` is set.
    pub fn batch(&self, first: usize, count: usize, poison: bool) -> Vec<Vec<f32>> {
        let mut batch: Vec<Vec<f32>> = (first..first + count)
            .map(|i| self.query(i).to_vec())
            .collect();
        if poison {
            if let Some(last) = batch.last_mut() {
                *last = vec![0.5; last.len() + 1];
            }
        }
        batch
    }

    /// The Tang-style anomaly member, fitted on the benign rows of the
    /// victim's training fold.
    pub fn anomaly_scorer(&self) -> AnomalyScorer {
        let split = self.dataset.three_fold_split(0);
        let labeled = self
            .dataset
            .labeled_features(split.victim_training(), self.baseline.spec());
        let benign: Vec<Vec<f32>> = labeled
            .inputs
            .into_iter()
            .zip(labeled.labels)
            .filter(|(_, malware)| !malware)
            .map(|(row, _)| row)
            .collect();
        AnomalyScorer::fit(&benign, &AnomalyConfig::default())
            .expect("generated datasets hold benign training rows")
    }
}

/// The reference device's calibration curve (unsupervised deployments).
pub fn calibration() -> CalibrationCurve {
    Calibrator::new()
        .with_step(2)
        .calibrate(&DeviceProfile::reference())
}

/// The supervised world of the journaled workloads: the reference device
/// in a drifting thermal environment, supervised every batch.
pub fn supervision(seed: u64) -> SupervisorConfig {
    let device = DeviceProfile::reference();
    let environment = EnvironmentConfig::drifting(device.temp_c, seed);
    SupervisorConfig::new(device).with_environment(environment)
}

/// The re-query policy of the attacker-facing workload.
pub fn arena_requery() -> RequeryConfig {
    RequeryConfig::new(0.499, 14)
}

/// A base serving configuration at `er` for `seed`.
pub fn serve_config(seed: u64, er: f64) -> ServeConfig {
    ServeConfig::new(SHARDS)
        .with_seed(seed)
        .with_target_error_rate(er)
}

static JOURNAL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The benchmark's working directory inside the checkout: journals and
/// span dumps live here, never outside the directory the benchmark runs
/// from.
pub fn work_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_run");
    std::fs::create_dir_all(&dir).expect("the working directory is writable");
    dir
}

/// A journal path unique within this process, deleted on drop.
pub struct JournalPath(PathBuf);

impl JournalPath {
    /// A fresh path under [`work_dir`].
    pub fn new(tag: &str) -> JournalPath {
        JournalPath(work_dir().join(format!(
            "{tag}-{}-{}.journal",
            std::process::id(),
            JOURNAL_COUNTER.fetch_add(1, Ordering::Relaxed)
        )))
    }

    /// The path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for JournalPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
