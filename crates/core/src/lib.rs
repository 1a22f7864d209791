//! Stochastic-HMDs: adversarial-resilient hardware malware detectors via
//! undervolting (DAC 2023).
//!
//! This crate is the paper's primary contribution. It provides:
//!
//! - [`detector::Detector`] — the common interface of all HMDs: score an
//!   execution trace, classify it as malware or benign;
//! - [`baseline::BaselineHmd`] — the unprotected neural-network HMD
//!   (FANN-style MLP over instruction-category features);
//! - [`stochastic::StochasticHmd`] — the defense: the *same* trained model
//!   inferred on an undervolted datapath, so every multiplication may fault
//!   stochastically. No retraining, no model changes, no extra hardware —
//!   only a supply-voltage offset;
//! - [`rhmd::Rhmd`] — the state-of-the-art comparison defense (RHMD,
//!   MICRO 2017): random switching among diverse base detectors;
//! - [`train`] — training pipelines and the 3-fold cross-validation
//!   harness;
//! - [`explore`] — the §VI space exploration: accuracy and
//!   confidence-distribution sweeps over the error rate;
//! - [`exec`] — the deterministic parallel experiment engine: fans task
//!   grids across threads with per-task derived seeds, so results are
//!   bit-identical at any thread count;
//! - [`serve`] — the sharded continuous-monitoring service: a pool of
//!   Stochastic-HMD replicas answering a query stream with deterministic
//!   fan-out and graceful degradation to the baseline when calibration
//!   fails;
//! - [`supervisor`] — the robustness layer around [`serve`]: per-shard
//!   health states, a delivered-error-rate watchdog, seeded chaos plans,
//!   and deterministic recovery schedules;
//! - [`telemetry`] — the serving layer's export surface: per-shard
//!   counters, score histograms, fault statistics, and a JSON-round-trip
//!   snapshot;
//! - [`checkpoint`] — crash consistency: versioned binary service
//!   checkpoints plus a write-ahead state journal, so a killed monitor
//!   restores and resumes its verdict stream bit-identically;
//! - [`wire`] — the daemon's length-prefixed binary wire protocol:
//!   hostile bytes (truncations, bit flips, length-field lies) decode to
//!   typed errors, never a panic, never an over-allocation;
//! - [`daemon`] — the always-on deployment: admission control (bounded
//!   queue, tenant quotas, hang deadlines) in front of the service, plus
//!   the zero-downtime rolling-upgrade state machine
//!   (drain → checkpoint → hand-off → checksum-verified resume);
//! - [`arena`] — the adaptive-attacker arena: the live service behind
//!   the black-box [`detector::Detector`] interface with a query-cost
//!   meter, so denoising/transfer attacks drive the deployed stack
//!   rather than a bare detector.
//!
//! # Example
//!
//! ```
//! use shmd_workload::dataset::{Dataset, DatasetConfig};
//! use shmd_workload::features::FeatureSpec;
//! use stochastic_hmd::detector::Detector;
//! use stochastic_hmd::stochastic::StochasticHmd;
//! use stochastic_hmd::train::{train_baseline, HmdTrainConfig};
//!
//! let dataset = Dataset::generate(&DatasetConfig::small(60), 1);
//! let split = dataset.three_fold_split(0);
//! let baseline = train_baseline(
//!     &dataset,
//!     split.victim_training(),
//!     FeatureSpec::frequency(),
//!     &HmdTrainConfig::fast(),
//! )?;
//! // Protect it: 10% error rate, the paper's selected operating point.
//! let mut protected = StochasticHmd::from_baseline(&baseline, 0.1, 42)?;
//! let verdict = protected.classify(dataset.trace(split.testing()[0]));
//! println!("{verdict}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod baseline;
pub mod checkpoint;
pub(crate) mod codec;
pub mod daemon;
pub mod deploy;
pub mod detector;
pub mod enclave;
pub mod exec;
pub mod explore;
pub mod monitor;
pub mod rhmd;
pub mod roc;
pub mod serve;
pub mod stochastic;
pub mod supervisor;
pub mod telemetry;
pub mod train;
pub mod wire;
pub mod xval;

pub use arena::ArenaOracle;
pub use baseline::BaselineHmd;
pub use checkpoint::{
    BatchCommit, CheckpointError, JournalRecovery, RestoreError, ServiceCheckpoint, StateJournal,
    TempJournal,
};
pub use daemon::{
    AdmissionConfig, AdmissionStats, Daemon, DaemonPhase, HandoffError, HANDOFF_FRAME_CAP,
};
pub use deploy::{DetectionPolicy, PolicyDetector};
pub use detector::{Detector, Label};
pub use enclave::{DetectionEnclave, EnclaveError};
pub use exec::{derive_seed, mix_seed, parallel_map, parallel_map_n, ExecConfig};
pub use monitor::{monitor_all, monitor_trace, MonitorOutcome, MonitorReport};
pub use rhmd::{Rhmd, RhmdConstruction};
pub use roc::{RocCurve, RocError, RocPoint};
pub use serve::{
    MonitoringService, QueryDisposition, RejectReason, RequeryConfig, ServeConfig, ServeError,
    Verdict, VerdictConfidence, MAX_REQUERY_REPLICAS,
};
pub use stochastic::StochasticHmd;
pub use supervisor::{
    ChaosEvent, ChaosPlan, ShardHealth, SupervisionRecord, Supervisor, SupervisorConfig,
};
pub use telemetry::{
    FaultCounters, ScoreHistogram, ShardReport, TelemetryParseError, TelemetrySnapshot,
};
pub use train::{train_baseline, HmdTrainConfig, TrainHmdError};
pub use wire::{
    decode_frame, encode_frame, Frame, RejectCode, WireError, DEFAULT_MAX_FRAME_BYTES,
    FRAME_OVERHEAD, WIRE_MAGIC, WIRE_VERSION,
};
pub use xval::{cross_validate, XvalSummary};
