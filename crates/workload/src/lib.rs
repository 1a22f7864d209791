//! Synthetic malware/benign workload and dataset generation.
//!
//! The paper's dataset (§IV) consists of 3 000 malware samples from five
//! families (backdoors, rogues, password stealers, trojans, worms) and 600
//! benign programs (browsers, text editors, system utilities, CPU
//! benchmarks), traced with Intel Pin on an isolated Windows machine. The
//! extracted features are "based on the frequency of executed instruction
//! categories; based on Intel's sub-grouping of instructions".
//!
//! Neither the malware corpus nor Pin is available here, so this crate
//! generates the closest synthetic equivalent that exercises the same code
//! paths (see DESIGN.md §2): each program family has a characteristic
//! instruction-category mix; each program perturbs its family profile
//! log-normally; each execution window draws category counts around the
//! program profile. Generation is **deterministic per seed** — the paper
//! verifies its own feature collection is deterministic, and tests here
//! assert the same property. Generation fans out over the [`exec`]
//! engine, which lives here so that this crate and `stochastic-hmd`
//! share it, and the corpus is the same on any number of threads.
//!
//! # Example
//!
//! ```
//! use shmd_workload::dataset::{Dataset, DatasetConfig};
//! use shmd_workload::features::FeatureSpec;
//!
//! let dataset = Dataset::generate(&DatasetConfig::small(60), 42);
//! let folds = dataset.three_fold_split(0);
//! let victim = dataset.labeled_features(folds.victim_training(), FeatureSpec::frequency());
//! assert_eq!(victim.inputs.len(), folds.victim_training().len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod dataset;
pub mod drift;
pub mod exec;
pub mod export;
pub mod families;
pub mod features;
pub mod isa;
pub mod program;
pub mod trace;

pub use dataset::{Dataset, DatasetConfig, LabeledFeatures, ThreeFoldSplit};
pub use drift::{DriftError, DriftSchedule, DriftSegment, DriftStream};
pub use families::{BenignFamily, MalwareFamily, ProgramClass};
pub use features::{DetectionPeriod, FeatureKind, FeatureSpec, FEATURE_DIM};
pub use isa::InsnCategory;
pub use program::Program;
pub use trace::{Trace, TraceConfig};
