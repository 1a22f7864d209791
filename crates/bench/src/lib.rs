//! Experiment harness for the Stochastic-HMD reproduction.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it (see DESIGN.md §4 for the index). The heavy lifting lives
//! in [`experiments`] so that integration tests can exercise the exact same
//! code paths at reduced scale.
//!
//! Common flags for all binaries:
//!
//! ```text
//! --seed N      master seed (default 42)
//! --reps N      stochastic repetitions (default: experiment-specific)
//! --threads N   worker threads (default: one per hardware thread);
//!               results are bit-identical at any count
//! --paper       full paper-scale dataset (3000 malware + 600 benign)
//! --fast        tiny dataset for smoke runs
//! ```
//!
//! The `*_bench` binaries add `--check` and `--out PATH` ([`report`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod arena;
pub mod batch;
pub mod chaos;
pub mod cli;
pub mod daemon;
pub mod durability;
pub mod experiments;
pub mod perf;
pub mod power;
pub mod replay;
pub mod report;
pub mod serve;
pub mod setup;
pub mod table;

pub use cli::Args;
