//! Black-box adversarial attacks against HMDs.
//!
//! This crate implements the threat model of the paper's §V, following the
//! RHMD attack methodology it adopts: the adversary (1) **reverse-engineers**
//! the victim HMD by querying it as a black box and training a *proxy*
//! model on the observed labels, then (2) generates **evasive malware** by
//! injecting instructions until the proxy classifies the sample as benign,
//! and finally (3) relies on **transferability** — the hope that what evades
//! the proxy also evades the victim.
//!
//! The adversary has no access to the victim's internals, its thermal or
//! process state, or the undervolting level. Proxy models are a Multi-Layer
//! Perceptron ("state-of-the-art performance"), Logistic Regression
//! ("simplicity"), and a Decision Tree ("non-differentiability"), per §VII.
//!
//! # Example
//!
//! ```
//! use shmd_attack::reverse::{reverse_engineer, ReverseConfig};
//! use shmd_attack::ProxyKind;
//! use shmd_workload::dataset::{Dataset, DatasetConfig};
//! use shmd_workload::features::FeatureSpec;
//! use stochastic_hmd::train::{train_baseline, HmdTrainConfig};
//!
//! let dataset = Dataset::generate(&DatasetConfig::small(60), 1);
//! let split = dataset.three_fold_split(0);
//! let mut victim = train_baseline(
//!     &dataset, split.victim_training(), FeatureSpec::frequency(),
//!     &HmdTrainConfig::fast(),
//! )?;
//! let proxy = reverse_engineer(
//!     &mut victim, &dataset, split.attacker_training(),
//!     &ReverseConfig::new(ProxyKind::LogisticRegression),
//! )?;
//! let score = proxy.score_trace(dataset.trace(split.testing()[0]));
//! assert!((0.0..=1.0).contains(&score));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod arena;
pub mod campaign;
pub mod evasion;
pub mod gradient;
pub mod reverse;
pub mod transfer;
pub mod validated;

pub use adaptive::{denoised_reverse_engineer, query_cost};
pub use arena::{denoise_cost_search, DenoiseCurve, DenoisePoint, DEFAULT_QUERY_LADDER};
pub use campaign::{AttackCampaign, AttackReport};
pub use evasion::{evade, generate_evasive_malware, EvasionConfig, EvasiveSample};
pub use gradient::{evade_by_gradient, injection_gradient};
pub use reverse::{reverse_engineer, Proxy, ReverseConfig, ReverseError};
pub use transfer::{transferability, NoTransferAttempts, TransferOutcome};
pub use validated::{validated_outcome, ValidatedOutcome, ValidationConfig};

use std::fmt;

/// The model family the attacker trains as a proxy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ProxyKind {
    /// Multi-layer perceptron (the strongest proxy in the paper).
    #[default]
    Mlp,
    /// Logistic regression.
    LogisticRegression,
    /// CART decision tree (non-differentiable).
    DecisionTree,
    /// Random forest — an ensemble extension beyond the paper's attacker
    /// set, the natural adaptive step for an adversary whose single-tree
    /// proxy is defeated (cf. EnsembleHMD).
    RandomForest,
}

impl ProxyKind {
    /// The paper's proxy kinds, in Figure 3/4 order.
    pub const ALL: [ProxyKind; 3] = [
        ProxyKind::Mlp,
        ProxyKind::LogisticRegression,
        ProxyKind::DecisionTree,
    ];

    /// The paper's proxies plus the random-forest extension.
    pub const EXTENDED: [ProxyKind; 4] = [
        ProxyKind::Mlp,
        ProxyKind::LogisticRegression,
        ProxyKind::DecisionTree,
        ProxyKind::RandomForest,
    ];
}

impl fmt::Display for ProxyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProxyKind::Mlp => "MLP",
            ProxyKind::LogisticRegression => "LR",
            ProxyKind::DecisionTree => "DT",
            ProxyKind::RandomForest => "RF",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_kinds_display_like_the_paper() {
        assert_eq!(ProxyKind::Mlp.to_string(), "MLP");
        assert_eq!(ProxyKind::LogisticRegression.to_string(), "LR");
        assert_eq!(ProxyKind::DecisionTree.to_string(), "DT");
    }

    #[test]
    fn all_lists_three() {
        assert_eq!(ProxyKind::ALL.len(), 3);
        assert_eq!(ProxyKind::EXTENDED.len(), 4);
        assert_eq!(ProxyKind::RandomForest.to_string(), "RF");
    }
}
