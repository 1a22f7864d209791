//! End-to-end attack campaigns: reverse-engineer → evade → transfer.
//!
//! [`AttackCampaign`] packages the full two-step attack of the paper's §V
//! against an arbitrary victim detector, producing the numbers reported in
//! Figures 3 (reverse-engineering effectiveness) and 4/5 (transferability /
//! evasive-malware detection).

use crate::evasion::EvasionConfig;
use crate::reverse::{effectiveness, reverse_engineer, ReverseConfig, ReverseError};
use crate::transfer::{transferability, TransferOutcome, DEFAULT_DETECTION_PERIODS};
use shmd_workload::dataset::Dataset;
use stochastic_hmd::detector::Detector;
use stochastic_hmd::exec::{parallel_map_n, ExecConfig};

/// Which fold the attacker trains the proxy on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttackTrainingSet {
    /// The attacker somehow knows the victim's training data — the paper's
    /// stronger scenario (1).
    VictimTraining,
    /// The attacker has only its own data — scenario (2).
    AttackerTraining,
}

impl std::fmt::Display for AttackTrainingSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AttackTrainingSet::VictimTraining => "victim training",
            AttackTrainingSet::AttackerTraining => "attacker training",
        })
    }
}

/// The result of one full campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct AttackReport {
    /// The proxy family used (display form: MLP/LR/DT).
    pub proxy: String,
    /// Which data the proxy trained on.
    pub training_set: String,
    /// Reverse-engineering effectiveness on the testing fold (Fig. 3).
    pub re_effectiveness: f64,
    /// Transferability outcome on the testing fold's malware (Figs. 4/5).
    pub transfer: TransferOutcome,
}

/// A reusable campaign configuration.
#[derive(Clone, Debug)]
pub struct AttackCampaign {
    /// Reverse-engineering setup (proxy family, features, seeds).
    pub reverse: ReverseConfig,
    /// Evasion budget and step size.
    pub evasion: EvasionConfig,
    /// Which fold the proxy trains on.
    pub training_set: AttackTrainingSet,
    /// Detection periods the victim observes each evasive sample for.
    pub detections: usize,
}

impl AttackCampaign {
    /// A campaign with the given reverse-engineering setup, attacking from
    /// the attacker-training fold with default evasion parameters.
    pub fn new(reverse: ReverseConfig) -> AttackCampaign {
        AttackCampaign {
            reverse,
            evasion: EvasionConfig::default(),
            training_set: AttackTrainingSet::AttackerTraining,
            detections: DEFAULT_DETECTION_PERIODS,
        }
    }

    /// Selects which fold the proxy trains on.
    #[must_use]
    pub fn with_training_set(mut self, set: AttackTrainingSet) -> AttackCampaign {
        self.training_set = set;
        self
    }

    /// Runs the campaign against a victim using the dataset's fold
    /// `rotation`.
    ///
    /// # Errors
    ///
    /// Propagates [`ReverseError`] from the reverse-engineering step.
    pub fn run(
        &self,
        victim: &mut dyn Detector,
        dataset: &Dataset,
        rotation: usize,
    ) -> Result<AttackReport, ReverseError> {
        let split = dataset.three_fold_split(rotation);
        let train_fold = match self.training_set {
            AttackTrainingSet::VictimTraining => split.victim_training(),
            AttackTrainingSet::AttackerTraining => split.attacker_training(),
        };
        let proxy = reverse_engineer(victim, dataset, train_fold, &self.reverse)?;
        let re_effectiveness = effectiveness(&proxy, victim, dataset, split.testing());
        let malware: Vec<usize> = dataset.malware_indices(split.testing()).collect();
        let transfer = transferability(
            victim,
            &proxy,
            dataset,
            &malware,
            &self.evasion,
            self.detections,
        );
        Ok(AttackReport {
            proxy: proxy.kind().to_string(),
            training_set: self.training_set.to_string(),
            re_effectiveness,
            transfer,
        })
    }

    /// Runs the campaign against every fold rotation concurrently,
    /// returning one report per rotation in rotation order.
    ///
    /// `build` constructs rotation `r`'s victim — derive any stochastic
    /// seed from `r` (see [`stochastic_hmd::exec::derive_seed`]) so the
    /// reports are bit-identical at any thread count. Each rotation's
    /// victim answers every probe of its campaign, so its internal
    /// inference scratch amortises across the thousands of queries the
    /// reverse-engineering and transfer stages issue.
    ///
    /// # Errors
    ///
    /// Propagates the earliest rotation's [`ReverseError`].
    pub fn run_folds<D, F>(
        &self,
        dataset: &Dataset,
        rotations: usize,
        exec: &ExecConfig,
        build: F,
    ) -> Result<Vec<AttackReport>, ReverseError>
    where
        D: Detector,
        F: Fn(usize) -> D + Sync,
    {
        parallel_map_n(exec, rotations, |rotation| {
            let mut victim = build(rotation);
            self.run(&mut victim, dataset, rotation)
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProxyKind;
    use shmd_workload::dataset::DatasetConfig;
    use shmd_workload::features::FeatureSpec;
    use stochastic_hmd::train::{train_baseline, HmdTrainConfig};

    #[test]
    fn campaign_produces_a_full_report() {
        let dataset = Dataset::generate(&DatasetConfig::small(120), 91);
        let split = dataset.three_fold_split(0);
        let mut victim = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("train");
        let report = AttackCampaign::new(ReverseConfig::new(ProxyKind::LogisticRegression))
            .run(&mut victim, &dataset, 0)
            .expect("campaign");
        assert_eq!(report.proxy, "LR");
        assert!(report.re_effectiveness > 0.8);
        assert!(report.transfer.attempted > 0);
    }

    #[test]
    fn run_folds_is_thread_count_invariant() {
        let dataset = Dataset::generate(&DatasetConfig::small(120), 93);
        let campaign = AttackCampaign::new(ReverseConfig::new(ProxyKind::LogisticRegression));
        let build = |rotation: usize| {
            let split = dataset.three_fold_split(rotation);
            train_baseline(
                &dataset,
                split.victim_training(),
                FeatureSpec::frequency(),
                &HmdTrainConfig::fast(),
            )
            .expect("train")
        };
        let serial = campaign
            .run_folds(
                &dataset,
                3,
                &stochastic_hmd::exec::ExecConfig::serial(),
                build,
            )
            .expect("serial");
        let parallel = campaign
            .run_folds(
                &dataset,
                3,
                &stochastic_hmd::exec::ExecConfig::threads(4),
                build,
            )
            .expect("parallel");
        assert_eq!(serial.len(), 3);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn victim_training_scenario_is_stronger_or_equal() {
        let dataset = Dataset::generate(&DatasetConfig::small(120), 92);
        let split = dataset.three_fold_split(0);
        let mut victim = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("train");
        let strong = AttackCampaign::new(ReverseConfig::new(ProxyKind::Mlp))
            .with_training_set(AttackTrainingSet::VictimTraining)
            .run(&mut victim, &dataset, 0)
            .expect("strong");
        let weak = AttackCampaign::new(ReverseConfig::new(ProxyKind::Mlp))
            .run(&mut victim, &dataset, 0)
            .expect("weak");
        // Allow small-sample slack; the strong attacker should not be
        // meaningfully worse.
        assert!(strong.re_effectiveness >= weak.re_effectiveness - 0.1);
    }
}
