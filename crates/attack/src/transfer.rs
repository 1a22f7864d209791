//! Transferability: do proxy-evading samples also evade the victim?

use crate::evasion::{generate_evasive_malware, EvasionConfig};
use crate::reverse::Proxy;
use shmd_workload::dataset::Dataset;
use std::fmt;
use stochastic_hmd::detector::Detector;

/// Error reading a rate from a [`TransferOutcome`] with `attempted == 0`:
/// the experiment never ran (no malware index was detected by the proxy,
/// or none was supplied), so there is no rate to report — a caller
/// folding this into "the attack failed" would be lying in the
/// defender's favour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoTransferAttempts;

impl fmt::Display for NoTransferAttempts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("no transfer attempts: the experiment never ran")
    }
}

impl std::error::Error for NoTransferAttempts {}

/// Outcome of a transferability experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransferOutcome {
    /// Malware samples the attacker tried to make evasive.
    pub attempted: usize,
    /// Samples that successfully evade the proxy.
    pub evaded_proxy: usize,
    /// Proxy-evading samples that also evade the victim (one detection).
    pub evaded_victim: usize,
}

impl TransferOutcome {
    /// The paper's "transferability attack success rate": the fraction of
    /// evasive malware (proxy-evading) that also evades the victim.
    ///
    /// The three cases are kept distinct instead of collapsing to `0.0`:
    /// `Ok(Some(rate))` when at least one sample evaded the proxy;
    /// `Ok(None)` when samples were attempted but the attacker's evasion
    /// step never converged against the proxy (the *proxy* defeated the
    /// attack, which says nothing about the victim); and
    /// `Err(NoTransferAttempts)` when `attempted == 0`, i.e. the
    /// experiment never ran at all.
    ///
    /// # Errors
    ///
    /// [`NoTransferAttempts`] when `attempted == 0`.
    pub fn success_rate(&self) -> Result<Option<f64>, NoTransferAttempts> {
        if self.attempted == 0 {
            return Err(NoTransferAttempts);
        }
        if self.evaded_proxy == 0 {
            return Ok(None);
        }
        Ok(Some(self.evaded_victim as f64 / self.evaded_proxy as f64))
    }

    /// The defender's view: the fraction of evasive malware *detected*
    /// (Figure 5's y-axis). Mirrors [`TransferOutcome::success_rate`]:
    /// `Ok(None)` when no evasive sample ever existed to detect.
    ///
    /// # Errors
    ///
    /// [`NoTransferAttempts`] when `attempted == 0`.
    pub fn detection_rate(&self) -> Result<Option<f64>, NoTransferAttempts> {
        Ok(self.success_rate()?.map(|rate| 1.0 - rate))
    }

    /// Scalar collapse for aggregate tables: the success rate, counting
    /// a non-converged proxy attack (and a never-run experiment) as zero
    /// attacker success. Use [`TransferOutcome::success_rate`] anywhere
    /// the distinction matters.
    pub fn assumed_success_rate(&self) -> f64 {
        self.success_rate().ok().flatten().unwrap_or(0.0)
    }

    /// Scalar collapse mirroring [`TransferOutcome::assumed_success_rate`]:
    /// the detection rate, counting a non-converged attack as full
    /// detection.
    pub fn assumed_detection_rate(&self) -> f64 {
        1.0 - self.assumed_success_rate()
    }
}

/// Number of detection periods an evasive sample is tested against,
/// matching the paper's single-detection evaluation.
///
/// Deployed HMDs monitor continuously, so a real evasive sample must evade
/// *every* detection period of its execution; pass a larger count to
/// [`transferability`] to study that (strictly defender-favouring) setting.
pub const DEFAULT_DETECTION_PERIODS: usize = 1;

/// Runs the transferability experiment: generate evasive malware against
/// the proxy, then test each evasive sample against the victim over
/// `detections` detection periods (the sample evades only if every period
/// says benign).
pub fn transferability(
    victim: &mut dyn Detector,
    proxy: &Proxy,
    dataset: &Dataset,
    malware_indices: &[usize],
    config: &EvasionConfig,
    detections: usize,
) -> TransferOutcome {
    // Only malware the proxy detects in the first place needs evading;
    // samples it already misses are excluded, as in the attack literature.
    let detected: Vec<usize> = malware_indices
        .iter()
        .copied()
        .filter(|&i| proxy.predict_trace(dataset.trace(i)))
        .collect();
    let evasive = generate_evasive_malware(proxy, dataset, &detected, config);
    let mut evaded_victim = 0usize;
    for sample in &evasive {
        let evades_all =
            (0..detections.max(1)).all(|_| !victim.classify(&sample.trace).is_malware());
        if evades_all {
            evaded_victim += 1;
        }
    }
    TransferOutcome {
        attempted: detected.len(),
        evaded_proxy: evasive.len(),
        evaded_victim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reverse::{reverse_engineer, ReverseConfig};
    use crate::ProxyKind;
    use shmd_workload::dataset::DatasetConfig;
    use shmd_workload::features::FeatureSpec;
    use stochastic_hmd::stochastic::StochasticHmd;
    use stochastic_hmd::train::{train_baseline, HmdTrainConfig};
    use stochastic_hmd::BaselineHmd;

    fn setup() -> (Dataset, BaselineHmd) {
        let dataset = Dataset::generate(&DatasetConfig::small(150), 81);
        let split = dataset.three_fold_split(0);
        let victim = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("train victim");
        (dataset, victim)
    }

    #[test]
    fn rates_are_consistent() {
        let outcome = TransferOutcome {
            attempted: 100,
            evaded_proxy: 80,
            evaded_victim: 20,
        };
        let rate = outcome.success_rate().expect("attempted > 0");
        assert!((rate.expect("converged") - 0.25).abs() < 1e-12);
        let detected = outcome.detection_rate().expect("attempted > 0");
        assert!((detected.expect("converged") - 0.75).abs() < 1e-12);
        assert!((outcome.assumed_success_rate() - 0.25).abs() < 1e-12);
        assert!((outcome.assumed_detection_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn never_run_experiment_is_a_typed_error() {
        let outcome = TransferOutcome::default();
        assert_eq!(outcome.success_rate(), Err(NoTransferAttempts));
        assert_eq!(outcome.detection_rate(), Err(NoTransferAttempts));
        assert_eq!(outcome.assumed_success_rate(), 0.0);
        assert_eq!(outcome.assumed_detection_rate(), 1.0);
    }

    #[test]
    fn non_converged_proxy_attack_is_distinct_from_failure() {
        let outcome = TransferOutcome {
            attempted: 40,
            evaded_proxy: 0,
            evaded_victim: 0,
        };
        assert_eq!(outcome.success_rate(), Ok(None));
        assert_eq!(outcome.detection_rate(), Ok(None));
        assert_eq!(outcome.assumed_success_rate(), 0.0);
    }

    #[test]
    fn baseline_victim_is_vulnerable_and_stochastic_is_not() {
        // The Figure-4 headline, end to end: evasive malware transfers to
        // the deterministic baseline far more than to the Stochastic-HMD.
        let (dataset, mut victim) = setup();
        let split = dataset.three_fold_split(0);
        let proxy = reverse_engineer(
            &mut victim,
            &dataset,
            split.attacker_training(),
            &ReverseConfig::new(ProxyKind::Mlp),
        )
        .expect("RE");
        let malware: Vec<usize> = dataset.malware_indices(split.testing()).collect();

        let baseline_outcome = transferability(
            &mut victim,
            &proxy,
            &dataset,
            &malware,
            &EvasionConfig::default(),
            DEFAULT_DETECTION_PERIODS,
        );
        assert!(
            baseline_outcome.assumed_success_rate() > 0.25,
            "baseline should be substantially evadable: {baseline_outcome:?}"
        );

        // The seed pins one representative fault stream: with ~50 evasive
        // samples the protected/baseline gap is real but small, so an
        // unlucky stream can tie the baseline count.
        let mut protected = StochasticHmd::from_baseline(&victim, 0.1, 2).expect("protect");
        let protected_outcome = transferability(
            &mut protected,
            &proxy,
            &dataset,
            &malware,
            &EvasionConfig::default(),
            DEFAULT_DETECTION_PERIODS,
        );
        assert!(
            protected_outcome.assumed_success_rate() < baseline_outcome.assumed_success_rate(),
            "stochastic victim must be harder to transfer to: {protected_outcome:?} vs {baseline_outcome:?}"
        );
    }
}
