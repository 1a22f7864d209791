//! Victim-validated evasion: the strongest realistic adversary.
//!
//! The black-box attacker is allowed to query the victim, so instead of
//! trusting the proxy it can *validate* each evasive candidate against the
//! victim directly, and keep padding until the victim itself clears the
//! sample several times in a row.
//!
//! This is exactly the attack the paper's core sentence addresses:
//! Stochastic-HMDs "prevent the adversary from having reliable access to
//! the HMD's output". Against a deterministic victim, one clean validation
//! is a *certificate* — the sample will evade forever. Against a
//! stochastic victim, even `k` consecutive benign verdicts certify
//! nothing: the next detection re-rolls the boundary, so a "validated"
//! sample is still caught in deployment. [`validated_outcome`] measures
//! that gap.

use crate::evasion::{evade, EvasionConfig, EvasiveSample};
use crate::reverse::Proxy;
use shmd_workload::dataset::Dataset;
use shmd_workload::trace::Trace;
use stochastic_hmd::detector::Detector;

/// Configuration of the validation loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ValidationConfig {
    /// Consecutive benign victim verdicts required to accept a candidate.
    pub required_clean: usize,
    /// Extra padding injected (fraction of the original trace) after a
    /// failed validation, before retrying.
    pub pad_fraction: f64,
    /// Maximum validation rounds before giving up on the sample.
    pub max_rounds: usize,
}

impl Default for ValidationConfig {
    fn default() -> ValidationConfig {
        ValidationConfig {
            required_clean: 3,
            pad_fraction: 0.1,
            max_rounds: 10,
        }
    }
}

/// Outcome of the validated-evasion experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ValidatedOutcome {
    /// Malware samples the attacker tried to make evasive.
    pub attempted: usize,
    /// Samples the attacker managed to validate (k consecutive benign
    /// verdicts from the victim).
    pub validated: usize,
    /// Validated samples that were *still detected* when deployed
    /// afterwards (over `deployment_detections` fresh victim queries).
    pub caught_in_deployment: usize,
    /// Victim queries the attacker spent validating.
    pub validation_queries: usize,
}

impl ValidatedOutcome {
    /// Fraction of validated samples that deployment still catches — the
    /// reliability gap of the attacker's victim access.
    pub fn deployment_catch_rate(&self) -> f64 {
        if self.validated == 0 {
            return 0.0;
        }
        self.caught_in_deployment as f64 / self.validated as f64
    }
}

/// Pads `sample` with extra benign-mimicry filler (browser profile).
fn pad(sample: &EvasiveSample, original: &Trace, fraction: f64) -> EvasiveSample {
    use shmd_workload::families::{BenignFamily, ProgramClass};
    let profile = ProgramClass::Benign(BenignFamily::Browser).base_profile();
    let extra_total = (original.total_insns() as f64 * fraction) as u32;
    let mut injected = sample.injected;
    for (slot, &p) in injected.iter_mut().zip(&profile) {
        *slot = slot.saturating_add((p * f64::from(extra_total)).round() as u32);
    }
    EvasiveSample {
        program_idx: sample.program_idx,
        trace: original.with_injected(&injected),
        injected,
        proxy_score: sample.proxy_score,
        steps: sample.steps + 1,
    }
}

/// Runs proxy evasion, validates each candidate against the victim, and
/// then measures whether the validated samples survive deployment
/// (`deployment_detections` fresh victim queries each).
pub fn validated_outcome(
    victim: &mut dyn Detector,
    proxy: &Proxy,
    dataset: &Dataset,
    malware_indices: &[usize],
    evasion: &EvasionConfig,
    validation: &ValidationConfig,
    deployment_detections: usize,
) -> ValidatedOutcome {
    let mut outcome = ValidatedOutcome::default();
    for &idx in malware_indices {
        let original = dataset.trace(idx);
        if !proxy.predict_trace(original) {
            continue; // the proxy already misses it; nothing to evade
        }
        outcome.attempted += 1;
        let Some(mut sample) = evade(proxy, original, evasion) else {
            continue;
        };
        sample.program_idx = idx;

        // Validation loop: k consecutive benign verdicts or give up.
        let mut validated = false;
        for _round in 0..validation.max_rounds {
            let mut clean = 0usize;
            let mut failed = false;
            for _ in 0..validation.required_clean {
                outcome.validation_queries += 1;
                if victim.classify(&sample.trace).is_malware() {
                    failed = true;
                    break;
                }
                clean += 1;
            }
            let _ = clean;
            if !failed {
                validated = true;
                break;
            }
            sample = pad(&sample, original, validation.pad_fraction);
        }
        if !validated {
            continue;
        }
        outcome.validated += 1;

        // Deployment: fresh detections of the validated sample.
        let caught =
            (0..deployment_detections.max(1)).any(|_| victim.classify(&sample.trace).is_malware());
        if caught {
            outcome.caught_in_deployment += 1;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reverse::{reverse_engineer, ReverseConfig};
    use crate::ProxyKind;
    use shmd_workload::dataset::DatasetConfig;
    use shmd_workload::features::FeatureSpec;
    use shmd_workload::isa::CATEGORY_COUNT;
    use stochastic_hmd::stochastic::StochasticHmd;
    use stochastic_hmd::train::{train_baseline, HmdTrainConfig};
    use stochastic_hmd::BaselineHmd;

    fn setup() -> (Dataset, BaselineHmd) {
        let dataset = Dataset::generate(&DatasetConfig::small(120), 404);
        let split = dataset.three_fold_split(0);
        let victim = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("trains");
        (dataset, victim)
    }

    #[test]
    fn deterministic_validation_is_a_certificate() {
        // Against the deterministic baseline, validated samples evade
        // deployment forever: catch rate 0.
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
        let outcome = validated_outcome(
            &mut victim,
            &proxy,
            &dataset,
            &malware,
            &EvasionConfig::default(),
            &ValidationConfig::default(),
            8,
        );
        assert!(outcome.validated > 0, "{outcome:?}");
        assert_eq!(
            outcome.caught_in_deployment, 0,
            "a deterministic verdict is repeatable: {outcome:?}"
        );
    }

    #[test]
    fn stochastic_validation_certifies_nothing() {
        // Against the Stochastic-HMD, samples that passed k clean
        // validations are still caught in deployment at a meaningful rate.
        let (dataset, victim) = setup();
        let split = dataset.three_fold_split(0);
        let mut protected = StochasticHmd::from_baseline(&victim, 0.3, 7).expect("valid");
        let proxy = reverse_engineer(
            &mut protected,
            &dataset,
            split.attacker_training(),
            &ReverseConfig::new(ProxyKind::Mlp),
        )
        .expect("RE");
        let malware: Vec<usize> = dataset.malware_indices(split.testing()).collect();
        let outcome = validated_outcome(
            &mut protected,
            &proxy,
            &dataset,
            &malware,
            &EvasionConfig::default(),
            &ValidationConfig::default(),
            16,
        );
        assert!(outcome.validated > 0, "{outcome:?}");
        assert!(
            outcome.deployment_catch_rate() > 0.1,
            "validated samples must still be caught sometimes: {outcome:?}"
        );
    }

    #[test]
    fn padding_grows_the_trace_monotonically() {
        let (dataset, _) = setup();
        let original = dataset.trace(0);
        let base = EvasiveSample {
            program_idx: 0,
            trace: original.clone(),
            injected: [0; CATEGORY_COUNT],
            proxy_score: 0.4,
            steps: 0,
        };
        let padded = pad(&base, original, 0.2);
        assert!(padded.trace.total_insns() > original.total_insns());
        assert_eq!(padded.steps, 1);
    }

    #[test]
    fn catch_rate_handles_zero_validated() {
        assert_eq!(ValidatedOutcome::default().deployment_catch_rate(), 0.0);
    }
}
