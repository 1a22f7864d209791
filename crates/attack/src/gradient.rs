//! Gradient-guided evasion for differentiable proxies.
//!
//! The paper argues randomisation defends because it yields "a stochastic
//! gradient over the input, which makes the estimation of the gradient
//! direction challenging for the adversary". This module implements the
//! attack that sentence is about: estimate the proxy's input gradient and
//! inject instructions along its steepest benign direction.
//!
//! Two constraints keep the attack physical:
//!
//! 1. only *additions* are possible (the payload must keep executing), so
//!    the gradient is projected onto the non-negative injection cone;
//! 2. the proxy may be non-differentiable (DT) or black-box, so gradients
//!    are estimated by finite differences over candidate injections rather
//!    than taken analytically — which also works unchanged against a
//!    *stochastic* score surface, where it inherits exactly the noise the
//!    paper describes.

use crate::evasion::{EvasionConfig, EvasiveSample};
use crate::reverse::Proxy;
use shmd_workload::isa::CATEGORY_COUNT;
use shmd_workload::trace::Trace;

/// Finite-difference step, in instructions, used to probe the score
/// surface.
const PROBE_STEP: u32 = 64;

/// Estimates ∂score/∂(injected instructions of category c) for every
/// category by forward finite differences at the current injection point.
pub fn injection_gradient(
    proxy: &Proxy,
    trace: &Trace,
    injected: &[u32; CATEGORY_COUNT],
) -> [f64; CATEGORY_COUNT] {
    let base = proxy.score_trace(&trace.with_injected(injected));
    let mut grad = [0.0; CATEGORY_COUNT];
    for c in 0..CATEGORY_COUNT {
        let mut probe = *injected;
        probe[c] = probe[c].saturating_add(PROBE_STEP);
        let shifted = proxy.score_trace(&trace.with_injected(&probe));
        grad[c] = (shifted - base) / f64::from(PROBE_STEP);
    }
    grad
}

/// Attempts to evade the proxy by repeatedly injecting along the projected
/// negative gradient (the steepest *score-reducing* mix of categories).
///
/// Returns `None` when the budget is exhausted or the surface gives no
/// usable direction (a zero projected gradient — e.g. deep inside a
/// decision-tree leaf).
pub fn evade_by_gradient(
    proxy: &Proxy,
    trace: &Trace,
    config: &EvasionConfig,
) -> Option<EvasiveSample> {
    let original_len = trace.total_insns();
    let step_total = ((original_len as f64 * config.step_fraction) as u32).max(1);
    let budget = (original_len as f64 * config.budget_fraction) as u64;
    let target = 0.5 - config.margin;

    let mut injected = [0u32; CATEGORY_COUNT];
    let mut score = proxy.score_trace(trace);
    let mut steps = 0usize;
    if score < 0.5 {
        return Some(EvasiveSample {
            program_idx: usize::MAX,
            trace: trace.clone(),
            injected,
            proxy_score: score,
            steps,
        });
    }

    while score >= target {
        let spent: u64 = injected.iter().map(|&c| u64::from(c)).sum();
        if spent + u64::from(step_total) > budget {
            return None;
        }
        let grad = injection_gradient(proxy, trace, &injected);
        // Project onto the injection cone: keep only score-*reducing*
        // directions (negative gradient components).
        let mut weights = [0.0f64; CATEGORY_COUNT];
        let mut total = 0.0;
        for (w, &g) in weights.iter_mut().zip(&grad) {
            if g < 0.0 {
                *w = -g;
                total += *w;
            }
        }
        if total <= 0.0 {
            return None; // flat or adversarially useless surface
        }
        let before = injected;
        for (slot, w) in injected.iter_mut().zip(&weights) {
            *slot = slot.saturating_add(((w / total) * f64::from(step_total)).round() as u32);
        }
        if injected == before {
            // Every rounded component was zero (tiny traces make
            // step_total = 1 spread over several categories): force one
            // instruction into the steepest-descent category so the loop
            // always makes progress towards the budget.
            let steepest = weights
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(c, _)| c)
                .expect("non-empty weights");
            injected[steepest] = injected[steepest].saturating_add(1);
        }
        score = proxy.score_trace(&trace.with_injected(&injected));
        steps += 1;
    }

    Some(EvasiveSample {
        program_idx: usize::MAX,
        trace: trace.with_injected(&injected),
        injected,
        proxy_score: score,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reverse::{reverse_engineer, ReverseConfig};
    use crate::ProxyKind;
    use shmd_workload::dataset::{Dataset, DatasetConfig};
    use shmd_workload::features::FeatureSpec;
    use stochastic_hmd::stochastic::StochasticHmd;
    use stochastic_hmd::train::{train_baseline, HmdTrainConfig};

    fn setup(kind: ProxyKind) -> (Dataset, Proxy) {
        let dataset = Dataset::generate(&DatasetConfig::small(120), 55);
        let split = dataset.three_fold_split(0);
        let mut victim = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("trains");
        let proxy = reverse_engineer(
            &mut victim,
            &dataset,
            split.attacker_training(),
            &ReverseConfig::new(kind),
        )
        .expect("RE");
        (dataset, proxy)
    }

    fn detected_malware(dataset: &Dataset, proxy: &Proxy) -> Vec<usize> {
        let split = dataset.three_fold_split(0);
        dataset
            .malware_indices(split.testing())
            .filter(|&i| proxy.predict_trace(dataset.trace(i)))
            .collect()
    }

    #[test]
    fn gradient_points_downhill_for_benign_categories() {
        let (dataset, proxy) = setup(ProxyKind::LogisticRegression);
        let idx = detected_malware(&dataset, &proxy)[0];
        let grad = injection_gradient(&proxy, dataset.trace(idx), &[0; CATEGORY_COUNT]);
        // At least one injectable direction reduces the malware score.
        assert!(
            grad.iter().any(|&g| g < 0.0),
            "no descending direction found: {grad:?}"
        );
    }

    #[test]
    fn gradient_evasion_defeats_a_differentiable_proxy() {
        let (dataset, proxy) = setup(ProxyKind::Mlp);
        let targets = detected_malware(&dataset, &proxy);
        let mut evaded = 0usize;
        for &i in targets.iter().take(20) {
            if let Some(sample) =
                evade_by_gradient(&proxy, dataset.trace(i), &EvasionConfig::default())
            {
                assert!(sample.proxy_score < 0.5);
                evaded += 1;
            }
        }
        assert!(evaded > 0, "gradient evasion should work on an MLP proxy");
    }

    #[test]
    fn gradient_evasion_preserves_the_payload() {
        let (dataset, proxy) = setup(ProxyKind::Mlp);
        let idx = detected_malware(&dataset, &proxy)[0];
        let original = dataset.trace(idx);
        if let Some(sample) = evade_by_gradient(&proxy, original, &EvasionConfig::default()) {
            for (ow, nw) in original.windows().iter().zip(sample.trace.windows()) {
                for (o, n) in ow.iter().zip(nw) {
                    assert!(n >= o, "gradient evasion removed payload instructions");
                }
            }
        }
    }

    #[test]
    fn stochastic_proxy_surface_degrades_gradient_estimates() {
        // The paper's claim, demonstrated on the score surface itself:
        // estimating the gradient *through a stochastic victim* twice gives
        // different answers, while a deterministic surface is stable.
        let dataset = Dataset::generate(&DatasetConfig::small(100), 56);
        let split = dataset.three_fold_split(0);
        let victim = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("trains");
        let idx = dataset
            .malware_indices(split.testing())
            .next()
            .expect("malware");
        let trace = dataset.trace(idx);

        // Deterministic surface: identical estimates.
        let exact = |t: &Trace| victim.score_features(&victim.spec().extract(t));
        let probe = |score_fn: &mut dyn FnMut(&Trace) -> f64| -> Vec<f64> {
            let base = score_fn(trace);
            (0..CATEGORY_COUNT)
                .map(|c| {
                    let mut probe = [0u32; CATEGORY_COUNT];
                    probe[c] = 4096;
                    score_fn(&trace.with_injected(&probe)) - base
                })
                .collect()
        };
        let mut f = |t: &Trace| exact(t);
        assert_eq!(
            probe(&mut f),
            probe(&mut f),
            "deterministic surface is stable"
        );

        // Stochastic surface: estimates disagree run to run.
        let mut sto = StochasticHmd::from_baseline(&victim, 0.5, 3).expect("valid");
        use stochastic_hmd::detector::Detector;
        let mut g = |t: &Trace| sto.score(t);
        assert_ne!(
            probe(&mut g),
            probe(&mut g),
            "stochastic surface must jitter the gradient estimate"
        );
    }
}
