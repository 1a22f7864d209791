//! Evasive-malware generation by instruction injection.
//!
//! The attacker may only *add* instructions — the malicious payload must
//! keep executing, so existing instructions cannot be removed. Injection
//! dilutes the malware's category frequencies towards a benign-looking mix.
//! Generation greedily picks, at each step, the instruction category whose
//! injection lowers the proxy's malware score the most, and stops as soon
//! as the proxy classifies the padded trace as benign (a *minimal*
//! perturbation, as a stealthy attacker prefers: every injected instruction
//! costs runtime and makes the sample look more anomalous elsewhere).
//!
//! Greedy coordinate search is used rather than gradients so the same
//! framework attacks the non-differentiable decision-tree proxy. The
//! candidate set contains both single instruction categories and
//! *benign-mimicry bundles* — category mixes shaped like real benign
//! applications (browser, editor, …). Mimicry moves the sample along the
//! data distribution towards the benign class, a direction that transfers
//! across models far better than a proxy-specific axis direction; which
//! candidates the greedy search actually picks depends on the proxy's
//! decision surface, which is what differentiates MLP/LR/DT transfer rates.

use crate::reverse::Proxy;
use shmd_workload::families::{BenignFamily, ProgramClass};
use shmd_workload::isa::CATEGORY_COUNT;
use shmd_workload::trace::Trace;

/// Evasion hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvasionConfig {
    /// Injection step, as a fraction of the original trace length.
    pub step_fraction: f64,
    /// Maximum total injection, as a fraction of the original length
    /// (e.g. `3.0` = the padded sample may be up to 4× the original).
    pub budget_fraction: f64,
    /// Safety margin below the decision threshold the attacker aims for:
    /// evasion succeeds when the proxy score drops below `0.5 − margin`.
    /// A sample sitting exactly at the proxy's boundary would transfer
    /// poorly (any proxy/victim mismatch flips it back), so a real attacker
    /// overshoots.
    pub margin: f64,
}

impl Default for EvasionConfig {
    fn default() -> EvasionConfig {
        EvasionConfig {
            step_fraction: 0.05,
            budget_fraction: 1.0,
            margin: 0.1,
        }
    }
}

/// A successfully generated evasive sample.
#[derive(Clone, Debug)]
pub struct EvasiveSample {
    /// Index of the original malware program in its dataset.
    pub program_idx: usize,
    /// The padded trace that evades the proxy.
    pub trace: Trace,
    /// Total injected instructions per category.
    pub injected: [u32; CATEGORY_COUNT],
    /// The proxy's score for the padded trace (below threshold).
    pub proxy_score: f64,
    /// Number of greedy injection steps taken.
    pub steps: usize,
}

impl EvasiveSample {
    /// Total injected instruction count.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().map(|&c| u64::from(c)).sum()
    }
}

/// Attempts to evade the proxy for one malware trace.
///
/// Returns `None` when the injection budget is exhausted before the proxy
/// flips (evasion failed), or when the proxy already labels the original
/// trace benign and no injection is needed (`steps == 0` in the returned
/// sample distinguishes that case).
pub fn evade(proxy: &Proxy, trace: &Trace, config: &EvasionConfig) -> Option<EvasiveSample> {
    let original_len = trace.total_insns();
    let step = ((original_len as f64 * config.step_fraction) as u32).max(1);
    let budget = (original_len as f64 * config.budget_fraction) as u64;

    let target = 0.5 - config.margin;
    let mut injected = [0u32; CATEGORY_COUNT];
    let mut current = trace.clone();
    let mut score = proxy.score_trace(&current);
    let mut steps = 0usize;

    if score < 0.5 {
        // The proxy already clears this trace: nothing to inject.
        return Some(EvasiveSample {
            program_idx: usize::MAX,
            trace: current,
            injected,
            proxy_score: score,
            steps,
        });
    }

    let candidates = candidate_bundles(step);
    while score >= target {
        let injected_total: u64 = injected.iter().map(|&c| u64::from(c)).sum();
        if injected_total + u64::from(step) > budget {
            return None; // budget exhausted: evasion failed
        }
        // Greedy: try every candidate bundle, keep the one that helps most.
        let mut best: Option<(usize, f64)> = None;
        for (ci, bundle) in candidates.iter().enumerate() {
            let trial = add_bundle(&injected, bundle);
            let s = proxy.score_trace(&trace.with_injected(&trial));
            if best.is_none_or(|(_, bs)| s < bs) {
                best = Some((ci, s));
            }
        }
        let (ci, best_score) = best.expect("at least one candidate");
        if add_bundle(&injected, &candidates[ci]) == injected {
            // All candidate bundles rounded to zero instructions (possible
            // for very short traces): no injection can make progress.
            return None;
        }
        // A plateau does not abort the attack: against a piecewise-constant
        // proxy (decision tree) the score only moves when an injection
        // crosses a split threshold, so the attacker keeps padding with the
        // best bundle until the budget runs out.
        let committed = injected;
        injected = add_bundle(&injected, &candidates[ci]);
        current = trace.with_injected(&injected);
        score = best_score;
        steps += 1;

        if score < target {
            // Crossed the target: binary-search the final bundle down to
            // the minimal injection that still reaches it (fewer injected
            // instructions = cheaper, stealthier malware).
            let (mut lo, mut hi) = (0u32, 256u32);
            for _ in 0..8 {
                let mid = (lo + hi) / 2;
                let trial = add_scaled_bundle(&committed, &candidates[ci], mid);
                if proxy.score_trace(&trace.with_injected(&trial)) < target {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            injected = add_scaled_bundle(&committed, &candidates[ci], hi);
            current = trace.with_injected(&injected);
            score = proxy.score_trace(&current);
        }
    }

    Some(EvasiveSample {
        program_idx: usize::MAX,
        trace: current,
        injected,
        proxy_score: score,
        steps,
    })
}

/// The injection moves the greedy search can make each step: one block of
/// `step` instructions shaped like a benign application's category mix.
///
/// A flood of one raw category (say, +50% SIMD) is not a usable evasion:
/// the padding has to be *real executable code* woven through the payload,
/// and realistic filler code has a benign application's mixed profile.
/// Restricting moves to such blocks keeps evasive samples on the data
/// manifold — which is also what makes them transfer from the proxy to the
/// victim at all.
fn candidate_bundles(step: u32) -> Vec<[u32; CATEGORY_COUNT]> {
    use shmd_workload::isa::InsnCategory;
    // Categories a filler block should avoid because they read as
    // malware-ish or have side effects (syscalls, port I/O, far control
    // flow, segment loads, string scans).
    let scrub = [
        InsnCategory::ControlTransfer.index(),
        InsnCategory::StringOp.index(),
        InsnCategory::SegmentRegister.index(),
        InsnCategory::System.index(),
        InsnCategory::Io.index(),
    ];
    let mut out = Vec::with_capacity(2 * BenignFamily::ALL.len());
    for &family in &BenignFamily::ALL {
        let profile = ProgramClass::Benign(family).base_profile();
        let mut plain = [0u32; CATEGORY_COUNT];
        for (slot, &p) in plain.iter_mut().zip(&profile) {
            *slot = (p * f64::from(step)).round() as u32;
        }
        out.push(plain);
        // Scrubbed variant: the same mix restricted to side-effect-free
        // computational filler, renormalised to the step size.
        let mut kept = profile;
        for &c in &scrub {
            kept[c] = 0.0;
        }
        let total: f64 = kept.iter().sum();
        let mut scrubbed = [0u32; CATEGORY_COUNT];
        for (slot, &p) in scrubbed.iter_mut().zip(&kept) {
            *slot = (p / total * f64::from(step)).round() as u32;
        }
        out.push(scrubbed);
    }
    // Very small steps can round an entire bundle to zero; guarantee every
    // bundle injects at least one instruction so greedy steps always move.
    for bundle in &mut out {
        if bundle.iter().all(|&c| c == 0) {
            bundle[shmd_workload::isa::InsnCategory::DataTransfer.index()] = 1;
        }
    }
    out
}

fn add_bundle(
    base: &[u32; CATEGORY_COUNT],
    bundle: &[u32; CATEGORY_COUNT],
) -> [u32; CATEGORY_COUNT] {
    let mut out = *base;
    for (o, &b) in out.iter_mut().zip(bundle) {
        *o = o.saturating_add(b);
    }
    out
}

/// Adds `bundle` scaled by `t/256`.
fn add_scaled_bundle(
    base: &[u32; CATEGORY_COUNT],
    bundle: &[u32; CATEGORY_COUNT],
    t: u32,
) -> [u32; CATEGORY_COUNT] {
    let mut out = *base;
    for (o, &b) in out.iter_mut().zip(bundle) {
        *o = o.saturating_add((u64::from(b) * u64::from(t) / 256) as u32);
    }
    out
}

/// Generates evasive variants for a set of malware programs.
///
/// Returns only the samples that successfully evade the proxy; each result
/// carries its dataset index.
pub fn generate_evasive_malware(
    proxy: &Proxy,
    dataset: &shmd_workload::dataset::Dataset,
    malware_indices: &[usize],
    config: &EvasionConfig,
) -> Vec<EvasiveSample> {
    let mut out = Vec::new();
    for &idx in malware_indices {
        if let Some(mut sample) = evade(proxy, dataset.trace(idx), config) {
            sample.program_idx = idx;
            out.push(sample);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reverse::{reverse_engineer, ReverseConfig};
    use crate::ProxyKind;
    use shmd_workload::dataset::{Dataset, DatasetConfig};
    use shmd_workload::features::FeatureSpec;
    use stochastic_hmd::train::{train_baseline, HmdTrainConfig};

    fn setup() -> (Dataset, Proxy) {
        let dataset = Dataset::generate(&DatasetConfig::small(120), 71);
        let split = dataset.three_fold_split(0);
        let mut victim = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("train victim");
        let proxy = reverse_engineer(
            &mut victim,
            &dataset,
            split.attacker_training(),
            &ReverseConfig::new(ProxyKind::Mlp),
        )
        .expect("RE");
        (dataset, proxy)
    }

    fn proxy_detected_malware(dataset: &Dataset, proxy: &Proxy) -> Vec<usize> {
        let split = dataset.three_fold_split(0);
        split
            .testing()
            .iter()
            .copied()
            .filter(|&i| dataset.program(i).is_malware() && proxy.predict_trace(dataset.trace(i)))
            .collect()
    }

    #[test]
    fn evasion_flips_the_proxy() {
        let (dataset, proxy) = setup();
        let targets = proxy_detected_malware(&dataset, &proxy);
        assert!(!targets.is_empty(), "need detected malware to evade");
        let samples =
            generate_evasive_malware(&proxy, &dataset, &targets, &EvasionConfig::default());
        assert!(
            samples.len() * 2 > targets.len(),
            "evasion should succeed for most samples: {}/{}",
            samples.len(),
            targets.len()
        );
        for s in &samples {
            assert!(s.proxy_score < 0.5, "proxy must label the sample benign");
            assert!(!proxy.predict_trace(&s.trace));
        }
    }

    #[test]
    fn evasion_preserves_the_payload() {
        let (dataset, proxy) = setup();
        let targets = proxy_detected_malware(&dataset, &proxy);
        let samples =
            generate_evasive_malware(&proxy, &dataset, &targets, &EvasionConfig::default());
        for s in &samples {
            let original = dataset.trace(s.program_idx);
            for (ow, nw) in original.windows().iter().zip(s.trace.windows()) {
                for (o, n) in ow.iter().zip(nw) {
                    assert!(n >= o, "evasion removed payload instructions");
                }
            }
        }
    }

    #[test]
    fn evasion_is_minimal() {
        // The greedy search stops at the first step that crosses the
        // boundary — scores should sit just below 0.5, not at 0.
        let (dataset, proxy) = setup();
        let targets = proxy_detected_malware(&dataset, &proxy);
        let samples =
            generate_evasive_malware(&proxy, &dataset, &targets, &EvasionConfig::default());
        let near_boundary = samples.iter().filter(|s| s.proxy_score > 0.1).count();
        assert!(
            near_boundary * 2 >= samples.len(),
            "most evasive scores should sit near the boundary"
        );
    }

    #[test]
    fn tiny_budget_fails() {
        let (dataset, proxy) = setup();
        let targets = proxy_detected_malware(&dataset, &proxy);
        let cfg = EvasionConfig {
            step_fraction: 0.01,
            budget_fraction: 0.02,
            margin: 0.15,
        };
        let samples = generate_evasive_malware(&proxy, &dataset, &targets, &cfg);
        assert!(
            samples.len() < targets.len(),
            "a 2% budget should not evade everything"
        );
    }

    #[test]
    fn already_benign_needs_no_steps() {
        let (dataset, proxy) = setup();
        let split = dataset.three_fold_split(0);
        let benign_idx = split
            .testing()
            .iter()
            .copied()
            .find(|&i| !dataset.program(i).is_malware() && !proxy.predict_trace(dataset.trace(i)))
            .expect("some benign sample the proxy clears");
        let s = evade(&proxy, dataset.trace(benign_idx), &EvasionConfig::default())
            .expect("trivially evades");
        assert_eq!(s.steps, 0);
        assert_eq!(s.injected_total(), 0);
    }

    #[test]
    fn injected_totals_match_trace_growth() {
        let (dataset, proxy) = setup();
        let targets = proxy_detected_malware(&dataset, &proxy);
        let samples =
            generate_evasive_malware(&proxy, &dataset, &targets, &EvasionConfig::default());
        for s in samples.iter().take(5) {
            let original = dataset.trace(s.program_idx);
            assert_eq!(
                s.trace.total_insns(),
                original.total_insns() + s.injected_total()
            );
        }
    }
}
