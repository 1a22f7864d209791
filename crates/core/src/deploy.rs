//! Deployment-side detection policies.
//!
//! A deployed HMD does not classify a program once: it monitors
//! continuously, one detection per period. How the per-period verdicts
//! aggregate is a defender policy with real security/usability
//! consequences:
//!
//! - [`DetectionPolicy::Single`] — one detection, the evaluation setting of
//!   the paper's figures;
//! - [`DetectionPolicy::AnyOf`] — flag on *any* positive among k periods.
//!   Against a stochastic detector this multiplies the chance of catching
//!   an evasive sample (each period re-rolls the decision boundary) but
//!   also compounds false positives;
//! - [`DetectionPolicy::MajorityOf`] — flag on a majority of k periods:
//!   suppresses both stochastic false positives *and* most of the
//!   moving-target benefit.
//!
//! The `ablation_policy` bench binary quantifies the trade-off.

use crate::detector::{Detector, Label};
use shmd_workload::trace::Trace;
use std::fmt;

/// How per-period verdicts combine into one decision.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DetectionPolicy {
    /// One detection (the paper's evaluation setting).
    #[default]
    Single,
    /// Malware if any of `k` detections is positive.
    AnyOf(usize),
    /// Malware if more than half of `k` detections are positive.
    MajorityOf(usize),
}

impl DetectionPolicy {
    /// Number of detections the policy performs.
    pub fn detections(self) -> usize {
        match self {
            DetectionPolicy::Single => 1,
            DetectionPolicy::AnyOf(k) | DetectionPolicy::MajorityOf(k) => k.max(1),
        }
    }

    /// The policy-consistent statistic of `draws`, one score per
    /// detection: the statistic whose comparison against the threshold
    /// matches the policy verdict. That is the single score for
    /// [`DetectionPolicy::Single`], the maximum for
    /// [`DetectionPolicy::AnyOf`] (any draw over threshold ⇔ max over
    /// threshold), and the (⌊k/2⌋+1)-th largest for
    /// [`DetectionPolicy::MajorityOf`] (a strict majority over threshold ⇔
    /// that order statistic over threshold). For even k that is
    /// `draws[k/2 - 1]`, not the upper median `draws[k/2]`: with exactly
    /// k/2 positives the verdict is benign, and the upper median (a
    /// positive draw) would clear the threshold anyway.
    ///
    /// Sorts `draws` in place.
    ///
    /// # Panics
    ///
    /// Panics if `draws` is empty.
    pub fn order_statistic(self, draws: &mut [f64]) -> f64 {
        draws.sort_by(f64::total_cmp);
        let k = draws.len();
        match self {
            DetectionPolicy::Single => draws[0],
            DetectionPolicy::AnyOf(_) => draws[k - 1],
            DetectionPolicy::MajorityOf(_) => draws[k.div_ceil(2) - 1],
        }
    }

    /// Applies the policy given an oracle for one detection.
    pub fn decide(self, mut detect_once: impl FnMut() -> Label) -> Label {
        match self {
            DetectionPolicy::Single => detect_once(),
            DetectionPolicy::AnyOf(k) => {
                for _ in 0..k.max(1) {
                    if detect_once().is_malware() {
                        return Label::Malware;
                    }
                }
                Label::Benign
            }
            DetectionPolicy::MajorityOf(k) => {
                let k = k.max(1);
                let (mut votes, mut positives) = (0, 0);
                loop {
                    if let Some(label) = majority_settled(positives, votes, k) {
                        return label;
                    }
                    positives += usize::from(detect_once().is_malware());
                    votes += 1;
                }
            }
        }
    }
}

/// The strict-majority label of a `total`-vote ensemble once `votes` of
/// them are cast with `positives` saying malware, or `None` while the
/// uncast votes could still change it: malware once `2·positives >
/// total`, benign once `2·(positives + uncast) ≤ total`. Ties are benign.
/// [`DetectionPolicy::MajorityOf`] and the serving layer's re-query vote
/// both stop drawing as soon as it answers.
pub(crate) fn majority_settled(positives: usize, votes: usize, total: usize) -> Option<Label> {
    let uncast = total - votes;
    if 2 * positives > total {
        Some(Label::Malware)
    } else if 2 * (positives + uncast) <= total {
        Some(Label::Benign)
    } else {
        None
    }
}

impl fmt::Display for DetectionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectionPolicy::Single => f.write_str("single"),
            DetectionPolicy::AnyOf(k) => write!(f, "any-of-{k}"),
            DetectionPolicy::MajorityOf(k) => write!(f, "majority-of-{k}"),
        }
    }
}

/// Wraps a detector with an aggregation policy.
///
/// The wrapper is itself a [`Detector`], and `score` is
/// *policy-consistent*: it returns [`DetectionPolicy::order_statistic`]
/// over k draws, the statistic whose comparison against the threshold
/// matches the policy verdict. ROC curves and threshold tuning built on
/// `score` therefore describe the deployed `classify`.
#[derive(Clone, Debug)]
pub struct PolicyDetector<D> {
    inner: D,
    policy: DetectionPolicy,
    name: String,
}

impl<D: Detector> PolicyDetector<D> {
    /// Applies `policy` on top of `inner`.
    pub fn new(inner: D, policy: DetectionPolicy) -> PolicyDetector<D> {
        let name = format!("{}+{policy}", inner.name());
        PolicyDetector {
            inner,
            policy,
            name,
        }
    }

    /// The aggregation policy.
    pub fn policy(&self) -> DetectionPolicy {
        self.policy
    }

    /// The wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps the detector.
    pub fn into_inner(self) -> D {
        self.inner
    }
}

impl<D: Detector> Detector for PolicyDetector<D> {
    fn name(&self) -> &str {
        &self.name
    }

    fn score(&mut self, trace: &Trace) -> f64 {
        let k = self.policy.detections();
        let mut draws: Vec<f64> = (0..k).map(|_| self.inner.score(trace)).collect();
        self.policy.order_statistic(&mut draws)
    }

    fn classify(&mut self, trace: &Trace) -> Label {
        let inner = &mut self.inner;
        let threshold = inner.threshold();
        self.policy
            .decide(|| Label::from_bool(inner.score(trace) >= threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stochastic::StochasticHmd;
    use crate::train::{evaluate, train_baseline, HmdTrainConfig};
    use shmd_workload::dataset::{Dataset, DatasetConfig};
    use shmd_workload::features::FeatureSpec;
    use shmd_workload::isa::CATEGORY_COUNT;

    /// A detector that flags every n-th query.
    struct Periodic {
        n: usize,
        count: usize,
    }

    impl Detector for Periodic {
        fn name(&self) -> &str {
            "periodic"
        }
        fn score(&mut self, _trace: &Trace) -> f64 {
            self.count += 1;
            if self.count.is_multiple_of(self.n) {
                1.0
            } else {
                0.0
            }
        }
    }

    /// A detector whose first `positives` draws are positive, the rest
    /// negative.
    struct Burst {
        positives: usize,
        count: usize,
    }

    impl Detector for Burst {
        fn name(&self) -> &str {
            "burst"
        }
        fn score(&mut self, _trace: &Trace) -> f64 {
            self.count += 1;
            if self.count <= self.positives {
                1.0
            } else {
                0.0
            }
        }
    }

    fn dummy_trace() -> Trace {
        Trace::from_windows(vec![[1u32; CATEGORY_COUNT]])
    }

    #[test]
    fn single_is_one_detection() {
        let mut d = PolicyDetector::new(Periodic { n: 3, count: 0 }, DetectionPolicy::Single);
        assert_eq!(d.classify(&dummy_trace()), Label::Benign);
        assert_eq!(d.inner().count, 1);
    }

    #[test]
    fn any_of_catches_intermittent_positives() {
        let mut d = PolicyDetector::new(Periodic { n: 3, count: 0 }, DetectionPolicy::AnyOf(4));
        assert_eq!(d.classify(&dummy_trace()), Label::Malware);
    }

    #[test]
    fn any_of_short_circuits() {
        let mut d = PolicyDetector::new(Periodic { n: 1, count: 0 }, DetectionPolicy::AnyOf(8));
        assert_eq!(d.classify(&dummy_trace()), Label::Malware);
        assert_eq!(d.inner().count, 1, "stops at the first positive");
    }

    #[test]
    fn majority_suppresses_minority_positives() {
        // 1 positive in 3 → benign under majority.
        let mut d =
            PolicyDetector::new(Periodic { n: 3, count: 0 }, DetectionPolicy::MajorityOf(3));
        assert_eq!(d.classify(&dummy_trace()), Label::Benign);
    }

    #[test]
    fn policy_display() {
        assert_eq!(DetectionPolicy::AnyOf(4).to_string(), "any-of-4");
        assert_eq!(DetectionPolicy::MajorityOf(3).to_string(), "majority-of-3");
        assert_eq!(DetectionPolicy::Single.to_string(), "single");
    }

    /// `DetectionPolicy::MajorityOf(k).decide` as it was written before it
    /// shared `majority_settled` with the serving layer: `(label, draws)`.
    fn majority_by_counting(votes: &[bool]) -> (Label, usize) {
        let k = votes.len();
        let needed = k / 2 + 1;
        let mut positives = 0;
        for (done, &positive) in votes.iter().enumerate() {
            if positive {
                positives += 1;
                if positives >= needed {
                    return (Label::Malware, done + 1);
                }
            } else if positives + (k - done - 1) < needed {
                return (Label::Benign, done + 1);
            }
        }
        (Label::Benign, k)
    }

    #[test]
    fn majority_decides_like_counting_on_every_label_sequence() {
        for k in 1..=9 {
            for bits in 0u32..1 << k {
                let votes: Vec<bool> = (0..k).map(|i| bits >> i & 1 == 1).collect();
                let mut draws = 0;
                let label = DetectionPolicy::MajorityOf(k).decide(|| {
                    draws += 1;
                    Label::from_bool(votes[draws - 1])
                });
                assert_eq!(
                    (label, draws),
                    majority_by_counting(&votes),
                    "majority-of-{k}, votes {bits:b}"
                );
            }
        }
    }

    #[test]
    fn zero_k_behaves_as_one() {
        assert_eq!(DetectionPolicy::AnyOf(0).detections(), 1);
        assert_eq!(DetectionPolicy::MajorityOf(0).detections(), 1);
    }

    #[test]
    fn even_k_majority_score_matches_classify() {
        // Regression: with exactly k/2 positives among k draws there is no
        // strict majority, so classify() says benign — and score() must
        // not clear the threshold either. The old upper-median indexing
        // (draws[k/2]) returned a positive draw here.
        let mut d =
            PolicyDetector::new(Periodic { n: 2, count: 0 }, DetectionPolicy::MajorityOf(4));
        let s = d.score(&dummy_trace());
        assert_eq!(s, 0.0, "2-of-4 is not a majority; score must stay low");
        let mut d =
            PolicyDetector::new(Periodic { n: 2, count: 0 }, DetectionPolicy::MajorityOf(4));
        assert_eq!(d.classify(&dummy_trace()), Label::Benign);

        // 3-of-4 is a majority: both views must flip together.
        let mut d = PolicyDetector::new(
            Burst {
                positives: 3,
                count: 0,
            },
            DetectionPolicy::MajorityOf(4),
        );
        let s = d.score(&dummy_trace());
        assert_eq!(s, 1.0, "3-of-4 is a majority; score must surface it");
        let mut d = PolicyDetector::new(
            Burst {
                positives: 3,
                count: 0,
            },
            DetectionPolicy::MajorityOf(4),
        );
        assert_eq!(d.classify(&dummy_trace()), Label::Malware);
    }

    #[test]
    fn majority_short_circuits_once_decided() {
        // All positive: ⌊5/2⌋+1 = 3 draws settle majority-of-5.
        let mut d = PolicyDetector::new(
            Burst {
                positives: usize::MAX,
                count: 0,
            },
            DetectionPolicy::MajorityOf(5),
        );
        assert_eq!(d.classify(&dummy_trace()), Label::Malware);
        assert_eq!(d.inner().count, 3, "stops once the majority is reached");

        // All negative: after 3 misses a majority of 5 is out of reach.
        let mut d = PolicyDetector::new(
            Periodic {
                n: usize::MAX,
                count: 0,
            },
            DetectionPolicy::MajorityOf(5),
        );
        assert_eq!(d.classify(&dummy_trace()), Label::Benign);
        assert_eq!(d.inner().count, 3, "stops once the majority is unreachable");

        // Even k: after 2 misses a 3-of-4 majority is out of reach.
        let mut d = PolicyDetector::new(
            Periodic {
                n: usize::MAX,
                count: 0,
            },
            DetectionPolicy::MajorityOf(4),
        );
        assert_eq!(d.classify(&dummy_trace()), Label::Benign);
        assert_eq!(d.inner().count, 2);
    }

    #[test]
    fn score_is_policy_consistent_for_any_of() {
        // Regression: score() must be the statistic whose thresholding
        // matches classify() — for any-of-k that is the max of k draws.
        let mut d = PolicyDetector::new(Periodic { n: 4, count: 0 }, DetectionPolicy::AnyOf(4));
        let s = d.score(&dummy_trace());
        assert_eq!(s, 1.0, "one positive among 4 draws must surface in score");
        let mut d = PolicyDetector::new(Periodic { n: 4, count: 0 }, DetectionPolicy::AnyOf(4));
        assert_eq!(d.classify(&dummy_trace()), Label::Malware);
    }

    #[test]
    fn any_of_raises_fpr_majority_contains_it() {
        // End to end on a real stochastic detector: any-of-k amplifies the
        // stochastic FPR, majority-of-k keeps it near the single-shot FPR.
        let dataset = Dataset::generate(&DatasetConfig::small(100), 31);
        let split = dataset.three_fold_split(0);
        let baseline = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("trains");
        let make = |seed| StochasticHmd::from_baseline(&baseline, 0.3, seed).expect("valid");

        let mut single = PolicyDetector::new(make(1), DetectionPolicy::Single);
        let mut any4 = PolicyDetector::new(make(1), DetectionPolicy::AnyOf(4));
        let mut maj5 = PolicyDetector::new(make(1), DetectionPolicy::MajorityOf(5));

        let fpr_single = evaluate(&mut single, &dataset, split.testing()).false_positive_rate();
        let fpr_any = evaluate(&mut any4, &dataset, split.testing()).false_positive_rate();
        let fpr_maj = evaluate(&mut maj5, &dataset, split.testing()).false_positive_rate();
        assert!(
            fpr_any >= fpr_single,
            "any-of amplifies FPR: {fpr_any} vs {fpr_single}"
        );
        assert!(
            fpr_maj <= fpr_any,
            "majority contains FPR: {fpr_maj} vs {fpr_any}"
        );
    }
}
