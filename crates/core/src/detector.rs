//! The common detector interface.

use shmd_workload::trace::Trace;
use std::fmt;

/// A detection verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Label {
    /// Classified as a benign program.
    Benign,
    /// Classified as malware.
    Malware,
}

impl Label {
    /// `true` for [`Label::Malware`].
    #[inline]
    pub fn is_malware(self) -> bool {
        matches!(self, Label::Malware)
    }

    /// Builds a label from a boolean (`true` = malware).
    #[inline]
    pub fn from_bool(is_malware: bool) -> Label {
        if is_malware {
            Label::Malware
        } else {
            Label::Benign
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Label::Benign => "benign",
            Label::Malware => "malware",
        })
    }
}

/// A hardware malware detector: scores execution traces.
///
/// `&mut self` because the detectors this crate cares about are
/// *stochastic*: a [`crate::stochastic::StochasticHmd`] advances its fault
/// injector's RNG per query and an [`crate::rhmd::Rhmd`] picks a random
/// base detector per query. Two consecutive calls with the same trace may
/// legitimately disagree — that is the moving-target defense.
pub trait Detector {
    /// A short human-readable name for reports.
    fn name(&self) -> &str;

    /// The malware score in `[0, 1]` for one detection of this trace.
    fn score(&mut self, trace: &Trace) -> f64;

    /// The decision threshold (default `0.5`).
    fn threshold(&self) -> f64 {
        0.5
    }

    /// One detection: scores the trace and thresholds.
    fn classify(&mut self, trace: &Trace) -> Label {
        Label::from_bool(self.score(trace) >= self.threshold())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmd_workload::isa::CATEGORY_COUNT;

    struct ConstDetector(f64);

    impl Detector for ConstDetector {
        fn name(&self) -> &str {
            "const"
        }
        fn score(&mut self, _trace: &Trace) -> f64 {
            self.0
        }
    }

    fn dummy_trace() -> Trace {
        Trace::from_windows(vec![[1u32; CATEGORY_COUNT]])
    }

    #[test]
    fn label_round_trip() {
        assert!(Label::from_bool(true).is_malware());
        assert!(!Label::from_bool(false).is_malware());
        assert_eq!(Label::Malware.to_string(), "malware");
        assert_eq!(Label::Benign.to_string(), "benign");
    }

    #[test]
    fn default_threshold_is_half() {
        let mut hi = ConstDetector(0.7);
        let mut lo = ConstDetector(0.3);
        assert_eq!(hi.classify(&dummy_trace()), Label::Malware);
        assert_eq!(lo.classify(&dummy_trace()), Label::Benign);
    }

    #[test]
    fn boundary_score_is_malware() {
        let mut d = ConstDetector(0.5);
        assert_eq!(d.classify(&dummy_trace()), Label::Malware);
    }
}
