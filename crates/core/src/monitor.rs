//! Continuous monitoring: per-window detection and time-to-detection.
//!
//! Deployed HMDs are "always on": they classify a program repeatedly as it
//! executes, one decision per detection window, and flag it at the first
//! positive. This module simulates that stream over a trace's windows —
//! the detector sees only the windows executed *so far* — and measures the
//! metric a responder cares about: **time to detection**, in windows of
//! executed payload before the alarm.
//!
//! Against evasive malware this is where a Stochastic-HMD's moving target
//! pays off most visibly: a deterministic detector that misses the padded
//! sample misses it forever, while every window gives the stochastic
//! detector a fresh boundary draw.

use crate::detector::Detector;
use shmd_workload::trace::Trace;

/// Outcome of monitoring one program's execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonitorOutcome {
    /// Flagged after this many windows had executed (1-based).
    DetectedAt(usize),
    /// The program ran to completion unflagged.
    Completed,
}

impl MonitorOutcome {
    /// `true` if the program was flagged at any point.
    pub fn detected(self) -> bool {
        matches!(self, MonitorOutcome::DetectedAt(_))
    }
}

/// Result of a monitoring session over many programs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MonitorReport {
    /// Programs flagged, with their detection window.
    pub detected: Vec<(usize, usize)>,
    /// Programs that completed unflagged (their indices).
    pub missed: Vec<usize>,
}

impl MonitorReport {
    /// Fraction of monitored programs flagged before completion.
    pub fn detection_rate(&self) -> f64 {
        let total = self.detected.len() + self.missed.len();
        if total == 0 {
            return 0.0;
        }
        self.detected.len() as f64 / total as f64
    }

    /// Mean windows of execution before the alarm (detected programs
    /// only); `None` when nothing was detected.
    pub fn mean_time_to_detection(&self) -> Option<f64> {
        if self.detected.is_empty() {
            return None;
        }
        Some(self.detected.iter().map(|&(_, w)| w as f64).sum::<f64>() / self.detected.len() as f64)
    }
}

/// Monitors one trace window by window: after each executed window the
/// detector classifies the execution so far, and the first positive stops
/// the program.
///
/// `warmup` windows execute before the first detection (a detector needs a
/// minimal observation to extract features from).
pub fn monitor_trace(detector: &mut dyn Detector, trace: &Trace, warmup: usize) -> MonitorOutcome {
    let windows = trace.windows();
    let start = warmup.clamp(1, windows.len());
    for executed in start..=windows.len() {
        let so_far = Trace::from_windows(windows[..executed].to_vec());
        if detector.classify(&so_far).is_malware() {
            return MonitorOutcome::DetectedAt(executed);
        }
    }
    MonitorOutcome::Completed
}

/// Monitors a set of traces and aggregates the report.
pub fn monitor_all(
    detector: &mut dyn Detector,
    traces: &[(usize, &Trace)],
    warmup: usize,
) -> MonitorReport {
    let mut report = MonitorReport::default();
    for &(idx, trace) in traces {
        match monitor_trace(detector, trace, warmup) {
            MonitorOutcome::DetectedAt(w) => report.detected.push((idx, w)),
            MonitorOutcome::Completed => report.missed.push(idx),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stochastic::StochasticHmd;
    use crate::train::{train_baseline, HmdTrainConfig};
    use shmd_workload::dataset::{Dataset, DatasetConfig};
    use shmd_workload::features::FeatureSpec;
    use shmd_workload::isa::CATEGORY_COUNT;

    struct Always(bool);
    impl Detector for Always {
        fn name(&self) -> &str {
            "always"
        }
        fn score(&mut self, _trace: &Trace) -> f64 {
            if self.0 {
                1.0
            } else {
                0.0
            }
        }
    }

    fn trace(windows: usize) -> Trace {
        Trace::from_windows(vec![[10u32; CATEGORY_COUNT]; windows])
    }

    #[test]
    fn always_positive_detects_at_warmup() {
        let outcome = monitor_trace(&mut Always(true), &trace(8), 3);
        assert_eq!(outcome, MonitorOutcome::DetectedAt(3));
        assert!(outcome.detected());
    }

    #[test]
    fn always_negative_completes() {
        let outcome = monitor_trace(&mut Always(false), &trace(8), 1);
        assert_eq!(outcome, MonitorOutcome::Completed);
        assert!(!outcome.detected());
    }

    #[test]
    fn warmup_is_clamped_to_trace_length() {
        let outcome = monitor_trace(&mut Always(true), &trace(4), 100);
        assert_eq!(outcome, MonitorOutcome::DetectedAt(4));
    }

    #[test]
    fn report_aggregates() {
        let t = trace(6);
        let traces = vec![(0usize, &t), (1, &t)];
        let report = monitor_all(&mut Always(true), &traces, 2);
        assert_eq!(report.detection_rate(), 1.0);
        assert_eq!(report.mean_time_to_detection(), Some(2.0));

        let report = monitor_all(&mut Always(false), &traces, 2);
        assert_eq!(report.detection_rate(), 0.0);
        assert_eq!(report.mean_time_to_detection(), None);
    }

    #[test]
    fn real_detector_catches_malware_early() {
        let dataset = Dataset::generate(&DatasetConfig::small(100), 17);
        let split = dataset.three_fold_split(0);
        let baseline = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("trains");
        let mut protected = StochasticHmd::from_baseline(&baseline, 0.1, 5).expect("valid");
        let malware: Vec<(usize, &Trace)> = dataset
            .malware_indices(split.testing())
            .map(|i| (i, dataset.trace(i)))
            .collect();
        let report = monitor_all(&mut protected, &malware, 4);
        assert!(
            report.detection_rate() > 0.85,
            "rate {}",
            report.detection_rate()
        );
        let ttd = report.mean_time_to_detection().expect("something detected");
        assert!(
            ttd < 10.0,
            "malware should be caught well before its 16 windows complete: {ttd}"
        );
    }

    #[test]
    fn stochastic_monitoring_beats_single_shot_on_borderline_samples() {
        // A stochastic detector gets one boundary draw per window; over a
        // whole execution it catches samples a single detection misses.
        let dataset = Dataset::generate(&DatasetConfig::small(100), 18);
        let split = dataset.three_fold_split(0);
        let baseline = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("trains");
        let mut protected = StochasticHmd::from_baseline(&baseline, 0.3, 7).expect("valid");
        let malware: Vec<(usize, &Trace)> = dataset
            .malware_indices(split.testing())
            .map(|i| (i, dataset.trace(i)))
            .collect();
        // Single-shot detection rate.
        let single = malware
            .iter()
            .filter(|&&(_, t)| protected.classify(t).is_malware())
            .count() as f64
            / malware.len() as f64;
        let monitored = monitor_all(&mut protected, &malware, 4).detection_rate();
        assert!(
            monitored >= single - 0.02,
            "monitoring must not detect less than one shot: {monitored} vs {single}"
        );
    }
}
