//! Feature extraction: the views of a trace that detectors train on.
//!
//! RHMD (the paper's comparison system) derives its diversity from training
//! base detectors on *different feature vectors* and *different detection
//! periods*. This module provides three feature kinds and a detection-period
//! parameter; the cross product gives the base-detector space for the
//! RHMD-2F/3F/2F2P/3F2P constructions of §VII-C.

use crate::isa::CATEGORY_COUNT;
use crate::trace::Trace;
use std::fmt;

/// Width of every feature vector (one slot per instruction category).
pub const FEATURE_DIM: usize = CATEGORY_COUNT;

/// The family of statistic a feature vector captures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    /// Mean per-category instruction frequency (the paper's primary
    /// feature vector).
    #[default]
    Frequency,
    /// Per-category temporal burstiness: the coefficient of variation of
    /// the category frequency across windows.
    Burstiness,
    /// Per-category mean absolute window-to-window frequency change.
    Transition,
}

impl FeatureKind {
    /// All feature kinds.
    pub const ALL: [FeatureKind; 3] = [
        FeatureKind::Frequency,
        FeatureKind::Burstiness,
        FeatureKind::Transition,
    ];
}

impl fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FeatureKind::Frequency => "frequency",
            FeatureKind::Burstiness => "burstiness",
            FeatureKind::Transition => "transition",
        };
        f.write_str(name)
    }
}

/// How many windows apart consecutive feature samples are taken
/// (RHMD's "detection period" axis of diversity).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DetectionPeriod(usize);

impl DetectionPeriod {
    /// Every window (the default).
    pub const EVERY_WINDOW: DetectionPeriod = DetectionPeriod(1);
    /// Every other window.
    pub const EVERY_OTHER: DetectionPeriod = DetectionPeriod(2);

    /// Creates a period.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: usize) -> DetectionPeriod {
        assert!(period > 0, "detection period must be positive");
        DetectionPeriod(period)
    }

    /// The stride in windows.
    #[inline]
    pub fn get(self) -> usize {
        self.0
    }
}

impl Default for DetectionPeriod {
    fn default() -> DetectionPeriod {
        DetectionPeriod::EVERY_WINDOW
    }
}

/// A complete feature-vector specification: kind × detection period.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct FeatureSpec {
    /// The statistic family.
    pub kind: FeatureKind,
    /// The window stride.
    pub period: DetectionPeriod,
}

impl FeatureSpec {
    /// The paper's primary feature vector: frequencies over every window.
    pub fn frequency() -> FeatureSpec {
        FeatureSpec::default()
    }

    /// Builds a spec.
    pub fn new(kind: FeatureKind, period: DetectionPeriod) -> FeatureSpec {
        FeatureSpec { kind, period }
    }

    /// All kind × {1, 2} period combinations, the RHMD base-detector space.
    pub fn all_combinations() -> Vec<FeatureSpec> {
        let mut out = Vec::new();
        for &kind in &FeatureKind::ALL {
            for period in [DetectionPeriod::EVERY_WINDOW, DetectionPeriod::EVERY_OTHER] {
                out.push(FeatureSpec::new(kind, period));
            }
        }
        out
    }

    /// Extracts the feature vector from a trace.
    pub fn extract(&self, trace: &Trace) -> Vec<f32> {
        let mut out = vec![0.0; FEATURE_DIM];
        self.extract_into(trace, &mut out);
        out
    }

    /// Extracts the feature vector from a trace into `out`, without
    /// allocating: [`FeatureSpec::extract`] for a caller that owns the row.
    ///
    /// One pass over the sampled windows computes each window's
    /// frequencies and adds them into running sums in window order.
    /// Burstiness takes a second pass for the deviations from the mean,
    /// recomputing the frequencies.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not [`FEATURE_DIM`].
    pub fn extract_into(&self, trace: &Trace, out: &mut [f32]) {
        assert_eq!(out.len(), FEATURE_DIM, "feature row width");
        let windows = || {
            trace
                .windows()
                .iter()
                .step_by(self.period.get())
                .map(Trace::window_frequencies)
        };
        let mut sum = [0.0f64; CATEGORY_COUNT];
        let mut count = 0usize;
        let mut prev: Option<[f64; CATEGORY_COUNT]> = None;
        for f in windows() {
            count += 1;
            match self.kind {
                FeatureKind::Transition => {
                    if let Some(p) = prev {
                        for (d, (a, b)) in sum.iter_mut().zip(p.iter().zip(&f)) {
                            *d += (a - b).abs();
                        }
                    }
                    prev = Some(f);
                }
                _ => {
                    for (m, v) in sum.iter_mut().zip(&f) {
                        *m += v;
                    }
                }
            }
        }
        let n = count.max(1) as f64;
        match self.kind {
            FeatureKind::Frequency => {
                for (o, &m) in out.iter_mut().zip(&sum) {
                    *o = (m / n) as f32;
                }
            }
            FeatureKind::Burstiness => {
                let mut mean = sum;
                for m in &mut mean {
                    *m /= n;
                }
                let mut var = [0.0f64; CATEGORY_COUNT];
                for f in windows() {
                    for ((v, x), m) in var.iter_mut().zip(&f).zip(&mean) {
                        *v += (x - m) * (x - m);
                    }
                }
                for ((o, &v), &m) in out.iter_mut().zip(&var).zip(&mean) {
                    *o = if m <= 0.0 {
                        0.0
                    } else {
                        // Coefficient of variation, squashed into [0, 1).
                        let cv = (v / n).sqrt() / m;
                        (cv / (1.0 + cv)) as f32
                    };
                }
            }
            FeatureKind::Transition => {
                if count < 2 {
                    out.fill(0.0);
                    return;
                }
                let steps = (count - 1) as f64;
                // Scale ×10 so magnitudes are comparable to frequencies.
                for (o, &d) in out.iter_mut().zip(&sum) {
                    *o = ((d / steps) * 10.0).min(1.0) as f32;
                }
            }
        }
    }
}

impl fmt::Display for FeatureSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/p{}", self.kind, self.period.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{MalwareFamily, ProgramClass};
    use crate::program::Program;
    use crate::trace::TraceConfig;

    fn sample_trace() -> Trace {
        Program::generate(1, ProgramClass::Malware(MalwareFamily::Backdoor), 3)
            .trace(&TraceConfig::default())
    }

    #[test]
    fn all_kinds_output_feature_dim() {
        let t = sample_trace();
        for spec in FeatureSpec::all_combinations() {
            assert_eq!(spec.extract(&t).len(), FEATURE_DIM, "{spec}");
        }
    }

    #[test]
    fn frequency_features_sum_to_one() {
        let t = sample_trace();
        let f = FeatureSpec::frequency().extract(&t);
        let total: f32 = f.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "sum {total}");
    }

    #[test]
    fn features_are_bounded() {
        let t = sample_trace();
        for spec in FeatureSpec::all_combinations() {
            for v in spec.extract(&t) {
                assert!((0.0..=1.0).contains(&v), "{spec}: {v}");
            }
        }
    }

    #[test]
    fn kinds_produce_different_views() {
        let t = sample_trace();
        let freq = FeatureSpec::new(FeatureKind::Frequency, DetectionPeriod::EVERY_WINDOW);
        let burst = FeatureSpec::new(FeatureKind::Burstiness, DetectionPeriod::EVERY_WINDOW);
        let trans = FeatureSpec::new(FeatureKind::Transition, DetectionPeriod::EVERY_WINDOW);
        assert_ne!(freq.extract(&t), burst.extract(&t));
        assert_ne!(freq.extract(&t), trans.extract(&t));
        assert_ne!(burst.extract(&t), trans.extract(&t));
    }

    #[test]
    fn periods_produce_different_views() {
        let t = sample_trace();
        let p1 = FeatureSpec::new(FeatureKind::Frequency, DetectionPeriod::EVERY_WINDOW);
        let p2 = FeatureSpec::new(FeatureKind::Frequency, DetectionPeriod::EVERY_OTHER);
        assert_ne!(p1.extract(&t), p2.extract(&t));
    }

    #[test]
    fn all_combinations_is_the_full_grid() {
        assert_eq!(FeatureSpec::all_combinations().len(), 6);
    }

    #[test]
    fn transition_on_single_window_is_zero() {
        let t = Trace::from_windows(vec![[5u32; CATEGORY_COUNT]]);
        let f =
            FeatureSpec::new(FeatureKind::Transition, DetectionPeriod::EVERY_WINDOW).extract(&t);
        assert!(f.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "detection period must be positive")]
    fn zero_period_panics() {
        let _ = DetectionPeriod::new(0);
    }

    #[test]
    fn display_forms() {
        let spec = FeatureSpec::new(FeatureKind::Burstiness, DetectionPeriod::EVERY_OTHER);
        assert_eq!(spec.to_string(), "burstiness/p2");
    }

    #[test]
    fn injection_moves_frequency_features() {
        // Evasion relies on injected instructions moving the feature
        // vector; verify the coupling end to end.
        let t = sample_trace();
        let before = FeatureSpec::frequency().extract(&t);
        let mut extra = [0u32; CATEGORY_COUNT];
        extra[10] = (t.total_insns() / 4) as u32; // +25% SIMD
        let after = FeatureSpec::frequency().extract(&t.with_injected(&extra));
        assert!(after[10] > before[10] + 0.05);
        assert!(after[5] < before[5], "other frequencies renormalise down");
    }
}
