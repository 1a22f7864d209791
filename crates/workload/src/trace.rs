//! Execution traces: per-window instruction-category counts.

use crate::isa::CATEGORY_COUNT;

/// Sampling interval structure of a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Number of detection windows per trace.
    pub windows: usize,
    /// Instructions executed per window.
    pub insns_per_window: u32,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            windows: 16,
            insns_per_window: 10_000,
        }
    }
}

/// An instruction-category count trace: one count vector per detection
/// window — the raw material every feature extractor consumes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Trace {
    windows: Vec<[u32; CATEGORY_COUNT]>,
}

impl Trace {
    /// Wraps raw window counts.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty.
    pub fn from_windows(windows: Vec<[u32; CATEGORY_COUNT]>) -> Trace {
        assert!(!windows.is_empty(), "a trace needs at least one window");
        Trace { windows }
    }

    /// The per-window category counts.
    #[inline]
    pub fn windows(&self) -> &[[u32; CATEGORY_COUNT]] {
        &self.windows
    }

    /// Number of windows.
    #[inline]
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Always `false` (construction rejects empty traces).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Total category counts over the whole trace.
    pub fn total_counts(&self) -> [u64; CATEGORY_COUNT] {
        let mut total = [0u64; CATEGORY_COUNT];
        for w in &self.windows {
            for (t, &c) in total.iter_mut().zip(w) {
                *t += u64::from(c);
            }
        }
        total
    }

    /// Total instructions in the trace.
    pub fn total_insns(&self) -> u64 {
        self.total_counts().iter().sum()
    }

    /// Frequencies of one window (counts normalised to sum 1).
    pub fn window_frequencies(window: &[u32; CATEGORY_COUNT]) -> [f64; CATEGORY_COUNT] {
        let total: u64 = window.iter().map(|&c| u64::from(c)).sum();
        let mut out = [0.0; CATEGORY_COUNT];
        if total > 0 {
            for (o, &c) in out.iter_mut().zip(window) {
                *o = c as f64 / total as f64;
            }
        }
        out
    }

    /// Returns a new trace with extra instructions injected, spread evenly
    /// across windows — how evasive malware pads its execution: the payload
    /// (the original counts) is preserved, only *additional* instructions
    /// appear.
    #[must_use]
    pub fn with_injected(&self, extra: &[u32; CATEGORY_COUNT]) -> Trace {
        let n = self.windows.len() as u32;
        let windows = self
            .windows
            .iter()
            .enumerate()
            .map(|(w, counts)| {
                let mut out = *counts;
                for (c, (&e, slot)) in extra.iter().zip(out.iter_mut()).enumerate() {
                    let _ = c;
                    let base = e / n;
                    let remainder = e % n;
                    let share = base + u32::from((w as u32) < remainder);
                    *slot = slot.saturating_add(share);
                }
                out
            })
            .collect();
        Trace { windows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_trace() -> Trace {
        let mut w0 = [0u32; CATEGORY_COUNT];
        let mut w1 = [0u32; CATEGORY_COUNT];
        w0[0] = 10;
        w0[1] = 30;
        w1[0] = 20;
        w1[2] = 20;
        Trace::from_windows(vec![w0, w1])
    }

    #[test]
    fn totals() {
        let t = sample_trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_insns(), 80);
        let totals = t.total_counts();
        assert_eq!(totals[0], 30);
        assert_eq!(totals[1], 30);
        assert_eq!(totals[2], 20);
    }

    #[test]
    fn window_frequencies_sum_to_one() {
        let t = sample_trace();
        for w in t.windows() {
            let f = Trace::window_frequencies(w);
            assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_window_frequencies_are_zero() {
        let f = Trace::window_frequencies(&[0u32; CATEGORY_COUNT]);
        assert_eq!(f.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn injection_preserves_payload() {
        let t = sample_trace();
        let mut extra = [0u32; CATEGORY_COUNT];
        extra[4] = 100;
        let injected = t.with_injected(&extra);
        // Original counts are still present — the payload is intact.
        for (orig, new) in t.windows().iter().zip(injected.windows()) {
            for (o, n) in orig.iter().zip(new) {
                assert!(n >= o);
            }
        }
        assert_eq!(injected.total_counts()[4], 100);
        assert_eq!(injected.total_insns(), t.total_insns() + 100);
    }

    #[test]
    fn injection_spreads_remainder() {
        let t = sample_trace();
        let mut extra = [0u32; CATEGORY_COUNT];
        extra[0] = 3; // 3 across 2 windows: 2 then 1
        let injected = t.with_injected(&extra);
        assert_eq!(injected.windows()[0][0], 10 + 2);
        assert_eq!(injected.windows()[1][0], 20 + 1);
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn empty_trace_panics() {
        let _ = Trace::from_windows(vec![]);
    }

    proptest! {
        #[test]
        fn injection_total_is_exact(extra_count in 0u32..10_000) {
            let t = sample_trace();
            let mut extra = [0u32; CATEGORY_COUNT];
            extra[7] = extra_count;
            let injected = t.with_injected(&extra);
            prop_assert_eq!(injected.total_counts()[7], u64::from(extra_count));
        }
    }
}
