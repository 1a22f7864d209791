//! Inference-time model.
//!
//! §VIII "Inference time": over 100 k detections the paper measures 7 µs
//! for the Stochastic-HMD, 7.7 µs for RHMD-2F, and 7.8 µs for RHMD-2F2P.
//! RHMD pays for randomly selecting a base model (and the resulting L1
//! evictions); undervolting costs nothing because the clock frequency is
//! unchanged.

use shmd_volt::voltage::Volts;

/// Latency model of one detection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Time per multiply–accumulate, nanoseconds.
    mac_time_ns: f64,
    /// Fixed per-inference overhead (feature read-out, activation LUTs).
    fixed_overhead_ns: f64,
    /// RHMD's model-selection cost (RNG + indirect dispatch).
    rhmd_select_ns: f64,
    /// Extra L1 pressure per stored base detector beyond the first.
    rhmd_cache_ns_per_base: f64,
}

impl LatencyModel {
    /// Calibrated to the paper's measurements on the i7-5557U with its
    /// 71 KB detector (≈17.75 k weights).
    pub fn i7_5557u() -> LatencyModel {
        LatencyModel {
            mac_time_ns: 0.35,
            fixed_overhead_ns: 787.0,
            rhmd_select_ns: 450.0,
            rhmd_cache_ns_per_base: 87.0,
        }
    }

    /// Detection latency of a single-model HMD (baseline or stochastic),
    /// in microseconds.
    pub fn hmd_us(&self, macs: usize) -> f64 {
        (self.fixed_overhead_ns + self.mac_time_ns * macs as f64) / 1000.0
    }

    /// Detection latency of a Stochastic-HMD at any undervolt level: equal
    /// to the baseline, because voltage scaling leaves the cycle time
    /// untouched (the paper: "scaling the voltage has no effect on the
    /// inference time").
    pub fn stochastic_hmd_us(&self, macs: usize, _vdd: Volts) -> f64 {
        self.hmd_us(macs)
    }

    /// Detection latency of an RHMD with `bases` stored base detectors.
    ///
    /// # Panics
    ///
    /// Panics if `bases == 0`.
    pub fn rhmd_us(&self, macs: usize, bases: usize) -> f64 {
        assert!(bases > 0, "an RHMD needs at least one base detector");
        self.hmd_us(macs)
            + (self.rhmd_select_ns + self.rhmd_cache_ns_per_base * bases as f64) / 1000.0
    }

    /// MAC count of the paper's 71 KB detector (f32 weights).
    pub fn paper_detector_macs() -> usize {
        71 * 1024 / 4
    }
}

impl Default for LatencyModel {
    fn default() -> LatencyModel {
        LatencyModel::i7_5557u()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmd_volt::voltage::{Millivolts, NOMINAL_CORE_VOLTAGE};

    #[test]
    fn matches_paper_inference_times() {
        let m = LatencyModel::i7_5557u();
        let macs = LatencyModel::paper_detector_macs();
        let hmd = m.hmd_us(macs);
        let rhmd_2f = m.rhmd_us(macs, 2);
        let rhmd_2f2p = m.rhmd_us(macs, 4);
        assert!(
            (hmd - 7.0).abs() < 0.2,
            "Stochastic-HMD: {hmd} µs (paper 7)"
        );
        assert!(
            (rhmd_2f - 7.7).abs() < 0.2,
            "RHMD-2F: {rhmd_2f} µs (paper 7.7)"
        );
        assert!(
            (rhmd_2f2p - 7.8).abs() < 0.2,
            "RHMD-2F2P: {rhmd_2f2p} µs (paper 7.8)"
        );
    }

    #[test]
    fn rhmd_overhead_is_at_least_10_percent() {
        // Paper: "an average of at least 10% performance overhead of the
        // simplest RHMD (RHMD-2F) over Stochastic-HMD".
        let m = LatencyModel::i7_5557u();
        let macs = LatencyModel::paper_detector_macs();
        assert!(m.rhmd_us(macs, 2) / m.hmd_us(macs) >= 1.08);
    }

    #[test]
    fn undervolting_does_not_slow_inference() {
        let m = LatencyModel::i7_5557u();
        let macs = 1000;
        let nominal = m.stochastic_hmd_us(macs, NOMINAL_CORE_VOLTAGE);
        let deep = m.stochastic_hmd_us(
            macs,
            NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(-140)),
        );
        assert_eq!(nominal, deep);
    }

    #[test]
    fn more_bases_cost_more() {
        let m = LatencyModel::i7_5557u();
        assert!(m.rhmd_us(1000, 6) > m.rhmd_us(1000, 2));
    }

    #[test]
    #[should_panic(expected = "at least one base")]
    fn zero_bases_panics() {
        let _ = LatencyModel::i7_5557u().rhmd_us(100, 0);
    }
}
