//! Undervolting vs DVFS: why the defense costs no performance.
//!
//! Conventional power management (DVFS) scales voltage *and* frequency
//! together: power falls roughly with `V²·f` but every computation slows by
//! `1/f`. The paper's undervolting keeps the clock at 2.2 GHz and pushes
//! the voltage alone into the timing-slack margin — "scaling the voltage
//! has no effect on the cycle time since we are only scaling the CPU
//! voltage but not frequency". This module quantifies the comparison the
//! paper's "security and energy efficiency improved at the same time,
//! without performance loss" conclusion rests on.

use crate::cmos::CmosPowerModel;
use crate::latency::LatencyModel;
use shmd_volt::voltage::{Volts, NOMINAL_CORE_VOLTAGE};

/// An operating point: supply voltage and clock frequency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OperatingPoint {
    /// Core supply voltage.
    pub vdd: Volts,
    /// Clock frequency in GHz.
    pub freq_ghz: f64,
}

/// What one strategy delivers for a detection workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StrategyOutcome {
    /// Core power, watts.
    pub power_w: f64,
    /// Detection latency, microseconds.
    pub latency_us: f64,
    /// Energy per detection, microjoules.
    pub energy_uj: f64,
}

/// Compares undervolting against DVFS for the detection core.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DvfsComparison {
    power: CmosPowerModel,
    latency: LatencyModel,
    nominal_freq_ghz: f64,
}

impl DvfsComparison {
    /// The paper's platform: 2.2 GHz nominal.
    pub fn i7_5557u() -> DvfsComparison {
        DvfsComparison {
            power: CmosPowerModel::i7_5557u(),
            latency: LatencyModel::i7_5557u(),
            nominal_freq_ghz: 2.2,
        }
    }

    /// Outcome of running `macs` MACs per detection at an operating point.
    ///
    /// Frequency scaling stretches latency by `f_nom / f` and shrinks the
    /// *dynamic* power share by `f / f_nom` (dynamic power is `C·V²·f`;
    /// leakage depends on voltage alone); voltage scaling alone leaves the
    /// clock — and therefore latency — untouched.
    pub fn outcome(&self, point: OperatingPoint, macs: usize) -> StrategyOutcome {
        let power_w = self
            .power
            .core_power_at_freq_w(point.vdd, point.freq_ghz / self.nominal_freq_ghz);
        let latency_us = self.latency.hmd_us(macs) * self.nominal_freq_ghz / point.freq_ghz;
        StrategyOutcome {
            power_w,
            latency_us,
            energy_uj: power_w * latency_us,
        }
    }

    /// The undervolting strategy: voltage down, frequency fixed.
    pub fn undervolting(&self, vdd: Volts, macs: usize) -> StrategyOutcome {
        self.outcome(
            OperatingPoint {
                vdd,
                freq_ghz: self.nominal_freq_ghz,
            },
            macs,
        )
    }

    /// A DVFS point scaling frequency proportionally to voltage (the
    /// classic linear V-f curve).
    pub fn dvfs(&self, vdd: Volts, macs: usize) -> StrategyOutcome {
        let ratio = vdd.as_f64() / NOMINAL_CORE_VOLTAGE.as_f64();
        self.outcome(
            OperatingPoint {
                vdd,
                freq_ghz: self.nominal_freq_ghz * ratio,
            },
            macs,
        )
    }
}

impl Default for DvfsComparison {
    fn default() -> DvfsComparison {
        DvfsComparison::i7_5557u()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmd_volt::voltage::Millivolts;

    const MACS: usize = 18_176; // the paper's 71 KB detector

    fn cmp() -> DvfsComparison {
        DvfsComparison::i7_5557u()
    }

    fn operating_vdd() -> Volts {
        NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(-134))
    }

    #[test]
    fn undervolting_keeps_latency_constant() {
        let c = cmp();
        let nominal = c.undervolting(NOMINAL_CORE_VOLTAGE, MACS);
        let undervolted = c.undervolting(operating_vdd(), MACS);
        assert_eq!(nominal.latency_us, undervolted.latency_us);
        assert!(undervolted.power_w < nominal.power_w);
    }

    #[test]
    fn dvfs_saves_power_but_costs_latency() {
        let c = cmp();
        let nominal = c.undervolting(NOMINAL_CORE_VOLTAGE, MACS);
        let dvfs = c.dvfs(operating_vdd(), MACS);
        assert!(dvfs.power_w < nominal.power_w);
        assert!(
            dvfs.latency_us > nominal.latency_us * 1.05,
            "DVFS must slow detection: {} vs {}",
            dvfs.latency_us,
            nominal.latency_us
        );
    }

    #[test]
    fn at_equal_voltage_undervolting_dominates_dvfs_on_energy() {
        let c = cmp();
        let v = operating_vdd();
        let uv = c.undervolting(v, MACS);
        let dvfs = c.dvfs(v, MACS);
        assert!(uv.latency_us < dvfs.latency_us);
        // Same voltage ⇒ DVFS draws *less* power (its dynamic C·V²·f share
        // scales with the slower clock), but it repays the gap with
        // interest: leakage integrates over the stretched detection, so
        // undervolting still wins energy per detection outright — and the
        // detection finishes sooner.
        assert!(dvfs.power_w < uv.power_w);
        assert!(uv.energy_uj < dvfs.energy_uj);
    }

    #[test]
    fn dvfs_at_half_frequency_draws_strictly_less_power_than_undervolting() {
        // Regression for the frequency-blind power model: `outcome` used to
        // charge full nominal-clock dynamic power to every operating point,
        // making DVFS and undervolting indistinguishable at equal voltage.
        let c = cmp();
        let v = operating_vdd();
        let uv = c.undervolting(v, MACS);
        let half = c.outcome(
            OperatingPoint {
                vdd: v,
                freq_ghz: c.nominal_freq_ghz / 2.0,
            },
            MACS,
        );
        assert!(
            half.power_w < uv.power_w,
            "half-clock DVFS power {} must undercut undervolting power {}",
            half.power_w,
            uv.power_w
        );
        // And the latency stretch is exactly the clock ratio.
        assert!((half.latency_us - 2.0 * uv.latency_us).abs() < 1e-9);
    }

    #[test]
    fn energy_is_power_times_latency() {
        let c = cmp();
        let o = c.undervolting(operating_vdd(), MACS);
        assert!((o.energy_uj - o.power_w * o.latency_us).abs() < 1e-9);
    }
}
