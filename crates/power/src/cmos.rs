//! CMOS power vs supply voltage.
//!
//! Dynamic power scales as `C·V²·f` and leakage super-linearly in `V`
//! (DIBL), so undervolting at constant frequency yields super-linear power
//! savings — the "by-product power saving" of the defense. The model
//! distinguishes the undervolted *core* from the rest of the package
//! (uncore, DRAM I/O), which stays at nominal voltage: Figure 7 reports
//! core power, while the paper's "~15% savings" trade-off statement is a
//! package-level number.

use shmd_volt::voltage::{Volts, NOMINAL_CORE_VOLTAGE};

/// Which power domain a query refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PowerScope {
    /// The undervolted CPU core only (Figure 7's measurements).
    Core,
    /// The whole package; only the core share scales with voltage.
    Package,
}

/// A calibrated CMOS power model of the detection core.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CmosPowerModel {
    /// Core power at nominal voltage, watts.
    core_power_nominal_w: f64,
    /// Fraction of nominal core power that is dynamic (vs leakage).
    dynamic_fraction: f64,
    /// Exponential leakage sensitivity to Vdd, 1/volt.
    leakage_k: f64,
    /// Non-scaling package power (uncore etc.), watts.
    uncore_power_w: f64,
    /// RHMD's power overhead factor over a baseline HMD at equal voltage
    /// (longer inference, model-selection work, cache pressure).
    rhmd_overhead: f64,
    vdd_nominal: Volts,
}

impl CmosPowerModel {
    /// A model calibrated to the paper's i7-5557U at 2.2 GHz.
    pub fn i7_5557u() -> CmosPowerModel {
        CmosPowerModel {
            core_power_nominal_w: 11.0,
            dynamic_fraction: 0.72,
            leakage_k: 4.0,
            uncore_power_w: 9.0,
            rhmd_overhead: 1.12,
            vdd_nominal: NOMINAL_CORE_VOLTAGE,
        }
    }

    /// Core power at a supply voltage, in watts (nominal clock).
    pub fn core_power_w(&self, vdd: Volts) -> f64 {
        self.core_power_at_freq_w(vdd, 1.0)
    }

    /// Core power with the clock scaled to `freq_ratio` of nominal, in
    /// watts. Dynamic power is `C·V²·f`, so only the dynamic component
    /// tracks the frequency ratio; leakage depends on voltage alone.
    /// This is why DVFS (voltage *and* frequency down) draws less power
    /// than undervolting at the same voltage — and why it repays that
    /// gap with interest in latency (see [`crate::dvfs`]).
    pub fn core_power_at_freq_w(&self, vdd: Volts, freq_ratio: f64) -> f64 {
        let r = vdd.as_f64() / self.vdd_nominal.as_f64();
        let dynamic = self.dynamic_fraction * r * r * freq_ratio;
        let leakage = (1.0 - self.dynamic_fraction)
            * r
            * (self.leakage_k * (vdd.as_f64() - self.vdd_nominal.as_f64())).exp();
        self.core_power_nominal_w * (dynamic + leakage)
    }

    /// Power in the requested scope, watts.
    pub fn power_w(&self, vdd: Volts, scope: PowerScope) -> f64 {
        match scope {
            PowerScope::Core => self.core_power_w(vdd),
            PowerScope::Package => self.core_power_w(vdd) + self.uncore_power_w,
        }
    }

    /// Fractional power saving of an undervolted Stochastic-HMD over a
    /// baseline HMD at nominal voltage.
    pub fn savings_over_baseline(&self, vdd: Volts, scope: PowerScope) -> f64 {
        let base = self.power_w(self.vdd_nominal, scope);
        1.0 - self.power_w(vdd, scope) / base
    }

    /// Fractional power saving of an undervolted Stochastic-HMD over an
    /// RHMD (which runs at nominal voltage *and* pays its switching
    /// overhead).
    pub fn savings_over_rhmd(&self, vdd: Volts, scope: PowerScope) -> f64 {
        let rhmd = match scope {
            PowerScope::Core => self.core_power_w(self.vdd_nominal) * self.rhmd_overhead,
            PowerScope::Package => {
                self.core_power_w(self.vdd_nominal) * self.rhmd_overhead + self.uncore_power_w
            }
        };
        1.0 - self.power_w(vdd, scope) / rhmd
    }

    /// The nominal supply voltage the model is calibrated to.
    pub fn vdd_nominal(&self) -> Volts {
        self.vdd_nominal
    }
}

impl Default for CmosPowerModel {
    fn default() -> CmosPowerModel {
        CmosPowerModel::i7_5557u()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use shmd_volt::voltage::Millivolts;

    fn volts(v: f64) -> Volts {
        Volts(v)
    }

    #[test]
    fn nominal_power_is_the_reference() {
        let m = CmosPowerModel::i7_5557u();
        assert!((m.core_power_w(NOMINAL_CORE_VOLTAGE) - 11.0).abs() < 1e-9);
        assert_eq!(
            m.savings_over_baseline(NOMINAL_CORE_VOLTAGE, PowerScope::Core),
            0.0
        );
    }

    #[test]
    fn fig7_deep_undervolt_saves_over_75_percent_vs_rhmd() {
        // Paper Fig. 7: "over 75% power saving compared to RHMD ... under
        // 40% voltage scaling" (1.18 V → 0.68 V).
        let m = CmosPowerModel::i7_5557u();
        let s = m.savings_over_rhmd(volts(0.68), PowerScope::Core);
        assert!(s > 0.75, "savings over RHMD at 0.68 V: {s}");
    }

    #[test]
    fn operating_point_saves_about_15_percent_package() {
        // Paper §IX: "~15% power saving" at the selected (er = 0.1)
        // operating point; the package-level number.
        let m = CmosPowerModel::i7_5557u();
        let s = m.savings_over_baseline(
            NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(-134)),
            PowerScope::Package,
        );
        assert!((0.10..=0.22).contains(&s), "operating-point savings: {s}");
    }

    #[test]
    fn scheduler_selected_operating_points_pin_the_paper_claims() {
        // The budget scheduler derives its offsets from the reference
        // device's calibration curve rather than hardcoded millivolt
        // figures. Pin both paper power claims against what it actually
        // selects: the ~15% package band at the er = 0.1 selection, and
        // Fig. 7's >75% core-scope claim as the limit the deepening
        // direction approaches (the calibrated sweep freezes well before
        // Fig. 7's 40% voltage scaling, so deeper must always mean more
        // core-scope saving on the way there).
        use shmd_volt::calibration::{Calibrator, DeviceProfile};
        let m = CmosPowerModel::i7_5557u();
        let curve = Calibrator::new()
            .with_step(2)
            .calibrate(&DeviceProfile::reference());
        let selected = curve.offset_for_error_rate(0.1).expect("reachable");
        let selected_vdd = NOMINAL_CORE_VOLTAGE.with_offset(selected);
        let s = m.savings_over_baseline(selected_vdd, PowerScope::Package);
        assert!(
            (0.10..=0.22).contains(&s),
            "package savings at the selected offset {selected}: {s}"
        );
        // Deepening toward the freeze guard strictly grows the core-scope
        // saving over RHMD...
        let deepest_vdd = NOMINAL_CORE_VOLTAGE.with_offset(curve.freeze_offset());
        assert!(
            m.savings_over_rhmd(deepest_vdd, PowerScope::Core)
                > m.savings_over_rhmd(selected_vdd, PowerScope::Core)
        );
        // ...and the direction's limit, Fig. 7's 0.68 V, clears 75%.
        assert!(m.savings_over_rhmd(volts(0.68), PowerScope::Core) > 0.75);
    }

    #[test]
    fn rhmd_draws_more_than_baseline() {
        let m = CmosPowerModel::i7_5557u();
        let at_nominal = m.savings_over_rhmd(NOMINAL_CORE_VOLTAGE, PowerScope::Core);
        assert!(
            at_nominal > 0.05,
            "even at nominal voltage a single-model HMD beats RHMD: {at_nominal}"
        );
    }

    #[test]
    fn package_savings_are_diluted_by_uncore() {
        let m = CmosPowerModel::i7_5557u();
        let v = volts(0.88);
        assert!(
            m.savings_over_baseline(v, PowerScope::Package)
                < m.savings_over_baseline(v, PowerScope::Core)
        );
    }

    proptest! {
        #[test]
        fn power_is_monotone_in_voltage(v in 0.5f64..1.18) {
            let m = CmosPowerModel::i7_5557u();
            prop_assert!(m.core_power_w(volts(v)) < m.core_power_w(volts(v + 0.01)));
        }

        #[test]
        fn savings_grow_with_undervolt(v in 0.5f64..1.17) {
            let m = CmosPowerModel::i7_5557u();
            for scope in [PowerScope::Core, PowerScope::Package] {
                prop_assert!(
                    m.savings_over_baseline(volts(v), scope)
                        > m.savings_over_baseline(volts(v + 0.01), scope)
                );
            }
        }

        #[test]
        fn savings_over_rhmd_exceed_savings_over_baseline(v in 0.5f64..=1.18) {
            // RHMD pays its switching overhead in *both* scopes: the core
            // overhead factor dominates Core, and it survives the uncore
            // dilution in Package.
            let m = CmosPowerModel::i7_5557u();
            for scope in [PowerScope::Core, PowerScope::Package] {
                prop_assert!(
                    m.savings_over_rhmd(volts(v), scope)
                        > m.savings_over_baseline(volts(v), scope)
                );
            }
        }

        #[test]
        fn frequency_scaling_only_touches_the_dynamic_share(v in 0.6f64..=1.18, f in 0.1f64..=1.0) {
            let m = CmosPowerModel::i7_5557u();
            let full = m.core_power_w(volts(v));
            let scaled = m.core_power_at_freq_w(volts(v), f);
            // Scaled power sits strictly between leakage-only (f → 0) and
            // full-clock power, and the removed share is linear in f.
            prop_assert!(scaled < full);
            prop_assert!(scaled > m.core_power_at_freq_w(volts(v), 0.0));
            let removed_half = full - m.core_power_at_freq_w(volts(v), 0.5);
            let removed = full - scaled;
            prop_assert!((removed - 2.0 * removed_half * (1.0 - f)).abs() < 1e-9);
        }
    }
}
