//! Alpha-power-law gate-delay model.
//!
//! CMOS gate delay grows super-linearly as the supply voltage approaches the
//! transistor threshold voltage. The standard alpha-power model is
//!
//! ```text
//! t(V) ∝ V / (V − Vth)^α
//! ```
//!
//! with `α ≈ 1.3` for modern short-channel devices. Undervolting stretches
//! every combinational path by the same relative factor; paths whose
//! stretched arrival time exceeds the (unchanged) clock period suffer timing
//! violations — the stochastic faults the paper exploits.
//!
//! Temperature enters through the threshold voltage: `Vth` drops by roughly
//! 1–2 mV/°C, partially compensated by mobility degradation (the "mutual
//! compensation" of Filanovsky & Allam cited by the paper). The net modelled
//! effect is a mild speed-up of the critical path when hot, which shifts the
//! first-fault offset — the reason the paper's §IX calls for
//! temperature-aware calibration.

use crate::voltage::{Volts, NOMINAL_CORE_VOLTAGE};

/// Default threshold voltage for the modelled Broadwell-class core.
pub const DEFAULT_VTH: Volts = Volts(0.35);

/// Default velocity-saturation index α.
pub const DEFAULT_ALPHA: f64 = 1.3;

/// Default die temperature, matching the paper's Fig. 1 caption (49 °C).
pub const DEFAULT_TEMP_C: f64 = 49.0;

/// Net threshold-voltage temperature coefficient after mobility
/// compensation, in volts per °C (negative: hotter ⇒ lower Vth).
pub const DEFAULT_VTH_TEMP_COEFF: f64 = -0.0004;

/// Reference temperature at which [`DEFAULT_VTH`] is specified.
pub const REFERENCE_TEMP_C: f64 = 25.0;

/// Gate-delay model parameterised by supply voltage and temperature.
///
/// # Example
///
/// ```
/// use shmd_volt::delay::DelayModel;
/// use shmd_volt::voltage::{Millivolts, NOMINAL_CORE_VOLTAGE};
///
/// let model = DelayModel::broadwell();
/// let slow = model.relative_delay(NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(-130)));
/// assert!(slow > 1.05 && slow < 1.20, "≈11% stretch at −130 mV, got {slow}");
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelayModel {
    vdd_nominal: Volts,
    vth_at_ref: Volts,
    alpha: f64,
    temp_c: f64,
    vth_temp_coeff: f64,
}

impl DelayModel {
    /// A model of the paper's i7-5557U (Broadwell) core at 49 °C.
    pub fn broadwell() -> DelayModel {
        DelayModel {
            vdd_nominal: NOMINAL_CORE_VOLTAGE,
            vth_at_ref: DEFAULT_VTH,
            alpha: DEFAULT_ALPHA,
            temp_c: DEFAULT_TEMP_C,
            vth_temp_coeff: DEFAULT_VTH_TEMP_COEFF,
        }
    }

    /// Returns a copy of the model at a different die temperature.
    #[must_use]
    pub fn with_temperature(mut self, temp_c: f64) -> DelayModel {
        self.temp_c = temp_c;
        self
    }

    /// Returns a copy with a shifted threshold voltage (process variation;
    /// used by per-device calibration).
    #[must_use]
    pub fn with_vth_shift(mut self, shift: Volts) -> DelayModel {
        self.vth_at_ref = Volts(self.vth_at_ref.as_f64() + shift.as_f64());
        self
    }

    /// The nominal supply voltage the model is normalised to.
    #[inline]
    pub fn vdd_nominal(&self) -> Volts {
        self.vdd_nominal
    }

    /// Effective threshold voltage at the model's temperature.
    pub fn vth_effective(&self) -> Volts {
        Volts(self.vth_at_ref.as_f64() + self.vth_temp_coeff * (self.temp_c - REFERENCE_TEMP_C))
    }

    /// Gate delay at `vdd` relative to the delay at the nominal voltage.
    ///
    /// Returns `1.0` at nominal, values `> 1` when undervolted, and
    /// `f64::INFINITY` at or below the effective threshold voltage (the
    /// datapath simply stops switching — the "system freeze" regime).
    pub fn relative_delay(&self, vdd: Volts) -> f64 {
        let vth = self.vth_effective().as_f64();
        let v = vdd.as_f64();
        if v <= vth {
            return f64::INFINITY;
        }
        let v0 = self.vdd_nominal.as_f64();
        let d = |v: f64| v / (v - vth).powf(self.alpha);
        d(v) / d(v0)
    }
}

impl Default for DelayModel {
    fn default() -> DelayModel {
        DelayModel::broadwell()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::voltage::Millivolts;
    use proptest::prelude::*;

    #[test]
    fn nominal_delay_is_unity() {
        let m = DelayModel::broadwell();
        assert!((m.relative_delay(NOMINAL_CORE_VOLTAGE) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn undervolting_slows_the_path() {
        let m = DelayModel::broadwell();
        let d103 = m.relative_delay(NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(-103)));
        let d145 = m.relative_delay(NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(-145)));
        assert!(d103 > 1.0);
        assert!(d145 > d103, "deeper undervolt ⇒ longer delay");
    }

    #[test]
    fn below_threshold_is_infinite() {
        let m = DelayModel::broadwell();
        assert_eq!(m.relative_delay(Volts(0.2)), f64::INFINITY);
    }

    #[test]
    fn hotter_die_is_faster_at_low_voltage() {
        // Net Vth reduction with temperature: delay shrinks slightly.
        let cold = DelayModel::broadwell().with_temperature(25.0);
        let hot = DelayModel::broadwell().with_temperature(80.0);
        let v = NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(-130));
        assert!(hot.relative_delay(v) < cold.relative_delay(v));
    }

    #[test]
    fn vth_shift_models_process_variation() {
        let fast = DelayModel::broadwell().with_vth_shift(Volts(-0.02));
        let slow = DelayModel::broadwell().with_vth_shift(Volts(0.02));
        let v = NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(-130));
        assert!(fast.relative_delay(v) < slow.relative_delay(v));
    }

    proptest! {
        #[test]
        fn delay_is_monotone_in_voltage(mv in -400i32..0) {
            let m = DelayModel::broadwell();
            let lo = m.relative_delay(NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(mv)));
            let hi = m.relative_delay(NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(mv + 1)));
            prop_assert!(lo >= hi, "lower voltage must not be faster: {} vs {}", lo, hi);
        }
    }
}
