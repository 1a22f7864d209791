//! Per-device calibration: mapping undervolt offsets to error rates.
//!
//! Undervolting-induced faults vary across devices (process variation) and
//! with temperature, so the paper's §IX requires "a separate calibration
//! ... for each device to determine the undervolting level that leads to the
//! best accuracy/robustness tradeoff". [`Calibrator`] performs that sweep
//! against the timing model, producing a [`CalibrationCurve`] that can be
//! queried in both directions: *what error rate does this offset give?* and
//! *what offset achieves this error rate?*

use crate::delay::DelayModel;
use crate::fault::{FaultModel, FaultStream};
use crate::multiplier::{MultiplierTimingModel, FREEZE_ERROR_RATE, OBSERVABLE_P};
use crate::voltage::{Millivolts, Volts, NOMINAL_CORE_VOLTAGE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Deepest offset the calibration sweep explores.
pub const SWEEP_LIMIT_MV: i32 = -200;

/// A physical device instance: process corner and operating temperature.
///
/// Two devices with different seeds model two different chips of the same
/// SKU; their first-fault and freeze offsets differ by a few millivolts,
/// which is why calibration is per-device.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable device identifier.
    pub name: String,
    /// Seed selecting the process corner.
    pub seed: u64,
    /// Standard deviation of the per-device threshold-voltage shift, in mV.
    pub vth_sigma_mv: f64,
    /// Die temperature during calibration, °C.
    pub temp_c: f64,
}

impl DeviceProfile {
    /// The reference device: the paper's i7-5557U at 49 °C.
    pub fn reference() -> DeviceProfile {
        DeviceProfile {
            name: "i7-5557U".to_string(),
            seed: 0,
            vth_sigma_mv: 0.0,
            temp_c: 49.0,
        }
    }

    /// A randomly drawn device of the same SKU (8 mV Vth sigma).
    pub fn sampled(name: impl Into<String>, seed: u64) -> DeviceProfile {
        DeviceProfile {
            name: name.into(),
            seed,
            vth_sigma_mv: 8.0,
            temp_c: 49.0,
        }
    }

    /// The device-specific threshold-voltage shift in volts.
    pub fn vth_shift(&self) -> Volts {
        if self.vth_sigma_mv == 0.0 {
            return Volts(0.0);
        }
        // Box–Muller from a seeded RNG: deterministic per device.
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed_ca11_b0a7_ed01);
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        Volts(z * self.vth_sigma_mv / 1000.0)
    }

    /// The timing model for this device.
    pub fn timing_model(&self) -> MultiplierTimingModel {
        let delay = DelayModel::broadwell()
            .with_temperature(self.temp_c)
            .with_vth_shift(self.vth_shift());
        MultiplierTimingModel::broadwell_2_2ghz().with_delay_model(delay)
    }
}

impl Default for DeviceProfile {
    fn default() -> DeviceProfile {
        DeviceProfile::reference()
    }
}

/// One measured point of a calibration sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CalibrationPoint {
    /// Undervolt offset.
    pub offset: Millivolts,
    /// Mean multiplication error rate at that offset.
    pub error_rate: f64,
}

/// Error returned by calibration queries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CalibrationError {
    /// The requested error rate exceeds what the device reaches before it
    /// freezes.
    ErrorRateUnreachable {
        /// The requested rate.
        requested: f64,
        /// The maximum safely reachable rate.
        max_reachable: f64,
    },
    /// The requested error rate is not a probability.
    InvalidErrorRate(f64),
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationError::ErrorRateUnreachable {
                requested,
                max_reachable,
            } => write!(
                f,
                "error rate {requested} unreachable before freeze (max {max_reachable})"
            ),
            CalibrationError::InvalidErrorRate(er) => {
                write!(f, "error rate {er} is outside the valid range [0, 1]")
            }
        }
    }
}

impl std::error::Error for CalibrationError {}

/// The result of calibrating one device: offset ↔ error-rate mapping plus
/// the first-fault and freeze offsets.
#[derive(Clone, Debug, PartialEq)]
pub struct CalibrationCurve {
    device: String,
    points: Vec<CalibrationPoint>,
    first_fault: Millivolts,
    freeze: Millivolts,
}

impl CalibrationCurve {
    /// The calibrated device's name.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// All sweep points, from 0 mV down to the freeze offset.
    pub fn points(&self) -> &[CalibrationPoint] {
        &self.points
    }

    /// The shallowest offset at which faults become observable.
    pub fn first_fault_offset(&self) -> Millivolts {
        self.first_fault
    }

    /// The offset at which the system freezes.
    pub fn freeze_offset(&self) -> Millivolts {
        self.freeze
    }

    /// The error rate at an offset (linear interpolation between sweep
    /// points; saturates at the curve ends).
    pub fn error_rate_at(&self, offset: Millivolts) -> f64 {
        let mv = offset.get();
        if self.points.is_empty() {
            return 0.0;
        }
        if mv >= self.points[0].offset.get() {
            return self.points[0].error_rate;
        }
        for pair in self.points.windows(2) {
            let (hi, lo) = (pair[0], pair[1]);
            if mv <= hi.offset.get() && mv >= lo.offset.get() {
                let span = f64::from(hi.offset.get() - lo.offset.get());
                let t = f64::from(hi.offset.get() - mv) / span;
                return hi.error_rate + t * (lo.error_rate - hi.error_rate);
            }
        }
        self.points.last().expect("non-empty").error_rate
    }

    /// The shallowest offset achieving at least the requested error rate.
    ///
    /// This is the defender's main calibration query: "which undervolting
    /// level gives my chosen `er`?"
    ///
    /// # Errors
    ///
    /// Returns [`CalibrationError::ErrorRateUnreachable`] when the device
    /// freezes before reaching the requested rate, and
    /// [`CalibrationError::InvalidErrorRate`] for rates outside `[0, 1]`.
    pub fn offset_for_error_rate(&self, er: f64) -> Result<Millivolts, CalibrationError> {
        if !er.is_finite() || !(0.0..=1.0).contains(&er) {
            return Err(CalibrationError::InvalidErrorRate(er));
        }
        if er == 0.0 {
            return Ok(Millivolts::new(0));
        }
        for p in &self.points {
            if p.error_rate >= er {
                return Ok(p.offset);
            }
        }
        Err(CalibrationError::ErrorRateUnreachable {
            requested: er,
            max_reachable: self.points.last().map_or(0.0, |p| p.error_rate),
        })
    }

    /// A fault model for operating this device at the given offset.
    ///
    /// # Errors
    ///
    /// Never fails for offsets inside the calibrated range; propagates
    /// fault-model construction errors otherwise.
    pub fn fault_model_at(
        &self,
        offset: Millivolts,
    ) -> Result<FaultModel, crate::fault::FaultModelError> {
        FaultModel::from_error_rate(self.error_rate_at(offset).clamp(0.0, 1.0))
    }
}

/// Performs the calibration sweep for a device.
#[derive(Clone, Debug)]
pub struct Calibrator {
    step_mv: i32,
}

impl Calibrator {
    /// A calibrator using the paper's 1 mV sweep step.
    pub fn new() -> Calibrator {
        Calibrator { step_mv: 1 }
    }

    /// Uses a coarser sweep step (faster, less precise).
    ///
    /// # Panics
    ///
    /// Panics if `step_mv` is not positive.
    #[must_use]
    pub fn with_step(mut self, step_mv: i32) -> Calibrator {
        assert!(step_mv > 0, "sweep step must be positive");
        self.step_mv = step_mv;
        self
    }

    /// Sweeps the device from 0 mV down to its freeze offset.
    pub fn calibrate(&self, device: &DeviceProfile) -> CalibrationCurve {
        let timing = device.timing_model();
        let mut points = Vec::new();
        let mut first_fault = Millivolts::new(SWEEP_LIMIT_MV);
        let mut freeze = Millivolts::new(SWEEP_LIMIT_MV);
        let mut mv = 0;
        while mv >= SWEEP_LIMIT_MV {
            let offset = Millivolts::new(mv);
            let er = timing.mean_error_rate(NOMINAL_CORE_VOLTAGE.with_offset(offset));
            points.push(CalibrationPoint {
                offset,
                error_rate: er,
            });
            if er >= OBSERVABLE_P && first_fault.get() == SWEEP_LIMIT_MV {
                first_fault = offset;
            }
            if er >= FREEZE_ERROR_RATE {
                freeze = offset;
                break;
            }
            mv -= self.step_mv;
        }
        CalibrationCurve {
            device: device.name.clone(),
            points,
            first_fault,
            freeze,
        }
    }

    /// Monte-Carlo validation of a single sweep point: multiplies `samples`
    /// random operand pairs through a per-operand fault model and reports
    /// the observed error rate. Used to cross-check the analytic sweep.
    pub fn measure_error_rate(
        &self,
        device: &DeviceProfile,
        offset: Millivolts,
        samples: usize,
        seed: u64,
    ) -> f64 {
        let timing = device.timing_model();
        let vdd = NOMINAL_CORE_VOLTAGE.with_offset(offset);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faulty = 0usize;
        for _ in 0..samples {
            let a: u64 = rng.gen();
            let b: u64 = rng.gen();
            let model = FaultModel::at_voltage_for_operands(&timing, vdd, a, b)
                .expect("timing rates are probabilities");
            let mut injector = FaultStream::new(model, rng.gen());
            let product = a.wrapping_mul(b);
            if injector.corrupt_unsigned(product) != product {
                faulty += 1;
            }
        }
        faulty as f64 / samples as f64
    }
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        Calibrator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_curve() -> CalibrationCurve {
        Calibrator::new().calibrate(&DeviceProfile::reference())
    }

    #[test]
    fn reference_first_fault_in_paper_window() {
        let curve = reference_curve();
        let ff = curve.first_fault_offset().get();
        assert!((-150..=-95).contains(&ff), "first fault at {ff} mV");
    }

    #[test]
    fn curve_is_monotone() {
        let curve = reference_curve();
        for pair in curve.points().windows(2) {
            assert!(
                pair[1].error_rate >= pair[0].error_rate,
                "error rate must not decrease with deeper undervolt"
            );
        }
    }

    #[test]
    fn freeze_is_past_first_fault() {
        let curve = reference_curve();
        assert!(curve.freeze_offset().get() < curve.first_fault_offset().get());
    }

    #[test]
    fn offset_for_error_rate_round_trips() {
        let curve = reference_curve();
        for &er in &[0.01, 0.1, 0.3] {
            let offset = curve.offset_for_error_rate(er).expect("reachable");
            let back = curve.error_rate_at(offset);
            assert!(
                back >= er * 0.5 && back <= er * 2.0 + 0.01,
                "er {er} -> {offset} -> {back}"
            );
        }
    }

    #[test]
    fn zero_error_rate_means_no_undervolt() {
        let curve = reference_curve();
        assert_eq!(
            curve.offset_for_error_rate(0.0).expect("valid"),
            Millivolts::new(0)
        );
    }

    #[test]
    fn unreachable_rates_error() {
        let curve = reference_curve();
        let err = curve.offset_for_error_rate(0.99).expect_err("unreachable");
        assert!(matches!(err, CalibrationError::ErrorRateUnreachable { .. }));
    }

    #[test]
    fn invalid_rates_error() {
        let curve = reference_curve();
        assert!(matches!(
            curve.offset_for_error_rate(-1.0),
            Err(CalibrationError::InvalidErrorRate(_))
        ));
    }

    #[test]
    fn devices_differ() {
        let a = Calibrator::new()
            .with_step(2)
            .calibrate(&DeviceProfile::sampled("dev-a", 1));
        let b = Calibrator::new()
            .with_step(2)
            .calibrate(&DeviceProfile::sampled("dev-b", 2));
        assert_ne!(
            a.first_fault_offset(),
            b.first_fault_offset(),
            "process variation should shift the first-fault offset"
        );
    }

    #[test]
    fn temperature_shifts_the_curve() {
        let mut hot_dev = DeviceProfile::reference();
        hot_dev.temp_c = 90.0;
        let cold = reference_curve();
        let hot = Calibrator::new().with_step(2).calibrate(&hot_dev);
        assert_ne!(cold.first_fault_offset(), hot.first_fault_offset());
    }

    #[test]
    fn monte_carlo_agrees_with_analytic_sweep() {
        let device = DeviceProfile::reference();
        let curve = reference_curve();
        let offset = curve.offset_for_error_rate(0.1).expect("reachable");
        let measured = Calibrator::new().measure_error_rate(&device, offset, 4000, 7);
        let analytic = curve.error_rate_at(offset);
        assert!(
            (measured - analytic).abs() < 0.05,
            "measured {measured} vs analytic {analytic}"
        );
    }

    #[test]
    fn fault_model_at_offset_is_usable() {
        let curve = reference_curve();
        let offset = curve.offset_for_error_rate(0.1).expect("reachable");
        let model = curve.fault_model_at(offset).expect("valid");
        assert!(model.error_rate() > 0.0);
    }

    #[test]
    fn step_must_be_positive() {
        let result = std::panic::catch_unwind(|| Calibrator::new().with_step(0));
        assert!(result.is_err());
    }
}
