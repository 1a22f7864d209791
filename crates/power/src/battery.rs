//! Battery-life impact for mobile/edge/IoT deployments.
//!
//! The paper motivates undervolting's by-product power saving "specifically
//! for mobile, edge, and IoT devices" (its §III even cites the Apple Watch
//! as a dual-core deployment target). This model converts the power figures
//! into the quantity a product team asks about: how much battery does
//! always-on detection cost, and how much does the Stochastic-HMD's
//! undervolting give back?

use crate::cmos::{CmosPowerModel, PowerScope};
use crate::latency::LatencyModel;
use shmd_volt::voltage::Volts;
use std::fmt;

/// An always-on detection duty cycle on a battery-powered device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetectionDutyCycle {
    /// Detections per second while the device is awake.
    pub detections_per_second: f64,
    /// MACs per detection (model size).
    pub macs: usize,
}

/// Error: the duty cycle demands more detection time per second than a
/// second contains — the device cannot physically keep up, so projecting
/// a battery fraction from it would silently extrapolate fiction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InfeasibleDuty {
    /// Detection microseconds demanded per wall-clock second (> 10⁶).
    pub busy_us_per_second: f64,
}

impl fmt::Display for InfeasibleDuty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "duty cycle demands {:.0} µs of detection per second (max 1e6): \
             the device cannot keep up",
            self.busy_us_per_second
        )
    }
}

impl std::error::Error for InfeasibleDuty {}

impl Default for DetectionDutyCycle {
    fn default() -> DetectionDutyCycle {
        DetectionDutyCycle {
            detections_per_second: 100.0,
            macs: LatencyModel::paper_detector_macs(),
        }
    }
}

/// Battery-life model around the calibrated power/latency figures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatteryModel {
    /// Battery capacity in joules (e.g. a 1.1 Wh watch battery ≈ 4000 J).
    pub capacity_j: f64,
    /// Power model of the detection core.
    pub power: CmosPowerModel,
    /// Latency model (detection duration).
    pub latency: LatencyModel,
}

impl BatteryModel {
    /// A small wearable-class battery with the paper-calibrated models.
    pub fn wearable() -> BatteryModel {
        BatteryModel {
            capacity_j: 4000.0,
            power: CmosPowerModel::i7_5557u(),
            latency: LatencyModel::i7_5557u(),
        }
    }

    /// Energy of one detection at the given core voltage, in joules.
    pub fn energy_per_detection_j(&self, duty: &DetectionDutyCycle, vdd: Volts) -> f64 {
        let seconds = self.latency.hmd_us(duty.macs) * 1e-6;
        self.power.power_w(vdd, PowerScope::Core) * seconds
    }

    /// Fraction of each second the core spends detecting under this duty
    /// cycle (undervolting leaves the clock alone, so this is
    /// voltage-independent). Above 1.0 the duty cycle is infeasible.
    pub fn utilization(&self, duty: &DetectionDutyCycle) -> f64 {
        duty.detections_per_second * self.latency.hmd_us(duty.macs) * 1e-6
    }

    /// Fraction of the battery per day that always-on detection costs at
    /// the given voltage.
    ///
    /// # Errors
    ///
    /// Returns [`InfeasibleDuty`] when `detections_per_second ×
    /// latency_us` exceeds 10⁶ — the requested rate needs more than one
    /// second of detection per second of wall clock, so no finite battery
    /// fraction describes it.
    pub fn battery_per_day(
        &self,
        duty: &DetectionDutyCycle,
        vdd: Volts,
    ) -> Result<f64, InfeasibleDuty> {
        let utilization = self.utilization(duty);
        if utilization > 1.0 {
            return Err(InfeasibleDuty {
                busy_us_per_second: utilization * 1e6,
            });
        }
        let per_second = self.energy_per_detection_j(duty, vdd) * duty.detections_per_second;
        Ok(per_second * 86_400.0 / self.capacity_j)
    }

    /// Detections per joule at the given voltage.
    pub fn detections_per_joule(&self, duty: &DetectionDutyCycle, vdd: Volts) -> f64 {
        1.0 / self.energy_per_detection_j(duty, vdd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shmd_volt::voltage::{Millivolts, NOMINAL_CORE_VOLTAGE};

    fn setup() -> (BatteryModel, DetectionDutyCycle) {
        (BatteryModel::wearable(), DetectionDutyCycle::default())
    }

    #[test]
    fn undervolting_extends_battery() {
        let (battery, duty) = setup();
        let nominal = battery
            .battery_per_day(&duty, NOMINAL_CORE_VOLTAGE)
            .expect("default duty is feasible");
        let undervolted = battery
            .battery_per_day(
                &duty,
                NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(-134)),
            )
            .expect("default duty is feasible");
        assert!(undervolted < nominal);
        let saving = 1.0 - undervolted / nominal;
        assert!(
            (0.15..=0.40).contains(&saving),
            "core-scope saving at the operating point: {saving}"
        );
    }

    #[test]
    fn energy_scales_with_model_size() {
        let (battery, duty) = setup();
        let half = DetectionDutyCycle {
            macs: duty.macs / 2,
            ..duty
        };
        let full_e = battery.energy_per_detection_j(&duty, NOMINAL_CORE_VOLTAGE);
        let half_e = battery.energy_per_detection_j(&half, NOMINAL_CORE_VOLTAGE);
        assert!(half_e < full_e);
    }

    #[test]
    fn detections_per_joule_is_consistent() {
        let (battery, duty) = setup();
        let v = NOMINAL_CORE_VOLTAGE;
        let per_j = battery.detections_per_joule(&duty, v);
        let e = battery.energy_per_detection_j(&duty, v);
        assert!((per_j * e - 1.0).abs() < 1e-9);
    }

    #[test]
    fn always_on_detection_is_affordable() {
        // Sanity: 100 detections/s of a 71 KB model must not drain a watch
        // battery in a day.
        let (battery, duty) = setup();
        let fraction = battery
            .battery_per_day(&duty, NOMINAL_CORE_VOLTAGE)
            .expect("default duty is feasible");
        assert!(
            fraction < 1.0,
            "always-on detection uses {fraction} batteries/day"
        );
    }

    #[test]
    fn infeasible_duty_is_rejected_not_extrapolated() {
        // Regression: at detections_per_second × latency_us > 10⁶ the
        // device cannot keep up, yet the model used to report a finite
        // battery fraction as if it could.
        let (battery, duty) = setup();
        let latency_us = battery.latency.hmd_us(duty.macs);
        let infeasible = DetectionDutyCycle {
            detections_per_second: 2e6 / latency_us,
            ..duty
        };
        assert!(battery.utilization(&infeasible) > 1.0);
        let err = battery
            .battery_per_day(&infeasible, NOMINAL_CORE_VOLTAGE)
            .expect_err("an over-committed duty cycle must be rejected");
        assert!(
            (err.busy_us_per_second - 2e6).abs() < 1.0,
            "demanded {} µs/s",
            err.busy_us_per_second
        );
        assert!(err.to_string().contains("cannot keep up"));
        // The feasibility boundary itself is fine: exactly one second of
        // detection per second is the densest schedulable duty.
        let saturated = DetectionDutyCycle {
            detections_per_second: 1e6 / latency_us,
            ..duty
        };
        assert!(battery
            .battery_per_day(&saturated, NOMINAL_CORE_VOLTAGE)
            .is_ok());
    }
}
