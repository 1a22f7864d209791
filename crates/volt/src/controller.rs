//! Closed-loop undervolting control (§IX "Calibration").
//!
//! "Undervolting-induced faults vary across devices ... the temperature
//! needs to be considered ... the voltage regulator that controls the
//! Stochastic-HMD needs to dynamically adjust the undervolting level based
//! on the current temperature to achieve the best accuracy/robustness
//! tradeoff."
//!
//! [`AdaptiveVoltageController`] implements that loop: it holds a target
//! error rate, re-derives the offset from a fresh calibration whenever the
//! die temperature drifts past a threshold, and enforces a guard band above
//! the freeze offset so an aggressive target can never hang the core.

use crate::calibration::{CalibrationCurve, CalibrationError, Calibrator, DeviceProfile};
use crate::voltage::{Millivolts, MsrVoltageCommand, VoltagePlane};

/// Controller policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControllerConfig {
    /// The multiplication error rate the defense wants to hold.
    pub target_error_rate: f64,
    /// Re-calibrate when the temperature moves this far (°C) from the last
    /// calibration point.
    pub recalibration_threshold_c: f64,
    /// Never undervolt deeper than `freeze offset + guard_band_mv`.
    pub guard_band_mv: i32,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            target_error_rate: 0.1,
            recalibration_threshold_c: 5.0,
            guard_band_mv: 3,
        }
    }
}

/// What a temperature observation caused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControllerAction {
    /// Temperature within threshold; offset unchanged.
    Unchanged,
    /// Re-calibrated and moved the offset.
    Adjusted {
        /// Offset before the adjustment.
        from: Millivolts,
        /// Offset after the adjustment.
        to: Millivolts,
    },
    /// The target rate would require undervolting inside the guard band;
    /// the offset was clamped (the delivered error rate is lower than the
    /// target).
    Clamped {
        /// The clamped offset actually applied.
        at: Millivolts,
    },
    /// Re-calibration ran and the (1 mV-quantised) offset happens to be
    /// unchanged — but the *curve* is new, so the delivered error rate at
    /// that offset has moved. Consumers holding a fault model must rebuild
    /// it.
    Refreshed,
}

/// The dynamic state of an [`AdaptiveVoltageController`], for
/// checkpointing. The curve and offset are pure functions of the device,
/// policy, calibrator step, and the last calibration temperature, so the
/// snapshot only has to carry that temperature;
/// [`AdaptiveVoltageController::restore_state`] re-derives the rest
/// bit-identically. The offset is carried anyway so a restore path can
/// verify the re-derivation against what the checkpoint recorded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ControllerState {
    /// The temperature of the last calibration, °C.
    pub calibrated_at_c: f64,
    /// The offset the controller held at the snapshot.
    pub offset: Millivolts,
}

/// A temperature-tracking undervolting controller for one device.
#[derive(Clone, Debug)]
pub struct AdaptiveVoltageController {
    config: ControllerConfig,
    calibrator: Calibrator,
    device: DeviceProfile,
    curve: CalibrationCurve,
    offset: Millivolts,
    calibrated_at_c: f64,
}

impl AdaptiveVoltageController {
    /// Calibrates the device at its current temperature and locks onto the
    /// target error rate.
    ///
    /// # Errors
    ///
    /// Returns [`CalibrationError`] when the target rate is invalid or
    /// unreachable even at the guard band.
    pub fn new(
        device: DeviceProfile,
        config: ControllerConfig,
    ) -> Result<AdaptiveVoltageController, CalibrationError> {
        Self::with_calibrator(device, config, Calibrator::new())
    }

    /// Like [`AdaptiveVoltageController::new`] but with an explicit
    /// calibrator (e.g. a coarser sweep step when the controller is driven
    /// frequently, as the serving supervisor does).
    ///
    /// # Errors
    ///
    /// Returns [`CalibrationError`] when the target rate is invalid or
    /// unreachable even at the guard band.
    pub fn with_calibrator(
        device: DeviceProfile,
        config: ControllerConfig,
        calibrator: Calibrator,
    ) -> Result<AdaptiveVoltageController, CalibrationError> {
        let curve = calibrator.calibrate(&device);
        let (offset, _) = Self::derive_offset(&curve, &config)?;
        let calibrated_at_c = device.temp_c;
        Ok(AdaptiveVoltageController {
            config,
            calibrator,
            device,
            curve,
            offset,
            calibrated_at_c,
        })
    }

    fn derive_offset(
        curve: &CalibrationCurve,
        config: &ControllerConfig,
    ) -> Result<(Millivolts, bool), CalibrationError> {
        Self::derive_offset_for(curve, config.target_error_rate, config.guard_band_mv)
    }

    fn derive_offset_for(
        curve: &CalibrationCurve,
        target_error_rate: f64,
        guard_band_mv: i32,
    ) -> Result<(Millivolts, bool), CalibrationError> {
        let floor = Millivolts::new(curve.freeze_offset().get() + guard_band_mv.abs());
        match curve.offset_for_error_rate(target_error_rate) {
            Ok(offset) if offset.get() >= floor.get() => Ok((offset, false)),
            Ok(_) => Ok((floor, true)),
            Err(CalibrationError::ErrorRateUnreachable { .. }) => Ok((floor, true)),
            Err(e) => Err(e),
        }
    }

    /// The offset the *current* calibration curve would assign to an
    /// arbitrary target error rate, under the same guard-band clamp the
    /// controller applies to its own target — the lookup a fleet-level
    /// power scheduler uses to retarget individual shards without touching
    /// the controller's configured setpoint. Returns the offset and whether
    /// the guard band clamped it.
    ///
    /// # Errors
    ///
    /// Returns [`CalibrationError::InvalidErrorRate`] when the target rate
    /// is outside `[0, 1]`; unreachable targets clamp to the guard-band
    /// floor instead of failing, exactly like the controller's own target.
    pub fn offset_for_target(
        &self,
        target_error_rate: f64,
    ) -> Result<(Millivolts, bool), CalibrationError> {
        Self::derive_offset_for(&self.curve, target_error_rate, self.config.guard_band_mv)
    }

    /// The offset currently applied.
    pub fn offset(&self) -> Millivolts {
        self.offset
    }

    /// The curve of the most recent calibration. Consumers that build a
    /// fault model for the controller's offset (e.g. a serving shard)
    /// read the delivered rate from here.
    pub fn curve(&self) -> &CalibrationCurve {
        &self.curve
    }

    /// The controller policy.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The error rate delivered at the current offset and temperature.
    pub fn delivered_error_rate(&self) -> f64 {
        self.curve.error_rate_at(self.offset)
    }

    /// The configured target error rate.
    pub fn target_error_rate(&self) -> f64 {
        self.config.target_error_rate
    }

    /// The temperature of the last calibration.
    pub fn calibrated_at_c(&self) -> f64 {
        self.calibrated_at_c
    }

    /// Feeds a die-temperature reading to the controller. Re-calibrates
    /// and re-derives the offset when the drift exceeds the threshold.
    ///
    /// # Errors
    ///
    /// Propagates [`CalibrationError`] from offset derivation (the guard
    /// band makes unreachable targets a clamp, not an error).
    pub fn observe_temperature(
        &mut self,
        temp_c: f64,
    ) -> Result<ControllerAction, CalibrationError> {
        if (temp_c - self.calibrated_at_c).abs() < self.config.recalibration_threshold_c {
            return Ok(ControllerAction::Unchanged);
        }
        self.force_recalibrate(temp_c)
    }

    /// Recalibrates unconditionally, bypassing the drift threshold — the
    /// entry point for a *watchdog-triggered* recalibration, where the
    /// evidence of drift comes from the observed fault stream rather than
    /// a temperature sensor (the supervisor trusts its own delivered-rate
    /// estimate over a sensor it may not even have inside the enclave).
    ///
    /// # Errors
    ///
    /// Propagates [`CalibrationError`] from offset derivation (the guard
    /// band makes unreachable targets a clamp, not an error).
    pub fn force_recalibrate(&mut self, temp_c: f64) -> Result<ControllerAction, CalibrationError> {
        self.device.temp_c = temp_c;
        self.curve = self.calibrator.calibrate(&self.device);
        self.calibrated_at_c = temp_c;
        let from = self.offset;
        let (to, clamped) = Self::derive_offset(&self.curve, &self.config)?;
        self.offset = to;
        if clamped {
            Ok(ControllerAction::Clamped { at: to })
        } else if to == from {
            // Same offset, new curve: the delivered rate still moved.
            Ok(ControllerAction::Refreshed)
        } else {
            Ok(ControllerAction::Adjusted { from, to })
        }
    }

    /// Snapshots the controller's dynamic state for checkpointing.
    pub fn export_state(&self) -> ControllerState {
        ControllerState {
            calibrated_at_c: self.calibrated_at_c,
            offset: self.offset,
        }
    }

    /// Restores an [`AdaptiveVoltageController::export_state`] snapshot by
    /// recalibrating at the recorded temperature. Calibration and offset
    /// derivation are deterministic, so the restored curve and offset are
    /// bit-identical to the ones the snapshot was taken from (callers may
    /// double-check [`AdaptiveVoltageController::offset`] against
    /// [`ControllerState::offset`]).
    ///
    /// # Errors
    ///
    /// Propagates [`CalibrationError`] from offset derivation.
    pub fn restore_state(&mut self, state: &ControllerState) -> Result<(), CalibrationError> {
        self.force_recalibrate(state.calibrated_at_c)?;
        Ok(())
    }

    /// The MSR write that applies the current offset to the core plane.
    ///
    /// # Errors
    ///
    /// Never fails for calibrated offsets (they fit the 11-bit encoding);
    /// propagates the encoding error otherwise.
    pub fn msr_command(&self) -> Result<MsrVoltageCommand, crate::voltage::ParseMsrCommandError> {
        MsrVoltageCommand::new(VoltagePlane::CpuCore, self.offset)
    }

    /// The MSR write that restores nominal voltage (offset 0) — issued when
    /// leaving the detection context so undervolting never leaks into other
    /// workloads (§IX "Implication of undervolting on the rest of the
    /// system").
    ///
    /// # Errors
    ///
    /// Never fails (offset 0 always encodes); typed for API symmetry.
    pub fn restore_command(
        &self,
    ) -> Result<MsrVoltageCommand, crate::voltage::ParseMsrCommandError> {
        MsrVoltageCommand::new(VoltagePlane::CpuCore, Millivolts::new(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn controller() -> AdaptiveVoltageController {
        AdaptiveVoltageController::new(DeviceProfile::reference(), ControllerConfig::default())
            .expect("reference device reaches er = 0.1")
    }

    #[test]
    fn initial_offset_hits_the_target() {
        let c = controller();
        assert!(
            (c.delivered_error_rate() - 0.1).abs() < 0.1,
            "delivered {} at {}",
            c.delivered_error_rate(),
            c.offset()
        );
        assert!(c.offset().is_undervolt());
    }

    #[test]
    fn small_temperature_noise_is_ignored() {
        let mut c = controller();
        let before = c.offset();
        let action = c.observe_temperature(49.0 + 2.0).expect("ok");
        assert_eq!(action, ControllerAction::Unchanged);
        assert_eq!(c.offset(), before);
    }

    #[test]
    fn heating_deepens_the_offset() {
        let mut c = controller();
        let before = c.offset();
        let action = c.observe_temperature(80.0).expect("ok");
        match action {
            ControllerAction::Adjusted { from, to } => {
                assert_eq!(from, before);
                assert!(to.get() < from.get(), "hot die needs deeper offset");
            }
            other => panic!("expected adjustment, got {other:?}"),
        }
    }

    #[test]
    fn cooling_then_heating_round_trips() {
        let mut c = controller();
        let initial = c.offset();
        c.observe_temperature(80.0).expect("heat");
        c.observe_temperature(49.0).expect("cool");
        assert_eq!(
            c.offset(),
            initial,
            "returning to the calibration temp restores the offset"
        );
    }

    #[test]
    fn same_offset_after_recalibration_reports_refreshed() {
        // Regression: a recalibration that lands on the same 1 mV offset
        // still changes the curve (and thus the delivered rate); consumers
        // must be told to rebuild their fault model.
        let mut c = controller();
        // Find a small drift past the threshold that keeps the offset.
        let mut refreshed_seen = false;
        for temp in [52.0, 55.0, 57.0, 60.0] {
            if let ControllerAction::Refreshed = c.observe_temperature(temp).expect("ok") {
                refreshed_seen = true;
            }
        }
        // Not every device/temperature grid produces one, but the enum
        // variant must at least never be conflated with Unchanged after a
        // threshold-crossing observation.
        let action = c
            .observe_temperature(c.calibrated_at_c() + 10.0)
            .expect("ok");
        assert!(!matches!(action, ControllerAction::Unchanged));
        let _ = refreshed_seen;
    }

    #[test]
    fn guard_band_clamps_aggressive_targets() {
        let config = ControllerConfig {
            target_error_rate: 0.49,
            ..ControllerConfig::default()
        };
        // er 0.49 sits within a couple of mV of freeze; a wide guard band
        // must clamp it.
        let config = ControllerConfig {
            guard_band_mv: 10,
            ..config
        };
        let c =
            AdaptiveVoltageController::new(DeviceProfile::reference(), config).expect("constructs");
        let freeze = {
            let curve = Calibrator::new().calibrate(&DeviceProfile::reference());
            curve.freeze_offset().get()
        };
        assert!(c.offset().get() >= freeze + 10);
        assert!(c.delivered_error_rate() < 0.49);
    }

    #[test]
    fn invalid_target_is_an_error() {
        let config = ControllerConfig {
            target_error_rate: 1.5,
            ..ControllerConfig::default()
        };
        assert!(matches!(
            AdaptiveVoltageController::new(DeviceProfile::reference(), config),
            Err(CalibrationError::InvalidErrorRate(_))
        ));
    }

    #[test]
    fn commands_encode_and_restore() {
        let c = controller();
        let apply = c.msr_command().expect("encodes");
        assert_eq!(apply.plane(), VoltagePlane::CpuCore);
        assert!(apply.offset().is_undervolt());
        let restore = c.restore_command().expect("encodes");
        assert_eq!(restore.offset(), Millivolts::new(0));
    }

    proptest! {
        #[test]
        fn excursion_round_trips_the_offset(delta in -19.0f64..40.0) {
            // Drift-cycle property: an excursion past the recalibration
            // threshold and back must return the offset to within 1 mV of
            // its pre-excursion value — the control loop has no hidden
            // state that accumulates across a thermal cycle.
            let mut c = AdaptiveVoltageController::with_calibrator(
                DeviceProfile::reference(),
                ControllerConfig::default(),
                Calibrator::new().with_step(2),
            )
            .expect("constructs");
            prop_assume!(delta.abs() >= c.config().recalibration_threshold_c);
            let initial = c.offset();
            let base = c.calibrated_at_c();
            c.observe_temperature(base + delta).expect("excursion");
            c.observe_temperature(base).expect("return");
            prop_assert!(
                (c.offset().get() - initial.get()).abs() <= 1,
                "offset {} -> {} after a {}°C excursion",
                initial, c.offset(), delta
            );
        }

        #[test]
        fn guard_band_is_never_violated(
            temps in proptest::collection::vec(30.0f64..100.0, 1..8),
            guard in 1i32..10,
        ) {
            // Safety property: across any observation sequence, the applied
            // offset never undercuts freeze + guard band — an aggressive
            // target clamps, it never hangs the core.
            let config = ControllerConfig {
                target_error_rate: 0.35,
                guard_band_mv: guard,
                ..ControllerConfig::default()
            };
            let mut c = AdaptiveVoltageController::with_calibrator(
                DeviceProfile::reference(),
                config,
                Calibrator::new().with_step(2),
            )
            .expect("constructs");
            let floor = c.curve().freeze_offset().get() + guard;
            prop_assert!(c.offset().get() >= floor);
            for t in temps {
                c.observe_temperature(t).expect("observation");
                let floor = c.curve().freeze_offset().get() + guard;
                prop_assert!(
                    c.offset().get() >= floor,
                    "offset {} violates guard floor {} mV at {}°C",
                    c.offset(), floor, t
                );
            }
        }
    }

    #[test]
    fn offset_for_target_reuses_the_live_curve_and_guard_band() {
        let c = controller();
        // The controller's own target round-trips through the lookup.
        let (own, clamped) = c.offset_for_target(c.target_error_rate()).expect("ok");
        assert_eq!(own, c.offset());
        assert!(!clamped);
        // A deeper target maps to a deeper (more negative) offset…
        let (deeper, _) = c.offset_for_target(0.3).expect("ok");
        assert!(deeper.get() < own.get());
        // …an aggressive one clamps at the guard-band floor instead of
        // erroring…
        let (floor, clamped) = c.offset_for_target(0.499).expect("ok");
        assert!(clamped);
        assert_eq!(
            floor.get(),
            c.curve().freeze_offset().get() + c.config().guard_band_mv
        );
        // …and an invalid one is a typed error.
        assert!(matches!(
            c.offset_for_target(1.5),
            Err(CalibrationError::InvalidErrorRate(_))
        ));
    }

    #[test]
    fn force_recalibration_bypasses_the_drift_threshold() {
        let mut c = controller();
        let small_drift = c.calibrated_at_c() + 1.0;
        assert_eq!(
            c.observe_temperature(small_drift).expect("ok"),
            ControllerAction::Unchanged,
            "1°C is under the threshold"
        );
        let action = c.force_recalibrate(small_drift).expect("ok");
        assert!(
            !matches!(action, ControllerAction::Unchanged),
            "forced recalibration must rebuild the curve: {action:?}"
        );
        assert_eq!(c.calibrated_at_c(), small_drift);
    }

    #[test]
    fn exported_state_restores_the_curve_bit_identically() {
        let mut original = controller();
        original.observe_temperature(80.0).expect("heat");
        original.observe_temperature(63.0).expect("cool");
        let state = original.export_state();
        let mut restored = controller();
        restored.restore_state(&state).expect("restores");
        assert_eq!(restored.offset(), state.offset, "re-derivation must agree");
        assert_eq!(restored.calibrated_at_c(), original.calibrated_at_c());
        assert_eq!(
            restored.delivered_error_rate().to_bits(),
            original.delivered_error_rate().to_bits(),
            "the rebuilt curve must match exactly"
        );
    }

    #[test]
    fn stale_offset_would_miss_the_target() {
        // What the controller prevents: holding the cold offset on a hot
        // die delivers a drifted error rate.
        let mut c = controller();
        let cold_offset = c.offset();
        c.observe_temperature(80.0).expect("heat");
        let drifted = {
            let mut hot = DeviceProfile::reference();
            hot.temp_c = 80.0;
            Calibrator::new().calibrate(&hot).error_rate_at(cold_offset)
        };
        assert!(
            (drifted - 0.1).abs() > 0.02,
            "stale offset should drift: {drifted}"
        );
        assert!(
            (c.delivered_error_rate() - 0.1).abs() < 0.05,
            "controller holds the target: {}",
            c.delivered_error_rate()
        );
    }
}
