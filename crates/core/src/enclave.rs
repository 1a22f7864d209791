//! Trusted detection enclave: undervolt *only* while detecting.
//!
//! §IX "Implication of undervolting on the rest of the system":
//! "the undervolting should be applied only when executing the HMDs
//! detection component ... the voltage needs to be undervolted directly
//! after entering the TEE and scaled back to the nominal voltage just
//! before exiting the TEE", and §III "Trusted control": the voltage
//! regulator must be exclusively owned by the detection component, or the
//! adversary simply restores nominal voltage and strips the defense.
//!
//! [`DetectionEnclave`] packages those rules: it owns an
//! [`AdaptiveVoltageController`] (exclusive VR control), undervolts on
//! entry, restores on exit — including on panic, via an RAII guard — and
//! tracks the voltage state so tests can assert the invariant "outside
//! detection the core always sits at nominal voltage".

use crate::deploy::DetectionPolicy;
use crate::detector::{Detector, Label};
use crate::stochastic::StochasticHmd;
use crate::BaselineHmd;
use shmd_volt::calibration::CalibrationError;
use shmd_volt::controller::{AdaptiveVoltageController, ControllerConfig};
use shmd_volt::fault::FaultModelError;
use shmd_volt::voltage::Millivolts;
use shmd_volt::DeviceProfile;
use shmd_workload::trace::Trace;
use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// Error constructing or operating a [`DetectionEnclave`].
#[derive(Clone, Debug, PartialEq)]
pub enum EnclaveError {
    /// Device calibration failed.
    Calibration(CalibrationError),
    /// Building the fault model failed.
    Fault(FaultModelError),
}

impl fmt::Display for EnclaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnclaveError::Calibration(e) => write!(f, "calibration failed: {e}"),
            EnclaveError::Fault(e) => write!(f, "fault model failed: {e}"),
        }
    }
}

impl std::error::Error for EnclaveError {}

impl From<CalibrationError> for EnclaveError {
    fn from(e: CalibrationError) -> EnclaveError {
        EnclaveError::Calibration(e)
    }
}

impl From<FaultModelError> for EnclaveError {
    fn from(e: FaultModelError) -> EnclaveError {
        EnclaveError::Fault(e)
    }
}

/// The simulated core-voltage state the enclave guards.
#[derive(Clone, Debug)]
pub struct CoreVoltageState {
    offset: Rc<Cell<i32>>,
}

impl CoreVoltageState {
    fn new() -> CoreVoltageState {
        CoreVoltageState {
            offset: Rc::new(Cell::new(0)),
        }
    }

    /// `true` when the core sits at nominal voltage.
    pub fn is_nominal(&self) -> bool {
        self.offset.get() == 0
    }
}

/// RAII guard: undervolts on construction, restores nominal on drop —
/// including on unwinding, so a panicking detection can never leave the
/// system undervolted.
struct UndervoltGuard {
    state: Rc<Cell<i32>>,
}

impl UndervoltGuard {
    fn enter(state: &CoreVoltageState, offset: Millivolts) -> UndervoltGuard {
        state.offset.set(offset.get());
        UndervoltGuard {
            state: Rc::clone(&state.offset),
        }
    }
}

impl Drop for UndervoltGuard {
    fn drop(&mut self) {
        self.state.set(0);
    }
}

/// A trusted detection enclave: exclusive voltage control + a protected
/// detector + a deployment policy.
pub struct DetectionEnclave {
    controller: AdaptiveVoltageController,
    baseline: BaselineHmd,
    detector: StochasticHmd,
    policy: DetectionPolicy,
    voltage: CoreVoltageState,
    detections: u64,
    reseeds: u64,
}

impl DetectionEnclave {
    /// Calibrates `device`, derives the offset for the controller's target
    /// error rate, and deploys `baseline` behind it.
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError`] when calibration or fault-model
    /// construction fails.
    pub fn deploy(
        baseline: BaselineHmd,
        device: DeviceProfile,
        config: ControllerConfig,
        policy: DetectionPolicy,
        seed: u64,
    ) -> Result<DetectionEnclave, EnclaveError> {
        let controller = AdaptiveVoltageController::new(device, config)?;
        let detector = StochasticHmd::from_baseline(
            &baseline,
            controller.delivered_error_rate().clamp(0.0, 1.0),
            seed,
        )?;
        Ok(DetectionEnclave {
            controller,
            baseline,
            detector,
            policy,
            voltage: CoreVoltageState::new(),
            detections: 0,
            reseeds: 0,
        })
    }

    /// The guarded voltage state (for monitoring/assertions).
    pub fn voltage_state(&self) -> CoreVoltageState {
        self.voltage.clone()
    }

    /// The controller (offset, delivered rate, calibration temperature).
    pub fn controller(&self) -> &AdaptiveVoltageController {
        &self.controller
    }

    /// Total detections performed.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Feeds a temperature reading; re-derives the offset and rebuilds the
    /// detector's fault model if the controller adjusted.
    ///
    /// # Errors
    ///
    /// Propagates calibration/fault-model errors.
    pub fn observe_temperature(&mut self, temp_c: f64) -> Result<(), EnclaveError> {
        use shmd_volt::controller::ControllerAction;
        let action = self.controller.observe_temperature(temp_c)?;
        if !matches!(action, ControllerAction::Unchanged) {
            self.reseeds += 1;
            let er = self.controller.delivered_error_rate().clamp(0.0, 1.0);
            // Mix in a reseed counter: consecutive re-calibrations without
            // intervening detections must not replay the same fault stream.
            let seed = self.detections ^ (self.reseeds << 32) ^ 0x7ee;
            self.detector = StochasticHmd::from_baseline(&self.baseline, er, seed)?;
        }
        Ok(())
    }

    /// One policy-aggregated detection, undervolting only for its duration.
    ///
    /// The voltage state is guaranteed nominal again when this returns
    /// (even if a detection panics, via the RAII guard).
    pub fn detect(&mut self, trace: &Trace) -> Label {
        let guard = UndervoltGuard::enter(&self.voltage, self.controller.offset());
        debug_assert!(
            !self.voltage.is_nominal(),
            "undervolt applied during detection"
        );
        self.detections += 1;
        let detector = &mut self.detector;
        let verdict = self.policy.decide(|| detector.classify(trace));
        drop(guard);
        verdict
    }
}

impl fmt::Debug for DetectionEnclave {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetectionEnclave")
            .field("offset", &self.controller.offset())
            .field("policy", &self.policy)
            .field("detections", &self.detections)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train_baseline, HmdTrainConfig};
    use shmd_ml::metrics::ConfusionMatrix;
    use shmd_workload::dataset::{Dataset, DatasetConfig};
    use shmd_workload::features::FeatureSpec;

    fn deploy() -> (Dataset, DetectionEnclave) {
        let dataset = Dataset::generate(&DatasetConfig::small(100), 91);
        let split = dataset.three_fold_split(0);
        let baseline = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("trains");
        let enclave = DetectionEnclave::deploy(
            baseline,
            DeviceProfile::reference(),
            ControllerConfig::default(),
            DetectionPolicy::Single,
            1,
        )
        .expect("deploys");
        (dataset, enclave)
    }

    #[test]
    fn voltage_is_nominal_outside_detection() {
        let (dataset, mut enclave) = deploy();
        let state = enclave.voltage_state();
        assert!(state.is_nominal(), "nominal before any detection");
        for i in 0..10 {
            enclave.detect(dataset.trace(i));
            assert!(
                state.is_nominal(),
                "undervolting leaked outside detection (after trace {i})"
            );
        }
        assert_eq!(enclave.detections(), 10);
    }

    #[test]
    fn enclave_detects_malware() {
        let (dataset, mut enclave) = deploy();
        let split = dataset.three_fold_split(0);
        let mut m = ConfusionMatrix::new();
        for &i in split.testing() {
            m.record(
                enclave.detect(dataset.trace(i)).is_malware(),
                dataset.program(i).is_malware(),
            );
        }
        assert!(m.accuracy() > 0.85, "{m}");
    }

    #[test]
    fn temperature_observation_keeps_working() {
        let (dataset, mut enclave) = deploy();
        let before_offset = enclave.controller().offset();
        enclave.observe_temperature(80.0).expect("recalibrates");
        assert_ne!(enclave.controller().offset(), before_offset);
        // Still detects after the re-calibration.
        let verdict = enclave.detect(dataset.trace(0));
        let _ = verdict;
        assert!(enclave.voltage_state().is_nominal());
    }

    #[test]
    fn guard_restores_voltage_on_panic() {
        let state = CoreVoltageState::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = UndervoltGuard::enter(&state, Millivolts::new(-130));
            assert!(!state.is_nominal());
            panic!("detection crashed");
        }));
        assert!(result.is_err());
        assert!(
            state.is_nominal(),
            "a crashed detection must not leave the core undervolted"
        );
    }

    #[test]
    fn policy_is_applied() {
        let dataset = Dataset::generate(&DatasetConfig::small(100), 92);
        let split = dataset.three_fold_split(0);
        let baseline = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("trains");
        let mut enclave = DetectionEnclave::deploy(
            baseline,
            DeviceProfile::reference(),
            ControllerConfig::default(),
            DetectionPolicy::MajorityOf(3),
            1,
        )
        .expect("deploys");
        // Majority-of-3 performs 3 inner detections per call; just verify
        // it returns a verdict and restores voltage.
        let _ = enclave.detect(dataset.trace(0));
        assert!(enclave.voltage_state().is_nominal());
    }
}
