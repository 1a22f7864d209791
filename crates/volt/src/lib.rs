//! Undervolting-induced timing-fault model for a CPU multiplier datapath.
//!
//! This crate reproduces §II of *Stochastic-HMDs* (DAC 2023): the
//! characterisation of computational faults induced by scaling the supply
//! voltage of an Intel Broadwell core below its nominal level. It provides:
//!
//! - [`voltage`] — voltage newtypes, the nominal operating point, and the
//!   MSR `0x150` offset encoding used to undervolt real Intel parts;
//! - [`delay`] — an alpha-power-law model of gate delay vs. supply voltage,
//!   including temperature dependence;
//! - [`multiplier`] — a per-output-bit timing model of a 64-bit multiplier
//!   (and of the much shallower adder/logic datapaths, which never fault);
//! - [`fault`] — the stochastic fault model and its fault streams: per-bit
//!   flip probabilities, seeded sampling, fault statistics, and the
//!   [`LaneCorruptor`] hook through which the quantised inference kernel
//!   drives one stream or a batch of them;
//! - [`calibration`] — the per-device calibration flow mapping undervolt
//!   offsets to observed error rates (and back);
//! - [`entropy`] — the approximate-entropy test used by the paper to
//!   validate that fault locations are stochastic rather than deterministic;
//! - [`environment`] — a seeded thermal-trace model (ambient drift, load
//!   heating, sensor noise) plus the freeze/crash predicate, so drift and
//!   hang scenarios replay bit-identically;
//! - [`controller`] — the closed-loop undervolting controller that tracks
//!   temperature drift and enforces a guard band above the freeze offset.
//!
//! The paper's key empirical observations are all first-class invariants of
//! this model and are asserted by tests throughout the crate:
//!
//! 1. faults appear between roughly −103 mV and −145 mV depending on the
//!    operands;
//! 2. the sign bit of a product never flips;
//! 3. the 8 least-significant bits of a product never flip;
//! 4. fault locations vary non-deterministically run to run;
//! 5. additions, subtractions, and bit-wise operations never fault;
//! 6. the undervolting level controls the fault magnitude.
//!
//! # Example
//!
//! ```
//! use shmd_volt::fault::{FaultModel, FaultStream};
//!
//! // An abstract error-rate knob, as used by the paper's space exploration:
//! let model = FaultModel::from_error_rate(0.1)?;
//! let mut stream = FaultStream::new(model, 42);
//! let product: i64 = 12345 << 20;
//! let _maybe_faulty = stream.corrupt_product(product);
//! # Ok::<(), shmd_volt::fault::FaultModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod characterize;
pub mod controller;
pub mod delay;
pub mod entropy;
pub mod environment;
pub mod fault;
pub(crate) mod math;
pub mod multiplier;
pub mod voltage;

pub use calibration::{CalibrationCurve, CalibrationError, Calibrator, DeviceProfile};
pub use characterize::{
    sweep_all, sweep_instruction, InstructionKind, SweepConfig, SweepOutcome, SweepResult,
};
pub use controller::{AdaptiveVoltageController, ControllerAction, ControllerConfig};
pub use delay::DelayModel;
pub use environment::{delivered_error_rate_at, freezes_at, EnvironmentConfig, ThermalEnvironment};
pub use fault::{FaultModel, FaultModelError, FaultStats, FaultStream, LaneCorruptor};
pub use multiplier::{AluTimingModel, BitErrorProfile, MultiplierTimingModel};
pub use voltage::{Millivolts, MsrVoltageCommand, VoltagePlane, Volts, NOMINAL_CORE_VOLTAGE};
