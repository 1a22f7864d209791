//! Voltage newtypes and the Intel MSR `0x150` offset encoding.
//!
//! Undervolting on Intel parts is performed by writing a signed offset into
//! the voltage-plane control MSR `0x150` (see Plundervolt, S&P 2020). The
//! [`MsrVoltageCommand`] type reproduces that encoding bit-for-bit so that a
//! deployment of Stochastic-HMDs could drive real hardware with values
//! produced by this crate's calibration flow.

use std::fmt;

/// The nominal core supply voltage of the paper's i7-5557U at 2.2 GHz.
pub const NOMINAL_CORE_VOLTAGE: Volts = Volts(1.18);

/// A supply voltage in volts.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct Volts(pub f64);

impl Volts {
    /// Returns the voltage as a plain `f64` in volts.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Applies a (typically negative) millivolt offset.
    ///
    /// # Example
    ///
    /// ```
    /// use shmd_volt::voltage::{Millivolts, NOMINAL_CORE_VOLTAGE};
    /// let undervolted = NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(-130));
    /// assert!((undervolted.as_f64() - 1.05).abs() < 1e-9);
    /// ```
    #[inline]
    pub fn with_offset(self, offset: Millivolts) -> Volts {
        Volts(self.0 + f64::from(offset.get()) / 1000.0)
    }
}

impl fmt::Display for Volts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} V", self.0)
    }
}

/// A voltage offset in millivolts. Negative values undervolt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Millivolts(i32);

impl Millivolts {
    /// Creates an offset; negative values scale the supply voltage down.
    #[inline]
    pub const fn new(mv: i32) -> Millivolts {
        Millivolts(mv)
    }

    /// Returns the offset in millivolts.
    #[inline]
    pub const fn get(self) -> i32 {
        self.0
    }

    /// Returns `true` for offsets that lower the supply voltage.
    #[inline]
    pub const fn is_undervolt(self) -> bool {
        self.0 < 0
    }
}

impl fmt::Display for Millivolts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} mV", self.0)
    }
}

impl From<i32> for Millivolts {
    fn from(mv: i32) -> Millivolts {
        Millivolts(mv)
    }
}

/// The voltage planes addressable through MSR `0x150`.
///
/// The paper sets the plane index to 0 (the CPU core plane) "to scale the
/// core's voltage exclusively".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum VoltagePlane {
    /// CPU core plane (index 0) — the plane the paper undervolts.
    CpuCore = 0,
    /// Integrated GPU plane (index 1).
    Gpu = 1,
    /// CPU cache/ring plane (index 2).
    Cache = 2,
    /// System agent / uncore plane (index 3).
    Uncore = 3,
    /// Analog I/O plane (index 4).
    AnalogIo = 4,
}

impl VoltagePlane {
    /// All planes, in MSR index order.
    pub const ALL: [VoltagePlane; 5] = [
        VoltagePlane::CpuCore,
        VoltagePlane::Gpu,
        VoltagePlane::Cache,
        VoltagePlane::Uncore,
        VoltagePlane::AnalogIo,
    ];

    /// The plane index as encoded in MSR `0x150` bits 40–42.
    #[inline]
    pub const fn index(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for VoltagePlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            VoltagePlane::CpuCore => "cpu-core",
            VoltagePlane::Gpu => "gpu",
            VoltagePlane::Cache => "cache",
            VoltagePlane::Uncore => "uncore",
            VoltagePlane::AnalogIo => "analog-io",
        };
        f.write_str(name)
    }
}

/// Error returned when an MSR voltage command cannot be built or parsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParseMsrCommandError {
    /// The offset exceeds the 11-bit signed range of the MSR encoding.
    OffsetOutOfRange(i32),
    /// The fixed identifier bits (63, 36–39) do not match a voltage command.
    NotAVoltageCommand(u64),
    /// The plane index field holds a value with no architectural plane.
    UnknownPlane(u8),
}

impl fmt::Display for ParseMsrCommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseMsrCommandError::OffsetOutOfRange(mv) => {
                write!(f, "offset {mv} mV exceeds the 11-bit signed MSR range")
            }
            ParseMsrCommandError::NotAVoltageCommand(raw) => {
                write!(f, "value {raw:#018x} is not an MSR 0x150 voltage command")
            }
            ParseMsrCommandError::UnknownPlane(idx) => {
                write!(f, "plane index {idx} has no architectural voltage plane")
            }
        }
    }
}

impl std::error::Error for ParseMsrCommandError {}

/// A write command for the undocumented Intel voltage-offset MSR `0x150`.
///
/// Layout (per the Plundervolt reverse engineering):
///
/// ```text
/// bit 63        : 1 (command valid)
/// bits 40..=42  : plane index
/// bit 36        : 1 = write, 0 = read
/// bits 21..=31  : signed offset in units of 1/1.024 mV (1024 steps per volt)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MsrVoltageCommand {
    plane: VoltagePlane,
    offset: Millivolts,
}

impl MsrVoltageCommand {
    /// The architectural MSR address.
    pub const MSR_ADDRESS: u32 = 0x150;

    /// Largest offset magnitude representable in the 11-bit signed field.
    pub const MAX_OFFSET_MV: i32 = 999;

    /// Builds a write command for `plane` with the given millivolt offset.
    ///
    /// # Errors
    ///
    /// Returns [`ParseMsrCommandError::OffsetOutOfRange`] when the offset
    /// does not fit the encoding.
    pub fn new(
        plane: VoltagePlane,
        offset: Millivolts,
    ) -> Result<MsrVoltageCommand, ParseMsrCommandError> {
        if offset
            .get()
            .checked_abs()
            .is_none_or(|a| a > Self::MAX_OFFSET_MV)
        {
            return Err(ParseMsrCommandError::OffsetOutOfRange(offset.get()));
        }
        Ok(MsrVoltageCommand { plane, offset })
    }

    /// The target voltage plane.
    #[inline]
    pub fn plane(self) -> VoltagePlane {
        self.plane
    }

    /// The requested offset.
    #[inline]
    pub fn offset(self) -> Millivolts {
        self.offset
    }

    /// Encodes the command as the raw 64-bit MSR value.
    pub fn encode(self) -> u64 {
        // Offset is expressed in 1/1024-volt steps, rounded to nearest.
        let steps = (f64::from(self.offset.get()) * 1.024).round() as i32;
        let field = (steps as u32) & 0x7ff; // 11-bit two's complement
        (1u64 << 63)
            | (u64::from(self.plane.index()) << 40)
            | (1u64 << 36)
            | (u64::from(field) << 21)
    }

    /// Decodes a raw MSR value back into a command.
    ///
    /// # Errors
    ///
    /// Returns an error if the fixed bits do not identify a write command or
    /// the plane index is unknown.
    pub fn decode(raw: u64) -> Result<MsrVoltageCommand, ParseMsrCommandError> {
        if raw >> 63 != 1 || (raw >> 36) & 1 != 1 {
            return Err(ParseMsrCommandError::NotAVoltageCommand(raw));
        }
        let plane_idx = ((raw >> 40) & 0x7) as u8;
        let plane = VoltagePlane::ALL
            .into_iter()
            .find(|p| p.index() == plane_idx)
            .ok_or(ParseMsrCommandError::UnknownPlane(plane_idx))?;
        // Sign-extend the 11-bit field.
        let field = ((raw >> 21) & 0x7ff) as i32;
        let steps = if field & 0x400 != 0 {
            field - 0x800
        } else {
            field
        };
        let mv = (f64::from(steps) / 1.024).round() as i32;
        Ok(MsrVoltageCommand {
            plane,
            offset: Millivolts::new(mv),
        })
    }
}

impl fmt::Display for MsrVoltageCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wrmsr 0x150 {:#018x}  ({} plane, {})",
            self.encode(),
            self.plane,
            self.offset
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nominal_voltage_matches_paper() {
        assert_eq!(NOMINAL_CORE_VOLTAGE.as_f64(), 1.18);
    }

    #[test]
    fn offset_application() {
        let v = Volts(1.0).with_offset(Millivolts::new(-250));
        assert!((v.as_f64() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn plane_indices_are_architectural() {
        assert_eq!(VoltagePlane::CpuCore.index(), 0);
        assert_eq!(VoltagePlane::AnalogIo.index(), 4);
    }

    #[test]
    fn msr_round_trip_paper_offset() {
        let cmd =
            MsrVoltageCommand::new(VoltagePlane::CpuCore, Millivolts::new(-130)).expect("valid");
        let decoded = MsrVoltageCommand::decode(cmd.encode()).expect("decodable");
        assert_eq!(decoded.plane(), VoltagePlane::CpuCore);
        assert_eq!(decoded.offset(), Millivolts::new(-130));
    }

    #[test]
    fn msr_encode_sets_fixed_bits() {
        let cmd = MsrVoltageCommand::new(VoltagePlane::Cache, Millivolts::new(-50)).expect("valid");
        let raw = cmd.encode();
        assert_eq!(raw >> 63, 1, "command-valid bit");
        assert_eq!((raw >> 36) & 1, 1, "write bit");
        assert_eq!((raw >> 40) & 0x7, 2, "plane index");
    }

    #[test]
    fn msr_rejects_out_of_range_offset() {
        let err = MsrVoltageCommand::new(VoltagePlane::CpuCore, Millivolts::new(-1500))
            .expect_err("should reject");
        assert_eq!(err, ParseMsrCommandError::OffsetOutOfRange(-1500));
    }

    #[test]
    fn msr_rejects_i32_min_without_overflow() {
        // Regression: abs() of i32::MIN overflows; must be a clean error.
        let err = MsrVoltageCommand::new(VoltagePlane::CpuCore, Millivolts::new(i32::MIN))
            .expect_err("should reject");
        assert_eq!(err, ParseMsrCommandError::OffsetOutOfRange(i32::MIN));
    }

    #[test]
    fn msr_decode_rejects_garbage() {
        assert!(matches!(
            MsrVoltageCommand::decode(0),
            Err(ParseMsrCommandError::NotAVoltageCommand(0))
        ));
    }

    #[test]
    fn msr_decode_rejects_unknown_plane() {
        let raw = (1u64 << 63) | (6u64 << 40) | (1u64 << 36);
        assert_eq!(
            MsrVoltageCommand::decode(raw),
            Err(ParseMsrCommandError::UnknownPlane(6))
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Millivolts::new(-130)), "-130 mV");
        assert_eq!(format!("{}", Volts(1.18)), "1.180 V");
        assert_eq!(format!("{}", VoltagePlane::CpuCore), "cpu-core");
    }

    proptest! {
        #[test]
        fn msr_round_trips_all_offsets(mv in -999i32..=999, plane_idx in 0u8..5) {
            let plane = VoltagePlane::ALL[plane_idx as usize];
            let cmd = MsrVoltageCommand::new(plane, Millivolts::new(mv)).unwrap();
            let decoded = MsrVoltageCommand::decode(cmd.encode()).unwrap();
            prop_assert_eq!(decoded.plane(), plane);
            // 1/1.024 mV quantisation may shift by at most 1 mV.
            prop_assert!((decoded.offset().get() - mv).abs() <= 1);
        }
    }
}
