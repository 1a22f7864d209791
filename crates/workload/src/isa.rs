//! Instruction categories, modelled on Intel's instruction sub-groups.
//!
//! The paper's features count executed instructions per category, "based on
//! Intel's sub-grouping of instructions, e.g., binary arithmetic, control
//! transfer, and system instructions sub-groups".

use std::fmt;

/// An instruction category (Intel SDM sub-group granularity).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum InsnCategory {
    /// ADD/SUB/MUL/DIV and friends.
    BinaryArithmetic = 0,
    /// AND/OR/XOR/NOT.
    Logical = 1,
    /// SHL/SHR/ROL/ROR.
    ShiftRotate = 2,
    /// BT/BSF/SETcc — bit and byte instructions.
    BitByte = 3,
    /// MOV/CMOV/XCHG — data transfer.
    DataTransfer = 4,
    /// JMP/Jcc/CALL/RET — control transfer.
    ControlTransfer = 5,
    /// MOVS/CMPS/SCAS — string operations.
    StringOp = 6,
    /// CLC/STC/PUSHF — flag control.
    FlagControl = 7,
    /// LDS/LES and segment-register moves.
    SegmentRegister = 8,
    /// PUSH/POP/ENTER/LEAVE — stack manipulation.
    Stack = 9,
    /// SSE/AVX vector instructions.
    Simd = 10,
    /// x87/scalar floating point.
    FloatingPoint = 11,
    /// CPUID/RDMSR/syscall entry — system instructions.
    System = 12,
    /// IN/OUT and port I/O.
    Io = 13,
    /// LOCK-prefixed and fence instructions.
    Synchronization = 14,
    /// NOP/prefetch/everything else.
    Misc = 15,
}

/// Number of instruction categories.
pub const CATEGORY_COUNT: usize = 16;

impl InsnCategory {
    /// All categories in index order.
    pub const ALL: [InsnCategory; CATEGORY_COUNT] = [
        InsnCategory::BinaryArithmetic,
        InsnCategory::Logical,
        InsnCategory::ShiftRotate,
        InsnCategory::BitByte,
        InsnCategory::DataTransfer,
        InsnCategory::ControlTransfer,
        InsnCategory::StringOp,
        InsnCategory::FlagControl,
        InsnCategory::SegmentRegister,
        InsnCategory::Stack,
        InsnCategory::Simd,
        InsnCategory::FloatingPoint,
        InsnCategory::System,
        InsnCategory::Io,
        InsnCategory::Synchronization,
        InsnCategory::Misc,
    ];

    /// The category's dense index in `0..CATEGORY_COUNT`.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The category with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= CATEGORY_COUNT`.
    pub fn from_index(index: usize) -> InsnCategory {
        InsnCategory::ALL[index]
    }

    /// A short mnemonic name.
    pub fn name(self) -> &'static str {
        match self {
            InsnCategory::BinaryArithmetic => "binarith",
            InsnCategory::Logical => "logical",
            InsnCategory::ShiftRotate => "shift",
            InsnCategory::BitByte => "bitbyte",
            InsnCategory::DataTransfer => "dataxfer",
            InsnCategory::ControlTransfer => "ctrlxfer",
            InsnCategory::StringOp => "string",
            InsnCategory::FlagControl => "flag",
            InsnCategory::SegmentRegister => "segment",
            InsnCategory::Stack => "stack",
            InsnCategory::Simd => "simd",
            InsnCategory::FloatingPoint => "float",
            InsnCategory::System => "system",
            InsnCategory::Io => "io",
            InsnCategory::Synchronization => "sync",
            InsnCategory::Misc => "misc",
        }
    }
}

impl fmt::Display for InsnCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_round_trip() {
        for (i, cat) in InsnCategory::ALL.iter().enumerate() {
            assert_eq!(cat.index(), i);
            assert_eq!(InsnCategory::from_index(i), *cat);
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<&str> =
            InsnCategory::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), CATEGORY_COUNT);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(InsnCategory::System.to_string(), "system");
    }

    #[test]
    #[should_panic]
    fn from_index_out_of_range_panics() {
        let _ = InsnCategory::from_index(CATEGORY_COUNT);
    }
}
