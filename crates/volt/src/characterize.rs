//! The §II characterisation experiment as a reusable API.
//!
//! The paper's methodology: "we applied undervolting by reducing the
//! voltage in small steps of 1 mV while repeatedly executing the same
//! instruction with the same operands until a fault or system freeze
//! occurred", for multiplications and then for additions, subtractions,
//! and bit-wise operations (which never faulted).

use crate::fault::{FaultModel, FaultStats, FaultStream};
use crate::multiplier::{AluTimingModel, MultiplierTimingModel, FREEZE_ERROR_RATE};
use crate::voltage::{Millivolts, NOMINAL_CORE_VOLTAGE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The instruction classes the paper characterised.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstructionKind {
    /// 64-bit integer multiplication (the only faulting class).
    Multiply,
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Subtract,
    /// Bit-wise AND/OR/XOR.
    Bitwise,
}

impl InstructionKind {
    /// All characterised instruction classes.
    pub const ALL: [InstructionKind; 4] = [
        InstructionKind::Multiply,
        InstructionKind::Add,
        InstructionKind::Subtract,
        InstructionKind::Bitwise,
    ];
}

impl fmt::Display for InstructionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InstructionKind::Multiply => "mul",
            InstructionKind::Add => "add",
            InstructionKind::Subtract => "sub",
            InstructionKind::Bitwise => "bitwise",
        })
    }
}

/// How a per-instruction undervolting sweep ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepOutcome {
    /// A computational fault was first observed at this offset.
    FaultAt(Millivolts),
    /// The system froze (at the given offset) without the instruction ever
    /// faulting.
    FrozeAt(Millivolts),
}

/// One instruction class's sweep result.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepResult {
    /// The instruction class swept.
    pub kind: InstructionKind,
    /// How the sweep ended.
    pub outcome: SweepOutcome,
    /// Fault statistics accumulated during the sweep (multiplies only).
    pub stats: FaultStats,
}

/// Configuration of a characterisation sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepConfig {
    /// Repetitions of the instruction at each voltage step.
    pub reps_per_step: u32,
    /// Sweep step in mV (the paper uses 1).
    pub step_mv: i32,
    /// RNG seed for operands and fault draws.
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            reps_per_step: 10_000,
            step_mv: 1,
            seed: 0,
        }
    }
}

/// Runs the paper's per-instruction sweep on the timing model.
///
/// Multiplications fault somewhere in the −103…−145 mV window; adds,
/// subtracts, and bit-wise operations ride all the way to the freeze
/// offset untouched.
///
/// # Panics
///
/// Panics if `config.step_mv` is not positive (the sweep would never
/// terminate).
pub fn sweep_instruction(kind: InstructionKind, config: &SweepConfig) -> SweepResult {
    assert!(config.step_mv > 0, "sweep step must be positive");
    let timing = MultiplierTimingModel::broadwell_2_2ghz();
    let alu = AluTimingModel::broadwell_2_2ghz();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xc4a2);
    let a: u64 = rng.gen();
    let b: u64 = rng.gen();
    let mut stats = FaultStats {
        bit_flips: vec![0; 64],
        ..FaultStats::default()
    };

    let mut mv = 0i32;
    loop {
        let offset = Millivolts::new(mv);
        let vdd = NOMINAL_CORE_VOLTAGE.with_offset(offset);
        // System freeze is governed by the deepest datapath (the
        // multiplier): once its mean error rate crosses the freeze
        // threshold the machine hangs regardless of what we are sweeping.
        if timing.mean_error_rate(vdd) >= FREEZE_ERROR_RATE {
            return SweepResult {
                kind,
                outcome: SweepOutcome::FrozeAt(offset),
                stats,
            };
        }
        match kind {
            InstructionKind::Multiply => {
                let model = FaultModel::at_voltage_for_operands(&timing, vdd, a, b)
                    .expect("valid probabilities");
                let mut injector = FaultStream::new(model, rng.gen());
                let product = a.wrapping_mul(b);
                let mut faulted = false;
                for _ in 0..config.reps_per_step {
                    if injector.corrupt_unsigned(product) != product {
                        faulted = true;
                    }
                }
                stats.merge(&injector.stats());
                if faulted {
                    return SweepResult {
                        kind,
                        outcome: SweepOutcome::FaultAt(offset),
                        stats,
                    };
                }
            }
            InstructionKind::Add | InstructionKind::Subtract | InstructionKind::Bitwise => {
                // The shallow ALU path: sample its violation probability
                // directly.
                let p = alu.violation_probability(vdd);
                let mut faulted = false;
                for _ in 0..config.reps_per_step {
                    if rng.gen::<f64>() < p {
                        faulted = true;
                    }
                }
                if faulted {
                    return SweepResult {
                        kind,
                        outcome: SweepOutcome::FaultAt(offset),
                        stats,
                    };
                }
            }
        }
        mv -= config.step_mv;
    }
}

/// Sweeps every instruction class.
pub fn sweep_all(config: &SweepConfig) -> Vec<SweepResult> {
    InstructionKind::ALL
        .iter()
        .map(|&kind| sweep_instruction(kind, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config(seed: u64) -> SweepConfig {
        SweepConfig {
            reps_per_step: 2_000,
            step_mv: 1,
            seed,
        }
    }

    #[test]
    fn multiplication_faults_in_the_paper_window() {
        let result = sweep_instruction(InstructionKind::Multiply, &fast_config(1));
        match result.outcome {
            SweepOutcome::FaultAt(offset) => {
                assert!(
                    (-150..=-95).contains(&offset.get()),
                    "mul faulted at {offset} (paper: −103…−145 mV)"
                );
            }
            SweepOutcome::FrozeAt(offset) => {
                panic!("multiplication should fault before freezing (froze at {offset})")
            }
        }
        assert!(result.stats.faulty > 0);
    }

    #[test]
    fn alu_instructions_never_fault() {
        // Paper §II: "we tried undervolting addition, subtraction, and
        // bit-wise operations, but no faults were observed."
        for kind in [
            InstructionKind::Add,
            InstructionKind::Subtract,
            InstructionKind::Bitwise,
        ] {
            let result = sweep_instruction(kind, &fast_config(2));
            assert!(
                matches!(result.outcome, SweepOutcome::FrozeAt(_)),
                "{kind} faulted before freeze: {:?}",
                result.outcome
            );
        }
    }

    #[test]
    fn operand_dependence_shifts_the_first_fault() {
        // Different operand sets fault at different offsets ("depending on
        // inputs").
        let offsets: std::collections::HashSet<i32> = (0..8)
            .filter_map(|seed| {
                match sweep_instruction(InstructionKind::Multiply, &fast_config(seed)).outcome {
                    SweepOutcome::FaultAt(o) => Some(o.get()),
                    SweepOutcome::FrozeAt(_) => None,
                }
            })
            .collect();
        assert!(
            offsets.len() > 1,
            "operand variation should spread first-fault offsets: {offsets:?}"
        );
    }

    #[test]
    fn sweep_all_covers_every_kind() {
        let results = sweep_all(&fast_config(3));
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].kind, InstructionKind::Multiply);
    }

    #[test]
    #[should_panic(expected = "sweep step must be positive")]
    fn zero_step_panics_instead_of_hanging() {
        let cfg = SweepConfig {
            step_mv: 0,
            ..fast_config(1)
        };
        let _ = sweep_instruction(InstructionKind::Add, &cfg);
    }

    #[test]
    fn display_names() {
        assert_eq!(InstructionKind::Multiply.to_string(), "mul");
        assert_eq!(InstructionKind::Bitwise.to_string(), "bitwise");
    }
}
