//! Individual programs: a family profile perturbed per sample.

use crate::families::ProgramClass;
use crate::isa::{InsnCategory, CATEGORY_COUNT};
use crate::trace::{Trace, TraceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Log-normal spread of per-program profiles around the family base.
const PROGRAM_PROFILE_SIGMA: f64 = 0.30;

/// Fraction of leading windows spent in the start-up phase.
const STARTUP_FRACTION: f64 = 0.25;

/// Draws a standard normal variate (Box–Muller).
pub(crate) fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A single program of the dataset.
///
/// The program's behaviour profile is its family's base instruction mix
/// perturbed log-normally per sample, so two trojans resemble each other
/// more than a trojan resembles a browser, without being identical.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    id: u32,
    class: ProgramClass,
    seed: u64,
    profile: [f64; CATEGORY_COUNT],
}

impl Program {
    /// Generates a program of the given class.
    ///
    /// Generation is deterministic in `(id, class, seed)`.
    pub fn generate(id: u32, class: ProgramClass, seed: u64) -> Program {
        let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(id) << 32) ^ 0x9e37_79b9_7f4a_7c15);
        let base = class.base_profile();
        let mut profile = [0.0; CATEGORY_COUNT];
        let mut total = 0.0;
        for (p, &b) in profile.iter_mut().zip(&base) {
            *p = b * (PROGRAM_PROFILE_SIGMA * gaussian(&mut rng)).exp();
            total += *p;
        }
        for p in &mut profile {
            *p /= total;
        }
        Program {
            id,
            class,
            seed,
            profile,
        }
    }

    /// The program's identifier within its dataset.
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The program's class.
    #[inline]
    pub fn class(&self) -> ProgramClass {
        self.class
    }

    /// `true` if the program is malware.
    #[inline]
    pub fn is_malware(&self) -> bool {
        self.class.is_malware()
    }

    /// The program's steady-state instruction mix.
    #[inline]
    pub fn profile(&self) -> &[f64; CATEGORY_COUNT] {
        &self.profile
    }

    /// Generates a metamorphic variant of this program.
    ///
    /// Polymorphic/metamorphic malware rewrites its own code so each copy
    /// has a different byte signature (the paper's motivation for dynamic
    /// HMDs over "signature-based static analysis"). The rewritten copy's
    /// *behaviour* stays close to the original: the variant perturbs this
    /// program's profile mildly (half the inter-program spread) under a
    /// variant-specific seed, so its byte-level trace differs while its
    /// instruction mix remains family-typical.
    pub fn variant(&self, generation: u32) -> Program {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ (u64::from(self.id) << 20)
                ^ u64::from(generation).wrapping_mul(0x94d0_49bb_1331_11eb),
        );
        let mut profile = [0.0; CATEGORY_COUNT];
        let mut total = 0.0;
        for (p, &base) in profile.iter_mut().zip(&self.profile) {
            *p = base * (0.5 * PROGRAM_PROFILE_SIGMA * gaussian(&mut rng)).exp();
            total += *p;
        }
        for p in &mut profile {
            *p /= total;
        }
        Program {
            id: self.id ^ (generation << 24),
            class: self.class,
            seed: self.seed ^ u64::from(generation) << 40,
            profile,
        }
    }

    /// Generates the program's execution trace.
    ///
    /// Traces are deterministic: calling this twice returns identical
    /// counts, mirroring the paper's verified-deterministic feature
    /// collection ("we get the exact same trace in every run when we supply
    /// the same input").
    pub fn trace(&self, config: &TraceConfig) -> Trace {
        let mut windows = vec![[0; CATEGORY_COUNT]; config.windows];
        self.trace_windows(config.insns_per_window, &mut windows);
        Trace::from_windows(windows)
    }

    /// Writes [`Program::trace`]'s windows, `insns_per_window` instructions
    /// each, into `windows`, one slot per window; allocation-free.
    pub(crate) fn trace_windows(
        &self,
        insns_per_window: u32,
        windows: &mut [[u32; CATEGORY_COUNT]],
    ) {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ u64::from(self.id).wrapping_mul(0xd134_2543_de82_ef95),
        );
        let startup_windows =
            ((windows.len() as f64 * STARTUP_FRACTION).ceil() as usize).min(windows.len());
        let burst = self.class.burstiness();
        for (w, counts) in windows.iter_mut().enumerate() {
            let in_startup = w < startup_windows;
            let mut weights = [0.0f64; CATEGORY_COUNT];
            let mut total = 0.0;
            for (c, wt) in weights.iter_mut().enumerate() {
                let mut mean = self.profile[c];
                if in_startup {
                    // Start-up: loader activity — extra data transfer, stack
                    // traffic, and system calls, blended 50/50.
                    let loader = startup_boost(c);
                    mean = 0.5 * mean + 0.5 * loader;
                }
                *wt = mean * (burst * gaussian(&mut rng)).exp();
                total += *wt;
            }
            for (count, &wt) in counts.iter_mut().zip(&weights) {
                *count = ((wt / total) * f64::from(insns_per_window)).round() as u32;
            }
        }
    }
}

/// The loader/start-up instruction mix blended into early windows.
fn startup_boost(category: usize) -> f64 {
    let c = InsnCategory::from_index(category);
    match c {
        InsnCategory::DataTransfer => 0.30,
        InsnCategory::Stack => 0.16,
        InsnCategory::System => 0.08,
        InsnCategory::ControlTransfer => 0.14,
        InsnCategory::SegmentRegister => 0.02,
        _ => 0.30 / 11.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{BenignFamily, MalwareFamily};

    fn trojan(id: u32) -> Program {
        Program::generate(id, ProgramClass::Malware(MalwareFamily::Trojan), 7)
    }

    #[test]
    fn profile_is_a_distribution() {
        let p = trojan(0);
        let total: f64 = p.profile().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(p.profile().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(trojan(3), trojan(3));
    }

    #[test]
    fn different_ids_differ() {
        assert_ne!(trojan(1).profile(), trojan(2).profile());
    }

    #[test]
    fn traces_are_deterministic() {
        let p = trojan(5);
        let cfg = TraceConfig::default();
        assert_eq!(
            p.trace(&cfg),
            p.trace(&cfg),
            "paper §IV: deterministic traces"
        );
    }

    #[test]
    fn trace_matches_config() {
        let p = trojan(6);
        let cfg = TraceConfig {
            windows: 5,
            insns_per_window: 1000,
        };
        let t = p.trace(&cfg);
        assert_eq!(t.len(), 5);
        // Rounding keeps totals within ~CATEGORY_COUNT/2 of the target.
        for w in t.windows() {
            let total: u32 = w.iter().sum();
            assert!((990..=1010).contains(&total), "window total {total}");
        }
    }

    #[test]
    fn trace_reflects_profile() {
        let p = Program::generate(9, ProgramClass::Benign(BenignFamily::CpuBenchmark), 11);
        let t = p.trace(&TraceConfig::default());
        let totals = t.total_counts();
        let arith = InsnCategory::BinaryArithmetic.index();
        let io = InsnCategory::Io.index();
        assert!(
            totals[arith] > totals[io] * 5,
            "a CPU benchmark is arithmetic-heavy: {totals:?}"
        );
    }

    #[test]
    fn variants_differ_but_stay_family_typical() {
        let original = trojan(2);
        let v1 = original.variant(1);
        let v2 = original.variant(2);
        assert_ne!(original.profile(), v1.profile(), "variant must differ");
        assert_ne!(v1.profile(), v2.profile(), "generations must differ");
        assert_eq!(v1.class(), original.class());
        // Behaviour stays close: profile distance below the inter-program
        // spread.
        let dist = |a: &[f64; CATEGORY_COUNT], b: &[f64; CATEGORY_COUNT]| -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
        };
        let to_variant = dist(original.profile(), v1.profile());
        let to_other_program = dist(original.profile(), trojan(99).profile());
        assert!(
            to_variant < to_other_program,
            "a variant should resemble its original more than a random sibling: \
             {to_variant} vs {to_other_program}"
        );
    }

    #[test]
    fn variants_are_deterministic() {
        let p = trojan(3);
        assert_eq!(p.variant(5), p.variant(5));
    }

    #[test]
    fn variant_traces_have_different_signatures() {
        // The metamorphic property: the raw trace (a byte-signature stand-in)
        // differs between generations.
        let p = trojan(4);
        let cfg = TraceConfig::default();
        assert_ne!(p.trace(&cfg), p.variant(1).trace(&cfg));
    }

    #[test]
    fn startup_windows_are_loader_heavy() {
        let p = Program::generate(10, ProgramClass::Benign(BenignFamily::TextEditor), 13);
        let cfg = TraceConfig {
            windows: 16,
            insns_per_window: 100_000,
        };
        let t = p.trace(&cfg);
        let dx = InsnCategory::DataTransfer.index();
        let early = Trace::window_frequencies(&t.windows()[0])[dx];
        let late = Trace::window_frequencies(&t.windows()[12])[dx];
        // The startup blend pushes data transfer above steady state (noisy
        // per-window, so compare with slack).
        assert!(early > late * 0.9, "early {early} vs late {late}");
    }
}
