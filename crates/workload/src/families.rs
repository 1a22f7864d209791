//! Program families and their characteristic instruction mixes.
//!
//! The dataset's malware families are the paper's five MalwareDB types;
//! the benign families are its four application classes. Each family's
//! base profile is a plausibility-driven instruction-category distribution:
//! malware leans on control transfer (obfuscated/indirect flow), system
//! instructions and I/O (payload activity), and string scans; benign code
//! leans on data transfer, arithmetic, and SIMD/FP. The absolute values are
//! synthetic — only the *relative* separability matters for reproducing the
//! paper's detector/attack dynamics.

use crate::isa::CATEGORY_COUNT;
use std::fmt;

/// The five malware types of the paper's dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MalwareFamily {
    /// Remote-access backdoors.
    Backdoor,
    /// Rogue ("fake antivirus") applications.
    Rogue,
    /// Credential-harvesting password stealers.
    PasswordStealer,
    /// Trojan droppers/downloaders.
    Trojan,
    /// Self-propagating worms.
    Worm,
}

impl MalwareFamily {
    /// All malware families.
    pub const ALL: [MalwareFamily; 5] = [
        MalwareFamily::Backdoor,
        MalwareFamily::Rogue,
        MalwareFamily::PasswordStealer,
        MalwareFamily::Trojan,
        MalwareFamily::Worm,
    ];
}

impl fmt::Display for MalwareFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MalwareFamily::Backdoor => "backdoor",
            MalwareFamily::Rogue => "rogue",
            MalwareFamily::PasswordStealer => "password-stealer",
            MalwareFamily::Trojan => "trojan",
            MalwareFamily::Worm => "worm",
        };
        f.write_str(name)
    }
}

/// The benign application classes of the paper's dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BenignFamily {
    /// Web browsers.
    Browser,
    /// Text-editing tools.
    TextEditor,
    /// System programs/utilities.
    SystemUtility,
    /// CPU performance benchmarks.
    CpuBenchmark,
}

impl BenignFamily {
    /// All benign families.
    pub const ALL: [BenignFamily; 4] = [
        BenignFamily::Browser,
        BenignFamily::TextEditor,
        BenignFamily::SystemUtility,
        BenignFamily::CpuBenchmark,
    ];
}

impl fmt::Display for BenignFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BenignFamily::Browser => "browser",
            BenignFamily::TextEditor => "text-editor",
            BenignFamily::SystemUtility => "system-utility",
            BenignFamily::CpuBenchmark => "cpu-benchmark",
        };
        f.write_str(name)
    }
}

/// A program's class: benign application or malware of some family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProgramClass {
    /// A benign application.
    Benign(BenignFamily),
    /// A malware sample.
    Malware(MalwareFamily),
}

impl ProgramClass {
    /// `true` for malware — the positive detection label.
    #[inline]
    pub fn is_malware(self) -> bool {
        matches!(self, ProgramClass::Malware(_))
    }

    /// The family's base instruction-category mix (normalised to sum 1).
    pub fn base_profile(self) -> [f64; CATEGORY_COUNT] {
        // Index order: binarith, logical, shift, bitbyte, dataxfer,
        // ctrlxfer, string, flag, segment, stack, simd, float, system, io,
        // sync, misc.
        let raw: [f64; CATEGORY_COUNT] = match self {
            ProgramClass::Benign(BenignFamily::Browser) => [
                0.12, 0.06, 0.03, 0.03, 0.22, 0.13, 0.03, 0.03, 0.005, 0.09, 0.10, 0.05, 0.015,
                0.005, 0.03, 0.04,
            ],
            ProgramClass::Benign(BenignFamily::TextEditor) => [
                0.10, 0.06, 0.03, 0.04, 0.21, 0.14, 0.08, 0.03, 0.005, 0.10, 0.04, 0.03, 0.015,
                0.005, 0.02, 0.07,
            ],
            ProgramClass::Benign(BenignFamily::SystemUtility) => [
                0.10, 0.07, 0.04, 0.04, 0.19, 0.14, 0.05, 0.03, 0.01, 0.10, 0.03, 0.02, 0.035,
                0.02, 0.03, 0.065,
            ],
            ProgramClass::Benign(BenignFamily::CpuBenchmark) => [
                0.24, 0.06, 0.06, 0.02, 0.16, 0.09, 0.02, 0.02, 0.003, 0.06, 0.13, 0.11, 0.007,
                0.003, 0.02, 0.007,
            ],
            ProgramClass::Malware(MalwareFamily::Backdoor) => [
                0.08, 0.07, 0.04, 0.04, 0.15, 0.20, 0.06, 0.04, 0.015, 0.11, 0.015, 0.01, 0.075,
                0.045, 0.02, 0.04,
            ],
            ProgramClass::Malware(MalwareFamily::Rogue) => [
                0.09, 0.07, 0.04, 0.04, 0.16, 0.19, 0.08, 0.04, 0.01, 0.10, 0.03, 0.02, 0.055,
                0.025, 0.02, 0.03,
            ],
            ProgramClass::Malware(MalwareFamily::PasswordStealer) => [
                0.08, 0.07, 0.04, 0.06, 0.17, 0.17, 0.12, 0.04, 0.01, 0.09, 0.015, 0.01, 0.055,
                0.02, 0.02, 0.03,
            ],
            ProgramClass::Malware(MalwareFamily::Trojan) => [
                0.09, 0.10, 0.06, 0.04, 0.15, 0.19, 0.05, 0.04, 0.015, 0.12, 0.01, 0.01, 0.06,
                0.02, 0.015, 0.03,
            ],
            ProgramClass::Malware(MalwareFamily::Worm) => [
                0.08, 0.07, 0.04, 0.04, 0.15, 0.18, 0.08, 0.04, 0.015, 0.10, 0.015, 0.01, 0.07,
                0.06, 0.02, 0.03,
            ],
        };
        let total: f64 = raw.iter().sum();
        let mut out = raw;
        for v in &mut out {
            *v /= total;
        }
        out
    }

    /// Per-window temporal jitter of the family (malware phases burst more,
    /// which the burstiness feature extractor picks up).
    pub fn burstiness(self) -> f64 {
        match self {
            ProgramClass::Benign(BenignFamily::CpuBenchmark) => 0.08,
            ProgramClass::Benign(_) => 0.15,
            ProgramClass::Malware(_) => 0.30,
        }
    }
}

impl fmt::Display for ProgramClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramClass::Benign(b) => write!(f, "benign/{b}"),
            ProgramClass::Malware(m) => write!(f, "malware/{m}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_classes() -> Vec<ProgramClass> {
        let mut v: Vec<ProgramClass> = BenignFamily::ALL
            .iter()
            .map(|&b| ProgramClass::Benign(b))
            .collect();
        v.extend(MalwareFamily::ALL.iter().map(|&m| ProgramClass::Malware(m)));
        v
    }

    #[test]
    fn profiles_are_distributions() {
        for class in all_classes() {
            let p = class.base_profile();
            let total: f64 = p.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{class}: sums to {total}");
            assert!(p.iter().all(|&v| v > 0.0), "{class}: zero category weight");
        }
    }

    #[test]
    fn profiles_are_pairwise_distinct() {
        let classes = all_classes();
        for i in 0..classes.len() {
            for j in (i + 1)..classes.len() {
                assert_ne!(
                    classes[i].base_profile(),
                    classes[j].base_profile(),
                    "{} and {} share a profile",
                    classes[i],
                    classes[j]
                );
            }
        }
    }

    #[test]
    fn malware_leans_on_system_and_control_flow() {
        use crate::isa::InsnCategory;
        let sys = InsnCategory::System.index();
        let ct = InsnCategory::ControlTransfer.index();
        for &m in &MalwareFamily::ALL {
            let mp = ProgramClass::Malware(m).base_profile();
            for &b in &BenignFamily::ALL {
                let bp = ProgramClass::Benign(b).base_profile();
                assert!(
                    mp[sys] + mp[ct] > bp[sys] + bp[ct] - 0.05,
                    "{m} vs {b}: malware should skew to system/control flow"
                );
            }
        }
    }

    #[test]
    fn labels() {
        assert!(ProgramClass::Malware(MalwareFamily::Worm).is_malware());
        assert!(!ProgramClass::Benign(BenignFamily::Browser).is_malware());
    }

    #[test]
    fn malware_is_burstier_than_benign() {
        for &m in &MalwareFamily::ALL {
            for &b in &BenignFamily::ALL {
                assert!(
                    ProgramClass::Malware(m).burstiness() > ProgramClass::Benign(b).burstiness()
                );
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            ProgramClass::Malware(MalwareFamily::PasswordStealer).to_string(),
            "malware/password-stealer"
        );
        assert_eq!(
            ProgramClass::Benign(BenignFamily::CpuBenchmark).to_string(),
            "benign/cpu-benchmark"
        );
    }
}
