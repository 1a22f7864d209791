//! Minimal flag parsing shared by all experiment binaries.

use stochastic_hmd::exec::ExecConfig;

pub(crate) const USAGE: &str = "flags: --seed N  --reps N  --threads N  --paper  --fast";

/// Dataset scale selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny smoke-test dataset (~120 programs).
    Fast,
    /// Default medium dataset (~720 programs) — minutes, not hours.
    Medium,
    /// The paper's full 3 000 + 600 dataset.
    Paper,
}

impl Scale {
    /// The scale's name as bench documents record it.
    pub fn name(self) -> &'static str {
        self.pick("fast", "medium", "paper")
    }

    /// The value of `fast`, `medium` or `paper` for this scale.
    pub fn pick<T>(self, fast: T, medium: T, paper: T) -> T {
        match self {
            Scale::Fast => fast,
            Scale::Medium => medium,
            Scale::Paper => paper,
        }
    }
}

/// Parsed command-line arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Args {
    /// Master seed.
    pub seed: u64,
    /// Stochastic repetitions (`None`: experiment default).
    pub reps: Option<usize>,
    /// Worker threads (`None`: one per hardware thread). Results are
    /// bit-identical at any thread count.
    pub threads: Option<usize>,
    /// Dataset scale.
    pub scale: Scale,
}

impl Args {
    /// Parses `std::env::args()`, exiting with a usage message on
    /// malformed flags.
    pub fn parse() -> Args {
        match Args::try_from_iter(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list (testable).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags (tests); binaries
    /// should use [`Args::parse`], which exits cleanly instead.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Args {
        match Args::try_from_iter(args) {
            Ok(args) => args,
            Err(msg) => panic!("{msg}"),
        }
    }

    /// Parses an explicit argument list, reporting malformed flags as a
    /// message rather than panicking.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed flag.
    pub fn try_from_iter<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut out = Args {
            seed: 42,
            reps: None,
            threads: None,
            scale: Scale::Medium,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    out.seed = v
                        .parse()
                        .map_err(|_| format!("--seed expects an integer, got {v}"))?;
                }
                "--reps" => {
                    let v = it.next().ok_or("--reps needs a value")?;
                    out.reps = Some(
                        v.parse()
                            .map_err(|_| format!("--reps expects an integer, got {v}"))?,
                    );
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    out.threads = Some(
                        v.parse()
                            .map_err(|_| format!("--threads expects an integer, got {v}"))?,
                    );
                }
                "--paper" => out.scale = Scale::Paper,
                "--fast" => out.scale = Scale::Fast,
                "--help" | "-h" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}; try --help")),
            }
        }
        Ok(out)
    }

    /// The execution configuration from `--threads` (auto-sized when the
    /// flag is absent).
    pub fn exec(&self) -> ExecConfig {
        ExecConfig::from_flag(self.threads)
    }

    /// Repetitions to use, given an experiment default.
    pub fn reps_or(&self, default: usize) -> usize {
        self.reps.unwrap_or(match self.scale {
            Scale::Fast => default.div_ceil(10),
            _ => default,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse_from(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.seed, 42);
        assert_eq!(a.reps, None);
        assert_eq!(a.scale, Scale::Medium);
    }

    #[test]
    fn parses_flags() {
        let a = parse(&["--seed", "7", "--reps", "3", "--threads", "2", "--paper"]);
        assert_eq!(a.seed, 7);
        assert_eq!(a.reps, Some(3));
        assert_eq!(a.threads, Some(2));
        assert_eq!(a.exec().thread_count(), 2);
        assert_eq!(a.scale, Scale::Paper);
    }

    #[test]
    fn threads_default_to_auto() {
        let a = parse(&[]);
        assert_eq!(a.threads, None);
        assert!(a.exec().thread_count() >= 1);
    }

    #[test]
    fn scale_names_and_picks() {
        assert_eq!(Scale::Fast.name(), "fast");
        assert_eq!(Scale::Medium.name(), "medium");
        assert_eq!(Scale::Paper.pick(1, 2, 3), 3);
    }

    #[test]
    fn fast_scales_down_default_reps() {
        let a = parse(&["--fast"]);
        assert_eq!(a.reps_or(50), 5);
        let b = parse(&[]);
        assert_eq!(b.reps_or(50), 50);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown_flags() {
        let _ = parse(&["--bogus"]);
    }

    #[test]
    fn try_from_iter_reports_errors_without_panicking() {
        let err = Args::try_from_iter(["--seed".to_string()]).unwrap_err();
        assert!(err.contains("--seed needs a value"));
        let err = Args::try_from_iter(["--reps".to_string(), "abc".to_string()]).unwrap_err();
        assert!(err.contains("expects an integer"));
        let err = Args::try_from_iter(["--bogus".to_string()]).unwrap_err();
        assert!(err.contains("unknown flag"));
    }
}
