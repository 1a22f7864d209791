//! The shell every `*_bench` binary shares: the `--check`/`--out` flags on
//! top of [`Args`], writing the JSON document and reporting gate failures.
//!
//! A bench binary measures, prints its table, renders its document and
//! returns what [`BenchRun::finish`] returns, handing it the document and
//! the messages of the gates its result failed. Each bench module owns its
//! gates as one pure function, `failures`, which lists them in its doc;
//! the serial-vs-threaded identity verdicts are among them, computed in
//! the run itself against a serial side ([`crate::replay`]). Gates count
//! only under `--check`: there each failure prints `FAIL: …` and the run
//! exits 1; without it `finish` only writes the document.

use crate::cli::{Args, USAGE};
use std::fmt::Display;
use std::io::Write;
use std::process::ExitCode;

/// One bench binary's run: its flags.
#[derive(Debug)]
pub struct BenchRun {
    /// The experiment flags (`--seed`, `--threads`, the scale).
    pub args: Args,
    check: bool,
    out: String,
}

impl BenchRun {
    /// Parses `std::env::args()`, writing to `default_out` unless `--out`
    /// says otherwise; exits 2 with the usage string on malformed flags.
    pub fn from_env(default_out: &str) -> BenchRun {
        match BenchRun::try_from_iter(default_out, std::env::args().skip(1)) {
            Ok(run) => run,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!("{USAGE}  --check  --out PATH");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list: `--check` and `--out PATH` here,
    /// everything else through [`Args::try_from_iter`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed flag.
    pub fn try_from_iter<I: IntoIterator<Item = String>>(
        default_out: &str,
        args: I,
    ) -> Result<BenchRun, String> {
        let mut check = false;
        let mut out = default_out.to_string();
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--check" => check = true,
                "--out" => out = it.next().ok_or("--out needs a path")?,
                "--help" | "-h" => {
                    println!("{USAGE}  --check  --out PATH");
                    std::process::exit(0);
                }
                _ => rest.push(flag),
            }
        }
        Ok(BenchRun {
            args: Args::try_from_iter(rest)?,
            check,
            out,
        })
    }

    /// Ends the run and returns the process's exit code. Writes `doc` to
    /// the output path, failing if it cannot. Under `--check` it then
    /// prints each of `failures` as `FAIL: …` and fails if there were any;
    /// otherwise it prints `check passed: {passed}`.
    pub fn finish(self, doc: &str, failures: Vec<String>, passed: &str) -> ExitCode {
        self.finish_to(
            doc,
            &failures,
            passed,
            &mut std::io::stdout(),
            &mut std::io::stderr(),
        )
    }

    /// [`BenchRun::finish`], printing to `out` and `err`.
    fn finish_to(
        &self,
        doc: &str,
        failures: &[String],
        passed: &str,
        out: &mut impl Write,
        err: &mut impl Write,
    ) -> ExitCode {
        // Printing is best-effort: a closed pipe must not change the verdict.
        if let Err(e) = std::fs::write(&self.out, doc) {
            let _ = writeln!(err, "error: cannot write {}: {e}", self.out);
            return ExitCode::FAILURE;
        }
        let _ = writeln!(out, "wrote {}", self.out);
        if !self.check {
            return ExitCode::SUCCESS;
        }
        for msg in failures {
            let _ = writeln!(err, "FAIL: {msg}");
        }
        if !failures.is_empty() {
            return ExitCode::FAILURE;
        }
        let _ = writeln!(out, "check passed: {passed}");
        ExitCode::SUCCESS
    }
}

/// The messages of the gates that failed, each after `prefix`: a gate is
/// `None` when it passed and its message when it failed. Each bench
/// module's `failures` names a point once, as the prefix of its gates.
pub fn failed<M: Display>(
    prefix: String,
    gates: impl IntoIterator<Item = Option<M>>,
) -> impl Iterator<Item = String> {
    gates
        .into_iter()
        .flatten()
        .map(move |msg| format!("{prefix}{msg}"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cli::Scale;
    use stochastic_hmd::TempJournal;

    /// One gate's test case: how to violate a passing result, and the
    /// message that gate must then give.
    pub(crate) type Violation<T> = (fn(&mut T), &'static str);

    /// Asserts that `passing` fails no gate of `failures`, and that each
    /// case's violation of `passing` fails exactly one gate, with exactly
    /// the case's message.
    pub(crate) fn each_gate_fails_alone<T: Clone>(
        passing: &T,
        failures: impl Fn(&T) -> Vec<String>,
        cases: &[Violation<T>],
    ) {
        assert_eq!(failures(passing), Vec::<String>::new());
        for (violate, want) in cases {
            let mut result = passing.clone();
            violate(&mut result);
            assert_eq!(failures(&result), vec![want.to_string()]);
        }
    }

    #[test]
    fn failed_keeps_only_failed_gates_each_after_the_prefix() {
        let gates = [Some("a"), None, Some("b")];
        let got: Vec<String> = failed("x: ".to_string(), gates).collect();
        assert_eq!(got, ["x: a", "x: b"]);
    }

    fn run(args: &[&str]) -> Result<BenchRun, String> {
        BenchRun::try_from_iter("BENCH_X.json", args.iter().map(|s| s.to_string()))
    }

    /// Ends a run with `flags` through [`BenchRun::finish_to`]; returns its
    /// exit code, what it printed to stdout and to stderr.
    fn end(flags: &[&str], out: &str, failures: &[&str]) -> (ExitCode, String, String) {
        let mut flags = flags.to_vec();
        flags.extend(["--out", out]);
        let failures: Vec<String> = failures.iter().map(|f| f.to_string()).collect();
        let (mut stdout, mut stderr) = (Vec::new(), Vec::new());
        let code =
            run(&flags)
                .unwrap()
                .finish_to("{}\n", &failures, "all good", &mut stdout, &mut stderr);
        let text = |bytes| String::from_utf8(bytes).unwrap();
        (code, text(stdout), text(stderr))
    }

    #[test]
    fn only_a_checked_failure_or_an_unwritable_document_fails_the_run() {
        let path = TempJournal::new("bench-report");
        let out = path.to_str().unwrap();
        let written = || std::fs::read_to_string(&path).unwrap();
        // Without --check, gates do not count.
        let (code, stdout, stderr) = end(&[], out, &["x: too slow"]);
        assert_eq!(code, ExitCode::SUCCESS);
        assert_eq!(stdout, format!("wrote {out}\n"));
        assert_eq!(stderr, "");
        assert_eq!(written(), "{}\n");
        std::fs::remove_file(&path).unwrap();
        // With it, each failed gate prints and fails the run.
        let (code, _, stderr) = end(&["--check"], out, &["x: too slow", "y: diverged"]);
        assert_eq!(code, ExitCode::FAILURE);
        assert_eq!(stderr, "FAIL: x: too slow\nFAIL: y: diverged\n");
        assert_eq!(written(), "{}\n");
        let (code, stdout, stderr) = end(&["--check"], out, &[]);
        assert_eq!(code, ExitCode::SUCCESS);
        assert_eq!(stdout, format!("wrote {out}\ncheck passed: all good\n"));
        assert_eq!(stderr, "");
        // A document that cannot be written fails even without --check.
        let unwritable = format!("{out}/no-such-dir/doc.json");
        let (code, stdout, stderr) = end(&[], &unwritable, &[]);
        assert_eq!(code, ExitCode::FAILURE);
        assert_eq!(stdout, "");
        assert!(
            stderr.starts_with(&format!("error: cannot write {unwritable}: ")),
            "{stderr}"
        );
    }

    #[test]
    fn bench_flags_sit_on_top_of_the_experiment_flags() {
        let r = run(&["--fast", "--check", "--threads", "8", "--out", "o.json"]).unwrap();
        assert!(r.check);
        assert_eq!(r.out, "o.json");
        assert_eq!(r.args.scale, Scale::Fast);
        assert_eq!(r.args.threads, Some(8));
        let r = run(&[]).unwrap();
        assert!(!r.check);
        assert_eq!(r.out, "BENCH_X.json");
        assert!(run(&["--out"]).unwrap_err().contains("--out needs a path"));
        assert!(run(&["--scaling-floor", "2"])
            .unwrap_err()
            .contains("unknown flag"));
    }
}
