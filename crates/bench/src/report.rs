//! The shell every `*_bench` binary shares: the `--check`/`--out` flags on
//! top of [`Args`], writing the JSON document, reporting gate failures,
//! and the serial-vs-threaded identity check.
//!
//! A bench binary measures, prints its table, renders its document and
//! ends with [`BenchRun::finish`], handing it the document and the
//! messages of the gates its result failed. Each bench module owns its
//! gates as one pure function, `failures`, which lists them in its doc.
//! Gates count only under `--check`: there each failure prints `FAIL: …`
//! and the run exits 1; without it `finish` only writes the document.
//!
//! The identity check re-runs the measurement on one thread, parses both
//! documents with [`stochastic_hmd::json`] and compares every value except
//! `threads`, `timing` and the wall-clock paths the bench module lists next
//! to its `render_json`. Paths are written as in jq: `.results[].serial_qps`
//! is that field in every element of `results`.

use crate::cli::{Args, USAGE};
use std::fmt::Display;
use stochastic_hmd::exec::ExecConfig;
use stochastic_hmd::json::{self, Value};

/// Paths that differ between thread counts in every document.
const THREAD_PATHS: [&str; 2] = [".threads", ".timing"];

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

    /// Ends the run. Writes `doc` to the output path, exiting 1 if it
    /// cannot. Under `--check` it then prints each of `failures` as
    /// `FAIL: …`; on more than one thread it renders the measurement again
    /// through `rerun` on one thread and fails for every value that
    /// differs from `doc` outside `wall_clock`, `threads` and `timing`. It
    /// exits 1 if anything failed, and otherwise prints
    /// `check passed: {passed}`.
    pub fn finish(
        self,
        doc: &str,
        failures: Vec<String>,
        wall_clock: &[&str],
        rerun: impl FnOnce(&ExecConfig) -> String,
        passed: &str,
    ) {
        if let Err(e) = std::fs::write(&self.out, doc) {
            eprintln!("error: cannot write {}: {e}", self.out);
            std::process::exit(1);
        }
        println!("wrote {}", self.out);
        if !self.check {
            return;
        }
        for msg in &failures {
            eprintln!("FAIL: {msg}");
        }
        let threads = self.args.exec().thread_count();
        let mut any_failed = !failures.is_empty();
        if threads > 1 {
            let diffs = compare(doc, &rerun(&ExecConfig::serial()), wall_clock);
            if diffs.is_empty() {
                println!(
                    "serial rerun matches the {threads}-thread document outside wall-clock fields"
                );
            }
            for diff in &diffs {
                eprintln!("FAIL: {threads} threads vs serial rerun: {diff}");
            }
            any_failed |= !diffs.is_empty();
        }
        if any_failed {
            std::process::exit(1);
        }
        println!("check passed: {passed}");
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

/// Compares two bench documents value by value, skipping `threads`,
/// `timing` and `wall_clock`; returns one message per difference, each
/// naming its JSON path.
fn compare(threaded: &str, serial: &str, wall_clock: &[&str]) -> Vec<String> {
    let mut diffs = Vec::new();
    match (json::parse(threaded), json::parse(serial)) {
        (Ok(a), Ok(b)) => diff(&a, &b, "", "", wall_clock, &mut diffs),
        (Err(e), _) => diffs.push(format!("threaded document is not JSON: {e}")),
        (_, Err(e)) => diffs.push(format!("serial document is not JSON: {e}")),
    }
    diffs
}

/// Appends each difference between `a` and `b` to `diffs`. `at` is the
/// concrete path (`.results[3].checksum`); `pattern` is its index-free form
/// (`.results[].checksum`), which is what the skip lists name.
fn diff(a: &Value, b: &Value, at: &str, pattern: &str, skip: &[&str], diffs: &mut Vec<String>) {
    if THREAD_PATHS.contains(&pattern) || skip.contains(&pattern) {
        return;
    }
    let keys =
        |fields: &[(String, Value)]| fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
    match (a, b) {
        (Value::Obj(fa), Value::Obj(fb)) if keys(fa) == keys(fb) => {
            for ((k, x), (_, y)) in fa.iter().zip(fb) {
                let at = format!("{at}.{k}");
                diff(x, y, &at, &format!("{pattern}.{k}"), skip, diffs);
            }
        }
        (Value::Arr(xa), Value::Arr(xb)) if xa.len() == xb.len() => {
            for (i, (x, y)) in xa.iter().zip(xb).enumerate() {
                let at = format!("{at}[{i}]");
                diff(x, y, &at, &format!("{pattern}[]"), skip, diffs);
            }
        }
        (Value::Obj(fa), Value::Obj(fb)) => diffs.push(format!(
            "fields at '{at}': {:?} threaded vs {:?} serial",
            keys(fa),
            keys(fb)
        )),
        (Value::Arr(xa), Value::Arr(xb)) => diffs.push(format!(
            "{at}: {} elements threaded vs {} serial",
            xa.len(),
            xb.len()
        )),
        _ if a == b => {}
        _ => diffs.push(format!("{at}: {a:?} threaded vs {b:?} serial")),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cli::Scale;

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

    const DOC: &str = r#"{"bench": "x", "threads": 8, "timing": {"qps": 10.5},
        "results": [{"shards": 1, "qps": 100.0, "checksum": "42", "crashes": 3},
                    {"shards": 8, "qps": 250.0, "checksum": "43", "crashes": 5}]}"#;
    const WALL: &[&str] = &[".results[].qps"];

    fn run(args: &[&str]) -> Result<BenchRun, String> {
        BenchRun::try_from_iter("BENCH_X.json", args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn wall_clock_threads_and_timing_paths_are_skipped() {
        let serial = DOC
            .replace("100.0", "90.0")
            .replace("\"threads\": 8", "\"threads\": 1")
            .replace("10.5", "3.0");
        assert_eq!(compare(DOC, &serial, WALL), Vec::<String>::new());
        // Undeclared, the same wall-clock field is a difference.
        let diffs = compare(DOC, &serial, &[]);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].starts_with(".results[0].qps: "), "{diffs:?}");
    }

    #[test]
    fn checksum_counter_and_length_differences_name_their_path() {
        let checksum = DOC.replace("\"43\"", "\"44\"");
        let diffs = compare(DOC, &checksum, WALL);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].starts_with(".results[1].checksum: "), "{diffs:?}");

        let counter = DOC.replace("\"crashes\": 3", "\"crashes\": 4");
        let diffs = compare(DOC, &counter, WALL);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].starts_with(".results[0].crashes: "), "{diffs:?}");

        let shorter = r#"{"bench": "x", "threads": 1, "timing": {"qps": 10.5},
            "results": [{"shards": 1, "qps": 100.0, "checksum": "42", "crashes": 3}]}"#;
        let diffs = compare(DOC, shorter, WALL);
        assert_eq!(
            diffs,
            vec![".results: 2 elements threaded vs 1 serial".to_string()]
        );
    }

    #[test]
    fn missing_fields_and_non_json_documents_fail() {
        let renamed = DOC.replace("\"crashes\": 5", "\"crash\": 5");
        let diffs = compare(DOC, &renamed, WALL);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(
            diffs[0].starts_with("fields at '.results[1]': "),
            "{diffs:?}"
        );
        let diffs = compare(DOC, "{\"qps\": NaN}", WALL);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].starts_with("serial document is not JSON"));
    }

    /// Appends the index-free path of `v` and of every value inside it, as
    /// the wall-clock lists write them.
    fn paths(v: &Value, pattern: &str, out: &mut Vec<String>) {
        out.push(pattern.to_string());
        match v {
            Value::Obj(fields) => {
                for (k, x) in fields {
                    paths(x, &format!("{pattern}.{k}"), out);
                }
            }
            Value::Arr(xs) => {
                for x in xs {
                    paths(x, &format!("{pattern}[]"), out);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn every_wall_clock_path_names_a_value_of_its_pinned_document() {
        use crate::{arena, batch, chaos, daemon, durability, perf, power, serve};
        let benches: [(&str, &[&str], String); 8] = [
            ("perf", perf::WALL_CLOCK, perf::tests::pinned_document()),
            ("serve", serve::WALL_CLOCK, serve::tests::pinned_document()),
            ("batch", batch::WALL_CLOCK, batch::tests::pinned_document()),
            ("chaos", chaos::WALL_CLOCK, chaos::tests::pinned_document()),
            (
                "durability",
                durability::WALL_CLOCK,
                durability::tests::pinned_document(),
            ),
            ("power", power::WALL_CLOCK, power::tests::pinned_document()),
            (
                "daemon",
                daemon::WALL_CLOCK,
                daemon::tests::pinned_document(),
            ),
            ("arena", arena::WALL_CLOCK, arena::tests::pinned_document()),
        ];
        for (bench, wall_clock, doc) in benches {
            let mut found = Vec::new();
            paths(
                &json::parse(&doc).expect("pinned documents parse"),
                "",
                &mut found,
            );
            for path in wall_clock {
                assert!(
                    found.iter().any(|p| p == path),
                    "{bench}: wall-clock path {path} names no value of its document"
                );
            }
            // A misspelt path is caught.
            assert!(!found.iter().any(|p| p == ".results[].serial_qpz"));
        }
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
