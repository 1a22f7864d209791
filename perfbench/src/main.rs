//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <durable_ingest|bulk_scoring|attack_oracle|crash_recovery|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload untraced and prints its end-to-end
//! metrics; `--trace 1` runs it untraced and then traced for half the
//! time each and prints the per-layer metrics, the tracing overhead, and
//! how well the per-layer self times add up to the untraced time. The last
//! line of standard output is the result object; the line before it
//! records the run environment, the sample count behind every percentile,
//! and every output check. The process exits non-zero when a check fails.

mod bulk;
mod env;
mod fixture;
mod ingest;
mod oracle;
mod phase;
mod probes;
mod recovery;
mod stats;
mod trace;

use fixture::{Fixture, JournalPath, SetupTimes};
use phase::{Check, Phase};
use stats::Tail;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Spans written out per traced phase (the reduction uses all of them).
pub const SPAN_DUMP_LIMIT: usize = 200_000;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Alternating untraced/traced slices of a `--trace 1` run, so both see
/// the same machine state.
const TRACE_SLICES: usize = 4;

/// Seconds each other workload runs traced in a `--trace 1` run, to fill
/// in the per-layer metrics of layers this workload does not exercise.
const COMPLEMENT_SECONDS: f64 = 0.4;

/// Largest tolerated gap between the traced self-time sum and the
/// untraced end-to-end time, on the workloads that must reconcile.
const COVERAGE_TOLERANCE: f64 = 0.10;

static CORRUPT_REFERENCE: AtomicBool = AtomicBool::new(false);

/// A reference checksum as the checks see it: flipped when
/// `--corrupt-reference` asks to prove that the checksum gate can fail.
pub fn reference(checksum: u64) -> u64 {
    if CORRUPT_REFERENCE.load(Ordering::Relaxed) {
        checksum ^ 1
    } else {
        checksum
    }
}

/// The end-to-end metrics, with units, in output order.
///
/// The median request latency is recorded in the environment line, not
/// here. The shared machine runs in two speed modes about 1.65x apart that
/// alternate over seconds, and a run's median lands in whichever mode held
/// more than half of it: over ten seeds of 50 s the `bulk_scoring` batch
/// median spread 32% between its quartiles while `queries_per_s`, a total
/// over the run that moves in proportion to the mix, spread 10%.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("queries_per_s", "q/s"),
    ("latency_tail_us", "us"),
    ("sustained_qps", "q/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, with units, in output order.
const PER_LAYER: [(&str, &str); 38] = [
    ("checkpoint.commit_us", "us"),
    ("checkpoint.syncs_per_query", "count"),
    ("checkpoint.ckpt_encode_us", "us"),
    ("checkpoint.ckpt_append_us", "us"),
    ("checkpoint.ckpt_bytes", "bytes"),
    ("checkpoint.recover_us", "us"),
    ("checkpoint.decode_us", "us"),
    ("checkpoint.restore_us", "us"),
    ("checkpoint.replay_batches", "count"),
    ("daemon.handle_frame_us", "us"),
    ("daemon.queue_wait_us", "us"),
    ("daemon.batches_per_pump", "count"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_query", "bytes"),
    ("serve.ns_per_query", "ns"),
    ("serve.fixed_us_per_batch", "us"),
    ("serve.requery_frac", "ratio"),
    ("serve.draws_per_query", "count"),
    ("detector.ns_per_query_scalar", "ns"),
    ("detector.ns_per_query_b8", "ns"),
    ("ann.exact_ns_per_query", "ns"),
    ("volt.event_ns_per_query", "ns"),
    ("volt.faults_per_query", "count"),
    ("volt.multiplies_per_query", "count"),
    ("features.extract_us", "us"),
    ("setup.dataset_s", "s"),
    ("setup.train_s", "s"),
    ("setup.deploy_s", "s"),
    ("self.checkpoint_us", "us"),
    ("self.daemon_us", "us"),
    ("self.wire_us", "us"),
    ("self.serve_us", "us"),
    ("self.features_us", "us"),
    ("self.harness_us", "us"),
    ("harness.gen_late_p99_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Layers whose self time is reported per request (zero when the
/// workload's blocking path does not pass through them).
const SELF_LAYERS: [&str; 6] = [
    "checkpoint",
    "daemon",
    "wire",
    "serve",
    "features",
    "harness",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    DurableIngest,
    BulkScoring,
    AttackOracle,
    CrashRecovery,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::DurableIngest,
        Workload::BulkScoring,
        Workload::AttackOracle,
        Workload::CrashRecovery,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::DurableIngest => "durable_ingest",
            Workload::BulkScoring => "bulk_scoring",
            Workload::AttackOracle => "attack_oracle",
            Workload::CrashRecovery => "crash_recovery",
        }
    }

    /// The error rate the workload's shards are calibrated to, and the
    /// relative allowance on top of the binomial bound of the delivered
    /// fault rate.
    fn fault_target(self) -> (f64, f64) {
        match self {
            Workload::DurableIngest | Workload::CrashRecovery => {
                (ingest::TARGET_ER, phase::DRIFTING_RATE_ALLOWANCE)
            }
            Workload::BulkScoring => (bulk::TARGET_ER, phase::FIXED_RATE_ALLOWANCE),
            Workload::AttackOracle => (oracle::TARGET_ER, phase::FIXED_RATE_ALLOWANCE),
        }
    }

    /// The percentile reported as `latency_tail_us`: p99, except where the
    /// p99 measures the shared machine rather than the program.
    ///
    /// On a 2-vCPU virtual machine the host slows 2–5% of `bulk_scoring`'s
    /// 2.6 ms batch calls by 25–60%, in episodes that come and go over
    /// seconds, so the batch p99 lies inside that contention tail: over ten
    /// seeds of 40 s each the spread between its quartiles was 15–33% of
    /// its median, against 4–8% for the p95. On `attack_oracle` about 7% of
    /// one-query calls take a slow path of 90–165 us, so its p95 sits on
    /// that population's lower edge (23% spread over five seeds) while its
    /// p99 lies inside it.
    fn tail(self) -> Tail {
        match self {
            Workload::BulkScoring => Tail::P95,
            Workload::DurableIngest | Workload::AttackOracle | Workload::CrashRecovery => Tail::P99,
        }
    }

    /// Builds what the workload serves from, as its timed phase does;
    /// only the time it takes matters.
    fn deploy(self, fx: &Fixture) {
        match self {
            Workload::DurableIngest | Workload::CrashRecovery => {
                drop(ingest::deploy(fx, &JournalPath::new("setup")))
            }
            Workload::BulkScoring => drop(bulk::deploy(fx, bulk::exec())),
            Workload::AttackOracle => drop(oracle::deploy(fx)),
        }
    }

    /// A fresh service of the workload's configuration, for the serving
    /// probe.
    fn service(self, fx: &Fixture) -> stochastic_hmd::MonitoringService {
        let exec = stochastic_hmd::ExecConfig::threads(fixture::WORKERS);
        match self {
            Workload::DurableIngest | Workload::CrashRecovery => ingest::deploy_service(fx, exec),
            Workload::BulkScoring => bulk::deploy(fx, bulk::exec()),
            Workload::AttackOracle => oracle::deploy_service(fx, exec),
        }
    }

    fn run(self, fx: &Fixture, seconds: f64, traced: bool) -> Phase {
        match self {
            Workload::DurableIngest => ingest::run(fx, seconds, traced),
            Workload::BulkScoring => bulk::run(fx, seconds, traced),
            Workload::AttackOracle => oracle::run(fx, seconds, traced),
            Workload::CrashRecovery => recovery::run(fx, seconds, traced),
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    "usage: shmd-perfbench --workload <durable_ingest|bulk_scoring|attack_oracle|crash_recovery|all> \
     --seed <n> --seconds <s> --trace <0|1> [--corrupt-reference]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--corrupt-reference" {
            CORRUPT_REFERENCE.store(true, Ordering::Relaxed);
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                args.workloads = if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
                }
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// One workload's outcome.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    env: String,
}

/// Repeats the set-up [`SETUP_REPEATS`] times and keeps the last fixture.
/// The first repetition is timed from process start.
fn set_up(w: Workload, seed: u64, process_start: Instant) -> (Fixture, Vec<f64>, SetupTimes, f64) {
    let mut totals = Vec::new();
    let mut stages = Vec::new();
    let mut deploys = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPEATS {
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (fx, times) = Fixture::build(seed);
        let t = Instant::now();
        w.deploy(&fx);
        deploys.push(t.elapsed().as_secs_f64());
        totals.push(start.elapsed().as_secs_f64());
        stages.push(times);
        last = Some(fx);
    }
    let times = SetupTimes {
        dataset_s: stats::median(&stages.iter().map(|t| t.dataset_s).collect::<Vec<_>>()),
        train_s: stats::median(&stages.iter().map(|t| t.train_s).collect::<Vec<_>>()),
    };
    (
        last.expect("at least one set-up"),
        totals,
        times,
        stats::median(&deploys),
    )
}

fn run_workload(w: Workload, args: &Args, process_start: Instant) -> Outcome {
    let (fx, setup_totals, setup_times, deploy_s) = set_up(w, args.seed, process_start);
    let (untraced, traced) = if args.trace {
        let slice = args.seconds / (2 * TRACE_SLICES) as f64;
        let (mut untraced, mut traced) = (Phase::default(), Phase::default());
        for _ in 0..TRACE_SLICES {
            untraced.absorb(w.run(&fx, slice, false));
            traced.absorb(w.run(&fx, slice, true));
        }
        (untraced, Some(traced))
    } else {
        (w.run(&fx, args.seconds, false), None)
    };
    let mut checks: Vec<Check> = untraced.checks.clone();
    if let Some(snapshot) = &untraced.snapshot {
        let (target_er, allowance) = w.fault_target();
        checks.push(phase::fault_health(
            snapshot,
            &untraced.model_rates,
            target_er,
            allowance,
        ));
    }
    let mut attempted = untraced.requests;
    let mut failed = untraced.failed;
    let mut info = untraced.info.clone();
    let setups: Vec<String> = setup_totals.iter().map(|t| format!("{t:.4}")).collect();
    info.insert("setup_s_samples".into(), setups.join(" "));
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut samples = String::new();
    if let Some(traced) = traced {
        checks.extend(traced.checks.iter().cloned());
        attempted += traced.requests;
        failed += traced.failed;
        let mut layers = traced.layers.clone();
        for layer in SELF_LAYERS {
            layers.entry(format!("self.{layer}_us")).or_insert(0.0);
        }
        let untraced_us = untraced.busy_us_per_request();
        let traced_us = traced.busy_us_per_request();
        let self_us = traced.span_self_s * 1e6 / traced.requests.max(1) as f64;
        let coverage = self_us / untraced_us.max(f64::MIN_POSITIVE);
        layers.insert("trace.overhead_frac".into(), traced_us / untraced_us - 1.0);
        layers.insert("trace.coverage".into(), coverage);
        if matches!(w, Workload::DurableIngest | Workload::BulkScoring) {
            checks.push(Check::new(
                "per_layer_self_times_reconcile",
                (coverage - 1.0).abs() <= COVERAGE_TOLERANCE,
                format!(
                    "traced self-time sum {self_us:.2} us vs untraced {untraced_us:.2} us per request"
                ),
            ));
        }
        layers.insert("setup.dataset_s".into(), setup_times.dataset_s);
        layers.insert("setup.train_s".into(), setup_times.train_s);
        layers.insert("setup.deploy_s".into(), deploy_s);
        layers.extend(probes::detector(&fx));
        layers.extend(probes::serve(&fx, w.service(&fx)));
        // Layers this workload does not exercise: a short traced run of
        // the workload that owns them.
        let mut complemented = Vec::new();
        for other in Workload::ALL.into_iter().filter(|&o| o != w) {
            if PER_LAYER.iter().all(|(name, _)| layers.contains_key(*name)) {
                break;
            }
            let extra = other.run(&fx, COMPLEMENT_SECONDS, true);
            attempted += extra.requests;
            failed += extra.failed;
            // Its outputs must be right; its schedule only matters where
            // its own latency is reported.
            checks.extend(
                extra
                    .checks
                    .into_iter()
                    .filter(|c| c.name != ingest::ON_SCHEDULE),
            );
            for (name, value) in extra.layers {
                if PER_LAYER.iter().any(|(n, _)| *n == name) && !layers.contains_key(&name) {
                    complemented.push(format!("{name} from {}", other.name()));
                    layers.insert(name, value);
                }
            }
        }
        info.insert("complemented".into(), complemented.join("; "));
        for (name, unit) in PER_LAYER {
            let value = layers
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            metrics.push((name.to_string(), value, unit));
        }
    } else {
        let latency = &untraced.latency;
        let qps = untraced.queries_per_s;
        let values = [
            stats::median(&setup_totals),
            qps,
            latency.tail(w.tail()),
            untraced.sustained_qps.unwrap_or(qps),
            env::peak_rss_mb(),
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name.to_string(), value, unit));
        }
        let (n, b, pct) = (latency.count(), stats::BLOCK, w.tail().pct());
        let beyond = stats::beyond(b, pct);
        let p50 = latency.p50();
        let qps_rule = if w == Workload::DurableIngest {
            "verdicts over the open loop's wall time".to_string()
        } else {
            format!("verdicts over the request time of {n} blocks")
        };
        let _ = write!(
            samples,
            "\"latency_p50_us\": \"{p50} us, median over {n} blocks of {b} requests of the block \
             median\", \"latency_tail_us\": \"median over {n} blocks of {b} requests of the block p{pct} \
             ({beyond} beyond it in each)\", \"queries_per_s\": \"{qps_rule}\", \
             \"setup_s\": \"median of {SETUP_REPEATS} set-ups\""
        );
    }
    let correct = failed == 0 && checks.iter().all(|c| c.ok);
    let env = env_json(w, args, &checks, &info, &samples);
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        env,
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn env_json(
    w: Workload,
    args: &Args,
    checks: &[Check],
    info: &BTreeMap<String, String>,
    samples: &str,
) -> String {
    let checks: Vec<String> = checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}",
                escape(&c.name),
                c.ok,
                escape(&c.detail)
            )
        })
        .collect();
    let info: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
        .collect();
    let rungs: Vec<String> = ingest::RUNGS_QPS.iter().map(|r| r.to_string()).collect();
    format!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"journal_fs\": \"{}\", \"offered_rates_qps\": [{}], \
         \"p99_limit_us\": {}, \"samples\": {{{samples}}}, \"checks\": [{}], \"info\": {{{}}}}}}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env::nproc(),
        escape(&env::fs_type(&fixture::work_dir())),
        rungs.join(", "),
        ingest::P99_LIMIT_US,
        checks.join(", "),
        info.join(", ")
    )
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        let outcome = run_workload(w, &args, process_start);
        println!("{}", outcome.env);
        if args.workloads.len() > 1 {
            println!(
                "{}",
                result_json(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
        }
        outcomes.push((w, outcome));
    }
    let correct = outcomes.iter().all(|(_, o)| o.correct);
    let attempted = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed = outcomes.iter().map(|(_, o)| o.failed).sum();
    let metrics: Vec<(String, f64, &str)> = if outcomes.len() == 1 {
        outcomes[0].1.metrics.clone()
    } else {
        outcomes
            .iter()
            .flat_map(|(w, o)| {
                o.metrics
                    .iter()
                    .map(move |(name, value, unit)| (format!("{}.{name}", w.name()), *value, *unit))
            })
            .collect()
    };
    println!("{}", result_json(correct, attempted, failed, &metrics));
    let _ = std::fs::remove_dir(fixture::work_dir());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks that depend on wall-clock behaviour of a loaded test
    /// machine, not on the program's outputs.
    const TIMING_CHECKS: [&str; 2] = [ingest::ON_SCHEDULE, "per_layer_self_times_reconcile"];

    fn assert_output_checks(w: Workload, phase: &Phase) {
        assert_eq!(phase.failed, 0, "{}: failed requests", w.name());
        assert!(phase.requests > 0, "{}: nothing ran", w.name());
        for check in &phase.checks {
            if !TIMING_CHECKS.contains(&check.name.as_str()) {
                assert!(
                    check.ok,
                    "{}: {} failed: {}",
                    w.name(),
                    check.name,
                    check.detail
                );
            }
        }
        let (target, allowance) = w.fault_target();
        let snapshot = phase.snapshot.as_ref().expect("every phase snapshots");
        let health = phase::fault_health(snapshot, &phase.model_rates, target, allowance);
        assert!(health.ok, "{}: {}", w.name(), health.detail);
    }

    #[test]
    fn tiny_smoke_of_every_workload_passes_its_checks() {
        let (fx, _) = Fixture::build(5);
        for w in Workload::ALL {
            assert_output_checks(w, &w.run(&fx, 0.05, false));
            let traced = w.run(&fx, 0.05, true);
            assert_output_checks(w, &traced);
            assert!(traced.span_self_s > 0.0, "{}: no spans recorded", w.name());
        }
    }

    #[test]
    fn a_service_that_stops_injecting_faults_fails_the_health_check() {
        let (fx, _) = Fixture::build(6);
        let mut phase = bulk::run(&fx, 0.01, false);
        let snapshot = phase.snapshot.as_mut().expect("snapshot");
        for shard in &mut snapshot.shards {
            shard.faults.faulty = 0;
        }
        let check = phase::fault_health(snapshot, &phase.model_rates, bulk::TARGET_ER, 0.02);
        assert!(!check.ok, "{}", check.detail);
        let uncalibrated: Vec<Option<f64>> = phase.model_rates.iter().map(|_| Some(0.0)).collect();
        let snapshot = bulk::run(&fx, 0.01, false).snapshot.expect("snapshot");
        let check = phase::fault_health(&snapshot, &uncalibrated, bulk::TARGET_ER, 0.02);
        assert!(!check.ok, "{}", check.detail);
    }

    #[test]
    fn every_traced_run_reports_every_per_layer_metric_once() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let args = parse_args(&argv(
            "--workload bulk_scoring --seed 9 --seconds 2 --trace 1",
        ))
        .expect("valid");
        assert_eq!(args.workloads, vec![Workload::BulkScoring]);
        assert_eq!((args.seed, args.seconds, args.trace), (9, 2.0, true));
        assert_eq!(
            parse_args(&argv("--workload all"))
                .expect("valid")
                .workloads
                .len(),
            4
        );
        for bad in [
            "--workload nope",
            "--workload bulk_scoring --trace 2",
            "--seed 1",
            "--workload bulk_scoring --seconds 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
