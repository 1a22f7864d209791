//! Adaptive-attacker arena benchmark: denoising, transfer, and drift
//! attacks against the live monitoring service, with the
//! uncertainty-aware ensemble re-query measured as the counter.
//!
//! Writes `BENCH_9.json` (override with `--out PATH`) and prints the same
//! numbers as tables. `--check` exits non-zero if any gate of
//! `arena::failures` fails, among them the re-query and drift replays'
//! identity with their serial twins and the mid-arena restore. CI runs
//! `--fast --threads 8 --check` as the arena smoke test.

use hmd_bench::arena::{self, ArenaPlan};
use hmd_bench::report::BenchRun;
use hmd_bench::{setup, table};
use std::process::ExitCode;

fn main() -> ExitCode {
    let run = BenchRun::from_env("BENCH_9.json");
    let args = run.args;
    let scale_name = args.scale.name();
    let dataset = setup::dataset(&args);
    let baseline = setup::victim(&dataset, 0, &args);
    let exec = args.exec();
    let threads = exec.thread_count();
    let plan = ArenaPlan::for_scale(args.scale);

    let matrix = arena::run_arena(&baseline, &dataset, &plan, args.seed, &exec);

    table::title(&format!(
        "Denoising cost curve, target agreement {:.2} ({scale_name})",
        matrix.denoise_target
    ));
    table::header(&["error rate", "required k", "search cost", "oracle queries"]);
    for cell in &matrix.denoise {
        table::row(&[
            format!("{:.2}", cell.error_rate),
            match cell.curve.required {
                Some(k) => format!("{k}"),
                None => "saturated".into(),
            },
            format!("{}", cell.curve.total_query_cost()),
            format!("{}", cell.oracle_queries),
        ]);
    }

    table::title("Transfer matrix (live service + offline RHMD rows)");
    table::header(&[
        "victim",
        "er",
        "attacker",
        "attempted",
        "evasive",
        "transferred",
        "success",
        "queries",
    ]);
    for c in &matrix.transfer {
        table::row(&[
            c.victim.to_string(),
            format!("{:.2}", c.error_rate),
            c.attacker.to_string(),
            format!("{}", c.attempted),
            format!("{}", c.evaded_proxy),
            format!("{}", c.evaded_victim),
            format!("{:.2}", c.success),
            format!("{}", c.query_cost),
        ]);
    }

    table::title("Defender accuracy (eval stream, vs ground truth)");
    table::header(&["victim", "er", "accuracy", "delta vs er=0"]);
    for c in &matrix.accuracy {
        table::row(&[
            c.victim.to_string(),
            format!("{:.2}", c.error_rate),
            format!("{:.3}", c.accuracy),
            format!("{:+.3}", c.delta),
        ]);
    }

    let rq = &matrix.requery;
    table::title(&format!(
        "Re-query counter at er {:.2} (band {:.2}, {} replicas + anomaly vote)",
        rq.error_rate, rq.band, rq.replicas
    ));
    table::header(&[
        "clean",
        "noisy",
        "requery",
        "recovered",
        "extra draws/query",
    ]);
    table::row(&[
        format!("{:.3}", rq.acc_clean),
        format!("{:.3}", rq.acc_noisy),
        format!("{:.3}", rq.acc_requery),
        format!("{:.0}%", rq.recovered * 100.0),
        format!("{:.2}", rq.requery_rate()),
    ]);
    println!(
        "({} band hits, {} ensemble draws over {} queries; serial == {}-thread: {}; \
         mid-arena restore identical: {})",
        rq.band_hits,
        rq.requeries,
        rq.served,
        threads,
        if rq.thread_invariant { "yes" } else { "NO" },
        if rq.restore_identical { "yes" } else { "NO" },
    );

    let d = &matrix.drift;
    table::title(&format!(
        "Workload drift: {} Dirichlet segments, fixed er {:.2}",
        d.segments,
        setup::OPERATING_ERROR_RATE
    ));
    table::header(&[
        "queries",
        "drift events",
        "crashes",
        "retries",
        "deterministic",
    ]);
    table::row(&[
        format!("{}", d.queries),
        format!("{}", d.drift_events),
        format!("{}", d.crashes),
        format!("{}", d.retries),
        table::verdict(d.thread_invariant, "yes", "NO"),
    ]);

    run.finish(
        &arena::render_json(&matrix, args.seed, scale_name, threads),
        arena::failures(&matrix, threads),
        "denoising cost monotone, undervolting does not help the \
         transfer attacker, re-query recovers the band-edge loss, drift watchdog \
         quiet, every replay thread-invariant and restore-identical",
    )
}
