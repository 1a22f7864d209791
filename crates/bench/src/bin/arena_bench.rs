//! Adaptive-attacker arena benchmark: denoising, transfer, and drift
//! attacks against the live monitoring service, with the
//! uncertainty-aware ensemble re-query measured as the counter.
//!
//! Writes `BENCH_9.json` (override with `--out PATH`) and prints the same
//! numbers as tables. `--check` exits non-zero when any arena gate fails:
//!
//! 1. the denoising attacker's required queries-per-sample is not
//!    monotone nondecreasing in the delivered error rate;
//! 2. mean transfer success against the undervolted live service
//!    (error rate ≥ 0.1) exceeds success against the fault-free victim;
//! 3. the ensemble re-query recovers less than half the accuracy the
//!    band-edge error rate cost (unless nothing meaningful was lost);
//! 4. any scenario is not thread-invariant (serial ≠ threaded replay),
//!    the mid-arena checkpoint/restore diverges, or pure workload drift
//!    fires the delivered-rate watchdog.
//!
//! Under `--check` with several threads the arena is also re-run serially,
//! and its document must match outside `threads` and `timing`. CI runs
//! `--fast --threads 8 --check` as the arena smoke test.

use hmd_bench::arena::{self, ArenaPlan};
use hmd_bench::report::BenchRun;
use hmd_bench::{setup, table};
use stochastic_hmd::ExecConfig;

fn main() {
    let mut run = BenchRun::from_env("BENCH_9.json");
    let args = run.args;
    let scale_name = args.scale.name();
    let dataset = setup::dataset(&args);
    let baseline = setup::victim(&dataset, 0, &args);
    let exec = args.exec();
    let plan = ArenaPlan::for_scale(args.scale);

    let measure = |exec: &ExecConfig| arena::run_arena(&baseline, &dataset, &plan, args.seed, exec);
    let render = |matrix: &arena::ArenaMatrix, threads: usize| {
        arena::render_json(matrix, args.seed, scale_name, threads)
    };
    let matrix = measure(&exec);

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
        exec.thread_count(),
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

    let doc = render(&matrix, exec.thread_count());
    run.write(&doc);
    if !matrix.denoise_monotone() {
        run.fail(format!(
            "denoising cost curve not monotone in error rate: {:?}",
            matrix
                .denoise
                .iter()
                .map(|c| (c.error_rate, c.curve.required))
                .collect::<Vec<_>>()
        ));
    }
    let base_success = matrix.service_success_at(0.0);
    let undervolted = matrix.pooled_service_success(0.1);
    if undervolted > base_success + 1e-9 {
        run.fail(format!(
            "pooled transfer success {undervolted:.3} against undervolted \
             victims (er >= 0.1) exceeds the fault-free baseline {base_success:.3}"
        ));
    }
    if !rq.recovers_half() {
        run.fail(format!(
            "re-query recovered only {:.0}% of the {:.3} accuracy lost \
             (clean {:.3}, noisy {:.3}, requery {:.3})",
            rq.recovered * 100.0,
            rq.lost(),
            rq.acc_clean,
            rq.acc_noisy,
            rq.acc_requery
        ));
    }
    if !rq.thread_invariant {
        run.fail(format!(
            "re-query replay diverged between serial and {} threads",
            exec.thread_count()
        ));
    }
    if !rq.restore_identical {
        run.fail("mid-arena checkpoint/restore diverged from the original run");
    }
    if d.drift_events != 0 {
        run.fail(format!(
            "pure workload drift fired the delivered-rate watchdog {} times",
            d.drift_events
        ));
    }
    if !d.thread_invariant {
        run.fail("drift replay diverged between serial and threaded");
    }
    run.compare_serial(&doc, arena::WALL_CLOCK, |serial| {
        render(&measure(serial), 1)
    });
    run.finish(
        "denoising cost monotone, undervolting does not help the \
         transfer attacker, re-query recovers the band-edge loss, drift watchdog \
         quiet, every replay thread-invariant and restore-identical",
    );
}
