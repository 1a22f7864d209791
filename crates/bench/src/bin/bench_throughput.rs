//! End-to-end detector throughput: geometric + scratch hot path vs the
//! legacy per-draw, allocating path, swept over error rates.
//!
//! Writes `BENCH_2.json` (override with `--out PATH`) and prints the same
//! numbers as a table. `--check` exits non-zero if any gate of
//! `perf::failures` fails, the fan-out's identity with its serial
//! schedule among them — that mode is what CI runs (with `--fast`) as a
//! performance smoke test.

use hmd_bench::report::BenchRun;
use hmd_bench::{perf, setup, table};
use std::process::ExitCode;

fn main() -> ExitCode {
    let run = BenchRun::from_env("BENCH_2.json");
    let args = run.args;
    let scale_name = args.scale.name();
    let queries = args.scale.pick(2_000, 20_000, 100_000);
    let dataset = setup::dataset(&args);
    let victim = setup::victim(&dataset, 0, &args);
    let q = victim.quantized();
    let features = victim.spec().extract(dataset.trace(0));
    let exec = args.exec();

    let points = perf::measure_sweep(q, &features, args.seed, queries, &exec);

    table::title(&format!(
        "Detector throughput, {} MACs/inference, {queries} queries/path ({scale_name})",
        q.mac_count()
    ));
    table::header(&[
        "er",
        "before (q/s)",
        "after (q/s)",
        "speedup",
        "threaded (q/s)",
        "deterministic",
    ]);
    for p in &points {
        table::row(&[
            format!("{}", p.error_rate),
            format!("{:.0}", p.before_qps),
            format!("{:.0}", p.after_qps),
            format!("{:.2}x", p.speedup),
            format!("{:.0}", p.threaded_qps),
            table::verdict(p.thread_invariant, "yes", "NO"),
        ]);
    }
    println!(
        "(before: per-draw Bernoulli, dyn corruptor, fresh buffers per query; \
         after: geometric gap + scratch; both on the width-1 kernel)"
    );

    let threads = exec.thread_count();
    run.finish(
        &perf::render_json(&points, args.seed, scale_name, threads, q.mac_count()),
        perf::failures(&points),
        "hot path >= legacy at every error rate, outputs thread-invariant",
    )
}
