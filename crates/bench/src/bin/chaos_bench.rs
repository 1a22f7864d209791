//! Chaos-resilience benchmark: a supervised monitoring pool driven through
//! a seeded crash/drift/poison schedule, serial vs threaded, swept over
//! pool sizes. The two deployments are timed in paired alternation, one
//! batch at a time (`hmd_bench::replay::twin`).
//!
//! Writes `BENCH_4.json` (override with `--out PATH`) and prints the same
//! numbers as a table. `--check` exits non-zero if any gate of
//! `chaos::failures` fails, the serial-vs-threaded identity of every pool
//! size among them — that mode is what CI runs (with `--fast`) as the
//! chaos smoke test.

use hmd_bench::report::BenchRun;
use hmd_bench::serve::CHAOS_SCALING_FLOOR;
use hmd_bench::{chaos, serve, setup, table};
use std::process::ExitCode;

fn main() -> ExitCode {
    let run = BenchRun::from_env("BENCH_4.json");
    let args = run.args;
    let scale_name = args.scale.name();
    let batch_size = args.scale.pick(1024, 2048, 4096);
    let dataset = setup::dataset(&args);
    let baseline = setup::victim(&dataset, 0, &args);
    let exec = args.exec();
    let threads = exec.thread_count();

    let floor = serve::effective_scaling_floor(CHAOS_SCALING_FLOOR, threads);
    let points = chaos::measure_sweep(&baseline, &dataset, args.seed, batch_size, &exec);
    // Probed next to the 8-shard replay, the one the scaling gate reads.
    let delivered = serve::delivered_parallelism(threads);
    let total_batches = chaos::CHAOS_HORIZON + chaos::CHAOS_TAIL;

    table::title(&format!(
        "Chaos recovery, {total_batches} batches x {batch_size} queries ({scale_name})"
    ));
    table::header(&[
        "shards",
        "crashes",
        "retries",
        "drift",
        "rejected",
        "healthy@end",
        "scaling",
        "deterministic",
    ]);
    for p in &points {
        table::row(&[
            format!("{}", p.shards),
            format!("{}", p.crashes),
            format!("{}", p.retries),
            format!("{}", p.drift_events),
            format!("{}", p.rejected),
            format!("{}/{}", p.healthy_at_end, p.shards),
            format!("{:.2}x", p.scaling()),
            table::verdict(p.thread_invariant, "yes", "NO"),
        ]);
    }
    println!("(same seeds, same chaos schedule; only the worker pool differs between replays)");

    run.finish(
        &chaos::render_json(&points, args.seed, scale_name, threads, floor, delivered),
        chaos::failures(&points, batch_size, threads, delivered),
        &format!(
            "chaos replay thread-invariant at every pool size, poison contained, \
             pool serving at end, scaling above {floor:.2}x"
        ),
    )
}
