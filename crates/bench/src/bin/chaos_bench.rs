//! Chaos-resilience benchmark: a supervised monitoring pool driven through
//! a seeded crash/drift/poison schedule, serial vs threaded, swept over
//! pool sizes.
//!
//! Writes `BENCH_4.json` (override with `--out PATH`) and prints the same
//! numbers as a table. `--check` exits non-zero if any pool size's
//! threaded chaos replay is not bit-identical to the serial one (verdicts,
//! per-batch health transitions, and timing-stripped telemetry), if the
//! scripted chaos failed to crash anything, if any query was dropped, if
//! the pool did not end the run serving, if the largest pool's
//! threaded-vs-serial scaling falls below the regression floor
//! (`serve::CHAOS_SCALING_FLOOR`, 1.5, clamped to what the host's core
//! count can physically deliver), or if a serial rerun of the sweep renders
//! a different document outside its wall-clock fields — that mode is what
//! CI runs (with `--fast`) as the chaos smoke test.

use hmd_bench::report::BenchRun;
use hmd_bench::serve::CHAOS_SCALING_FLOOR;
use hmd_bench::{chaos, serve, setup, table};
use stochastic_hmd::ExecConfig;

fn main() {
    let mut run = BenchRun::from_env("BENCH_4.json");
    let args = run.args;
    let scale_name = args.scale.name();
    let batch_size = args.scale.pick(1024, 2048, 4096);
    let dataset = setup::dataset(&args);
    let baseline = setup::victim(&dataset, 0, &args);
    let exec = args.exec();

    let floor = serve::effective_scaling_floor(CHAOS_SCALING_FLOOR, exec.thread_count());
    let delivered = serve::delivered_parallelism(exec.thread_count());
    let measure =
        |exec: &ExecConfig| chaos::measure_sweep(&baseline, &dataset, args.seed, batch_size, exec);
    let render = |points: &[chaos::ChaosPoint], threads: usize| {
        chaos::render_json(points, args.seed, scale_name, threads, floor, delivered)
    };
    let points = measure(&exec);
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

    let doc = render(&points, exec.thread_count());
    run.write(&doc);
    let expected_queries = (total_batches as usize) * batch_size;
    for p in &points {
        if !p.thread_invariant {
            run.fail(format!(
                "{} shards: threaded chaos replay diverged from serial",
                p.shards
            ));
        }
        if p.crashes == 0 {
            run.fail(format!(
                "{} shards: scripted chaos crashed nothing",
                p.shards
            ));
        }
        if p.queries != expected_queries {
            run.fail(format!(
                "{} shards: {} of {expected_queries} queries processed",
                p.shards, p.queries
            ));
        }
        if p.rejected != total_batches {
            run.fail(format!(
                "{} shards: {} of {total_batches} poison queries rejected",
                p.shards, p.rejected
            ));
        }
        if p.healthy_at_end + p.degraded_at_end == 0 {
            run.fail(format!("{} shards: pool ended the run dark", p.shards));
        }
    }
    let largest = points.last().map(|p| (p.shards, p.scaling()));
    serve::check_scaling(
        &mut run,
        CHAOS_SCALING_FLOOR,
        exec.thread_count(),
        largest,
        delivered,
    );
    run.compare_serial(&doc, chaos::WALL_CLOCK, |serial| {
        render(&measure(serial), 1)
    });
    run.finish(&format!(
        "chaos replay thread-invariant at every pool size, poison contained, \
         pool serving at end, scaling above {floor:.2}x"
    ));
}
