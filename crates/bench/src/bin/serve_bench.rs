//! Serving-layer benchmark: the sharded continuous-monitoring engine
//! replaying a generated trace stream, serial vs threaded, swept over pool
//! sizes. The two deployments are timed in paired alternation, one batch
//! at a time (`hmd_bench::replay::twin`).
//!
//! Writes `BENCH_3.json` (override with `--out PATH`) and prints the same
//! numbers as a table. `--check` exits non-zero if any gate of
//! `serve::failures` fails or if a serial rerun of the sweep renders a
//! different document outside its wall-clock fields — that mode is what
//! CI runs (with `--fast`) as a serving smoke test, so a relapse of the
//! inverted-scaling bug fails the build.

use hmd_bench::report::BenchRun;
use hmd_bench::serve::SERVE_SCALING_FLOOR;
use hmd_bench::{serve, setup, table};
use shmd_volt::calibration::{Calibrator, DeviceProfile};
use stochastic_hmd::ExecConfig;

fn main() {
    let run = BenchRun::from_env("BENCH_3.json");
    let args = run.args;
    let scale_name = args.scale.name();
    let queries = args.scale.pick(2_000, 20_000, 100_000);
    let dataset = setup::dataset(&args);
    let baseline = setup::victim(&dataset, 0, &args);
    let curve = Calibrator::new().calibrate(&DeviceProfile::reference());
    let exec = args.exec();

    let floor = serve::effective_scaling_floor(SERVE_SCALING_FLOOR, exec.thread_count());
    let delivered = serve::delivered_parallelism(exec.thread_count());
    let measure = |exec: &ExecConfig| {
        serve::measure_sweep(&baseline, &curve, &dataset, args.seed, queries, exec)
    };
    let render = |points: &[serve::ServePoint], threads: usize| {
        serve::render_json(points, args.seed, scale_name, threads, floor, delivered)
    };
    let points = measure(&exec);

    table::title(&format!(
        "Monitoring service throughput, {queries} queries/pool ({scale_name})"
    ));
    table::header(&[
        "shards",
        "serial (q/s)",
        "threaded (q/s)",
        "scaling",
        "degraded",
        "deterministic",
    ]);
    for p in &points {
        table::row(&[
            format!("{}", p.shards),
            format!("{:.0}", p.serial_qps),
            format!("{:.0}", p.threaded_qps),
            format!("{:.2}x", p.scaling()),
            format!("{}", p.degraded_shards),
            table::verdict(p.thread_invariant, "yes", "NO"),
        ]);
    }
    println!("(same stream, same seeds; only the worker pool differs between the two replays)");

    let threads = exec.thread_count();
    run.finish(
        &render(&points, threads),
        serve::failures(&points, threads, delivered),
        serve::WALL_CLOCK,
        |serial| render(&measure(serial), 1),
        &format!("thread-invariant at every pool size, no degradation, scaling above {floor:.2}x"),
    );
}
