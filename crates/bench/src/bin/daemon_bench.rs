//! Daemon benchmark: the wire → admission → verdict path end to end —
//! ingest throughput, reject accounting under overload (predicted vs
//! observed, conservation law), a mid-stream rolling upgrade (zero
//! committed queries lost, verdict checksum bit-identical to a
//! never-upgraded reference, serial and worker-pool successors), and an
//! exhaustive hostile-bytes corpus over every wire frame kind.
//!
//! Writes `BENCH_8.json` (override with `--out PATH`) and prints the same
//! numbers as a table. `--check` exits non-zero if any gate of
//! `daemon::failures` fails — that mode is what CI runs (with `--fast`) as
//! the daemon smoke test. It also re-runs the measurement serially and
//! compares the documents with `threads`/`timing` skipped, so everything
//! else must be bit-identical.

use hmd_bench::report::BenchRun;
use hmd_bench::{daemon, setup, table};
use stochastic_hmd::ExecConfig;

fn main() {
    let run = BenchRun::from_env("BENCH_8.json");
    let args = run.args;
    let scale_name = args.scale.name();
    let batch_size = args.scale.pick(8, 32, 128);
    let dataset = setup::dataset(&args);
    let baseline = setup::victim(&dataset, 0, &args);
    let exec = args.exec();

    let measure =
        |exec: &ExecConfig| daemon::measure(&baseline, &dataset, args.seed, batch_size, exec);
    let render = |report: &daemon::DaemonBenchReport, threads: usize| {
        daemon::render_json(report, args.seed, scale_name, threads)
    };
    let report = measure(&exec);

    table::title(&format!(
        "Monitoring daemon, {} shards, rolling upgrade mid-stream ({scale_name})",
        daemon::DAEMON_SHARDS
    ));
    table::header(&["measure", "value", "verdict"]);
    table::row(&[
        "ingest throughput".into(),
        format!("{:.0} queries/s", report.throughput.qps),
        format!("{} queries", report.throughput.queries),
    ]);
    table::row(&[
        "overload accounting".into(),
        format!(
            "{} offered / {} admitted",
            report.overload.stats.offered_frames, report.overload.stats.admitted_frames
        ),
        table::verdict(
            report.overload.conserved && report.overload.predicted,
            "exact",
            "DIVERGED",
        ),
    ]);
    for (name, p) in [
        ("upgrade (serial)", &report.upgrade_serial),
        ("upgrade (pool)", &report.upgrade_threaded),
    ] {
        table::row(&[
            name.into(),
            format!(
                "drain {} batches, gap {} rejects, handoff {} B",
                p.drained_batches, p.drain_rejects, p.handoff_bytes
            ),
            table::verdict(p.identical, "identical", "DIVERGED"),
        ]);
    }
    table::row(&[
        "hostile corpus".into(),
        format!(
            "{} inputs over {} kinds",
            report.hostile.inputs, report.hostile.kinds
        ),
        format!("{} survivors", report.hostile.survivors),
    ]);
    println!("(the upgrade drains, checkpoints, hands off, and the successor proves checksum identity before serving)");

    run.finish(
        &render(&report, exec.thread_count()),
        daemon::failures(&report),
        daemon::WALL_CLOCK,
        |serial| render(&measure(serial), 1),
        "accounting exact, upgrade lossless and bit-identical at every \
         thread count, hostile corpus fully rejected",
    );
}
