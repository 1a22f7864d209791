//! Crash/restore durability benchmark: kill -9 a journaled supervised
//! chaos run at adversarial batch indices (half mid-journal-append, via a
//! torn tail), restore from the write-ahead state journal, and verify the
//! resumed run is bit-identical to an uninterrupted reference — restored
//! serially and onto a worker pool.
//!
//! Writes `BENCH_5.json` (override with `--out PATH`) and prints the same
//! numbers as a table; the journal checkpoints every
//! `durability::DEFAULT_CADENCE` batches. `--check` exits non-zero if any
//! gate of `durability::failures` fails or if a serial rerun of the sweep
//! renders a different document — that mode is what CI runs (with
//! `--fast`) as the durability smoke test.

use hmd_bench::durability::{self, DEFAULT_CADENCE};
use hmd_bench::report::BenchRun;
use hmd_bench::{setup, table};
use stochastic_hmd::ExecConfig;

fn main() {
    let run = BenchRun::from_env("BENCH_5.json");
    let args = run.args;
    let scale_name = args.scale.name();
    let batch_size = args.scale.pick(8, 32, 128);
    let dataset = setup::dataset(&args);
    let baseline = setup::victim(&dataset, 0, &args);
    let exec = args.exec();

    let measure = |exec: &ExecConfig| {
        durability::measure_sweep(
            &baseline,
            &dataset,
            args.seed,
            batch_size,
            DEFAULT_CADENCE,
            exec,
        )
    };
    let render = |points: &[durability::DurabilityPoint], threads: usize| {
        durability::render_json(points, args.seed, scale_name, threads)
    };
    let points = measure(&exec);

    table::title(&format!(
        "Crash/restore durability, {} shards, checkpoint every {DEFAULT_CADENCE} batches ({scale_name})",
        durability::DURABILITY_SHARDS
    ));
    table::header(&[
        "kill@",
        "torn",
        "resume@",
        "commits",
        "replayed",
        "commits-match",
        "serial",
        "threads",
    ]);
    for p in &points {
        table::row(&[
            format!("{}", p.kill_batch),
            table::verdict(p.torn_tail, "yes", "no"),
            format!("{}", p.resume_batch),
            format!("{}", p.commits_recovered),
            format!("{}", p.replayed_batches),
            table::verdict(p.commits_match, "yes", "NO"),
            table::verdict(p.serial_identical, "identical", "DIVERGED"),
            table::verdict(p.threaded_identical, "identical", "DIVERGED"),
        ]);
    }
    println!("(same seed, same chaos schedule; the only difference is dying and coming back)");

    run.finish(
        &render(&points, exec.thread_count()),
        durability::failures(&points),
        durability::WALL_CLOCK,
        |serial| render(&measure(serial), 1),
        "every kill point restored bit-identically, serial and threaded, torn tails discarded",
    );
}
