//! Batched-serving benchmark: the structure-of-arrays lane-parallel
//! inference path swept over lane widths (1/4/8/16) and error rates.
//!
//! Writes `BENCH_6.json` (override with `--out PATH`) and prints the same
//! numbers as a table. `--check` exits non-zero if any width's verdict
//! stream diverges from the `lanes = 1` deployment, if any width is not
//! thread-invariant, or if any shard degraded. The single-thread width
//! ratio against one lane is reported, not gated.

use hmd_bench::cli::Scale;
use hmd_bench::{batch, setup, table, Args};
use shmd_volt::calibration::{Calibrator, DeviceProfile};

/// Hidden width of the second, wider deployment the sweep measures. The
/// scale fixture (hidden 8/12) is event-bound at er = 0.1 — roughly one
/// fault event per ten multiplications regardless of network size — so
/// lane batching shows its full effect on detectors whose layers give the
/// straight-line MAC kernel more work per event. 32 keeps training at
/// bench scale cheap while putting the MAC:event ratio near the paper's
/// two-hidden-layer deployments.
const WIDE_HIDDEN: usize = 32;

fn main() {
    let mut check = false;
    let mut out_path = String::from("BENCH_6.json");
    let mut rest: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--check" => check = true,
            "--out" => match it.next() {
                Some(v) => out_path = v,
                None => {
                    eprintln!("error: --out needs a path");
                    std::process::exit(2);
                }
            },
            _ => rest.push(flag),
        }
    }
    let args = match Args::try_from_iter(rest) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("flags: --seed N  --threads N  --paper  --fast  --check  --out PATH");
            std::process::exit(2);
        }
    };

    let (scale_name, queries) = match args.scale {
        Scale::Fast => ("fast", 2_000),
        Scale::Medium => ("medium", 20_000),
        Scale::Paper => ("paper", 100_000),
    };
    let dataset = setup::dataset(&args);
    let baseline = setup::victim(&dataset, 0, &args);
    let hidden = setup::train_config(&args).hidden;
    let fixture_label = format!("16-{hidden}-1");
    let wide = setup::victim_with_hidden(&dataset, 0, &args, WIDE_HIDDEN);
    let wide_label = format!("16-{WIDE_HIDDEN}-1");
    let curve = Calibrator::new().calibrate(&DeviceProfile::reference());
    let exec = args.exec();

    let mut points = batch::measure_sweep(
        &baseline,
        &fixture_label,
        &curve,
        &dataset,
        args.seed,
        queries,
        &exec,
    );
    points.extend(batch::measure_sweep(
        &wide,
        &wide_label,
        &curve,
        &dataset,
        args.seed,
        queries,
        &exec,
    ));

    table::title(&format!(
        "Batched serving throughput, {queries} queries/deployment ({scale_name})"
    ));
    table::header(&[
        "network",
        "er",
        "lanes",
        "1 lane (q/s)",
        "N lanes (q/s)",
        "vs 1 lane",
        "threaded (q/s)",
        "identical",
    ]);
    for p in &points {
        table::row(&[
            p.network.clone(),
            format!("{}", p.error_rate),
            format!("{}", p.lanes),
            format!("{:.0}", p.one_lane_qps),
            format!("{:.0}", p.batched_qps),
            format!("{:.2}x", p.vs_one_lane()),
            format!("{:.0}", p.threaded_qps),
            if p.matches_one_lane && p.thread_invariant {
                "yes"
            } else {
                "NO"
            }
            .into(),
        ]);
    }
    println!(
        "(same stream, same seeds; only the lane width — and, for the threaded \
         column, the worker pool — differs between replays)"
    );
    for p in points
        .iter()
        .filter(|p| p.error_rate == 0.1 && p.lanes == 8)
    {
        println!(
            "{}: 8 lanes run at {:.2}x the one-lane throughput at er = 0.1 (reported, not gated)",
            p.network,
            p.vs_one_lane()
        );
    }

    let doc = batch::render_json(&points, args.seed, scale_name, exec.thread_count());
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");

    if check {
        let mut failed = false;
        for p in &points {
            if !p.matches_one_lane {
                eprintln!(
                    "FAIL: er {} lanes {}: replay diverged from the one-lane deployment",
                    p.error_rate, p.lanes
                );
                failed = true;
            }
            if !p.thread_invariant {
                eprintln!(
                    "FAIL: er {} lanes {}: threaded replay diverged from serial",
                    p.error_rate, p.lanes
                );
                failed = true;
            }
            if p.degraded_shards != 0 {
                eprintln!(
                    "FAIL: er {} lanes {}: {} shards degraded at a reachable target",
                    p.error_rate, p.lanes, p.degraded_shards
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check passed: every width bit-identical to one lane and thread-invariant, \
             no degradation"
        );
    }
}
