//! Power-Pareto benchmark: the energy/accuracy/robustness frontier of
//! undervolted operating points, plus an energy-aware scheduled pool
//! held under a measured service power budget.
//!
//! Writes `BENCH_7.json` (override with `--out PATH`) and prints the
//! same numbers as two tables. `--check` exits non-zero if any gate of
//! `power::failures` fails, among them the budgeted pool's identity with
//! its serial replay and its restore — that mode is what CI runs (with
//! `--fast`) as the power smoke test.

use hmd_bench::report::BenchRun;
use hmd_bench::{power, setup, table};
use shmd_volt::calibration::{Calibrator, DeviceProfile};
use std::process::ExitCode;

fn main() -> ExitCode {
    let run = BenchRun::from_env("BENCH_7.json");
    let args = run.args;
    let scale_name = args.scale.name();
    let batch_size = args.scale.pick(64, 256, 1024);
    let dataset = setup::dataset(&args);
    let baseline = setup::victim(&dataset, 0, &args);
    let device = DeviceProfile::reference();
    let curve = Calibrator::new().calibrate(&device);
    let exec = args.exec();

    let points = power::pareto_sweep(&dataset, &baseline, &curve, &device, &args);
    let limit = power::fig7_limit();

    table::title(&format!(
        "Operating-point Pareto sweep, reference device ({scale_name})"
    ));
    table::header(&[
        "target er",
        "temp C",
        "offset mV",
        "vdd",
        "delivered",
        "pkg W",
        "pkg save",
        "vs RHMD",
        "accuracy",
        "evasion det",
    ]);
    let na = || "-".to_string();
    for p in &points {
        table::row(&[
            format!("{:.2}", p.target_er),
            format!("{:.0}", p.temp_c),
            format!("{}", p.offset_mv),
            format!("{:.3}", p.vdd),
            if p.freezes {
                "FREEZE".to_string()
            } else {
                format!("{:.3}", p.delivered_er)
            },
            format!("{:.2}", p.package_power_w),
            format!("{:.1}%", 100.0 * p.package_saving_vs_baseline),
            format!("{:.1}%", 100.0 * p.core_saving_vs_rhmd),
            p.accuracy.map_or_else(na, |v| format!("{v:.3}")),
            p.evasion_detection.map_or_else(na, |v| format!("{v:.3}")),
        ]);
    }
    println!(
        "(Fig. 7 voltage-axis endpoint: {:.1}% core saving over RHMD at {:.2} V — \
         deeper than the calibrated device can schedule)",
        100.0 * limit.core_saving_vs_rhmd,
        limit.vdd
    );

    let service = power::measure_service(&baseline, &dataset, args.seed, batch_size, &exec);
    table::title(&format!(
        "Budgeted pool, {} shards x {} batches x {batch_size} queries",
        service.shards, service.batches
    ));
    table::header(&[
        "unpressured W",
        "floor W",
        "budget W",
        "held at W",
        "energy mJ",
        "max target",
        "crashes",
        "deterministic",
        "restores",
    ]);
    table::row(&[
        format!("{:.3}", service.unpressured_w),
        format!("{:.3}", service.floor_w),
        format!("{:.3}", service.budget_w),
        format!("{:.3}", service.projected_w),
        format!("{:.3}", service.total_energy_uj / 1000.0),
        format!("{:.2}", service.max_target_er),
        format!("{}", service.crashes),
        table::verdict(service.thread_invariant, "yes", "NO"),
        table::verdict(service.restore_invariant, "yes", "NO"),
    ]);
    println!("(budget measured mid-window between the pool's unpressured draw and its band cap)");

    let threads = exec.thread_count();
    run.finish(
        &power::render_json(&points, limit, &service, args.seed, scale_name, threads),
        power::failures(&points, limit, &service),
        "~15% package saving at the operating point, >75% over RHMD \
         at the Fig. 7 limit, budget held with zero freezes, replay thread-invariant, \
         restore bit-identical",
    )
}
