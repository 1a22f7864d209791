//! Figure 2(a): accuracy, FPR, and FNR (mean ± std over repetitions ×
//! 3 folds) as the error rate sweeps 0 → 1.

use hmd_bench::{setup, table, Args};
use stochastic_hmd::explore::accuracy_sweep;

fn main() {
    let args = Args::parse();
    let dataset = setup::dataset(&args);
    let reps = args.reps_or(50); // the paper repeats each experiment 50×
    let grid: Vec<f64> = (0..=10).map(|i| f64::from(i) / 10.0).collect();

    let points = accuracy_sweep(
        &dataset,
        &grid,
        reps,
        &setup::train_config(&args),
        args.seed,
        &args.exec(),
    )
    .expect("sweep over a valid grid succeeds");

    table::title(&format!(
        "Figure 2(a): detection metrics vs error rate ({reps} reps x 3 folds, {} programs)",
        dataset.len()
    ));
    table::header(&["er", "accuracy", "FPR", "FNR"]);
    for p in &points {
        table::row(&[
            format!("{:.1}", p.error_rate),
            table::pct_pm(p.accuracy_mean, p.accuracy_std),
            table::pct_pm(p.fpr_mean, p.fpr_std),
            table::pct_pm(p.fnr_mean, p.fnr_std),
        ]);
    }
    let at0 = points.first().expect("non-empty grid");
    let at01 = &points[1];
    println!();
    println!(
        "accuracy loss at er = 0.1: {:.2}% (paper: ~2%)",
        (at0.accuracy_mean - at01.accuracy_mean) * 100.0
    );
}
