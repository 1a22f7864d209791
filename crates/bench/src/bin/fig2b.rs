//! Figure 2(b): output-confidence distributions of benign and malware test
//! samples at er ∈ {0.1, 0.5, 1.0}.

use hmd_bench::experiments::FIG2B_ERROR_RATES;
use hmd_bench::{setup, table, Args};
use stochastic_hmd::explore::confidence_distribution;

fn histogram(scores: &[f64]) -> [usize; 10] {
    let mut bins = [0usize; 10];
    for &s in scores {
        let b = ((s * 10.0) as usize).min(9);
        bins[b] += 1;
    }
    bins
}

fn print_class(name: &str, scores: &[f64]) {
    let (mean, std) = shmd_ml::metrics::mean_std(scores);
    let bins = histogram(scores);
    let total: usize = bins.iter().sum::<usize>().max(1);
    print!("{name:>8}: mean {mean:.3} std {std:.3} |");
    for b in bins {
        print!(" {:4.1}%", 100.0 * b as f64 / total as f64);
    }
    println!();
}

fn main() {
    let args = Args::parse();
    let dataset = setup::dataset(&args);
    let reps = args.reps_or(10);

    table::title("Figure 2(b): confidence distributions (bins 0.0-0.1 ... 0.9-1.0)");
    for &er in &FIG2B_ERROR_RATES {
        let dist = confidence_distribution(
            &dataset,
            er,
            reps,
            &setup::train_config(&args),
            args.seed,
            &args.exec(),
        )
        .expect("valid error rates");
        println!("\n-- er = {er} --");
        print_class("benign", &dist.benign_scores);
        print_class("malware", &dist.malware_scores);
    }
    println!();
    println!("paper: score variance grows with er; class means stay separated until er → 1");
}
