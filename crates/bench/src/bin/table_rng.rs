//! §VIII "Comparison with TRNG": overheads of injecting noise from a
//! TRNG/PRNG after every MAC, vs undervolting (free).

use hmd_bench::{setup, table, Args};
use shmd_ann::mac::NoisyMac;
use shmd_power::rng_cost::{NoiseSource, RngCostModel};
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let model = RngCostModel::i7_5557u();

    table::title("Noise-source overheads (paper-calibrated model)");
    table::header(&["source", "time overhead", "energy overhead"]);
    for source in [
        NoiseSource::Undervolting,
        NoiseSource::Prng,
        NoiseSource::Trng,
    ] {
        table::row(&[
            source.to_string(),
            format!("{:.1}x", model.time_overhead(source)),
            format!("{:.1}x", model.energy_overhead(source)),
        ]);
    }
    println!("paper: TRNG ~62x time / ~112x energy; PRNG ~4x / ~5.7x");

    // Live: per-MAC PRNG noise injection vs the same per-MAC hook with
    // the draw switched off (amplitude 0 skips the RNG), so the ratio is
    // the cost of the PRNG query alone.
    let dataset = setup::dataset(&args);
    let victim = setup::victim(&dataset, 0, &args);
    let q = victim.quantized();
    let features = victim.spec().extract(dataset.trace(0));
    let n = 20_000;

    let mut scratch = shmd_ann::network::InferenceScratch::new();
    let mut time = |mut mac: NoisyMac| {
        let start = Instant::now();
        for _ in 0..n {
            std::hint::black_box(q.infer_into(&features, &mut mac, &mut scratch));
        }
        start.elapsed().as_nanos() as f64 / f64::from(n)
    };
    let plain_ns = time(NoisyMac::new(0, args.seed));
    let noisy_ns = time(NoisyMac::new(1 << 16, args.seed));

    println!();
    table::title("Live measurement: per-MAC PRNG noise injection");
    table::header(&["datapath", "time/inference", "overhead"]);
    table::row(&["plain".into(), format!("{plain_ns:.0} ns"), "1.0x".into()]);
    table::row(&[
        "PRNG/MAC".into(),
        format!("{noisy_ns:.0} ns"),
        format!("{:.1}x", noisy_ns / plain_ns),
    ]);
}
