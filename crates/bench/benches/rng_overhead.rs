//! Criterion bench: per-MAC RNG noise injection vs the plain datapath
//! (TAB-RNG support).
//!
//! On real hardware, undervolting noise is free while a TRNG/PRNG query per
//! MAC costs ≈62×/4× time. In simulation we can demonstrate the PRNG
//! direction directly: `NoisyMac` queries the RNG once per product.

use criterion::{criterion_group, criterion_main, Criterion};
use shmd_ann::mac::NoisyMac;
use shmd_volt::fault::ExactLanes;
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use std::hint::black_box;
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};

fn bench_rng_overhead(c: &mut Criterion) {
    let dataset = Dataset::generate(&DatasetConfig::small(100), 1);
    let split = dataset.three_fold_split(0);
    let victim = train_baseline(
        &dataset,
        split.victim_training(),
        FeatureSpec::frequency(),
        &HmdTrainConfig::fast(),
    )
    .expect("train");
    let q = victim.quantized();
    let features = victim.spec().extract(dataset.trace(0));

    let mut group = c.benchmark_group("noise_source");
    group.bench_function("undervolting_equivalent_plain", |b| {
        let mut mac = ExactLanes;
        b.iter(|| black_box(q.infer(black_box(&features), &mut mac)))
    });
    group.bench_function("prng_per_mac", |b| {
        let mut mac = NoisyMac::new(1 << 16, 7);
        b.iter(|| black_box(q.infer(black_box(&features), &mut mac)))
    });
    group.finish();
}

criterion_group!(benches, bench_rng_overhead);
criterion_main!(benches);
