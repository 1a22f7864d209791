//! Criterion bench: detection latency of the datapaths (TAB-LAT support).
//!
//! Measures the float path, the quantised exact path, the undervolted
//! (fault-injected) path, and an RHMD-style multi-model detection, showing
//! that undervolting adds no meaningful latency while RHMD's switching
//! does.

use criterion::{criterion_group, criterion_main, Criterion};
use shmd_ann::network::InferenceScratch;
use shmd_volt::fault::{ExactLanes, FaultModel, FaultStream};
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use std::hint::black_box;
use stochastic_hmd::detector::Detector;
use stochastic_hmd::rhmd::{Rhmd, RhmdConstruction};
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};

fn bench_inference(c: &mut Criterion) {
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

    let mut group = c.benchmark_group("inference");
    group.bench_function("float", |b| {
        b.iter(|| black_box(victim.network().forward(black_box(&features))))
    });
    group.bench_function("quantized_exact", |b| {
        let mut mac = ExactLanes;
        b.iter(|| black_box(q.infer(black_box(&features), &mut mac)))
    });
    group.bench_function("quantized_er_0_1", |b| {
        let mut mac = FaultStream::new(FaultModel::from_error_rate(0.1).unwrap(), 3);
        b.iter(|| black_box(q.infer(black_box(&features), &mut mac)))
    });
    group.bench_function("quantized_er_0_9", |b| {
        let mut mac = FaultStream::new(FaultModel::from_error_rate(0.9).unwrap(), 3);
        b.iter(|| black_box(q.infer(black_box(&features), &mut mac)))
    });
    // The deployed hot path: monomorphised corruptor + reusable scratch,
    // no per-inference allocation.
    group.bench_function("quantized_exact_scratch", |b| {
        let mut mac = ExactLanes;
        let mut scratch = InferenceScratch::new();
        b.iter(|| {
            black_box(q.infer_into(black_box(&features), &mut mac, &mut scratch));
        })
    });
    group.bench_function("quantized_er_0_1_scratch", |b| {
        let mut mac = FaultStream::new(FaultModel::from_error_rate(0.1).unwrap(), 3);
        let mut scratch = InferenceScratch::new();
        b.iter(|| {
            black_box(q.infer_into(black_box(&features), &mut mac, &mut scratch));
        })
    });
    group.finish();

    let mut rhmd = Rhmd::train(
        &dataset,
        split.victim_training(),
        RhmdConstruction::TwoFeatures,
        &HmdTrainConfig::fast(),
        5,
    )
    .expect("train rhmd");
    let trace = dataset.trace(0);
    let mut group = c.benchmark_group("detection");
    group.bench_function("baseline_hmd", |b| {
        let mut v = victim.clone();
        b.iter(|| black_box(v.score(black_box(trace))))
    });
    group.bench_function("rhmd_2f", |b| {
        b.iter(|| black_box(rhmd.score(black_box(trace))))
    });
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
