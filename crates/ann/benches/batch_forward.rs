//! Criterion bench: the quantised forward pass at lane widths 1, 4, 8
//! and 16.
//!
//! Batching's whole claim is per-query throughput: one weight load feeds
//! `LANES` multiply-accumulates and the fault-gap countdown is decremented
//! in bulk, so B queries through one layer walk should beat B one-query
//! walks. This bench pins that claim at the layer level — if a refactor
//! regresses the MAC loop, it shows up here without running the
//! end-to-end serving bench.
//!
//! Timings are per `LANES`-query batch, so divide by the width when
//! comparing per-query cost.

use criterion::{criterion_group, criterion_main, Criterion};
use shmd_ann::builder::NetworkBuilder;
use shmd_ann::network::{BatchScratch, QuantizedNetwork};
use shmd_volt::fault::{BatchFaultStream, ExactLanes, FaultModel};
use std::hint::black_box;

const INPUT_DIM: usize = 32;

fn fixture() -> (QuantizedNetwork, Vec<Vec<f32>>) {
    let net = NetworkBuilder::new(INPUT_DIM)
        .hidden(24)
        .hidden(12)
        .output(1)
        .seed(7)
        .build()
        .expect("valid network")
        .quantized();
    let inputs: Vec<Vec<f32>> = (0..16)
        .map(|l| {
            (0..INPUT_DIM)
                .map(|i| ((l * INPUT_DIM + i) as f32 * 0.137).sin())
                .collect()
        })
        .collect();
    (net, inputs)
}

fn bench_width<const LANES: usize>(
    c: &mut Criterion,
    net: &QuantizedNetwork,
    inputs: &[Vec<f32>],
    model: &FaultModel,
) {
    let refs: [&[f32]; LANES] = std::array::from_fn(|l| inputs[l % inputs.len()].as_slice());
    let mut group = c.benchmark_group(format!("batch_forward/b{LANES}"));
    group.bench_function("exact", |b| {
        let mut scratch = BatchScratch::<LANES>::new();
        b.iter(|| {
            black_box(net.infer_batch_into(black_box(&refs), &mut ExactLanes, &mut scratch));
        })
    });
    group.bench_function("er_0_1", |b| {
        let mut scratch = BatchScratch::<LANES>::new();
        let seeds: [u64; LANES] = std::array::from_fn(|l| 11 + l as u64);
        b.iter(|| {
            let mut stream = BatchFaultStream::new(model, seeds);
            black_box(net.infer_batch_into(black_box(&refs), &mut stream, &mut scratch));
        })
    });
    group.finish();
}

fn bench_batch_forward(c: &mut Criterion) {
    let (net, inputs) = fixture();
    let model = FaultModel::from_error_rate(0.1)
        .expect("valid")
        .with_near_zero_width(20);

    bench_width::<1>(c, &net, &inputs, &model);
    bench_width::<4>(c, &net, &inputs, &model);
    bench_width::<8>(c, &net, &inputs, &model);
    bench_width::<16>(c, &net, &inputs, &model);
}

criterion_group!(benches, bench_batch_forward);
criterion_main!(benches);
