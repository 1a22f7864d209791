//! Criterion bench: one training epoch at the paper's HMD shape.
//!
//! Victim training (iRPROP−, FANN's default) dominates the set-up cost of
//! every experiment and of the end-to-end serving bench. This bench times it
//! at the layer level: a 16-12-1 network over 2 400 deterministic synthetic
//! samples, the size of a paper-scale victim fold.
//!
//! `rprop/0_epochs` is the forward pass every RPROP run starts with; it
//! yields the untouched network's MSE and the traces the first gradient
//! reads. `rprop/1_epoch` adds one epoch (batch gradient, update, and the
//! forward pass shared by the epoch's MSE and the next gradient), so one
//! RPROP epoch costs the difference. `sgd/1_epoch` is one incremental epoch:
//! a forward pass, gradient and update per sample, then the epoch's MSE.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shmd_ann::builder::NetworkBuilder;
use shmd_ann::network::Network;
use shmd_ann::train::{RpropTrainer, SgdTrainer, TrainData};
use std::hint::black_box;

const INPUT_DIM: usize = 16;
const SAMPLES: usize = 2_400;

fn fixture() -> (Network, TrainData) {
    let net = NetworkBuilder::new(INPUT_DIM)
        .hidden(12)
        .output(1)
        .seed(7)
        .build()
        .expect("valid network");
    let mut rng = StdRng::seed_from_u64(11);
    let inputs: Vec<Vec<f32>> = (0..SAMPLES)
        .map(|_| (0..INPUT_DIM).map(|_| rng.gen::<f32>()).collect())
        .collect();
    let targets = inputs
        .iter()
        .map(|x| vec![if x[0] + x[1] > x[2] + 0.5 { 1.0 } else { 0.0 }])
        .collect();
    let data = TrainData::new(inputs, targets).expect("valid data");
    (net, data)
}

fn bench_train(c: &mut Criterion) {
    let (net, data) = fixture();
    let mut group = c.benchmark_group("train");
    group.bench_function("rprop/0_epochs", |b| {
        b.iter(|| {
            RpropTrainer::new()
                .epochs(0)
                .train(&mut net.clone(), black_box(&data))
        })
    });
    group.bench_function("rprop/1_epoch", |b| {
        b.iter(|| {
            RpropTrainer::new()
                .epochs(1)
                .train(&mut net.clone(), black_box(&data))
        })
    });
    group.bench_function("sgd/1_epoch", |b| {
        b.iter(|| {
            SgdTrainer::new()
                .epochs(1)
                .train(&mut net.clone(), black_box(&data))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_train);
criterion_main!(benches);
