//! Criterion bench: one training epoch at the paper's HMD shape.
//!
//! Victim training (iRPROP−, FANN's default) dominates the set-up cost of
//! every experiment and of the end-to-end serving bench. This bench times it
//! at the layer level: a 16-12-1 network over deterministic synthetic
//! samples, 2 400 (a paper-scale victim fold) and 1 200 (perfbench's fold).
//!
//! `rprop/0_epochs` is the forward pass every RPROP run starts with; it
//! yields the untouched network's MSE and the traces the first gradient
//! reads. `rprop/1_epoch` adds one epoch (batch gradient, update, and the
//! forward pass shared by the epoch's MSE and the next gradient), so one
//! RPROP epoch costs the difference. `sgd/1_epoch` is one incremental epoch:
//! a forward pass, gradient and update per sample, then the epoch's MSE.
//!
//! The unsuffixed RPROP entries run on one thread, so they time the
//! sample-blocked forward kernel alone. The `/threads_N` entries split the
//! forward pass and the gradient across `N` workers, `N` being the
//! machine's available parallelism (what `train_baseline` uses outside an
//! experiment grid); their gap to the serial entries is the thread gain.
//! Thread-split timings depend on the host's core count.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shmd_ann::builder::NetworkBuilder;
use shmd_ann::network::Network;
use shmd_ann::train::{RpropTrainer, SgdTrainer, TrainData};
use std::hint::black_box;
use std::num::NonZeroUsize;

const INPUT_DIM: usize = 16;
/// A paper-scale victim fold.
const SAMPLES: usize = 2_400;
/// Perfbench's victim fold.
const PERFBENCH_SAMPLES: usize = 1_200;

fn fixture(samples: usize) -> (Network, TrainData) {
    let net = NetworkBuilder::new(INPUT_DIM)
        .hidden(12)
        .output(1)
        .seed(7)
        .build()
        .expect("valid network");
    let mut rng = StdRng::seed_from_u64(11);
    let inputs: Vec<Vec<f32>> = (0..samples)
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
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let mut group = c.benchmark_group("train");
    for samples in [SAMPLES, PERFBENCH_SAMPLES] {
        let (net, data) = fixture(samples);
        let size = if samples == SAMPLES {
            String::new()
        } else {
            format!("/{samples}")
        };
        for (suffix, n) in [(String::new(), 1), (format!("/threads_{threads}"), threads)] {
            for epochs in [0, 1] {
                let name = if epochs == 0 { "0_epochs" } else { "1_epoch" };
                group.bench_function(&format!("rprop/{name}{size}{suffix}"), |b| {
                    b.iter(|| {
                        RpropTrainer::new()
                            .epochs(epochs)
                            .threads(n)
                            .train(&mut net.clone(), black_box(&data))
                    })
                });
            }
        }
        if samples == SAMPLES {
            group.bench_function("sgd/1_epoch", |b| {
                b.iter(|| {
                    SgdTrainer::new()
                        .epochs(1)
                        .train(&mut net.clone(), black_box(&data))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_train);
criterion_main!(benches);
