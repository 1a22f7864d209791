//! Times whole iRPROP− training runs at several fold sizes and worker
//! counts: the measurement behind `train_baseline`'s minimum samples per
//! training worker.
//!
//! Each run trains a 16-12-1 network (the victim HMD's shape) for a fixed
//! number of epochs on deterministic synthetic samples, so a run includes
//! the crew's start-up and every hand-off between an epoch's steps. The
//! worker counts take turns in alternating order each round; the table
//! gives each cell's median and quartiles and its speed-up over one worker.
//!
//! ```text
//! cargo run --release -p shmd-ann --example train_threads -- [ROUNDS] [EPOCHS] [SIZES]
//! ```
//!
//! Defaults: 15 rounds, 200 epochs (`HmdTrainConfig::paper()`), sizes
//! `32,64,128,256,512,1200`, and 1, 2 and 4 workers. Worker counts above
//! the host's core count oversubscribe it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shmd_ann::builder::NetworkBuilder;
use shmd_ann::train::{RpropTrainer, TrainData};
use std::hint::black_box;
use std::time::Instant;

const INPUT_DIM: usize = 16;
const WORKERS: [usize; 3] = [1, 2, 4];

fn data(samples: usize) -> TrainData {
    let mut rng = StdRng::seed_from_u64(11);
    let inputs: Vec<Vec<f32>> = (0..samples)
        .map(|_| (0..INPUT_DIM).map(|_| rng.gen::<f32>()).collect())
        .collect();
    let targets = inputs
        .iter()
        .map(|x| vec![if x[0] + x[1] > x[2] + 0.5 { 1.0 } else { 0.0 }])
        .collect();
    TrainData::new(inputs, targets).expect("valid data")
}

/// The `q`-quantile of sorted `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    values[((values.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let number = |i: usize, default: usize| {
        args.get(i)
            .map_or(default, |a| a.parse().expect("a whole number"))
    };
    let rounds = number(0, 15).max(1);
    let epochs = number(1, 200);
    let sizes: Vec<usize> = args.get(2).map_or(vec![32, 64, 128, 256, 512, 1200], |a| {
        a.split(',')
            .map(|s| s.parse().expect("comma-separated sample counts"))
            .collect()
    });
    let net = NetworkBuilder::new(INPUT_DIM)
        .hidden(12)
        .output(1)
        .seed(7)
        .build()
        .expect("valid network");
    let folds: Vec<TrainData> = sizes.iter().map(|&n| data(n)).collect();
    let mut millis = vec![[(); WORKERS.len()].map(|()| Vec::new()); sizes.len()];
    for round in 0..rounds {
        for (fold, cells) in folds.iter().zip(&mut millis) {
            for k in 0..WORKERS.len() {
                let w = if round % 2 == 0 {
                    k
                } else {
                    WORKERS.len() - 1 - k
                };
                let start = Instant::now();
                let mse = RpropTrainer::new()
                    .epochs(epochs)
                    .target_mse(0.0)
                    .threads(WORKERS[w])
                    .train(&mut net.clone(), fold);
                cells[w].push(start.elapsed().as_secs_f64() * 1e3);
                black_box(mse);
            }
        }
    }
    println!("{epochs} epochs, {rounds} rounds; ms per training run");
    println!("samples  workers  median      q1      q3  speed-up");
    for (samples, cells) in sizes.iter().zip(&mut millis) {
        let mut one = 0.0;
        for (workers, cell) in WORKERS.iter().zip(cells.iter_mut()) {
            cell.sort_by(f64::total_cmp);
            let median = quantile(cell, 0.5);
            if *workers == 1 {
                one = median;
            }
            println!(
                "{samples:>7}  {workers:>7}  {median:>6.2}  {:>6.2}  {:>6.2}  {:>7.2}x",
                quantile(cell, 0.25),
                quantile(cell, 0.75),
                one / median
            );
        }
    }
}
