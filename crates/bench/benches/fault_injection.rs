//! Criterion bench: raw fault-injector throughput across error rates.
//!
//! Since PR 2 the no-fault path costs no RNG draw at all: the injector
//! samples the gap to the next faulty multiplication from a geometric
//! distribution and counts down in between, so paper-scale sweeps
//! (Figs. 2 & 8) spend RNG time proportional to the number of *faults*,
//! not the number of multiplications. The `per_draw` group keeps the old
//! one-Bernoulli-per-product implementation alive as the comparison
//! baseline (and as the statistical oracle in the test suite).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use shmd_volt::fault::{FaultModel, FaultStream, PerDrawInjector};
use std::hint::black_box;

const ERROR_RATES: [f64; 5] = [0.0, 0.01, 0.1, 0.5, 0.9];

fn bench_geometric(c: &mut Criterion) {
    let mut group = c.benchmark_group("corrupt_product");
    for er in ERROR_RATES {
        group.bench_with_input(BenchmarkId::from_parameter(er), &er, |b, &er| {
            let mut injector = FaultStream::new(FaultModel::from_error_rate(er).unwrap(), 11);
            let mut x = 0x0123_4567_89ab_cdefi64;
            b.iter(|| {
                x = x.rotate_left(1);
                black_box(injector.corrupt_product(black_box(x)))
            })
        });
    }
    group.finish();
}

fn bench_per_draw(c: &mut Criterion) {
    let mut group = c.benchmark_group("corrupt_product_per_draw");
    for er in ERROR_RATES {
        group.bench_with_input(BenchmarkId::from_parameter(er), &er, |b, &er| {
            let mut injector = PerDrawInjector::new(FaultModel::from_error_rate(er).unwrap(), 11);
            let mut x = 0x0123_4567_89ab_cdefi64;
            b.iter(|| {
                x = x.rotate_left(1);
                black_box(injector.corrupt_product(black_box(x)))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_geometric, bench_per_draw);
criterion_main!(benches);
