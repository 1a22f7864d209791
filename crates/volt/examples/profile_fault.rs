//! Micro-profiles the fault injectors' per-call cost: RNG/search
//! primitives first (to calibrate expectations), then
//! `corrupt_product` for the geometric-skip injector vs the per-draw
//! oracle across the benchmark error rates. Useful when tuning the
//! event path — detector-level numbers live in `bench_throughput`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shmd_volt::fault::{FaultModel, FaultStream, PerDrawInjector};
use std::hint::black_box;
use std::time::Instant;

fn time<F: FnMut() -> u64>(n: u64, mut f: F) -> f64 {
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..n {
        acc = acc.wrapping_add(f());
    }
    black_box(acc);
    t.elapsed().as_secs_f64() / n as f64 * 1e9
}

fn main() {
    let n = 50_000_000u64;
    let mut rng = StdRng::seed_from_u64(1);
    println!("gen f64: {:.2} ns", time(n, || rng.gen::<f64>() as u64));
    let mut rng2 = StdRng::seed_from_u64(2);
    println!(
        "gen f64 + ln: {:.2} ns",
        time(n, || (rng2.gen::<f64>() + 1.0).ln() as u64)
    );
    let cdf: Vec<f64> = (0..54).map(|i| (i as f64 + 1.0) / 54.0).collect();
    let mut rng3 = StdRng::seed_from_u64(3);
    println!(
        "gen f64 + partition_point(54): {:.2} ns",
        time(n, || {
            let u: f64 = rng3.gen();
            cdf.partition_point(|&c| c < u) as u64
        })
    );

    let n = 20_000_000u64;
    for er in [0.0, 0.05, 0.1, 0.3] {
        let model = FaultModel::from_error_rate(er).unwrap();
        let mut geo = FaultStream::new(model.clone(), 1);
        let mut per = PerDrawInjector::new(model, 1);
        let mut x = 0x0123_4567_89ab_cdefi64;
        let g = time(n, || {
            x = x.rotate_left(1);
            geo.corrupt_product(black_box(x)) as u64
        });
        let p = time(n, || {
            x = x.rotate_left(1);
            per.corrupt_product(black_box(x)) as u64
        });
        println!("er={er}: geometric {g:.2} ns/call, per-draw {p:.2} ns/call");
    }

    // Event decomposition: near-zero products absorb before any flip
    // draw, so (near_zero − exact) / er isolates the gap-resample side
    // of an event and the remainder is the flip machinery.
    {
        let er = 0.1;
        let model = FaultModel::from_error_rate(er).unwrap();
        let mut geo = FaultStream::new(model, 1);
        let a = time(n, || geo.corrupt_product(black_box(1)) as u64);
        println!("er={er}: geometric near-zero {a:.2} ns/call");
    }
}
