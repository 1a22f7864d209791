//! Micro-profiles the fault injectors. First the RNG and search
//! primitives (to calibrate expectations) and the per-call cost of
//! `corrupt_product` for the geometric-skip stream against the per-draw
//! oracle across error rates. Then, at the error rates the serving
//! deployments deliver (0.116359 for target 0.1, 0.413512 for target
//! 0.3), the split of one fault event into its gap draw, its first flip
//! with placement and ripple, and its tail continuation, and the counts
//! of events, tail searches and search probes per inference. Last, the
//! cost of building a model (`FaultModel::from_normalized_weights`, which
//! `from_error_rate` and so every retune runs) and of
//! each of its tables on its own: the gap table, the first-flip table, the
//! tail-continuation tables and the placement table.
//!
//! Run with `cargo run --release -p shmd-volt --example profile_fault`.
//! Detector-level numbers live in `bench_throughput` and perfbench.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shmd_volt::fault::{
    profile, BatchFaultStream, FaultModel, FaultStream, LaneCorruptor, PerDrawInjector,
};
use shmd_volt::multiplier::BitErrorProfile;
use std::hint::black_box;
use std::time::Instant;

/// Multiplications in one inference of the 16-12-1 serving network.
const INFERENCE_MULTIPLIES: usize = 16 * 12 + 12;

fn time<F: FnMut() -> u64>(n: u64, mut f: F) -> f64 {
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..n {
        acc = acc.wrapping_add(f());
    }
    black_box(acc);
    t.elapsed().as_secs_f64() / n as f64 * 1e9
}

/// One-lane fault-stream work per inference, as the serving path drives
/// it: a fresh stream per inference, drained over rows of 16
/// multiplications, with every event's fault applied.
fn inference_ns(model: &FaultModel, products: &[i64], inferences: u64) -> f64 {
    let rows = products.len() / INFERENCE_MULTIPLIES;
    let mut q = 0u64;
    time(inferences, || {
        q += 1;
        let base = (q as usize % rows) * INFERENCE_MULTIPLIES;
        let mut stream = BatchFaultStream::<1>::new(model, [q]);
        let mut acc = 0u64;
        for row in products[base..base + INFERENCE_MULTIPLIES].chunks(16) {
            let mut at = 0;
            while let Some(offset) = stream.lane_run(0, (row.len() - at) as u64) {
                let event = at + offset as usize;
                acc ^= stream.fault(0, black_box(row[event])) as u64;
                at = event + 1;
            }
        }
        acc
    })
}

fn median(mut runs: Vec<f64>) -> f64 {
    runs.sort_by(f64::total_cmp);
    runs[runs.len() / 2]
}

/// Raw Q32.32 products as the Q16.16 datapath presents them: active
/// widths 24..=62, above the datapath's near-zero floor, alternating in
/// sign.
fn datapath_products(n: usize) -> Vec<i64> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let width = 24 + (x % 39) as u32;
            let p = ((x >> (64 - width)) | (1 << (width - 1))) as i64;
            if i % 2 == 0 {
                p
            } else {
                -p
            }
        })
        .collect()
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

    // The event split. Each stage is timed on its own RNG over the same
    // product pool, the stages in turn for 21 rounds so that a change in
    // host speed hits them alike; the tail continuation is the whole event
    // less its first flip. Each round also times whole one-lane
    // inferences, where events overlap as they do when serving.
    let products = datapath_products(1 << 12);
    let pool = products.len() - 1;
    let n = 500_000u64;
    println!("\nper event (ns, median of 21)    gap   first flip+place+ripple   tail   total");
    let mut counted = Vec::new();
    for er in [0.116359, 0.413512] {
        let model = FaultModel::from_error_rate(er).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut i = 0usize;
        let mut next = || {
            i = (i + 1) & pool;
            black_box(products[i])
        };
        let (mut gaps, mut firsts, mut events) = (Vec::new(), Vec::new(), Vec::new());
        let mut inferences = Vec::new();
        for _ in 0..21 {
            gaps.push(time(n, || profile::gap(&model, &mut rng)));
            firsts.push(time(n, || profile::first_flip(&model, &mut rng, next())));
            events.push(time(n, || profile::event(&model, &mut rng, next()) as u64));
            inferences.push(inference_ns(&model, &products, 20_000));
        }
        let (gap, first, event) = (median(gaps), median(firsts), median(events));
        println!(
            "er={er:<8}                   {gap:5.2}   {first:23.2}   {:5.2}   {:5.2}",
            event - first,
            gap + event
        );
        let runs = 20_000;
        let stream: Vec<i64> = products
            .iter()
            .copied()
            .cycle()
            .take(runs * INFERENCE_MULTIPLIES)
            .collect();
        let counts = profile::count(&model, 7, &stream);
        counted.push((er, runs, counts, median(inferences)));
    }
    println!(
        "\nper inference ({INFERENCE_MULTIPLIES} multiplies)   events   tail searches   \
         probes per search   one-lane stream ns"
    );
    for (er, runs, c, ns) in counted {
        let per = |x: u64| x as f64 / runs as f64;
        println!(
            "er={er:<8}                  {:6.2}   {:13.2}   {:17.2}   {ns:18.0}",
            per(c.events),
            per(c.tail_searches),
            c.probes as f64 / c.tail_searches.max(1) as f64
        );
    }

    // Model builds. Each part is timed on its own, the parts in turn for
    // 21 rounds, like the event split.
    println!(
        "\nmodel build (ns, median of 21)   whole build   gap   first flip   tail   placement"
    );
    let weights = BitErrorProfile::fig1_normalized();
    let n = 20_000u64;
    for er in [0.1, 0.178, 0.4135] {
        let model = FaultModel::from_error_rate(er).unwrap();
        let mut parts: [Vec<f64>; 5] = Default::default();
        for _ in 0..21 {
            parts[0].push(time(n, || {
                let built = FaultModel::from_normalized_weights(black_box(er), weights);
                u64::from(built.is_ok())
            }));
            parts[1].push(time(n, || profile::build_gap(black_box(&model)) as u64));
            parts[2].push(time(n, || {
                profile::build_first_flip(black_box(&model)) as u64
            }));
            parts[3].push(time(n, || profile::build_tail(black_box(&model)) as u64));
            parts[4].push(time(n, || profile::build_place(black_box(&model)) as u64));
        }
        let [build, gap, first, tail, place] = parts.map(median);
        println!(
            "er={er:<8}                     {build:11.0}   {gap:3.0}   {first:10.0}   {tail:4.0}   {place:9.0}"
        );
    }
}
