//! Decomposes the per-query cost of the serving hot path at the bench
//! fixture's scale (16 → 8 → 1 network by default, the wider 16 → 32 → 1
//! deployment with `--wide`; er = 0.1): fault-stream setup, one query
//! through a [`FaultStream`], and the batched inference at the widths
//! serving runs (`serve::LANE_WIDTHS`: 1 and 8) through a
//! [`BatchFaultStream`], each against its exact (er = 0) counterpart so
//! the event-side cost falls out by subtraction. Both streams drive the
//! same kernel; the `FaultStream` row is the baseline of the speed-up
//! column. The `FaultStream` query and both widths are timed again at
//! er = 0.413512, the rate the serving deployments deliver for target 0.3
//! (the attacker arena's operating point). Each component is
//! timed in a tight loop so the split between shared per-query overhead,
//! lane-amortizable work, and the batching-immune event floor is visible
//! directly — detector-level numbers live in `batch_bench`.

use hmd_bench::setup;
use hmd_bench::Args;
use shmd_ann::network::{BatchScratch, InferenceScratch};
use shmd_volt::fault::{BatchFaultStream, FaultStream, LaneCorruptor};
use std::hint::black_box;
use std::time::Instant;
use stochastic_hmd::StochasticHmd;

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
    let args = Args::parse_from(["--fast".to_string()]);
    let dataset = setup::dataset(&args);
    let wide = std::env::args().any(|a| a == "--wide");
    let baseline = if wide {
        setup::victim_with_hidden(&dataset, 0, &args, 32)
    } else {
        setup::victim(&dataset, 0, &args)
    };
    let spec = baseline.spec();
    let features: Vec<Vec<f32>> = (0..64)
        .map(|i| spec.extract(dataset.trace(i % dataset.len())))
        .collect();
    let hmd = StochasticHmd::from_baseline(&baseline, 0.1, 7).expect("valid error rate");
    let model = hmd.fault_model();

    // Ground truth: events per query (faulty + absorbed ~ multiplies*er).
    {
        let mut scratch = InferenceScratch::new();
        let mut stream = FaultStream::new(model, 1);
        for q in 0..1000u64 {
            let f = &features[(q as usize) & 63];
            hmd.score_features_with(f, &mut stream, &mut scratch);
        }
        let st = stream.stats();
        println!(
            "per query: multiplies {:.1}, faulty {:.2}, flips/fault {:.2}, nominal events {:.2}",
            st.multiplies as f64 / 1000.0,
            st.faulty as f64 / 1000.0,
            st.flips_per_fault(),
            st.multiplies as f64 / 1000.0 * model.error_rate(),
        );
    }

    let n = 2_000_000u64;
    println!(
        "FaultStream::new          {:6.1} ns",
        time(n, || {
            FaultStream::new(model, black_box(7)).corrupt_product(1) as u64
        })
    );
    println!(
        "BatchFaultStream::new b8  {:6.1} ns",
        time(n / 4, || {
            let mut s = BatchFaultStream::<8>::new(model, black_box([7; 8]));
            s.fault(0, 1) as u64
        })
    );

    let mut scratch = InferenceScratch::new();
    let mut pos = 0u64;
    let scalar = time(n, || {
        let f = &features[(pos as usize) & 63];
        pos += 1;
        let mut stream = FaultStream::new(model, pos);
        hmd.score_features_with(black_box(f), &mut stream, &mut scratch)
            .to_bits()
    });
    println!("FaultStream query (stream+infer) {scalar:6.1} ns");

    let mut exact_scratch = InferenceScratch::new();
    let exact_hmd = StochasticHmd::from_baseline(&baseline, 0.0, 7).expect("valid");
    let exact_model = exact_hmd.fault_model();
    let exact = time(n, || {
        let f = &features[(pos as usize) & 63];
        pos += 1;
        let mut stream = FaultStream::new(exact_model, pos);
        exact_hmd
            .score_features_with(black_box(f), &mut stream, &mut exact_scratch)
            .to_bits()
    });
    println!("FaultStream query exact          {exact:6.1} ns");

    macro_rules! batched {
        ($lanes:literal) => {
            batched!($lanes, hmd, model, scalar)
        };
        ($lanes:literal, $hmd:expr, $model:expr, $scalar:expr) => {{
            let (hmd, model, scalar): (&StochasticHmd, _, f64) = (&$hmd, $model, $scalar);
            let mut scratch = BatchScratch::<$lanes>::new();
            let blocks = n / $lanes;
            let per_block = time(blocks, || {
                let fs: [&[f32]; $lanes] = std::array::from_fn(|l| {
                    let f: &[f32] = &features[((pos as usize) + l) & 63];
                    f
                });
                pos += $lanes;
                let seeds: [u64; $lanes] = std::array::from_fn(|l| pos + l as u64);
                let mut stream = BatchFaultStream::<$lanes>::new(model, seeds);
                let out = hmd.score_features_batch_with(black_box(&fs), &mut stream, &mut scratch);
                out[0].to_bits()
            });
            let per_block_exact = time(blocks, || {
                let fs: [&[f32]; $lanes] = std::array::from_fn(|l| {
                    let f: &[f32] = &features[((pos as usize) + l) & 63];
                    f
                });
                pos += $lanes;
                let seeds: [u64; $lanes] = std::array::from_fn(|l| pos + l as u64);
                let mut stream = BatchFaultStream::<$lanes>::new(exact_model, seeds);
                let out =
                    exact_hmd.score_features_batch_with(black_box(&fs), &mut stream, &mut scratch);
                out[0].to_bits()
            });
            println!(
                "b{:<2} query er={:<8} {:6.1} ns/q ({:.2}x)   exact {:6.1} ns/q ({:.2}x)   event side {:6.1} ns/q",
                $lanes,
                model.error_rate(),
                per_block / $lanes as f64,
                scalar / (per_block / $lanes as f64),
                per_block_exact / $lanes as f64,
                exact / (per_block_exact / $lanes as f64),
                (per_block - per_block_exact) / $lanes as f64,
            );
        }};
    }
    batched!(1);
    batched!(8);
    println!(
        "FaultStream event side          {:6.1} ns/q",
        scalar - exact
    );

    let hot_hmd = StochasticHmd::from_baseline(&baseline, 0.413512, 7).expect("valid error rate");
    let hot_model = hot_hmd.fault_model();
    let hot_scalar = time(n, || {
        let f = &features[(pos as usize) & 63];
        pos += 1;
        let mut stream = FaultStream::new(hot_model, pos);
        hot_hmd
            .score_features_with(black_box(f), &mut stream, &mut scratch)
            .to_bits()
    });
    println!("\nFaultStream query er=0.413512   {hot_scalar:6.1} ns");
    batched!(1, hot_hmd, hot_model, hot_scalar);
    batched!(8, hot_hmd, hot_model, hot_scalar);
    println!(
        "FaultStream event side          {:6.1} ns/q",
        hot_scalar - exact
    );
}
