//! Detector-throughput measurement: geometric-skip + scratch hot path vs
//! the legacy per-draw, allocating path.
//!
//! The fault injector samples the gap to the next faulty multiplication
//! from a geometric distribution instead of drawing one Bernoulli per
//! product, and the quantised network runs monomorphised over the
//! corruptor with reusable [`InferenceScratch`] buffers. The legacy side
//! keeps the per-product Bernoulli draw ([`PerDrawInjector`]), reaches it
//! through a `dyn` corruptor and builds fresh buffers for every query.
//! Both sides run the one inference kernel at width 1, so at er = 0,
//! where neither draws, they differ only by those buffers and the
//! per-product count. This module times both on the same trained
//! detector, in alternating chunks so host noise slows both sides alike
//! ([`paired_qps`]), and records the speedup next to the code that produced it
//! (`BENCH_2.json` at the repository root, written by the
//! `bench_throughput` binary).
//!
//! Timing varies run to run; the *outputs* must not. Each measurement
//! folds the hot path's scores into a checksum that is bit-identical at
//! any thread count (per-task seeds are derived, never shared), so the
//! benchmark doubles as an end-to-end determinism check.

use crate::report::failed;
use shmd_ann::network::{InferenceScratch, QuantizedNetwork};
use shmd_volt::fault::{FaultModel, FaultStream, LaneCorruptor, PerDrawInjector};
use std::ops::Range;
use std::time::{Duration, Instant};
use stochastic_hmd::exec::{derive_seed, parallel_map_n, ExecConfig};
use stochastic_hmd::json;

/// Error rates the throughput benchmark sweeps: the exact datapath, two
/// practical operating points around the paper's selected er = 0.1, and a
/// deep-undervolt point where faults stop being rare.
pub const BENCH_ERROR_RATES: [f64; 4] = [0.0, 0.05, 0.1, 0.3];

/// One error rate's before/after measurement.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputPoint {
    /// Multiplication error rate the injectors were configured for.
    pub error_rate: f64,
    /// Queries timed per path.
    pub queries: usize,
    /// Legacy path: one Bernoulli draw per product, a `dyn` corruptor,
    /// fresh buffers per query. Queries per second.
    pub before_qps: f64,
    /// Hot path: geometric gap sampling, monomorphised corruptor,
    /// reusable scratch. Queries per second.
    pub after_qps: f64,
    /// The hot path's speed over the legacy path's: the median over the
    /// alternating chunks of [`paired_qps`], so one stalled chunk cannot
    /// move it.
    pub speedup: f64,
    /// Output checksum of the hot path, serial execution.
    pub checksum: u64,
    /// Hot-path queries per second when fanned across the worker pool.
    pub threaded_qps: f64,
    /// Whether the threaded checksum matched the serial one.
    pub thread_invariant: bool,
}

/// The `--check` floor on [`ThroughputPoint::speedup`]: below it the hot
/// path is materially slower than the per-draw path it replaced. Timing on
/// shared CI runners is noisy, so the floor sits below parity.
pub const SPEEDUP_FLOOR: f64 = 0.9;

fn fold_scores(acc: u64, out: &[shmd_fixed::Q16]) -> u64 {
    out.iter()
        .fold(acc, |a, q| a.rotate_left(7) ^ u64::from(q.to_bits() as u32))
}

/// Two paths timed over the same queries by [`paired_qps`].
#[derive(Clone, Copy, Debug)]
pub struct PairedQps {
    /// The first path's queries per second over all chunks.
    pub a_qps: f64,
    /// The second path's queries per second over all chunks.
    pub b_qps: f64,
    /// The median over chunks of the first path's time over the second's:
    /// the second path's speedup, unmoved by a few stalled chunks.
    pub b_speedup: f64,
}

/// Times two paths over the same `n` queries in alternation, `chunk` at a
/// time, each side accumulating only its own elapsed time: a host-speed
/// epoch, much longer than a chunk, slows both sides alike instead of
/// whichever ran during it.
pub fn paired_qps<A, B>(n: usize, chunk: usize, mut a: A, mut b: B) -> PairedQps
where
    A: FnMut(Range<usize>),
    B: FnMut(Range<usize>),
{
    let mut chunks = Vec::with_capacity(n.div_ceil(chunk.max(1)));
    for lo in (0..n).step_by(chunk.max(1)) {
        let start = Instant::now();
        a(lo..(lo + chunk).min(n));
        let mid = Instant::now();
        b(lo..(lo + chunk).min(n));
        chunks.push((mid - start, mid.elapsed()));
    }
    let qps = |d: Duration| n as f64 / d.as_secs_f64();
    PairedQps {
        a_qps: qps(chunks.iter().map(|c| c.0).sum()),
        b_qps: qps(chunks.iter().map(|c| c.1).sum()),
        b_speedup: median_speedup(&chunks),
    }
}

/// The median over `(a, b)` chunk times of `a / b`; NaN for no chunks.
fn median_speedup(chunks: &[(Duration, Duration)]) -> f64 {
    let mut ratios: Vec<f64> = chunks
        .iter()
        .map(|(a, b)| a.as_secs_f64() / b.as_secs_f64())
        .collect();
    ratios.sort_by(f64::total_cmp);
    match ratios.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => ratios[n / 2],
        n => (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0,
    }
}

/// Times `queries` inferences through the legacy per-draw, allocating
/// path and the geometric + scratch hot path, alternating every 50
/// queries ([`paired_qps`]). Returns both timings and the checksum of the
/// hot path's stream from `seed`, independent of warm-up.
fn time_paths(
    q: &QuantizedNetwork,
    features: &[f32],
    er: f64,
    seed: u64,
    queries: usize,
) -> (PairedQps, u64) {
    let model = FaultModel::from_error_rate(er).expect("valid benchmark error rate");
    let before: &mut dyn LaneCorruptor<1> = &mut PerDrawInjector::new(model.clone(), seed);
    let mut after = FaultStream::new(model.clone(), seed);
    let mut scratch = InferenceScratch::new();
    for _ in 0..queries.min(64) {
        std::hint::black_box(q.infer(features, &mut *before));
        std::hint::black_box(q.infer_into(features, &mut after, &mut scratch));
    }
    after = FaultStream::new(model, seed);
    let mut checksum = 0u64;
    let paired = paired_qps(
        queries,
        50,
        |range| {
            for _ in range {
                std::hint::black_box(q.infer(features, &mut *before));
            }
        },
        |range| {
            for _ in range {
                let out = q.infer_into(features, &mut after, &mut scratch);
                checksum = fold_scores(checksum, std::hint::black_box(out));
            }
        },
    );
    (paired, checksum)
}

/// Runs the hot path fanned over `exec`'s worker pool, one task per chunk
/// of queries with a derived seed, and returns `(qps, checksum)`. The
/// checksum folds per-task checksums in task order, so it is bit-identical
/// at any thread count.
fn time_threaded(
    q: &QuantizedNetwork,
    features: &[f32],
    er: f64,
    seed: u64,
    queries: usize,
    exec: &ExecConfig,
) -> (f64, u64) {
    // A fixed task count (not a multiple of the worker count) keeps the
    // per-task seeds — and therefore the checksum — identical whatever
    // pool executes the schedule.
    let tasks = 16;
    let per_task = queries.div_ceil(tasks);
    // Built once, outside the timed region: models are not cached.
    let model = FaultModel::from_error_rate(er).expect("valid benchmark error rate");
    let start = Instant::now();
    let sums = parallel_map_n(exec, tasks, |task| {
        let mut injector = FaultStream::new(&model, derive_seed(seed, &[task as u64]));
        let mut scratch = InferenceScratch::new();
        let mut checksum = 0u64;
        for _ in 0..per_task {
            let out = q.infer_into(features, &mut injector, &mut scratch);
            checksum = fold_scores(checksum, std::hint::black_box(out));
        }
        checksum
    });
    let qps = (per_task * tasks) as f64 / start.elapsed().as_secs_f64();
    let combined = sums.iter().fold(0u64, |a, &s| a.rotate_left(13) ^ s);
    (qps, combined)
}

/// Measures one error rate: legacy path, hot path, and the hot path under
/// `exec`, including the thread-invariance verdict on the checksums.
pub fn measure_point(
    q: &QuantizedNetwork,
    features: &[f32],
    er: f64,
    seed: u64,
    queries: usize,
    exec: &ExecConfig,
) -> ThroughputPoint {
    let (paired, checksum) = time_paths(q, features, er, seed, queries);
    let (threaded_qps, threaded_sum) = time_threaded(q, features, er, seed, queries, exec);
    // The serial reference for the fan-out is the same chunked schedule on
    // one worker — identical seeds, identical order.
    let (_, serial_sum) = time_threaded(q, features, er, seed, queries, &ExecConfig::serial());
    ThroughputPoint {
        error_rate: er,
        queries,
        before_qps: paired.a_qps,
        after_qps: paired.b_qps,
        speedup: paired.b_speedup,
        checksum,
        threaded_qps,
        thread_invariant: threaded_sum == serial_sum,
    }
}

/// Sweeps [`BENCH_ERROR_RATES`].
pub fn measure_sweep(
    q: &QuantizedNetwork,
    features: &[f32],
    seed: u64,
    queries: usize,
    exec: &ExecConfig,
) -> Vec<ThroughputPoint> {
    BENCH_ERROR_RATES
        .iter()
        .map(|&er| measure_point(q, features, er, seed, queries, exec))
        .collect()
}

/// The `bench_throughput --check` gates, one message per failed gate, in
/// this order per error rate: the threaded checksum must equal the serial
/// one, and the hot path's median paired speedup over the legacy path must
/// reach [`SPEEDUP_FLOOR`].
pub fn failures(points: &[ThroughputPoint]) -> Vec<String> {
    points
        .iter()
        .flat_map(|p| {
            let gates = [
                (!p.thread_invariant).then(|| "fan-out changed the output stream".to_string()),
                (p.speedup < SPEEDUP_FLOOR).then(|| {
                    format!(
                        "hot path slower than legacy ({:.0} vs {:.0} q/s)",
                        p.after_qps, p.before_qps
                    )
                }),
            ];
            failed(format!("er={} ", p.error_rate), gates)
        })
        .collect()
}

/// Renders the sweep as the `BENCH_2.json` document.
pub fn render_json(
    points: &[ThroughputPoint],
    seed: u64,
    scale: &str,
    threads: usize,
    mac_count: usize,
) -> String {
    json::document(|w| {
        w.field("bench", "detector_throughput");
        w.field("unit", "queries_per_second");
        w.field("seed", seed);
        w.field("scale", scale);
        w.field("threads", threads);
        w.field("mac_count", mac_count);
        w.field(
            "before",
            "per-draw Bernoulli RNG, dyn dispatch, per-layer allocation",
        );
        w.field(
            "after",
            "geometric fault-gap sampling, monomorphised corruptor, reusable scratch",
        );
        w.objects("results", points, |w, p| {
            w.field("error_rate", p.error_rate);
            w.field("queries", p.queries);
            w.fixed("before_qps", p.before_qps, 1);
            w.fixed("after_qps", p.after_qps, 1);
            w.fixed("speedup", p.speedup, 3);
            w.fixed("threaded_qps", p.threaded_qps, 1);
            w.u64_string("checksum", p.checksum);
            w.field("thread_invariant", p.thread_invariant);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::each_gate_fails_alone;
    use shmd_workload::dataset::{Dataset, DatasetConfig};
    use shmd_workload::features::FeatureSpec;
    use stochastic_hmd::train::{train_baseline, HmdTrainConfig};

    fn fixture() -> (QuantizedNetwork, Vec<f32>) {
        let dataset = Dataset::generate(&DatasetConfig::small(60), 17);
        let split = dataset.three_fold_split(0);
        let victim = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("train");
        let features = victim.spec().extract(dataset.trace(0));
        (victim.quantized().clone(), features)
    }

    #[test]
    fn measurement_yields_finite_rates_and_thread_invariant_checksums() {
        let (q, features) = fixture();
        let p = measure_point(&q, &features, 0.1, 7, 300, &ExecConfig::threads(4));
        assert!(p.before_qps.is_finite() && p.before_qps > 0.0);
        assert!(p.after_qps.is_finite() && p.after_qps > 0.0);
        assert!(p.thread_invariant, "fan-out changed the detector output");
    }

    #[test]
    fn checksum_is_seed_deterministic() {
        let (q, features) = fixture();
        let (_, a) = time_paths(&q, &features, 0.3, 5, 200);
        let (_, b) = time_paths(&q, &features, 0.3, 5, 200);
        assert_eq!(a, b, "same seed must reproduce the same score stream");
        let (_, c) = time_paths(&q, &features, 0.3, 6, 200);
        assert_ne!(a, c, "different seed must change the stream");
    }

    #[test]
    fn the_speedup_gate_fails_a_slower_path_and_survives_one_stalled_chunk() {
        let us = Duration::from_micros;
        // Forty 50-query chunks at 100 µs a side; one hot-path chunk stalls.
        let mut chunks = vec![(us(100), us(100)); 40];
        chunks[17].1 = us(100_000);
        let totals = 40.0 * 100.0 / (39.0 * 100.0 + 100_000.0);
        assert!(
            totals < SPEEDUP_FLOOR,
            "the ratio of totals trips on the stall"
        );
        assert!(median_speedup(&chunks) >= SPEEDUP_FLOOR);
        // A hot path a quarter slower in every chunk, legacy stalls included.
        let mut slower = vec![(us(100), us(125)); 40];
        slower[3].0 = us(100_000);
        assert!(median_speedup(&slower) < SPEEDUP_FLOOR);
        assert!(median_speedup(&[]).is_nan());
    }

    fn pinned_point() -> ThroughputPoint {
        ThroughputPoint {
            error_rate: 0.1,
            queries: 100,
            before_qps: 1000.0,
            after_qps: 2500.0,
            speedup: 2.5,
            checksum: 42,
            threaded_qps: 2400.0,
            thread_invariant: true,
        }
    }

    #[test]
    fn every_gate_fails_alone() {
        each_gate_fails_alone(
            &pinned_point(),
            |p| failures(std::slice::from_ref(p)),
            &[
                (
                    |p| p.thread_invariant = false,
                    "er=0.1 fan-out changed the output stream",
                ),
                (
                    |p| p.speedup = 0.8,
                    "er=0.1 hot path slower than legacy (2500 vs 1000 q/s)",
                ),
            ],
        );
    }

    #[test]
    fn json_document_is_pinned() {
        let doc = render_json(&[pinned_point()], 42, "fast", 1, 66);
        let want = r#"{
  "bench": "detector_throughput",
  "unit": "queries_per_second",
  "seed": 42,
  "scale": "fast",
  "threads": 1,
  "mac_count": 66,
  "before": "per-draw Bernoulli RNG, dyn dispatch, per-layer allocation",
  "after": "geometric fault-gap sampling, monomorphised corruptor, reusable scratch",
  "results": [
    {"error_rate": 0.1, "queries": 100, "before_qps": 1000.0, "after_qps": 2500.0, "speedup": 2.500, "threaded_qps": 2400.0, "checksum": "42", "thread_invariant": true}
  ]
}
"#;
        assert_eq!(doc, want);
        assert!(json::parse(&doc).is_ok());
    }

    #[test]
    fn unmeasurable_rates_render_as_null() {
        let p = ThroughputPoint {
            error_rate: 0.1,
            queries: 100,
            before_qps: 0.0,
            after_qps: 2500.0,
            speedup: f64::INFINITY,
            checksum: 42,
            threaded_qps: f64::NAN,
            thread_invariant: true,
        };
        let doc = render_json(&[p], 42, "fast", 1, 66);
        assert!(doc.contains("\"speedup\": null"));
        assert!(doc.contains("\"threaded_qps\": null"));
        assert!(json::parse(&doc).is_ok(), "{doc}");
    }
}
