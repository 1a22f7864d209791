//! Serving-layer measurement: the sharded continuous-monitoring engine
//! replaying a query stream, serial vs fanned across the worker pool.
//!
//! [`stochastic_hmd::serve::MonitoringService`] is a pool of
//! Stochastic-HMD replicas answering a trace stream with per-shard derived
//! seeds and deterministic fan-out. This module replays the same generated
//! stream through a serial and a threaded deployment of the same
//! configuration, timed in paired alternation one batch at a time
//! ([`crate::replay::twin`]), and records throughput next to the
//! determinism verdict (`BENCH_3.json` at the repository root, written by
//! the `serve_bench` binary).
//!
//! As with the throughput benchmark, the timings vary run to run but the
//! *outputs* must not: the service folds every verdict into a checksum, and
//! a point only counts as thread-invariant when the serial and threaded
//! checksums — and the full timing-stripped telemetry snapshots — are
//! bit-identical.

use crate::replay;
use crate::report::failed;
use shmd_volt::calibration::CalibrationCurve;
use shmd_workload::dataset::Dataset;
use shmd_workload::trace::Trace;
use std::time::Instant;
use stochastic_hmd::exec::{hardware_threads, ExecConfig};
use stochastic_hmd::json;
use stochastic_hmd::serve::{MonitoringService, ServeConfig};
use stochastic_hmd::BaselineHmd;

/// Shard-pool sizes the serving benchmark sweeps: a single replica (the
/// paper's one-detector deployment) up to a modest multi-core pool.
pub const BENCH_SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One pool size's measurement.
#[derive(Clone, Debug)]
pub struct ServePoint {
    /// Detector replicas in the pool.
    pub shards: usize,
    /// Queries replayed per deployment.
    pub queries: usize,
    /// Queries per second with a serial worker pool.
    pub serial_qps: f64,
    /// Queries per second fanned across the configured worker pool.
    pub threaded_qps: f64,
    /// Verdict checksum of the serial replay.
    pub checksum: u64,
    /// Whether the threaded verdict checksum *and* the timing-stripped
    /// telemetry snapshot matched the serial ones bit-for-bit.
    pub thread_invariant: bool,
    /// Shards serving the baseline fallback after deployment.
    pub degraded_shards: usize,
    /// Queries flagged as malware (identical in both replays when
    /// `thread_invariant` holds).
    pub flags: u64,
}

impl ServePoint {
    /// `threaded_qps / serial_qps`.
    pub fn scaling(&self) -> f64 {
        self.threaded_qps / self.serial_qps
    }
}

/// `serve_bench --check`'s scaling floor, before [`effective_scaling_floor`].
pub const SERVE_SCALING_FLOOR: f64 = 2.0;

/// `chaos_bench --check`'s scaling floor, before [`effective_scaling_floor`].
pub const CHAOS_SCALING_FLOOR: f64 = 1.5;

/// The scaling floor a `--check` run actually enforces, given the
/// configured floor and the machine it runs on.
///
/// A configured floor of, say, 2× assumes at least a few real cores. On a
/// box with fewer hardware threads than the benchmark asks for, wall-clock
/// speedup is physically capped at the hardware — a 1-core container can
/// never scale past 1× no matter how lock-free the engine is. The
/// effective floor is therefore clamped to `0.75 ×
/// min(hardware_threads, requested_threads)` (threading overhead may cost
/// at most 25%), and never below 0.75: even on one core, the lock-free
/// engine must not fall off the historical 0.35× cliff the per-shard-mutex
/// design produced.
pub fn effective_scaling_floor(configured: f64, threads: usize) -> f64 {
    let usable = hardware_threads().min(threads.max(1)) as f64;
    configured.min(0.75 * usable).max(0.75)
}

/// The scaling-regression gate of `serve_bench` and `chaos_bench`: the
/// failure when the largest pool's threaded-vs-serial scaling falls below
/// `configured` clamped by [`effective_scaling_floor`]. `largest` is that
/// pool's `(shards, scaling)`; a serial run has nothing to scale, so it
/// passes. The message carries `delivered`, the host's
/// [`delivered_parallelism`], so a failure says whether the host or the
/// service fell short.
pub fn scaling_failure(
    configured: f64,
    threads: usize,
    largest: Option<(usize, f64)>,
    delivered: f64,
) -> Option<String> {
    let floor = effective_scaling_floor(configured, threads);
    let (shards, scaling) = largest?;
    (threads > 1 && scaling < floor).then(|| {
        format!(
            "{shards} shards: scaling {scaling:.2}x below floor {floor:.2}x \
             (configured {configured:.2}x, {} hardware threads, the host \
             delivered {delivered:.2}x on a CPU spin)",
            hardware_threads(),
        )
    })
}

/// The `serve_bench --check` gates, one message per failed gate, in this
/// order: per pool size, the threaded replay must be bit-identical to the
/// serial one (verdict checksum and timing-stripped telemetry) and no shard
/// may degrade at the paper's er = 0.1 operating point; then the largest
/// pool must pass [`scaling_failure`] against [`SERVE_SCALING_FLOOR`].
pub fn failures(points: &[ServePoint], threads: usize, delivered: f64) -> Vec<String> {
    let largest = points.last().map(|p| (p.shards, p.scaling()));
    let scaling = scaling_failure(SERVE_SCALING_FLOOR, threads, largest, delivered);
    points
        .iter()
        .flat_map(|p| {
            let gates = [
                (!p.thread_invariant).then(|| "threaded replay diverged from serial".to_string()),
                (p.degraded_shards != 0).then(|| {
                    format!(
                        "{} degraded at the reachable er = 0.1 target",
                        p.degraded_shards
                    )
                }),
            ];
            failed(format!("{} shards: ", p.shards), gates)
        })
        .chain(scaling)
        .collect()
}

/// Steps of [`delivered_parallelism`]'s spin: about 70 ms on one core of
/// a 2-vCPU AVX-512 VM.
const SPIN_STEPS: u32 = 1 << 25;

/// How many cores the host delivered to `min(threads, hardware_threads)`
/// threads: one fixed CPU-bound spin is timed alone and then on each of
/// those threads at once, and the ratio scales the thread count by how
/// much longer the parallel round took. It reads about
/// `min(threads, hardware_threads)` when every thread got a core of its
/// own, and about 1 when the host ran them on one core.
/// `available_parallelism` cannot tell the two apart.
pub fn delivered_parallelism(threads: usize) -> f64 {
    let usable = hardware_threads().min(threads.max(1));
    let spin = || {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..SPIN_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
    };
    let start = Instant::now();
    spin();
    let one = start.elapsed().as_secs_f64();
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..usable {
            s.spawn(spin);
        }
    });
    usable as f64 * one / start.elapsed().as_secs_f64()
}

/// Measures one pool size: the same stream, one batch at a time and in
/// alternation, through a serial and a threaded deployment of the same
/// configuration, including the thread-invariance verdict on verdict
/// checksums and telemetry.
pub fn measure_point(
    baseline: &BaselineHmd,
    curve: &CalibrationCurve,
    queries: &[&Trace],
    shards: usize,
    seed: u64,
    exec: &ExecConfig,
) -> ServePoint {
    let config = ServeConfig::new(shards).with_seed(seed);
    let deploy = |exec| {
        MonitoringService::deploy(baseline, curve, config.with_exec(exec))
            .expect("benchmark config is valid")
    };
    let batches: Vec<&[&Trace]> = queries.chunks(config.batch_size).collect();
    let twin = replay::twin(
        deploy(ExecConfig::serial()),
        deploy(*exec),
        &batches,
        |service, batch| drop(service.process_batch(batch)),
    );
    let snapshot = twin.reference.snapshot();
    ServePoint {
        shards,
        queries: queries.len(),
        serial_qps: twin.reference_qps,
        threaded_qps: twin.candidate_qps,
        checksum: snapshot.verdict_checksum,
        thread_invariant: twin.identical,
        degraded_shards: snapshot.degraded_shards(),
        flags: snapshot.flags,
    }
}

/// Sweeps [`BENCH_SHARD_COUNTS`] over a stream drawn from `dataset`
/// (queries cycle through the whole dataset).
pub fn measure_sweep(
    baseline: &BaselineHmd,
    curve: &CalibrationCurve,
    dataset: &Dataset,
    seed: u64,
    queries: usize,
    exec: &ExecConfig,
) -> Vec<ServePoint> {
    let stream: Vec<&Trace> = (0..queries)
        .map(|i| dataset.trace(i % dataset.len()))
        .collect();
    BENCH_SHARD_COUNTS
        .iter()
        .map(|&shards| measure_point(baseline, curve, &stream, shards, seed, exec))
        .collect()
}

/// Renders the sweep as the `BENCH_3.json` document.
pub fn render_json(
    points: &[ServePoint],
    seed: u64,
    scale: &str,
    threads: usize,
    scaling_floor: f64,
    delivered_parallelism: f64,
) -> String {
    json::document(|w| {
        w.field("bench", "monitoring_service");
        w.field("unit", "queries_per_second");
        w.field("seed", seed);
        w.field("scale", scale);
        w.field("threads", threads);
        w.field("hardware_threads", hardware_threads());
        w.fixed("delivered_parallelism", delivered_parallelism, 3);
        w.fixed("scaling_floor", scaling_floor, 3);
        w.field(
            "engine",
            "lock-free query-range claiming over a shared shard pool, \
             per-query derived fault streams, per-worker telemetry fold",
        );
        w.objects("results", points, |w, p| {
            w.field("shards", p.shards);
            w.field("queries", p.queries);
            w.fixed("serial_qps", p.serial_qps, 1);
            w.fixed("threaded_qps", p.threaded_qps, 1);
            w.fixed("scaling", p.scaling(), 3);
            w.u64_string("checksum", p.checksum);
            w.field("thread_invariant", p.thread_invariant);
            w.field("degraded_shards", p.degraded_shards);
            w.field("flags", p.flags);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::each_gate_fails_alone;
    use crate::setup;
    use crate::Args;
    use shmd_volt::calibration::{Calibrator, DeviceProfile};

    fn fixture() -> (Dataset, BaselineHmd, CalibrationCurve) {
        let args = Args::parse_from(["--fast".to_string()]);
        let dataset = setup::dataset(&args);
        let baseline = setup::victim(&dataset, 0, &args);
        let curve = Calibrator::new()
            .with_step(2)
            .calibrate(&DeviceProfile::reference());
        (dataset, baseline, curve)
    }

    #[test]
    fn measurement_is_finite_and_thread_invariant() {
        let (dataset, baseline, curve) = fixture();
        let stream: Vec<&Trace> = (0..60).map(|i| dataset.trace(i % dataset.len())).collect();
        let p = measure_point(&baseline, &curve, &stream, 3, 7, &ExecConfig::threads(4));
        assert!(p.serial_qps.is_finite() && p.serial_qps > 0.0);
        assert!(p.threaded_qps.is_finite() && p.threaded_qps > 0.0);
        assert!(p.thread_invariant, "fan-out changed the verdict stream");
        assert_eq!(p.degraded_shards, 0);
    }

    #[test]
    fn checksum_is_seed_deterministic() {
        let (dataset, baseline, curve) = fixture();
        let stream: Vec<&Trace> = (0..40).map(|i| dataset.trace(i % dataset.len())).collect();
        let a = measure_point(&baseline, &curve, &stream, 2, 5, &ExecConfig::serial());
        let b = measure_point(&baseline, &curve, &stream, 2, 5, &ExecConfig::serial());
        assert_eq!(a.checksum, b.checksum, "same seed must replay identically");
        let c = measure_point(&baseline, &curve, &stream, 2, 6, &ExecConfig::serial());
        assert_ne!(
            a.checksum, c.checksum,
            "different seed must change the stream"
        );
    }

    fn pinned_point() -> ServePoint {
        ServePoint {
            shards: 4,
            queries: 100,
            serial_qps: 1000.0,
            threaded_qps: 3000.0,
            checksum: 42,
            thread_invariant: true,
            degraded_shards: 0,
            flags: 17,
        }
    }

    #[test]
    fn every_gate_fails_alone() {
        let at = |threads| move |p: &ServePoint| failures(std::slice::from_ref(p), threads, 1.25);
        each_gate_fails_alone(
            &pinned_point(),
            at(8),
            &[
                (
                    |p| p.thread_invariant = false,
                    "4 shards: threaded replay diverged from serial",
                ),
                (
                    |p| p.degraded_shards = 1,
                    "4 shards: 1 degraded at the reachable er = 0.1 target",
                ),
            ],
        );
        // The floor is never below 0.75, so 0.5x fails on any host; a
        // serial run has nothing to scale.
        let slow = ServePoint {
            threaded_qps: 500.0,
            ..pinned_point()
        };
        let floor = effective_scaling_floor(SERVE_SCALING_FLOOR, 8);
        let want = format!(
            "4 shards: scaling 0.50x below floor {floor:.2}x (configured 2.00x, \
             {} hardware threads, the host delivered 1.25x on a CPU spin)",
            hardware_threads()
        );
        assert_eq!(at(8)(&slow), vec![want]);
        assert_eq!(at(1)(&slow), Vec::<String>::new());
    }

    #[test]
    fn json_document_is_pinned() {
        let doc = render_json(&[pinned_point()], 42, "fast", 8, 2.0, 1.25);
        // The host's core count is the one field no fixture can pin.
        let want = r#"{
  "bench": "monitoring_service",
  "unit": "queries_per_second",
  "seed": 42,
  "scale": "fast",
  "threads": 8,
  "hardware_threads": HW,
  "delivered_parallelism": 1.250,
  "scaling_floor": 2.000,
  "engine": "lock-free query-range claiming over a shared shard pool, per-query derived fault streams, per-worker telemetry fold",
  "results": [
    {"shards": 4, "queries": 100, "serial_qps": 1000.0, "threaded_qps": 3000.0, "scaling": 3.000, "checksum": "42", "thread_invariant": true, "degraded_shards": 0, "flags": 17}
  ]
}
"#
        .replace("HW", &hardware_threads().to_string());
        assert_eq!(doc, want);
        assert!(json::parse(&doc).is_ok());
    }

    #[test]
    fn zero_serial_rate_renders_null_scaling() {
        let p = ServePoint {
            shards: 4,
            queries: 100,
            serial_qps: 0.0,
            threaded_qps: 3000.0,
            checksum: 42,
            thread_invariant: true,
            degraded_shards: 0,
            flags: 17,
        };
        let doc = render_json(&[p], 42, "fast", 8, 2.0, 1.0);
        assert!(doc.contains("\"serial_qps\": 0.0"), "{doc}");
        assert!(doc.contains("\"scaling\": null"), "{doc}");
        assert!(json::parse(&doc).is_ok(), "{doc}");
    }

    #[test]
    fn effective_floor_is_hardware_aware() {
        // Can't dictate the host's core count, but the clamp's algebra is
        // checkable at both extremes: the floor never exceeds what the
        // hardware can deliver and never drops below 0.75.
        let hw = hardware_threads() as f64;
        let floor = effective_scaling_floor(2.0, 8);
        assert!(floor <= 2.0 + f64::EPSILON);
        assert!(floor <= (0.75 * hw.min(8.0)).max(0.75) + f64::EPSILON);
        assert!((0.75..=2.0).contains(&floor));
        // A giant configured floor clamps to the hardware; a tiny one
        // survives only via the 0.75 backstop.
        assert!(effective_scaling_floor(1000.0, 8) <= 0.75 * hw.min(8.0) + f64::EPSILON);
        assert_eq!(effective_scaling_floor(0.1, 8), 0.75);
    }
}
