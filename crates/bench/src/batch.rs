//! Batched-serving measurement: the structure-of-arrays lane-parallel
//! inference path swept over lane widths and error rates.
//!
//! The serving engine scores `B` same-shard queries simultaneously:
//! activations live in lane-major planes, the inner MAC loop is a
//! straight-line `i64` loop over `[i64; LANES]` accumulator lanes, and
//! each lane owns its per-query derived fault stream whose gap countdown
//! is decremented in whole fault-free runs. Every width runs this one
//! engine; `lanes = 1` is the same code at block width 1 (and every
//! per-shard remainder runs at width 1 whatever the configured width).
//! This module replays the same query stream through deployments that
//! differ *only* in [`stochastic_hmd::serve::ServeConfig::lanes`] and
//! records per-width throughput next to two identity verdicts
//! (`BENCH_6.json` at the repository root, written by the `batch_bench`
//! binary):
//!
//! - **`matches_one_lane`** — the deployment's verdict checksum and
//!   timing-stripped telemetry are bit-identical to the `lanes = 1`
//!   deployment's. Batching is a wall-clock arrangement, never a semantic
//!   one: every lane's fault stream is seeded per query from its stream
//!   position alone. The independent scalar oracle for the verdicts
//!   themselves is a `core::serve` unit test, not this benchmark.
//! - **`thread_invariant`** — the same width fanned across a worker pool
//!   matches its own serial replay, so lanes and threads compose.
//!
//! Two measurement choices keep the numbers honest on shared hardware:
//!
//! - **Pre-extracted features.** Throughput is timed through
//!   [`MonitoringService::process_feature_batch`] on feature vectors
//!   extracted once up front, the same engine-level measurement BENCH_2
//!   uses. Trace feature extraction is identical at every width, so
//!   including it would only dilute the quantity under test (the
//!   lane-parallel inference engine); the identity verdicts still cover
//!   the full verdict pipeline.
//! - **Paired interleaved timing.** Every replay is a
//!   [`crate::replay::twin`]: the `lanes = 1` and the wider serial
//!   deployment advance through the stream *alternately, one batch at a
//!   time*, each accumulating only its own elapsed time, and so do the
//!   wider width's serial and threaded deployments. A noisy host changes
//!   speed in epochs much longer than one batch, so an epoch inflates both
//!   sides of the ratio equally instead of whichever deployment happened
//!   to run during it.
//!
//! The width ratio (`vs_one_lane`, single thread) is reported, not gated:
//! serving throughput is guarded by the repository benchmark and by
//! BENCH_2's floor.

use crate::replay;
use crate::report::failed;
use shmd_volt::calibration::CalibrationCurve;
use shmd_workload::dataset::Dataset;
use shmd_workload::trace::Trace;
use stochastic_hmd::exec::{hardware_threads, ExecConfig};
use stochastic_hmd::json;
use stochastic_hmd::serve::{MonitoringService, ServeConfig, LANE_WIDTHS};
use stochastic_hmd::BaselineHmd;

/// Error rates the sweep covers: two practical operating points around
/// the paper's selected er = 0.1, and a deep-undervolt point where faults
/// stop being rare and the fault-event path dominates.
pub const BENCH_BATCH_ERROR_RATES: [f64; 3] = [0.05, 0.1, 0.3];

/// Shard-pool size every deployment uses. Small enough that each claimed
/// query range contributes many full lane blocks per shard, large enough
/// that the per-shard regrouping actually exercises the routing.
pub const BENCH_BATCH_SHARDS: usize = 4;

/// One (error rate, lane width) measurement.
#[derive(Clone, Debug)]
pub struct BatchPoint {
    /// Topology label of the deployment's network (e.g. `16-8-1`).
    pub network: String,
    /// Calibration target error rate of the deployment.
    pub error_rate: f64,
    /// Lane width of the measured deployment.
    pub lanes: usize,
    /// Queries replayed per deployment.
    pub queries: usize,
    /// Queries per second of the `lanes = 1` deployment, serial pool,
    /// timed on pre-extracted features in paired alternation with this
    /// width.
    pub one_lane_qps: f64,
    /// Queries per second of this width's deployment, serial pool, timed
    /// on pre-extracted features (the other half of the pairing).
    pub batched_qps: f64,
    /// Queries per second of this width fanned across the worker pool,
    /// timed in paired alternation with a serial replay of this width.
    pub threaded_qps: f64,
    /// Verdict checksum of this width's serial replay.
    pub checksum: u64,
    /// Whether this width's verdict checksum *and* timing-stripped
    /// telemetry matched the `lanes = 1` deployment bit-for-bit.
    pub matches_one_lane: bool,
    /// Whether this width's threaded replay matched its serial one.
    pub thread_invariant: bool,
    /// Shards serving the baseline fallback after deployment.
    pub degraded_shards: usize,
}

impl BatchPoint {
    /// Single-thread `batched_qps / one_lane_qps`.
    pub fn vs_one_lane(&self) -> f64 {
        self.batched_qps / self.one_lane_qps
    }
}

/// Measures one error rate across [`LANE_WIDTHS`]: per width two paired
/// replays of the same stream, one-lane vs wide (both serial) and wide
/// serial vs wide threaded, each giving one identity verdict on verdict
/// checksums and timing-stripped telemetry.
pub fn measure_rate(
    baseline: &BaselineHmd,
    network: &str,
    curve: &CalibrationCurve,
    queries: &[&Trace],
    er: f64,
    seed: u64,
    exec: &ExecConfig,
) -> Vec<BatchPoint> {
    // Extraction is deterministic and shared by every deployment, so the
    // verdict stream over these vectors is identical to processing the
    // traces; doing it once up front keeps it out of every timed region.
    let spec = baseline.spec();
    let features: Vec<Vec<f32>> = queries.iter().map(|t| spec.extract(t)).collect();
    let config = ServeConfig::new(BENCH_BATCH_SHARDS)
        .with_seed(seed)
        .with_target_error_rate(er);
    let batches: Vec<&[Vec<f32>]> = features.chunks(config.batch_size).collect();
    let deploy = |lanes, exec| {
        MonitoringService::deploy(baseline, curve, config.with_lanes(lanes).with_exec(exec))
            .expect("benchmark config is valid")
    };
    let serial = ExecConfig::serial();
    LANE_WIDTHS
        .iter()
        .map(|&lanes| {
            let widths = replay::twin(
                deploy(1, serial),
                deploy(lanes, serial),
                &batches,
                replay::feed,
            );
            let threads = replay::twin(
                deploy(lanes, serial),
                deploy(lanes, *exec),
                &batches,
                replay::feed,
            );
            let snapshot = widths.candidate.snapshot();
            BatchPoint {
                network: network.to_string(),
                error_rate: er,
                lanes,
                queries: queries.len(),
                one_lane_qps: widths.reference_qps,
                batched_qps: widths.candidate_qps,
                threaded_qps: threads.candidate_qps,
                checksum: snapshot.verdict_checksum,
                matches_one_lane: widths.identical,
                thread_invariant: threads.identical,
                degraded_shards: snapshot.degraded_shards(),
            }
        })
        .collect()
}

/// Sweeps [`BENCH_BATCH_ERROR_RATES`] × [`LANE_WIDTHS`] over a
/// stream drawn from `dataset` (queries cycle through the whole dataset).
pub fn measure_sweep(
    baseline: &BaselineHmd,
    network: &str,
    curve: &CalibrationCurve,
    dataset: &Dataset,
    seed: u64,
    queries: usize,
    exec: &ExecConfig,
) -> Vec<BatchPoint> {
    let stream: Vec<&Trace> = (0..queries)
        .map(|i| dataset.trace(i % dataset.len()))
        .collect();
    BENCH_BATCH_ERROR_RATES
        .iter()
        .flat_map(|&er| measure_rate(baseline, network, curve, &stream, er, seed, exec))
        .collect()
}

/// The `batch_bench --check` gates, one message per failed gate, in this
/// order per point: the replay must be bit-identical to the one-lane
/// deployment's, the threaded replay to the serial one, and no shard may
/// degrade at a reachable target. The width ratio against one lane is
/// reported, not gated.
pub fn failures(points: &[BatchPoint]) -> Vec<String> {
    points
        .iter()
        .flat_map(|p| {
            let gates = [
                (!p.matches_one_lane)
                    .then(|| "replay diverged from the one-lane deployment".to_string()),
                (!p.thread_invariant).then(|| "threaded replay diverged from serial".to_string()),
                (p.degraded_shards != 0).then(|| {
                    format!(
                        "{} shards degraded at a reachable target",
                        p.degraded_shards
                    )
                }),
            ];
            failed(format!("er {} lanes {}: ", p.error_rate, p.lanes), gates)
        })
        .collect()
}

/// The wall-clock paths of `BENCH_6.json` (see [`crate::report`]).
pub const WALL_CLOCK: &[&str] = &[
    ".results[].one_lane_qps",
    ".results[].batched_qps",
    ".results[].vs_one_lane",
    ".results[].threaded_qps",
];

/// Renders the sweep as the `BENCH_6.json` document.
pub fn render_json(points: &[BatchPoint], seed: u64, scale: &str, threads: usize) -> String {
    json::document(|w| {
        w.field("bench", "batched_serving");
        w.field("unit", "queries_per_second");
        w.field("seed", seed);
        w.field("scale", scale);
        w.field("threads", threads);
        w.field("hardware_threads", hardware_threads());
        w.field("shards", BENCH_BATCH_SHARDS);
        w.field(
            "measurement",
            "pre-extracted features, one-lane and wide deployments \
             timed in paired chunk alternation",
        );
        w.field(
            "engine",
            "structure-of-arrays lane batching: lane-major activation \
             planes, straight-line i64 MAC over accumulator lanes, per-lane derived \
             fault streams drained in whole fault-free runs, precomputed flip-position \
             tables",
        );
        w.objects("results", points, |w, p| {
            w.field("network", p.network.as_str());
            w.field("error_rate", p.error_rate);
            w.field("lanes", p.lanes);
            w.field("queries", p.queries);
            w.fixed("one_lane_qps", p.one_lane_qps, 1);
            w.fixed("batched_qps", p.batched_qps, 1);
            w.fixed("vs_one_lane", p.vs_one_lane(), 3);
            w.fixed("threaded_qps", p.threaded_qps, 1);
            w.u64_string("checksum", p.checksum);
            w.field("matches_one_lane", p.matches_one_lane);
            w.field("thread_invariant", p.thread_invariant);
            w.field("degraded_shards", p.degraded_shards);
        });
    })
}

#[cfg(test)]
pub(crate) mod tests {
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
    fn every_width_matches_one_lane_and_is_thread_invariant() {
        let (dataset, baseline, curve) = fixture();
        let stream: Vec<&Trace> = (0..80).map(|i| dataset.trace(i % dataset.len())).collect();
        let points = measure_rate(
            &baseline,
            "16-8-1",
            &curve,
            &stream,
            0.1,
            7,
            &ExecConfig::threads(4),
        );
        assert_eq!(points.len(), LANE_WIDTHS.len());
        for p in &points {
            assert!(p.one_lane_qps.is_finite() && p.one_lane_qps > 0.0);
            assert!(p.batched_qps.is_finite() && p.batched_qps > 0.0);
            assert!(
                p.matches_one_lane,
                "lane width {} changed the verdict stream",
                p.lanes
            );
            assert!(
                p.thread_invariant,
                "lane width {} is not thread-invariant",
                p.lanes
            );
            assert_eq!(p.degraded_shards, 0);
        }
        // Every width folded the same stream: one checksum across widths.
        assert!(
            points.iter().all(|p| p.checksum == points[0].checksum),
            "widths disagree on the verdict checksum"
        );
    }

    #[test]
    fn feature_replay_matches_trace_replay() {
        // The timed path feeds pre-extracted features; the claim that this
        // is the same stream the trace pipeline serves must hold exactly.
        let (dataset, baseline, curve) = fixture();
        let stream: Vec<&Trace> = (0..40).map(|i| dataset.trace(i % dataset.len())).collect();
        let spec = baseline.spec();
        let features: Vec<Vec<f32>> = stream.iter().map(|t| spec.extract(t)).collect();
        let config = ServeConfig::new(2).with_seed(3).with_target_error_rate(0.1);
        let mut via_traces = MonitoringService::deploy(&baseline, &curve, config).expect("valid");
        via_traces.process_stream(&stream);
        let mut via_features = MonitoringService::deploy(&baseline, &curve, config).expect("valid");
        for batch in features.chunks(config.batch_size) {
            replay::feed(&mut via_features, batch);
        }
        assert_eq!(
            via_traces.snapshot().without_timing(),
            via_features.snapshot().without_timing(),
            "pre-extracted feature replay diverged from the trace pipeline"
        );
    }

    fn pinned_point() -> BatchPoint {
        BatchPoint {
            network: "16-8-1".to_string(),
            error_rate: 0.1,
            lanes: 8,
            queries: 100,
            one_lane_qps: 1000.0,
            batched_qps: 2000.0,
            threaded_qps: 1900.0,
            checksum: 42,
            matches_one_lane: true,
            thread_invariant: true,
            degraded_shards: 0,
        }
    }

    #[test]
    fn every_gate_fails_alone() {
        each_gate_fails_alone(
            &pinned_point(),
            |p| failures(std::slice::from_ref(p)),
            &[
                (
                    |p| p.matches_one_lane = false,
                    "er 0.1 lanes 8: replay diverged from the one-lane deployment",
                ),
                (
                    |p| p.thread_invariant = false,
                    "er 0.1 lanes 8: threaded replay diverged from serial",
                ),
                (
                    |p| p.degraded_shards = 1,
                    "er 0.1 lanes 8: 1 shards degraded at a reachable target",
                ),
            ],
        );
    }

    /// The document [`render_json`] writes for the pinned fixture.
    pub(crate) fn pinned_document() -> String {
        render_json(&[pinned_point()], 42, "fast", 1)
    }

    #[test]
    fn json_document_is_pinned() {
        let doc = pinned_document();
        // The host's core count is the one field no fixture can pin.
        let want = r#"{
  "bench": "batched_serving",
  "unit": "queries_per_second",
  "seed": 42,
  "scale": "fast",
  "threads": 1,
  "hardware_threads": HW,
  "shards": 4,
  "measurement": "pre-extracted features, one-lane and wide deployments timed in paired chunk alternation",
  "engine": "structure-of-arrays lane batching: lane-major activation planes, straight-line i64 MAC over accumulator lanes, per-lane derived fault streams drained in whole fault-free runs, precomputed flip-position tables",
  "results": [
    {"network": "16-8-1", "error_rate": 0.1, "lanes": 8, "queries": 100, "one_lane_qps": 1000.0, "batched_qps": 2000.0, "vs_one_lane": 2.000, "threaded_qps": 1900.0, "checksum": "42", "matches_one_lane": true, "thread_invariant": true, "degraded_shards": 0}
  ]
}
"#
        .replace("HW", &hardware_threads().to_string());
        assert_eq!(doc, want);
        assert!(stochastic_hmd::json::parse(&doc).is_ok());
    }
}
