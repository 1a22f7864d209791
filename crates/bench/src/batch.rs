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
//! - **Paired interleaved timing.** The `lanes = 1` and the wider
//!   deployment advance through the stream *alternately, one chunk at a
//!   time*, each accumulating only its own elapsed time. A noisy host
//!   changes speed in epochs much longer than one chunk, so an epoch
//!   inflates both sides of the ratio equally instead of whichever
//!   deployment happened to run during it.
//!
//! The width ratio (`vs_one_lane`, single thread) is reported, not gated:
//! serving throughput is guarded by the repository benchmark and by
//! BENCH_2's floor.

use shmd_volt::calibration::CalibrationCurve;
use shmd_workload::dataset::Dataset;
use shmd_workload::trace::Trace;
use std::time::{Duration, Instant};
use stochastic_hmd::exec::ExecConfig;
use stochastic_hmd::serve::{MonitoringService, ServeConfig};
use stochastic_hmd::BaselineHmd;

/// Lane widths the batched-serving benchmark sweeps: one lane, the
/// half-width and default widths, and the widest supported batch.
pub const BENCH_LANE_WIDTHS: [usize; 4] = [1, 4, 8, 16];

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
    /// Queries per second of this width fanned across the worker pool.
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

/// Deploys a fresh service for `config` and replays the feature stream
/// through it in `batch_size` chunks, returning the finished service and
/// its queries-per-second.
fn replay(
    baseline: &BaselineHmd,
    curve: &CalibrationCurve,
    config: ServeConfig,
    features: &[Vec<f32>],
) -> (MonitoringService, f64) {
    let chunk_len = config.batch_size.max(1);
    let mut service =
        MonitoringService::deploy(baseline, curve, config).expect("benchmark config is valid");
    let start = Instant::now();
    for chunk in features.chunks(chunk_len) {
        service.process_feature_batch(chunk);
    }
    let qps = features.len() as f64 / start.elapsed().as_secs_f64();
    (service, qps)
}

/// Deploys a `lanes = 1` and a `lanes`-wide service and replays
/// the feature stream through both *in alternation*, one chunk at a time,
/// timing each side separately. Both deployments see every host-speed
/// epoch, so their throughput ratio is robust to machine noise that would
/// skew back-to-back runs.
fn paired_replay(
    baseline: &BaselineHmd,
    curve: &CalibrationCurve,
    config: ServeConfig,
    lanes: usize,
    features: &[Vec<f32>],
) -> (MonitoringService, f64, MonitoringService, f64) {
    let chunk_len = config.batch_size.max(1);
    let serial = config.with_exec(ExecConfig::serial());
    let mut one_lane = MonitoringService::deploy(baseline, curve, serial.with_lanes(1))
        .expect("benchmark config is valid");
    let mut wide = MonitoringService::deploy(baseline, curve, serial.with_lanes(lanes))
        .expect("benchmark config is valid");
    let mut one_lane_elapsed = Duration::ZERO;
    let mut wide_elapsed = Duration::ZERO;
    for chunk in features.chunks(chunk_len) {
        let t = Instant::now();
        one_lane.process_feature_batch(chunk);
        one_lane_elapsed += t.elapsed();
        let t = Instant::now();
        wide.process_feature_batch(chunk);
        wide_elapsed += t.elapsed();
    }
    let n = features.len() as f64;
    let one_lane_qps = n / one_lane_elapsed.as_secs_f64();
    let wide_qps = n / wide_elapsed.as_secs_f64();
    (one_lane, one_lane_qps, wide, wide_qps)
}

/// Measures one error rate across [`BENCH_LANE_WIDTHS`]: per width a
/// paired one-lane/wide serial replay (timed) plus a threaded replay of
/// the same stream, with the two identity verdicts evaluated on verdict
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
    BENCH_LANE_WIDTHS
        .iter()
        .map(|&lanes| {
            let (one_lane, one_lane_qps, serial, batched_qps) =
                paired_replay(baseline, curve, config, lanes, &features);
            let (threaded, threaded_qps) = replay(
                baseline,
                curve,
                config.with_lanes(lanes).with_exec(*exec),
                &features,
            );
            let one_lane_snapshot = one_lane.snapshot().without_timing();
            let serial_snapshot = serial.snapshot().without_timing();
            let threaded_snapshot = threaded.snapshot().without_timing();
            BatchPoint {
                network: network.to_string(),
                error_rate: er,
                lanes,
                queries: queries.len(),
                one_lane_qps,
                batched_qps,
                threaded_qps,
                checksum: serial_snapshot.verdict_checksum,
                matches_one_lane: serial_snapshot == one_lane_snapshot,
                thread_invariant: threaded_snapshot == serial_snapshot,
                degraded_shards: serial_snapshot.degraded_shards(),
            }
        })
        .collect()
}

/// Sweeps [`BENCH_BATCH_ERROR_RATES`] × [`BENCH_LANE_WIDTHS`] over a
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

/// Renders the sweep as the hand-built JSON written to `BENCH_6.json`.
///
/// The vendored `serde` is a no-op shim, so the document is formatted
/// here; checksums are decimal strings to stay integer-exact in any
/// reader (they exceed 2^53).
pub fn render_json(points: &[BatchPoint], seed: u64, scale: &str, threads: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"batched_serving\",\n");
    out.push_str("  \"unit\": \"queries_per_second\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!(
        "  \"hardware_threads\": {},\n",
        crate::serve::hardware_threads()
    ));
    out.push_str(&format!("  \"shards\": {BENCH_BATCH_SHARDS},\n"));
    out.push_str(
        "  \"measurement\": \"pre-extracted features, one-lane and wide deployments \
         timed in paired chunk alternation\",\n",
    );
    out.push_str(
        "  \"engine\": \"structure-of-arrays lane batching: lane-major activation \
         planes, straight-line i64 MAC over accumulator lanes, per-lane derived \
         fault streams drained in whole fault-free runs, precomputed flip-position \
         tables\",\n",
    );
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"network\": \"{}\", \"error_rate\": {}, \"lanes\": {}, \"queries\": {}, \
             \"one_lane_qps\": {:.1}, \"batched_qps\": {:.1}, \"vs_one_lane\": {:.3}, \
             \"threaded_qps\": {:.1}, \"checksum\": \"{}\", \"matches_one_lane\": {}, \
             \"thread_invariant\": {}, \"degraded_shards\": {}}}{}\n",
            p.network,
            p.error_rate,
            p.lanes,
            p.queries,
            p.one_lane_qps,
            p.batched_qps,
            p.vs_one_lane(),
            p.threaded_qps,
            p.checksum,
            p.matches_one_lane,
            p.thread_invariant,
            p.degraded_shards,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(points.len(), BENCH_LANE_WIDTHS.len());
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
        let (via_features, _) = replay(&baseline, &curve, config, &features);
        assert_eq!(
            via_traces.snapshot().without_timing(),
            via_features.snapshot().without_timing(),
            "pre-extracted feature replay diverged from the trace pipeline"
        );
    }

    #[test]
    fn json_document_is_well_formed_enough_to_grep() {
        let p = BatchPoint {
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
        };
        let doc = render_json(&[p], 42, "fast", 1);
        assert!(doc.contains("\"vs_one_lane\": 2.000"));
        assert!(doc.contains("\"matches_one_lane\": true"));
        assert!(doc.contains("\"thread_invariant\": true"));
        assert!(doc.contains("\"checksum\": \"42\""));
        assert!(doc.contains("\"lanes\": 8"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }
}
