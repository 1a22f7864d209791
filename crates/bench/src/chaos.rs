//! Chaos-resilience measurement: a *supervised* monitoring pool driven
//! through a seeded crash/drift schedule, timed serial vs threaded.
//!
//! Where `serve` (BENCH_3) measures the happy path, this module measures
//! the supervised one: a [`stochastic_hmd::supervisor::ChaosPlan`] crashes
//! shards and spikes the die temperature mid-stream, a poison query is
//! mixed into every batch, and the pool has to quarantine, re-route,
//! retry, and recover — all while staying bit-identical between a serial
//! and a threaded replay, timed in paired alternation one batch at a time
//! ([`crate::replay::twin`]). The `chaos_bench` binary writes the sweep to
//! `BENCH_4.json` at the repository root.
//!
//! Timings vary run to run; nothing else may. A point counts as
//! thread-invariant only when the serial and threaded verdict checksums,
//! per-batch shard healths, and full timing-stripped telemetry snapshots
//! are bit-identical.

use crate::replay;
use crate::report::failed;
use crate::serve::{scaling_failure, CHAOS_SCALING_FLOOR};
use shmd_volt::calibration::DeviceProfile;
use shmd_volt::environment::EnvironmentConfig;
use shmd_workload::dataset::Dataset;
use stochastic_hmd::exec::{hardware_threads, ExecConfig};
use stochastic_hmd::json;
use stochastic_hmd::serve::MonitoringService;
use stochastic_hmd::supervisor::{ChaosPlan, ShardHealth, SupervisorConfig};
use stochastic_hmd::BaselineHmd;

/// Pool sizes the chaos benchmark sweeps. A 1-shard pool is excluded: its
/// only crash response is baseline failover, which the serve benchmark's
/// degradation counters already cover.
pub const CHAOS_SHARD_COUNTS: [usize; 3] = [2, 4, 8];

/// Batches of scripted chaos per deployment (the plan's horizon), followed
/// by a clean tail that gives the last quarantined shard room to finish
/// its recovery retries.
pub const CHAOS_HORIZON: u64 = 24;

/// Clean batches appended after the chaos horizon.
pub const CHAOS_TAIL: u64 = 16;

/// One pool size's chaos measurement.
#[derive(Clone, Debug)]
pub struct ChaosPoint {
    /// Detector replicas in the pool.
    pub shards: usize,
    /// Queries replayed per deployment (served + rejected).
    pub queries: usize,
    /// Queries per second with a serial worker pool, chaos included.
    pub serial_qps: f64,
    /// Queries per second fanned across the configured worker pool.
    pub threaded_qps: f64,
    /// Verdict checksum of the serial replay.
    pub checksum: u64,
    /// Whether the threaded replay matched the serial one bit-for-bit
    /// (verdicts, health transitions, timing-stripped telemetry).
    pub thread_invariant: bool,
    /// Shard crashes over the run (scripted + physics).
    pub crashes: u64,
    /// Recovery retries executed.
    pub retries: u64,
    /// Watchdog drift detections.
    pub drift_events: u64,
    /// Health-state transitions across all shards.
    pub transitions: u64,
    /// Poison queries rejected at ingestion.
    pub rejected: u64,
    /// Shards back to `Healthy` when the run ended.
    pub healthy_at_end: usize,
    /// Shards parked on the baseline fallback when the run ended.
    pub degraded_at_end: usize,
}

impl ChaosPoint {
    /// `threaded_qps / serial_qps`.
    pub fn scaling(&self) -> f64 {
        self.threaded_qps / self.serial_qps
    }
}

/// Batches between supervision sweeps in the benchmark world. Scripted
/// kills land at the next sweep via the inclusive window in
/// `ChaosPlan::kills_in`, so nothing is lost — the pool just reacts at
/// cadence granularity instead of paying the supervisor on every batch.
pub const SUPERVISION_CADENCE: u64 = 4;

/// The scripted world every measurement runs in: a drifting office
/// environment plus a seeded chaos plan over [`CHAOS_HORIZON`] batches,
/// supervised every [`SUPERVISION_CADENCE`] batches.
/// Shared with [`crate::durability`], whose crash/restore runs must live
/// in the exact world the chaos benchmark measures.
pub fn supervision(seed: u64, shards: usize) -> SupervisorConfig {
    let device = DeviceProfile::reference();
    let environment = EnvironmentConfig::drifting(device.temp_c, seed);
    let chaos = ChaosPlan::seeded(seed, shards, CHAOS_HORIZON, 2, 1);
    SupervisorConfig::new(device)
        .with_environment(environment)
        .with_chaos(chaos)
        .with_supervision_cadence(SUPERVISION_CADENCE)
}

/// Deploys the chaos world: [`supervision`] over the
/// [`replay::supervised_pool`] of `shards` replicas, on `exec`. The one
/// deployment of [`crate::durability`] and [`crate::daemon`] too.
pub fn deploy(
    baseline: &BaselineHmd,
    shards: usize,
    seed: u64,
    batch_size: usize,
    exec: ExecConfig,
) -> MonitoringService {
    let config = replay::supervised_pool(shards, seed, batch_size).with_exec(exec);
    MonitoringService::supervised(baseline, supervision(seed, shards), config)
        .expect("the reference device calibrates at er = 0.2")
}

/// Builds the batched feature stream: `batch_size` queries per batch over
/// `CHAOS_HORIZON + CHAOS_TAIL` batches, with the last query of every
/// batch width-poisoned so rejection is exercised under chaos.
pub fn feature_stream(
    baseline: &BaselineHmd,
    dataset: &Dataset,
    batch_size: usize,
) -> Vec<Vec<Vec<f32>>> {
    let dim = baseline.spec().extract(dataset.trace(0)).len();
    let batches = (CHAOS_HORIZON + CHAOS_TAIL) as usize;
    let mut features = replay::feature_batches(baseline, dataset, batches, batch_size);
    for batch in &mut features {
        if let Some(last) = batch.last_mut() {
            *last = vec![0.5; dim + 1];
        }
    }
    features
}

/// Measures one pool size: the same chaos schedule, one batch at a time and
/// in alternation, through a serial and a threaded deployment, including
/// the thread-invariance verdict.
pub fn measure_point(
    baseline: &BaselineHmd,
    features: &[Vec<Vec<f32>>],
    shards: usize,
    seed: u64,
    exec: &ExecConfig,
) -> ChaosPoint {
    let batch_size = features.first().map_or(1, Vec::len);
    let world = |exec| deploy(baseline, shards, seed, batch_size, exec);
    let twin = replay::twin(
        world(ExecConfig::serial()),
        world(*exec),
        features,
        |service, batch| {
            service.process_feature_batch(batch);
            service.shard_healths()
        },
    );
    let serial = twin.reference.snapshot();
    let final_healths = twin.observed.last().cloned().unwrap_or_default();
    let count = |health| final_healths.iter().filter(|&&h| h == health).count();
    ChaosPoint {
        shards,
        queries: features.iter().map(Vec::len).sum(),
        serial_qps: twin.reference_qps,
        threaded_qps: twin.candidate_qps,
        checksum: serial.verdict_checksum,
        thread_invariant: twin.identical,
        crashes: serial.total_crashes(),
        retries: serial.total_retries(),
        drift_events: serial.total_drift_events(),
        transitions: serial.total_transitions(),
        rejected: serial.rejected_queries,
        healthy_at_end: count(ShardHealth::Healthy),
        degraded_at_end: count(ShardHealth::Degraded),
    }
}

/// Sweeps [`CHAOS_SHARD_COUNTS`] over a stream drawn from `dataset`.
pub fn measure_sweep(
    baseline: &BaselineHmd,
    dataset: &Dataset,
    seed: u64,
    batch_size: usize,
    exec: &ExecConfig,
) -> Vec<ChaosPoint> {
    let features = feature_stream(baseline, dataset, batch_size);
    CHAOS_SHARD_COUNTS
        .iter()
        .map(|&shards| measure_point(baseline, &features, shards, seed, exec))
        .collect()
}

/// The `chaos_bench --check` gates, one message per failed gate, in this
/// order: per pool size, the threaded chaos replay must be bit-identical to
/// the serial one (verdicts, per-batch health transitions and
/// timing-stripped telemetry), the scripted chaos must crash something,
/// every one of the `batch_size`-query batches must be processed, each
/// batch's poison query must be rejected, and the pool must end the run
/// serving; then the largest pool must pass [`scaling_failure`] against
/// [`CHAOS_SCALING_FLOOR`].
pub fn failures(
    points: &[ChaosPoint],
    batch_size: usize,
    threads: usize,
    delivered: f64,
) -> Vec<String> {
    let total_batches = CHAOS_HORIZON + CHAOS_TAIL;
    let expected_queries = (total_batches as usize) * batch_size;
    let largest = points.last().map(|p| (p.shards, p.scaling()));
    let scaling = scaling_failure(CHAOS_SCALING_FLOOR, threads, largest, delivered);
    points
        .iter()
        .flat_map(|p| {
            let gates = [
                (!p.thread_invariant)
                    .then(|| "threaded chaos replay diverged from serial".to_string()),
                (p.crashes == 0).then(|| "scripted chaos crashed nothing".to_string()),
                (p.queries != expected_queries)
                    .then(|| format!("{} of {expected_queries} queries processed", p.queries)),
                (p.rejected != total_batches)
                    .then(|| format!("{} of {total_batches} poison queries rejected", p.rejected)),
                (p.healthy_at_end + p.degraded_at_end == 0)
                    .then(|| "pool ended the run dark".to_string()),
            ];
            failed(format!("{} shards: ", p.shards), gates)
        })
        .chain(scaling)
        .collect()
}

/// Renders the sweep as the `BENCH_4.json` document.
pub fn render_json(
    points: &[ChaosPoint],
    seed: u64,
    scale: &str,
    threads: usize,
    scaling_floor: f64,
    delivered_parallelism: f64,
) -> String {
    json::document(|w| {
        w.field("bench", "chaos_recovery");
        w.field("unit", "queries_per_second");
        w.field("seed", seed);
        w.field("scale", scale);
        w.field("threads", threads);
        w.field("hardware_threads", hardware_threads());
        w.fixed("delivered_parallelism", delivered_parallelism, 3);
        w.fixed("scaling_floor", scaling_floor, 3);
        let schedule = format!(
            "{CHAOS_HORIZON} chaos batches + {CHAOS_TAIL} clean, seeded crashes and a cold \
             spike, one poison query per batch, supervision every {SUPERVISION_CADENCE} batches"
        );
        w.field("schedule", schedule.as_str());
        w.objects("results", points, |w, p| {
            w.field("shards", p.shards);
            w.field("queries", p.queries);
            w.fixed("serial_qps", p.serial_qps, 1);
            w.fixed("threaded_qps", p.threaded_qps, 1);
            w.fixed("scaling", p.scaling(), 3);
            w.u64_string("checksum", p.checksum);
            w.field("thread_invariant", p.thread_invariant);
            w.field("crashes", p.crashes);
            w.field("retries", p.retries);
            w.field("drift_events", p.drift_events);
            w.field("transitions", p.transitions);
            w.field("rejected", p.rejected);
            w.field("healthy_at_end", p.healthy_at_end);
            w.field("degraded_at_end", p.degraded_at_end);
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::each_gate_fails_alone;
    use crate::setup;
    use crate::Args;

    fn fixture() -> (Dataset, BaselineHmd) {
        let args = Args::parse_from(["--fast".to_string()]);
        let dataset = setup::dataset(&args);
        let baseline = setup::victim(&dataset, 0, &args);
        (dataset, baseline)
    }

    #[test]
    fn chaos_point_is_thread_invariant_and_contains_poison() {
        let (dataset, baseline) = fixture();
        let features = feature_stream(&baseline, &dataset, 8);
        let p = measure_point(&baseline, &features, 4, 11, &ExecConfig::threads(4));
        assert!(p.serial_qps.is_finite() && p.serial_qps > 0.0);
        assert!(p.thread_invariant, "chaos replay diverged across threads");
        assert_eq!(
            p.rejected,
            CHAOS_HORIZON + CHAOS_TAIL,
            "one poison per batch must be rejected"
        );
        assert!(p.crashes >= 1, "the seeded plan must actually crash shards");
        assert!(
            p.healthy_at_end + p.degraded_at_end >= 1,
            "the pool must end the run serving"
        );
    }

    #[test]
    fn chaos_checksum_is_seed_deterministic() {
        let (dataset, baseline) = fixture();
        let features = feature_stream(&baseline, &dataset, 8);
        let a = measure_point(&baseline, &features, 2, 5, &ExecConfig::serial());
        let b = measure_point(&baseline, &features, 2, 5, &ExecConfig::serial());
        assert_eq!(a.checksum, b.checksum, "same seed must replay identically");
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.transitions, b.transitions);
        let c = measure_point(&baseline, &features, 2, 6, &ExecConfig::serial());
        assert_ne!(a.checksum, c.checksum, "seed must steer the chaos run");
    }

    fn pinned_point() -> ChaosPoint {
        ChaosPoint {
            shards: 4,
            queries: 320,
            serial_qps: 900.0,
            threaded_qps: 2700.0,
            checksum: 7,
            thread_invariant: true,
            crashes: 2,
            retries: 3,
            drift_events: 1,
            transitions: 12,
            rejected: 40,
            healthy_at_end: 4,
            degraded_at_end: 0,
        }
    }

    #[test]
    fn every_gate_fails_alone() {
        let at =
            |threads| move |p: &ChaosPoint| failures(std::slice::from_ref(p), 8, threads, 1.25);
        each_gate_fails_alone(
            &pinned_point(),
            at(8),
            &[
                (
                    |p| p.thread_invariant = false,
                    "4 shards: threaded chaos replay diverged from serial",
                ),
                (
                    |p| p.crashes = 0,
                    "4 shards: scripted chaos crashed nothing",
                ),
                (
                    |p| p.queries = 319,
                    "4 shards: 319 of 320 queries processed",
                ),
                (
                    |p| p.rejected = 39,
                    "4 shards: 39 of 40 poison queries rejected",
                ),
                (
                    |p| p.healthy_at_end = 0,
                    "4 shards: pool ended the run dark",
                ),
            ],
        );
        let slow = ChaosPoint {
            threaded_qps: 450.0,
            ..pinned_point()
        };
        let floor = crate::serve::effective_scaling_floor(CHAOS_SCALING_FLOOR, 8);
        let want = format!(
            "4 shards: scaling 0.50x below floor {floor:.2}x (configured 1.50x, \
             {} hardware threads, the host delivered 1.25x on a CPU spin)",
            hardware_threads()
        );
        assert_eq!(at(8)(&slow), vec![want]);
        assert_eq!(at(1)(&slow), Vec::<String>::new());
    }

    #[test]
    fn json_document_is_pinned() {
        let doc = render_json(&[pinned_point()], 42, "fast", 8, 1.5, 1.25);
        // The host's core count is the one field no fixture can pin.
        let want = r#"{
  "bench": "chaos_recovery",
  "unit": "queries_per_second",
  "seed": 42,
  "scale": "fast",
  "threads": 8,
  "hardware_threads": HW,
  "delivered_parallelism": 1.250,
  "scaling_floor": 1.500,
  "schedule": "24 chaos batches + 16 clean, seeded crashes and a cold spike, one poison query per batch, supervision every 4 batches",
  "results": [
    {"shards": 4, "queries": 320, "serial_qps": 900.0, "threaded_qps": 2700.0, "scaling": 3.000, "checksum": "7", "thread_invariant": true, "crashes": 2, "retries": 3, "drift_events": 1, "transitions": 12, "rejected": 40, "healthy_at_end": 4, "degraded_at_end": 0}
  ]
}
"#
        .replace("HW", &hardware_threads().to_string());
        assert_eq!(doc, want);
        assert!(stochastic_hmd::json::parse(&doc).is_ok());
    }
}
