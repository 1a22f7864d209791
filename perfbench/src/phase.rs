//! What one timed phase of a workload produces, and the checks every
//! phase shares.

use crate::stats::Blocks;
use std::collections::BTreeMap;
use stochastic_hmd::checkpoint::BackendCheckpoint;
use stochastic_hmd::{MonitoringService, TelemetrySnapshot};

/// One pass/fail output check.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The observed values behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check named `name` that passed iff `ok`.
    pub fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// The result of one timed phase.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Requests issued (frames, batches, queries or recoveries).
    pub requests: u64,
    /// Requests that were rejected, failed to decode, or failed a check.
    pub failed: u64,
    /// Per-request latency in microseconds, with each request's verdicts
    /// and seconds, by block.
    pub latency: Blocks,
    /// Verdicts delivered per second, as the workload defines it.
    pub queries_per_s: f64,
    /// Seconds spent on the blocking path (the quantity the traced run's
    /// per-layer self times must add up to).
    pub busy_s: f64,
    /// Seconds of span self time on the blocking path (traced phases).
    pub span_self_s: f64,
    /// The highest sustained offered rate, for open-loop workloads.
    pub sustained_qps: Option<f64>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Final telemetry of the measured service.
    pub snapshot: Option<TelemetrySnapshot>,
    /// Each shard's live fault-model error rate at the end (`None` for a
    /// shard serving without faults).
    pub model_rates: Vec<Option<f64>>,
    /// The verdict checksum at the phase's check point, for the
    /// workloads that compare a prefix with their reference.
    pub checksum: u64,
    /// Per-layer metrics the phase measured (traced phases, plus exact
    /// counts every phase can take).
    pub layers: BTreeMap<String, f64>,
    /// Free-form facts recorded with the result (rung table, counts).
    pub info: BTreeMap<String, String>,
}

impl Phase {
    /// Folds a later phase of the same kind into this one: counts and
    /// times add up, per-layer values average weighted by requests, and
    /// the final state is the later phase's.
    pub fn absorb(&mut self, other: Phase) {
        let (a, b) = (self.requests as f64, other.requests as f64);
        for (name, value) in other.layers {
            let merged = match self.layers.get(&name) {
                Some(&old) if a + b > 0.0 => (old * a + value * b) / (a + b),
                _ => value,
            };
            self.layers.insert(name, merged);
        }
        self.requests += other.requests;
        self.failed += other.failed;
        self.latency.absorb(other.latency);
        self.queries_per_s = other.queries_per_s;
        self.busy_s += other.busy_s;
        self.span_self_s += other.span_self_s;
        self.sustained_qps = other.sustained_qps;
        self.checks.extend(other.checks);
        self.snapshot = other.snapshot;
        self.model_rates = other.model_rates;
        self.info.extend(other.info);
    }

    /// Busy microseconds per request.
    pub fn busy_us_per_request(&self) -> f64 {
        self.busy_s * 1e6 / self.requests.max(1) as f64
    }
}

/// Binomial acceptance for the delivered fault rate, in standard
/// deviations.
pub const FAULT_SIGMAS: f64 = 6.0;

/// Relative allowance for workloads whose fault rate is fixed at deploy
/// time: faults drawn on near-zero products are absorbed, which removes
/// about 2% of the events at er = 0.4.
pub const FIXED_RATE_ALLOWANCE: f64 = 0.05;

/// Relative allowance for supervised workloads: the supervisor retunes
/// the live rate as the die temperature drifts, so the end-of-run rate is
/// not the rate every multiply saw.
pub const DRIFTING_RATE_ALLOWANCE: f64 = 0.6;

/// Each shard's live fault-model error rate.
pub fn model_rates(service: &MonitoringService) -> Vec<Option<f64>> {
    service
        .checkpoint()
        .shards
        .iter()
        .map(|shard| match &shard.backend {
            BackendCheckpoint::Stochastic(state) => Some(state.error_rate),
            _ => None,
        })
        .collect()
}

/// Defense health. The shards' calibrated fault-model rates must lie
/// within a factor of three of the workload's target, and the faults per
/// multiply delivered according to the snapshot's counters must lie
/// within a binomial bound (plus `allowance`, relative) of those rates,
/// weighted by each shard's multiplies. A change that stops injecting
/// faults, or injects far more, fails here instead of reading as a
/// speed-up.
pub fn fault_health(
    snapshot: &TelemetrySnapshot,
    model_rates: &[Option<f64>],
    target_er: f64,
    allowance: f64,
) -> Check {
    let faults = snapshot.total_faults();
    let n = faults.multiplies as f64;
    let weighted: f64 = snapshot
        .shards
        .iter()
        .zip(model_rates)
        .map(|(shard, er)| shard.faults.multiplies as f64 * er.unwrap_or(0.0))
        .sum();
    let expected = weighted / n.max(1.0);
    let observed = faults.observed_error_rate();
    let sigma = (expected * (1.0 - expected) / n.max(1.0)).sqrt();
    let bound = FAULT_SIGMAS * sigma + allowance * expected;
    let calibrated = expected >= target_er / 3.0 && expected <= target_er * 3.0;
    let ok = faults.multiplies > 0 && calibrated && (observed - expected).abs() <= bound;
    Check::new(
        "fault_rate_within_binomial_bound",
        ok,
        format!(
            "delivered {observed:.6} faults per multiply over {} multiplies; shards calibrated \
             to {expected:.6} (target {target_er}); bound ±{bound:.6}",
            faults.multiplies
        ),
    )
}

/// Exact per-query counts from a snapshot: re-query share, draws, faults
/// and multiplies per served query.
pub fn snapshot_counts(
    snapshot: &TelemetrySnapshot,
    replicas: usize,
    layers: &mut BTreeMap<String, f64>,
) {
    let served = snapshot
        .queries
        .saturating_sub(snapshot.rejected_queries)
        .max(1) as f64;
    let faults = snapshot.total_faults();
    layers.insert(
        "serve.requery_frac".into(),
        snapshot.requeries as f64 / served,
    );
    layers.insert(
        "serve.draws_per_query".into(),
        (served + (snapshot.requeries * replicas as u64) as f64) / served,
    );
    layers.insert(
        "volt.faults_per_query".into(),
        faults.faulty as f64 / served,
    );
    layers.insert(
        "volt.multiplies_per_query".into(),
        faults.multiplies as f64 / served,
    );
}
