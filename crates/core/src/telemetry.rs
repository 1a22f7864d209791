//! Serving-layer telemetry: what a production monitor exports besides
//! verdicts.
//!
//! Kumar et al. (DAC 2021) argue an HMD deployed as a service must export
//! runtime confidence signals *alongside* its verdicts — a bare
//! malware/benign bit gives the operator no way to notice drift, a stuck
//! shard, or a defense that silently stopped injecting faults. This module
//! is the [`crate::serve`] engine's export surface:
//!
//! - [`ScoreHistogram`] — the score distribution per shard, the §VI
//!   confidence-distribution view taken continuously instead of offline;
//! - [`ShardState`] — one replica's whole durable record, the very one
//!   the service keeps and a checkpoint stores: queries, flags, fault
//!   counts folded from its per-query fault streams, energy, and the
//!   supervision record — health, what the watchdog saw (its reference
//!   rate and window mark) and the retry schedule;
//! - [`TelemetrySnapshot`] — the service-wide report, exported as JSON
//!   ([`TelemetrySnapshot::to_json`]) for an operator's dashboard; the
//!   service itself never reads a snapshot back.
//!
//! Everything in a snapshot except [`TelemetrySnapshot::batch_latency_micros`]
//! is a deterministic function of the seed and the query stream;
//! [`TelemetrySnapshot::without_timing`] strips the wall-clock part so two
//! runs can be compared bit-for-bit (the `serve_bench` binary asserts this
//! across thread counts).
//!
//! The JSON writer is [`crate::json::document`]; 64-bit quantities that
//! can exceed 2⁵³ (derived seeds, checksums) are emitted as decimal
//! strings to stay integer-exact in any reader.

use crate::checkpoint::ShardState;
use crate::json;
use crate::supervisor::ShardHealth;
pub use shmd_volt::fault::FaultCounters;

/// Number of bins in a [`ScoreHistogram`] (scores span `[0, 1]`).
pub const HISTOGRAM_BINS: usize = 20;

/// A fixed-bin histogram of detection scores in `[0, 1]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScoreHistogram {
    counts: [u64; HISTOGRAM_BINS],
}

impl ScoreHistogram {
    /// An empty histogram.
    pub fn new() -> ScoreHistogram {
        ScoreHistogram {
            counts: [0; HISTOGRAM_BINS],
        }
    }

    /// Records one score. Out-of-range scores (including infinities) clamp
    /// into the edge bins; `NaN` lands in bin 0.
    pub fn record(&mut self, score: f64) {
        let clamped = if score.is_nan() {
            0.0
        } else {
            score.clamp(0.0, 1.0)
        };
        let bin = ((clamped * HISTOGRAM_BINS as f64) as usize).min(HISTOGRAM_BINS - 1);
        self.counts[bin] += 1;
    }

    /// Per-bin counts, lowest score bin first.
    pub fn counts(&self) -> &[u64; HISTOGRAM_BINS] {
        &self.counts
    }

    /// Total scores recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &ScoreHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    pub(crate) fn from_counts(counts: [u64; HISTOGRAM_BINS]) -> ScoreHistogram {
        ScoreHistogram { counts }
    }
}

impl Default for ScoreHistogram {
    fn default() -> ScoreHistogram {
        ScoreHistogram::new()
    }
}

/// A serialisable snapshot of the whole monitoring service.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySnapshot {
    /// The service's master seed.
    pub seed: u64,
    /// Display form of the deployed [`crate::deploy::DetectionPolicy`].
    pub policy: String,
    /// Batches processed.
    pub batches: u64,
    /// Queries served across all shards.
    pub queries: u64,
    /// Queries flagged as malware across all shards.
    pub flags: u64,
    /// Verdicts re-query found inside the confidence band, summed over
    /// all shards.
    pub band_hits: u64,
    /// Ensemble replica draws spent on re-queries, summed over all
    /// shards.
    pub requeries: u64,
    /// Cumulative shard degradations (a shard recalibrated back to
    /// stochastic and degraded again counts twice).
    pub degradation_events: u64,
    /// Queries rejected at ingestion (malformed width or non-finite
    /// features) instead of being dispatched to a shard.
    pub rejected_queries: u64,
    /// Order-sensitive checksum over the verdict stream; bit-identical at
    /// any worker-thread count.
    pub verdict_checksum: u64,
    /// The service-wide core-power budget (watts) the scheduler enforces;
    /// `None` when no budget policy is installed.
    pub power_budget_w: Option<f64>,
    /// Projected busy core power (watts) summed over live shards at the
    /// last supervision tick; `None` before the first tick or without a
    /// budget policy.
    pub service_power_w: Option<f64>,
    /// Per-shard records, in shard order: a shard's id is its index.
    pub shards: Vec<ShardState>,
    /// Wall-clock per batch, microseconds, for the most recent batches
    /// only (the service keeps a sliding window of
    /// [`crate::serve::BATCH_LATENCY_WINDOW`] entries so a long-lived
    /// monitor's history stays bounded). The only non-deterministic
    /// field — see [`TelemetrySnapshot::without_timing`].
    pub batch_latency_micros: Vec<u64>,
}

impl TelemetrySnapshot {
    /// Shards currently serving degraded (baseline fallback).
    pub fn degraded_shards(&self) -> usize {
        self.shards_in(ShardHealth::Degraded)
    }

    /// Shards currently in the given health state.
    pub fn shards_in(&self, health: ShardHealth) -> usize {
        self.shards
            .iter()
            .filter(|s| s.supervision.health == health)
            .count()
    }

    /// Health transitions summed over all shards.
    pub fn total_transitions(&self) -> u64 {
        self.shards.iter().map(|s| s.supervision.transitions).sum()
    }

    /// Crashes summed over all shards.
    pub fn total_crashes(&self) -> u64 {
        self.shards.iter().map(|s| s.supervision.crashes).sum()
    }

    /// Watchdog drift detections summed over all shards.
    pub fn total_drift_events(&self) -> u64 {
        self.shards.iter().map(|s| s.supervision.drift_events).sum()
    }

    /// Recalibration retries summed over all shards.
    pub fn total_retries(&self) -> u64 {
        self.shards.iter().map(|s| s.supervision.retries).sum()
    }

    /// Fault counters summed over all shards.
    pub fn total_faults(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        for s in &self.shards {
            total.merge(&s.faults);
        }
        total
    }

    /// Detection energy summed over all shards, microjoules.
    pub fn total_energy_uj(&self) -> f64 {
        self.shards.iter().map(|s| s.energy_uj).sum()
    }

    /// Mean latency of the batches in the retained window, microseconds;
    /// `None` before the first batch.
    pub fn mean_batch_latency_micros(&self) -> Option<f64> {
        if self.batch_latency_micros.is_empty() {
            return None;
        }
        Some(
            self.batch_latency_micros.iter().sum::<u64>() as f64
                / self.batch_latency_micros.len() as f64,
        )
    }

    /// The snapshot with wall-clock timing stripped: every remaining field
    /// is a deterministic function of the seed and the query stream, so
    /// two runs of the same stream compare equal regardless of thread
    /// count or machine load.
    #[must_use]
    pub fn without_timing(&self) -> TelemetrySnapshot {
        let mut s = self.clone();
        s.batch_latency_micros.clear();
        s
    }

    /// Renders the snapshot as JSON. Seeds and the checksum are decimal
    /// strings; absent and non-finite power figures are `null`. Each
    /// shard's `shard` is its index, `degraded` says whether its health is
    /// `Degraded`, and `power_w` is its last accrual's power.
    pub fn to_json(&self) -> String {
        json::document(|w| {
            w.field("snapshot", "stochastic-hmd-serve");
            w.u64_string("seed", self.seed);
            w.field("policy", self.policy.as_str());
            w.field("batches", self.batches);
            w.field("queries", self.queries);
            w.field("flags", self.flags);
            w.field("band_hits", self.band_hits);
            w.field("requeries", self.requeries);
            w.field("degradation_events", self.degradation_events);
            w.field("rejected_queries", self.rejected_queries);
            w.u64_string("verdict_checksum", self.verdict_checksum);
            w.field("power_budget_w", self.power_budget_w);
            w.field("service_power_w", self.service_power_w);
            w.field("total_energy_uj", self.total_energy_uj());
            w.field(
                "mean_batch_latency_micros",
                self.mean_batch_latency_micros(),
            );
            w.array("batch_latency_micros", &self.batch_latency_micros);
            w.objects("shards", self.shards.iter().enumerate(), |w, (id, s)| {
                let sup = &s.supervision;
                w.field("shard", id);
                w.u64_string("seed", s.seed);
                w.field("degraded", sup.health == ShardHealth::Degraded);
                w.field("degraded_reason", s.degraded_reason.as_deref());
                w.field("health", sup.health.as_str());
                w.field("transitions", sup.transitions);
                w.field("crashes", sup.crashes);
                w.field("drift_events", sup.drift_events);
                w.field("retries", sup.retries);
                w.field("queries", s.queries);
                w.field("flags", s.flags);
                w.field("band_hits", s.band_hits);
                w.field("requeries", s.requeries);
                w.field("multiplies", s.faults.multiplies);
                w.field("faulty", s.faults.faulty);
                w.field("bit_flips", s.faults.bit_flips);
                w.field("energy_uj", s.energy_uj);
                w.field("power_w", s.last_power_w);
                w.field("power_target_er", s.power_target_er);
                w.array("histogram", s.histogram.counts());
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::SupervisionRecord;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut histogram = ScoreHistogram::new();
        histogram.record(0.03);
        histogram.record(0.97);
        histogram.record(0.97);
        TelemetrySnapshot {
            seed: 42,
            policy: "majority-of-3".to_string(),
            batches: 2,
            queries: 3,
            flags: 2,
            band_hits: 1,
            requeries: 5,
            degradation_events: 1,
            rejected_queries: 4,
            verdict_checksum: u64::MAX - 7,
            power_budget_w: Some(40.0),
            service_power_w: Some(16.5),
            shards: vec![
                ShardState {
                    queries: 2,
                    flags: 1,
                    band_hits: 1,
                    requeries: 5,
                    faults: FaultCounters {
                        multiplies: 408,
                        faulty: 37,
                        bit_flips: 41,
                    },
                    histogram: histogram.clone(),
                    energy_uj: 1234.5,
                    last_power_w: Some(8.25),
                    power_target_er: Some(0.12),
                    ..ShardState::fresh(u64::MAX / 3, ShardHealth::Healthy, None)
                },
                ShardState {
                    supervision: SupervisionRecord {
                        transitions: 3,
                        crashes: 1,
                        drift_events: 2,
                        retries: 4,
                        ..SupervisionRecord::starting(ShardHealth::Degraded)
                    },
                    queries: 1,
                    flags: 1,
                    ..ShardState::fresh(
                        7,
                        ShardHealth::Degraded,
                        Some("error rate 0.99 unreachable \"before\" freeze".into()),
                    )
                },
            ],
            batch_latency_micros: vec![120, 95],
        }
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let mut h = ScoreHistogram::new();
        h.record(0.0);
        h.record(0.049); // still bin 0
        h.record(1.0); // clamps into the top bin
        h.record(2.5); // out of range clamps too
        h.record(f64::NAN); // NaN lands in bin 0
        h.record(f64::NEG_INFINITY); // clamps into bin 0
        h.record(f64::INFINITY); // clamps into the top bin
        assert_eq!(h.counts()[0], 4);
        assert_eq!(h.counts()[HISTOGRAM_BINS - 1], 3);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn histogram_merges() {
        let mut a = ScoreHistogram::new();
        a.record(0.1);
        let mut b = ScoreHistogram::new();
        b.record(0.1);
        b.record(0.9);
        a.merge(&b);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snapshot = sample_snapshot();
        let json = snapshot.to_json();
        let want = r#"{
  "snapshot": "stochastic-hmd-serve",
  "seed": "42",
  "policy": "majority-of-3",
  "batches": 2,
  "queries": 3,
  "flags": 2,
  "band_hits": 1,
  "requeries": 5,
  "degradation_events": 1,
  "rejected_queries": 4,
  "verdict_checksum": "18446744073709551608",
  "power_budget_w": 40,
  "service_power_w": 16.5,
  "total_energy_uj": 1234.5,
  "mean_batch_latency_micros": 107.5,
  "batch_latency_micros": [120, 95],
  "shards": [
    {"shard": 0, "seed": "6148914691236517205", "degraded": false, "degraded_reason": null, "health": "healthy", "transitions": 0, "crashes": 0, "drift_events": 0, "retries": 0, "queries": 2, "flags": 1, "band_hits": 1, "requeries": 5, "multiplies": 408, "faulty": 37, "bit_flips": 41, "energy_uj": 1234.5, "power_w": 8.25, "power_target_er": 0.12, "histogram": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2]},
    {"shard": 1, "seed": "7", "degraded": true, "degraded_reason": "error rate 0.99 unreachable \"before\" freeze", "health": "degraded", "transitions": 3, "crashes": 1, "drift_events": 2, "retries": 4, "queries": 1, "flags": 1, "band_hits": 0, "requeries": 0, "multiplies": 0, "faulty": 0, "bit_flips": 0, "energy_uj": 0, "power_w": null, "power_target_er": null, "histogram": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}
  ]
}
"#;
        assert_eq!(json, want);
        assert!(json::parse(&json).is_ok());
    }

    #[test]
    fn without_timing_strips_only_latency() {
        let snapshot = sample_snapshot();
        let stripped = snapshot.without_timing();
        assert!(stripped.batch_latency_micros.is_empty());
        assert_eq!(stripped.shards, snapshot.shards);
        assert_eq!(stripped.verdict_checksum, snapshot.verdict_checksum);
    }

    #[test]
    fn aggregates_sum_over_shards() {
        let snapshot = sample_snapshot();
        assert_eq!(snapshot.degraded_shards(), 1);
        assert_eq!(snapshot.shards_in(ShardHealth::Healthy), 1);
        assert_eq!(snapshot.shards_in(ShardHealth::Degraded), 1);
        assert_eq!(snapshot.shards_in(ShardHealth::Quarantined), 0);
        assert_eq!(snapshot.total_transitions(), 3);
        assert_eq!(snapshot.total_crashes(), 1);
        assert_eq!(snapshot.total_drift_events(), 2);
        assert_eq!(snapshot.total_retries(), 4);
        assert_eq!(snapshot.total_faults().multiplies, 408);
        assert_eq!(snapshot.mean_batch_latency_micros(), Some(107.5));
        assert_eq!(
            sample_snapshot()
                .without_timing()
                .mean_batch_latency_micros(),
            None
        );
    }

    #[test]
    fn energy_fields_export_and_aggregate() {
        let snapshot = sample_snapshot();
        assert_eq!(snapshot.total_energy_uj(), 1234.5);
        let json = snapshot.to_json();
        assert!(json.contains("\"power_budget_w\": 40"));
        assert!(json.contains("\"total_energy_uj\": 1234.5"));
        assert!(json.contains("\"power_w\": 8.25"));
        // The idle shard's power fields render as null, not 0.
        assert!(json.contains("\"energy_uj\": 0, \"power_w\": null, \"power_target_er\": null"));
    }

    #[test]
    fn non_finite_latency_summaries_serialise_as_null() {
        // Bare NaN/inf tokens are not JSON; the writer must map every
        // non-finite (and absent) float to null.
        let float = |v: Option<f64>| json::document(|w| w.field("v", v));
        assert_eq!(float(Some(f64::NAN)), "{\n  \"v\": null\n}\n");
        assert_eq!(float(Some(f64::INFINITY)), "{\n  \"v\": null\n}\n");
        assert_eq!(float(Some(f64::NEG_INFINITY)), "{\n  \"v\": null\n}\n");
        assert_eq!(float(None), "{\n  \"v\": null\n}\n");
        assert_eq!(float(Some(107.5)), "{\n  \"v\": 107.5\n}\n");
        // An empty latency window renders the mean as null end-to-end, and
        // the document is still JSON.
        let json = sample_snapshot().without_timing().to_json();
        assert!(json.contains("\"mean_batch_latency_micros\": null"));
        assert!(json::parse(&json).is_ok());
    }
}
