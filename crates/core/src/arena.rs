//! The adaptive-attacker arena: a live [`MonitoringService`] behind the
//! black-box [`Detector`] interface.
//!
//! The paper's §V threat model gives the adversary unlimited black-box
//! query access — but every attack in `shmd-attack` drives a bare
//! [`Detector`], while what a fleet actually exposes is the full serving
//! stack: sharded fan-out, calibration generations, supervision,
//! uncertainty-aware re-query, checkpoint/restore. [`ArenaOracle`] closes
//! that gap. It wraps a deployed service and answers `classify` through
//! the real `process_batch` path, so each attacker query advances the
//! *real* stream position, draws the *real* per-position fault stream,
//! and receives the verdict the deployed monitor would have emitted —
//! re-query label flips included.
//!
//! Because everything inside the service is a pure function of
//! `(seed, stream position)`, an arena run is replayable: the oracle's
//! verdicts are bit-identical at any thread count, and a mid-arena
//! checkpoint restores to the same continuation (the `arena_bench` gates
//! assert both).
//!
//! The oracle also meters the attacker: [`ArenaOracle::queries`] counts
//! every query the adversary spent, which is the defender's practical
//! deterrent (each query is an execution of the sample on the victim
//! machine).

use crate::detector::{Detector, Label};
use crate::serve::{MonitoringService, QueryDisposition, Verdict};
use shmd_workload::trace::Trace;

/// A live monitoring service exposed as a black-box [`Detector`] oracle,
/// with a query-cost meter.
pub struct ArenaOracle {
    name: String,
    service: MonitoringService,
    queries: u64,
}

impl ArenaOracle {
    /// Puts a deployed service into the arena.
    pub fn new(service: MonitoringService) -> ArenaOracle {
        ArenaOracle::from_parts(service, 0)
    }

    /// Rebuilds an oracle around a restored service, carrying a prior
    /// query-cost count (for checkpoint/restore of a running arena).
    pub fn from_parts(service: MonitoringService, queries: u64) -> ArenaOracle {
        ArenaOracle {
            name: format!("arena({} shards)", service.shard_count()),
            service,
            queries,
        }
    }

    /// Victim queries the adversary has spent so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// The live service, for telemetry/checkpoint access.
    pub fn service(&self) -> &MonitoringService {
        &self.service
    }

    /// Mutable access to the live service (to checkpoint mid-arena or
    /// adjust the re-query policy between rounds).
    pub fn service_mut(&mut self) -> &mut MonitoringService {
        &mut self.service
    }

    /// Issues one query through the live serving path and returns the
    /// full verdict (disposition and confidence included).
    pub fn query(&mut self, trace: &Trace) -> Verdict {
        self.queries += 1;
        let mut verdicts = self.service.process_batch(&[trace]);
        // process_batch returns exactly one verdict per query.
        verdicts.pop().unwrap_or(Verdict {
            query: self.service.served().saturating_sub(1),
            shard: 0,
            score: 0.0,
            label: Label::Benign,
            disposition: QueryDisposition::Served,
            confidence: crate::serve::VerdictConfidence::Confident,
        })
    }
}

impl Detector for ArenaOracle {
    fn name(&self) -> &str {
        &self.name
    }

    /// The primary order statistic of the live verdict. Note that under
    /// an active re-query policy the authoritative label can differ from
    /// `score >= threshold` (the ensemble may flip it); black-box attacks
    /// should use [`Detector::classify`], which this oracle overrides to
    /// return the live label.
    fn score(&mut self, trace: &Trace) -> f64 {
        self.query(trace).score
    }

    /// One live detection: the label the deployed monitor actually
    /// emitted for this stream position, re-query flips included.
    fn classify(&mut self, trace: &Trace) -> Label {
        self.query(trace).label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{RequeryConfig, ServeConfig, VerdictConfidence};
    use crate::supervisor::SupervisorConfig;
    use crate::train::{train_baseline, HmdTrainConfig};
    use shmd_volt::calibration::DeviceProfile;
    use shmd_workload::dataset::{Dataset, DatasetConfig};
    use shmd_workload::features::FeatureSpec;

    fn arena() -> (Dataset, ArenaOracle) {
        arena_under(ServeConfig::new(2).with_seed(9))
    }

    fn arena_under(config: ServeConfig) -> (Dataset, ArenaOracle) {
        let dataset = Dataset::generate(&DatasetConfig::small(100), 77);
        let split = dataset.three_fold_split(0);
        let baseline = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("train");
        let service = MonitoringService::supervised(
            &baseline,
            SupervisorConfig::new(DeviceProfile::reference()),
            config,
        )
        .expect("deploy");
        (dataset, ArenaOracle::new(service))
    }

    #[test]
    fn oracle_queries_advance_the_live_stream_and_are_metered() {
        let (dataset, mut oracle) = arena();
        assert_eq!(oracle.queries(), 0);
        for i in 0..10 {
            let _ = oracle.classify(dataset.trace(i));
        }
        assert_eq!(oracle.queries(), 10);
        assert_eq!(oracle.service().served(), 10);
        assert!(oracle.service().verdict_checksum() != 0);
    }

    #[test]
    fn oracle_replays_bit_identically_per_seed() {
        let (dataset, mut a) = arena();
        let (_, mut b) = arena();
        for i in 0..20 {
            let va = a.query(dataset.trace(i % 10));
            let vb = b.query(dataset.trace(i % 10));
            assert_eq!(va.score.to_bits(), vb.score.to_bits(), "query {i}");
            assert_eq!(va.label, vb.label, "query {i}");
            assert_eq!(va.confidence, vb.confidence, "query {i}");
        }
        assert_eq!(
            a.service().verdict_checksum(),
            b.service().verdict_checksum()
        );
    }

    #[test]
    fn classify_returns_the_live_label_under_requery() {
        let (dataset, mut oracle) = arena_under(
            ServeConfig::new(2)
                .with_seed(9)
                .with_requery(RequeryConfig::new(0.5, 5)),
        );
        // With a half-width-0.5 band every stochastic score is a band
        // hit; the labels must come from the ensemble vote.
        let mut drawn = 0;
        for i in 0..16 {
            let v = oracle.query(dataset.trace(i % 10));
            let VerdictConfidence::Requeried { votes, positives } = v.confidence else {
                panic!("query {i} was not re-queried: {v:?}");
            };
            // Six votes in all: the primary and five replicas. Drawing
            // stopped once the label was settled, and not before.
            let undrawn = 6 - votes;
            assert!(
                2 * positives > 6 || 2 * (positives + undrawn) <= 6,
                "query {i} stopped unsettled: {v:?}"
            );
            assert_eq!(v.label.is_malware(), 2 * positives > 6, "query {i}");
            drawn += u64::from(votes - 1);
        }
        let snapshot = oracle.service().snapshot();
        assert_eq!(snapshot.band_hits, 16);
        assert_eq!(snapshot.requeries, drawn);
        // All five replicas for every query would be 80 draws.
        assert_eq!(snapshot.requeries, 52, "replicas drawn");
    }

    #[test]
    fn checkpoint_restore_resumes_the_same_arena() {
        let (dataset, mut oracle) = arena();
        for i in 0..8 {
            let _ = oracle.query(dataset.trace(i % 10));
        }
        let checkpoint = oracle.service().checkpoint();
        let queries = oracle.queries();

        // Continue the original.
        let mut original_tail = Vec::new();
        for i in 8..16 {
            original_tail.push(oracle.query(dataset.trace(i % 10)).score.to_bits());
        }

        // Restore a second oracle from the snapshot and replay.
        let dataset2 = Dataset::generate(&DatasetConfig::small(100), 77);
        let split = dataset2.three_fold_split(0);
        let baseline = train_baseline(
            &dataset2,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("train");
        let restored = MonitoringService::restore(
            &baseline,
            Some(SupervisorConfig::new(DeviceProfile::reference())),
            &checkpoint,
            crate::exec::ExecConfig::serial(),
        )
        .expect("restore");
        let mut resumed = ArenaOracle::from_parts(restored, queries);
        assert_eq!(resumed.queries(), 8);
        let mut resumed_tail = Vec::new();
        for i in 8..16 {
            resumed_tail.push(resumed.query(dataset2.trace(i % 10)).score.to_bits());
        }
        assert_eq!(original_tail, resumed_tail);
        assert_eq!(
            oracle.service().verdict_checksum(),
            resumed.service().verdict_checksum()
        );
    }
}
