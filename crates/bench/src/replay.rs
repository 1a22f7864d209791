//! The replay harness every serving bench shares: two deployments driven
//! through the same batches in alternation, a mid-stream restore check,
//! and the builders for the streams and pools those benches replay.
//!
//! The serial-vs-threaded verdicts of BENCH_3–9 are the determinism
//! oracle, so they are computed in one place:
//!
//! - [`twin`] advances a reference and a candidate deployment one batch
//!   at a time, in alternation, through [`paired_qps`]: a host-speed
//!   epoch slows both alike. Usually the two differ only in their worker
//!   pool (`serve`, `chaos`, `power`, the arena's re-query and drift
//!   runs); `batch` also pairs a one-lane with a wide deployment. The
//!   verdict, [`Twin::identical`], holds when the verdict checksums, the
//!   timing-stripped telemetry snapshots and every per-batch observation
//!   the caller's step returns (chaos returns shard healths) all match.
//! - [`restores`] serves the head of the stream, checkpoints, sends the
//!   checkpoint through the byte codec, restores it, replays the tail and
//!   compares the result with the uninterrupted run the same way.

use crate::perf::paired_qps;
use shmd_workload::dataset::Dataset;
use stochastic_hmd::checkpoint::ServiceCheckpoint;
use stochastic_hmd::serve::{MonitoringService, ServeConfig};
use stochastic_hmd::BaselineHmd;

/// The supervised er = 0.2 pool that `chaos`, `durability`, `daemon` and
/// `power` deploy: `shards` replicas seeded from `seed`, checkpointing
/// `batch_size`-query batches.
pub fn supervised_pool(shards: usize, seed: u64, batch_size: usize) -> ServeConfig {
    ServeConfig::new(shards)
        .with_seed(seed)
        .with_target_error_rate(0.2)
        .with_batch_size(batch_size)
}

/// `batches` batches of `batch_size` feature vectors, query `i` of batch
/// `b` extracted from trace `(b · batch_size + i) mod dataset.len()`.
pub fn feature_batches(
    baseline: &BaselineHmd,
    dataset: &Dataset,
    batches: usize,
    batch_size: usize,
) -> Vec<Vec<Vec<f32>>> {
    let spec = baseline.spec();
    (0..batches)
        .map(|b| {
            (0..batch_size)
                .map(|i| spec.extract(dataset.trace((b * batch_size + i) % dataset.len())))
                .collect()
        })
        .collect()
}

/// The step of a replay that only serves: one feature batch, verdicts
/// dropped.
pub fn feed(service: &mut MonitoringService, batch: &[Vec<f32>]) {
    service.process_feature_batch(batch);
}

/// Two deployments after the same replay, as [`twin`] returns them.
pub struct Twin<O> {
    /// The deployment judged against (usually the serial one).
    pub reference: MonitoringService,
    /// The deployment under test (usually the threaded one).
    pub candidate: MonitoringService,
    /// The reference's queries per second over all batches.
    pub reference_qps: f64,
    /// The candidate's queries per second over all batches.
    pub candidate_qps: f64,
    /// The reference's per-batch observations, in batch order.
    pub observed: Vec<O>,
    /// Verdict checksums, timing-stripped snapshots and per-batch
    /// observations all matched.
    pub identical: bool,
}

/// Whether two deployments ended in the same state: verdict checksum and
/// timing-stripped telemetry.
fn same_state(a: &MonitoringService, b: &MonitoringService) -> bool {
    a.verdict_checksum() == b.verdict_checksum()
        && a.snapshot().without_timing() == b.snapshot().without_timing()
}

/// Replays `batches` through `reference` and `candidate` in alternation,
/// one batch at a time, each side timing only its own `step`s
/// ([`paired_qps`]). `step` serves one batch and returns what the caller
/// wants compared per batch (`()` for nothing).
pub fn twin<B, Q, O>(
    mut reference: MonitoringService,
    mut candidate: MonitoringService,
    batches: &[B],
    step: impl Fn(&mut MonitoringService, &[Q]) -> O,
) -> Twin<O>
where
    B: AsRef<[Q]>,
    O: PartialEq,
{
    let mut observed = Vec::with_capacity(batches.len());
    let mut candidate_observed = Vec::with_capacity(batches.len());
    let paired = paired_qps(
        batches.len(),
        1,
        |range| {
            for batch in &batches[range] {
                observed.push(step(&mut reference, batch.as_ref()));
            }
        },
        |range| {
            for batch in &batches[range] {
                candidate_observed.push(step(&mut candidate, batch.as_ref()));
            }
        },
    );
    // `paired_qps` counted batches; scale its rates to queries.
    let queries: usize = batches.iter().map(|b| b.as_ref().len()).sum();
    let per_batch = queries as f64 / batches.len() as f64;
    let identical = observed == candidate_observed && same_state(&reference, &candidate);
    Twin {
        reference,
        candidate,
        reference_qps: paired.a_qps * per_batch,
        candidate_qps: paired.b_qps * per_batch,
        observed,
        identical,
    }
}

/// Whether a restore resumes `reference`'s uninterrupted replay of
/// `batches`: `interrupted`, a fresh deployment of the same
/// configuration, serves the first `cut` batches and checkpoints; the
/// checkpoint is encoded and decoded, `resume` restores it on the caller's
/// pool (and runs any hook, such as re-installing an anomaly scorer), and
/// the restored service replays the rest. False when the bytes do not
/// decode, `resume` returns `None`, or the final verdict checksum or
/// timing-stripped telemetry differs from the reference's.
pub fn restores<B, Q, O>(
    reference: &MonitoringService,
    mut interrupted: MonitoringService,
    batches: &[B],
    cut: usize,
    step: impl Fn(&mut MonitoringService, &[Q]) -> O,
    resume: impl FnOnce(&ServiceCheckpoint) -> Option<MonitoringService>,
) -> bool
where
    B: AsRef<[Q]>,
{
    let (head, tail) = batches.split_at(cut.min(batches.len()));
    for batch in head {
        step(&mut interrupted, batch.as_ref());
    }
    let bytes = interrupted.checkpoint().encode();
    drop(interrupted);
    let restored = ServiceCheckpoint::decode(&bytes)
        .ok()
        .and_then(|checkpoint| resume(&checkpoint));
    let Some(mut restored) = restored else {
        return false;
    };
    for batch in tail {
        step(&mut restored, batch.as_ref());
    }
    same_state(&restored, reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup;
    use crate::Args;
    use shmd_volt::calibration::{CalibrationCurve, Calibrator, DeviceProfile};
    use stochastic_hmd::exec::ExecConfig;

    fn fixture() -> (BaselineHmd, CalibrationCurve, Vec<Vec<Vec<f32>>>) {
        let args = Args::parse_from(["--fast".to_string()]);
        let dataset = setup::dataset(&args);
        let baseline = setup::victim(&dataset, 0, &args);
        let curve = Calibrator::new()
            .with_step(2)
            .calibrate(&DeviceProfile::reference());
        let batches = feature_batches(&baseline, &dataset, 6, 16);
        (baseline, curve, batches)
    }

    fn deploy(
        baseline: &BaselineHmd,
        curve: &CalibrationCurve,
        seed: u64,
        exec: ExecConfig,
    ) -> MonitoringService {
        let config = ServeConfig::new(3)
            .with_seed(seed)
            .with_target_error_rate(0.2)
            .with_batch_size(16)
            .with_exec(exec);
        MonitoringService::deploy(baseline, curve, config).expect("valid")
    }

    #[test]
    fn twins_agree_on_identical_inputs_and_diverge_across_seeds() {
        let (baseline, curve, batches) = fixture();
        let at = |seed, exec| deploy(&baseline, &curve, seed, exec);
        let serial = ExecConfig::serial();
        let same = twin(at(5, serial), at(5, ExecConfig::threads(4)), &batches, feed);
        assert!(same.identical, "serial and threaded replays diverged");
        assert!(same.reference_qps > 0.0 && same.candidate_qps > 0.0);
        assert_eq!(same.observed.len(), batches.len());
        let apart = twin(at(5, serial), at(6, serial), &batches, feed);
        assert!(!apart.identical, "two seeds cannot serve the same verdicts");
    }

    #[test]
    fn a_divergent_observation_alone_fails_the_twin() {
        let (baseline, curve, batches) = fixture();
        let at = || deploy(&baseline, &curve, 5, ExecConfig::serial());
        // Each side counts its own calls: equal state, unequal observations.
        let calls = std::cell::Cell::new(0);
        let step = |s: &mut MonitoringService, batch: &[Vec<f32>]| {
            feed(s, batch);
            calls.set(calls.get() + 1);
            calls.get()
        };
        let twins = twin(at(), at(), &batches, step);
        assert!(same_state(&twins.reference, &twins.candidate));
        assert!(!twins.identical);
    }

    #[test]
    fn a_restore_must_replay_the_same_tail() {
        let (baseline, curve, batches) = fixture();
        let at = || deploy(&baseline, &curve, 5, ExecConfig::serial());
        let reference = twin(at(), at(), &batches, feed).reference;
        let resume = |checkpoint: &ServiceCheckpoint| {
            MonitoringService::restore(&baseline, None, checkpoint, ExecConfig::threads(4)).ok()
        };
        assert!(restores(&reference, at(), &batches, 3, feed, resume));
        // One query of a tail batch swapped for a wrong-width one, which
        // the restored service rejects and the reference served.
        let mut other_tail = batches.clone();
        other_tail[4][0] = vec![0.5];
        assert!(!restores(&reference, at(), &other_tail, 3, feed, resume));
        assert!(!restores(&reference, at(), &batches, 3, feed, |_| None));
    }
}
