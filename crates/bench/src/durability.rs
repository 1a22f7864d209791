//! Crash/restore durability measurement: kill -9 a supervised chaos run at
//! adversarial batch indices and prove the restored service resumes
//! bit-identically.
//!
//! Each measurement drives the exact chaos workload of [`crate::chaos`]
//! (seeded kills, thermal drift, one poison query per batch) through a
//! journaled deployment: a [`stochastic_hmd::checkpoint::StateJournal`]
//! receives a full [`stochastic_hmd::checkpoint::ServiceCheckpoint`] every
//! `cadence` batches and a `BatchCommit` before every batch's verdicts are
//! exposed. The process is then "killed" at a chosen batch — optionally
//! *mid-journal-append*, simulated by truncating the file inside the last
//! record — and recovery restores the newest checkpoint, replays the input
//! stream from its position, and compares everything against an
//! uninterrupted reference run:
//!
//! - every recomputed per-batch verdict checksum must match the journal's
//!   committed one (the replay really is the run that died);
//! - the replayed verdicts must equal the reference's, batch for batch;
//! - the final verdict checksum and timing-stripped telemetry must be
//!   bit-identical — restored serially *and* restored onto a worker pool.
//!
//! The `crash_restore_bench` binary sweeps kill points and writes
//! `BENCH_5.json` at the repository root.

use crate::chaos::{self, CHAOS_HORIZON, CHAOS_TAIL};
use shmd_workload::dataset::Dataset;
use stochastic_hmd::checkpoint::{StateJournal, TempJournal};
use stochastic_hmd::exec::ExecConfig;
use stochastic_hmd::serve::{MonitoringService, ServeConfig, Verdict};
use stochastic_hmd::telemetry::TelemetrySnapshot;
use stochastic_hmd::BaselineHmd;

/// Shard count every durability point runs at. The adversarial axis here
/// is *where the process dies*, not the pool size — [`crate::chaos`]
/// already sweeps pool sizes.
pub const DURABILITY_SHARDS: usize = 4;

/// Default checkpoint cadence, in batches.
pub const DEFAULT_CADENCE: u64 = 8;

/// Bytes sliced off the journal tail to simulate a kill mid-append: small
/// enough to land inside the final commit record's frame, so recovery must
/// detect and discard a torn record rather than a cleanly absent one.
const TEAR_BYTES: u64 = 7;

/// An uninterrupted chaos run: the ground truth a restored service must
/// reproduce bit-for-bit.
pub struct ReferenceRun {
    /// Per-batch verdicts, in stream order.
    pub verdicts: Vec<Vec<Verdict>>,
    /// Final telemetry, timing stripped.
    pub snapshot: TelemetrySnapshot,
    /// Final verdict checksum.
    pub checksum: u64,
}

/// One kill point's measurement.
#[derive(Clone, Debug)]
pub struct DurabilityPoint {
    /// Batch index the process was killed after.
    pub kill_batch: u64,
    /// Whether the kill tore the journal mid-append (truncated tail).
    pub torn_tail: bool,
    /// Shards in the pool.
    pub shards: usize,
    /// Checkpoint cadence, in batches.
    pub cadence: u64,
    /// Batch index the recovered checkpoint resumes from.
    pub resume_batch: u64,
    /// Batch commits salvaged after that checkpoint.
    pub commits_recovered: u64,
    /// Bytes of torn tail the recovery discarded.
    pub torn_bytes: u64,
    /// Batches re-executed by the restored service (resume point through
    /// end of stream).
    pub replayed_batches: u64,
    /// Final verdict checksum of the serially restored run.
    pub checksum: u64,
    /// Every recomputed committed batch matched its journaled checksum
    /// and stream position.
    pub commits_match: bool,
    /// Serial restore reproduced the reference bit-for-bit (verdicts,
    /// checksum, timing-stripped telemetry).
    pub serial_identical: bool,
    /// Restore onto the configured worker pool likewise.
    pub threaded_identical: bool,
}

fn serve_config(shards: usize, seed: u64, batch_size: usize, exec: ExecConfig) -> ServeConfig {
    ServeConfig::new(shards)
        .with_seed(seed)
        .with_target_error_rate(0.2)
        .with_batch_size(batch_size)
        .with_exec(exec)
}

fn deploy(
    baseline: &BaselineHmd,
    shards: usize,
    seed: u64,
    batch_size: usize,
    exec: ExecConfig,
) -> MonitoringService {
    MonitoringService::supervised(
        baseline,
        chaos::supervision(seed, shards),
        serve_config(shards, seed, batch_size, exec),
    )
    .expect("the reference device calibrates at er = 0.2")
}

/// Runs the chaos workload uninterrupted, serially.
pub fn reference_run(
    baseline: &BaselineHmd,
    features: &[Vec<Vec<f32>>],
    shards: usize,
    seed: u64,
) -> ReferenceRun {
    let batch_size = features.first().map_or(1, Vec::len);
    let mut service = deploy(baseline, shards, seed, batch_size, ExecConfig::serial());
    let verdicts: Vec<Vec<Verdict>> = features
        .iter()
        .map(|batch| service.process_feature_batch(batch))
        .collect();
    ReferenceRun {
        verdicts,
        snapshot: service.snapshot().without_timing(),
        checksum: service.verdict_checksum(),
    }
}

/// The victim run: journaled serving up to and including `kill_batch`,
/// then the simulated kill -9 (drop the service; optionally tear the
/// journal's final record). Returns the journal, deleted on drop.
fn victim_run(
    baseline: &BaselineHmd,
    features: &[Vec<Vec<f32>>],
    shards: usize,
    seed: u64,
    cadence: u64,
    kill_batch: u64,
    torn_tail: bool,
) -> TempJournal {
    let batch_size = features.first().map_or(1, Vec::len);
    let mut service = deploy(baseline, shards, seed, batch_size, ExecConfig::serial());
    let path = TempJournal::new("crash-restore-bench");
    let mut journal = StateJournal::create(&path).expect("journal creates");
    for (b, batch) in features.iter().enumerate().take(kill_batch as usize + 1) {
        if (b as u64).is_multiple_of(cadence.max(1)) {
            journal
                .append_checkpoint(&service.checkpoint())
                .expect("checkpoint appends");
        }
        service
            .process_feature_batch_journaled(batch, &mut journal)
            .expect("commit appends");
    }
    drop(journal);
    drop(service); // the kill: in-memory state is gone
    if torn_tail {
        let bytes = std::fs::read(&path).expect("journal reads");
        let torn = bytes.len().saturating_sub(TEAR_BYTES as usize);
        std::fs::write(&path, &bytes[..torn]).expect("journal tears");
    }
    path
}

/// Recovers the journal and replays the rest of the stream on `exec`,
/// checking the replay against the journal's commits and the reference.
/// Returns `(commits_match, identical, resume_batch, commits, torn_bytes,
/// final_checksum)`.
#[allow(clippy::type_complexity)]
fn restore_and_replay(
    baseline: &BaselineHmd,
    features: &[Vec<Vec<f32>>],
    shards: usize,
    seed: u64,
    journal_path: &std::path::Path,
    reference: &ReferenceRun,
    exec: ExecConfig,
) -> (bool, bool, u64, u64, u64, u64) {
    let recovery = StateJournal::recover(journal_path).expect("journal recovers");
    let checkpoint = recovery.checkpoint.as_ref().expect("a checkpoint survived");
    let mut service = MonitoringService::restore(
        baseline,
        Some(chaos::supervision(seed, shards)),
        checkpoint,
        exec,
    )
    .expect("checkpoint restores");
    let resume_batch = checkpoint.batches;
    let mut commits_match = true;
    let mut identical = true;
    for (b, batch) in features.iter().enumerate().skip(resume_batch as usize) {
        let verdicts = service.process_feature_batch(batch);
        if verdicts != reference.verdicts[b] {
            identical = false;
        }
        if let Some(commit) = recovery
            .commits
            .iter()
            .find(|commit| commit.batch == b as u64)
        {
            if commit.checksum != service.verdict_checksum()
                || commit.stream_pos != service.served()
            {
                commits_match = false;
            }
        }
    }
    let snapshot = service.snapshot().without_timing();
    if snapshot != reference.snapshot || service.verdict_checksum() != reference.checksum {
        identical = false;
    }
    (
        commits_match,
        identical,
        resume_batch,
        recovery.commits.len() as u64,
        recovery.torn_bytes,
        service.verdict_checksum(),
    )
}

/// Measures one kill point: victim run, kill (optionally torn), then one
/// serial and one `exec`-pooled restore, both judged against `reference`.
#[allow(clippy::too_many_arguments)]
pub fn measure_point(
    baseline: &BaselineHmd,
    features: &[Vec<Vec<f32>>],
    seed: u64,
    cadence: u64,
    kill_batch: u64,
    torn_tail: bool,
    reference: &ReferenceRun,
    exec: &ExecConfig,
) -> DurabilityPoint {
    let shards = DURABILITY_SHARDS;
    let path = victim_run(
        baseline, features, shards, seed, cadence, kill_batch, torn_tail,
    );
    let (serial_commits, serial_identical, resume_batch, commits, torn_bytes, checksum) =
        restore_and_replay(
            baseline,
            features,
            shards,
            seed,
            &path,
            reference,
            ExecConfig::serial(),
        );
    let (threaded_commits, threaded_identical, ..) =
        restore_and_replay(baseline, features, shards, seed, &path, reference, *exec);
    DurabilityPoint {
        kill_batch,
        torn_tail,
        shards,
        cadence,
        resume_batch,
        commits_recovered: commits,
        torn_bytes,
        replayed_batches: features.len() as u64 - resume_batch,
        checksum,
        commits_match: serial_commits && threaded_commits,
        serial_identical,
        threaded_identical,
    }
}

/// The adversarial kill schedule for a given cadence and stream length:
/// the very first batch, the batch right before a checkpoint, the batch
/// right after one, the middle of the chaos horizon, and the final batch.
/// Every other point tears the journal tail.
pub fn kill_schedule(cadence: u64, total_batches: u64) -> Vec<(u64, bool)> {
    let mut kills = vec![
        0,
        cadence.saturating_sub(1).min(total_batches - 1),
        cadence.min(total_batches - 1),
        (CHAOS_HORIZON / 2).min(total_batches - 1),
        total_batches - 1,
    ];
    kills.dedup();
    kills
        .into_iter()
        .enumerate()
        .map(|(i, kill)| (kill, i % 2 == 1))
        .collect()
}

/// Sweeps the kill schedule over a chaos stream drawn from `dataset`.
pub fn measure_sweep(
    baseline: &BaselineHmd,
    dataset: &Dataset,
    seed: u64,
    batch_size: usize,
    cadence: u64,
    exec: &ExecConfig,
) -> Vec<DurabilityPoint> {
    let features = chaos::feature_stream(baseline, dataset, batch_size);
    let reference = reference_run(baseline, &features, DURABILITY_SHARDS, seed);
    kill_schedule(cadence, features.len() as u64)
        .into_iter()
        .map(|(kill_batch, torn_tail)| {
            measure_point(
                baseline, &features, seed, cadence, kill_batch, torn_tail, &reference, exec,
            )
        })
        .collect()
}

/// Renders the sweep as the hand-built JSON written to `BENCH_5.json`
/// (checksums as decimal strings: they exceed 2^53).
pub fn render_json(points: &[DurabilityPoint], seed: u64, scale: &str, threads: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"crash_restore\",\n");
    out.push_str("  \"unit\": \"bit_identical_resume\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"shards\": {DURABILITY_SHARDS},\n"));
    out.push_str(&format!(
        "  \"schedule\": \"{} chaos batches + {} clean; kill -9 at adversarial \
         batch indices, half with a torn journal tail\",\n",
        CHAOS_HORIZON, CHAOS_TAIL
    ));
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kill_batch\": {}, \"torn_tail\": {}, \"cadence\": {}, \
             \"resume_batch\": {}, \"commits_recovered\": {}, \"torn_bytes\": {}, \
             \"replayed_batches\": {}, \"checksum\": \"{}\", \"commits_match\": {}, \
             \"serial_identical\": {}, \"threaded_identical\": {}}}{}\n",
            p.kill_batch,
            p.torn_tail,
            p.cadence,
            p.resume_batch,
            p.commits_recovered,
            p.torn_bytes,
            p.replayed_batches,
            p.checksum,
            p.commits_match,
            p.serial_identical,
            p.threaded_identical,
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

    fn fixture() -> (Dataset, BaselineHmd) {
        let args = Args::parse_from(["--fast".to_string()]);
        let dataset = setup::dataset(&args);
        let baseline = setup::victim(&dataset, 0, &args);
        (dataset, baseline)
    }

    #[test]
    fn killed_and_restored_run_is_bit_identical() {
        let (dataset, baseline) = fixture();
        let features = chaos::feature_stream(&baseline, &dataset, 8);
        let reference = reference_run(&baseline, &features, DURABILITY_SHARDS, 11);
        let p = measure_point(
            &baseline,
            &features,
            11,
            DEFAULT_CADENCE,
            DEFAULT_CADENCE,
            false,
            &reference,
            &ExecConfig::threads(4),
        );
        assert!(p.commits_match, "replay diverged from journaled commits");
        assert!(p.serial_identical, "serial restore diverged from reference");
        assert!(
            p.threaded_identical,
            "threaded restore diverged from reference"
        );
        assert_eq!(p.resume_batch, DEFAULT_CADENCE);
        assert_eq!(p.checksum, reference.checksum);
    }

    #[test]
    fn torn_journal_tail_loses_only_the_uncommitted_batch() {
        let (dataset, baseline) = fixture();
        let features = chaos::feature_stream(&baseline, &dataset, 8);
        let reference = reference_run(&baseline, &features, DURABILITY_SHARDS, 3);
        let kill = DEFAULT_CADENCE + 2;
        let p = measure_point(
            &baseline,
            &features,
            3,
            DEFAULT_CADENCE,
            kill,
            true,
            &reference,
            &ExecConfig::threads(4),
        );
        assert!(p.torn_bytes > 0, "the tear must have discarded bytes");
        assert_eq!(
            p.commits_recovered,
            kill - p.resume_batch,
            "exactly the final commit is torn away"
        );
        assert!(p.serial_identical && p.threaded_identical && p.commits_match);
    }

    #[test]
    fn kill_schedule_covers_checkpoint_boundaries_and_tears() {
        let kills = kill_schedule(8, 40);
        let indices: Vec<u64> = kills.iter().map(|&(k, _)| k).collect();
        assert!(indices.contains(&0));
        assert!(indices.contains(&7));
        assert!(indices.contains(&8));
        assert!(indices.contains(&39));
        assert!(kills.iter().any(|&(_, torn)| torn), "some kills must tear");
        assert!(kills.iter().any(|&(_, torn)| !torn), "some must not");
    }

    #[test]
    fn json_document_is_well_formed_enough_to_grep() {
        let p = DurabilityPoint {
            kill_batch: 8,
            torn_tail: true,
            shards: 4,
            cadence: 8,
            resume_batch: 8,
            commits_recovered: 0,
            torn_bytes: 7,
            replayed_batches: 32,
            checksum: u64::MAX,
            commits_match: true,
            serial_identical: true,
            threaded_identical: true,
        };
        let doc = render_json(&[p], 42, "fast", 8);
        assert!(doc.contains("\"bench\": \"crash_restore\""));
        assert!(doc.contains("\"torn_tail\": true"));
        assert!(doc.contains("\"checksum\": \"18446744073709551615\""));
        assert!(doc.contains("\"serial_identical\": true"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }
}
