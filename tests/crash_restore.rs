//! Crash-consistent checkpoint/restore: a supervised chaos deployment
//! killed at *any* tested batch index — including mid-journal-append, via
//! a torn file tail — restores from its write-ahead state journal and
//! resumes bit-identically to an uninterrupted reference run, serially and
//! on an 8-thread pool. Checkpoint bytes round-trip through the binary
//! codec; foreign, version-bumped, truncated, and bit-flipped bytes are
//! rejected with typed errors and never panic, under fuzzed inputs too.

use shmd_volt::calibration::DeviceProfile;
use shmd_volt::environment::EnvironmentConfig;
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use stochastic_hmd::checkpoint::{
    BatchCommit, CheckpointError, RestoreError, ServiceCheckpoint, StateJournal, TempJournal,
};
use stochastic_hmd::exec::ExecConfig;
use stochastic_hmd::serve::{MonitoringService, ServeConfig, Verdict};
use stochastic_hmd::supervisor::{ChaosPlan, SupervisorConfig};
use stochastic_hmd::telemetry::{TelemetryParseError, TelemetrySnapshot};
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};
use stochastic_hmd::BaselineHmd;

const SHARDS: usize = 4;
const BATCHES: usize = 16;
const BATCH_SIZE: usize = 8;
const CADENCE: u64 = 4;
const SEED: u64 = 19;

fn setup() -> (Dataset, BaselineHmd) {
    let dataset = Dataset::generate(&DatasetConfig::small(100), 31);
    let split = dataset.three_fold_split(0);
    let baseline = train_baseline(
        &dataset,
        split.victim_training(),
        FeatureSpec::frequency(),
        &HmdTrainConfig::fast(),
    )
    .expect("trains");
    (dataset, baseline)
}

/// The scripted world: thermal drift plus seeded chaos kills. Rebuilt
/// identically at restore, exactly as a real deployment reconstructs its
/// config from its own sources.
fn supervision() -> SupervisorConfig {
    let device = DeviceProfile::reference();
    SupervisorConfig::new(device.clone())
        .with_environment(EnvironmentConfig::drifting(device.temp_c, SEED))
        .with_chaos(ChaosPlan::seeded(SEED, SHARDS, 12, 2, 1))
}

fn deploy(baseline: &BaselineHmd, exec: ExecConfig) -> MonitoringService {
    let config = ServeConfig::new(SHARDS)
        .with_seed(SEED)
        .with_target_error_rate(0.2)
        .with_batch_size(BATCH_SIZE)
        .with_exec(exec);
    MonitoringService::supervised(baseline, supervision(), config).expect("deploys")
}

fn feature_stream(baseline: &BaselineHmd, dataset: &Dataset) -> Vec<Vec<Vec<f32>>> {
    let spec = baseline.spec();
    (0..BATCHES)
        .map(|b| {
            (0..BATCH_SIZE)
                .map(|i| spec.extract(dataset.trace((b * BATCH_SIZE + i) % dataset.len())))
                .collect()
        })
        .collect()
}

/// Journaled run up to and including `kill_batch`, then the simulated
/// kill: drop everything, optionally tear `tear` bytes off the journal.
fn victim_run(
    baseline: &BaselineHmd,
    features: &[Vec<Vec<f32>>],
    kill_batch: usize,
    tear: usize,
    path: &std::path::Path,
) {
    let mut service = deploy(baseline, ExecConfig::serial());
    let mut journal = StateJournal::create(path).expect("creates");
    for (b, batch) in features.iter().enumerate().take(kill_batch + 1) {
        if (b as u64).is_multiple_of(CADENCE) {
            journal
                .append_checkpoint(&service.checkpoint())
                .expect("checkpoint");
        }
        service
            .process_feature_batch_journaled(batch, &mut journal)
            .expect("commit");
    }
    drop(journal);
    drop(service);
    if tear > 0 {
        let bytes = std::fs::read(path).expect("reads");
        std::fs::write(path, &bytes[..bytes.len().saturating_sub(tear)]).expect("tears");
    }
}

/// Recover, restore on `exec`, replay the remainder; return the replayed
/// verdicts (from the resume batch on), the final timing-stripped
/// snapshot, and the resume batch index.
fn restore_and_replay(
    baseline: &BaselineHmd,
    features: &[Vec<Vec<f32>>],
    path: &std::path::Path,
    exec: ExecConfig,
) -> (Vec<Vec<Verdict>>, TelemetrySnapshot, u64) {
    let recovery = StateJournal::recover(path).expect("recovers");
    let checkpoint = recovery.checkpoint.expect("a checkpoint survived");
    let mut service = MonitoringService::restore(baseline, Some(supervision()), &checkpoint, exec)
        .expect("restores");
    let resume = checkpoint.batches;
    let mut verdicts = Vec::new();
    for (b, batch) in features.iter().enumerate().skip(resume as usize) {
        verdicts.push(service.process_feature_batch(batch));
        // Every batch the dead process committed must replay to the exact
        // journaled checksum and stream position.
        if let Some(commit) = recovery.commits.iter().find(|c| c.batch == b as u64) {
            assert_eq!(commit.checksum, service.verdict_checksum(), "batch {b}");
            assert_eq!(commit.stream_pos, service.served(), "batch {b}");
        }
    }
    (verdicts, service.snapshot().without_timing(), resume)
}

#[test]
fn kill_at_any_tested_batch_restores_bit_identically_serial_and_threaded() {
    let (dataset, baseline) = setup();
    let features = feature_stream(&baseline, &dataset);

    // The uninterrupted reference.
    let mut reference = deploy(&baseline, ExecConfig::serial());
    let reference_verdicts: Vec<Vec<Verdict>> = features
        .iter()
        .map(|batch| reference.process_feature_batch(batch))
        .collect();
    let reference_snapshot = reference.snapshot().without_timing();

    // Adversarial kill points: first batch, either side of a checkpoint
    // cadence boundary, mid-chaos, and the final batch. Odd entries tear
    // the journal tail (a kill mid-append).
    let kills = [0usize, 3, 4, 9, BATCHES - 1];
    for (i, &kill) in kills.iter().enumerate() {
        let tear = if i % 2 == 1 { 7 } else { 0 };
        let path = TempJournal::new("crash-restore-test");
        victim_run(&baseline, &features, kill, tear, &path);
        for exec in [ExecConfig::serial(), ExecConfig::threads(8)] {
            let (verdicts, snapshot, resume) =
                restore_and_replay(&baseline, &features, &path, exec);
            assert_eq!(
                verdicts,
                reference_verdicts[resume as usize..],
                "kill at {kill} (tear {tear}): replayed verdicts diverged"
            );
            assert_eq!(
                snapshot, reference_snapshot,
                "kill at {kill} (tear {tear}): resumed telemetry diverged"
            );
        }
    }
}

#[test]
fn torn_tail_discards_exactly_the_uncommitted_batch() {
    let (dataset, baseline) = setup();
    let features = feature_stream(&baseline, &dataset);
    let kill = CADENCE as usize + 2;
    let path = TempJournal::new("crash-restore-test");
    victim_run(&baseline, &features, kill, 0, &path);
    let intact = StateJournal::recover(&path).expect("recovers");
    assert_eq!(intact.commits.last().map(|c| c.batch), Some(kill as u64));
    assert_eq!(intact.torn_bytes, 0);

    // Tear at every byte offset inside the final commit record: recovery
    // must lose that single commit and nothing else, and never panic.
    let full = std::fs::read(&path).expect("reads");
    for tear in 1..=20usize {
        std::fs::write(&path, &full[..full.len() - tear]).expect("tears");
        let salvaged = StateJournal::recover(&path).expect("recovers torn");
        assert_eq!(
            salvaged.commits.last().map(|c| c.batch),
            Some(kill as u64 - 1),
            "tear {tear}"
        );
        assert!(salvaged.torn_bytes > 0, "tear {tear}");
        assert_eq!(
            salvaged.checkpoint.as_ref().map(|c| c.batches),
            Some(CADENCE)
        );
    }
}

#[test]
fn checkpoint_codec_round_trips_and_rejects_corruption() {
    let (dataset, baseline) = setup();
    let features = feature_stream(&baseline, &dataset);
    let mut service = deploy(&baseline, ExecConfig::serial());
    for batch in &features[..6] {
        service.process_feature_batch(batch);
    }
    let checkpoint = service.checkpoint();
    let bytes = checkpoint.encode();
    assert_eq!(
        ServiceCheckpoint::decode(&bytes).expect("round trip"),
        checkpoint
    );
    assert_eq!(
        ServiceCheckpoint::decode(b"GARBAGE-NOT-A-CHECKPOINT"),
        Err(CheckpointError::BadMagic)
    );
    // A version bump (with a recomputed trailing checksum, so only the
    // version differs) is a typed rejection.
    let mut versioned = bytes.clone();
    versioned[4] = versioned[4].wrapping_add(1);
    match ServiceCheckpoint::decode(&versioned) {
        Err(CheckpointError::UnsupportedVersion(_)) | Err(CheckpointError::Corrupted(_)) => {}
        other => panic!("version bump decoded: {other:?}"),
    }
    // Restoring a decoded checkpoint against the wrong model is typed too.
    let mut foreign = checkpoint.clone();
    foreign.input_dim += 3;
    assert!(matches!(
        MonitoringService::restore(
            &baseline,
            Some(supervision()),
            &foreign,
            ExecConfig::serial()
        ),
        Err(RestoreError::InputDimMismatch { .. })
    ));
}

#[test]
fn journal_append_then_recover_round_trips_commits() {
    let path = TempJournal::new("crash-restore-test");
    let mut journal = StateJournal::create(&path).expect("creates");
    let commits: Vec<BatchCommit> = (0..5u64)
        .map(|batch| BatchCommit {
            batch,
            stream_pos: (batch + 1) * 8,
            checksum: batch.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        })
        .collect();
    for commit in &commits {
        journal.append_commit(*commit).expect("appends");
    }
    drop(journal);
    let recovery = StateJournal::recover(&path).expect("recovers");
    assert_eq!(recovery.commits, commits);
    assert_eq!(recovery.checkpoint, None);
}

proptest::proptest! {
    #[test]
    fn fuzzed_checkpoint_bytes_never_panic(
        bytes in proptest::collection::vec(proptest::any::<u8>(), 0..600)
    ) {
        // Random bytes must decode to a typed error (or, astronomically
        // unlikely, a valid checkpoint) — never a panic.
        let _ = ServiceCheckpoint::decode(&bytes);
    }

    #[test]
    fn mangled_valid_checkpoints_never_panic(cut in 0usize..2000, flip in 0usize..2000) {
        // A real checkpoint, truncated and bit-flipped at arbitrary
        // positions: decode must stay typed and panic-free.
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        let bytes = BYTES.get_or_init(|| {
            let (dataset, baseline) = setup();
            let features = feature_stream(&baseline, &dataset);
            let mut service = deploy(&baseline, ExecConfig::serial());
            for batch in &features[..3] {
                service.process_feature_batch(batch);
            }
            service.checkpoint().encode()
        });
        let _ = ServiceCheckpoint::decode(&bytes[..cut.min(bytes.len())]);
        let mut mangled = bytes.clone();
        let at = flip % mangled.len();
        mangled[at] ^= 0x55;
        let _ = ServiceCheckpoint::decode(&mangled);
    }

    #[test]
    fn fuzzed_telemetry_json_never_panics(
        text in proptest::string::string_regex(".{0,300}").unwrap()
    ) {
        let _: Result<TelemetrySnapshot, TelemetryParseError> =
            TelemetrySnapshot::from_json(&text);
    }

    #[test]
    fn mangled_valid_telemetry_json_never_panics(cut in 0usize..4000, flip in 0usize..4000) {
        static DOC: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        let doc = DOC.get_or_init(|| {
            let (dataset, baseline) = setup();
            let features = feature_stream(&baseline, &dataset);
            let mut service = deploy(&baseline, ExecConfig::serial());
            for batch in &features[..3] {
                service.process_feature_batch(batch);
            }
            service.snapshot().to_json()
        });
        let truncated: String = doc.chars().take(cut).collect();
        let _ = TelemetrySnapshot::from_json(&truncated);
        let mut mangled = doc.clone().into_bytes();
        let at = flip % mangled.len();
        mangled[at] = mangled[at].wrapping_add(13);
        if let Ok(s) = String::from_utf8(mangled) {
            let _ = TelemetrySnapshot::from_json(&s);
        }
    }
}
