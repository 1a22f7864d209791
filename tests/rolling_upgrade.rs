//! The rolling-upgrade kill matrix: the old daemon instance is killed at
//! every phase boundary of the upgrade state machine — mid-drain,
//! post-checkpoint/pre-handoff, and post-handoff/pre-ack — and in every
//! case the write-ahead journal recovers to an instance whose verdict
//! checksum is bit-identical to a never-upgraded reference, replayed
//! serially and on an 8-thread pool. A clean (unkilled) upgrade loses
//! zero committed queries and the successor proves checksum identity
//! before taking traffic.

use shmd_volt::calibration::DeviceProfile;
use shmd_volt::environment::EnvironmentConfig;
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use stochastic_hmd::exec::ExecConfig;
use stochastic_hmd::serve::{MonitoringService, ServeConfig};
use stochastic_hmd::supervisor::{ChaosPlan, SupervisorConfig};
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};
use stochastic_hmd::{
    AdmissionConfig, BaselineHmd, Daemon, DaemonPhase, StateJournal, TempJournal,
};

const SHARDS: usize = 4;
const BATCHES: usize = 16;
const BATCH_SIZE: usize = 8;
const CADENCE: u64 = 4;
const UPGRADE_AT: usize = 8;
const DRAIN_AHEAD: usize = 3;
const SEED: u64 = 29;

/// Where in the upgrade state machine the old instance dies.
#[derive(Clone, Copy, Debug)]
enum KillPoint {
    /// Draining began, some (not all) queued batches pumped.
    MidDrain,
    /// Fully drained and the final checkpoint journaled, but the hand-off
    /// frame was never produced for the successor.
    PostCheckpointPreHandoff,
    /// The hand-off frame was produced and delivered, but the successor
    /// never acknowledged taking traffic.
    PostHandoffPreAck,
}

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

/// Rebuilt identically on every restore, exactly as a real deployment
/// reconstructs its supervision from its own config sources.
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

fn admission() -> AdmissionConfig {
    AdmissionConfig::default().with_checkpoint_cadence(CADENCE)
}

/// The never-upgraded reference: the same stream through a plain daemon,
/// no drain, no hand-off.
fn reference_run(baseline: &BaselineHmd, features: &[Vec<Vec<f32>>]) -> (u64, u64) {
    let path = TempJournal::new("rolling-upgrade-test");
    let journal = StateJournal::create(&path).expect("creates");
    let mut daemon =
        Daemon::new(deploy(baseline, ExecConfig::serial()), journal, admission()).expect("deploys");
    for batch in features {
        daemon.try_submit(0, batch.clone()).expect("admits");
        daemon.pump_all().expect("pumps");
    }
    (daemon.verdict_checksum(), daemon.service().served())
}

/// Runs the old instance up to `UPGRADE_AT`, starts the upgrade, and
/// kills it at `kill`. Returns the hand-off bytes if the kill point is
/// late enough for them to exist.
fn victim_run(
    baseline: &BaselineHmd,
    features: &[Vec<Vec<f32>>],
    kill: KillPoint,
    path: &std::path::Path,
) -> Option<Vec<u8>> {
    let journal = StateJournal::create(path).expect("creates");
    let mut daemon =
        Daemon::new(deploy(baseline, ExecConfig::serial()), journal, admission()).expect("deploys");
    for batch in features.iter().take(UPGRADE_AT) {
        daemon.try_submit(0, batch.clone()).expect("admits");
        daemon.pump_all().expect("pumps");
    }
    // Queue a few batches ahead, then start draining: the drain must
    // commit them before any hand-off is possible.
    for batch in features.iter().skip(UPGRADE_AT).take(DRAIN_AHEAD) {
        daemon.try_submit(0, batch.clone()).expect("admits");
    }
    daemon.begin_drain();
    assert_eq!(daemon.phase(), DaemonPhase::Draining);
    match kill {
        KillPoint::MidDrain => {
            // One of three queued batches pumps, then the process dies:
            // the journal holds its commit, the rest were never admitted
            // as committed work.
            daemon.pump(1).expect("pumps");
            assert_eq!(daemon.phase(), DaemonPhase::Draining);
            None
        }
        KillPoint::PostCheckpointPreHandoff => {
            daemon.pump_all().expect("pumps");
            assert_eq!(daemon.phase(), DaemonPhase::Drained);
            // The final checkpoint reaches the journal inside handoff();
            // the frame it returns is "lost" before anyone reads it.
            let _lost = daemon.handoff().expect("hands off");
            None
        }
        KillPoint::PostHandoffPreAck => {
            daemon.pump_all().expect("pumps");
            let handoff = daemon.handoff().expect("hands off");
            assert_eq!(daemon.phase(), DaemonPhase::HandedOff);
            Some(handoff)
        }
    }
    // `daemon` drops here: the kill.
}

/// Recovers the old instance's journal, restores on `exec`, replays the
/// rest of the stream, and returns the final (checksum, served).
fn recover_and_replay(
    baseline: &BaselineHmd,
    features: &[Vec<Vec<f32>>],
    path: &std::path::Path,
    exec: ExecConfig,
) -> (u64, u64) {
    let recovery = StateJournal::recover(path).expect("recovers");
    let checkpoint = recovery.checkpoint.expect("a checkpoint survived");
    let mut service = MonitoringService::restore(baseline, Some(supervision()), &checkpoint, exec)
        .expect("restores");
    for (b, batch) in features
        .iter()
        .enumerate()
        .skip(checkpoint.batches as usize)
    {
        service.process_feature_batch(batch);
        // Every batch the dead instance committed must replay to the
        // exact journaled checksum and stream position.
        if let Some(commit) = recovery.commits.iter().find(|c| c.batch == b as u64) {
            assert_eq!(commit.checksum, service.verdict_checksum(), "batch {b}");
            assert_eq!(commit.stream_pos, service.served(), "batch {b}");
        }
    }
    (service.verdict_checksum(), service.served())
}

#[test]
fn kill_at_every_upgrade_phase_boundary_recovers_to_the_reference() {
    let (dataset, baseline) = setup();
    let features = feature_stream(&baseline, &dataset);
    let reference = reference_run(&baseline, &features);

    for kill in [
        KillPoint::MidDrain,
        KillPoint::PostCheckpointPreHandoff,
        KillPoint::PostHandoffPreAck,
    ] {
        let path = TempJournal::new("rolling-upgrade-test");
        let handoff = victim_run(&baseline, &features, kill, &path);
        for exec in [ExecConfig::serial(), ExecConfig::threads(8)] {
            let threads = exec.thread_count();
            let recovered = recover_and_replay(&baseline, &features, &path, exec);
            assert_eq!(
                recovered, reference,
                "kill at {kill:?} ({threads} threads): journal recovery diverged"
            );
        }
        // Past the hand-off boundary the successor path must agree with
        // the journal path: whichever the driver picks, same verdicts.
        if let Some(handoff) = handoff {
            for exec in [ExecConfig::serial(), ExecConfig::threads(8)] {
                let threads = exec.thread_count();
                let successor_path = TempJournal::new("rolling-upgrade-test");
                let journal = StateJournal::create(&successor_path).expect("creates");
                let mut successor = Daemon::resume_from_handoff(
                    &handoff,
                    &baseline,
                    Some(supervision()),
                    exec,
                    journal,
                    admission(),
                )
                .expect("successor resumes");
                for batch in features.iter().skip(UPGRADE_AT + DRAIN_AHEAD) {
                    successor.try_submit(0, batch.clone()).expect("admits");
                    successor.pump_all().expect("pumps");
                }
                assert_eq!(
                    (successor.verdict_checksum(), successor.service().served()),
                    reference,
                    "kill at {kill:?} ({threads} threads): successor diverged"
                );
            }
        }
    }
}

#[test]
fn clean_upgrade_loses_zero_committed_queries() {
    let (dataset, baseline) = setup();
    let features = feature_stream(&baseline, &dataset);
    let reference = reference_run(&baseline, &features);

    let old_path = TempJournal::new("rolling-upgrade-test");
    let new_path = TempJournal::new("rolling-upgrade-test");
    let journal = StateJournal::create(&old_path).expect("creates");
    let mut old = Daemon::new(
        deploy(&baseline, ExecConfig::serial()),
        journal,
        admission(),
    )
    .expect("deploys");
    for batch in features.iter().take(UPGRADE_AT) {
        old.try_submit(0, batch.clone()).expect("admits");
        old.pump_all().expect("pumps");
    }
    // The drain window: queued work still commits, new work is refused
    // (the client retries against the successor), then the hand-off.
    old.try_submit(0, features[UPGRADE_AT].clone())
        .expect("admits");
    old.begin_drain();
    assert!(old.try_submit(0, features[UPGRADE_AT + 1].clone()).is_err());
    old.pump_all().expect("drains");
    let handoff = old.handoff().expect("hands off");
    let old_served = old.service().served();
    drop(old);

    let journal = StateJournal::create(&new_path).expect("creates");
    let mut new = Daemon::resume_from_handoff(
        &handoff,
        &baseline,
        Some(supervision()),
        ExecConfig::serial(),
        journal,
        admission(),
    )
    .expect("successor resumes");
    // Identity was asserted before traffic: the successor starts exactly
    // where the old instance committed to.
    assert_eq!(new.service().served(), old_served);
    assert_eq!(new.phase(), DaemonPhase::Serving);
    // The refused batch is retried first — nothing is lost, nothing is
    // double-served.
    for batch in features.iter().skip(UPGRADE_AT + 1) {
        new.try_submit(0, batch.clone()).expect("admits");
        new.pump_all().expect("pumps");
    }
    assert_eq!(
        (new.verdict_checksum(), new.service().served()),
        reference,
        "upgraded stream diverged from the never-upgraded reference"
    );
}
