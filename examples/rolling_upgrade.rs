//! Upgrade a live monitoring daemon without losing a single query.
//!
//! An old daemon instance serves traffic over the binary wire protocol.
//! Mid-stream we roll it: drain (queued work still commits, new work is
//! refused with a typed `Reject`), journal a final checkpoint, emit a
//! hand-off frame carrying the checkpoint plus the verdict-checksum
//! identity, and boot a successor that restores from the frame and
//! proves checksum identity *before* taking traffic. The refused batch
//! is retried against the successor, and the full upgraded stream is
//! bit-identical to a never-upgraded reference.
//!
//! ```text
//! cargo run --release --example rolling_upgrade
//! ```

use shmd_volt::environment::EnvironmentConfig;
use shmd_volt::DeviceProfile;
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use stochastic_hmd::checkpoint::{StateJournal, TempJournal};
use stochastic_hmd::serve::{MonitoringService, ServeConfig};
use stochastic_hmd::supervisor::{ChaosPlan, SupervisorConfig};
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};
use stochastic_hmd::{
    decode_frame, encode_frame, AdmissionConfig, Daemon, Frame, HANDOFF_FRAME_CAP,
};

const SHARDS: usize = 4;
const BATCHES: usize = 24;
const BATCH_SIZE: usize = 16;
const UPGRADE_AT: usize = 12;
const SEED: u64 = 11;

fn supervision(device: &DeviceProfile) -> SupervisorConfig {
    SupervisorConfig::new(device.clone())
        .with_environment(EnvironmentConfig::drifting(device.temp_c, SEED))
        .with_chaos(ChaosPlan::seeded(SEED, SHARDS, 16, 2, 1))
}

fn deploy(
    baseline: &stochastic_hmd::BaselineHmd,
    device: &DeviceProfile,
) -> Result<MonitoringService, Box<dyn std::error::Error>> {
    let config = ServeConfig::new(SHARDS)
        .with_seed(SEED)
        .with_batch_size(BATCH_SIZE)
        .with_target_error_rate(0.2);
    Ok(MonitoringService::supervised(
        baseline,
        supervision(device),
        config,
    )?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Dataset::generate(&DatasetConfig::small(200), 42);
    let split = dataset.three_fold_split(0);
    let baseline = train_baseline(
        &dataset,
        split.victim_training(),
        FeatureSpec::frequency(),
        &HmdTrainConfig::fast(),
    )?;
    let device = DeviceProfile::reference();
    let spec = baseline.spec();
    let batch_at = |b: usize| -> Vec<Vec<f32>> {
        (0..BATCH_SIZE)
            .map(|i| spec.extract(dataset.trace((b * BATCH_SIZE + i) % dataset.len())))
            .collect()
    };
    let submit_frame = |b: usize| {
        encode_frame(&Frame::SubmitBatch {
            tenant: 0,
            queries: batch_at(b),
        })
    };

    // The never-upgraded reference, for the final comparison.
    let ref_path = TempJournal::new("rolling-upgrade-reference");
    let mut reference = Daemon::new(
        deploy(&baseline, &device)?,
        StateJournal::create(&ref_path)?,
        AdmissionConfig::default(),
    )?;
    for b in 0..BATCHES {
        reference.handle_frame(&submit_frame(b))?;
        reference.pump_all()?;
    }
    let want = reference.verdict_checksum();
    println!(
        "reference: {} queries, verdict checksum {want:#018x}\n",
        reference.service().served()
    );

    // The old instance serves the first half of the stream.
    let old_path = TempJournal::new("rolling-upgrade-old");
    let mut old = Daemon::new(
        deploy(&baseline, &device)?,
        StateJournal::create(&old_path)?,
        AdmissionConfig::default(),
    )?;
    for b in 0..UPGRADE_AT {
        old.handle_frame(&submit_frame(b))?;
        old.pump_all()?;
    }
    println!(
        "old instance: served {} batches, upgrade ordered",
        UPGRADE_AT
    );

    // The upgrade: a Handoff frame while work is queued answers
    // Reject(Draining) — the daemon drains first. Asking again once the
    // queue is dry yields the hand-off state.
    old.handle_frame(&submit_frame(UPGRADE_AT))?;
    let reply = old.handle_frame(&encode_frame(&Frame::Handoff))?;
    if let (Frame::Reject { code, queued, .. }, _) = decode_frame(&reply, HANDOFF_FRAME_CAP)? {
        println!("handoff refused while draining: {code} ({queued} queries still queued)");
    }
    // New traffic during the drain is refused too; the client retries it
    // against the successor.
    let refused = old.handle_frame(&submit_frame(UPGRADE_AT + 1))?;
    if let (Frame::Reject { code, .. }, _) = decode_frame(&refused, HANDOFF_FRAME_CAP)? {
        println!("new submission refused during drain: {code} (will retry on the successor)");
    }
    old.pump_all()?;
    let handoff = old.handle_frame(&encode_frame(&Frame::Handoff))?;
    println!(
        "drained: hand-off frame emitted ({} bytes, phase {:?})",
        handoff.len(),
        old.phase()
    );
    drop(old);

    // The successor restores from the hand-off frame and asserts the
    // verdict-checksum identity before it will take any traffic.
    let new_path = TempJournal::new("rolling-upgrade-new");
    let mut new = Daemon::resume_from_handoff(
        &handoff,
        &baseline,
        Some(supervision(&device)),
        Default::default(),
        StateJournal::create(&new_path)?,
        AdmissionConfig::default(),
    )?;
    println!(
        "successor: restored at {} served queries, identity verified, taking traffic\n",
        new.service().served()
    );
    for b in UPGRADE_AT + 1..BATCHES {
        new.handle_frame(&submit_frame(b))?;
        new.pump_all()?;
    }

    let got = new.verdict_checksum();
    println!(
        "upgraded stream: {} queries, verdict checksum {got:#018x}",
        new.service().served()
    );
    println!(
        "upgrade {} the never-upgraded reference",
        if got == want {
            "is bit-identical to"
        } else {
            "DIVERGED from"
        }
    );
    println!(
        "\nzero committed queries were lost: the drain commits everything admitted, the\n\
         hand-off carries checkpoint + checksum identity, and the successor refuses to\n\
         serve until it reproduces that identity from its own restore"
    );
    if got != want {
        return Err("upgraded stream diverged".into());
    }
    Ok(())
}
