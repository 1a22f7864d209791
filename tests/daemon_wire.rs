//! The daemon's wire surface end to end: control frames round-trip,
//! hostile bytes come back as typed errors (never a panic, never an
//! unbounded allocation), one submission frame may mix well-formed,
//! poisoned, and wrong-width queries and each gets its own per-query
//! disposition, overload rejections are exactly accounted, and a chaos
//! `Hang` degrades past the admission deadline instead of wedging.

use shmd_volt::calibration::DeviceProfile;
use shmd_volt::environment::EnvironmentConfig;
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use stochastic_hmd::exec::ExecConfig;
use stochastic_hmd::serve::{MonitoringService, QueryDisposition, RejectReason, ServeConfig};
use stochastic_hmd::supervisor::{ChaosEvent, ChaosPlan, ShardHealth, SupervisorConfig};
use stochastic_hmd::telemetry::TelemetrySnapshot;
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};
use stochastic_hmd::{
    decode_frame, encode_frame, AdmissionConfig, BaselineHmd, Daemon, DaemonPhase, Frame,
    RejectCode, ServiceCheckpoint, StateJournal, TempJournal, WireError, FRAME_OVERHEAD,
};

const SHARDS: usize = 4;
const BATCH_SIZE: usize = 8;
const SEED: u64 = 23;

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

fn supervision(chaos: ChaosPlan) -> SupervisorConfig {
    let device = DeviceProfile::reference();
    SupervisorConfig::new(device.clone())
        .with_environment(EnvironmentConfig::drifting(device.temp_c, SEED))
        .with_chaos(chaos)
}

fn deploy(baseline: &BaselineHmd, chaos: ChaosPlan, exec: ExecConfig) -> MonitoringService {
    let config = ServeConfig::new(SHARDS)
        .with_seed(SEED)
        .with_target_error_rate(0.2)
        .with_batch_size(BATCH_SIZE)
        .with_exec(exec);
    MonitoringService::supervised(baseline, supervision(chaos), config).expect("deploys")
}

/// A daemon over a fresh scratch journal; keep the returned
/// [`TempJournal`] alive as long as the daemon.
fn daemon(baseline: &BaselineHmd, config: AdmissionConfig) -> (Daemon, TempJournal) {
    let service = deploy(baseline, ChaosPlan::none(), ExecConfig::serial());
    let path = TempJournal::new("daemon-wire-test");
    let journal = StateJournal::create(&path).expect("creates");
    (
        Daemon::new(service, journal, config).expect("deploys"),
        path,
    )
}

fn features(baseline: &BaselineHmd, dataset: &Dataset, n: usize) -> Vec<Vec<f32>> {
    let spec = baseline.spec();
    (0..n)
        .map(|i| spec.extract(dataset.trace(i % dataset.len())))
        .collect()
}

fn decoded(reply: &[u8]) -> Frame {
    let (frame, consumed) = decode_frame(reply, stochastic_hmd::HANDOFF_FRAME_CAP).expect("reply");
    assert_eq!(consumed, reply.len(), "reply frame has trailing bytes");
    frame
}

#[test]
fn one_frame_mixing_good_poison_and_wrong_dim_gets_per_query_dispositions() {
    let (dataset, baseline) = setup();
    let (mut daemon, _journal) = daemon(&baseline, AdmissionConfig::default());

    // One frame: good, NaN-poisoned, too-wide, good, empty.
    let good = features(&baseline, &dataset, 4);
    let dim = good[0].len();
    let mut poison = good[1].clone();
    poison[dim / 2] = f32::NAN;
    let mut wide = good[2].clone();
    wide.extend([0.0; 3]);
    let batch = vec![good[0].clone(), poison, wide, good[3].clone(), Vec::new()];

    let reply = daemon
        .handle_frame(&encode_frame(&Frame::SubmitBatch {
            tenant: 7,
            queries: batch,
        }))
        .expect("submission admits");
    assert!(matches!(decoded(&reply), Frame::Ack));

    let replies = daemon.pump_all().expect("pumps");
    assert_eq!(replies.len(), 1);
    let Frame::Verdicts { tenant, verdicts } = decoded(&replies[0]) else {
        panic!("pump reply is not a verdicts frame");
    };
    assert_eq!(tenant, 7);
    assert_eq!(verdicts.len(), 5, "every query gets a verdict");

    assert_eq!(verdicts[0].disposition, QueryDisposition::Served);
    assert_eq!(verdicts[3].disposition, QueryDisposition::Served);
    assert_eq!(
        verdicts[1].disposition,
        QueryDisposition::Rejected(RejectReason::NonFiniteFeature { index: dim / 2 })
    );
    assert_eq!(
        verdicts[2].disposition,
        QueryDisposition::Rejected(RejectReason::WidthMismatch {
            got: dim + 3,
            expected: dim,
        })
    );
    assert_eq!(
        verdicts[4].disposition,
        QueryDisposition::Rejected(RejectReason::WidthMismatch {
            got: 0,
            expected: dim,
        })
    );

    // Rejections are per-query, not per-frame: the stream position still
    // advances past every query, exactly three are counted rejected, and
    // the daemon stays healthy.
    assert_eq!(daemon.service().served(), 5);
    assert_eq!(daemon.service().rejected_queries(), 3);
    assert_eq!(daemon.phase(), DaemonPhase::Serving);
    assert!(daemon.stats().is_conserved());
}

#[test]
fn control_frames_round_trip_over_the_wire() {
    let (dataset, baseline) = setup();
    let (mut daemon, _journal) = daemon(&baseline, AdmissionConfig::default());
    daemon
        .handle_frame(&encode_frame(&Frame::SubmitBatch {
            tenant: 0,
            queries: features(&baseline, &dataset, BATCH_SIZE),
        }))
        .expect("admits");
    daemon.pump_all().expect("pumps");

    // Snapshot: the reply carries the service's own JSON telemetry.
    let reply = daemon
        .handle_frame(&encode_frame(&Frame::Snapshot))
        .expect("snapshot");
    let Frame::SnapshotText { json } = decoded(&reply) else {
        panic!("snapshot reply is not telemetry");
    };
    let snapshot = TelemetrySnapshot::from_json(&json).expect("parses");
    assert_eq!(
        snapshot.without_timing(),
        daemon.service().snapshot().without_timing()
    );

    // Retarget: a sane target acks, a nonsense one errors typed.
    let reply = daemon
        .handle_frame(&encode_frame(&Frame::Retarget {
            target_error_rate: 0.25,
        }))
        .expect("retarget");
    assert!(matches!(decoded(&reply), Frame::Ack));
    let reply = daemon
        .handle_frame(&encode_frame(&Frame::Retarget {
            target_error_rate: 2.0,
        }))
        .expect("bad retarget still replies");
    assert!(matches!(decoded(&reply), Frame::ErrorReply { .. }));

    // Checkpoint: the reply bytes decode to the service's own state.
    let reply = daemon
        .handle_frame(&encode_frame(&Frame::Checkpoint))
        .expect("checkpoint");
    let Frame::CheckpointBytes { bytes } = decoded(&reply) else {
        panic!("checkpoint reply carries no bytes");
    };
    assert_eq!(
        ServiceCheckpoint::decode(&bytes).expect("decodes"),
        daemon.service().checkpoint()
    );

    // A response kind offered as a request is answered, not served.
    let reply = daemon
        .handle_frame(&encode_frame(&Frame::Ack))
        .expect("confused peer still gets a reply");
    assert!(matches!(decoded(&reply), Frame::ErrorReply { .. }));
    assert!(daemon.stats().is_conserved());
}

#[test]
fn hostile_bytes_are_typed_and_oversized_is_rejected_before_allocation() {
    let (_, baseline) = setup();
    let (mut daemon, _journal) = daemon(
        &baseline,
        AdmissionConfig::default().with_max_frame_bytes(1 << 12),
    );
    let valid = encode_frame(&Frame::Snapshot);
    let cap = 1 << 12;

    assert_eq!(
        decode_frame(b"GARBAGE-NOT-A-FRAME", cap),
        Err(WireError::BadMagic)
    );
    assert_eq!(
        decode_frame(&valid[..FRAME_OVERHEAD - 3], cap),
        Err(WireError::Truncated)
    );
    let mut versioned = valid.clone();
    versioned[4] = versioned[4].wrapping_add(1);
    assert!(matches!(
        decode_frame(&versioned, cap),
        Err(WireError::UnsupportedVersion(_))
    ));
    let mut flipped = valid.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    assert!(matches!(
        decode_frame(&flipped, cap),
        Err(WireError::Corrupted(_))
    ));

    // A length field claiming 4 GiB is refused by arithmetic on the
    // declared size — before any buffer is sized from it.
    let mut liar = valid.clone();
    liar[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
    let Err(WireError::Oversized { declared, cap: got }) = decode_frame(&liar, cap) else {
        panic!("length lie decoded");
    };
    assert!(declared > got);

    // Through the daemon: oversized becomes an accounted Reject reply,
    // other hostile bytes become accounted typed errors.
    let reply = daemon.handle_frame(&liar).expect("oversized is replied to");
    assert!(matches!(
        decoded(&reply),
        Frame::Reject {
            code: RejectCode::Oversized,
            ..
        }
    ));
    assert!(daemon.handle_frame(b"GARBAGE-NOT-A-FRAME").is_err());
    assert!(daemon.handle_frame(&flipped).is_err());
    let stats = daemon.stats();
    assert_eq!(stats.rejected_oversized, 1);
    assert_eq!(stats.malformed_frames, 2);
    assert!(stats.is_conserved());
}

#[test]
fn overload_rejections_carry_codes_and_exact_accounting() {
    let (dataset, baseline) = setup();
    let config = AdmissionConfig::default()
        .with_max_queued_queries(2 * BATCH_SIZE)
        .with_tenant_quota(BATCH_SIZE);
    let (mut daemon, _journal) = daemon(&baseline, config);
    let batch = features(&baseline, &dataset, BATCH_SIZE);
    let submit = |tenant: u32| {
        encode_frame(&Frame::SubmitBatch {
            tenant,
            queries: batch.clone(),
        })
    };

    // Tenant 0 fills its quota, then hits it; tenant 1 fills the queue;
    // tenant 2 bounces off global backpressure.
    assert!(matches!(
        decoded(&daemon.handle_frame(&submit(0)).expect("admits")),
        Frame::Ack
    ));
    assert!(matches!(
        decoded(&daemon.handle_frame(&submit(0)).expect("replies")),
        Frame::Reject {
            code: RejectCode::TenantQuota,
            ..
        }
    ));
    assert!(matches!(
        decoded(&daemon.handle_frame(&submit(1)).expect("admits")),
        Frame::Ack
    ));
    assert!(matches!(
        decoded(&daemon.handle_frame(&submit(2)).expect("replies")),
        Frame::Reject {
            code: RejectCode::Backpressure,
            ..
        }
    ));

    // Pumping frees the queue deterministically; the same tenant admits.
    assert_eq!(daemon.pump_all().expect("pumps").len(), 2);
    assert!(matches!(
        decoded(&daemon.handle_frame(&submit(2)).expect("admits")),
        Frame::Ack
    ));

    let stats = daemon.stats();
    assert_eq!(stats.offered_frames, 5);
    assert_eq!(stats.admitted_frames, 3);
    assert_eq!(stats.admitted_queries, 3 * BATCH_SIZE as u64);
    assert_eq!(stats.rejected_quota, 1);
    assert_eq!(stats.rejected_backpressure, 1);
    assert!(stats.is_conserved());
}

#[test]
fn hang_deadline_degrades_the_wedged_shard_at_any_thread_count() {
    let (dataset, baseline) = setup();
    let chaos = ChaosPlan::none().with_event(ChaosEvent::Hang { batch: 2, shard: 1 });
    let mut outcomes = Vec::new();
    for exec in [ExecConfig::serial(), ExecConfig::threads(8)] {
        let service = {
            let device = DeviceProfile::reference();
            let config = ServeConfig::new(SHARDS)
                .with_seed(SEED)
                .with_target_error_rate(0.2)
                .with_batch_size(BATCH_SIZE)
                .with_exec(exec);
            // A long backoff keeps the wedged shard out of the serving set
            // far past the admission deadline.
            let sup = SupervisorConfig::new(device.clone())
                .with_environment(EnvironmentConfig::drifting(device.temp_c, SEED))
                .with_chaos(chaos.clone())
                .with_retry_policy(3, 64);
            MonitoringService::supervised(&baseline, sup, config).expect("deploys")
        };
        let path = TempJournal::new("daemon-wire-test");
        let journal = StateJournal::create(&path).expect("creates");
        let config = AdmissionConfig::default().with_hang_deadline(2);
        let mut daemon = Daemon::new(service, journal, config).expect("deploys");

        let mut replies = 0usize;
        for b in 0..10 {
            let batch: Vec<Vec<f32>> = {
                let spec = baseline.spec();
                (0..BATCH_SIZE)
                    .map(|i| spec.extract(dataset.trace((b * BATCH_SIZE + i) % dataset.len())))
                    .collect()
            };
            daemon.try_submit(0, batch).expect("admits");
            replies += daemon.pump_all().expect("pumps").len();
        }

        // The hang wedged shard 1; the deadline force-degraded it to the
        // baseline fallback instead of letting it block the service.
        assert_eq!(replies, 10, "every batch was answered");
        assert!(daemon.stats().deadline_degrades >= 1);
        assert_eq!(daemon.service().shard_healths()[1], ShardHealth::Degraded);
        assert_eq!(daemon.phase(), DaemonPhase::Serving);
        outcomes.push((daemon.stats().deadline_degrades, daemon.verdict_checksum()));
    }
    // The deadline fires from batch indices, so the degradation decision
    // and the verdict stream are identical serial and on an 8-thread pool.
    assert_eq!(outcomes[0], outcomes[1]);
}
