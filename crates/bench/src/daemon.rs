//! Daemon measurement: the wire → admission → verdict path end to end.
//!
//! Four measurements, all but the first deterministic (seeded chaos
//! stream, batch-indexed decisions, no wall-clock anywhere in the
//! decision path):
//!
//! - **ingest throughput** — encode → [`Daemon::handle_frame`] →
//!   [`Daemon::pump`] → decode for the whole chaos stream; the only
//!   timing-dependent numbers, quarantined under the JSON `timing` key so
//!   CI can strip them for invariance diffs;
//! - **reject accounting under overload** — a small queue and tenant
//!   quota offered more than they can hold, with *predicted* counter
//!   values checked against [`stochastic_hmd::AdmissionStats`] and its
//!   conservation law;
//! - **rolling upgrade** — the old daemon drains mid-stream, hands off,
//!   and the successor (restored serially *and* onto a worker pool)
//!   finishes the stream; zero committed queries lost and the final
//!   verdict checksum bit-identical to a never-upgraded reference;
//! - **hostile corpus** — every truncation and every single-bit flip of
//!   one frame of every wire kind must decode to a typed error.
//!
//! The `daemon_bench` binary writes `BENCH_8.json` at the repository
//! root; CI diffs serial vs 8-thread output with `threads`/`timing`
//! stripped.

use crate::chaos;
use shmd_workload::dataset::Dataset;
use std::time::Instant;
use stochastic_hmd::{
    decode_frame, encode_frame, AdmissionConfig, AdmissionStats, BaselineHmd, Daemon, ExecConfig,
    Frame, MonitoringService, RejectCode, ServeConfig, StateJournal, TempJournal,
    HANDOFF_FRAME_CAP,
};

/// Shards behind the daemon at every measurement point.
pub const DAEMON_SHARDS: usize = 4;

/// Batches the old instance keeps queued when the drain begins — the
/// in-flight work a zero-downtime upgrade must finish, not drop.
pub const DRAIN_QUEUE_AHEAD: usize = 3;

fn serve_config(seed: u64, batch_size: usize, exec: ExecConfig) -> ServeConfig {
    ServeConfig::new(DAEMON_SHARDS)
        .with_seed(seed)
        .with_target_error_rate(0.2)
        .with_batch_size(batch_size)
        .with_exec(exec)
}

fn deploy_daemon(
    baseline: &BaselineHmd,
    seed: u64,
    batch_size: usize,
    exec: ExecConfig,
    config: AdmissionConfig,
) -> (Daemon, TempJournal) {
    let service = MonitoringService::supervised(
        baseline,
        chaos::supervision(seed, DAEMON_SHARDS),
        serve_config(seed, batch_size, exec),
    )
    .expect("the reference device calibrates at er = 0.2");
    let path = TempJournal::new("daemon-bench");
    let journal = StateJournal::create(&path).expect("journal creates");
    let daemon = Daemon::new(service, journal, config).expect("initial checkpoint appends");
    (daemon, path)
}

/// Decodes a reply frame, panicking on transport-level garbage — replies
/// come from our own daemon, so a decode failure is a bench bug.
fn reply(bytes: &[u8]) -> Frame {
    decode_frame(bytes, HANDOFF_FRAME_CAP)
        .expect("daemon replies are well-formed")
        .0
}

/// The never-upgraded ground truth over the chaos stream.
pub struct ReferenceRun {
    /// Final verdict checksum.
    pub checksum: u64,
    /// Stream position at the end.
    pub served: u64,
}

/// Serves the whole stream through a daemon (wire path, no upgrade).
pub fn reference_run(
    baseline: &BaselineHmd,
    features: &[Vec<Vec<f32>>],
    seed: u64,
    exec: ExecConfig,
) -> ReferenceRun {
    let batch_size = features.first().map_or(1, Vec::len);
    let (mut daemon, _journal) =
        deploy_daemon(baseline, seed, batch_size, exec, AdmissionConfig::default());
    for batch in features {
        let ack = daemon
            .handle_frame(&encode_frame(&Frame::SubmitBatch {
                tenant: 0,
                queries: batch.clone(),
            }))
            .expect("reference submissions decode");
        assert_eq!(reply(&ack), Frame::Ack, "reference submission rejected");
        daemon.pump_all().expect("journal lives");
    }
    ReferenceRun {
        checksum: daemon.verdict_checksum(),
        served: daemon.service().served(),
    }
}

/// One rolling upgrade, measured.
#[derive(Clone, Debug)]
pub struct UpgradePoint {
    /// Batch index the drain began at.
    pub upgrade_batch: u64,
    /// Batches still queued on the old instance when the drain began
    /// (all of them must be served before hand-off).
    pub drained_batches: u64,
    /// Submissions rejected during the drain window (resubmitted to the
    /// successor — the measurable "gap" a client sees).
    pub drain_rejects: u64,
    /// Encoded hand-off frame size in bytes.
    pub handoff_bytes: u64,
    /// Final verdict checksum after the successor finishes the stream.
    pub checksum: u64,
    /// Queries committed across both instances.
    pub served: u64,
    /// Committed queries equal the reference's (zero loss) and the final
    /// checksum is bit-identical.
    pub identical: bool,
}

/// Runs the stream with a rolling upgrade at `upgrade_batch`: the old
/// daemon serves, keeps [`DRAIN_QUEUE_AHEAD`] batches queued when the
/// `Handoff` frame arrives, pumps dry while rejecting new admissions,
/// hands off, and the successor — restored on `exec` — finishes the
/// stream, starting with the submission the drain rejected.
pub fn upgraded_run(
    baseline: &BaselineHmd,
    features: &[Vec<Vec<f32>>],
    seed: u64,
    exec: ExecConfig,
    upgrade_batch: usize,
    reference: &ReferenceRun,
) -> UpgradePoint {
    let batch_size = features.first().map_or(1, Vec::len);
    let (mut old, _old_journal) = deploy_daemon(
        baseline,
        seed,
        batch_size,
        ExecConfig::serial(),
        AdmissionConfig::default(),
    );
    let submit = |batch: &Vec<Vec<f32>>| {
        encode_frame(&Frame::SubmitBatch {
            tenant: 0,
            queries: batch.clone(),
        })
    };

    // Phase 1: normal serving up to the upgrade point.
    let mut next = 0usize;
    while next < upgrade_batch.min(features.len()) {
        let ack = old
            .handle_frame(&submit(&features[next]))
            .expect("submission decodes");
        assert_eq!(reply(&ack), Frame::Ack);
        old.pump_all().expect("journal lives");
        next += 1;
    }

    // Phase 2: in-flight work exists when the upgrade order arrives.
    let queued_ahead = DRAIN_QUEUE_AHEAD.min(features.len() - next);
    for _ in 0..queued_ahead {
        let ack = old
            .handle_frame(&submit(&features[next]))
            .expect("submission decodes");
        assert_eq!(reply(&ack), Frame::Ack);
        next += 1;
    }
    let mut drain_rejects = 0u64;
    let first_handoff = old
        .handle_frame(&encode_frame(&Frame::Handoff))
        .expect("handoff decodes");
    if queued_ahead > 0 {
        assert!(
            matches!(
                reply(&first_handoff),
                Frame::Reject {
                    code: RejectCode::Draining,
                    ..
                }
            ),
            "handoff with queued work must report draining"
        );
    }
    // A client that keeps submitting during the drain is rejected — that
    // rejection is the visible upgrade gap, and the client resubmits to
    // the successor.
    if next < features.len() {
        let r = old
            .handle_frame(&submit(&features[next]))
            .expect("submission decodes");
        assert!(
            matches!(
                reply(&r),
                Frame::Reject {
                    code: RejectCode::Draining,
                    ..
                }
            ),
            "draining daemon must reject new admissions"
        );
        drain_rejects += 1;
    }
    old.pump_all().expect("journal lives");

    // Phase 3: hand-off and checksum-verified resume on `exec`.
    let handoff = old
        .handle_frame(&encode_frame(&Frame::Handoff))
        .expect("handoff decodes");
    assert!(
        matches!(reply(&handoff), Frame::HandoffState { .. }),
        "drained daemon must hand off"
    );
    let new_path = TempJournal::new("daemon-bench");
    let journal = StateJournal::create(&new_path).expect("journal creates");
    let mut new = Daemon::resume_from_handoff(
        &handoff,
        baseline,
        Some(chaos::supervision(seed, DAEMON_SHARDS)),
        exec,
        journal,
        AdmissionConfig::default(),
    )
    .expect("the hand-off restores and verifies");

    // Phase 4: the successor finishes the stream, starting with the
    // submission the drain turned away.
    while next < features.len() {
        let ack = new
            .handle_frame(&submit(&features[next]))
            .expect("submission decodes");
        assert_eq!(reply(&ack), Frame::Ack, "successor rejected a submission");
        new.pump_all().expect("journal lives");
        next += 1;
    }

    UpgradePoint {
        upgrade_batch: upgrade_batch as u64,
        drained_batches: queued_ahead as u64,
        drain_rejects,
        handoff_bytes: handoff.len() as u64,
        checksum: new.verdict_checksum(),
        served: new.service().served(),
        identical: new.verdict_checksum() == reference.checksum
            && new.service().served() == reference.served,
    }
}

/// Overload measurement: predicted vs observed admission counters.
#[derive(Clone, Debug)]
pub struct OverloadPoint {
    /// The stats the daemon reported.
    pub stats: AdmissionStats,
    /// Conservation law held.
    pub conserved: bool,
    /// Every counter matched its predicted value.
    pub predicted: bool,
}

/// Offers a small daemon more than its bounds admit — two tenants over
/// quota, a third into backpressure, an oversized frame, and garbage —
/// with every counter's value predicted in advance. No pumping: the
/// queue stays full, so the arithmetic is exact.
pub fn overload_run(baseline: &BaselineHmd, seed: u64, batch: &[Vec<f32>]) -> OverloadPoint {
    let n = batch.len() as u64; // 8 in the bench stream
    let config = AdmissionConfig::default()
        .with_max_queued_queries(batch.len() * 4)
        .with_tenant_quota(batch.len() * 2)
        .with_max_frame_bytes(1 << 16);
    let (mut daemon, _journal) =
        deploy_daemon(baseline, seed, batch.len(), ExecConfig::serial(), config);
    let submit = |tenant: u32| {
        encode_frame(&Frame::SubmitBatch {
            tenant,
            queries: batch.to_vec(),
        })
    };
    // Tenants 0 and 1: two admissions each (quota = 2 batches), then a
    // quota reject each. Queue is now exactly full (4 batches).
    for tenant in 0..2u32 {
        for _ in 0..2 {
            let r = daemon.handle_frame(&submit(tenant)).expect("decodes");
            assert_eq!(reply(&r), Frame::Ack);
        }
        let r = daemon.handle_frame(&submit(tenant)).expect("decodes");
        assert!(matches!(
            reply(&r),
            Frame::Reject {
                code: RejectCode::TenantQuota,
                ..
            }
        ));
    }
    // Tenant 2 is under quota but the queue is full: backpressure.
    let r = daemon.handle_frame(&submit(2)).expect("decodes");
    assert!(matches!(
        reply(&r),
        Frame::Reject {
            code: RejectCode::Backpressure,
            ..
        }
    ));
    // An oversized declaration bounces before allocation.
    let huge = encode_frame(&Frame::SubmitBatch {
        tenant: 3,
        queries: vec![vec![0.0; 1 << 15]],
    });
    let r = daemon.handle_frame(&huge).expect("size gate replies");
    assert!(matches!(
        reply(&r),
        Frame::Reject {
            code: RejectCode::Oversized,
            ..
        }
    ));
    // Garbage is a typed decode error, counted as malformed.
    assert!(daemon.handle_frame(b"definitely not a frame").is_err());

    let stats = daemon.stats();
    let expected = AdmissionStats {
        offered_frames: 9,
        admitted_frames: 4,
        admitted_queries: 4 * n,
        rejected_oversized: 1,
        rejected_backpressure: 1,
        rejected_quota: 2,
        rejected_draining: 0,
        rejected_shutdown: 0,
        malformed_frames: 1,
        control_frames: 0,
        deadline_degrades: 0,
    };
    OverloadPoint {
        stats,
        conserved: stats.is_conserved(),
        predicted: stats == expected,
    }
}

/// Hostile-corpus measurement over the wire codec.
#[derive(Clone, Debug)]
pub struct HostilePoint {
    /// Frame kinds exercised.
    pub kinds: u64,
    /// Hostile inputs fed to the decoder.
    pub inputs: u64,
    /// Inputs that returned a typed error.
    pub typed_errors: u64,
    /// Inputs that decoded anyway (must be 0: frames are checksummed).
    pub survivors: u64,
}

/// Every truncation and every single-bit flip of one frame of every
/// kind. Exhaustive and deterministic — no sampling, no RNG.
pub fn hostile_run(features: &[Vec<Vec<f32>>]) -> HostilePoint {
    let sample = features.first().cloned().unwrap_or_default();
    let frames = vec![
        encode_frame(&Frame::SubmitBatch {
            tenant: 1,
            queries: sample,
        }),
        encode_frame(&Frame::Snapshot),
        encode_frame(&Frame::Retarget {
            target_error_rate: 0.15,
        }),
        encode_frame(&Frame::Checkpoint),
        encode_frame(&Frame::Handoff),
        encode_frame(&Frame::Shutdown),
        encode_frame(&Frame::Ack),
        encode_frame(&Frame::Verdicts {
            tenant: 1,
            verdicts: Vec::new(),
        }),
        encode_frame(&Frame::SnapshotText {
            json: "{\"queries\": 1}".to_string(),
        }),
        encode_frame(&Frame::Reject {
            code: RejectCode::Backpressure,
            queued: 1,
            cap: 1,
        }),
        encode_frame(&Frame::CheckpointBytes {
            bytes: vec![1, 2, 3, 4],
        }),
        encode_frame(&Frame::HandoffState {
            checkpoint: vec![5; 32],
            verdict_checksum: 7,
            served: 8,
            batches: 1,
        }),
        encode_frame(&Frame::ErrorReply {
            message: "x".to_string(),
        }),
    ];
    let mut inputs = 0u64;
    let mut typed_errors = 0u64;
    for frame in &frames {
        for cut in 0..frame.len() {
            inputs += 1;
            if decode_frame(&frame[..cut], HANDOFF_FRAME_CAP).is_err() {
                typed_errors += 1;
            }
        }
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[i] ^= 1 << bit;
                inputs += 1;
                if decode_frame(&bad, HANDOFF_FRAME_CAP).is_err() {
                    typed_errors += 1;
                }
            }
        }
    }
    HostilePoint {
        kinds: frames.len() as u64,
        inputs,
        typed_errors,
        survivors: inputs - typed_errors,
    }
}

/// Wall-clock throughput of the full wire round trip (the one
/// non-deterministic measurement; lives under the JSON `timing` key).
#[derive(Clone, Debug)]
pub struct ThroughputPoint {
    /// Queries pushed through encode → admit → pump → decode.
    pub queries: u64,
    /// Elapsed milliseconds.
    pub elapsed_ms: f64,
    /// Queries per second.
    pub qps: f64,
}

/// Times the reference stream through the wire path on `exec`.
pub fn throughput_run(
    baseline: &BaselineHmd,
    features: &[Vec<Vec<f32>>],
    seed: u64,
    exec: ExecConfig,
) -> ThroughputPoint {
    let batch_size = features.first().map_or(1, Vec::len);
    let (mut daemon, _journal) =
        deploy_daemon(baseline, seed, batch_size, exec, AdmissionConfig::default());
    let frames: Vec<Vec<u8>> = features
        .iter()
        .map(|batch| {
            encode_frame(&Frame::SubmitBatch {
                tenant: 0,
                queries: batch.clone(),
            })
        })
        .collect();
    let start = Instant::now();
    let mut verdicts = 0u64;
    for frame in &frames {
        let ack = daemon.handle_frame(frame).expect("decodes");
        assert_eq!(reply(&ack), Frame::Ack);
        for out in daemon.pump_all().expect("journal lives") {
            if let Frame::Verdicts { verdicts: v, .. } = reply(&out) {
                verdicts += v.len() as u64;
            }
        }
    }
    let elapsed = start.elapsed();
    let secs = elapsed.as_secs_f64().max(1e-9);
    ThroughputPoint {
        queries: verdicts,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        qps: verdicts as f64 / secs,
    }
}

/// Everything `daemon_bench` measures.
pub struct DaemonBenchReport {
    /// The never-upgraded reference.
    pub reference: ReferenceRun,
    /// Upgrade on a serial successor.
    pub upgrade_serial: UpgradePoint,
    /// Upgrade on the worker-pool successor.
    pub upgrade_threaded: UpgradePoint,
    /// Overload accounting.
    pub overload: OverloadPoint,
    /// Hostile corpus.
    pub hostile: HostilePoint,
    /// Wire round-trip throughput.
    pub throughput: ThroughputPoint,
}

/// Runs every measurement over the chaos stream drawn from `dataset`.
pub fn measure(
    baseline: &BaselineHmd,
    dataset: &Dataset,
    seed: u64,
    batch_size: usize,
    exec: &ExecConfig,
) -> DaemonBenchReport {
    let features = chaos::feature_stream(baseline, dataset, batch_size);
    let upgrade_batch = features.len() / 2;
    let reference = reference_run(baseline, &features, seed, ExecConfig::serial());
    let upgrade_serial = upgraded_run(
        baseline,
        &features,
        seed,
        ExecConfig::serial(),
        upgrade_batch,
        &reference,
    );
    let upgrade_threaded =
        upgraded_run(baseline, &features, seed, *exec, upgrade_batch, &reference);
    let overload = overload_run(baseline, seed, features.first().map_or(&[], Vec::as_slice));
    let hostile = hostile_run(&features);
    let throughput = throughput_run(baseline, &features, seed, *exec);
    DaemonBenchReport {
        reference,
        upgrade_serial,
        upgrade_threaded,
        overload,
        hostile,
        throughput,
    }
}

fn upgrade_json(p: &UpgradePoint) -> String {
    format!(
        "{{\"upgrade_batch\": {}, \"drained_batches\": {}, \"drain_rejects\": {}, \
         \"handoff_bytes\": {}, \"checksum\": \"{}\", \"served\": {}, \"identical\": {}}}",
        p.upgrade_batch,
        p.drained_batches,
        p.drain_rejects,
        p.handoff_bytes,
        p.checksum,
        p.served,
        p.identical,
    )
}

/// Renders the report as the hand-built JSON written to `BENCH_8.json`
/// (checksums as decimal strings: they exceed 2^53). Everything outside
/// `threads` and `timing` is deterministic at any thread count — CI
/// diffs two runs with those keys stripped.
pub fn render_json(r: &DaemonBenchReport, seed: u64, scale: &str, threads: usize) -> String {
    let s = &r.overload.stats;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"daemon\",\n");
    out.push_str("  \"unit\": \"wire_roundtrip\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"shards\": {DAEMON_SHARDS},\n"));
    out.push_str(&format!(
        "  \"reference\": {{\"checksum\": \"{}\", \"served\": {}}},\n",
        r.reference.checksum, r.reference.served
    ));
    out.push_str(&format!(
        "  \"upgrade_serial\": {},\n",
        upgrade_json(&r.upgrade_serial)
    ));
    out.push_str(&format!(
        "  \"upgrade_threaded\": {},\n",
        upgrade_json(&r.upgrade_threaded)
    ));
    out.push_str(&format!(
        "  \"overload\": {{\"offered\": {}, \"admitted_frames\": {}, \"admitted_queries\": {}, \
         \"rejected_oversized\": {}, \"rejected_backpressure\": {}, \"rejected_quota\": {}, \
         \"malformed\": {}, \"conserved\": {}, \"predicted\": {}}},\n",
        s.offered_frames,
        s.admitted_frames,
        s.admitted_queries,
        s.rejected_oversized,
        s.rejected_backpressure,
        s.rejected_quota,
        s.malformed_frames,
        r.overload.conserved,
        r.overload.predicted,
    ));
    out.push_str(&format!(
        "  \"hostile\": {{\"kinds\": {}, \"inputs\": {}, \"typed_errors\": {}, \
         \"survivors\": {}}},\n",
        r.hostile.kinds, r.hostile.inputs, r.hostile.typed_errors, r.hostile.survivors
    ));
    out.push_str(&format!(
        "  \"timing\": {{\"queries\": {}, \"elapsed_ms\": {:.3}, \"qps\": {:.1}}}\n",
        r.throughput.queries, r.throughput.elapsed_ms, r.throughput.qps
    ));
    out.push_str("}\n");
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
    fn upgrade_is_lossless_and_bit_identical_serial_and_threaded() {
        let (dataset, baseline) = fixture();
        let features = chaos::feature_stream(&baseline, &dataset, 8);
        let reference = reference_run(&baseline, &features, 21, ExecConfig::serial());
        for exec in [ExecConfig::serial(), ExecConfig::threads(4)] {
            let p = upgraded_run(
                &baseline,
                &features,
                21,
                exec,
                features.len() / 2,
                &reference,
            );
            assert!(p.identical, "upgraded run diverged: {p:?}");
            assert_eq!(p.served, reference.served, "queries lost");
            assert_eq!(p.drained_batches, DRAIN_QUEUE_AHEAD as u64);
            assert!(p.drain_rejects >= 1, "the drain gap must be visible");
            assert!(p.handoff_bytes > 0);
        }
    }

    #[test]
    fn overload_accounting_matches_prediction() {
        let (dataset, baseline) = fixture();
        let features = chaos::feature_stream(&baseline, &dataset, 8);
        let p = overload_run(&baseline, 21, &features[0]);
        assert!(p.conserved, "conservation broke: {:?}", p.stats);
        assert!(p.predicted, "counters diverged: {:?}", p.stats);
    }

    #[test]
    fn hostile_corpus_has_no_survivors() {
        let (dataset, baseline) = fixture();
        let features = chaos::feature_stream(&baseline, &dataset, 4);
        let p = hostile_run(&features);
        assert_eq!(p.survivors, 0, "{p:?}");
        assert_eq!(p.kinds, 13, "every frame kind is exercised");
        assert!(p.inputs > 1000);
    }

    #[test]
    fn json_document_is_well_formed_enough_to_grep() {
        let (dataset, baseline) = fixture();
        let report = measure(&baseline, &dataset, 21, 8, &ExecConfig::threads(2));
        let doc = render_json(&report, 21, "fast", 2);
        assert!(doc.contains("\"bench\": \"daemon\""));
        assert!(doc.contains("\"identical\": true"));
        assert!(doc.contains("\"survivors\": 0"));
        assert!(doc.contains("\"predicted\": true"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }
}
