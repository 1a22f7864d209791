//! `bulk_scoring`: `MonitoringService::process_feature_batch` called in
//! process on 1024-query batches of pre-extracted features, at the
//! paper's er = 0.1 with 8 lanes on one worker — no journal, no wire. The
//! fault stream, MAC kernel, forward pass and shard fan-out do almost all
//! of the work, so journal and wire changes should not move it.

use crate::fixture::{self, Fixture};
use crate::phase::{self, Check, Phase};
use crate::trace::{self, NoSpans, Spans, Tracer};
use std::time::Instant;
use stochastic_hmd::{ExecConfig, MonitoringService, QueryDisposition, Verdict};

/// Queries per call.
pub const BATCH: usize = 1024;

/// Lane width of the batched inference path.
pub const LANES: usize = 8;

/// The multiplication error rate the shards are calibrated to.
pub const TARGET_ER: f64 = 0.1;

/// Distinct batch payloads, reused cyclically.
const POOL: usize = 8;

/// Batches after which the checksum is compared with the serial
/// reference (every phase runs at least this many).
pub const CHECK_BATCHES: usize = 24;

/// The measured service's worker pool: one worker. With two, every batch
/// spawns its workers afresh, and on a 2-vCPU virtual machine a worker
/// that starts late or is descheduled mid-range stalls the whole batch.
/// Measured over 25-second runs on such a machine, the interquartile
/// spread of the batch p99 was 87% of its median with two workers (ten
/// runs) and 7% with one (five runs).
pub fn exec() -> ExecConfig {
    ExecConfig::serial()
}

/// The unsupervised 4-shard pool on the calibrated reference device.
pub fn deploy(fx: &Fixture, exec: ExecConfig) -> MonitoringService {
    deploy_lanes(fx, exec, LANES)
}

fn deploy_lanes(fx: &Fixture, exec: ExecConfig, lanes: usize) -> MonitoringService {
    MonitoringService::deploy(
        &fx.baseline,
        &fixture::calibration(),
        fixture::serve_config(fx.seed, TARGET_ER)
            .with_batch_size(BATCH)
            .with_lanes(lanes)
            .with_exec(exec),
    )
    .expect("the reference device calibrates at er = 0.1")
}

/// Batch `b` answered every query, in stream order.
fn verdicts_ok(verdicts: &[Verdict], b: usize) -> bool {
    verdicts.len() == BATCH
        && verdicts.iter().enumerate().all(|(j, v)| {
            v.query == (b * BATCH + j) as u64 && v.disposition == QueryDisposition::Served
        })
}

/// Runs the workload for `seconds`, traced or not.
pub fn run(fx: &Fixture, seconds: f64, traced: bool) -> Phase {
    let batches: Vec<Vec<Vec<f32>>> = (0..POOL)
        .map(|p| fx.batch(p * BATCH, BATCH, false))
        .collect();
    let mut service = deploy(fx, exec());
    let mut tracer = Tracer::new(Instant::now());
    let mut phase = if traced {
        timed(&mut service, &batches, seconds, &mut tracer)
    } else {
        timed(&mut service, &batches, seconds, &mut NoSpans)
    };
    // The serial scalar reference over the same prefix.
    let mut reference = deploy_lanes(fx, ExecConfig::serial(), 1);
    for batch in batches.iter().cycle().take(CHECK_BATCHES) {
        reference.process_feature_batch(batch);
    }
    let expected = crate::reference(reference.verdict_checksum());
    phase.checks.push(Check::new(
        if traced {
            "traced_checksum_matches_reference"
        } else {
            "checksum_matches_reference"
        },
        phase.checksum == expected,
        format!(
            "after {CHECK_BATCHES} batches: {} vs serial scalar reference {expected}",
            phase.checksum
        ),
    ));
    let snapshot = service.snapshot();
    phase::snapshot_counts(&snapshot, 1, &mut phase.layers);
    phase.snapshot = Some(snapshot);
    phase.model_rates = crate::phase::model_rates(&service);
    if traced {
        let times = tracer.self_times();
        phase.span_self_s = times.values().map(|t| t.self_ns).sum::<u64>() as f64 / 1e9;
        for (layer, ns) in trace::self_ns_by_layer(&times) {
            phase.layers.insert(
                format!("self.{layer}_us"),
                ns as f64 / 1e3 / phase.requests.max(1) as f64,
            );
        }
        let path = fixture::work_dir().join(format!("spans-bulk_scoring-{}.jsonl", fx.seed));
        let _ = std::fs::remove_file(&path);
        let _ = tracer.write_jsonl(&path, "main", crate::SPAN_DUMP_LIMIT);
    }
    phase
}

fn timed<S: Spans>(
    service: &mut MonitoringService,
    batches: &[Vec<Vec<f32>>],
    seconds: f64,
    spans: &mut S,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut b = 0usize;
    while b < CHECK_BATCHES || start.elapsed().as_secs_f64() < seconds {
        let batch = &batches[b % batches.len()];
        let t = Instant::now();
        let verdicts = spans.span("serve.process_feature_batch", b as u64, |_| {
            service.process_feature_batch(batch)
        });
        let latency_us = t.elapsed().as_secs_f64() * 1e6;
        let ok = spans.span("harness.verify", b as u64, |_| verdicts_ok(&verdicts, b));
        phase.failed += u64::from(!ok);
        let delivered = if ok { BATCH as u64 } else { 0 };
        phase
            .latency
            .push(latency_us, delivered, t.elapsed().as_secs_f64());
        b += 1;
        if b == CHECK_BATCHES {
            phase.checksum = service.verdict_checksum();
        }
    }
    phase.busy_s = start.elapsed().as_secs_f64();
    phase.requests = b as u64;
    phase.latency.finish();
    phase.queries_per_s = phase.latency.rate();
    phase
}
