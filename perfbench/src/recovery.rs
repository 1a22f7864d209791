//! `crash_recovery`: repeated serve → crash → recover cycles.
//!
//! Each cycle serves a seeded number of journaled 32-query frames through
//! the `durable_ingest` daemon in a closed loop, then drops the daemon —
//! tearing the journal's last record on a seeded half of the cycles. One
//! recovery is then timed: `StateJournal::recover`, `MonitoringService::
//! restore` (recalibration included), the replay of every batch after the
//! recovered checkpoint, and a fresh journal with its initial checkpoint
//! under a new `Daemon`. Every cycle must restore to the checksum the
//! daemon had when it crashed, and the first cycles also to that of a
//! never-crashed reference at the same stream position. This is the only
//! workload that reads the journal and checkpoint layer instead of
//! appending to it.
//!
//! In the traced run `Daemon::pump_all` is one span, so the daemon layer's
//! self time here includes the journal appends the pump makes; the split
//! of the write side comes from `durable_ingest`'s rebuilt pump.

use crate::fixture::{self, Fixture, JournalPath, Rng, WORKERS};
use crate::ingest::{self, FRAME_QUERIES};
use crate::phase::{Check, Phase};
use crate::trace::{self, NoSpans, Spans, Tracer};
use std::time::{Duration, Instant};
use stochastic_hmd::{
    decode_frame, encode_frame, AdmissionConfig, Daemon, ExecConfig, Frame, MonitoringService,
    ServiceCheckpoint, StateJournal, DEFAULT_MAX_FRAME_BYTES,
};

/// Frames served between crashes, drawn uniformly from this range.
const CYCLE_FRAMES: (u64, u64) = (1, 8);

/// Bytes cut from the journal tail on a torn crash: inside the last
/// record, so recovery must discard it.
const TEAR_BYTES: u64 = 7;

/// Cycles every phase runs at least.
const MIN_CYCLES: usize = 4;

/// Cycles also checked against a never-crashed reference replaying the
/// same stream serially. Every cycle is checked against the state the
/// daemon had when it crashed; by induction from these first cycles the
/// whole run then equals the never-crashed stream, without paying a
/// second serial replay of every frame.
const REFERENCE_CYCLES: u64 = 64;

struct Counts {
    replayed: u64,
    commits_checked: u64,
    commits_ok: bool,
    conserved: bool,
    identical: u64,
    last_checkpoint: Option<ServiceCheckpoint>,
}

/// Runs the workload for `seconds`, traced or not.
pub fn run(fx: &Fixture, seconds: f64, traced: bool) -> Phase {
    let mut tracer = Tracer::new(Instant::now());
    let (mut phase, counts) = if traced {
        cycles(fx, seconds, &mut tracer)
    } else {
        cycles(fx, seconds, &mut NoSpans)
    };
    let cycles = phase.requests;
    phase.checks.push(Check::new(
        if traced {
            "traced_cycles_restore_to_reference"
        } else {
            "cycles_restore_to_reference"
        },
        counts.identical == cycles,
        format!(
            "{} of {cycles} recoveries restored the crashed state; the first \
             {REFERENCE_CYCLES} also matched a never-crashed serial reference",
            counts.identical
        ),
    ));
    phase.checks.push(Check::new(
        "replay_matches_journaled_commits",
        counts.commits_ok,
        format!("{} journaled commits re-derived", counts.commits_checked),
    ));
    phase.checks.push(Check::new(
        "admission_conserved",
        counts.conserved,
        "every daemon instance's admission stats conserve frames".to_string(),
    ));
    phase.layers.insert(
        "checkpoint.replay_batches".into(),
        counts.replayed as f64 / cycles.max(1) as f64,
    );
    if let Some(snapshot) = &phase.snapshot {
        crate::phase::snapshot_counts(snapshot, 1, &mut phase.layers);
    }
    if traced {
        let times = tracer.self_times();
        phase.span_self_s = times.values().map(|t| t.self_ns).sum::<u64>() as f64 / 1e9;
        for (metric, span) in [
            ("checkpoint.recover_us", "checkpoint.recover"),
            ("checkpoint.restore_us", "checkpoint.restore"),
        ] {
            if let Some(t) = times.get(span) {
                phase.layers.insert(metric.into(), t.mean_us());
            }
        }
        if let Some(checkpoint) = &counts.last_checkpoint {
            let bytes = checkpoint.encode();
            let reps = 32;
            let t = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(ServiceCheckpoint::decode(&bytes).is_ok());
            }
            let decode_us = t.elapsed().as_secs_f64() * 1e6 / reps as f64;
            phase
                .layers
                .insert("checkpoint.decode_us".into(), decode_us);
        }
        for (layer, ns) in trace::self_ns_by_layer(&times) {
            phase.layers.insert(
                format!("self.{layer}_us"),
                ns as f64 / 1e3 / cycles.max(1) as f64,
            );
        }
        let path = fixture::work_dir().join(format!("spans-crash_recovery-{}.jsonl", fx.seed));
        let _ = std::fs::remove_file(&path);
        let _ = tracer.write_jsonl(&path, "main", crate::SPAN_DUMP_LIMIT);
    }
    phase
}

fn cycles<S: Spans>(fx: &Fixture, seconds: f64, spans: &mut S) -> (Phase, Counts) {
    let payloads = ingest::payloads(fx);
    let frames: Vec<Frame> = payloads
        .iter()
        .map(|queries| Frame::SubmitBatch {
            tenant: 0,
            queries: queries.clone(),
        })
        .collect();
    let ack = encode_frame(&Frame::Ack);
    let journal = JournalPath::new("recovery");
    // The `durable_ingest` daemon: same service, journal and admission.
    let mut daemon = Some(ingest::deploy(fx, &journal));
    let mut reference = ingest::deploy_service(fx, ExecConfig::serial());
    let mut rng = Rng::new(fx.seed, 3);
    let mut phase = Phase::default();
    let mut counts = Counts {
        replayed: 0,
        commits_checked: 0,
        commits_ok: true,
        conserved: true,
        identical: 0,
        last_checkpoint: None,
    };
    let mut busy = Duration::ZERO;
    let mut next = 0usize;
    let mut cycle = 0u64;
    while (cycle as usize) < MIN_CYCLES || busy.as_secs_f64() < seconds {
        let serving = daemon.as_mut().expect("a daemon serves every cycle");
        let count = rng.range(CYCLE_FRAMES.0, CYCLE_FRAMES.1);
        let torn = rng.next_u64().is_multiple_of(2);
        let mut cycle_ok = true;
        let mut delivered = 0u64;
        let t = Instant::now();
        for _ in 0..count {
            let id = next as u64;
            let bytes = spans.span("wire.encode_request", id, |_| {
                encode_frame(&frames[next % frames.len()])
            });
            let admitted = spans.span("daemon.handle_frame", id, |_| serving.handle_frame(&bytes));
            let replies = spans.span("daemon.pump", id, |_| serving.pump_all());
            let ok = matches!(admitted, Ok(reply) if reply == ack)
                && matches!(replies.as_deref(), Ok([reply]) if spans.span("wire.decode_reply", id, |_| {
                    matches!(decode_frame(reply, DEFAULT_MAX_FRAME_BYTES),
                        Ok((Frame::Verdicts { verdicts, .. }, _)) if verdicts.len() == FRAME_QUERIES
                            && verdicts[0].query == id * FRAME_QUERIES as u64)
                }));
            if ok {
                delivered += FRAME_QUERIES as u64;
            }
            cycle_ok &= ok;
            next += 1;
        }
        let serve_s = t.elapsed().as_secs_f64();
        busy += t.elapsed();
        counts.conserved &= serving.stats().is_conserved();
        let crashed_at = (serving.verdict_checksum(), serving.service().served());

        // The crash: in-memory state is gone; a torn crash also loses the
        // tail of the last journal record.
        drop(daemon.take());
        if torn {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(journal.path())
                .expect("the journal survives the crash");
            let len = file.metadata().expect("journal metadata").len();
            file.set_len(len.saturating_sub(TEAR_BYTES))
                .expect("the journal tears");
        }

        let t = Instant::now();
        let recovery = spans
            .span("checkpoint.recover", cycle, |_| {
                StateJournal::recover(journal.path())
            })
            .expect("the journal reads back");
        let checkpoint = recovery
            .checkpoint
            .expect("the initial checkpoint always survives");
        let mut service = spans
            .span("checkpoint.restore", cycle, |_| {
                MonitoringService::restore(
                    &fx.baseline,
                    Some(fixture::supervision(fx.seed)),
                    &checkpoint,
                    ExecConfig::threads(WORKERS),
                )
            })
            .expect("the recovered checkpoint restores");
        for b in checkpoint.batches as usize..next {
            spans.span("serve.replay", cycle, |_| {
                service.process_feature_batch(&payloads[b % payloads.len()])
            });
            if let Some(commit) = recovery.commits.iter().find(|c| c.batch == b as u64) {
                counts.commits_checked += 1;
                counts.commits_ok &= commit.checksum == service.verdict_checksum()
                    && commit.stream_pos == service.served();
            }
        }
        counts.replayed += next as u64 - checkpoint.batches;
        let reopened = spans.span("checkpoint.reopen", cycle, |_| {
            StateJournal::create(journal.path())
                .and_then(|j| Daemon::new(service, j, AdmissionConfig::default()))
        });
        let elapsed = t.elapsed();
        busy += elapsed;
        phase.latency.push(
            elapsed.as_secs_f64() * 1e6,
            delivered,
            serve_s + elapsed.as_secs_f64(),
        );
        let restored = reopened.expect("the journal reopens");

        let mut identical = restored.verdict_checksum() == crashed_at.0
            && restored.service().served() == crashed_at.1;
        if cycle < REFERENCE_CYCLES {
            while (reference.batches() as usize) < next {
                let b = reference.batches() as usize;
                reference.process_feature_batch(&payloads[b % payloads.len()]);
            }
            identical &= restored.verdict_checksum()
                == crate::reference(reference.verdict_checksum())
                && restored.service().served() == reference.served();
        }
        if identical {
            counts.identical += 1;
        } else {
            cycle_ok = false;
        }
        if !cycle_ok {
            phase.failed += 1;
        }
        counts.last_checkpoint = Some(checkpoint);
        daemon = Some(restored);
        cycle += 1;
    }
    let daemon = daemon.expect("the last cycle restored a daemon");
    phase.snapshot = Some(daemon.service().snapshot());
    phase.model_rates = crate::phase::model_rates(daemon.service());
    phase.requests = cycle;
    phase.busy_s = busy.as_secs_f64();
    phase.latency.finish();
    phase.queries_per_s = phase.latency.rate();
    phase.info.insert("frames_served".into(), next.to_string());
    (phase, counts)
}
