//! `durable_ingest`: an open loop of `SubmitBatch` frames into a `Daemon`.
//!
//! A supervised 4-shard service at er = 0.1 in a drifting thermal world
//! sits behind a [`Daemon`] with the default [`AdmissionConfig`]
//! (journal sync per batch, checkpoint every 8 batches). A client thread
//! sends 32-query frames, one poison query each, at seeded Poisson arrival
//! times over a ladder of fixed offered rates; the daemon thread admits
//! every frame that has arrived, then pumps the whole queue. Every request
//! is timed from its due time to the moment its `Verdicts` reply is
//! decoded, so a stall is charged to every frame it delays.
//!
//! The traced phase rebuilds `Daemon::pump` from public parts —
//! `decode_frame` → admission → `process_feature_batch` → `append_commit`
//! → the checkpoint at its cadence → `encode_frame` — with a span around
//! each call, and must reproduce the untraced verdict checksum.

use crate::fixture::{self, Fixture, JournalPath, Rng, WORKERS};
use crate::phase::{Check, Phase};
use crate::stats;
use crate::trace::{self, NoSpans, Spans, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};
use stochastic_hmd::{
    decode_frame, encode_frame, AdmissionConfig, AdmissionStats, BatchCommit, Daemon, ExecConfig,
    Frame, MonitoringService, QueryDisposition, RejectCode, StateJournal, TelemetrySnapshot,
    WireError, DEFAULT_MAX_FRAME_BYTES,
};

/// Queries per frame (the last one poisoned).
pub const FRAME_QUERIES: usize = 32;

/// The offered rates of the ladder in queries per second, each run for
/// an equal share of the phase. Frozen from this workload's capacity on
/// a 2-core machine with an ext4 journal: the daemon is busy about
/// 320 us per frame (about 100k q/s), and about 1.7 times that when the
/// machine is contended, so the top rung stays below capacity in both
/// states and no frame meets backpressure.
pub const RUNGS_QPS: [f64; 4] = [10_000.0, 20_000.0, 30_000.0, 40_000.0];

/// Frame p99 limit for a rung to count as sustained. A single
/// `fdatasync` on the benchmark disk stalls up to about 14 ms (p99.9
/// 1.6 ms), which puts every rung's p99 between 2 and 30 ms whatever the
/// rate, so the limit bounds stalls rather than setting a 2 ms objective;
/// a backlog that grows over a rung breaks it by seconds.
pub const P99_LIMIT_US: f64 = 50_000.0;

/// Generator lateness (p99) beyond which the run is invalid: the client
/// no longer sends on schedule, so the offered load is not what it claims.
pub const LATE_LIMIT_US: f64 = 1_000.0;

/// Name of the check that the generator kept its schedule.
pub const ON_SCHEDULE: &str = "generator_on_schedule";

/// The multiplication error rate the shards are calibrated to.
pub const TARGET_ER: f64 = 0.1;

/// Distinct frame payloads, reused cyclically (stream positions differ,
/// so every verdict is fresh).
const POOL: usize = 256;

/// One scheduled frame.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Due time in nanoseconds after the phase starts.
    pub due_ns: u64,
    /// Ladder rung it belongs to.
    pub rung: usize,
}

/// The seeded Poisson schedule over `seconds`, rung after rung.
pub fn schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 2);
    let per_rung = seconds / RUNGS_QPS.len() as f64;
    let mut out = Vec::new();
    for (rung, qps) in RUNGS_QPS.iter().enumerate() {
        let frames_per_s = qps / FRAME_QUERIES as f64;
        let end = per_rung * (rung + 1) as f64;
        let mut t = per_rung * rung as f64;
        loop {
            t += -rng.unit().ln() / frames_per_s;
            if t >= end {
                break;
            }
            out.push(Arrival {
                due_ns: (t * 1e9) as u64,
                rung,
            });
        }
    }
    out
}

/// The supervised, journal-free service every phase and the reference
/// start from.
pub fn deploy_service(fx: &Fixture, exec: ExecConfig) -> MonitoringService {
    MonitoringService::supervised(
        &fx.baseline,
        fixture::supervision(fx.seed),
        fixture::serve_config(fx.seed, TARGET_ER)
            .with_batch_size(FRAME_QUERIES)
            .with_exec(exec),
    )
    .expect("the reference device calibrates at er = 0.1")
}

/// The daemon as set up before the first frame: service, fresh journal,
/// initial checkpoint.
pub fn deploy(fx: &Fixture, journal: &JournalPath) -> Daemon {
    let service = deploy_service(fx, ExecConfig::threads(WORKERS));
    let journal = StateJournal::create(journal.path()).expect("journal creates");
    Daemon::new(service, journal, AdmissionConfig::default()).expect("initial checkpoint appends")
}

/// The frame payloads: [`POOL`] batches of consecutive queries.
pub fn payloads(fx: &Fixture) -> Vec<Vec<Vec<f32>>> {
    (0..POOL)
        .map(|p| fx.batch(p * FRAME_QUERIES, FRAME_QUERIES, true))
        .collect()
}

/// Verdict checksum of a serial, in-process, journal-free replay of
/// `frames` frames — the reference every daemon run must reproduce.
pub fn reference_checksum(fx: &Fixture, payloads: &[Vec<Vec<f32>>], frames: usize) -> u64 {
    let mut service = deploy_service(fx, ExecConfig::serial());
    for i in 0..frames {
        service.process_feature_batch(&payloads[i % payloads.len()]);
    }
    service.verdict_checksum()
}

struct Submit {
    id: u64,
    due: Instant,
    bytes: Vec<u8>,
}

/// A reply for frame `id`; empty bytes stand for a frame the daemon could
/// not answer.
struct Reply {
    id: u64,
    bytes: Vec<u8>,
}

/// What the daemon thread hands back.
struct ServerOut {
    checksum: u64,
    snapshot: TelemetrySnapshot,
    model_rates: Vec<Option<f64>>,
    stats: AdmissionStats,
    busy_s: f64,
    pumps: u64,
    batches: u64,
    syncs: u64,
    queue_wait_us: f64,
    tracer: Option<Tracer>,
    ckpt_encode_us: f64,
    ckpt_bytes: f64,
}

/// The untraced daemon loop: admit everything that has arrived, then
/// `pump_all`.
fn serve_daemon(mut daemon: Daemon, rx: Receiver<Submit>, tx: Sender<Reply>) -> ServerOut {
    let ack = encode_frame(&Frame::Ack);
    let mut admitted: VecDeque<u64> = VecDeque::new();
    let (mut busy, mut pumps, mut batches) = (Duration::ZERO, 0u64, 0u64);
    while let Some(first) = poll(&rx) {
        let t = Instant::now();
        let mut next = Some(first);
        while let Some(s) = next {
            match daemon.handle_frame(&s.bytes) {
                Ok(reply) if reply == ack => admitted.push_back(s.id),
                Ok(reply) => send(&tx, s.id, reply),
                Err(_) => send(&tx, s.id, Vec::new()),
            }
            next = rx.try_recv().ok();
        }
        let replies = daemon.pump_all().unwrap_or_default();
        pumps += 1;
        batches += replies.len() as u64;
        for reply in replies {
            let id = admitted.pop_front().expect("one reply per admitted frame");
            send(&tx, id, reply);
        }
        // A failed journal leaves admitted frames unanswered: fail them.
        while let Some(id) = admitted.pop_front() {
            send(&tx, id, Vec::new());
        }
        busy += t.elapsed();
    }
    ServerOut {
        checksum: daemon.verdict_checksum(),
        snapshot: daemon.service().snapshot(),
        model_rates: crate::phase::model_rates(daemon.service()),
        stats: daemon.stats(),
        busy_s: busy.as_secs_f64(),
        pumps,
        batches,
        syncs: 0,
        queue_wait_us: 0.0,
        tracer: None,
        ckpt_encode_us: 0.0,
        ckpt_bytes: 0.0,
    }
}

/// Polls `rx` until a message arrives or every sender hung up. Both
/// threads poll instead of blocking: an idle vCPU takes milliseconds to
/// wake on a virtual machine, which would otherwise enter the latency of
/// about one frame in a hundred whatever the offered rate.
fn poll<T>(rx: &Receiver<T>) -> Option<T> {
    loop {
        match rx.try_recv() {
            Ok(message) => return Some(message),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
}

fn send(tx: &Sender<Reply>, id: u64, bytes: Vec<u8>) {
    // The client only hangs up after every reply arrived.
    let _ = tx.send(Reply { id, bytes });
}

struct Pending {
    id: u64,
    due: Instant,
    tenant: u32,
    features: Vec<Vec<f32>>,
}

/// `Daemon::handle_frame` and `Daemon::pump` rebuilt from public parts,
/// so each call can carry its own span. Admission mirrors the default
/// [`AdmissionConfig`]: a bounded queue, no tenant quota, the hang
/// deadline, and a checkpoint every `checkpoint_cadence` batches.
struct Rebuilt {
    service: MonitoringService,
    journal: StateJournal,
    config: AdmissionConfig,
    stats: AdmissionStats,
    queue: VecDeque<Pending>,
    queued: usize,
    down_since: BTreeMap<usize, u64>,
    syncs: u64,
}

impl Rebuilt {
    fn new(service: MonitoringService, mut journal: StateJournal) -> Rebuilt {
        journal
            .append_checkpoint(&service.checkpoint())
            .expect("initial checkpoint appends");
        Rebuilt {
            service,
            journal,
            config: AdmissionConfig::default(),
            stats: AdmissionStats::default(),
            queue: VecDeque::new(),
            queued: 0,
            down_since: BTreeMap::new(),
            syncs: 0,
        }
    }

    /// Decode plus admission; returns a reply to send at once (a reject
    /// or an unanswerable frame), or `None` when the frame was queued.
    fn handle(&mut self, t: &mut Tracer, s: Submit) -> Option<Vec<u8>> {
        self.stats.offered_frames += 1;
        let cap = self.config.max_frame_bytes;
        let decoded = t.span("wire.decode_request", s.id, |_| decode_frame(&s.bytes, cap));
        match decoded {
            Ok((Frame::SubmitBatch { tenant, queries }, _)) => {
                let n = queries.len();
                if self.queued + n > self.config.max_queued_queries {
                    self.stats.rejected_backpressure += 1;
                    return Some(encode_frame(&Frame::Reject {
                        code: RejectCode::Backpressure,
                        queued: self.queued as u64,
                        cap: self.config.max_queued_queries as u64,
                    }));
                }
                self.stats.admitted_frames += 1;
                self.stats.admitted_queries += n as u64;
                self.queued += n;
                self.queue.push_back(Pending {
                    id: s.id,
                    due: s.due,
                    tenant,
                    features: queries,
                });
                None
            }
            Ok(_) => {
                self.stats.control_frames += 1;
                Some(Vec::new())
            }
            Err(WireError::Oversized { declared, cap }) => {
                self.stats.rejected_oversized += 1;
                Some(encode_frame(&Frame::Reject {
                    code: RejectCode::Oversized,
                    queued: declared,
                    cap,
                }))
            }
            Err(_) => {
                self.stats.malformed_frames += 1;
                Some(Vec::new())
            }
        }
    }

    /// Serves the whole queue; returns `(frame id, reply bytes)` in order.
    fn pump(&mut self, t: &mut Tracer) -> Vec<(u64, Vec<u8>)> {
        let mut replies = Vec::with_capacity(self.queue.len());
        while let Some(p) = self.queue.pop_front() {
            self.queued -= p.features.len();
            let service = &mut self.service;
            let verdicts = t.span("serve.process_feature_batch", p.id, |_| {
                service.process_feature_batch(&p.features)
            });
            let commit = BatchCommit {
                batch: self.service.batches() - 1,
                stream_pos: self.service.served(),
                checksum: self.service.verdict_checksum(),
            };
            let journal = &mut self.journal;
            let committed = t.span("checkpoint.commit", p.id, |_| journal.append_commit(commit));
            self.syncs += 1;
            self.enforce_hang_deadline();
            let mut checkpointed = Ok(());
            if self
                .service
                .batches()
                .is_multiple_of(self.config.checkpoint_cadence.max(1))
            {
                let (service, journal) = (&self.service, &mut self.journal);
                checkpointed = t.span("checkpoint.ckpt_append", p.id, |_| {
                    journal.append_checkpoint(&service.checkpoint())
                });
                self.syncs += 1;
            }
            let reply = if committed.is_ok() && checkpointed.is_ok() {
                t.span("wire.encode_reply", p.id, |_| {
                    encode_frame(&Frame::Verdicts {
                        tenant: p.tenant,
                        verdicts,
                    })
                })
            } else {
                Vec::new()
            };
            replies.push((p.id, reply));
        }
        replies
    }

    /// The daemon's hang deadline, from batch indices only.
    fn enforce_hang_deadline(&mut self) {
        let batch = self.service.batches();
        let deadline = self.config.hang_deadline.max(1);
        for (id, health) in self.service.shard_healths().into_iter().enumerate() {
            if health.is_serving() {
                self.down_since.remove(&id);
                continue;
            }
            let since = *self.down_since.entry(id).or_insert(batch);
            if batch.saturating_sub(since) >= deadline
                && self
                    .service
                    .force_degrade_shard(id, "hung past the admission deadline")
            {
                self.stats.deadline_degrades += 1;
                self.down_since.remove(&id);
            }
        }
    }
}

/// The traced daemon loop over the rebuilt pump.
fn serve_rebuilt(
    mut d: Rebuilt,
    rx: Receiver<Submit>,
    tx: Sender<Reply>,
    mut tracer: Tracer,
) -> ServerOut {
    let (mut busy, mut pumps, mut batches) = (Duration::ZERO, 0u64, 0u64);
    let mut wait_us = 0.0;
    while let Some(first) = poll(&rx) {
        let t = Instant::now();
        let mut next = Some(first);
        while let Some(s) = next {
            let id = s.id;
            let reply = tracer.span("daemon.handle_frame", id, |t| d.handle(t, s));
            if let Some(bytes) = reply {
                send(&tx, id, bytes);
            }
            next = rx.try_recv().ok();
        }
        let pump_start = Instant::now();
        wait_us += d
            .queue
            .iter()
            .map(|p| pump_start.saturating_duration_since(p.due).as_secs_f64() * 1e6)
            .sum::<f64>();
        let replies = tracer.span("daemon.pump", pumps, |t| d.pump(t));
        pumps += 1;
        batches += replies.len() as u64;
        for (id, bytes) in replies {
            send(&tx, id, bytes);
        }
        busy += t.elapsed();
    }
    // Side measurement of the checkpoint encoder on the final state.
    let checkpoint = d.service.checkpoint();
    let reps = 32;
    let t = Instant::now();
    let mut bytes = 0;
    for _ in 0..reps {
        bytes = std::hint::black_box(checkpoint.encode()).len();
    }
    let ckpt_encode_us = t.elapsed().as_secs_f64() * 1e6 / reps as f64;
    ServerOut {
        checksum: d.service.verdict_checksum(),
        snapshot: d.service.snapshot(),
        model_rates: crate::phase::model_rates(&d.service),
        stats: d.stats,
        busy_s: busy.as_secs_f64(),
        pumps,
        batches,
        syncs: d.syncs,
        queue_wait_us: wait_us / batches.max(1) as f64,
        tracer: Some(tracer),
        ckpt_encode_us,
        ckpt_bytes: bytes as f64,
    }
}

/// What the client saw.
struct ClientOut {
    ok: Vec<bool>,
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    wall_s: f64,
    bytes: u64,
}

/// Sends every frame at its due time and decodes every reply.
fn drive<S: Spans>(
    schedule: &[Arrival],
    frames: &[Frame],
    tx: Sender<Submit>,
    rx: Receiver<Reply>,
    spans: &mut S,
) -> ClientOut {
    let n = schedule.len();
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + Duration::from_nanos(schedule[i].due_ns);
    let mut out = ClientOut {
        ok: vec![false; n],
        latency_us: vec![0.0; n],
        late_us: Vec::with_capacity(n),
        wall_s: 0.0,
        bytes: 0,
    };
    let (mut sent, mut done) = (0usize, 0usize);
    let mut last_done = start;
    while done < n {
        let reply = if sent < n {
            let now = Instant::now();
            let next_due = due(sent);
            if now >= next_due {
                out.late_us.push((now - next_due).as_secs_f64() * 1e6);
                let bytes = spans.span("wire.encode_request", sent as u64, |_| {
                    encode_frame(&frames[sent % frames.len()])
                });
                out.bytes += bytes.len() as u64;
                let submit = Submit {
                    id: sent as u64,
                    due: next_due,
                    bytes,
                };
                if tx.send(submit).is_err() {
                    break;
                }
                sent += 1;
                continue;
            }
            match rx.try_recv() {
                Ok(reply) => reply,
                Err(TryRecvError::Empty) => {
                    std::thread::yield_now();
                    continue;
                }
                Err(TryRecvError::Disconnected) => break,
            }
        } else {
            match poll(&rx) {
                Some(reply) => reply,
                None => break,
            }
        };
        let id = reply.id as usize;
        out.bytes += reply.bytes.len() as u64;
        let decoded = spans.span("wire.decode_reply", reply.id, |_| {
            decode_frame(&reply.bytes, DEFAULT_MAX_FRAME_BYTES)
        });
        let now = Instant::now();
        out.latency_us[id] = (now - due(id)).as_secs_f64() * 1e6;
        out.ok[id] = matches!(decoded, Ok((Frame::Verdicts { verdicts, .. }, _))
            if verdicts_ok(&verdicts, id));
        last_done = now;
        done += 1;
    }
    out.wall_s = (last_done - start).as_secs_f64();
    out
}

/// Frame `id`'s verdicts: 32 consecutive stream positions, every query
/// served except the poisoned last one.
fn verdicts_ok(verdicts: &[stochastic_hmd::Verdict], id: usize) -> bool {
    verdicts.len() == FRAME_QUERIES
        && verdicts.iter().enumerate().all(|(j, v)| {
            let poisoned = j + 1 == FRAME_QUERIES;
            v.query == (id * FRAME_QUERIES + j) as u64
                && matches!(v.disposition, QueryDisposition::Rejected(_)) == poisoned
        })
}

/// Runs the workload for `seconds`, traced or not.
pub fn run(fx: &Fixture, seconds: f64, traced: bool) -> Phase {
    let plan = schedule(fx.seed, seconds);
    let payloads = payloads(fx);
    let frames: Vec<Frame> = payloads
        .iter()
        .map(|queries| Frame::SubmitBatch {
            tenant: 0,
            queries: queries.clone(),
        })
        .collect();
    let journal = JournalPath::new("ingest");
    let origin = Instant::now();
    let (to_server, server_rx) = mpsc::channel::<Submit>();
    let (to_client, client_rx) = mpsc::channel::<Reply>();
    let mut client_tracer = Tracer::new(origin);
    let (client, server) = std::thread::scope(|scope| {
        let server = if traced {
            let service = deploy_service(fx, ExecConfig::threads(WORKERS));
            let j = StateJournal::create(journal.path()).expect("journal creates");
            let rebuilt = Rebuilt::new(service, j);
            let tracer = Tracer::new(origin);
            scope.spawn(move || serve_rebuilt(rebuilt, server_rx, to_client, tracer))
        } else {
            let daemon = deploy(fx, &journal);
            scope.spawn(move || serve_daemon(daemon, server_rx, to_client))
        };
        let client = if traced {
            drive(&plan, &frames, to_server, client_rx, &mut client_tracer)
        } else {
            drive(&plan, &frames, to_server, client_rx, &mut NoSpans)
        };
        (
            client,
            server.join().expect("the daemon thread does not panic"),
        )
    });
    let reference = crate::reference(reference_checksum(fx, &payloads, plan.len()));
    assemble(fx, &plan, client, server, &client_tracer, traced, reference)
}

fn assemble(
    fx: &Fixture,
    plan: &[Arrival],
    client: ClientOut,
    server: ServerOut,
    client_tracer: &Tracer,
    traced: bool,
    reference: u64,
) -> Phase {
    let n = plan.len();
    let ok_frames = client.ok.iter().filter(|&&ok| ok).count();
    let mut phase = Phase {
        requests: n as u64,
        failed: (n - ok_frames) as u64,
        queries_per_s: (ok_frames * FRAME_QUERIES) as f64 / client.wall_s.max(f64::MIN_POSITIVE),
        busy_s: server.busy_s,
        ..Phase::default()
    };
    // Per-rung latency and the sustained rate.
    let mut sustained = 0.0;
    for (rung, qps) in RUNGS_QPS.iter().enumerate() {
        let ids: Vec<usize> = (0..n).filter(|&i| plan[i].rung == rung).collect();
        let lat = stats::sorted(ids.iter().map(|&i| client.latency_us[i]).collect());
        let p99 = stats::tail(&lat, 99.0);
        let tail_start = ids.len() - ids.len() / 10;
        let late_mean = ids[tail_start..]
            .iter()
            .map(|&i| client.latency_us[i])
            .sum::<f64>()
            / (ids.len() - tail_start).max(1) as f64;
        let all_ok = ids.iter().all(|&i| client.ok[i]);
        let pass = all_ok && p99.value <= P99_LIMIT_US && late_mean <= P99_LIMIT_US;
        let span_s = match (ids.first(), ids.last()) {
            (Some(&a), Some(&b)) if b > a => (plan[b].due_ns - plan[a].due_ns) as f64 / 1e9,
            _ => 0.0,
        };
        let achieved = if span_s > 0.0 {
            (ids.len().saturating_sub(1) * FRAME_QUERIES) as f64 / span_s
        } else {
            0.0
        };
        if pass {
            sustained = achieved;
        }
        phase.info.insert(
            format!("rung{rung}"),
            format!(
                "offered {qps} q/s, achieved {achieved:.0} q/s, frames {}, p{} {:.1} us ({} beyond), \
                 tail mean {late_mean:.1} us, {}",
                ids.len(),
                p99.pct,
                p99.value,
                p99.beyond,
                if pass { "sustained" } else { "not sustained" }
            ),
        );
    }
    phase.sustained_qps = Some(sustained);
    for (latency_us, ok) in client.latency_us.iter().zip(&client.ok) {
        let delivered = if *ok { FRAME_QUERIES as u64 } else { 0 };
        phase.latency.push(*latency_us, delivered, 0.0);
    }
    phase.latency.finish();
    let late = stats::sorted(client.late_us.clone());
    let late_p99 = stats::tail(&late, 99.0);
    phase
        .layers
        .insert("harness.gen_late_p99_us".into(), late_p99.value);
    phase.checks.push(Check::new(
        ON_SCHEDULE,
        late_p99.value <= LATE_LIMIT_US,
        format!(
            "lateness p{} {:.1} us over {} sends, limit {LATE_LIMIT_US} us",
            late_p99.pct, late_p99.value, late_p99.samples
        ),
    ));
    phase.checks.push(Check::new(
        "admission_conserved",
        server.stats.is_conserved(),
        format!("{:?}", server.stats),
    ));
    phase.checks.push(Check::new(
        if traced {
            "traced_checksum_matches_reference"
        } else {
            "checksum_matches_reference"
        },
        server.checksum == reference,
        format!("daemon {} vs serial reference {reference}", server.checksum),
    ));
    phase.info.insert("frames".into(), n.to_string());
    let queries = (n * FRAME_QUERIES).max(1) as f64;
    phase.layers.insert(
        "daemon.batches_per_pump".into(),
        server.batches as f64 / server.pumps.max(1) as f64,
    );
    phase
        .layers
        .insert("wire.bytes_per_query".into(), client.bytes as f64 / queries);
    crate::phase::snapshot_counts(&server.snapshot, 1, &mut phase.layers);
    phase.snapshot = Some(server.snapshot);
    phase.model_rates = server.model_rates;
    if let Some(server_tracer) = &server.tracer {
        let server_times = server_tracer.self_times();
        let client_times = client_tracer.self_times();
        let frames = n.max(1) as f64;
        let mean = |name: &str| {
            server_times
                .get(name)
                .or_else(|| client_times.get(name))
                .map_or(0.0, |t| t.mean_us())
        };
        let per_frame = |names: &[&str]| {
            names
                .iter()
                .filter_map(|name| server_times.get(name).or_else(|| client_times.get(name)))
                .map(|t| t.total_ns as f64 / 1e3)
                .sum::<f64>()
                / frames
        };
        let l = &mut phase.layers;
        l.insert("checkpoint.commit_us".into(), mean("checkpoint.commit"));
        l.insert(
            "checkpoint.syncs_per_query".into(),
            server.syncs as f64 / queries,
        );
        l.insert(
            "checkpoint.ckpt_append_us".into(),
            mean("checkpoint.ckpt_append"),
        );
        l.insert("checkpoint.ckpt_encode_us".into(), server.ckpt_encode_us);
        l.insert("checkpoint.ckpt_bytes".into(), server.ckpt_bytes);
        l.insert("daemon.handle_frame_us".into(), mean("daemon.handle_frame"));
        l.insert("daemon.queue_wait_us".into(), server.queue_wait_us);
        l.insert(
            "wire.encode_us".into(),
            per_frame(&["wire.encode_request", "wire.encode_reply"]),
        );
        l.insert(
            "wire.decode_us".into(),
            per_frame(&["wire.decode_request", "wire.decode_reply"]),
        );
        let server_self: u64 = server_times.values().map(|t| t.self_ns).sum();
        phase.span_self_s = server_self as f64 / 1e9;
        let mut all = server_times;
        for (name, t) in client_times {
            all.insert(name, t);
        }
        for (layer, ns) in trace::self_ns_by_layer(&all) {
            phase
                .layers
                .insert(format!("self.{layer}_us"), ns as f64 / 1e3 / frames);
        }
        let path = fixture::work_dir().join(format!("spans-durable_ingest-{}.jsonl", fx.seed));
        let _ = std::fs::remove_file(&path);
        let _ = server_tracer.write_jsonl(&path, "daemon", crate::SPAN_DUMP_LIMIT);
        let _ = client_tracer.write_jsonl(&path, "client", crate::SPAN_DUMP_LIMIT);
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seed_deterministic() {
        assert_eq!(schedule(7, 0.5), schedule(7, 0.5));
        assert_ne!(schedule(7, 0.5), schedule(8, 0.5));
    }

    #[test]
    fn schedule_walks_the_ladder_at_the_offered_rates() {
        let seconds = 8.0;
        let plan = schedule(3, seconds);
        assert!(plan.windows(2).all(|w| w[0].due_ns < w[1].due_ns));
        let per_rung = seconds / RUNGS_QPS.len() as f64;
        for (rung, qps) in RUNGS_QPS.iter().enumerate() {
            let frames = plan.iter().filter(|a| a.rung == rung).count() as f64;
            let expected = qps / FRAME_QUERIES as f64 * per_rung;
            assert!(
                (frames - expected).abs() < 5.0 * expected.sqrt(),
                "rung {rung}: {frames} frames, expected {expected}"
            );
        }
    }
}
