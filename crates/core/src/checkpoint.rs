//! Crash-consistent checkpoint/restore with a write-ahead state journal.
//!
//! A continuous monitor runs for months; the host it runs on does not. This
//! module makes a [`crate::serve::MonitoringService`] *durable*: the full
//! mutable state of the service — per-shard seeds, calibration
//! generations and fault laws, folded fault statistics, supervision
//! records and retry schedules, the voltage
//! controller's calibration point, telemetry counters, and the global
//! stream position — folds into a versioned, self-validating binary
//! [`ServiceCheckpoint`]. Restoring it rebuilds a service that continues
//! the verdict stream **bit-identically**, at any thread count, as if the
//! process had never died.
//!
//! Two properties make that possible:
//!
//! - everything derived (fault-model CDF tables, calibration curves,
//!   thermal traces) is a pure function of a handful of free parameters, so
//!   the checkpoint stores only those parameters and rebuilds the tables on
//!   restore — snapshots stay small and version drift in table layout
//!   cannot corrupt a resume;
//! - every fault stream is seeded from the shard seed and the query's
//!   stream position, so a resumed service derives exactly the streams the
//!   dead one would have drawn next, and no RNG state is captured.
//!
//! The only state deliberately *not* captured is the wall-clock batch
//! latency window — timing is not replayable by definition, and all
//! bit-identity comparisons go through
//! [`crate::telemetry::TelemetrySnapshot::without_timing`].
//!
//! # The write-ahead journal
//!
//! A checkpoint alone cannot tell you *where in the input stream* the crash
//! happened. [`StateJournal`] is an append-only log of length-prefixed,
//! checksummed records: full [`ServiceCheckpoint`]s at a configurable
//! cadence, and a tiny [`BatchCommit`] (stream position + verdict
//! checksum) appended **before a batch's verdicts are exposed** to the
//! caller. After a kill -9 — including one that tears a record mid-append —
//! [`StateJournal::recover`] scans the valid prefix, discards the torn
//! tail (never panicking), and returns the newest checkpoint plus the
//! commits after it. Because the commit is written before the results are
//! visible, replaying the input stream from the checkpoint's position
//! re-executes *at most one* batch whose verdicts a caller could not have
//! observed, and determinism makes that replay produce the exact bytes the
//! dead process would have produced.
//!
//! See `DESIGN.md` §11 for the recovery protocol and the
//! `crash_restore` example / `crash_restore_bench` binary for the
//! kill-and-resume harness.

// Checkpoints and journals are decoded from disk after a crash — bytes
// that may be torn, rotted, or foreign. Every failure on this path must be
// a typed error the recovery protocol can act on, never a panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::codec::{fnv1a, fnv1a_tagged, CodecError, Reader, Writer};
use crate::deploy::DetectionPolicy;
use crate::serve::RequeryConfig;
use crate::supervisor::{ShardHealth, SupervisionRecord};
use crate::telemetry::{FaultCounters, ScoreHistogram, HISTOGRAM_BINS};
use shmd_volt::controller::ControllerState;
use shmd_volt::fault::FaultModelState;
use shmd_volt::voltage::Millivolts;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// First bytes of every encoded [`ServiceCheckpoint`].
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"SHCK";

/// Format version written by [`ServiceCheckpoint::encode`]. Decoding any
/// other version fails with [`CheckpointError::UnsupportedVersion`] instead
/// of misinterpreting bytes. Version 2 added the energy/power-scheduling
/// fields (per-shard accrued energy, last busy power, scheduler target and
/// load-window base; service-wide projected power). Version 3 added the
/// uncertainty-aware re-query fields (per-shard band hits and re-query
/// draws; service-wide re-query band and replica count). Version 4 dropped
/// the stochastic shard's injector snapshot (RNG words, in-flight gap,
/// statistics and per-bit histogram), which no serving path read: a
/// stochastic backend now stores only its operating point and fault law.
pub const CHECKPOINT_VERSION: u16 = 4;

/// Journal record kind: a full service checkpoint.
const RECORD_CHECKPOINT: u8 = 1;
/// Journal record kind: a batch commit marker.
const RECORD_BATCH_COMMIT: u8 = 2;

/// Bytes of journal framing around a payload: `u32` length + `u8` kind
/// before it, `u64` checksum after it.
const RECORD_OVERHEAD: usize = 4 + 1 + 8;

/// Encoded size of a [`BatchCommit`] payload.
const BATCH_COMMIT_LEN: usize = 24;

/// Error decoding a [`ServiceCheckpoint`] from bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The bytes do not start with [`CHECKPOINT_MAGIC`] — not a checkpoint.
    BadMagic,
    /// The checkpoint was written by an unknown format version.
    UnsupportedVersion(u16),
    /// The input ended before the structure did.
    Truncated,
    /// The structure is self-inconsistent (checksum mismatch, invalid enum
    /// tag, impossible length, trailing bytes).
    Corrupted(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint: bad magic"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint is truncated"),
            CheckpointError::Corrupted(what) => write!(f, "checkpoint is corrupted: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> CheckpointError {
        match e {
            CodecError::Truncated => CheckpointError::Truncated,
            CodecError::Corrupted(what) => CheckpointError::Corrupted(what),
        }
    }
}

/// Error restoring a [`crate::serve::MonitoringService`] from a decoded
/// [`ServiceCheckpoint`] (see `MonitoringService::restore`).
#[derive(Clone, Debug, PartialEq)]
pub enum RestoreError {
    /// The baseline model's input width differs from the checkpointed
    /// service's — this checkpoint belongs to a different deployment.
    InputDimMismatch {
        /// Input width of the baseline offered at restore.
        got: usize,
        /// Input width recorded in the checkpoint.
        expected: usize,
    },
    /// The checkpoint captured a supervised service but no
    /// [`crate::supervisor::SupervisorConfig`] was provided.
    SupervisorRequired,
    /// A supervisor config was provided but the checkpoint captured an
    /// unsupervised service.
    SupervisorUnexpected,
    /// Rebuilding the supervisor's voltage controller at the checkpointed
    /// calibration point failed (the provided config describes a device
    /// the saved operating point cannot exist on).
    Calibration(shmd_volt::calibration::CalibrationError),
    /// The checkpoint decodes but describes a state no live service can
    /// hold (invalid fault model, controller offset that disagrees
    /// with the recalibrated curve, out-of-range target).
    InvalidState(String),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::InputDimMismatch { got, expected } => write!(
                f,
                "baseline input width {got} does not match checkpointed width {expected}"
            ),
            RestoreError::SupervisorRequired => {
                write!(
                    f,
                    "checkpoint is supervised: a supervisor config is required"
                )
            }
            RestoreError::SupervisorUnexpected => write!(
                f,
                "checkpoint is unsupervised: no supervisor config must be provided"
            ),
            RestoreError::Calibration(e) => {
                write!(f, "restoring the voltage controller failed: {e}")
            }
            RestoreError::InvalidState(what) => write!(f, "invalid checkpoint state: {what}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<shmd_volt::calibration::CalibrationError> for RestoreError {
    fn from(e: shmd_volt::calibration::CalibrationError) -> RestoreError {
        RestoreError::Calibration(e)
    }
}

/// A shard backend at checkpoint time. Only `Stochastic` stores a model;
/// the other two are what the shard's health says it serves from, and
/// restore accepts each only with that health.
#[derive(Clone, Debug, PartialEq)]
pub enum BackendCheckpoint {
    /// The protected replica, with its complete detector snapshot.
    Stochastic(crate::stochastic::StochasticHmdState),
    /// Degraded: serving the baseline at nominal voltage. The baseline
    /// model itself is deterministic and supplied again at restore, so
    /// only the marker is stored.
    Baseline,
    /// Crashed and quarantined: no backend until the supervisor restarts
    /// it.
    Down,
}

/// One shard's durable state: everything about the shard except its
/// detector backend. The serving layer keeps it as the shard's record, a
/// checkpoint clones it and the telemetry snapshot exports it, so the
/// fields are declared once. The shard's id is its position in
/// [`ServiceCheckpoint::shards`] and in
/// [`crate::telemetry::TelemetrySnapshot::shards`].
#[derive(Clone, Debug, PartialEq)]
pub struct ShardState {
    /// Seed of the current calibration generation.
    pub seed: u64,
    /// Calibration generation: bumped on every backend rebuild
    /// (recalibration or supervised restart), so the shard never replays
    /// an old fault stream.
    pub generation: u64,
    /// Health, lifetime counters, watchdog window and retry schedule.
    pub supervision: SupervisionRecord,
    /// Why the shard is degraded or quarantined, when it is.
    pub degraded_reason: Option<String>,
    /// Lifetime degradation events.
    pub degradation_events: u64,
    /// Queries answered.
    pub queries: u64,
    /// Malware verdicts raised.
    pub flags: u64,
    /// Verdicts whose primary score landed inside the re-query confidence
    /// band (0 while re-query is disabled).
    pub band_hits: u64,
    /// Extra ensemble draws spent answering band hits.
    pub requeries: u64,
    /// Fault counters folded at every batch boundary from the shard's
    /// per-query fault streams.
    pub faults: FaultCounters,
    /// Score histogram.
    pub histogram: ScoreHistogram,
    /// Cumulative detection energy, microjoules, accrued at every batch
    /// boundary (see DESIGN.md §13).
    pub energy_uj: f64,
    /// Busy core power (watts) at the last energy accrual.
    pub last_power_w: Option<f64>,
    /// The power scheduler's current error-rate target for the shard
    /// (`None` until a budget policy first touches it).
    pub power_target_er: Option<f64>,
    /// Shard query count at the last power-scheduling tick: the window
    /// base of the scheduler's per-shard load estimate.
    pub power_window_queries: u64,
}

impl ShardState {
    /// A generation-0 shard record in `health`, degraded for
    /// `degraded_reason` when there is one.
    pub(crate) fn fresh(
        seed: u64,
        health: ShardHealth,
        degraded_reason: Option<String>,
    ) -> ShardState {
        ShardState {
            seed,
            generation: 0,
            supervision: SupervisionRecord::starting(health),
            degradation_events: u64::from(degraded_reason.is_some()),
            degraded_reason,
            queries: 0,
            flags: 0,
            band_hits: 0,
            requeries: 0,
            faults: FaultCounters::default(),
            histogram: ScoreHistogram::new(),
            energy_uj: 0.0,
            last_power_w: None,
            power_target_er: None,
            power_window_queries: 0,
        }
    }
}

/// One shard at checkpoint time: its backend and its durable record.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardCheckpoint {
    /// The detector backend.
    pub backend: BackendCheckpoint,
    /// Everything else about the shard.
    pub state: ShardState,
}

/// A complete, versioned snapshot of a [`crate::serve::MonitoringService`].
///
/// Produced by `MonitoringService::checkpoint`, consumed by
/// `MonitoringService::restore`. [`ServiceCheckpoint::encode`] /
/// [`ServiceCheckpoint::decode`] round-trip it through a self-validating
/// binary format (magic, version, trailing checksum); decoding rejects
/// foreign, truncated, or corrupted bytes with a typed
/// [`CheckpointError`] and never panics.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceCheckpoint {
    /// Verdict aggregation policy.
    pub policy: DetectionPolicy,
    /// Calibration target error rate.
    pub target_error_rate: f64,
    /// Master seed.
    pub seed: u64,
    /// Streaming batch size.
    pub batch_size: u64,
    /// Input-layer width of the deployed model.
    pub input_dim: u64,
    /// Global stream position: queries consumed (served + rejected).
    pub served: u64,
    /// Batches processed — also the thermal-environment step and the
    /// chaos-plan cursor of the next supervision step.
    pub batches: u64,
    /// Queries rejected at ingestion.
    pub rejected_queries: u64,
    /// Running verdict checksum.
    pub verdict_checksum: u64,
    /// Projected busy-power total over serving shards at the last
    /// power-scheduling tick, when a budget policy ran.
    pub service_power_w: Option<f64>,
    /// The uncertainty-aware re-query policy, when re-query was enabled.
    pub requery: Option<RequeryConfig>,
    /// The voltage controller's calibration point, for services deployed
    /// via `MonitoringService::supervised`: the supervisor's only mutable
    /// state. The thermal environment and chaos plan are pure functions of
    /// the batch index, whose cursor is `batches`, so their configuration
    /// is supplied again at restore.
    pub supervisor: Option<ControllerState>,
    /// Per-shard state, in shard order: a shard's id is its index.
    pub shards: Vec<ShardCheckpoint>,
}

impl ServiceCheckpoint {
    /// Serialises the checkpoint: [`CHECKPOINT_MAGIC`], a `u16` version,
    /// the body, and a trailing FNV-1a checksum over everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes.extend_from_slice(&CHECKPOINT_MAGIC);
        w.u16(CHECKPOINT_VERSION);
        w.u8(policy_tag(self.policy));
        w.u64(policy_k(self.policy));
        w.f64(self.target_error_rate);
        w.u64(self.seed);
        w.u64(self.batch_size);
        w.u64(self.input_dim);
        w.u64(self.served);
        w.u64(self.batches);
        w.u64(self.rejected_queries);
        w.u64(self.verdict_checksum);
        w.opt_f64(self.service_power_w);
        w.opt_f64(self.requery.map(|r| r.band));
        w.u64(self.requery.map_or(0, |r| r.replicas as u64));
        match &self.supervisor {
            None => w.u8(0),
            Some(sup) => {
                w.u8(1);
                w.f64(sup.calibrated_at_c);
                w.i32(sup.offset.get());
            }
        }
        w.u32(self.shards.len() as u32);
        for (id, shard) in self.shards.iter().enumerate() {
            encode_shard(&mut w, id, shard);
        }
        let checksum = fnv1a(&w.bytes);
        w.u64(checksum);
        w.bytes
    }

    /// Decodes bytes produced by [`ServiceCheckpoint::encode`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadMagic`] for foreign bytes,
    /// [`CheckpointError::UnsupportedVersion`] for a future format,
    /// [`CheckpointError::Truncated`] when the input ends early, and
    /// [`CheckpointError::Corrupted`] for checksum mismatches, invalid
    /// tags, impossible lengths, or trailing bytes. Never panics, for any
    /// input.
    pub fn decode(bytes: &[u8]) -> Result<ServiceCheckpoint, CheckpointError> {
        if bytes.len() < CHECKPOINT_MAGIC.len() + 2 + 8 {
            if !bytes.starts_with(CHECKPOINT_MAGIC.get(..bytes.len()).unwrap_or(&[])) {
                return Err(CheckpointError::BadMagic);
            }
            return Err(CheckpointError::Truncated);
        }
        let Some((body, tail)) = bytes.split_last_chunk::<8>() else {
            return Err(CheckpointError::Truncated);
        };
        if body.get(..4) != Some(&CHECKPOINT_MAGIC[..]) {
            return Err(CheckpointError::BadMagic);
        }
        if fnv1a(body) != u64::from_le_bytes(*tail) {
            return Err(CheckpointError::Corrupted("checksum mismatch".to_string()));
        }
        let mut r = Reader::new(body.get(4..).unwrap_or(&[]));
        let version = r.u16()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let policy = decode_policy(r.u8()?, r.u64()?)?;
        let checkpoint = ServiceCheckpoint {
            policy,
            target_error_rate: r.f64()?,
            seed: r.u64()?,
            batch_size: r.u64()?,
            input_dim: r.u64()?,
            served: r.u64()?,
            batches: r.u64()?,
            rejected_queries: r.u64()?,
            verdict_checksum: r.u64()?,
            service_power_w: r.opt_f64()?,
            requery: {
                let band = r.opt_f64()?;
                let replicas = usize::try_from(r.u64()?).unwrap_or(usize::MAX);
                band.map(|band| RequeryConfig::new(band, replicas))
            },
            supervisor: match r.u8()? {
                0 => None,
                1 => Some(ControllerState {
                    calibrated_at_c: r.f64()?,
                    offset: Millivolts::new(r.i32()?),
                }),
                tag => {
                    return Err(CheckpointError::Corrupted(format!(
                        "invalid supervisor tag {tag}"
                    )))
                }
            },
            shards: {
                let count = r.u32()? as usize;
                // Each shard costs at least ~140 body bytes; a count that
                // cannot fit in the remaining input is corruption, not an
                // allocation request.
                if count > r.remaining() {
                    return Err(CheckpointError::Truncated);
                }
                let mut shards = Vec::with_capacity(count);
                for id in 0..count {
                    shards.push(decode_shard(&mut r, id)?);
                }
                shards
            },
        };
        if r.remaining() != 0 {
            return Err(CheckpointError::Corrupted(format!(
                "{} trailing bytes",
                r.remaining()
            )));
        }
        Ok(checkpoint)
    }
}

fn policy_tag(policy: DetectionPolicy) -> u8 {
    match policy {
        DetectionPolicy::Single => 0,
        DetectionPolicy::AnyOf(_) => 1,
        DetectionPolicy::MajorityOf(_) => 2,
    }
}

fn policy_k(policy: DetectionPolicy) -> u64 {
    match policy {
        DetectionPolicy::Single => 1,
        DetectionPolicy::AnyOf(k) | DetectionPolicy::MajorityOf(k) => k as u64,
    }
}

fn decode_policy(tag: u8, k: u64) -> Result<DetectionPolicy, CheckpointError> {
    let k = usize::try_from(k)
        .map_err(|_| CheckpointError::Corrupted(format!("policy k {k} overflows")))?;
    match tag {
        0 => Ok(DetectionPolicy::Single),
        1 => Ok(DetectionPolicy::AnyOf(k)),
        2 => Ok(DetectionPolicy::MajorityOf(k)),
        _ => Err(CheckpointError::Corrupted(format!(
            "invalid policy tag {tag}"
        ))),
    }
}

fn health_tag(health: ShardHealth) -> u8 {
    match health {
        ShardHealth::Healthy => 0,
        ShardHealth::Drifting => 1,
        ShardHealth::Crashed => 2,
        ShardHealth::Quarantined => 3,
        ShardHealth::Recovering => 4,
        ShardHealth::Degraded => 5,
    }
}

fn decode_health(tag: u8) -> Result<ShardHealth, CheckpointError> {
    Ok(match tag {
        0 => ShardHealth::Healthy,
        1 => ShardHealth::Drifting,
        2 => ShardHealth::Crashed,
        3 => ShardHealth::Quarantined,
        4 => ShardHealth::Recovering,
        5 => ShardHealth::Degraded,
        _ => {
            return Err(CheckpointError::Corrupted(format!(
                "invalid health tag {tag}"
            )))
        }
    })
}

fn encode_counters(w: &mut Writer, counters: &FaultCounters) {
    w.u64(counters.multiplies);
    w.u64(counters.faulty);
    w.u64(counters.bit_flips);
}

fn decode_counters(r: &mut Reader<'_>) -> Result<FaultCounters, CheckpointError> {
    Ok(FaultCounters {
        multiplies: r.u64()?,
        faulty: r.u64()?,
        bit_flips: r.u64()?,
    })
}

/// Writes one shard record. The v4 layout leads with the shard's id, its
/// position in the checkpoint, which [`decode_shard`] checks.
fn encode_shard(w: &mut Writer, id: usize, shard: &ShardCheckpoint) {
    let state = &shard.state;
    w.u64(id as u64);
    w.u64(state.seed);
    w.u64(state.generation);
    match &shard.backend {
        BackendCheckpoint::Stochastic(hmd) => {
            w.u8(0);
            w.string(&hmd.name);
            w.f64(hmd.error_rate);
            match hmd.offset {
                None => w.u8(0),
                Some(mv) => {
                    w.u8(1);
                    w.i32(mv.get());
                }
            }
            w.f64(hmd.threshold);
            encode_fault_model(w, &hmd.model);
        }
        BackendCheckpoint::Baseline => w.u8(1),
        BackendCheckpoint::Down => w.u8(2),
    }
    let sup = &state.supervision;
    w.u8(health_tag(sup.health));
    w.u64(sup.transitions);
    w.u64(sup.crashes);
    w.u64(sup.drift_events);
    w.u64(sup.retries);
    w.u32(sup.attempt);
    w.opt_u64(sup.next_retry_batch);
    w.opt_f64(sup.reference_rate);
    encode_counters(w, &sup.window_mark);
    match &state.degraded_reason {
        None => w.u8(0),
        Some(reason) => {
            w.u8(1);
            w.string(reason);
        }
    }
    w.u64(state.degradation_events);
    w.u64(state.queries);
    w.u64(state.flags);
    encode_counters(w, &state.faults);
    for &bin in state.histogram.counts() {
        w.u64(bin);
    }
    w.f64(state.energy_uj);
    w.opt_f64(state.last_power_w);
    w.opt_f64(state.power_target_er);
    w.u64(state.power_window_queries);
    w.u64(state.band_hits);
    w.u64(state.requeries);
}

/// Reads the record of the shard at position `id`.
fn decode_shard(r: &mut Reader<'_>, id: usize) -> Result<ShardCheckpoint, CheckpointError> {
    let stored = r.u64()?;
    if stored != id as u64 {
        return Err(CheckpointError::Corrupted(format!(
            "shard {id} carries id {stored}"
        )));
    }
    let seed = r.u64()?;
    let generation = r.u64()?;
    let backend = match r.u8()? {
        0 => BackendCheckpoint::Stochastic(crate::stochastic::StochasticHmdState {
            name: r.string()?,
            error_rate: r.f64()?,
            offset: match r.u8()? {
                0 => None,
                1 => Some(Millivolts::new(r.i32()?)),
                tag => {
                    return Err(CheckpointError::Corrupted(format!(
                        "invalid offset tag {tag}"
                    )))
                }
            },
            threshold: r.f64()?,
            model: decode_fault_model(r)?,
        }),
        1 => BackendCheckpoint::Baseline,
        2 => BackendCheckpoint::Down,
        tag => {
            return Err(CheckpointError::Corrupted(format!(
                "invalid backend tag {tag}"
            )))
        }
    };
    let state = ShardState {
        seed,
        generation,
        supervision: SupervisionRecord {
            health: decode_health(r.u8()?)?,
            transitions: r.u64()?,
            crashes: r.u64()?,
            drift_events: r.u64()?,
            retries: r.u64()?,
            attempt: r.u32()?,
            next_retry_batch: r.opt_u64()?,
            reference_rate: r.opt_f64()?,
            window_mark: decode_counters(r)?,
        },
        degraded_reason: match r.u8()? {
            0 => None,
            1 => Some(r.string()?),
            tag => {
                return Err(CheckpointError::Corrupted(format!(
                    "invalid reason tag {tag}"
                )))
            }
        },
        degradation_events: r.u64()?,
        queries: r.u64()?,
        flags: r.u64()?,
        faults: decode_counters(r)?,
        histogram: {
            let mut bins = [0u64; HISTOGRAM_BINS];
            for bin in &mut bins {
                *bin = r.u64()?;
            }
            ScoreHistogram::from_counts(bins)
        },
        energy_uj: r.f64()?,
        last_power_w: r.opt_f64()?,
        power_target_er: r.opt_f64()?,
        power_window_queries: r.u64()?,
        band_hits: r.u64()?,
        requeries: r.u64()?,
    };
    Ok(ShardCheckpoint { backend, state })
}

fn encode_fault_model(w: &mut Writer, model: &FaultModelState) {
    w.f64(model.error_rate);
    w.u32(model.flips.len() as u32);
    for &(bit, p) in &model.flips {
        w.u8(bit);
        w.f64(p);
    }
    w.f64(model.ripple_fraction);
    w.u32(model.ripple_span);
    w.u32(model.near_zero_width);
}

fn decode_fault_model(r: &mut Reader<'_>) -> Result<FaultModelState, CheckpointError> {
    Ok(FaultModelState {
        error_rate: r.f64()?,
        flips: {
            let count = r.u32()? as usize;
            if count.saturating_mul(9) > r.remaining() {
                return Err(CheckpointError::Truncated);
            }
            let mut flips = Vec::with_capacity(count);
            for _ in 0..count {
                flips.push((r.u8()?, r.f64()?));
            }
            flips
        },
        ripple_fraction: r.f64()?,
        ripple_span: r.u32()?,
        near_zero_width: r.u32()?,
    })
}

/// The commit marker appended to the journal after a batch's state
/// mutations and *before* its verdicts are exposed to the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchCommit {
    /// Index of the committed batch (0-based; the service's `batches`
    /// counter was `batch + 1` after it).
    pub batch: u64,
    /// Stream position after the batch: queries consumed so far.
    pub stream_pos: u64,
    /// Verdict checksum after the batch.
    pub checksum: u64,
}

/// What [`StateJournal::recover`] salvaged from a journal file.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalRecovery {
    /// The newest intact checkpoint, if any record of that kind survived.
    pub checkpoint: Option<ServiceCheckpoint>,
    /// Batch commits appended after that checkpoint, oldest first.
    pub commits: Vec<BatchCommit>,
    /// Bytes of torn/corrupt tail discarded from the end of the file.
    pub torn_bytes: u64,
}

impl JournalRecovery {
    /// The last committed batch index, when any commit survived.
    pub fn last_committed_batch(&self) -> Option<u64> {
        self.commits.last().map(|c| c.batch)
    }
}

/// A scratch journal path unique to this process and call, with the file
/// deleted on drop.
///
/// The path is `shmd-<tag>-<pid>-<n>.journal` under the system temp
/// directory, where `n` counts calls in this process, so tests, examples
/// and benchmarks running concurrently never share a journal file, and a
/// caller that panics does not leak one. Nothing is created until a
/// journal is opened on the path; it derefs to [`Path`] for
/// [`StateJournal::create`] and friends.
#[derive(Debug)]
pub struct TempJournal {
    path: PathBuf,
}

impl TempJournal {
    /// A fresh scratch path labelled `tag`.
    pub fn new(tag: &str) -> TempJournal {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("shmd-{tag}-{}-{n}.journal", std::process::id());
        TempJournal {
            path: std::env::temp_dir().join(name),
        }
    }
}

impl Deref for TempJournal {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempJournal {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempJournal {
    fn drop(&mut self) {
        // The file may never have been created, or its owner removed it.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// An append-only write-ahead log of [`ServiceCheckpoint`]s and
/// [`BatchCommit`]s.
///
/// Every record is framed as `[u32 payload-len][u8 kind][payload]
/// [u64 fnv-1a(kind ‖ payload)]`, so [`StateJournal::recover`] can walk
/// the file from the front and stop at the first frame whose length,
/// kind, checksum, or payload does not validate — a kill -9 mid-append
/// tears at most the final record, and the torn tail is discarded, never
/// misread and never a panic.
pub struct StateJournal {
    file: File,
    path: PathBuf,
}

impl StateJournal {
    /// Creates (or truncates) a journal at `path`.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from creating the file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<StateJournal> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        Ok(StateJournal { file, path })
    }

    /// Opens an existing journal for appending (after a recovery, to
    /// continue the same log).
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from opening the file.
    pub fn open_append(path: impl AsRef<Path>) -> io::Result<StateJournal> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(StateJournal { file, path })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a full checkpoint record and syncs it to disk.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the write or sync.
    pub fn append_checkpoint(&mut self, checkpoint: &ServiceCheckpoint) -> io::Result<()> {
        self.append_record(RECORD_CHECKPOINT, &checkpoint.encode())
    }

    /// Appends a batch-commit record and syncs it to disk. Called after
    /// the batch's state mutations and before its verdicts are exposed.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the write or sync.
    pub fn append_commit(&mut self, commit: BatchCommit) -> io::Result<()> {
        let mut payload = Vec::with_capacity(BATCH_COMMIT_LEN);
        payload.extend_from_slice(&commit.batch.to_le_bytes());
        payload.extend_from_slice(&commit.stream_pos.to_le_bytes());
        payload.extend_from_slice(&commit.checksum.to_le_bytes());
        self.append_record(RECORD_BATCH_COMMIT, &payload)
    }

    fn append_record(&mut self, kind: u8, payload: &[u8]) -> io::Result<()> {
        let mut frame = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.push(kind);
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&fnv1a_tagged(kind, payload).to_le_bytes());
        self.file.write_all(&frame)?;
        self.file.sync_data()
    }

    /// Scans a journal file and salvages its valid prefix.
    ///
    /// Walks records from the front; the first frame that fails to
    /// validate (short frame, impossible length, unknown kind, checksum
    /// mismatch, undecodable checkpoint payload) ends the scan and the
    /// rest of the file is reported as [`JournalRecovery::torn_bytes`].
    /// Returns the newest intact checkpoint and the commits appended
    /// after it. A missing file recovers to an empty journal.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from reading the file (other than it not
    /// existing), and [`io::ErrorKind::InvalidData`] for an intact
    /// checkpoint record (its frame checksum holds) written in a format
    /// version this build cannot read: that is a journal from another
    /// build, not a torn tail, and discarding it would silently lose the
    /// service state.
    pub fn recover(path: impl AsRef<Path>) -> io::Result<JournalRecovery> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut pos = 0usize;
        let mut checkpoint: Option<ServiceCheckpoint> = None;
        let mut commits: Vec<BatchCommit> = Vec::new();
        while pos < bytes.len() {
            let Some(rest) = bytes.get(pos..) else {
                break;
            };
            if rest.len() < RECORD_OVERHEAD {
                break; // torn frame header/trailer
            }
            let Some(len_bytes) = rest.first_chunk::<4>() else {
                break;
            };
            let len = u32::from_le_bytes(*len_bytes) as usize;
            if len > rest.len() - RECORD_OVERHEAD {
                break; // frame claims more payload than the file holds
            }
            let Some(&kind) = rest.get(4) else {
                break;
            };
            let Some(payload) = rest.get(5..5 + len) else {
                break;
            };
            let Some(stored_bytes) = rest
                .get(5 + len..RECORD_OVERHEAD + len)
                .and_then(|tail| tail.first_chunk::<8>())
            else {
                break;
            };
            if fnv1a_tagged(kind, payload) != u64::from_le_bytes(*stored_bytes) {
                break; // torn or bit-rotted record
            }
            match kind {
                RECORD_CHECKPOINT => match ServiceCheckpoint::decode(payload) {
                    Ok(cp) => {
                        checkpoint = Some(cp);
                        commits.clear();
                    }
                    Err(CheckpointError::UnsupportedVersion(version)) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "journal checkpoint has format version {version}, \
                                 this build reads version {CHECKPOINT_VERSION}"
                            ),
                        ));
                    }
                    Err(_) => break,
                },
                RECORD_BATCH_COMMIT => {
                    if len != BATCH_COMMIT_LEN {
                        break;
                    }
                    let mut r = Reader::new(payload);
                    let (Ok(batch), Ok(stream_pos), Ok(checksum)) = (r.u64(), r.u64(), r.u64())
                    else {
                        break; // impossible at BATCH_COMMIT_LEN, but typed
                    };
                    commits.push(BatchCommit {
                        batch,
                        stream_pos,
                        checksum,
                    });
                }
                _ => break, // unknown kind: treat as corruption
            }
            pos += RECORD_OVERHEAD + len;
        }
        Ok(JournalRecovery {
            checkpoint,
            commits,
            torn_bytes: (bytes.len() - pos) as u64,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
pub(crate) mod tests {
    use super::*;

    /// A two-shard checkpoint with every optional field exercised.
    pub(crate) fn sample_checkpoint() -> ServiceCheckpoint {
        ServiceCheckpoint {
            policy: DetectionPolicy::MajorityOf(3),
            target_error_rate: 0.2,
            seed: 42,
            batch_size: 16,
            input_dim: 24,
            served: 640,
            batches: 40,
            rejected_queries: 3,
            verdict_checksum: 0xdead_beef_cafe_f00d,
            service_power_w: Some(12.75),
            requery: Some(RequeryConfig::new(0.08, 4)),
            supervisor: Some(ControllerState {
                calibrated_at_c: 52.25,
                offset: Millivolts::new(-231),
            }),
            shards: vec![
                ShardCheckpoint {
                    backend: BackendCheckpoint::Stochastic(crate::stochastic::StochasticHmdState {
                        name: "stochastic(er=0.2)".to_string(),
                        error_rate: 0.2,
                        offset: Some(Millivolts::new(-231)),
                        threshold: 0.5,
                        model: FaultModelState {
                            error_rate: 0.2,
                            flips: vec![(3, 0.125), (17, 0.5)],
                            ripple_fraction: 0.05,
                            ripple_span: 8,
                            near_zero_width: 20,
                        },
                    }),
                    state: ShardState {
                        seed: 7,
                        generation: 2,
                        supervision: SupervisionRecord {
                            health: ShardHealth::Healthy,
                            transitions: 4,
                            crashes: 1,
                            drift_events: 0,
                            retries: 2,
                            attempt: 0,
                            next_retry_batch: None,
                            reference_rate: Some(0.19),
                            window_mark: FaultCounters {
                                multiplies: 900,
                                faulty: 160,
                                bit_flips: 300,
                            },
                        },
                        degraded_reason: None,
                        degradation_events: 0,
                        queries: 320,
                        flags: 100,
                        band_hits: 12,
                        requeries: 48,
                        faults: FaultCounters {
                            multiplies: 1000,
                            faulty: 180,
                            bit_flips: 320,
                        },
                        histogram: ScoreHistogram::from_counts([2; HISTOGRAM_BINS]),
                        energy_uj: 987.5,
                        last_power_w: Some(6.5),
                        power_target_er: Some(0.15),
                        power_window_queries: 300,
                    },
                },
                ShardCheckpoint {
                    backend: BackendCheckpoint::Down,
                    state: ShardState {
                        seed: 9,
                        generation: 0,
                        supervision: SupervisionRecord {
                            health: ShardHealth::Quarantined,
                            transitions: 2,
                            crashes: 1,
                            drift_events: 0,
                            retries: 1,
                            attempt: 1,
                            next_retry_batch: Some(44),
                            reference_rate: None,
                            window_mark: FaultCounters::default(),
                        },
                        degraded_reason: Some("chaos kill".to_string()),
                        degradation_events: 0,
                        queries: 310,
                        flags: 90,
                        band_hits: 0,
                        requeries: 0,
                        faults: FaultCounters {
                            multiplies: 800,
                            faulty: 140,
                            bit_flips: 250,
                        },
                        histogram: ScoreHistogram::from_counts([1; HISTOGRAM_BINS]),
                        energy_uj: 0.0,
                        last_power_w: None,
                        power_target_er: None,
                        power_window_queries: 0,
                    },
                },
            ],
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_identically() {
        let checkpoint = sample_checkpoint();
        let bytes = checkpoint.encode();
        let back = ServiceCheckpoint::decode(&bytes).expect("round trip");
        assert_eq!(back, checkpoint);
    }

    /// The sample checkpoint encoded under another format version, with
    /// its trailing checksum recomputed so only the version check can
    /// reject it.
    fn encoded_with_version(version: u16) -> Vec<u8> {
        let mut bytes = sample_checkpoint().encode();
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        let body_len = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn foreign_and_versioned_bytes_are_rejected_with_typed_errors() {
        assert_eq!(
            ServiceCheckpoint::decode(b"JSON{not a checkpoint}"),
            Err(CheckpointError::BadMagic)
        );
        // An empty input is indistinguishable from a torn-off prefix of a
        // real checkpoint, so it reports truncation rather than bad magic.
        assert_eq!(
            ServiceCheckpoint::decode(b""),
            Err(CheckpointError::Truncated)
        );
        // A future format and the previous one (version 3 still carried
        // the injector snapshot) are both rejected by version, typed.
        for version in [0x2a, 3] {
            assert_eq!(
                ServiceCheckpoint::decode(&encoded_with_version(version)),
                Err(CheckpointError::UnsupportedVersion(version))
            );
        }
    }

    #[test]
    fn journal_with_an_unreadable_checkpoint_version_fails_recovery() {
        let path = TempJournal::new("journal-version");
        {
            let mut journal = StateJournal::create(&path).expect("create");
            let old = encoded_with_version(CHECKPOINT_VERSION - 1);
            journal
                .append_record(RECORD_CHECKPOINT, &old)
                .expect("checkpoint");
            journal
                .append_commit(BatchCommit {
                    batch: 40,
                    stream_pos: 656,
                    checksum: 7,
                })
                .expect("commit");
        }
        // The frame is intact, so this is not a torn tail: recovery must
        // refuse the journal rather than report it as empty.
        let err = StateJournal::recover(&path).expect_err("old version rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains(&format!("format version {}", CHECKPOINT_VERSION - 1)),
            "{err}"
        );
    }

    #[test]
    fn truncation_and_corruption_never_panic() {
        let bytes = sample_checkpoint().encode();
        // Every prefix fails typed, never panics.
        for cut in 0..bytes.len() {
            assert!(
                ServiceCheckpoint::decode(&bytes[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
        // Any single flipped byte is caught by the trailing checksum (or a
        // structural check).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x41;
            assert!(
                ServiceCheckpoint::decode(&bad).is_err(),
                "flip at {i} decoded"
            );
        }
    }

    #[test]
    fn journal_recovers_checkpoint_and_commits_and_discards_torn_tail() {
        let path = TempJournal::new("journal-test");
        let checkpoint = sample_checkpoint();
        {
            let mut journal = StateJournal::create(&path).expect("create");
            journal.append_checkpoint(&checkpoint).expect("checkpoint");
            for batch in 40..43u64 {
                journal
                    .append_commit(BatchCommit {
                        batch,
                        stream_pos: (batch + 1) * 16,
                        checksum: batch * 31,
                    })
                    .expect("commit");
            }
        }
        let clean = StateJournal::recover(&path).expect("recover");
        assert_eq!(clean.checkpoint.as_ref(), Some(&checkpoint));
        assert_eq!(clean.commits.len(), 3);
        assert_eq!(clean.last_committed_batch(), Some(42));
        assert_eq!(clean.torn_bytes, 0);

        // Tear the final record mid-append: every truncation point of the
        // last frame must recover to the first two commits.
        let full = std::fs::read(&path).expect("read");
        let last_frame = RECORD_OVERHEAD + BATCH_COMMIT_LEN;
        for torn in 1..=last_frame {
            std::fs::write(&path, &full[..full.len() - torn]).expect("truncate");
            let salvaged = StateJournal::recover(&path).expect("recover torn");
            assert_eq!(
                salvaged.checkpoint.as_ref(),
                Some(&checkpoint),
                "torn {torn}"
            );
            assert_eq!(salvaged.commits.len(), 2, "torn {torn}");
            assert_eq!(
                salvaged.torn_bytes as usize,
                last_frame - torn,
                "torn {torn}"
            );
        }

        // A flipped byte inside the tail record likewise ends the scan.
        let mut rotted = full.clone();
        let tail_start = rotted.len() - last_frame;
        rotted[tail_start + 7] ^= 0x10;
        std::fs::write(&path, &rotted).expect("rot");
        let salvaged = StateJournal::recover(&path).expect("recover rotted");
        assert_eq!(salvaged.commits.len(), 2);
        assert_eq!(salvaged.torn_bytes as usize, last_frame);

        // A later checkpoint supersedes earlier commits.
        std::fs::write(&path, &full).expect("restore file");
        {
            let mut journal = StateJournal::open_append(&path).expect("append");
            journal
                .append_checkpoint(&checkpoint)
                .expect("checkpoint 2");
            journal
                .append_commit(BatchCommit {
                    batch: 43,
                    stream_pos: 704,
                    checksum: 9,
                })
                .expect("commit 4");
        }
        let resumed = StateJournal::recover(&path).expect("recover resumed");
        assert_eq!(resumed.commits.len(), 1);
        assert_eq!(resumed.last_committed_batch(), Some(43));

        // A missing file is an empty journal, not an error.
        std::fs::remove_file(&path).expect("remove");
        let empty = StateJournal::recover(&path).expect("recover missing");
        assert_eq!(empty.checkpoint, None);
        assert!(empty.commits.is_empty());
        assert_eq!(empty.torn_bytes, 0);
    }
}
