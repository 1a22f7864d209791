//! Sharded continuous monitoring: serving a query stream at scale.
//!
//! The paper deploys a Stochastic-HMD as a *continuous* monitor — one
//! detection per period, voltage control owned by the TEE (§IX). A single
//! detector replica caps throughput at one inference at a time, so a
//! production deployment shards the stream across a pool of
//! [`StochasticHmd`] replicas, one per core the defender dedicates to
//! monitoring. [`MonitoringService`] is that pool:
//!
//! - **per-query seeds** come from [`crate::exec::derive_seed`] twice
//!   over: the master seed, shard index, and calibration generation yield
//!   a shard seed, and the shard seed plus the query's lifetime stream
//!   position yield the seed of that query's fault stream. Every verdict
//!   is therefore a pure function of (shard state at the batch boundary,
//!   stream position) — replicas draw statistically independent fault
//!   streams, the whole service replays bit-for-bit from one seed, and
//!   queries within a batch are embarrassingly parallel. Restarting a
//!   fresh geometric fault stream per query preserves the exact
//!   Bernoulli(er)-per-multiplication law because the geometric
//!   inter-fault gap is memoryless;
//! - **lock-free fan-out**: queries are assigned to shards by their
//!   position in the stream (`index mod shards`, re-routed to the serving
//!   set by the same arithmetic when a shard is quarantined). The batch's
//!   verdict vector is allocated once and cut into contiguous *query
//!   ranges*, which workers claim through [`crate::exec`]'s one claim loop
//!   ([`crate::exec::parallel_for_each`]), extracting trace features and
//!   scoring straight into the range's verdict slots against shared `&`
//!   shard state with per-worker scratch (kept by the service across
//!   batches, one per worker), fault streams, and telemetry accumulators;
//!   no worker ever mutates a shard. Verdicts therefore land in stream
//!   order as they are answered, and per-shard telemetry deltas
//!   (additive, order-independent) fold on the main thread, so serial and
//!   N-thread execution produce bit-identical verdicts, scores, checksums,
//!   and telemetry;
//! - **ingestion validation**: a query whose feature width mismatches the
//!   deployed model, or whose features are NaN/infinite, is *rejected* at
//!   the door with a [`QueryDisposition::Rejected`] verdict instead of
//!   panicking inside a worker — one poison query costs exactly one
//!   verdict, never the shard;
//! - **graceful degradation**: when calibration cannot deliver the target
//!   error rate for a shard (device freezes first, re-calibration fails
//!   mid-stream), the shard falls back to the *baseline* detector at
//!   nominal voltage and the [`crate::telemetry`] layer records the
//!   degradation — the service keeps answering instead of aborting, it
//!   just loses the moving-target defense on that shard until a later
//!   [`MonitoringService::recalibrate`] succeeds;
//! - **supervision** ([`MonitoringService::supervised`]): a deployment
//!   under a [`Supervisor`] steps a thermal world model
//!   ([`shmd_volt::environment`]) plus an optional seeded
//!   [`crate::supervisor::ChaosPlan`] at every supervision point — a
//!   shard whose operating point crosses the freeze threshold *crashes*
//!   and is quarantined (traffic re-routed, deterministic retries with
//!   exponential backoff, restart under a fresh generation seed), and a
//!   watchdog compares the online delivered-error-rate estimate against
//!   its post-calibration reference to trigger recalibration on drift.
//!   Supervision cost is amortized over a configurable cadence
//!   ([`SupervisorConfig::supervision_cadence`], default every batch):
//!   at each point the supervisor processes the scripted-kill window
//!   accumulated since the previous point, so no chaos event is lost.
//!   The control plane lives in [`crate::supervisor`]: this module calls
//!   its tick before every batch, on the main thread, as a function of
//!   the batch index, so chaos runs replay bit-identically at any thread
//!   count.
//!
//! The `serve_bench` binary replays a generated dataset through this
//! engine and records throughput plus the thread-invariance checksum in
//! `BENCH_3.json`; `chaos_bench` drives a supervised pool through a
//! scripted crash/drift schedule into `BENCH_4.json`; the
//! `monitoring_service` and `chaos_recovery` examples walk the APIs.

// The ingest path takes bytes-derived feature vectors from outside the
// process (see `crate::daemon`): no unwrap/expect may survive here.
// Unchecked indexing *is* used on internally-constructed buffers (range
// claims, shard vectors) where the index is arithmetic over lengths this
// module itself established — see DESIGN.md §14 for why the indexing
// gate is scoped to the byte-decoding modules instead.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::baseline::BaselineHmd;
use crate::checkpoint::{
    BackendCheckpoint, BatchCommit, RestoreError, ServiceCheckpoint, ShardCheckpoint, ShardState,
    StateJournal,
};
use crate::deploy::{majority_settled, DetectionPolicy};
use crate::detector::{Detector, Label};
use crate::exec::{derive_seed, hardware_threads, parallel_for_each, ExecConfig};
use crate::stochastic::StochasticHmd;
use crate::supervisor::{ShardHealth, Supervisor, SupervisorConfig};
use crate::telemetry::{FaultCounters, ScoreHistogram, TelemetrySnapshot};
use shmd_ann::network::BatchScratch;
use shmd_ml::anomaly::AnomalyScorer;
use shmd_power::cmos::CmosPowerModel;
use shmd_power::latency::LatencyModel;
use shmd_volt::calibration::{CalibrationCurve, CalibrationError};
use shmd_volt::fault::BatchFaultStream;
use shmd_volt::voltage::{Millivolts, NOMINAL_CORE_VOLTAGE};
use shmd_workload::features::{FeatureSpec, FEATURE_DIM};
use shmd_workload::trace::Trace;
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::time::Instant;

/// Experiment tag mixed into every shard-seed derivation, so a service and
/// an experiment sharing a master seed never share RNG streams.
const SERVE_TAG: u64 = 0x5e7e;

/// Tag mixed into every per-query fault-stream seed derivation (over the
/// shard seed and the query's stream position), so query streams never
/// collide with shard-level derivations.
const QUERY_TAG: u64 = 0x09e4;

/// Tag mixed into every re-query fault-stream seed derivation (over the
/// shard seed and the query's stream position), so ensemble re-query
/// draws never overlap the primary scoring stream at the same position.
const REQUERY_TAG: u64 = 0x7e9e;

/// Smallest query range a worker claims in one go. Claims below this
/// would spend more time on the claim than on inference.
const MIN_CLAIM: usize = 32;

/// Folded into the verdict checksum in place of a score for rejected
/// queries, so a rejection perturbs the checksum distinctly from any
/// served verdict.
const REJECTED_QUERY_MARK: u64 = 0x07e1_ec7e_dbad_feed;

/// Number of recent per-batch latencies retained for telemetry. A
/// continuous monitor runs indefinitely, so latency history is a sliding
/// window — older batches age out instead of growing without bound.
pub const BATCH_LATENCY_WINDOW: usize = 1024;

/// Widest lane width the batched structure-of-arrays inference path
/// supports.
pub const MAX_LANES: usize = 8;

/// The lane widths the batched inference path is compiled for: one query
/// at a time, or [`MAX_LANES`]. [`ServeConfig::lanes`] rounds down to the
/// nearest of them at deployment (0 rounds up to 1).
pub const LANE_WIDTHS: [usize; 2] = [1, MAX_LANES];

/// Default batched-inference lane width: eight `i64` accumulator lanes
/// keep the inner MAC loop inside a couple of cache lines while amortizing
/// one weight load (and one fault-gap countdown sweep) across eight
/// queries.
pub const DEFAULT_LANES: usize = MAX_LANES;

/// Most ensemble replicas one re-query will ever draw.
/// [`RequeryConfig::replicas`] is clamped into `1..=MAX_REQUERY_REPLICAS`
/// once, when a service is deployed or restored, which keeps the vote
/// tally inside a `u8` (1 primary + replicas + optional anomaly vote ≤ 252)
/// and bounds the worst-case inference amplification a mis-set config can
/// cause.
pub const MAX_REQUERY_REPLICAS: usize = 250;

/// Uncertainty-aware re-query policy: verdicts whose policy-consistent
/// score lands within `band` of the decision threshold are re-scored by a
/// small ensemble — `replicas` fresh stochastic draws on a dedicated
/// re-query fault stream, plus the service's installed anomaly scorer
/// when one is present (see
/// [`MonitoringService::install_anomaly_scorer`]) — and the final label
/// is the strict majority of all votes. Replicas are drawn only until
/// the undrawn ones can no longer change that majority.
///
/// The re-query stream is seeded from `(shard seed, REQUERY_TAG,
/// stream position)`, so the whole mechanism stays a pure function of
/// seeds: serial and N-thread runs, every lane width, and
/// checkpoint/restore all produce bit-identical re-queried verdicts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RequeryConfig {
    /// Half-width of the confidence band around the decision threshold.
    /// Scores with `|score - threshold| <= band` trigger a re-query;
    /// `band <= 0` disables re-query in all but name.
    pub band: f64,
    /// Most fresh stochastic draws per re-query, clamped into
    /// `1..=`[`MAX_REQUERY_REPLICAS`] when a service is deployed or
    /// restored with this policy.
    pub replicas: usize,
}

impl RequeryConfig {
    /// A re-query policy with `band` around the threshold and the given
    /// replica count.
    pub fn new(band: f64, replicas: usize) -> RequeryConfig {
        RequeryConfig { band, replicas }
    }

    /// The replica count actually used: clamped into
    /// `1..=`[`MAX_REQUERY_REPLICAS`].
    pub fn effective_replicas(&self) -> usize {
        self.replicas.clamp(1, MAX_REQUERY_REPLICAS)
    }
}

/// Configuration of a [`MonitoringService`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Number of detector replicas (shards). Clamped to at least 1.
    pub shards: usize,
    /// Maximum queries per batch when streaming. Clamped to at least 1.
    pub batch_size: usize,
    /// Multiplication error rate each shard's calibration targets. Must be
    /// a finite probability below 1 ([`ServeError::InvalidTargetErrorRate`]).
    pub target_error_rate: f64,
    /// Per-query verdict aggregation policy.
    pub policy: DetectionPolicy,
    /// Master seed; every shard seed is derived from it.
    pub seed: u64,
    /// Worker pool for batch processing. Affects wall-clock only, never
    /// results.
    pub exec: ExecConfig,
    /// Lane width of the batched structure-of-arrays inference path: how
    /// many same-shard queries one worker scores simultaneously. Rounded
    /// down to one of [`LANE_WIDTHS`] at deployment. Like [`ServeConfig::exec`],
    /// this affects wall-clock only, never results — every lane's fault
    /// stream is seeded from its query's stream position alone.
    pub lanes: usize,
    /// Uncertainty-aware re-query policy. `None` (the default) answers
    /// every query from its primary draws alone; `Some` re-scores
    /// borderline verdicts across an ensemble (see [`RequeryConfig`]).
    pub requery: Option<RequeryConfig>,
}

impl ServeConfig {
    /// A service of `shards` replicas at the paper's er = 0.1 operating
    /// point: batches of 1024, single-detection policy, seed 42, auto
    /// thread count. The batch is the parallelism *and* supervision
    /// granularity — workers claim query ranges inside it, and the
    /// supervisor only runs between batches — so the default is sized to
    /// amortize both.
    pub fn new(shards: usize) -> ServeConfig {
        ServeConfig {
            shards,
            batch_size: 1024,
            target_error_rate: 0.1,
            policy: DetectionPolicy::Single,
            seed: 42,
            exec: ExecConfig::auto(),
            lanes: DEFAULT_LANES,
            requery: None,
        }
    }

    /// Sets the calibration target error rate.
    #[must_use]
    pub fn with_target_error_rate(mut self, er: f64) -> ServeConfig {
        self.target_error_rate = er;
        self
    }

    /// Sets the verdict aggregation policy.
    #[must_use]
    pub fn with_policy(mut self, policy: DetectionPolicy) -> ServeConfig {
        self.policy = policy;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> ServeConfig {
        self.seed = seed;
        self
    }

    /// Sets the streaming batch size.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> ServeConfig {
        self.batch_size = batch_size;
        self
    }

    /// Sets the worker pool configuration.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecConfig) -> ServeConfig {
        self.exec = exec;
        self
    }

    /// Sets the batched-inference lane width (rounded down to one of
    /// [`LANE_WIDTHS`] at deployment).
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> ServeConfig {
        self.lanes = lanes;
        self
    }

    /// Enables uncertainty-aware re-query of borderline verdicts.
    #[must_use]
    pub fn with_requery(mut self, requery: RequeryConfig) -> ServeConfig {
        self.requery = Some(requery);
        self
    }
}

/// Error deploying or reconfiguring a [`MonitoringService`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServeError {
    /// `target_error_rate` is NaN, negative, or ≥ 1 — not a rate any
    /// calibration can deliver. Caught at [`MonitoringService::deploy`]
    /// instead of deep inside a shard's calibration chain.
    InvalidTargetErrorRate(f64),
    /// Supervisor construction failed to calibrate the configured device.
    Calibration(CalibrationError),
    /// An anomaly scorer's fitted feature width does not match the
    /// deployed model's input layer
    /// ([`MonitoringService::install_anomaly_scorer`]).
    AnomalyDimMismatch {
        /// Width the scorer was fitted on.
        got: usize,
        /// Width the deployed model expects.
        expected: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidTargetErrorRate(er) => {
                write!(f, "target error rate {er} is not a probability below 1")
            }
            ServeError::Calibration(e) => write!(f, "supervisor calibration failed: {e}"),
            ServeError::AnomalyDimMismatch { got, expected } => {
                write!(
                    f,
                    "anomaly scorer width {got} does not match model input {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CalibrationError> for ServeError {
    fn from(e: CalibrationError) -> ServeError {
        ServeError::Calibration(e)
    }
}

/// Why a query was rejected at ingestion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The feature vector's width does not match the deployed model's
    /// input layer.
    WidthMismatch {
        /// Width of the offending query.
        got: usize,
        /// Width the deployed model expects.
        expected: usize,
    },
    /// A feature value is NaN or infinite.
    NonFiniteFeature {
        /// Index of the first offending feature.
        index: usize,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::WidthMismatch { got, expected } => {
                write!(
                    f,
                    "feature width {got} does not match model input {expected}"
                )
            }
            RejectReason::NonFiniteFeature { index } => {
                write!(f, "feature {index} is not finite")
            }
        }
    }
}

/// Whether a verdict came from a detector or from ingestion validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryDisposition {
    /// A shard scored the query.
    Served,
    /// Ingestion validation rejected the query before it reached any
    /// shard; the score is 0 and the label benign by convention.
    Rejected(RejectReason),
}

/// How sure the service is about a verdict, and whether the
/// uncertainty-aware ensemble re-queried it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerdictConfidence {
    /// The primary score sat outside the configured confidence band (or
    /// re-query is disabled): the verdict is the plain thresholding of
    /// the policy-consistent score.
    Confident,
    /// The primary score landed inside the confidence band; the label is
    /// the strict majority over the re-query ensemble (ties resolve
    /// benign). The score field still reports the *primary* order
    /// statistic, so re-query can flip `label` relative to
    /// `score >= threshold`. Replicas stop being drawn once the label is
    /// settled, so the counts below cover the votes actually cast.
    Requeried {
        /// Votes cast: 1 primary, 1 if an anomaly scorer is installed,
        /// and the replicas drawn before the label settled (at most
        /// [`RequeryConfig::replicas`]).
        votes: u8,
        /// Votes that said malware.
        positives: u8,
    },
}

impl VerdictConfidence {
    /// Whether the verdict went through ensemble re-query.
    pub fn is_requeried(&self) -> bool {
        matches!(self, VerdictConfidence::Requeried { .. })
    }
}

/// One answered query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Verdict {
    /// Position of the query in the service's lifetime stream (0-based).
    pub query: u64,
    /// Shard that answered it (for a rejected query: the shard it would
    /// have been routed to).
    pub shard: usize,
    /// Policy-consistent score (the statistic whose thresholding matches
    /// the verdict — see [`crate::deploy::PolicyDetector`]).
    pub score: f64,
    /// The verdict.
    pub label: Label,
    /// Served by a detector, or rejected at ingestion.
    pub disposition: QueryDisposition,
    /// Confident primary verdict, or re-queried across the ensemble.
    pub confidence: VerdictConfidence,
}

impl Verdict {
    /// A served verdict from a shard's `(score, label, confidence)`.
    fn served(query: u64, shard: usize, answer: (f64, Label, VerdictConfidence)) -> Verdict {
        let (score, label, confidence) = answer;
        Verdict {
            query,
            shard,
            score,
            label,
            disposition: QueryDisposition::Served,
            confidence,
        }
    }

    /// Whether ingestion validation rejected this query.
    pub fn is_rejected(&self) -> bool {
        matches!(self.disposition, QueryDisposition::Rejected(_))
    }

    /// Whether the uncertainty-aware ensemble re-queried this verdict.
    pub fn is_requeried(&self) -> bool {
        self.confidence.is_requeried()
    }
}

/// One worker's accumulated telemetry for one shard over the ranges it
/// claimed this batch. Every field is additive and order-independent, so
/// deltas from any number of workers fold to the same shard totals.
#[derive(Clone, Default)]
struct ShardDelta {
    queries: u64,
    flags: u64,
    /// Verdicts whose primary score landed inside the confidence band.
    band_hits: u64,
    /// Ensemble replica draws spent on re-queries.
    requeries: u64,
    faults: FaultCounters,
    histogram: ScoreHistogram,
}

impl ShardDelta {
    fn is_empty(&self) -> bool {
        self.queries == 0
    }

    /// Counts one served verdict.
    fn record(&mut self, score: f64, label: Label) {
        self.queries += 1;
        self.flags += u64::from(label.is_malware());
        self.histogram.record(score);
    }
}

/// One detector replica and its durable record. A shard's id is its
/// position in [`MonitoringService`]'s shard list. The supervision tick
/// ([`Supervisor`]) reads and updates the record directly, but swaps or
/// retunes the model only through the methods below.
///
/// Health alone says what a shard serves from: a `Healthy`, `Drifting` or
/// `Recovering` shard holds its stochastic replica; a `Degraded` one holds
/// no model and answers from the service's baseline; a `Crashed` or
/// `Quarantined` one holds no model and receives no queries.
pub(crate) struct Shard {
    model: Option<Box<StochasticHmd>>,
    pub(crate) state: ShardState,
}

impl Shard {
    /// Folds one worker's per-batch telemetry delta into the shard.
    fn fold_delta(&mut self, delta: &ShardDelta) {
        let state = &mut self.state;
        state.queries += delta.queries;
        state.flags += delta.flags;
        state.band_hits += delta.band_hits;
        state.requeries += delta.requeries;
        state.faults.merge(&delta.faults);
        state.histogram.merge(&delta.histogram);
    }

    /// Accrues modelled detection energy for the `queries` this shard
    /// answered in one batch and the `requeries` replica draws they
    /// spent: queries × detections per query × per-detection latency ×
    /// busy core power at the shard's live offset. A batch that touched
    /// the shard not at all leaves it alone.
    fn accrue_energy(
        &mut self,
        queries: u64,
        requeries: u64,
        per_detection_us: f64,
        detections: usize,
        power_model: &CmosPowerModel,
    ) {
        // Every ensemble replica draw is a full inference at the shard's
        // live offset — the honest energy price of the re-query
        // counter-measure. (The anomaly scorer's vote is a handful of
        // flops against the model's MACs; below the model's resolution.)
        if queries == 0 && requeries == 0 {
            return;
        }
        let (offset, k) = match &self.model {
            Some(hmd) => (hmd.offset().unwrap_or(Millivolts::new(0)), detections),
            // A degraded shard serves the baseline at nominal voltage, and
            // its k draws collapse to one score — it pays exactly one
            // inference per query.
            None => (Millivolts::new(0), 1),
        };
        let power_w = power_model.core_power_w(NOMINAL_CORE_VOLTAGE.with_offset(offset));
        // W × µs = µJ.
        self.state.energy_uj +=
            (queries as f64 * k as f64 + requeries as f64) * per_detection_us * power_w;
        self.state.last_power_w = Some(power_w);
    }

    /// The live model of a stochastic shard that runs at an undervolt
    /// offset, with that offset: what the supervision tick retunes,
    /// watches and retargets. `None` for a shard out of the serving set,
    /// on the baseline, or without an offset.
    pub(crate) fn live_model(&mut self) -> Option<(Millivolts, &mut StochasticHmd)> {
        let hmd = self.model.as_deref_mut()?;
        Some((hmd.offset()?, hmd))
    }

    /// Crashes a serving shard: quarantined, its model dropped and its
    /// first retry due at batch `retry_at`, or, with no retry (the
    /// pool's last serving shard), failed over to the baseline so the
    /// service never stops answering.
    pub(crate) fn crash(&mut self, cause: String, retry_at: Option<u64>) {
        let record = &mut self.state.supervision;
        record.transition(ShardHealth::Crashed);
        record.crashes += 1;
        match retry_at {
            None => {
                let reason = format!("{cause}; last serving shard failed over to baseline");
                self.fail_over(reason);
            }
            Some(due) => {
                record.transition(ShardHealth::Quarantined);
                record.attempt = 0;
                record.next_retry_batch = Some(due);
                self.state.degraded_reason = Some(cause);
                self.model = None;
            }
        }
    }

    /// Fails the shard over to the baseline at nominal voltage: it keeps
    /// answering, without the moving-target defense, until a restart or
    /// recalibration succeeds. The retry schedule is the caller's to
    /// settle.
    pub(crate) fn fail_over(&mut self, reason: String) {
        self.model = None;
        let state = &mut self.state;
        state.supervision.transition(ShardHealth::Degraded);
        state.degraded_reason = Some(reason);
        state.degradation_events += 1;
        state.supervision.reset_watchdog(state.faults);
    }

    /// Swaps the shard onto a freshly calibrated stochastic model under
    /// its next generation seed. Returns `false` (leaving the shard
    /// untouched) when the fault model cannot be built at the offset.
    pub(crate) fn restart(
        &mut self,
        id: usize,
        baseline: &BaselineHmd,
        curve: &CalibrationCurve,
        offset: Millivolts,
        master_seed: u64,
    ) -> bool {
        let generation = self.state.generation + 1;
        let seed = shard_seed(master_seed, id, generation);
        match StochasticHmd::at_offset(baseline, curve, offset, seed) {
            Ok(hmd) => {
                self.model = Some(Box::new(hmd));
                self.state.generation = generation;
                self.state.seed = seed;
                self.state.degraded_reason = None;
                true
            }
            Err(_) => false,
        }
    }
}

/// The seed of shard `id` at calibration `generation`.
fn shard_seed(master_seed: u64, id: usize, generation: u64) -> u64 {
    derive_seed(master_seed, &[SERVE_TAG, id as u64, generation])
}

/// Validates one query's features against the deployed model.
fn validate_features(features: &[f32], expected: usize) -> Result<(), RejectReason> {
    if features.len() != expected {
        return Err(RejectReason::WidthMismatch {
            got: features.len(),
            expected,
        });
    }
    if let Some(index) = features.iter().position(|f| !f.is_finite()) {
        return Err(RejectReason::NonFiniteFeature { index });
    }
    Ok(())
}

/// The queries of one batch: traces, whose features the workers extract
/// into their own row buffers, or feature vectors extracted elsewhere.
#[derive(Clone, Copy)]
enum BatchInput<'a> {
    Traces(&'a [&'a Trace], FeatureSpec),
    Features(&'a [Vec<f32>]),
}

impl BatchInput<'_> {
    fn len(&self) -> usize {
        match self {
            BatchInput::Traces(traces, _) => traces.len(),
            BatchInput::Features(features) => features.len(),
        }
    }
}

/// Everything a batch worker needs from the main thread, by shared
/// reference: the queries, the shards and the service-wide policies they
/// are scored under, and the serving set. Bundled so the per-range worker
/// ([`batch_worker`]) has one parameter instead of ten. Workers only read
/// the shards: all mutable shard state (counters, histogram, fault
/// totals) is updated on the main thread from the workers' additive
/// [`ShardDelta`]s at the batch boundary.
struct BatchCtx<'a> {
    input: BatchInput<'a>,
    shards: &'a [Shard],
    baseline: &'a BaselineHmd,
    /// Service-wide re-query policy (`None` = re-query disabled).
    requery: Option<RequeryConfig>,
    /// Service-wide anomaly scorer, voting in every re-query when
    /// installed.
    anomaly: Option<&'a AnomalyScorer>,
    /// The serving set's shard ids, ascending.
    serving: &'a [usize],
    base: u64,
    policy: DetectionPolicy,
    lanes: usize,
    input_dim: usize,
}

impl BatchCtx<'_> {
    /// Resolves a stochastic shard's primary score into a final label: a
    /// confident thresholding outside the band, or a strict-majority vote
    /// over the re-query ensemble inside it. `shard` is the target shard's
    /// seed and model.
    ///
    /// The ensemble is the primary vote, the anomaly scorer's vote when one
    /// is installed, and up to `replicas` fresh scores drawn in turn from a
    /// one-lane fault stream seeded by `(shard seed, REQUERY_TAG,
    /// position)` — disjoint from the primary QUERY_TAG stream, but equally
    /// a pure function of the stream position. Ties resolve benign (strict
    /// majority), matching the service's bias toward false negatives over
    /// alert floods at the boundary.
    ///
    /// The anomaly vote is taken first, and drawing stops as soon as the
    /// remaining replicas can no longer change the label (see
    /// [`majority_settled`]). The label is therefore the one all `replicas`
    /// draws would give, while `requeries`, the fault tallies and
    /// `Requeried { votes, positives }` count only the votes cast.
    fn resolve(
        &self,
        (shard_seed, hmd): (u64, &StochasticHmd),
        position: u64,
        features: &[f32],
        score: f64,
        scratch: &mut BatchScratch<1>,
        delta: &mut ShardDelta,
    ) -> (Label, VerdictConfidence) {
        let threshold = Detector::threshold(hmd);
        let primary = score >= threshold;
        let Some(cfg) = self.requery else {
            return (Label::from_bool(primary), VerdictConfidence::Confident);
        };
        // `<=` so a NaN score (never in-band) stays on the confident path.
        let in_band = (score - threshold).abs() <= cfg.band;
        if !in_band {
            return (Label::from_bool(primary), VerdictConfidence::Confident);
        }
        delta.band_hits += 1;
        // `MonitoringService::assemble` clamped the count to at most 250.
        let replicas = cfg.replicas as u8;
        let anomaly = self.anomaly.map(|a| a.is_anomalous(features));
        let total = 1 + replicas + u8::from(anomaly.is_some());
        let mut votes = 1 + u8::from(anomaly.is_some());
        let mut positives = u8::from(primary) + u8::from(anomaly == Some(true));
        let seed = derive_seed(shard_seed, &[REQUERY_TAG, position]);
        let mut stream = BatchFaultStream::new(hmd.fault_model(), [seed]);
        let label = loop {
            if let Some(label) = majority_settled(positives.into(), votes.into(), total.into()) {
                break label;
            }
            let [replica] = hmd.score_features_batch_with(&[features], &mut stream, scratch);
            votes += 1;
            positives += u8::from(replica >= threshold);
            delta.requeries += 1;
        };
        delta.faults.merge(&stream.tally(0));
        (label, VerdictConfidence::Requeried { votes, positives })
    }

    /// Scores `LANES` stochastic queries of one shard (its seed and model)
    /// simultaneously: one structure-of-arrays forward pass per policy
    /// draw, telemetry accumulated into `delta`.
    ///
    /// Lane `l`'s fault stream is seeded from the shard seed and the
    /// query's lifetime stream position (`derive_seed(shard_seed,
    /// [QUERY_TAG, position])`) and shared across all `k` policy draws,
    /// and the batched datapath advances each lane in the same
    /// per-multiplication order whatever its neighbours do — so a verdict
    /// depends only on (shard state, position), never on which worker
    /// claimed the range, which queries share its block, or the lane
    /// width. All `k` detections are always performed so the score is the
    /// full order statistic; the verdict is its thresholding, which by
    /// policy-consistency equals the sequential `decide` outcome, unless
    /// the score lands in the confidence band and [`BatchCtx::resolve`]
    /// re-queries it on a stream seeded by its own position.
    #[allow(clippy::too_many_arguments)]
    fn answer_block<const LANES: usize>(
        &self,
        shard: (u64, &StochasticHmd),
        positions: &[u64; LANES],
        features: &[&[f32]; LANES],
        scratch: &mut BatchScratch<LANES>,
        requery_scratch: &mut BatchScratch<1>,
        lane_draws: &mut Vec<f64>,
        delta: &mut ShardDelta,
    ) -> [(f64, Label, VerdictConfidence); LANES] {
        let (seed, hmd) = shard;
        let k = self.policy.detections();
        let seeds: [u64; LANES] =
            std::array::from_fn(|l| derive_seed(seed, &[QUERY_TAG, positions[l]]));
        let mut stream = BatchFaultStream::new(hmd.fault_model(), seeds);
        lane_draws.clear();
        lane_draws.resize(k * LANES, 0.0);
        for d in 0..k {
            let plane = hmd.score_features_batch_with(features, &mut stream, scratch);
            for (l, score) in plane.into_iter().enumerate() {
                lane_draws[l * k + d] = score;
            }
        }
        for l in 0..LANES {
            delta.faults.merge(&stream.tally(l));
        }
        std::array::from_fn(|l| {
            let score = self
                .policy
                .order_statistic(&mut lane_draws[l * k..(l + 1) * k]);
            let (label, confidence) = self.resolve(
                shard,
                positions[l],
                features[l],
                score,
                requery_scratch,
                delta,
            );
            delta.record(score, label);
            (score, label, confidence)
        })
    }
}

/// One worker's buffers. The service keeps one per worker of the batch
/// fan-out across batches, so a warmed-up batch makes no heap allocation
/// in its workers. Scoped workers end with every batch, so a thread-local
/// would not outlive it. Wall-clock state: every buffer is reset before
/// use and none is checkpointed.
#[derive(Default)]
struct WorkerScratch {
    /// The claimed range's extracted feature rows, [`FEATURE_DIM`] each.
    rows: Vec<f32>,
    /// One-query scratch: per-shard remainders and degraded shards.
    single: BatchScratch<1>,
    /// [`MAX_LANES`]-query block scratch.
    wide: BatchScratch<MAX_LANES>,
    requery: BatchScratch<1>,
    lane_draws: Vec<f64>,
    /// Per target shard, the range slots of its stochastic queries.
    groups: Vec<Vec<usize>>,
    /// Per shard, this worker's telemetry for the batch; reset on the main
    /// thread before the fan-out and folded after it.
    deltas: Vec<ShardDelta>,
}

/// The buffers a batch uses on the main thread and in its workers, kept
/// across batches (see [`WorkerScratch`]).
#[derive(Default)]
struct BatchBuffers {
    /// One per worker of the batch fan-out.
    workers: Vec<WorkerScratch>,
    /// The serving set's shard ids, ascending.
    serving: Vec<usize>,
}

/// Answers one claimed range, the batch's queries `lo..lo + out.len()`,
/// into their verdict slots `out`.
///
/// The range is answered in two stages. First, in stream order, trace
/// queries are extracted into the worker's rows, rejects and
/// baseline/degraded queries are answered in place and stochastic queries
/// are grouped by target shard. Then, at lane width [`MAX_LANES`], each
/// shard's group is scored in blocks of that width via
/// [`BatchCtx::answer_block`], and its remainder (the whole group at
/// width 1) one query at a time through `answer_block::<1>`. Remainders
/// run at width 1 rather than padded into masked lanes, because an 8-lane
/// block with one live lane costs several times a 1-lane block. Every
/// answer is written to its query's own slot, so the verdict sequence (and
/// therefore the running checksum) is oblivious to the regrouping; and
/// because per-query fault streams are seeded by stream position, the
/// verdicts themselves are bit-identical at every width.
fn batch_worker(ctx: &BatchCtx<'_>, scratch: &mut WorkerScratch, lo: usize, out: &mut [Verdict]) {
    let n_shards = ctx.shards.len();
    let WorkerScratch {
        rows,
        single,
        wide,
        requery,
        lane_draws,
        groups,
        deltas,
    } = scratch;
    if let BatchInput::Traces(traces, spec) = ctx.input {
        rows.resize(out.len() * FEATURE_DIM, 0.0);
        let traces = &traces[lo..lo + out.len()];
        for (row, trace) in rows.chunks_exact_mut(FEATURE_DIM).zip(traces) {
            spec.extract_into(trace, row);
        }
    }
    let rows: &[f32] = rows;
    let query = |i: usize| -> &[f32] {
        match ctx.input {
            BatchInput::Traces(..) => &rows[i * FEATURE_DIM..(i + 1) * FEATURE_DIM],
            BatchInput::Features(features) => &features[lo + i],
        }
    };
    for group in groups.iter_mut() {
        group.clear();
    }
    for (i, slot) in out.iter_mut().enumerate() {
        let position = ctx.base + (lo + i) as u64;
        let home = (position % n_shards as u64) as usize;
        let target = if ctx.shards[home].state.supervision.health.is_serving() {
            home
        } else {
            // Deterministic re-route around quarantined shards: still
            // a function of the stream position only.
            ctx.serving[(position % ctx.serving.len() as u64) as usize]
        };
        let features = query(i);
        match validate_features(features, ctx.input_dim) {
            Err(reason) => {
                *slot = Verdict {
                    query: position,
                    shard: target,
                    score: 0.0,
                    label: Label::from_bool(false),
                    disposition: QueryDisposition::Rejected(reason),
                    confidence: VerdictConfidence::Confident,
                }
            }
            Ok(()) if ctx.shards[target].model.is_some() => groups[target].push(i),
            // A serving shard without a model is degraded. The baseline is
            // deterministic: all k draws are one value, so every policy
            // order statistic equals the single score — and re-querying
            // it would only re-produce that value, so the baseline never
            // enters the ensemble.
            Ok(()) => {
                let score = ctx.baseline.score_features_with(features, single);
                let label = Label::from_bool(score >= Detector::threshold(ctx.baseline));
                deltas[target].record(score, label);
                let answer = (score, label, VerdictConfidence::Confident);
                *slot = Verdict::served(position, target, answer);
            }
        }
    }
    for ((target, group), shard) in groups.iter().enumerate().zip(ctx.shards) {
        let Some(hmd) = shard.model.as_deref() else {
            continue; // no model, so no stochastic queries
        };
        let shard = (shard.state.seed, hmd);
        let delta = &mut deltas[target];
        let blocked = if ctx.lanes == MAX_LANES {
            group.len() - group.len() % MAX_LANES
        } else {
            0
        };
        let (blocks, remainder) = group.split_at(blocked);
        for block in blocks.chunks_exact(MAX_LANES) {
            let positions: [u64; MAX_LANES] =
                std::array::from_fn(|l| ctx.base + (lo + block[l]) as u64);
            let lane_features: [&[f32]; MAX_LANES] = std::array::from_fn(|l| query(block[l]));
            let answers = ctx.answer_block(
                shard,
                &positions,
                &lane_features,
                wide,
                requery,
                lane_draws,
                delta,
            );
            for (l, answer) in answers.into_iter().enumerate() {
                out[block[l]] = Verdict::served(positions[l], target, answer);
            }
        }
        for &i in remainder {
            let position = ctx.base + (lo + i) as u64;
            let [answer] = ctx.answer_block(
                shard,
                &[position],
                &[query(i)],
                single,
                requery,
                lane_draws,
                delta,
            );
            out[i] = Verdict::served(position, target, answer);
        }
    }
}

/// A sharded continuous-monitoring service over Stochastic-HMD replicas.
///
/// See the [module docs](crate::serve) for the design; the short version:
/// deterministic sharding by stream position, per-shard derived seeds,
/// parallel batch processing with bit-identical output at any thread
/// count, ingestion validation that contains poison queries, per-shard
/// degradation to the baseline detector when calibration fails, and an
/// optional [`Supervisor`] that crashes, quarantines, recalibrates, and
/// restarts shards as its thermal world model (plus scripted chaos) moves.
pub struct MonitoringService {
    spec: FeatureSpec,
    policy: DetectionPolicy,
    target_error_rate: f64,
    seed: u64,
    batch_size: usize,
    exec: ExecConfig,
    /// Batched-inference lane width, one of [`LANE_WIDTHS`]. A
    /// wall-clock knob like `exec`: verdicts,
    /// checksums, and telemetry are bit-identical at every width, so it
    /// is never checkpointed and [`MonitoringService::restore`] gives it
    /// the default.
    lanes: usize,
    /// Uncertainty-aware re-query policy (`None` = disabled). Part of the
    /// verdict stream's definition, so it *is* checkpointed.
    requery: Option<RequeryConfig>,
    /// Ensemble anomaly scorer voting in re-queries. Immutable model
    /// weights like `baseline`: never checkpointed, re-installed by the
    /// caller after [`MonitoringService::restore`].
    anomaly: Option<AnomalyScorer>,
    /// The unprotected model: the fallback backend, and the template for
    /// supervised rebuilds.
    baseline: BaselineHmd,
    /// Input-layer width, for ingestion validation.
    input_dim: usize,
    supervisor: Option<Supervisor>,
    /// Plain shard state: batch workers only read it through a
    /// [`BatchCtx`], so no lock is needed — all mutation happens on the
    /// main thread between batches.
    shards: Vec<Shard>,
    served: u64,
    batches: u64,
    rejected_queries: u64,
    verdict_checksum: u64,
    /// Sliding window of the last [`BATCH_LATENCY_WINDOW`] batch latencies.
    batch_latency_micros: VecDeque<u64>,
    /// CMOS power model the energy accountant and budget scheduler price
    /// shards against.
    power_model: CmosPowerModel,
    /// Inference latency model (cycle time is voltage-independent on the
    /// paper's platform, so one model covers every operating point).
    latency_model: LatencyModel,
    /// MAC count of the deployed quantized detector, under the repo-wide
    /// `size_bytes / 4` convention.
    macs: usize,
    /// Projected busy-power total over serving shards at the last
    /// power-scheduling tick (`None` before the first tick or without a
    /// budget policy).
    service_power_w: Option<f64>,
    /// Buffers reused by every batch. Wall-clock state like `lanes`:
    /// never checkpointed.
    buffers: BatchBuffers,
}

impl MonitoringService {
    /// Deploys `config.shards` replicas of `baseline` protected at
    /// `config.target_error_rate` on the device described by `curve`.
    ///
    /// Past config validation, deployment is infallible by design: a shard
    /// whose calibration cannot deliver the (valid but unreachable) target
    /// error rate degrades to the baseline detector and the degradation is
    /// recorded in telemetry, instead of failing the whole service.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidTargetErrorRate`] when
    /// `config.target_error_rate` is NaN, negative, or ≥ 1.
    pub fn deploy(
        baseline: &BaselineHmd,
        curve: &CalibrationCurve,
        config: ServeConfig,
    ) -> Result<MonitoringService, ServeError> {
        Self::validate_target(config.target_error_rate)?;
        let target = config.target_error_rate;
        Ok(Self::with_shards(baseline, config, |seed| {
            Self::protected_backend(baseline, curve, target, seed)
        }))
    }

    /// Deploys a *supervised* service: the pool runs inside `supervision`'s
    /// thermal world model (and scripted chaos plan, if any), with shard
    /// offsets chosen by the supervisor's voltage controller. At every
    /// supervision point (every `supervision_cadence` batches, default
    /// every batch) the supervisor steps the environment, crashes and
    /// quarantines shards scripted to die anywhere in the window since
    /// the previous point, retunes live fault models to the physically
    /// delivered error rate, runs the delivered-rate watchdog, and
    /// executes due recovery retries — all as a deterministic function of
    /// the batch index.
    ///
    /// An unreachable (but valid) target clamps at the controller's guard
    /// band rather than degrading: the shards serve stochastic at the
    /// deepest safe offset.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidTargetErrorRate`] for an invalid
    /// target, or [`ServeError::Calibration`] when the supervisor cannot
    /// calibrate the configured device.
    pub fn supervised(
        baseline: &BaselineHmd,
        supervision: SupervisorConfig,
        config: ServeConfig,
    ) -> Result<MonitoringService, ServeError> {
        Self::validate_target(config.target_error_rate)?;
        let supervisor = Supervisor::new(supervision, config.target_error_rate)?;
        let offset = supervisor.controller().offset();
        let curve = supervisor.controller().curve();
        let mut service = Self::with_shards(baseline, config, |seed| {
            StochasticHmd::at_offset(baseline, curve, offset, seed)
                .map_err(|e| format!("fault model failed: {e}"))
        });
        service.supervisor = Some(supervisor);
        Ok(service)
    }

    fn validate_target(er: f64) -> Result<(), ServeError> {
        if !er.is_finite() || !(0.0..1.0).contains(&er) {
            return Err(ServeError::InvalidTargetErrorRate(er));
        }
        Ok(())
    }

    /// The service both deploy paths start from, with `config.shards`
    /// generation-0 shards: each protected by `protect(seed)`, or degraded
    /// to the baseline for the reason it returns.
    fn with_shards(
        baseline: &BaselineHmd,
        config: ServeConfig,
        protect: impl Fn(u64) -> Result<StochasticHmd, String>,
    ) -> MonitoringService {
        let shards = (0..config.shards.max(1))
            .map(|id| {
                let seed = shard_seed(config.seed, id, 0);
                let (model, health, reason) = match protect(seed) {
                    Ok(hmd) => (Some(Box::new(hmd)), ShardHealth::Healthy, None),
                    Err(reason) => (None, ShardHealth::Degraded, Some(reason)),
                };
                Shard {
                    model,
                    state: ShardState::fresh(seed, health, reason),
                }
            })
            .collect();
        Self::assemble(baseline, &config, shards)
    }

    /// The one constructor behind deployment and restore: `shards` serving
    /// `baseline` under `config`, at stream position 0, unsupervised. The
    /// re-query replica count is clamped here and nowhere else, so a
    /// restored service checkpoints the count its original did.
    fn assemble(baseline: &BaselineHmd, config: &ServeConfig, shards: Vec<Shard>) -> Self {
        MonitoringService {
            spec: baseline.spec(),
            policy: config.policy,
            target_error_rate: config.target_error_rate,
            seed: config.seed,
            batch_size: config.batch_size.max(1),
            exec: config.exec,
            lanes: LANE_WIDTHS
                .into_iter()
                .rev()
                .find(|&w| w <= config.lanes)
                .unwrap_or(1),
            requery: config
                .requery
                .map(|r| RequeryConfig::new(r.band, r.effective_replicas())),
            anomaly: None,
            baseline: baseline.clone(),
            input_dim: baseline.quantized().input_dim(),
            supervisor: None,
            shards,
            served: 0,
            batches: 0,
            rejected_queries: 0,
            verdict_checksum: 0,
            batch_latency_micros: VecDeque::with_capacity(BATCH_LATENCY_WINDOW),
            power_model: CmosPowerModel::i7_5557u(),
            latency_model: LatencyModel::i7_5557u(),
            macs: baseline.quantized().size_bytes() / 4,
            service_power_w: None,
            buffers: BatchBuffers::default(),
        }
    }

    /// Attempts the full calibration chain for one shard: target error
    /// rate → undervolt offset → fault model → protected detector.
    fn protected_backend(
        baseline: &BaselineHmd,
        curve: &CalibrationCurve,
        target_er: f64,
        seed: u64,
    ) -> Result<StochasticHmd, String> {
        let offset = curve
            .offset_for_error_rate(target_er)
            .map_err(|e| format!("calibration failed: {e}"))?;
        StochasticHmd::at_offset(baseline, curve, offset, seed)
            .map_err(|e| format!("fault model failed: {e}"))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Queries consumed from the stream (served and rejected alike — every
    /// query advances the stream position).
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Queries rejected at ingestion so far.
    pub fn rejected_queries(&self) -> u64 {
        self.rejected_queries
    }

    /// Batches processed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Running verdict checksum: a fold over every served score and
    /// rejection in stream order. Two services are serving the same
    /// stream identically iff their checksums agree.
    pub fn verdict_checksum(&self) -> u64 {
        self.verdict_checksum
    }

    /// The deployed policy.
    pub fn policy(&self) -> DetectionPolicy {
        self.policy
    }

    /// The batched-inference lane width in effect.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The uncertainty-aware re-query policy in effect, if any, with its
    /// replica count clamped.
    pub fn requery(&self) -> Option<RequeryConfig> {
        self.requery
    }

    /// The installed ensemble anomaly scorer, if any.
    pub fn anomaly_scorer(&self) -> Option<&AnomalyScorer> {
        self.anomaly.as_ref()
    }

    /// Installs an unsupervised anomaly scorer as an extra re-query
    /// ensemble member (Tang-style benign-envelope deviation — see
    /// [`shmd_ml::anomaly`]). It votes on every re-queried verdict from
    /// the next batch on; it never answers confident verdicts, so
    /// installing one changes nothing while re-query is disabled.
    ///
    /// Model weights are deterministic caller inputs (like `baseline`),
    /// so the scorer is not checkpointed: re-install the same scorer
    /// after [`MonitoringService::restore`] to resume bit-identically.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::AnomalyDimMismatch`] when the scorer's
    /// fitted width differs from the deployed model's input layer.
    pub fn install_anomaly_scorer(&mut self, scorer: AnomalyScorer) -> Result<(), ServeError> {
        if scorer.input_dim() != self.input_dim {
            return Err(ServeError::AnomalyDimMismatch {
                got: scorer.input_dim(),
                expected: self.input_dim,
            });
        }
        self.anomaly = Some(scorer);
        Ok(())
    }

    /// Feature width the deployed model expects; queries of any other
    /// width are rejected at ingestion.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The supervision engine, when deployed via
    /// [`MonitoringService::supervised`].
    pub fn supervisor(&self) -> Option<&Supervisor> {
        self.supervisor.as_ref()
    }

    /// Each shard's current health, in shard order.
    pub fn shard_healths(&self) -> Vec<ShardHealth> {
        self.shards
            .iter()
            .map(|shard| shard.state.supervision.health)
            .collect()
    }

    /// Changes the calibration target for subsequent
    /// [`MonitoringService::recalibrate`] calls (e.g. the operator trades
    /// accuracy for robustness at runtime). Live shards keep their current
    /// fault models until the next recalibration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidTargetErrorRate`] for NaN, negative,
    /// or ≥ 1 targets, leaving the current target in place.
    pub fn retarget(&mut self, target_error_rate: f64) -> Result<(), ServeError> {
        Self::validate_target(target_error_rate)?;
        self.target_error_rate = target_error_rate;
        Ok(())
    }

    /// Forcibly degrades a *non-serving* shard to the baseline detector
    /// at nominal voltage — the admission layer's hang deadline (see
    /// [`crate::daemon`]): a shard stuck outside the serving set past its
    /// deadline goes back to answering, just without the moving-target
    /// defense, instead of wedging the daemon behind its retry schedule.
    /// Returns `false` (touching nothing) for an out-of-range id or a
    /// shard that is still serving.
    pub fn force_degrade_shard(&mut self, id: usize, reason: &str) -> bool {
        let Some(shard) = self.shards.get_mut(id) else {
            return false;
        };
        if shard.state.supervision.health.is_serving() {
            return false;
        }
        shard.state.supervision.attempt = 0;
        shard.state.supervision.next_retry_batch = None;
        shard.fail_over(reason.to_string());
        true
    }

    /// Rebuilds every shard's detector against `curve` (a fresh
    /// calibration: temperature drifted, device aged, target changed).
    ///
    /// Each shard draws a new generation seed, so recalibration never
    /// replays old fault streams. Shards whose calibration fails fall
    /// back to the baseline detector — and previously degraded shards
    /// recover when the new calibration succeeds. Returns the number of
    /// shards left degraded.
    pub fn recalibrate(&mut self, curve: &CalibrationCurve) -> usize {
        let baseline = &self.baseline;
        let mut degraded = 0;
        for (id, shard) in self.shards.iter_mut().enumerate() {
            let state = &mut shard.state;
            state.generation += 1;
            state.seed = shard_seed(self.seed, id, state.generation);
            match Self::protected_backend(baseline, curve, self.target_error_rate, state.seed) {
                Ok(hmd) => {
                    state.degraded_reason = None;
                    state.supervision.transition(ShardHealth::Healthy);
                    state.supervision.reset_watchdog(state.faults);
                    shard.model = Some(Box::new(hmd));
                }
                Err(reason) => {
                    shard.fail_over(reason);
                    degraded += 1;
                }
            }
        }
        degraded
    }

    /// Scores one batch of queries across the shard pool, returning
    /// verdicts in query order.
    ///
    /// Query `i` of the batch goes to shard `(served + i) mod shards` —
    /// a function of the stream position only, never of scheduling — and
    /// its fault stream is seeded from the shard seed and stream
    /// position, so workers claiming arbitrary query ranges produce
    /// output bit-identical at any thread count.
    pub fn process_batch(&mut self, queries: &[&Trace]) -> Vec<Verdict> {
        self.run_batch(BatchInput::Traces(queries, self.spec))
    }

    /// Scores one batch of *raw* feature vectors — the ingestion path for
    /// queries arriving from outside the trusted trace pipeline. Vectors
    /// whose width mismatches the deployed model, or containing NaN or
    /// infinite values, receive a [`QueryDisposition::Rejected`] verdict
    /// (score 0, benign) without touching any shard; everything else is
    /// served exactly as [`MonitoringService::process_batch`].
    pub fn process_feature_batch(&mut self, features: &[Vec<f32>]) -> Vec<Verdict> {
        self.run_batch(BatchInput::Features(features))
    }

    fn run_batch(&mut self, input: BatchInput<'_>) -> Vec<Verdict> {
        let start = Instant::now();
        if let Some(sup) = &mut self.supervisor {
            let projection = sup.tick(
                &mut self.shards,
                &self.baseline,
                self.seed,
                self.target_error_rate,
                &self.power_model,
                self.batches,
            );
            self.service_power_w = projection.or(self.service_power_w);
        }
        let n = input.len();
        let n_shards = self.shards.len();
        let buffers = &mut self.buffers;
        // The serving set after supervision: a pure function of the batch
        // index and prior state, identical at any thread count.
        buffers.serving.clear();
        buffers.serving.extend(
            (0..n_shards).filter(|&id| self.shards[id].state.supervision.health.is_serving()),
        );
        debug_assert!(
            !buffers.serving.is_empty(),
            "the supervisor never empties the serving set"
        );
        // Range claiming over the query stream: `exec`'s claim loop hands
        // each worker the next contiguous chunk of the verdict vector, and
        // the worker scores that chunk in place against the shared shards
        // with its own buffers, fault streams, and telemetry deltas.
        // Verdicts are a pure function of stream position, so which worker
        // claims which range affects wall-clock only, never output. No more
        // workers than hardware threads: on fewer cores, the extra spawns
        // and joins cost more than the work they would share.
        let workers = self
            .exec
            .thread_count()
            .min(hardware_threads())
            .min((n / MIN_CLAIM).max(1));
        let chunk = (n / (workers * 4)).clamp(MIN_CLAIM, 8192);
        if buffers.workers.len() < workers {
            buffers.workers.resize_with(workers, WorkerScratch::default);
        }
        for scratch in &mut buffers.workers[..workers] {
            scratch.deltas.clear();
            scratch.deltas.resize(n_shards, ShardDelta::default());
            scratch.groups.resize_with(n_shards, Vec::new);
        }
        // Every slot is overwritten by the worker that claims its range.
        let unanswered = (0.0, Label::Benign, VerdictConfidence::Confident);
        let mut verdicts = vec![Verdict::served(0, 0, unanswered); n];
        let ctx = BatchCtx {
            input,
            shards: &self.shards,
            baseline: &self.baseline,
            requery: self.requery,
            anomaly: self.anomaly.as_ref(),
            serving: &buffers.serving,
            base: self.served,
            policy: self.policy,
            lanes: self.lanes,
            input_dim: self.input_dim,
        };
        parallel_for_each(
            &self.exec,
            &mut buffers.workers[..workers],
            verdicts.chunks_mut(chunk).enumerate(),
            |scratch, (k, out)| batch_worker(&ctx, scratch, k * chunk, out),
        );

        // One shard-major pass on the main thread, in shard order: fold the
        // shard's worker deltas (additive and order-independent), then
        // price its batch once, so the energy accrual is a deterministic
        // function of the query stream at any thread count.
        let per_detection_us = self.latency_model.hmd_us(self.macs);
        let detections = self.policy.detections();
        for (id, shard) in self.shards.iter_mut().enumerate() {
            let (mut queries, mut requeries) = (0, 0);
            for delta in buffers.workers[..workers].iter().map(|w| &w.deltas[id]) {
                if !delta.is_empty() {
                    shard.fold_delta(delta);
                    queries += delta.queries;
                    requeries += delta.requeries;
                }
            }
            shard.accrue_energy(
                queries,
                requeries,
                per_detection_us,
                detections,
                &self.power_model,
            );
        }
        for v in &verdicts {
            match v.disposition {
                QueryDisposition::Served => {
                    self.verdict_checksum = self.verdict_checksum.rotate_left(7)
                        ^ v.score.to_bits()
                        ^ u64::from(v.label.is_malware());
                }
                QueryDisposition::Rejected(_) => {
                    self.rejected_queries += 1;
                    self.verdict_checksum =
                        self.verdict_checksum.rotate_left(7) ^ REJECTED_QUERY_MARK;
                }
            }
        }
        self.served += n as u64;
        self.batches += 1;
        // Timing folds exactly once per batch, on the main thread, after
        // the parallel region — workers never touch the clock.
        if self.batch_latency_micros.len() == BATCH_LATENCY_WINDOW {
            self.batch_latency_micros.pop_front();
        }
        self.batch_latency_micros
            .push_back(start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        verdicts
    }

    /// Replays a query stream in batches of the configured size.
    pub fn process_stream(&mut self, queries: &[&Trace]) -> Vec<Verdict> {
        let mut verdicts = Vec::with_capacity(queries.len());
        for chunk in queries.chunks(self.batch_size) {
            verdicts.extend(self.process_batch(chunk));
        }
        verdicts
    }

    /// Captures the service's complete mutable state as a
    /// [`ServiceCheckpoint`].
    ///
    /// The checkpoint holds everything needed to continue the verdict
    /// stream bit-identically from this exact point: per-shard seeds and
    /// detector operating points (offset, error rate, fault law), folded
    /// fault statistics, supervision records and retry schedules, the voltage controller's
    /// calibration point, telemetry counters, and the global stream
    /// position. The wall-clock batch latency window is deliberately
    /// excluded — timing is not replayable; compare resumed services with
    /// [`TelemetrySnapshot::without_timing`].
    pub fn checkpoint(&self) -> ServiceCheckpoint {
        let shards = self
            .shards
            .iter()
            .map(|shard| ShardCheckpoint {
                backend: match &shard.model {
                    Some(hmd) => BackendCheckpoint::Stochastic(hmd.export_state()),
                    None if shard.state.supervision.health == ShardHealth::Degraded => {
                        BackendCheckpoint::Baseline
                    }
                    None => BackendCheckpoint::Down,
                },
                state: shard.state.clone(),
            })
            .collect();
        ServiceCheckpoint {
            policy: self.policy,
            target_error_rate: self.target_error_rate,
            seed: self.seed,
            batch_size: self.batch_size as u64,
            input_dim: self.input_dim as u64,
            served: self.served,
            batches: self.batches,
            rejected_queries: self.rejected_queries,
            verdict_checksum: self.verdict_checksum,
            service_power_w: self.service_power_w,
            requery: self.requery,
            supervisor: self
                .supervisor
                .as_ref()
                .map(|sup| sup.controller().export_state()),
            shards,
        }
    }

    /// Rebuilds a service from a [`MonitoringService::checkpoint`]
    /// snapshot. The resumed service continues the verdict stream — and
    /// every telemetry counter except wall-clock latency — bit-identically
    /// to the service that was checkpointed, at any thread count.
    ///
    /// `baseline` must be the same trained model the checkpointed service
    /// deployed (the checkpoint carries only mutable state, never the
    /// weights), and `supervision` must be the same
    /// [`SupervisorConfig`] for a supervised checkpoint — both are
    /// deterministic inputs the caller reconstructs, exactly as it did at
    /// first deployment. `exec` only chooses the worker pool and never
    /// affects results. An ensemble anomaly scorer is likewise model
    /// weights, not mutable state: re-install the same scorer via
    /// [`MonitoringService::install_anomaly_scorer`] after restoring to
    /// resume re-queried verdicts bit-identically.
    ///
    /// # Errors
    ///
    /// - [`RestoreError::InputDimMismatch`] when `baseline` does not match
    ///   the checkpointed input width;
    /// - [`RestoreError::SupervisorRequired`] /
    ///   [`RestoreError::SupervisorUnexpected`] when `supervision` and the
    ///   checkpoint disagree about supervision;
    /// - [`RestoreError::Calibration`] when the controller cannot
    ///   recalibrate at the checkpointed temperature;
    /// - [`RestoreError::InvalidState`] when the checkpoint decodes but
    ///   describes a state no live service can hold (corrupt fault
    ///   model, a supervisor config whose recalibration disagrees with
    ///   the checkpointed offset, a backend its shard's health does not
    ///   serve from).
    pub fn restore(
        baseline: &BaselineHmd,
        supervision: Option<SupervisorConfig>,
        checkpoint: &ServiceCheckpoint,
        exec: ExecConfig,
    ) -> Result<MonitoringService, RestoreError> {
        let expected = usize::try_from(checkpoint.input_dim)
            .map_err(|_| RestoreError::InvalidState("input width overflows usize".to_string()))?;
        let got = baseline.quantized().input_dim();
        if got != expected {
            return Err(RestoreError::InputDimMismatch { got, expected });
        }
        if Self::validate_target(checkpoint.target_error_rate).is_err() {
            return Err(RestoreError::InvalidState(format!(
                "target error rate {} is not a probability below 1",
                checkpoint.target_error_rate
            )));
        }
        if checkpoint.shards.is_empty() {
            return Err(RestoreError::InvalidState(
                "checkpoint has no shards".to_string(),
            ));
        }
        let supervisor = match (&checkpoint.supervisor, supervision) {
            (Some(saved), Some(config)) => {
                let mut sup = Supervisor::new(config, checkpoint.target_error_rate)?;
                sup.controller_mut().restore_state(saved)?;
                let offset = sup.controller().offset();
                if offset != saved.offset {
                    return Err(RestoreError::InvalidState(format!(
                        "recalibrated offset {offset} disagrees with checkpointed {} — \
                         the supervisor config does not match this checkpoint",
                        saved.offset
                    )));
                }
                Some(sup)
            }
            (Some(_), None) => return Err(RestoreError::SupervisorRequired),
            (None, Some(_)) => return Err(RestoreError::SupervisorUnexpected),
            (None, None) => None,
        };
        let mut shards = Vec::with_capacity(checkpoint.shards.len());
        for (id, shard) in checkpoint.shards.iter().enumerate() {
            let state = &shard.state;
            let invalid = |what: String| RestoreError::InvalidState(format!("shard {id}: {what}"));
            // Health alone says what a shard serves from (see `Shard`), so
            // a backend its health does not serve from is no live state.
            let health = state.supervision.health;
            let model = match (&shard.backend, health) {
                (
                    BackendCheckpoint::Stochastic(hmd),
                    ShardHealth::Healthy | ShardHealth::Drifting | ShardHealth::Recovering,
                ) => {
                    let hmd = StochasticHmd::from_state(baseline, hmd.clone(), state.seed)
                        .map_err(|e| invalid(e.to_string()))?;
                    Some(Box::new(hmd))
                }
                (BackendCheckpoint::Baseline, ShardHealth::Degraded)
                | (BackendCheckpoint::Down, ShardHealth::Crashed | ShardHealth::Quarantined) => {
                    None
                }
                (backend, _) => {
                    let kind = match backend {
                        BackendCheckpoint::Stochastic(_) => "a stochastic",
                        BackendCheckpoint::Baseline => "a baseline",
                        BackendCheckpoint::Down => "no",
                    };
                    return Err(invalid(format!("{health} but has {kind} backend")));
                }
            };
            // Window bases are earlier readings of their counters; one
            // past its counter would underflow the next window.
            let mark = state.supervision.window_mark;
            if mark.multiplies > state.faults.multiplies || mark.faulty > state.faults.faulty {
                return Err(invalid(
                    "watchdog window starts past the fault counters".into(),
                ));
            }
            if state.power_window_queries > state.queries {
                return Err(invalid("power window starts past the query count".into()));
            }
            shards.push(Shard {
                model,
                state: state.clone(),
            });
        }
        if !shards
            .iter()
            .any(|s| s.state.supervision.health.is_serving())
        {
            return Err(RestoreError::InvalidState(
                "no shard is serving".to_string(),
            ));
        }
        let config = ServeConfig {
            shards: shards.len(),
            batch_size: usize::try_from(checkpoint.batch_size.max(1)).map_err(|_| {
                RestoreError::InvalidState("batch size overflows usize".to_string())
            })?,
            target_error_rate: checkpoint.target_error_rate,
            policy: checkpoint.policy,
            seed: checkpoint.seed,
            exec,
            // Wall-clock only, so not part of the checkpoint: any width
            // resumes the stream bit-identically.
            lanes: DEFAULT_LANES,
            requery: checkpoint.requery,
        };
        let mut service = Self::assemble(baseline, &config, shards);
        service.supervisor = supervisor;
        service.served = checkpoint.served;
        service.batches = checkpoint.batches;
        service.rejected_queries = checkpoint.rejected_queries;
        service.verdict_checksum = checkpoint.verdict_checksum;
        service.service_power_w = checkpoint.service_power_w;
        Ok(service)
    }

    /// [`MonitoringService::process_feature_batch`] with write-ahead
    /// durability: the batch's [`BatchCommit`] (stream position + verdict
    /// checksum) is appended to `journal` and synced to disk **before**
    /// the verdicts are returned to the caller.
    ///
    /// A process killed at any instant therefore loses at most one batch
    /// whose verdicts nobody observed: recovery restores the newest
    /// checkpoint from the journal and replays the input stream from its
    /// position, and determinism reproduces the uncommitted batch's
    /// verdicts bit-identically.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the journal append or sync. The service's
    /// in-memory state has already advanced past the batch when the
    /// append fails; the caller decides whether to surface the verdicts
    /// anyway or treat the deployment as no longer durable.
    pub fn process_feature_batch_journaled(
        &mut self,
        features: &[Vec<f32>],
        journal: &mut StateJournal,
    ) -> io::Result<Vec<Verdict>> {
        let verdicts = self.run_batch(BatchInput::Features(features));
        journal.append_commit(BatchCommit {
            batch: self.batches - 1,
            stream_pos: self.served,
            checksum: self.verdict_checksum,
        })?;
        Ok(verdicts)
    }

    /// Snapshots the service-wide telemetry.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let shards: Vec<ShardState> = self.shards.iter().map(|s| s.state.clone()).collect();
        TelemetrySnapshot {
            seed: self.seed,
            policy: self.policy.to_string(),
            batches: self.batches,
            queries: self.served,
            flags: shards.iter().map(|s| s.flags).sum(),
            band_hits: shards.iter().map(|s| s.band_hits).sum(),
            requeries: shards.iter().map(|s| s.requeries).sum(),
            degradation_events: self.shards.iter().map(|s| s.state.degradation_events).sum(),
            rejected_queries: self.rejected_queries,
            verdict_checksum: self.verdict_checksum,
            power_budget_w: self
                .supervisor
                .as_ref()
                .and_then(|sup| sup.config().power_budget)
                .map(|policy| policy.budget_w),
            service_power_w: self.service_power_w,
            shards,
            batch_latency_micros: self.batch_latency_micros.iter().copied().collect(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::json;
    use crate::train::{train_baseline, HmdTrainConfig};
    use shmd_volt::calibration::{Calibrator, DeviceProfile};
    use shmd_workload::dataset::{Dataset, DatasetConfig};

    fn setup() -> (Dataset, BaselineHmd, CalibrationCurve) {
        let dataset = Dataset::generate(&DatasetConfig::small(100), 77);
        let split = dataset.three_fold_split(0);
        let baseline = train_baseline(
            &dataset,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("trains");
        let curve = Calibrator::new()
            .with_step(2)
            .calibrate(&DeviceProfile::reference());
        (dataset, baseline, curve)
    }

    fn stream(dataset: &Dataset, n: usize) -> Vec<&Trace> {
        (0..n).map(|i| dataset.trace(i % dataset.len())).collect()
    }

    #[test]
    fn service_answers_every_query_in_order() {
        let (dataset, baseline, curve) = setup();
        let mut service =
            MonitoringService::deploy(&baseline, &curve, ServeConfig::new(3).with_seed(1))
                .expect("valid config");
        let queries = stream(&dataset, 50);
        let verdicts = service.process_stream(&queries);
        assert_eq!(verdicts.len(), 50);
        for (i, v) in verdicts.iter().enumerate() {
            assert_eq!(v.query, i as u64);
            assert_eq!(v.shard, i % 3);
            assert_eq!(v.disposition, QueryDisposition::Served);
        }
        assert_eq!(service.served(), 50);
        assert_eq!(service.rejected_queries(), 0);
    }

    #[test]
    fn invalid_targets_fail_deployment_with_a_typed_error() {
        let (_, baseline, curve) = setup();
        for bad in [f64::NAN, 1.5, -0.1, f64::INFINITY, 1.0] {
            let config = ServeConfig::new(2).with_target_error_rate(bad);
            match MonitoringService::deploy(&baseline, &curve, config) {
                Err(ServeError::InvalidTargetErrorRate(er)) => {
                    assert!(er.is_nan() == bad.is_nan() && (er.is_nan() || er == bad));
                }
                other => panic!("target {bad} accepted: {:?}", other.map(|_| ())),
            }
        }
        // The error is also caught at retarget, before any calibration.
        let mut service =
            MonitoringService::deploy(&baseline, &curve, ServeConfig::new(2)).expect("valid");
        assert!(matches!(
            service.retarget(f64::NAN),
            Err(ServeError::InvalidTargetErrorRate(_))
        ));
        assert!(matches!(
            service.retarget(1.5),
            Err(ServeError::InvalidTargetErrorRate(er)) if er == 1.5
        ));
    }

    #[test]
    fn poison_query_costs_one_verdict_not_the_shard() {
        let (dataset, baseline, curve) = setup();
        let mut service =
            MonitoringService::deploy(&baseline, &curve, ServeConfig::new(3).with_seed(13))
                .expect("valid config");
        let dim = service.input_dim();
        // One width-poisoned query followed by 100 well-formed ones.
        let mut batch: Vec<Vec<f32>> = vec![vec![0.25; dim + 3]];
        for i in 0..100 {
            batch.push(service.spec.extract(dataset.trace(i % dataset.len())));
        }
        let verdicts = service.process_feature_batch(&batch);
        assert_eq!(verdicts.len(), 101);
        assert_eq!(
            verdicts[0].disposition,
            QueryDisposition::Rejected(RejectReason::WidthMismatch {
                got: dim + 3,
                expected: dim
            })
        );
        assert!(!verdicts[0].label.is_malware(), "rejected defaults benign");
        for v in &verdicts[1..] {
            assert_eq!(v.disposition, QueryDisposition::Served, "query {}", v.query);
        }
        // The shards survived: a NaN poison later is likewise contained.
        let mut nan_features = service.spec.extract(dataset.trace(0));
        nan_features[1] = f32::NAN;
        let verdicts = service.process_feature_batch(&[nan_features]);
        assert_eq!(
            verdicts[0].disposition,
            QueryDisposition::Rejected(RejectReason::NonFiniteFeature { index: 1 })
        );
        let more = service.process_stream(&stream(&dataset, 30));
        assert!(more.iter().all(|v| !v.is_rejected()));
        let snapshot = service.snapshot();
        assert_eq!(snapshot.rejected_queries, 2);
        assert_eq!(snapshot.queries, 132);
        assert_eq!(
            snapshot.shards.iter().map(|s| s.queries).sum::<u64>(),
            130,
            "rejected queries never reach a shard"
        );
    }

    #[test]
    fn serial_and_threaded_streams_are_bit_identical() {
        let (dataset, baseline, curve) = setup();
        let queries = stream(&dataset, 100);
        let run = |threads: ExecConfig| {
            let config = ServeConfig::new(4)
                .with_seed(9)
                .with_batch_size(16)
                .with_exec(threads);
            let mut service =
                MonitoringService::deploy(&baseline, &curve, config).expect("valid config");
            let verdicts = service.process_stream(&queries);
            (verdicts, service.snapshot().without_timing())
        };
        let (serial_verdicts, serial_snapshot) = run(ExecConfig::serial());
        for threads in [2, 4, 8] {
            let (verdicts, snapshot) = run(ExecConfig::threads(threads));
            assert_eq!(
                verdicts, serial_verdicts,
                "verdict stream differs at {threads} threads"
            );
            assert_eq!(
                snapshot, serial_snapshot,
                "telemetry differs at {threads} threads"
            );
        }
    }

    #[test]
    fn every_lane_width_is_bit_identical_to_width_one() {
        let (dataset, baseline, curve) = setup();
        let dim = baseline.quantized().input_dim();
        // A stream that exercises the regrouping: well-formed queries
        // interleaved with poison (so lane blocks form around rejected
        // slots) across both policies that take multiple draws.
        let mut batch: Vec<Vec<f32>> = Vec::new();
        for i in 0..120 {
            if i % 17 == 5 {
                batch.push(vec![f32::NAN; dim]);
            } else if i % 23 == 7 {
                batch.push(vec![0.5; dim + 1]);
            } else {
                batch.push(baseline.spec().extract(dataset.trace(i % dataset.len())));
            }
        }
        for policy in [
            DetectionPolicy::Single,
            DetectionPolicy::AnyOf(3),
            DetectionPolicy::MajorityOf(5),
        ] {
            let run = |lanes: usize, threads: ExecConfig| {
                let config = ServeConfig::new(3)
                    .with_seed(21)
                    .with_policy(policy)
                    .with_batch_size(40)
                    .with_exec(threads)
                    .with_lanes(lanes);
                let mut service =
                    MonitoringService::deploy(&baseline, &curve, config).expect("valid config");
                let mut verdicts = Vec::new();
                for chunk in batch.chunks(40) {
                    verdicts.extend(service.process_feature_batch(chunk));
                }
                (verdicts, service.snapshot().without_timing())
            };
            let (narrow_verdicts, narrow_snapshot) = run(1, ExecConfig::serial());
            for lanes in [2, 3, 4, 8, 16] {
                let (verdicts, snapshot) = run(lanes, ExecConfig::serial());
                assert_eq!(
                    verdicts, narrow_verdicts,
                    "verdict stream differs at {lanes} lanes under {policy:?}"
                );
                assert_eq!(
                    snapshot, narrow_snapshot,
                    "telemetry differs at {lanes} lanes under {policy:?}"
                );
            }
            // Lanes and threads compose without perturbing results.
            let (verdicts, snapshot) = run(8, ExecConfig::threads(4));
            assert_eq!(verdicts, narrow_verdicts, "8 lanes × 4 threads differs");
            assert_eq!(snapshot, narrow_snapshot, "8×4 telemetry differs");
        }
    }

    #[test]
    fn trace_and_feature_batches_serve_identically() {
        // `process_batch` extracts inside the workers; `process_feature_batch`
        // takes rows extracted up front. Same queries, same verdicts and
        // checksum, at every worker count and lane width, re-query included.
        let (dataset, baseline, curve) = setup();
        let traces = stream(&dataset, 280);
        let features: Vec<Vec<f32>> = traces.iter().map(|t| baseline.spec().extract(t)).collect();
        for threads in [1, 2, 8] {
            for lanes in [1, 8] {
                let deploy = || {
                    let config = ServeConfig::new(3)
                        .with_seed(5)
                        .with_target_error_rate(0.3)
                        .with_requery(RequeryConfig::new(0.3, 6))
                        .with_exec(ExecConfig::threads(threads))
                        .with_lanes(lanes);
                    MonitoringService::deploy(&baseline, &curve, config).expect("valid config")
                };
                let (mut from_traces, mut from_features) = (deploy(), deploy());
                // One batch large enough for eight workers to claim a range
                // each, then one-query batches.
                let mut a = from_traces.process_batch(&traces[..256]);
                let mut b = from_features.process_feature_batch(&features[..256]);
                for i in 256..traces.len() {
                    a.extend(from_traces.process_batch(&traces[i..=i]));
                    b.extend(from_features.process_feature_batch(&features[i..=i]));
                }
                let context = format!("{threads} workers, {lanes} lanes");
                assert_eq!(a, b, "{context}");
                assert!(
                    a.iter().any(Verdict::is_requeried),
                    "{context}: no re-query"
                );
                assert_eq!(
                    from_traces.verdict_checksum(),
                    from_features.verdict_checksum(),
                    "{context}"
                );
                assert_eq!(
                    from_traces.snapshot().without_timing(),
                    from_features.snapshot().without_timing(),
                    "{context}"
                );
            }
        }
    }

    /// Rebuilds every verdict of a deployment outside the service, from
    /// the documented seed contract alone: the generation-0 shard seed
    /// `derive_seed(master, [SERVE_TAG, shard, 0])`, one scalar
    /// [`shmd_volt::fault::FaultStream`] per query seeded by `[QUERY_TAG,
    /// position]` and shared across the policy draws, a second one seeded
    /// by `[REQUERY_TAG, position]` for in-band re-queries, and the
    /// strict-majority vote, curtailed once the undrawn replicas can no
    /// longer change it. The service scores on the lane-block engine
    /// at every width, so this scalar reconstruction is the independent
    /// oracle the width-invariance tests no longer provide.
    #[test]
    fn every_verdict_matches_a_scalar_reconstruction_outside_the_service() {
        use shmd_ann::network::InferenceScratch;
        use shmd_ml::anomaly::AnomalyConfig;
        use shmd_volt::fault::{FaultModel, FaultStream};

        let (dataset, baseline, curve) = setup();
        let dim = baseline.quantized().input_dim();
        let spec = baseline.spec();
        let benign: Vec<Vec<f32>> = (0..dataset.len())
            .filter(|&i| !dataset.program(i).is_malware())
            .map(|i| spec.extract(dataset.trace(i)))
            .collect();
        let anomaly = AnomalyScorer::fit(&benign, &AnomalyConfig::default()).expect("fits");
        let malware: Vec<Vec<f32>> = (0..dataset.len())
            .filter(|&i| dataset.program(i).is_malware())
            .map(|i| spec.extract(dataset.trace(i)))
            .collect();
        // Blends of a benign and a malware program sweep the score across
        // the decision boundary, so the confidence band sees traffic.
        let mut features: Vec<Vec<f32>> = Vec::new();
        for i in 0..150 {
            if i % 29 == 3 {
                features.push(vec![0.5; dim + 2]);
                continue;
            }
            let t = 0.3 + (i % 41) as f32 / 100.0;
            let (b, m) = (&benign[i % benign.len()], &malware[i % malware.len()]);
            features.push(
                b.iter()
                    .zip(m)
                    .map(|(b, m)| (1.0 - t) * b + t * m)
                    .collect(),
            );
        }
        let (shards, seed, er, degraded) = (3usize, 31u64, 0.3, 1usize);
        let policy = DetectionPolicy::MajorityOf(3);
        let requery = RequeryConfig::new(0.45, 4);
        // Batches of 13 over 3 shards leave per-shard remainders at every
        // width above 1.
        let batch_size = 13;

        let offset = curve.offset_for_error_rate(er).expect("reachable");
        let threshold = Detector::threshold(&baseline);
        let mut scratch = InferenceScratch::new();
        let mut expected: Vec<Verdict> = Vec::new();
        let mut expected_faults = vec![FaultCounters::default(); shards];
        // A scalar stream's statistics with the histogram summed: what the
        // service's lane tallies count.
        let tally = |stream: &FaultStream<&FaultModel>| {
            let stats = stream.stats();
            FaultCounters {
                multiplies: stats.multiplies,
                faulty: stats.faulty,
                bit_flips: stats.total_flips(),
            }
        };
        let mut band_hits = 0;
        let mut requeries = 0;
        for (i, query) in features.iter().enumerate() {
            let position = i as u64;
            let shard = i % shards;
            let mut verdict = Verdict {
                query: position,
                shard,
                score: 0.0,
                label: Label::Benign,
                disposition: QueryDisposition::Served,
                confidence: VerdictConfidence::Confident,
            };
            if let Err(reason) = validate_features(query, dim) {
                verdict.disposition = QueryDisposition::Rejected(reason);
            } else if shard == degraded {
                verdict.score = baseline.score_features(query);
                verdict.label = Label::from_bool(verdict.score >= threshold);
            } else {
                let shard_seed = derive_seed(seed, &[SERVE_TAG, shard as u64, 0]);
                let hmd = StochasticHmd::at_offset(&baseline, &curve, offset, shard_seed)
                    .expect("builds");
                let mut stream = FaultStream::new(
                    hmd.fault_model(),
                    derive_seed(shard_seed, &[QUERY_TAG, position]),
                );
                let mut draws: Vec<f64> = (0..3)
                    .map(|_| hmd.score_features_with(query, &mut stream, &mut scratch))
                    .collect();
                expected_faults[shard].merge(&tally(&stream));
                draws.sort_by(f64::total_cmp);
                // Majority of 3: the median clears the threshold iff at
                // least two draws do.
                verdict.score = draws[1];
                let primary = verdict.score >= threshold;
                verdict.label = Label::from_bool(primary);
                if (verdict.score - threshold).abs() <= requery.band {
                    band_hits += 1;
                    let mut stream = FaultStream::new(
                        hmd.fault_model(),
                        derive_seed(shard_seed, &[REQUERY_TAG, position]),
                    );
                    // The primary and the anomaly vote are cast first;
                    // replicas are drawn while the undrawn ones could
                    // still change the strict majority.
                    let total = 1 + requery.replicas as u8 + 1;
                    let mut votes = 2;
                    let mut positives = u8::from(primary) + u8::from(anomaly.is_anomalous(query));
                    while 2 * positives <= total && 2 * (positives + total - votes) > total {
                        let replica = hmd.score_features_with(query, &mut stream, &mut scratch);
                        votes += 1;
                        positives += u8::from(replica >= threshold);
                        requeries += 1;
                    }
                    expected_faults[shard].merge(&tally(&stream));
                    verdict.label = Label::from_bool(2 * positives > total);
                    verdict.confidence = VerdictConfidence::Requeried { votes, positives };
                    // Drawing every replica gives the same label.
                    let mut full = positives;
                    for _ in votes..total {
                        let replica = hmd.score_features_with(query, &mut stream, &mut scratch);
                        full += u8::from(replica >= threshold);
                    }
                    assert_eq!(verdict.label, Label::from_bool(2 * full > total));
                }
            }
            expected.push(verdict);
        }
        assert!(band_hits >= 10, "only {band_hits} verdicts re-queried");
        assert!(
            requeries < band_hits * requery.replicas as u64,
            "no re-query was curtailed"
        );
        assert!(
            expected
                .iter()
                .any(|v| v.is_requeried() && v.label.is_malware() != (v.score >= threshold)),
            "no re-query flipped a verdict"
        );

        for (lanes, exec) in [
            (1, ExecConfig::serial()),
            (4, ExecConfig::serial()),
            (8, ExecConfig::threads(2)),
        ] {
            let config = ServeConfig::new(shards)
                .with_seed(seed)
                .with_target_error_rate(er)
                .with_policy(policy)
                .with_requery(requery)
                .with_batch_size(batch_size)
                .with_exec(exec)
                .with_lanes(lanes);
            let mut service =
                MonitoringService::deploy(&baseline, &curve, config).expect("valid config");
            service
                .install_anomaly_scorer(anomaly.clone())
                .expect("matching width");
            // Degrade one shard in place, as a failed calibration would.
            service.shards[degraded].fail_over("calibration failed".to_string());
            let mut verdicts = Vec::new();
            for chunk in features.chunks(batch_size) {
                verdicts.extend(service.process_feature_batch(chunk));
            }
            assert_eq!(verdicts, expected, "verdicts differ at {lanes} lanes");
            let snapshot = service.snapshot();
            for (id, (shard, faults)) in snapshot.shards.iter().zip(&expected_faults).enumerate() {
                assert_eq!(shard.faults, *faults, "shard {id} faults at {lanes} lanes");
            }
            assert_eq!(
                snapshot.shards.iter().map(|s| s.band_hits).sum::<u64>(),
                band_hits
            );
            assert_eq!(
                snapshot.requeries, requeries,
                "replicas drawn at {lanes} lanes"
            );
        }
    }

    #[test]
    fn curtailed_votes_give_the_full_draw_label_on_every_vote_sequence() {
        // Every sequence of primary, anomaly and replica votes: stopping
        // once `majority_settled` answers gives the label of the whole
        // ensemble, and stops exactly where that label was first decided.
        for replicas in [1usize, 2, 13, 14] {
            for with_anomaly in [false, true] {
                let total = 1 + replicas + usize::from(with_anomaly);
                let cast_first = 1 + usize::from(with_anomaly);
                for bits in 0u32..1 << total {
                    let vote = |i: usize| usize::from(bits >> i & 1 == 1);
                    let full = (0..total).map(vote).sum::<usize>();
                    let full_label = Label::from_bool(2 * full > total);
                    let mut votes = cast_first;
                    let mut positives = (0..cast_first).map(vote).sum::<usize>();
                    let label = loop {
                        if let Some(label) = majority_settled(positives, votes, total) {
                            break label;
                        }
                        positives += vote(votes);
                        votes += 1;
                    };
                    assert_eq!(label, full_label, "{replicas} replicas, votes {bits:b}");
                    // One vote fewer would not have settled it.
                    if votes > cast_first {
                        let before = positives - vote(votes - 1);
                        assert_eq!(majority_settled(before, votes - 1, total), None);
                    }
                }
            }
        }
    }

    #[test]
    fn lane_width_is_clamped_and_reported() {
        let (_, baseline, curve) = setup();
        for (asked, got) in [
            (0, 1),
            (1, 1),
            (3, 1),
            (4, 1),
            (7, 1),
            (8, 8),
            (12, 8),
            (16, 8),
            (64, MAX_LANES),
        ] {
            let service =
                MonitoringService::deploy(&baseline, &curve, ServeConfig::new(1).with_lanes(asked))
                    .expect("valid config");
            assert_eq!(service.lanes(), got, "asked {asked}");
        }
        let default = MonitoringService::deploy(&baseline, &curve, ServeConfig::new(1))
            .expect("valid config");
        assert_eq!(default.lanes(), DEFAULT_LANES);
    }

    #[test]
    fn skewed_workload_is_bit_identical_across_thread_counts() {
        // Deliberately uneven per-query cost: a cluster of cheap rejects
        // (width-poisoned) at the front of every batch, then expensive
        // majority-of-5 queries. Workers claiming ranges finish at very
        // different times, so any ordering assumption in the range-claim
        // fold (verdict placement, checksum order, delta merge) would
        // surface here.
        let (dataset, baseline, curve) = setup();
        let dim = baseline.quantized().input_dim();
        let mut features: Vec<Vec<f32>> = Vec::new();
        for i in 0..9 {
            features.push(vec![0.5; dim + 1 + i]);
        }
        for i in 0..171 {
            features.push(baseline.spec().extract(dataset.trace(i % dataset.len())));
        }
        let run = |exec: ExecConfig| {
            let config = ServeConfig::new(4)
                .with_seed(23)
                .with_policy(DetectionPolicy::MajorityOf(5))
                .with_batch_size(45)
                .with_exec(exec);
            let mut service =
                MonitoringService::deploy(&baseline, &curve, config).expect("valid config");
            let mut verdicts = Vec::new();
            for chunk in features.chunks(45) {
                verdicts.extend(service.process_feature_batch(chunk));
            }
            (verdicts, service.snapshot().without_timing())
        };
        let (serial_verdicts, serial_snapshot) = run(ExecConfig::serial());
        assert_eq!(
            serial_verdicts.iter().filter(|v| v.is_rejected()).count(),
            9
        );
        for threads in [2, 8] {
            let (verdicts, snapshot) = run(ExecConfig::threads(threads));
            assert_eq!(
                verdicts, serial_verdicts,
                "skewed verdict stream differs at {threads} threads"
            );
            assert_eq!(
                snapshot, serial_snapshot,
                "skewed telemetry differs at {threads} threads"
            );
        }
    }

    #[test]
    fn supervision_cadence_amortizes_without_losing_chaos_kills() {
        use crate::supervisor::ChaosPlan;
        use shmd_volt::calibration::DeviceProfile;
        use shmd_volt::environment::EnvironmentConfig;

        let (dataset, baseline, _) = setup();
        let features: Vec<Vec<f32>> = (0..240)
            .map(|i| baseline.spec().extract(dataset.trace(i % dataset.len())))
            .collect();
        let run = |cadence: u64, exec: ExecConfig| {
            let supervision = SupervisorConfig::new(DeviceProfile::reference())
                .with_environment(EnvironmentConfig::drifting(49.0, 5))
                .with_chaos(ChaosPlan::seeded(5, 3, 20, 2, 1))
                .with_supervision_cadence(cadence);
            let config = ServeConfig::new(3)
                .with_seed(17)
                .with_target_error_rate(0.2)
                .with_batch_size(8)
                .with_exec(exec);
            let mut service =
                MonitoringService::supervised(&baseline, supervision, config).expect("deploys");
            let mut verdicts = Vec::new();
            for chunk in features.chunks(8) {
                verdicts.extend(service.process_feature_batch(chunk));
            }
            (verdicts, service.snapshot().without_timing())
        };

        // Cadence 4 skips 3 of every 4 supervision steps but must not
        // lose the scripted kills the dense run sees.
        let (_, dense) = run(1, ExecConfig::serial());
        let (cadenced_verdicts, cadenced) = run(4, ExecConfig::serial());
        assert!(dense.total_crashes() >= 1, "chaos plan schedules crashes");
        assert_eq!(
            cadenced.total_crashes(),
            dense.total_crashes(),
            "a kill between cadence points must fire at the next point"
        );
        assert_eq!(cadenced.queries, 240);

        // And the cadenced schedule stays thread-invariant.
        for threads in [2, 8] {
            let (verdicts, snapshot) = run(4, ExecConfig::threads(threads));
            assert_eq!(
                verdicts, cadenced_verdicts,
                "cadenced verdicts differ at {threads} threads"
            );
            assert_eq!(
                snapshot, cadenced,
                "cadenced telemetry differs at {threads} threads"
            );
        }
    }

    #[test]
    fn service_detects_malware_through_the_pool() {
        let (dataset, baseline, curve) = setup();
        let split = dataset.three_fold_split(0);
        let mut service =
            MonitoringService::deploy(&baseline, &curve, ServeConfig::new(4).with_seed(3))
                .expect("valid config");
        let queries: Vec<&Trace> = split.testing().iter().map(|&i| dataset.trace(i)).collect();
        let verdicts = service.process_stream(&queries);
        let correct = verdicts
            .iter()
            .zip(split.testing())
            .filter(|(v, &i)| v.label.is_malware() == dataset.program(i).is_malware())
            .count();
        let accuracy = correct as f64 / verdicts.len() as f64;
        assert!(accuracy > 0.85, "pool accuracy {accuracy}");
    }

    #[test]
    fn shards_draw_independent_fault_streams() {
        let (dataset, baseline, curve) = setup();
        let mut service =
            MonitoringService::deploy(&baseline, &curve, ServeConfig::new(4).with_seed(5))
                .expect("valid config");
        // Same trace to every shard: scores must not be a single repeated
        // value across shards (each replica rolls its own boundary).
        let queries: Vec<&Trace> = (0..40).map(|_| dataset.trace(0)).collect();
        let verdicts = service.process_stream(&queries);
        let distinct: std::collections::HashSet<u64> =
            verdicts.iter().map(|v| v.score.to_bits()).collect();
        assert!(
            distinct.len() > 1,
            "shard replicas produced one deterministic stream"
        );
        let snapshot = service.snapshot();
        assert_eq!(snapshot.degraded_shards(), 0);
        assert_eq!(snapshot.shards_in(ShardHealth::Healthy), 4);
        assert!(
            snapshot.total_faults().multiplies > 0,
            "telemetry must fold the per-query fault streams"
        );
    }

    #[test]
    fn unreachable_target_degrades_to_baseline_and_keeps_serving() {
        let (dataset, baseline, curve) = setup();
        // FREEZE_ERROR_RATE = 0.5: no device reaches er = 0.9.
        let config = ServeConfig::new(3).with_target_error_rate(0.9).with_seed(2);
        let mut service = MonitoringService::deploy(&baseline, &curve, config)
            .expect("0.9 is valid, just unreachable");
        let queries = stream(&dataset, 30);
        let verdicts = service.process_stream(&queries);
        // Degraded shards serve the deterministic baseline.
        for (i, v) in verdicts.iter().enumerate() {
            let expected = baseline.score_features(&baseline.spec().extract(queries[i]));
            assert_eq!(v.score, expected, "degraded shard must serve the baseline");
        }
        let snapshot = service.snapshot();
        assert_eq!(snapshot.degraded_shards(), 3);
        assert_eq!(snapshot.degradation_events, 3);
        for shard in &snapshot.shards {
            assert_eq!(shard.supervision.health, ShardHealth::Degraded);
            let reason = shard.degraded_reason.as_deref().expect("reason recorded");
            assert!(reason.contains("unreachable"), "got {reason}");
        }
    }

    #[test]
    fn recalibration_recovers_and_degrades_shards() {
        let (dataset, baseline, curve) = setup();
        let mut service =
            MonitoringService::deploy(&baseline, &curve, ServeConfig::new(2).with_seed(4))
                .expect("valid config");
        assert_eq!(service.snapshot().degraded_shards(), 0);
        let queries = stream(&dataset, 20);
        service.process_stream(&queries);
        let faults_before = service.snapshot().total_faults();

        // Mid-stream the operator retargets to an unreachable rate: the
        // next recalibration degrades every shard, but serving continues
        // and the folded fault counters survive the backend swap.
        service.retarget(0.95).expect("a valid probability");
        assert_eq!(service.recalibrate(&curve), 2);
        service.process_stream(&queries);
        let snapshot = service.snapshot();
        assert_eq!(snapshot.degraded_shards(), 2);
        assert_eq!(snapshot.degradation_events, 2);
        assert_eq!(
            snapshot.total_faults(),
            faults_before,
            "folded fault counters must survive degradation"
        );

        // Back to a reachable target: the shards recover.
        service.retarget(0.1).expect("a valid probability");
        assert_eq!(service.recalibrate(&curve), 0);
        let recovered = service.snapshot();
        assert_eq!(recovered.degraded_shards(), 0);
        assert_eq!(recovered.degradation_events, 2, "history is cumulative");
        assert!(recovered.shards.iter().all(|s| s.degraded_reason.is_none()));
        assert_eq!(recovered.shards_in(ShardHealth::Healthy), 2);
    }

    #[test]
    fn policy_consistent_scores_match_verdicts() {
        let (dataset, baseline, curve) = setup();
        let config = ServeConfig::new(2)
            .with_policy(DetectionPolicy::MajorityOf(4))
            .with_seed(6);
        let mut service =
            MonitoringService::deploy(&baseline, &curve, config).expect("valid config");
        let queries = stream(&dataset, 40);
        let threshold = Detector::threshold(&baseline);
        for v in service.process_stream(&queries) {
            assert_eq!(
                v.label.is_malware(),
                v.score >= threshold,
                "score/verdict inconsistent under majority-of-4"
            );
        }
    }

    #[test]
    fn snapshot_json_from_a_live_service_carries_its_checksum() {
        let (dataset, baseline, curve) = setup();
        let mut service =
            MonitoringService::deploy(&baseline, &curve, ServeConfig::new(3).with_seed(8))
                .expect("valid config");
        service.process_stream(&stream(&dataset, 25));
        let snapshot = service.snapshot();
        assert_eq!(snapshot.queries, 25);
        assert_eq!(snapshot.batch_latency_micros.len() as u64, snapshot.batches);
        let Ok(json::Value::Obj(fields)) = json::parse(&snapshot.to_json()) else {
            panic!("the snapshot is not a JSON object");
        };
        let checksum = fields.iter().find(|(k, _)| k == "verdict_checksum");
        assert_eq!(
            checksum.map(|(_, v)| v),
            Some(&json::Value::Str(service.verdict_checksum().to_string()))
        );
    }

    #[test]
    fn batch_latency_history_is_a_bounded_window() {
        let (dataset, baseline, curve) = setup();
        let config = ServeConfig::new(2).with_seed(11).with_batch_size(1);
        let mut service =
            MonitoringService::deploy(&baseline, &curve, config).expect("valid config");
        let queries = stream(&dataset, BATCH_LATENCY_WINDOW + 10);
        service.process_stream(&queries);
        let snapshot = service.snapshot();
        assert_eq!(snapshot.batches, (BATCH_LATENCY_WINDOW + 10) as u64);
        assert_eq!(
            snapshot.batch_latency_micros.len(),
            BATCH_LATENCY_WINDOW,
            "latency history must age out instead of growing unboundedly"
        );
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically_under_supervision() {
        use crate::supervisor::ChaosPlan;
        use shmd_volt::environment::EnvironmentConfig;

        let (dataset, baseline, _) = setup();
        let supervision = || {
            SupervisorConfig::new(DeviceProfile::reference())
                .with_environment(EnvironmentConfig::drifting(49.0, 5))
                .with_chaos(ChaosPlan::seeded(5, 3, 20, 2, 1))
        };
        let config = ServeConfig::new(3)
            .with_seed(17)
            .with_target_error_rate(0.2)
            .with_batch_size(8);
        let features: Vec<Vec<f32>> = (0..240)
            .map(|i| baseline.spec().extract(dataset.trace(i % dataset.len())))
            .collect();
        let chunks: Vec<&[Vec<f32>]> = features.chunks(8).collect();

        // Reference: one uninterrupted run.
        let mut reference =
            MonitoringService::supervised(&baseline, supervision(), config).expect("deploys");
        let mut reference_verdicts = Vec::new();
        for chunk in &chunks {
            reference_verdicts.extend(reference.process_feature_batch(chunk));
        }

        // Interrupted: checkpoint mid-stream (through the binary codec),
        // drop the live service, restore at a different thread count, and
        // replay the remaining batches.
        let mut first =
            MonitoringService::supervised(&baseline, supervision(), config).expect("deploys");
        let mut resumed_verdicts = Vec::new();
        for chunk in &chunks[..12] {
            resumed_verdicts.extend(first.process_feature_batch(chunk));
        }
        let bytes = first.checkpoint().encode();
        drop(first);
        let decoded = ServiceCheckpoint::decode(&bytes).expect("codec round trip");
        let mut restored = MonitoringService::restore(
            &baseline,
            Some(supervision()),
            &decoded,
            ExecConfig::threads(4),
        )
        .expect("restores");
        assert_eq!(restored.served(), 96);
        for chunk in &chunks[12..] {
            resumed_verdicts.extend(restored.process_feature_batch(chunk));
        }

        assert_eq!(resumed_verdicts, reference_verdicts);
        assert_eq!(
            restored.snapshot().without_timing(),
            reference.snapshot().without_timing(),
            "resumed telemetry must be bit-identical"
        );
    }

    #[test]
    fn an_oversized_replica_count_round_trips_byte_identically() {
        let (_, baseline, curve) = setup();
        let config = ServeConfig::new(2).with_requery(RequeryConfig::new(0.1, 1000));
        let service = MonitoringService::deploy(&baseline, &curve, config).expect("deploys");
        let replicas = service.requery().map(|r| r.replicas);
        assert_eq!(replicas, Some(MAX_REQUERY_REPLICAS));
        let bytes = service.checkpoint().encode();
        let decoded = ServiceCheckpoint::decode(&bytes).expect("codec round trip");
        let restored = MonitoringService::restore(&baseline, None, &decoded, ExecConfig::serial())
            .expect("restores");
        assert_eq!(restored.requery(), service.requery());
        assert_eq!(restored.checkpoint().encode(), bytes);
    }

    #[test]
    fn a_batch_fans_out_to_no_more_workers_than_hardware_threads() {
        let (dataset, baseline, curve) = setup();
        let config = ServeConfig::new(2)
            .with_batch_size(4096)
            .with_exec(ExecConfig::threads(64));
        let mut service = MonitoringService::deploy(&baseline, &curve, config).expect("deploys");
        service.process_stream(&stream(&dataset, 4096));
        let workers = service.buffers.workers.len();
        assert!(
            workers <= hardware_threads(),
            "{workers} worker scratches on {} hardware threads",
            hardware_threads()
        );
    }

    #[test]
    fn restore_rejects_mismatched_supervision_and_models() {
        let (_, baseline, curve) = setup();
        let unsupervised =
            MonitoringService::deploy(&baseline, &curve, ServeConfig::new(2).with_seed(1))
                .expect("deploys")
                .checkpoint();
        let supervised = MonitoringService::supervised(
            &baseline,
            SupervisorConfig::new(DeviceProfile::reference()),
            ServeConfig::new(2).with_seed(1),
        )
        .expect("deploys")
        .checkpoint();

        assert!(matches!(
            MonitoringService::restore(
                &baseline,
                Some(SupervisorConfig::new(DeviceProfile::reference())),
                &unsupervised,
                ExecConfig::serial(),
            ),
            Err(RestoreError::SupervisorUnexpected)
        ));
        assert!(matches!(
            MonitoringService::restore(&baseline, None, &supervised, ExecConfig::serial()),
            Err(RestoreError::SupervisorRequired)
        ));

        let mut foreign = unsupervised.clone();
        foreign.input_dim += 1;
        assert!(matches!(
            MonitoringService::restore(&baseline, None, &foreign, ExecConfig::serial()),
            Err(RestoreError::InputDimMismatch { .. })
        ));

        // States no live service holds: a pool with no serving shard, and
        // watchdog or power windows that start past their counters.
        let restore_err = |checkpoint: &ServiceCheckpoint| match MonitoringService::restore(
            &baseline,
            None,
            checkpoint,
            ExecConfig::serial(),
        ) {
            Err(RestoreError::InvalidState(reason)) => reason,
            other => panic!("expected invalid state, got {:?}", other.err()),
        };
        let mut dark = unsupervised.clone();
        for shard in &mut dark.shards {
            shard.backend = BackendCheckpoint::Down;
            shard.state.supervision.health = ShardHealth::Quarantined;
        }
        assert_eq!(restore_err(&dark), "no shard is serving");
        // Health alone says what a shard serves from, so a backend that
        // disagrees with it is no live state.
        let stochastic = unsupervised.shards[0].backend.clone();
        for (backend, health) in [
            (BackendCheckpoint::Baseline, ShardHealth::Healthy),
            (stochastic.clone(), ShardHealth::Degraded),
            (stochastic, ShardHealth::Quarantined),
            (BackendCheckpoint::Down, ShardHealth::Degraded),
        ] {
            let mut mismatched = unsupervised.clone();
            mismatched.shards[0].backend = backend;
            mismatched.shards[0].state.supervision.health = health;
            let reason = restore_err(&mismatched);
            assert!(
                reason.starts_with(&format!("shard 0: {health} but has")),
                "{reason}"
            );
        }
        let mut window = unsupervised.clone();
        window.shards[0].state.supervision.window_mark.faulty =
            window.shards[0].state.faults.faulty + 1;
        assert!(restore_err(&window).starts_with("shard 0:"));
        let mut power = unsupervised.clone();
        power.shards[1].state.power_window_queries = power.shards[1].state.queries + 1;
        assert!(restore_err(&power).starts_with("shard 1:"));

        // A stochastic shard whose fault law fails validation (a flip bit
        // past the 64-bit product) is typed as invalid state.
        let mut corrupt = unsupervised;
        let BackendCheckpoint::Stochastic(state) = &mut corrupt.shards[1].backend else {
            panic!("shard 1 deploys stochastic");
        };
        state.model.flips.push((64, 0.5));
        assert!(matches!(
            MonitoringService::restore(&baseline, None, &corrupt, ExecConfig::serial()),
            Err(RestoreError::InvalidState(reason)) if reason.starts_with("shard 1:")
        ));
    }

    #[test]
    fn supervised_deployment_serves_in_a_steady_world() {
        let (dataset, baseline, _) = setup();
        let supervision = SupervisorConfig::new(DeviceProfile::reference());
        let mut service = MonitoringService::supervised(
            &baseline,
            supervision,
            ServeConfig::new(3).with_seed(21),
        )
        .expect("reference device calibrates");
        let verdicts = service.process_stream(&stream(&dataset, 60));
        assert_eq!(verdicts.len(), 60);
        assert!(verdicts.iter().all(|v| !v.is_rejected()));
        assert_eq!(
            service.shard_healths(),
            vec![ShardHealth::Healthy; 3],
            "a steady environment never trips the supervisor"
        );
        let snapshot = service.snapshot();
        assert_eq!(snapshot.total_crashes(), 0);
        assert_eq!(snapshot.total_drift_events(), 0);
        assert!(snapshot.total_faults().multiplies > 0);
    }

    #[test]
    fn every_batch_accrues_deterministic_energy() {
        let (dataset, baseline, curve) = setup();
        let config = ServeConfig::new(2).with_seed(9).with_batch_size(8);
        let mut service =
            MonitoringService::deploy(&baseline, &curve, config).expect("valid config");
        service.process_stream(&stream(&dataset, 64));
        let snapshot = service.snapshot();
        assert!(snapshot.total_energy_uj() > 0.0, "energy accrues per batch");
        for (id, shard) in snapshot.shards.iter().enumerate() {
            assert!(shard.energy_uj > 0.0, "shard {id} accrued no energy");
            let power = shard
                .last_power_w
                .expect("busy power recorded after first batch");
            assert!(
                power > 0.0 && power < 11.0,
                "undervolted busy power {power} W out of range"
            );
        }
        // Unsupervised pools have no budget policy: no projection.
        assert_eq!(snapshot.power_budget_w, None);
        assert_eq!(snapshot.service_power_w, None);
        // Energy is a pure function of the stream: a second identical run
        // accrues bit-identical microjoules.
        let mut again = MonitoringService::deploy(&baseline, &curve, config).expect("valid config");
        again.process_stream(&stream(&dataset, 64));
        assert_eq!(again.snapshot().without_timing(), snapshot.without_timing());
    }

    #[test]
    fn power_budget_holds_on_a_hot_die_and_stays_thread_invariant() {
        use crate::supervisor::PowerBudgetPolicy;
        use shmd_volt::environment::EnvironmentConfig;

        let (dataset, baseline, _) = setup();
        let features: Vec<Vec<f32>> = (0..320)
            .map(|i| baseline.spec().extract(dataset.trace(i % dataset.len())))
            .collect();
        // A hot die (above the policy's cool threshold) disables the
        // opportunistic deepening phase: every retarget below is pure
        // budget pressure. The error-rate→offset curve is nearly vertical
        // this close to the freeze cliff, so retargeting only modulates a
        // narrow power window — the pool draws ~23.11 W at the service
        // target and ~23.05 W at the band cap. A budget between the two
        // is attainable only by deepening, which is exactly the mechanism
        // under test.
        let policy = PowerBudgetPolicy::new(23.08);
        let run = |exec: ExecConfig| {
            let supervision = SupervisorConfig::new(DeviceProfile::reference())
                .with_environment(EnvironmentConfig::steady(58.0))
                .with_power_budget(policy);
            let config = ServeConfig::new(3)
                .with_seed(23)
                .with_target_error_rate(0.2)
                .with_batch_size(8)
                .with_exec(exec);
            let mut service =
                MonitoringService::supervised(&baseline, supervision, config).expect("deploys");
            let mut verdicts = Vec::new();
            for chunk in features.chunks(8) {
                verdicts.extend(service.process_feature_batch(chunk));
            }
            (verdicts, service.snapshot().without_timing())
        };

        let (serial_verdicts, serial) = run(ExecConfig::serial());
        assert_eq!(serial.power_budget_w, Some(policy.budget_w));
        let projected = serial
            .service_power_w
            .expect("a budget policy publishes its projection");
        assert!(
            projected <= policy.budget_w + 1e-9,
            "projected {projected} W exceeds the {} W budget",
            policy.budget_w
        );
        // The pool idles above the budget at the service target, so the
        // scheduler must have deepened past it to fit...
        assert!(
            serial
                .shards
                .iter()
                .any(|s| s.power_target_er.is_some_and(|t| t > 0.2 + 1e-9)),
            "budget pressure must deepen some shard past the service target"
        );
        // ...and no schedule crossed the freeze threshold, or the physics
        // tick would have crashed the shard.
        assert_eq!(serial.total_crashes(), 0);
        assert!(serial.total_energy_uj() > 0.0);

        for threads in [2, 8] {
            let (verdicts, snapshot) = run(ExecConfig::threads(threads));
            assert_eq!(
                verdicts, serial_verdicts,
                "verdicts differ at {threads} threads"
            );
            assert_eq!(snapshot, serial, "telemetry differs at {threads} threads");
        }
    }

    #[test]
    fn cool_lightly_loaded_shards_deepen_to_the_band_cap_without_freezing() {
        use crate::supervisor::PowerBudgetPolicy;
        use shmd_volt::environment::EnvironmentConfig;

        let (dataset, baseline, _) = setup();
        // A generous budget: every retarget below is the opportunistic
        // phase riding a cool die, never budget pressure. The cool die is
        // exactly where the freeze floor is *shallowest* (temperature
        // inversion), so this also pins the floor clamp.
        let supervision = SupervisorConfig::new(DeviceProfile::reference())
            .with_environment(EnvironmentConfig::steady(45.0))
            .with_power_budget(PowerBudgetPolicy::new(100.0));
        let config = ServeConfig::new(3)
            .with_seed(31)
            .with_target_error_rate(0.2)
            .with_batch_size(8);
        let mut service =
            MonitoringService::supervised(&baseline, supervision, config).expect("deploys");
        let features: Vec<Vec<f32>> = (0..160)
            .map(|i| baseline.spec().extract(dataset.trace(i % dataset.len())))
            .collect();
        for chunk in features.chunks(8) {
            service.process_feature_batch(chunk);
        }
        let snapshot = service.snapshot();
        // One step per tick from 0.2 ratchets every shard to the 0.30
        // band cap within the run.
        for (id, shard) in snapshot.shards.iter().enumerate() {
            assert_eq!(
                shard.power_target_er,
                Some(0.30),
                "shard {id} stopped short of the band cap"
            );
            let power = shard.last_power_w.expect("busy power recorded");
            assert!(power < 11.0, "deepened shard still at nominal power");
        }
        assert_eq!(
            snapshot.total_crashes(),
            0,
            "floor clamp must prevent freezes"
        );
        assert!(
            projected_fits(&snapshot),
            "projection under the generous budget"
        );
    }

    fn projected_fits(snapshot: &TelemetrySnapshot) -> bool {
        match (snapshot.service_power_w, snapshot.power_budget_w) {
            (Some(projected), Some(budget)) => projected <= budget + 1e-9,
            _ => false,
        }
    }

    #[test]
    fn budget_state_survives_checkpoint_restore_bit_identically() {
        use crate::supervisor::PowerBudgetPolicy;
        use shmd_volt::environment::EnvironmentConfig;

        let (dataset, baseline, _) = setup();
        let supervision = || {
            SupervisorConfig::new(DeviceProfile::reference())
                .with_environment(EnvironmentConfig::drifting(49.0, 5))
                .with_power_budget(PowerBudgetPolicy::new(23.0))
        };
        let config = ServeConfig::new(3)
            .with_seed(17)
            .with_target_error_rate(0.2)
            .with_batch_size(8);
        let features: Vec<Vec<f32>> = (0..240)
            .map(|i| baseline.spec().extract(dataset.trace(i % dataset.len())))
            .collect();
        let chunks: Vec<&[Vec<f32>]> = features.chunks(8).collect();

        let mut reference =
            MonitoringService::supervised(&baseline, supervision(), config).expect("deploys");
        let mut reference_verdicts = Vec::new();
        for chunk in &chunks {
            reference_verdicts.extend(reference.process_feature_batch(chunk));
        }

        // Checkpoint mid-stream through the binary codec — with accrued
        // energy, live scheduler targets, and an open load window — and
        // resume at a different thread count.
        let mut first =
            MonitoringService::supervised(&baseline, supervision(), config).expect("deploys");
        let mut resumed_verdicts = Vec::new();
        for chunk in &chunks[..12] {
            resumed_verdicts.extend(first.process_feature_batch(chunk));
        }
        let bytes = first.checkpoint().encode();
        drop(first);
        let decoded = ServiceCheckpoint::decode(&bytes).expect("codec round trip");
        let mut restored = MonitoringService::restore(
            &baseline,
            Some(supervision()),
            &decoded,
            ExecConfig::threads(4),
        )
        .expect("restores");
        for chunk in &chunks[12..] {
            resumed_verdicts.extend(restored.process_feature_batch(chunk));
        }

        assert_eq!(resumed_verdicts, reference_verdicts);
        let resumed = restored.snapshot().without_timing();
        let uninterrupted = reference.snapshot().without_timing();
        assert_eq!(
            resumed, uninterrupted,
            "resumed energy/scheduler telemetry must be bit-identical"
        );
        assert!(uninterrupted.total_energy_uj() > 0.0);
        assert!(
            uninterrupted.service_power_w.is_some(),
            "budget projection survives the round trip"
        );
    }

    /// A supervised 3-shard pool on a hot (58 °C) die under a 23 W power
    /// budget, with the given chaos plan and retries spaced far enough
    /// apart that none comes due within a test's few batches.
    fn hot_budgeted_pool(
        baseline: &BaselineHmd,
        chaos: crate::supervisor::ChaosPlan,
    ) -> (SupervisorConfig, MonitoringService) {
        use crate::supervisor::PowerBudgetPolicy;
        use shmd_volt::environment::EnvironmentConfig;

        let supervision = SupervisorConfig::new(DeviceProfile::reference())
            .with_environment(EnvironmentConfig::steady(58.0))
            .with_power_budget(PowerBudgetPolicy::new(23.0))
            .with_retry_policy(3, 64)
            .with_chaos(chaos);
        let config = ServeConfig::new(3)
            .with_seed(23)
            .with_target_error_rate(0.2)
            .with_batch_size(8);
        let service =
            MonitoringService::supervised(baseline, supervision.clone(), config).expect("deploys");
        (supervision, service)
    }

    /// Byte offset of shard `shard`'s record (its id word) in `checkpoint`'s
    /// encoding: the length of the encoding of the shards before it, minus
    /// the trailing checksum.
    fn shard_record_offset(checkpoint: &ServiceCheckpoint, shard: usize) -> usize {
        let mut head = checkpoint.clone();
        head.shards.truncate(shard);
        head.encode().len() - 8
    }

    /// Recomputes the trailing checksum of patched checkpoint bytes, so
    /// only the structural checks can reject them.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let sum = crate::codec::fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn decode_rejects_a_shard_id_that_is_not_its_position() {
        use crate::checkpoint::CheckpointError;
        use crate::supervisor::ChaosPlan;

        let (dataset, baseline, _) = setup();
        let features: Vec<Vec<f32>> = (0..32)
            .map(|i| baseline.spec().extract(dataset.trace(i % dataset.len())))
            .collect();
        let (supervision, mut service) = hot_budgeted_pool(&baseline, ChaosPlan::none());
        for chunk in features.chunks(8) {
            service.process_feature_batch(chunk);
        }
        let checkpoint = service.checkpoint();
        let mut bytes = checkpoint.encode();
        let at = shard_record_offset(&checkpoint, 1);
        bytes[at..at + 8].copy_from_slice(&7u64.to_le_bytes());
        reseal(&mut bytes);
        match ServiceCheckpoint::decode(&bytes) {
            Err(CheckpointError::Corrupted(what)) => assert!(what.contains("shard 1"), "{what}"),
            Err(other) => panic!("wrong error for a misplaced shard id: {other}"),
            Ok(decoded) => {
                // Serving shard 1 under the power scheduler is what a
                // misplaced id breaks: the batch below is the failure.
                let mut restored = MonitoringService::restore(
                    &baseline,
                    Some(supervision),
                    &decoded,
                    ExecConfig::serial(),
                )
                .expect("restores");
                restored.process_feature_batch(&features[..8]);
                panic!("a shard id that is not its position decoded and served");
            }
        }
    }

    #[test]
    fn restore_rejects_a_fault_model_with_an_out_of_range_ripple_or_floor() {
        use crate::checkpoint::RestoreError;
        use crate::supervisor::ChaosPlan;

        let (dataset, baseline, _) = setup();
        let features: Vec<Vec<f32>> = (0..32)
            .map(|i| baseline.spec().extract(dataset.trace(i % dataset.len())))
            .collect();
        let (supervision, mut service) = hot_budgeted_pool(&baseline, ChaosPlan::none());
        for chunk in features.chunks(8) {
            service.process_feature_batch(chunk);
        }
        let checkpoint = service.checkpoint();
        // A ripple span this wide overflowed the event law's reach
        // arithmetic; a floor this narrow put a product's top column
        // below the placement table.
        for (field, value) in [
            ("ripple span", u32::MAX),
            ("ripple span", shmd_volt::multiplier::OUTPUT_BITS as u32 + 1),
            ("near-zero width", u32::MAX),
            ("near-zero width", 0),
        ] {
            let mut hostile = checkpoint.clone();
            let BackendCheckpoint::Stochastic(hmd) = &mut hostile.shards[0].backend else {
                panic!("shard 0 serves stochastic");
            };
            if field == "ripple span" {
                hmd.model.ripple_span = value;
            } else {
                hmd.model.near_zero_width = value;
            }
            // Encoding reseals the patched bytes, so only the fault
            // model's own validation can reject them.
            let decoded = ServiceCheckpoint::decode(&hostile.encode()).expect("structurally valid");
            match MonitoringService::restore(
                &baseline,
                Some(supervision.clone()),
                &decoded,
                ExecConfig::serial(),
            ) {
                Err(RestoreError::InvalidState(what)) => {
                    assert!(what.contains(field), "{field} {value}: {what}");
                }
                Err(other) => panic!("wrong error for {field} {value}: {other}"),
                Ok(mut restored) => {
                    restored.process_feature_batch(&features[..8]);
                    panic!("{field} {value} restored and served");
                }
            }
        }
    }

    #[test]
    fn checkpoint_v4_layout_is_pinned() {
        use crate::checkpoint::tests::sample_checkpoint;
        use crate::supervisor::{ChaosEvent, ChaosPlan};

        assert_eq!(
            crate::codec::fnv1a(&sample_checkpoint().encode()),
            0xa541_abc1_7efa_3dc6,
            "the v4 encoding of the sample checkpoint moved"
        );

        // A live checkpoint holding every backend kind: shard 0 stochastic
        // under a power target, shard 1 down with a retry scheduled, and
        // shard 2 forced onto the baseline after its crash.
        let (dataset, baseline, _) = setup();
        let features: Vec<Vec<f32>> = (0..64)
            .map(|i| baseline.spec().extract(dataset.trace(i % dataset.len())))
            .collect();
        let chaos = ChaosPlan::new(vec![
            ChaosEvent::Crash { batch: 2, shard: 1 },
            ChaosEvent::Crash { batch: 3, shard: 2 },
        ]);
        let (_, mut service) = hot_budgeted_pool(&baseline, chaos);
        for (batch, chunk) in features.chunks(8).enumerate() {
            if batch == 5 {
                assert!(service.force_degrade_shard(2, "hang deadline"));
            }
            service.process_feature_batch(chunk);
        }
        let live = service.checkpoint();
        assert!(matches!(
            live.shards[0].backend,
            BackendCheckpoint::Stochastic(_)
        ));
        assert!(matches!(live.shards[1].backend, BackendCheckpoint::Down));
        assert!(matches!(
            live.shards[2].backend,
            BackendCheckpoint::Baseline
        ));
        assert!(live.shards[0].state.power_target_er.is_some());
        assert!(live.shards[1].state.supervision.next_retry_batch.is_some());
        assert_eq!(
            crate::codec::fnv1a(&live.encode()),
            0x900c_c776_3a8f_5bb3,
            "the v4 encoding of a live supervised checkpoint moved"
        );
    }

    /// Appends one shard's supervision decisions to `out`: the fields the
    /// supervision tick writes, in a fixed byte layout.
    fn encode_decisions(state: &ShardState, out: &mut Vec<u8>) {
        let sup = &state.supervision;
        out.extend_from_slice(sup.health.as_str().as_bytes());
        for word in [
            sup.transitions,
            sup.crashes,
            sup.drift_events,
            sup.retries,
            u64::from(sup.attempt),
            sup.next_retry_batch.map_or(u64::MAX, |b| b),
            state.generation,
            state.power_target_er.map_or(u64::MAX, f64::to_bits),
        ] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(state.degraded_reason.as_deref().unwrap_or("-").as_bytes());
        out.push(0);
    }

    #[test]
    fn supervision_decision_trace_is_pinned() {
        use crate::supervisor::{ChaosEvent, ChaosPlan, PowerBudgetPolicy};

        // A 4-shard pool at the reference temperature (49 °C) under a 31 W
        // budget and a full-target retry policy, scripted through every
        // branch of the supervision tick:
        // - batches 0–1: the cool die deepens every shard to the band cap;
        // - batch 3: a −25 °C spike freezes all four shards — three are
        //   quarantined, the last serving one fails over to the baseline —
        //   and the retries after the spike succeed;
        // - batches 10–39: a +6 °C spike retunes the live models; a chaos
        //   kill at batch 12 retries into clamped (failing) calibrations
        //   until its budget of two runs out;
        // - batches 20–39: a further +10 °C retunes again, the watchdog
        //   flags the drop, the flagged shards back off, and the degraded
        //   shards' nominal draw makes the budget deepen them back;
        // - batch 40: back at 49 °C the deep hot offsets freeze again.
        let (dataset, baseline, _) = setup();
        let features: Vec<Vec<f32>> = (0..32 * 48)
            .map(|i| baseline.spec().extract(dataset.trace(i % dataset.len())))
            .collect();
        let chaos = ChaosPlan::new(vec![
            ChaosEvent::DriftSpike {
                batch: 3,
                delta_c: -25.0,
                duration: 2,
            },
            ChaosEvent::DriftSpike {
                batch: 10,
                delta_c: 6.0,
                duration: 30,
            },
            ChaosEvent::Crash {
                batch: 12,
                shard: 0,
            },
            ChaosEvent::DriftSpike {
                batch: 20,
                delta_c: 10.0,
                duration: 20,
            },
        ]);
        let supervision = SupervisorConfig::new(DeviceProfile::reference())
            .with_chaos(chaos)
            .with_watchdog(4096, 6.0, 0.02)
            .with_retry_policy(2, 2)
            .require_full_target()
            .with_power_budget(PowerBudgetPolicy::new(31.0));
        let config = ServeConfig::new(4)
            .with_seed(41)
            .with_target_error_rate(0.2)
            .with_batch_size(32);
        let mut service =
            MonitoringService::supervised(&baseline, supervision, config).expect("deploys");

        // Per shard after each batch: its record, and its live model's
        // offset and error-rate bits when stochastic.
        type Observed = (ShardState, Option<(Millivolts, u64)>);
        let mut trace = Vec::new();
        let mut reasons = std::collections::BTreeSet::new();
        let (mut retunes, mut recovered, mut rescheduled) = (0, 0, 0);
        let (mut backed_off, mut deepened, mut enforced) = (0, 0, 0);
        let mut before: Vec<Observed> = Vec::new();
        for (batch, chunk) in features.chunks(32).enumerate() {
            service.process_feature_batch(chunk);
            let cool = service.supervisor().unwrap().temperature_at(batch as u64)
                <= DeviceProfile::reference().temp_c;
            let now: Vec<Observed> = service
                .shards
                .iter()
                .map(|shard| {
                    let model = shard
                        .model
                        .as_ref()
                        .and_then(|hmd| hmd.offset().map(|o| (o, hmd.error_rate().to_bits())));
                    (shard.state.clone(), model)
                })
                .collect();
            for (id, (state, model)) in now.iter().enumerate() {
                encode_decisions(state, &mut trace);
                reasons.extend(state.degraded_reason.clone());
                let Some((prev, prev_model)) = before.get(id) else {
                    continue;
                };
                if let (Some((offset, er)), Some((prev_offset, prev_er))) = (model, prev_model) {
                    if state.generation == prev.generation && offset == prev_offset && er != prev_er
                    {
                        retunes += 1;
                    }
                }
                let (sup, was) = (&state.supervision, &prev.supervision);
                if sup.retries > was.retries {
                    if sup.health == ShardHealth::Recovering {
                        recovered += 1;
                    } else if sup.next_retry_batch.is_some() {
                        rescheduled += 1;
                    }
                }
                match (prev.power_target_er, state.power_target_er) {
                    (Some(p), Some(q)) if q < p => backed_off += 1,
                    (Some(p), Some(q)) if q > p && cool => deepened += 1,
                    (Some(p), Some(q)) if q > p => enforced += 1,
                    _ => {}
                }
            }
            before = now;
        }
        let has = |needle: &str| reasons.iter().any(|r| r.contains(needle));
        assert!(has("chaos: shard crashed"), "no chaos kill: {reasons:?}");
        assert!(has("froze"), "no freeze: {reasons:?}");
        assert!(has("last serving shard"), "no fail-over: {reasons:?}");
        assert!(
            has("retry budget exhausted"),
            "no exhausted budget: {reasons:?}"
        );
        assert!(retunes > 0, "no live model was retuned");
        assert!(recovered > 0, "no retry succeeded");
        assert!(rescheduled > 0, "no retry backed off");
        assert!(
            service.snapshot().total_drift_events() > 0,
            "no watchdog drift"
        );
        assert!(backed_off > 0, "no drift-flagged shard backed off");
        assert!(deepened > 0, "no shard deepened on a cool die");
        assert!(
            enforced > 0,
            "the budget never deepened a shard on a hot die"
        );
        assert_eq!(
            crate::codec::fnv1a(&trace),
            0x5bfc_80cb_3aa5_adf6,
            "the supervision decisions moved"
        );
    }
}
