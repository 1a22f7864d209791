//! The adaptive-attacker arena: denoising, transfer, and workload-drift
//! attacks driven against the **live** monitoring service, with the
//! uncertainty-aware re-query counter measured on the defender's side.
//!
//! Every prior attack bench reverse-engineers a bare detector; this one
//! routes the adversary through [`stochastic_hmd::arena::ArenaOracle`],
//! so each query advances the real serving stream, draws the real
//! per-position fault stream, and pays the real query bill. The
//! `arena_bench` binary writes the standing security matrix to
//! `BENCH_9.json`:
//!
//! - **denoise** — the §IX cost curve made explicit: per delivered error
//!   rate, the minimal queries-per-sample a majority-voting attacker
//!   needs before its proxy recovers the clean boundary;
//! - **transfer** — (attacker family × victim × error rate): proxies
//!   trained on the live service's stochastic labels, replayed as
//!   proxy-evading malware at the same live victim; offline RHMD rows
//!   (with and without the Tang-style anomaly member) for detector
//!   diversity;
//! - **requery** — accuracy lost to boundary-band label noise at a high
//!   error rate, and how much of it the ensemble re-query claws back,
//!   with honest re-query cost accounting;
//! - **drift** — seeded Dirichlet family-mix shifts through a supervised
//!   pool at a fixed fault rate: the delivered-rate watchdog must not
//!   fire on pure workload drift;
//! - **determinism** — serial vs threaded replays of the re-query and
//!   drift streams ([`crate::replay::twin`]) and a mid-arena
//!   checkpoint/restore through the byte codec
//!   ([`crate::replay::restores`]), all required bit-identical.

use shmd_attack::arena::{denoise_cost_search, DenoiseCurve, DEFAULT_QUERY_LADDER};
use shmd_attack::reverse::{reverse_engineer, ReverseConfig};
use shmd_attack::transfer::{transferability, DEFAULT_DETECTION_PERIODS};
use shmd_attack::{EvasionConfig, ProxyKind};
use shmd_ml::anomaly::{AnomalyConfig, AnomalyScorer};
use shmd_volt::calibration::{CalibrationCurve, Calibrator, DeviceProfile};
use shmd_workload::dataset::Dataset;
use shmd_workload::drift::{DriftSchedule, DriftStream};
use shmd_workload::trace::Trace;
use std::time::Instant;
use stochastic_hmd::arena::ArenaOracle;
use stochastic_hmd::detector::{Detector, Label};
use stochastic_hmd::exec::ExecConfig;
use stochastic_hmd::json;
use stochastic_hmd::serve::{MonitoringService, RequeryConfig, ServeConfig};
use stochastic_hmd::supervisor::SupervisorConfig;
use stochastic_hmd::BaselineHmd;

use crate::cli::Scale;
use crate::replay;

/// Proxy families the transfer attacker trains on the live labels.
pub const ATTACKER_FAMILIES: [ProxyKind; 3] = [
    ProxyKind::Mlp,
    ProxyKind::RandomForest,
    ProxyKind::LogisticRegression,
];

/// Slack below the clean-oracle agreement that defines the denoising
/// attacker's target: the attack "succeeds" at a rung when the denoised
/// proxy is within this margin of what a noise-free oracle yields.
pub const DENOISE_SLACK: f64 = 0.03;

/// Accuracy losses below this are considered within quantisation noise
/// of the eval stream; the re-query recovery gate passes trivially when
/// the high-error deployment never lost this much to begin with.
pub const TINY_LOSS: f64 = 0.02;

/// Scale-dependent shape of the arena run.
#[derive(Clone, Debug)]
pub struct ArenaPlan {
    /// Delivered error rates swept (first entry must be `0.0`: the
    /// baseline victim every gate compares against).
    pub error_rates: Vec<f64>,
    /// Times the test fold is tiled into the accuracy eval stream (each
    /// repetition lands at fresh stream positions, so repeated samples
    /// draw independent fault streams).
    pub eval_reps: usize,
    /// Queries per eval batch.
    pub eval_batch: usize,
    /// Error rate of the re-query scenario (the band-edge noise source).
    pub requery_er: f64,
    /// Re-query policy of that scenario: the confidence half-band around
    /// the decision threshold and the extra stochastic draws per band hit.
    pub requery: RequeryConfig,
    /// Batches of the drift replay.
    pub drift_batches: u64,
    /// Queries per drift batch.
    pub drift_batch: usize,
    /// Dirichlet segments across the drift replay.
    pub drift_segments: usize,
    /// Shards of every deployed pool.
    pub shards: usize,
}

impl ArenaPlan {
    /// The plan for a benchmark scale.
    pub fn for_scale(scale: Scale) -> ArenaPlan {
        match scale {
            Scale::Fast => ArenaPlan {
                error_rates: vec![0.0, 0.1, 0.3],
                eval_reps: 20,
                eval_batch: 256,
                requery_er: 0.3,
                // At er 0.3 a fault flip saturates the logistic score, so
                // the only robust posture on the tiny fast-scale eval is
                // to treat every verdict as uncertain; the larger scales
                // afford the selective 0.499 band.
                requery: RequeryConfig::new(0.5, 14),
                drift_batches: 12,
                drift_batch: 512,
                drift_segments: 4,
                shards: 2,
            },
            Scale::Medium => ArenaPlan {
                error_rates: vec![0.0, 0.05, 0.1, 0.2, 0.3],
                eval_reps: 24,
                eval_batch: 512,
                requery_er: 0.3,
                requery: RequeryConfig::new(0.499, 14),
                drift_batches: 24,
                drift_batch: 1024,
                drift_segments: 6,
                shards: 4,
            },
            Scale::Paper => ArenaPlan {
                error_rates: vec![0.0, 0.05, 0.1, 0.2, 0.3],
                eval_reps: 40,
                eval_batch: 1024,
                requery_er: 0.3,
                requery: RequeryConfig::new(0.499, 14),
                drift_batches: 48,
                drift_batch: 2048,
                drift_segments: 8,
                shards: 4,
            },
        }
    }
}

/// A [`Detector`] wrapper that counts queries, so offline victims get
/// the same honest query-cost accounting the live [`ArenaOracle`] keeps.
struct Metered<'a> {
    inner: &'a mut dyn Detector,
    queries: u64,
}

impl Detector for Metered<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn score(&mut self, trace: &Trace) -> f64 {
        self.queries += 1;
        self.inner.score(trace)
    }
    fn classify(&mut self, trace: &Trace) -> Label {
        self.queries += 1;
        self.inner.classify(trace)
    }
}

/// Shared calibration curve for every deployment in the arena.
pub fn calibration() -> CalibrationCurve {
    Calibrator::new()
        .with_step(2)
        .calibrate(&DeviceProfile::reference())
}

/// Deploys an unsupervised pool at a delivered error rate.
fn deploy(
    baseline: &BaselineHmd,
    curve: &CalibrationCurve,
    plan: &ArenaPlan,
    er: f64,
    seed: u64,
    exec: ExecConfig,
    requery: Option<RequeryConfig>,
) -> MonitoringService {
    let mut config = ServeConfig::new(plan.shards)
        .with_seed(seed)
        .with_target_error_rate(er)
        .with_batch_size(plan.eval_batch)
        .with_exec(exec);
    if let Some(rq) = requery {
        config = config.with_requery(rq);
    }
    MonitoringService::deploy(baseline, curve, config)
        .expect("the reference device calibrates at every swept error rate")
}

/// Fits the Tang-style anomaly member on the benign rows of the victim
/// training fold.
pub fn benign_anomaly_scorer(baseline: &BaselineHmd, dataset: &Dataset) -> AnomalyScorer {
    let split = dataset.three_fold_split(0);
    let labeled = dataset.labeled_features(split.victim_training(), baseline.spec());
    let benign: Vec<Vec<f32>> = labeled
        .inputs
        .iter()
        .zip(&labeled.labels)
        .filter(|(_, &malware)| !malware)
        .map(|(row, _)| row.clone())
        .collect();
    AnomalyScorer::fit(&benign, &AnomalyConfig::default())
        .expect("generated datasets always hold benign training rows")
}

/// The tiled accuracy eval stream: test-fold features and ground-truth
/// labels repeated `eval_reps` times (fresh stream positions per tile).
pub fn eval_stream(
    baseline: &BaselineHmd,
    dataset: &Dataset,
    reps: usize,
) -> (Vec<Vec<f32>>, Vec<bool>) {
    let split = dataset.three_fold_split(0);
    let labeled = dataset.labeled_features(split.testing(), baseline.spec());
    let mut features = Vec::with_capacity(labeled.inputs.len() * reps);
    let mut truth = Vec::with_capacity(labeled.labels.len() * reps);
    for _ in 0..reps.max(1) {
        features.extend(labeled.inputs.iter().cloned());
        truth.extend(labeled.labels.iter().copied());
    }
    (features, truth)
}

/// The fraction of `flags` (malware verdicts, in stream order) that
/// match `truth`; 0 when there are none.
fn accuracy_of(flags: impl IntoIterator<Item = bool>, truth: &[bool]) -> f64 {
    let (correct, total) = flags
        .into_iter()
        .zip(truth)
        .fold((0usize, 0usize), |(c, n), (f, &t)| {
            (c + usize::from(f == t), n + 1)
        });
    if total == 0 {
        return 0.0;
    }
    correct as f64 / total as f64
}

/// The malware flags of one served batch.
fn malware_flags(service: &mut MonitoringService, batch: &[Vec<f32>]) -> Vec<bool> {
    service
        .process_feature_batch(batch)
        .iter()
        .map(|v| v.label.is_malware())
        .collect()
}

/// Streams `features` through `service` in plan-sized batches and
/// returns the fraction of verdicts matching `truth`.
fn serve_accuracy(
    service: &mut MonitoringService,
    plan: &ArenaPlan,
    features: &[Vec<f32>],
    truth: &[bool],
) -> f64 {
    let batches = features.chunks(plan.eval_batch);
    accuracy_of(
        batches.flat_map(|batch| malware_flags(service, batch)),
        truth,
    )
}

/// One error rate's denoising cost-curve cell.
#[derive(Clone, Debug)]
pub struct DenoiseCell {
    /// Delivered multiplication error rate of the live victim.
    pub error_rate: f64,
    /// The measured curve (rungs climbed, agreements, per-rung costs).
    pub curve: DenoiseCurve,
    /// Victim queries the oracle metered across the whole search.
    pub oracle_queries: u64,
}

/// Sweeps the denoising attacker across delivered error rates, all
/// against live service oracles. Returns the target agreement used and
/// the per-rate cells.
pub fn denoise_sweep(
    baseline: &BaselineHmd,
    curve: &CalibrationCurve,
    dataset: &Dataset,
    plan: &ArenaPlan,
    seed: u64,
) -> (f64, Vec<DenoiseCell>) {
    let split = dataset.three_fold_split(0);
    let cfg = ReverseConfig::new(ProxyKind::LogisticRegression);
    // Calibrate the attacker's target from a clean oracle: the agreement
    // a single-query attack achieves when the service delivers no
    // faults. Every noisy rung is then chasing this same boundary.
    let mut clean = ArenaOracle::new(deploy(
        baseline,
        curve,
        plan,
        0.0,
        seed ^ 0xa1,
        ExecConfig::serial(),
        None,
    ));
    let mut reference = baseline.clone();
    let clean_curve = denoise_cost_search(
        &mut clean,
        &mut reference,
        dataset,
        split.attacker_training(),
        split.testing(),
        &cfg,
        &[1],
        1.1, // unreachable: measure the k = 1 rung, never stop early
    )
    .expect("clean denoise search");
    let clean_agreement = clean_curve.points[0].agreement;
    let target = (clean_agreement - DENOISE_SLACK).max(0.5);

    let cells = plan
        .error_rates
        .iter()
        .map(|&er| {
            let mut oracle = ArenaOracle::new(deploy(
                baseline,
                curve,
                plan,
                er,
                seed ^ 0xa2,
                ExecConfig::serial(),
                None,
            ));
            let mut reference = baseline.clone();
            let curve = denoise_cost_search(
                &mut oracle,
                &mut reference,
                dataset,
                split.attacker_training(),
                split.testing(),
                &cfg,
                &DEFAULT_QUERY_LADDER,
                target,
            )
            .expect("denoise search");
            DenoiseCell {
                error_rate: er,
                oracle_queries: oracle.queries(),
                curve,
            }
        })
        .collect();
    (target, cells)
}

/// One transfer-matrix cell: an attacker family against a victim.
#[derive(Clone, Debug)]
pub struct TransferCell {
    /// Victim kind: `"service"`, `"rhmd"`, or `"rhmd+anomaly"`.
    pub victim: &'static str,
    /// Delivered error rate (live service rows; `0.0` for offline rows).
    pub error_rate: f64,
    /// Attacker proxy family.
    pub attacker: ProxyKind,
    /// Malware samples the proxy detected (and so tried to evade).
    pub attempted: usize,
    /// Samples whose evasion converged against the proxy.
    pub evaded_proxy: usize,
    /// Evasive samples that also evaded the victim.
    pub evaded_victim: usize,
    /// Scalar transfer success (non-converged counted as no success).
    pub success: f64,
    /// Victim queries the attack spent (reverse-engineering included).
    pub query_cost: u64,
}

/// Accuracy of one victim at one error rate, relative to the baseline.
#[derive(Clone, Debug)]
pub struct AccuracyCell {
    /// Victim kind, as in [`TransferCell::victim`].
    pub victim: &'static str,
    /// Delivered error rate.
    pub error_rate: f64,
    /// Eval-stream accuracy against ground truth.
    pub accuracy: f64,
    /// `accuracy − accuracy(er = 0)` for the same victim kind.
    pub delta: f64,
}

/// Runs one attacker family against one (already metered) victim.
fn attack_cell(
    victim: &mut dyn Detector,
    dataset: &Dataset,
    attacker: ProxyKind,
    seed: u64,
) -> Result<(usize, usize, usize, f64), shmd_attack::ReverseError> {
    let split = dataset.three_fold_split(0);
    let cfg = ReverseConfig {
        seed,
        ..ReverseConfig::new(attacker)
    };
    let proxy = reverse_engineer(victim, dataset, split.attacker_training(), &cfg)?;
    let malware: Vec<usize> = dataset.malware_indices(split.testing()).collect();
    let outcome = transferability(
        victim,
        &proxy,
        dataset,
        &malware,
        &EvasionConfig::default(),
        DEFAULT_DETECTION_PERIODS,
    );
    Ok((
        outcome.attempted,
        outcome.evaded_proxy,
        outcome.evaded_victim,
        outcome.assumed_success_rate(),
    ))
}

/// Sweeps the transfer matrix: every attacker family against the live
/// service at every error rate, plus offline RHMD rows (with and without
/// the anomaly member) for detector diversity. Also measures per-victim
/// eval accuracy so the matrix carries the defender's accuracy bill.
pub fn transfer_sweep(
    baseline: &BaselineHmd,
    curve: &CalibrationCurve,
    dataset: &Dataset,
    plan: &ArenaPlan,
    seed: u64,
) -> (Vec<TransferCell>, Vec<AccuracyCell>) {
    let (eval_features, truth) = eval_stream(baseline, dataset, plan.eval_reps);
    let mut cells = Vec::new();
    let mut accuracies = Vec::new();
    let mut service_base_acc = 0.0;

    for &er in &plan.error_rates {
        // Accuracy of this deployment, on a fresh service so the eval
        // stream does not perturb the attack's stream positions.
        let mut acc_service = deploy(
            baseline,
            curve,
            plan,
            er,
            seed ^ 0xb1,
            ExecConfig::serial(),
            None,
        );
        let accuracy = serve_accuracy(&mut acc_service, plan, &eval_features, &truth);
        if er == 0.0 {
            service_base_acc = accuracy;
        }
        accuracies.push(AccuracyCell {
            victim: "service",
            error_rate: er,
            accuracy,
            delta: accuracy - service_base_acc,
        });

        for (a, &attacker) in ATTACKER_FAMILIES.iter().enumerate() {
            let mut oracle = ArenaOracle::new(deploy(
                baseline,
                curve,
                plan,
                er,
                seed ^ 0xb2 ^ ((a as u64) << 8),
                ExecConfig::serial(),
                None,
            ));
            // A degenerate oracle at this rate records a never-converged
            // attack rather than aborting the matrix.
            let (attempted, evaded_proxy, evaded_victim, success) =
                attack_cell(&mut oracle, dataset, attacker, seed).unwrap_or((0, 0, 0, 0.0));
            cells.push(TransferCell {
                victim: "service",
                error_rate: er,
                attacker,
                attempted,
                evaded_proxy,
                evaded_victim,
                success,
                query_cost: oracle.queries(),
            });
        }
    }

    // Offline RHMD rows: switching-ensemble victims, bare Detector path.
    let split = dataset.three_fold_split(0);
    let construction = stochastic_hmd::RhmdConstruction::TwoFeatures;
    let train_cfg = stochastic_hmd::train::HmdTrainConfig::fast();
    let rhmd_rows: Vec<(&'static str, stochastic_hmd::Rhmd)> = [
        (
            "rhmd",
            stochastic_hmd::Rhmd::train(
                dataset,
                split.victim_training(),
                construction,
                &train_cfg,
                seed ^ 0xc1,
            ),
        ),
        (
            "rhmd+anomaly",
            stochastic_hmd::Rhmd::train_with_anomaly(
                dataset,
                split.victim_training(),
                construction,
                &train_cfg,
                seed ^ 0xc1,
            ),
        ),
    ]
    .into_iter()
    .filter_map(|(name, r)| r.ok().map(|r| (name, r)))
    .collect();

    for (name, rhmd) in rhmd_rows {
        // Accuracy over the tiled eval stream (each tile re-rolls the
        // switching draw).
        let mut scorer = rhmd.clone();
        let tiles = (0..plan.eval_reps.max(1)).flat_map(|_| split.testing());
        let flags = tiles.map(|&i| scorer.classify(dataset.trace(i)).is_malware());
        let accuracy = accuracy_of(flags, &truth);
        accuracies.push(AccuracyCell {
            victim: name,
            error_rate: 0.0,
            accuracy,
            delta: accuracy - service_base_acc,
        });

        for &attacker in &ATTACKER_FAMILIES {
            let mut fresh = rhmd.clone();
            let mut metered = Metered {
                inner: &mut fresh,
                queries: 0,
            };
            let (attempted, evaded_proxy, evaded_victim, success) =
                attack_cell(&mut metered, dataset, attacker, seed).unwrap_or((0, 0, 0, 0.0));
            cells.push(TransferCell {
                victim: name,
                error_rate: 0.0,
                attacker,
                attempted,
                evaded_proxy,
                evaded_victim,
                success,
                query_cost: metered.queries,
            });
        }
    }

    (cells, accuracies)
}

/// The re-query scenario's outcome, determinism verdicts included.
#[derive(Clone, Debug)]
pub struct RequeryOutcome {
    /// Error rate of the noisy deployments.
    pub error_rate: f64,
    /// Confidence half-band.
    pub band: f64,
    /// Stochastic replicas re-queried per band hit.
    pub replicas: usize,
    /// Accuracy of the clean (er = 0) deployment.
    pub acc_clean: f64,
    /// Accuracy at `error_rate` without re-query.
    pub acc_noisy: f64,
    /// Accuracy at `error_rate` with the ensemble re-query (stochastic
    /// replicas + anomaly vote).
    pub acc_requery: f64,
    /// Fraction of the lost accuracy the re-query recovered.
    pub recovered: f64,
    /// Queries whose primary score landed in the band.
    pub band_hits: u64,
    /// Extra ensemble draws spent.
    pub requeries: u64,
    /// Queries served by the re-query deployment.
    pub served: u64,
    /// Serial verdict checksum of the re-query replay.
    pub serial_checksum: u64,
    /// Threaded verdict checksum of the same replay.
    pub threaded_checksum: u64,
    /// Whether serial and threaded replays matched bit-for-bit
    /// (checksums and timing-stripped telemetry).
    pub thread_invariant: bool,
    /// Whether a mid-stream checkpoint/restore converged to the same
    /// final checksum as the uninterrupted run.
    pub restore_identical: bool,
}

impl RequeryOutcome {
    /// Accuracy lost to the error rate without the counter.
    pub fn lost(&self) -> f64 {
        self.acc_clean - self.acc_noisy
    }

    /// Extra ensemble draws per served query — the defender's honest
    /// re-query bill.
    pub fn requery_rate(&self) -> f64 {
        if self.served == 0 {
            return 0.0;
        }
        self.requeries as f64 / self.served as f64
    }
}

/// Measures the uncertainty-aware re-query counter at the band edge,
/// plus the arena's determinism gates (serial vs threaded replay and a
/// mid-stream checkpoint/restore).
pub fn requery_recovery(
    baseline: &BaselineHmd,
    curve: &CalibrationCurve,
    dataset: &Dataset,
    plan: &ArenaPlan,
    seed: u64,
    exec: &ExecConfig,
) -> RequeryOutcome {
    let (features, truth) = eval_stream(baseline, dataset, plan.eval_reps);
    let scorer = benign_anomaly_scorer(baseline, dataset);

    // Clean and noisy (no re-query) references.
    let mut clean = deploy(
        baseline,
        curve,
        plan,
        0.0,
        seed ^ 0xd1,
        ExecConfig::serial(),
        None,
    );
    let acc_clean = serve_accuracy(&mut clean, plan, &features, &truth);
    let mut noisy = deploy(
        baseline,
        curve,
        plan,
        plan.requery_er,
        seed ^ 0xd2,
        ExecConfig::serial(),
        None,
    );
    let acc_noisy = serve_accuracy(&mut noisy, plan, &features, &truth);

    // The counter, serial and threaded: same seed, only the worker pool
    // differs. The anomaly member is not checkpointed, so a restore
    // re-installs it, exactly as documented.
    let install = |mut service: MonitoringService| {
        service
            .install_anomaly_scorer(scorer.clone())
            .expect("the scorer was fitted on this baseline's features");
        service
    };
    let requery = Some(plan.requery);
    let requery_pool = |exec| {
        install(deploy(
            baseline,
            curve,
            plan,
            plan.requery_er,
            seed ^ 0xd3,
            exec,
            requery,
        ))
    };
    let serial = ExecConfig::serial();
    let batches: Vec<&[Vec<f32>]> = features.chunks(plan.eval_batch).collect();
    let twin = replay::twin(
        requery_pool(serial),
        requery_pool(*exec),
        &batches,
        malware_flags,
    );
    let acc_requery = accuracy_of(twin.observed.iter().flatten().copied(), &truth);
    let serial_snap = twin.reference.snapshot();

    // Mid-arena checkpoint: a restored service must replay the tail to
    // the uninterrupted run's checksum and telemetry.
    let restore_identical = replay::restores(
        &twin.reference,
        requery_pool(serial),
        &batches,
        batches.len() / 2,
        malware_flags,
        |checkpoint| {
            MonitoringService::restore(baseline, None, checkpoint, serial)
                .ok()
                .map(install)
        },
    );

    let lost = acc_clean - acc_noisy;
    let recovered = if lost.abs() < f64::EPSILON {
        0.0
    } else {
        (acc_requery - acc_noisy) / lost
    };
    RequeryOutcome {
        error_rate: plan.requery_er,
        band: plan.requery.band,
        replicas: plan.requery.replicas,
        acc_clean,
        acc_noisy,
        acc_requery,
        recovered,
        band_hits: serial_snap.band_hits,
        requeries: serial_snap.requeries,
        served: serial_snap.queries,
        serial_checksum: twin.reference.verdict_checksum(),
        threaded_checksum: twin.candidate.verdict_checksum(),
        thread_invariant: twin.identical,
        restore_identical,
    }
}

/// The workload-drift scenario's outcome.
#[derive(Clone, Debug)]
pub struct DriftOutcome {
    /// Dirichlet segments the schedule shifted through.
    pub segments: usize,
    /// Queries replayed.
    pub queries: u64,
    /// Watchdog drift detections — must be zero: the mix shifted, the
    /// physics did not.
    pub drift_events: u64,
    /// Shard crashes (scripted or physics) — also expected zero.
    pub crashes: u64,
    /// Recalibrations the pool ran (generation bumps past deploy).
    pub retries: u64,
    /// Serial verdict checksum.
    pub checksum: u64,
    /// Whether the threaded replay matched the serial one.
    pub thread_invariant: bool,
}

/// Replays a Dirichlet mix-shift stream through a supervised pool at a
/// fixed fault rate, serial and threaded, and folds the verdicts.
pub fn drift_scenario(
    baseline: &BaselineHmd,
    dataset: &Dataset,
    plan: &ArenaPlan,
    seed: u64,
    exec: &ExecConfig,
) -> DriftOutcome {
    let total = plan.drift_batches * plan.drift_batch as u64;
    let per_segment = (total / plan.drift_segments.max(1) as u64).max(1);
    let schedule = DriftSchedule::dirichlet(plan.drift_segments, per_segment, 0.5, seed)
        .expect("segment and span counts are positive");
    let stream = DriftStream::new(dataset, &schedule, seed ^ 0xe1)
        .expect("generated datasets cover every family");
    let spec = baseline.spec();
    let batch = plan.drift_batch as u64;
    let batches: Vec<Vec<Vec<f32>>> = (0..plan.drift_batches)
        .map(|b| {
            (b * batch..(b + 1) * batch)
                .map(|position| spec.extract(dataset.trace(stream.pick(position))))
                .collect()
        })
        .collect();

    let config = ServeConfig::new(plan.shards)
        .with_seed(seed ^ 0xe2)
        .with_target_error_rate(crate::setup::OPERATING_ERROR_RATE)
        .with_batch_size(plan.drift_batch);
    let deploy = |exec| {
        let supervision = SupervisorConfig::new(DeviceProfile::reference());
        MonitoringService::supervised(baseline, supervision, config.with_exec(exec))
            .expect("the reference device calibrates at the operating point")
    };
    let twin = replay::twin(
        deploy(ExecConfig::serial()),
        deploy(*exec),
        &batches,
        replay::feed,
    );
    let serial = twin.reference.snapshot();
    DriftOutcome {
        segments: plan.drift_segments,
        queries: serial.queries,
        drift_events: serial.total_drift_events(),
        crashes: serial.total_crashes(),
        retries: serial.total_retries(),
        checksum: twin.reference.verdict_checksum(),
        thread_invariant: twin.identical,
    }
}

/// Everything `arena_bench` measures, ready to render and gate.
#[derive(Clone, Debug)]
pub struct ArenaMatrix {
    /// The denoising attacker's target agreement.
    pub denoise_target: f64,
    /// Per-error-rate denoising cost cells.
    pub denoise: Vec<DenoiseCell>,
    /// The transfer matrix.
    pub transfer: Vec<TransferCell>,
    /// Per-victim accuracy cells.
    pub accuracy: Vec<AccuracyCell>,
    /// The re-query counter's outcome.
    pub requery: RequeryOutcome,
    /// The workload-drift scenario's outcome.
    pub drift: DriftOutcome,
    /// Wall-clock seconds the whole arena took.
    pub elapsed_s: f64,
}

/// Mean transfer success over the live-service cells whose error rate
/// `keep` accepts; 0 when there are none.
fn service_success(transfer: &[TransferCell], keep: impl Fn(f64) -> bool) -> f64 {
    let (n, sum) = transfer
        .iter()
        .filter(|c| c.victim == "service" && keep(c.error_rate))
        .fold((0u32, 0.0), |(n, sum), c| (n + 1, sum + c.success));
    sum / f64::from(n.max(1))
}

/// The `arena_bench --check` gates, one message per failed gate, in this
/// order:
///
/// 1. the denoising attacker's required queries-per-sample never drops as
///    the delivered error rate grows;
/// 2. mean transfer success against the undervolted live service, pooled
///    over every cell at er ≥ 0.1 so the gate rides the Figure-4 trend
///    rather than one small-sample cell, does not exceed the mean against
///    the fault-free service (er = 0);
/// 3. the ensemble re-query recovers at least half the accuracy the
///    band-edge error rate cost, unless less than [`TINY_LOSS`] was lost;
/// 4. the re-query replay on `threads` workers is bit-identical to the
///    serial one;
/// 5. the mid-arena checkpoint/restore converges to the uninterrupted run;
/// 6. pure workload drift never fires the delivered-rate watchdog;
/// 7. the drift replay is thread-invariant.
pub fn failures(matrix: &ArenaMatrix, threads: usize) -> Vec<String> {
    let rq = &matrix.requery;
    let d = &matrix.drift;
    let required = |c: &DenoiseCell| c.curve.required_or_saturated();
    let monotone = matrix
        .denoise
        .windows(2)
        .all(|w| required(&w[0]) <= required(&w[1]));
    let base_success = service_success(&matrix.transfer, |er| er.abs() < 1e-12);
    let undervolted = service_success(&matrix.transfer, |er| er >= 0.1);
    let recovers_half = rq.lost() < TINY_LOSS || rq.recovered >= 0.5;
    let gates = [
        (!monotone).then(|| {
            let curve: Vec<_> = matrix
                .denoise
                .iter()
                .map(|c| (c.error_rate, c.curve.required))
                .collect();
            format!("denoising cost curve not monotone in error rate: {curve:?}")
        }),
        (undervolted > base_success + 1e-9).then(|| {
            format!(
                "pooled transfer success {undervolted:.3} against undervolted \
                 victims (er >= 0.1) exceeds the fault-free baseline {base_success:.3}"
            )
        }),
        (!recovers_half).then(|| {
            format!(
                "re-query recovered only {:.0}% of the {:.3} accuracy lost \
                 (clean {:.3}, noisy {:.3}, requery {:.3})",
                rq.recovered * 100.0,
                rq.lost(),
                rq.acc_clean,
                rq.acc_noisy,
                rq.acc_requery
            )
        }),
        (!rq.thread_invariant)
            .then(|| format!("re-query replay diverged between serial and {threads} threads")),
        (!rq.restore_identical)
            .then(|| "mid-arena checkpoint/restore diverged from the original run".to_string()),
        (d.drift_events != 0).then(|| {
            format!(
                "pure workload drift fired the delivered-rate watchdog {} times",
                d.drift_events
            )
        }),
        (!d.thread_invariant)
            .then(|| "drift replay diverged between serial and threaded".to_string()),
    ];
    gates.into_iter().flatten().collect()
}

/// Runs the whole arena at one seed.
pub fn run_arena(
    baseline: &BaselineHmd,
    dataset: &Dataset,
    plan: &ArenaPlan,
    seed: u64,
    exec: &ExecConfig,
) -> ArenaMatrix {
    let start = Instant::now();
    let curve = calibration();
    let (denoise_target, denoise) = denoise_sweep(baseline, &curve, dataset, plan, seed);
    let (transfer, accuracy) = transfer_sweep(baseline, &curve, dataset, plan, seed);
    let requery = requery_recovery(baseline, &curve, dataset, plan, seed, exec);
    let drift = drift_scenario(baseline, dataset, plan, seed, exec);
    ArenaMatrix {
        denoise_target,
        denoise,
        transfer,
        accuracy,
        requery,
        drift,
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

fn proxy_name(kind: ProxyKind) -> &'static str {
    match kind {
        ProxyKind::Mlp => "mlp",
        ProxyKind::LogisticRegression => "logistic",
        ProxyKind::DecisionTree => "tree",
        ProxyKind::RandomForest => "forest",
    }
}

/// `BENCH_9.json` has no wall-clock fields outside `timing` (see
/// [`crate::report`]).
pub const WALL_CLOCK: &[&str] = &[];

/// Renders the matrix as the `BENCH_9.json` document. Timing lives only
/// under `"timing"`, which the serial-rerun comparison skips.
pub fn render_json(matrix: &ArenaMatrix, seed: u64, scale: &str, threads: usize) -> String {
    let rq = &matrix.requery;
    json::document(|w| {
        w.field("bench", "adaptive_arena");
        w.field("seed", seed);
        w.field("scale", scale);
        w.field("threads", threads);
        w.object("timing", |w| w.fixed("elapsed_s", matrix.elapsed_s, 3));
        w.fixed("denoise_target_agreement", matrix.denoise_target, 4);
        w.objects("denoise_curve", &matrix.denoise, |w, cell| {
            w.fixed("error_rate", cell.error_rate, 2);
            w.field("required_queries_per_sample", cell.curve.required);
            w.field("total_query_cost", cell.curve.total_query_cost());
            w.field("oracle_queries", cell.oracle_queries);
            w.objects("points", &cell.curve.points, |w, p| {
                w.field("queries_per_sample", p.queries_per_sample);
                w.field("query_cost", p.query_cost);
                w.fixed("agreement", p.agreement, 4);
            });
        });
        w.objects("transfer", &matrix.transfer, |w, c| {
            w.field("victim", c.victim);
            w.fixed("error_rate", c.error_rate, 2);
            w.field("attacker", proxy_name(c.attacker));
            w.field("attempted", c.attempted);
            w.field("evaded_proxy", c.evaded_proxy);
            w.field("evaded_victim", c.evaded_victim);
            w.fixed("success", c.success, 4);
            w.field("query_cost", c.query_cost);
        });
        w.objects("accuracy", &matrix.accuracy, |w, c| {
            w.field("victim", c.victim);
            w.fixed("error_rate", c.error_rate, 2);
            w.fixed("accuracy", c.accuracy, 4);
            w.fixed("delta", c.delta, 4);
        });
        w.object("requery", |w| {
            w.fixed("error_rate", rq.error_rate, 2);
            w.fixed("band", rq.band, 2);
            w.field("replicas", rq.replicas);
            w.fixed("acc_clean", rq.acc_clean, 4);
            w.fixed("acc_noisy", rq.acc_noisy, 4);
            w.fixed("acc_requery", rq.acc_requery, 4);
            w.fixed("recovered", rq.recovered, 4);
            w.field("band_hits", rq.band_hits);
            w.field("requeries", rq.requeries);
            w.field("served", rq.served);
            w.fixed("requery_rate", rq.requery_rate(), 4);
        });
        w.object("drift", |w| {
            w.field("segments", matrix.drift.segments);
            w.field("queries", matrix.drift.queries);
            w.field("drift_events", matrix.drift.drift_events);
            w.field("crashes", matrix.drift.crashes);
            w.field("retries", matrix.drift.retries);
            w.u64_string("checksum", matrix.drift.checksum);
            w.field("thread_invariant", matrix.drift.thread_invariant);
        });
        w.object("determinism", |w| {
            w.u64_string("serial_checksum", rq.serial_checksum);
            w.u64_string("threaded_checksum", rq.threaded_checksum);
            w.field("thread_invariant", rq.thread_invariant);
            w.field("restore_identical", rq.restore_identical);
        });
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::report::tests::each_gate_fails_alone;
    use crate::setup;
    use crate::Args;

    fn fixture() -> (Dataset, BaselineHmd, ArenaPlan) {
        let args = Args::parse_from(["--fast".to_string()]);
        let dataset = setup::dataset(&args);
        let baseline = setup::victim(&dataset, 0, &args);
        let mut plan = ArenaPlan::for_scale(Scale::Fast);
        // Tiny eval stream: the unit tests check plumbing, not power.
        plan.eval_reps = 4;
        plan.drift_batches = 4;
        plan.drift_batch = 128;
        (dataset, baseline, plan)
    }

    #[test]
    fn requery_scenario_is_deterministic_and_restorable() {
        let (dataset, baseline, plan) = fixture();
        let curve = calibration();
        let outcome = requery_recovery(
            &baseline,
            &curve,
            &dataset,
            &plan,
            11,
            &ExecConfig::threads(4),
        );
        assert!(outcome.thread_invariant, "requery replay diverged");
        assert!(outcome.restore_identical, "restore diverged");
        assert!(outcome.band_hits > 0, "the band must see hits at er 0.3");
        assert!(outcome.requeries > 0);
        assert!((0.0..=1.0).contains(&outcome.acc_clean));
    }

    #[test]
    fn drift_does_not_trip_the_watchdog() {
        let (dataset, baseline, plan) = fixture();
        let outcome = drift_scenario(&baseline, &dataset, &plan, 7, &ExecConfig::threads(4));
        assert_eq!(
            outcome.drift_events, 0,
            "pure workload drift must not fire the delivered-rate watchdog"
        );
        assert!(outcome.thread_invariant, "drift replay diverged");
        assert_eq!(
            outcome.queries,
            plan.drift_batches * plan.drift_batch as u64
        );
    }

    fn pinned_matrix() -> ArenaMatrix {
        ArenaMatrix {
            denoise_target: 0.85,
            denoise: vec![DenoiseCell {
                error_rate: 0.1,
                oracle_queries: 132,
                curve: DenoiseCurve {
                    target_agreement: 0.85,
                    points: vec![],
                    required: Some(3),
                },
            }],
            transfer: vec![TransferCell {
                victim: "service",
                error_rate: 0.1,
                attacker: ProxyKind::Mlp,
                attempted: 10,
                evaded_proxy: 8,
                evaded_victim: 2,
                success: 0.25,
                query_cost: 44,
            }],
            accuracy: vec![AccuracyCell {
                victim: "service",
                error_rate: 0.1,
                accuracy: 0.9,
                delta: -0.02,
            }],
            requery: RequeryOutcome {
                error_rate: 0.3,
                band: 0.15,
                replicas: 14,
                acc_clean: 0.95,
                acc_noisy: 0.85,
                acc_requery: 0.92,
                recovered: 0.7,
                band_hits: 5,
                requeries: 70,
                served: 100,
                serial_checksum: 7,
                threaded_checksum: 7,
                thread_invariant: true,
                restore_identical: true,
            },
            drift: DriftOutcome {
                segments: 4,
                queries: 1000,
                drift_events: 0,
                crashes: 0,
                retries: 0,
                checksum: 9,
                thread_invariant: true,
            },
            elapsed_s: 1.5,
        }
    }

    /// The document [`render_json`] writes for the pinned fixture.
    pub(crate) fn pinned_document() -> String {
        render_json(&pinned_matrix(), 42, "fast", 8)
    }

    #[test]
    fn json_document_is_pinned() {
        let doc = pinned_document();
        let want = r#"{
  "bench": "adaptive_arena",
  "seed": 42,
  "scale": "fast",
  "threads": 8,
  "timing": {"elapsed_s": 1.500},
  "denoise_target_agreement": 0.8500,
  "denoise_curve": [
    {"error_rate": 0.10, "required_queries_per_sample": 3, "total_query_cost": 0, "oracle_queries": 132, "points": []}
  ],
  "transfer": [
    {"victim": "service", "error_rate": 0.10, "attacker": "mlp", "attempted": 10, "evaded_proxy": 8, "evaded_victim": 2, "success": 0.2500, "query_cost": 44}
  ],
  "accuracy": [
    {"victim": "service", "error_rate": 0.10, "accuracy": 0.9000, "delta": -0.0200}
  ],
  "requery": {"error_rate": 0.30, "band": 0.15, "replicas": 14, "acc_clean": 0.9500, "acc_noisy": 0.8500, "acc_requery": 0.9200, "recovered": 0.7000, "band_hits": 5, "requeries": 70, "served": 100, "requery_rate": 0.7000},
  "drift": {"segments": 4, "queries": 1000, "drift_events": 0, "crashes": 0, "retries": 0, "checksum": "9", "thread_invariant": true},
  "determinism": {"serial_checksum": "7", "threaded_checksum": "7", "thread_invariant": true, "restore_identical": true}
}
"#;
        assert_eq!(doc, want);
        assert!(stochastic_hmd::json::parse(&doc).is_ok());
    }

    #[test]
    fn every_gate_fails_alone() {
        // The pinned matrix attacks only the undervolted service; give it
        // a fault-free cell as successful, so the transfer gate passes.
        let mut passing = pinned_matrix();
        let mut fault_free = passing.transfer[0].clone();
        fault_free.error_rate = 0.0;
        passing.transfer.push(fault_free);
        let gates = |m: &ArenaMatrix| failures(m, 8);
        each_gate_fails_alone(
            &passing,
            gates,
            &[
                (
                    |m| {
                        let mut deeper = m.denoise[0].clone();
                        deeper.error_rate = 0.3;
                        deeper.curve.required = Some(2);
                        m.denoise.push(deeper);
                    },
                    "denoising cost curve not monotone in error rate: \
                     [(0.1, Some(3)), (0.3, Some(2))]",
                ),
                (
                    |m| m.transfer[1].success = 0.2,
                    "pooled transfer success 0.250 against undervolted victims \
                     (er >= 0.1) exceeds the fault-free baseline 0.200",
                ),
                (
                    |m| m.requery.recovered = 0.49,
                    "re-query recovered only 49% of the 0.100 accuracy lost \
                     (clean 0.950, noisy 0.850, requery 0.920)",
                ),
                (
                    |m| m.requery.thread_invariant = false,
                    "re-query replay diverged between serial and 8 threads",
                ),
                (
                    |m| m.requery.restore_identical = false,
                    "mid-arena checkpoint/restore diverged from the original run",
                ),
                (
                    |m| m.drift.drift_events = 2,
                    "pure workload drift fired the delivered-rate watchdog 2 times",
                ),
                (
                    |m| m.drift.thread_invariant = false,
                    "drift replay diverged between serial and threaded",
                ),
            ],
        );
        // The recovery gate's edges: exactly half recovered passes, and so
        // does any recovery when less than `TINY_LOSS` was lost.
        let mut rq = passing.clone();
        rq.requery.recovered = 0.5;
        assert_eq!(gates(&rq), Vec::<String>::new());
        rq.requery.recovered = 0.49;
        rq.requery.acc_noisy = rq.requery.acc_clean - 0.01;
        assert_eq!(gates(&rq), Vec::<String>::new());
    }
}
