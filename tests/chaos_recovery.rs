//! Chaos-recovery semantics of the supervised monitoring service: crashed
//! shards are quarantined and their traffic re-routed to survivors (no
//! query dropped, no panic), frozen operating points crash rather than
//! silently corrupt, recovery retries are bounded and deterministic, the
//! retry budget degrades to the baseline instead of retrying forever — and
//! none of it costs determinism: a chaos run replays bit-identically at
//! any thread count, because every supervision decision is a function of
//! the batch index and the master seed, never of wall-clock or scheduling.

use shmd_volt::calibration::DeviceProfile;
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use shmd_workload::trace::Trace;
use stochastic_hmd::exec::ExecConfig;
use stochastic_hmd::serve::{MonitoringService, ServeConfig};
use stochastic_hmd::supervisor::{ChaosEvent, ChaosPlan, ShardHealth, SupervisorConfig};
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};
use stochastic_hmd::BaselineHmd;

fn setup() -> (Dataset, BaselineHmd) {
    let dataset = Dataset::generate(&DatasetConfig::small(100), 23);
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

fn stream(dataset: &Dataset, n: usize) -> Vec<&Trace> {
    (0..n).map(|i| dataset.trace(i % dataset.len())).collect()
}

#[test]
fn scripted_crash_is_quarantined_rerouted_and_recovered() {
    let (dataset, baseline) = setup();
    let chaos = ChaosPlan::none().with_event(ChaosEvent::Crash { batch: 2, shard: 1 });
    let supervision = SupervisorConfig::new(DeviceProfile::reference()).with_chaos(chaos);
    let config = ServeConfig::new(4).with_seed(5).with_batch_size(8);
    let mut service =
        MonitoringService::supervised(&baseline, supervision, config).expect("deploys");

    let queries = stream(&dataset, 8);
    let mut rerouted = 0u64;
    for batch in 0..15u64 {
        let verdicts = service.process_batch(&queries);
        assert_eq!(verdicts.len(), 8, "batch {batch} dropped queries");
        assert!(verdicts.iter().all(|v| !v.is_rejected()));
        let healths = service.shard_healths();
        if healths[1] == ShardHealth::Quarantined {
            // Re-routing: the quarantined shard's stream positions land on
            // survivors — deterministically, not on whoever is idle.
            assert!(
                verdicts.iter().all(|v| v.shard != 1),
                "batch {batch} routed a query to the quarantined shard"
            );
            rerouted += verdicts.iter().filter(|v| v.query % 4 == 1).count() as u64;
        }
    }
    assert!(rerouted > 0, "the crash never took effect");
    assert_eq!(
        service.shard_healths(),
        vec![ShardHealth::Healthy; 4],
        "the crashed shard must recover within the retry budget"
    );
    let snapshot = service.snapshot();
    assert_eq!(snapshot.queries, 120, "every query answered");
    assert_eq!(snapshot.total_crashes(), 1);
    assert_eq!(snapshot.shards[1].supervision.crashes, 1);
    assert!(
        snapshot.shards[1].supervision.retries >= 1,
        "recovery used the retry path"
    );
    assert_eq!(
        snapshot.shards.iter().map(|s| s.queries).sum::<u64>(),
        120,
        "re-routed queries are served, not dropped"
    );
    assert!(
        snapshot.shards[1].queries < snapshot.shards[0].queries,
        "quarantine must cost the crashed shard traffic"
    );
}

#[test]
fn freeze_crashes_the_pool_and_the_last_shard_fails_over() {
    let (dataset, baseline) = setup();
    // Target er = 0.2 sits ~0.26 below the freeze threshold at calibration
    // temperature; a −25 °C excursion pushes the fixed offset past 0.5
    // (temperature inversion: cold is slower), so both shards freeze.
    let chaos = ChaosPlan::none().with_event(ChaosEvent::DriftSpike {
        batch: 2,
        delta_c: -25.0,
        duration: 3,
    });
    let supervision = SupervisorConfig::new(DeviceProfile::reference()).with_chaos(chaos);
    let config = ServeConfig::new(2)
        .with_seed(6)
        .with_batch_size(8)
        .with_target_error_rate(0.2);
    let mut service =
        MonitoringService::supervised(&baseline, supervision, config).expect("deploys");

    let queries = stream(&dataset, 8);
    for _ in 0..15 {
        let verdicts = service.process_batch(&queries);
        assert_eq!(verdicts.len(), 8, "a frozen pool must keep answering");
    }
    let snapshot = service.snapshot();
    assert_eq!(snapshot.queries, 120);
    assert_eq!(
        snapshot.total_crashes(),
        2,
        "both shards crossed the freeze line"
    );
    // One shard was quarantined and recovered; the other was the last one
    // serving, so it failed over to the baseline instead of going dark.
    assert_eq!(snapshot.shards_in(ShardHealth::Healthy), 1);
    assert_eq!(snapshot.shards_in(ShardHealth::Degraded), 1);
    let degraded = snapshot
        .shards
        .iter()
        .find(|s| s.supervision.health == ShardHealth::Degraded)
        .expect("one shard degraded");
    let reason = degraded.degraded_reason.as_deref().expect("cause recorded");
    assert!(reason.contains("froze"), "got {reason}");
    assert!(reason.contains("last serving shard"), "got {reason}");
}

#[test]
fn exhausted_retry_budget_degrades_to_baseline() {
    let (dataset, baseline) = setup();
    // On the step-2 calibration curve er = 0.35 is unreachable: the
    // controller clamps at the guard band. With clamped recoveries
    // forbidden, every retry fails and the budget must bound them.
    let chaos = ChaosPlan::none().with_event(ChaosEvent::Hang { batch: 1, shard: 0 });
    let supervision = SupervisorConfig::new(DeviceProfile::reference())
        .with_chaos(chaos)
        .with_retry_policy(3, 2)
        .require_full_target();
    let config = ServeConfig::new(3)
        .with_seed(7)
        .with_batch_size(8)
        .with_target_error_rate(0.35);
    let mut service =
        MonitoringService::supervised(&baseline, supervision, config).expect("deploys");

    let queries = stream(&dataset, 8);
    for _ in 0..30 {
        let verdicts = service.process_batch(&queries);
        assert_eq!(verdicts.len(), 8);
    }
    let healths = service.shard_healths();
    assert_eq!(
        healths[0],
        ShardHealth::Degraded,
        "budget must not retry forever"
    );
    assert_eq!(healths[1], ShardHealth::Healthy);
    assert_eq!(healths[2], ShardHealth::Healthy);
    let snapshot = service.snapshot();
    assert_eq!(
        snapshot.shards[0].supervision.retries, 3,
        "exactly the budget, no more"
    );
    let reason = snapshot.shards[0]
        .degraded_reason
        .as_deref()
        .expect("cause recorded");
    assert!(reason.contains("retry budget exhausted"), "got {reason}");
    assert_eq!(snapshot.queries, 240, "the pool served through it all");
}

#[test]
fn thermal_drift_trips_the_watchdog_and_recalibrates() {
    let (dataset, baseline) = setup();
    // A −15 °C excursion roughly doubles the delivered error rate at the
    // er = 0.1 offset without freezing it: the watchdog must notice the
    // drift from the fault stream alone and recalibrate.
    let chaos = ChaosPlan::none().with_event(ChaosEvent::DriftSpike {
        batch: 6,
        delta_c: -15.0,
        duration: 12,
    });
    // Tighten the watchdog window so short test streams complete windows.
    let supervision = SupervisorConfig::new(DeviceProfile::reference())
        .with_chaos(chaos)
        .with_watchdog(2048, 6.0, 0.02);
    let config = ServeConfig::new(2).with_seed(8).with_batch_size(8);
    let mut service =
        MonitoringService::supervised(&baseline, supervision, config).expect("deploys");

    let queries = stream(&dataset, 8);
    for _ in 0..30 {
        service.process_batch(&queries);
    }
    let snapshot = service.snapshot();
    assert_eq!(
        snapshot.total_crashes(),
        0,
        "a −15 °C drift is not a freeze"
    );
    assert!(
        snapshot.total_drift_events() >= 1,
        "the watchdog never noticed a doubled fault rate"
    );
    assert!(
        service.shard_healths().iter().all(|h| h.is_serving()),
        "drift recovery must end serving: {:?}",
        service.shard_healths()
    );
    assert_eq!(snapshot.queries, 240);
}

#[test]
fn chaos_runs_are_bit_identical_serial_vs_threaded() {
    let (dataset, baseline) = setup();
    let queries = stream(&dataset, 160);
    let dim = baseline.spec().extract(dataset.trace(0)).len();
    let run = |exec: ExecConfig| {
        let chaos =
            ChaosPlan::seeded(99, 4, 16, 2, 1).with_event(ChaosEvent::Crash { batch: 3, shard: 2 });
        let supervision = SupervisorConfig::new(DeviceProfile::reference())
            .with_environment(shmd_volt::environment::EnvironmentConfig::drifting(
                DeviceProfile::reference().temp_c,
                4,
            ))
            .with_chaos(chaos);
        let config = ServeConfig::new(4)
            .with_seed(17)
            .with_batch_size(16)
            .with_target_error_rate(0.2)
            .with_exec(exec);
        let mut service =
            MonitoringService::supervised(&baseline, supervision, config).expect("deploys");
        // Mix in poison: every 16th query arrives width-corrupted, so the
        // rejection path is part of the determinism contract too.
        let mut verdicts = Vec::new();
        let mut healths = Vec::new();
        for chunk in queries.chunks(16) {
            let mut features: Vec<Vec<f32>> =
                chunk.iter().map(|t| baseline.spec().extract(t)).collect();
            features[7] = vec![0.5; dim + 1];
            verdicts.extend(service.process_feature_batch(&features));
            healths.push(service.shard_healths());
        }
        (verdicts, healths, service.snapshot().without_timing())
    };
    let (serial_verdicts, serial_healths, serial_snapshot) = run(ExecConfig::serial());
    assert_eq!(
        serial_snapshot.rejected_queries, 10,
        "one poison per batch, all contained"
    );
    assert!(
        serial_snapshot.total_crashes() >= 1,
        "chaos must have fired"
    );
    for threads in [2, 8] {
        let (verdicts, healths, snapshot) = run(ExecConfig::threads(threads));
        assert_eq!(
            verdicts, serial_verdicts,
            "chaos verdict stream differs at {threads} threads"
        );
        assert_eq!(
            healths, serial_healths,
            "health transitions differ at {threads} threads"
        );
        assert_eq!(
            snapshot, serial_snapshot,
            "chaos telemetry differs at {threads} threads"
        );
    }
}

#[test]
fn poison_queries_during_chaos_cost_only_their_own_verdicts() {
    let (dataset, baseline) = setup();
    let chaos = ChaosPlan::none().with_event(ChaosEvent::Crash { batch: 1, shard: 0 });
    let supervision = SupervisorConfig::new(DeviceProfile::reference()).with_chaos(chaos);
    let config = ServeConfig::new(3).with_seed(19).with_batch_size(101);
    let mut service =
        MonitoringService::supervised(&baseline, supervision, config).expect("deploys");

    // The regression from the unsupervised serving layer, now under chaos:
    // one malformed query at the head of a batch of 101 must not take a
    // worker down with it.
    for batch in 0..4 {
        let mut features: Vec<Vec<f32>> = stream(&dataset, 100)
            .iter()
            .map(|t| baseline.spec().extract(t))
            .collect();
        let mut poison = features[0].clone();
        poison[0] = f32::NAN;
        features.insert(0, poison);
        let verdicts = service.process_feature_batch(&features);
        assert_eq!(verdicts.len(), 101);
        assert!(verdicts[0].is_rejected(), "batch {batch}");
        assert!(!verdicts[0].label.is_malware());
        assert!(
            verdicts[1..].iter().all(|v| !v.is_rejected()),
            "batch {batch}: a poison query must cost exactly one verdict"
        );
    }
    let snapshot = service.snapshot();
    assert_eq!(snapshot.rejected_queries, 4);
    assert_eq!(snapshot.queries, 404);
    assert_eq!(
        snapshot.shards.iter().map(|s| s.queries).sum::<u64>(),
        400,
        "rejected queries never reach a shard"
    );
}
