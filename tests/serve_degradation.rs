//! The serving layer's failure semantics: a shard whose calibration cannot
//! deliver the target error rate degrades to the baseline detector —
//! mid-stream, without dropping queries — and the telemetry layer records
//! exactly what happened. Degradation must never cost determinism: the
//! verdict stream stays bit-identical at any thread count through the
//! whole degrade/recover cycle.

use shmd_volt::calibration::{CalibrationCurve, Calibrator, DeviceProfile};
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use shmd_workload::trace::Trace;
use stochastic_hmd::detector::Detector;
use stochastic_hmd::exec::ExecConfig;
use stochastic_hmd::serve::{MonitoringService, ServeConfig};
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};
use stochastic_hmd::{BaselineHmd, ShardHealth};

fn setup() -> (Dataset, BaselineHmd, CalibrationCurve) {
    let dataset = Dataset::generate(&DatasetConfig::small(100), 31);
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
fn deploy_time_degradation_serves_the_baseline_and_records_why() {
    let (dataset, baseline, curve) = setup();
    // FREEZE_ERROR_RATE is 0.5: no calibration reaches er = 0.9, so every
    // shard must fall back to the baseline at deploy time.
    let config = ServeConfig::new(2)
        .with_target_error_rate(0.9)
        .with_seed(11);
    let mut service =
        MonitoringService::deploy(&baseline, &curve, config).expect("0.9 is a valid target");
    let queries = stream(&dataset, 24);
    let verdicts = service.process_stream(&queries);
    assert_eq!(verdicts.len(), 24, "degraded pool must answer every query");
    for (v, q) in verdicts.iter().zip(&queries) {
        let expected = baseline.score_features(&baseline.spec().extract(q));
        assert_eq!(
            v.score, expected,
            "degraded shard must serve baseline scores"
        );
        assert_eq!(
            v.label.is_malware(),
            v.score >= Detector::threshold(&baseline)
        );
    }
    let snapshot = service.snapshot();
    assert_eq!(snapshot.degraded_shards(), 2);
    assert_eq!(snapshot.degradation_events, 2);
    assert_eq!(snapshot.total_faults().multiplies, 0, "no injector ran");
    for shard in &snapshot.shards {
        assert_eq!(shard.supervision.health, ShardHealth::Degraded);
        assert!(
            shard.degraded_reason.is_some(),
            "telemetry records the cause"
        );
    }
}

#[test]
fn mid_stream_degradation_and_recovery_preserve_history() {
    let (dataset, baseline, curve) = setup();
    let mut service =
        MonitoringService::deploy(&baseline, &curve, ServeConfig::new(3).with_seed(12))
            .expect("valid config");
    let queries = stream(&dataset, 30);
    service.process_stream(&queries);
    let healthy = service.snapshot();
    assert_eq!(healthy.degraded_shards(), 0);
    let faults_so_far = healthy.total_faults();
    assert!(faults_so_far.multiplies > 0);

    // The operator retargets past the freeze point mid-stream: the next
    // recalibration degrades the whole pool, but serving continues.
    service.retarget(0.95).expect("a valid probability");
    assert_eq!(service.recalibrate(&curve), 3);
    let verdicts = service.process_stream(&queries);
    assert_eq!(verdicts.len(), 30);
    let degraded = service.snapshot();
    assert_eq!(degraded.degraded_shards(), 3);
    assert_eq!(degraded.queries, 60, "no query dropped across the swap");
    assert_eq!(
        degraded.total_faults(),
        faults_so_far,
        "retired fault counters survive the backend swap"
    );

    // Recovery: a reachable target brings the moving target back, and the
    // degradation history stays cumulative.
    service.retarget(0.1).expect("a valid probability");
    assert_eq!(service.recalibrate(&curve), 0);
    service.process_stream(&queries);
    let recovered = service.snapshot();
    assert_eq!(recovered.degraded_shards(), 0);
    assert_eq!(recovered.degradation_events, 3, "history is not erased");
    assert!(
        recovered.total_faults().multiplies > faults_so_far.multiplies,
        "recovered shards inject faults again"
    );
}

#[test]
fn degrade_recover_cycle_is_thread_invariant() {
    let (dataset, baseline, curve) = setup();
    let queries = stream(&dataset, 48);
    let run = |exec: ExecConfig| {
        let config = ServeConfig::new(4)
            .with_seed(13)
            .with_batch_size(16)
            .with_exec(exec);
        let mut service =
            MonitoringService::deploy(&baseline, &curve, config).expect("valid config");
        let mut verdicts = service.process_stream(&queries);
        service.retarget(0.9).expect("a valid probability");
        service.recalibrate(&curve);
        verdicts.extend(service.process_stream(&queries));
        service.retarget(0.1).expect("a valid probability");
        service.recalibrate(&curve);
        verdicts.extend(service.process_stream(&queries));
        (verdicts, service.snapshot().without_timing())
    };
    let (serial_verdicts, serial_snapshot) = run(ExecConfig::serial());
    for threads in [2, 8] {
        let (verdicts, snapshot) = run(ExecConfig::threads(threads));
        assert_eq!(
            verdicts, serial_verdicts,
            "degrade/recover verdicts differ at {threads} threads"
        );
        assert_eq!(
            snapshot, serial_snapshot,
            "degrade/recover telemetry differs at {threads} threads"
        );
    }
}

#[test]
fn telemetry_json_survives_a_degradation_cycle() {
    let (dataset, baseline, curve) = setup();
    let mut service =
        MonitoringService::deploy(&baseline, &curve, ServeConfig::new(2).with_seed(14))
            .expect("valid config");
    let queries = stream(&dataset, 20);
    service.process_stream(&queries);
    service.retarget(0.9).expect("a valid probability");
    service.recalibrate(&curve);
    service.process_stream(&queries);

    let snapshot = service.snapshot();
    assert!(stochastic_hmd::json::parse(&snapshot.to_json()).is_ok());
    assert_eq!(snapshot.degraded_shards(), 2);
    assert!(snapshot
        .shards
        .iter()
        .all(|s| s.degraded_reason.as_deref().is_some_and(|r| !r.is_empty())));

    // Fixed seed ⇒ deterministic timing-stripped snapshot: a second
    // identical run exports identical JSON.
    let mut again = MonitoringService::deploy(&baseline, &curve, ServeConfig::new(2).with_seed(14))
        .expect("valid config");
    again.process_stream(&queries);
    again.retarget(0.9).expect("a valid probability");
    again.recalibrate(&curve);
    again.process_stream(&queries);
    assert_eq!(
        again.snapshot().without_timing().to_json(),
        snapshot.without_timing().to_json()
    );
}
