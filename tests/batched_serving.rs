//! End-to-end contract of the batched (structure-of-arrays) serving path:
//! widening the per-shard lane count is a pure wall-clock optimization.
//! Verdict streams, telemetry snapshots, and the order-sensitive verdict
//! checksum must be bit-identical to the one-lane (`lanes = 1`)
//! deployment for any lane width, any detection policy, any thread count,
//! and any interleaving of well-formed and poison queries — including
//! workloads a property test skews adversarially. Every width runs the
//! same lane-block engine, so these tests compare widths with each other;
//! the independent scalar oracle for the verdicts themselves is a unit
//! test in `core::serve`.
//!
//! These tests drive the public `MonitoringService` API only, the same
//! surface `batch_bench` measures, so the BENCH_6 identity claims are
//! re-checked here on every CI run without the benchmark's wall-clock
//! noise.

use shmd_volt::calibration::{CalibrationCurve, Calibrator, DeviceProfile};
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use std::sync::OnceLock;
use stochastic_hmd::exec::ExecConfig;
use stochastic_hmd::serve::{MonitoringService, ServeConfig, Verdict};
use stochastic_hmd::telemetry::TelemetrySnapshot;
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};
use stochastic_hmd::{BaselineHmd, DetectionPolicy};

/// One trained fixture shared by every test and property case: training
/// dominates the wall clock, the contract under test does not depend on
/// which detector serves.
fn fixture() -> &'static (Dataset, BaselineHmd, CalibrationCurve) {
    static FIXTURE: OnceLock<(Dataset, BaselineHmd, CalibrationCurve)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = Dataset::generate(&DatasetConfig::small(100), 41);
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
    })
}

/// Replays `features` through a fresh deployment and returns the verdict
/// stream plus the timing-stripped snapshot.
fn replay(
    features: &[Vec<f32>],
    lanes: usize,
    policy: DetectionPolicy,
    exec: ExecConfig,
    batch_size: usize,
) -> (Vec<Verdict>, TelemetrySnapshot) {
    let (_, baseline, curve) = fixture();
    let config = ServeConfig::new(3)
        .with_seed(17)
        .with_policy(policy)
        .with_batch_size(batch_size)
        .with_exec(exec)
        .with_lanes(lanes);
    let mut service = MonitoringService::deploy(baseline, curve, config).expect("valid config");
    let mut verdicts = Vec::new();
    for chunk in features.chunks(batch_size.max(1)) {
        verdicts.extend(service.process_feature_batch(chunk));
    }
    (verdicts, service.snapshot().without_timing())
}

/// A well-formed feature vector for query index `i`.
fn well_formed(i: usize) -> Vec<f32> {
    let (dataset, baseline, _) = fixture();
    baseline.spec().extract(dataset.trace(i % dataset.len()))
}

#[test]
fn lane_width_never_changes_the_verdict_stream_or_checksum() {
    let features: Vec<Vec<f32>> = (0..96).map(well_formed).collect();
    let (one_lane, one_lane_snapshot) = replay(
        &features,
        1,
        DetectionPolicy::Single,
        ExecConfig::serial(),
        32,
    );
    // 4 rounds down to one lane and 16 to eight.
    for lanes in [4, 8, 16] {
        let (wide, snapshot) = replay(
            &features,
            lanes,
            DetectionPolicy::Single,
            ExecConfig::serial(),
            32,
        );
        assert_eq!(wide, one_lane, "verdicts differ at {lanes} lanes");
        assert_eq!(
            snapshot, one_lane_snapshot,
            "telemetry differs at {lanes} lanes"
        );
        assert_eq!(
            snapshot.verdict_checksum, one_lane_snapshot.verdict_checksum,
            "checksum differs at {lanes} lanes"
        );
    }
}

#[test]
fn poison_queries_mid_lane_are_contained_at_every_width() {
    let (_, baseline, _) = fixture();
    let dim = baseline.quantized().input_dim();
    // Poison lands mid-block on purpose: a width mismatch at stream
    // position 5 and a NaN at position 11 both route to shard 2 and thin
    // out its group in the first batch, so lane regrouping around
    // rejected slots is exercised.
    let mut features: Vec<Vec<f32>> = (0..64).map(well_formed).collect();
    features[5] = vec![0.25; dim + 2];
    features[11][0] = f32::NAN;
    features[37] = vec![0.5; dim.saturating_sub(1)];
    let (one_lane, one_lane_snapshot) = replay(
        &features,
        1,
        DetectionPolicy::Single,
        ExecConfig::serial(),
        16,
    );
    assert_eq!(
        one_lane.iter().filter(|v| v.is_rejected()).count(),
        3,
        "all three poison queries must be rejected"
    );
    for lanes in [8, 16] {
        let (wide, snapshot) = replay(
            &features,
            lanes,
            DetectionPolicy::Single,
            ExecConfig::serial(),
            16,
        );
        assert_eq!(wide, one_lane, "poison stream differs at {lanes} lanes");
        assert_eq!(snapshot, one_lane_snapshot);
    }
}

#[test]
fn majority_policies_are_lane_and_thread_invariant() {
    let features: Vec<Vec<f32>> = (0..60).map(well_formed).collect();
    for policy in [
        DetectionPolicy::MajorityOf(3),
        DetectionPolicy::MajorityOf(5),
        DetectionPolicy::AnyOf(3),
    ] {
        let (one_lane, one_lane_snapshot) = replay(&features, 1, policy, ExecConfig::serial(), 20);
        for (lanes, exec) in [
            (8, ExecConfig::serial()),
            (16, ExecConfig::serial()),
            (8, ExecConfig::threads(4)),
        ] {
            let (wide, snapshot) = replay(&features, lanes, policy, exec, 20);
            assert_eq!(wide, one_lane, "{policy:?} differs at {lanes} lanes");
            assert_eq!(snapshot, one_lane_snapshot, "{policy:?} telemetry differs");
        }
    }
}

#[test]
fn claim_boundaries_never_change_the_verdict_stream() {
    // Batch sizes on both sides of the smallest claim (32 queries) and of
    // the claims a 1 024-query batch is cut into, against one-query
    // batches, which make exactly one claim each. Batch counts and the
    // per-batch energy sums depend on the batch size, so the snapshots
    // are compared through their verdict checksum only.
    let features: Vec<Vec<f32>> = (0..1_100).map(well_formed).collect();
    let (reference, reference_snapshot) = replay(
        &features,
        1,
        DetectionPolicy::Single,
        ExecConfig::serial(),
        1,
    );
    for batch_size in [1, 31, 32, 33, 257, 1_025] {
        for workers in [1, 2, 8] {
            for lanes in [1, 8] {
                let (verdicts, snapshot) = replay(
                    &features,
                    lanes,
                    DetectionPolicy::Single,
                    ExecConfig::threads(workers),
                    batch_size,
                );
                let context = format!("batches of {batch_size}, {workers} workers, {lanes} lanes");
                assert_eq!(verdicts, reference, "{context}");
                assert_eq!(
                    snapshot.verdict_checksum, reference_snapshot.verdict_checksum,
                    "{context}"
                );
            }
        }
    }
}

#[test]
fn an_empty_batch_answers_nothing_and_leaves_the_stream_alone() {
    let (dataset, baseline, curve) = fixture();
    let config = ServeConfig::new(3)
        .with_seed(17)
        .with_exec(ExecConfig::threads(2));
    let mut service = MonitoringService::deploy(baseline, curve, config).expect("valid config");
    let traces: Vec<_> = (0..40).map(|i| dataset.trace(i)).collect();
    service.process_batch(&traces);
    let (served, checksum) = (service.served(), service.verdict_checksum());
    assert!(service.process_batch(&[]).is_empty());
    assert!(service.process_feature_batch(&[]).is_empty());
    assert_eq!(service.served(), served);
    assert_eq!(service.verdict_checksum(), checksum);
}

proptest::proptest! {
    /// Skewed adversarial workloads: random lengths, random poison
    /// placement (width mismatches and NaNs anywhere, including runs),
    /// random lane width and batch size — the batched replay must stay
    /// bit-identical to the one-lane one. Widths between the compiled
    /// ones exercise the round-down to `LANE_WIDTHS`: 2–7 run one lane,
    /// 9–16 run eight.
    #[test]
    fn skewed_workloads_stay_bit_identical(
        len in 1usize..80,
        lanes in 2usize..17,
        batch_size in 1usize..33,
        poison in proptest::collection::vec(proptest::any::<u8>(), 1..80)
    ) {
        let (_, baseline, _) = fixture();
        let dim = baseline.quantized().input_dim();
        let features: Vec<Vec<f32>> = (0..len)
            .map(|i| match poison[i % poison.len()] % 7 {
                0 => vec![0.5; dim + 1 + (i % 3)],
                1 => {
                    let mut f = well_formed(i);
                    f[i % dim] = f32::NAN;
                    f
                }
                _ => well_formed(i),
            })
            .collect();
        let (one_lane, one_lane_snapshot) = replay(
            &features, 1, DetectionPolicy::MajorityOf(3), ExecConfig::serial(), batch_size,
        );
        let (wide, snapshot) = replay(
            &features, lanes, DetectionPolicy::MajorityOf(3), ExecConfig::serial(), batch_size,
        );
        proptest::prop_assert_eq!(wide, one_lane);
        proptest::prop_assert_eq!(snapshot, one_lane_snapshot);
    }
}
