//! The paper's headline claims, asserted end to end at test scale.

use shmd_power::cmos::{CmosPowerModel, PowerScope};
use shmd_power::latency::LatencyModel;
use shmd_power::memory::storage_savings;
use shmd_power::rng_cost::{NoiseSource, RngCostModel};
use shmd_volt::entropy::approximate_entropy_bits;
use shmd_volt::fault::{FaultModel, FaultStream};
use shmd_volt::voltage::{Millivolts, NOMINAL_CORE_VOLTAGE};
use shmd_workload::dataset::{Dataset, DatasetConfig};
use stochastic_hmd::explore::accuracy_sweep;
use stochastic_hmd::train::HmdTrainConfig;
use stochastic_hmd::ExecConfig;

#[test]
fn claim_accuracy_loss_is_small_at_the_operating_point() {
    // "Stochastic-HMDs can detect ... with a negligible (i.e., < 2%)
    // accuracy loss" — allow extra slack at this test's tiny scale.
    let dataset = Dataset::generate(&DatasetConfig::small(100), 1);
    let points = accuracy_sweep(
        &dataset,
        &[0.0, 0.1],
        5,
        &HmdTrainConfig::fast(),
        3,
        &ExecConfig::auto(),
    )
    .expect("sweep succeeds");
    let loss = points[0].accuracy_mean - points[1].accuracy_mean;
    assert!(loss < 0.06, "accuracy loss at er = 0.1: {loss}");
}

#[test]
fn claim_degradation_diverges_as_error_rate_approaches_one() {
    // Fig. 2(a): "the accuracy degradation diverges ... as the error rate
    // approaches 1; the relationship is not linear."
    let dataset = Dataset::generate(&DatasetConfig::small(100), 2);
    let points = accuracy_sweep(
        &dataset,
        &[0.1, 0.5, 1.0],
        4,
        &HmdTrainConfig::fast(),
        3,
        &ExecConfig::auto(),
    )
    .expect("sweep succeeds");
    let early_drop = points[0].accuracy_mean - points[1].accuracy_mean;
    let late_drop = points[1].accuracy_mean - points[2].accuracy_mean;
    assert!(
        late_drop > early_drop,
        "degradation must accelerate: {early_drop} then {late_drop}"
    );
}

#[test]
fn claim_faults_are_stochastic_not_deterministic() {
    // §II: the fault *pattern* over repeated identical multiplications
    // passes an approximate-entropy check.
    let mut injector = FaultStream::new(FaultModel::from_error_rate(0.5).expect("valid"), 4);
    let product = 0x7a5a_5a5a_5a5a_5a5ai64;
    let series: Vec<bool> = (0..600)
        .map(|_| injector.corrupt_product(product) != product)
        .collect();
    let apen = approximate_entropy_bits(&series, 2);
    assert!(apen > 0.4, "fault occurrence series looks regular: {apen}");
}

#[test]
fn claim_power_savings_come_for_free() {
    // "~15% power savings" at the operating point (package scope), with no
    // latency cost.
    let power = CmosPowerModel::i7_5557u();
    let op = NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(-134));
    let saving = power.savings_over_baseline(op, PowerScope::Package);
    assert!((0.08..=0.25).contains(&saving), "package savings {saving}");

    let latency = LatencyModel::i7_5557u();
    let macs = LatencyModel::paper_detector_macs();
    assert_eq!(
        latency.stochastic_hmd_us(macs, op),
        latency.hmd_us(macs),
        "undervolting must not cost latency"
    );
}

#[test]
fn claim_stochastic_hmd_beats_rhmd_on_every_overhead() {
    let latency = LatencyModel::i7_5557u();
    let macs = LatencyModel::paper_detector_macs();
    assert!(latency.rhmd_us(macs, 2) > latency.hmd_us(macs) * 1.08);
    assert_eq!(storage_savings(2), 0.5);
    let power = CmosPowerModel::i7_5557u();
    assert!(power.savings_over_rhmd(NOMINAL_CORE_VOLTAGE, PowerScope::Core) > 0.0);
}

#[test]
fn claim_rng_based_noise_is_orders_of_magnitude_costlier() {
    let rng = RngCostModel::i7_5557u();
    assert!(rng.time_overhead(NoiseSource::Trng) > 50.0);
    assert!(rng.energy_overhead(NoiseSource::Trng) > 100.0);
    assert!(rng.time_overhead(NoiseSource::Prng) > 3.0);
    assert_eq!(rng.time_overhead(NoiseSource::Undervolting), 1.0);
}

#[test]
fn claim_no_model_changes_are_needed() {
    // The protected detector uses the *identical* quantised model.
    use shmd_workload::features::FeatureSpec;
    use stochastic_hmd::stochastic::StochasticHmd;
    use stochastic_hmd::train::train_baseline;
    let dataset = Dataset::generate(&DatasetConfig::small(60), 5);
    let split = dataset.three_fold_split(0);
    let baseline = train_baseline(
        &dataset,
        split.victim_training(),
        FeatureSpec::frequency(),
        &HmdTrainConfig::fast(),
    )
    .expect("trains");
    let protected = StochasticHmd::from_baseline(&baseline, 0.1, 1).expect("valid");
    // Same spec, same error-rate-zero behaviour, no retraining interface.
    assert_eq!(protected.spec(), baseline.spec());
}
