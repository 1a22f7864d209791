//! Reproducibility: every stochastic component is seed-deterministic, and
//! the *defensive* stochasticity is confined to the fault injector.

use shmd_attack::reverse::{reverse_engineer, ReverseConfig};
use shmd_attack::ProxyKind;
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use stochastic_hmd::detector::Detector;
use stochastic_hmd::exec::{derive_seed, ExecConfig};
use stochastic_hmd::explore::accuracy_sweep;
use stochastic_hmd::stochastic::StochasticHmd;
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};

fn dataset(seed: u64) -> Dataset {
    Dataset::generate(&DatasetConfig::small(60), seed)
}

#[test]
fn datasets_are_seed_deterministic() {
    let a = dataset(5);
    let b = dataset(5);
    assert_eq!(a.programs(), b.programs());
    for i in 0..a.len() {
        assert_eq!(a.trace(i), b.trace(i));
    }
}

#[test]
fn different_seeds_give_different_datasets() {
    let a = dataset(5);
    let b = dataset(6);
    assert_ne!(a.programs(), b.programs());
}

#[test]
fn feature_collection_is_deterministic() {
    // Paper §IV: "we get the exact same trace in every run when we supply
    // the same input".
    let d = dataset(7);
    let spec = FeatureSpec::frequency();
    for i in 0..d.len() {
        assert_eq!(spec.extract(d.trace(i)), spec.extract(d.trace(i)));
    }
}

#[test]
fn training_and_protection_are_seed_deterministic() {
    let d = dataset(8);
    let split = d.three_fold_split(0);
    let train = |_| {
        train_baseline(
            &d,
            split.victim_training(),
            FeatureSpec::frequency(),
            &HmdTrainConfig::fast(),
        )
        .expect("trains")
    };
    let (a, b) = (train(()), train(()));
    assert_eq!(a.network(), b.network());

    let mut pa = StochasticHmd::from_baseline(&a, 0.3, 99).expect("valid");
    let mut pb = StochasticHmd::from_baseline(&b, 0.3, 99).expect("valid");
    for i in 0..d.len().min(20) {
        assert_eq!(pa.score(d.trace(i)), pb.score(d.trace(i)));
    }
}

#[test]
fn whole_attack_is_deterministic_against_a_deterministic_victim() {
    let d = dataset(9);
    let split = d.three_fold_split(0);
    let victim = train_baseline(
        &d,
        split.victim_training(),
        FeatureSpec::frequency(),
        &HmdTrainConfig::fast(),
    )
    .expect("trains");
    let run = || {
        let mut v = victim.clone();
        let proxy = reverse_engineer(
            &mut v,
            &d,
            split.attacker_training(),
            &ReverseConfig::new(ProxyKind::LogisticRegression),
        )
        .expect("RE succeeds");
        split
            .testing()
            .iter()
            .map(|&i| proxy.score_trace(d.trace(i)).to_bits())
            .collect::<Vec<u64>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn accuracy_sweep_is_thread_count_invariant() {
    // The ISSUE's acceptance bar: every SweepPoint bit-identical between a
    // serial run and an 8-worker run of the same experiment.
    let d = dataset(11);
    let grid = [0.0, 0.1, 0.5];
    let cfg = HmdTrainConfig::fast();
    let serial =
        accuracy_sweep(&d, &grid, 4, &cfg, 42, &ExecConfig::serial()).expect("serial sweep");
    let parallel =
        accuracy_sweep(&d, &grid, 4, &cfg, 42, &ExecConfig::threads(8)).expect("parallel sweep");
    assert_eq!(serial, parallel);
}

#[test]
fn experiment_seed_derivation_has_no_grid_collisions() {
    // Regression: the old additive scheme `seed + 0x1000·gi + 0x100·fi +
    // rep` collided for (fi, rep) vs (fi + 1, rep − 256) whenever
    // reps > 256, silently correlating repetitions across folds. The
    // derived scheme must keep every cell of such a grid distinct.
    let reps = 300; // > 256: the collision-prone regime
    let mut seen = std::collections::HashSet::new();
    for gi in 0..11u64 {
        for fi in 0..3u64 {
            for rep in 0..reps as u64 {
                assert!(
                    seen.insert(derive_seed(42, &[0x2a, gi, fi, rep])),
                    "seed collision at gi={gi} fi={fi} rep={rep}"
                );
            }
        }
    }
    // The additive scheme really does collide in this regime — prove the
    // bug existed at this scale.
    let additive = |gi: u64, fi: u64, rep: u64| 42u64 + 0x1000 * gi + 0x100 * fi + rep;
    assert_eq!(
        additive(0, 0, 256),
        additive(0, 1, 0),
        "old scheme collides"
    );
}

#[test]
fn stochasticity_lives_only_in_the_injector_seed() {
    let d = dataset(10);
    let split = d.three_fold_split(0);
    let victim = train_baseline(
        &d,
        split.victim_training(),
        FeatureSpec::frequency(),
        &HmdTrainConfig::fast(),
    )
    .expect("trains");
    let mut s1 = StochasticHmd::from_baseline(&victim, 0.5, 1).expect("valid");
    let mut s2 = StochasticHmd::from_baseline(&victim, 0.5, 2).expect("valid");
    let t1: Vec<u64> = (0..30)
        .map(|i| s1.score(d.trace(i % d.len())).to_bits())
        .collect();
    let t2: Vec<u64> = (0..30)
        .map(|i| s2.score(d.trace(i % d.len())).to_bits())
        .collect();
    assert_ne!(t1, t2, "different fault seeds must behave differently");
}
