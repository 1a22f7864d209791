//! The paper's experiments as reusable functions.
//!
//! Each figure binary is a thin printer over one of these functions, so
//! integration tests can run the identical code at reduced scale.

use crate::cli::Args;
use crate::setup::{train_config, victim, OPERATING_ERROR_RATE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shmd_attack::campaign::{AttackCampaign, AttackTrainingSet};
use shmd_attack::reverse::ReverseConfig;
use shmd_attack::ProxyKind;
use shmd_volt::entropy::approximate_entropy;
use shmd_volt::fault::{FaultModel, FaultStats, FaultStream};
use shmd_volt::multiplier::MultiplierTimingModel;
use shmd_volt::voltage::{Millivolts, NOMINAL_CORE_VOLTAGE};
use shmd_workload::dataset::Dataset;
use stochastic_hmd::exec::{derive_seed, parallel_map_n};
use stochastic_hmd::rhmd::{Rhmd, RhmdConstruction};
use stochastic_hmd::stochastic::StochasticHmd;
use stochastic_hmd::train::evaluate;

/// Seed-derivation tags separating the figures' RNG streams under one
/// master seed (each tag is its figure number).
const TAG_FIG1: u64 = 0x01;
const TAG_SECURITY: u64 = 0x03;
const TAG_RHMD: u64 = 0x05;
const TAG_TRADEOFF: u64 = 0x08;

/// Figure 1 data: bit-wise fault rates of the undervolted multiplier.
#[derive(Clone, Debug)]
pub struct Fig1Data {
    /// Per-bit error rate (flips per multiplication).
    pub bitwise_rates: Vec<f64>,
    /// Overall observed multiplication error rate.
    pub observed_error_rate: f64,
    /// Approximate entropy of the fault-location series (stochasticity).
    pub apen: f64,
    /// The undervolt offset used.
    pub offset: Millivolts,
}

/// Reproduces §II's characterisation: repeatedly multiply random operand
/// sets on the undervolted timing model and record where faults land.
///
/// Each operand set is an independent task whose operands and injector
/// seed are derived from the master seed and the set's index, so the
/// result is bit-identical at any thread count; fault locations are
/// concatenated in set order before the ApEn computation.
pub fn characterize_fig1(
    operand_sets: usize,
    reps_per_set: usize,
    seed: u64,
    exec: &stochastic_hmd::exec::ExecConfig,
) -> Fig1Data {
    let offset = Millivolts::new(-130);
    let timing = MultiplierTimingModel::broadwell_2_2ghz();
    let vdd = NOMINAL_CORE_VOLTAGE.with_offset(offset);
    let per_set = parallel_map_n(exec, operand_sets, |si| {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, &[TAG_FIG1, si as u64]));
        let a: u64 = rng.gen();
        let b: u64 = rng.gen();
        let model = FaultModel::at_voltage_for_operands(&timing, vdd, a, b)
            .expect("timing probabilities are valid");
        let mut injector = FaultStream::new(model, rng.gen());
        let product = a.wrapping_mul(b);
        let mut locations: Vec<u8> = Vec::new();
        for _ in 0..reps_per_set {
            let corrupted = injector.corrupt_unsigned(product);
            if corrupted != product {
                let diff = corrupted ^ product;
                locations.push(diff.trailing_zeros() as u8);
            }
        }
        (injector.stats(), locations)
    });
    let mut stats = FaultStats {
        multiplies: 0,
        faulty: 0,
        bit_flips: vec![0; 64],
    };
    let mut locations: Vec<u8> = Vec::new();
    for (set_stats, set_locations) in per_set {
        stats.merge(&set_stats);
        locations.extend(set_locations);
    }
    Fig1Data {
        bitwise_rates: stats.bitwise_error_rates(),
        observed_error_rate: stats.observed_error_rate(),
        apen: approximate_entropy(&locations, 1),
        offset,
    }
}

/// One row of the Figures 3 & 4 matrix.
#[derive(Clone, Debug)]
pub struct SecurityRow {
    /// Proxy model family.
    pub proxy: ProxyKind,
    /// Which fold the attacker trained on.
    pub training_set: AttackTrainingSet,
    /// RE effectiveness against the baseline HMD (Fig. 3, "Baseline").
    pub baseline_effectiveness: f64,
    /// RE effectiveness against the Stochastic-HMD (Fig. 3).
    pub stochastic_effectiveness: f64,
    /// Transfer success against the baseline HMD (Fig. 4, "Baseline").
    pub baseline_transfer_success: f64,
    /// Transfer success against the Stochastic-HMD (Fig. 4).
    pub stochastic_transfer_success: f64,
}

/// Runs the full security matrix (Figures 3 and 4): every proxy × training
/// set, against the baseline and the er = 0.1 Stochastic-HMD, averaged over
/// `rotations` cross-validation rotations.
pub fn security_matrix(dataset: &Dataset, args: &Args, rotations: usize) -> Vec<SecurityRow> {
    const TRAINING_SETS: [AttackTrainingSet; 2] = [
        AttackTrainingSet::VictimTraining,
        AttackTrainingSet::AttackerTraining,
    ];
    let exec = args.exec();
    let seeds = args.reps_or(3) as u64;
    // Train each rotation's victim once (it is deterministic per rotation),
    // not once per proxy × training-set cell.
    let victims = parallel_map_n(&exec, rotations, |rotation| victim(dataset, rotation, args));

    let combos: Vec<(usize, ProxyKind, usize, AttackTrainingSet)> = ProxyKind::ALL
        .iter()
        .enumerate()
        .flat_map(|(pi, &proxy)| {
            TRAINING_SETS
                .into_iter()
                .enumerate()
                .map(move |(ti, training_set)| (pi, proxy, ti, training_set))
        })
        .collect();

    // One task per (proxy, training set, rotation): a baseline campaign and
    // `seeds` stochastic campaigns, every seed derived from the cell's
    // coordinates.
    let cells = parallel_map_n(&exec, combos.len() * rotations, |cell| {
        let (pi, proxy, ti, training_set) = combos[cell / rotations];
        let rotation = cell % rotations;
        let coords = [TAG_SECURITY, pi as u64, ti as u64, rotation as u64];
        let base = &victims[rotation];
        let campaign = AttackCampaign::new(
            ReverseConfig::new(proxy).with_seed(derive_seed(args.seed, &coords)),
        )
        .with_training_set(training_set);

        let mut acc = [0.0f64; 4];
        let mut baseline = base.clone();
        let report = campaign
            .run(&mut baseline, dataset, rotation)
            .expect("attack on generated data succeeds");
        acc[0] = report.re_effectiveness;
        acc[2] = report.transfer.assumed_success_rate();

        // The stochastic victim's outcome depends on its fault draws;
        // average several injector seeds per rotation.
        for s in 0..seeds {
            let mut protected = StochasticHmd::from_baseline(
                base,
                OPERATING_ERROR_RATE,
                derive_seed(
                    args.seed,
                    &[TAG_SECURITY, pi as u64, ti as u64, rotation as u64, s],
                ),
            )
            .expect("valid error rate");
            let report = campaign
                .run(&mut protected, dataset, rotation)
                .expect("attack on generated data succeeds");
            acc[1] += report.re_effectiveness / seeds as f64;
            acc[3] += report.transfer.assumed_success_rate() / seeds as f64;
        }
        acc
    });

    let n = rotations as f64;
    combos
        .iter()
        .enumerate()
        .map(|(ci, &(_, proxy, _, training_set))| {
            let mut acc = [0.0f64; 4];
            for rotation_acc in &cells[ci * rotations..(ci + 1) * rotations] {
                for (total, part) in acc.iter_mut().zip(rotation_acc) {
                    *total += part;
                }
            }
            SecurityRow {
                proxy,
                training_set,
                baseline_effectiveness: acc[0] / n,
                stochastic_effectiveness: acc[1] / n,
                baseline_transfer_success: acc[2] / n,
                stochastic_transfer_success: acc[3] / n,
            }
        })
        .collect()
}

/// One bar group of Figures 5 & 6.
#[derive(Clone, Debug)]
pub struct RhmdRow {
    /// Defender name (`RHMD-2F` … or `Stochastic-HMD`).
    pub name: String,
    /// Fraction of evasive malware detected (Fig. 5).
    pub evasive_detected: f64,
    /// Baseline detection accuracy (Fig. 6).
    pub accuracy: f64,
}

/// Trains one RHMD construction on rotation 0's victim fold with the seed
/// [`rhmd_comparison`] gives it in repetition `rep`.
pub fn train_rhmd(
    dataset: &Dataset,
    construction: RhmdConstruction,
    rep: u64,
    args: &Args,
) -> Rhmd {
    let di = RhmdConstruction::ALL
        .iter()
        .position(|&c| c == construction)
        .expect("ALL lists every construction");
    Rhmd::train(
        dataset,
        dataset.three_fold_split(0).victim_training(),
        construction,
        &train_config(args),
        derive_seed(args.seed, &[TAG_RHMD, di as u64, rep]),
    )
    .expect("training succeeds")
}

/// Runs the RHMD comparison (Figures 5 and 6): each RHMD construction and
/// the er = 0.1 Stochastic-HMD, attacked with an MLP proxy that uses all
/// the construction's feature vectors.
pub fn rhmd_comparison(dataset: &Dataset, args: &Args) -> Vec<RhmdRow> {
    let rotation = 0;
    let split = dataset.three_fold_split(rotation);
    let exec = args.exec();
    let seeds = args.reps_or(3) as u64;
    // Defender index `di`: the four RHMD constructions, then the
    // Stochastic-HMD. One task per (defender, seed) cell.
    let defenders = RhmdConstruction::ALL.len() + 1;
    let base = victim(dataset, rotation, args);
    let cells = parallel_map_n(&exec, defenders * seeds as usize, |cell| {
        let di = cell / seeds as usize;
        let s = (cell % seeds as usize) as u64;
        if let Some(&construction) = RhmdConstruction::ALL.get(di) {
            let mut rhmd = train_rhmd(dataset, construction, s, args);
            let accuracy = evaluate(&mut rhmd, dataset, split.testing()).accuracy();
            // "We reverse-engineer each RHMD construction using all the
            // feature vectors used in the construction."
            let campaign = AttackCampaign::new(
                ReverseConfig::new(ProxyKind::Mlp)
                    .with_specs(construction.specs())
                    .with_seed(args.seed),
            );
            let report = campaign
                .run(&mut rhmd, dataset, rotation)
                .expect("attack succeeds");
            (report.transfer.assumed_detection_rate(), accuracy)
        } else {
            let cell_seed = derive_seed(args.seed, &[TAG_RHMD, di as u64, s]);
            let mut protected =
                StochasticHmd::from_baseline(&base, OPERATING_ERROR_RATE, cell_seed)
                    .expect("valid error rate");
            let accuracy = evaluate(&mut protected, dataset, split.testing()).accuracy();
            let campaign =
                AttackCampaign::new(ReverseConfig::new(ProxyKind::Mlp).with_seed(args.seed));
            let report = campaign
                .run(&mut protected, dataset, rotation)
                .expect("attack succeeds");
            (report.transfer.assumed_detection_rate(), accuracy)
        }
    });

    (0..defenders)
        .map(|di| {
            let per_seed = &cells[di * seeds as usize..(di + 1) * seeds as usize];
            let detected: f64 = per_seed.iter().map(|c| c.0).sum();
            let accuracy: f64 = per_seed.iter().map(|c| c.1).sum();
            RhmdRow {
                name: RhmdConstruction::ALL
                    .get(di)
                    .map_or_else(|| "Stochastic-HMD".to_string(), ToString::to_string),
                evasive_detected: detected / seeds as f64,
                accuracy: accuracy / seeds as f64,
            }
        })
        .collect()
}

/// One point of the Figure 8 trade-off curves.
#[derive(Clone, Debug)]
pub struct TradeoffRow {
    /// Multiplication error rate.
    pub error_rate: f64,
    /// Baseline detection accuracy at this rate.
    pub accuracy: f64,
    /// Transferability robustness: fraction of evasive malware detected.
    pub transfer_robustness: f64,
    /// Reverse-engineering robustness: `1 − RE effectiveness`.
    pub re_robustness: f64,
}

/// Runs the Figure 8 trade-off sweep with an MLP attacker on the
/// attacker-training fold.
pub fn tradeoff_sweep(dataset: &Dataset, args: &Args, er_grid: &[f64]) -> Vec<TradeoffRow> {
    let rotation = 0;
    let split = dataset.three_fold_split(rotation);
    let base = victim(dataset, rotation, args);
    parallel_map_n(&args.exec(), er_grid.len(), |i| {
        let er = er_grid[i];
        let mut protected = StochasticHmd::from_baseline(
            &base,
            er,
            derive_seed(args.seed, &[TAG_TRADEOFF, i as u64]),
        )
        .expect("valid error rate");
        let accuracy = evaluate(&mut protected, dataset, split.testing()).accuracy();
        let campaign = AttackCampaign::new(ReverseConfig::new(ProxyKind::Mlp).with_seed(args.seed));
        let report = campaign
            .run(&mut protected, dataset, rotation)
            .expect("attack succeeds");
        TradeoffRow {
            error_rate: er,
            accuracy,
            transfer_robustness: report.transfer.assumed_detection_rate(),
            re_robustness: 1.0 - report.re_effectiveness,
        }
    })
}

/// The er values Figure 2(b) plots confidence distributions for.
pub const FIG2B_ERROR_RATES: [f64; 3] = [0.1, 0.5, 1.0];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup;

    fn fast_args() -> Args {
        Args::parse_from(["--fast".to_string(), "--seed".to_string(), "3".to_string()])
    }

    #[test]
    fn fig1_characterisation_has_paper_properties() {
        // −130 mV faults are rare (~0.1% of multiplies), so the ApEn series
        // needs many operand sets to fill up.
        let data = characterize_fig1(30_000, 10, 9, &stochastic_hmd::exec::ExecConfig::auto());
        assert_eq!(data.bitwise_rates.len(), 64);
        assert_eq!(data.bitwise_rates[63], 0.0, "sign bit never flips");
        for bit in 0..8 {
            assert_eq!(data.bitwise_rates[bit], 0.0, "LSB {bit} never flips");
        }
        assert!(data.observed_error_rate > 0.0, "−130 mV must fault");
        assert!(data.apen > 0.5, "fault locations must look stochastic");
    }

    #[test]
    fn security_matrix_shape_matches_figures_3_and_4() {
        let args = fast_args();
        let dataset = setup::dataset(&args);
        let rows = security_matrix(&dataset, &args, 1);
        assert_eq!(rows.len(), 6, "3 proxies × 2 training sets");
        for row in &rows {
            for v in [
                row.baseline_effectiveness,
                row.stochastic_effectiveness,
                row.baseline_transfer_success,
                row.stochastic_transfer_success,
            ] {
                assert!((0.0..=1.0).contains(&v), "{row:?}");
            }
            assert!(row.baseline_effectiveness > 0.7, "{row:?}");
        }
        // Averaged over proxies, stochasticity must not make RE easier
        // (per-cell values are too noisy at this test scale to compare).
        let base_mean: f64 =
            rows.iter().map(|r| r.baseline_effectiveness).sum::<f64>() / rows.len() as f64;
        let sto_mean: f64 =
            rows.iter().map(|r| r.stochastic_effectiveness).sum::<f64>() / rows.len() as f64;
        assert!(
            base_mean >= sto_mean - 0.03,
            "stochasticity must not make RE easier on average: {base_mean} vs {sto_mean}"
        );
    }

    #[test]
    fn rhmd_comparison_includes_all_defenders() {
        let args = fast_args();
        let dataset = setup::dataset(&args);
        let rows = rhmd_comparison(&dataset, &args);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[4].name, "Stochastic-HMD");
        for row in &rows {
            assert!((0.0..=1.0).contains(&row.evasive_detected), "{row:?}");
            assert!(row.accuracy > 0.7, "{row:?}");
        }
    }

    #[test]
    fn tradeoff_sweep_covers_the_grid() {
        let args = fast_args();
        let dataset = setup::dataset(&args);
        let rows = tradeoff_sweep(&dataset, &args, &[0.0, 0.1]);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].accuracy >= rows[1].accuracy - 0.08);
        // At er = 0 there is no stochasticity, so RE is easy.
        assert!(rows[0].re_robustness < 0.2, "{:?}", rows[0]);
    }
}
