//! Power-Pareto measurement: what each undervolted operating point costs
//! and buys, plus an energy-aware scheduled pool under a service power
//! budget.
//!
//! Two halves, written together to `BENCH_7.json` by the `power_bench`
//! binary:
//!
//! - **operating points**: a sweep over (target error rate × die
//!   temperature) through the calibrated curve of the reference device —
//!   supply voltage, core/package power, savings over the baseline HMD
//!   and over RHMD, and (at the calibration temperature) the detection
//!   accuracy and evasive-malware detection rate that the paper trades
//!   those watts against. Rows where the operating point would freeze the
//!   die at that temperature are flagged, not hidden: they are exactly
//!   the points the budget scheduler's floor clamp refuses to schedule.
//! - **scheduled service**: a supervised pool with a
//!   [`stochastic_hmd::supervisor::PowerBudgetPolicy`] riding a drifting
//!   thermal environment. The budget is chosen *from measurement* —
//!   midway between the pool's unpressured draw and its band-cap floor —
//!   so the gate always exercises real budget pressure, at every scale.
//!   The run must hold the budget, never freeze a shard, replay
//!   bit-identically serial vs threaded ([`crate::replay::twin`]), and
//!   survive a mid-stream checkpoint/restore through the byte codec
//!   ([`crate::replay::restores`]) with its accrued energy and scheduler
//!   targets intact.
//!
//! Honest-noise note: the calibrated sweep stops at the device's freeze
//! offset, far shallower than Figure 7's 0.68 V endpoint — the >75%
//! saving over RHMD is therefore reported against the *voltage axis*
//! ([`fig7_limit`]), not claimed at any schedulable operating point. See
//! EXPERIMENTS.md.

use crate::cli::Args;
use crate::replay;
use crate::setup::OPERATING_ERROR_RATE;
use shmd_attack::campaign::AttackCampaign;
use shmd_attack::reverse::ReverseConfig;
use shmd_attack::ProxyKind;
use shmd_power::cmos::{CmosPowerModel, PowerScope};
use shmd_volt::calibration::{CalibrationCurve, DeviceProfile};
use shmd_volt::environment::{delivered_error_rate_at, freezes_at, EnvironmentConfig};
use shmd_volt::voltage::{Volts, NOMINAL_CORE_VOLTAGE};
use shmd_workload::dataset::Dataset;
use stochastic_hmd::exec::{derive_seed, ExecConfig};
use stochastic_hmd::json;
use stochastic_hmd::serve::MonitoringService;
use stochastic_hmd::stochastic::StochasticHmd;
use stochastic_hmd::supervisor::{PowerBudgetPolicy, SupervisorConfig};
use stochastic_hmd::train::evaluate;
use stochastic_hmd::BaselineHmd;

/// Target error rates the Pareto sweep walks, nominal-to-deep.
pub const PARETO_ERROR_RATES: [f64; 4] = [0.05, OPERATING_ERROR_RATE, 0.2, 0.3];

/// Die temperatures the sweep samples: a cool morning, the calibration
/// point, and a loaded afternoon. Temperature inversion makes the cool
/// die the dangerous one.
pub const PARETO_TEMPS_C: [f64; 3] = [45.0, 49.0, 58.0];

/// Batches the scheduled-service run replays.
pub const SERVICE_BATCHES: usize = 40;

/// Shards in the scheduled pool.
pub const SERVICE_SHARDS: usize = 3;

/// Seed tag separating the sweep's RNG streams from the figures'.
const TAG_PARETO: u64 = 0x07;

/// One (target error rate × temperature) cell of the Pareto sweep.
#[derive(Clone, Debug)]
pub struct OperatingPoint {
    /// Calibration target error rate.
    pub target_er: f64,
    /// Die temperature, °C.
    pub temp_c: f64,
    /// Curve-derived undervolt offset, mV.
    pub offset_mv: i32,
    /// Supply voltage at the offset, volts.
    pub vdd: f64,
    /// Error rate the die physically delivers there at this temperature.
    pub delivered_er: f64,
    /// Whether the operating point crosses the freeze threshold at this
    /// temperature (temperature inversion: cool dies freeze shallower).
    pub freezes: bool,
    /// Busy core power, watts.
    pub core_power_w: f64,
    /// Package power (core + uncore), watts.
    pub package_power_w: f64,
    /// Fractional core-power saving over the baseline HMD at nominal.
    pub core_saving_vs_baseline: f64,
    /// Fractional package-power saving over the baseline HMD at nominal.
    pub package_saving_vs_baseline: f64,
    /// Fractional core-power saving over RHMD (nominal + overhead).
    pub core_saving_vs_rhmd: f64,
    /// Detection accuracy at this target rate — measured once per rate,
    /// on the calibration-temperature row only.
    pub accuracy: Option<f64>,
    /// Evasive-malware detection rate under the MLP transfer attack —
    /// calibration-temperature rows only.
    pub evasion_detection: Option<f64>,
}

/// Figure 7's voltage-axis endpoint: the analytic saving over RHMD at
/// 0.68 V, far deeper than any schedulable operating point of the
/// calibrated device.
#[derive(Clone, Copy, Debug)]
pub struct Fig7Limit {
    /// The endpoint supply voltage, volts.
    pub vdd: f64,
    /// Core-power saving over RHMD there.
    pub core_saving_vs_rhmd: f64,
}

/// The analytic Figure 7 endpoint.
pub fn fig7_limit() -> Fig7Limit {
    let vdd = Volts(0.68);
    Fig7Limit {
        vdd: vdd.as_f64(),
        core_saving_vs_rhmd: CmosPowerModel::i7_5557u().savings_over_rhmd(vdd, PowerScope::Core),
    }
}

/// Runs the (target error rate × temperature) sweep. Accuracy and the
/// evasion campaign run once per target rate, attached to its
/// calibration-temperature row.
pub fn pareto_sweep(
    dataset: &Dataset,
    baseline: &BaselineHmd,
    curve: &CalibrationCurve,
    device: &DeviceProfile,
    args: &Args,
) -> Vec<OperatingPoint> {
    let model = CmosPowerModel::i7_5557u();
    let rotation = 0;
    let split = dataset.three_fold_split(rotation);
    let mut rows = Vec::new();
    for (i, &target_er) in PARETO_ERROR_RATES.iter().enumerate() {
        let offset = curve
            .offset_for_error_rate(target_er)
            .expect("sweep rates are reachable on the reference device");
        let vdd = NOMINAL_CORE_VOLTAGE.with_offset(offset);
        let core_power_w = model.power_w(vdd, PowerScope::Core);
        let package_power_w = model.power_w(vdd, PowerScope::Package);
        // Security/accuracy cost of the rate, measured once at the
        // calibration temperature (the fault law depends on the
        // delivered rate, not on which temperature delivered it).
        let seed = derive_seed(args.seed, &[TAG_PARETO, i as u64]);
        let mut protected =
            StochasticHmd::from_baseline(baseline, target_er, seed).expect("valid rate");
        let accuracy = evaluate(&mut protected, dataset, split.testing()).accuracy();
        let campaign = AttackCampaign::new(ReverseConfig::new(ProxyKind::Mlp).with_seed(args.seed));
        let report = campaign
            .run(&mut protected, dataset, rotation)
            .expect("attack campaign runs");
        let evasion_detection = report.transfer.assumed_detection_rate();
        for &temp_c in &PARETO_TEMPS_C {
            let at_calibration = (temp_c - device.temp_c).abs() < f64::EPSILON;
            rows.push(OperatingPoint {
                target_er,
                temp_c,
                offset_mv: offset.get(),
                vdd: vdd.as_f64(),
                delivered_er: delivered_error_rate_at(device, offset, temp_c),
                freezes: freezes_at(device, offset, temp_c),
                core_power_w,
                package_power_w,
                core_saving_vs_baseline: model.savings_over_baseline(vdd, PowerScope::Core),
                package_saving_vs_baseline: model.savings_over_baseline(vdd, PowerScope::Package),
                core_saving_vs_rhmd: model.savings_over_rhmd(vdd, PowerScope::Core),
                accuracy: at_calibration.then_some(accuracy),
                evasion_detection: at_calibration.then_some(evasion_detection),
            });
        }
    }
    rows
}

/// The scheduled-service measurement: a budgeted pool in a drifting
/// thermal world, with its thread-invariance and restore verdicts.
#[derive(Clone, Debug)]
pub struct ServiceRun {
    /// Shards in the pool.
    pub shards: usize,
    /// Batches replayed.
    pub batches: usize,
    /// Queries served.
    pub queries: u64,
    /// The pool's projected draw with an unconstrained budget, watts.
    pub unpressured_w: f64,
    /// The pool's projected draw at the policy band cap, watts.
    pub floor_w: f64,
    /// The budget the measured run was held to (midway between the two,
    /// so the gate always exercises real pressure), watts.
    pub budget_w: f64,
    /// Projected draw at the end of the budgeted run, watts.
    pub projected_w: f64,
    /// Energy accrued across the pool over the run, microjoules.
    pub total_energy_uj: f64,
    /// Deepest scheduler target reached by any shard.
    pub max_target_er: f64,
    /// Shard crashes (with no chaos plan, only a freeze could crash — so
    /// this must be zero).
    pub crashes: u64,
    /// Verdict checksum of the serial budgeted run.
    pub checksum: u64,
    /// Serial vs threaded replay bit-identical (verdicts + telemetry).
    pub thread_invariant: bool,
    /// Mid-stream checkpoint/restore resumed bit-identically (verdicts +
    /// energy + scheduler state).
    pub restore_invariant: bool,
}

/// The scheduled pool's world: the reference device under a drifting
/// office thermal trace, supervised every batch, budgeted by `policy`.
fn service_supervision(seed: u64, policy: PowerBudgetPolicy) -> SupervisorConfig {
    let device = DeviceProfile::reference();
    let environment = EnvironmentConfig::drifting(device.temp_c, seed);
    SupervisorConfig::new(device)
        .with_environment(environment)
        .with_power_budget(policy)
}

/// Measures the scheduled service: probes the attainable power window,
/// budgets the pool to its midpoint, and verdicts thread invariance and
/// checkpoint/restore.
pub fn measure_service(
    baseline: &BaselineHmd,
    dataset: &Dataset,
    seed: u64,
    batch_size: usize,
    exec: &ExecConfig,
) -> ServiceRun {
    let features = replay::feature_batches(baseline, dataset, SERVICE_BATCHES, batch_size);
    let supervision = |budget_w| service_supervision(seed, PowerBudgetPolicy::new(budget_w));
    let deploy = |budget_w, exec| {
        let config = replay::supervised_pool(SERVICE_SHARDS, seed, batch_size).with_exec(exec);
        MonitoringService::supervised(baseline, supervision(budget_w), config)
            .expect("the reference device calibrates at er = 0.2")
    };
    let serial = ExecConfig::serial();

    // Probe the attainable window: an unconstrained budget leaves the
    // scheduler's opportunistic phase alone; a zero budget drives every
    // shard to the policy band cap (held best-effort — the scheduler
    // never freezes a shard to make a number).
    let projected_at = |budget_w| {
        let mut service = deploy(budget_w, serial);
        for batch in &features {
            replay::feed(&mut service, batch);
        }
        service
            .snapshot()
            .service_power_w
            .expect("a budget policy always publishes its projection")
    };
    let unpressured_w = projected_at(f64::MAX);
    let floor_w = projected_at(0.0);
    // Midway between the two: attainable, but only under real pressure.
    // On a run whose thermal trace leaves no headroom the midpoint
    // degenerates to the unpressured draw, which is still a valid hold.
    let budget_w = f64::midpoint(floor_w, unpressured_w);

    let twin = replay::twin(
        deploy(budget_w, serial),
        deploy(budget_w, *exec),
        &features,
        replay::feed,
    );
    // Checkpoint mid-stream, restore at a different thread count, and
    // replay the tail: energy, scheduler targets, and the open load window
    // must all survive.
    let restore_invariant = replay::restores(
        &twin.reference,
        deploy(budget_w, serial),
        &features,
        SERVICE_BATCHES / 2,
        replay::feed,
        |checkpoint| {
            let supervision = Some(supervision(budget_w));
            MonitoringService::restore(baseline, supervision, checkpoint, ExecConfig::threads(4))
                .ok()
        },
    );
    let snapshot = twin.reference.snapshot();

    ServiceRun {
        shards: SERVICE_SHARDS,
        batches: SERVICE_BATCHES,
        queries: snapshot.queries,
        unpressured_w,
        floor_w,
        budget_w,
        projected_w: snapshot
            .service_power_w
            .expect("the budgeted run publishes its projection"),
        total_energy_uj: snapshot.total_energy_uj(),
        max_target_er: snapshot
            .shards
            .iter()
            .filter_map(|s| s.power_target_er)
            .fold(0.0, f64::max),
        crashes: snapshot.total_crashes(),
        checksum: snapshot.verdict_checksum,
        thread_invariant: twin.identical,
        restore_invariant,
    }
}

/// The `power_bench --check` gates, one message per failed gate, in this
/// order:
///
/// 1. the selected operating point (er = 0.1) saves 10–22% package power,
///    the paper's ~15% band (the first selected row outside it fails);
/// 2. the sweep includes the selected operating point;
/// 3. core saving against RHMD never falls as the undervolt deepens (the
///    reference temperature's rows run shallow to deep);
/// 4. the Fig. 7 voltage-axis endpoint saves more than 75% over RHMD;
/// 5. the budgeted pool's projected draw stays within its budget;
/// 6. no shard of the pool crashes (the floor clamp prevents freezes);
/// 7. the budgeted replay is thread-invariant;
/// 8. budget state survives a mid-stream checkpoint/restore bit for bit.
pub fn failures(points: &[OperatingPoint], limit: Fig7Limit, service: &ServiceRun) -> Vec<String> {
    let selected = || {
        points
            .iter()
            .filter(|p| p.target_er == OPERATING_ERROR_RATE)
    };
    let outside_band = selected().find(|p| !(0.10..=0.22).contains(&p.package_saving_vs_baseline));
    let reference_temp = DeviceProfile::reference().temp_c;
    let rhmd_savings: Vec<f64> = points
        .iter()
        .filter(|p| (p.temp_c - reference_temp).abs() < f64::EPSILON)
        .map(|p| p.core_saving_vs_rhmd)
        .collect();
    let gates = [
        outside_band.map(|p| {
            format!(
                "selected operating point saves {:.1}% package power, \
                 outside the paper's ~15% band (10–22%)",
                100.0 * p.package_saving_vs_baseline
            )
        }),
        selected()
            .next()
            .is_none()
            .then(|| "sweep omitted the selected operating point".to_string()),
        (!rhmd_savings.windows(2).all(|w| w[1] >= w[0] - 1e-12))
            .then(|| "core saving vs RHMD is not monotone in undervolt depth".to_string()),
        (limit.core_saving_vs_rhmd <= 0.75).then(|| {
            format!(
                "Fig. 7 endpoint saves {:.1}% over RHMD, claim needs >75%",
                100.0 * limit.core_saving_vs_rhmd
            )
        }),
        (service.projected_w > service.budget_w + 1e-9).then(|| {
            format!(
                "pool projects {:.3} W over its {:.3} W budget",
                service.projected_w, service.budget_w
            )
        }),
        (service.crashes != 0).then(|| {
            format!(
                "{} shard crashes — the floor clamp let the scheduler freeze a die",
                service.crashes
            )
        }),
        (!service.thread_invariant)
            .then(|| "budgeted replay diverged between serial and threaded runs".to_string()),
        (!service.restore_invariant)
            .then(|| "budget state did not survive checkpoint/restore bit-identically".to_string()),
    ];
    gates.into_iter().flatten().collect()
}

/// `BENCH_7.json` has no wall-clock fields (see [`crate::report`]).
pub const WALL_CLOCK: &[&str] = &[];

/// Renders both halves as the `BENCH_7.json` document.
pub fn render_json(
    points: &[OperatingPoint],
    limit: Fig7Limit,
    service: &ServiceRun,
    seed: u64,
    scale: &str,
    threads: usize,
) -> String {
    json::document(|w| {
        w.field("bench", "power_pareto");
        w.field("unit", "watts");
        w.field("seed", seed);
        w.field("scale", scale);
        w.field("threads", threads);
        w.field("selected_operating_point", OPERATING_ERROR_RATE);
        w.objects("operating_points", points, |w, p| {
            w.field("target_er", p.target_er);
            w.fixed("temp_c", p.temp_c, 1);
            w.field("offset_mv", p.offset_mv);
            w.fixed("vdd", p.vdd, 4);
            w.fixed("delivered_er", p.delivered_er, 4);
            w.field("freezes", p.freezes);
            w.fixed("core_power_w", p.core_power_w, 4);
            w.fixed("package_power_w", p.package_power_w, 4);
            w.fixed("core_saving_vs_baseline", p.core_saving_vs_baseline, 4);
            w.fixed(
                "package_saving_vs_baseline",
                p.package_saving_vs_baseline,
                4,
            );
            w.fixed("core_saving_vs_rhmd", p.core_saving_vs_rhmd, 4);
            w.fixed("accuracy", p.accuracy, 4);
            w.fixed("evasion_detection", p.evasion_detection, 4);
        });
        w.object("fig7_limit", |w| {
            w.fixed("vdd", limit.vdd, 2);
            w.fixed("core_saving_vs_rhmd", limit.core_saving_vs_rhmd, 4);
            w.field(
                "note",
                "voltage-axis endpoint; deeper than the calibrated device's freeze offset",
            );
        });
        w.object("service", |w| {
            w.field("shards", service.shards);
            w.field("batches", service.batches);
            w.field("queries", service.queries);
            w.fixed("unpressured_w", service.unpressured_w, 4);
            w.fixed("floor_w", service.floor_w, 4);
            w.fixed("budget_w", service.budget_w, 4);
            w.fixed("projected_w", service.projected_w, 4);
            w.fixed("total_energy_uj", service.total_energy_uj, 1);
            w.fixed("max_target_er", service.max_target_er, 2);
            w.field("crashes", service.crashes);
            w.u64_string("checksum", service.checksum);
            w.field("thread_invariant", service.thread_invariant);
            w.field("restore_invariant", service.restore_invariant);
        });
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::report::tests::each_gate_fails_alone;
    use crate::setup;
    use crate::Args;

    fn fixture() -> (Dataset, BaselineHmd) {
        let args = Args::parse_from(["--fast".to_string()]);
        let dataset = setup::dataset(&args);
        let baseline = setup::victim(&dataset, 0, &args);
        (dataset, baseline)
    }

    #[test]
    fn service_holds_its_measured_budget_without_freezing() {
        let (dataset, baseline) = fixture();
        let run = measure_service(&baseline, &dataset, 11, 16, &ExecConfig::threads(4));
        assert!(
            run.projected_w <= run.budget_w + 1e-9,
            "projected {} W over the {} W budget",
            run.projected_w,
            run.budget_w
        );
        assert!(run.floor_w <= run.unpressured_w + 1e-9);
        assert_eq!(run.crashes, 0, "the floor clamp must prevent freezes");
        assert!(run.total_energy_uj > 0.0);
        assert!(
            run.thread_invariant,
            "budgeted replay diverged across threads"
        );
        assert!(
            run.restore_invariant,
            "budget state lost in checkpoint round trip"
        );
        assert_eq!(run.queries, (SERVICE_BATCHES * 16) as u64);
    }

    #[test]
    fn fig7_limit_clears_the_paper_claim() {
        assert!(fig7_limit().core_saving_vs_rhmd > 0.75);
    }

    fn pinned() -> (OperatingPoint, ServiceRun) {
        let p = OperatingPoint {
            target_er: 0.1,
            temp_c: 49.0,
            offset_mv: -134,
            vdd: 1.046,
            delivered_er: 0.1,
            freezes: false,
            core_power_w: 7.9,
            package_power_w: 16.9,
            core_saving_vs_baseline: 0.28,
            package_saving_vs_baseline: 0.15,
            core_saving_vs_rhmd: 0.36,
            accuracy: Some(0.94),
            evasion_detection: None,
        };
        let service = ServiceRun {
            shards: 3,
            batches: 40,
            queries: 640,
            unpressured_w: 23.1,
            floor_w: 23.0,
            budget_w: 23.05,
            projected_w: 23.0,
            total_energy_uj: 1234.5,
            max_target_er: 0.3,
            crashes: 0,
            checksum: u64::MAX,
            thread_invariant: true,
            restore_invariant: true,
        };
        (p, service)
    }

    #[test]
    fn every_gate_fails_alone() {
        let (p, service) = pinned();
        each_gate_fails_alone(
            &(vec![p], fig7_limit(), service),
            |(points, limit, service)| failures(points, *limit, service),
            &[
                (
                    |(points, ..)| points[0].package_saving_vs_baseline = 0.3,
                    "selected operating point saves 30.0% package power, \
                     outside the paper's ~15% band (10–22%)",
                ),
                (
                    |(points, ..)| points[0].target_er = 0.2,
                    "sweep omitted the selected operating point",
                ),
                (
                    |(points, ..)| {
                        let mut deeper = points[0].clone();
                        deeper.core_saving_vs_rhmd = 0.3;
                        points.push(deeper);
                    },
                    "core saving vs RHMD is not monotone in undervolt depth",
                ),
                (
                    |(_, limit, _)| limit.core_saving_vs_rhmd = 0.75,
                    "Fig. 7 endpoint saves 75.0% over RHMD, claim needs >75%",
                ),
                (
                    |(.., service)| service.projected_w = 23.1,
                    "pool projects 23.100 W over its 23.050 W budget",
                ),
                (
                    |(.., service)| service.crashes = 1,
                    "1 shard crashes — the floor clamp let the scheduler freeze a die",
                ),
                (
                    |(.., service)| service.thread_invariant = false,
                    "budgeted replay diverged between serial and threaded runs",
                ),
                (
                    |(.., service)| service.restore_invariant = false,
                    "budget state did not survive checkpoint/restore bit-identically",
                ),
            ],
        );
    }

    /// The document [`render_json`] writes for the pinned fixture.
    pub(crate) fn pinned_document() -> String {
        let (p, service) = pinned();
        render_json(&[p], fig7_limit(), &service, 42, "fast", 8)
    }

    #[test]
    fn json_document_is_pinned() {
        let doc = pinned_document();
        let want = r#"{
  "bench": "power_pareto",
  "unit": "watts",
  "seed": 42,
  "scale": "fast",
  "threads": 8,
  "selected_operating_point": 0.1,
  "operating_points": [
    {"target_er": 0.1, "temp_c": 49.0, "offset_mv": -134, "vdd": 1.0460, "delivered_er": 0.1000, "freezes": false, "core_power_w": 7.9000, "package_power_w": 16.9000, "core_saving_vs_baseline": 0.2800, "package_saving_vs_baseline": 0.1500, "core_saving_vs_rhmd": 0.3600, "accuracy": 0.9400, "evasion_detection": null}
  ],
  "fig7_limit": {"vdd": 0.68, "core_saving_vs_rhmd": 0.7670, "note": "voltage-axis endpoint; deeper than the calibrated device's freeze offset"},
  "service": {"shards": 3, "batches": 40, "queries": 640, "unpressured_w": 23.1000, "floor_w": 23.0000, "budget_w": 23.0500, "projected_w": 23.0000, "total_energy_uj": 1234.5, "max_target_er": 0.30, "crashes": 0, "checksum": "18446744073709551615", "thread_invariant": true, "restore_invariant": true}
}
"#;
        assert_eq!(doc, want);
        assert!(stochastic_hmd::json::parse(&doc).is_ok());
    }
}
