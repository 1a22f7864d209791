//! §VIII inference-time comparison: Stochastic-HMD vs RHMD-2F vs RHMD-2F2P
//! (paper: 7 µs / 7.7 µs / 7.8 µs), plus live measurements on this crate's
//! quantised datapath and of one whole detection on the baseline HMD and
//! on RHMD-2F.

use hmd_bench::experiments::train_rhmd;
use hmd_bench::perf::paired_qps;
use hmd_bench::{setup, table, Args};
use shmd_ann::network::InferenceScratch;
use shmd_power::latency::LatencyModel;
use shmd_volt::fault::{ExactLanes, FaultModel, FaultStream};
use shmd_volt::voltage::{Millivolts, NOMINAL_CORE_VOLTAGE};
use std::hint::black_box;
use std::time::Instant;
use stochastic_hmd::detector::Detector;
use stochastic_hmd::rhmd::RhmdConstruction;

fn main() {
    let args = Args::parse();
    let model = LatencyModel::i7_5557u();
    let macs = LatencyModel::paper_detector_macs();

    table::title("Inference time (paper-calibrated model, 71 KB detector)");
    table::header(&["detector", "time"]);
    table::row(&[
        "Stochastic-HMD".into(),
        format!("{:.1} us", model.hmd_us(macs)),
    ]);
    table::row(&[
        "RHMD-2F".into(),
        format!("{:.1} us", model.rhmd_us(macs, 2)),
    ]);
    table::row(&[
        "RHMD-2F2P".into(),
        format!("{:.1} us", model.rhmd_us(macs, 4)),
    ]);
    println!("paper: 7 / 7.7 / 7.8 us; undervolting itself adds zero latency:");
    let deep = NOMINAL_CORE_VOLTAGE.with_offset(Millivolts::new(-140));
    println!(
        "  t(nominal) = {:.1} us, t(-140 mV) = {:.1} us",
        model.stochastic_hmd_us(macs, NOMINAL_CORE_VOLTAGE),
        model.stochastic_hmd_us(macs, deep)
    );

    // Live measurement of this reproduction's (much smaller) detector.
    let dataset = setup::dataset(&args);
    let mut victim = setup::victim(&dataset, 0, &args);
    let q = victim.quantized();
    let features = victim.spec().extract(dataset.trace(0));
    let n = 20_000;

    let mut scratch = InferenceScratch::new();
    let start = Instant::now();
    let mut exact = ExactLanes;
    for _ in 0..n {
        black_box(q.infer_into(&features, &mut exact, &mut scratch));
    }
    let exact_ns = start.elapsed().as_nanos() as f64 / f64::from(n);

    let mut injector =
        FaultStream::new(FaultModel::from_error_rate(0.1).expect("valid"), args.seed);
    let start = Instant::now();
    for _ in 0..n {
        black_box(q.infer_into(&features, &mut injector, &mut scratch));
    }
    let faulty_ns = start.elapsed().as_nanos() as f64 / f64::from(n);
    let macs = q.mac_count();

    // One detection = feature extraction + exact inference; RHMD-2F first
    // picks one of its two base detectors at random. Both detectors score
    // the same traces, alternating every 50 so host drift slows both alike.
    let mut rhmd = train_rhmd(&dataset, RhmdConstruction::TwoFeatures, 0, &args);
    let paired = paired_qps(
        n as usize,
        50,
        |range| {
            for i in range {
                black_box(victim.score(dataset.trace(i % dataset.len())));
            }
        },
        |range| {
            for i in range {
                black_box(rhmd.score(dataset.trace(i % dataset.len())));
            }
        },
    );

    println!();
    table::title(&format!(
        "Live measurement ({macs} MACs/inference, {n} runs each)"
    ));
    table::header(&["datapath", "time"]);
    table::row(&["exact".into(), format!("{exact_ns:.0} ns")]);
    table::row(&["er=0.1 faulty".into(), format!("{faulty_ns:.0} ns")]);
    table::row(&[
        "baseline HMD".into(),
        format!("{:.0} ns", 1e9 / paired.a_qps),
    ]);
    table::row(&["RHMD-2F".into(), format!("{:.0} ns", 1e9 / paired.b_qps)]);
    println!("(exact and er=0.1 time one inference on the scratch hot path; the");
    println!(" detector rows time one detection, feature extraction included.");
    println!(" The fault-injection emulation overhead exists only in simulation;");
    println!(" on real hardware the faults are free)");
}
