//! §VIII inference-time comparison: Stochastic-HMD vs RHMD-2F vs RHMD-2F2P
//! (paper: 7 µs / 7.7 µs / 7.8 µs), plus live measurements on this crate's
//! quantised datapath.

use hmd_bench::{setup, table, Args};
use shmd_ann::network::InferenceScratch;
use shmd_power::latency::LatencyModel;
use shmd_volt::fault::{ExactLanes, FaultModel, FaultStream};
use shmd_volt::voltage::{Millivolts, NOMINAL_CORE_VOLTAGE};
use std::time::Instant;

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
    let victim = setup::victim(&dataset, 0, &args);
    let q = victim.quantized();
    let features = victim.spec().extract(dataset.trace(0));
    let n = 20_000;

    let mut scratch = InferenceScratch::new();
    let start = Instant::now();
    let mut exact = ExactLanes;
    for _ in 0..n {
        std::hint::black_box(q.infer_into(&features, &mut exact, &mut scratch));
    }
    let exact_ns = start.elapsed().as_nanos() as f64 / f64::from(n);

    let mut injector =
        FaultStream::new(FaultModel::from_error_rate(0.1).expect("valid"), args.seed);
    let start = Instant::now();
    for _ in 0..n {
        std::hint::black_box(q.infer_into(&features, &mut injector, &mut scratch));
    }
    let faulty_ns = start.elapsed().as_nanos() as f64 / f64::from(n);

    println!();
    table::title(&format!(
        "Live measurement ({} MACs/inference, {n} runs, scratch hot path)",
        q.mac_count()
    ));
    table::header(&["datapath", "time/inference"]);
    table::row(&["exact".into(), format!("{exact_ns:.0} ns")]);
    table::row(&["er=0.1 faulty".into(), format!("{faulty_ns:.0} ns")]);
    println!("(the fault-injection emulation overhead exists only in simulation;");
    println!(" on real hardware the faults are free)");
}
