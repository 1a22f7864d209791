//! Run a sharded continuous-monitoring service: a pool of Stochastic-HMD
//! replicas answering a trace stream, with telemetry export and graceful
//! degradation when calibration cannot deliver the target error rate.
//!
//! ```text
//! cargo run --release --example monitoring_service
//! ```

use shmd_volt::calibration::Calibrator;
use shmd_volt::DeviceProfile;
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use shmd_workload::trace::Trace;
use stochastic_hmd::deploy::DetectionPolicy;
use stochastic_hmd::serve::{MonitoringService, ServeConfig};
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Dataset::generate(&DatasetConfig::small(300), 42);
    let split = dataset.three_fold_split(0);
    let baseline = train_baseline(
        &dataset,
        split.victim_training(),
        FeatureSpec::frequency(),
        &HmdTrainConfig::paper(),
    )?;
    let curve = Calibrator::new().calibrate(&DeviceProfile::reference());

    // Four replicas at the paper's er = 0.1 operating point, majority-of-3
    // verdicts. Every shard seed derives from the one master seed, so the
    // whole service replays bit-for-bit at any thread count.
    let config = ServeConfig::new(4)
        .with_policy(DetectionPolicy::MajorityOf(3))
        .with_seed(7);
    let mut service = MonitoringService::deploy(&baseline, &curve, config)?;
    println!(
        "deployed {} shards, policy {}, target er 0.1",
        service.shard_count(),
        service.policy()
    );

    // A monitoring shift: replay the held-out programs as a query stream.
    let queries: Vec<&Trace> = split.testing().iter().map(|&i| dataset.trace(i)).collect();
    let verdicts = service.process_stream(&queries);
    let correct = verdicts
        .iter()
        .zip(split.testing())
        .filter(|(v, &i)| v.label.is_malware() == dataset.program(i).is_malware())
        .count();
    println!(
        "served {} queries: accuracy {:.1}%",
        verdicts.len(),
        100.0 * correct as f64 / verdicts.len() as f64
    );

    // Operations asks for a hotter operating point than the device can
    // reach: recalibration degrades every shard to the baseline detector —
    // the service keeps answering, telemetry records why.
    service.retarget(0.9)?;
    let degraded = service.recalibrate(&curve);
    service.process_stream(&queries[..20.min(queries.len())]);
    println!("after retarget to er 0.9: {degraded} shards degraded to baseline");

    // Back to a reachable target: the pool recovers on the next
    // recalibration.
    service.retarget(0.1)?;
    service.recalibrate(&curve);

    let snapshot = service.snapshot();
    println!(
        "\ntelemetry: {} queries in {} batches, {} flagged, {} degradation events",
        snapshot.queries, snapshot.batches, snapshot.flags, snapshot.degradation_events
    );
    println!(
        "faults injected: {} faulty multiplies over {} total (observed er {:.4})",
        snapshot.total_faults().faulty,
        snapshot.total_faults().multiplies,
        snapshot.total_faults().observed_error_rate()
    );
    for (id, shard) in snapshot.shards.iter().enumerate() {
        println!(
            "  shard {id}: {} queries, {} flags, health = {}",
            shard.queries, shard.flags, shard.supervision.health
        );
    }

    // The snapshot exports as JSON for external dashboards.
    let json = snapshot.to_json();
    stochastic_hmd::json::parse(&json)?;
    println!(
        "\nsnapshot exports to {} bytes of JSON (parse verified)",
        json.len()
    );
    Ok(())
}
