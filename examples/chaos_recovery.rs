//! Run a supervised monitoring pool through a scripted chaos schedule:
//! a shard crash, a cold thermal spike that freezes the operating point,
//! and a poison query — then watch the supervisor quarantine, re-route,
//! retry with exponential backoff, and recover.
//!
//! ```text
//! cargo run --release --example chaos_recovery
//! ```

use shmd_volt::environment::EnvironmentConfig;
use shmd_volt::DeviceProfile;
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use stochastic_hmd::serve::{MonitoringService, ServeConfig};
use stochastic_hmd::supervisor::{ChaosEvent, ChaosPlan, ShardHealth, SupervisorConfig};
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Dataset::generate(&DatasetConfig::small(200), 42);
    let split = dataset.three_fold_split(0);
    let baseline = train_baseline(
        &dataset,
        split.victim_training(),
        FeatureSpec::frequency(),
        &HmdTrainConfig::fast(),
    )?;

    // The chaos script: shard 1 crashes at batch 3, and a −25 °C spike at
    // batch 10 pushes the er = 0.2 offset past the freeze threshold
    // (temperature inversion: a colder die is slower, so a fixed
    // undervolt that was safe at calibration temperature hangs the core).
    let device = DeviceProfile::reference();
    let chaos = ChaosPlan::none()
        .with_event(ChaosEvent::Crash { batch: 3, shard: 1 })
        .with_event(ChaosEvent::DriftSpike {
            batch: 10,
            delta_c: -25.0,
            duration: 3,
        });
    let supervision = SupervisorConfig::new(device.clone())
        .with_environment(EnvironmentConfig::drifting(device.temp_c, 7))
        .with_chaos(chaos);
    let config = ServeConfig::new(4)
        .with_seed(7)
        .with_batch_size(16)
        .with_target_error_rate(0.2);
    let mut service = MonitoringService::supervised(&baseline, supervision, config)?;
    println!(
        "deployed {} supervised shards at target er 0.2\n",
        service.shard_count()
    );

    // Replay a monitoring shift batch by batch; one poison query (wrong
    // feature width) rides along in batch 5.
    let spec = baseline.spec();
    let dim = service.input_dim();
    let mut last: Vec<ShardHealth> = service.shard_healths();
    for batch in 0..25u64 {
        let mut features: Vec<Vec<f32>> = (0..16)
            .map(|i| spec.extract(dataset.trace(((batch * 16) as usize + i) % dataset.len())))
            .collect();
        if batch == 5 {
            features[0] = vec![1.0; dim + 4];
        }
        let verdicts = service.process_feature_batch(&features);
        let rejected = verdicts.iter().filter(|v| v.is_rejected()).count();
        let healths = service.shard_healths();
        if healths != last || rejected > 0 {
            let states: Vec<String> = healths.iter().map(|h| h.to_string()).collect();
            println!(
                "batch {batch:>2}: [{}]{}",
                states.join(", "),
                if rejected > 0 {
                    format!("  ({rejected} poison query rejected)")
                } else {
                    String::new()
                }
            );
            last = healths;
        }
    }

    let snapshot = service.snapshot();
    println!(
        "\n{} queries in {} batches: {} crashes, {} retries, {} drift events, \
         {} health transitions, {} rejected",
        snapshot.queries,
        snapshot.batches,
        snapshot.total_crashes(),
        snapshot.total_retries(),
        snapshot.total_drift_events(),
        snapshot.total_transitions(),
        snapshot.rejected_queries
    );
    for (id, shard) in snapshot.shards.iter().enumerate() {
        let sup = &shard.supervision;
        println!(
            "  shard {id}: {:<9} {} queries, {} crashes, {} retries{}",
            sup.health.to_string(),
            shard.queries,
            sup.crashes,
            sup.retries,
            shard
                .degraded_reason
                .as_deref()
                .map(|r| format!("  ({r})"))
                .unwrap_or_default()
        );
    }
    println!(
        "\nevery supervision decision is a function of the batch index and the \
         master seed,\nso this run replays bit-identically at any thread count"
    );
    Ok(())
}
