//! Heap work per batch on the serving path.
//!
//! An attacker's oracle (`ArenaOracle::query`) sends one query per batch,
//! so whatever a batch allocates is paid on every query. The service keeps
//! its per-batch buffers (worker scratch, lane-block scratch, routing
//! tables) across batches, its workers extract features into their own
//! rows and score straight into the verdict vector it returns, so a
//! warmed-up batch allocates little beyond that vector, one query or a
//! thousand.
//!
//! The counting allocator below counts only on the thread that asked for
//! it. A one-query batch, and any batch on a serial service, runs on the
//! calling thread (no worker threads), so the count covers the whole
//! batch, and other tests running in parallel never add to it.

use shmd_ml::anomaly::{AnomalyConfig, AnomalyScorer};
use shmd_volt::calibration::{Calibrator, DeviceProfile};
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use shmd_workload::trace::Trace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stochastic_hmd::baseline::BaselineHmd;
use stochastic_hmd::detector::Detector;
use stochastic_hmd::exec::ExecConfig;
use stochastic_hmd::serve::{MonitoringService, RequeryConfig, ServeConfig};
use stochastic_hmd::stochastic::StochasticHmd;
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};

/// Most heap allocations a warmed-up one-query batch may make.
const MAX_ALLOCATIONS_PER_BATCH: u64 = 4;

/// Most heap allocations a warmed-up serial 1 024-query batch may make:
/// its verdict vector, and one to spare.
const MAX_ALLOCATIONS_PER_FULL_BATCH: u64 = 2;

thread_local! {
    /// Allocations this thread made since counting began, or `None` while
    /// it is not counting.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = COUNT.try_with(|count| {
        if let Some(n) = count.get() {
            count.set(Some(n + 1));
        }
    });
}

/// The system allocator, counting allocations and reallocations.
struct CountingAllocator;

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f`, returning the heap allocations it made on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.set(Some(0));
    f();
    COUNT.replace(None).unwrap_or(0)
}

/// An unsupervised service like the arena's: re-query with 14 replicas in
/// a band that covers nearly every score, and an installed anomaly scorer,
/// with two worker threads configured. The arena targets er = 0.3; a
/// target no calibration reaches (above the freeze rate) degrades every
/// shard to the baseline at deploy time.
fn deploy(dataset: &Dataset, target_error_rate: f64) -> MonitoringService {
    let config = ServeConfig::new(2)
        .with_seed(3)
        .with_target_error_rate(target_error_rate)
        .with_requery(RequeryConfig::new(0.499, 14))
        .with_exec(ExecConfig::threads(2));
    let mut service = deploy_plain(dataset, config);
    let split = dataset.three_fold_split(0);
    let labeled = dataset.labeled_features(split.victim_training(), FeatureSpec::frequency());
    let benign: Vec<Vec<f32>> = labeled
        .inputs
        .into_iter()
        .zip(labeled.labels)
        .filter(|(_, malware)| !malware)
        .map(|(row, _)| row)
        .collect();
    let scorer = AnomalyScorer::fit(&benign, &AnomalyConfig::default()).expect("benign rows");
    service
        .install_anomaly_scorer(scorer)
        .expect("fits the model");
    service
}

/// The baseline detector trained on `dataset`'s first victim fold.
fn train(dataset: &Dataset) -> BaselineHmd {
    let split = dataset.three_fold_split(0);
    train_baseline(
        dataset,
        split.victim_training(),
        FeatureSpec::frequency(),
        &HmdTrainConfig::fast(),
    )
    .expect("trains")
}

/// A service under `config` over a detector trained on `dataset`.
fn deploy_plain(dataset: &Dataset, config: ServeConfig) -> MonitoringService {
    let baseline = train(dataset);
    let curve = Calibrator::new()
        .with_step(2)
        .calibrate(&DeviceProfile::reference());
    MonitoringService::deploy(&baseline, &curve, config).expect("deploys")
}

/// What the measured one-query batches (after the warm-up) did.
struct Measured {
    /// Mean allocations per `process_batch` call.
    traces: f64,
    /// Mean allocations per `process_feature_batch` call.
    features: f64,
    /// Re-queries the measured batches made.
    requeries: u64,
}

/// Serves every dataset query as a one-query batch, through both entry
/// points, after a warm-up pass, asserting the per-batch allocation bound.
fn one_query_batches(service: &mut MonitoringService, dataset: &Dataset) -> Measured {
    let features: Vec<Vec<f32>> = (0..dataset.len())
        .map(|i| FeatureSpec::frequency().extract(dataset.trace(i)))
        .collect();
    // Warm-up: every buffer reaches the size these queries need.
    for i in 0..dataset.len() {
        service.process_batch(&[dataset.trace(i)]);
        service.process_feature_batch(&features[i..=i]);
    }
    let requeries_before = service.snapshot().requeries;
    let (mut traces_total, mut features_total) = (0, 0);
    let rounds = 3 * dataset.len();
    for r in 0..rounds {
        let i = r % dataset.len();
        let trace = dataset.trace(i);
        let from_trace = allocations(|| {
            service.process_batch(&[trace]);
        });
        let from_features = allocations(|| {
            service.process_feature_batch(&features[i..=i]);
        });
        assert!(
            from_trace <= MAX_ALLOCATIONS_PER_BATCH,
            "process_batch of query {r} made {from_trace} allocations"
        );
        assert!(
            from_features <= MAX_ALLOCATIONS_PER_BATCH,
            "process_feature_batch of query {r} made {from_features} allocations"
        );
        traces_total += from_trace;
        features_total += from_features;
    }
    Measured {
        traces: traces_total as f64 / rounds as f64,
        features: features_total as f64 / rounds as f64,
        requeries: service.snapshot().requeries - requeries_before,
    }
}

#[test]
fn warmed_up_one_query_batches_barely_touch_the_heap() {
    let dataset = Dataset::generate(&DatasetConfig::small(60), 9);
    let mut service = deploy(&dataset, 0.3);
    let Measured {
        traces,
        features,
        requeries,
    } = one_query_batches(&mut service, &dataset);
    // The measured batches did re-query, so the ensemble path is covered.
    assert!(requeries > 0);
    println!(
        "allocations per one-query batch: process_batch {traces:.2}, process_feature_batch {features:.2}"
    );
}

#[test]
fn degraded_shards_score_one_query_batches_without_the_heap() {
    let dataset = Dataset::generate(&DatasetConfig::small(60), 9);
    let mut service = deploy(&dataset, 0.9);
    assert_eq!(service.snapshot().degraded_shards(), service.shard_count());
    let Measured {
        traces, features, ..
    } = one_query_batches(&mut service, &dataset);
    println!(
        "allocations per degraded one-query batch: process_batch {traces:.2}, process_feature_batch {features:.2}"
    );
}

#[test]
fn warmed_up_full_batches_allocate_only_their_verdicts() {
    let dataset = Dataset::generate(&DatasetConfig::small(60), 9);
    let traces: Vec<&Trace> = (0..1024)
        .map(|i| dataset.trace(i % dataset.len()))
        .collect();
    let features: Vec<Vec<f32>> = traces
        .iter()
        .map(|trace| FeatureSpec::frequency().extract(trace))
        .collect();
    for lanes in [1, 8] {
        let config = ServeConfig::new(4)
            .with_seed(3)
            .with_target_error_rate(0.1)
            .with_lanes(lanes)
            .with_exec(ExecConfig::serial());
        let mut service = deploy_plain(&dataset, config);
        assert_eq!(service.lanes(), lanes);
        // Warm-up: every buffer reaches the size these batches need.
        service.process_batch(&traces);
        service.process_feature_batch(&features);
        for round in 0..3 {
            let from_traces = allocations(|| {
                service.process_batch(&traces);
            });
            let from_features = allocations(|| {
                service.process_feature_batch(&features);
            });
            assert!(
                from_traces <= MAX_ALLOCATIONS_PER_FULL_BATCH,
                "{lanes} lanes: process_batch round {round} made {from_traces} allocations"
            );
            assert!(
                from_features <= MAX_ALLOCATIONS_PER_FULL_BATCH,
                "{lanes} lanes: process_feature_batch round {round} made {from_features} allocations"
            );
            println!(
                "allocations per 1 024-query batch at {lanes} lanes: \
                 process_batch {from_traces}, process_feature_batch {from_features}"
            );
        }
    }
}

#[test]
fn warmed_up_detectors_score_traces_without_the_heap() {
    // A detection extracts its features into a row on the stack and
    // scores through the detector's own scratch.
    let dataset = Dataset::generate(&DatasetConfig::small(60), 9);
    let mut baseline = train(&dataset);
    let mut stochastic = StochasticHmd::from_baseline(&baseline, 0.3, 5).expect("valid");
    let detectors: [&mut dyn Detector; 2] = [&mut baseline, &mut stochastic];
    for detector in detectors {
        for i in 0..dataset.len() {
            detector.score(dataset.trace(i));
        }
        for i in 0..dataset.len() {
            let made = allocations(|| {
                detector.score(dataset.trace(i));
            });
            assert_eq!(made, 0, "{} scoring query {i}", detector.name());
        }
    }
}
