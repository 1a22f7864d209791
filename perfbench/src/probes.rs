//! Layer measurements that are defined as tight loops rather than spans:
//! the detector's per-query cost on the scalar and 8-lane paths, the same
//! call without faults (the exact ANN forward pass), the fault-event cost
//! by subtraction, and the serving layer's per-query and per-batch costs.

use crate::fixture::Fixture;
use shmd_ann::network::{BatchScratch, InferenceScratch};
use shmd_volt::fault::{BatchFaultStream, FaultStream};
use std::hint::black_box;
use std::time::Instant;
use stochastic_hmd::{MonitoringService, StochasticHmd};

/// Queries each detector loop scores.
const DETECTOR_QUERIES: u64 = 200_000;

/// Full batches and one-query batches the serving probe times.
const SERVE_BATCHES: (usize, usize) = (8, 2_000);

/// Queries per full batch of the serving probe.
const SERVE_BATCH: usize = 1024;

fn scalar_ns(hmd: &StochasticHmd, features: &[Vec<f32>]) -> f64 {
    let model = hmd.fault_model();
    let mut scratch = InferenceScratch::new();
    let t = Instant::now();
    let mut acc = 0u64;
    for q in 0..DETECTOR_QUERIES {
        let f = &features[q as usize % features.len()];
        let mut stream = FaultStream::new(model, q);
        acc ^= hmd
            .score_features_with(black_box(f), &mut stream, &mut scratch)
            .to_bits();
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e9 / DETECTOR_QUERIES as f64
}

fn b8_ns(hmd: &StochasticHmd, features: &[Vec<f32>]) -> f64 {
    let model = hmd.fault_model();
    let mut scratch = BatchScratch::<8>::new();
    let blocks = DETECTOR_QUERIES / 8;
    let t = Instant::now();
    let mut acc = 0u64;
    for b in 0..blocks {
        let base = (b * 8) as usize;
        let lanes: [&[f32]; 8] =
            std::array::from_fn(|l| features[(base + l) % features.len()].as_slice());
        let seeds: [u64; 8] = std::array::from_fn(|l| b * 8 + l as u64);
        let mut stream = BatchFaultStream::<8>::new(model, seeds);
        acc ^= hmd.score_features_batch_with(black_box(&lanes), &mut stream, &mut scratch)[0]
            .to_bits();
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e9 / (blocks * 8) as f64
}

/// `detector.*`, `ann.exact_ns_per_query` and `volt.event_ns_per_query`
/// at er = 0.1. The exact cost is the 8-lane call at er = 0; the event
/// cost is the 8-lane call at er = 0.1 minus it.
pub fn detector(fx: &Fixture) -> Vec<(String, f64)> {
    let features: Vec<Vec<f32>> = (0..64).map(|i| fx.query(i).to_vec()).collect();
    let hmd = StochasticHmd::from_baseline(&fx.baseline, 0.1, fx.seed).expect("valid rate");
    let exact = StochasticHmd::from_baseline(&fx.baseline, 0.0, fx.seed).expect("valid rate");
    let scalar = scalar_ns(&hmd, &features);
    let b8 = b8_ns(&hmd, &features);
    let exact_b8 = b8_ns(&exact, &features);
    vec![
        ("detector.ns_per_query_scalar".into(), scalar),
        ("detector.ns_per_query_b8".into(), b8),
        ("ann.exact_ns_per_query".into(), exact_b8),
        ("volt.event_ns_per_query".into(), b8 - exact_b8),
    ]
}

/// `serve.ns_per_query` from full 1024-query batches and
/// `serve.fixed_us_per_batch` as a one-query batch's cost minus the
/// per-query cost, both on a fresh `service` of the workload's
/// configuration.
pub fn serve(fx: &Fixture, mut service: MonitoringService) -> Vec<(String, f64)> {
    let batch: Vec<Vec<f32>> = (0..SERVE_BATCH).map(|i| fx.query(i).to_vec()).collect();
    service.process_feature_batch(&batch);
    let t = Instant::now();
    for _ in 0..SERVE_BATCHES.0 {
        black_box(service.process_feature_batch(&batch));
    }
    let ns_per_query = t.elapsed().as_secs_f64() * 1e9 / (SERVE_BATCHES.0 * SERVE_BATCH) as f64;
    let t = Instant::now();
    for i in 0..SERVE_BATCHES.1 {
        black_box(service.process_feature_batch(&batch[i % SERVE_BATCH..][..1]));
    }
    let single_us = t.elapsed().as_secs_f64() * 1e6 / SERVE_BATCHES.1 as f64;
    vec![
        ("serve.ns_per_query".into(), ns_per_query),
        (
            "serve.fixed_us_per_batch".into(),
            single_us - ns_per_query / 1e3,
        ),
    ]
}
