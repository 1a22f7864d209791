//! `attack_oracle`: `ArenaOracle::query` on one trace at a time, so every
//! batch holds one query and its features are extracted per query. The
//! pool runs at er = 0.3 with the arena's selective re-query (band 0.499,
//! 14 replicas) and an installed anomaly scorer. The fixed cost per batch
//! dominates here; MAC throughput barely shows.
//!
//! The traced phase splits `ArenaOracle::query` into its public parts —
//! feature extraction, then a one-query `process_feature_batch` — which
//! is exactly what the oracle's `process_batch` call does.

use crate::fixture::{self, Fixture, WORKERS};
use crate::phase::{self, Check, Phase};
use crate::trace::{self, Spans, Tracer};
use std::time::Instant;
use stochastic_hmd::{ArenaOracle, ExecConfig, MonitoringService, QueryDisposition, Verdict};

/// The multiplication error rate the shards are calibrated to.
pub const TARGET_ER: f64 = 0.3;

/// Queries after which the checksum is compared with the reference
/// (every phase runs at least this many).
pub const CHECK_QUERIES: usize = 2048;

/// The arena's service: re-query plus the anomaly member.
pub fn deploy_service(fx: &Fixture, exec: ExecConfig) -> MonitoringService {
    let mut service = MonitoringService::deploy(
        &fx.baseline,
        &fixture::calibration(),
        fixture::serve_config(fx.seed, TARGET_ER)
            .with_requery(fixture::arena_requery())
            .with_exec(exec),
    )
    .expect("the reference device calibrates at er = 0.3");
    service
        .install_anomaly_scorer(fx.anomaly_scorer())
        .expect("the scorer is fitted on the model's features");
    service
}

/// The oracle the attacker queries.
pub fn deploy(fx: &Fixture) -> ArenaOracle {
    ArenaOracle::new(deploy_service(fx, ExecConfig::threads(WORKERS)))
}

fn verdict_ok(v: &Verdict, i: usize) -> bool {
    v.query == i as u64 && v.disposition == QueryDisposition::Served
}

/// Runs the workload for `seconds`, traced or not.
pub fn run(fx: &Fixture, seconds: f64, traced: bool) -> Phase {
    let mut oracle = deploy(fx);
    let mut tracer = Tracer::new(Instant::now());
    let mut phase = Phase::default();
    let spec = fx.baseline.spec();
    let start = Instant::now();
    let mut i = 0usize;
    while i < CHECK_QUERIES || start.elapsed().as_secs_f64() < seconds {
        let trace = fx.dataset.trace(fx.order[i % fx.order.len()]);
        let t = Instant::now();
        let ok = if traced {
            let features = tracer.span("features.extract", i as u64, |_| spec.extract(trace));
            let service = oracle.service_mut();
            let verdicts = tracer.span("serve.process_feature_batch", i as u64, |_| {
                service.process_feature_batch(&[features])
            });
            tracer.span("harness.verify", i as u64, |_| {
                verdicts.len() == 1 && verdict_ok(&verdicts[0], i)
            })
        } else {
            let verdict = oracle.query(trace);
            verdict_ok(&verdict, i)
        };
        let elapsed = t.elapsed().as_secs_f64();
        phase.latency.push(elapsed * 1e6, u64::from(ok), elapsed);
        phase.failed += u64::from(!ok);
        i += 1;
        if i == CHECK_QUERIES {
            phase.checksum = oracle.service().verdict_checksum();
        }
    }
    phase.busy_s = start.elapsed().as_secs_f64();
    phase.requests = i as u64;
    phase.latency.finish();
    phase.queries_per_s = phase.latency.rate();

    // The reference scores the same prefix serially as one large batch:
    // verdicts are a function of stream position alone.
    let mut reference = deploy_service(fx, ExecConfig::serial());
    let prefix: Vec<Vec<f32>> = (0..CHECK_QUERIES).map(|q| fx.query(q).to_vec()).collect();
    reference.process_feature_batch(&prefix);
    let expected = crate::reference(reference.verdict_checksum());
    phase.checks.push(Check::new(
        if traced {
            "traced_checksum_matches_reference"
        } else {
            "checksum_matches_reference"
        },
        phase.checksum == expected,
        format!(
            "after {CHECK_QUERIES} one-query batches: {} vs one serial batch {expected}",
            phase.checksum
        ),
    ));
    let snapshot = oracle.service().snapshot();
    let replicas = fixture::arena_requery().effective_replicas();
    phase::snapshot_counts(&snapshot, replicas, &mut phase.layers);
    phase.snapshot = Some(snapshot);
    phase.model_rates = crate::phase::model_rates(oracle.service());
    if traced {
        let times = tracer.self_times();
        phase.span_self_s = times.values().map(|t| t.self_ns).sum::<u64>() as f64 / 1e9;
        if let Some(extract) = times.get("features.extract") {
            phase
                .layers
                .insert("features.extract_us".into(), extract.mean_us());
        }
        for (layer, ns) in trace::self_ns_by_layer(&times) {
            phase.layers.insert(
                format!("self.{layer}_us"),
                ns as f64 / 1e3 / phase.requests.max(1) as f64,
            );
        }
        let path = fixture::work_dir().join(format!("spans-attack_oracle-{}.jsonl", fx.seed));
        let _ = std::fs::remove_file(&path);
        let _ = tracer.write_jsonl(&path, "main", crate::SPAN_DUMP_LIMIT);
    }
    phase
}
