//! Fuzzes checkpoints in two passes.
//!
//! The byte pass feeds `ServiceCheckpoint::decode` truncations, bit flips,
//! length-field lies, and garbage derived from a real checkpoint. Every
//! such input fails the trailing checksum, so each must return a typed
//! `CheckpointError`.
//!
//! The structural pass gets past the checksum. It rewrites fields of two
//! decoded checkpoints (the unsupervised corpus one, and a supervised one
//! with a crash and a power budget), re-encodes them, then decodes,
//! restores and serves them. Shard ids that lie about their position must
//! fail decoding typed; every other rewrite must end in a typed
//! `RestoreError` or a service that answers one batch, and at least one
//! rewrite of each base must serve.
//!
//! Any panic kills the process, which is the failure signal.

use proptest::TestRunner;
use rand::Rng;
use shmd_fuzz::{corpus, mutate, FuzzArgs, Tally};
use shmd_volt::calibration::DeviceProfile;
use shmd_volt::environment::EnvironmentConfig;
use stochastic_hmd::checkpoint::BackendCheckpoint;
use stochastic_hmd::supervisor::PowerBudgetPolicy;
use stochastic_hmd::{
    ChaosEvent, ChaosPlan, ExecConfig, MonitoringService, ServeConfig, ServiceCheckpoint,
    ShardHealth, SupervisorConfig,
};

const HEALTHS: [ShardHealth; 6] = [
    ShardHealth::Healthy,
    ShardHealth::Drifting,
    ShardHealth::Crashed,
    ShardHealth::Quarantined,
    ShardHealth::Recovering,
    ShardHealth::Degraded,
];

/// Ripple spans and near-zero widths for the structural pass: in range,
/// at the edges of the accepted range, and far outside it.
const MODEL_WIDTHS: [u32; 8] = [0, 6, 7, 14, 20, 64, 65, u32::MAX];

fn main() {
    let args = FuzzArgs::parse("fuzz_checkpoint");
    let mut rng = args.rng();
    let corpus = corpus();
    // The pristine artifact must round-trip: the harness is fuzzing a
    // working decoder, not one that rejects everything.
    let pristine =
        ServiceCheckpoint::decode(&corpus.checkpoint).expect("corpus checkpoint does not decode");
    let mut tally = Tally::default();
    for _ in 0..args.iters {
        for bad in mutate::hostile_set(&corpus.checkpoint, &mut rng, 64) {
            // Checkpoints are whole-artifact checksummed: every mutation
            // of a valid artifact must fail typed (a truncation to the
            // empty prefix included).
            match ServiceCheckpoint::decode(&bad) {
                Err(_) => tally.record(true),
                Ok(_) if bad == corpus.checkpoint => tally.record(false),
                Ok(_) => panic!("mutated checkpoint ({} bytes) decoded", bad.len()),
            }
        }
    }
    println!("{}", tally.summary("checkpoint"));

    let supervision = SupervisorConfig::new(DeviceProfile::reference())
        .with_environment(EnvironmentConfig::steady(58.0))
        .with_power_budget(PowerBudgetPolicy::new(23.0))
        .with_chaos(ChaosPlan::new(vec![ChaosEvent::Crash {
            batch: 1,
            shard: 1,
        }]));
    let mut supervised = MonitoringService::supervised(
        &corpus.baseline,
        supervision.clone(),
        ServeConfig::new(3).with_seed(17).with_batch_size(8),
    )
    .expect("fuzz supervised service config is valid by construction");
    for _ in 0..3 {
        supervised.process_feature_batch(&corpus.features);
    }
    let bases = [
        (pristine, None),
        (supervised.checkpoint(), Some(supervision)),
    ];
    let mut fields = Tally::default();
    for (base, _) in &bases {
        for bytes in misplaced_ids(base) {
            match ServiceCheckpoint::decode(&bytes) {
                Err(_) => fields.record(true),
                Ok(_) => panic!("a checkpoint with misplaced shard ids decoded"),
            }
        }
    }
    // Restores that served a batch, per base.
    let mut served = [0usize; 2];
    for _ in 0..args.iters {
        for ((base, config), served) in bases.iter().zip(&mut served) {
            for rewritten in rewrites(base, &mut rng, 64) {
                let decoded = ServiceCheckpoint::decode(&rewritten.encode())
                    .expect("a re-encoded checkpoint decodes");
                match MonitoringService::restore(
                    &corpus.baseline,
                    config.clone(),
                    &decoded,
                    ExecConfig::serial(),
                ) {
                    Err(_) => fields.record(true),
                    Ok(mut service) => {
                        let verdicts = service.process_feature_batch(&corpus.features);
                        assert_eq!(verdicts.len(), corpus.features.len());
                        fields.record(false);
                        *served += 1;
                    }
                }
            }
        }
    }
    println!("{}", fields.summary("checkpoint fields"));
    // Restore rejects a backend its shard's health does not serve from,
    // so most rewrites fail typed; the pass must still reach serving.
    if args.iters > 0 {
        assert!(
            served.iter().all(|&n| n > 0),
            "a base checkpoint had no rewrite restore and serve: {served:?}"
        );
    }
}

/// Encodings of `checkpoint` whose shard id words lie about their
/// positions: every id shifted up by one, the first two swapped, and the
/// second duplicating the first. The checksum is recomputed, so only the
/// decoder's position check can reject them.
fn misplaced_ids(checkpoint: &ServiceCheckpoint) -> Vec<Vec<u8>> {
    let clean = checkpoint.encode();
    // Shard i's record starts where an encoding of the shards before it
    // ends, less that encoding's checksum; the id word leads the record.
    let offsets: Vec<usize> = (0..checkpoint.shards.len())
        .map(|i| {
            let mut head = checkpoint.clone();
            head.shards.truncate(i);
            head.encode().len() - 8
        })
        .collect();
    let n = offsets.len() as u64;
    let shifted: Vec<u64> = (1..=n).collect();
    let mut swapped: Vec<u64> = (0..n).collect();
    swapped.swap(0, 1);
    let mut duplicated: Vec<u64> = (0..n).collect();
    duplicated[1] = 0;
    [shifted, swapped, duplicated]
        .iter()
        .map(|ids| {
            let mut bytes = clean.clone();
            for (&at, id) in offsets.iter().zip(ids) {
                bytes[at..at + 8].copy_from_slice(&id.to_le_bytes());
            }
            let body = bytes.len() - 8;
            let checksum = fnv1a(&bytes[..body]);
            bytes[body..].copy_from_slice(&checksum.to_le_bytes());
            bytes
        })
        .collect()
}

/// `n` rewrites of `checkpoint` that still encode cleanly. Each reorders,
/// duplicates or drops a shard, then gives one shard any backend and any
/// health, with a retry attempt and schedule that may be far out of
/// range. A stochastic backend also gets a ripple span and a near-zero
/// width that may be out of range.
fn rewrites(
    checkpoint: &ServiceCheckpoint,
    rng: &mut TestRunner,
    n: usize,
) -> Vec<ServiceCheckpoint> {
    let stochastic = checkpoint
        .shards
        .iter()
        .map(|shard| &shard.backend)
        .find(|backend| matches!(backend, BackendCheckpoint::Stochastic(_)))
        .cloned()
        .unwrap_or(BackendCheckpoint::Baseline);
    (0..n)
        .map(|_| {
            let mut cp = checkpoint.clone();
            let len = cp.shards.len();
            let (i, j) = (rng.gen_range(0..len), rng.gen_range(0..len));
            match rng.gen_range(0..4u32) {
                0 => cp.shards.swap(i, j),
                1 => cp.shards[j] = cp.shards[i].clone(),
                2 if len > 1 => {
                    cp.shards.remove(i);
                }
                _ => {}
            }
            let at = rng.gen_range(0..cp.shards.len());
            let shard = &mut cp.shards[at];
            shard.backend = match rng.gen_range(0..3u32) {
                0 => stochastic.clone(),
                1 => BackendCheckpoint::Baseline,
                _ => BackendCheckpoint::Down,
            };
            if let BackendCheckpoint::Stochastic(hmd) = &mut shard.backend {
                hmd.model.ripple_span = MODEL_WIDTHS[rng.gen_range(0..MODEL_WIDTHS.len())];
                hmd.model.near_zero_width = MODEL_WIDTHS[rng.gen_range(0..MODEL_WIDTHS.len())];
            }
            let sup = &mut shard.state.supervision;
            sup.health = HEALTHS[rng.gen_range(0..HEALTHS.len())];
            sup.attempt = [0, 1, 3, u32::MAX][rng.gen_range(0..4usize)];
            sup.next_retry_batch =
                [None, Some(0), Some(cp.batches), Some(u64::MAX)][rng.gen_range(0..4usize)];
            cp
        })
        .collect()
}

/// The checkpoint format's trailing checksum: 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
