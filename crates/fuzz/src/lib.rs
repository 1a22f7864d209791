//! Structured fuzz harnesses for every byte decoder in the workspace.
//!
//! The repo's no-panic guarantee — hostile bytes decode to typed errors,
//! never a panic, never an allocation beyond the declared frame cap — is
//! enforced three ways: clippy deny-gates on the decoding modules, unit
//! tests on hand-built corruptions, and these harness binaries, which
//! generate *valid* artifacts and then mutate them exhaustively:
//!
//! - `fuzz_checkpoint` — [`stochastic_hmd::ServiceCheckpoint::decode`]
//! - `fuzz_telemetry` — [`stochastic_hmd::json::parse`] over mutated
//!   telemetry snapshots (the parser tests use to check that BENCH
//!   documents and snapshots are valid JSON)
//! - `fuzz_wire` — [`stochastic_hmd::decode_frame`]
//! - `fuzz_daemon` — the admission path ([`stochastic_hmd::Daemon::handle_frame`])
//!
//! Each binary runs under the vendored [`proptest`] RNG (deterministic,
//! seeded), applies every mutation family in [`mutate`] — truncations,
//! bit flips, length-field lies, and pure garbage — and exits non-zero
//! (by panicking) iff any input panics a decoder or breaks its stated
//! invariant. A clean exit *is* the fuzz verdict.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use proptest::collection::vec as vec_of;
use proptest::{Strategy, TestRunner};
use rand::Rng;
use shmd_volt::calibration::{Calibrator, DeviceProfile};
use shmd_workload::dataset::{Dataset, DatasetConfig};
use shmd_workload::features::FeatureSpec;
use stochastic_hmd::train::{train_baseline, HmdTrainConfig};
use stochastic_hmd::{
    encode_frame, BaselineHmd, Frame, MonitoringService, RejectCode, ServeConfig,
};

/// Valid artifacts to mutate: a real service's checkpoint bytes,
/// telemetry JSON, and one wire frame of every kind.
pub struct Corpus {
    /// The trained baseline the service was deployed from (for harnesses
    /// that need to rebuild a service).
    pub baseline: BaselineHmd,
    /// Feature vectors matched to the baseline's input layer.
    pub features: Vec<Vec<f32>>,
    /// An encoded [`stochastic_hmd::ServiceCheckpoint`] with live state.
    pub checkpoint: Vec<u8>,
    /// The matching [`stochastic_hmd::TelemetrySnapshot`] JSON document.
    pub telemetry_json: String,
    /// One encoded frame of every wire kind.
    pub frames: Vec<Vec<u8>>,
}

/// Builds the corpus deterministically: tiny dataset, fast training, a
/// few served batches so counters, histograms, and checksums are
/// non-trivial.
pub fn corpus() -> Corpus {
    let dataset = Dataset::generate(&DatasetConfig::small(60), 93);
    let split = dataset.three_fold_split(0);
    let baseline = train_baseline(
        &dataset,
        split.victim_training(),
        FeatureSpec::frequency(),
        &HmdTrainConfig::fast(),
    )
    .expect("fuzz corpus training is infallible by construction");
    let curve = Calibrator::new()
        .with_step(2)
        .calibrate(&DeviceProfile::reference());
    let mut service =
        MonitoringService::deploy(&baseline, &curve, ServeConfig::new(2).with_seed(17))
            .expect("fuzz corpus service config is valid by construction");
    let spec = baseline.spec();
    let features: Vec<Vec<f32>> = (0..8)
        .map(|i| spec.extract(dataset.trace(i % dataset.len())))
        .collect();
    for _ in 0..3 {
        service.process_feature_batch(&features);
    }
    let verdicts = service.process_feature_batch(&features);
    let frames = vec![
        encode_frame(&Frame::SubmitBatch {
            tenant: 1,
            queries: features.clone(),
        }),
        encode_frame(&Frame::Snapshot),
        encode_frame(&Frame::Retarget {
            target_error_rate: 0.15,
        }),
        encode_frame(&Frame::Checkpoint),
        encode_frame(&Frame::Handoff),
        encode_frame(&Frame::Shutdown),
        encode_frame(&Frame::Ack),
        encode_frame(&Frame::Verdicts {
            tenant: 1,
            verdicts,
        }),
        encode_frame(&Frame::SnapshotText {
            json: service.snapshot().to_json(),
        }),
        encode_frame(&Frame::Reject {
            code: RejectCode::Backpressure,
            queued: 10,
            cap: 10,
        }),
        encode_frame(&Frame::CheckpointBytes {
            bytes: service.checkpoint().encode(),
        }),
        encode_frame(&Frame::HandoffState {
            checkpoint: service.checkpoint().encode(),
            verdict_checksum: service.verdict_checksum(),
            served: service.served(),
            batches: service.batches(),
        }),
        encode_frame(&Frame::ErrorReply {
            message: "fuzz".to_string(),
        }),
    ];
    Corpus {
        checkpoint: service.checkpoint().encode(),
        telemetry_json: service.snapshot().to_json(),
        frames,
        features,
        baseline,
    }
}

/// The mutation families every harness applies.
pub mod mutate {
    use super::*;

    /// Every strict prefix of `bytes` — the truncation family.
    pub fn truncations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        (0..bytes.len()).map(|cut| bytes[..cut].to_vec())
    }

    /// `n` single-bit flips at sampled positions.
    pub fn bit_flips(bytes: &[u8], rng: &mut TestRunner, n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| {
                let mut out = bytes.to_vec();
                if !out.is_empty() {
                    let at = rng.gen_range(0..out.len());
                    out[at] ^= 1 << rng.gen_range(0..8u32);
                }
                out
            })
            .collect()
    }

    /// `n` length-field lies: a 4-byte window overwritten with an extreme
    /// little-endian value (huge, zero, or off-by-one-ish), the attack
    /// the "no allocation beyond the cap" guarantee exists for.
    pub fn length_lies(bytes: &[u8], rng: &mut TestRunner, n: usize) -> Vec<Vec<u8>> {
        const LIES: [u32; 6] = [u32::MAX, u32::MAX - 1, 0x7fff_ffff, 0, 1, 0x0001_0000];
        (0..n)
            .map(|_| {
                let mut out = bytes.to_vec();
                if out.len() >= 4 {
                    let at = rng.gen_range(0..=out.len() - 4);
                    let lie = LIES[rng.gen_range(0..LIES.len())];
                    out[at..at + 4].copy_from_slice(&lie.to_le_bytes());
                }
                out
            })
            .collect()
    }

    /// `n` buffers of pure garbage, lengths 0..max_len.
    pub fn garbage(rng: &mut TestRunner, n: usize, max_len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| {
                let len = rng.gen_range(0..max_len);
                vec_of(0u8..=255, len).sample(rng)
            })
            .collect()
    }

    /// The full hostile set for one artifact: truncations + flips + lies
    /// + garbage, `per_family` samples per random family.
    pub fn hostile_set(bytes: &[u8], rng: &mut TestRunner, per_family: usize) -> Vec<Vec<u8>> {
        let mut set: Vec<Vec<u8>> = truncations(bytes).collect();
        set.extend(bit_flips(bytes, rng, per_family));
        set.extend(length_lies(bytes, rng, per_family));
        set.extend(garbage(rng, per_family, bytes.len().max(32)));
        set
    }
}

/// Shared `--iters N --seed NAME` parsing for the harness binaries.
pub struct FuzzArgs {
    /// Outer iterations (each applies every mutation family once).
    pub iters: usize,
    /// Seed name handed to [`proptest::test_rng`].
    pub seed: String,
}

impl FuzzArgs {
    /// Parses from `std::env::args`, with defaults `--iters 20 --seed
    /// <binary name>`.
    pub fn parse(default_seed: &str) -> FuzzArgs {
        let mut iters = 20usize;
        let mut seed = default_seed.to_string();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--iters" => {
                    if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                        iters = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.next() {
                        seed = v;
                    }
                }
                other => panic!("unknown argument {other} (expected --iters N / --seed NAME)"),
            }
        }
        FuzzArgs { iters, seed }
    }

    /// The deterministic RNG for this run.
    pub fn rng(&self) -> TestRunner {
        proptest::test_rng(&self.seed)
    }
}

/// Tally printed by each harness; `panics` stays 0 or the process died.
#[derive(Default)]
pub struct Tally {
    /// Hostile inputs fed to the decoder.
    pub inputs: u64,
    /// Inputs the decoder rejected with a typed error.
    pub rejected: u64,
    /// Inputs that (legitimately) still decoded — possible only for
    /// formats without whole-artifact checksums, e.g. JSON mutations
    /// that happen to stay well-formed.
    pub accepted: u64,
}

impl Tally {
    /// Records one decoder outcome.
    pub fn record(&mut self, rejected: bool) {
        self.inputs += 1;
        if rejected {
            self.rejected += 1;
        } else {
            self.accepted += 1;
        }
    }

    /// One-line summary for the harness to print.
    pub fn summary(&self, what: &str) -> String {
        format!(
            "{what}: {} hostile inputs, {} rejected typed, {} decoded, 0 panics",
            self.inputs, self.rejected, self.accepted
        )
    }
}
