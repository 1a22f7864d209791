//! Fuzzes `StateJournal::recover` with torn tails, bit flips,
//! length-field lies, garbage, and interleaved-append splices derived
//! from real write-ahead journals. Recovery must never panic: every
//! hostile file salvages to a `JournalRecovery` whose commits were all
//! genuinely appended by some writer, in append order — and the pristine
//! journal's recovered checkpoint must replay the remaining batches to
//! the exact checksum of its final commit.

use rand::Rng;
use shmd_fuzz::{corpus, mutate, FuzzArgs, Tally};
use shmd_volt::calibration::{Calibrator, DeviceProfile};
use stochastic_hmd::{
    BatchCommit, ExecConfig, MonitoringService, ServeConfig, StateJournal, TempJournal,
};

/// Batches journaled before the checkpoint record.
const HEAD_BATCHES: u64 = 3;
/// Batches journaled after it.
const TAIL_BATCHES: u64 = 3;

/// Serves `HEAD_BATCHES + TAIL_BATCHES` batches through a real service,
/// journaling a commit per batch and a full checkpoint in the middle,
/// exactly as the daemon's crash-safety path does. Returns the journal
/// bytes and every commit in append order.
fn build_journal(
    corpus: &shmd_fuzz::Corpus,
    path: &std::path::Path,
    seed: u64,
) -> (Vec<u8>, Vec<BatchCommit>) {
    let curve = Calibrator::new()
        .with_step(2)
        .calibrate(&DeviceProfile::reference());
    let mut service = MonitoringService::deploy(
        &corpus.baseline,
        &curve,
        ServeConfig::new(2).with_seed(seed),
    )
    .expect("fuzz journal service config is valid by construction");
    let mut journal = StateJournal::create(path).expect("create journal");
    let mut commits = Vec::new();
    for batch in 0..HEAD_BATCHES + TAIL_BATCHES {
        service.process_feature_batch(&corpus.features);
        let commit = BatchCommit {
            batch,
            stream_pos: service.served(),
            checksum: service.verdict_checksum(),
        };
        journal.append_commit(commit).expect("append commit");
        commits.push(commit);
        if batch + 1 == HEAD_BATCHES {
            journal
                .append_checkpoint(&service.checkpoint())
                .expect("append checkpoint");
        }
    }
    drop(journal);
    let bytes = std::fs::read(path).expect("read journal back");
    (bytes, commits)
}

/// Asserts the recovery invariant for one (possibly hostile) journal
/// file: every salvaged commit was genuinely appended, and they appear
/// in an order consistent with the writers' append orders (`appended` is
/// writer A's commits followed by writer B's; a splice yields an A-run
/// followed by a B-run, a plain corruption yields an A-prefix — both are
/// in-order subsequences; invented or reordered records are neither).
fn assert_consistent(recovered: &[BatchCommit], appended: &[BatchCommit], what: &str) {
    let mut cursor = 0usize;
    for commit in recovered {
        match appended[cursor..].iter().position(|c| c == commit) {
            Some(at) => cursor += at + 1,
            None => panic!(
                "{what}: recovered commit {commit:?} was never appended \
                 (or is out of append order): {recovered:?}"
            ),
        }
    }
}

fn main() {
    let args = FuzzArgs::parse("fuzz_journal");
    let mut rng = args.rng();
    let corpus = corpus();
    let journal_path = TempJournal::new("fuzz-journal");
    let other_path = TempJournal::new("fuzz-journal");
    let mutant_path = TempJournal::new("fuzz-journal-mutant");

    let (bytes, commits) = build_journal(&corpus, &journal_path, 21);
    // A second, differently-seeded journal supplies the foreign bytes for
    // interleaved-append splices (two writers racing one log file).
    let (other_bytes, other_commits) = build_journal(&corpus, &other_path, 22);
    let mut union = commits.clone();
    union.extend_from_slice(&other_commits);

    // The pristine artifact must recover fully: checkpoint present, the
    // post-checkpoint commits intact, nothing torn — and the recovered
    // checkpoint must replay the journaled tail to the final commit's
    // exact checksum (the crash-recovery contract, end to end).
    let pristine = StateJournal::recover(&journal_path).expect("pristine recover is io-clean");
    assert_eq!(
        pristine.torn_bytes, 0,
        "pristine journal reports torn bytes"
    );
    let checkpoint = pristine
        .checkpoint
        .as_ref()
        .expect("pristine journal holds its checkpoint");
    assert_eq!(
        pristine.commits.len() as u64,
        TAIL_BATCHES,
        "checkpoint record must clear the earlier commits"
    );
    let mut replayed =
        MonitoringService::restore(&corpus.baseline, None, checkpoint, ExecConfig::serial())
            .expect("pristine checkpoint restores");
    for _ in 0..TAIL_BATCHES {
        replayed.process_feature_batch(&corpus.features);
    }
    let last = pristine.commits.last().expect("tail commits exist");
    assert_eq!(
        replayed.verdict_checksum(),
        last.checksum,
        "recovered prefix must replay to the final commit's checksum"
    );
    assert_eq!(replayed.served(), last.stream_pos);

    let mut tally = Tally::default();
    for _ in 0..args.iters {
        let mut hostile = mutate::hostile_set(&bytes, &mut rng, 64);
        // Interleaved appends: a foreign journal's bytes spliced into
        // this one at random cut points, as if two writers raced the
        // same log file.
        for _ in 0..16 {
            let cut_a = rng.gen_range(0..bytes.len() + 1);
            let cut_b = rng.gen_range(0..other_bytes.len() + 1);
            let mut spliced = bytes[..cut_a].to_vec();
            spliced.extend_from_slice(&other_bytes[cut_b..]);
            hostile.push(spliced);
        }
        for bad in hostile {
            std::fs::write(&mutant_path, &bad).expect("write mutant journal");
            // recover() must salvage *something* from any byte soup —
            // never panic, never misread: whatever commits survive must
            // all have been genuinely appended, in append order.
            let recovery = StateJournal::recover(&mutant_path).expect("recover is io-clean");
            assert!(
                recovery.torn_bytes <= bad.len() as u64,
                "torn bytes exceed the file"
            );
            assert_consistent(&recovery.commits, &union, "mutant");
            let salvaged_all = recovery.torn_bytes == 0
                && recovery.checkpoint.is_some()
                && recovery.commits.len() as u64 == TAIL_BATCHES;
            tally.record(!salvaged_all);
        }
    }
    println!("{}", tally.summary("journal"));
}
