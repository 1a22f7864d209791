//! Fuzzes `json::parse`, the reader behind the bench `--check` gate, with
//! mutations of a real telemetry snapshot document plus pure garbage.
//! JSON has no whole-document checksum, so a mutation may legitimately
//! still parse — the invariant here is "a `Value` or a typed
//! `ParseError`, never a panic".

use shmd_fuzz::{corpus, mutate, FuzzArgs, Tally};
use stochastic_hmd::json;

fn main() {
    let args = FuzzArgs::parse("fuzz_telemetry");
    let mut rng = args.rng();
    let corpus = corpus();
    assert!(
        json::parse(&corpus.telemetry_json).is_ok(),
        "corpus telemetry does not parse"
    );
    let json = corpus.telemetry_json.as_bytes();
    let mut tally = Tally::default();
    for _ in 0..args.iters {
        for bad in mutate::hostile_set(json, &mut rng, 64) {
            // Mutated documents are often invalid UTF-8; both the
            // conversion and the parse must stay typed.
            match String::from_utf8(bad) {
                Ok(text) => tally.record(json::parse(&text).is_err()),
                Err(_) => tally.record(true),
            }
        }
    }
    println!("{}", tally.summary("telemetry"));
}
