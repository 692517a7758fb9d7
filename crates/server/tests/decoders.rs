//! Seeded hostile-input loops over the two decoders that the retry and
//! resume paths read: wire frames (`wire::read_frame`, every reply
//! from a worker process) and checkpoint records (`decode_outcome` and
//! `load_outcomes`, every resumed prefix and cache hit).
//!
//! The invariants: no input panics, garbage decodes to `None` or
//! `Err`, and encode → decode is the identity. Each case draws from
//! its own SplitMix64 stream, seeded by
//! `SeedSeq::new(1994).derive(<property>, case)`, so a failing case
//! replays alone. Forged frame lengths stay below a few KiB, so no case
//! allocates much; the one exception is `MAX_FRAME + 1`, which must be
//! refused before allocating. Dependency-free; runs with the default
//! `cargo test`.

use std::{fs, io};

use tapeworm_server::wire::{read_frame, write_frame, MAX_FRAME};
use tapeworm_server::{ObsConfig, SweepPlan, TrialOutcome};
use tapeworm_sim::{decode_outcome, encode_outcome, load_outcomes, run_sweep_cell, save_outcomes};
use tapeworm_sim::{FailureKind, TrialFailure};
use tapeworm_stats::{Rng, SeedSeq};

const CASES: u64 = 256;

fn case_rng(property: &str, case: u64) -> Rng {
    SeedSeq::new(1994).derive(property, case).rng()
}

/// Up to `max_len` characters, mostly JSON- and hex-hostile ASCII,
/// with some multi-byte characters.
fn random_text(rng: &mut Rng, max_len: usize) -> String {
    const CHARS: [char; 14] = [
        '"', '\\', '{', '}', ',', ':', '\n', ' ', 'a', '0', '+', 'é', '🦀', '\0',
    ];
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

/// One to four random edits: overwrite a byte, delete a span,
/// duplicate a span, cut the tail, or insert hostile text.
fn mutate(rng: &mut Rng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..rng.gen_range(1..=4u32) {
        let at = rng.gen_range(0..=out.len());
        let end = (at + rng.gen_range(1..=64usize)).min(out.len());
        let (replaced, insert) = match rng.gen_range(0..5u32) {
            0 => (at + 1, vec![rng.gen::<u32>() as u8]),
            1 => (end, Vec::new()),
            2 => (at, out[at..end].to_vec()),
            3 => (out.len(), Vec::new()),
            _ => (at, random_text(rng, 8).into_bytes()),
        };
        out.splice(at..replaced.min(out.len()), insert);
    }
    out
}

/// Live outcomes of a tiny plan, with trap-ring events so the event
/// words of the record layout are exercised too.
fn live_outcomes() -> Vec<TrialOutcome> {
    let spec = "name = \"decoders\"\ntrials = 2\nscale = 20000\n\
                workloads = [\"espresso\"]\ncache_kb = [1, 2]\n";
    let plan = SweepPlan::resolve(spec).expect("valid spec");
    let obs = ObsConfig { ring_capacity: 8 };
    let cell = |i| run_sweep_cell(plan.configs(), plan.trials(), plan.base(), i, obs);
    (0..plan.total()).map(|i| Ok(cell(i).unwrap())).collect()
}

/// A live outcome, or a failure with a hostile message, at `index`.
fn random_outcome(rng: &mut Rng, live: &[TrialOutcome], index: usize) -> TrialOutcome {
    if rng.gen() {
        return live[rng.gen_range(0..live.len())].clone();
    }
    let message = random_text(rng, 48);
    let kind = if rng.gen() {
        FailureKind::Panic(message)
    } else {
        FailureKind::Error(message)
    };
    let (attempts, backoff_units) = (rng.gen(), rng.gen());
    Err(TrialFailure {
        index,
        attempts,
        backoff_units,
        kind,
    })
}

#[test]
fn frames_round_trip_and_every_cut_is_an_error() {
    for case in 0..CASES {
        let mut rng = case_rng("wire-frames", case);
        let frames: Vec<String> = (0..rng.gen_range(1..=4usize))
            .map(|_| random_text(&mut rng, 512))
            .collect();
        let (mut stream, mut ends) = (Vec::new(), vec![0]);
        for frame in &frames {
            write_frame(&mut stream, frame).unwrap();
            ends.push(stream.len());
        }
        // Every whole frame before a cut still reads. A cut at a frame
        // boundary is a clean close and any other cut an error; case 0
        // keeps the whole stream, the plain round trip.
        let cut = match case {
            0 => stream.len(),
            _ => rng.gen_range(0..=stream.len()),
        };
        let mut r = &stream[..cut];
        let whole = ends.iter().filter(|&&end| end <= cut).count() - 1;
        for frame in &frames[..whole] {
            let read = read_frame(&mut r).unwrap();
            assert_eq!(read.as_ref(), Some(frame), "case {case}");
        }
        let closed = match read_frame(&mut r) {
            Ok(None) => true,
            Err(_) => false,
            Ok(Some(frame)) => panic!("case {case}: a cut frame decoded as {frame:?}"),
        };
        assert_eq!(closed, ends.contains(&cut), "case {case}: cut at {cut}");
    }
}

#[test]
fn forged_frames_decode_exactly_or_fail() {
    for case in 0..CASES {
        let mut rng = case_rng("wire-forged", case);
        let len = rng.gen_range(0..4096usize);
        let body: Vec<u8> = if rng.gen() {
            random_text(&mut rng, 4200).into_bytes()
        } else {
            let n = rng.gen_range(0..4200usize);
            (0..n).map(|_| rng.gen::<u32>() as u8).collect()
        };
        let stream = [&(len as u32).to_be_bytes()[..], &body].concat();
        let want = body.get(..len).and_then(|p| std::str::from_utf8(p).ok());
        match (read_frame(&mut stream.as_slice()), want) {
            (Ok(Some(got)), Some(want)) => assert_eq!(got, want, "case {case}"),
            (Err(_), None) => {}
            (got, want) => panic!("case {case}: read {got:?}, expected {want:?}"),
        }
    }
    for len in [MAX_FRAME + 1, u32::MAX] {
        let err = read_frame(&mut &len.to_be_bytes()[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "length {len}");
    }
}

#[test]
fn outcome_records_round_trip_and_mutations_decode_cleanly() {
    let live = live_outcomes();
    for case in 0..CASES {
        let mut rng = case_rng("outcome-records", case);
        let index = rng.gen_range(0..1usize << 20);
        let outcome = random_outcome(&mut rng, &live, index);
        let line = encode_outcome(index, &outcome);
        assert_eq!(decode_outcome(&line), Some((index, outcome)), "case {case}");
        let garbage = random_text(&mut rng, 96);
        assert_eq!(decode_outcome(&garbage), None, "case {case}");
        // An edit may leave a well-formed record; whatever decodes must
        // re-encode to a fixed point.
        let mutated = String::from_utf8_lossy(&mutate(&mut rng, line.as_bytes())).into_owned();
        if let Some((i, o)) = decode_outcome(&mutated) {
            let again = encode_outcome(i, &o);
            let twice = decode_outcome(&again).map(|(j, p)| encode_outcome(j, &p));
            assert_eq!(twice.as_ref(), Some(&again), "case {case}: {mutated}");
        }
    }
}

#[test]
fn checkpoint_documents_round_trip_and_mutations_load_cleanly() {
    let live = live_outcomes();
    let encoded = |outcomes: &[TrialOutcome]| -> Vec<String> {
        let indexed = outcomes.iter().enumerate();
        indexed.map(|(i, o)| encode_outcome(i, o)).collect()
    };
    let dir = std::env::temp_dir().join(format!("tapeworm-decoders-{}", std::process::id()));
    let path = dir.join("checkpoint.json");
    for case in 0..CASES {
        let mut rng = case_rng("checkpoint-documents", case);
        let (total, id) = (rng.gen_range(1..=6usize), rng.gen::<u64>());
        let outcomes: Vec<TrialOutcome> = (0..rng.gen_range(0..=total))
            .map(|i| random_outcome(&mut rng, &live, i))
            .collect();
        save_outcomes(&path, id, total, &outcomes).unwrap();
        assert_eq!(
            load_outcomes(&path, id, total),
            Some(outcomes),
            "case {case}"
        );
        assert_eq!(load_outcomes(&path, id ^ 1, total), None, "case {case}");
        assert_eq!(load_outcomes(&path, id, total + 1), None, "case {case}");
        assert_eq!(load_outcomes(&dir.join("absent"), id, total), None);
        fs::write(&path, mutate(&mut rng, &fs::read(&path).unwrap())).unwrap();
        if let Some(prefix) = load_outcomes(&path, id, total) {
            assert!(prefix.len() <= total, "case {case}");
            save_outcomes(&path, id, total, &prefix).unwrap();
            let again = load_outcomes(&path, id, total).expect("a loaded prefix re-saves");
            assert_eq!(encoded(&again), encoded(&prefix), "case {case}");
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}
