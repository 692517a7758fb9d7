//! Seeded hostile-input loops over the decoders that read from disk or
//! a pipe: wire frames (`wire::read_frame`, every reply from a worker
//! process), checkpoint records (`decode_outcome` and `load_outcomes`,
//! every resumed prefix and cache hit), spec documents
//! (`SweepPlan::resolve`, every submission) and the job queue's
//! directory names and `state` files (`JobQueue`).
//!
//! The invariants: no input panics, garbage decodes to `None` or
//! `Err`, encode → decode is the identity, and garbage in the queue
//! never hides or blocks a valid job. Each case draws from its own
//! SplitMix64 stream, seeded by
//! `SeedSeq::new(1994).derive(<property>, case)`, so a failing case
//! replays alone. Forged frame lengths stay below a few KiB, so no case
//! allocates much; the one exception is `MAX_FRAME + 1`, which must be
//! refused before allocating. Dependency-free; runs with the default
//! `cargo test`.

use std::{fs, io};

use tapeworm_server::wire::{read_frame, write_frame, MAX_FRAME};
use tapeworm_server::{JobId, JobQueue, JobState, ObsConfig, SweepPlan, TrialOutcome};
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

/// The checked-in spec documents the spec loop mutates.
const SPECS: [&str; 3] = [
    include_str!("../../../specs/ci_smoke.toml"),
    include_str!("../../../specs/ci_planner.toml"),
    include_str!("../../../specs/ci_planner_full.toml"),
];

/// Numbers at and past the edges of the spec's integer and float types.
const EXTREMES: [&str; 5] = [
    "0",
    "9223372036854775808",
    "18446744073709551615",
    "-1",
    "1e999",
];

/// Replaces one run of ASCII digits in `line` with an extreme number,
/// or the whole value when the line has no digits.
fn with_extreme_number(rng: &mut Rng, line: &str) -> String {
    let extreme = EXTREMES[rng.gen_range(0..EXTREMES.len())];
    let bytes = line.as_bytes();
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i > start {
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    if runs.is_empty() {
        let key = line.split_once('=').map_or(line, |(key, _)| key);
        return format!("{key}= {extreme}");
    }
    let (start, end) = runs[rng.gen_range(0..runs.len())];
    format!("{}{extreme}{}", &line[..start], &line[end..])
}

/// One to four line edits: flip a byte, cut a line, cut the document,
/// duplicate or drop a line, or put an extreme number in a `key = value`
/// line.
fn mutate_spec(rng: &mut Rng, text: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for _ in 0..rng.gen_range(1..=4u32) {
        if lines.is_empty() {
            break;
        }
        let i = rng.gen_range(0..lines.len());
        match rng.gen_range(0..6u32) {
            0 => {
                let mut bytes = std::mem::take(&mut lines[i]).into_bytes();
                if !bytes.is_empty() {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = rng.gen::<u32>() as u8;
                }
                lines[i] = String::from_utf8_lossy(&bytes).into_owned();
            }
            1 => {
                let mut cut = rng.gen_range(0..=lines[i].len());
                while !lines[i].is_char_boundary(cut) {
                    cut -= 1;
                }
                lines[i].truncate(cut);
            }
            2 => lines.truncate(i),
            3 => {
                let line = lines[i].clone();
                lines.insert(i, line);
            }
            4 => {
                lines.remove(i);
            }
            _ => {
                let keyed: Vec<usize> = (0..lines.len())
                    .filter(|&j| lines[j].contains('='))
                    .collect();
                let j = if keyed.is_empty() {
                    i
                } else {
                    keyed[rng.gen_range(0..keyed.len())]
                };
                lines[j] = with_extreme_number(rng, &lines[j]);
            }
        }
    }
    lines.join("\n")
}

#[test]
fn mutated_specs_resolve_or_fail_without_panicking() {
    let (mut resolved, mut rejected) = (0, 0);
    let overflow = SPECS[0].replace("trials = 4", &format!("trials = {}", u64::MAX));
    let pinned = SPECS
        .iter()
        .map(|s| s.to_string())
        .chain([overflow.clone()]);
    let random = (0..CASES).map(|case| {
        let mut rng = case_rng("spec-documents", case);
        let doc = SPECS[rng.gen_range(0..SPECS.len())];
        mutate_spec(&mut rng, doc)
    });
    for (case, text) in pinned.chain(random).enumerate() {
        match SweepPlan::resolve(&text) {
            Ok(plan) => {
                let cells = plan.configs().len().checked_mul(plan.trials());
                assert!(
                    cells.is_some(),
                    "case {case}: cell count overflows:\n{text}"
                );
                assert_eq!(Some(plan.total()), cells, "case {case}");
                let _ = (plan.sweep_id(), plan.fingerprint());
                resolved += 1;
            }
            Err(e) => {
                assert!(!e.to_string().is_empty(), "case {case}");
                rejected += 1;
            }
        }
    }
    for spec in SPECS {
        assert!(SweepPlan::resolve(spec).is_ok(), "checked-in spec:\n{spec}");
    }
    assert!(SweepPlan::resolve(&overflow).is_err());
    assert!(
        resolved > 3 && rejected > 1,
        "{resolved} resolved, {rejected} rejected"
    );
}

/// A directory name: a canonical or forged number, or hostile text.
fn random_job_name(rng: &mut Rng) -> String {
    const CHARS: [char; 10] = ['a', '0', '9', '-', '+', ' ', '.', '_', 'é', '🦀'];
    let name = match rng.gen_range(0..6u32) {
        0 => format!("{:06}", rng.gen_range(0..12u64)),
        1 => format!("{}", JobId::MAX - rng.gen_range(0..2u64)),
        2 => format!("{}", rng.gen_range(0..12u64)),
        3 => ["+1", "-1", "0000002", "18446744073709551616", "1e3"][rng.gen_range(0..5usize)]
            .to_string(),
        _ => (0..rng.gen_range(1..=12usize))
            .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
            .collect(),
    };
    match name.as_str() {
        "." | ".." => "dots".to_string(),
        _ => name,
    }
}

/// `state` bytes that name no job state: random bytes, non-UTF-8
/// bytes, or a state token with junk attached.
fn random_state_bytes(rng: &mut Rng) -> Vec<u8> {
    loop {
        let bytes: Vec<u8> = match rng.gen_range(0..3u32) {
            0 => (0..rng.gen_range(0..16usize))
                .map(|_| rng.gen::<u32>() as u8)
                .collect(),
            1 => vec![0xff, 0xfe, b'd', b'o', b'n', b'e'],
            _ => {
                let token = ["submitted", "running", "done", "failed"][rng.gen_range(0..4usize)];
                format!("{token}{}", ['x', '!', '\0', 'é'][rng.gen_range(0..4usize)]).into_bytes()
            }
        };
        let text = String::from_utf8_lossy(&bytes);
        if !["submitted", "running", "done", "failed"].contains(&text.trim()) {
            return bytes;
        }
    }
}

#[test]
fn queue_garbage_never_panics_hides_or_blocks_a_valid_job() {
    let root = std::env::temp_dir().join(format!("tapeworm-decoders-queue-{}", std::process::id()));
    for case in 0..CASES {
        let mut rng = case_rng("queue-garbage", case);
        let _ = fs::remove_dir_all(&root);
        let queue = JobQueue::open(&root).unwrap();
        let mut valid: Vec<JobId> = (0..rng.gen_range(1..=3u32))
            .map(|_| queue.submit("name = \"valid\"").unwrap())
            .collect();
        let mut names = Vec::new();
        for _ in 0..rng.gen_range(1..=6u32) {
            let name = random_job_name(&mut rng);
            let dir = root.join("jobs").join(&name);
            if fs::create_dir(&dir).is_err() {
                continue;
            }
            if rng.gen_bool(0.75) {
                fs::write(dir.join("state"), random_state_bytes(&mut rng)).unwrap();
            }
            names.push(name);
        }
        let submitted: Vec<(JobId, JobState)> =
            valid.iter().map(|&id| (id, JobState::Submitted)).collect();
        assert_eq!(queue.jobs().unwrap(), submitted, "case {case}: {names:?}");
        // IDs only grow: a fresh job lands above every numeric name, and
        // only a directory named `u64::MAX` leaves no room for one.
        let numeric: Vec<JobId> = names.iter().filter_map(|n| n.parse().ok()).collect();
        match queue.submit("name = \"late\"") {
            Ok(id) => {
                assert!(
                    numeric.iter().all(|&n| id > n),
                    "case {case}: {id} {names:?}"
                );
                valid.push(id);
            }
            Err(_) => assert!(numeric.contains(&JobId::MAX), "case {case}: {names:?}"),
        }
        for &id in &valid {
            assert_eq!(
                queue.claim_next().unwrap(),
                Some(id),
                "case {case}: {names:?}"
            );
            queue.set_state(id, JobState::Done).unwrap();
        }
        assert_eq!(queue.claim_next().unwrap(), None, "case {case}: {names:?}");
    }
    fs::remove_dir_all(&root).unwrap();
}
