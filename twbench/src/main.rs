//! `twbench`: the Tapeworm II reproduction's end-to-end and per-layer
//! host-time benchmark. See `README.md` beside this crate.
//!
//! ```text
//! twbench --workload <miss-heavy|hit-heavy|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a details line (sample counts, failures, deterministic work
//! counters, `sim_digest`), then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones.

mod layers;
mod report;
mod service;
mod stats;
mod trace;
mod trials;

use std::process::ExitCode;

use report::Report;

/// The three workloads; see `README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// mpeg_play, 4 KiB direct-mapped: miss service dominates.
    MissHeavy,
    /// mpeg_play, 64 KiB direct-mapped: generation and scanning dominate.
    HitHeavy,
    /// A closed loop of small sweep jobs through the service.
    Service,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "miss-heavy" => Some(Workload::MissHeavy),
            "hit-heavy" => Some(Workload::HitHeavy),
            "service" => Some(Workload::Service),
            _ => None,
        }
    }

    /// The benchmark's name for the workload.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MissHeavy => "miss-heavy",
            Workload::HitHeavy => "hit-heavy",
            Workload::Service => "service",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// A seed in decimal or `0x` hexadecimal.
fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(parse_seed(value).ok_or_else(bad)?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| (1..=60).contains(&s))
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The subprocess backend re-invokes this binary as its worker.
    if argv.first().map(String::as_str) == Some("worker") {
        return match tapeworm_server::serve_worker() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("twbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("twbench: {e}");
            eprintln!(
                "usage: twbench --workload <miss-heavy|hit-heavy|service> --seed <n> \
                 --seconds <1-60> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(&args);
    let outcome = match args.workload {
        Workload::MissHeavy | Workload::HitHeavy => trials::run(&args, &mut report),
        Workload::Service => service::run(&args, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("twbench: {} aborted: {e}", args.workload.name());
        return ExitCode::FAILURE;
    }
    report.print();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("1994"), Some(1994));
        assert_eq!(parse_seed("0x7ca"), Some(1994));
        assert_eq!(parse_seed("18446744073709551615"), Some(u64::MAX));
        for bad in ["", "-1", "0x", "12a", "18446744073709551616", "0xg"] {
            assert_eq!(parse_seed(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn command_line_parses_and_rejects() {
        let args = parse_args(&argv(
            "--workload hit-heavy --seed 0x10 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            args,
            Args {
                workload: Workload::HitHeavy,
                seed: 16,
                seconds: 10,
                trace: true
            }
        );
        for bad in [
            "--workload tlb --seed 1 --seconds 10",
            "--workload service --seed x --seconds 10",
            "--workload service --seed 1 --seconds 0",
            "--workload service --seed 1 --seconds 10 --trace 2",
            "--workload service --seconds 10",
            "--workload service --seed 1 --seconds",
            "--workload service --seed 1 --seconds 10 --threads 8",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
