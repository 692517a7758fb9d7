//! `tapeworm-server` — the sweep service CLI.
//!
//! ```text
//! tapeworm-server submit --queue DIR SPEC_FILE
//! tapeworm-server run    --queue DIR [--backend in-process|subprocess]
//!                        [--threads N] [--no-cache] [--worker PROG]
//! tapeworm-server once   --queue DIR [same flags] SPEC_FILE
//! tapeworm-server status --queue DIR
//! tapeworm-server worker
//! ```
//!
//! `submit` validates and enqueues a spec. `run` drains the queue FIFO
//! through the chosen backend, printing one report line per job.
//! `once` is submit + run for a single spec — the ci.sh smoke path.
//! `status` lists jobs and states. `worker` is the subprocess-backend
//! worker loop (spawned by the service; speaks the stdio wire
//! protocol). `TW_THREADS` sets the default thread count. `TW_PLAN` is
//! the planner kill switch: `0`/`full` runs every job on the full
//! engine, `1`/`pruned` runs every job through the planner, whatever
//! its spec's `plan` says; unset or any other value leaves the spec in
//! charge.

use std::process::ExitCode;

use tapeworm_server::{
    serve_worker, InProcessBackend, PlanMode, ServiceOptions, SubprocessBackend, SweepService,
    WorkerBackend,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tapeworm-server <submit|run|once|status|worker> [--queue DIR] \
         [--backend in-process|subprocess] [--threads N] [--no-cache] [--worker PROG] [SPEC_FILE]"
    );
    ExitCode::from(1)
}

struct Cli {
    queue: String,
    backend: String,
    threads: usize,
    cache: bool,
    plan_override: Option<PlanMode>,
    worker_cmd: Option<String>,
    spec_file: Option<String>,
}

/// Maps a `TW_PLAN` value to the mode it forces, if any.
fn plan_override(value: Option<&str>) -> Option<PlanMode> {
    match value? {
        "0" | "full" => Some(PlanMode::Full),
        "1" | "pruned" => Some(PlanMode::Pruned),
        _ => None,
    }
}

fn parse_cli(args: &[String]) -> Option<Cli> {
    let mut cli = Cli {
        queue: "queue".to_string(),
        backend: "in-process".to_string(),
        threads: std::env::var("TW_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0),
        cache: true,
        plan_override: plan_override(std::env::var("TW_PLAN").ok().as_deref()),
        worker_cmd: None,
        spec_file: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--queue" => cli.queue = it.next()?.clone(),
            "--backend" => cli.backend = it.next()?.clone(),
            "--threads" => cli.threads = it.next()?.parse().ok()?,
            "--worker" => cli.worker_cmd = Some(it.next()?.clone()),
            "--no-cache" => cli.cache = false,
            flag if flag.starts_with("--") => return None,
            positional => {
                if cli.spec_file.is_some() {
                    return None;
                }
                cli.spec_file = Some(positional.to_string());
            }
        }
    }
    Some(cli)
}

fn open_service(cli: &Cli) -> Result<SweepService, String> {
    SweepService::open(
        &cli.queue,
        ServiceOptions {
            threads: cli.threads,
            cache: cli.cache,
            plan_override: cli.plan_override,
            ..ServiceOptions::default()
        },
    )
    .map_err(|e| format!("cannot open queue `{}`: {e}", cli.queue))
}

fn make_backend(cli: &Cli) -> Result<Box<dyn WorkerBackend>, String> {
    match cli.backend.as_str() {
        "in-process" => Ok(Box::new(InProcessBackend)),
        "subprocess" => {
            let backend = match &cli.worker_cmd {
                Some(cmd) => SubprocessBackend::new(cmd, vec!["worker".to_string()]),
                None => SubprocessBackend::current_exe()
                    .map_err(|e| format!("cannot resolve worker binary: {e}"))?,
            };
            Ok(Box::new(backend))
        }
        other => Err(format!(
            "unknown backend `{other}` (expected in-process or subprocess)"
        )),
    }
}

fn read_spec(cli: &Cli) -> Result<String, String> {
    let path = cli
        .spec_file
        .as_deref()
        .ok_or_else(|| "missing SPEC_FILE argument".to_string())?;
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn drain(service: &SweepService, backend: &dyn WorkerBackend) -> Result<(), String> {
    let reports = service.run_pending(backend).map_err(|e| e.to_string())?;
    for r in &reports {
        println!(
            "job {:06} spec={} backend={} plan={} from_cache={} trials_computed={} resumed={} \
             failed={} cells_simulated={} cells_interpolated={} trials_saved={} \
             ci_early_stops={} digest=0x{:016x}",
            r.job,
            r.spec,
            r.backend,
            r.plan,
            r.from_cache,
            r.stats.trials_computed,
            r.resumed_trials,
            r.failed_trials,
            r.cells_simulated,
            r.cells_interpolated,
            r.trials_saved,
            r.ci_early_stops,
            r.digest,
        );
    }
    if reports.is_empty() {
        println!("queue drained: no pending jobs");
    }
    Ok(())
}

fn dispatch(command: &str, cli: &Cli) -> Result<(), String> {
    match command {
        "submit" => {
            let service = open_service(cli)?;
            let id = service
                .submit(&read_spec(cli)?)
                .map_err(|e| e.to_string())?;
            println!("submitted job {id:06} to {}", cli.queue);
            Ok(())
        }
        "run" => drain(&open_service(cli)?, make_backend(cli)?.as_ref()),
        "once" => {
            let service = open_service(cli)?;
            service
                .submit(&read_spec(cli)?)
                .map_err(|e| e.to_string())?;
            drain(&service, make_backend(cli)?.as_ref())
        }
        "status" => {
            let service = open_service(cli)?;
            let jobs = service.queue().jobs().map_err(|e| e.to_string())?;
            if jobs.is_empty() {
                println!("queue empty");
            }
            for (id, state) in jobs {
                println!("job {id:06} {}", state.name());
            }
            Ok(())
        }
        _ => Err(format!("unknown command `{command}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        return usage();
    };
    if command == "worker" {
        return match serve_worker() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("worker: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(cli) = parse_cli(&args[1..]) else {
        return usage();
    };
    match dispatch(&command, &cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tapeworm-server: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tw_plan_values_map_to_the_forced_mode() {
        assert_eq!(plan_override(Some("0")), Some(PlanMode::Full));
        assert_eq!(plan_override(Some("full")), Some(PlanMode::Full));
        assert_eq!(plan_override(Some("1")), Some(PlanMode::Pruned));
        assert_eq!(plan_override(Some("pruned")), Some(PlanMode::Pruned));
        for ignored in [None, Some(""), Some("2"), Some("FULL"), Some("off")] {
            assert_eq!(plan_override(ignored), None, "{ignored:?}");
        }
    }
}
