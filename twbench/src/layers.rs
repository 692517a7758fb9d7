//! Standalone replays of one trial's volume of work through each
//! layer's public entry points.
//!
//! The engine's internals are private, so the traced run rebuilds the
//! trial's inputs outside it — the same component streams and seeds,
//! the user text mapped through a fresh `Vm`, a `Tapeworm` over the
//! trial's cache geometry — and times each layer alone on them. The
//! replay measures the measured (user) component without set sampling
//! or the OS around it, so the layer times estimate each layer's share
//! of a trial; they do not sum to the trial wall.

use std::hint::black_box;
use std::time::Instant;

use tapeworm_core::{BurstRequest, MissSchedule, Tapeworm};
use tapeworm_machine::Component;
use tapeworm_mem::{FrameAllocator, PageSize, PhysAddr, RandomAllocator, TrapMap, VirtAddr};
use tapeworm_os::{Tid, Translation, Vm};
use tapeworm_sim::{SimModel, SystemConfig};
use tapeworm_stats::{SeedSeq, Zipf};
use tapeworm_workload::{
    ProcStream, RefStream, BSD_TEXT_BASE, KERNEL_TEXT_BASE, USER_TEXT_BASE, X_TEXT_BASE,
};

use crate::stats::median;
use crate::trace::Tracer;

/// Timed repetitions of each replay; the median is kept.
const REPS: usize = 3;
/// Zipf draws timed per repetition.
const ZIPF_SAMPLES: u64 = 1_000_000;
const WORD_BYTES: u64 = 4;

/// What one replay measured. Times are host nanoseconds per call.
#[derive(Debug, Clone)]
pub struct LayerTimes {
    /// `ProcStream::next_run`, per generated word.
    pub gen_ns_per_word: f64,
    /// Generating one trial's words, all components, in ms.
    pub gen_ms: f64,
    /// `Zipf::sample` on the user stream's hot class.
    pub zipf_ns: f64,
    /// `Vm::translate_cached`, per page-bounded user run.
    pub translate_ns: f64,
    /// Translations one trial's user runs need.
    pub translates: u64,
    /// `TrapMap::clean_span`, per call.
    pub clean_span_ns: f64,
    /// Clean-span scans the stepwise replay issued.
    pub clean_spans: u64,
    /// `TrapMap::trapped_run`, per call at a miss site.
    pub trapped_run_ns: f64,
    /// Stepwise `Tapeworm::handle_miss`, per miss.
    pub handle_miss_ns: f64,
    /// Misses in the replayed user stream.
    pub misses: u64,
    /// `Tapeworm::service_burst`, per miss it served; `None` when the
    /// geometry does not admit the burst path.
    pub burst_ns_per_miss: Option<f64>,
}

impl LayerTimes {
    /// The replay's estimate of one trial's layer time, ms: generation,
    /// translation, scanning and miss service (through the burst path
    /// where the engine would take it).
    pub fn attributed_ms(&self) -> f64 {
        let miss_ns = self.burst_ns_per_miss.unwrap_or(self.handle_miss_ns);
        self.gen_ms
            + (self.translate_ns * self.translates as f64
                + self.clean_span_ns * self.clean_spans as f64
                + miss_ns * self.misses as f64)
                / 1e6
    }
}

/// A page-bounded piece of a user run, translated.
#[derive(Debug, Clone, Copy)]
struct Piece {
    va: u64,
    pa: u64,
    bytes: u64,
}

/// One step of a recorded miss-service sequence.
#[derive(Debug, Clone, Copy)]
enum Service {
    Burst(BurstRequest),
    Miss(u64, u64),
}

fn median_of(samples: &[f64]) -> f64 {
    median(samples).expect("at least one repetition")
}

/// Times `REPS` runs of `body`, rebuilding its state untimed with
/// `setup` each time, and returns the median wall in ns.
fn time_reps<S>(mut setup: impl FnMut() -> S, mut body: impl FnMut(&mut S)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut state = setup();
            let start = Instant::now();
            body(&mut state);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median_of(&samples)
}

/// Replays trial `trial` of `cfg` layer by layer. `None` unless `cfg`
/// simulates a single cache.
pub fn replay(
    cfg: &SystemConfig,
    base: SeedSeq,
    trial: SeedSeq,
    tracer: &Tracer,
    id: u64,
) -> Option<LayerTimes> {
    let SimModel::Cache(cache) = cfg.model else {
        return None;
    };
    let spec = cfg.workload.spec();
    let total = spec.scaled_instructions(cfg.scale);
    let budget = |f: f64| (total as f64 * f).round() as u64;
    // The engine's component streams: bases, parameters and seeds.
    let streams = [
        (
            KERNEL_TEXT_BASE,
            spec.kernel_stream,
            base.derive("kernel-stream", 0),
            budget(spec.frac_kernel),
        ),
        (
            BSD_TEXT_BASE,
            spec.bsd_stream,
            base.derive("bsd-stream", 0),
            budget(spec.frac_bsd),
        ),
        (
            X_TEXT_BASE,
            spec.x_stream,
            base.derive("x-stream", 0),
            budget(spec.frac_x),
        ),
        (
            USER_TEXT_BASE,
            spec.user_stream,
            base.derive("user-task", 0),
            budget(spec.frac_user),
        ),
    ];

    let gen_ns = {
        let _span = tracer.span("layer.workload.gen", id);
        time_reps(
            || streams.map(|(b, p, s, words)| (ProcStream::new(b, p, s), words)),
            |built| {
                for (stream, words) in built.iter_mut() {
                    let mut done = 0u64;
                    while done < *words {
                        done += u64::from(black_box(stream.next_run()).words);
                    }
                }
            },
        )
    };
    let words: u64 = streams.iter().map(|s| s.3).sum();

    let zipf_ns = {
        let _span = tracer.span("layer.workload.zipf", id);
        let params = spec.user_stream;
        let zipf = Zipf::new(params.hot_procedures(), params.zipf_exponent)
            .expect("the workload's own exponent is valid");
        time_reps(
            || trial.derive("zipf", 0).rng(),
            |rng| {
                for _ in 0..ZIPF_SAMPLES {
                    black_box(zipf.sample(rng));
                }
            },
        ) / ZIPF_SAMPLES as f64
    };

    // The user runs, split at page boundaries as the engine splits them.
    let page = PageSize::DEFAULT.bytes();
    let (user_base, user_params, user_seed, user_words) = streams[3];
    let mut pieces = Vec::new();
    let mut stream = ProcStream::new(user_base, user_params, user_seed);
    let mut done = 0;
    while done < user_words {
        let run = stream.next_run();
        done += u64::from(run.words);
        let (mut va, end) = (
            run.va.raw(),
            run.va.raw() + u64::from(run.words) * WORD_BYTES,
        );
        while va < end {
            let next = ((va / page + 1) * page).min(end);
            pieces.push(Piece {
                va,
                pa: 0,
                bytes: next - va,
            });
            va = next;
        }
    }

    let tid = Tid::new(1);
    let first_vpn = USER_TEXT_BASE / page;
    let pages = user_params.footprint_bytes.div_ceil(page);
    let mut vm = Vm::new(
        PageSize::DEFAULT,
        Box::new(RandomAllocator::new(cfg.frames, trial)) as Box<dyn FrameAllocator>,
    );
    let mut mapped = Vec::new();
    for vpn in first_vpn..first_vpn + pages {
        let (pfn, _) = vm
            .map_new(tid, vpn)
            .expect("the user text fits in the trial's frames");
        mapped.push((vpn, pfn));
    }
    let translate_ns = {
        let _span = tracer.span("layer.vm.translate", id);
        let mut samples = Vec::new();
        for _ in 0..REPS {
            let start = Instant::now();
            for piece in &mut pieces {
                match vm.translate_cached(tid, VirtAddr::new(piece.va)) {
                    Translation::Mapped(pa) => piece.pa = pa.raw(),
                    other => panic!("mapped user text translated to {other:?}"),
                }
            }
            samples.push(start.elapsed().as_nanos() as f64);
        }
        median_of(&samples) / pieces.len() as f64
    };

    let fresh = || {
        let mut traps = TrapMap::new(cfg.frames as u64 * page, cache.line_bytes());
        let mut tw = Tapeworm::new(cache, page, base.derive("layer-tapeworm", 0))
            .with_cost(cfg.cost.model());
        for &(vpn, pfn) in &mapped {
            tw.tw_register_page(&mut traps, tid, pfn, vpn);
        }
        (tw, traps, MissSchedule::new())
    };

    // Stepwise reference pass (untimed): scan clean spans, service each
    // trapped line, and record the calls for the timed replays below.
    let (mut tw, mut traps, _) = fresh();
    let line = cache.line_bytes();
    let mut scans = Vec::new();
    let mut misses = Vec::new();
    for p in &pieces {
        let mut off = 0;
        while off < p.bytes {
            scans.push((p.pa + off, p.bytes - off));
            off += traps.clean_span(PhysAddr::new(p.pa + off), p.bytes - off);
            if off < p.bytes {
                let (va, pa) = (p.va + off, p.pa + off);
                misses.push((va, pa, (p.bytes - off).div_ceil(line)));
                tw.handle_miss(
                    &mut traps,
                    Component::User,
                    tid,
                    VirtAddr::new(va),
                    PhysAddr::new(pa),
                );
                off = ((pa / line + 1) * line) - p.pa;
            }
        }
    }

    let handle_miss_ns = {
        let _span = tracer.span("layer.tapeworm.handle_miss", id);
        time_reps(&fresh, |(tw, traps, _)| {
            for &(va, pa, _) in &misses {
                black_box(tw.handle_miss(
                    traps,
                    Component::User,
                    tid,
                    VirtAddr::new(va),
                    PhysAddr::new(pa),
                ));
            }
        }) / misses.len().max(1) as f64
    };

    // Scans and probes on the end-of-trial trap state (read-only).
    let clean_span_ns = {
        let _span = tracer.span("layer.trapset.clean_span", id);
        time_reps(
            || (),
            |_| {
                for &(pa, max) in &scans {
                    black_box(traps.clean_span(PhysAddr::new(pa), max));
                }
            },
        ) / scans.len().max(1) as f64
    };
    let trapped_run_ns = {
        let _span = tracer.span("layer.trapset.trapped_run", id);
        time_reps(
            || (),
            |_| {
                for &(_, pa, granules) in &misses {
                    black_box(traps.trapped_run(PhysAddr::new(pa), granules));
                }
            },
        ) / misses.len().max(1) as f64
    };

    let burst_ns_per_miss = fresh().0.sched_eligible().then(|| {
        // Record the burst sequence untimed, then replay it from the
        // same initial state: the state evolves identically, so the
        // replay times exactly the service calls.
        let (mut tw, mut traps, mut sched) = fresh();
        let mut ops = Vec::new();
        let mut served_misses = 0u64;
        for p in &pieces {
            let mut off = 0;
            while off < p.bytes {
                off += traps.clean_span(PhysAddr::new(p.pa + off), p.bytes - off);
                if off >= p.bytes {
                    break;
                }
                let (va, pa) = (p.va + off, p.pa + off);
                let req = BurstRequest {
                    component: Component::User,
                    tid,
                    va: VirtAddr::new(va),
                    pa: PhysAddr::new(pa),
                    rem_words: (p.bytes - off) / WORD_BYTES,
                    page_end_va: (va / page + 1) * page,
                    budget_milli: 1 << 40,
                    cpi_milli: 1000,
                    dilate_ov_milli: 0,
                    masked: false,
                    want_victims: false,
                };
                match tw.service_burst(&mut traps, &mut sched, &req) {
                    Some(served) => {
                        ops.push(Service::Burst(req));
                        served_misses += served.chunks;
                        off += served.words * WORD_BYTES;
                    }
                    None => {
                        ops.push(Service::Miss(va, pa));
                        served_misses += 1;
                        tw.handle_miss(
                            &mut traps,
                            Component::User,
                            tid,
                            VirtAddr::new(va),
                            PhysAddr::new(pa),
                        );
                        off = ((pa / line + 1) * line) - p.pa;
                    }
                }
            }
        }
        let _span = tracer.span("layer.tapeworm.burst", id);
        time_reps(&fresh, |(tw, traps, sched)| {
            for op in &ops {
                match op {
                    Service::Burst(req) => {
                        black_box(tw.service_burst(traps, sched, req));
                    }
                    Service::Miss(va, pa) => {
                        black_box(tw.handle_miss(
                            traps,
                            Component::User,
                            tid,
                            VirtAddr::new(*va),
                            PhysAddr::new(*pa),
                        ));
                    }
                }
            }
        }) / served_misses.max(1) as f64
    });

    Some(LayerTimes {
        gen_ns_per_word: gen_ns / words as f64,
        gen_ms: gen_ns / 1e6,
        zipf_ns,
        translate_ns,
        translates: pieces.len() as u64,
        clean_span_ns,
        clean_spans: scans.len() as u64,
        trapped_run_ns,
        handle_miss_ns,
        misses: misses.len() as u64,
        burst_ns_per_miss,
    })
}
