//! Twin differential for set-state burst service.
//!
//! `Tapeworm::service_burst` disarms a whole trapped run in one merged
//! clear and then inserts each line with the handler's own step. This
//! suite checks it against the reference: the per-chunk sequence of
//! `handle_miss` / `note_masked_miss` calls the engine's stepwise burst
//! loop makes, with the same budget pre-checks. Each case builds two
//! identical SplitMix64-warmed simulators (twins), serves one request
//! on each, and requires identical trap bits and transition counts,
//! cache contents and FIFO cursors, `MissStats`, cycle accounting and
//! victim lists.
//!
//! The warm states are chosen to reach the paths a plain warm-up never
//! does: resident lines from unregistered frames (their displacement
//! must not re-arm a trap), re-trapped resident lines (a duplicate
//! insert that refreshes instead of displacing), physical aliases (same
//! frame under another task and virtual page), masked requests and
//! requests clipped by the tick budget. Dependency-free; runs with the
//! default `cargo test`.

use tapeworm_core::{BurstRequest, CacheConfig, MissSchedule, Tapeworm};
use tapeworm_machine::Component;
use tapeworm_mem::{Pfn, PhysAddr, TrapMap, VirtAddr, WORD_BYTES};
use tapeworm_os::Tid;
use tapeworm_stats::SeedSeq;

const PAGE: u64 = 4096;
const LINE: u64 = 16;
const LINE_WORDS: u64 = LINE / WORD_BYTES;
/// Registered (identity-mapped) frames.
const PAGES: u64 = 8;
/// Frames in the trap map; those past `PAGES` stay unregistered.
const FRAMES: u64 = 32;
const CASES: u64 = 400;

/// SplitMix64 (Steele et al.): the same generator the workloads use,
/// reimplemented here so the suite needs no dev-dependencies.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// The three eligible geometries: physically indexed FIFO with
/// sets × line covering a page.
fn geometries() -> [CacheConfig; 3] {
    [
        CacheConfig::new(4 * 1024, LINE, 1).expect("valid geometry"),
        CacheConfig::new(8 * 1024, LINE, 2).expect("valid geometry"),
        CacheConfig::new(16 * 1024, LINE, 4).expect("valid geometry"),
    ]
}

/// Builds one twin: registered frames, then a stepwise warm-up mixed
/// with the seed's choice of foreign lines, re-trapped residents and
/// aliases. Deterministic in `(cfg, seed, memo)`, so two calls build
/// identical twins.
fn build(cfg: &CacheConfig, seed: u64, memo: bool) -> (Tapeworm, TrapMap) {
    let mut tw = Tapeworm::new(*cfg, PAGE, SeedSeq::new(1994));
    tw.set_victim_memo(memo);
    let mut traps = TrapMap::new(FRAMES * PAGE, LINE);
    let tid = Tid::new(1);
    for p in 0..PAGES {
        tw.tw_register_page(&mut traps, tid, Pfn::new(p), p);
    }
    let mut rng = SplitMix64(seed);
    // Warm-up misses with perturbations interleaved, so later misses
    // age the odd lines toward the FIFO cursor.
    for _ in 0..256 + rng.below(4096) {
        let line = rng.below(PAGES * PAGE) & !(LINE - 1);
        match rng.below(24) {
            // A line from an unregistered frame: displacing it must not
            // re-arm anything.
            0 => {
                let foreign = (PAGES + rng.below(FRAMES - PAGES)) * PAGE + line % PAGE;
                tw.tw_replace(tid, VirtAddr::new(foreign), PhysAddr::new(foreign));
            }
            // Re-trap a resident line: its next miss is a duplicate
            // insert that refreshes instead of displacing.
            1 => {
                let pa = PhysAddr::new(line);
                if tw.cache().contains_physical(pa) {
                    tw.tw_set_trap(&mut traps, pa, LINE);
                }
            }
            // A physical alias under another task and virtual page: a
            // second copy of the frame line in the same set.
            2 => {
                let va = VirtAddr::new(line + (1 + rng.below(4)) * PAGES * PAGE);
                tw.tw_replace(Tid::new(2), va, PhysAddr::new(line));
            }
            _ => {
                let addr = line + rng.below(LINE_WORDS) * WORD_BYTES;
                let pa = PhysAddr::new(addr);
                if traps.is_trapped(pa) {
                    tw.handle_miss(&mut traps, Component::User, tid, VirtAddr::new(addr), pa);
                }
            }
        }
    }
    (tw, traps)
}

/// A seed-driven request over the registered frames: any entry word,
/// any run length, sometimes masked, sometimes clipped by the budget.
fn request(rng: &mut SplitMix64) -> BurstRequest {
    let page = rng.below(PAGES);
    let va = page * PAGE + rng.below(PAGE / WORD_BYTES) * WORD_BYTES;
    let cpi_milli = 700 + rng.below(2000);
    let dilate_ov_milli = if rng.chance(2) { 246_000 } else { 0 };
    let budget_milli = if rng.chance(3) {
        rng.below(40) * (LINE_WORDS * cpi_milli + dilate_ov_milli)
    } else {
        1 << 40
    };
    BurstRequest {
        component: if rng.chance(2) {
            Component::User
        } else {
            Component::Kernel
        },
        tid: Tid::new(1),
        va: VirtAddr::new(va),
        pa: PhysAddr::new(va),
        rem_words: 1 + rng.below(2 * PAGE / WORD_BYTES),
        page_end_va: (page + 1) * PAGE,
        budget_milli,
        cpi_milli,
        dilate_ov_milli,
        masked: rng.chance(4),
        want_victims: rng.chance(2),
    }
}

/// What one side of a case produced.
#[derive(Debug, PartialEq)]
struct Served {
    chunks: u64,
    words: u64,
    overhead_cycles: u64,
    victims: Vec<Option<u64>>,
}

/// The reference: the engine's per-chunk burst loop, one
/// `handle_miss` or `note_masked_miss` per trapped chunk, stopping at
/// the first clean chunk, the page end, the end of the run or a chunk
/// the tick budget cannot cover. `None` where `service_burst` declines
/// (nothing serviced). Also returns how many of its misses refreshed
/// a resident duplicate and how many displaced an alias of the
/// missing line itself.
fn stepwise(
    tw: &mut Tapeworm,
    traps: &mut TrapMap,
    req: &BurstRequest,
) -> (Option<Served>, u64, u64) {
    let mut out = Served {
        chunks: 0,
        words: 0,
        overhead_cycles: 0,
        victims: Vec::new(),
    };
    let mut va = req.va.raw();
    let mut rem = req.rem_words;
    let mut budget = req.budget_milli;
    let (mut refreshes, mut self_aliases) = (0, 0);
    while rem > 0 && va < req.page_end_va {
        let pa = PhysAddr::new(va - req.va.raw() + req.pa.raw());
        if !traps.is_trapped(pa) {
            break;
        }
        let bw = rem.min((LINE - va % LINE) / WORD_BYTES);
        let cost = bw * req.cpi_milli + req.dilate_ov_milli;
        if cost >= budget {
            break;
        }
        if req.masked {
            tw.note_masked_miss();
            budget -= bw * req.cpi_milli;
        } else {
            let (line_va, line_pa) = (va & !(LINE - 1), pa.raw() & !(LINE - 1));
            refreshes += u64::from(
                tw.cache()
                    .iter()
                    .any(|l| l.tid == req.tid && l.va.raw() == line_va && l.pa.raw() == line_pa),
            );
            out.overhead_cycles +=
                tw.handle_miss(traps, req.component, req.tid, VirtAddr::new(va), pa);
            let victim = tw.last_victim().map(|v| v.raw());
            self_aliases += u64::from(victim == Some(line_pa));
            out.victims.push(victim);
            budget -= cost;
        }
        out.chunks += 1;
        out.words += bw;
        rem -= bw;
        va += bw * WORD_BYTES;
    }
    ((out.chunks > 0).then_some(out), refreshes, self_aliases)
}

/// Every observable of one twin after its request.
#[derive(Debug, PartialEq)]
struct Snapshot {
    trapped: Vec<u64>,
    set_events: u64,
    clear_events: u64,
    lines: Vec<(u16, u64, u64)>,
    resident: u64,
    stats: tapeworm_core::MissStats,
    cycles: (u64, u64, u64),
    /// Victims of a fixed probe sequence run after the request: one
    /// fresh conflicting line per way of every set, which exposes slot
    /// order and every FIFO cursor.
    probe_victims: Vec<Option<u64>>,
}

fn snapshot(mut tw: Tapeworm, traps: &TrapMap) -> Snapshot {
    let cfg = *tw.config();
    let lines = tw
        .cache()
        .iter()
        .map(|l| (l.tid.raw(), l.va.raw(), l.pa.raw()))
        .collect();
    let mut snap = Snapshot {
        trapped: traps.iter_trapped().collect(),
        set_events: traps.set_events(),
        clear_events: traps.clear_events(),
        lines,
        resident: tw.cache().resident(),
        stats: *tw.stats(),
        cycles: (
            tw.handler_cycles(),
            tw.replacement_cycles(),
            tw.overhead_cycles(),
        ),
        probe_victims: Vec::new(),
    };
    let span = cfg.sets() * LINE;
    for way in 0..u64::from(cfg.associativity()) {
        for set in 0..cfg.sets() {
            let a = FRAMES * PAGE + (way + 1) * span + set * LINE;
            let victim = tw.tw_replace(Tid::new(3), VirtAddr::new(a), PhysAddr::new(a));
            snap.probe_victims.push(victim.map(|l| l.pa.raw()));
        }
    }
    snap
}

#[test]
fn service_burst_matches_stepwise_on_every_eligible_geometry() {
    for cfg in geometries() {
        let ways = cfg.associativity();
        let (mut served, mut masked, mut clipped) = (0, 0, 0);
        let (mut retraps_skipped, mut refreshes, mut self_aliases) = (0, 0, 0);
        for case in 0..CASES {
            let mut rng = SplitMix64(0x7a9e_0000 + case * 0x1_0001 + u64::from(ways));
            let state_seed = rng.next();
            let memo = rng.chance(2);
            let req = request(&mut rng);

            let (mut fast, mut fast_traps) = build(&cfg, state_seed, memo);
            let (mut slow, mut slow_traps) = build(&cfg, state_seed, memo);
            assert!(fast.sched_eligible(), "test geometry must be eligible");

            let mut sched = MissSchedule::new();
            let got = fast
                .service_burst(&mut fast_traps, &mut sched, &req)
                .map(|s| Served {
                    chunks: s.chunks,
                    words: s.words,
                    overhead_cycles: s.overhead_cycles,
                    victims: if req.want_victims && !req.masked {
                        sched.last_burst_victims().collect()
                    } else {
                        Vec::new()
                    },
                });
            let (mut want, refreshed, aliased) = stepwise(&mut slow, &mut slow_traps, &req);
            refreshes += refreshed;
            self_aliases += aliased;
            if let Some(w) = want.as_mut() {
                served += 1;
                masked += u64::from(req.masked);
                clipped += u64::from(req.budget_milli < 1 << 40);
                retraps_skipped += w
                    .victims
                    .iter()
                    .flatten()
                    .filter(|&&v| v >= PAGES * PAGE)
                    .count();
                if !req.want_victims {
                    w.victims.clear();
                }
            }
            assert_eq!(
                got, want,
                "served burst diverged (ways {ways}, case {case})"
            );
            assert_eq!(
                snapshot(fast, &fast_traps),
                snapshot(slow, &slow_traps),
                "twin state diverged (ways {ways}, case {case}, {req:?})"
            );
        }
        // The suite only proves something if every shape occurred.
        assert!(served > CASES / 2, "ways {ways}: {served} bursts served");
        assert!(masked > 0, "ways {ways}: no masked burst");
        assert!(clipped > 0, "ways {ways}: no budget-clipped burst");
        assert!(
            retraps_skipped > 0,
            "ways {ways}: no victim from an unregistered frame"
        );
        assert!(refreshes > 0, "ways {ways}: no duplicate refresh");
        assert!(
            self_aliases > 0,
            "ways {ways}: no alias of the missing line displaced"
        );
    }
}
