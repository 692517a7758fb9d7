//! Twin differential for set-state burst service.
//!
//! `Tapeworm::service_burst` sizes a whole trapped run from the trap
//! bitmap and inserts each line with the handler's own step; on
//! eligible geometries it disarms the run in one merged clear, on every
//! other geometry one granule just before each insert. This suite
//! checks it against the reference: the per-chunk sequence of
//! `handle_miss` / `note_masked_miss` calls stepwise execution makes,
//! with the same budget pre-checks. Each case builds two identical
//! SplitMix64-warmed simulators (twins), serves one request on each,
//! and requires identical trap bits and transition counts, cache
//! contents and FIFO cursors, random draws, `MissStats`, cycle
//! accounting and victim lists.
//!
//! The warm states are chosen to reach the paths a plain warm-up never
//! does: resident lines from unregistered frames (their displacement
//! must not re-arm a trap), re-trapped resident lines (a duplicate
//! insert that refreshes instead of displacing), physical aliases (same
//! frame under another task and virtual page), masked requests and
//! requests clipped by the tick budget. Off the eligible geometries a
//! victim can also land ahead in the run, re-arming a granule the
//! reference then services in the same burst. Dependency-free; runs
//! with the default `cargo test`.

use tapeworm_core::{BurstRequest, CacheConfig, Indexing, MissSchedule, Replacement, Tapeworm};
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

/// Rare shapes of the reference's misses, counted per geometry.
const REFRESH: usize = 0; // refreshed a resident duplicate
const SELF_ALIAS: usize = 1; // displaced an alias of the missing line
const AHEAD: usize = 2; // victim ahead in the page: a merged clear's blind spot
const REARMED: usize = 3; // clean at entry, re-armed by an earlier victim
const SHAPES: [&str; 4] = ["refresh", "self-alias", "victim ahead", "re-armed ahead"];

/// Every test geometry with the rare shapes its seeded cases must
/// reach. The first four are eligible (one merged clear, and no
/// victim can lie ahead in the run); the rest clear one granule at a
/// time: set spans below a page, random replacement, virtual indexing.
fn geometries() -> [(CacheConfig, &'static [usize]); 9] {
    let cfg = |kb: u64, ways| CacheConfig::new(kb * 1024, LINE, ways).expect("valid geometry");
    [
        (cfg(4, 1), &[REFRESH, SELF_ALIAS]),
        // The `hit-heavy` benchmark cache: a set span of 16 pages, so
        // the registered frames never conflict with each other and
        // every victim comes from a foreign line or an alias.
        (cfg(64, 1), &[REFRESH, SELF_ALIAS]),
        (cfg(8, 2), &[REFRESH, SELF_ALIAS]),
        (cfg(16, 4), &[REFRESH, SELF_ALIAS]),
        (cfg(1, 1), &[REFRESH, SELF_ALIAS, AHEAD, REARMED]),
        // Re-arming the granule just past the run needs a FIFO history
        // the random warm-up seldom leaves in two or more ways;
        // `a_victim_rearming_the_next_granule_extends_the_burst` builds
        // it directly.
        (cfg(4, 2), &[REFRESH, SELF_ALIAS, AHEAD]),
        // Random victims spread over four ways: a self-alias victim is
        // too rare to reach here.
        (
            cfg(8, 4).with_replacement(Replacement::Random),
            &[REFRESH, AHEAD],
        ),
        // The set span equals the page and page offsets agree in both
        // address spaces, so each granule of a frame has its own set:
        // no victim can lie ahead in the run. Only the indexing mode
        // keeps this geometry off the merged clear.
        (
            cfg(4, 1).with_indexing(Indexing::Virtual),
            &[REFRESH, SELF_ALIAS],
        ),
        // Re-trapped residents rarely survive until a burst reaches
        // them in this small cache.
        (
            cfg(2, 2).with_indexing(Indexing::Virtual),
            &[SELF_ALIAS, AHEAD],
        ),
    ]
}

/// Builds one twin: registered frames, then a stepwise warm-up mixed
/// with the seed's choice of foreign lines, re-trapped residents and
/// aliases, then optionally a straight-line pass from `pass`.
/// Deterministic in `(cfg, seed, pass)`, so two calls build identical
/// twins.
fn build(cfg: &CacheConfig, seed: u64, pass: Option<PhysAddr>) -> (Tapeworm, TrapMap) {
    let mut tw = Tapeworm::new(*cfg, PAGE, SeedSeq::new(1994));
    let mut traps = TrapMap::new(FRAMES * PAGE, LINE);
    let tid = Tid::new(1);
    for p in 0..PAGES {
        tw.tw_register_page(&mut traps, tid, Pfn::new(p), p);
    }
    let mut rng = SplitMix64(seed);
    // Warm-up misses with perturbations interleaved, so later misses
    // age the odd lines toward the FIFO cursor. Caches above 16 KiB
    // hold most of the registered frames without conflict, so they
    // get proportionally fewer, which leaves most granules trapped.
    let warm = 4096 * 16 * 1024 / cfg.size_bytes().max(16 * 1024);
    for _ in 0..256 + rng.below(warm) {
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
    // A straight-line pass from the burst's entry, longer than the
    // cache, as a loop's last iteration leaves it: a trapped stretch
    // whose sets hold the lines just past it, so a burst into the
    // stretch displaces granules ahead of itself in the same page.
    if let Some(entry) = pass {
        let start = entry.raw() & !(LINE - 1);
        let end = (start + cfg.size_bytes() + rng.below(PAGE)).min(PAGES * PAGE);
        for addr in (start..end).step_by(LINE as usize) {
            let pa = PhysAddr::new(addr);
            if traps.is_trapped(pa) {
                tw.handle_miss(&mut traps, Component::User, tid, VirtAddr::new(addr), pa);
            }
        }
    }
    (tw, traps)
}

/// A seed-driven request over the registered frames: any entry word,
/// any run length, sometimes masked, sometimes clipped by the budget.
/// A clipping budget is either a whole multiple of a full chunk's cost
/// or an edge of the closed-form clip: exactly the worst-case total of
/// the first m chunks stepwise execution prices (words × CPI plus one
/// dilation when masked, one per chunk otherwise), or that total ± 1
/// milli, with the words sometimes running out mid-line in chunk m.
fn request(rng: &mut SplitMix64) -> BurstRequest {
    let page = rng.below(PAGES);
    let va = page * PAGE + rng.below(PAGE / WORD_BYTES) * WORD_BYTES;
    let cpi_milli = 700 + rng.below(2000);
    let dilate_ov_milli = if rng.chance(2) { 246_000 } else { 0 };
    let mut budget_milli = if rng.chance(3) {
        rng.below(40) * (LINE_WORDS * cpi_milli + dilate_ov_milli)
    } else {
        1 << 40
    };
    let component = if rng.chance(2) {
        Component::User
    } else {
        Component::Kernel
    };
    let mut rem_words = 1 + rng.below(2 * PAGE / WORD_BYTES);
    let masked = rng.chance(4);
    let want_victims = rng.chance(2);
    // Half the clipping budgets move to an edge. The edge draws come
    // from a side stream, so the main stream, and with it every other
    // case, stays as it was.
    let mut side = SplitMix64(!rng.0);
    if budget_milli < 1 << 40 && side.chance(2) {
        let head = LINE_WORDS - (va % LINE) / WORD_BYTES;
        let m = 1 + side.below(4);
        let full = head + (m - 1) * LINE_WORDS;
        let last = if m == 1 { head } else { LINE_WORDS };
        if last > 1 && side.chance(2) {
            // Chunk m is the last and stops short of its line end.
            rem_words = full - last + 1 + side.below(last - 1);
        }
        let words = rem_words.min(full);
        let dilations = if masked { 1 } else { m };
        let total = words * cpi_milli + dilations * dilate_ov_milli;
        budget_milli = total + side.below(3) - 1;
    }
    BurstRequest {
        component,
        tid: Tid::new(1),
        va: VirtAddr::new(va),
        pa: PhysAddr::new(va),
        rem_words,
        page_end_va: (page + 1) * PAGE,
        budget_milli,
        cpi_milli,
        dilate_ov_milli,
        masked,
        want_victims,
    }
}

/// Budget checks the reference made at an edge of the closed-form
/// clip, where the budget left minus the chunk's worst-case cost is
/// -1, 0 or +1 milli (index `margin + 1`).
#[derive(Debug, Default)]
struct Edges {
    /// By margin, masked and dilated.
    by_kind: [[[u64; 2]; 2]; 3],
    /// By margin, where the chunk stopped short because the words ran
    /// out mid-line.
    short_last: [u64; 3],
    /// By margin, in a request whose entry is mid-line.
    mid_entry: [u64; 3],
}

/// What one side of a case produced.
#[derive(Debug, PartialEq)]
struct Served {
    chunks: u64,
    words: u64,
    overhead_cycles: u64,
    victims: Vec<Option<u64>>,
}

/// The reference: stepwise execution's per-chunk burst, one
/// `handle_miss` or `note_masked_miss` per trapped chunk, stopping at
/// the first clean chunk, the page end, the end of the run or a chunk
/// the tick budget cannot cover. `None` where `service_burst` declines
/// (nothing serviced).
fn stepwise(
    tw: &mut Tapeworm,
    traps: &mut TrapMap,
    req: &BurstRequest,
    shapes: &mut [u64; 4],
    edges: &mut Edges,
) -> Option<Served> {
    let mut out = Served {
        chunks: 0,
        words: 0,
        overhead_cycles: 0,
        victims: Vec::new(),
    };
    let page_end_pa = req.page_end_va - req.va.raw() + req.pa.raw();
    let trapped_at_entry: Vec<u64> = traps.iter_trapped().collect();
    let mut va = req.va.raw();
    let mut rem = req.rem_words;
    let mut budget = req.budget_milli;
    while rem > 0 && va < req.page_end_va {
        let pa = PhysAddr::new(va - req.va.raw() + req.pa.raw());
        if !traps.is_trapped(pa) {
            break;
        }
        let to_line_end = (LINE - va % LINE) / WORD_BYTES;
        let bw = rem.min(to_line_end);
        let cost = bw * req.cpi_milli + req.dilate_ov_milli;
        let margin = i128::from(budget) - i128::from(cost);
        if let Ok(edge @ 0..=2) = usize::try_from(margin + 1) {
            let (masked, dilated) = (req.masked, req.dilate_ov_milli > 0);
            edges.by_kind[edge][usize::from(masked)][usize::from(dilated)] += 1;
            edges.short_last[edge] += u64::from(bw < to_line_end);
            edges.mid_entry[edge] += u64::from(req.va.raw() % LINE != 0);
        }
        if cost >= budget {
            break;
        }
        if req.masked {
            tw.note_masked_miss();
            budget -= bw * req.cpi_milli;
        } else {
            let (line_va, line_pa) = (va & !(LINE - 1), pa.raw() & !(LINE - 1));
            shapes[REFRESH] += u64::from(
                tw.cache()
                    .iter()
                    .any(|l| l.tid == req.tid && l.va.raw() == line_va && l.pa.raw() == line_pa),
            );
            shapes[REARMED] +=
                u64::from(trapped_at_entry.binary_search(&(line_pa / LINE)).is_err());
            out.overhead_cycles +=
                tw.handle_miss(traps, req.component, req.tid, VirtAddr::new(va), pa);
            let victim = tw.last_victim().map(|v| v.raw());
            shapes[SELF_ALIAS] += u64::from(victim == Some(line_pa));
            shapes[AHEAD] += u64::from(victim.is_some_and(|v| v > line_pa && v < page_end_pa));
            out.victims.push(victim);
            budget -= cost;
        }
        out.chunks += 1;
        out.words += bw;
        rem -= bw;
        va += bw * WORD_BYTES;
    }
    (out.chunks > 0).then_some(out)
}

/// Drives `service_burst` the way the engine does: re-enter with the
/// remaining words and budget until it declines or the page or words
/// run out, summing what the calls served. Returns the sum and how many
/// calls served something — the engine's flush count for the burst.
fn serve(tw: &mut Tapeworm, traps: &mut TrapMap, req: &BurstRequest) -> (Option<Served>, u64) {
    let mut sched = MissSchedule::new();
    let mut out = Served {
        chunks: 0,
        words: 0,
        overhead_cycles: 0,
        victims: Vec::new(),
    };
    let mut next = *req;
    let mut calls = 0;
    while next.rem_words > 0 && next.va.raw() < next.page_end_va {
        let Some(s) = tw.service_burst(traps, &mut sched, &next) else {
            break;
        };
        calls += 1;
        out.chunks += s.chunks;
        out.words += s.words;
        out.overhead_cycles += s.overhead_cycles;
        if req.want_victims && !req.masked {
            out.victims.extend(sched.last_burst_victims());
        }
        let spent = s.words * req.cpi_milli
            + if req.masked {
                0
            } else {
                s.chunks * req.dilate_ov_milli
            };
        next.budget_milli -= spent;
        next.rem_words -= s.words;
        next.va = VirtAddr::new(next.va.raw() + s.words * WORD_BYTES);
        next.pa = PhysAddr::new(next.pa.raw() + s.words * WORD_BYTES);
    }
    ((calls > 0).then_some(out), calls)
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
fn service_burst_matches_stepwise_on_every_geometry() {
    let mut edges = Edges::default();
    for (cfg, expected) in geometries() {
        let eligible = Tapeworm::new(cfg, PAGE, SeedSeq::new(1994)).sched_eligible();
        let mut shapes = [0u64; 4];
        let (mut served, mut masked, mut clipped, mut retraps_skipped) = (0, 0, 0, 0);
        for case in 0..CASES {
            let mut rng =
                SplitMix64(0x7a9e_0000 + case * 0x1_0001 + u64::from(cfg.associativity()));
            let state_seed = rng.next();
            let req = request(&mut rng);
            // Eligible geometries keep the plain warm-up: the pass
            // cannot put a victim ahead there, and it would leave most
            // entries resident.
            let pass = (!eligible && rng.chance(4)).then_some(req.pa);

            let (mut fast, mut fast_traps) = build(&cfg, state_seed, pass);
            let (mut slow, mut slow_traps) = build(&cfg, state_seed, pass);
            let (mut got, calls) = serve(&mut fast, &mut fast_traps, &req);
            let mut want = stepwise(&mut slow, &mut slow_traps, &req, &mut shapes, &mut edges);
            if let Some(w) = &want {
                served += 1;
                masked += u64::from(req.masked);
                clipped += u64::from(req.budget_milli < 1 << 40);
                retraps_skipped += w
                    .victims
                    .iter()
                    .flatten()
                    .filter(|&&v| v >= PAGES * PAGE)
                    .count();
            }
            if !req.want_victims {
                for side in [&mut got, &mut want].into_iter().flatten() {
                    side.victims.clear();
                }
            }
            assert_eq!(got, want, "served burst diverged ({cfg:?}, case {case})");
            // One stepwise burst is one engine flush: the re-entry declines.
            assert!(
                calls <= 1,
                "{calls} calls served one burst ({cfg:?}, case {case})"
            );
            assert_eq!(
                snapshot(fast, &fast_traps),
                snapshot(slow, &slow_traps),
                "twin state diverged ({cfg:?}, case {case}, {req:?})"
            );
        }
        // The suite only proves something if every shape occurred.
        assert!(served > CASES / 2, "{cfg:?}: {served} bursts served");
        assert!(masked > 0, "{cfg:?}: no masked burst");
        assert!(clipped > 0, "{cfg:?}: no budget-clipped burst");
        assert!(
            retraps_skipped > 0,
            "{cfg:?}: no victim from an unregistered frame"
        );
        for &shape in expected {
            assert!(shapes[shape] > 0, "{cfg:?}: no {}", SHAPES[shape]);
        }
        if eligible {
            // What eligibility promises, and the merged clear relies on.
            assert_eq!(shapes[AHEAD] + shapes[REARMED], 0, "{cfg:?}: {shapes:?}");
        }
    }
    // Every edge of the clip was priced: each margin, masked or not,
    // dilated or not, on a short last chunk and after a mid-line entry.
    for margin in 0..3 {
        for masked in 0..2 {
            for dilated in 0..2 {
                assert!(
                    edges.by_kind[margin][masked][dilated] > 0,
                    "no margin {} edge (masked {masked}, dilated {dilated}): {edges:?}",
                    margin as i64 - 1
                );
            }
        }
        assert!(edges.short_last[margin] > 0, "{edges:?}");
        assert!(edges.mid_entry[margin] > 0, "{edges:?}");
    }
}

/// A fresh 2-way 4 KiB twin over frames 0 and 1 (128 sets, so frame
/// offsets 2048 apart share a set), with `prime` serviced stepwise in
/// order.
fn two_way(prime: impl IntoIterator<Item = u64>) -> (Tapeworm, TrapMap) {
    let cfg = CacheConfig::new(4 * 1024, LINE, 2).expect("valid geometry");
    let mut tw = Tapeworm::new(cfg, PAGE, SeedSeq::new(1994));
    let mut traps = TrapMap::new(FRAMES * PAGE, LINE);
    let tid = Tid::new(1);
    for p in 0..2 {
        tw.tw_register_page(&mut traps, tid, Pfn::new(p), p);
    }
    for addr in prime {
        let pa = PhysAddr::new(addr);
        if traps.is_trapped(pa) {
            tw.handle_miss(&mut traps, Component::User, tid, VirtAddr::new(addr), pa);
        }
    }
    (tw, traps)
}

/// An unclipped request over the rest of frame 0 from `va`.
fn whole_page_from(va: u64) -> BurstRequest {
    BurstRequest {
        component: Component::User,
        tid: Tid::new(1),
        va: VirtAddr::new(va),
        pa: PhysAddr::new(va),
        rem_words: (PAGE - va) / WORD_BYTES,
        page_end_va: PAGE,
        budget_milli: 1 << 40,
        cpi_milli: 1000,
        dilate_ov_milli: 0,
        masked: false,
        want_victims: true,
    }
}

/// The state that makes a merged clear wrong off the eligible
/// geometries. Set 0 holds frame 0's offset 2048 at the FIFO cursor
/// and frame 1's offset 0 behind it, and the 2048 line is resident yet
/// trapped, as a re-arm from the data cache leaves it on split's shared
/// bitmap. A burst from offset 0 runs through 2048, but its first miss
/// displaces that line: in handler order the re-arm finds the trap
/// already set and the line's own miss clears it, whereas a clear
/// merged up front would be undone by the re-arm and leave the line
/// resident and trapped, with one more set event.
#[test]
fn resident_retrapped_line_ahead_in_the_run_is_cleared_in_handler_order() {
    let state = || {
        let (mut tw, mut traps) = two_way([2048, PAGE]);
        tw.tw_set_trap(&mut traps, PhysAddr::new(2048), LINE);
        (tw, traps)
    };
    let (mut fast, mut fast_traps) = state();
    let (mut slow, mut slow_traps) = state();
    assert!(!fast.sched_eligible());
    let req = whole_page_from(0);
    let (got, calls) = serve(&mut fast, &mut fast_traps, &req);
    let mut shapes = [0; 4];
    let want = stepwise(
        &mut slow,
        &mut slow_traps,
        &req,
        &mut shapes,
        &mut Edges::default(),
    );
    assert_eq!(shapes[AHEAD], 1, "the 2048 line is displaced ahead");
    assert_eq!(got, want);
    assert_eq!(calls, 1);
    assert!(!fast_traps.is_trapped(PhysAddr::new(2048)));
    assert!(fast.cache().contains_physical(PhysAddr::new(2048)));
    assert_eq!(snapshot(fast, &fast_traps), snapshot(slow, &slow_traps));
}

/// The burst must run on into a granule that was clean when it began
/// but that one of its own victims re-armed, as stepwise execution
/// does, and still be one burst (one engine flush). A straight-line
/// pass over 416 lines from an empty 2-way 4 KiB cache leaves lines
/// 0..160 trapped and each set's older way at the cursor, so the miss
/// on line 32 displaces line 160, right where the run measured at entry
/// ends.
#[test]
fn a_victim_rearming_the_next_granule_extends_the_burst() {
    let prime = (0..416).map(|l| l * LINE);
    let (mut fast, mut fast_traps) = two_way(prime.clone());
    let (mut slow, mut slow_traps) = two_way(prime);
    assert_eq!(fast_traps.trapped_run(PhysAddr::new(0), PAGE / LINE), 160);
    let req = whole_page_from(0);
    let (got, calls) = serve(&mut fast, &mut fast_traps, &req);
    let mut shapes = [0; 4];
    let want = stepwise(
        &mut slow,
        &mut slow_traps,
        &req,
        &mut shapes,
        &mut Edges::default(),
    );
    assert!(shapes[REARMED] > 0, "no granule re-armed ahead");
    assert!(got.as_ref().is_some_and(|s| s.chunks > 160));
    assert_eq!(got, want);
    assert_eq!(calls, 1, "the re-armed granule is part of the same burst");
    assert_eq!(snapshot(fast, &fast_traps), snapshot(slow, &slow_traps));
}

/// Serves `req` on twins from `state` and requires the stepwise
/// outcome; returns the served twin's trap map and the reference's
/// miss shapes.
fn twin_case(state: impl Fn() -> (Tapeworm, TrapMap), req: &BurstRequest) -> (TrapMap, [u64; 4]) {
    let (mut fast, mut fast_traps) = state();
    let (mut slow, mut slow_traps) = state();
    assert!(fast.sched_eligible(), "a merged run is under test");
    let (got, calls) = serve(&mut fast, &mut fast_traps, req);
    let mut shapes = [0; 4];
    let want = stepwise(
        &mut slow,
        &mut slow_traps,
        req,
        &mut shapes,
        &mut Edges::default(),
    );
    assert_eq!(got, want);
    assert_eq!(calls, 1);
    let traps = fast_traps.clone();
    assert_eq!(snapshot(fast, &fast_traps), snapshot(slow, &slow_traps));
    (traps, shapes)
}

/// A merged run's victims re-arm as coalesced runs, and a run must
/// split where the victims cross a frame: registration is per frame.
/// The engine's service span is one page, which keeps the victims of
/// one run inside one frame; a span over two 2 KiB frames under a 4 KiB
/// direct-mapped cache does not. Frames 0 and 1 hold the run, lines of
/// frames 2 and 3 fill every set, and frame 3 is unregistered: the
/// victims are one address-contiguous stretch from 4096 to 8192, of
/// which only the first half may be re-armed.
#[test]
fn coalesced_rearm_splits_victims_at_frame_boundaries() {
    const FRAME: u64 = PAGE / 2;
    let state = || {
        let cfg = CacheConfig::new(4 * 1024, LINE, 1).expect("valid geometry");
        let mut tw = Tapeworm::new(cfg, FRAME, SeedSeq::new(1994));
        let mut traps = TrapMap::new(FRAMES * PAGE, LINE);
        let tid = Tid::new(1);
        for f in [0, 1, 2] {
            tw.tw_register_page(&mut traps, tid, Pfn::new(f), f);
        }
        for addr in (2 * FRAME..4 * FRAME).step_by(LINE as usize) {
            let (va, pa) = (VirtAddr::new(addr), PhysAddr::new(addr));
            if addr < 3 * FRAME {
                tw.handle_miss(&mut traps, Component::User, tid, va, pa);
            } else {
                tw.tw_replace(tid, va, pa);
            }
        }
        (tw, traps)
    };
    let (traps, _) = twin_case(state, &whole_page_from(0));
    let lines = FRAME / LINE;
    assert_eq!(
        traps.trapped_run(PhysAddr::new(2 * FRAME), 2 * lines),
        lines
    );
    assert_eq!(traps.frame_trapped(PhysAddr::new(2 * FRAME)), lines as u32);
}

/// A merged run whose victims include the alias of one of its own
/// lines. In an 8 KiB 2-way cache (set span = page), set 128 holds an
/// alias of frame 0's offset 2048 (another task, another virtual page)
/// at the FIFO cursor and frame 1's line behind it; every other set
/// holds frames 1 and 2. A burst over frame 0 displaces frame 1's
/// lines around the alias, so the victims re-arm as three runs, and the
/// alias victim re-arms the line its own miss just cleared: in handler
/// order the line ends resident *and* trapped, with one clear and one
/// set event, which only holds if the re-arm follows the merged clear.
#[test]
fn a_self_alias_victim_rearms_its_line_after_the_merged_clear() {
    const ALIAS: u64 = 2048;
    let state = || {
        let cfg = CacheConfig::new(8 * 1024, LINE, 2).expect("valid geometry");
        let mut tw = Tapeworm::new(cfg, PAGE, SeedSeq::new(1994));
        let mut traps = TrapMap::new(FRAMES * PAGE, LINE);
        let tid = Tid::new(1);
        for p in 0..3 {
            tw.tw_register_page(&mut traps, tid, Pfn::new(p), p);
        }
        let alias_va = VirtAddr::new(ALIAS + 8 * PAGE);
        tw.tw_replace(Tid::new(2), alias_va, PhysAddr::new(ALIAS));
        for addr in (PAGE..3 * PAGE).step_by(LINE as usize) {
            if addr != 2 * PAGE + ALIAS {
                let (va, pa) = (VirtAddr::new(addr), PhysAddr::new(addr));
                tw.handle_miss(&mut traps, Component::User, tid, va, pa);
            }
        }
        (tw, traps)
    };
    let (traps, shapes) = twin_case(state, &whole_page_from(0));
    assert_eq!(shapes[SELF_ALIAS], 1);
    assert!(traps.is_trapped(PhysAddr::new(ALIAS)));
    assert_eq!(traps.frame_trapped(PhysAddr::new(0)), 1);
    assert_eq!(
        traps.frame_trapped(PhysAddr::new(PAGE)),
        (PAGE / LINE - 1) as u32
    );
}
