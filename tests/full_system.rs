//! Cross-crate integration: wire machine + OS + Tapeworm by hand (no
//! experiment engine) and verify the pieces compose the way the paper
//! describes.

use tapeworm::core::{CacheConfig, Tapeworm};
use tapeworm::machine::{AccessKind, Component, FetchOutcome, Machine, MachineConfig};
use tapeworm::mem::{PageSize, SequentialAllocator, VirtAddr};
use tapeworm::os::{Os, OsConfig, TapewormAttrs, Tid, Touch};
use tapeworm::stats::SeedSeq;

fn boot() -> (Os, Machine) {
    let os = Os::boot(
        OsConfig {
            page_size: PageSize::DEFAULT,
            frames: 256,
        },
        Box::new(SequentialAllocator::new(256)),
    );
    let machine = Machine::new(MachineConfig {
        mem_bytes: 256 * 4096,
        trap_granule: 16,
        clock_period: 1_000_000,
        breakpoint_registers: 4,
        write_policy: tapeworm::mem::WritePolicy::NoAllocateOnWrite,
    });
    (os, machine)
}

/// One reference through the whole stack: VM translation, trap check,
/// miss handling.
fn reference(
    os: &mut Os,
    machine: &mut Machine,
    tw: &mut Tapeworm,
    tid: Tid,
    va: VirtAddr,
) -> bool {
    let pa = match os.touch(tid, va).expect("memory available") {
        Touch::Ok { pa, registered } => {
            if let Some(ev) = registered {
                tw.on_vm_event(machine.traps_mut(), ev);
            }
            pa
        }
        Touch::PageTrap { .. } => unreachable!("cache mode never clears valid bits"),
    };
    match machine.access(AccessKind::IFetch, va, pa) {
        FetchOutcome::EccTrap => {
            tw.handle_miss(machine.traps_mut(), Component::User, tid, va, pa);
            true
        }
        FetchOutcome::Run => false,
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn manual_stack_maintains_the_invariant() {
    let (mut os, mut machine) = boot();
    let cfg = CacheConfig::new(1024, 16, 1).unwrap();
    let mut tw = Tapeworm::new(cfg, 4096, SeedSeq::new(1));
    let task = os.spawn_user().unwrap();
    os.tw_attributes(
        task,
        TapewormAttrs {
            simulate: true,
            inherit: false,
        },
    )
    .unwrap();

    let mut misses = 0;
    for i in 0..50_000u64 {
        // Walk 8 KiB of code: 8x the simulated cache.
        let va = VirtAddr::new((i * 4) % 8192);
        if reference(&mut os, &mut machine, &mut tw, task, va) {
            misses += 1;
        }
        if i % 10_000 == 0 {
            tw.validate_invariant(machine.traps()).unwrap();
        }
    }
    tw.validate_invariant(machine.traps()).unwrap();
    assert!(misses >= 8192 / 16, "at least the cold misses");
    assert_eq!(tw.stats().raw_total(), misses);
    // A sequential scan over 8x the cache size thrashes a DM cache:
    // every line re-misses on every lap.
    assert!(
        misses > 10 * (8192 / 16),
        "sequential over-capacity scan must thrash, got {misses}"
    );
}

#[test]
fn unsimulated_tasks_never_reach_the_simulator() {
    let (mut os, mut machine) = boot();
    let cfg = CacheConfig::new(1024, 16, 1).unwrap();
    let mut tw = Tapeworm::new(cfg, 4096, SeedSeq::new(1));
    let task = os.spawn_user().unwrap(); // default attrs: not simulated

    for i in 0..1000u64 {
        let va = VirtAddr::new((i * 4) % 4096);
        let missed = reference(&mut os, &mut machine, &mut tw, task, va);
        assert!(!missed, "untracked task must never trap");
    }
    assert_eq!(tw.stats().raw_total(), 0);
    assert_eq!(tw.registered_pages(), 0);
}

#[test]
fn task_exit_cleans_up_the_tapeworm_domain() {
    let (mut os, mut machine) = boot();
    let cfg = CacheConfig::new(4096, 16, 1).unwrap();
    let mut tw = Tapeworm::new(cfg, 4096, SeedSeq::new(1));
    let shell = os.spawn_user().unwrap();
    os.tw_attributes(
        shell,
        TapewormAttrs {
            simulate: false,
            inherit: true,
        },
    )
    .unwrap();
    let child = os.fork(shell).unwrap();
    assert!(os.is_simulated(child));

    for i in 0..512u64 {
        reference(&mut os, &mut machine, &mut tw, child, VirtAddr::new(i * 16));
    }
    assert!(tw.registered_pages() > 0);
    let traps_before = machine.traps().count();
    assert!(traps_before > 0 || tw.stats().raw_total() > 0);

    for ev in os.exit(child).unwrap() {
        tw.on_vm_event(machine.traps_mut(), ev);
    }
    assert_eq!(tw.registered_pages(), 0);
    assert_eq!(machine.traps().count(), 0, "all traps cleared at exit");
    tw.validate_invariant(machine.traps()).unwrap();
}

#[test]
fn fork_tree_inheritance_spans_generations() {
    let (mut os, _machine) = boot();
    let shell = os.spawn_user().unwrap();
    os.tw_attributes(
        shell,
        TapewormAttrs {
            simulate: false,
            inherit: true,
        },
    )
    .unwrap();
    // A three-level fork tree like a multi-stage compiler (§3.2).
    let cc = os.fork(shell).unwrap();
    let cpp = os.fork(cc).unwrap();
    let ld = os.fork(cpp).unwrap();
    for tid in [cc, cpp, ld] {
        assert!(os.is_simulated(tid), "{tid} must inherit simulation");
    }
    assert!(!os.is_simulated(shell));
}
