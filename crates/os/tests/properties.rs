//! Randomized properties of the OS substrate. Each case draws its
//! inputs from its own SplitMix64 stream, a pure function of the
//! property's name and the case index, so a failing case replays
//! alone. Dependency-free; runs with the default `cargo test`.

use std::collections::BTreeSet;

use tapeworm_machine::Component;
use tapeworm_mem::{PageSize, SequentialAllocator, VirtAddr};
use tapeworm_os::{Os, OsConfig, TapewormAttrs, TaskTable, Tid, Touch, Vm, VmEvent};
use tapeworm_stats::{Rng, SeedSeq};

const CASES: u64 = 256;

fn case_rng(property: &str, case: u64) -> Rng {
    SeedSeq::new(1994).derive(property, case).rng()
}

/// The inheritance rule composes: in any fork tree rooted at a
/// task with attributes (s, i), every descendant has
/// simulate == inherit == i.
#[test]
fn inheritance_is_determined_by_the_root_inherit_bit() {
    for case in 0..CASES {
        let mut rng = case_rng("inheritance_is_determined_by_the_root_inherit_bit", case);
        let root_simulate: bool = rng.gen();
        let root_inherit: bool = rng.gen();
        let mut t = TaskTable::new();
        let root = t.spawn(None, Component::User).unwrap();
        t.set_attributes(
            root,
            TapewormAttrs {
                simulate: root_simulate,
                inherit: root_inherit,
            },
        )
        .unwrap();
        let mut tree = vec![root];
        // Each fork is from the task at (draw % created so far).
        for _ in 0..rng.gen_range(1..60usize) {
            let parent = tree[rng.gen_range(0..64usize) % tree.len()];
            let child = t.fork(parent).unwrap();
            tree.push(child);
        }
        for &tid in &tree[1..] {
            let attrs = t.get(tid).unwrap().attrs;
            assert_eq!(attrs.simulate, root_inherit, "case {case}");
            assert_eq!(attrs.inherit, root_inherit, "case {case}");
        }
        assert_eq!(
            t.get(root).unwrap().attrs.simulate,
            root_simulate,
            "case {case}"
        );
    }
}

/// VM frame accounting balances over arbitrary map/unmap
/// sequences: free frames + live mappings' unique frames ==
/// capacity, and every unmap event matches a prior registration.
#[test]
fn vm_frame_accounting_balances() {
    for case in 0..CASES {
        let mut rng = case_rng("vm_frame_accounting_balances", case);
        let mut vm = Vm::new(PageSize::DEFAULT, Box::new(SequentialAllocator::new(64)));
        let tid = Tid::new(1);
        let mut mapped = BTreeSet::new();
        for _ in 0..rng.gen_range(1..80usize) {
            let map: bool = rng.gen();
            let vpn = rng.gen_range(0..32u64);
            if map && !mapped.contains(&vpn) {
                let (_, ev) = vm.map_new(tid, vpn).unwrap();
                let ok = matches!(ev, VmEvent::PageRegistered { vpn: v, .. } if v == vpn);
                assert!(ok, "case {case}: bad registration event {ev:?}");
                mapped.insert(vpn);
            } else if !map && mapped.contains(&vpn) {
                let ev = vm.unmap(tid, vpn);
                let ok = matches!(ev, VmEvent::PageRemoved { vpn: v, .. } if v == vpn);
                assert!(ok, "case {case}: bad removal event {ev:?}");
                mapped.remove(&vpn);
            }
        }
        assert_eq!(vm.resident_pages(tid), mapped.len(), "case {case}");
        assert_eq!(vm.free_frames(), 64 - mapped.len(), "case {case}");
    }
}

/// Translation is stable: a mapped page always translates to the
/// same frame until unmapped, regardless of other activity.
#[test]
fn translation_is_stable_under_unrelated_activity() {
    for case in 0..CASES {
        let mut rng = case_rng("translation_is_stable_under_unrelated_activity", case);
        let mut os = Os::boot(
            OsConfig {
                page_size: PageSize::DEFAULT,
                frames: 128,
            },
            Box::new(SequentialAllocator::new(128)),
        );
        let a = os.spawn_user().unwrap();
        let b = os.spawn_user().unwrap();
        let va = VirtAddr::new(0);
        let frame_of_a = |os: &mut Os| match os.touch(a, va).unwrap() {
            Touch::Ok { pa, .. } => pa,
            other => panic!("case {case}: {other:?}"),
        };
        let first = frame_of_a(&mut os);
        for _ in 0..rng.gen_range(0..20usize) {
            let vpn = rng.gen_range(1..40u64);
            let _ = os.touch(b, VirtAddr::new(vpn * 4096)).unwrap();
        }
        assert_eq!(first, frame_of_a(&mut os), "case {case}");
    }
}
