// Property-based suites need the external `proptest` crate, which the
// offline build intentionally omits. Enable with
// `--features proptest` after restoring the dev-dependency (see ci.sh).
#![cfg(feature = "proptest")]

//! Property-based tests for the OS substrate.

use proptest::prelude::*;
use tapeworm_machine::Component;
use tapeworm_mem::{PageSize, SequentialAllocator, VirtAddr};
use tapeworm_os::{Os, OsConfig, TapewormAttrs, TaskTable, Tid, Vm, VmEvent};

proptest! {
    /// The inheritance rule composes: in any fork tree rooted at a
    /// task with attributes (s, i), every descendant has
    /// simulate == inherit == i.
    #[test]
    fn inheritance_is_determined_by_the_root_inherit_bit(
        root_simulate in any::<bool>(),
        root_inherit in any::<bool>(),
        // Each entry forks from the task at (index % created so far).
        forks in proptest::collection::vec(0usize..64, 1..60),
    ) {
        let mut t = TaskTable::new();
        let root = t.spawn(None, Component::User).unwrap();
        t.set_attributes(root, TapewormAttrs { simulate: root_simulate, inherit: root_inherit })
            .unwrap();
        let mut tree = vec![root];
        for f in forks {
            let parent = tree[f % tree.len()];
            let child = t.fork(parent).unwrap();
            tree.push(child);
        }
        for &tid in &tree[1..] {
            let attrs = t.get(tid).unwrap().attrs;
            prop_assert_eq!(attrs.simulate, root_inherit);
            prop_assert_eq!(attrs.inherit, root_inherit);
        }
        prop_assert_eq!(t.get(root).unwrap().attrs.simulate, root_simulate);
    }

    /// VM frame accounting balances over arbitrary map/unmap
    /// sequences: free frames + live mappings' unique frames ==
    /// capacity, and every unmap event matches a prior registration.
    #[test]
    fn vm_frame_accounting_balances(
        ops in proptest::collection::vec((any::<bool>(), 0u64..32), 1..80),
    ) {
        let mut vm = Vm::new(
            PageSize::DEFAULT,
            Box::new(SequentialAllocator::new(64)),
        );
        let tid = Tid::new(1);
        let mut mapped = std::collections::BTreeSet::new();
        for (map, vpn) in ops {
            if map && !mapped.contains(&vpn) {
                let (_, ev) = vm.map_new(tid, vpn).unwrap();
                let ok = matches!(ev, VmEvent::PageRegistered { vpn: v, .. } if v == vpn);
                prop_assert!(ok, "bad registration event {:?}", ev);
                mapped.insert(vpn);
            } else if !map && mapped.contains(&vpn) {
                let ev = vm.unmap(tid, vpn);
                let ok = matches!(ev, VmEvent::PageRemoved { vpn: v, .. } if v == vpn);
                prop_assert!(ok, "bad removal event {:?}", ev);
                mapped.remove(&vpn);
            }
        }
        prop_assert_eq!(vm.resident_pages(tid), mapped.len());
        prop_assert_eq!(vm.free_frames(), 64 - mapped.len());
    }

    /// Translation is stable: a mapped page always translates to the
    /// same frame until unmapped, regardless of other activity.
    #[test]
    fn translation_is_stable_under_unrelated_activity(
        other_vpns in proptest::collection::vec(1u64..40, 0..20),
    ) {
        let mut os = Os::boot(
            OsConfig { page_size: PageSize::DEFAULT, frames: 128 },
            Box::new(SequentialAllocator::new(128)),
        );
        let a = os.spawn_user().unwrap();
        let b = os.spawn_user().unwrap();
        let va = VirtAddr::new(0);
        let first = match os.touch(a, va).unwrap() {
            tapeworm_os::Touch::Ok { pa, .. } => pa,
            other => panic!("{other:?}"),
        };
        for vpn in other_vpns {
            let _ = os.touch(b, VirtAddr::new(vpn * 4096)).unwrap();
        }
        let again = match os.touch(a, va).unwrap() {
            tapeworm_os::Touch::Ok { pa, .. } => pa,
            other => panic!("{other:?}"),
        };
        prop_assert_eq!(first, again);
    }
}
