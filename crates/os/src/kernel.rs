//! The OS facade: boot, fork, fault and exit with Tapeworm event
//! plumbing.

use tapeworm_machine::Component;
use tapeworm_mem::{FrameAllocator, PageSize, PhysAddr, VirtAddr};

use crate::task::{TapewormAttrs, TaskError, TaskTable, Tid};
use crate::vm::{OutOfMemoryError, Translation, Vm, VmEvent, VmScratch};

/// OS boot configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsConfig {
    /// Page size used by the VM system.
    pub page_size: PageSize,
    /// Physical frames handed to the allocator.
    pub frames: usize,
}

impl Default for OsConfig {
    fn default() -> Self {
        OsConfig {
            page_size: PageSize::DEFAULT,
            // 64 MiB of 4 KiB frames.
            frames: 16 * 1024,
        }
    }
}

/// Result of one memory touch through the VM system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// The access proceeds at `pa`. If the touch demand-mapped the page
    /// and the task is simulated, `registered` carries the
    /// `tw_register_page` event.
    Ok {
        /// Translated physical address.
        pa: PhysAddr,
        /// Registration event for a newly mapped page, if any.
        registered: Option<VmEvent>,
    },
    /// The access hit a Tapeworm page-valid-bit trap (TLB simulation).
    PageTrap {
        /// Translated physical address of the trapped page.
        pa: PhysAddr,
    },
}

/// The booted operating system: task table, VM and the two boot-time
/// server tasks.
///
/// # Examples
///
/// ```
/// use tapeworm_mem::SequentialAllocator;
/// use tapeworm_os::{Os, OsConfig, TapewormAttrs};
/// use tapeworm_mem::VirtAddr;
///
/// let mut os = Os::boot(
///     OsConfig::default(),
///     Box::new(SequentialAllocator::new(1024)),
/// );
/// let shell = os.spawn_user()?;
/// os.tw_attributes(shell, TapewormAttrs { simulate: false, inherit: true })?;
/// let workload = os.fork(shell)?;
/// // The forked workload task is simulated; its first touch of a page
/// // yields a tw_register_page event.
/// let touch = os.touch(workload, VirtAddr::new(0x1000))?;
/// # let _ = touch;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Os {
    tasks: TaskTable,
    vm: Vm,
    bsd: Tid,
    x: Tid,
}

impl Os {
    /// Boots the kernel and the BSD / X server tasks.
    pub fn boot(config: OsConfig, allocator: Box<dyn FrameAllocator>) -> Self {
        Self::boot_reusing(config, allocator, VmScratch::default())
    }

    /// Like [`Os::boot`], but the VM system reuses the buffers of
    /// `scratch` (from a previous kernel's [`Os::into_scratch`]).
    /// Booted state is identical to a fresh [`Os::boot`].
    pub fn boot_reusing(
        config: OsConfig,
        allocator: Box<dyn FrameAllocator>,
        scratch: VmScratch,
    ) -> Self {
        let mut tasks = TaskTable::new();
        let bsd = tasks
            .spawn(None, Component::BsdServer)
            .expect("fresh table has room for the BSD server");
        let x = tasks
            .spawn(None, Component::XServer)
            .expect("fresh table has room for the X server");
        Os {
            tasks,
            vm: Vm::new_reusing(config.page_size, allocator, scratch),
            bsd,
            x,
        }
    }

    /// Tears the kernel down to the VM system's reusable allocations
    /// for [`Os::boot_reusing`].
    pub fn into_scratch(self) -> VmScratch {
        self.vm.into_scratch()
    }

    /// The BSD UNIX server task.
    pub fn bsd_server(&self) -> Tid {
        self.bsd
    }

    /// The X display server task.
    pub fn x_server(&self) -> Tid {
        self.x
    }

    /// Read access to the task table.
    pub fn tasks(&self) -> &TaskTable {
        &self.tasks
    }

    /// Read access to the VM system.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Mutable access to the VM system (used by the Tapeworm TLB
    /// simulator to manipulate page valid bits).
    pub fn vm_mut(&mut self) -> &mut Vm {
        &mut self.vm
    }

    /// Spawns a fresh user task (e.g. a shell) with default (inactive)
    /// Tapeworm attributes.
    ///
    /// # Errors
    ///
    /// Propagates [`TaskError`] from the task table.
    pub fn spawn_user(&mut self) -> Result<Tid, TaskError> {
        self.tasks.spawn(None, Component::User)
    }

    /// Forks a task, applying the Tapeworm attribute inheritance rule.
    ///
    /// # Errors
    ///
    /// Propagates [`TaskError`] from the task table.
    pub fn fork(&mut self, parent: Tid) -> Result<Tid, TaskError> {
        self.tasks.fork(parent)
    }

    /// The `tw_attributes` primitive (Table 1): assigns the
    /// `(simulate, inherit)` pair. When `simulate` turns on, every page
    /// the task already has mapped is registered retroactively ("all
    /// current and future pages touched by the task", §3.2); when it
    /// turns off, they are removed. The returned events carry those
    /// registrations.
    ///
    /// # Errors
    ///
    /// Propagates [`TaskError`] for unknown tasks.
    pub fn tw_attributes(
        &mut self,
        tid: Tid,
        attrs: TapewormAttrs,
    ) -> Result<Vec<VmEvent>, TaskError> {
        let before = self.tasks.get(tid)?.attrs.simulate;
        self.tasks.set_attributes(tid, attrs)?;
        let mut events = Vec::new();
        if attrs.simulate && !before {
            for (vpn, pte) in self.vm.pages(tid) {
                events.push(VmEvent::PageRegistered {
                    tid,
                    pfn: pte.pfn,
                    vpn,
                });
            }
        } else if !attrs.simulate && before {
            for (vpn, pte) in self.vm.pages(tid) {
                events.push(VmEvent::PageRemoved {
                    tid,
                    pfn: pte.pfn,
                    vpn,
                });
            }
        }
        Ok(events)
    }

    /// `true` when the task's pages belong in the Tapeworm domain.
    pub fn is_simulated(&self, tid: Tid) -> bool {
        self.tasks
            .get(tid)
            .map(|t| t.attrs.simulate)
            .unwrap_or(false)
    }

    /// The span one batched trap-service pass may cover from `va`: the
    /// physical address under the live mapping plus the bytes remaining
    /// in its page. This is the kernel's guarantee to the engine's miss
    /// burst — mappings cannot change under a running quantum, so a
    /// single handler pass may service every trap in the span without
    /// re-entering the VM system. A counting-free page-table read (no
    /// translation-cache or walk counter moves), so the burst can
    /// re-validate its page-local translation memo against the real
    /// page table without perturbing observability. Returns `None`
    /// unless the page is mapped and hardware-valid — page-trapped
    /// (TLB-simulation) and unmapped references take the stepwise
    /// demand-map path.
    pub fn trap_service_span(&self, tid: Tid, va: VirtAddr) -> Option<(PhysAddr, u64)> {
        let page = self.vm.page_size().bytes();
        let vpn = va.page_number(page);
        let pte = self.vm.pte(tid, vpn).filter(|p| p.valid)?;
        let pa = pte.pfn.base(page) + va.page_offset(page);
        Some((pa, page - va.page_offset(page)))
    }

    /// Routes one memory reference through the VM system, demand-mapping
    /// on first touch.
    ///
    /// # Errors
    ///
    /// [`OutOfMemoryError`] if a demand-map finds no free frame.
    pub fn touch(&mut self, tid: Tid, va: VirtAddr) -> Result<Touch, OutOfMemoryError> {
        match self.vm.translate_cached(tid, va) {
            Translation::Mapped(pa) => Ok(Touch::Ok {
                pa,
                registered: None,
            }),
            Translation::TapewormPageTrap(pa) => Ok(Touch::PageTrap { pa }),
            Translation::NotMapped => {
                let vpn = va.page_number(self.vm.page_size().bytes());
                let (pfn, event) = self.vm.map_new(tid, vpn)?;
                let registered = self.is_simulated(tid).then_some(event);
                let _ = pfn;
                Ok(Touch::Ok {
                    pa: match self.vm.translate_cached(tid, va) {
                        Translation::Mapped(pa) => pa,
                        _ => unreachable!("freshly mapped page must translate"),
                    },
                    registered,
                })
            }
        }
    }

    /// Exits a task and unmaps its pages. Returns the
    /// `tw_remove_page` events for simulated tasks.
    ///
    /// # Errors
    ///
    /// Propagates [`TaskError`] (the kernel cannot exit; unknown tasks
    /// are reported).
    pub fn exit(&mut self, tid: Tid) -> Result<Vec<VmEvent>, TaskError> {
        let simulated = self.is_simulated(tid);
        self.tasks.exit(tid)?;
        let events = self.vm.unmap_all(tid);
        Ok(if simulated { events } else { Vec::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tapeworm_mem::SequentialAllocator;

    fn os() -> Os {
        Os::boot(
            OsConfig {
                page_size: PageSize::DEFAULT,
                frames: 64,
            },
            Box::new(SequentialAllocator::new(64)),
        )
    }

    #[test]
    fn boot_creates_servers() {
        let os = os();
        assert_eq!(
            os.tasks().get(os.bsd_server()).unwrap().component(),
            Component::BsdServer
        );
        assert_eq!(
            os.tasks().get(os.x_server()).unwrap().component(),
            Component::XServer
        );
    }

    #[test]
    fn touch_demand_maps_and_registers_only_simulated_tasks() {
        let mut os = os();
        let plain = os.spawn_user().unwrap();
        let touched = os.touch(plain, VirtAddr::new(0x7000)).unwrap();
        assert!(matches!(
            touched,
            Touch::Ok {
                registered: None,
                ..
            }
        ));

        let sim = os.spawn_user().unwrap();
        os.tw_attributes(
            sim,
            TapewormAttrs {
                simulate: true,
                inherit: false,
            },
        )
        .unwrap();
        match os.touch(sim, VirtAddr::new(0x7000)).unwrap() {
            Touch::Ok {
                registered: Some(VmEvent::PageRegistered { tid, vpn, .. }),
                ..
            } => {
                assert_eq!(tid, sim);
                assert_eq!(vpn, 7);
            }
            other => panic!("expected registration, got {other:?}"),
        }
        // Second touch of the same page: no new event.
        assert!(matches!(
            os.touch(sim, VirtAddr::new(0x7004)).unwrap(),
            Touch::Ok {
                registered: None,
                ..
            }
        ));
    }

    #[test]
    fn enabling_simulation_registers_existing_pages() {
        let mut os = os();
        let t = os.spawn_user().unwrap();
        os.touch(t, VirtAddr::new(0x1000)).unwrap();
        os.touch(t, VirtAddr::new(0x2000)).unwrap();
        let events = os
            .tw_attributes(
                t,
                TapewormAttrs {
                    simulate: true,
                    inherit: false,
                },
            )
            .unwrap();
        assert_eq!(events.len(), 2);
        // Turning it off removes them again.
        let events = os.tw_attributes(t, TapewormAttrs::default()).unwrap();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], VmEvent::PageRemoved { .. }));
    }

    #[test]
    fn kernel_attributes_work_with_tid_zero() {
        let mut os = os();
        // (simulate=1, inherit=0) "is useful for registering kernel
        // pages with Tapeworm" (§3.2).
        os.tw_attributes(
            Tid::KERNEL,
            TapewormAttrs {
                simulate: true,
                inherit: false,
            },
        )
        .unwrap();
        assert!(os.is_simulated(Tid::KERNEL));
        match os.touch(Tid::KERNEL, VirtAddr::new(0x8000)).unwrap() {
            Touch::Ok {
                registered: Some(_),
                ..
            } => {}
            other => panic!("kernel pages must register, got {other:?}"),
        }
    }

    #[test]
    fn exit_emits_removals_for_simulated_tasks_only() {
        let mut os = os();
        let t = os.spawn_user().unwrap();
        os.tw_attributes(
            t,
            TapewormAttrs {
                simulate: true,
                inherit: false,
            },
        )
        .unwrap();
        os.touch(t, VirtAddr::new(0x1000)).unwrap();
        let events = os.exit(t).unwrap();
        assert_eq!(events.len(), 1);

        let u = os.spawn_user().unwrap();
        os.touch(u, VirtAddr::new(0x1000)).unwrap();
        assert!(os.exit(u).unwrap().is_empty());
    }

    #[test]
    fn page_trap_surfaces_through_touch() {
        let mut os = os();
        let t = os.spawn_user().unwrap();
        os.touch(t, VirtAddr::new(0x3000)).unwrap();
        os.vm_mut().set_valid(t, 3, false);
        assert!(matches!(
            os.touch(t, VirtAddr::new(0x3000)).unwrap(),
            Touch::PageTrap { .. }
        ));
    }

    #[test]
    fn fork_inherits_through_the_facade() {
        let mut os = os();
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
        assert!(!os.is_simulated(shell));
    }
}
