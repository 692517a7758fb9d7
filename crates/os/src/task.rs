//! Tasks, task IDs and Tapeworm attributes.

use std::error::Error;
use std::fmt;

use tapeworm_machine::Component;

/// A task identifier. `Tid::KERNEL` (zero) denotes the kernel itself,
/// matching the paper's convention that "a `tid` of zero signifies the
/// kernel" in `tw_attributes` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tid(u16);

impl Tid {
    /// The kernel pseudo-task.
    pub const KERNEL: Tid = Tid(0);

    /// Wraps a raw task id.
    pub const fn new(raw: u16) -> Self {
        Tid(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// `true` for the kernel pseudo-task.
    pub const fn is_kernel(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_kernel() {
            f.write_str("kernel")
        } else {
            write!(f, "tid{}", self.0)
        }
    }
}

/// The Tapeworm per-task attribute pair (paper §3.2, `tw_attributes`).
///
/// * `simulate` — all current and future pages touched by the task are
///   registered with Tapeworm.
/// * `inherit` — the initial value of `simulate` (and of `inherit`) for
///   children created by fork.
///
/// The two canonical settings from the paper:
/// `(simulate=0, inherit=1)` on a shell captures a whole workload fork
/// tree while excluding the shell itself; `(simulate=1, inherit=0)`
/// captures one task (e.g. the kernel) without its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TapewormAttrs {
    /// Register this task's pages with Tapeworm.
    pub simulate: bool,
    /// Initial `simulate`/`inherit` value for forked children.
    pub inherit: bool,
}

impl TapewormAttrs {
    /// The attribute pair a forked child receives (paper §3.2):
    /// `child.simulate ← parent.inherit`, `child.inherit ← parent.inherit`.
    pub fn child_attrs(self) -> TapewormAttrs {
        TapewormAttrs {
            simulate: self.inherit,
            inherit: self.inherit,
        }
    }
}

/// A task: identity, lineage, measurement component and Tapeworm
/// attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    tid: Tid,
    parent: Option<Tid>,
    component: Component,
    /// Tapeworm attributes, stored "in an extended version of the OS
    /// task data structure" (§3.2).
    pub attrs: TapewormAttrs,
    alive: bool,
}

impl Task {
    /// The task's id.
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// The forking parent, `None` for boot-time tasks.
    pub fn parent(&self) -> Option<Tid> {
        self.parent
    }

    /// The measurement component this task belongs to.
    pub fn component(&self) -> Component {
        self.component
    }
}

/// Task-table operation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskError {
    /// The referenced task does not exist or has exited.
    NoSuchTask(Tid),
    /// The task id space (u16) is exhausted.
    TooManyTasks,
    /// The kernel pseudo-task cannot exit.
    KernelIsImmortal,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::NoSuchTask(tid) => write!(f, "no such task: {tid}"),
            TaskError::TooManyTasks => f.write_str("task id space exhausted"),
            TaskError::KernelIsImmortal => f.write_str("the kernel task cannot exit"),
        }
    }
}

impl Error for TaskError {}

/// The kernel's task table.
///
/// # Examples
///
/// ```
/// use tapeworm_machine::Component;
/// use tapeworm_os::{TapewormAttrs, TaskTable, Tid};
///
/// let mut tasks = TaskTable::new();
/// let shell = tasks.spawn(None, Component::User)?;
/// // Capture the whole workload tree but not the shell itself:
/// tasks.set_attributes(shell, TapewormAttrs { simulate: false, inherit: true })?;
/// let child = tasks.fork(shell)?;
/// assert!(tasks.get(child)?.attrs.simulate);
/// assert!(!tasks.get(shell)?.attrs.simulate);
/// # Ok::<(), tapeworm_os::TaskError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskTable {
    tasks: Vec<Task>,
    created: u64,
}

impl TaskTable {
    /// Creates a table containing only the kernel pseudo-task.
    pub fn new() -> Self {
        TaskTable {
            tasks: vec![Task {
                tid: Tid::KERNEL,
                parent: None,
                component: Component::Kernel,
                attrs: TapewormAttrs::default(),
                alive: true,
            }],
            created: 0,
        }
    }

    /// Looks up a live task.
    ///
    /// # Errors
    ///
    /// [`TaskError::NoSuchTask`] if the tid is unknown or exited.
    pub fn get(&self, tid: Tid) -> Result<&Task, TaskError> {
        self.tasks
            .iter()
            .find(|t| t.tid == tid && t.alive)
            .ok_or(TaskError::NoSuchTask(tid))
    }

    fn get_mut(&mut self, tid: Tid) -> Result<&mut Task, TaskError> {
        self.tasks
            .iter_mut()
            .find(|t| t.tid == tid && t.alive)
            .ok_or(TaskError::NoSuchTask(tid))
    }

    /// Creates a boot-time task (servers, shells) with default
    /// attributes.
    ///
    /// # Errors
    ///
    /// [`TaskError::TooManyTasks`] when the id space is exhausted.
    pub fn spawn(&mut self, parent: Option<Tid>, component: Component) -> Result<Tid, TaskError> {
        let raw = u16::try_from(self.tasks.len()).map_err(|_| TaskError::TooManyTasks)?;
        let tid = Tid::new(raw);
        self.tasks.push(Task {
            tid,
            parent,
            component,
            attrs: TapewormAttrs::default(),
            alive: true,
        });
        self.created += 1;
        Ok(tid)
    }

    /// Forks `parent`, applying the Tapeworm inheritance rule. The
    /// child joins its parent's component.
    ///
    /// # Errors
    ///
    /// Propagates lookup and id-space errors.
    pub fn fork(&mut self, parent: Tid) -> Result<Tid, TaskError> {
        let (component, attrs) = {
            let p = self.get(parent)?;
            (p.component(), p.attrs.child_attrs())
        };
        let tid = self.spawn(Some(parent), component)?;
        self.get_mut(tid)?.attrs = attrs;
        Ok(tid)
    }

    /// Marks a task exited.
    ///
    /// # Errors
    ///
    /// [`TaskError::KernelIsImmortal`] for the kernel;
    /// [`TaskError::NoSuchTask`] otherwise when absent.
    pub fn exit(&mut self, tid: Tid) -> Result<(), TaskError> {
        if tid.is_kernel() {
            return Err(TaskError::KernelIsImmortal);
        }
        self.get_mut(tid)?.alive = false;
        Ok(())
    }

    /// Sets the Tapeworm attribute pair (`tw_attributes` in Table 1).
    ///
    /// # Errors
    ///
    /// [`TaskError::NoSuchTask`] when the task is absent.
    pub fn set_attributes(&mut self, tid: Tid, attrs: TapewormAttrs) -> Result<(), TaskError> {
        self.get_mut(tid)?.attrs = attrs;
        Ok(())
    }

    /// Iterates over live tasks.
    pub fn iter(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter().filter(|t| t.alive)
    }

    /// Total user tasks ever created (Table 4's "User Task Count"
    /// counts creations, not survivors), excluding boot-time tasks and
    /// the kernel.
    pub fn created(&self) -> u64 {
        self.created
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_exists_at_boot() {
        let t = TaskTable::new();
        let k = t.get(Tid::KERNEL).unwrap();
        assert_eq!(k.component(), Component::Kernel);
        assert!(Tid::KERNEL.is_kernel());
        assert_eq!(Tid::KERNEL.to_string(), "kernel");
    }

    #[test]
    fn inheritance_rule_matches_paper() {
        // (simulate=0, inherit=1) on a shell: children and grandchildren
        // are simulated, the shell is not.
        let mut t = TaskTable::new();
        let shell = t.spawn(None, Component::User).unwrap();
        t.set_attributes(
            shell,
            TapewormAttrs {
                simulate: false,
                inherit: true,
            },
        )
        .unwrap();
        let child = t.fork(shell).unwrap();
        let grandchild = t.fork(child).unwrap();
        assert!(!t.get(shell).unwrap().attrs.simulate);
        assert!(t.get(child).unwrap().attrs.simulate);
        assert!(t.get(child).unwrap().attrs.inherit);
        assert!(t.get(grandchild).unwrap().attrs.simulate);
    }

    #[test]
    fn simulate_without_inherit_stops_at_children() {
        // (simulate=1, inherit=0): only the task itself is simulated.
        let mut t = TaskTable::new();
        let task = t.spawn(None, Component::User).unwrap();
        t.set_attributes(
            task,
            TapewormAttrs {
                simulate: true,
                inherit: false,
            },
        )
        .unwrap();
        let child = t.fork(task).unwrap();
        assert!(t.get(task).unwrap().attrs.simulate);
        assert!(!t.get(child).unwrap().attrs.simulate);
    }

    #[test]
    fn exit_removes_and_kernel_is_immortal() {
        let mut t = TaskTable::new();
        let a = t.spawn(None, Component::User).unwrap();
        t.exit(a).unwrap();
        assert_eq!(t.get(a), Err(TaskError::NoSuchTask(a)));
        assert_eq!(t.exit(Tid::KERNEL), Err(TaskError::KernelIsImmortal));
        assert_eq!(t.exit(a), Err(TaskError::NoSuchTask(a)));
    }

    #[test]
    fn fork_tree_counts_creations() {
        let mut t = TaskTable::new();
        let shell = t.spawn(None, Component::User).unwrap();
        for _ in 0..5 {
            let c = t.fork(shell).unwrap();
            t.exit(c).unwrap();
        }
        // 1 shell + 5 children.
        assert_eq!(t.created(), 6);
        assert_eq!(t.iter().count(), 2); // kernel + shell
    }

    #[test]
    fn children_join_parent_component() {
        let mut t = TaskTable::new();
        let x = t.spawn(None, Component::XServer).unwrap();
        let c = t.fork(x).unwrap();
        assert_eq!(t.get(c).unwrap().component(), Component::XServer);
        assert_eq!(t.get(c).unwrap().parent(), Some(x));
    }

    #[test]
    fn error_messages_are_nonempty() {
        assert!(!TaskError::NoSuchTask(Tid::new(3)).to_string().is_empty());
        assert!(!TaskError::TooManyTasks.to_string().is_empty());
        assert!(!TaskError::KernelIsImmortal.to_string().is_empty());
    }
}
