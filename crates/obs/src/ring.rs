//! Bounded trap-event ring buffer.
//!
//! Every miss the simulator services is a trap in the Tapeworm
//! methodology, so recording `(cycle, tid, vpn, kind, victim)` per
//! trap turns the simulator's own miss stream into a first-class
//! trace source: [`TrapRing::to_trace`] copies the ring into the
//! [`Trace`] container from `crates/trace`, which the trace-driven
//! tooling can replay like any captured reference stream.
//!
//! The ring is bounded: once `capacity` events are held, the oldest
//! event is overwritten and counted in [`TrapRing::dropped`]. A
//! capacity of zero disables recording entirely — the per-miss guard
//! is a single `Option` test on a path already dominated by the miss
//! simulation itself, which is what keeps the layer zero-cost when
//! off.

use tapeworm_mem::VirtAddr;
use tapeworm_trace::Trace;

/// What kind of trap produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrapKind {
    /// ECC trap on an instruction fetch (I-cache or unified cache miss).
    IFetch,
    /// ECC trap on a data reference (D-cache or unified cache miss).
    Data,
    /// Page-valid-bit trap (TLB miss simulation).
    Tlb,
}

impl TrapKind {
    /// Short stable name, used in debug output and JSON.
    pub fn name(self) -> &'static str {
        match self {
            TrapKind::IFetch => "ifetch",
            TrapKind::Data => "data",
            TrapKind::Tlb => "tlb",
        }
    }
}

/// One recorded trap: which cycle it fired, which task took it, the
/// virtual page that missed, the trap flavour, and the physical line
/// or frame the replacement policy evicted to make room (if any).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrapEvent {
    /// Workload cycle count at the time of the trap.
    pub cycle: u64,
    /// Task id that took the trap.
    pub tid: u16,
    /// Virtual page number of the missing reference.
    pub vpn: u64,
    /// Trap flavour.
    pub kind: TrapKind,
    /// Physical address of the displaced victim line, when the
    /// replacement path evicted one.
    pub victim: Option<u64>,
}

/// Fixed-capacity overwrite-oldest ring of [`TrapEvent`]s.
///
/// # Examples
///
/// ```
/// use tapeworm_obs::{TrapEvent, TrapKind, TrapRing};
///
/// let mut ring = TrapRing::new(2);
/// for cycle in 0..3 {
///     ring.record(TrapEvent {
///         cycle,
///         tid: 1,
///         vpn: cycle,
///         kind: TrapKind::IFetch,
///         victim: None,
///     });
/// }
/// assert_eq!(ring.recorded(), 3);
/// assert_eq!(ring.dropped(), 1);
/// let events = ring.drain();
/// assert_eq!(events.len(), 2);
/// assert_eq!(events[0].cycle, 1); // oldest surviving event first
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrapRing {
    buf: Vec<TrapEvent>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    recorded: u64,
}

impl TrapRing {
    /// A ring holding at most `capacity` events; zero disables it.
    pub fn new(capacity: usize) -> Self {
        TrapRing {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            head: 0,
            recorded: 0,
        }
    }

    /// Whether recording is enabled (non-zero capacity).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one event, overwriting the oldest if full. No-op when
    /// disabled.
    #[inline]
    pub fn record(&mut self, event: TrapEvent) {
        if self.capacity == 0 {
            return;
        }
        self.recorded += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// Iterates held events oldest-first without consuming them.
    pub fn iter(&self) -> impl Iterator<Item = &TrapEvent> + '_ {
        let (wrapped, front) = self.buf.split_at(self.head);
        front.iter().chain(wrapped.iter())
    }

    /// Removes and returns all held events, oldest first. The ring
    /// stays enabled and keeps its lifetime `recorded` total.
    pub fn drain(&mut self) -> Vec<TrapEvent> {
        let events: Vec<TrapEvent> = self.iter().copied().collect();
        self.buf.clear();
        self.head = 0;
        events
    }

    /// Converts the held miss stream into a `crates/trace` address
    /// trace: each event contributes the virtual address of its missing
    /// page (`vpn * page_bytes`), oldest first.
    pub fn to_trace(&self, page_bytes: u64) -> Trace {
        let mut trace = Trace::new();
        for ev in self.iter() {
            trace.push(VirtAddr::new(ev.vpn * page_bytes));
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> TrapEvent {
        TrapEvent {
            cycle,
            tid: (cycle % 7) as u16,
            vpn: cycle * 3,
            kind: if cycle % 2 == 0 {
                TrapKind::IFetch
            } else {
                TrapKind::Data
            },
            victim: if cycle % 3 == 0 {
                Some(cycle * 64)
            } else {
                None
            },
        }
    }

    #[test]
    fn zero_capacity_is_disabled_and_free() {
        let mut ring = TrapRing::new(0);
        assert!(!ring.enabled());
        ring.record(ev(1));
        assert_eq!(ring.recorded(), 0);
        assert!(ring.is_empty());
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn fills_then_overwrites_oldest() {
        let mut ring = TrapRing::new(4);
        assert!(ring.enabled());
        for c in 0..10 {
            ring.record(ev(c));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6);
        let cycles: Vec<u64> = ring.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
    }

    #[test]
    fn drain_returns_oldest_first_and_clears() {
        let mut ring = TrapRing::new(3);
        for c in 0..5 {
            ring.record(ev(c));
        }
        let drained = ring.drain();
        assert_eq!(
            drained.iter().map(|e| e.cycle).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert!(ring.is_empty());
        assert_eq!(ring.recorded(), 5, "lifetime total survives drain");
        // Ring keeps working after a drain.
        ring.record(ev(9));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.iter().next().unwrap().cycle, 9);
    }

    #[test]
    fn exactly_capacity_records_everything_in_order() {
        // The boundary where the ring is full but has not yet wrapped:
        // head must still be 0, nothing dropped, order preserved.
        let mut ring = TrapRing::new(4);
        for c in 0..4 {
            ring.record(ev(c));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.recorded(), 4);
        assert_eq!(ring.dropped(), 0, "exactly-capacity must drop nothing");
        let cycles: Vec<u64> = ring.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2, 3]);
        // The trace holds the same order at the boundary.
        let trace = ring.to_trace(4096);
        let addrs: Vec<u64> = trace.iter().map(|va| va.raw()).collect();
        let expected: Vec<u64> = ring.iter().map(|e| e.vpn * 4096).collect();
        assert_eq!(addrs, expected);
        let drained = ring.drain();
        assert_eq!(drained.iter().map(|e| e.cycle).collect::<Vec<_>>(), cycles);
        assert_eq!(ring.dropped(), 4, "drained events count as gone");
    }

    #[test]
    fn capacity_plus_one_overwrites_exactly_the_oldest() {
        // The first wraparound: one record past capacity must evict
        // event 0 and only event 0, and head must wrap the drain order.
        let mut ring = TrapRing::new(4);
        for c in 0..5 {
            ring.record(ev(c));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 1, "capacity+1 drops exactly one event");
        let cycles: Vec<u64> = ring.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![1, 2, 3, 4], "oldest-first across the wrap");
        // to_trace sees the same wrapped order.
        let trace = ring.to_trace(4096);
        let expected: Vec<u64> = ring.iter().map(|e| e.vpn * 4096).collect();
        assert_eq!(
            trace.iter().map(|va| va.raw()).collect::<Vec<_>>(),
            expected
        );
        // Drain returns the wrapped order and accounting survives.
        let drained = ring.drain();
        assert_eq!(
            drained.iter().map(|e| e.cycle).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        assert_eq!(ring.recorded(), 5, "lifetime total survives the wrap");
        assert!(ring.is_empty());
    }

    #[test]
    fn to_trace_round_trips_page_addresses() {
        let page_bytes = 4096;
        let mut ring = TrapRing::new(8);
        for c in 1..=5 {
            ring.record(ev(c));
        }
        let trace = ring.to_trace(page_bytes);
        assert_eq!(trace.len(), 5);
        let expected: Vec<u64> = ring.iter().map(|e| e.vpn * page_bytes).collect();
        let got: Vec<u64> = trace.iter().map(|va| va.raw()).collect();
        assert_eq!(got, expected);
    }
}
