//! The in-memory address trace: Pixie fills it, Cache2000 replays it.

use tapeworm_mem::VirtAddr;

/// An in-memory instruction address trace.
///
/// # Examples
///
/// ```
/// use tapeworm_trace::Trace;
/// use tapeworm_mem::VirtAddr;
///
/// let mut t = Trace::new();
/// t.push(VirtAddr::new(0x1000));
/// t.push(VirtAddr::new(0x1004));
/// assert_eq!(t.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    addrs: Vec<u64>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends one fetched address.
    pub fn push(&mut self, va: VirtAddr) {
        self.addrs.push(va.raw());
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// `true` when the trace holds no references.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Iterates over the addresses in order.
    pub fn iter(&self) -> impl Iterator<Item = VirtAddr> + '_ {
        self.addrs.iter().map(|&a| VirtAddr::new(a))
    }
}

impl FromIterator<VirtAddr> for Trace {
    fn from_iter<I: IntoIterator<Item = VirtAddr>>(iter: I) -> Self {
        Trace {
            addrs: iter.into_iter().map(|a| a.raw()).collect(),
        }
    }
}

impl Extend<VirtAddr> for Trace {
    fn extend<I: IntoIterator<Item = VirtAddr>>(&mut self, iter: I) {
        self.addrs.extend(iter.into_iter().map(|a| a.raw()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extend_and_iter() {
        let mut t = Trace::new();
        t.extend([VirtAddr::new(1), VirtAddr::new(2)]);
        let got: Vec<u64> = t.iter().map(|a| a.raw()).collect();
        assert_eq!(got, vec![1, 2]);
        assert!(Trace::new().is_empty());
    }
}
