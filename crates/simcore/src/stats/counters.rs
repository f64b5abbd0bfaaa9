//! Named monotonic counters, as reports read them.
//!
//! The simulated analogue of Intel PCM hardware counters (`PCIeRdCur`,
//! `ItoM`, `PCIeItoM`, …): experiments snapshot and diff a
//! [`CounterSet`] to reproduce Fig. 3 and Fig. 10. This is the *view*
//! side only. Nothing on the per-event path should key a counter by
//! string: a lookup here is a binary search of `str` compares, and a
//! simulated packet bumps about ten counters. Producers count in a
//! typed array (the fabric's `Counter` enum) and build a `CounterSet`
//! when a report, sampler or test asks for one.

/// A set of named `u64` counters with snapshot/delta support.
///
/// Stored as a name-sorted vector, so iteration (and therefore report
/// output) is deterministically ordered and only counters that were
/// ever added to — even by zero — are listed.
///
/// # Examples
///
/// ```
/// use simcore::stats::CounterSet;
///
/// let mut c = CounterSet::new();
/// c.add("PCIeRdCur", 3);
/// let snap = c.snapshot();
/// c.add("PCIeRdCur", 2);
/// assert_eq!(c.get("PCIeRdCur"), 5);
/// assert_eq!(c.delta_since(&snap).get("PCIeRdCur"), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSet {
    /// `(name, value)` pairs sorted by name.
    values: Vec<(&'static str, u64)>,
}

impl CounterSet {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the named counter, creating it at zero if absent.
    pub fn add(&mut self, name: &'static str, n: u64) {
        match self.values.binary_search_by(|(k, _)| (*k).cmp(name)) {
            Ok(i) => self.values[i].1 += n,
            Err(i) => self.values.insert(i, (name, n)),
        }
    }

    /// Increments the named counter by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Reads a counter (0 if it was never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.values
            .binary_search_by(|(k, _)| (*k).cmp(name))
            .map(|i| self.values[i].1)
            .unwrap_or(0)
    }

    /// Takes an immutable snapshot of all current values.
    pub fn snapshot(&self) -> CounterSet {
        self.clone()
    }

    /// Computes `self - snapshot` per counter (saturating, though counters
    /// are monotone so underflow indicates a bug elsewhere).
    pub fn delta_since(&self, snapshot: &CounterSet) -> CounterSet {
        CounterSet {
            values: self
                .values
                .iter()
                .map(|&(name, v)| (name, v.saturating_sub(snapshot.get(name))))
                .collect(),
        }
    }

    /// Merges another counter set into this one (summing).
    pub fn merge(&mut self, other: &CounterSet) {
        for &(name, v) in &other.values {
            self.add(name, v);
        }
    }

    /// Iterates `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.values.iter().copied()
    }

    /// True when no counter has been touched.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_counter_reads_zero() {
        let c = CounterSet::new();
        assert_eq!(c.get("nope"), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn add_and_inc_accumulate() {
        let mut c = CounterSet::new();
        c.inc("a");
        c.add("a", 4);
        c.inc("b");
        assert_eq!(c.get("a"), 5);
        assert_eq!(c.get("b"), 1);
    }

    #[test]
    fn delta_since_snapshot() {
        let mut c = CounterSet::new();
        c.add("x", 10);
        let snap = c.snapshot();
        c.add("x", 7);
        c.add("y", 3);
        let d = c.delta_since(&snap);
        assert_eq!(d.get("x"), 7);
        assert_eq!(d.get("y"), 3);
    }

    #[test]
    fn merge_sums() {
        let mut a = CounterSet::new();
        a.add("k", 1);
        let mut b = CounterSet::new();
        b.add("k", 2);
        b.add("m", 5);
        a.merge(&b);
        assert_eq!(a.get("k"), 3);
        assert_eq!(a.get("m"), 5);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut c = CounterSet::new();
        c.inc("zz");
        c.inc("aa");
        c.inc("mm");
        let names: Vec<_> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["aa", "mm", "zz"]);
    }
}
