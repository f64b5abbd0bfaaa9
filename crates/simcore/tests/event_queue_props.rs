//! Property tests for the deterministic event queue: the foundation the
//! whole reproduction's determinism rests on.

use proptest::prelude::*;
use simcore::{EventQueue, SimTime};

proptest! {
    /// Events pop in nondecreasing time order, and equal-time events pop
    /// in insertion order.
    #[test]
    fn pops_sorted_with_fifo_ties(times in proptest::collection::vec(0u64..1000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some((t, idx)) = q.pop() {
            popped += 1;
            prop_assert_eq!(SimTime(times[idx]), t, "event payload matches its time");
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt, "time order violated");
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO tie-break violated");
                }
            }
            last = Some((t, idx));
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Cancellation removes exactly the cancelled events.
    #[test]
    fn cancellation_is_exact(
        times in proptest::collection::vec(0u64..1000, 1..200),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times.iter().enumerate().map(|(i, &t)| (i, q.push(SimTime(t), i))).collect();
        let mut cancelled = std::collections::BTreeSet::new();
        for ((i, id), &c) in ids.iter().zip(cancel_mask.iter().chain(std::iter::repeat(&false))) {
            if c {
                q.cancel(*id);
                cancelled.insert(*i);
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        while let Some((_, idx)) = q.pop() {
            prop_assert!(!cancelled.contains(&idx), "cancelled event {idx} popped");
            seen.insert(idx);
        }
        for i in 0..times.len() {
            prop_assert_eq!(seen.contains(&i), !cancelled.contains(&i), "event {}", i);
        }
    }

    /// Interleaved push/pop never goes back in time and `now()` is
    /// monotone.
    #[test]
    fn now_is_monotone_under_interleaving(
        script in proptest::collection::vec((0u64..1000, any::<bool>()), 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut last_now = SimTime::ZERO;
        for (delta, do_pop) in script {
            // Always schedule relative to `now` so pushes stay legal.
            let t = SimTime(q.now().as_nanos() + delta);
            q.push(t, ());
            if do_pop {
                if let Some((t, ())) = q.pop() {
                    prop_assert!(t >= last_now);
                    prop_assert_eq!(q.now(), t);
                    last_now = t;
                }
            }
        }
    }
}
