//! Property tests for the deterministic event queue: the foundation the
//! whole reproduction's determinism rests on.

use simcore::{check_cases, EventQueue, SimTime};

/// Events pop in nondecreasing time order, and equal-time events pop
/// in insertion order.
#[test]
fn pops_sorted_with_fifo_ties() {
    check_cases("pops_sorted_with_fifo_ties", |rng| {
        let times = rng.vec(1..300, |r| r.below(1000));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some((t, idx)) = q.pop() {
            popped += 1;
            assert_eq!(SimTime(times[idx]), t, "event payload matches its time");
            if let Some((lt, lidx)) = last {
                assert!(t >= lt, "time order violated");
                if t == lt {
                    assert!(idx > lidx, "FIFO tie-break violated");
                }
            }
            last = Some((t, idx));
        }
        assert_eq!(popped, times.len());
    });
}

/// Cancellation removes exactly the cancelled events.
#[test]
fn cancellation_is_exact() {
    check_cases("cancellation_is_exact", |rng| {
        let times = rng.vec(1..200, |r| r.below(1000));
        let cancel_mask = rng.vec(1..200, |r| r.chance(0.5));
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.push(SimTime(t), i)))
            .collect();
        let mut cancelled = std::collections::BTreeSet::new();
        for ((i, id), &c) in ids
            .iter()
            .zip(cancel_mask.iter().chain(std::iter::repeat(&false)))
        {
            if c {
                q.cancel(*id);
                cancelled.insert(*i);
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        while let Some((_, idx)) = q.pop() {
            assert!(!cancelled.contains(&idx), "cancelled event {idx} popped");
            seen.insert(idx);
        }
        for i in 0..times.len() {
            assert_eq!(seen.contains(&i), !cancelled.contains(&i), "event {i}");
        }
    });
}

/// Interleaved push/pop never goes back in time and `now()` is
/// monotone.
#[test]
fn now_is_monotone_under_interleaving() {
    check_cases("now_is_monotone_under_interleaving", |rng| {
        let script = rng.vec(1..300, |r| (r.below(1000), r.chance(0.5)));
        let mut q = EventQueue::new();
        let mut last_now = SimTime::ZERO;
        for (delta, do_pop) in script {
            // Always schedule relative to `now` so pushes stay legal.
            let t = SimTime(q.now().as_nanos() + delta);
            q.push(t, ());
            if do_pop {
                if let Some((t, ())) = q.pop() {
                    assert!(t >= last_now);
                    assert_eq!(q.now(), t);
                    last_now = t;
                }
            }
        }
    });
}
