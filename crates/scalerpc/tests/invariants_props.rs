//! Property tests on ScaleRPC's scheduling and pool invariants.

use proptest::prelude::*;
use rpc_core::BlockPool;
use scalerpc::scheduler::{enforce_size_band, ClientStats, Scheduler};
use simcore::SimDuration;

proptest! {
    /// Every replan is a partition: each client in exactly one group, no
    /// empty groups, one slice per group.
    #[test]
    fn replan_partitions_clients(
        n in 1usize..300,
        g in 1usize..64,
        dynamic: bool,
        seed: u64,
    ) {
        let mut rng = simcore::DetRng::new(seed);
        let stats: Vec<ClientStats> = (0..n)
            .map(|_| {
                let ops = rng.below(1000);
                ClientStats { ops, bytes: ops * (32 + rng.below(4096)) }
            })
            .collect();
        let sched = Scheduler::new(g, SimDuration::micros(100), dynamic);
        let plan = sched.replan(&stats);
        prop_assert_eq!(plan.slices.len(), plan.groups.len());
        prop_assert!(plan.groups.iter().all(|grp| !grp.is_empty()));
        let mut seen = std::collections::BTreeSet::new();
        for grp in &plan.groups {
            for &c in grp {
                prop_assert!(c < n);
                prop_assert!(seen.insert(c), "client {} in two groups", c);
            }
        }
        prop_assert_eq!(seen.len(), n);
        for &s in &plan.slices {
            prop_assert!(s > SimDuration::ZERO);
        }
    }

    /// The split/merge band preserves membership and bounds group sizes
    /// (the last group may stay small when there is nothing to merge it
    /// into).
    #[test]
    fn size_band_preserves_members(
        sizes in proptest::collection::vec(1usize..120, 1..12),
        g in 2usize..64,
    ) {
        let mut next = 0usize;
        let groups: Vec<Vec<usize>> = sizes
            .iter()
            .map(|&s| {
                let grp: Vec<usize> = (next..next + s).collect();
                next += s;
                grp
            })
            .collect();
        let total: usize = sizes.iter().sum();
        let out = enforce_size_band(groups, g);
        let hi = (g * 3 / 2).max(1);
        let mut seen = std::collections::BTreeSet::new();
        for grp in &out {
            prop_assert!(grp.len() <= hi, "group of {} exceeds 3g/2={}", grp.len(), hi);
            for &c in grp {
                prop_assert!(seen.insert(c));
            }
        }
        prop_assert_eq!(seen.len(), total);
    }

    /// Pool geometry: offsets are disjoint, block-aligned, in bounds,
    /// and `locate` inverts `offset` for every byte of the block.
    #[test]
    fn vpool_offsets_invert(zones in 1usize..20, slots in 1usize..16, shift in 0usize..64) {
        let block = 128usize;
        let p = BlockPool::new(zones, slots, block);
        for z in 0..zones {
            for s in 0..slots {
                let off = p.offset(z, s);
                prop_assert_eq!(off % block, 0);
                prop_assert!(off + block <= p.bytes());
                prop_assert_eq!(p.locate(off + shift % block), Some((z, s)));
            }
        }
        prop_assert_eq!(p.locate(p.bytes()), None);
    }

    /// Priorities are monotone: more ops at the same request size never
    /// lowers a client's priority; bigger requests at the same op count
    /// never raise it.
    #[test]
    fn priority_monotonicity(ops in 1u64..10_000, size in 1u64..4096) {
        let base = ClientStats { ops, bytes: ops * size };
        let more_ops = ClientStats { ops: ops * 2, bytes: ops * 2 * size };
        let bigger = ClientStats { ops, bytes: ops * size * 2 };
        prop_assert!(more_ops.priority() >= base.priority());
        prop_assert!(bigger.priority() <= base.priority());
    }
}
