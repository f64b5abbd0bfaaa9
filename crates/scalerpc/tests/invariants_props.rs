//! Property tests on ScaleRPC's scheduling and pool invariants.

use rpc_core::BlockPool;
use scalerpc::scheduler::{enforce_size_band, ClientStats, Scheduler};
use simcore::{check_cases, SimDuration};

/// Every replan is a partition: each client in exactly one group, no
/// empty groups, one slice per group.
#[test]
fn replan_partitions_clients() {
    check_cases("replan_partitions_clients", |rng| {
        let n = rng.between(1, 299) as usize;
        let g = rng.between(1, 63) as usize;
        let dynamic = rng.chance(0.5);
        let stats: Vec<ClientStats> = (0..n)
            .map(|_| {
                let ops = rng.below(1000);
                ClientStats {
                    ops,
                    bytes: ops * (32 + rng.below(4096)),
                }
            })
            .collect();
        let sched = Scheduler::new(g, SimDuration::micros(100), dynamic);
        let plan = sched.replan(&stats);
        assert_eq!(plan.slices.len(), plan.groups.len());
        assert!(plan.groups.iter().all(|grp| !grp.is_empty()));
        let mut seen = std::collections::BTreeSet::new();
        for grp in &plan.groups {
            for &c in grp {
                assert!(c < n);
                assert!(seen.insert(c), "client {c} in two groups");
            }
        }
        assert_eq!(seen.len(), n);
        for &s in &plan.slices {
            assert!(s > SimDuration::ZERO);
        }
    });
}

/// The split/merge band preserves membership and bounds group sizes
/// (the last group may stay small when there is nothing to merge it
/// into).
#[test]
fn size_band_preserves_members() {
    check_cases("size_band_preserves_members", |rng| {
        let sizes = rng.vec(1..12, |r| r.between(1, 119) as usize);
        let g = rng.between(2, 63) as usize;
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
            assert!(grp.len() <= hi, "group of {} exceeds 3g/2={hi}", grp.len());
            for &c in grp {
                assert!(seen.insert(c));
            }
        }
        assert_eq!(seen.len(), total);
    });
}

/// Pool geometry: offsets are disjoint, block-aligned, in bounds,
/// and `locate` inverts `offset` for every byte of the block.
#[test]
fn vpool_offsets_invert() {
    check_cases("vpool_offsets_invert", |rng| {
        let zones = rng.between(1, 19) as usize;
        let slots = rng.between(1, 15) as usize;
        let shift = rng.below(64) as usize;
        let block = 128usize;
        let p = BlockPool::new(zones, slots, block);
        for z in 0..zones {
            for s in 0..slots {
                let off = p.offset(z, s);
                assert_eq!(off % block, 0);
                assert!(off + block <= p.bytes());
                assert_eq!(p.locate(off + shift % block), Some((z, s)));
            }
        }
        assert_eq!(p.locate(p.bytes()), None);
    });
}

/// Priorities are monotone: more ops at the same request size never
/// lowers a client's priority; bigger requests at the same op count
/// never raise it.
#[test]
fn priority_monotonicity() {
    check_cases("priority_monotonicity", |rng| {
        let ops = rng.between(1, 9_999);
        let size = rng.between(1, 4095);
        let base = ClientStats {
            ops,
            bytes: ops * size,
        };
        let more_ops = ClientStats {
            ops: ops * 2,
            bytes: ops * 2 * size,
        };
        let bigger = ClientStats {
            ops,
            bytes: ops * size * 2,
        };
        assert!(more_ops.priority() >= base.priority());
        assert!(bigger.priority() <= base.priority());
    });
}
