//! Connection grouping and the priority-based scheduler (§3.2).
//!
//! The scheduler partitions connected clients into groups served
//! round-robin. In *dynamic* mode it tracks, per client, the throughput
//! `T_i` and mean request size `S_i` of the last served slice, computes
//! the priority `P_i = T_i / S_i`, and:
//!
//! - co-locates clients of the same priority class in the same group
//!   ("squeezing the shared time wasted by those idle clients to serve
//!   the busy ones");
//! - gives higher-priority groups *fewer clients and longer slices*;
//! - lazily splits or merges groups whose size leaves
//!   `[1/2, 3/2] ×` the default group size as clients log in and out.

use rpc_core::cluster::ClientId;
use simcore::SimDuration;

/// Per-client performance record for one served slice.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// Requests served in the client's last slice (`T_i`, up to a common
    /// time normalization that cancels in the comparison).
    pub ops: u64,
    /// Total request bytes in that slice (for `S_i = bytes / ops`).
    pub bytes: u64,
}

impl ClientStats {
    /// The priority `P_i = T_i / S_i`: clients that post small requests
    /// frequently rank highest. Idle clients rank 0.
    pub fn priority(&self) -> f64 {
        if self.ops == 0 || self.bytes == 0 {
            0.0
        } else {
            let s = self.bytes as f64 / self.ops as f64;
            self.ops as f64 / s
        }
    }
}

/// A group assignment: members plus the slice each group receives.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupPlan {
    /// Group memberships, in serving order.
    pub groups: Vec<Vec<ClientId>>,
    /// Time slice per group (same length as `groups`).
    pub slices: Vec<SimDuration>,
}

impl GroupPlan {
    /// The group index containing `client`, if any.
    pub fn group_of(&self, client: ClientId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&client))
    }

    /// Total clients across groups.
    pub fn client_count(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }
}

/// The grouping policy.
#[derive(Clone, Debug)]
pub struct Scheduler {
    /// Default group size (`g`).
    pub default_group: usize,
    /// Base time slice.
    pub base_slice: SimDuration,
    /// Whether priority-based (dynamic) scheduling is enabled.
    pub dynamic: bool,
    /// Per-client tenant tags. Empty (the default) reproduces the
    /// single-tenant grouping bit-exactly; when set (one tag per
    /// client), no group ever mixes clients of different tenants — the
    /// per-tenant group cap defense against noisy neighbors.
    pub tenants: Vec<u32>,
}

impl Scheduler {
    /// Creates a scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `default_group` is zero.
    pub fn new(default_group: usize, base_slice: SimDuration, dynamic: bool) -> Self {
        assert!(default_group > 0, "group size must be positive");
        Scheduler {
            default_group,
            base_slice,
            dynamic,
            tenants: Vec::new(),
        }
    }

    /// Enables tenant-isolated grouping with one tag per client.
    pub fn with_tenants(mut self, tenants: Vec<u32>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Splits one tier's clients into the units grouping may not cross:
    /// the whole tier when single-tenant, otherwise one partition per
    /// tenant (ascending tag order, input order preserved inside each —
    /// priority order in dynamic mode).
    fn partitions(&self, ids: &[ClientId]) -> Vec<Vec<ClientId>> {
        if self.tenants.is_empty() {
            return vec![ids.to_vec()];
        }
        assert!(
            ids.iter().all(|&c| c < self.tenants.len()),
            "tenant list shorter than client population"
        );
        let mut tags: Vec<u32> = ids.iter().map(|&c| self.tenants[c]).collect();
        tags.sort_unstable();
        tags.dedup();
        tags.iter()
            .map(|&t| {
                ids.iter()
                    .copied()
                    .filter(|&c| self.tenants[c] == t)
                    .collect()
            })
            .collect()
    }

    /// Chunks one tier into groups of at most `size`, never crossing a
    /// tenant partition.
    fn tier_chunks(&self, ids: &[ClientId], size: usize) -> Vec<Vec<ClientId>> {
        self.partitions(ids)
            .iter()
            .flat_map(|p| chunk(p, size))
            .collect()
    }

    /// Like [`tier_chunks`](Self::tier_chunks) but with the lazy
    /// split/merge size band applied inside each partition, so band
    /// merges cannot fuse two tenants either.
    fn banded_tier(&self, ids: &[ClientId], size: usize) -> Vec<Vec<ClientId>> {
        self.partitions(ids)
            .iter()
            .flat_map(|p| enforce_size_band(chunk(p, size), self.default_group))
            .collect()
    }

    /// Builds the initial plan for `clients` connected clients (no stats
    /// yet): contiguous groups of the default size, uniform slices
    /// (split per tenant when isolation is on).
    pub fn initial_plan(&self, clients: usize) -> GroupPlan {
        let ids: Vec<ClientId> = (0..clients).collect();
        let groups = self.tier_chunks(&ids, self.default_group);
        let slices = vec![self.base_slice; groups.len()];
        GroupPlan { groups, slices }
    }

    /// Rebuilds the plan from observed per-client stats.
    ///
    /// Static mode reproduces [`initial_plan`](Self::initial_plan).
    /// Dynamic mode sorts clients by priority and forms two tiers: the
    /// busy half gets slightly smaller groups with 1.25× slices, the idle
    /// half slightly larger groups with 0.75× slices — wasting less
    /// shared time on clients that rarely post.
    pub fn replan(&self, stats: &[ClientStats]) -> GroupPlan {
        if !self.dynamic {
            return self.initial_plan(stats.len());
        }
        let mut order: Vec<ClientId> = (0..stats.len()).collect();
        order.sort_by(|&a, &b| {
            stats[b]
                .priority()
                .partial_cmp(&stats[a].priority())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        // Tier boundary: clients above ~60 % of the mean priority are
        // "busy". A value threshold adapts to the skew better than a
        // fixed median split (a heavy-tailed mix may have many more or
        // fewer than half its clients hot).
        let mean_p: f64 =
            stats.iter().map(ClientStats::priority).sum::<f64>() / stats.len().max(1) as f64;
        let threshold = mean_p * 0.6;
        let split = order
            .iter()
            .position(|&c| stats[c].priority() < threshold)
            .unwrap_or(order.len());
        let split = split.clamp(1.min(order.len()), order.len());
        let busy = &order[..split];
        let idle = &order[split..];
        // Busy tier: smaller groups, longer slices (within the legal
        // [g/2, 3g/2] band); idle tier: the reverse.
        // Busy tier: default-size groups with 1.5x slices (saturate the
        // NIC, spend more of the rotation on the busy clients); idle
        // tier: 1.5x-size groups with 0.5x slices (their staged batches
        // drain quickly, so don't let them hold the server).
        let busy_size = self.default_group.max(1);
        let idle_size = (self.default_group * 3 / 2).max(1);
        // Enforce the size band within each tier so merges never mix a
        // busy group into an idle one (their slices differ), and within
        // each tenant partition so they never mix tenants.
        let busy_groups = self.banded_tier(busy, busy_size);
        let idle_groups = self.banded_tier(idle, idle_size);
        let n_busy = busy_groups.len();
        let mut groups = busy_groups;
        groups.extend(idle_groups);
        let slices = (0..groups.len())
            .map(|i| {
                if i < n_busy {
                    self.base_slice * 3 / 2
                } else {
                    self.base_slice / 2
                }
            })
            .collect();
        GroupPlan { groups, slices }
    }
}

/// Splits `ids` into contiguous chunks of at most `size`.
fn chunk(ids: &[ClientId], size: usize) -> Vec<Vec<ClientId>> {
    ids.chunks(size.max(1)).map(<[ClientId]>::to_vec).collect()
}

/// Enforces the paper's lazy split/merge rule: any group outside
/// `[g/2, 3g/2]` is adjusted — oversized groups split, undersized groups
/// merge into a neighbour (then re-split if the merge overshoots).
pub fn enforce_size_band(groups: Vec<Vec<ClientId>>, g: usize) -> Vec<Vec<ClientId>> {
    let lo = (g / 2).max(1);
    let hi = (g * 3 / 2).max(1);
    // First merge undersized groups left-to-right.
    let mut merged: Vec<Vec<ClientId>> = Vec::new();
    for group in groups {
        if group.is_empty() {
            continue;
        }
        match merged.last_mut() {
            Some(last) if group.len() < lo || last.len() < lo => {
                last.extend(group);
            }
            _ => merged.push(group),
        }
    }
    // Then split oversized ones.
    let mut out = Vec::new();
    for group in merged {
        if group.len() > hi {
            let parts = group.len().div_ceil(g);
            let per = group.len().div_ceil(parts);
            for part in group.chunks(per) {
                out.push(part.to_vec());
            }
        } else {
            out.push(group);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(dynamic: bool) -> Scheduler {
        Scheduler::new(40, SimDuration::micros(100), dynamic)
    }

    #[test]
    fn initial_plan_chunks_evenly() {
        let p = sched(false).initial_plan(120);
        assert_eq!(p.groups.len(), 3);
        assert!(p.groups.iter().all(|g| g.len() == 40));
        assert_eq!(p.client_count(), 120);
        assert_eq!(p.slices.len(), 3);
        assert!(p.slices.iter().all(|&s| s == SimDuration::micros(100)));
    }

    #[test]
    fn every_client_lands_in_exactly_one_group() {
        let stats = vec![ClientStats { ops: 5, bytes: 160 }; 100];
        for dynamic in [false, true] {
            let p = sched(dynamic).replan(&stats);
            let mut seen = std::collections::BTreeSet::new();
            for g in &p.groups {
                for &c in g {
                    assert!(seen.insert(c), "client {c} appears twice");
                }
            }
            assert_eq!(seen.len(), 100);
        }
    }

    #[test]
    fn priority_ranks_small_frequent_clients_highest() {
        let busy = ClientStats {
            ops: 1000,
            bytes: 32_000,
        }; // 32 B requests, many
        let bulky = ClientStats {
            ops: 1000,
            bytes: 4_096_000,
        }; // 4 KB requests
        let idle = ClientStats { ops: 0, bytes: 0 };
        assert!(busy.priority() > bulky.priority());
        assert!(bulky.priority() > idle.priority());
    }

    #[test]
    fn dynamic_plan_groups_by_priority_tier() {
        // Clients 0..50 busy, 50..100 idle.
        let mut stats = vec![
            ClientStats {
                ops: 1000,
                bytes: 32_000
            };
            50
        ];
        stats.extend(vec![ClientStats { ops: 1, bytes: 32 }; 50]);
        let p = sched(true).replan(&stats);
        // The first group must consist of busy clients only.
        assert!(p.groups[0].iter().all(|&c| c < 50), "{:?}", p.groups[0]);
        // Busy groups get longer slices than idle groups.
        let first = p.slices[0];
        let last = *p.slices.last().unwrap();
        assert!(first > last, "busy {first} !> idle {last}");
    }

    #[test]
    fn static_mode_ignores_stats() {
        let mut stats = vec![ClientStats { ops: 0, bytes: 0 }; 80];
        stats[79] = ClientStats {
            ops: 9999,
            bytes: 9999,
        };
        let p = sched(false).replan(&stats);
        assert_eq!(p, sched(false).initial_plan(80));
    }

    #[test]
    fn size_band_merges_small_groups() {
        let groups = vec![vec![0, 1], vec![2, 3], vec![4, 5, 6]];
        let out = enforce_size_band(groups, 8); // band [4, 12]
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 7);
    }

    #[test]
    fn size_band_splits_oversized_groups() {
        let big: Vec<ClientId> = (0..30).collect();
        let out = enforce_size_band(vec![big], 8); // band [4, 12]
        assert!(out.len() >= 3);
        assert!(out.iter().all(|g| g.len() <= 12 && g.len() >= 4), "{out:?}");
        assert_eq!(out.iter().map(Vec::len).sum::<usize>(), 30);
    }

    #[test]
    fn size_band_keeps_legal_groups_untouched() {
        let groups = vec![(0..8).collect::<Vec<_>>(), (8..16).collect()];
        let out = enforce_size_band(groups.clone(), 8);
        assert_eq!(out, groups);
    }

    #[test]
    fn tenant_isolation_never_mixes_tenants() {
        // Tenants interleaved 0,1,0,1,... across 60 clients.
        let tenants: Vec<u32> = (0..60).map(|c| (c % 2) as u32).collect();
        let s = Scheduler::new(8, SimDuration::micros(100), true).with_tenants(tenants.clone());
        let plan = s.initial_plan(60);
        assert_eq!(plan.client_count(), 60);
        for g in &plan.groups {
            let t0 = tenants[g[0]];
            assert!(g.iter().all(|&c| tenants[c] == t0), "mixed group {g:?}");
        }
        // Dynamic replan with skewed stats keeps the property.
        let mut stats = vec![ClientStats { ops: 1, bytes: 32 }; 60];
        for c in (0..60).step_by(3) {
            stats[c] = ClientStats {
                ops: 1000,
                bytes: 32_000,
            };
        }
        let plan = s.replan(&stats);
        assert_eq!(plan.client_count(), 60);
        for g in &plan.groups {
            let t0 = tenants[g[0]];
            assert!(g.iter().all(|&c| tenants[c] == t0), "mixed group {g:?}");
        }
    }

    #[test]
    fn empty_tenants_reproduce_untenanted_plans() {
        let stats = vec![ClientStats { ops: 5, bytes: 160 }; 100];
        for dynamic in [false, true] {
            let a = sched(dynamic).replan(&stats);
            let b = sched(dynamic).with_tenants(Vec::new()).replan(&stats);
            assert_eq!(a, b);
            assert_eq!(
                sched(dynamic).initial_plan(100),
                sched(dynamic).with_tenants(Vec::new()).initial_plan(100)
            );
        }
    }

    #[test]
    fn group_of_finds_membership() {
        let p = sched(false).initial_plan(90);
        assert_eq!(p.group_of(0), Some(0));
        assert_eq!(p.group_of(45), Some(1));
        assert_eq!(p.group_of(89), Some(2));
        assert_eq!(p.group_of(90), None);
    }
}
