//! Deterministic cross-shard merge for conservative parallel simulation.
//!
//! The parallel engine splits one logical event loop into *shards*,
//! each owning a private [`EventQueue`](crate::EventQueue) and the
//! mutable state of a subset of simulated nodes. Shards execute a
//! bounded window `[T, T + L)` of virtual time independently, where the
//! lookahead `L` is the modelled minimum cross-node delay: no event a
//! shard schedules on *another* shard can land earlier than `now + L`,
//! so nothing executed inside the window can be invalidated by a
//! not-yet-delivered message (classic conservative synchronization — no
//! rollback machinery, no speculative state).
//!
//! Determinism is stronger than "no data races" here: the golden
//! fingerprint tests require results **bit-identical to the sequential
//! engine**. The sequential queue breaks same-instant ties by a global
//! insertion counter, so the parallel engine must reproduce the exact
//! global push order it never observed. This module is the algebra that
//! reconstructs it:
//!
//! - While a shard executes a window, events it pushes onto itself get
//!   *provisional* keys `PROVISIONAL_BASE + k` (a dense per-window
//!   counter). `PROVISIONAL_BASE` is above any real counter value, so
//!   provisional events sort after all previously-merged events at the
//!   same instant — exactly where fresh pushes sort sequentially.
//!   Within one shard, provisional order equals local push order, which
//!   (by induction over windows) equals the shard-projection of the
//!   sequential push order, so the shard's window execution is
//!   bit-faithful even before final keys are known.
//! - Pushes destined for other shards are buffered, never applied.
//! - At the window barrier, [`sweep`] replays the *merged* pop order of
//!   all shards — a k-way merge by `(time, seq, shard)` — and assigns
//!   final global sequence numbers to every push in that order,
//!   emitting rekey directives for still-pending local events and
//!   delivery directives for buffered cross-shard events.
//!
//! The result is the exact sequence numbering the sequential engine
//! would have produced, independent of thread count or shard topology
//! (see the equivalence proptest at the bottom of this file and
//! DESIGN.md §10).

use crate::time::SimTime;

/// Base for provisional sequence keys handed out inside a window.
///
/// Must exceed every final sequence number a run can allocate; the top
/// bit gives 2^63 final keys (a run popping 10^9 events/s would need
/// ~290 years of wall clock to exhaust them).
pub const PROVISIONAL_BASE: u64 = 1 << 63;

/// One push recorded during a window, in stage order within its pop.
#[derive(Clone, Copy, Debug)]
pub struct PushRec {
    /// Destination shard.
    pub dst: u32,
    /// Scheduled virtual time (used for lookahead checks and cross
    /// deliveries).
    pub time: SimTime,
    /// Local push: the provisional index `k` (seq was
    /// `PROVISIONAL_BASE + k`). Cross push: index into the source
    /// shard's cross-payload buffer for this window.
    pub tag: u32,
    /// True when `dst` differs from the logging shard.
    pub cross: bool,
}

/// One pop recorded during a window. Its `npushes` pushes follow in the
/// flat [`WindowLog::pushes`] vector.
#[derive(Clone, Copy, Debug)]
pub struct PopRec {
    pub time: SimTime,
    /// The popped event's key: final (assigned by an earlier sweep or
    /// at init) or provisional (pushed earlier in this same window).
    pub seq: u64,
    pub npushes: u32,
}

/// Everything one shard did during one window, in execution order.
#[derive(Clone, Debug, Default)]
pub struct WindowLog {
    pub pops: Vec<PopRec>,
    /// Flat push log; each [`PopRec`] owns the next `npushes` entries.
    pub pushes: Vec<PushRec>,
    /// Number of provisional (local) pushes this window; provisional
    /// indices are dense in `0..provisional`.
    pub provisional: u32,
}

impl WindowLog {
    pub fn clear(&mut self) {
        self.pops.clear();
        self.pushes.clear();
        self.provisional = 0;
    }

    pub fn is_empty(&self) -> bool {
        self.pops.is_empty()
    }
}

/// A cross-shard delivery computed by [`sweep`]: push payload
/// `payload_idx` of shard `src`'s cross buffer onto the destination
/// queue at `time` with final key `seq`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    pub src: u32,
    pub payload_idx: u32,
    pub time: SimTime,
    pub seq: u64,
}

/// Per-shard directives produced by one [`sweep`].
#[derive(Clone, Debug, Default)]
pub struct ShardDirectives {
    /// `(provisional index, final seq)` — apply with
    /// [`EventQueue::set_seq`](crate::EventQueue::set_seq); entries for
    /// events already popped inside the window are stale ids and no-op.
    pub rekeys: Vec<(u32, u64)>,
    /// Cross-shard events to enqueue with
    /// [`EventQueue::push_with_seq`](crate::EventQueue::push_with_seq).
    pub deliveries: Vec<Delivery>,
}

/// Output of one window merge.
#[derive(Clone, Debug, Default)]
pub struct SweepOut {
    /// Indexed by shard id.
    pub shards: Vec<ShardDirectives>,
    /// First unallocated global sequence number after this window.
    pub next_seq: u64,
    /// Total pops replayed (equals the sequential engine's pop count
    /// for the same span).
    pub pops: u64,
}

/// Replays the merged pop order of one window and assigns final global
/// sequence numbers to every push, exactly as the sequential engine
/// would have.
///
/// `logs[s]` is shard `s`'s window log; `start_seq` is the global
/// counter after the previous window. The k-way merge orders heads by
/// `(time, resolved seq)`; keys are globally unique so the order is
/// total. A head with a provisional key is always resolvable: its
/// pusher precedes it in the *same* shard's pop log and was therefore
/// already replayed.
///
/// # Panics
///
/// Panics if a provisional key references a push index never assigned —
/// that means a shard's log is internally inconsistent (an engine bug,
/// never a workload property).
pub fn sweep(logs: &[WindowLog], start_seq: u64) -> SweepOut {
    const UNRESOLVED: u64 = u64::MAX;
    let n = logs.len();
    let mut out = SweepOut {
        shards: vec![ShardDirectives::default(); n],
        next_seq: start_seq,
        pops: 0,
    };
    // prov idx → final seq, per shard.
    let mut resolve: Vec<Vec<u64>> = logs
        .iter()
        .map(|l| vec![UNRESOLVED; l.provisional as usize])
        .collect();
    let mut pop_cur = vec![0usize; n];
    let mut push_cur = vec![0usize; n];

    let resolved = |seq: u64, map: &[u64]| -> u64 {
        if seq >= PROVISIONAL_BASE {
            let fin = map[(seq - PROVISIONAL_BASE) as usize];
            assert!(fin != UNRESOLVED, "pop references an unassigned push");
            fin
        } else {
            seq
        }
    };

    loop {
        // Select the shard whose head pop has the smallest (time, seq).
        // Keys are unique, but keep the shard id as a formal tie-break
        // so the order is total by construction.
        let mut best: Option<(SimTime, u64, usize)> = None;
        for s in 0..n {
            let Some(p) = logs[s].pops.get(pop_cur[s]) else {
                continue;
            };
            let key = (p.time, resolved(p.seq, &resolve[s]), s);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let Some((_, _, s)) = best else { break };
        let p = logs[s].pops[pop_cur[s]];
        pop_cur[s] += 1;
        out.pops += 1;
        // Assign final keys to this pop's pushes in stage order — the
        // order the sequential engine would have pushed them.
        for push in &logs[s].pushes[push_cur[s]..push_cur[s] + p.npushes as usize] {
            let fin = out.next_seq;
            out.next_seq += 1;
            if push.cross {
                out.shards[push.dst as usize].deliveries.push(Delivery {
                    src: s as u32,
                    payload_idx: push.tag,
                    time: push.time,
                    seq: fin,
                });
            } else {
                resolve[s][push.tag as usize] = fin;
                out.shards[s].rekeys.push((push.tag, fin));
            }
        }
        push_cur[s] += p.npushes as usize;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;

    fn pop(time: u64, seq: u64, npushes: u32) -> PopRec {
        PopRec {
            time: SimTime(time),
            seq,
            npushes,
        }
    }

    fn local(shard: u32, time: u64, tag: u32) -> PushRec {
        PushRec {
            dst: shard,
            time: SimTime(time),
            tag,
            cross: false,
        }
    }

    fn cross(dst: u32, time: u64, tag: u32) -> PushRec {
        PushRec {
            dst,
            time: SimTime(time),
            tag,
            cross: true,
        }
    }

    #[test]
    fn sweep_assigns_final_seqs_in_merged_pop_order() {
        // Shard 0 pops (t=10, seq=0) pushing one local event; shard 1
        // pops (t=15, seq=1) pushing one cross event to shard 0. The
        // merged order is shard0-then-shard1, so the local push gets
        // seq 100 and the cross push seq 101.
        let logs = vec![
            WindowLog {
                pops: vec![pop(10, 0, 1)],
                pushes: vec![local(0, 40, 0)],
                provisional: 1,
            },
            WindowLog {
                pops: vec![pop(15, 1, 1)],
                pushes: vec![cross(0, 500, 0)],
                provisional: 0,
            },
        ];
        let out = sweep(&logs, 100);
        assert_eq!(out.next_seq, 102);
        assert_eq!(out.pops, 2);
        assert_eq!(out.shards[0].rekeys, vec![(0, 100)]);
        assert_eq!(
            out.shards[0].deliveries,
            vec![Delivery {
                src: 1,
                payload_idx: 0,
                time: SimTime(500),
                seq: 101
            }]
        );
        assert!(out.shards[1].rekeys.is_empty());
        assert!(out.shards[1].deliveries.is_empty());
    }

    #[test]
    fn provisional_pop_resolves_through_its_pusher() {
        // Shard 0: pop A (final seq 7) pushes B locally; B is then
        // popped in the same window. Shard 1 pops an event between the
        // two in time. The merge must interleave 0,1,0 and resolve B's
        // provisional key through A's assignment.
        let logs = vec![
            WindowLog {
                pops: vec![pop(10, 7, 1), pop(30, PROVISIONAL_BASE, 0)],
                pushes: vec![local(0, 30, 0)],
                provisional: 1,
            },
            WindowLog {
                pops: vec![pop(20, 8, 0)],
                pushes: vec![],
                provisional: 0,
            },
        ];
        let out = sweep(&logs, 50);
        // A's push (B) is the first assignment.
        assert_eq!(out.shards[0].rekeys, vec![(0, 50)]);
        assert_eq!(out.pops, 3);
        assert_eq!(out.next_seq, 51);
    }

    #[test]
    fn same_instant_cross_merge_orders_by_final_seq() {
        // Two shards each pop at t=10; the pop with the smaller final
        // seq must be replayed first regardless of shard order.
        let logs = vec![
            WindowLog {
                pops: vec![pop(10, 9, 1)],
                pushes: vec![cross(1, 900, 0)],
                provisional: 0,
            },
            WindowLog {
                pops: vec![pop(10, 3, 1)],
                pushes: vec![cross(0, 900, 0)],
                provisional: 0,
            },
        ];
        let out = sweep(&logs, 20);
        // Shard 1's pop (seq 3) replays first, so its push gets 20.
        assert_eq!(out.shards[0].deliveries[0].seq, 20);
        assert_eq!(out.shards[1].deliveries[0].seq, 21);
    }

    /// Toy windowed engine vs. a plain sequential run.
    ///
    /// The model: `shards` logical processes; an event is `(home shard,
    /// payload)`. Handling payload `p` deterministically derives (via
    /// splitmix) up to three child events, each either local at `now +
    /// small` or remote at `now + delay ≥ LOOKAHEAD`. The sequential
    /// engine runs one queue keyed by global insertion order; the
    /// windowed engine runs per-shard queues with provisional keys and
    /// merges via [`sweep`]. Both must produce the identical global pop
    /// trace `(time, seq, shard, payload)`.
    mod model {
        use super::super::*;
        use crate::event::EventQueue;

        pub const LOOKAHEAD: u64 = 400;

        fn mix(mut x: u64) -> u64 {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        }

        /// Children of an event: derived only from (payload, shard
        /// count), so both engines agree without sharing state. The
        /// branching factor averages 7/8 — subcritical, so every run
        /// quiesces and both engines can be compared to completion.
        pub fn children(
            payload: u64,
            shard: u32,
            shards: u32,
            now: SimTime,
        ) -> Vec<(u32, SimTime, u64)> {
            let h = mix(payload);
            let n = match h % 8 {
                0..=2 => 0,
                3..=5 => 1,
                _ => 2,
            } as usize;
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let hi = mix(h ^ (i as u64 + 1));
                let child = payload.wrapping_mul(31).wrapping_add(i as u64 + 1);
                if hi.is_multiple_of(3) && shards > 1 {
                    // Remote: at least the lookahead away.
                    let dst = (shard + 1 + (hi >> 8) as u32 % (shards - 1)) % shards;
                    out.push((
                        dst,
                        now + crate::SimDuration::nanos(LOOKAHEAD + hi % 700),
                        child,
                    ));
                } else {
                    out.push((shard, now + crate::SimDuration::nanos(hi % 300), child));
                }
            }
            out
        }

        /// One trace record: everything observable about a pop.
        pub type Trace = Vec<(SimTime, u64, u32, u64)>;

        pub fn run_sequential(seeds: &[(u32, u64)], shards: u32) -> Trace {
            let mut q: EventQueue<(u32, u64)> = EventQueue::new();
            for &(s, p) in seeds {
                q.push(SimTime(100 + p % 50), (s, p));
            }
            let mut trace = Trace::new();
            while let Some((t, seq, (s, p))) = q.pop_with_seq() {
                trace.push((t, seq, s, p));
                for (dst, time, child) in children(p, s, shards, t) {
                    q.push(time, (dst, child));
                }
            }
            trace
        }

        struct Shard {
            q: EventQueue<(u32, u64)>,
            log: WindowLog,
            ids: Vec<crate::EventId>,
            cross: Vec<(SimTime, (u32, u64))>,
            trace: Trace,
        }

        pub fn run_windowed(seeds: &[(u32, u64)], nshards: u32) -> Trace {
            let mut shards: Vec<Shard> = (0..nshards)
                .map(|_| Shard {
                    q: EventQueue::new(),
                    log: WindowLog::default(),
                    ids: Vec::new(),
                    cross: Vec::new(),
                    trace: Trace::new(),
                })
                .collect();
            // Init: the coordinator assigns global seqs in seed order,
            // mirroring the sequential engine's insertion counter.
            let mut next_seq = 0u64;
            for &(s, p) in seeds {
                let t = SimTime(100 + p % 50);
                shards[s as usize].q.push_with_seq(t, next_seq, (s, p));
                next_seq += 1;
            }
            loop {
                // Next window: the earliest pending event anywhere.
                let start = shards.iter().filter_map(|s| s.q.peek_time()).min();
                let Some(start) = start else { break };
                let end = start + crate::SimDuration::nanos(LOOKAHEAD);
                // Execute each shard independently up to the window end
                // (single-threaded here: the proptest checks the merge
                // algebra; thread-pool execution is exercised by the
                // engine's own tests).
                let mut marks = Vec::with_capacity(shards.len());
                for (sid, sh) in shards.iter_mut().enumerate() {
                    marks.push(sh.trace.len());
                    // The window is half-open: start >= 100, so end - 1 exists.
                    let last = SimTime(end.as_nanos() - 1);
                    while let Some((t, seq, (home, p))) = sh.q.pop_at_or_before_with_seq(last) {
                        sh.trace.push((t, seq, home, p));
                        let mut npushes = 0u32;
                        for (dst, time, child) in children(p, home, nshards, t) {
                            if dst as usize == sid {
                                let k = sh.log.provisional;
                                sh.log.provisional += 1;
                                let id = sh.q.push_with_seq(
                                    time,
                                    PROVISIONAL_BASE + k as u64,
                                    (dst, child),
                                );
                                debug_assert_eq!(sh.ids.len(), k as usize);
                                sh.ids.push(id);
                                sh.log.pushes.push(PushRec {
                                    dst,
                                    time,
                                    tag: k,
                                    cross: false,
                                });
                            } else {
                                assert!(time >= end, "cross push violates lookahead");
                                let tag = sh.cross.len() as u32;
                                sh.cross.push((time, (dst, child)));
                                sh.log.pushes.push(PushRec {
                                    dst,
                                    time,
                                    tag,
                                    cross: true,
                                });
                            }
                            npushes += 1;
                        }
                        sh.log.pops.push(PopRec {
                            time: t,
                            seq,
                            npushes,
                        });
                    }
                }
                // Barrier: merge, rekey (pending events *and* the trace
                // entries recorded with provisional keys), deliver.
                let logs: Vec<WindowLog> = shards.iter().map(|s| s.log.clone()).collect();
                let out = sweep(&logs, next_seq);
                next_seq = out.next_seq;
                for (sid, dir) in out.shards.iter().enumerate() {
                    let sh = &mut shards[sid];
                    let mut finals = vec![u64::MAX; sh.log.provisional as usize];
                    for &(k, fin) in &dir.rekeys {
                        finals[k as usize] = fin;
                        // Popped-in-window entries are stale ids: no-op.
                        sh.q.set_seq(sh.ids[k as usize], fin);
                    }
                    for rec in &mut sh.trace[marks[sid]..] {
                        if rec.1 >= PROVISIONAL_BASE {
                            rec.1 = finals[(rec.1 - PROVISIONAL_BASE) as usize];
                        }
                    }
                }
                for (sid, dir) in out.shards.iter().enumerate() {
                    for d in &dir.deliveries {
                        let (time, ev) = shards[d.src as usize].cross[d.payload_idx as usize];
                        assert_eq!(time, d.time);
                        shards[sid].q.push_with_seq(time, d.seq, ev);
                    }
                }
                for sh in &mut shards {
                    sh.log.clear();
                    sh.ids.clear();
                    sh.cross.clear();
                }
            }
            // The merged global trace: k-way merge of per-shard traces
            // by (time, seq) — seqs are now all final and unique.
            let mut all: Trace = shards.into_iter().flat_map(|s| s.trace).collect();
            all.sort_by_key(|&(t, seq, _, _)| (t, seq));
            all
        }
    }

    #[test]
    fn windowed_toy_engine_matches_sequential_exactly() {
        let seeds: Vec<(u32, u64)> = (0..12).map(|i| (i % 4, 1000 + i as u64 * 77)).collect();
        let seq = model::run_sequential(&seeds, 4);
        let win = model::run_windowed(&seeds, 4);
        assert!(seq.len() >= 12);
        assert_eq!(seq, win);
    }

    #[test]
    fn single_shard_windowed_run_is_trivially_sequential() {
        let seeds: Vec<(u32, u64)> = (0..8).map(|i| (0, 31 + i as u64 * 13)).collect();
        let seq = model::run_sequential(&seeds, 1);
        let win = model::run_windowed(&seeds, 1);
        assert_eq!(seq, win);
    }

    proptest::proptest! {
        /// Any randomized shard topology (shard count, seed placement,
        /// fan-out derived from payloads) must preserve the sequential
        /// engine's total event order bit-for-bit through the windowed
        /// engine — the property the golden-fingerprint matrix relies
        /// on at full scale.
        #[test]
        fn randomized_topologies_preserve_total_order(
            nshards in 1u32..9,
            nseeds in 1usize..24,
            salt in 0u64..u64::MAX,
        ) {
            let seeds: Vec<(u32, u64)> = (0..nseeds)
                .map(|i| {
                    let h = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64);
                    ((h % nshards as u64) as u32, h >> 8)
                })
                .collect();
            let seq = model::run_sequential(&seeds, nshards);
            let win = model::run_windowed(&seeds, nshards);
            proptest::prop_assert_eq!(seq, win);
        }
    }

    #[test]
    fn queue_seq_api_round_trip() {
        // The rekey path: provisional events re-sort among final ones.
        let mut q = EventQueue::new();
        q.push_with_seq(SimTime(10), 4, "final4");
        let id = q.push_with_seq(SimTime(10), PROVISIONAL_BASE, "prov");
        assert_eq!(q.peek_key(), Some((SimTime(10), 4)));
        assert!(q.set_seq(id, 2));
        assert_eq!(q.pop_with_seq(), Some((SimTime(10), 2, "prov")));
        assert_eq!(q.pop_with_seq(), Some((SimTime(10), 4, "final4")));
    }
}
