//! Trace query and assertion API.
//!
//! [`TraceQuery`] gives tests and reports a declarative view over a
//! recorded [`TraceLog`]: filter spans by stage; group a single RPC's
//! stages into a breakdown; and aggregate stage durations. This is what the temporal-invariant tests use to
//! assert things like "warmup fetches overlap the previous slice" and
//! "no request waits longer than two slices" without reaching into
//! scheduler internals.

use crate::{Instant, InstantKind, Sample, Span, Stage, TraceLog};
use simcore::SimDuration;

/// A borrowed, filterable view over a [`TraceLog`].
#[derive(Clone, Copy, Debug)]
pub struct TraceQuery<'a> {
    log: &'a TraceLog,
}

impl<'a> TraceQuery<'a> {
    /// Wraps a recorded log.
    pub fn new(log: &'a TraceLog) -> Self {
        TraceQuery { log }
    }

    /// All spans of one pipeline stage, in recording order.
    pub fn spans_of(&self, stage: Stage) -> impl Iterator<Item = &'a Span> {
        self.log.spans.iter().filter(move |s| s.stage == stage)
    }

    /// The stage spans of one traced RPC, sorted in causal stage order.
    pub fn rpc(&self, id: u64) -> Vec<&'a Span> {
        let mut v: Vec<&Span> = self.log.spans.iter().filter(|s| s.id == id).collect();
        v.sort_by_key(|s| (s.stage, s.start));
        v
    }

    /// All distinct pipeline stages present in the trace.
    pub fn stages_present(&self) -> Vec<Stage> {
        Stage::ALL
            .into_iter()
            .filter(|&g| self.spans_of(g).next().is_some())
            .collect()
    }

    /// Per-stage total duration across all spans, in stage order
    /// (only stages that appear). The per-RPC latency breakdown of
    /// Fig. 2, aggregated over the run.
    pub fn stage_durations(&self) -> Vec<(Stage, SimDuration)> {
        Stage::ALL
            .into_iter()
            .filter_map(|g| {
                let total: u64 = self.spans_of(g).map(|s| s.duration().as_nanos()).sum();
                if self.spans_of(g).next().is_some() {
                    Some((g, SimDuration(total)))
                } else {
                    None
                }
            })
            .collect()
    }

    /// End-to-end latency of one RPC: earliest stage start to latest
    /// stage end, `None` if the id has no spans.
    pub fn rpc_latency(&self, id: u64) -> Option<SimDuration> {
        let spans = self.rpc(id);
        let start = spans.iter().map(|s| s.start).min()?;
        let end = spans.iter().map(|s| s.end).max()?;
        Some(end.saturating_since(start))
    }

    /// All instants of one kind, in recording order.
    pub fn instants(&self, kind: InstantKind) -> impl Iterator<Item = &'a Instant> {
        self.log.instants.iter().filter(move |i| i.kind == kind)
    }

    /// The sampled time-series of one counter, in sampling order.
    pub fn samples(&self, counter: &'static str) -> impl Iterator<Item = &'a Sample> {
        self.log
            .samples
            .iter()
            .filter(move |s| s.counter == counter)
    }

    /// Names of all counters with at least one sample, deduplicated and
    /// sorted.
    pub fn sampled_counters(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.log.samples.iter().map(|s| s.counter).collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    fn span(id: u64, stage: Stage, start: u64, end: u64, client: u64) -> Span {
        Span {
            id,
            stage,
            start: SimTime(start),
            end: SimTime(end),
            client,
        }
    }

    fn demo_log() -> TraceLog {
        let mut log = TraceLog::default();
        // RPC 1 (client 0): post 0-70, tx 70-120, link 120-800,
        // rx 800-830, dma 830-860, handler 900-1700, response 1700-2500.
        log.spans.push(span(1, Stage::ClientPost, 0, 70, 0));
        log.spans.push(span(1, Stage::TxNic, 70, 120, 0));
        log.spans.push(span(1, Stage::Link, 120, 800, 0));
        log.spans.push(span(1, Stage::RxNic, 800, 830, 0));
        log.spans.push(span(1, Stage::Dma, 830, 860, 0));
        log.spans.push(span(1, Stage::Handler, 900, 1_700, 0));
        log.spans.push(span(1, Stage::Response, 1_700, 2_500, 0));
        // RPC 2 (client 5): just a slow handler.
        log.spans.push(span(2, Stage::Handler, 2_000, 9_000, 5));
        log.instants.push(Instant {
            kind: InstantKind::SliceEnd,
            at: SimTime(1_000),
            a: 0,
            b: 1,
        });
        log.instants.push(Instant {
            kind: InstantKind::WarmupFetchIssue,
            at: SimTime(600),
            a: 5,
            b: 1,
        });
        log.samples.push(Sample {
            counter: "PCIeRdCur",
            at: SimTime(500),
            value: 10,
        });
        log.samples.push(Sample {
            counter: "PCIeRdCur",
            at: SimTime(1_500),
            value: 25,
        });
        log
    }

    #[test]
    fn filters_by_stage() {
        let log = demo_log();
        let q = TraceQuery::new(&log);
        assert_eq!(q.spans_of(Stage::Handler).count(), 2);
    }

    #[test]
    fn rpc_breakdown_is_causally_ordered_and_complete() {
        let log = demo_log();
        let q = TraceQuery::new(&log);
        let stages: Vec<Stage> = q.rpc(1).iter().map(|s| s.stage).collect();
        assert_eq!(stages, Stage::ALL.to_vec());
        assert_eq!(q.rpc_latency(1), Some(SimDuration(2_500)));
        assert_eq!(q.rpc_latency(99), None);
        assert_eq!(q.stages_present(), Stage::ALL.to_vec());
    }

    #[test]
    fn stage_durations_aggregate() {
        let log = demo_log();
        let q = TraceQuery::new(&log);
        let durs = q.stage_durations();
        let handler = durs
            .iter()
            .find(|(g, _)| *g == Stage::Handler)
            .map(|(_, d)| *d)
            .unwrap();
        assert_eq!(handler, SimDuration(800 + 7_000));
    }

    #[test]
    fn instants_and_samples_filter() {
        let log = demo_log();
        let q = TraceQuery::new(&log);
        assert_eq!(q.instants(InstantKind::SliceEnd).count(), 1);
        let series: Vec<u64> = q.samples("PCIeRdCur").map(|s| s.value).collect();
        assert_eq!(series, vec![10, 25]);
        assert_eq!(q.sampled_counters(), vec!["PCIeRdCur"]);
        assert_eq!(q.samples("PCIeItoM").count(), 0);
    }
}
