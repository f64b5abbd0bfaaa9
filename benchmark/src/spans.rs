//! Host-time spans recorded from the benchmark's own wrappers.
//!
//! A span is opened at each call into a layer (see `wrap.rs`) and
//! closed when the call returns; spans nest exactly as the calls do, so
//! a layer's self time is its span minus the spans opened inside it.
//! Allocation counts are sampled at the same boundaries and attributed
//! the same way. A traced round opens millions of spans, so totals are
//! folded per span name as spans close and only the first
//! [`RAW_SPAN_CAP`] spans are kept raw for the trace file.

use crate::alloc;
use std::cell::RefCell;
use std::time::Instant;

/// Raw spans kept for `out/trace_<workload>.json`.
pub const RAW_SPAN_CAP: usize = 20_000;

/// The layers the wrappers tell apart. Order is outermost first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `ShardedSim::run_sequential`: queue pops, `Fabric::handle`,
    /// staging — everything outside the `Logic` callbacks.
    Engine,
    /// The `Logic` driving the clients (`Harness`, `TxSim`, or the
    /// benchmark's raw-verb logic).
    Driver,
    /// An `RpcTransport` (`ScaleRpc`, `RawWrite`).
    Transport,
    /// A `ServerHandler` (`EchoHandler`, `TxParticipant`).
    Handler,
}

impl Layer {
    /// All layers, outermost first.
    pub const ALL: [Layer; 4] = [
        Layer::Engine,
        Layer::Driver,
        Layer::Transport,
        Layer::Handler,
    ];

    /// Stable name used in the trace file and the self-time table.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Engine => "engine",
            Layer::Driver => "driver",
            Layer::Transport => "transport",
            Layer::Handler => "handler",
        }
    }
}

/// Totals of one layer over the spans closed so far.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Host nanoseconds inside the layer's spans, children included.
    pub total_ns: u64,
    /// Host nanoseconds not covered by child spans.
    pub self_ns: u64,
    /// Allocations made inside the spans but outside child spans.
    pub self_allocs: u64,
}

/// One raw span of the trace file.
#[derive(Clone, Copy, Debug)]
pub struct RawSpan {
    /// The layer called into.
    pub layer: Layer,
    /// Nanoseconds since the recorder was reset.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was reset.
    pub end_ns: u64,
    /// Index of the enclosing span in the raw list, if it was kept.
    pub parent: Option<u32>,
    /// The round the span belongs to.
    pub round: u32,
}

struct Open {
    layer: Layer,
    start: Instant,
    allocs_at_start: u64,
    child_ns: u64,
    child_allocs: u64,
    raw_index: Option<u32>,
}

struct Recorder {
    epoch: Instant,
    round: u32,
    stack: Vec<Open>,
    totals: [LayerTotals; 4],
    raw: Vec<RawSpan>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread with empty totals.
pub fn reset() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            round: 0,
            stack: Vec::with_capacity(8),
            totals: Default::default(),
            raw: Vec::with_capacity(RAW_SPAN_CAP),
        });
    });
}

/// Tags the spans that follow with `round`.
pub fn set_round(round: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.round = round;
        }
    });
}

/// Stops recording and returns the per-layer totals (indexed like
/// [`Layer::ALL`]) and the raw spans kept.
pub fn take() -> ([LayerTotals; 4], Vec<RawSpan>) {
    RECORDER.with(|r| {
        let rec = r.borrow_mut().take().expect("spans::reset was called");
        assert!(rec.stack.is_empty(), "span left open");
        (rec.totals, rec.raw)
    })
}

/// How a wrapper reports the calls it forwards. [`Off`] compiles to
/// nothing, so a wrapper over it is the bare type; [`On`] records.
pub trait Probe {
    /// A call into `layer` begins.
    fn enter(layer: Layer);
    /// The innermost open call returns.
    fn exit();
}

/// No recording: the end-to-end configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn enter(_: Layer) {}
    #[inline(always)]
    fn exit() {}
}

/// Records into this thread's recorder (which [`reset`] must have
/// started).
#[derive(Clone, Copy, Debug, Default)]
pub struct On;

impl Probe for On {
    fn enter(layer: Layer) {
        RECORDER.with(|r| {
            let mut guard = r.borrow_mut();
            let rec = guard.as_mut().expect("spans::reset was called");
            let raw_index = (rec.raw.len() < RAW_SPAN_CAP).then(|| {
                let parent = rec.stack.last().and_then(|o| o.raw_index);
                rec.raw.push(RawSpan {
                    layer,
                    start_ns: 0,
                    end_ns: 0,
                    parent,
                    round: rec.round,
                });
                (rec.raw.len() - 1) as u32
            });
            let allocs_at_start = alloc::allocations();
            // Read the clock last so the bookkeeping above is charged
            // to the caller, not to this span.
            rec.stack.push(Open {
                layer,
                start: Instant::now(),
                allocs_at_start,
                child_ns: 0,
                child_allocs: 0,
                raw_index,
            });
        });
    }

    fn exit() {
        let end = Instant::now();
        RECORDER.with(|r| {
            let mut guard = r.borrow_mut();
            let rec = guard.as_mut().expect("spans::reset was called");
            let open = rec.stack.pop().expect("exit without enter");
            let ns = end.duration_since(open.start).as_nanos() as u64;
            let allocs = alloc::allocations() - open.allocs_at_start;
            let t = &mut rec.totals[open.layer as usize];
            t.calls += 1;
            t.total_ns += ns;
            t.self_ns += ns.saturating_sub(open.child_ns);
            t.self_allocs += allocs - open.child_allocs;
            if let Some(parent) = rec.stack.last_mut() {
                parent.child_ns += ns;
                parent.child_allocs += allocs;
            }
            if let Some(i) = open.raw_index {
                let span = &mut rec.raw[i as usize];
                span.start_ns = open.start.duration_since(rec.epoch).as_nanos() as u64;
                span.end_ns = end.duration_since(rec.epoch).as_nanos() as u64;
            }
        });
    }
}

/// Runs `f` inside a span of `layer` reported through `P`.
#[inline(always)]
pub fn within<P: Probe, R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    P::enter(layer);
    let r = f();
    P::exit();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        reset();
        set_round(3);
        within::<On, _>(Layer::Engine, || {
            let v: Vec<u8> = Vec::with_capacity(64);
            std::hint::black_box(&v);
            for _ in 0..2 {
                within::<On, _>(Layer::Driver, || {
                    let w: Vec<u8> = Vec::with_capacity(32);
                    std::hint::black_box(&w);
                    within::<On, _>(Layer::Transport, || {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    });
                });
            }
        });
        let (totals, raw) = take();
        let [engine, driver, transport, handler] = totals;
        assert_eq!(
            [engine.calls, driver.calls, transport.calls, handler.calls],
            [1, 2, 2, 0]
        );
        assert!(transport.self_ns >= 4_000_000);
        assert_eq!(transport.self_ns, transport.total_ns);
        assert_eq!(driver.self_ns, driver.total_ns - transport.total_ns);
        assert_eq!(engine.self_ns, engine.total_ns - driver.total_ns);
        // Self times partition the outermost span.
        assert_eq!(
            engine.self_ns + driver.self_ns + transport.self_ns,
            engine.total_ns
        );
        assert_eq!(
            [
                engine.self_allocs,
                driver.self_allocs,
                transport.self_allocs
            ],
            [1, 2, 0]
        );
        assert_eq!(raw.len(), 5);
        assert_eq!(raw[0].parent, None);
        assert_eq!(raw[1].parent, Some(0));
        assert_eq!(raw[2].parent, Some(1));
        assert_eq!(raw[4].parent, Some(3));
        assert!(raw.iter().all(|s| s.round == 3 && s.end_ns >= s.start_ns));
        assert!(raw[2].start_ns >= raw[1].start_ns && raw[2].end_ns <= raw[1].end_ns);
    }
}
