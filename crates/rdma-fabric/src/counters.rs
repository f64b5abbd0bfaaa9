//! Typed per-node fabric counters.
//!
//! The event path bumps a [`Counter`] variant — one array add — and the
//! name-sorted [`CounterSet`] that reports, samplers and tests read is
//! built from the array only when somebody asks for it
//! ([`Fabric::counters`](crate::Fabric::counters)).

use simcore::stats::CounterSet;

macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident,)*) => {
        /// Everything a node counts: the simulated PCM PCIe counters
        /// plus fabric events. A variant's report name is its
        /// identifier, and variants are declared in name order so that
        /// walking [`Counter::ALL`] yields a sorted listing.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[allow(clippy::upper_case_acronyms)] // spelled as the PCM names they report (`RFO`)
        pub(crate) enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in declaration (= name) order.
            const ALL: &'static [Counter] = &[$(Counter::$variant,)*];

            const fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => stringify!($variant),)*
                }
            }
        }
    };
}

counters! {
    /// Atomic verbs executed at this (responder) node.
    Atomics,
    /// Deferred connection setups that reached RTS.
    ConnSetups,
    /// Deferred setups abandoned because an end left `Reset` meanwhile.
    ConnSetupsAborted,
    /// Deferred connection setups begun by this node.
    ConnSetupsStarted,
    /// Write-Allocate bursts (runs of consecutive allocated lines).
    DdioAllocBursts,
    /// Inbound write lines that Write-Updated in the DDIO partition.
    DmaHitDdio,
    /// Inbound write lines that Write-Updated in the general LLC.
    DmaHitMain,
    /// Packets that arrived at a torn-down QP.
    DroppedAtRx,
    /// Full-line inbound DMA writes.
    ItoM,
    /// Transmissions that re-fetched an evicted QP context.
    NicQpMiss,
    /// Crashes injected on this node.
    NodeCrashes,
    /// NIC stalls injected on this node.
    NodeStalls,
    /// Inbound DMA lines that missed the LLC (Write-Allocate mode).
    PCIeItoM,
    /// Lines the NIC DMA-read from host memory.
    PCIeRdCur,
    /// Partial-line inbound DMA writes.
    RFO,
    /// Inbound one-sided accesses outside the target region.
    RemoteAccessErrors,
    /// RC messages that found no (or too small a) receive posted.
    RnrDrops,
    /// Messages the rx engine processed.
    RxMsgs,
    /// Work requests posted by this node.
    TxVerbs,
    /// UD messages that found no (or too small a) receive posted.
    UdDrops,
}

/// One node's counter values plus which of them were ever touched: a
/// counter appears in the [`view`](Self::view) once it has been added
/// to, even by zero, exactly as a `CounterSet` entry would.
#[derive(Clone, Debug)]
pub(crate) struct NodeCounters {
    values: [u64; Counter::ALL.len()],
    touched: u32,
}

const _: () = assert!(
    Counter::ALL.len() <= u32::BITS as usize,
    "touched mask is a u32"
);

impl NodeCounters {
    pub(crate) fn new() -> Self {
        NodeCounters {
            values: [0; Counter::ALL.len()],
            touched: 0,
        }
    }

    #[inline]
    pub(crate) fn add(&mut self, c: Counter, n: u64) {
        self.values[c as usize] += n;
        self.touched |= 1 << c as u32;
    }

    #[inline]
    pub(crate) fn inc(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// The touched counters as a name-sorted `CounterSet`.
    pub(crate) fn view(&self) -> CounterSet {
        let mut set = CounterSet::new();
        for &c in Counter::ALL {
            if self.touched & (1 << c as u32) != 0 {
                set.add(c.name(), self.values[c as usize]);
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_sorted() {
        let names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "ALL is in discriminant order");
        }
    }

    #[test]
    fn view_lists_touched_counters_only_including_zero_adds() {
        let mut n = NodeCounters::new();
        assert!(n.view().is_empty());
        n.inc(Counter::TxVerbs);
        n.add(Counter::RFO, 0);
        n.add(Counter::ItoM, 7);
        n.add(Counter::ItoM, 2);
        let listed: Vec<_> = n.view().iter().collect();
        assert_eq!(listed, [("ItoM", 9), ("RFO", 0), ("TxVerbs", 1)]);
    }
}
