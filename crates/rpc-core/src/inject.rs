//! Scenario event injection, and the one fault layer.
//!
//! A [`ScenarioSpec`] describes *when clients come alive* and a sorted
//! timeline of phased chaos events — departures, straggler slowdowns,
//! link degradation, server pauses. `crates/simscenario` compiles its
//! declarative TOML scenarios into this type and installs it with
//! [`Harness::set_scenario`](crate::harness::Harness::set_scenario);
//! the harness threads each event into the simulator timeline as an
//! ordinary app event, so injected runs stay bit-exactly deterministic
//! and replayable.
//!
//! Every client-side logic walks its timeline through [`arm`] and
//! [`apply`]. `apply` is the only code outside the fabric that degrades
//! the wire, stalls or crashes a node, keeps the crash → recover timer
//! and tells a transport its server died or came back, so a new
//! fabric-side fault kind lands here and reaches RPC and transaction
//! runs alike. What a fault means for the *clients* — who departs,
//! which coordinator gives a transaction up — stays with their logic.
//!
//! The empty spec (all clients [`ClientStart::Immediate`], no timeline
//! entries) is defined to reproduce a scenario-free harness run
//! bit-exactly: immediate starts draw the same per-client jitter from
//! the same per-client RNG streams, and no injection event is ever
//! scheduled.

use crate::cluster::ClientId;
use crate::driver::Cx;
use crate::transport::{LifecycleEv, RpcTransport};
use rdma_fabric::{LinkDegrade, NodeId};
use simcore::{SimDuration, SimTime};
use std::fmt;

/// When a client first enters the closed loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientStart {
    /// Wake within the usual `[0, 2 µs)` start jitter, exactly like a
    /// scenario-free run.
    Immediate,
    /// First wake at the given time (flash-crowd surge arrivals; the
    /// compiler spreads Poisson arrival processes into per-client
    /// `At` times).
    At(SimTime),
}

/// One phased chaos event. Client ranges are inclusive; `server` indexes
/// the logic's servers (always 0 under the single-server harness).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Injection {
    /// Clients `first..=last` leave the closed loop: in-flight requests
    /// complete and are counted, but no new requests are posted.
    Depart { first: ClientId, last: ClientId },
    /// Clients `first..=last` become stragglers: their per-post and
    /// per-response client-CPU charges are multiplied by `num/den`
    /// (`num >= den`, so slowdowns only). The multiplier applies on top
    /// of machine oversubscription scaling and also slows co-located
    /// clients through the shared thread `FifoResource` — a straggling
    /// coroutine hogs its thread, as on real hardware.
    Straggle {
        first: ClientId,
        last: ClientId,
        num: u32,
        den: u32,
    },
    /// The fabric's wire degrades: serialization and propagation
    /// latencies are multiplied by `num/den` (`num >= den`: a degrade
    /// degrades, a factor below one is rejected as a typo) and `extra`
    /// is added to every wire hop.
    LinkDegrade {
        num: u32,
        den: u32,
        extra: SimDuration,
    },
    /// The wire returns to nominal parameters.
    LinkRestore,
    /// The server's NIC engines stall for `dur` (GC pause, firmware
    /// hiccup): both its tx and rx pipelines are occupied and every
    /// queued operation waits the pause out.
    ServerStall { server: usize, dur: SimDuration },
    /// The server process crashes: every QP it owns is torn down (in-
    /// flight packets toward them drop; reliable requesters see error
    /// completions) and recovery begins after `down` — QPs reset, the
    /// transport notified to reconnect. Requires a retry policy on the
    /// harness for the closed loop to survive (otherwise requests lost
    /// in the crash window would strand their clients forever).
    ServerCrash { server: usize, down: SimDuration },
    /// Departed clients `first..=last` rejoin the closed loop: each
    /// client's connection is re-established (lazily or eagerly, per the
    /// transport) and posting resumes. A no-op for clients that never
    /// departed.
    Reconnect { first: ClientId, last: ClientId },
    /// Connection churn: clients `first..=last` have their connections
    /// torn down and immediately re-established while they keep
    /// running — the Swift elastic-workload stressor. Each client pays
    /// the full modelled setup cost before its next request flows.
    ConnChurn { first: ClientId, last: ClientId },
}

/// A compiled scenario: per-client activation plus a time-sorted event
/// timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// One entry per client, in client-id order.
    pub starts: Vec<ClientStart>,
    /// Chaos events, sorted by time (ties keep list order).
    pub timeline: Vec<(SimTime, Injection)>,
}

/// Why a [`ScenarioSpec`] was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// `starts` does not have one entry per client.
    StartsLen { expected: usize, got: usize },
    /// Timeline entries are not sorted by time.
    UnsortedTimeline { index: usize },
    /// A client range is empty or out of bounds.
    ClientRange {
        index: usize,
        first: ClientId,
        last: ClientId,
        clients: usize,
    },
    /// A slowdown factor is below 1 (`num < den`) or has a zero
    /// denominator.
    BadFactor { index: usize, num: u32, den: u32 },
    /// The timeline crashes the server but the harness has no retry
    /// policy: requests lost in the crash window would strand their
    /// clients forever, so the combination is rejected up front.
    CrashNeedsRetry { index: usize },
    /// A stall or crash names a server the deployment does not have.
    ServerIndex {
        index: usize,
        server: usize,
        servers: usize,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ScenarioError::StartsLen { expected, got } => {
                write!(f, "scenario starts list has {got} entries, need {expected}")
            }
            ScenarioError::UnsortedTimeline { index } => {
                write!(f, "timeline entry {index} is earlier than its predecessor")
            }
            ScenarioError::ClientRange {
                index,
                first,
                last,
                clients,
            } => write!(
                f,
                "timeline entry {index}: client range {first}..={last} invalid for {clients} clients"
            ),
            ScenarioError::BadFactor { index, num, den } => write!(
                f,
                "timeline entry {index}: factor {num}/{den} must be >= 1 with nonzero denominator"
            ),
            ScenarioError::CrashNeedsRetry { index } => write!(
                f,
                "timeline entry {index}: server_crash requires a harness retry policy"
            ),
            ScenarioError::ServerIndex {
                index,
                server,
                servers,
            } => write!(
                f,
                "timeline entry {index}: server {server} invalid for {servers} servers"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl ScenarioSpec {
    /// The empty scenario for `clients` clients — bit-exactly equivalent
    /// to running without a scenario at all.
    pub fn empty(clients: usize) -> Self {
        ScenarioSpec {
            starts: vec![ClientStart::Immediate; clients],
            timeline: Vec::new(),
        }
    }

    /// True when the spec cannot perturb a run (all immediate starts,
    /// nothing on the timeline).
    pub fn is_empty(&self) -> bool {
        self.timeline.is_empty()
            && self
                .starts
                .iter()
                .all(|s| matches!(s, ClientStart::Immediate))
    }

    /// Validates the spec against a client population size and the
    /// number of servers its stalls and crashes may name.
    pub fn validate(&self, clients: usize, servers: usize) -> Result<(), ScenarioError> {
        if self.starts.len() != clients {
            return Err(ScenarioError::StartsLen {
                expected: clients,
                got: self.starts.len(),
            });
        }
        let mut prev = SimTime::ZERO;
        for (index, &(at, inj)) in self.timeline.iter().enumerate() {
            if at < prev {
                return Err(ScenarioError::UnsortedTimeline { index });
            }
            prev = at;
            let range = match inj {
                Injection::Depart { first, last } => Some((first, last)),
                Injection::Straggle { first, last, .. } => Some((first, last)),
                Injection::Reconnect { first, last } => Some((first, last)),
                Injection::ConnChurn { first, last } => Some((first, last)),
                _ => None,
            };
            if let Some((first, last)) = range {
                if first > last || last >= clients {
                    return Err(ScenarioError::ClientRange {
                        index,
                        first,
                        last,
                        clients,
                    });
                }
            }
            if let Injection::ServerStall { server, .. } | Injection::ServerCrash { server, .. } =
                inj
            {
                if server >= servers {
                    return Err(ScenarioError::ServerIndex {
                        index,
                        server,
                        servers,
                    });
                }
            }
            let factor = match inj {
                Injection::Straggle { num, den, .. } => Some((num, den)),
                Injection::LinkDegrade { num, den, .. } => Some((num, den)),
                _ => None,
            };
            if let Some((num, den)) = factor {
                if den == 0 || num < den {
                    return Err(ScenarioError::BadFactor { index, num, den });
                }
            }
        }
        Ok(())
    }
}

/// The fault layer's timers on its host logic's queue. The host wraps
/// them in its own event type and hands each one back to [`apply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEv {
    /// Timeline entry `i` fires.
    Fire(usize),
    /// Server `s`'s downtime ends.
    Recover(usize),
}

/// Schedules the first timeline entry, if any; call from `Logic::init`.
pub fn arm<A>(timeline: &[(SimTime, Injection)], cx: &mut Cx<'_, A>, wrap: impl Fn(FaultEv) -> A) {
    if let Some(&(at, _)) = timeline.first() {
        cx.at(at, wrap(FaultEv::Fire(0)));
    }
}

/// Handles one [`FaultEv`] for a logic whose server `s` is node
/// `servers[s]` behind `transports[s]` ([`ScenarioSpec::validate`]
/// refuses an entry naming a server beyond them); `wrap` and
/// `wrap_transport` lift fault timers and server `s`'s transport events
/// into the logic's event type.
///
/// `Fire(i)` schedules entry `i + 1`, applies entry `i` if it is
/// fabric-side and returns it, so the caller can add what only it knows
/// (client-population kinds, failing the requests a crash orphaned).
/// `Recover(s)` re-admits server `s` and returns `None`.
pub fn apply<T: RpcTransport, A>(
    ev: FaultEv,
    timeline: &[(SimTime, Injection)],
    servers: &[NodeId],
    transports: &mut [T],
    cx: &mut Cx<'_, A>,
    wrap: impl Fn(FaultEv) -> A,
    wrap_transport: impl Fn(usize, T::Ev) -> A,
) -> Option<Injection> {
    let i = match ev {
        FaultEv::Fire(i) => i,
        FaultEv::Recover(s) => {
            cx.scoped(
                |e| wrap_transport(s, e),
                |tcx| transports[s].on_lifecycle(LifecycleEv::ServerRecover, tcx),
            );
            return None;
        }
    };
    let (_, inj) = timeline[i];
    if let Some(&(at, _)) = timeline.get(i + 1) {
        cx.at(at, wrap(FaultEv::Fire(i + 1)));
    }
    match inj {
        Injection::LinkDegrade { num, den, extra } => cx
            .fabric
            .set_link_degrade(Some(LinkDegrade { num, den, extra })),
        Injection::LinkRestore => cx.fabric.set_link_degrade(None),
        Injection::ServerStall { server, dur } => {
            cx.fabric.stall_node(servers[server], cx.now, dur)
        }
        Injection::ServerCrash { server, down } => {
            cx.fabric.crash_node(servers[server], cx.now);
            cx.scoped(
                |e| wrap_transport(server, e),
                |tcx| transports[server].on_lifecycle(LifecycleEv::ServerCrash, tcx),
            );
            cx.after(down, wrap(FaultEv::Recover(server)));
        }
        // The client-population kinds are the caller's.
        _ => {}
    }
    Some(inj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_empty_and_valid() {
        let s = ScenarioSpec::empty(4);
        assert!(s.is_empty());
        assert_eq!(s.validate(4, 1), Ok(()));
        assert_eq!(
            s.validate(3, 1),
            Err(ScenarioError::StartsLen {
                expected: 3,
                got: 4
            })
        );
    }

    #[test]
    fn validate_rejects_unsorted_and_bad_ranges() {
        let mut s = ScenarioSpec::empty(8);
        s.timeline = vec![
            (SimTime(100), Injection::LinkRestore),
            (
                SimTime(50),
                Injection::ServerStall {
                    server: 0,
                    dur: SimDuration::micros(1),
                },
            ),
        ];
        assert_eq!(
            s.validate(8, 1),
            Err(ScenarioError::UnsortedTimeline { index: 1 })
        );

        s.timeline = vec![(SimTime(10), Injection::Depart { first: 4, last: 9 })];
        assert!(matches!(
            s.validate(8, 1),
            Err(ScenarioError::ClientRange { index: 0, .. })
        ));

        s.timeline = vec![(
            SimTime(10),
            Injection::Straggle {
                first: 0,
                last: 1,
                num: 1,
                den: 2,
            },
        )];
        assert_eq!(
            s.validate(8, 1),
            Err(ScenarioError::BadFactor {
                index: 0,
                num: 1,
                den: 2
            })
        );

        s.timeline = vec![(
            SimTime(10),
            Injection::LinkDegrade {
                num: 3,
                den: 2,
                extra: SimDuration::ZERO,
            },
        )];
        assert_eq!(s.validate(8, 1), Ok(()));
    }

    /// `apply` indexes its server and transport slices with the entry's
    /// `server`: an index past them must be refused here, not panic
    /// mid-run when the entry fires.
    #[test]
    fn validate_rejects_servers_the_deployment_lacks() {
        let mut s = ScenarioSpec::empty(8);
        let (stall, crash) = (
            Injection::ServerStall {
                server: 2,
                dur: SimDuration::micros(1),
            },
            Injection::ServerCrash {
                server: 3,
                down: SimDuration::micros(1),
            },
        );
        s.timeline = vec![(SimTime(10), stall), (SimTime(20), crash)];
        assert_eq!(
            s.validate(8, 1),
            Err(ScenarioError::ServerIndex {
                index: 0,
                server: 2,
                servers: 1
            })
        );
        assert_eq!(
            s.validate(8, 3),
            Err(ScenarioError::ServerIndex {
                index: 1,
                server: 3,
                servers: 3
            })
        );
        assert_eq!(s.validate(8, 4), Ok(()));
    }
}
