//! Cluster topology builder.
//!
//! Reproduces the paper's testbed shape: one `RPCServer` machine plus a
//! set of physical client machines, each running a fixed number of worker
//! threads that multiplex coroutine-like clients (§3.6.1). Clients are
//! distributed evenly across machines, and within a machine across
//! threads, exactly as the evaluation distributes them.

use rdma_fabric::{Fabric, NodeId};
use simcore::resource::Grant;
use simcore::{FifoResource, SimDuration, SimTime};

/// Index of a simulated RPC client (a coroutine in the paper's harness).
pub type ClientId = usize;

/// Shape of the simulated cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Worker threads at the RPC server (the paper uses 10).
    pub server_threads: usize,
    /// Number of physical client machines (the paper has 11 available).
    pub client_machines: usize,
    /// Worker threads per client machine that coroutine clients share
    /// (two 12-core Xeons ⇒ up to 24; the harness pins fewer by default).
    pub threads_per_machine: usize,
    /// Physical cores per client machine available to those threads.
    /// When a sweep packs more threads than cores onto a machine (the
    /// Fig. 8-right 40-threads-over-N-machines shape), every thread's
    /// CPU charges stretch by the oversubscription ratio — timeslicing,
    /// not magic parallelism. Calibrated to the per-machine CPU budget
    /// the paper's client loops actually get, not the socket datasheet.
    pub cores_per_machine: usize,
    /// Total number of coroutine clients.
    pub clients: usize,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            server_threads: 10,
            client_machines: 11,
            threads_per_machine: 8,
            cores_per_machine: 8,
            clients: 80,
        }
    }
}

/// A built cluster: node ids plus the client→(machine, thread) map.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// The server machine.
    pub server: NodeId,
    /// The client machines.
    pub machines: Vec<NodeId>,
    spec: ClusterSpec,
}

impl Cluster {
    /// Adds the nodes described by `spec` to `fabric`.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no machines or no clients.
    pub fn build(fabric: &mut Fabric, spec: ClusterSpec) -> Cluster {
        assert!(spec.client_machines > 0, "need at least one client machine");
        assert!(spec.threads_per_machine > 0, "need at least one thread");
        assert!(spec.cores_per_machine > 0, "need at least one core");
        assert!(spec.server_threads > 0, "need at least one server thread");
        let server = fabric.add_node("rpcserver");
        let machines = (0..spec.client_machines)
            .map(|i| fabric.add_node(&format!("client-machine-{i}")))
            .collect();
        Cluster {
            server,
            machines,
            spec,
        }
    }

    /// Builds a cluster whose client machines are shared with other
    /// clusters (multi-server deployments like ScaleTX: several servers,
    /// one set of client machines).
    ///
    /// # Panics
    ///
    /// Panics if `machines.len()` does not match the spec.
    pub fn build_shared(
        fabric: &mut Fabric,
        spec: ClusterSpec,
        machines: Vec<NodeId>,
        server_name: &str,
    ) -> Cluster {
        assert_eq!(
            machines.len(),
            spec.client_machines,
            "machine list must match the spec"
        );
        assert!(spec.threads_per_machine > 0 && spec.server_threads > 0);
        let server = fabric.add_node(server_name);
        Cluster {
            server,
            machines,
            spec,
        }
    }

    /// The spec this cluster was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Total clients.
    pub fn clients(&self) -> usize {
        self.spec.clients
    }

    /// The machine hosting client `c` (round-robin distribution, matching
    /// "distributed evenly to the physical client servers").
    #[inline]
    pub fn machine_of(&self, c: ClientId) -> usize {
        c % self.machines.len()
    }

    /// The node hosting client `c`.
    pub fn node_of(&self, c: ClientId) -> NodeId {
        self.machines[self.machine_of(c)]
    }

    /// The global thread index (across all machines) whose CPU client `c`
    /// shares. Clients on one machine round-robin over its threads.
    #[inline]
    pub fn thread_of(&self, c: ClientId) -> usize {
        let machine = self.machine_of(c);
        let slot_on_machine = c / self.machines.len();
        let thread_on_machine = slot_on_machine % self.spec.threads_per_machine;
        machine * self.spec.threads_per_machine + thread_on_machine
    }

    /// Total client-side threads across all machines.
    pub fn total_client_threads(&self) -> usize {
        self.machines.len() * self.spec.threads_per_machine
    }

    /// Stretches a client-thread CPU charge by the machine's thread
    /// oversubscription ratio. With `threads_per_machine` at or under
    /// `cores_per_machine` this is the identity; packing 40 threads
    /// onto an 8-core machine makes every charge 5× longer — the OS
    /// timeslices, it does not conjure cores. Integer arithmetic keeps
    /// the simulation deterministic.
    #[inline]
    pub fn scale_cpu(&self, cost: SimDuration) -> SimDuration {
        let t = self.spec.threads_per_machine as u64;
        let c = self.spec.cores_per_machine as u64;
        if t <= c {
            cost
        } else {
            SimDuration::nanos(cost.as_nanos() * t / c)
        }
    }

    /// Number of clients sharing the thread of client `c` (for sanity
    /// checks and per-thread pacing).
    pub fn clients_on_thread(&self, thread: usize) -> usize {
        (0..self.spec.clients)
            .filter(|&c| self.thread_of(c) == thread)
            .count()
    }
}

/// The client machines' CPU, written once for every client-side logic
/// (the RPC harness, the ScaleTX coordinators): all coroutine clients on
/// one machine thread share that thread's time (§3.6.1).
pub struct ClientCpu {
    /// The cluster whose client threads these are.
    pub cluster: Cluster,
    threads: Vec<FifoResource>,
    /// Per-client slowdown `(num, den)`; empty until the first straggler
    /// appears, so fault-free runs pay one `is_empty` check.
    slowdown: Vec<(u32, u32)>,
}

impl ClientCpu {
    /// Idle threads for every client machine of `cluster`.
    pub fn new(cluster: Cluster) -> Self {
        ClientCpu {
            threads: vec![FifoResource::new(); cluster.total_client_threads()],
            cluster,
            slowdown: Vec::new(),
        }
    }

    /// Books `base` of work for `client` on its machine thread at `now`,
    /// stretched by machine oversubscription and any straggler slowdown.
    /// Whether the work takes effect when the thread begins it (a post)
    /// or completes it (a poll) is the caller's reading of the grant.
    #[inline]
    pub fn acquire(&mut self, client: ClientId, now: SimTime, base: SimDuration) -> Grant {
        let mut cost = self.cluster.scale_cpu(base);
        if !self.slowdown.is_empty() {
            let (num, den) = self.slowdown[client];
            cost = SimDuration(cost.0 * num as u64 / den as u64);
        }
        self.threads[self.cluster.thread_of(client)].acquire(now, cost)
    }

    /// Multiplies the charges of clients `first..=last` by `num/den`
    /// from now on. Co-located clients slow down with them through the
    /// shared thread, as on real hardware.
    pub fn straggle(&mut self, first: ClientId, last: ClientId, num: u32, den: u32) {
        if self.slowdown.is_empty() {
            self.slowdown = vec![(1, 1); self.cluster.clients()];
        }
        self.slowdown[first..=last].fill((num, den));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_fabric::FabricParams;

    fn cluster(machines: usize, threads: usize, clients: usize) -> Cluster {
        let mut fabric = Fabric::new(FabricParams::default());
        Cluster::build(
            &mut fabric,
            ClusterSpec {
                server_threads: 10,
                client_machines: machines,
                threads_per_machine: threads,
                cores_per_machine: 8,
                clients,
            },
        )
    }

    #[test]
    fn nodes_are_created() {
        let mut fabric = Fabric::new(FabricParams::default());
        let c = Cluster::build(
            &mut fabric,
            ClusterSpec {
                client_machines: 3,
                ..Default::default()
            },
        );
        assert_eq!(fabric.node_count(), 4); // 1 server + 3 machines
        assert_eq!(c.machines.len(), 3);
    }

    #[test]
    fn clients_spread_evenly_over_machines() {
        let c = cluster(11, 8, 120);
        let mut per_machine = vec![0usize; 11];
        for cl in 0..120 {
            per_machine[c.machine_of(cl)] += 1;
        }
        let min = per_machine.iter().min().unwrap();
        let max = per_machine.iter().max().unwrap();
        assert!(max - min <= 1, "imbalanced: {per_machine:?}");
    }

    #[test]
    fn threads_spread_within_machine() {
        let c = cluster(2, 4, 32);
        // 16 clients per machine over 4 threads => 4 per thread.
        for t in 0..c.total_client_threads() {
            assert_eq!(c.clients_on_thread(t), 4);
        }
    }

    #[test]
    fn thread_indices_are_global_and_bounded() {
        let c = cluster(5, 8, 40);
        for cl in 0..40 {
            assert!(c.thread_of(cl) < c.total_client_threads());
            assert_eq!(c.node_of(cl), c.machines[c.machine_of(cl)]);
        }
        // 40 clients over 5 machines × 8 threads: exactly one per thread.
        for t in 0..40 {
            assert_eq!(c.clients_on_thread(t), 1);
        }
    }

    #[test]
    fn client_cpu_shares_threads_and_stretches_charges() {
        // 2 machines × 1 thread, 12 threads' worth of oversubscription
        // off: clients 0 and 2 share machine 0's only thread.
        let mut cpu = ClientCpu::new(cluster(2, 1, 4));
        let cost = SimDuration::nanos(100);
        let first = cpu.acquire(0, SimTime(50), cost);
        let queued = cpu.acquire(2, SimTime(60), cost);
        let other = cpu.acquire(1, SimTime(60), cost);
        assert_eq!((first.begin, first.complete), (SimTime(50), SimTime(150)));
        assert_eq!(
            (queued.begin, queued.complete),
            (SimTime(150), SimTime(250))
        );
        assert_eq!(other.begin, SimTime(60), "machine 1 has its own thread");
        // A straggler's charges stretch; its neighbours' do not, but they
        // queue behind it on the shared thread.
        cpu.straggle(2, 3, 3, 1);
        let slow = cpu.acquire(2, SimTime(1_000), cost);
        let behind = cpu.acquire(0, SimTime(1_000), cost);
        assert_eq!(slow.complete, SimTime(1_300));
        assert_eq!(
            (behind.begin, behind.complete),
            (SimTime(1_300), SimTime(1_400))
        );
        // 16 threads on 8 cores: every charge doubles.
        let mut packed = ClientCpu::new(cluster(1, 16, 16));
        assert_eq!(packed.acquire(5, SimTime(0), cost).complete, SimTime(200));
    }

    #[test]
    #[should_panic(expected = "at least one client machine")]
    fn zero_machines_rejected() {
        cluster(0, 1, 1);
    }
}
