//! ScaleRPC configuration.

use simcore::SimDuration;

/// Tunable parameters of a ScaleRPC server.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleRpcConfig {
    /// Default connection-group size. The paper's evaluation settles on
    /// 40 for its hardware (Fig. 11(b)): small groups cannot saturate the
    /// NIC, large ones re-introduce cache contention.
    pub group_size: usize,
    /// Default time-slice length; 100 µs balances throughput against the
    /// tail latency added by waiting for one's group (Fig. 11(a)).
    pub time_slice: SimDuration,
    /// Message blocks per client zone (bounds per-client in-flight
    /// requests).
    pub slots: usize,
    /// Message block size in bytes; 4 KB by default to match the largest
    /// message UD-based RPCs can carry (footnote 2 of the paper).
    pub block_size: usize,
    /// Enable the priority-based dynamic scheduler (§3.2). When false the
    /// server behaves like the *Static* mode of Fig. 12: fixed groups,
    /// fixed slices.
    pub dynamic_scheduling: bool,
    /// Re-evaluate groups after this many complete rotations (the paper's
    /// scheduler adjusts lazily).
    pub regroup_rotations: u32,
    /// Offset of the first context switch. Multi-server deployments keep
    /// this identical (global synchronization, §4.2); the misalignment
    /// ablation staggers it per server to show why that matters.
    pub first_slice_offset: simcore::SimDuration,
    /// Outstanding requests the *client side* keeps in flight (the
    /// asynchronous window of §3.6.1). `1` is the seed's synchronous
    /// client, bit-exact; `> 1` additionally enables context-switch
    /// re-arming (a notification landing with requests still staged
    /// republishes the endpoint entry instead of stranding them). Must
    /// not exceed `slots`.
    pub client_window: usize,
    /// Per-client tenant tags, one per connected client (empty = the
    /// single-tenant deployments of the paper). Tags feed multi-tenant
    /// accounting and, with [`tenant_isolate`](Self::tenant_isolate),
    /// the scheduler's grouping.
    pub tenant_of: Vec<u32>,
    /// Lazy connection establishment (the elastic control plane): when
    /// true, clients join with *zero* established connections and the
    /// first RPC pays the full modelled QP setup cost
    /// (`FabricParams::conn_setup_cpu` + RTS transition latency) before
    /// any byte flows; requests submitted while setup is in flight are
    /// buffered client-side and flushed in order on
    /// `Upcall::ConnEstablished`. When false (the default) connections
    /// are established eagerly at construction, exactly like the seed —
    /// steady-state runs stay bit-identical.
    pub lazy_connect: bool,
    /// Arms the failover machinery for chaos runs: every response is
    /// kept in the per-client replay cache so a retransmission whose
    /// original response was lost (crash window, connection churn) can
    /// be answered instead of silently dropped by the exactly-once
    /// guard, until it lands or the client's ack floor passes it. The
    /// scenario compiler sets this whenever a timeline contains
    /// lifecycle events; steady-state runs leave it false and stay
    /// bit-identical (the cache is pure state, never events).
    pub elastic: bool,
    /// When true (and `tenant_of` is set), the scheduler never places
    /// clients of different tenants in the same connection group — the
    /// per-tenant group cap defense against noisy neighbors evaluated
    /// in EXPERIMENTS.md. When false, grouping is tenant-oblivious and
    /// only the priority tiers separate an adversarial tenant.
    pub tenant_isolate: bool,
}

impl Default for ScaleRpcConfig {
    fn default() -> Self {
        ScaleRpcConfig {
            group_size: 40,
            time_slice: SimDuration::micros(100),
            slots: 8,
            block_size: 4096,
            dynamic_scheduling: true,
            regroup_rotations: 4,
            first_slice_offset: SimDuration::ZERO,
            client_window: 1,
            lazy_connect: false,
            elastic: false,
            tenant_of: Vec::new(),
            tenant_isolate: false,
        }
    }
}

impl ScaleRpcConfig {
    /// Checks internal consistency: the first degenerate setting, as a
    /// message naming the field. For configs built from outside input.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.group_size == 0 {
            return Err("group_size must be positive");
        }
        if self.time_slice == SimDuration::ZERO {
            return Err("time_slice must be positive");
        }
        if !(1..256).contains(&self.slots) {
            return Err("slots must be in 1..256");
        }
        if self.block_size < 64 {
            return Err("block_size must hold a message");
        }
        if self.regroup_rotations == 0 {
            return Err("regroup_rotations must be positive");
        }
        if !(1..=self.slots).contains(&self.client_window) {
            return Err("client_window must be in 1..=slots");
        }
        if self.tenant_isolate && self.tenant_of.is_empty() {
            return Err("tenant_isolate requires tenant_of tags");
        }
        Ok(())
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate settings, with [`check`](Self::check)'s
    /// message.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = ScaleRpcConfig::default();
        assert_eq!(c.group_size, 40);
        assert_eq!(c.time_slice, SimDuration::micros(100));
        assert_eq!(c.block_size, 4096);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "group_size")]
    fn zero_group_rejected() {
        ScaleRpcConfig {
            group_size: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "slots")]
    fn huge_slots_rejected() {
        ScaleRpcConfig {
            slots: 256,
            ..Default::default()
        }
        .validate();
    }
}
