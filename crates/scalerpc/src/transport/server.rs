//! The `RPCServer` half of [`ScaleRpc`] (§3.2–3.5): warmup fetches and
//! their stagger, the zone scan, request execution with legacy routing,
//! the context switch and its notifications, and response posting.

use bytes::Bytes;
use rdma_fabric::{CqId, Fabric, MrId, QpId, RemoteAddr, Wc, WcOpcode, WorkRequest};
use rpc_core::cluster::ClientId;
use rpc_core::driver::Cx;
use rpc_core::message::{MsgBuf, FLAG_CTX_SWITCH, HEADER, TRAILER};
use rpc_core::pool::write_block;
use rpc_core::transport::ServerHandler;
use simcore::{SimDuration, SimTime};
use simtrace::InstantKind::{self, GroupReprioritize, GroupSwitch, LegacyDemotion, SliceEnd};
use simtrace::InstantKind::{SliceStart, WarmupFetchDone, WarmupFetchIssue};

use super::{ScaleEv, ScaleRpc, ENTRY, NOTIFY_SEQ};
use crate::scheduler::{ClientStats, GroupPlan};

/// The server's record of one client.
#[derive(Debug)]
pub(super) struct Served {
    qp: QpId,
    /// The client's local region, as exchanged at connection setup.
    region: MrId,
    /// Responses not yet posted for this client (piggyback bookkeeping).
    inflight_responses: usize,
    /// Set at a context switch; the next response carries the event.
    needs_ctx: bool,
    /// Server-side mirror of the endpoint entry's Valid flag.
    entry_valid: bool,
    /// Slice epoch of the last warmup fetch (suppresses duplicate
    /// fetches within one slice).
    last_fetch_epoch: u64,
    /// Whether the server answered this client during the current slice.
    served_this_slice: bool,
}

impl Served {
    pub(super) fn new(qp: QpId, region: MrId) -> Self {
        Served {
            qp,
            region,
            inflight_responses: 0,
            needs_ctx: false,
            entry_valid: false,
            last_fetch_epoch: u64::MAX,
            served_this_slice: false,
        }
    }
}

/// Each client's `(group, zone)` under `plan`: the first group listing
/// it and its position there — what [`GroupPlan::group_of`] followed by
/// a position scan of that group finds.
pub(super) fn zone_table(plan: &GroupPlan, clients: usize) -> Vec<Option<(usize, usize)>> {
    let mut table = vec![None; clients];
    for (g, members) in plan.groups.iter().enumerate() {
        for (z, &c) in members.iter().enumerate() {
            if let Some(entry @ None) = table.get_mut(c) {
                *entry = Some((g, z));
            }
        }
    }
    table
}

impl<H: ServerHandler> ScaleRpc<H> {
    /// The processing-pool block a direct write of `(client, seq)` lands
    /// in, or `None` while the client is in no group.
    pub(super) fn direct_block(&self, client: ClientId, seq: u64) -> Option<(MrId, usize, usize)> {
        let (_, zone) = self.zone_of(client)?;
        let pool = self.pools[self.pool_pair.processing()];
        let offset = self.geom.offset(zone, self.geom.slot_of_seq(seq));
        Some((pool, offset, self.cfg.block_size))
    }

    /// The server still holds `client`'s endpoint entry valid (unfetched).
    pub(super) fn entry_valid(&self, client: ClientId) -> bool {
        self.served[client].entry_valid
    }

    /// `client`'s response block `slot` (`slots`: the control block).
    fn resp_block(&self, client: ClientId, slot: usize) -> (MrId, usize, usize) {
        let bs = self.cfg.block_size;
        (self.served[client].region, (self.cfg.slots + slot) * bs, bs)
    }

    /// `client`'s `(group, zone)`, the zone clamped into the pools.
    fn zone_of(&self, client: ClientId) -> Option<(usize, usize)> {
        let (group, zone) = self.zones.get(client).copied().flatten()?;
        Some((group, zone.min(self.geom.zones - 1)))
    }

    fn next_group(&self) -> usize {
        (self.cur + 1) % self.plan.groups.len()
    }

    /// Word `i` of `client`'s endpoint entry in server memory: 0 is the
    /// client's ack floor, 2 the Valid flag.
    fn entry_word(&self, client: ClientId, i: usize, fabric: &Fabric) -> Option<u64> {
        let endpoint = fabric.mr(self.endpoint_mr).ok()?;
        endpoint.read_u64(client * ENTRY + 8 * i).ok()
    }

    fn clear_entry(&self, client: ClientId, fabric: &mut Fabric) {
        let endpoint = fabric.mr_mut(self.endpoint_mr).expect("endpoint mr");
        endpoint
            .write(client * ENTRY + 16, &0u64.to_le_bytes())
            .expect("entry clear");
    }

    fn slice(&self) -> SimDuration {
        self.plan.slices[self.cur.min(self.plan.slices.len() - 1)]
    }

    /// A direct request arrived into a pool (a crashed server polls
    /// none).
    pub(super) fn on_pool_write(
        &mut self,
        mr: MrId,
        offset: usize,
        len: usize,
        cx: &mut Cx<'_, ScaleEv>,
    ) {
        let Some((zone, _slot)) = self.geom.locate(offset) else {
            return;
        };
        if self.life.is_down() {
            return;
        }
        let block_start = self.geom.block_start(offset);
        self.direct_requests += 1;
        self.execute_block(mr, zone, block_start, Some((offset, len)), cx);
    }

    /// An endpoint entry landed at `offset`: if valid, raises its client's
    /// ack floor and returns the client, after fetching eagerly if the
    /// client's group is served or warmed (else the entry waits for its
    /// warm phase). A crashed server's warmup engine is dead.
    pub(super) fn on_entry_write(
        &mut self,
        offset: usize,
        cx: &mut Cx<'_, ScaleEv>,
    ) -> Option<ClientId> {
        let client = offset / ENTRY;
        if self.life.is_down() || client >= self.served.len() {
            return None;
        }
        if self.entry_word(client, 2, cx.fabric) != Some(1) {
            return None;
        }
        let floor = self.entry_word(client, 0, cx.fabric).unwrap_or(0);
        self.life.raise_floor(client, floor);
        self.served[client].entry_valid = true;
        if let Some((g, _)) = self.zone_of(client) {
            let epoch = self.slice_epoch;
            if g == self.cur {
                self.fetch_client(client, self.pool_pair.processing(), epoch, cx);
            } else if g == self.next_group() {
                self.fetch_client(client, self.pool_pair.warmup(), epoch, cx);
            }
        }
        Some(client)
    }

    /// Fetches a client's staged batch with an RDMA read into its zone of
    /// `pool_idx`, unless planned in an earlier slice, already consumed,
    /// or the server is down.
    pub(super) fn fetch_client(
        &mut self,
        client: ClientId,
        pool_idx: usize,
        epoch: u64,
        cx: &mut Cx<'_, ScaleEv>,
    ) {
        if self.life.is_down() || epoch != self.slice_epoch || !self.served[client].entry_valid {
            return;
        }
        let Some((_, zone)) = self.zone_of(client) else {
            return;
        };
        if self.served[client].last_fetch_epoch == self.slice_epoch {
            return; // already fetched this slice
        }
        // Deferred-scan fetches (into the warmup pool) park data in the
        // zone until the context switch; a second fetch into the same
        // zone before that scan (possible across group replans) would
        // overwrite the first client's staged requests. Block it — the
        // entry stays valid and the client is fetched at its next warm
        // phase instead. Eager fetches into the processing pool are
        // consumed on completion and need no reservation.
        if pool_idx == self.pool_pair.warmup() {
            if self.zone_reserved[pool_idx][zone] != u64::MAX {
                return;
            }
            self.zone_reserved[pool_idx][zone] = self.slice_epoch;
        }
        let st = &mut self.served[client];
        st.last_fetch_epoch = self.slice_epoch;
        st.entry_valid = false;
        let (qp, region) = (st.qp, st.region);
        self.clear_entry(client, cx.fabric);
        let read = WorkRequest::Read {
            local_mr: self.pools[pool_idx],
            local_offset: self.geom.offset(zone, 0),
            remote: RemoteAddr::new(region, 0),
            len: self.geom.zone_bytes(),
        };
        let Some(info) = self.life.posted(cx.post(qp, read, true, None)) else {
            // QP torn down under us: the fetch is lost; the client
            // republishes (or the retry layer re-drives) after recovery.
            return;
        };
        self.warmup_fetches += 1;
        self.tracer
            .instant(WarmupFetchIssue, cx.now, client as u64, self.slice_epoch);
        self.pending_reads
            .insert(info.wr_id, (client, pool_idx, zone, self.slice_epoch));
    }

    /// Starts warming every member of the next group whose endpoint
    /// entry is valid. Fetch posts are staggered over the first 60 % of
    /// the slice: bursting them would momentarily flood the NIC cache with
    /// the warm group's QP contexts and evict the serving group's,
    /// stalling the very responses the slice exists to send.
    fn warm_next_group(&mut self, cx: &mut Cx<'_, ScaleEv>) {
        let pool_idx = self.pool_pair.warmup();
        let members = self.plan.groups[self.next_group()].clone();
        let span = SimDuration::nanos(self.slice().as_nanos() * 6 / 10);
        let n = members.len().max(1) as u64;
        for (i, c) in members.into_iter().enumerate() {
            if self.served[c].entry_valid {
                let delay = SimDuration::nanos(span.as_nanos() * i as u64 / n);
                cx.after(
                    delay,
                    ScaleEv::Fetch {
                        client: c,
                        pool_idx,
                        epoch: self.slice_epoch,
                    },
                );
            }
        }
    }

    /// A completion on `cq`: a warmup fetch finished if it is ours.
    pub(super) fn on_read_done(&mut self, cq: CqId, wc: Wc, cx: &mut Cx<'_, ScaleEv>) {
        if self.life.is_down() || cq != self.server_cq || wc.opcode != WcOpcode::RdmaRead {
            return;
        }
        let Some((client, pool_idx, zone, posted_epoch)) = self.pending_reads.remove(&wc.wr_id)
        else {
            return;
        };
        self.tracer
            .instant(WarmupFetchDone, cx.now, client as u64, posted_epoch);
        // An in-slice fetch for the serving group executes now. So does
        // one posted as an eager in-slice fetch whose read the context
        // switch beat: the pool's role flipped, the switch scan already
        // ran, and no reservation guards this zone — consume the data
        // immediately or a later warm fetch would overwrite it.
        // Same-epoch warmup-pool fetches wait for the context switch
        // (their zones are reserved until its scan).
        if pool_idx == self.pool_pair.processing() || posted_epoch != self.slice_epoch {
            self.scan_zone(pool_idx, zone, cx);
        }
    }

    /// Decodes and executes the message in `(pool_mr, block_start)`,
    /// charging the owning worker. `touched` is the byte range the DMA
    /// write covered (for LLC accounting on direct arrivals).
    fn execute_block(
        &mut self,
        pool_mr: MrId,
        zone: usize,
        block_start: usize,
        touched: Option<(usize, usize)>,
        cx: &mut Cx<'_, ScaleEv>,
    ) {
        // Consume the message, duplicate or not, so the scan moves on
        // (stateless pool: clearing Valid is the only write needed; the
        // next occupant simply overwrites).
        let region = cx.fabric.mr_mut(pool_mr).expect("pool mr");
        let Some((header, payload)) = MsgBuf::take_rpc(region, block_start, self.cfg.block_size)
        else {
            return;
        };
        (*payload).clone_into(&mut self.request);
        let client = header.client_id as usize;
        if client >= self.served.len() {
            return;
        }
        // Exactly-once guard: a warmup re-fetch can deliver a staged
        // request a second time; executing it again would repeat handler
        // side effects (§3.5's re-execution hazard).
        if header.seq != NOTIFY_SEQ && !self.life.record_seq(client, header.seq) {
            self.dup_drops += 1;
            // The handler does not run again; a lost response is
            // answered from the replay cache.
            if let Some(resp) = self.life.replay(client, header.seq) {
                let w = self.workers.owner_of(zone);
                let done = self.workers.run(w, cx.now, self.pool_check + self.post_cpu);
                self.respond_at(done, client, header.seq, resp, cx);
            }
            return;
        }
        let msg_len = HEADER + self.request.len();
        let whole = (msg_len + TRAILER).min(self.cfg.block_size);
        let (touch_off, touch_len) = touched.unwrap_or((block_start, whole));
        let read_cost = cx
            .fabric
            .cpu_access(pool_mr, touch_off, touch_len)
            .expect("pool access");
        self.stats_cur[client].ops += 1;
        self.stats_cur[client].bytes += msg_len as u64;
        let (resp, handler_cost) = self.handler.handle(client, &self.request, cx.fabric);
        let service = self.pool_check + read_cost + handler_cost + self.post_cpu;
        // §3.5: a call that runs longer than ~half a slice risks being cut
        // by a context switch; its first execution is recorded and later
        // invocations of the same call type run on a dedicated thread in
        // legacy mode. Explicitly flagged requests go there directly.
        let slice_half = SimDuration::nanos(self.cfg.time_slice.as_nanos() / 2);
        let is_legacy = header.is_legacy() || self.legacy_types.contains(&header.call_type);
        if handler_cost > slice_half && self.legacy_types.insert(header.call_type) {
            let (call, cost) = (header.call_type as u64, handler_cost.as_nanos());
            self.tracer.instant(LegacyDemotion, cx.now, call, cost);
        }
        let done = if is_legacy {
            self.legacy_requests += 1;
            self.legacy_thread.acquire(cx.now, service).complete
        } else {
            let w = self.workers.owner_of(zone);
            self.workers.run(w, cx.now, service)
        };
        // Includes queueing behind the zone's worker, so slice-wait
        // shows up in the stage breakdown.
        self.traces.handler(client, header.seq, cx.now, done);
        self.respond_at(done, client, header.seq, resp, cx);
    }

    fn respond_at(
        &mut self,
        done: SimTime,
        client: ClientId,
        seq: u64,
        payload: Bytes,
        cx: &mut Cx<'_, ScaleEv>,
    ) {
        let st = &mut self.served[client];
        st.inflight_responses += 1;
        st.served_this_slice = true;
        cx.at(
            done,
            ScaleEv::SendResponse {
                client,
                seq,
                payload,
            },
        );
    }

    /// Scans one zone of a pool for valid messages (used right after a
    /// context switch on the fresh processing pool).
    fn scan_zone(&mut self, pool_idx: usize, zone: usize, cx: &mut Cx<'_, ScaleEv>) {
        let pool_mr = self.pools[pool_idx];
        let mut empty_checks = 0u64;
        for slot in 0..self.cfg.slots {
            let block_start = self.geom.offset(zone, slot);
            let pool = cx.fabric.mr(pool_mr).expect("pool mr");
            let valid = pool.read(block_start + MsgBuf::valid_offset(self.cfg.block_size), 1);
            if MsgBuf::is_valid(&valid.expect("block bounds")) {
                self.scan_requests += 1;
                self.execute_block(pool_mr, zone, block_start, None, cx);
            } else {
                empty_checks += 1;
            }
        }
        if empty_checks > 0 {
            // Workers still pay to poll empty blocks.
            let w = self.workers.owner_of(zone);
            self.workers.run(w, cx.now, self.pool_check * empty_checks);
        }
    }

    /// Posts a finished request's response, piggybacking a pending
    /// context switch.
    pub(super) fn send_response(
        &mut self,
        client: ClientId,
        seq: u64,
        payload: Bytes,
        cx: &mut Cx<'_, ScaleEv>,
    ) {
        let up = self.life.keep_response(client, seq, &payload);
        let st = &mut self.served[client];
        st.inflight_responses = st.inflight_responses.saturating_sub(1);
        if !up {
            return;
        }
        let mut flags = 0;
        if st.needs_ctx {
            st.needs_ctx = false;
            flags |= FLAG_CTX_SWITCH;
        }
        let (qp, block) = (st.qp, self.resp_block(client, self.geom.slot_of_seq(seq)));
        // Closed when the write lands at the client.
        self.traces.stamp_response(client, seq, cx.now, cx.fabric);
        let posted = write_block(qp, block, None, (client, seq, flags), &payload, cx);
        self.life.posted(posted);
    }

    /// Arms the first slice timer; warmup begins as entries arrive.
    /// Multi-server deployments align (or deliberately stagger) their
    /// schedules through the configured offset.
    pub(super) fn start(&mut self, cx: &mut Cx<'_, ScaleEv>) {
        let slice = self.plan.slices[0] + self.cfg.first_slice_offset;
        self.tracer.instant(SliceStart, cx.now, self.cur as u64, 0);
        cx.after(slice, ScaleEv::SliceEnd { epoch: 0 });
    }

    /// The slice timer of `epoch` fired: switches to the next group
    /// unless the timer is stale.
    pub(super) fn context_switch(&mut self, epoch: u64, cx: &mut Cx<'_, ScaleEv>) {
        if epoch != self.slice_epoch {
            return;
        }
        let (cur, now) = (self.cur as u64, cx.now);
        self.tracer.instant(SliceEnd, now, cur, self.slice_epoch);
        let outgoing = self.plan.groups[self.cur].clone();
        // Collect slice statistics and arrange notifications.
        for c in outgoing {
            let st = &mut self.served[c];
            if st.served_this_slice {
                if st.inflight_responses > 0 {
                    // Piggyback on the next outgoing response.
                    st.needs_ctx = true;
                } else {
                    self.post_ctx_notify(c, cx);
                }
            }
            self.served[c].served_this_slice = false;
            self.stats_last[c] = self.stats_cur[c];
            self.stats_cur[c] = ClientStats::default();
        }
        // Advance: warmup pool becomes the processing pool.
        self.slice_epoch += 1;
        self.cur = (self.cur + 1) % self.plan.groups.len();
        self.pool_pair.swap();
        if self.cur == 0 {
            self.rotations += 1;
            if self.scheduler.dynamic && self.rotations.is_multiple_of(self.cfg.regroup_rotations) {
                self.replan(cx);
            }
        }
        let (cur, rotations) = (self.cur as u64, self.rotations as u64);
        self.tracer.instant(GroupSwitch, now, cur, rotations);
        self.tracer.instant(SliceStart, now, cur, self.slice_epoch);
        // Process whatever warmup fetched into the new pool. All zones
        // are scanned (not just the incoming group's): a regroup may have
        // shifted zone assignments after a fetch was posted, and the
        // polling workers sweep their whole zones regardless. Scanning
        // consumes the parked data, so the pool's fetch reservations
        // lift.
        for z in 0..self.geom.zones {
            self.scan_zone(self.pool_pair.processing(), z, cx);
        }
        self.zone_reserved[self.pool_pair.processing()].fill(u64::MAX);
        // Begin warming the next group into the freed pool.
        self.warm_next_group(cx);
        self.restart_slices(cx);
    }

    fn replan(&mut self, cx: &mut Cx<'_, ScaleEv>) {
        let before = self.plan.groups.len();
        self.plan = self.scheduler.replan(&self.stats_last);
        self.zones = zone_table(&self.plan, self.served.len());
        let after = self.plan.groups.len();
        self.replan_history.push((cx.now, after));
        let rotations = self.rotations as u64;
        self.tracer
            .instant(GroupReprioritize, cx.now, rotations, after as u64);
        let kind = match after.cmp(&before) {
            std::cmp::Ordering::Greater => InstantKind::GroupSplit,
            std::cmp::Ordering::Less => InstantKind::GroupMerge,
            std::cmp::Ordering::Equal => return,
        };
        self.tracer
            .instant(kind, cx.now, before as u64, after as u64);
    }

    pub(super) fn restart_slices(&mut self, cx: &mut Cx<'_, ScaleEv>) {
        let epoch = self.slice_epoch;
        cx.after(self.slice(), ScaleEv::SliceEnd { epoch });
    }

    /// Tells a client with nothing in flight of the context switch.
    fn post_ctx_notify(&mut self, client: ClientId, cx: &mut Cx<'_, ScaleEv>) {
        self.ctx_notifies += 1;
        let block = self.resp_block(client, self.cfg.slots);
        let header = (client, NOTIFY_SEQ, FLAG_CTX_SWITCH);
        let posted = write_block(self.served[client].qp, block, None, header, b"", cx);
        self.life.posted(posted);
    }

    /// Forgets `client`'s connection state (endpoint entry, fetch and
    /// piggyback bookkeeping) that refers to a connection that no longer
    /// exists. Memory regions survive — this is the warm-restart model.
    pub(super) fn forget_client(&mut self, client: ClientId, cx: &mut Cx<'_, ScaleEv>) {
        self.clear_entry(client, cx.fabric);
        let st = &mut self.served[client];
        st.entry_valid = false;
        st.last_fetch_epoch = u64::MAX;
        st.inflight_responses = 0;
        st.needs_ctx = false;
    }

    /// The server crashed: slice timers and planned fetches go stale,
    /// warmup reads never complete, and the warm restart reformats the
    /// pools — else the post-recovery scan would execute a request a
    /// pre-crash fetch had copied there, whose issuer presumed it dead.
    pub(super) fn crash(&mut self, fabric: &mut Fabric) {
        self.slice_epoch += 1;
        self.pending_reads.clear();
        self.zone_reserved[0].fill(u64::MAX);
        self.zone_reserved[1].fill(u64::MAX);
        let bs = self.cfg.block_size;
        for pool_mr in self.pools {
            let region = fabric.mr_mut(pool_mr).expect("pool mr");
            for block in 0..self.geom.bytes() / bs {
                MsgBuf::clear_valid(region, block * bs, bs);
            }
        }
    }

    /// The server's half of [`ScaleRpc::client_diag`].
    pub(super) fn server_diag(&self, client: ClientId, fabric: &Fabric) -> String {
        let entry_word = self.entry_word(client, 2, fabric);
        let group = self.plan.group_of(client);
        let (cur, epoch) = (self.cur, self.slice_epoch);
        format!(
            "{:?} entry_word={entry_word:?} group={group:?} cur={cur} epoch={epoch}",
            self.served[client]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Scheduler;

    #[test]
    fn zone_table_is_group_of_plus_position() {
        let initial = Scheduler::new(40, SimDuration::micros(100), true).initial_plan(130);
        // A client listed twice resolves to its first listing; 7 and 9 are
        // in no group.
        let overlapping = GroupPlan {
            groups: vec![vec![3, 1, 4], vec![1, 5, 3, 2, 6], vec![8, 0]],
            slices: vec![SimDuration::micros(100); 3],
        };
        for (plan, clients) in [(initial, 130), (overlapping, 10)] {
            let table = zone_table(&plan, clients);
            assert_eq!(table.len(), clients);
            for (c, &entry) in table.iter().enumerate() {
                let scanned = plan
                    .group_of(c)
                    .map(|g| (g, plan.groups[g].iter().position(|&m| m == c).unwrap()));
                assert_eq!(entry, scanned, "client {c}");
            }
        }
    }
}
