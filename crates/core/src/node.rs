//! The per-node ASVM instance and its ingress: every input of the engine
//! enters here, is charged, and is dispatched to one handler.
//!
//! One [`AsvmNode`] lives next to each node's [`VmSystem`]. Requests from
//! the local VM enter through [`AsvmNode::handle_emmi`]; protocol messages
//! from peer instances through [`AsvmNode::handle_msg`]; pager replies
//! through [`AsvmNode::on_pager_reply`]; evictions through
//! [`AsvmNode::evict_external`]; the failure detector's verdicts and the
//! watchdog tick through [`AsvmNode::peer_suspected`] and
//! [`AsvmNode::watchdog`]. Every transition is asynchronous — no call
//! ever waits; continuation state lives in [`crate::PageInfo::busy`] and
//! the queues, per the paper's "asynchronous state transitions" rule.
//!
//! Each entry point charges the node's cost model, looks up the memory
//! object, and builds one `Cx` — the per-invocation handler context
//! `(object, me, now, vm, fx)`. Every handler is a method on `Cx` that
//! takes only its event's own fields, and lives with its concern:
//!
//! | module | concern |
//! |---|---|
//! | `node` | ingress, dispatch, the context and its kernel-call helpers |
//! | `route` | the §3.4 redirector (forwarding tiers) and hint maintenance |
//! | `grant` | the Figure 7 fault → serve → grant path and the pager fill |
//! | `evict` | the §3.6 four-step internode pageout |
//! | `recovery` | ownership reconstruction, the watchdog, suspicion unwinding |
//! | [`crate::copymgmt`] | §3.7 delayed copies: version bumps, push, pull |
//! | [`crate::prefetch`] | prefetch glue and the waste latch |
//!
//! Dispatch (event → handler): `EMMI data_request`/`data_unlock` →
//! `on_fault`; `pull_completed` → `on_pull_completed` (escalating into
//! the shadow's object); pager supply → `pager_supply`; VM eviction →
//! `evict`; every [`AsvmMsg`] variant → the `on_*`/`*_reply` handler of
//! the same name.

use machvm::{
    Access, EmmiToKernel, EmmiToPager, KeyTable, LockMode, LockOp, MemObjId, PageData, PageIdx,
    SlotTable, SupplyMode, VmObjId, VmSystem,
};
use std::collections::BTreeSet;
use svmsim::{CostModel, Dur, NodeId, Time};

use crate::locks::PageRange;
use crate::object::{
    AsvmObject, PageInfo, PendingLocal, QueuedReq, RecoverState, StashedCopy, StaticHint,
};
use crate::protocol::{AsvmMsg, ReqKind, ReqPath};

/// Effects produced by ASVM handlers: the shared manager sink, carrying
/// ASVM protocol messages.
pub type Fx = machvm::Fx<AsvmMsg>;

/// The ASVM instance of one node.
#[derive(Clone)]
pub struct AsvmNode {
    me: NodeId,
    cost: CostModel,
    /// Boxed: an object record is ~800 bytes, and the table's load-factor
    /// slack should cost pointers.
    objects: KeyTable<MemObjId, Box<AsvmObject>>,
    by_vmobj: SlotTable<VmObjId, MemObjId>,
    /// Any registered object ever enabled prefetch: gates the per-access
    /// bookkeeping hook ([`AsvmNode::prefetch_note_access`]) so
    /// prefetch-off runs pay exactly one boolean test per access.
    prefetch_live: bool,
    /// Speculative requests [`AsvmNode::cancel_unclaimed_speculation`]
    /// forgot. The static manager may have routed one to the pager and
    /// be serializing the page behind that fill: when the supply arrives
    /// after all, it must still install here and report ownership.
    cancelled_fills: BTreeSet<(MemObjId, PageIdx)>,
}

/// The per-invocation handler context: the memory object an event
/// concerns, this node, the event's instant, the co-located VM and the
/// effect sink. Every [`AsvmNode`] entry point builds one after charging
/// its cost; every handler is a method on it.
pub(crate) struct Cx<'a> {
    pub o: &'a mut AsvmObject,
    pub me: NodeId,
    pub now: Time,
    pub vm: &'a mut VmSystem,
    pub fx: &'a mut Fx,
}

impl AsvmNode {
    /// Creates the instance for node `me`.
    pub fn new(me: NodeId, cost: CostModel) -> AsvmNode {
        AsvmNode {
            me,
            cost,
            objects: KeyTable::new(),
            by_vmobj: SlotTable::new(),
            prefetch_live: false,
            cancelled_fills: BTreeSet::new(),
        }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Approximate bytes of non-pageable protocol metadata this node
    /// holds: object membership, per-page owner/copyset records, the
    /// fixed-capacity forwarding hint caches, and pending-request tables.
    ///
    /// This is the gauge behind the paper's bounded-memory claim: ASVM
    /// per-node state scales with the pages a node actually uses (plus
    /// LRU hint caches of configured capacity), not with cluster size —
    /// unlike XMM's centralized table, which grows as pages × nodes on
    /// the manager.
    pub fn state_bytes(&self) -> u64 {
        use std::mem::size_of;
        let node_ids = |n: usize| (n * size_of::<NodeId>()) as u64;
        let pages = |n: usize| (n * size_of::<PageIdx>()) as u64;
        let mut total =
            (self.by_vmobj.len() * (size_of::<VmObjId>() + size_of::<MemObjId>())) as u64;
        total += (self.cancelled_fills.len() * size_of::<(MemObjId, PageIdx)>()) as u64;
        for o in self.objects.values() {
            total += size_of::<AsvmObject>() as u64;
            total += node_ids(o.nodes.len() + o.stripe.len() + o.suspects.len());
            total += node_ids(o.pageout_refused.len());
            for info in o.pages.values() {
                total += (size_of::<PageIdx>() + size_of::<PageInfo>()) as u64;
                total += node_ids(info.readers.len());
                total += (info.queued.len() * size_of::<QueuedReq>()) as u64;
            }
            total += (o.pending.len() * (size_of::<PageIdx>() + size_of::<PendingLocal>())) as u64;
            total += (o.stash.len() * (size_of::<PageIdx>() + size_of::<StashedCopy>())) as u64;
            total += (o.dyn_cache.len() * (size_of::<PageIdx>() + size_of::<NodeId>())) as u64;
            total +=
                (o.static_cache.len() * (size_of::<PageIdx>() + size_of::<StaticHint>())) as u64;
            total += pages(o.static_seen.len());
            total += (o.static_filling.len() * (size_of::<PageIdx>() + size_of::<NodeId>())) as u64;
            for q in o
                .fill_waiters
                .values()
                .chain(o.static_waiting.values())
                .chain(o.pull_in_flight.values())
            {
                total += size_of::<PageIdx>() as u64 + (q.len() * size_of::<QueuedReq>()) as u64;
            }
            for (_, members) in &o.copy_settles {
                total += size_of::<NodeId>() as u64 + node_ids(members.len());
            }
            for r in o.recover.values() {
                total += (size_of::<PageIdx>() + size_of::<RecoverState>()) as u64;
                total += node_ids(r.expect.len() + r.holders.len());
                total += (r.waiting.len() * size_of::<QueuedReq>()) as u64;
            }
            total += pages(o.prefetched.len());
        }
        total
    }

    /// Registers `o`, this node's representation of its memory object
    /// (built by [`AsvmObject::new`] when the object is first mapped
    /// here). Notifies the home node so membership propagates.
    pub fn register_object(&mut self, o: AsvmObject, fx: &mut Fx) {
        self.prefetch_live |= o.cfg.prefetch_depth > 0;
        let (mobj, vm_obj, home) = (o.mobj, o.vm_obj, o.home);
        let prev = self.objects.insert(mobj, Box::new(o));
        assert!(prev.is_none(), "object {mobj:?} registered twice");
        self.by_vmobj.insert(vm_obj, mobj);
        if self.me != home {
            fx.send(
                home,
                AsvmMsg::MapNotify {
                    mobj,
                    node: self.me,
                },
            );
        }
    }

    /// True if `mobj` is registered here.
    pub fn has_object(&self, mobj: MemObjId) -> bool {
        self.objects.contains_key(&mobj)
    }

    /// The object state (for tests and harnesses).
    pub fn object(&self, mobj: MemObjId) -> &AsvmObject {
        self.objects.get(&mobj).expect("object not registered")
    }

    /// Mutable object state (test setup only).
    pub fn object_mut(&mut self, mobj: MemObjId) -> &mut AsvmObject {
        self.objects.get_mut(&mobj).expect("object not registered")
    }

    /// Iterates over all registered objects.
    pub fn objects(&self) -> impl Iterator<Item = &AsvmObject> {
        self.objects.values().map(|o| &**o)
    }

    /// The memory object behind a VM object, if ASVM manages it.
    pub fn mobj_of(&self, vm_obj: VmObjId) -> Option<MemObjId> {
        self.by_vmobj.get(&vm_obj).copied()
    }

    /// The object state, if `mobj` is registered here — the non-panicking
    /// lookup the cluster layer uses where an unknown object is
    /// legitimate (first mapping).
    pub fn find_object(&self, mobj: MemObjId) -> Option<&AsvmObject> {
        self.objects.get(&mobj).map(|o| &**o)
    }

    /// The object behind `vm_obj`, which must be ASVM-managed.
    fn managed(&mut self, vm_obj: VmObjId) -> &mut AsvmObject {
        let mobj = self
            .by_vmobj
            .get(&vm_obj)
            .expect("VM object not ASVM-managed");
        self.objects
            .get_mut(mobj)
            .expect("by_vmobj names registered objects")
    }

    /// Page state for `(mobj, page)` on this node.
    pub fn page_info(&self, mobj: MemObjId, page: PageIdx) -> Option<&PageInfo> {
        self.objects.get(&mobj)?.pages.get(&page).map(|pi| &**pi)
    }

    // --- Prefetch (access-pattern-driven, §6 "read clustering") ------------

    /// Whether any object on this node was *configured* with prefetch
    /// enabled. The cluster layer tests this one boolean on the hot
    /// no-fault access path, so prefetch-off runs pay nothing for the
    /// bookkeeping hook. Sticky across the waste latch: an object whose
    /// speculation is latched off still needs its hits noted.
    pub fn wants_access_notes(&self) -> bool {
        self.prefetch_live
    }

    /// Notes a demand access that was satisfied from local memory (no
    /// fault). Settles a speculative fill covering `page` — as a prefetch
    /// hit when the access *read* the prefetched data, as wasted when a
    /// write clobbered it unread (the speculative transfer bought
    /// nothing) — advances the stream detector (hits are part of the
    /// stream), and tops the predicted window back up on read hits so a
    /// steady stream keeps riding ahead of its faults. Writes never top
    /// up: speculative pulls fetch *read* copies, so only read activity
    /// is evidence they help. Returns whether a speculative fill was
    /// settled.
    pub fn prefetch_note_access(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        vm_obj: VmObjId,
        page: PageIdx,
        write: bool,
        fx: &mut Fx,
    ) -> bool {
        let me = self.me;
        let Some(o) = self
            .by_vmobj
            .get(&vm_obj)
            .and_then(|m| self.objects.get_mut(m))
        else {
            return false;
        };
        Cx { o, me, now, vm, fx }.note_access(page, write)
    }

    /// No local task is left to claim a speculative fill: forgets every
    /// speculative request still unanswered and returns how many (the
    /// caller scores them `asvm.prefetch.cancelled`). Only for carriers
    /// that can lose a request for good: a speculative one-sided read
    /// dropped on a backend without link ARQ is re-issued by nothing but
    /// the watchdog, and the watchdog tick stops with the node's last
    /// task. A request that was not lost is still answered — a peer's
    /// grant installs as an unsolicited read copy, a pager supply through
    /// the remembered `cancelled_fills`.
    pub fn cancel_unclaimed_speculation(&mut self) -> u64 {
        let mut cancelled = 0;
        for (mobj, o) in self.objects.iter_mut() {
            let speculative: Vec<PageIdx> = o
                .pending
                .iter()
                .filter(|(_, p)| p.speculative)
                .map(|(page, _)| page)
                .collect();
            for page in speculative {
                o.pending.remove(&page);
                self.cancelled_fills.insert((mobj, page));
                cancelled += 1;
            }
        }
        cancelled
    }

    // --- Ingress -------------------------------------------------------------

    /// Handles an EMMI call from the local VM system on `vm_obj`.
    pub fn handle_emmi(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        vm_obj: VmObjId,
        call: EmmiToPager,
        fx: &mut Fx,
    ) {
        fx.cpu += self.cost.asvm_handle;
        let me = self.me;
        let mut cx = Cx {
            o: self.managed(vm_obj),
            me,
            now,
            vm,
            fx,
        };
        match call {
            EmmiToPager::DataRequest { page, access } => cx.on_fault(page, access, false),
            EmmiToPager::DataUnlock { page, .. } => cx.on_fault(page, Access::Write, true),
            // Not produced by ASVM's own flows, but a correct sink: the
            // contents go back to the real pager.
            EmmiToPager::DataReturn { page, data, dirty } => {
                if dirty {
                    cx.write_back(page, data);
                }
            }
            // Every lock flow here acts synchronously on the local VM, so
            // completions carry no additional information.
            EmmiToPager::LockCompleted { .. } => {}
            EmmiToPager::PullCompleted { page, result } => {
                let Some((shadow, reqs)) = cx.on_pull_completed(page, result) else {
                    return;
                };
                // The chain continues in another distributed object on
                // this node: forward the requests into it, last first.
                let mut cx = Cx {
                    o: self.managed(shadow),
                    me,
                    now,
                    vm,
                    fx,
                };
                for req in reqs.into_iter().rev() {
                    cx.route(page, req, ReqPath::default());
                }
            }
        }
    }

    /// Handles one ASVM protocol message from node `from`: charges the
    /// handling cost and dispatches to the message's handler.
    pub fn handle_msg(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        from: NodeId,
        msg: AsvmMsg,
        fx: &mut Fx,
    ) {
        // Acknowledgements are cheap bookkeeping; state-machine work pays
        // the full handling cost.
        fx.cpu += if msg.is_ack_class() {
            self.cost.asvm_ack_handle
        } else {
            self.cost.asvm_handle
        };
        let me = self.me;
        let mobj = msg.mobj();
        let Some(o) = self.objects.get_mut(&mobj) else {
            panic!("{me}: message for unregistered object {mobj:?}: {msg:?}");
        };
        let mut cx = Cx { o, me, now, vm, fx };
        let range = |first, count| PageRange { first, count };
        match msg {
            AsvmMsg::MapNotify { node, .. } => cx.on_map_notify(node),
            AsvmMsg::Membership { nodes, .. } => cx.on_membership(nodes),
            AsvmMsg::PageReq {
                page, req, path, ..
            } => cx.route(page, req, path),
            AsvmMsg::Grant { page, grant, .. } => cx.grant_arrived(from, page, grant),
            AsvmMsg::Invalidate { page, from, .. } => cx.on_invalidate(page, from),
            AsvmMsg::InvalidateAck { page, from, .. } => cx.invalidate_ack(page, from),
            AsvmMsg::ReadCheck { page, from, .. } => cx.on_read_check(page, from),
            AsvmMsg::ReadCheckReply {
                page,
                from,
                has_copy,
                ..
            } => cx.read_check_reply(page, from, has_copy),
            AsvmMsg::OwnershipTransfer { page, handover, .. } => {
                cx.on_ownership_transfer(page, handover)
            }
            AsvmMsg::AcceptAsk {
                page, from, xfer, ..
            } => cx.on_accept_ask(page, from, xfer),
            AsvmMsg::AcceptReply {
                page, from, accept, ..
            } => cx.accept_reply(page, from, accept),
            AsvmMsg::OwnerHint { page, owner, .. } => cx.owner_hint(page, owner),
            AsvmMsg::PagedHint { page, .. } => cx.record_static(page, StaticHint::Paged),
            AsvmMsg::PushReq { page, from, .. } => cx.on_push_req(page, from),
            AsvmMsg::PushAck {
                page,
                from,
                needs_data,
                ..
            } => cx.on_push_ack(page, from, needs_data),
            AsvmMsg::PushData {
                page, from, data, ..
            } => cx.on_push_data(page, from, data),
            AsvmMsg::PushDone { page, from, .. } => cx.push_done(page, from),
            AsvmMsg::CopyMade { from, .. } => cx.on_copy_made(from),
            AsvmMsg::CopyMadeAck { from, .. } => cx.on_copy_made_ack(from),
            AsvmMsg::CopySettled { .. } => cx.fx.settled.push(mobj),
            AsvmMsg::PullHop { page, req, .. } => cx.pull_dispatch(page, req),
            AsvmMsg::RangeLockReq {
                first, count, from, ..
            } => cx.o.lock_acquire(me, range(first, count), from, cx.fx),
            AsvmMsg::RangeLockGrant { first, count, .. } => {
                cx.fx.lock_granted.push((mobj, range(first, count)))
            }
            AsvmMsg::RangeLockRelease {
                first, count, from, ..
            } => cx.o.lock_release(me, range(first, count), from, cx.fx),
            AsvmMsg::Retry { page, access, .. } => {
                // Re-issue our own request after a push/pull race.
                cx.o.pending.remove(&page);
                cx.request(page, access, false);
            }
            AsvmMsg::RecoverQuery { page, from, .. } => cx.on_recover_query(page, from),
            AsvmMsg::RecoverReply {
                page, from, view, ..
            } => cx.recover_reply(page, from, view),
            AsvmMsg::RecoverElect { page, readers, .. } => cx.recover_elect(page, readers),
        }
    }

    /// A reply from the real pager arrived for `vm_obj` (over NORMA-IPC).
    pub fn on_pager_reply(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        vm_obj: VmObjId,
        reply: EmmiToKernel,
        fx: &mut Fx,
    ) {
        fx.cpu += self.cost.asvm_handle;
        let EmmiToKernel::DataSupply { page, data, .. } = reply else {
            panic!("unexpected pager reply {reply:?}");
        };
        let me = self.me;
        let mobj = self.mobj_of(vm_obj).expect("VM object not ASVM-managed");
        let cancelled = self.cancelled_fills.remove(&(mobj, page));
        let o = self.object_mut(mobj);
        Cx { o, me, now, vm, fx }.pager_supply(page, data, cancelled);
    }

    /// The VM evicted `page` of `vm_obj`; run the four-step internode
    /// pageout algorithm (§3.6).
    #[allow(clippy::too_many_arguments)] // fixed by `Engine::handle_evict`
    pub fn evict_external(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        vm_obj: VmObjId,
        page: PageIdx,
        data: PageData,
        dirty: bool,
        fx: &mut Fx,
    ) {
        fx.cpu += self.cost.asvm_handle;
        let me = self.me;
        let o = self.managed(vm_obj);
        Cx { o, me, now, vm, fx }.evict(page, data, dirty);
    }

    /// Re-issues pending requests stalled past the configured deadline
    /// (down the fallback chain: invalidate the dynamic hint, retry via
    /// the live static manager, finally re-fetch from the pager). Driven
    /// by the cluster layer's heartbeat tick, only under active fault
    /// plans; `deadline` is the carrier's
    /// [`crate::RecoveryTiming::watchdog_deadline`].
    ///
    /// Charged per action: one handling cost for each stalled request it
    /// re-issues or re-fetches, and nothing for a tick that finds none —
    /// the scan of the pending tables is bookkeeping, not protocol work.
    pub fn watchdog(&mut self, now: Time, deadline: Dur, vm: &mut VmSystem, fx: &mut Fx) {
        let me = self.me;
        let mut acted = 0;
        for o in self.objects.values_mut() {
            acted += Cx { o, me, now, vm, fx }.watchdog(deadline);
        }
        fx.cpu += self.cost.asvm_handle * acted;
    }

    /// The failure detector now suspects `peer`: scrub hints naming it,
    /// unwind every in-flight operation waiting on it, and reclaim pager
    /// fills issued on its behalf.
    pub fn peer_suspected(&mut self, now: Time, vm: &mut VmSystem, peer: NodeId, fx: &mut Fx) {
        fx.cpu += self.cost.asvm_handle;
        let me = self.me;
        for o in self.objects.values_mut() {
            Cx { o, me, now, vm, fx }.peer_suspected(peer);
        }
    }

    /// The failure detector heard from `peer` again: drop the suspicion.
    /// Reconstruction already performed stays valid (it elected a live
    /// owner); only the routing bias reverts.
    pub fn peer_cleared(&mut self, peer: NodeId) {
        for o in self.objects.values_mut() {
            o.suspects.remove(&peer);
        }
    }

    /// Requests an exclusive range lock (§6 future work). The grant
    /// arrives via [`Fx::lock_granted`] — possibly within this call when
    /// this node is the home node and the range is free.
    pub fn lock_range(&mut self, mobj: MemObjId, range: PageRange, fx: &mut Fx) {
        let me = self.me;
        let o = self.object_mut(mobj);
        if o.home == me {
            return o.lock_acquire(me, range, me, fx);
        }
        let PageRange { first, count } = range;
        let msg = AsvmMsg::RangeLockReq {
            mobj,
            first,
            count,
            from: me,
        };
        fx.send(o.home, msg);
    }

    /// Releases a range lock previously granted to this node.
    pub fn unlock_range(&mut self, mobj: MemObjId, range: PageRange, fx: &mut Fx) {
        let me = self.me;
        let o = self.object_mut(mobj);
        if o.home == me {
            return o.lock_release(me, range, me, fx);
        }
        let PageRange { first, count } = range;
        let msg = AsvmMsg::RangeLockRelease {
            mobj,
            first,
            count,
            from: me,
        };
        fx.send(o.home, msg);
    }

    /// A delayed copy of `mobj` was created on this node: bump versions
    /// and protections locally and broadcast to all sharing nodes via the
    /// home node.
    pub fn copy_made_local(&mut self, now: Time, vm: &mut VmSystem, mobj: MemObjId, fx: &mut Fx) {
        let me = self.me;
        let o = self.object_mut(mobj);
        Cx { o, me, now, vm, fx }.copy_made_local();
    }
}

/// Drops the page from the local cache. ASVM keeps the page's dirty state
/// itself, so nothing is returned to the pager on the way out.
pub(crate) const FLUSH: LockOp = LockOp::Flush {
    return_dirty: false,
};

/// Write-protects the page in the local cache.
pub(crate) const DOWNGRADE: LockOp = LockOp::Downgrade {
    return_dirty: false,
};

impl Cx<'_> {
    /// Issues `call` to the local VM on this object's behalf.
    pub fn kernel(&mut self, call: EmmiToKernel) {
        self.vm
            .kernel_call(self.now, self.o.vm_obj, call, &mut self.fx.vm);
    }

    /// `memory_object_lock_request(page, op)` in normal mode.
    pub fn lock(&mut self, page: PageIdx, op: LockOp) {
        let mode = LockMode::Normal;
        self.kernel(EmmiToKernel::LockRequest { page, op, mode });
    }

    /// `memory_object_data_supply(page, data, lock)` in normal mode.
    pub fn supply(&mut self, page: PageIdx, data: PageData, lock: Access) {
        let mode = SupplyMode::Normal;
        self.kernel(EmmiToKernel::DataSupply {
            page,
            data,
            lock,
            mode,
        });
    }

    /// This node's own access request for a page, as it travels.
    pub fn own_req(&self, access: Access, has_copy: bool) -> QueuedReq {
        QueuedReq {
            access,
            origin: self.me,
            origin_obj: self.o.vm_obj,
            has_copy,
            kind: ReqKind::Access,
            deliver: None,
        }
    }

    /// Records this node's own request for `page` as in flight from now.
    pub fn pend(
        &mut self,
        page: PageIdx,
        access: Access,
        has_copy: bool,
        retries: u8,
        speculative: bool,
    ) {
        let issued = self.now;
        let pl = PendingLocal {
            access,
            has_copy,
            issued,
            retries,
            speculative,
        };
        self.o.pending.insert(page, pl);
    }

    /// Returns the dirty contents of `page` to the real pager.
    pub fn write_back(&mut self, page: PageIdx, data: PageData) {
        let call = EmmiToPager::DataReturn {
            page,
            data,
            dirty: true,
        };
        self.fx.pager.push(machvm::PagerSend {
            pager_node: self.o.pager_node,
            reply_to: self.me,
            mobj: self.o.mobj,
            obj: self.o.vm_obj,
            call,
        });
    }
}
