//! The per-node ASVM instance: request redirector, page state machine and
//! internode paging.
//!
//! One [`AsvmNode`] lives next to each node's [`VmSystem`]. Requests from
//! the local VM enter through [`AsvmNode::handle_emmi`]; protocol messages
//! from peer instances through [`AsvmNode::handle_msg`]; pager replies
//! through [`AsvmNode::on_pager_reply`]; and evictions through
//! [`AsvmNode::evict_external`]. Every transition is asynchronous — no call
//! ever waits; continuation state lives in [`PageInfo::busy`] and the
//! queues, per the paper's "asynchronous state transitions" design rule.
//!
//! The request redirector implements the three forwarding strategies of
//! §3.4 layered as fallbacks: dynamic ownership hints, the fixed
//! distributed (static) ownership manager with `fresh`/`paged` hints, and
//! the global walk over all nodes that map the object. Pager-bound
//! requests always serialize through the page's static manager so that two
//! concurrent first-touch faults cannot mint two owners.

use machvm::{
    Access, EmmiToKernel, EmmiToPager, KeyTable, LockMode, LockOp, MemObjId, PageData, PageIdx,
    PagerSend, SlotTable, SupplyMode, VmObjId, VmSystem,
};
use std::collections::BTreeSet;
use svmsim::{CostModel, Dur, NodeId, Time};

use crate::config::AsvmConfig;
use crate::locks::PageRange;
use crate::object::{
    AsvmObject, Busy, EvictStage, PageInfo, PendingLocal, QueuedReq, RecoverState, StaticHint,
};
use crate::protocol::{AsvmMsg, ReqKind, ReqPath};

/// Effects produced by ASVM handlers: the shared manager sink, carrying
/// ASVM protocol messages.
pub type Fx = machvm::Fx<AsvmMsg>;

/// The ASVM instance of one node.
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
            for info in o.pages.values() {
                total += (size_of::<PageIdx>() + size_of::<PageInfo>()) as u64;
                total += node_ids(info.readers.len());
                total += (info.queued.len() * size_of::<QueuedReq>()) as u64;
            }
            total += (o.pending.len() * (size_of::<PageIdx>() + size_of::<PendingLocal>())) as u64;
            total += (o.stash.len()
                * (size_of::<PageIdx>() + size_of::<crate::object::StashedCopy>()))
                as u64;
            total += (o.dyn_cache.len() * (size_of::<PageIdx>() + size_of::<NodeId>())) as u64;
            total +=
                (o.static_cache.len() * (size_of::<PageIdx>() + size_of::<StaticHint>())) as u64;
            total += pages(o.static_seen.len() + o.incoming_transfer.len());
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
            total += (o.peer_streams.len()
                * (size_of::<NodeId>() + size_of::<crate::prefetch::StreamDetector>()))
                as u64;
            total += pages(o.prefetched.len());
        }
        total
    }

    /// Registers the local representation of `mobj` (called when the
    /// object is first mapped on this node). Notifies the home node so
    /// membership propagates.
    #[allow(clippy::too_many_arguments)]
    pub fn register_object(
        &mut self,
        mobj: MemObjId,
        vm_obj: VmObjId,
        size_pages: u32,
        home: NodeId,
        pager_node: NodeId,
        cfg: AsvmConfig,
        fx: &mut Fx,
    ) {
        // The *configured* setting, before any policy-start strip: a
        // Static-start object can still have its prefetch restored later.
        self.prefetch_live |= cfg.prefetch.enabled;
        let o = AsvmObject::new(mobj, vm_obj, size_pages, home, pager_node, self.me, cfg);
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
    /// lookup the cluster layer uses on paths where an unknown object is
    /// legitimate (first mapping; per-object transport choices on the
    /// protocol send path, which reflect any runtime changes the online
    /// policy has applied to the object's configuration).
    pub fn find_object(&self, mobj: MemObjId) -> Option<&AsvmObject> {
        self.objects.get(&mobj).map(|o| &**o)
    }

    /// Feeds one traffic observation to the object's online policy and
    /// applies the verdict: a closed window bumps `asvm.policy.observe`,
    /// an applied mode change additionally bumps `asvm.policy.switch` and
    /// rewrites the object's forwarding/coalescing switches (see
    /// [`crate::policy`]). Inert when the policy is disabled.
    fn policy_observe(o: &mut AsvmObject, obs: crate::policy::Observation, fx: &mut Fx) {
        use crate::policy::PolicyVerdict;
        match o.policy.record(o.nodes.len(), obs) {
            PolicyVerdict::Idle => {}
            PolicyVerdict::Observed => fx.bump("asvm.policy.observe"),
            PolicyVerdict::Switch(mode) => {
                fx.bump("asvm.policy.observe");
                fx.bump("asvm.policy.switch");
                mode.apply(&mut o.cfg, o.policy.base());
            }
        }
    }

    /// Page state for `(mobj, page)` on this node.
    pub fn page_info(&self, mobj: MemObjId, page: PageIdx) -> Option<&PageInfo> {
        self.objects.get(&mobj)?.pages.get(&page).map(|pi| &**pi)
    }

    /// This node's current ownership view of `(mobj, page)`, for
    /// piggybacking on outgoing coalesced frames: itself if it owns the
    /// page, else the dynamic hint cache's entry. `None` when the view is
    /// cold — no hint is attached rather than a guess.
    pub fn owner_view(&self, mobj: MemObjId, page: PageIdx) -> Option<NodeId> {
        let o = self.objects.get(&mobj)?;
        if o.pages.get(&page).is_some_and(|pi| pi.owner) {
            return Some(self.me);
        }
        o.dyn_cache.peek(&page).copied()
    }

    /// Applies a piggybacked owner hint from an arriving coalesced frame
    /// to the dynamic hint cache. Returns whether the hint was taken;
    /// hints for unknown objects, hint-disabled objects, self-ownership
    /// or pages this node *knows* it owns are ignored (local truth beats
    /// a peer's view). Pure cache warming: wrong hints are only ever a
    /// forwarding detour, exactly like any stale dynamic hint.
    pub fn apply_owner_hint(&mut self, mobj: MemObjId, page: PageIdx, owner: NodeId) -> bool {
        let me = self.me;
        let Some(o) = self.objects.get_mut(&mobj) else {
            return false;
        };
        if !o.cfg.dynamic_forwarding || owner == me {
            return false;
        }
        if o.pages.get(&page).is_some_and(|pi| pi.owner) {
            return false;
        }
        o.dyn_cache.insert(page, owner);
        true
    }

    // --- Prefetch (access-pattern-driven, §6 "read clustering") ------------

    /// Whether any object on this node was *configured* with prefetch
    /// enabled. The cluster layer tests this one boolean on the hot
    /// no-fault access path, so prefetch-off runs pay nothing for the
    /// bookkeeping hook. Sticky across policy strips: a Dynamic-mode
    /// object whose prefetch is currently latched off still needs its
    /// hits noted.
    pub fn wants_access_notes(&self) -> bool {
        self.prefetch_live
    }

    /// Notes a demand access that was satisfied from local memory (no
    /// fault). Settles a speculative fill covering `page` — as a prefetch
    /// hit when the access *read* the prefetched data, as wasted when a
    /// write clobbered it unread (the speculative transfer bought
    /// nothing) — advances the stream detector (hits are part of the
    /// stream), and — for detector-gated presets — tops the predicted
    /// window back up on read hits so a steady stream keeps riding ahead
    /// of its faults. Writes never top up: speculative pulls fetch *read*
    /// copies, so only read activity is evidence they help. Returns
    /// whether a speculative fill was settled.
    pub fn prefetch_note_access(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        vm_obj: VmObjId,
        page: PageIdx,
        write: bool,
        fx: &mut Fx,
    ) -> bool {
        let Some(mobj) = self.by_vmobj.get(&vm_obj).copied() else {
            return false;
        };
        let Some(o) = self.objects.get_mut(&mobj) else {
            return false;
        };
        if o.cfg.prefetch.enabled {
            o.local_stream.observe(page);
        }
        let settled = if o.prefetched.is_empty() {
            false
        } else {
            Self::spec_settle(o, page, write, fx)
        };
        // Top-up is detector-gated only: the legacy readahead preset
        // (`min_run == 0`) issues exclusively from fault time, exactly
        // like the original loop, so its traffic stays byte-identical.
        if settled && !write && o.cfg.prefetch.min_run > 0 {
            Self::issue_prefetch(o, self.me, &self.cost, now, vm, page, fx);
        }
        settled
    }

    /// Fills `out` with owner hints for the pages the serving side
    /// predicts `dst` will fault on next, based on the per-peer demand
    /// stream detector. The cluster layer piggybacks these on frames
    /// already flowing to `dst` (zero extra frames, a few extra subframe
    /// bytes), warming the peer's dynamic hint cache *before* the fault.
    pub fn prefetch_hint_window(
        &self,
        mobj: MemObjId,
        dst: NodeId,
        out: &mut Vec<crate::coalesce::OwnerHintEntry>,
    ) {
        let Some(o) = self.objects.get(&mobj) else {
            return;
        };
        if !(o.cfg.prefetch.enabled && o.cfg.prefetch.hints) {
            return;
        }
        let Some(det) = o.peer_streams.get(&dst) else {
            return;
        };
        let (Some(anchor), Some((stride, depth))) = (det.anchor(), det.prediction(&o.cfg.prefetch))
        else {
            return;
        };
        for k in 1..=depth {
            let idx = anchor.0 as i64 + stride * k as i64;
            if idx < 0 || idx >= o.size_pages as i64 {
                continue;
            }
            let p = PageIdx(idx as u32);
            // Same view `owner_view` serves the per-subframe piggyback:
            // local ownership is ground truth, the dynamic cache is the
            // best available guess, no hint otherwise.
            let owner = if o.pages.get(&p).is_some_and(|pi| pi.owner) {
                self.me
            } else {
                match o.dyn_cache.peek(&p) {
                    Some(n) => *n,
                    None => continue,
                }
            };
            if owner == dst {
                continue;
            }
            out.push((mobj, p, owner));
        }
    }

    // --- Local VM ingress --------------------------------------------------

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
        let mobj = *self
            .by_vmobj
            .get(&vm_obj)
            .expect("EMMI for unmanaged object");
        let o = self.objects.get_mut(&mobj).unwrap();
        match call {
            EmmiToPager::DataRequest { page, access } => {
                Self::policy_observe(
                    o,
                    crate::policy::Observation::LocalFault {
                        write: access == Access::Write,
                    },
                    fx,
                );
                // The stream detector watches every local demand fault;
                // a stride change cancels outstanding speculation (no
                // further issues on the stale prediction — in-flight
                // requests complete through the normal protocol and are
                // charged as wasted if nothing ever reads them).
                if o.cfg.prefetch.enabled && o.local_stream.observe(page) {
                    let inflight = o.pending.values().filter(|p| p.speculative).count();
                    for _ in 0..inflight {
                        fx.bump("asvm.prefetch.cancelled");
                    }
                }
                // A demand fault on a prefetched page still consumes the
                // speculative fill — even if the policy has since
                // stripped the object's prefetch, leftovers settle
                // honestly. A read fault scores a hit; a write fault
                // clobbers the read copy unread, so the speculative
                // transfer was wasted.
                if !o.prefetched.is_empty() {
                    Self::spec_settle(o, page, access == Access::Write, fx);
                }
                Self::local_request(o, self.me, &self.cost, now, vm, page, access, fx);
                // Read clustering (§6 future work), generalized: pull the
                // detector's predicted window in the same breath so
                // sequential and strided scans stream.
                if access == Access::Read {
                    Self::issue_prefetch(o, self.me, &self.cost, now, vm, page, fx);
                }
            }
            EmmiToPager::DataUnlock { page, .. } => {
                Self::policy_observe(
                    o,
                    crate::policy::Observation::LocalFault { write: true },
                    fx,
                );
                // A write upgrade whose *first* touch of a prefetched
                // read copy is this unlock wastes the speculative
                // transfer: the data was never read, only overwritten.
                // (A page read before being written settled as a hit
                // already and is no longer in the prefetched set.)
                if !o.prefetched.is_empty() {
                    Self::spec_settle(o, page, true, fx);
                }
                Self::local_request(o, self.me, &self.cost, now, vm, page, Access::Write, fx);
            }
            EmmiToPager::DataReturn { page, data, dirty } => {
                // Not produced by ASVM's own flows, but a correct sink: the
                // contents go back to the real pager.
                if dirty {
                    fx.pager.push(PagerSend {
                        pager_node: o.pager_node,
                        reply_to: self.me,
                        mobj,
                        obj: vm_obj,
                        call: EmmiToPager::DataReturn { page, data, dirty },
                    });
                }
            }
            EmmiToPager::LockCompleted { page, result } => {
                crate::copymgmt::on_lock_completed(
                    o, self.me, &self.cost, now, vm, page, result, fx,
                );
            }
            EmmiToPager::PullCompleted { page, result } => {
                let Some((shadow, reqs)) = crate::copymgmt::on_pull_completed(o, page, result, fx)
                else {
                    return;
                };
                // The chain continues in another distributed object on
                // this node: forward the requests into it, last first.
                let mobj = *self
                    .by_vmobj
                    .get(&shadow)
                    .expect("pull escalation into unmanaged object");
                let o = self.objects.get_mut(&mobj).unwrap();
                for req in reqs.into_iter().rev() {
                    let path = ReqPath::default();
                    Self::route(o, self.me, &self.cost, now, vm, page, req, path, fx);
                }
            }
        }
    }

    /// A local fault needs `access` to `page`.
    fn local_request(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        access: Access,
        fx: &mut Fx,
    ) {
        Self::request(o, me, cost, now, vm, page, access, false, fx);
    }

    /// [`AsvmNode::local_request`] with the speculative marker: a
    /// prefetch-issued request travels, routes and is served exactly like
    /// a demand request — the flag only drives accounting.
    fn request(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        access: Access,
        speculative: bool,
        fx: &mut Fx,
    ) {
        if let Some(p) = o.pending.get_mut(&page) {
            // A demand fault catching an in-flight speculative request:
            // the prefetch was issued but did not land in time.
            if !speculative && p.speculative {
                p.speculative = false;
                fx.bump("asvm.prefetch.late");
            }
            if p.access.allows(access) {
                return; // Already in flight.
            }
        }
        let has_copy = o.pages.contains_key(&page);
        o.pending.insert(
            page,
            PendingLocal {
                access,
                has_copy,
                issued: now,
                retries: 0,
                speculative,
            },
        );
        let req = QueuedReq {
            access,
            origin: me,
            origin_obj: o.vm_obj,
            has_copy,
            kind: ReqKind::Access,
            deliver: None,
        };
        // If the page is busy here (transfer/eviction in flight), park the
        // request; completion re-dispatches it.
        if let Some(pi) = o.pages.get_mut(&page) {
            if pi.busy.is_some() {
                pi.queued.push_back(req);
                return;
            }
            if pi.owner {
                // Owner with a local upgrade request: run transition 7.
                Self::serve(o, me, cost, now, vm, page, req, fx);
                return;
            }
        }
        let path = ReqPath {
            speculative,
            ..ReqPath::default()
        };
        Self::route(o, me, cost, now, vm, page, req, path, fx);
    }

    /// Issues the data-prefetch window predicted by the local stream
    /// detector after a read fault on `page`: for each predicted page not
    /// already resident or requested, a speculative read request enters
    /// the normal protocol, bounded by the in-flight budget. With the
    /// legacy preset (`min_run == 0`) this is exactly the original
    /// readahead loop: unconditional `+1` window, no budget.
    fn issue_prefetch(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        fx: &mut Fx,
    ) {
        if !o.cfg.prefetch.data {
            return;
        }
        let Some((stride, depth)) = o.local_stream.prediction(&o.cfg.prefetch) else {
            return;
        };
        let budget = o.cfg.prefetch.inflight_budget();
        let mut inflight = match budget {
            Some(_) => o.pending.values().filter(|p| p.speculative).count() as u32,
            None => 0,
        };
        for k in 1..=depth {
            if budget.is_some_and(|b| inflight >= b) {
                break;
            }
            let idx = page.0 as i64 + stride * k as i64;
            if idx < 0 || idx >= o.size_pages as i64 {
                continue;
            }
            let p = PageIdx(idx as u32);
            if o.pages.contains_key(&p) || o.pending.contains_key(&p) {
                continue;
            }
            fx.bump("asvm.prefetch.issued");
            inflight += 1;
            Self::request(o, me, cost, now, vm, p, Access::Read, true, fx);
        }
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

    /// Settles the speculative fill for `page`, if one is still waiting
    /// for a demand access: removes it from the prefetched set, bumps
    /// `asvm.prefetch.hit`/`wasted`, and feeds the outcome to the online
    /// policy, which may latch the object's data tier off. Returns
    /// whether a fill was settled.
    fn spec_settle(o: &mut AsvmObject, page: PageIdx, wasted: bool, fx: &mut Fx) -> bool {
        if !o.prefetched.remove(&page) {
            return false;
        }
        fx.bump(if wasted {
            "asvm.prefetch.wasted"
        } else {
            "asvm.prefetch.hit"
        });
        if o.cfg.prefetch.min_run == 0 {
            // The legacy readahead preset predates the policy's wasted
            // latch; keeping it out preserves the original preset's
            // traffic bit-for-bit (the latch guards detector-driven
            // speculation only).
            return true;
        }
        use crate::policy::PrefetchVerdict;
        match o.policy.record_prefetch(wasted) {
            PrefetchVerdict::Idle => {}
            PrefetchVerdict::Observed => fx.bump("asvm.policy.observe"),
            PrefetchVerdict::Disable => {
                fx.bump("asvm.policy.observe");
                fx.bump("asvm.policy.prefetch_off");
                o.cfg.prefetch.data = false;
            }
        }
        true
    }

    // --- Peer message ingress ------------------------------------------------

    /// Handles one ASVM protocol message from node `from`: charges the
    /// handling cost, lets the policy and the hint prefetcher observe
    /// arriving requests, and dispatches to the message's handler.
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
        Self::observe_request(o, &msg, fx);
        let cost = &self.cost;
        match msg {
            AsvmMsg::MapNotify { node, .. } => Self::on_map_notify(o, me, cost, now, vm, node, fx),
            AsvmMsg::Membership { nodes, .. } => {
                Self::on_membership(o, me, cost, now, vm, nodes, fx)
            }
            AsvmMsg::PageReq {
                page, req, path, ..
            } => Self::route(o, me, cost, now, vm, page, req, path, fx),
            AsvmMsg::Grant {
                page,
                access,
                data,
                dirty,
                ownership,
                readers,
                version,
                pull_snapshot,
                ..
            } => {
                // A pulled snapshot has never been pushed: version 0, so a
                // later write still delivers it to existing copies.
                let version = if pull_snapshot { 0 } else { version };
                Self::grant_arrived(
                    o, me, cost, now, vm, from, page, access, data, dirty, ownership, readers,
                    version, fx,
                );
            }
            AsvmMsg::Invalidate { page, from, .. } => {
                Self::on_invalidate(o, me, now, vm, page, from, fx)
            }
            AsvmMsg::InvalidateAck { page, from, .. } => {
                Self::invalidate_ack(o, me, cost, now, vm, page, from, fx)
            }
            AsvmMsg::ReadCheck { page, from, .. } => Self::on_read_check(o, me, vm, page, from, fx),
            AsvmMsg::ReadCheckReply {
                page,
                from,
                has_copy,
                ..
            } => Self::read_check_reply(o, me, cost, now, vm, page, from, has_copy, fx),
            AsvmMsg::OwnershipTransfer {
                page,
                readers,
                version,
                dirty,
                ..
            } => {
                Self::on_ownership_transfer(o, me, cost, now, vm, page, readers, version, dirty, fx)
            }
            AsvmMsg::AcceptAsk { page, from, .. } => Self::on_accept_ask(o, me, vm, page, from, fx),
            AsvmMsg::AcceptReply {
                page, from, accept, ..
            } => Self::accept_reply(o, me, cost, now, vm, page, from, accept, fx),
            AsvmMsg::PageTransfer {
                page,
                data,
                dirty,
                version,
                ..
            } => Self::on_page_transfer(o, me, cost, now, vm, page, data, dirty, version, fx),
            AsvmMsg::OwnerHint { page, owner, .. } => {
                Self::owner_hint(o, me, cost, now, vm, page, owner, fx)
            }
            AsvmMsg::PagedHint { page, .. } => {
                o.static_seen.insert(page);
                o.static_cache.insert(page, StaticHint::Paged);
            }
            AsvmMsg::PushReq { page, from, .. } => {
                crate::copymgmt::on_push_req(o, me, cost, now, vm, page, from, fx)
            }
            AsvmMsg::PushAck {
                page,
                from,
                needs_data,
                ..
            } => crate::copymgmt::on_push_ack(o, me, cost, now, vm, page, from, needs_data, fx),
            AsvmMsg::PushData {
                page, from, data, ..
            } => crate::copymgmt::on_push_data(o, me, cost, now, vm, page, from, data, fx),
            AsvmMsg::PushDone { page, from, .. } => {
                crate::copymgmt::on_push_done(o, me, cost, now, vm, page, from, fx)
            }
            AsvmMsg::CopyMade { from, .. } => Self::on_copy_made(o, me, now, vm, from, fx),
            AsvmMsg::CopyMadeAck { from, .. } => Self::on_copy_made_ack(o, me, from, fx),
            AsvmMsg::CopySettled { .. } => fx.settled.push(mobj),
            AsvmMsg::PullHop {
                page,
                access,
                origin,
                origin_obj,
                deliver,
                ..
            } => {
                let req = QueuedReq {
                    access,
                    origin,
                    origin_obj,
                    has_copy: false,
                    kind: ReqKind::Access,
                    deliver: Some(deliver),
                };
                crate::copymgmt::pull_dispatch(o, me, cost, now, vm, page, req, fx);
            }
            AsvmMsg::RangeLockReq {
                first, count, from, ..
            } => Self::acquire_range_lock(o, me, PageRange { first, count }, from, fx),
            AsvmMsg::RangeLockGrant { first, count, .. } => {
                fx.lock_granted.push((mobj, PageRange { first, count }))
            }
            AsvmMsg::RangeLockRelease {
                first, count, from, ..
            } => Self::release_range_lock(o, me, PageRange { first, count }, from, fx),
            AsvmMsg::Retry { page, access, .. } => {
                // Re-issue our own request after a push/pull race.
                o.pending.remove(&page);
                Self::local_request(o, me, cost, now, vm, page, access, fx);
            }
            AsvmMsg::RecoverQuery { page, from, .. } => {
                Self::on_recover_query(o, me, page, from, fx)
            }
            AsvmMsg::RecoverReply {
                page,
                from,
                has_copy,
                version,
                owner,
                ..
            } => Self::recover_reply(
                o, me, cost, now, vm, page, from, has_copy, version, owner, fx,
            ),
            AsvmMsg::RecoverElect { page, readers, .. } => {
                Self::recover_elect(o, me, cost, now, vm, page, readers, fx)
            }
        }
    }

    /// The policy learns from arriving access requests — the traffic a
    /// forwarding-strategy change would actually redirect. Push scans,
    /// pull lookups and bookkeeping replies carry no signal about the
    /// object's read/write mix.
    fn observe_request(o: &mut AsvmObject, msg: &AsvmMsg, fx: &mut Fx) {
        let AsvmMsg::PageReq {
            page,
            req:
                QueuedReq {
                    access,
                    origin,
                    kind: ReqKind::Access,
                    deliver: None,
                    ..
                },
            path,
            ..
        } = msg
        else {
            return;
        };
        let write = *access == Access::Write;
        Self::policy_observe(o, crate::policy::Observation::RemoteReq { write }, fx);
        // Hint prefetch learns the *demand* stream of the faulting node:
        // frames flowing back to it will carry owner hints for its
        // predicted next pages. Speculative requests are its prefetcher
        // echoing the same stride — not new evidence.
        if o.cfg.prefetch.enabled && o.cfg.prefetch.hints && !path.speculative {
            o.peer_streams.entry(*origin).or_default().observe(*page);
        }
    }

    /// Re-announces ownership of every page this node owns to the pages'
    /// static managers. Membership changes move the static-manager
    /// hashing: without this, requests would need a global walk to find
    /// owners and the fresh/pull shortcut could mint a second owner.
    fn reannounce_owned(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        fx: &mut Fx,
    ) {
        o.fresh_valid = false;
        let owned: Vec<PageIdx> = o
            .pages
            .iter()
            .filter(|(_, pi)| pi.owner)
            .map(|(p, _)| p)
            .collect();
        for page in owned {
            Self::notify_owner_hint(o, me, cost, now, vm, page, fx);
        }
    }

    /// `node` mapped the object: the home node extends the member list and
    /// broadcasts it.
    fn on_map_notify(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        node: NodeId,
        fx: &mut Fx,
    ) {
        assert_eq!(o.home, me, "MapNotify must go to the home node");
        if o.nodes.contains(&node) {
            return;
        }
        o.nodes.push(node);
        o.nodes.sort();
        let mobj = o.mobj;
        for n in o.nodes.iter().filter(|n| **n != me) {
            let nodes = o.nodes.clone();
            fx.send(*n, AsvmMsg::Membership { mobj, nodes });
        }
        // The home applies the same membership-change rules as everyone
        // else, before the new member's first fault (the synchronous fork
        // guarantees the ordering).
        Self::reannounce_owned(o, me, cost, now, vm, fx);
    }

    /// The home node broadcast a new member list.
    fn on_membership(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        nodes: Vec<NodeId>,
        fx: &mut Fx,
    ) {
        o.nodes = nodes;
        Self::reannounce_owned(o, me, cost, now, vm, fx);
        // Static-manager hashing may have moved: re-dispatch anything
        // parked on static routing so nothing is stranded.
        for (page, reqs) in std::mem::take(&mut o.static_waiting) {
            for q in reqs {
                Self::route(o, me, cost, now, vm, page, q, ReqPath::default(), fx);
            }
        }
    }

    /// The owner invalidates our read copy (transition 8).
    fn on_invalidate(
        o: &mut AsvmObject,
        me: NodeId,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        owner: NodeId,
        fx: &mut Fx,
    ) {
        if let Some(pi) = o.pages.get(&page) {
            assert!(
                pi.busy.is_none() || matches!(pi.busy, Some(Busy::AwaitingOwnership)),
                "invalidate raced a busy page"
            );
            if !pi.owner {
                vm.set_busy(o.vm_obj, page, false);
                vm.kernel_call(
                    now,
                    o.vm_obj,
                    EmmiToKernel::LockRequest {
                        page,
                        op: LockOp::Flush {
                            return_dirty: false,
                        },
                        mode: LockMode::Normal,
                    },
                    &mut fx.vm,
                );
                o.pages.remove(&page);
                // A speculative fill invalidated before any demand access
                // consumed it: the transfer was wasted.
                Self::spec_settle(o, page, true, fx);
            }
        }
        o.dyn_cache.insert(page, owner);
        fx.send(
            owner,
            AsvmMsg::InvalidateAck {
                mobj: o.mobj,
                page,
                from: me,
            },
        );
    }

    /// An evicting owner asks whether we still hold a read copy that
    /// could take the page over (§3.6 step 2).
    fn on_read_check(
        o: &mut AsvmObject,
        me: NodeId,
        vm: &mut VmSystem,
        page: PageIdx,
        owner: NodeId,
        fx: &mut Fx,
    ) {
        let has_copy = match o.pages.get_mut(&page) {
            Some(pi) if !pi.owner && pi.busy.is_none() => {
                pi.busy = Some(Busy::AwaitingOwnership);
                vm.set_busy(o.vm_obj, page, true);
                true
            }
            _ => false,
        };
        fx.send(
            owner,
            AsvmMsg::ReadCheckReply {
                mobj: o.mobj,
                page,
                from: me,
                has_copy,
            },
        );
    }

    /// Ownership of a page we hold a copy of arrives (§3.6 step 2).
    fn on_ownership_transfer(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        readers: Vec<NodeId>,
        version: u64,
        dirty: bool,
        fx: &mut Fx,
    ) {
        let pi = o
            .pages
            .get_mut(&page)
            .expect("ownership transfer to node without the page");
        // `busy == None` happens only when the watchdog broke an
        // AwaitingOwnership limbo (suspected-dead transferor) and the
        // transfer then arrived after all; accept it.
        assert!(
            pi.busy.is_none() || matches!(pi.busy, Some(Busy::AwaitingOwnership)),
            "ownership transfer raced a busy page"
        );
        pi.busy = None;
        vm.set_busy(o.vm_obj, page, false);
        pi.owner = true;
        pi.readers = readers.into_iter().collect();
        pi.readers.remove(&me);
        pi.version = version;
        pi.dirty |= dirty;
        let queued: Vec<QueuedReq> = pi.queued.drain(..).collect();
        Self::notify_owner_hint(o, me, cost, now, vm, page, fx);
        for q in queued {
            Self::route(o, me, cost, now, vm, page, q, ReqPath::default(), fx);
        }
        Self::drain_parked(o, me, cost, now, vm, page, fx);
    }

    /// An evicting owner asks whether we have room for the page (§3.6
    /// step 3).
    fn on_accept_ask(
        o: &mut AsvmObject,
        me: NodeId,
        vm: &VmSystem,
        page: PageIdx,
        owner: NodeId,
        fx: &mut Fx,
    ) {
        let accept = Self::has_free_memory(vm) && !o.incoming_transfer.contains(&page);
        if accept {
            o.incoming_transfer.insert(page);
        }
        fx.send(
            owner,
            AsvmMsg::AcceptReply {
                mobj: o.mobj,
                page,
                from: me,
                accept,
            },
        );
    }

    /// A page we accepted arrives with its ownership (§3.6 step 3).
    fn on_page_transfer(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        data: PageData,
        dirty: bool,
        version: u64,
        fx: &mut Fx,
    ) {
        o.incoming_transfer.remove(&page);
        let mut pi = PageInfo::new(Access::Read, true, version);
        pi.dirty = dirty;
        let prev = o.pages.insert(page, Box::new(pi));
        assert!(prev.is_none(), "page transfer onto existing state");
        vm.kernel_call(
            now,
            o.vm_obj,
            EmmiToKernel::DataSupply {
                page,
                data,
                lock: Access::Read,
                mode: SupplyMode::Normal,
            },
            &mut fx.vm,
        );
        Self::notify_owner_hint(o, me, cost, now, vm, page, fx);
        Self::drain_parked(o, me, cost, now, vm, page, fx);
    }

    /// `creator` made a delayed copy of the object: apply the version bump
    /// here, then relay (home node) or acknowledge (everyone else).
    fn on_copy_made(
        o: &mut AsvmObject,
        me: NodeId,
        now: Time,
        vm: &mut VmSystem,
        creator: NodeId,
        fx: &mut Fx,
    ) {
        Self::apply_copy_made(o, now, vm, fx);
        if o.home == me {
            Self::relay_copy_made(o, me, creator, fx);
        } else {
            let mobj = o.mobj;
            fx.send(o.home, AsvmMsg::CopyMadeAck { mobj, from: me });
        }
    }

    /// Home node: relays `creator`'s copy notification to every other
    /// member and settles it once all have acknowledged (at once when
    /// there is nobody else to tell).
    fn relay_copy_made(o: &mut AsvmObject, me: NodeId, creator: NodeId, fx: &mut Fx) {
        let mobj = o.mobj;
        let targets: Vec<NodeId> = o
            .nodes
            .iter()
            .copied()
            .filter(|n| *n != me && *n != creator)
            .collect();
        if targets.is_empty() {
            return Self::settle_copy(mobj, me, creator, fx);
        }
        for n in &targets {
            fx.send(
                *n,
                AsvmMsg::CopyMade {
                    mobj,
                    from: creator,
                },
            );
        }
        o.copy_settles
            .push((creator, targets.into_iter().collect()));
    }

    /// Home node: a member applied a relayed copy notification.
    fn on_copy_made_ack(o: &mut AsvmObject, me: NodeId, acker: NodeId, fx: &mut Fx) {
        assert_eq!(o.home, me, "copy acks aggregate at the home node");
        let Some(i) = o.copy_settles.iter().position(|(_, p)| p.contains(&acker)) else {
            return;
        };
        o.copy_settles[i].1.remove(&acker);
        if o.copy_settles[i].1.is_empty() {
            let (creator, _) = o.copy_settles.remove(i);
            Self::settle_copy(o.mobj, me, creator, fx);
        }
    }

    /// Every member applied `creator`'s copy notification: tell it, so the
    /// fork waiting on the copy may complete.
    fn settle_copy(mobj: MemObjId, me: NodeId, creator: NodeId, fx: &mut Fx) {
        if creator == me {
            fx.settled.push(mobj);
        } else {
            fx.send(creator, AsvmMsg::CopySettled { mobj });
        }
    }

    /// Home node: `holder` asks for a range lock; granted at once when the
    /// range is free, queued otherwise.
    fn acquire_range_lock(
        o: &mut AsvmObject,
        me: NodeId,
        range: PageRange,
        holder: NodeId,
        fx: &mut Fx,
    ) {
        assert_eq!(o.home, me, "range locks are managed at the home node");
        if o.range_locks.acquire(range, holder) {
            Self::grant_range_lock(o.mobj, me, range, holder, fx);
        }
    }

    /// Home node: `holder` releases a range lock; queued requests that now
    /// fit are granted.
    fn release_range_lock(
        o: &mut AsvmObject,
        me: NodeId,
        range: PageRange,
        holder: NodeId,
        fx: &mut Fx,
    ) {
        assert_eq!(o.home, me, "range locks are managed at the home node");
        for g in o.range_locks.release(range, holder) {
            Self::grant_range_lock(o.mobj, me, g.range, g.holder, fx);
        }
    }

    /// Delivers a range-lock grant to `holder`.
    fn grant_range_lock(mobj: MemObjId, me: NodeId, range: PageRange, holder: NodeId, fx: &mut Fx) {
        if holder == me {
            fx.lock_granted.push((mobj, range));
        } else {
            let PageRange { first, count } = range;
            fx.send(holder, AsvmMsg::RangeLockGrant { mobj, first, count });
        }
    }

    /// A recovering static manager asks for our local view of `page`.
    fn on_recover_query(o: &AsvmObject, me: NodeId, page: PageIdx, asker: NodeId, fx: &mut Fx) {
        // A page mid-transition is not a usable copy — except
        // AwaitingOwnership, which is exactly the dead-owner limbo
        // reconstruction resolves.
        let (has_copy, version, owner) = match o.pages.get(&page) {
            Some(pi) if pi.busy.is_none() || matches!(pi.busy, Some(Busy::AwaitingOwnership)) => {
                (true, pi.version, pi.owner)
            }
            _ => (false, 0, false),
        };
        fx.send(
            asker,
            AsvmMsg::RecoverReply {
                mobj: o.mobj,
                page,
                from: me,
                has_copy,
                version,
                owner,
            },
        );
    }

    // --- Pager ingress ----------------------------------------------------------

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
        let me = self.me;
        let mobj = *self
            .by_vmobj
            .get(&vm_obj)
            .expect("pager reply for unmanaged object");
        let o = self.objects.get_mut(&mobj).unwrap();
        match reply {
            EmmiToKernel::DataSupply { page, data, .. } => {
                if self.cancelled_fills.remove(&(mobj, page))
                    && !o.pages.contains_key(&page)
                    && !o.pending.contains_key(&page)
                {
                    // The fill of a cancelled speculation: the static
                    // manager serializes the page behind it, so take it
                    // as the plain read it now is.
                    fx.bump("asvm.prefetch.cancelled_fill");
                    o.pending.insert(
                        page,
                        PendingLocal {
                            access: Access::Read,
                            has_copy: false,
                            issued: now,
                            retries: 0,
                            speculative: false,
                        },
                    );
                }
                // A recovery re-fetch can race the regular protocol: a
                // late grant may rebuild local page state (completing the
                // pending request, possibly followed by a newer pending)
                // after the fetch went out. A reply arriving into that
                // state is stale — drop it rather than double-supplying
                // the kernel. Healthy runs never take this branch
                // (`docs/RELIABILITY.md`).
                if o.pages.contains_key(&page) || !o.pending.contains_key(&page) {
                    fx.bump("asvm.recover.stale_fill");
                    return;
                }
                let pend = o
                    .pending
                    .remove(&page)
                    .expect("pager supply without pending request");
                // Version 0 = "never pushed": if copies were made before
                // this page ever materialized, the first write must still
                // push the (zero/pager) snapshot into them.
                let needs_push = pend.access == Access::Write && o.version > 0;
                let lock = if needs_push {
                    Access::Read
                } else {
                    pend.access
                };
                let mut pi = PageInfo::new(lock, true, 0);
                pi.dirty = false;
                let prev = o.pages.insert(page, Box::new(pi));
                assert!(prev.is_none(), "pager supply onto existing page state");
                if pend.speculative {
                    o.prefetched.insert(page);
                }
                vm.kernel_call(
                    now,
                    vm_obj,
                    EmmiToKernel::DataSupply {
                        page,
                        data,
                        lock,
                        mode: SupplyMode::Normal,
                    },
                    &mut fx.vm,
                );
                Self::notify_owner_hint(o, me, &self.cost, now, vm, page, fx);
                if needs_push {
                    // Run the write through the owner state machine so the
                    // snapshot reaches every copy before the grant.
                    o.pending.insert(page, pend);
                    let req = crate::object::QueuedReq {
                        access: Access::Write,
                        origin: me,
                        origin_obj: vm_obj,
                        has_copy: true,
                        kind: crate::protocol::ReqKind::Access,
                        deliver: None,
                    };
                    crate::copymgmt::start_push(o, me, &self.cost, now, vm, page, req, fx);
                }
                Self::drain_parked(o, me, &self.cost, now, vm, page, fx);
            }
            other => panic!("unexpected pager reply {other:?}"),
        }
    }

    // --- Eviction ingress ----------------------------------------------------------

    /// The VM evicted `page` of `vm_obj`; run the four-step internode
    /// pageout algorithm (§3.6).
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
        let mobj = *self
            .by_vmobj
            .get(&vm_obj)
            .expect("eviction for unmanaged object");
        let o = self.objects.get_mut(&mobj).unwrap();
        let Some(pi) = o.pages.get_mut(&page) else {
            // No state: nothing to do (e.g. a pushed page the manager never
            // tracked).
            return;
        };
        assert!(pi.busy.is_none(), "VM evicted a busy page");
        if !pi.owner {
            // Step 1: not the owner — discard; the owner can supply it
            // again at any time. Exception: if our own upgrade request for
            // this page is in flight and claimed this copy, the owner may
            // elide the contents from the grant — keep them until it
            // arrives (see [`crate::object::StashedCopy`]).
            if matches!(o.pending.get(&page), Some(p) if p.has_copy) {
                fx.bump("asvm.evict.stash");
                o.stash.insert(
                    page,
                    crate::object::StashedCopy {
                        data,
                        version: pi.version,
                    },
                );
            }
            o.pages.remove(&page);
            // A speculative fill evicted before any demand access: wasted.
            Self::spec_settle(o, page, true, fx);
            return;
        }
        pi.dirty |= dirty;
        let readers = pi.readers.as_slice().to_vec();
        if let Some((first, rest)) = readers.split_first() {
            // Step 2: ask readers, one after another.
            pi.busy = Some(Busy::Evict {
                data,
                dirty: pi.dirty,
                stage: EvictStage::CheckingReaders {
                    current: *first,
                    remaining: rest.to_vec(),
                },
            });
            fx.send(
                *first,
                AsvmMsg::ReadCheck {
                    mobj,
                    page,
                    from: me,
                },
            );
        } else {
            let d = pi.dirty;
            Self::evict_step3(o, me, &self.cost, now, vm, page, data, d, fx);
        }
    }

    // --- Redirector --------------------------------------------------------------------

    /// Routes a request currently held by this node toward the page owner.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn route(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        req: QueuedReq,
        mut path: ReqPath,
        fx: &mut Fx,
    ) {
        // 1. Can we serve or must the request wait here?
        if let Some(pi) = o.pages.get_mut(&page) {
            if pi.busy.is_some() {
                pi.queued.push_back(req);
                return;
            }
            if pi.owner {
                Self::serve(o, me, cost, now, vm, page, req, fx);
                return;
            }
        }
        // 2. An accepted page transfer is guaranteed to arrive: park the
        // request until it lands. (Requests are deliberately NOT parked at
        // nodes with their own grants pending — two pending nodes could
        // park each other's requests in a cycle; in-flight ownership is
        // instead tracked at the static manager, whose hint the granter
        // updates eagerly.) Watchdog re-issues skip the park: the transfer
        // they are recovering from may never land.
        if o.incoming_transfer.contains(&page) && !path.recovering {
            o.fill_waiters.entry(page).or_default().push(req);
            return;
        }
        // 3. Global walk in progress: try the next (live) member.
        if let Some(pos) = path.global_pos {
            let mut next = pos as usize + 1;
            while next < o.nodes.len()
                && (o.nodes[next] == me || o.suspects.contains(&o.nodes[next]))
            {
                next += 1;
            }
            if next < o.nodes.len() {
                path.global_pos = Some(next as u16);
                path.hops += 1;
                Self::send_req(o, fx, o.nodes[next], page, &req, path);
            } else {
                // Walk exhausted: no owner exists; the static manager
                // dispatches to the pager.
                path.walk_done = true;
                path.global_pos = None;
                let sm = o.static_node_live(page);
                if sm == me {
                    Self::static_route(o, me, cost, now, vm, page, req, path, fx);
                } else {
                    path.hops += 1;
                    Self::send_req(o, fx, sm, page, &req, path);
                }
            }
            return;
        }
        // 4. Dynamic hint.
        let loop_limit = o
            .cfg
            .forward
            .hop_limit
            .unwrap_or((o.nodes.len() as u16) * 2 + 4);
        if o.cfg.dynamic_forwarding && !path.walk_done {
            if path.hops < loop_limit {
                // A hint pointing at a suspected-dead node is useless; skip
                // it (peek, not get — a dead-end consult must not refresh
                // recency).
                let live_hint = o
                    .dyn_cache
                    .peek(&page)
                    .copied()
                    .filter(|h| !o.suspects.contains(h));
                if live_hint.is_some() {
                    let hint = *o.dyn_cache.get(&page).expect("peeked above");
                    if hint != me {
                        if req.access == Access::Write && req.kind == ReqKind::Access {
                            // Collapse the hint chain: the originator becomes
                            // the next owner (Kai Li's optimization).
                            o.dyn_cache.insert(page, req.origin);
                        }
                        path.hops += 1;
                        Self::send_req(o, fx, hint, page, &req, path);
                        return;
                    }
                }
            } else if o.dyn_cache.peek(&page).is_some() {
                // The hop bound tripped with a hint still on offer: a hint
                // cycle (or churn faster than forwarding) — abandon the
                // chain for the static manager.
                fx.bump("asvm.forward.loop_trip");
            }
        }
        // 5. The static ownership manager.
        let sm = o.static_node_live(page);
        if sm != me {
            path.hops += 1;
            Self::send_req(o, fx, sm, page, &req, path);
            return;
        }
        Self::static_route(o, me, cost, now, vm, page, req, path, fx);
    }

    /// Routing at the static ownership manager.
    #[allow(clippy::too_many_arguments)]
    fn static_route(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        req: QueuedReq,
        mut path: ReqPath,
        fx: &mut Fx,
    ) {
        if o.static_filling.contains_key(&page) {
            // A pager fill is in flight; serialize behind it.
            o.static_waiting.entry(page).or_default().push(req);
            return;
        }
        // We are the static manager AND our own write grant is in flight:
        // the page is about to be ours. Parking here is cycle-free (one
        // static manager per page).
        if req.origin != me
            && req.deliver.is_none()
            && o.pending
                .get(&page)
                .is_some_and(|p| p.access == Access::Write)
        {
            o.fill_waiters.entry(page).or_default().push(req);
            return;
        }
        // A watchdog re-issue after a suspected failure: every cached
        // shortcut (hints, fresh) may name the dead node, so resolve the
        // page through ownership reconstruction instead.
        if path.recovering
            && !o.suspects.is_empty()
            && req.kind == ReqKind::Access
            && req.deliver.is_none()
        {
            Self::start_recovery(o, me, cost, now, vm, page, req, fx);
            return;
        }
        if path.walk_done {
            // The walk found no owner — but an ownership transfer may be
            // in flight. The granter updates our hint eagerly, so consult
            // it (in every configuration: this is the safety record, not
            // the forwarding optimization) before going to the pager.
            match o.static_cache.get(&page).copied() {
                Some(StaticHint::Owner(n)) if n != me && !o.suspects.contains(&n) => {
                    path.walk_done = false;
                    path.global_pos = None;
                    path.hops += 1;
                    Self::send_req(o, fx, n, page, &req, path);
                    return;
                }
                // The recorded owner died: reconstruct instead of minting
                // a second owner from the pager.
                Some(StaticHint::Owner(n))
                    if o.suspects.contains(&n)
                        && req.kind == ReqKind::Access
                        && req.deliver.is_none() =>
                {
                    Self::start_recovery(o, me, cost, now, vm, page, req, fx);
                    return;
                }
                _ => {}
            }
            // With suspects around, "the walk found no live owner" does not
            // mean "no owner": the owner may be the dead node, with
            // surviving read copies that a pager re-fetch would silently
            // fork from. Reconstruct first; it falls back to the pager
            // itself when no copy survives.
            if !o.suspects.is_empty() && req.kind == ReqKind::Access && req.deliver.is_none() {
                Self::start_recovery(o, me, cost, now, vm, page, req, fx);
                return;
            }
            Self::pager_dispatch(o, me, cost, now, vm, page, req, fx);
            return;
        }
        if !path.tried_static {
            path.tried_static = true;
            if o.cfg.static_forwarding {
                match o.static_cache.get(&page).copied() {
                    Some(StaticHint::Owner(n))
                        if n != me
                            && o.suspects.contains(&n)
                            && req.kind == ReqKind::Access
                            && req.deliver.is_none() =>
                    {
                        // Our own hint names a dead owner: reconstruct.
                        Self::start_recovery(o, me, cost, now, vm, page, req, fx);
                        return;
                    }
                    Some(StaticHint::Owner(n)) if n != me => {
                        path.hops += 1;
                        Self::send_req(o, fx, n, page, &req, path);
                        return;
                    }
                    Some(StaticHint::Owner(_)) => {
                        // Stale self-hint (we no longer own it); fall through.
                        o.static_cache.remove(&page);
                    }
                    Some(StaticHint::Paged) => {
                        Self::pager_dispatch(o, me, cost, now, vm, page, req, fx);
                        return;
                    }
                    None => {}
                }
            }
            // Fresh: the page has never had an owner; the pager (or the
            // pull path, for copy objects) is authoritative. For
            // distributed *copy* objects this shortcut is always sound even
            // after membership changes: their pages are immutable snapshots
            // (writes COW into local shadow objects), so a duplicate pull
            // returns identical data.
            if (o.fresh_valid || o.source.is_some()) && !o.static_seen.contains(&page) {
                Self::pager_dispatch(o, me, cost, now, vm, page, req, fx);
                return;
            }
        }
        // Hint missing or already tried: fall back to the global walk
        // (over live members only).
        let mut start = 0usize;
        while start < o.nodes.len()
            && (o.nodes[start] == me || o.suspects.contains(&o.nodes[start]))
        {
            start += 1;
        }
        if start >= o.nodes.len() {
            // Single-member object with no owner: dispatch to pager.
            Self::pager_dispatch(o, me, cost, now, vm, page, req, fx);
            return;
        }
        path.global_pos = Some(start as u16);
        path.hops += 1;
        Self::send_req(o, fx, o.nodes[start], page, &req, path);
    }

    /// Sends the request to the real pager on behalf of `req.origin` and
    /// records the fill so concurrent requests serialize.
    #[allow(clippy::too_many_arguments)]
    fn pager_dispatch(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        req: QueuedReq,
        fx: &mut Fx,
    ) {
        if req.kind == ReqKind::PushScan {
            crate::copymgmt::push_scan_no_owner(o, me, cost, now, vm, page, req, fx);
            return;
        }
        if req.deliver.is_none() {
            // Serialize concurrent first-touch faults behind this fill —
            // for pager fills AND pulls: two racing pulls would otherwise
            // both become owners of the page.
            o.static_seen.insert(page);
            o.static_filling.insert(page, req.origin);
        }
        if o.source.is_some() {
            // A distributed copy object with no owner anywhere: the page
            // must be pulled through the shadow chain on the peer node
            // (§3.7.3), not fetched from a pager.
            crate::copymgmt::pull_dispatch(o, me, cost, now, vm, page, req, fx);
            return;
        }
        // PagerSend.obj routes the pager's reply to the origin node's VM
        // object; the glue marks the request as coming from the origin.
        fx.pager.push(PagerSend {
            pager_node: o.pager_for(page),
            reply_to: req.origin,
            mobj: o.mobj,
            obj: req.origin_obj,
            call: EmmiToPager::DataRequest {
                page,
                access: req.access,
            },
        });
        let _ = (me, now, vm);
    }

    /// Grants the request at the owner (Figure 7 transitions 4–7).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        req: QueuedReq,
        fx: &mut Fx,
    ) {
        let mobj = o.mobj;
        if req.kind == ReqKind::PushScan {
            crate::copymgmt::push_scan_found(o, me, cost, now, vm, page, req, fx);
            return;
        }
        // Delayed-copy rule (§3.7.2): a write on a page whose version lags
        // the object version needs a push operation first.
        if req.access == Access::Write {
            let needs_push = {
                let pi = o.pages.get(&page).unwrap();
                pi.version != o.version
            };
            if needs_push {
                crate::copymgmt::start_push(o, me, cost, now, vm, page, req, fx);
                return;
            }
        }
        if let Some(deliver) = req.deliver {
            // Pull lookup (§3.7.3): hand a snapshot of the page to the
            // origin in terms of the copy object; the origin does not join
            // this object's reader list.
            let (data, _) = vm
                .peek_page(o.vm_obj, page)
                .expect("owner must hold the page");
            let data = data.clone();
            fx.send(
                req.origin,
                AsvmMsg::Grant {
                    mobj: deliver,
                    page,
                    access: req.access,
                    data: Some(data),
                    dirty: true,
                    ownership: true,
                    readers: vec![],
                    version: 0,
                    pull_snapshot: true,
                },
            );
            return;
        }
        if req.origin == me {
            // Our own request came back to us as owner.
            o.pending.remove(&page);
            match req.access {
                Access::Read => {
                    vm.kernel_call(
                        now,
                        o.vm_obj,
                        EmmiToKernel::LockRequest {
                            page,
                            op: LockOp::Grant(Access::Read),
                            mode: LockMode::Normal,
                        },
                        &mut fx.vm,
                    );
                }
                Access::Write => Self::local_upgrade(o, me, cost, now, vm, page, fx),
            }
            return;
        }
        match req.access {
            Access::Read => {
                // Transition 5: grant read, join the reader list.
                let pi = o.pages.get_mut(&page).unwrap();
                if pi.access == Access::Write {
                    // Single writer XOR multiple readers: downgrade first.
                    if let Some((_, d)) = vm.peek_page(o.vm_obj, page) {
                        pi.dirty |= d;
                    }
                    vm.kernel_call(
                        now,
                        o.vm_obj,
                        EmmiToKernel::LockRequest {
                            page,
                            op: LockOp::Downgrade {
                                return_dirty: false,
                            },
                            mode: LockMode::Normal,
                        },
                        &mut fx.vm,
                    );
                    pi.access = Access::Read;
                }
                pi.readers.insert(req.origin);
                let (data, vm_dirty) = {
                    let (d, dirty) = vm
                        .peek_page(o.vm_obj, page)
                        .expect("owner must hold the page");
                    (d.clone(), dirty)
                };
                let pi = o.pages.get_mut(&page).unwrap();
                pi.dirty |= vm_dirty;
                fx.send(
                    req.origin,
                    AsvmMsg::Grant {
                        mobj,
                        page,
                        access: Access::Read,
                        data: Some(data),
                        dirty: pi.dirty,
                        ownership: false,
                        readers: vec![],
                        version: pi.version,
                        pull_snapshot: false,
                    },
                );
            }
            Access::Write => {
                // Transition 4/6: transfer ownership; invalidate readers
                // first if any exist.
                let pi = o.pages.get_mut(&page).unwrap();
                let mut acks = pi.readers.clone();
                acks.remove(&req.origin);
                if acks.is_empty() {
                    Self::finish_write_transfer(
                        o,
                        me,
                        cost,
                        now,
                        vm,
                        page,
                        req.origin,
                        req.has_copy,
                        fx,
                    );
                } else {
                    for r in &acks {
                        fx.send(
                            *r,
                            AsvmMsg::Invalidate {
                                mobj,
                                page,
                                from: me,
                            },
                        );
                    }
                    pi.busy = Some(Busy::WriteTransfer {
                        to: req.origin,
                        to_has_copy: req.has_copy,
                        pending_acks: acks,
                    });
                    vm.set_busy(o.vm_obj, page, true);
                }
            }
        }
    }

    /// Transition 7: the owner upgrades its own access.
    pub(crate) fn local_upgrade(
        o: &mut AsvmObject,
        me: NodeId,
        _cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        fx: &mut Fx,
    ) {
        let mobj = o.mobj;
        let pi = o.pages.get_mut(&page).unwrap();
        debug_assert!(pi.owner);
        let acks = pi.readers.clone();
        if acks.is_empty() {
            pi.access = Access::Write;
            pi.dirty = true;
            vm.kernel_call(
                now,
                o.vm_obj,
                EmmiToKernel::LockRequest {
                    page,
                    op: LockOp::Grant(Access::Write),
                    mode: LockMode::Normal,
                },
                &mut fx.vm,
            );
        } else {
            for r in &acks {
                fx.send(
                    *r,
                    AsvmMsg::Invalidate {
                        mobj,
                        page,
                        from: me,
                    },
                );
            }
            pi.busy = Some(Busy::LocalUpgrade { pending_acks: acks });
            vm.set_busy(o.vm_obj, page, true);
        }
    }

    /// Completes transition 4/6 once all invalidations are acknowledged.
    ///
    /// The page contents ride along unless the requester both claimed a
    /// read copy in its request (`to_has_copy`) *and* is still in our
    /// reader list — the claim alone is not enough, because the VM may
    /// have silently discarded the copy before the request left (§3.6
    /// step 1 does not notify the owner), and the reader list alone is
    /// not enough, because such a discard leaves it stale.
    #[allow(clippy::too_many_arguments)]
    fn finish_write_transfer(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        to: NodeId,
        to_has_copy: bool,
        fx: &mut Fx,
    ) {
        let mobj = o.mobj;
        let pi = o.pages.get_mut(&page).unwrap();
        let elide = to_has_copy && pi.readers.contains(&to);
        let (data, vm_dirty) = {
            let (d, dirty) = vm
                .peek_page(o.vm_obj, page)
                .expect("owner must hold the page during transfer");
            (d.clone(), dirty)
        };
        let pi = o.pages.get_mut(&page).unwrap();
        pi.dirty |= vm_dirty;
        fx.send(
            to,
            AsvmMsg::Grant {
                mobj,
                page,
                access: Access::Write,
                data: (!elide).then_some(data),
                dirty: pi.dirty,
                ownership: true,
                readers: vec![],
                version: pi.version,
                pull_snapshot: false,
            },
        );
        // Flush our own copy: the new writer is the single writer.
        vm.set_busy(o.vm_obj, page, false);
        vm.kernel_call(
            now,
            o.vm_obj,
            EmmiToKernel::LockRequest {
                page,
                op: LockOp::Flush {
                    return_dirty: false,
                },
                mode: LockMode::Normal,
            },
            &mut fx.vm,
        );
        let queued: Vec<QueuedReq> = o.pages.get_mut(&page).unwrap().queued.drain(..).collect();
        o.pages.remove(&page);
        Self::spec_settle(o, page, true, fx);
        o.dyn_cache.insert(page, to);
        // Tell the static manager about the transfer NOW (the new owner
        // repeats this on receipt): a concurrent global walk that finds no
        // owner must see the in-flight transfer at the static manager
        // instead of minting a second owner at the pager.
        let sm = o.static_node_live(page);
        if sm == me {
            o.static_seen.insert(page);
            o.static_cache.insert(page, StaticHint::Owner(to));
        } else {
            fx.send(
                sm,
                AsvmMsg::OwnerHint {
                    mobj: o.mobj,
                    page,
                    owner: to,
                },
            );
        }
        for q in queued {
            Self::route(o, me, cost, now, vm, page, q, ReqPath::default(), fx);
        }
    }

    /// An invalidation ack arrived; advance whatever was waiting on it.
    #[allow(clippy::too_many_arguments)]
    fn invalidate_ack(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        acker: NodeId,
        fx: &mut Fx,
    ) {
        let Some(pi) = o.pages.get_mut(&page) else {
            return; // Stale ack after the page moved on.
        };
        pi.readers.remove(&acker);
        match &mut pi.busy {
            Some(Busy::WriteTransfer {
                to,
                to_has_copy,
                pending_acks,
            }) => {
                pending_acks.remove(&acker);
                if pending_acks.is_empty() {
                    let to = *to;
                    let to_has_copy = *to_has_copy;
                    pi.busy = None;
                    Self::finish_write_transfer(o, me, cost, now, vm, page, to, to_has_copy, fx);
                }
            }
            Some(Busy::LocalUpgrade { pending_acks }) => {
                pending_acks.remove(&acker);
                if pending_acks.is_empty() {
                    pi.busy = None;
                    vm.set_busy(o.vm_obj, page, false);
                    pi.access = Access::Write;
                    pi.dirty = true;
                    pi.readers.clear();
                    let queued: Vec<QueuedReq> = pi.queued.drain(..).collect();
                    vm.kernel_call(
                        now,
                        o.vm_obj,
                        EmmiToKernel::LockRequest {
                            page,
                            op: LockOp::Grant(Access::Write),
                            mode: LockMode::Normal,
                        },
                        &mut fx.vm,
                    );
                    for q in queued {
                        Self::route(o, me, cost, now, vm, page, q, ReqPath::default(), fx);
                    }
                    Self::drain_parked(o, me, cost, now, vm, page, fx);
                }
            }
            _ => {}
        }
    }

    /// A grant (read copy, write+ownership, or upgrade) arrived.
    #[allow(clippy::too_many_arguments)]
    fn grant_arrived(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        from: NodeId,
        page: PageIdx,
        access: Access,
        data: Option<PageData>,
        dirty: bool,
        ownership: bool,
        readers: Vec<NodeId>,
        version: u64,
        fx: &mut Fx,
    ) {
        // An owner-making write grant for a page whose version lags the
        // object version must run a push before the write proceeds (the
        // snapshot in the grant has not reached existing copies yet). This
        // covers pulled snapshots; owner-to-owner transfers arrive already
        // pushed by the granting owner.
        let needs_push = ownership && access == Access::Write && version != o.version;
        let lock = if needs_push { Access::Read } else { access };
        let pend = o.pending.get(&page).copied();
        // A non-ownership grant with no pending request and the page
        // already resident is a duplicate: the original and a watchdog
        // re-issue both got answered, or a same-node write fault
        // superseded an in-flight read (the write's ownership grant
        // landed first and this is the late read grant). Applying it
        // again is harmless for the data (same owner, same contents) but
        // would clobber local bookkeeping; drop it.
        if pend.is_none() && !ownership && o.pages.contains_key(&page) {
            fx.bump("asvm.recover.stale_grant");
            return;
        }
        if !needs_push {
            if let Some(p) = pend {
                if access.allows(p.access) {
                    o.pending.remove(&page);
                    if p.speculative {
                        // The fill landed before any demand access touched
                        // it: remember it so the eventual demand hit (or
                        // eviction) settles the speculation honestly.
                        o.prefetched.insert(page);
                    }
                }
            }
        }
        let pi = o
            .pages
            .get_or_insert_with(page, || Box::new(PageInfo::new(lock, false, version)));
        pi.access = pi.access.max(lock);
        pi.owner |= ownership;
        pi.version = version;
        pi.dirty |= dirty;
        pi.readers.extend(readers);
        pi.readers.remove(&me);
        if !ownership {
            // The sender is the owner; remember it.
            o.dyn_cache.insert(page, from);
        }
        // Any grant supersedes a stashed discarded copy: either it carries
        // fresh contents, or (elided) the stash *is* the contents.
        let stashed = o.stash.remove(&page);
        match data {
            Some(d) => vm.kernel_call(
                now,
                o.vm_obj,
                EmmiToKernel::DataSupply {
                    page,
                    data: d,
                    lock,
                    mode: SupplyMode::Normal,
                },
                &mut fx.vm,
            ),
            None if vm.peek_page(o.vm_obj, page).is_none() => {
                // The owner elided the contents against our claimed read
                // copy, but the VM silently discarded that copy while the
                // request was in flight; restore the stashed contents. The
                // stash is current: an elided grant means we stayed in the
                // owner's reader list, so no write intervened.
                let s = stashed.expect("elided grant for a page with no local copy");
                debug_assert_eq!(s.version, version, "stashed copy version mismatch");
                fx.bump("asvm.evict.stash_fill");
                vm.kernel_call(
                    now,
                    o.vm_obj,
                    EmmiToKernel::DataSupply {
                        page,
                        data: s.data,
                        lock,
                        mode: SupplyMode::Normal,
                    },
                    &mut fx.vm,
                );
            }
            None => vm.kernel_call(
                now,
                o.vm_obj,
                EmmiToKernel::LockRequest {
                    page,
                    op: LockOp::Grant(lock),
                    mode: LockMode::Normal,
                },
                &mut fx.vm,
            ),
        }
        if ownership {
            Self::notify_owner_hint(o, me, cost, now, vm, page, fx);
        }
        if needs_push {
            let req = QueuedReq {
                access: Access::Write,
                origin: me,
                origin_obj: o.vm_obj,
                has_copy: true,
                kind: ReqKind::Access,
                deliver: None,
            };
            crate::copymgmt::start_push(o, me, cost, now, vm, page, req, fx);
        }
        Self::drain_parked(o, me, cost, now, vm, page, fx);
    }

    /// Internode pageout step 2 reply.
    #[allow(clippy::too_many_arguments)]
    fn read_check_reply(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        reader: NodeId,
        has_copy: bool,
        fx: &mut Fx,
    ) {
        let mobj = o.mobj;
        let pi = o
            .pages
            .get_mut(&page)
            .expect("read-check reply without state");
        let Some(Busy::Evict { data, dirty, stage }) = &mut pi.busy else {
            panic!("read-check reply while not evicting");
        };
        let EvictStage::CheckingReaders { current, remaining } = stage else {
            panic!("read-check reply in wrong eviction stage");
        };
        assert_eq!(*current, reader);
        if has_copy {
            // Ownership moves to the reader; no page contents needed.
            let d = *dirty;
            pi.readers.remove(&reader);
            let readers = pi.readers.as_slice().to_vec();
            let version = pi.version;
            fx.send(
                reader,
                AsvmMsg::OwnershipTransfer {
                    mobj,
                    page,
                    readers,
                    version,
                    dirty: d,
                },
            );
            let queued: Vec<QueuedReq> = pi.queued.drain(..).collect();
            o.pages.remove(&page);
            Self::spec_settle(o, page, true, fx);
            o.dyn_cache.insert(page, reader);
            for q in queued {
                Self::route(o, me, cost, now, vm, page, q, ReqPath::default(), fx);
            }
        } else {
            pi.readers.remove(&reader);
            if let Some((next, rest)) = remaining.split_first() {
                let next = *next;
                *stage = EvictStage::CheckingReaders {
                    current: next,
                    remaining: rest.to_vec(),
                };
                fx.send(
                    next,
                    AsvmMsg::ReadCheck {
                        mobj,
                        page,
                        from: me,
                    },
                );
            } else {
                let (data, d) = (data.clone(), *dirty);
                pi.busy = None;
                Self::evict_step3(o, me, cost, now, vm, page, data, d, fx);
            }
        }
    }

    /// Internode pageout step 3: pick a candidate via the cycling counter.
    #[allow(clippy::too_many_arguments)]
    fn evict_step3(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        data: PageData,
        dirty: bool,
        fx: &mut Fx,
    ) {
        let mobj = o.mobj;
        let candidates: Vec<NodeId> = o.nodes.iter().copied().filter(|n| *n != me).collect();
        if candidates.is_empty() {
            Self::evict_step4(o, me, cost, now, vm, page, data, dirty, fx);
            return;
        }
        let candidate = candidates[o.pageout_counter % candidates.len()];
        o.pageout_counter += 1;
        let pi = o.pages.get_mut(&page).unwrap();
        pi.busy = Some(Busy::Evict {
            data,
            dirty,
            stage: EvictStage::Asking {
                candidate,
                tried_last_accept: false,
            },
        });
        fx.send(
            candidate,
            AsvmMsg::AcceptAsk {
                mobj,
                page,
                from: me,
            },
        );
    }

    /// Internode pageout step 3 reply.
    #[allow(clippy::too_many_arguments)]
    fn accept_reply(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        candidate: NodeId,
        accept: bool,
        fx: &mut Fx,
    ) {
        let mobj = o.mobj;
        let pi = o.pages.get_mut(&page).expect("accept reply without state");
        let Some(Busy::Evict { data, dirty, stage }) = &mut pi.busy else {
            panic!("accept reply while not evicting");
        };
        let EvictStage::Asking {
            candidate: asked,
            tried_last_accept,
        } = stage
        else {
            panic!("accept reply in wrong eviction stage");
        };
        assert_eq!(*asked, candidate);
        if accept {
            let (data, d, version) = (data.clone(), *dirty, pi.version);
            fx.send(
                candidate,
                AsvmMsg::PageTransfer {
                    mobj,
                    page,
                    data,
                    dirty: d,
                    version,
                },
            );
            o.last_accept = Some(candidate);
            let queued: Vec<QueuedReq> = pi.queued.drain(..).collect();
            o.pages.remove(&page);
            Self::spec_settle(o, page, true, fx);
            o.dyn_cache.insert(page, candidate);
            for q in queued {
                Self::route(o, me, cost, now, vm, page, q, ReqPath::default(), fx);
            }
        } else {
            // Fall back to the node that most recently accepted a transfer.
            let fallback = o
                .last_accept
                .filter(|n| *n != candidate && *n != me && !*tried_last_accept);
            match fallback {
                Some(n) => {
                    *stage = EvictStage::Asking {
                        candidate: n,
                        tried_last_accept: true,
                    };
                    fx.send(
                        n,
                        AsvmMsg::AcceptAsk {
                            mobj,
                            page,
                            from: me,
                        },
                    );
                }
                None => {
                    let (data, d) = (data.clone(), *dirty);
                    pi.busy = None;
                    Self::evict_step4(o, me, cost, now, vm, page, data, d, fx);
                }
            }
        }
    }

    /// Internode pageout step 4: return the page to the real pager.
    #[allow(clippy::too_many_arguments)]
    fn evict_step4(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        data: PageData,
        dirty: bool,
        fx: &mut Fx,
    ) {
        let mobj = o.mobj;
        if dirty {
            fx.pager.push(PagerSend {
                pager_node: o.pager_node,
                reply_to: me,
                mobj: o.mobj,
                obj: o.vm_obj,
                call: EmmiToPager::DataReturn {
                    page,
                    data,
                    dirty: true,
                },
            });
        }
        let sm = o.static_node_live(page);
        if sm == me {
            o.static_seen.insert(page);
            o.static_cache.insert(page, StaticHint::Paged);
        } else {
            fx.send(sm, AsvmMsg::PagedHint { mobj, page });
        }
        let queued: Vec<QueuedReq> = o
            .pages
            .get_mut(&page)
            .map(|pi| pi.queued.drain(..).collect())
            .unwrap_or_default();
        o.pages.remove(&page);
        Self::spec_settle(o, page, true, fx);
        for q in queued {
            Self::route(o, me, cost, now, vm, page, q, ReqPath::default(), fx);
        }
    }

    // --- Hint maintenance -------------------------------------------------------------

    /// Reports fresh ownership of `page` to its static manager (or applies
    /// it locally when we are the static manager).
    pub(crate) fn notify_owner_hint(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        fx: &mut Fx,
    ) {
        let mobj = o.mobj;
        let sm = o.static_node_live(page);
        if sm == me {
            Self::owner_hint(o, me, cost, now, vm, page, me, fx);
        } else {
            fx.send(
                sm,
                AsvmMsg::OwnerHint {
                    mobj,
                    page,
                    owner: me,
                },
            );
        }
    }

    /// Applies an ownership hint at the static manager and releases any
    /// requests serialized behind a pager fill.
    #[allow(clippy::too_many_arguments)]
    fn owner_hint(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        owner: NodeId,
        fx: &mut Fx,
    ) {
        o.static_seen.insert(page);
        o.static_cache.insert(page, StaticHint::Owner(owner));
        o.static_filling.remove(&page);
        let waiting = o.static_waiting.remove(&page).unwrap_or_default();
        for q in waiting {
            let path = ReqPath {
                tried_static: true,
                hops: 1,
                ..ReqPath::default()
            };
            if owner == me {
                Self::route(o, me, cost, now, vm, page, q, path, fx);
            } else {
                Self::send_req(o, fx, owner, page, &q, path);
            }
        }
    }

    /// Re-dispatches requests parked while this node awaited a fill.
    pub(crate) fn drain_parked(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        fx: &mut Fx,
    ) {
        let parked = o.fill_waiters.remove(&page).unwrap_or_default();
        for q in parked {
            Self::route(o, me, cost, now, vm, page, q, ReqPath::default(), fx);
        }
    }

    // --- Failure recovery (docs/RELIABILITY.md) ---------------------------------------
    //
    // Everything in this section is reachable only when the failure
    // detector has produced suspects or the watchdog found a stalled
    // request — i.e. only under an active fault plan. Fault-free runs
    // never enter it, which is what keeps baseline traces byte-identical.

    /// Begins ownership reconstruction for `page` at this node (the static
    /// manager, or the live successor that inherited the role): query every
    /// live member for its surviving copy, then elect a new owner.
    #[allow(clippy::too_many_arguments)]
    fn start_recovery(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        req: QueuedReq,
        fx: &mut Fx,
    ) {
        if let Some(rs) = o.recover.get_mut(&page) {
            // Reconstruction already in flight: serialize behind it.
            rs.waiting.push(req);
            fx.bump("asvm.recover.dup_req");
            return;
        }
        fx.bump("asvm.recover.query");
        let mobj = o.mobj;
        let expect: std::collections::BTreeSet<NodeId> = o
            .nodes
            .iter()
            .copied()
            .filter(|n| *n != me && !o.suspects.contains(n))
            .collect();
        // Seed with our own view so the election sees the manager's copy
        // without a message round.
        let mut holders = std::collections::BTreeSet::new();
        let mut best = None;
        let mut owner = None;
        if let Some(pi) = o.pages.get(&page) {
            if pi.busy.is_none() || matches!(pi.busy, Some(Busy::AwaitingOwnership)) {
                holders.insert(me);
                best = Some((pi.version, me));
                if pi.owner {
                    owner = Some(me);
                }
            }
        }
        for n in &expect {
            fx.send(
                *n,
                AsvmMsg::RecoverQuery {
                    mobj,
                    page,
                    from: me,
                },
            );
        }
        let done = expect.is_empty();
        o.recover.insert(
            page,
            RecoverState {
                expect,
                best,
                holders,
                owner,
                waiting: vec![req],
            },
        );
        if done {
            Self::finish_recovery(o, me, cost, now, vm, page, fx);
        }
    }

    /// A member's answer to a [`AsvmMsg::RecoverQuery`] arrived.
    #[allow(clippy::too_many_arguments)]
    fn recover_reply(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        peer: NodeId,
        has_copy: bool,
        version: u64,
        owner: bool,
        fx: &mut Fx,
    ) {
        let Some(rs) = o.recover.get_mut(&page) else {
            return; // Duplicate reply after reconstruction resolved.
        };
        if !rs.expect.remove(&peer) {
            return;
        }
        if owner {
            rs.owner = Some(peer);
        }
        if has_copy {
            rs.holders.insert(peer);
            let better = match rs.best {
                None => true,
                // Deterministic election: max version, ties to lowest id.
                Some((v, b)) => version > v || (version == v && peer.0 < b.0),
            };
            if better {
                rs.best = Some((version, peer));
            }
        }
        if rs.expect.is_empty() {
            Self::finish_recovery(o, me, cost, now, vm, page, fx);
        }
    }

    /// All live members have answered: install the surviving owner, elect
    /// one from the copyset, or fall back to a pager re-fetch.
    fn finish_recovery(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        fx: &mut Fx,
    ) {
        let rs = o
            .recover
            .remove(&page)
            .expect("finish_recovery without state");
        let mobj = o.mobj;
        let new_owner = if let Some(owner) = rs.owner {
            // An owner survived after all (the suspicion was about a stale
            // hint, not the owner itself); just repair the hint.
            fx.bump("asvm.recover.owner_found");
            owner
        } else if let Some((_, winner)) = rs.best {
            fx.bump("asvm.recover.elected");
            let readers: Vec<NodeId> = rs
                .holders
                .iter()
                .copied()
                .filter(|h| *h != winner)
                .collect();
            if winner == me {
                Self::recover_elect(o, me, cost, now, vm, page, readers, fx);
            } else {
                fx.send(
                    winner,
                    AsvmMsg::RecoverElect {
                        mobj,
                        page,
                        readers,
                    },
                );
            }
            winner
        } else {
            // No copy survives anywhere: the pager's version is the best
            // remaining one. Serialize the waiters behind a fresh fill
            // (we are the acting manager, so recording the fill here is
            // exactly the normal first-touch discipline).
            fx.bump("asvm.recover.refetch");
            let mut waiting = rs.waiting.into_iter();
            if let Some(first) = waiting.next() {
                for q in waiting {
                    o.static_waiting.entry(page).or_default().push(q);
                }
                Self::pager_dispatch(o, me, cost, now, vm, page, first, fx);
            }
            return;
        };
        o.static_seen.insert(page);
        o.static_cache.insert(page, StaticHint::Owner(new_owner));
        o.static_filling.remove(&page);
        for q in rs.waiting {
            let path = ReqPath {
                tried_static: true,
                hops: 1,
                ..ReqPath::default()
            };
            if new_owner == me {
                Self::route(o, me, cost, now, vm, page, q, path, fx);
            } else {
                Self::send_req(o, fx, new_owner, page, &q, path);
            }
        }
    }

    /// This node won the election: promote the local copy to owner, adopt
    /// the surviving copyset as readers, and drain everything parked.
    #[allow(clippy::too_many_arguments)]
    fn recover_elect(
        o: &mut AsvmObject,
        me: NodeId,
        cost: &CostModel,
        now: Time,
        vm: &mut VmSystem,
        page: PageIdx,
        readers: Vec<NodeId>,
        fx: &mut Fx,
    ) {
        let suspects = o.suspects.clone();
        let Some(pi) = o.pages.get_mut(&page) else {
            // Our copy was evicted between the reply and the election; the
            // stale Owner(me) hint self-heals through the manager's
            // stale-self-hint path and the next watchdog pass.
            fx.bump("asvm.recover.elect_lost");
            return;
        };
        if matches!(pi.busy, Some(Busy::AwaitingOwnership)) {
            // The transfer we were waiting for came from the dead owner;
            // the election supersedes it.
            pi.busy = None;
            vm.set_busy(o.vm_obj, page, false);
        }
        if pi.busy.is_some() {
            // Mid-transition (only reachable if we were already owner):
            // the running operation completes on its own.
            return;
        }
        pi.owner = true;
        pi.readers.extend(
            readers
                .iter()
                .copied()
                .filter(|r| *r != me && !suspects.contains(r)),
        );
        let queued: Vec<QueuedReq> = pi.queued.drain(..).collect();
        Self::notify_owner_hint(o, me, cost, now, vm, page, fx);
        if let Some(p) = o.pending.get(&page).copied() {
            // Our own stalled request resolves locally now that we own the
            // page (serve handles read grants, upgrades and pushes).
            let req = QueuedReq {
                access: p.access,
                origin: me,
                origin_obj: o.vm_obj,
                has_copy: true,
                kind: ReqKind::Access,
                deliver: None,
            };
            Self::serve(o, me, cost, now, vm, page, req, fx);
        }
        for q in queued {
            Self::route(o, me, cost, now, vm, page, q, ReqPath::default(), fx);
        }
        Self::drain_parked(o, me, cost, now, vm, page, fx);
    }

    /// Re-issues pending requests stalled past the configured deadline
    /// (down the fallback chain: invalidate the dynamic hint, retry via
    /// the live static manager, finally re-fetch from the pager). Driven
    /// by the cluster layer's heartbeat tick, only under active fault
    /// plans; `deadline` is the carrier's
    /// [`crate::RecoveryTiming::watchdog_deadline`].
    pub fn watchdog(&mut self, now: Time, deadline: Dur, vm: &mut VmSystem, fx: &mut Fx) {
        fx.cpu += self.cost.asvm_handle;
        let me = self.me;
        let cost = &self.cost;
        for o in self.objects.values_mut() {
            if o.peer.is_some() || o.source.is_some() {
                // Distributed copy objects pull through their peer's shadow
                // chain; recovery of those is out of scope (documented).
                continue;
            }
            let budget = crate::config::WATCHDOG_RETRY_BUDGET;
            let stalled: Vec<(PageIdx, PendingLocal)> = o
                .pending
                .iter()
                .filter(|(page, pl)| {
                    // Not `now.since(issued)`: `issued` carries the node's
                    // local clock, which can run ahead of this tick's
                    // delivery time through same-instant CPU charges.
                    if now < pl.issued + deadline {
                        return false;
                    }
                    match o.pages.get(page) {
                        // Busy pages resolve through their own transition —
                        // except AwaitingOwnership from a possibly-dead
                        // transferor, which only recovery can break.
                        Some(pi) if pi.owner => false,
                        Some(pi) => {
                            pi.busy.is_none()
                                || (matches!(pi.busy, Some(Busy::AwaitingOwnership))
                                    && !o.suspects.is_empty())
                        }
                        None => true,
                    }
                })
                .map(|(p, pl)| (p, *pl))
                .collect();
            for (page, pl) in stalled {
                // The hint that routed the stalled request is the prime
                // suspect; drop it so the re-issue takes the next rung.
                o.dyn_cache.remove(&page);
                if let Some(pi) = o.pages.get_mut(&page) {
                    if matches!(pi.busy, Some(Busy::AwaitingOwnership)) {
                        pi.busy = None;
                        vm.set_busy(o.vm_obj, page, false);
                    }
                }
                let live_peers = o.nodes.iter().any(|n| *n != me && !o.suspects.contains(n));
                if pl.retries >= budget || !live_peers {
                    // Terminal rung: give up on peers, flush whatever copy
                    // we hold and re-fetch from the pager (always
                    // reachable; NORMA traffic is reliable).
                    fx.bump("asvm.recover.refetch");
                    let queued: Vec<QueuedReq> = if let Some(pi) = o.pages.get_mut(&page) {
                        let queued = pi.queued.drain(..).collect();
                        vm.set_busy(o.vm_obj, page, false);
                        vm.kernel_call(
                            now,
                            o.vm_obj,
                            EmmiToKernel::LockRequest {
                                page,
                                op: LockOp::Flush {
                                    return_dirty: false,
                                },
                                mode: LockMode::Normal,
                            },
                            &mut fx.vm,
                        );
                        o.pages.remove(&page);
                        Self::spec_settle(o, page, true, fx);
                        queued
                    } else {
                        Vec::new()
                    };
                    o.pending.insert(
                        page,
                        PendingLocal {
                            access: pl.access,
                            has_copy: false,
                            issued: now,
                            retries: pl.retries.saturating_add(1),
                            speculative: pl.speculative,
                        },
                    );
                    // Straight to the pager — deliberately NOT through
                    // pager_dispatch, which would record a static fill at a
                    // node that is not the page's manager.
                    fx.pager.push(PagerSend {
                        pager_node: o.pager_for(page),
                        reply_to: me,
                        mobj: o.mobj,
                        obj: o.vm_obj,
                        call: EmmiToPager::DataRequest {
                            page,
                            access: pl.access,
                        },
                    });
                    for q in queued {
                        Self::route(o, me, cost, now, vm, page, q, ReqPath::default(), fx);
                    }
                } else {
                    fx.bump("asvm.recover.reissue");
                    let has_copy = o.pages.contains_key(&page);
                    o.pending.insert(
                        page,
                        PendingLocal {
                            access: pl.access,
                            has_copy,
                            issued: now,
                            retries: pl.retries + 1,
                            speculative: pl.speculative,
                        },
                    );
                    let req = QueuedReq {
                        access: pl.access,
                        origin: me,
                        origin_obj: o.vm_obj,
                        has_copy,
                        kind: ReqKind::Access,
                        deliver: None,
                    };
                    let path = ReqPath {
                        recovering: true,
                        ..ReqPath::default()
                    };
                    Self::route(o, me, cost, now, vm, page, req, path, fx);
                }
            }
        }
    }

    /// The failure detector now suspects `peer`: scrub hints naming it,
    /// unwind every in-flight operation waiting on it, and reclaim pager
    /// fills issued on its behalf.
    pub fn peer_suspected(&mut self, now: Time, vm: &mut VmSystem, peer: NodeId, fx: &mut Fx) {
        fx.cpu += self.cost.asvm_handle;
        let me = self.me;
        let cost = &self.cost;
        for o in self.objects.values_mut() {
            if !o.nodes.contains(&peer) || !o.suspects.insert(peer) {
                continue;
            }
            // Static roles just rehashed onto successors that have never
            // seen these pages: "never seen" no longer implies "fresh".
            o.fresh_valid = false;
            if o.last_accept == Some(peer) {
                o.last_accept = None;
            }
            // Scrub dynamic hints naming the dead node (the static
            // Owner(peer) hints stay: they are the tripwire that routes
            // requests into reconstruction).
            let stale: Vec<PageIdx> = o
                .dyn_cache
                .iter()
                .filter(|(_, h)| **h == peer)
                .map(|(p, _)| *p)
                .collect();
            for p in stale {
                o.dyn_cache.remove(&p);
                fx.bump("asvm.recover.hint_scrub");
            }
            // Unwind busy operations blocked on the dead node, reusing the
            // normal completion paths with a synthesized negative reply.
            let mut abort_transfers = Vec::new();
            let mut dead_acks = Vec::new();
            let mut push_dones = Vec::new();
            let mut read_checks = Vec::new();
            let mut accept_asks = Vec::new();
            for (page, pi) in o.pages.iter() {
                match &pi.busy {
                    Some(Busy::WriteTransfer { to, .. }) if *to == peer => {
                        abort_transfers.push(page);
                    }
                    Some(Busy::WriteTransfer { pending_acks, .. })
                        if pending_acks.contains(&peer) =>
                    {
                        dead_acks.push(page);
                    }
                    Some(Busy::LocalUpgrade { pending_acks }) if pending_acks.contains(&peer) => {
                        dead_acks.push(page);
                    }
                    Some(Busy::Push { pending, .. }) if pending.contains(&peer) => {
                        push_dones.push(page);
                    }
                    Some(Busy::Evict {
                        stage: EvictStage::CheckingReaders { current, .. },
                        ..
                    }) if *current == peer => {
                        read_checks.push(page);
                    }
                    Some(Busy::Evict {
                        stage: EvictStage::Asking { candidate, .. },
                        ..
                    }) if *candidate == peer => {
                        accept_asks.push(page);
                    }
                    _ => {}
                }
            }
            for page in abort_transfers {
                // The grantee died before the transfer completed: keep
                // ownership here and re-dispatch whatever queued behind it.
                fx.bump("asvm.recover.abort_transfer");
                let pi = o.pages.get_mut(&page).unwrap();
                pi.busy = None;
                vm.set_busy(o.vm_obj, page, false);
                let queued: Vec<QueuedReq> = pi.queued.drain(..).collect();
                for q in queued {
                    Self::route(o, me, cost, now, vm, page, q, ReqPath::default(), fx);
                }
            }
            for page in dead_acks {
                // The dead reader will never acknowledge its invalidation;
                // its copy is unreachable, which is as good as invalidated.
                Self::invalidate_ack(o, me, cost, now, vm, page, peer, fx);
            }
            for page in push_dones {
                crate::copymgmt::on_push_done(o, me, cost, now, vm, page, peer, fx);
            }
            for page in read_checks {
                Self::read_check_reply(o, me, cost, now, vm, page, peer, false, fx);
            }
            for page in accept_asks {
                Self::accept_reply(o, me, cost, now, vm, page, peer, false, fx);
            }
            // Drop dead readers from owned pages so future invalidation
            // rounds never wait on them.
            for (_, pi) in o.pages.iter_mut() {
                pi.readers.remove(&peer);
            }
            // Pager fills issued on behalf of the dead node complete on
            // the dead node; release the requests serialized behind them.
            let stale_fills: Vec<PageIdx> = o
                .static_filling
                .iter()
                .filter(|(_, origin)| **origin == peer)
                .map(|(p, _)| *p)
                .collect();
            for page in stale_fills {
                o.static_filling.remove(&page);
                fx.bump("asvm.recover.fill_reclaim");
                let waiting = o.static_waiting.remove(&page).unwrap_or_default();
                for q in waiting {
                    let path = ReqPath {
                        recovering: true,
                        ..ReqPath::default()
                    };
                    Self::route(o, me, cost, now, vm, page, q, path, fx);
                }
            }
            // Reconstructions waiting on a reply from the newly dead node
            // complete without it.
            let stuck: Vec<PageIdx> = o
                .recover
                .iter()
                .filter(|(_, rs)| rs.expect.contains(&peer))
                .map(|(p, _)| *p)
                .collect();
            for page in stuck {
                let rs = o.recover.get_mut(&page).unwrap();
                rs.expect.remove(&peer);
                if rs.expect.is_empty() {
                    Self::finish_recovery(o, me, cost, now, vm, page, fx);
                }
            }
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
        let o = self
            .objects
            .get_mut(&mobj)
            .expect("lock on unregistered object");
        if o.home == me {
            return Self::acquire_range_lock(o, me, range, me, fx);
        }
        fx.send(
            o.home,
            AsvmMsg::RangeLockReq {
                mobj,
                first: range.first,
                count: range.count,
                from: me,
            },
        );
    }

    /// Releases a range lock previously granted to this node.
    pub fn unlock_range(&mut self, mobj: MemObjId, range: PageRange, fx: &mut Fx) {
        let me = self.me;
        let o = self
            .objects
            .get_mut(&mobj)
            .expect("unlock on unregistered object");
        if o.home == me {
            return Self::release_range_lock(o, me, range, me, fx);
        }
        fx.send(
            o.home,
            AsvmMsg::RangeLockRelease {
                mobj,
                first: range.first,
                count: range.count,
                from: me,
            },
        );
    }

    /// A delayed copy of `mobj` was created on this node: bump versions
    /// and protections locally and broadcast to all sharing nodes via the
    /// home node.
    pub fn copy_made_local(&mut self, now: Time, vm: &mut VmSystem, mobj: MemObjId, fx: &mut Fx) {
        let me = self.me;
        let o = self
            .objects
            .get_mut(&mobj)
            .expect("copy of unregistered object");
        Self::apply_copy_made(o, now, vm, fx);
        if o.home == me {
            Self::relay_copy_made(o, me, me, fx);
        } else {
            fx.send(o.home, AsvmMsg::CopyMade { mobj, from: me });
        }
    }

    /// Applies the local half of a copy notification: bump the object
    /// version and write-protect resident pages so the next write faults
    /// into the push machinery.
    fn apply_copy_made(o: &mut AsvmObject, now: Time, vm: &mut VmSystem, fx: &mut Fx) {
        o.version += 1;
        let pages: Vec<PageIdx> = o
            .pages
            .iter()
            .filter(|(_, pi)| pi.access == Access::Write)
            .map(|(p, _)| p)
            .collect();
        for page in pages {
            vm.kernel_call(
                now,
                o.vm_obj,
                EmmiToKernel::LockRequest {
                    page,
                    op: LockOp::Downgrade {
                        return_dirty: false,
                    },
                    mode: LockMode::Normal,
                },
                &mut fx.vm,
            );
            if let Some(pi) = o.pages.get_mut(&page) {
                pi.access = Access::Read;
            }
        }
    }

    // --- Small helpers --------------------------------------------------------------

    fn send_req(
        o: &AsvmObject,
        fx: &mut Fx,
        dst: NodeId,
        page: PageIdx,
        req: &QueuedReq,
        path: ReqPath,
    ) {
        fx.send(
            dst,
            AsvmMsg::PageReq {
                mobj: o.mobj,
                page,
                req: req.clone(),
                path,
            },
        );
    }

    fn has_free_memory(vm: &VmSystem) -> bool {
        vm.resident_total() + 16 <= vm.capacity_pages()
    }
}
