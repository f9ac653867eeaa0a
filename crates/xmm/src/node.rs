//! The per-node XMM instance: proxies, the centralized manager, and the
//! internal copy pagers.
//!
//! XMM (NMK13) intercepts EMMI between each node's VM system and the real
//! pager. For every memory object, exactly one node — the *manager*, where
//! the object was created — holds all state and talks to the pager; every
//! other node runs a forwarding proxy (paper §2.3.1). The manager keeps a
//! page-state byte per page *per node* (the memory cost §3.1 criticizes)
//! and serializes all requests for a page.
//!
//! Inherited memory uses *internal pagers* (§2.3.3): a fork-time snapshot
//! of the parent address space lives in a pseudo task; remote faults arrive
//! as messages, occupy a thread from a bounded pool, and run a *local*
//! page fault on the snapshot — the blocking design whose thread
//! exhaustion deadlock the paper calls out (and which ASVM's asynchronous
//! transitions avoid).

use std::collections::{BTreeMap, VecDeque};

use machvm::{
    Access, EmmiToKernel, EmmiToPager, FaultId, FaultOutcome, KeyTable, LockMode, LockOp, MemObjId,
    NodeSet, PageIdx, PagerSend, SlotTable, SupplyMode, TaskId, VmObjId, VmSystem,
};
use svmsim::{CostModel, NodeId, Time};

use crate::protocol::{XLock, XmmMsg};

/// Effects produced by XMM handlers: the shared manager sink, carrying
/// XMMI messages (always over NORMA-IPC).
pub type Fx = machvm::Fx<XmmMsg>;

/// What backs an XMM-managed object.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum XmmBacking {
    /// A real pager task on an I/O node.
    RealPager {
        /// The I/O node.
        node: NodeId,
    },
    /// An XMM internal copy pager on the node where the fork snapshot
    /// lives.
    InternalPager {
        /// The snapshot node.
        node: NodeId,
    },
}

/// A request being processed (or queued) at the centralized manager.
#[derive(Clone, Copy, Debug)]
struct PendingReq {
    access: Access,
    origin: NodeId,
    origin_obj: VmObjId,
}

/// One in-flight transaction at the manager (one per page at a time).
#[derive(Clone, Debug)]
struct Txn {
    req: PendingReq,
    awaiting: NodeSet,
    upgrade: bool,
    dispatched: bool,
}

/// Centralized manager state for one object.
#[derive(Clone, Debug, Default)]
pub struct MgrState {
    /// The paper's memory hog: one state byte per page per using node
    /// (0 = none, 1 = read, 2 = write).
    table: SlotTable<NodeId, Vec<u8>>,
    busy: KeyTable<PageIdx, Txn>,
    queue: KeyTable<PageIdx, VecDeque<PendingReq>>,
}

impl MgrState {
    /// Bytes of non-pageable memory the state table consumes (for the
    /// memory ablation): 1 byte × pages × nodes.
    pub fn table_bytes(&self) -> usize {
        self.table.values().map(|v| v.len()).sum()
    }

    /// Total manager metadata: the page-state table plus in-flight
    /// transaction and queue records.
    pub fn state_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut total = self.table_bytes() as u64 + (self.table.len() * size_of::<NodeId>()) as u64;
        for txn in self.busy.values() {
            total += (size_of::<PageIdx>() + size_of::<Txn>()) as u64
                + (txn.awaiting.len() * size_of::<NodeId>()) as u64;
        }
        for q in self.queue.values() {
            total += size_of::<PageIdx>() as u64 + (q.len() * size_of::<PendingReq>()) as u64;
        }
        total
    }

    fn node_row(&mut self, node: NodeId, pages: u32) -> &mut Vec<u8> {
        self.table
            .get_or_insert_with(node, || vec![0; pages as usize])
    }
}

/// Per-node representation of one XMM-managed object.
#[derive(Clone, Debug)]
pub struct XmmObject {
    /// The object.
    pub mobj: MemObjId,
    /// The local VM object.
    pub vm_obj: VmObjId,
    /// Length in pages.
    pub size_pages: u32,
    /// The centralized manager node.
    pub manager: NodeId,
    /// Backing pager.
    pub backing: XmmBacking,
    /// Manager state (populated on the manager node only).
    pub mgr: Option<MgrState>,
    /// Our own outstanding requests.
    pub pending: KeyTable<PageIdx, Access>,
}

/// An internal copy pager: serves one inherited memory object from a local
/// fork-time snapshot.
#[derive(Clone, Debug)]
pub struct InternalPager {
    /// The object it backs.
    pub mobj: MemObjId,
    /// The pseudo task owning the snapshot address space.
    pub task: TaskId,
    /// Virtual page where the snapshot region starts in `task`.
    pub base_va: u64,
    /// Faults in flight, keyed by fault id.
    by_fault: BTreeMap<FaultId, (PageIdx, NodeId, VmObjId)>,
}

/// The XMM instance of one node.
#[derive(Clone)]
pub struct XmmNode {
    me: NodeId,
    cost: CostModel,
    objects: KeyTable<MemObjId, XmmObject>,
    by_vmobj: SlotTable<VmObjId, MemObjId>,
    internal: BTreeMap<MemObjId, InternalPager>,
    ip_tasks: BTreeMap<TaskId, MemObjId>,
    /// Copy-pager thread pool (node wide). Blocking threads are XMM's
    /// deadlock hazard; the pool is bounded like the real system's.
    threads_free: usize,
    thread_queue: VecDeque<(MemObjId, PageIdx, NodeId, VmObjId)>,
    /// Requests that never got a thread (diagnosed as deadlock when the
    /// simulation quiesces with this non-empty).
    pub stalled: u64,
}

impl XmmNode {
    /// Creates the instance for node `me` with `copy_threads` internal
    /// pager threads.
    pub fn new(me: NodeId, cost: CostModel, copy_threads: usize) -> XmmNode {
        XmmNode {
            me,
            cost,
            objects: KeyTable::new(),
            by_vmobj: SlotTable::new(),
            internal: BTreeMap::new(),
            ip_tasks: BTreeMap::new(),
            threads_free: copy_threads,
            thread_queue: VecDeque::new(),
            stalled: 0,
        }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Approximate bytes of non-pageable protocol metadata this node
    /// holds. Dominated on manager nodes by the centralized page-state
    /// table (1 byte × pages × using nodes) — the memory-scaling hazard
    /// the paper's distributed scheme removes.
    pub fn state_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut total = (self.by_vmobj.len() * (size_of::<VmObjId>() + size_of::<MemObjId>()))
            as u64
            + (self.ip_tasks.len() * (size_of::<TaskId>() + size_of::<MemObjId>())) as u64
            + (self.thread_queue.len() * size_of::<(MemObjId, PageIdx, NodeId, VmObjId)>()) as u64;
        for o in self.objects.values() {
            total += size_of::<XmmObject>() as u64;
            total += (o.pending.len() * (size_of::<PageIdx>() + size_of::<Access>())) as u64;
            if let Some(mgr) = &o.mgr {
                total += mgr.state_bytes();
            }
        }
        for ip in self.internal.values() {
            total += size_of::<InternalPager>() as u64
                + (ip.by_fault.len()
                    * (size_of::<FaultId>() + size_of::<(PageIdx, NodeId, VmObjId)>()))
                    as u64;
        }
        total
    }

    /// Registers the local representation of `mobj`.
    pub fn register_object(
        &mut self,
        mobj: MemObjId,
        vm_obj: VmObjId,
        size_pages: u32,
        manager: NodeId,
        backing: XmmBacking,
    ) {
        let mgr = (manager == self.me).then(MgrState::default);
        let prev = self.objects.insert(
            mobj,
            XmmObject {
                mobj,
                vm_obj,
                size_pages,
                manager,
                backing,
                mgr,
                pending: KeyTable::new(),
            },
        );
        assert!(prev.is_none(), "object {mobj:?} registered twice");
        self.by_vmobj.insert(vm_obj, mobj);
    }

    /// True if `mobj` is registered here.
    pub fn has_object(&self, mobj: MemObjId) -> bool {
        self.objects.contains_key(&mobj)
    }

    /// Object state (tests/harnesses).
    pub fn object(&self, mobj: MemObjId) -> &XmmObject {
        self.objects.get(&mobj).expect("object not registered")
    }

    /// The memory object behind a VM object, if XMM manages it.
    pub fn mobj_of(&self, vm_obj: VmObjId) -> Option<MemObjId> {
        self.by_vmobj.get(&vm_obj).copied()
    }

    /// Total manager state-table bytes on this node (memory ablation).
    pub fn manager_table_bytes(&self) -> usize {
        self.objects
            .values()
            .filter_map(|o| o.mgr.as_ref())
            .map(|m| m.table_bytes())
            .sum()
    }

    /// Number of internal-pager requests waiting for a thread.
    pub fn thread_queue_len(&self) -> usize {
        self.thread_queue.len()
    }

    /// Registers an internal copy pager backing `mobj` with the snapshot
    /// held by pseudo task `task` at `base_va`.
    pub fn register_internal_pager(&mut self, mobj: MemObjId, task: TaskId, base_va: u64) {
        self.internal.insert(
            mobj,
            InternalPager {
                mobj,
                task,
                base_va,
                by_fault: BTreeMap::new(),
            },
        );
        self.ip_tasks.insert(task, mobj);
    }

    /// True if `task` is one of this node's internal-pager pseudo tasks.
    pub fn is_ip_task(&self, task: TaskId) -> bool {
        self.ip_tasks.contains_key(&task)
    }

    // --- Local VM ingress -----------------------------------------------------

    /// Handles an EMMI call from the local VM on `vm_obj`.
    pub fn handle_emmi(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        vm_obj: VmObjId,
        call: EmmiToPager,
        fx: &mut Fx,
    ) {
        fx.cpu += self.cost.xmm_handle;
        let mobj = *self
            .by_vmobj
            .get(&vm_obj)
            .expect("EMMI for unmanaged object");
        let me = self.me;
        let o = self.objects.get_mut(&mobj).unwrap();
        match call {
            EmmiToPager::DataRequest { page, access }
            | EmmiToPager::DataUnlock { page, access } => {
                if let Some(prev) = o.pending.get(&page) {
                    if prev.allows(access) {
                        return;
                    }
                }
                o.pending.insert(page, access);
                match o.backing {
                    XmmBacking::InternalPager { node } => {
                        fx.send(
                            node,
                            XmmMsg::IpRequest {
                                mobj,
                                page,
                                origin: me,
                                origin_obj: vm_obj,
                            },
                        );
                    }
                    XmmBacking::RealPager { .. } => {
                        fx.send(
                            o.manager,
                            XmmMsg::Request {
                                mobj,
                                page,
                                access,
                                origin: me,
                                origin_obj: vm_obj,
                            },
                        );
                    }
                }
            }
            EmmiToPager::DataReturn { page, data, dirty } => {
                if dirty {
                    if let XmmBacking::RealPager { node } = o.backing {
                        fx.pager.push(PagerSend {
                            pager_node: node,
                            reply_to: me,
                            mobj,
                            obj: vm_obj,
                            call: EmmiToPager::DataReturn { page, data, dirty },
                        });
                    }
                }
            }
            EmmiToPager::LockCompleted { .. } => {}
            EmmiToPager::PullCompleted { .. } => {
                panic!("XMM does not use pull requests")
            }
        }
        let _ = (now, vm);
    }

    // --- Peer message ingress ------------------------------------------------------

    /// Handles one XMMI message.
    pub fn handle_msg(&mut self, now: Time, vm: &mut VmSystem, msg: XmmMsg, fx: &mut Fx) {
        // Acknowledgements are cheap bookkeeping; state-machine work pays
        // the full handling cost.
        fx.cpu += match &msg {
            XmmMsg::LockAck { .. }
            | XmmMsg::Complete { .. }
            | XmmMsg::Evicted { .. }
            | XmmMsg::LockReq { .. } => self.cost.xmm_ack_handle,
            _ => self.cost.xmm_handle,
        };
        let me = self.me;
        let mobj = msg.mobj();
        match msg {
            XmmMsg::Request {
                page,
                access,
                origin,
                origin_obj,
                ..
            } => {
                let req = PendingReq {
                    access,
                    origin,
                    origin_obj,
                };
                self.mgr_request(now, mobj, page, req, fx);
            }
            XmmMsg::LockReq { page, op, from, .. } => {
                let o = self.objects.get_mut(&mobj).unwrap();
                vm.kernel_call(
                    now,
                    o.vm_obj,
                    EmmiToKernel::LockRequest {
                        page,
                        op: LockOp::Flush {
                            return_dirty: op == XLock::FlushReturn,
                        },
                        mode: LockMode::Normal,
                    },
                    &mut fx.vm,
                );
                // Forward any resulting data return to the real pager, then
                // acknowledge.
                Self::ship_returns(o, me, &mut fx.vm, &mut fx.pager);
                fx.send(
                    from,
                    XmmMsg::LockAck {
                        mobj,
                        page,
                        from: me,
                    },
                );
            }
            XmmMsg::LockAck { page, from, .. } => {
                self.mgr_lock_ack(now, mobj, page, from, fx);
            }
            XmmMsg::GrantUp { page, .. } => {
                let o = self.objects.get_mut(&mobj).unwrap();
                o.pending.remove(&page);
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
                fx.send(
                    o.manager,
                    XmmMsg::Complete {
                        mobj,
                        page,
                        from: me,
                    },
                );
            }
            XmmMsg::Complete { page, .. } => {
                self.mgr_complete(now, mobj, page, fx);
            }
            XmmMsg::Evicted { page, from, .. } => {
                let o = self.objects.get_mut(&mobj).unwrap();
                let size = o.size_pages;
                let mgr = o.mgr.as_mut().expect("eviction notice at non-manager");
                mgr.node_row(from, size)[page.0 as usize] = 0;
            }
            XmmMsg::IpRequest {
                page,
                origin,
                origin_obj,
                ..
            } => {
                self.ip_request(now, vm, mobj, page, origin, origin_obj, fx);
            }
            XmmMsg::IpSupply {
                page,
                data,
                dst_obj,
                ..
            } => {
                let o = self.objects.get_mut(&mobj).unwrap();
                o.pending.remove(&page);
                vm.kernel_call(
                    now,
                    dst_obj,
                    EmmiToKernel::DataSupply {
                        page,
                        data,
                        lock: Access::Write,
                        mode: SupplyMode::Normal,
                    },
                    &mut fx.vm,
                );
            }
        }
    }

    /// A reply from the real pager arrived for `vm_obj`.
    pub fn on_pager_reply(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        vm_obj: VmObjId,
        reply: EmmiToKernel,
        fx: &mut Fx,
    ) {
        fx.cpu += self.cost.xmm_handle;
        let me = self.me;
        let mobj = *self
            .by_vmobj
            .get(&vm_obj)
            .expect("pager reply for unmanaged object");
        let o = self.objects.get_mut(&mobj).unwrap();
        match reply {
            EmmiToKernel::DataSupply { page, data, .. } => {
                let access = o.pending.remove(&page).unwrap_or(Access::Read);
                vm.kernel_call(
                    now,
                    vm_obj,
                    EmmiToKernel::DataSupply {
                        page,
                        data,
                        lock: access,
                        mode: SupplyMode::Normal,
                    },
                    &mut fx.vm,
                );
                fx.send(
                    o.manager,
                    XmmMsg::Complete {
                        mobj,
                        page,
                        from: me,
                    },
                );
            }
            other => panic!("unexpected pager reply {other:?}"),
        }
    }

    /// The VM evicted a page of an XMM object: return dirty contents to
    /// the pager and update the manager's table. XMM has no internode
    /// paging — evicted pages always leave the node set.
    #[allow(clippy::too_many_arguments)]
    pub fn evict_external(
        &mut self,
        _now: Time,
        _vm: &mut VmSystem,
        vm_obj: VmObjId,
        page: PageIdx,
        data: machvm::PageData,
        dirty: bool,
        fx: &mut Fx,
    ) {
        fx.cpu += self.cost.xmm_handle;
        let me = self.me;
        let mobj = *self
            .by_vmobj
            .get(&vm_obj)
            .expect("eviction for unmanaged object");
        let o = self.objects.get_mut(&mobj).unwrap();
        if dirty {
            if let XmmBacking::RealPager { node } = o.backing {
                fx.pager.push(PagerSend {
                    pager_node: node,
                    reply_to: me,
                    mobj,
                    obj: vm_obj,
                    call: EmmiToPager::DataReturn {
                        page,
                        data,
                        dirty: true,
                    },
                });
            }
        }
        if o.manager == me {
            let size = o.size_pages;
            if let Some(mgr) = o.mgr.as_mut() {
                mgr.node_row(me, size)[page.0 as usize] = 0;
            }
        } else {
            fx.send(
                o.manager,
                XmmMsg::Evicted {
                    mobj,
                    page,
                    from: me,
                },
            );
        }
    }

    /// A fault of an internal-pager pseudo task completed.
    pub fn ip_fault_done(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        task: TaskId,
        fault: FaultId,
        fx: &mut Fx,
    ) {
        let mobj = *self.ip_tasks.get(&task).expect("not an ip task");
        let ip = self.internal.get_mut(&mobj).unwrap();
        let Some((page, origin, origin_obj)) = ip.by_fault.remove(&fault) else {
            return;
        };
        let va = ip.base_va + page.0 as u64;
        let data = vm.read_page(now, ip.task, va);
        fx.send(
            origin,
            XmmMsg::IpSupply {
                mobj,
                page,
                data,
                dst_obj: origin_obj,
            },
        );
        self.threads_free += 1;
        self.run_thread_queue(now, vm, fx);
    }

    // --- Manager logic ----------------------------------------------------------------

    fn mgr_request(
        &mut self,
        now: Time,
        mobj: MemObjId,
        page: PageIdx,
        req: PendingReq,
        fx: &mut Fx,
    ) {
        let o = self.objects.get_mut(&mobj).unwrap();
        assert_eq!(o.manager, self.me, "request at non-manager node");
        let mgr = o.mgr.as_mut().unwrap();
        if mgr.busy.contains_key(&page) {
            mgr.queue
                .get_or_insert_with(page, VecDeque::new)
                .push_back(req);
            return;
        }
        Self::mgr_start(o, self.me, page, req, fx);
        let _ = now;
    }

    fn mgr_start(o: &mut XmmObject, me: NodeId, page: PageIdx, req: PendingReq, fx: &mut Fx) {
        let mobj = o.mobj;
        let size = o.size_pages;
        let mgr = o.mgr.as_mut().unwrap();
        let p = page.0 as usize;
        let mut writer: Option<NodeId> = None;
        let mut readers: Vec<NodeId> = Vec::new();
        for (n, row) in mgr.table.iter() {
            match row[p] {
                1 => readers.push(n),
                2 if writer.is_none() => writer = Some(n),
                _ => {}
            }
        }

        // Upgrade fast path: the origin already holds a clean read copy.
        if req.access == Access::Write && writer.is_none() && readers.contains(&req.origin) {
            let others: NodeSet = readers
                .iter()
                .copied()
                .filter(|r| *r != req.origin)
                .collect();
            for r in &others {
                mgr.node_row(*r, size)[p] = 0;
                fx.send(
                    *r,
                    XmmMsg::LockReq {
                        mobj,
                        page,
                        op: XLock::Flush,
                        from: me,
                    },
                );
            }
            mgr.node_row(req.origin, size)[p] = 2;
            let done = others.is_empty();
            mgr.busy.insert(
                page,
                Txn {
                    req,
                    awaiting: others,
                    upgrade: true,
                    dispatched: done,
                },
            );
            if done {
                fx.send(req.origin, XmmMsg::GrantUp { mobj, page });
            }
            return;
        }

        // General path: create a coherent version at the pager first.
        let mut awaiting = NodeSet::new();
        if let Some(w) = writer {
            if w != req.origin {
                mgr.node_row(w, size)[p] = 0;
                awaiting.insert(w);
                fx.send(
                    w,
                    XmmMsg::LockReq {
                        mobj,
                        page,
                        op: XLock::FlushReturn,
                        from: me,
                    },
                );
            }
        }
        if req.access == Access::Write {
            for r in readers {
                if r != req.origin {
                    mgr.node_row(r, size)[p] = 0;
                    awaiting.insert(r);
                    fx.send(
                        r,
                        XmmMsg::LockReq {
                            mobj,
                            page,
                            op: XLock::Flush,
                            from: me,
                        },
                    );
                }
            }
        }
        let ready = awaiting.is_empty();
        mgr.busy.insert(
            page,
            Txn {
                req,
                awaiting,
                upgrade: false,
                dispatched: false,
            },
        );
        if ready {
            Self::mgr_dispatch(o, me, page, fx);
        }
    }

    fn mgr_dispatch(o: &mut XmmObject, me: NodeId, page: PageIdx, fx: &mut Fx) {
        let mobj = o.mobj;
        let size = o.size_pages;
        let backing = o.backing;
        let mgr = o.mgr.as_mut().unwrap();
        let txn = mgr.busy.get_mut(&page).unwrap();
        txn.dispatched = true;
        let req = txn.req;
        mgr.node_row(req.origin, size)[page.0 as usize] =
            if req.access == Access::Write { 2 } else { 1 };
        match backing {
            XmmBacking::RealPager { node } => {
                fx.pager.push(PagerSend {
                    pager_node: node,
                    reply_to: req.origin,
                    mobj,
                    obj: req.origin_obj,
                    call: EmmiToPager::DataRequest {
                        page,
                        access: req.access,
                    },
                });
            }
            XmmBacking::InternalPager { node } => {
                fx.send(
                    node,
                    XmmMsg::IpRequest {
                        mobj,
                        page,
                        origin: req.origin,
                        origin_obj: req.origin_obj,
                    },
                );
            }
        }
        let _ = me;
    }

    fn mgr_lock_ack(
        &mut self,
        _now: Time,
        mobj: MemObjId,
        page: PageIdx,
        from: NodeId,
        fx: &mut Fx,
    ) {
        let me = self.me;
        let o = self.objects.get_mut(&mobj).unwrap();
        let mgr = o.mgr.as_mut().expect("lock ack at non-manager");
        let Some(txn) = mgr.busy.get_mut(&page) else {
            return;
        };
        txn.awaiting.remove(&from);
        if txn.awaiting.is_empty() && !txn.dispatched {
            if txn.upgrade {
                txn.dispatched = true;
                let origin = txn.req.origin;
                fx.send(origin, XmmMsg::GrantUp { mobj, page });
            } else {
                Self::mgr_dispatch(o, me, page, fx);
            }
        }
    }

    fn mgr_complete(&mut self, now: Time, mobj: MemObjId, page: PageIdx, fx: &mut Fx) {
        let o = self.objects.get_mut(&mobj).unwrap();
        let mgr = o.mgr.as_mut().expect("complete at non-manager");
        mgr.busy.remove(&page);
        let next = mgr.queue.get_mut(&page).and_then(|q| q.pop_front());
        if let Some(req) = next {
            self.mgr_request(now, mobj, page, req, fx);
        }
    }

    // --- Internal pager --------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn ip_request(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        mobj: MemObjId,
        page: PageIdx,
        origin: NodeId,
        origin_obj: VmObjId,
        fx: &mut Fx,
    ) {
        if self.threads_free == 0 {
            // The copy-pager thread pool is exhausted: the request waits.
            // If the threads are all blocked on faults that transitively
            // need this node, this is the deadlock the paper describes.
            self.thread_queue
                .push_back((mobj, page, origin, origin_obj));
            self.stalled += 1;
            return;
        }
        self.threads_free -= 1;
        self.start_ip_fault(now, vm, mobj, page, origin, origin_obj, fx);
    }

    #[allow(clippy::too_many_arguments)]
    fn start_ip_fault(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        mobj: MemObjId,
        page: PageIdx,
        origin: NodeId,
        origin_obj: VmObjId,
        fx: &mut Fx,
    ) {
        let ip = self.internal.get_mut(&mobj).expect("no internal pager");
        let va = ip.base_va + page.0 as u64;
        match vm.fault(now, ip.task, va, Access::Read, &mut fx.vm) {
            FaultOutcome::Hit => {
                let data = vm.read_page(now, ip.task, va);
                fx.send(
                    origin,
                    XmmMsg::IpSupply {
                        mobj,
                        page,
                        data,
                        dst_obj: origin_obj,
                    },
                );
                self.threads_free += 1;
                self.run_thread_queue(now, vm, fx);
            }
            FaultOutcome::Pending(fid) => {
                ip.by_fault.insert(fid, (page, origin, origin_obj));
            }
        }
    }

    fn run_thread_queue(&mut self, now: Time, vm: &mut VmSystem, fx: &mut Fx) {
        while self.threads_free > 0 {
            let Some((mobj, page, origin, origin_obj)) = self.thread_queue.pop_front() else {
                return;
            };
            self.threads_free -= 1;
            self.start_ip_fault(now, vm, mobj, page, origin, origin_obj, fx);
        }
    }

    /// Ships any `DataReturn` effects produced by a nested VM call to the
    /// real pager (flush-with-clean path).
    fn ship_returns(
        o: &XmmObject,
        me: NodeId,
        vmfx: &mut machvm::Effects,
        pager: &mut Vec<PagerSend>,
    ) {
        let XmmBacking::RealPager { node } = o.backing else {
            return;
        };
        let mut kept = Vec::new();
        for eff in vmfx.out.drain(..) {
            match eff {
                machvm::VmEffect::ToPager {
                    obj,
                    call: EmmiToPager::DataReturn { page, data, dirty },
                    ..
                } if obj == o.vm_obj => {
                    pager.push(PagerSend {
                        pager_node: node,
                        reply_to: me,
                        mobj: o.mobj,
                        obj,
                        call: EmmiToPager::DataReturn { page, data, dirty },
                    });
                }
                other => kept.push(other),
            }
        }
        vmfx.out = kept;
    }
}
