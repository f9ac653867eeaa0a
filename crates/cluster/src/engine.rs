//! The coherence-engine boundary: one closed enum, one effect sink.
//!
//! The paper can swap XMM for ASVM because both are *EMMI memory
//! managers*: the Mach VM talks to either through one interface and never
//! asks which one backs an object. [`Engine`] is that boundary in this
//! repository:
//!
//! * it is the single surface a manager presents to the node — EMMI
//!   ingress, inbound protocol messages, pager replies, eviction, copy
//!   notification, fault completion, object registration, fork export and
//!   import, and the capabilities only ASVM has (owner hints, access
//!   notes, range locks, recovery), each one method that `match`es the
//!   two managers once;
//! * every entry point writes into the caller's [`EngineFx`], which *is*
//!   the manager's own sink ([`machvm::Fx`], defined once for both
//!   managers): each arm hands [`AsvmNode`] or [`XmmNode`] the field it
//!   writes, nothing is converted or re-wrapped;
//! * exactly one interpreter (`ClusterNode::interpret`) drains those
//!   sinks, so transport choice, pager routing, per-message-kind
//!   statistics and the protocol trace live in one place.
//!
//! The set is *closed*: only this file names a variant, and `ClusterNode`
//! and `Ssi` never ask which engine they run. The read-only
//! [`Engine::as_asvm`]/[`Engine::as_xmm`] views exist for invariant
//! checks, tests and bench probes only (`ci/check_engine_boundary.sh`
//! keeps variant patterns out of every other file of the crate and the
//! views out of `node.rs`/`ssi.rs`). Being a plain enum, the whole engine
//! stack is `Clone`.
//!
//! **Drain order is load-bearing.** The interpreter empties a sink class
//! by class — pager sends, protocol sends, settled copies, lock grants,
//! then the VM effects (see [`machvm::fx`]). Acknowledgements must never
//! causally overtake the writebacks they follow, or a forwarded request
//! could reach the pager first and be answered with stale contents.
//!
//! # Delivery guarantees
//!
//! Engines emit protocol sends assuming reliable, but not ordered,
//! delivery; the interpreter chooses how to honor that contract. On a
//! fault-free machine every protocol send goes straight to the wire. When
//! the machine's fault plan ([`svmsim::MachineConfig::faults`]) is
//! active, ASVM sends instead ride
//! a per-link retry channel (`asvm::retry`) — sequence numbers, acks,
//! per-link round-trip timeouts with bounded exponential backoff,
//! duplicate suppression — so the engines
//! themselves never see a dropped, duplicated or reordered message. XMMI
//! and pager traffic stay on NORMA-IPC, which models Mach's reliable
//! kernel-to-kernel IPC. The full model lives in `docs/RELIABILITY.md`.
//!
//! Retry pacing and the watchdog deadline come from
//! [`asvm::RecoveryTiming`], sized for the carrying transport by
//! [`crate::Ssi::set_asvm_transport`]:
//!
//! ```
//! use asvm::RecoveryTiming;
//! use svmsim::Dur;
//!
//! let sts = RecoveryTiming::default();
//! // A link's first timeout is its estimated RTO, at most the 2 ms base;
//! // retransmissions back off from the base: 4, 8, ... capped at 50 ms.
//! assert_eq!(sts.retry.timeout_for(0), Dur::from_millis(2));
//! assert!(sts.retry.timeout_for(10) <= Dur::from_millis(50));
//! // A carrier with 10x the per-message software cost waits 10x longer.
//! let norma = RecoveryTiming::for_carrier(Dur::from_millis(1), Dur::from_micros_f64(100.0));
//! assert_eq!(norma.retry.timeout_for(0), Dur::from_millis(20));
//! assert_eq!(norma.watchdog_deadline, Dur::from_millis(2500));
//! ```

use std::collections::BTreeMap;

use asvm::{AsvmNode, PageRange};
use machvm::{
    Backing, EmmiToKernel, EmmiToPager, Inherit, MemObjId, PageData, PageIdx, TaskId, VmObjId,
    VmSystem,
};
use svmsim::{CostModel, Dur, NodeId, Time};
use xmm::{XmmBacking, XmmNode};

use crate::msg::{ForkEntry, ObjInfo};
use crate::ssi::ManagerKind;

/// A protocol message in transit between two engine instances, transport
/// not yet chosen (that is the interpreter's job).
#[derive(Clone, Debug)]
pub enum ProtocolMsg {
    /// ASVM protocol traffic (STS by default).
    Asvm {
        /// The sending node.
        from: NodeId,
        /// The message.
        msg: asvm::AsvmMsg,
    },
    /// XMMI traffic (always NORMA-IPC).
    Xmm(xmm::XmmMsg),
}

impl ProtocolMsg {
    /// Per-message-kind statistics key (`asvm.msg.*` / `xmm.msg.*`).
    pub fn stat_key(&self) -> &'static str {
        match self {
            ProtocolMsg::Asvm { msg, .. } => msg.stat_key(),
            ProtocolMsg::Xmm(m) => m.stat_key(),
        }
    }

    /// The memory object the message concerns.
    pub fn mobj(&self) -> MemObjId {
        match self {
            ProtocolMsg::Asvm { msg, .. } => msg.mobj(),
            ProtocolMsg::Xmm(m) => m.mobj(),
        }
    }

    /// The page the message concerns, if it is page-level.
    pub fn page(&self) -> Option<PageIdx> {
        match self {
            ProtocolMsg::Asvm { msg, .. } => msg.page(),
            ProtocolMsg::Xmm(m) => m.page(),
        }
    }

    /// Payload bytes following the transport header.
    pub fn payload_bytes(&self, page_size: u32) -> u32 {
        match self {
            ProtocolMsg::Asvm { msg, .. } => msg.payload_bytes(page_size),
            ProtocolMsg::Xmm(m) => m.payload_bytes(page_size),
        }
    }
}

/// What one engine entry point asks the interpreter to do: the engines'
/// own sinks, side by side. Each [`Engine`] arm hands its manager the
/// field it writes (the other stays empty), and `ClusterNode::interpret`
/// drains both in place — nothing is copied between effect shapes. The
/// cluster node pools drained shells, so every vector keeps its capacity
/// across millions of engine calls and the hot path allocates nothing.
#[derive(Debug, Default)]
pub struct EngineFx {
    /// Written by [`AsvmNode`]; protocol sends leave as
    /// [`ProtocolMsg::Asvm`].
    pub asvm: asvm::Fx,
    /// Written by [`XmmNode`]; protocol sends leave as
    /// [`ProtocolMsg::Xmm`].
    pub xmm: xmm::Fx,
}

impl EngineFx {
    /// True if nothing is waiting to be interpreted.
    pub fn is_drained(&self) -> bool {
        self.asvm.is_drained() && self.xmm.is_drained()
    }
}

/// Mints the node-unique names a fork needs.
#[derive(Debug)]
pub struct IdAlloc {
    node: NodeId,
    next_mobj: u32,
    next_pseudo_task: u32,
}

impl IdAlloc {
    /// The allocator of `node`.
    pub fn new(node: NodeId) -> IdAlloc {
        IdAlloc {
            node,
            next_mobj: 1,
            next_pseudo_task: 1,
        }
    }

    /// A runtime memory object id unique to this node.
    pub fn mobj(&mut self) -> MemObjId {
        let m = MemObjId(((self.node.0 as u32 + 1) << 20) | self.next_mobj);
        self.next_mobj += 1;
        m
    }

    /// A pseudo task id (fork snapshots) unique to this node.
    pub fn pseudo_task(&mut self) -> TaskId {
        let t = TaskId(0x8000_0000 | ((self.node.0 as u32) << 16) | self.next_pseudo_task);
        self.next_pseudo_task += 1;
        t
    }
}

/// A distributed-memory coherence protocol, as seen by the cluster node:
/// [`AsvmNode`] (the paper's contribution) or [`XmmNode`] (the NMK13
/// baseline).
///
/// Both are sans-IO state machines: every entry point consumes one
/// stimulus and writes what must happen into a caller-provided
/// [`EngineFx`] sink — nothing here touches the event loop, the
/// transports or the pagers. The sink is reused across calls (the node
/// pools drained shells), which is what keeps the per-message hot path
/// allocation-free. The parity property test drives the same workload
/// through each variant via this exact surface.
///
/// Each operation `match`es once. A capability XMM lacks (striping,
/// membership, copy notification, recovery, access notes, range locks)
/// is an explicit XMM arm that does nothing, answers "nothing to do" or,
/// for range locks, panics.
#[derive(Clone)]
pub enum Engine {
    /// The paper's ASVM.
    Asvm(AsvmNode),
    /// The NMK13 XMM baseline.
    Xmm(XmmNode),
}

impl Engine {
    /// The engine `kind` selects, for node `id`.
    pub fn new(id: NodeId, cost: CostModel, kind: &ManagerKind) -> Engine {
        match *kind {
            ManagerKind::Asvm(_) => Engine::Asvm(AsvmNode::new(id, cost)),
            ManagerKind::Xmm { copy_threads } => Engine::Xmm(XmmNode::new(id, cost, copy_threads)),
        }
    }

    /// The memory object backing `obj`, if this engine manages it.
    pub fn mobj_of(&self, obj: VmObjId) -> Option<MemObjId> {
        match self {
            Engine::Asvm(a) => a.mobj_of(obj),
            Engine::Xmm(x) => x.mobj_of(obj),
        }
    }

    /// The local VM object representing `mobj`, if it is registered here.
    pub fn vm_obj_of(&self, mobj: MemObjId) -> Option<VmObjId> {
        match self {
            Engine::Asvm(a) => a.find_object(mobj).map(|o| o.vm_obj),
            Engine::Xmm(x) => x.has_object(mobj).then(|| x.object(mobj).vm_obj),
        }
    }

    /// Approximate bytes of protocol metadata this engine holds right now
    /// (copyset entries, hint caches, manager tables, in-flight request
    /// state). Purely a telemetry gauge for the bounded-memory claim —
    /// never consulted by the protocol itself.
    pub fn state_bytes(&self) -> u64 {
        match self {
            Engine::Asvm(a) => a.state_bytes(),
            Engine::Xmm(x) => x.state_bytes(),
        }
    }

    // --- Objects and forks ----------------------------------------------------

    /// Ensures the local representation of `mobj` exists, registering a
    /// new VM object for it if need be; returns its VM object. Asking
    /// again for a known object emits nothing.
    pub fn ensure_object(
        &mut self,
        vm: &mut VmSystem,
        mobj: MemObjId,
        info: &ObjInfo,
        out: &mut EngineFx,
    ) -> VmObjId {
        if let Some(vo) = self.vm_obj_of(mobj) {
            return vo;
        }
        let vo = vm.create_object(info.size_pages, Backing::External(mobj));
        match self {
            Engine::Asvm(a) => {
                let o = asvm::AsvmObject::new(
                    mobj,
                    vo,
                    info.size_pages,
                    info.home,
                    info.pager_node,
                    a.me(),
                    info.cfg,
                );
                a.register_object(o, &mut out.asvm);
                asvm::declare_copy_link(a, mobj, info.source, info.peer);
            }
            Engine::Xmm(x) => {
                let backing = XmmBacking::RealPager {
                    node: info.pager_node,
                };
                x.register_object(mobj, vo, info.size_pages, info.home, backing);
            }
        }
        vo
    }

    /// Parent side of a remote fork: describes every region of `parent`'s
    /// address space a child inherits, preparing `Copy` regions for
    /// delayed copying the engine's way. `pager_node` backs objects that
    /// become managed on the way; `ids` mints their names.
    pub fn fork_export(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        parent: TaskId,
        pager_node: NodeId,
        ids: &mut IdAlloc,
        out: &mut EngineFx,
    ) -> Vec<ForkEntry> {
        match self {
            Engine::Asvm(a) => asvm_fork_export(a, vm, parent, pager_node, ids, &mut out.asvm),
            Engine::Xmm(x) => xmm_fork_export(x, now, vm, parent, ids, &mut out.xmm),
        }
    }

    /// Child side of a remote fork: maps one inherited region into
    /// `child`'s address space. Returns the object whose copy notification
    /// must settle before the fork completes, if any. A `Copy` region's
    /// entry kind is the exporting engine's own.
    pub fn fork_import(
        &mut self,
        vm: &mut VmSystem,
        child: TaskId,
        entry: ForkEntry,
        out: &mut EngineFx,
    ) -> Option<MemObjId> {
        match (self, entry) {
            (
                e,
                ForkEntry::Share {
                    va_page,
                    pages,
                    prot,
                    inherit,
                    mobj,
                    info,
                },
            ) => {
                let vo = e.ensure_object(vm, mobj, &info, out);
                vm.map_object(child, va_page, pages, vo, 0, prot, inherit);
                None
            }
            (
                e @ Engine::Asvm(_),
                ForkEntry::CopyAsvm {
                    va_page,
                    pages,
                    prot,
                    source_mobj,
                    info,
                },
            ) => {
                // Paper §3.7: establish a shared mapping of the source,
                // then create a local copy through the VM; the resulting
                // CopyCreated effect broadcasts the version bump, and the
                // fork completes only when every member settled it.
                let src_vo = e.ensure_object(vm, source_mobj, &info, out);
                let copy = vm.copy_delayed(src_vo, &mut out.asvm.vm);
                vm.map_object(child, va_page, pages, copy, 0, prot, Inherit::Copy);
                Some(source_mobj)
            }
            (
                Engine::Xmm(x),
                ForkEntry::CopyXmm {
                    va_page,
                    pages,
                    prot,
                    mobj,
                    ip_node,
                },
            ) => {
                let vo = vm.create_object(pages, Backing::External(mobj));
                let backing = XmmBacking::InternalPager { node: ip_node };
                x.register_object(mobj, vo, pages, ip_node, backing);
                vm.map_object(child, va_page, pages, vo, 0, prot, Inherit::Copy);
                None
            }
            (_, entry) => panic!("fork entry {entry:?} is another engine's"),
        }
    }

    /// Setup: `mobj`'s pages are striped over the pagers on `stripe`.
    /// XMM has one pager per object and ignores it.
    pub fn set_object_stripe(&mut self, mobj: MemObjId, stripe: Vec<NodeId>) {
        match self {
            Engine::Asvm(a) => a.object_mut(mobj).stripe = stripe,
            Engine::Xmm(_) => {}
        }
    }

    /// Setup: the objects whose member lists
    /// [`Engine::finalize_membership`] wants. XMM keeps no membership and
    /// reports none.
    pub fn registered_objects(&self) -> Vec<MemObjId> {
        match self {
            Engine::Asvm(a) => a.objects().map(|o| o.mobj).collect(),
            Engine::Xmm(_) => Vec::new(),
        }
    }

    /// Setup: fixes each registered object's member list to the nodes that
    /// registered it (`members`, gathered over the whole cluster).
    pub fn finalize_membership(&mut self, members: &BTreeMap<MemObjId, Vec<NodeId>>) {
        match self {
            Engine::Asvm(a) => {
                let mobjs: Vec<MemObjId> = a.objects().map(|o| o.mobj).collect();
                for mobj in mobjs {
                    if let Some(list) = members.get(&mobj) {
                        a.object_mut(mobj).nodes = list.clone();
                    }
                }
            }
            Engine::Xmm(_) => {}
        }
    }

    // --- Stimuli ----------------------------------------------------------------

    /// Handles an EMMI call from the local VM on a managed object.
    pub fn handle_emmi(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        obj: VmObjId,
        call: EmmiToPager,
        out: &mut EngineFx,
    ) {
        match self {
            Engine::Asvm(a) => a.handle_emmi(now, vm, obj, call, &mut out.asvm),
            Engine::Xmm(x) => x.handle_emmi(now, vm, obj, call, &mut out.xmm),
        }
    }

    /// Handles one inbound protocol message. A message of the other
    /// engine's kind cannot happen in a well-formed cluster (every node
    /// runs the same engine); it is dropped rather than panicking, so a
    /// corrupt message cannot take the whole simulation down.
    pub fn handle_protocol(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        msg: ProtocolMsg,
        out: &mut EngineFx,
    ) {
        match (self, msg) {
            (Engine::Asvm(a), ProtocolMsg::Asvm { from, msg }) => {
                a.handle_msg(now, vm, from, msg, &mut out.asvm);
            }
            (Engine::Xmm(x), ProtocolMsg::Xmm(m)) => x.handle_msg(now, vm, m, &mut out.xmm),
            (_, msg) => debug_assert!(false, "message for the other engine: {msg:?}"),
        }
    }

    /// Handles a real pager's EMMI reply for a managed object.
    pub fn handle_pager_reply(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        obj: VmObjId,
        reply: EmmiToKernel,
        out: &mut EngineFx,
    ) {
        match self {
            Engine::Asvm(a) => a.on_pager_reply(now, vm, obj, reply, &mut out.asvm),
            Engine::Xmm(x) => x.on_pager_reply(now, vm, obj, reply, &mut out.xmm),
        }
    }

    /// Handles the kernel evicting a page of a managed object.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_evict(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        obj: VmObjId,
        page: PageIdx,
        data: PageData,
        dirty: bool,
        out: &mut EngineFx,
    ) {
        match self {
            Engine::Asvm(a) => a.evict_external(now, vm, obj, page, data, dirty, &mut out.asvm),
            Engine::Xmm(x) => x.evict_external(now, vm, obj, page, data, dirty, &mut out.xmm),
        }
    }

    /// A delayed copy of `source` was created locally. Only ASVM copies
    /// of managed objects trigger the distributed version bump (§3.7);
    /// anonymous shadow-chain internals stay local, and XMM has no
    /// distributed copy management.
    pub fn copy_created(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        source: VmObjId,
        out: &mut EngineFx,
    ) {
        match self {
            Engine::Asvm(a) => {
                if let Some(mobj) = a.mobj_of(source) {
                    a.copy_made_local(now, vm, mobj, &mut out.asvm);
                }
            }
            Engine::Xmm(_) => {}
        }
    }

    /// A fault completed. Returning `false` resumes the faulting task (the
    /// normal case). XMM's internal-pager pseudo tasks never resume a
    /// program: their completions feed the copy-pager state machine
    /// (§2.3.3), so XMM claims them, returning `true` with follow-up
    /// effects in `out`.
    pub fn fault_completed(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        task: TaskId,
        fault: machvm::FaultId,
        out: &mut EngineFx,
    ) -> bool {
        match self {
            Engine::Xmm(x) if x.is_ip_task(task) => {
                x.ip_fault_done(now, vm, task, fault, &mut out.xmm);
                true
            }
            Engine::Asvm(_) | Engine::Xmm(_) => false,
        }
    }

    /// The failure detector suspects `peer` (see `docs/RELIABILITY.md`).
    /// XMM has no recovery machinery and ignores it: it deliberately stays
    /// the fragile baseline.
    pub fn peer_suspected(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        peer: NodeId,
        out: &mut EngineFx,
    ) {
        match self {
            Engine::Asvm(a) => a.peer_suspected(now, vm, peer, &mut out.asvm),
            Engine::Xmm(_) => {}
        }
    }

    /// The failure detector heard from a previously suspected `peer`.
    pub fn peer_cleared(&mut self, peer: NodeId) {
        match self {
            Engine::Asvm(a) => a.peer_cleared(peer),
            Engine::Xmm(_) => {}
        }
    }

    /// Periodic watchdog pass: re-issue requests stalled past `deadline`.
    /// Driven by the heartbeat tick, only under active fault plans.
    pub fn on_watchdog(&mut self, now: Time, deadline: Dur, vm: &mut VmSystem, out: &mut EngineFx) {
        match self {
            Engine::Asvm(a) => a.watchdog(now, deadline, vm, &mut out.asvm),
            Engine::Xmm(_) => {}
        }
    }

    /// The node's last task finished under an active fault plan, so its
    /// heartbeat and watchdog ticks stop. `lossy_carrier`: the protocol
    /// transport has no link ARQ, so a request it lost is re-issued by
    /// nothing but that watchdog. Returns whether peers run a failure
    /// detector against this node and must be told the coming silence is
    /// deliberate (ASVM: yes; XMM: no).
    pub fn on_idle(&mut self, lossy_carrier: bool, out: &mut EngineFx) -> bool {
        match self {
            Engine::Asvm(a) => {
                if lossy_carrier {
                    // Speculation nobody is left to claim must not wait on
                    // a re-issue that will never come.
                    for _ in 0..a.cancel_unclaimed_speculation() {
                        out.asvm.bump("asvm.prefetch.cancelled");
                    }
                }
                true
            }
            Engine::Xmm(_) => false,
        }
    }

    // --- Optional capabilities ----------------------------------------------------

    /// Whether [`Engine::note_access`] wants to hear about accesses that
    /// hit in local memory. One boolean test per hit, so runs that do not
    /// care cost the hot path nothing.
    pub fn wants_access_notes(&self) -> bool {
        match self {
            Engine::Asvm(a) => a.wants_access_notes(),
            Engine::Xmm(_) => false,
        }
    }

    /// A demand access to `page` of `obj` was satisfied locally (no fault).
    #[allow(clippy::too_many_arguments)]
    pub fn note_access(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        obj: VmObjId,
        page: PageIdx,
        write: bool,
        out: &mut EngineFx,
    ) {
        match self {
            Engine::Asvm(a) => {
                a.prefetch_note_access(now, vm, obj, page, write, &mut out.asvm);
            }
            Engine::Xmm(_) => {}
        }
    }

    /// Requests an exclusive range lock (§6 future work). Returns whether
    /// it was granted within this call; otherwise the grant arrives later
    /// as a lock-granted effect.
    ///
    /// # Panics
    ///
    /// Panics on XMM, which has no range locks.
    pub fn lock_range(&mut self, mobj: MemObjId, range: PageRange, out: &mut EngineFx) -> bool {
        match self {
            Engine::Asvm(a) => {
                a.lock_range(mobj, range, &mut out.asvm);
                out.asvm.lock_granted.contains(&(mobj, range))
            }
            Engine::Xmm(_) => panic!("{NO_RANGE_LOCKS}"),
        }
    }

    /// Releases a range lock previously granted to this node.
    ///
    /// # Panics
    ///
    /// Panics on XMM, which has no range locks.
    pub fn unlock_range(&mut self, mobj: MemObjId, range: PageRange, out: &mut EngineFx) {
        match self {
            Engine::Asvm(a) => a.unlock_range(mobj, range, &mut out.asvm),
            Engine::Xmm(_) => panic!("{NO_RANGE_LOCKS}"),
        }
    }

    // --- Inspection (invariant checks, tests, bench probes) -----------------------

    /// Read-only view of the ASVM instance, if this engine is ASVM.
    pub fn as_asvm(&self) -> Option<&AsvmNode> {
        match self {
            Engine::Asvm(a) => Some(a),
            Engine::Xmm(_) => None,
        }
    }

    /// Read-only view of the XMM instance, if this engine is XMM.
    pub fn as_xmm(&self) -> Option<&XmmNode> {
        match self {
            Engine::Xmm(x) => Some(x),
            Engine::Asvm(_) => None,
        }
    }
}

/// The panic of a range-lock step on an XMM cluster.
const NO_RANGE_LOCKS: &str = "range locks require an ASVM cluster (this one runs XMM)";

/// [`Engine::fork_export`] on ASVM: `Copy` regions become distributed
/// delayed copies of ASVM-managed sources (§3.7).
fn asvm_fork_export(
    a: &mut AsvmNode,
    vm: &mut VmSystem,
    parent: TaskId,
    pager_node: NodeId,
    ids: &mut IdAlloc,
    fx: &mut asvm::Fx,
) -> Vec<ForkEntry> {
    let mut fes = Vec::new();
    for e in vm.address_map(parent).entries().to_vec() {
        match e.inherit {
            Inherit::None => {}
            Inherit::Share => {
                let mobj = a
                    .mobj_of(e.object)
                    .expect("Share-inherited region must be ASVM-managed");
                fes.push(ForkEntry::Share {
                    va_page: e.va_page,
                    pages: e.pages,
                    prot: e.prot,
                    inherit: e.inherit,
                    mobj,
                    info: obj_info(a, mobj),
                });
            }
            Inherit::Copy => {
                let source_mobj = manage_copy_source(a, vm, e.object, pager_node, ids, fx);
                fes.push(ForkEntry::CopyAsvm {
                    va_page: e.va_page,
                    pages: e.pages,
                    prot: e.prot,
                    source_mobj,
                    info: obj_info(a, source_mobj),
                });
            }
        }
    }
    fes
}

/// [`Engine::fork_export`] on XMM: the parent's address space is
/// snapshotted into a pseudo task, and internal pagers serve the copies
/// (§2.3.3).
fn xmm_fork_export(
    x: &mut XmmNode,
    now: Time,
    vm: &mut VmSystem,
    parent: TaskId,
    ids: &mut IdAlloc,
    fx: &mut xmm::Fx,
) -> Vec<ForkEntry> {
    let entries = vm.address_map(parent).entries().to_vec();
    let pseudo = ids.pseudo_task();
    vm.fork_local(now, parent, pseudo, &mut fx.vm);
    let mut fes = Vec::new();
    for e in entries {
        match e.inherit {
            Inherit::None => {}
            Inherit::Share => {
                let mobj = x
                    .mobj_of(e.object)
                    .expect("Share-inherited region must be XMM-managed");
                let xo = x.object(mobj);
                let XmmBacking::RealPager { node: pager_node } = xo.backing else {
                    panic!("shared mapping of internal-pager object")
                };
                fes.push(ForkEntry::Share {
                    va_page: e.va_page,
                    pages: e.pages,
                    prot: e.prot,
                    inherit: e.inherit,
                    mobj,
                    info: ObjInfo {
                        size_pages: xo.size_pages,
                        home: xo.manager,
                        pager_node,
                        cfg: asvm::AsvmConfig::default(),
                        peer: None,
                        source: None,
                    },
                });
            }
            Inherit::Copy => {
                if let Some(m) = x.mobj_of(e.object) {
                    // Inherited-memory *chains* are fine (the object is
                    // backed by an internal pager); combining truly shared
                    // (real-pager) memory with inheritance is NMK13's
                    // semantic gap and unsupported.
                    assert!(
                        matches!(x.object(m).backing, XmmBacking::InternalPager { .. }),
                        "NMK13 XMM cannot combine shared and inherited memory \
                         (the semantic gap the paper notes)"
                    );
                }
                let mobj = ids.mobj();
                x.register_internal_pager(mobj, pseudo, e.va_page);
                fes.push(ForkEntry::CopyXmm {
                    va_page: e.va_page,
                    pages: e.pages,
                    prot: e.prot,
                    mobj,
                    ip_node: x.me(),
                });
            }
        }
    }
    fes
}

/// What another node needs to instantiate `mobj`, as this node knows it.
fn obj_info(a: &AsvmNode, mobj: MemObjId) -> ObjInfo {
    let o = a.object(mobj);
    ObjInfo {
        size_pages: o.size_pages,
        home: o.home,
        pager_node: o.pager_node,
        cfg: o.cfg,
        peer: o.peer,
        source: o.source,
    }
}

/// Ensures a VM object about to be copied by a fork is ASVM-managed
/// (§3.7): an unmanaged one gets a memory object id homed on this node,
/// which adopts the resident pages as owned here.
fn manage_copy_source(
    a: &mut AsvmNode,
    vm: &mut VmSystem,
    obj: VmObjId,
    pager_node: NodeId,
    ids: &mut IdAlloc,
    fx: &mut asvm::Fx,
) -> MemObjId {
    if let Some(m) = a.mobj_of(obj) {
        return m;
    }
    let mobj = ids.mobj();
    let me = a.me();
    let source = vm.object(obj).shadow.and_then(|s| a.mobj_of(s));
    vm.associate(obj, mobj);
    let size = vm.object(obj).size_pages;
    let cfg = asvm::AsvmConfig::default();
    a.register_object(
        asvm::AsvmObject::new(mobj, obj, size, me, pager_node, me, cfg),
        fx,
    );
    asvm::declare_copy_link(a, mobj, source, source.map(|_| me));
    let o = a.object_mut(mobj);
    for (p, rp) in vm.object(obj).pages.iter() {
        let mut pi = asvm::PageInfo::new(rp.prot, true, o.version);
        pi.dirty = true;
        o.pages.insert(p, Box::new(pi));
    }
    mobj
}

/// Direction of a traced protocol event, relative to the recording node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceDir {
    /// The node sent the message.
    Send,
    /// The node received it.
    Recv,
}

/// One entry in the trace ring: a protocol message sent or received, an
/// EMMI request sent to a pager, or a local completion (`cluster.suspect`,
/// `cluster.copy_settled`, `cluster.lock_granted`, recorded as received
/// from the node concerned) — in the order the interpreter acted, enough
/// to reconstruct the interleaving around a failure without retaining page
/// contents.
#[derive(Clone, Debug)]
pub struct ProtoEvent {
    /// Simulation time of the send or delivery.
    pub time: Time,
    /// The recording node.
    pub node: NodeId,
    /// The other end (destination for sends, sender's node for receives —
    /// XMMI messages do not carry a sender, so receives record the node
    /// itself there).
    pub peer: NodeId,
    /// Send or receive.
    pub dir: TraceDir,
    /// Message kind (the per-kind statistics key).
    pub kind: &'static str,
    /// The memory object.
    pub mobj: MemObjId,
    /// The page, for page-level messages.
    pub page: Option<PageIdx>,
}

impl std::fmt::Display for ProtoEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let arrow = match self.dir {
            TraceDir::Send => "->",
            TraceDir::Recv => "<-",
        };
        write!(
            f,
            "{:>14}  n{:<3} {} n{:<3} {:<28} {:?}",
            format!("{}", self.time),
            self.node.0,
            arrow,
            self.peer.0,
            self.kind,
            self.mobj,
        )?;
        if let Some(p) = self.page {
            write!(f, " page={}", p.0)?;
        }
        Ok(())
    }
}
