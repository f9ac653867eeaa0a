//! The coherence-engine boundary: one trait, one effect vocabulary.
//!
//! The paper's central comparison — ASVM's distributed manager against
//! XMM's centralized one — used to be wired into [`crate::ClusterNode`]
//! through a `Manager` enum matched in every glue site. This module makes
//! the protocol a first-class, swappable layer instead:
//!
//! * [`CoherenceEngine`] is the single surface a manager presents to the
//!   node — EMMI ingress, inbound protocol messages, pager replies,
//!   eviction, copy notification, fault completion;
//! * every entry point returns an [`EngineFx`]: a CPU charge, an ordered
//!   list of [`EngineEffect`]s, and the VM effects to drain;
//! * exactly one interpreter loop (`ClusterNode::interpret`) consumes
//!   those effects, so transport choice, pager routing, per-message-kind
//!   statistics and the protocol trace live in one place.
//!
//! A new protocol variant is now a trait impl plus a `Box::new` in the
//! cluster factory — no new `match` arms anywhere.
//!
//! **Effect ordering is load-bearing.** Pager sends precede protocol sends
//! in the effect list: acknowledgements must never causally overtake the
//! writebacks they follow, or a forwarded request could reach the pager
//! first and be answered with stale contents. The conversions from the
//! managers' native effect structs preserve exactly the order the old
//! hand-rolled emitters used (pager → net → settled → lock grants → VM).
//!
//! # Delivery guarantees
//!
//! Engines emit protocol sends assuming reliable, but not ordered,
//! delivery; the interpreter chooses how to honor that contract. On a
//! fault-free machine every [`EngineEffect::Protocol`] send goes straight
//! to the wire. When the machine's fault plan
//! ([`svmsim::MachineConfig::faults`]) is active, ASVM sends instead ride
//! a per-link retry channel (`asvm::retry`) — sequence numbers, acks,
//! bounded exponential backoff, duplicate suppression — so the engines
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
//! // Bounded exponential backoff: 2, 4, 8, ... capped at 50 ms.
//! assert_eq!(sts.retry.timeout_for(0), Dur::from_millis(2));
//! assert!(sts.retry.timeout_for(10) <= Dur::from_millis(50));
//! // A carrier with 10x the per-message software cost waits 10x longer.
//! let norma = RecoveryTiming::for_carrier(Dur::from_millis(1), Dur::from_micros_f64(100.0));
//! assert_eq!(norma.retry.timeout_for(0), Dur::from_millis(20));
//! assert_eq!(norma.watchdog_deadline, Dur::from_millis(2500));
//! ```

use asvm::{AsvmNode, PageRange};
use machvm::{EmmiToKernel, EmmiToPager, MemObjId, PageData, PageIdx, TaskId, VmObjId, VmSystem};
use svmsim::{Dur, NodeId, Time};
use xmm::XmmNode;

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

/// One effect requested by a coherence engine, interpreted by the node.
#[derive(Clone, Debug)]
pub enum EngineEffect {
    /// Send an EMMI request to a real pager task (NORMA-IPC).
    Pager {
        /// The I/O node hosting the pager.
        pager_node: NodeId,
        /// Node the pager's reply must go to (the request origin — not
        /// necessarily the node dispatching the request).
        reply_to: NodeId,
        /// The memory object addressed.
        mobj: MemObjId,
        /// Reply-routing VM object on `reply_to`.
        obj: VmObjId,
        /// The EMMI call.
        call: EmmiToPager,
    },
    /// Send a protocol message to a peer engine instance.
    Protocol {
        /// Destination node.
        dst: NodeId,
        /// The message.
        msg: ProtocolMsg,
    },
    /// A copy notification settled on every sharing node; forks waiting on
    /// `mobj` may complete.
    CopySettled(MemObjId),
    /// A range lock was granted; the waiting task may resume.
    LockGranted(MemObjId, PageRange),
}

/// What one engine entry point asks the interpreter to do.
///
/// `EngineFx` is a *reusable sink*: engine entry points write into a
/// caller-provided `&mut EngineFx`, and the interpreter drains it in
/// place. The cluster node keeps a small pool of drained shells, so in
/// steady state every vector here — and the native effect scratch buffers
/// the conversions recycle — retains its capacity across millions of
/// engine calls and the hot path allocates nothing.
#[derive(Debug, Default)]
pub struct EngineFx {
    /// Manager CPU consumed (charged to the message processor).
    pub cpu: Dur,
    /// Effects, in mandatory order (see the module docs).
    pub out: Vec<EngineEffect>,
    /// Kernel VM effects to drain after the sends.
    pub vm: machvm::Effects,
    /// Statistics counters to bump (the sans-IO engines have no stats
    /// handle; the interpreter applies these).
    pub bumps: Vec<&'static str>,
    /// Drained ASVM native-effect shell, lent out by [`EngineFx::take_asvm`]
    /// for the next engine call so its vectors keep their capacity.
    asvm_scratch: asvm::Fx,
    /// Drained XMM native-effect shell (see `asvm_scratch`).
    xmm_scratch: xmm::Fx,
}

impl EngineFx {
    /// An empty effect set.
    pub fn new() -> EngineFx {
        EngineFx::default()
    }

    /// Lends out the recycled ASVM effect sink for one native engine call;
    /// [`EngineFx::absorb_asvm`] takes it back.
    fn take_asvm(&mut self) -> asvm::Fx {
        std::mem::take(&mut self.asvm_scratch)
    }

    /// Lends out the recycled XMM effect sink (see [`EngineFx::take_asvm`]).
    fn take_xmm(&mut self) -> xmm::Fx {
        std::mem::take(&mut self.xmm_scratch)
    }

    /// Drains ASVM's native effect struct into this sink, preserving emit
    /// order, and keeps the emptied shell (vector capacities intact) as
    /// scratch for the next call.
    pub fn absorb_asvm(&mut self, me: NodeId, mut fx: asvm::Fx) {
        self.cpu += fx.cpu;
        fx.cpu = Dur::ZERO;
        self.out
            .reserve(fx.pager.len() + fx.net.len() + fx.settled.len() + fx.lock_granted.len());
        for p in fx.pager.drain(..) {
            self.out.push(EngineEffect::Pager {
                pager_node: p.pager_node,
                reply_to: p.reply_to,
                mobj: p.mobj,
                obj: p.obj,
                call: p.call,
            });
        }
        for ns in fx.net.drain(..) {
            self.out.push(EngineEffect::Protocol {
                dst: ns.dst,
                msg: ProtocolMsg::Asvm {
                    from: me,
                    msg: ns.msg,
                },
            });
        }
        for mobj in fx.settled.drain(..) {
            self.out.push(EngineEffect::CopySettled(mobj));
        }
        for (mobj, range) in fx.lock_granted.drain(..) {
            self.out.push(EngineEffect::LockGranted(mobj, range));
        }
        self.bumps.append(&mut fx.bumps);
        debug_assert!(
            self.vm.out.is_empty() && self.vm.cpu.is_zero(),
            "absorbing into a sink with undrained VM effects"
        );
        std::mem::swap(&mut self.vm, &mut fx.vm);
        self.asvm_scratch = fx;
    }

    /// Drains XMM's native effect struct, preserving emit order (see
    /// [`EngineFx::absorb_asvm`]).
    pub fn absorb_xmm(&mut self, mut fx: xmm::Fx) {
        self.cpu += fx.cpu;
        fx.cpu = Dur::ZERO;
        self.out.reserve(fx.pager.len() + fx.net.len());
        for p in fx.pager.drain(..) {
            self.out.push(EngineEffect::Pager {
                pager_node: p.pager_node,
                reply_to: p.reply_to,
                mobj: p.mobj,
                obj: p.obj,
                call: p.call,
            });
        }
        for xs in fx.net.drain(..) {
            self.out.push(EngineEffect::Protocol {
                dst: xs.dst,
                msg: ProtocolMsg::Xmm(xs.msg),
            });
        }
        debug_assert!(
            self.vm.out.is_empty() && self.vm.cpu.is_zero(),
            "absorbing into a sink with undrained VM effects"
        );
        std::mem::swap(&mut self.vm, &mut fx.vm);
        self.xmm_scratch = fx;
    }

    /// Converts ASVM's native effect struct, preserving emit order.
    pub fn from_asvm(me: NodeId, fx: asvm::Fx) -> EngineFx {
        let mut out = EngineFx::new();
        out.absorb_asvm(me, fx);
        out
    }

    /// Converts XMM's native effect struct, preserving emit order.
    pub fn from_xmm(fx: xmm::Fx) -> EngineFx {
        let mut out = EngineFx::new();
        out.absorb_xmm(fx);
        out
    }
}

/// A distributed-memory coherence protocol, as seen by the cluster node.
///
/// Implementations are sans-IO state machines: every entry point consumes
/// one stimulus and writes what must happen into a caller-provided
/// [`EngineFx`] sink — nothing here touches the event loop, the
/// transports or the pagers. The sink is reused across calls (the node
/// pools drained shells), which is what keeps the per-message hot path
/// allocation-free. [`AsvmNode`] (the paper's contribution) and
/// [`XmmNode`] (the NMK13 baseline) both implement it; the parity
/// property test drives the same workload through each via this exact
/// surface.
pub trait CoherenceEngine {
    /// Short engine name for traces and diagnostics.
    fn name(&self) -> &'static str;

    /// The memory object backing `obj`, if this engine manages it.
    fn mobj_of(&self, obj: VmObjId) -> Option<MemObjId>;

    /// Approximate bytes of protocol metadata this engine holds right now
    /// (copyset entries, hint caches, manager tables, in-flight request
    /// state). Purely a telemetry gauge for the bounded-memory claim —
    /// never consulted by the protocol itself.
    fn state_bytes(&self) -> u64;

    /// Handles an EMMI call from the local VM on a managed object.
    fn handle_emmi(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        obj: VmObjId,
        call: EmmiToPager,
        out: &mut EngineFx,
    );

    /// Handles one inbound protocol message.
    fn handle_protocol(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        msg: ProtocolMsg,
        out: &mut EngineFx,
    );

    /// Handles a real pager's EMMI reply for a managed object.
    fn handle_pager_reply(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        obj: VmObjId,
        reply: EmmiToKernel,
        out: &mut EngineFx,
    );

    /// Handles the kernel evicting a page of a managed object.
    #[allow(clippy::too_many_arguments)]
    fn handle_evict(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        obj: VmObjId,
        page: PageIdx,
        data: PageData,
        dirty: bool,
        out: &mut EngineFx,
    );

    /// A delayed copy of `source` was created locally. Engines without
    /// distributed copy management ignore it.
    fn copy_created(
        &mut self,
        _now: Time,
        _vm: &mut VmSystem,
        _source: VmObjId,
        _out: &mut EngineFx,
    ) {
    }

    /// A fault completed. Returning `false` resumes the faulting task (the
    /// normal case); an engine that runs pseudo tasks (XMM's internal
    /// pagers) may claim the completion, returning `true` with follow-up
    /// effects in `out`.
    fn fault_completed(
        &mut self,
        _now: Time,
        _vm: &mut VmSystem,
        _task: TaskId,
        _fault: machvm::FaultId,
        _out: &mut EngineFx,
    ) -> bool {
        false
    }

    /// The failure detector suspects `peer` (see `docs/RELIABILITY.md`).
    /// Engines without recovery machinery ignore it — XMM deliberately
    /// stays the fragile baseline.
    fn peer_suspected(
        &mut self,
        _now: Time,
        _vm: &mut VmSystem,
        _peer: NodeId,
        _out: &mut EngineFx,
    ) {
    }

    /// The failure detector heard from a previously suspected `peer`.
    fn peer_cleared(&mut self, _now: Time, _vm: &mut VmSystem, _peer: NodeId, _out: &mut EngineFx) {
    }

    /// Periodic watchdog pass: re-issue requests stalled past `deadline`.
    /// Driven by the heartbeat tick, only under active fault plans.
    fn on_watchdog(&mut self, _now: Time, _deadline: Dur, _vm: &mut VmSystem, _out: &mut EngineFx) {
    }

    /// Downcast: the ASVM instance, if this engine is ASVM.
    fn as_asvm(&self) -> Option<&AsvmNode> {
        None
    }

    /// Downcast: mutable ASVM instance.
    fn as_asvm_mut(&mut self) -> Option<&mut AsvmNode> {
        None
    }

    /// Downcast: the XMM instance, if this engine is XMM.
    fn as_xmm(&self) -> Option<&XmmNode> {
        None
    }

    /// Downcast: mutable XMM instance.
    fn as_xmm_mut(&mut self) -> Option<&mut XmmNode> {
        None
    }
}

impl CoherenceEngine for AsvmNode {
    fn name(&self) -> &'static str {
        "asvm"
    }

    fn mobj_of(&self, obj: VmObjId) -> Option<MemObjId> {
        AsvmNode::mobj_of(self, obj)
    }

    fn state_bytes(&self) -> u64 {
        AsvmNode::state_bytes(self)
    }

    fn handle_emmi(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        obj: VmObjId,
        call: EmmiToPager,
        out: &mut EngineFx,
    ) {
        let mut fx = out.take_asvm();
        AsvmNode::handle_emmi(self, now, vm, obj, call, &mut fx);
        out.absorb_asvm(self.me(), fx);
    }

    fn handle_protocol(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        msg: ProtocolMsg,
        out: &mut EngineFx,
    ) {
        match msg {
            ProtocolMsg::Asvm { from, msg } => {
                let mut fx = out.take_asvm();
                AsvmNode::handle_msg(self, now, vm, from, msg, &mut fx);
                out.absorb_asvm(self.me(), fx);
            }
            ProtocolMsg::Xmm(m) => {
                // Cannot happen in a well-formed cluster (every node runs
                // the same engine); drop rather than panic so a corrupt
                // message cannot take the whole simulation down.
                debug_assert!(false, "XMMI message delivered to ASVM engine: {m:?}");
            }
        }
    }

    fn handle_pager_reply(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        obj: VmObjId,
        reply: EmmiToKernel,
        out: &mut EngineFx,
    ) {
        let mut fx = out.take_asvm();
        AsvmNode::on_pager_reply(self, now, vm, obj, reply, &mut fx);
        out.absorb_asvm(self.me(), fx);
    }

    fn handle_evict(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        obj: VmObjId,
        page: PageIdx,
        data: PageData,
        dirty: bool,
        out: &mut EngineFx,
    ) {
        let mut fx = out.take_asvm();
        AsvmNode::evict_external(self, now, vm, obj, page, data, dirty, &mut fx);
        out.absorb_asvm(self.me(), fx);
    }

    fn copy_created(&mut self, now: Time, vm: &mut VmSystem, source: VmObjId, out: &mut EngineFx) {
        // Only copies of managed objects trigger the distributed version
        // bump (§3.7); anonymous shadow-chain internals stay local.
        let Some(mobj) = AsvmNode::mobj_of(self, source) else {
            return;
        };
        let mut fx = out.take_asvm();
        AsvmNode::copy_made_local(self, now, vm, mobj, &mut fx);
        out.absorb_asvm(self.me(), fx);
    }

    fn peer_suspected(&mut self, now: Time, vm: &mut VmSystem, peer: NodeId, out: &mut EngineFx) {
        let mut fx = out.take_asvm();
        AsvmNode::peer_suspected(self, now, vm, peer, &mut fx);
        out.absorb_asvm(self.me(), fx);
    }

    fn peer_cleared(&mut self, _now: Time, _vm: &mut VmSystem, peer: NodeId, _out: &mut EngineFx) {
        AsvmNode::peer_cleared(self, peer);
    }

    fn on_watchdog(&mut self, now: Time, deadline: Dur, vm: &mut VmSystem, out: &mut EngineFx) {
        let mut fx = out.take_asvm();
        AsvmNode::watchdog(self, now, deadline, vm, &mut fx);
        out.absorb_asvm(self.me(), fx);
    }

    fn as_asvm(&self) -> Option<&AsvmNode> {
        Some(self)
    }

    fn as_asvm_mut(&mut self) -> Option<&mut AsvmNode> {
        Some(self)
    }
}

impl CoherenceEngine for XmmNode {
    fn name(&self) -> &'static str {
        "xmm"
    }

    fn mobj_of(&self, obj: VmObjId) -> Option<MemObjId> {
        XmmNode::mobj_of(self, obj)
    }

    fn state_bytes(&self) -> u64 {
        XmmNode::state_bytes(self)
    }

    fn handle_emmi(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        obj: VmObjId,
        call: EmmiToPager,
        out: &mut EngineFx,
    ) {
        let mut fx = out.take_xmm();
        XmmNode::handle_emmi(self, now, vm, obj, call, &mut fx);
        out.absorb_xmm(fx);
    }

    fn handle_protocol(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        msg: ProtocolMsg,
        out: &mut EngineFx,
    ) {
        match msg {
            ProtocolMsg::Xmm(m) => {
                let mut fx = out.take_xmm();
                XmmNode::handle_msg(self, now, vm, m, &mut fx);
                out.absorb_xmm(fx);
            }
            ProtocolMsg::Asvm { msg, .. } => {
                debug_assert!(false, "ASVM message delivered to XMM engine: {msg:?}");
            }
        }
    }

    fn handle_pager_reply(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        obj: VmObjId,
        reply: EmmiToKernel,
        out: &mut EngineFx,
    ) {
        let mut fx = out.take_xmm();
        XmmNode::on_pager_reply(self, now, vm, obj, reply, &mut fx);
        out.absorb_xmm(fx);
    }

    fn handle_evict(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        obj: VmObjId,
        page: PageIdx,
        data: PageData,
        dirty: bool,
        out: &mut EngineFx,
    ) {
        let mut fx = out.take_xmm();
        XmmNode::evict_external(self, now, vm, obj, page, data, dirty, &mut fx);
        out.absorb_xmm(fx);
    }

    fn fault_completed(
        &mut self,
        now: Time,
        vm: &mut VmSystem,
        task: TaskId,
        fault: machvm::FaultId,
        out: &mut EngineFx,
    ) -> bool {
        // Internal-pager pseudo tasks never resume a program; their fault
        // completions feed the copy-pager state machine (§2.3.3).
        if !self.is_ip_task(task) {
            return false;
        }
        let mut fx = out.take_xmm();
        self.ip_fault_done(now, vm, task, fault, &mut fx);
        out.absorb_xmm(fx);
        true
    }

    fn as_xmm(&self) -> Option<&XmmNode> {
        Some(self)
    }

    fn as_xmm_mut(&mut self) -> Option<&mut XmmNode> {
        Some(self)
    }
}

/// Direction of a traced protocol event, relative to the recording node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceDir {
    /// The node sent the message.
    Send,
    /// The node received it.
    Recv,
}

/// One entry in the protocol trace ring: enough to reconstruct the message
/// interleaving around a failure without retaining page contents.
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
