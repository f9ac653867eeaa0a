//! The cluster node: kernel VM + coherence engine + pagers + task driver,
//! bound to the simulation event loop.
//!
//! Protocol work is delegated to the node's [`CoherenceEngine`] — only
//! through the trait; this file never asks which engine it runs.
//! Everything the engine wants done is written into an [`EngineFx`] and
//! drained by one interpreter (`ClusterNode::interpret`), which is the
//! only place that chooses transports, routes pager traffic, counts
//! per-message-kind statistics and records the protocol trace.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use asvm::{
    AsvmMsg, FrameBody, LinkReceiver, LinkSender, PageRange, RecoveryTiming, TimeoutVerdict,
};
use machvm::{
    Access, EmmiToKernel, EmmiToPager, MemObjId, PageData, PageIdx, PagerSend, SlotTable,
    SortedMap, TaskId, VmEffect, VmSystem,
};
use pager::{DefaultPager, FilePager, PagerIn};
use svmsim::{Ctx, Dur, NodeBehavior, NodeId, NodeKind, Time, TraceRing};
use transport::{once, CostClass, FaultClass, Frame, Transport};

use crate::detector::{Detector, HB_PERIOD};
use crate::engine::{CoherenceEngine, EngineFx, IdAlloc, ProtoEvent, ProtocolMsg, TraceDir};
use crate::msg::{ForkMsg, Msg};
use crate::program::{Program, Step, TaskEnv};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TaskStatus {
    Running,
    WaitingFault,
    WaitingBarrier(u32),
    WaitingFork,
    WaitingLock,
    Done,
}

/// A child-side fork waiting for its copy notifications to settle.
struct DeferredFork {
    child: TaskId,
    program: Box<dyn Program>,
    waiting: std::collections::BTreeSet<MemObjId>,
    parent_node: NodeId,
    parent_task: TaskId,
}

/// What one wire frame of ASVM traffic carries: a single protocol message,
/// or a coalesced body.
enum Unit {
    One(AsvmMsg),
    Batch(FrameBody),
}

/// One ASVM frame that exhausted its retries: the link is considered
/// dead and the failure is surfaced instead of hanging the protocol.
#[derive(Clone, Copy, Debug)]
pub struct LinkFailure {
    /// The unreachable peer.
    pub peer: NodeId,
    /// Sequence number of the abandoned frame.
    pub seq: u64,
    /// Statistics key of the abandoned protocol message.
    pub kind: &'static str,
    /// When the sender gave up.
    pub at: Time,
}

struct TaskState {
    program: Box<dyn Program>,
    repeat: Option<Step>,
    status: TaskStatus,
    last_read: Option<u64>,
    started: Time,
    finished: Option<Time>,
}

/// One node of the simulated multicomputer.
pub struct ClusterNode {
    /// This node's id.
    pub id: NodeId,
    /// The kernel VM system.
    pub vm: VmSystem,
    /// The coherence engine (ASVM or XMM behind one trait).
    pub engine: Box<dyn CoherenceEngine>,
    /// File pager (I/O nodes only).
    pub file_pager: Option<FilePager>,
    /// Default pager (I/O nodes only).
    pub default_pager: Option<DefaultPager>,
    tasks: SortedMap<TaskId, TaskState>,
    /// Barrier coordination (node 0 only).
    pub barrier_parties: u32,
    barrier_counts: BTreeMap<u32, u32>,
    barrier_waiting: BTreeMap<u32, Vec<TaskId>>,
    /// Names this node mints for objects and pseudo tasks created by forks.
    ids: IdAlloc,
    deferred_forks: Vec<DeferredFork>,
    /// Tasks waiting for a range-lock grant, keyed by (object, range).
    lock_waiters: BTreeMap<(MemObjId, u32, u32), TaskId>,
    /// Transport carrying ASVM protocol messages (STS by default; NORMA
    /// for the transport ablation — the state machines are identical).
    pub asvm_transport: Transport,
    /// Tasks that have finished on this node.
    pub tasks_done: u32,
    /// Trace of protocol messages, pager sends and local completions, in
    /// the order the interpreter acted; recorded only when installed
    /// ([`crate::Ssi::enable_trace`]).
    pub trace: Option<TraceRing<ProtoEvent>>,
    /// ARQ and watchdog timeouts (used only while the machine's fault plan
    /// is active), sized for the carrier by
    /// [`crate::Ssi::set_asvm_transport`].
    pub timing: RecoveryTiming,
    /// Sender halves of the per-peer ASVM retry channels. Each sequenced
    /// unit is a [`FrameBody`]: a singleton on the classic path, a whole
    /// coalesced batch when coalescing is on.
    link_tx: SlotTable<NodeId, LinkSender<FrameBody>>,
    /// Receiver halves of the per-peer ASVM retry channels.
    link_rx: SlotTable<NodeId, LinkReceiver<FrameBody>>,
    /// Message coalescing switch (default off; set by the harness
    /// through [`ClusterNode::set_coalesce`]).
    coalesce: bool,
    /// Per-destination frame combiner, drained at the end of every
    /// scheduling step while coalescing is enabled.
    combiner: asvm::FrameCombiner,
    /// Peers this node already paid one-time link setup for (RDMA queue
    /// pair + memory registration; empty on connectionless backends).
    rdma_links: BTreeSet<NodeId>,
    /// Frames abandoned after retry exhaustion, in order of occurrence.
    pub link_failures: Vec<LinkFailure>,
    /// Failure detector: heartbeat counters, who was heard when, who is
    /// suspected (active fault plans only).
    pub detector: Detector,
    /// Drained [`EngineFx`] shells reused across engine calls, so the
    /// per-message hot path allocates nothing in steady state. A pool
    /// (not a single slot) because `interpret` re-enters through
    /// `fault_completed`; boxed, so taking and returning a shell moves a
    /// pointer rather than the two sinks' dozen vector headers.
    #[allow(clippy::vec_box)]
    fx_pool: Vec<Box<EngineFx>>,
    /// Drained VM-effect sinks (same recycling discipline).
    effects_pool: Vec<machvm::Effects>,
    /// Drained drain-loop work queues.
    vmq_pool: Vec<VecDeque<machvm::Effects>>,
}

impl ClusterNode {
    /// Builds a node.
    pub fn new(
        id: NodeId,
        vm: VmSystem,
        engine: Box<dyn CoherenceEngine>,
        kind: NodeKind,
        page_size: u32,
    ) -> Self {
        let (file_pager, default_pager) = match kind {
            NodeKind::Io => (
                Some(FilePager::new(page_size)),
                Some(DefaultPager::new(page_size, 1 << 40)),
            ),
            NodeKind::Compute => (None, None),
        };
        ClusterNode {
            id,
            vm,
            engine,
            file_pager,
            default_pager,
            tasks: SortedMap::new(),
            barrier_parties: 0,
            barrier_counts: BTreeMap::new(),
            barrier_waiting: BTreeMap::new(),
            ids: IdAlloc::new(id),
            deferred_forks: Vec::new(),
            lock_waiters: BTreeMap::new(),
            asvm_transport: Transport::STS,
            tasks_done: 0,
            trace: None,
            timing: RecoveryTiming::default(),
            link_tx: SlotTable::new(),
            link_rx: SlotTable::new(),
            coalesce: false,
            combiner: asvm::FrameCombiner::default(),
            rdma_links: BTreeSet::new(),
            link_failures: Vec::new(),
            detector: Detector::new(id),
            fx_pool: Vec::new(),
            effects_pool: Vec::new(),
            vmq_pool: Vec::new(),
        }
    }

    /// Installs a task with its program (does not start it; post a
    /// [`Msg::Resume`] to kick it off).
    pub fn install_task(&mut self, task: TaskId, program: Box<dyn Program>, now: Time) {
        if !self.vm.has_task(task) {
            self.vm.create_task(task);
        }
        self.tasks.insert(
            task,
            TaskState {
                program,
                repeat: None,
                status: TaskStatus::Running,
                last_read: None,
                started: now,
                finished: None,
            },
        );
    }

    /// True if every installed task has finished.
    pub fn all_tasks_done(&self) -> bool {
        self.tasks.values().all(|t| t.status == TaskStatus::Done)
    }

    /// Completion time of `task`, if it finished.
    pub fn task_finished(&self, task: TaskId) -> Option<Time> {
        self.tasks.get(&task).and_then(|t| t.finished)
    }

    /// Wall-clock runtime of `task` (install to finish), if it finished.
    pub fn task_runtime(&self, task: TaskId) -> Option<svmsim::Dur> {
        let t = self.tasks.get(&task)?;
        Some(t.finished?.since(t.started))
    }

    // --- The effect interpreter --------------------------------------------

    /// Pushes one event onto the trace ring. Callers on the per-message
    /// path test `self.trace` first, so an untraced run computes no keys.
    fn trace_event(
        &mut self,
        time: Time,
        dir: TraceDir,
        peer: NodeId,
        kind: &'static str,
        mobj: MemObjId,
        page: Option<PageIdx>,
    ) {
        if let Some(ring) = &mut self.trace {
            let node = self.id;
            ring.push(ProtoEvent {
                time,
                node,
                peer,
                dir,
                kind,
                mobj,
                page,
            });
        }
    }

    /// Records something that happened on this node — `kind` concerning
    /// `peer` — rather than a message.
    fn trace_local(&mut self, now: Time, kind: &'static str, peer: NodeId, mobj: MemObjId) {
        self.trace_event(now, TraceDir::Recv, peer, kind, mobj, None);
    }

    /// Records a protocol event if a trace ring is installed.
    fn record_trace(&mut self, now: Time, dir: TraceDir, peer: NodeId, msg: &ProtocolMsg) {
        if self.trace.is_some() {
            self.trace_event(now, dir, peer, msg.stat_key(), msg.mobj(), msg.page());
        }
    }

    /// [`ClusterNode::record_trace`] for a bare ASVM message — used where
    /// subframes of a coalesced frame are traced individually without
    /// rebuilding a `ProtocolMsg` per subframe.
    fn record_trace_asvm(&mut self, now: Time, dir: TraceDir, peer: NodeId, msg: &AsvmMsg) {
        if self.trace.is_some() {
            self.trace_event(now, dir, peer, msg.stat_key(), msg.mobj(), msg.page());
        }
    }

    /// Installs the coalescing configuration (harness setup, before any
    /// traffic).
    pub fn set_coalesce(&mut self, on: bool) {
        self.coalesce = on;
    }

    /// The single pager-request send site: every EMMI request to a real
    /// pager — manager-issued or anonymous-memory — leaves through here,
    /// tagged with its per-call-kind counter.
    fn send_pager_req(&mut self, ctx: &mut Ctx<'_, Msg>, p: PagerSend) {
        let payload = pager_payload(&p.call, self.vm.page_size());
        let kind = p.call.stat_key();
        let page = Some(p.call.page());
        self.trace_event(ctx.now(), TraceDir::Send, p.pager_node, kind, p.mobj, page);
        let pin = PagerIn {
            from_node: p.reply_to,
            obj: p.obj,
            mobj: p.mobj,
            call: p.call,
        };
        let frame = Frame::new(CostClass::Plain, payload).tagged(kind);
        Transport::NORMA.send_frame(ctx, p.pager_node, frame, once(Msg::PagerReq(pin)));
    }

    /// Sends one protocol message, choosing the transport and counting the
    /// per-message-kind statistic.
    fn send_protocol(&mut self, ctx: &mut Ctx<'_, Msg>, dst: NodeId, msg: ProtocolMsg) {
        self.record_trace(ctx.now(), TraceDir::Send, dst, &msg);
        let payload = msg.payload_bytes(self.vm.page_size());
        let kind = msg.stat_key();
        let (from, msg) = match msg {
            ProtocolMsg::Asvm { from, msg } => (from, msg),
            ProtocolMsg::Xmm(m) => {
                // NORMA (XMMI, EMMI, fork) is never exposed to the fault
                // plan — it models Mach's guaranteed kernel-to-kernel IPC.
                let frame = Frame::new(CostClass::Plain, payload).tagged(kind);
                Transport::NORMA.send_frame(ctx, dst, frame, once(Msg::Xmm(m)));
                return;
            }
        };
        // The one place an ASVM message picks its way out. Remote sends
        // take, in order of preference: a one-sided read posting (RDMA
        // backend, eligible request), the frame combiner (coalescing
        // enabled — buffered per destination and flushed as one wire
        // frame per peer at the end of this scheduling step), or a frame
        // of their own. Loopback always goes direct.
        let remote = dst != self.id;
        if remote && self.asvm_transport.one_sided_reads() && msg.one_sided_read_candidate(self.id)
        {
            // Post the read as a one-sided pull: header-only on the wire,
            // served by the target's NIC with zero host occupancy there.
            // Travels the fault seam un-ARQ'd — a lost posting stalls only
            // the requester, whose watchdog re-issues it (marked
            // `recovering`, which forces the two-sided path on the retry).
            self.charge_link_setup(ctx, dst);
            if msg.is_speculative_req() {
                // Speculative reads ride the same one-sided path; the
                // counter keeps the prefetcher's share of NIC traffic
                // visible.
                ctx.stats().bump("transport.rdma.prefetch_read");
            }
            let frame = Frame::new(CostClass::OneSidedRead, 0)
                .tagged(kind)
                .exposed(FaultClass::Protocol);
            self.asvm_transport
                .send_frame(ctx, dst, frame, || Msg::RdmaRead {
                    from,
                    msg: msg.clone(),
                });
        } else if remote
            && self.coalesce_enabled_for(msg.mobj())
            && self.asvm_transport.supports_coalescing()
        {
            if let Some(full) = self.combiner.push(dst, msg) {
                // Frame hit its subframe capacity: send it now so order
                // is preserved.
                self.send_frame_body(ctx, dst, full);
            }
        } else {
            self.carry(ctx, dst, Unit::One(msg), payload, kind);
        }
    }

    /// Whether protocol frames to remote peers are sequenced on the
    /// per-link retry channel: an active fault plan, on a backend whose
    /// reliability is in software. A fabric-reliable backend
    /// (`per_link_arq() == false`) stays unsequenced and unexposed under
    /// any plan — hardware retransmission makes its two-sided path
    /// lossless by construction.
    fn arq_active(&self, ctx: &Ctx<'_, Msg>) -> bool {
        ctx.machine().config.faults.is_active() && self.asvm_transport.per_link_arq()
    }

    /// Hands one ASVM unit its own wire frame — the one place that chooses
    /// between the retry channel and the bare path, which is byte-identical
    /// to pre-fault builds and neither builds a [`FrameBody`] nor clones
    /// anything for a single message.
    fn carry(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        dst: NodeId,
        unit: Unit,
        payload: u32,
        kind: &'static str,
    ) {
        let (from, remote) = (self.id, dst != self.id);
        if remote && self.arq_active(ctx) {
            let body = match unit {
                Unit::One(msg) => FrameBody::single(msg),
                Unit::Batch(body) => body,
            };
            let seq = self
                .link_tx
                .get_or_insert_with(dst, Default::default)
                .enqueue(body.clone(), payload, kind);
            let timeout = self.timing.retry.timeout_for(0);
            self.transmit_frame(ctx, dst, seq, &body, timeout);
            return;
        }
        let t = self.asvm_transport;
        match unit {
            Unit::One(msg) => {
                if remote {
                    self.charge_link_setup(ctx, dst);
                }
                let frame = Frame::new(CostClass::Plain, payload).tagged(kind);
                t.send_frame(ctx, dst, frame, once(Msg::Asvm { from, seq: 0, msg }));
            }
            Unit::Batch(body) => {
                let frame = Frame::new(CostClass::Coalesced(body.subframes()), payload);
                t.send_frame(ctx, dst, frame, once(Msg::AsvmBatch { from, seq: 0, body }));
            }
        }
    }

    /// Whether protocol sends for `mobj` should go through the frame
    /// combiner: the object's own setting where the engine keeps one (so
    /// per-object overrides and runtime policy switches take effect), the
    /// node-level default otherwise.
    fn coalesce_enabled_for(&self, mobj: MemObjId) -> bool {
        self.engine.coalesce_enabled(mobj).unwrap_or(self.coalesce)
    }

    /// Charges the backend's one-time per-peer link setup (queue pair
    /// creation + memory registration) on first contact with `dst`. Free
    /// on the connectionless Paragon transports, so the classic paths are
    /// untouched.
    fn charge_link_setup(&mut self, ctx: &mut Ctx<'_, Msg>, dst: NodeId) {
        let setup = self
            .asvm_transport
            .link_setup_cpu(&ctx.machine().config.cost);
        if setup.is_zero() || !self.rdma_links.insert(dst) {
            return;
        }
        ctx.stats().bump("transport.rdma.link_setup");
        ctx.charge_msg_cpu(setup);
    }

    /// Resolves a one-sided read after the engine processed it.
    ///
    /// The NIC can complete the read by itself exactly when the engine's
    /// entire answer is one plain copy-grant back to the requester (no
    /// ownership handover, no forwarding hop, no pager dispatch, no
    /// invalidation fan-out). In that case the host's protocol-handler
    /// CPU is cancelled — the request was served out of registered memory
    /// without this node's event handler running — and the grant leaves
    /// as an unsequenced [`Msg::Asvm`] at zero-send-CPU one-sided cost
    /// ([`CostClass::OneSidedReply`]). Any VM work the engine
    /// queued (downgrading a writable mapping so the registered copy is
    /// stable) still runs on the host *before* the reply departs: DMA
    /// cannot outrun the shootdown.
    ///
    /// Every other outcome falls back to the two-sided path: the NIC
    /// raises the request to the host (charging the interrupt-driven
    /// receive cost its delivery envelope skipped) and the effects are
    /// interpreted normally, so protocol state stays identical across
    /// backends. A lent page's return (`asvm`'s `grant.rs`) is such an
    /// outcome: the grant carries ownership, so it takes the two-sided
    /// path.
    fn finish_rdma_read(&mut self, ctx: &mut Ctx<'_, Msg>, requester: NodeId, fx: &mut EngineFx) {
        let a = &fx.asvm;
        let nic_served = a.pager.is_empty()
            && a.settled.is_empty()
            && a.lock_granted.is_empty()
            && matches!(
                a.net.as_slice(),
                [(dst, AsvmMsg::Grant {
                    grant: asvm::PageGrant {
                        ownership: false,
                        pull_snapshot: false,
                        ..
                    },
                    ..
                })] if *dst == requester
            );
        if !nic_served {
            ctx.stats().bump("transport.rdma.read_fallback");
            let recv = ctx.machine().config.cost.rdma_ctrl_recv_cpu;
            ctx.charge_msg_cpu(recv);
            self.run_fx(ctx, fx);
            return;
        }
        let Some((dst, msg)) = fx.asvm.net.pop() else {
            unreachable!("nic_served matched a single grant");
        };
        fx.asvm.cpu = Dur::ZERO;
        ctx.stats().bump("transport.rdma.read_served");
        // Drain the residual effects first (hint bumps, the mapping
        // downgrade): the reply may not depart before the host finished
        // making the page stable.
        self.run_fx(ctx, fx);
        self.record_trace_asvm(ctx.now(), TraceDir::Send, dst, &msg);
        let from = self.id;
        let payload = msg.payload_bytes(self.vm.page_size());
        let kind = msg.stat_key();
        let frame = Frame::new(CostClass::OneSidedReply, payload)
            .tagged(kind)
            .exposed(FaultClass::Protocol);
        self.asvm_transport
            .send_frame(ctx, dst, frame, || Msg::Asvm {
                from,
                seq: 0,
                msg: msg.clone(),
            });
    }

    /// Puts one (re)transmission of frame `seq` on the lossy wire and arms
    /// its retry timer. The body holds one subframe on the classic path
    /// and the whole coalesced batch when coalescing
    /// ([`asvm::AsvmConfig::coalesce`]) is on — either way it is one
    /// sequenced ARQ unit. With coalescing off the
    /// wire format is the classic single-message [`Msg::Asvm`]
    /// (byte-identical to pre-coalescing builds), tagged, so each
    /// retransmission counts its kind again; with it on, the whole body
    /// travels as one untagged [`Msg::AsvmBatch`] — one fault decision,
    /// one sequence number.
    fn transmit_frame(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        dst: NodeId,
        seq: u64,
        body: &FrameBody,
        timeout: Dur,
    ) {
        let from = self.id;
        let payload = body.payload_bytes(self.vm.page_size());
        // Wire-format choice: a body that actually coalesced anything —
        // several subframes, or piggybacked hints — must travel as a
        // batch frame even when the node-level switch is off (per-object
        // coalescing). With everything off, bodies are always hint-less
        // singletons and the classic format is byte-identical to
        // pre-coalescing builds.
        if self.coalesce || body.subframes() > 1 || !body.hints.is_empty() {
            let frame = Frame::new(CostClass::Coalesced(body.subframes()), payload)
                .exposed(FaultClass::Protocol);
            self.asvm_transport
                .send_frame(ctx, dst, frame, || Msg::AsvmBatch {
                    from,
                    seq,
                    body: body.clone(),
                });
        } else {
            let msg = &body.msgs[0];
            let frame = Frame::new(CostClass::Plain, payload)
                .tagged(msg.stat_key())
                .exposed(FaultClass::Protocol);
            self.asvm_transport
                .send_frame(ctx, dst, frame, || Msg::Asvm {
                    from,
                    seq,
                    msg: msg.clone(),
                });
        }
        let at = ctx.now() + timeout;
        ctx.post_self(at, Msg::RetryTick { dst, seq });
    }

    /// Sends one coalesced frame body to `dst`: attaches piggybacked
    /// owner hints, counts the logical per-kind and `asvm.coalesce.*`
    /// statistics, and hands the frame to [`ClusterNode::carry`] as one
    /// unit.
    fn send_frame_body(&mut self, ctx: &mut Ctx<'_, Msg>, dst: NodeId, mut body: FrameBody) {
        // Every data/ack subframe piggybacks the sender's current owner
        // view for its page, so the receiver's dynamic hint cache stays
        // warm without dedicated OwnerHint traffic. Computed at flush
        // time — after the engine finished handling the event — so the
        // hints reflect post-transition truth. Telling the destination
        // about itself is useless; skip those.
        let mut hints = Vec::new();
        for m in &body.msgs {
            if !(m.carries_data() || m.is_ack_class()) {
                continue;
            }
            if let Some(page) = m.page() {
                let mobj = m.mobj();
                if let Some(owner) = self.engine.owner_view(mobj, page) {
                    if owner != dst {
                        hints.push((mobj, page, owner));
                    }
                }
            }
        }
        for h in hints {
            body.push_hint(h);
        }
        // Prefetch hint tier: beyond the pages this frame already
        // addresses, attach the sender's owner view for the pages
        // it predicts `dst` will fault on *next* (per-peer demand
        // stream detector), so the peer's dynamic hint cache is
        // warm before the fault even happens. Zero extra frames —
        // only hint bytes on a frame already flowing.
        let mut window = Vec::new();
        let mut seen: Vec<MemObjId> = Vec::new();
        for m in &body.msgs {
            let mobj = m.mobj();
            if seen.contains(&mobj) {
                continue;
            }
            seen.push(mobj);
            self.engine.hint_window(mobj, dst, &mut window);
        }
        if !window.is_empty() {
            ctx.stats().add("asvm.prefetch.hint", window.len() as u64);
            for h in window {
                body.push_hint(h);
            }
        }
        let ps = self.vm.page_size();
        let payload = body.payload_bytes(ps);
        let subframes = body.subframes();
        // Logical accounting is per *subframe*, once, here — on a healthy
        // run the asvm.msg.* counters mean the same thing with coalescing
        // on or off. (Under loss they do not: a retransmitted body counts
        // nothing, a retransmitted single message counts its kind again —
        // docs/TUNING.md "Counters", pinned by tests/carriage.rs.) The
        // frame itself and the coalescing wins get their own counters;
        // messages per fault is (Σ asvm.msg.* − merged) / faults.completed.
        for m in &body.msgs {
            ctx.stats().bump(m.stat_key());
        }
        ctx.stats().bump("asvm.frames");
        if subframes > 1 {
            ctx.stats()
                .add("asvm.coalesce.merged", (subframes - 1) as u64);
        }
        let acks = body.acks_riding_data();
        if acks > 0 {
            ctx.stats().add("asvm.coalesce.piggyback_ack", acks as u64);
        }
        if !body.hints.is_empty() {
            ctx.stats()
                .add("asvm.coalesce.piggyback_hint", body.hints.len() as u64);
        }
        let kind = body.msgs[0].stat_key();
        self.carry(ctx, dst, Unit::Batch(body), payload, kind);
    }

    /// Drains the frame combiner at the end of a scheduling step: one
    /// coalesced frame per destination, in destination order.
    fn flush_coalesced(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.combiner.is_empty() {
            return;
        }
        for (dst, body) in self.combiner.drain() {
            self.send_frame_body(ctx, dst, body);
        }
    }

    /// Delivers one arriving frame body: applies piggybacked owner hints
    /// (first — a subframe carrying fresher truth overwrites them), then
    /// handles every subframe in order, exactly like the equivalent
    /// sequence of singleton frames.
    fn deliver_body(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, body: FrameBody) {
        let mut applied = 0u64;
        for (mobj, page, owner) in &body.hints {
            if self.engine.apply_owner_hint(*mobj, *page, *owner) {
                applied += 1;
            }
        }
        if applied > 0 {
            ctx.stats().add("asvm.coalesce.hint_applied", applied);
        }
        for m in body.msgs {
            self.deliver_protocol(ctx, from, ProtocolMsg::Asvm { from, msg: m });
        }
    }

    /// One arriving unit of the retry channel: delivered in sequence, then
    /// acknowledged. Every arrival is acked — including duplicates, whose
    /// original ack may itself have been lost, and frames buffered behind
    /// a gap; those deliver nothing, so their ack leaves at once. The ack
    /// goes last so that what the delivered bodies send (a forwarded
    /// request, a grant) does not queue behind it on the message
    /// processor: only the sender's retry timer waits for the ack, and an
    /// ack that arrives too late costs one retransmission, suppressed
    /// here as a duplicate. The ack travels the same lossy wire; a lost
    /// ack likewise provokes a retransmission.
    fn on_sequenced(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, seq: u64, body: FrameBody) {
        let accepted = self
            .link_rx
            .get_or_insert_with(from, Default::default)
            .accept(seq, body);
        if accepted.duplicate {
            ctx.stats().bump("asvm.retry.dup_drop");
        } else if accepted.deliver.is_empty() {
            ctx.stats().bump("asvm.retry.buffered");
        }
        for b in accepted.deliver {
            self.deliver_body(ctx, from, b);
        }
        let (me, kind) = (self.id, "asvm.retry.ack");
        self.trace_event(ctx.now(), TraceDir::Send, from, kind, MemObjId(0), None);
        let ack = Frame::new(CostClass::Plain, 0)
            .tagged(kind)
            .exposed(FaultClass::Ack);
        self.asvm_transport
            .send_frame(ctx, from, ack, || Msg::AsvmAck { from: me, seq });
    }

    /// Handles a sender-side retry timer firing for frame `seq` to `dst`.
    fn on_retry_tick(&mut self, ctx: &mut Ctx<'_, Msg>, dst: NodeId, seq: u64) {
        let cfg = self.timing.retry;
        let verdict = self
            .link_tx
            .get_or_insert_with(dst, Default::default)
            .on_timeout(seq, &cfg);
        match verdict {
            TimeoutVerdict::Stale => {}
            TimeoutVerdict::Resend {
                msg: body,
                next_timeout,
                ..
            } => {
                ctx.stats().bump("asvm.retry.timeout");
                ctx.stats().bump("asvm.retry.resent");
                let now = ctx.now();
                for m in &body.msgs {
                    self.record_trace_asvm(now, TraceDir::Send, dst, m);
                }
                self.transmit_frame(ctx, dst, seq, &body, next_timeout);
            }
            TimeoutVerdict::Exhausted { kind } => {
                ctx.stats().bump("asvm.retry.exhausted");
                self.link_failures.push(LinkFailure {
                    peer: dst,
                    seq,
                    kind,
                    at: ctx.now(),
                });
                // Retry exhaustion is direct evidence the peer is gone —
                // stronger and often earlier than heartbeat silence.
                self.suspect_peer(ctx, dst);
            }
        }
    }

    // --- Failure detector (docs/RELIABILITY.md) -----------------------------

    /// One heartbeat/watchdog period: gossip the heartbeat vector to this
    /// round's one peer, exposed to the fault plan, suspect peers silent
    /// too long, and let the engine re-issue stalled requests.
    /// Self-rescheduling while work remains; armed by the harness only
    /// when the fault plan is active.
    fn on_hb_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now();
        let from = self.id;
        let n = ctx.machine().config.compute_nodes;
        if let Some((dst, beats)) = self.detector.tick(n) {
            // The vector is wire bytes in the message body, not a page.
            let beacon = Frame::new(CostClass::Plain, 8 * beats.len() as u32)
                .inline()
                .tagged("cluster.hb")
                .exposed(FaultClass::Beacon);
            self.asvm_transport
                .send_frame(ctx, dst, beacon, || Msg::Heartbeat {
                    from,
                    beats: beats.into(),
                });
        }
        for peer in self.detector.silent(now) {
            self.peer_suspected(ctx, peer);
        }
        let deadline = self.timing.watchdog_deadline;
        self.engine_call(ctx, |e, vm, fx| e.on_watchdog(now, deadline, vm, fx));
        if !self.all_tasks_done() {
            // A period after this handler *ends*: the sends and the
            // watchdog above advanced the clock, and an instant already
            // in the past would fire back to back.
            let next = ctx.now() + HB_PERIOD;
            ctx.post_self(next, Msg::HbTick);
        }
    }

    /// Evidence that `peer` is gone. Idempotent.
    fn suspect_peer(&mut self, ctx: &mut Ctx<'_, Msg>, peer: NodeId) {
        if self.detector.suspect(peer) {
            self.peer_suspected(ctx, peer);
        }
    }

    /// `peer` just became suspected: lets the engine unwind everything
    /// that waits on it.
    fn peer_suspected(&mut self, ctx: &mut Ctx<'_, Msg>, peer: NodeId) {
        ctx.stats().bump("cluster.suspect.count");
        self.trace_local(ctx.now(), "cluster.suspect", peer, MemObjId(0));
        let now = ctx.now();
        self.engine_call(ctx, |e, vm, fx| e.peer_suspected(now, vm, peer, fx));
    }

    /// Interprets one engine effect batch in place and queues the VM
    /// effects it carries on `q`. The sink comes back drained (vector
    /// capacities intact) so the caller can return it to the shell pool.
    fn interpret(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        fx: &mut EngineFx,
        q: &mut VecDeque<machvm::Effects>,
    ) {
        let from = self.id;
        self.drain_sink(ctx, &mut fx.asvm, |msg| ProtocolMsg::Asvm { from, msg }, q);
        self.drain_sink(ctx, &mut fx.xmm, ProtocolMsg::Xmm, q);
    }

    /// Drains one manager sink: charges CPU, applies counters, then
    /// empties the effect classes in the mandatory order — pager sends,
    /// protocol sends, settled copies, lock grants, and last the VM
    /// effects (see [`crate::engine`]: a send must never overtake the
    /// writeback it acknowledges).
    fn drain_sink<M>(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        fx: &mut machvm::Fx<M>,
        wrap: impl Fn(M) -> ProtocolMsg,
        q: &mut VecDeque<machvm::Effects>,
    ) {
        if !fx.cpu.is_zero() {
            ctx.charge_msg_cpu(fx.cpu);
            fx.cpu = Dur::ZERO;
        }
        for k in fx.bumps.drain(..) {
            ctx.stats().bump(k);
        }
        for p in fx.pager.drain(..) {
            self.send_pager_req(ctx, p);
        }
        for (dst, msg) in fx.net.drain(..) {
            self.send_protocol(ctx, dst, wrap(msg));
        }
        for mobj in fx.settled.drain(..) {
            self.copy_settled(ctx, mobj);
        }
        for (mobj, range) in fx.lock_granted.drain(..) {
            self.lock_granted(ctx, mobj, range);
        }
        if !fx.vm.out.is_empty() || !fx.vm.cpu.is_zero() {
            let vm = std::mem::replace(&mut fx.vm, self.effects_pool.pop().unwrap_or_default());
            q.push_back(vm);
        }
    }

    /// A range lock was granted: resume the task waiting on it, if any
    /// (a grant within the requesting call has no waiter).
    fn lock_granted(&mut self, ctx: &mut Ctx<'_, Msg>, mobj: MemObjId, range: PageRange) {
        self.trace_local(ctx.now(), "cluster.lock_granted", self.id, mobj);
        let key = (mobj, range.first.0, range.count);
        if let Some(task) = self.lock_waiters.remove(&key) {
            if let Some(st) = self.tasks.get_mut(&task) {
                if st.status == TaskStatus::WaitingLock {
                    st.status = TaskStatus::Running;
                }
            }
            let now = ctx.now();
            ctx.post_self(now, Msg::Resume(task));
        }
    }

    /// A drained [`EngineFx`] shell to write the next engine call into.
    fn take_fx(&mut self) -> Box<EngineFx> {
        self.fx_pool.pop().unwrap_or_default()
    }

    /// Returns a drained shell to the pool.
    fn put_fx(&mut self, fx: Box<EngineFx>) {
        debug_assert!(fx.is_drained(), "pooling an undrained effect sink");
        self.fx_pool.push(fx);
    }

    /// Runs one engine entry point against a pooled sink and interprets
    /// what it wrote, to completion.
    fn engine_call<R>(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        call: impl FnOnce(&mut dyn CoherenceEngine, &mut VmSystem, &mut EngineFx) -> R,
    ) -> R {
        let mut fx = self.take_fx();
        let r = call(self.engine.as_mut(), &mut self.vm, &mut fx);
        self.run_fx(ctx, &mut fx);
        self.put_fx(fx);
        r
    }

    /// Hands one arriving protocol message (from `peer`) to the engine.
    fn deliver_protocol(&mut self, ctx: &mut Ctx<'_, Msg>, peer: NodeId, pm: ProtocolMsg) {
        let now = ctx.now();
        self.record_trace(now, TraceDir::Recv, peer, &pm);
        self.engine_call(ctx, |e, vm, fx| e.handle_protocol(now, vm, pm, fx));
    }

    /// Hands the next engine call a sink that already holds effects, so a
    /// test can put a hand-built batch through the real interpreter.
    #[cfg(test)]
    pub(crate) fn preload_sink(&mut self, fx: EngineFx) {
        self.fx_pool.push(Box::new(fx));
    }

    /// A recycled empty VM-effect sink (capacity retained from prior use).
    fn take_effects(&mut self) -> machvm::Effects {
        self.effects_pool.pop().unwrap_or_default()
    }

    /// Interprets an effect batch and drains everything it triggers.
    fn run_fx(&mut self, ctx: &mut Ctx<'_, Msg>, fx: &mut EngineFx) {
        let mut q = self.vmq_pool.pop().unwrap_or_default();
        self.interpret(ctx, fx, &mut q);
        self.drain_queue(ctx, &mut q);
        self.vmq_pool.push(q);
    }

    /// Processes a batch of VM effects (and everything they trigger) to
    /// completion.
    fn drain(&mut self, ctx: &mut Ctx<'_, Msg>, first: machvm::Effects) {
        let mut q = self.vmq_pool.pop().unwrap_or_default();
        q.push_back(first);
        self.drain_queue(ctx, &mut q);
        self.vmq_pool.push(q);
    }

    fn drain_queue(&mut self, ctx: &mut Ctx<'_, Msg>, q: &mut VecDeque<machvm::Effects>) {
        while let Some(mut fx) = q.pop_front() {
            if !fx.cpu.is_zero() {
                ctx.charge_msg_cpu(fx.cpu);
                fx.cpu = Dur::ZERO;
            }
            for eff in fx.out.drain(..) {
                self.apply_vm_effect(ctx, eff, q);
            }
            self.effects_pool.push(fx);
        }
    }

    fn apply_vm_effect(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        eff: VmEffect,
        q: &mut VecDeque<machvm::Effects>,
    ) {
        match eff {
            VmEffect::FaultDone {
                task,
                fault,
                started,
            } => {
                let latency = ctx.now().since(started);
                ctx.stats().sample("fault.ms", latency);
                ctx.stats().record("fault.latency", latency);
                ctx.stats().bump("faults.completed");
                let mut fx = self.take_fx();
                if self
                    .engine
                    .fault_completed(ctx.now(), &mut self.vm, task, fault, &mut fx)
                {
                    self.interpret(ctx, &mut fx, q);
                } else {
                    let now = ctx.now();
                    ctx.post_self(now, Msg::Resume(task));
                }
                self.put_fx(fx);
            }
            VmEffect::ToPager { obj, backing, call } => match backing {
                machvm::Backing::External(mobj) => {
                    if self.engine.mobj_of(obj).is_none() {
                        panic!("EMMI for unmanaged external object {obj:?} ({mobj:?})");
                    }
                    let mut fx = self.take_fx();
                    self.engine
                        .handle_emmi(ctx.now(), &mut self.vm, obj, call, &mut fx);
                    self.interpret(ctx, &mut fx, q);
                    self.put_fx(fx);
                }
                machvm::Backing::Anonymous => {
                    // Node-private anonymous memory pages out to the default
                    // pager on this node's I/O node.
                    let anon = PagerSend {
                        pager_node: ctx.machine().io_node_for(self.id),
                        reply_to: self.id,
                        mobj: MemObjId(0),
                        obj,
                        call,
                    };
                    self.send_pager_req(ctx, anon);
                }
            },
            VmEffect::CopyCreated { source, .. } => {
                let mut fx = self.take_fx();
                self.engine
                    .copy_created(ctx.now(), &mut self.vm, source, &mut fx);
                self.interpret(ctx, &mut fx, q);
                self.put_fx(fx);
            }
            VmEffect::EvictExternal {
                obj,
                page,
                data,
                dirty,
                ..
            } => {
                let mut fx = self.take_fx();
                self.engine
                    .handle_evict(ctx.now(), &mut self.vm, obj, page, data, dirty, &mut fx);
                self.interpret(ctx, &mut fx, q);
                self.put_fx(fx);
            }
        }
    }

    /// A copy notification settled: release any fork waiting on it.
    fn copy_settled(&mut self, ctx: &mut Ctx<'_, Msg>, mobj: MemObjId) {
        self.trace_local(ctx.now(), "cluster.copy_settled", self.id, mobj);
        let mut ready = Vec::new();
        for df in &mut self.deferred_forks {
            df.waiting.remove(&mobj);
            if df.waiting.is_empty() {
                ready.push(df.child);
            }
        }
        let done: Vec<DeferredFork> = {
            let mut rest = Vec::new();
            let mut done = Vec::new();
            for df in self.deferred_forks.drain(..) {
                if ready.contains(&df.child) {
                    done.push(df);
                } else {
                    rest.push(df);
                }
            }
            self.deferred_forks = rest;
            done
        };
        for df in done {
            self.complete_fork(ctx, df);
        }
    }

    /// Installs the child task and tells the parent its fork returned.
    fn complete_fork(&mut self, ctx: &mut Ctx<'_, Msg>, df: DeferredFork) {
        self.install_task(df.child, df.program, ctx.now());
        let now = ctx.now();
        ctx.post_self(now, Msg::Resume(df.child));
        Transport::NORMA.send(
            ctx,
            df.parent_node,
            0,
            Msg::ForkDone {
                parent_task: df.parent_task,
            },
        );
    }

    // --- Task driver ----------------------------------------------------------

    fn run_task(&mut self, ctx: &mut Ctx<'_, Msg>, task: TaskId) {
        loop {
            let Some(st) = self.tasks.get_mut(&task) else {
                return;
            };
            if st.status != TaskStatus::Running {
                return;
            }
            let step = match st.repeat.take() {
                Some(s) => s,
                None => {
                    let mut env = TaskEnv {
                        task,
                        node: self.id,
                        now: ctx.now(),
                        last_read: st.last_read,
                    };
                    st.program.step(&mut env)
                }
            };
            match step {
                Step::Compute(d) => {
                    let done = ctx.charge_compute(d);
                    ctx.post_self(done, Msg::Resume(task));
                    return;
                }
                Step::Touch { va_page, access } => {
                    if !self.ensure_access(
                        ctx,
                        task,
                        va_page,
                        access,
                        Step::Touch { va_page, access },
                    ) {
                        return;
                    }
                }
                Step::Read { va_page } => {
                    // Fused access-check + read: one translation walk on the
                    // (overwhelmingly common) hit path instead of two.
                    if let Some(data) = self.vm.try_read_page(ctx.now(), task, va_page) {
                        self.tasks.get_mut(&task).unwrap().last_read = Some(data.word());
                        self.note_hit_access(ctx, task, va_page, false);
                    } else if self.fault_for(
                        ctx,
                        task,
                        va_page,
                        Access::Read,
                        Step::Read { va_page },
                    ) {
                        // The fault resolved locally (zero-fill / copy-up).
                        let v = self.vm.read_page(ctx.now(), task, va_page).word();
                        self.tasks.get_mut(&task).unwrap().last_read = Some(v);
                    } else {
                        return;
                    }
                }
                Step::Write { va_page, value } => {
                    if self
                        .vm
                        .try_write_page(ctx.now(), task, va_page, PageData::Word(value))
                    {
                        self.note_hit_access(ctx, task, va_page, true);
                    } else {
                        if !self.fault_for(
                            ctx,
                            task,
                            va_page,
                            Access::Write,
                            Step::Write { va_page, value },
                        ) {
                            return;
                        }
                        self.vm
                            .write_page(ctx.now(), task, va_page, PageData::Word(value));
                    }
                }
                Step::LockRange { va_page, pages } => {
                    let (mobj, range) = self.resolve_range(task, va_page, pages);
                    if !self.engine_call(ctx, |e, _, fx| e.lock_range(mobj, range, fx)) {
                        // The grant arrives later, as a lock-granted effect.
                        self.lock_waiters
                            .insert((mobj, range.first.0, range.count), task);
                        let st = self.tasks.get_mut(&task).unwrap();
                        st.status = TaskStatus::WaitingLock;
                        return;
                    }
                }
                Step::UnlockRange { va_page, pages } => {
                    let (mobj, range) = self.resolve_range(task, va_page, pages);
                    self.engine_call(ctx, |e, _, fx| e.unlock_range(mobj, range, fx));
                }
                Step::Barrier(id) => {
                    let st = self.tasks.get_mut(&task).unwrap();
                    st.status = TaskStatus::WaitingBarrier(id);
                    self.barrier_waiting.entry(id).or_default().push(task);
                    let coord = NodeId(0);
                    Transport::STS.send(ctx, coord, 0, Msg::Barrier { id });
                    return;
                }
                Step::Fork {
                    child,
                    node,
                    program,
                } => {
                    // fork() is synchronous: the parent suspends until the
                    // child's address space (and the copy notifications it
                    // triggers) settle.
                    self.fork_to(ctx, task, child, node, program);
                    let st = self.tasks.get_mut(&task).unwrap();
                    st.status = TaskStatus::WaitingFork;
                    return;
                }
                Step::Done => {
                    let st = self.tasks.get_mut(&task).unwrap();
                    st.status = TaskStatus::Done;
                    st.finished = Some(ctx.now());
                    self.tasks_done += 1;
                    ctx.stats().bump("tasks.done");
                    if self.all_tasks_done() && ctx.machine().config.faults.is_active() {
                        // Our watchdog and heartbeat ticks stop with the
                        // last task: the engine settles what depended on
                        // them, and a reliable farewell keeps peers from
                        // reading the silence as death.
                        let lossy = !self.asvm_transport.per_link_arq();
                        if self.engine_call(ctx, |e, _, fx| e.on_idle(lossy, fx)) {
                            let me = self.id;
                            for n in ctx.machine().compute_nodes() {
                                if n != me {
                                    Transport::STS.send(ctx, n, 0, Msg::Farewell { from: me });
                                }
                            }
                        }
                    }
                    return;
                }
            }
        }
    }

    /// Tells the engine about a demand access that hit in local memory
    /// (no fault) — ASVM's prefetcher settles speculative fills and tops
    /// up detector-gated streams on these. Gated on `wants_access_notes`
    /// so engines and runs that do not care pay exactly one boolean test
    /// per hit.
    fn note_hit_access(&mut self, ctx: &mut Ctx<'_, Msg>, task: TaskId, va_page: u64, write: bool) {
        if !self.engine.wants_access_notes() {
            return;
        }
        let Some(entry) = self.vm.address_map(task).lookup(va_page) else {
            return;
        };
        let (obj, page) = (entry.object, entry.object_page(va_page));
        let now = ctx.now();
        self.engine_call(ctx, |e, vm, fx| {
            e.note_access(now, vm, obj, page, write, fx)
        });
    }

    /// Translates a task-relative page range to `(object, object range)`.
    fn resolve_range(&self, task: TaskId, va_page: u64, pages: u32) -> (MemObjId, PageRange) {
        let entry = self
            .vm
            .address_map(task)
            .lookup(va_page)
            .expect("lock range outside mappings");
        let first = entry.object_page(va_page);
        let mobj = self
            .engine
            .mobj_of(entry.object)
            .expect("range locks need a managed region");
        let count = pages;
        (mobj, PageRange { first, count })
    }

    /// Ensures `task` can access `va_page`; on a miss, starts the fault and
    /// suspends. Returns true if the access may proceed now.
    fn ensure_access(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        task: TaskId,
        va_page: u64,
        access: Access,
        retry: Step,
    ) -> bool {
        if self.vm.can_access(task, va_page, access) {
            self.note_hit_access(ctx, task, va_page, access == Access::Write);
            return true;
        }
        self.fault_for(ctx, task, va_page, access, retry)
    }

    /// The fault half of [`ClusterNode::ensure_access`], for callers that
    /// have already established the access misses (via the fused
    /// `try_read_page`/`try_write_page` ops). Returns `true` if the fault
    /// resolved immediately and the step can proceed now.
    fn fault_for(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        task: TaskId,
        va_page: u64,
        access: Access,
        retry: Step,
    ) -> bool {
        ctx.stats().bump("faults.raised");
        let mut fx = self.take_effects();
        let outcome = self.vm.fault(ctx.now(), task, va_page, access, &mut fx);
        match outcome {
            machvm::FaultOutcome::Hit => {
                self.drain(ctx, fx);
                true
            }
            machvm::FaultOutcome::Pending(_) => {
                let st = self.tasks.get_mut(&task).unwrap();
                st.repeat = Some(retry);
                st.status = TaskStatus::WaitingFault;
                self.drain(ctx, fx);
                false
            }
        }
    }

    // --- Fork ----------------------------------------------------------------------

    fn fork_to(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        parent: TaskId,
        child: TaskId,
        node: NodeId,
        program: Box<dyn Program>,
    ) {
        ctx.stats().bump("forks");
        let pager_node = ctx.machine().io_node_for(self.id);
        // Not `engine_call`: the export also borrows the id allocator.
        let mut fx = self.take_fx();
        let (vm, ids) = (&mut self.vm, &mut self.ids);
        let fes = self
            .engine
            .fork_export(ctx.now(), vm, parent, pager_node, ids, &mut fx);
        self.run_fx(ctx, &mut fx);
        self.put_fx(fx);
        Transport::NORMA.send(
            ctx,
            node,
            256,
            Msg::Fork(Box::new(ForkMsg {
                child,
                program,
                entries: fes,
                parent_node: self.id,
                parent_task: parent,
            })),
        );
    }

    /// Child-side fork processing.
    fn do_fork_child(&mut self, ctx: &mut Ctx<'_, Msg>, fm: ForkMsg) {
        let child = fm.child;
        let mut waiting: std::collections::BTreeSet<MemObjId> = Default::default();
        self.vm.create_task(child);
        for fe in fm.entries {
            waiting.extend(self.engine_call(ctx, |e, vm, fx| e.fork_import(vm, child, fe, fx)));
        }
        let df = DeferredFork {
            child,
            program: fm.program,
            waiting,
            parent_node: fm.parent_node,
            parent_task: fm.parent_task,
        };
        if df.waiting.is_empty() {
            self.complete_fork(ctx, df);
        } else {
            self.deferred_forks.push(df);
        }
    }

    // --- Pageout --------------------------------------------------------------------

    fn pageout(&mut self, ctx: &mut Ctx<'_, Msg>) {
        loop {
            let over = self.vm.over_capacity();
            if over == 0 {
                break;
            }
            let Some((obj, page)) = self.vm.select_victim() else {
                break; // Nothing evictable right now; try after the next event.
            };
            ctx.stats().bump("pageouts");
            let mut fx = self.take_effects();
            self.vm.evict(ctx.now(), obj, page, &mut fx);
            self.drain(ctx, fx);
            // A victim is a resident page and its manager's reaction brings
            // none in: the loop ends after `over` passes.
            debug_assert_eq!(self.vm.over_capacity(), over - 1);
        }
    }
}

/// Payload size of an EMMI call on the wire.
fn pager_payload(call: &EmmiToPager, page_size: u32) -> u32 {
    match call {
        EmmiToPager::DataReturn { .. } => page_size,
        _ => 0,
    }
}

impl NodeBehavior<Msg> for ClusterNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        match msg {
            Msg::Asvm { from, seq: 0, msg } => {
                self.deliver_protocol(ctx, from, ProtocolMsg::Asvm { from, msg });
            }
            Msg::Asvm { from, seq, msg } => {
                self.on_sequenced(ctx, from, seq, FrameBody::single(msg));
            }
            Msg::AsvmBatch { from, seq: 0, body } => {
                self.deliver_body(ctx, from, body);
            }
            Msg::AsvmBatch { from, seq, body } => {
                self.on_sequenced(ctx, from, seq, body);
            }
            Msg::RdmaRead { from, msg } => {
                // One-sided read posting: the engine computes the same
                // state transition an `Msg::Asvm` PageReq would (parity
                // across backends), but delivery charged zero host CPU
                // here — whether that holds depends on what the engine
                // wanted done, resolved by `finish_rdma_read`.
                let pm = ProtocolMsg::Asvm { from, msg };
                self.record_trace(ctx.now(), TraceDir::Recv, from, &pm);
                let mut fx = self.take_fx();
                self.engine
                    .handle_protocol(ctx.now(), &mut self.vm, pm, &mut fx);
                self.finish_rdma_read(ctx, from, &mut fx);
                self.put_fx(fx);
            }
            Msg::AsvmAck { from, seq } => {
                if self
                    .link_tx
                    .get_or_insert_with(from, Default::default)
                    .ack(seq)
                {
                    ctx.stats().bump("asvm.retry.acked");
                }
            }
            Msg::RetryTick { dst, seq } => {
                self.on_retry_tick(ctx, dst, seq);
            }
            Msg::Heartbeat { beats, .. } => {
                let now = ctx.now();
                for peer in self.detector.merge(now, &beats) {
                    ctx.stats().bump("cluster.suspect.cleared");
                    self.engine_call(ctx, |e, vm, fx| e.peer_cleared(now, vm, peer, fx));
                }
            }
            Msg::HbTick => {
                self.on_hb_tick(ctx);
            }
            Msg::Farewell { from } => {
                // Graceful completion: stop expecting (and sending it)
                // heartbeats.
                self.detector.farewell(from);
            }
            Msg::Xmm(m) => {
                // XMMI messages carry no sender; record the node itself.
                self.deliver_protocol(ctx, self.id, ProtocolMsg::Xmm(m));
            }
            Msg::PagerReq(pin) => {
                let cost = ctx.machine().config.cost.pager_handle;
                ctx.charge_msg_cpu(cost);
                let ps = self.vm.page_size();
                let now = ctx.now();
                let mut disk = |op, pos, len| ctx.disk_access(op, pos, len);
                let outs = if pin.mobj == MemObjId(0) {
                    self.default_pager
                        .as_mut()
                        .expect("default pager request on compute node")
                        .handle(now, pin, &mut disk)
                } else {
                    self.file_pager
                        .as_mut()
                        .expect("file pager request on compute node")
                        .handle(now, pin, &mut disk)
                };
                for out in outs {
                    let payload = match &out.reply {
                        EmmiToKernel::DataSupply { .. } => ps,
                        _ => 0,
                    };
                    let frame = Frame::new(CostClass::Plain, payload)
                        .tagged(out.reply.stat_key())
                        .not_before(out.ready_at);
                    let reply = Msg::PagerReply {
                        obj: out.obj,
                        reply: out.reply,
                    };
                    Transport::NORMA.send_frame(ctx, out.to_node, frame, once(reply));
                }
            }
            Msg::PagerReply { obj, reply } => {
                if self.engine.mobj_of(obj).is_some() {
                    let now = ctx.now();
                    self.engine_call(ctx, |e, vm, fx| {
                        e.handle_pager_reply(now, vm, obj, reply, fx)
                    });
                } else {
                    // Plain anonymous memory refetched from the default pager.
                    let mut fx = self.take_effects();
                    self.vm.kernel_call(ctx.now(), obj, reply, &mut fx);
                    self.drain(ctx, fx);
                }
            }
            Msg::Resume(task) => {
                if let Some(st) = self.tasks.get_mut(&task) {
                    if st.status == TaskStatus::WaitingFault {
                        st.status = TaskStatus::Running;
                    }
                    self.run_task(ctx, task);
                }
            }
            Msg::Fork(fm) => {
                self.do_fork_child(ctx, *fm);
            }
            Msg::ForkDone { parent_task } => {
                if let Some(st) = self.tasks.get_mut(&parent_task) {
                    if st.status == TaskStatus::WaitingFork {
                        st.status = TaskStatus::Running;
                    }
                    self.run_task(ctx, parent_task);
                }
            }
            Msg::Barrier { id } => {
                assert_eq!(self.id, NodeId(0), "barrier messages go to node 0");
                let c = self.barrier_counts.entry(id).or_insert(0);
                *c += 1;
                if *c >= self.barrier_parties {
                    self.barrier_counts.remove(&id);
                    for n in ctx.machine().compute_nodes() {
                        if n == self.id {
                            let now = ctx.now();
                            ctx.post_self(now, Msg::BarrierGo { id });
                        } else {
                            Transport::STS.send(ctx, n, 0, Msg::BarrierGo { id });
                        }
                    }
                }
            }
            Msg::BarrierGo { id } => {
                let tasks = self.barrier_waiting.remove(&id).unwrap_or_default();
                for t in tasks {
                    if let Some(st) = self.tasks.get_mut(&t) {
                        if st.status == TaskStatus::WaitingBarrier(id) {
                            st.status = TaskStatus::Running;
                        }
                    }
                    self.run_task(ctx, t);
                }
            }
        }
        self.pageout(ctx);
        // End of the scheduling step: everything the engines emitted
        // while handling this event (pageout included) leaves as one
        // coalesced frame per destination. No-op with coalescing off.
        self.flush_coalesced(ctx);
    }
}
