//! Single-system-image facade: the public API harnesses and examples use
//! to build a cluster, create tasks and memory objects, and run programs.

use std::collections::BTreeMap;

use asvm::AsvmConfig;
use machvm::{Access, Inherit, MemObjId, TaskId, VmSystem};
use svmsim::{EventBudgetExceeded, Machine, MachineConfig, NodeId, Stats, Time, World};

use crate::engine::{Engine, EngineFx, ProtoEvent};
use crate::msg::{Msg, ObjInfo};
use crate::node::ClusterNode;
use crate::program::Program;

/// Which distributed memory manager the cluster runs.
#[derive(Clone, Copy, Debug)]
pub enum ManagerKind {
    /// The paper's contribution, with its forwarding configuration.
    Asvm(AsvmConfig),
    /// The NMK13 baseline, with its internal-pager thread pool size.
    Xmm {
        /// Copy-pager threads per node.
        copy_threads: usize,
    },
}

impl ManagerKind {
    /// ASVM with default forwarding.
    pub fn asvm() -> ManagerKind {
        ManagerKind::Asvm(AsvmConfig::default())
    }

    /// XMM with the default thread pool.
    pub fn xmm() -> ManagerKind {
        ManagerKind::Xmm { copy_threads: 16 }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ManagerKind::Asvm(_) => "ASVM",
            ManagerKind::Xmm { .. } => "XMM",
        }
    }
}

/// A running single-system-image cluster.
///
/// # Examples
///
/// Two nodes share a memory object; a write on one is read on the other:
///
/// ```
/// use cluster::{ManagerKind, ScriptProgram, Ssi, Step};
/// use machvm::{Access, Inherit};
/// use svmsim::NodeId;
///
/// let mut ssi = Ssi::new(2, ManagerKind::asvm(), 42);
/// let mobj = ssi.create_object(NodeId(0), 4, false);
/// let writer = ssi.alloc_task();
/// let reader = ssi.alloc_task();
/// ssi.map_shared(writer, NodeId(0), 0, mobj, NodeId(0), 4, Access::Write, Inherit::Share);
/// ssi.map_shared(reader, NodeId(1), 0, mobj, NodeId(0), 4, Access::Write, Inherit::Share);
/// ssi.finalize();
/// ssi.set_barrier_parties(2);
///
/// ssi.spawn(NodeId(0), writer, Box::new(ScriptProgram::new(vec![
///     Step::Write { va_page: 0, value: 7 },
///     Step::Barrier(1),
///     Step::Done,
/// ])));
/// ssi.spawn(NodeId(1), reader, Box::new(ScriptProgram::new(vec![
///     Step::Barrier(1),
///     Step::Read { va_page: 0 },
///     Step::Done,
/// ])));
///
/// ssi.run(1_000_000).unwrap();
/// assert!(ssi.all_done());
/// assert_eq!(ssi.node(NodeId(1)).vm.peek_task_page(reader, 0), Some(7));
/// ```
pub struct Ssi {
    /// The underlying simulation world.
    pub world: World<ClusterNode, Msg>,
    kind: ManagerKind,
    next_mobj: u32,
    next_task: u32,
    /// Stripe sets for striped objects (§6 future work).
    striped: std::collections::BTreeMap<MemObjId, Vec<NodeId>>,
    /// Per-object ASVM configuration overrides, applied at registration
    /// in place of the cluster-wide configuration.
    object_cfgs: std::collections::BTreeMap<MemObjId, AsvmConfig>,
}

impl Ssi {
    /// Builds a Paragon-like cluster with `compute_nodes` compute nodes.
    /// The simulator consumes none of `seed` (see [`World::new`]).
    pub fn new(compute_nodes: u16, kind: ManagerKind, seed: u64) -> Ssi {
        Ssi::with_machine(MachineConfig::paragon(compute_nodes), kind, seed)
    }

    /// Builds a cluster from an explicit machine configuration. The
    /// simulator consumes none of `seed` (see [`World::new`]).
    pub fn with_machine(cfg: MachineConfig, kind: ManagerKind, seed: u64) -> Ssi {
        let machine = Machine::new(cfg);
        let world = World::new(machine, seed, |id, m| {
            let cost = m.config.cost.clone();
            let capacity = m.config.user_pages_per_node();
            let vm = VmSystem::new(m.config.page_size, capacity, cost.clone());
            let engine = Engine::new(id, cost, &kind);
            ClusterNode::new(id, vm, engine, m.kind(id), m.config.page_size)
        });
        Ssi {
            world,
            kind,
            next_mobj: 1,
            next_task: 1,
            striped: std::collections::BTreeMap::new(),
            object_cfgs: std::collections::BTreeMap::new(),
        }
    }

    /// Overrides the ASVM configuration `mobj` is registered with — the
    /// paper's per-memory-object strategy hook (*"The ASVM system allows
    /// to disable either dynamic or static forwarding (or both) on a
    /// memory-object basis"*), extended to the full [`AsvmConfig`]
    /// surface: forwarding switches, cache capacity and prefetch. Takes
    /// effect on every [`Ssi::map_shared`] after the call, so set it
    /// before the object's first map; other objects keep the cluster-wide
    /// configuration. ASVM only.
    pub fn set_object_config(&mut self, mobj: MemObjId, cfg: AsvmConfig) {
        assert!(
            matches!(self.kind, ManagerKind::Asvm(_)),
            "per-object configuration requires ASVM"
        );
        self.object_cfgs.insert(mobj, cfg);
    }

    /// The manager kind this cluster runs.
    pub fn kind(&self) -> ManagerKind {
        self.kind
    }

    /// Allocates a fresh task id.
    pub fn alloc_task(&mut self) -> TaskId {
        let t = TaskId(self.next_task);
        self.next_task += 1;
        t
    }

    /// Creates a memory object of `size_pages` homed on `home`, backed by a
    /// file on `home`'s I/O node (`populated` files have on-disk contents;
    /// unpopulated ones zero-fill without I/O). Returns its id.
    pub fn create_object(&mut self, home: NodeId, size_pages: u32, populated: bool) -> MemObjId {
        let mobj = MemObjId(self.next_mobj);
        self.next_mobj += 1;
        let io = self.world.machine().io_node_for(home);
        self.world
            .node_mut(io)
            .file_pager
            .as_mut()
            .expect("I/O node must have a file pager")
            .create_file(mobj, size_pages, populated);
        mobj
    }

    /// The I/O node and pager backing `mobj` created via
    /// [`Ssi::create_object`] from `home`.
    pub fn pager_node_for(&self, home: NodeId) -> NodeId {
        self.world.machine().io_node_for(home)
    }

    /// Creates a memory object striped round-robin over `stripes` I/O
    /// nodes (§6 future work: one pager per I/O node, used per page).
    /// Requires a machine with at least that many I/O nodes (ASVM only).
    pub fn create_striped_object(
        &mut self,
        size_pages: u32,
        populated: bool,
        stripes: u16,
    ) -> MemObjId {
        assert!(
            matches!(self.kind, ManagerKind::Asvm(_)),
            "striped objects require ASVM (XMM has a single pager per object)"
        );
        let io: Vec<NodeId> = self.world.machine().io_nodes().collect();
        assert!(
            stripes as usize <= io.len(),
            "need {stripes} I/O nodes, machine has {}",
            io.len()
        );
        let mobj = MemObjId(self.next_mobj);
        self.next_mobj += 1;
        let set: Vec<NodeId> = io.into_iter().take(stripes as usize).collect();
        for n in &set {
            self.world
                .node_mut(*n)
                .file_pager
                .as_mut()
                .expect("I/O node must have a file pager")
                .create_striped_file(mobj, size_pages, populated, stripes as u32);
        }
        self.striped.insert(mobj, set);
        mobj
    }

    /// Maps `mobj` into `task`'s address space on `node` (setup time).
    ///
    /// The local kernel and manager representations are created on first
    /// use; call [`Ssi::finalize`] once after all setup maps so membership
    /// lists are consistent before the simulation runs.
    #[allow(clippy::too_many_arguments)]
    pub fn map_shared(
        &mut self,
        task: TaskId,
        node: NodeId,
        va_page: u64,
        mobj: MemObjId,
        home: NodeId,
        size_pages: u32,
        prot: Access,
        inherit: Inherit,
    ) {
        let info = ObjInfo {
            size_pages,
            home,
            pager_node: self.world.machine().io_node_for(home),
            cfg: match self.kind {
                ManagerKind::Asvm(cfg) => *self.object_cfgs.get(&mobj).unwrap_or(&cfg),
                ManagerKind::Xmm { .. } => AsvmConfig::default(),
            },
            peer: None,
            source: None,
        };
        let stripe = self.striped.get(&mobj).cloned();
        let n = self.world.node_mut(node);
        if !n.vm.has_task(task) {
            n.vm.create_task(task);
        }
        // Setup-time registration: membership is fixed by `finalize`, so
        // the effects (the MapNotify to the home node) are dropped.
        let mut dropped = EngineFx::default();
        let vo = n.engine.ensure_object(&mut n.vm, mobj, &info, &mut dropped);
        if let Some(set) = stripe {
            n.engine.set_object_stripe(mobj, set);
        }
        n.vm.map_object(task, va_page, size_pages, vo, 0, prot, inherit);
    }

    /// Fixes up membership lists after setup-time mapping: every object's
    /// member set becomes exactly the nodes that registered it.
    pub fn finalize(&mut self) {
        let ids: Vec<NodeId> = self.world.machine().mesh.node_ids().collect();
        let mut members: BTreeMap<MemObjId, Vec<NodeId>> = BTreeMap::new();
        for id in &ids {
            for mobj in self.world.node(*id).engine.registered_objects() {
                members.entry(mobj).or_default().push(*id);
            }
        }
        for id in &ids {
            self.world
                .node_mut(*id)
                .engine
                .finalize_membership(&members);
        }
    }

    /// Installs a protocol trace ring of `cap` events on every node.
    /// Recording costs one slot write per message; dump the merged view
    /// with [`Ssi::trace_dump`] when a run fails.
    pub fn enable_trace(&mut self, cap: usize) {
        for id in self.world.machine().mesh.node_ids().collect::<Vec<_>>() {
            self.world.node_mut(id).trace = Some(svmsim::TraceRing::new(cap));
        }
    }

    /// All retained trace events across the cluster, merged into
    /// chronological order, plus the count of events evicted from the rings.
    pub fn trace_dump(&self) -> (Vec<ProtoEvent>, u64) {
        let mut evs: Vec<ProtoEvent> = Vec::new();
        let mut dropped = 0u64;
        for id in self.world.machine().mesh.node_ids().collect::<Vec<_>>() {
            if let Some(ring) = &self.world.node(id).trace {
                evs.extend(ring.iter().cloned());
                dropped += ring.dropped();
            }
        }
        evs.sort_by_key(|e| (e.time, e.node.0));
        (evs, dropped)
    }

    /// Switches the transport carrying ASVM protocol traffic (the
    /// transport ablation: identical state machines over NORMA-IPC) and
    /// sizes the loss-recovery timeouts for it: ARQ timeouts and the
    /// watchdog deadline stretch with the software cost of one ARQ frame
    /// on `t` relative to STS, which the defaults were sized for. A
    /// fabric-reliable backend has no software ARQ to out-wait and keeps
    /// the STS bounds (its one-sided reads are cheaper than an STS frame).
    pub fn set_asvm_transport(&mut self, t: transport::Transport) {
        let cost = &self.world.machine().config.cost;
        let timing = if t.per_link_arq() {
            let sts = transport::Transport::STS.per_message_cpu(cost);
            asvm::RecoveryTiming::for_carrier(t.per_message_cpu(cost), sts)
        } else {
            asvm::RecoveryTiming::default()
        };
        for id in self.world.machine().mesh.node_ids().collect::<Vec<_>>() {
            let n = self.world.node_mut(id);
            n.asvm_transport = t;
            n.timing = timing;
        }
    }

    /// ASVM frames abandoned after retry exhaustion, across all nodes,
    /// in `(time, node, seq)` order. Empty in a healthy run.
    ///
    /// **Draining**: each call removes the failures it returns from the
    /// per-node buffers, so a second poll reports only failures that
    /// happened after the first — repeated polls never duplicate.
    pub fn link_failures(&mut self) -> Vec<crate::node::LinkFailure> {
        let mut fs: Vec<crate::node::LinkFailure> = Vec::new();
        for id in self.world.machine().mesh.node_ids().collect::<Vec<_>>() {
            fs.extend(std::mem::take(&mut self.world.node_mut(id).link_failures));
        }
        fs.sort_by_key(|f| (f.at, f.peer.0, f.seq));
        fs
    }

    /// Sets how many tasks participate in each barrier.
    pub fn set_barrier_parties(&mut self, parties: u32) {
        self.world.node_mut(NodeId(0)).barrier_parties = parties;
    }

    /// Installs `program` as task `task` on `node` and schedules it to
    /// start at time `at`.
    pub fn spawn_at(&mut self, at: Time, node: NodeId, task: TaskId, program: Box<dyn Program>) {
        let now = self.world.now();
        self.world.node_mut(node).install_task(task, program, now);
        self.world.post(at.max(now), node, Msg::Resume(task));
        // Arm the failure detector and watchdog unless the node's tick
        // chain is already running — on its first spawn, and again on a
        // spawn after its tasks all finished and the chain ended.
        // Heartbeats run only under an active fault plan (healthy runs
        // stay byte-identical to a build without them), and only on nodes
        // that actually host work — a task-less node never ticks, so its
        // counter never advances anywhere, and the detector judges by
        // silence only peers it has seen beat.
        if matches!(self.kind, ManagerKind::Asvm(_))
            && self.world.machine().config.faults.is_active()
            && !self.world.node(node).hb_ticking
        {
            self.world.node_mut(node).hb_ticking = true;
            self.world.post(now, node, Msg::HbTick);
        }
    }

    /// Installs and starts `program` immediately.
    pub fn spawn(&mut self, node: NodeId, task: TaskId, program: Box<dyn Program>) {
        let now = self.world.now();
        self.spawn_at(now, node, task, program);
    }

    /// Runs the cluster until every event drains.
    pub fn run(&mut self, budget: u64) -> Result<Time, EventBudgetExceeded> {
        self.world.run_to_quiescence(budget)
    }

    /// Gathered statistics.
    pub fn stats(&self) -> &Stats {
        self.world.stats()
    }

    /// A node, for inspection.
    pub fn node(&self, id: NodeId) -> &ClusterNode {
        self.world.node(id)
    }

    /// True if every installed task on every node finished.
    pub fn all_done(&self) -> bool {
        self.world
            .machine()
            .mesh
            .node_ids()
            .all(|id| self.world.node(id).all_tasks_done())
    }
}
