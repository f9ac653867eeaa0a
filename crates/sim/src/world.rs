//! The simulation world: nodes, CPUs, disks and the event loop.
//!
//! Every node of the multicomputer owns two processors, mirroring a Paragon
//! GP node: a *compute* processor that runs application code (and the fault
//! entry/exit path of its kernel), and a *message* processor that runs the
//! transport stacks and the distributed-memory protocol handlers. Each is a
//! serial resource tracked by a "free at" watermark; work queues behind it.
//! This occupancy model is what makes the centralized-manager bottlenecks of
//! the paper's baseline *emerge* from the simulation instead of being
//! hard-coded.
//!
//! The world is generic over the node behaviour `N` and the message type
//! `M`, so the protocol crates stay independent of each other; the `cluster`
//! crate instantiates it with its unified message enum.
//!
//! A message in flight is written once, by `Ctx::send*` / `post*`, into the
//! event queue's arena and stays there — through any time it spends parked
//! behind a busy message processor — until [`World::step`] moves it out,
//! once, into [`NodeBehavior::on_message`]. Everything in between handles a
//! 4-byte [`Slot`]; see the `queue` module docs.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::disk::{Disk, DiskOp};
use crate::faults::{FaultClass, FaultDecision, FaultStreams};
use crate::machine::Machine;
use crate::mesh::NodeId;
use crate::queue::{EventQueue, Slot};
use crate::stats::{StatId, Stats};
use crate::time::{Dur, Time};

/// Pre-interned ids for the counters bumped on every message / disk access,
/// so the hot path never does a string lookup (see `stats` module docs).
#[derive(Clone, Copy, Debug)]
struct HotIds {
    net_messages: StatId,
    net_bytes: StatId,
    disk_reads: StatId,
    disk_writes: StatId,
}

impl HotIds {
    fn intern(stats: &mut Stats) -> HotIds {
        HotIds {
            net_messages: stats.counter_id("net.messages"),
            net_bytes: stats.counter_id("net.bytes"),
            disk_reads: stats.counter_id("disk.reads"),
            disk_writes: stats.counter_id("disk.writes"),
        }
    }
}

/// How a node reacts to delivered messages.
pub trait NodeBehavior<M> {
    /// Handles one message. `ctx.now()` is the instant at which the message
    /// has been fully received (receive-side CPU already charged).
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, msg: M);
}

/// Cost envelope of one network message, as computed by a transport.
#[derive(Clone, Copy, Debug)]
pub struct MsgCosts {
    /// Sender message-processor occupancy.
    pub send_cpu: Dur,
    /// Receiver message-processor occupancy (charged before delivery).
    pub recv_cpu: Dur,
    /// Total bytes on the wire (header + payload).
    pub bytes: u32,
    /// Additional in-flight latency beyond wire time, occupying neither
    /// host (a NIC pipeline's per-message floor). Zero for the classic
    /// Paragon transports.
    pub extra_latency: Dur,
}

/// Per-node processor occupancy watermarks.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuState {
    /// The message processor is busy until this instant.
    pub msg_free: Time,
    /// The compute processor is busy until this instant.
    pub compute_free: Time,
}

/// One scheduled delivery, as it sits in the event queue's arena.
struct Envelope<M> {
    dst: NodeId,
    recv_cpu: Dur,
    msg: M,
}

/// Error returned when the event loop exceeds its safety budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventBudgetExceeded {
    /// The budget that was exhausted.
    pub budget: u64,
}

impl std::fmt::Display for EventBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation exceeded event budget of {}", self.budget)
    }
}

impl std::error::Error for EventBudgetExceeded {}

/// The complete simulation state.
pub struct World<N, M> {
    now: Time,
    machine: Machine,
    nodes: Vec<N>,
    cpus: Vec<CpuState>,
    disks: Vec<Disk>,
    queue: EventQueue<Envelope<M>>,
    /// Per-node FIFO of messages that arrived while the node's message
    /// processor was busy: handles to envelopes that stay where they are
    /// in the queue's arena. Only the head of a FIFO holds a ticket in
    /// the event queue. See [`World::step`].
    blocked: Vec<VecDeque<Slot>>,
    stats: Stats,
    hot: HotIds,
    rng: SmallRng,
    /// Per-link, per-class exposed-frame counts keying the
    /// [`crate::FaultPlan`]'s decisions; empty under an inactive plan.
    fault_streams: FaultStreams,
    events_processed: u64,
}

impl<N: NodeBehavior<M>, M> World<N, M> {
    /// Builds a world, constructing one node via `factory` per machine node.
    pub fn new(
        machine: Machine,
        seed: u64,
        mut factory: impl FnMut(NodeId, &Machine) -> N,
    ) -> Self {
        let n = machine.config.total_nodes() as usize;
        let nodes = machine
            .mesh
            .node_ids()
            .map(|id| factory(id, &machine))
            .collect();
        let mut stats = Stats::new();
        let hot = HotIds::intern(&mut stats);
        World {
            now: Time::ZERO,
            nodes,
            cpus: vec![CpuState::default(); n],
            disks: (0..n).map(|_| Disk::new()).collect(),
            // Pending events scale with node count (in-flight messages plus
            // timers); pre-reserve so steady state never reallocates. The
            // megascale sweep's queue-depth gauge puts the observed peak
            // near 2·n across 128-1024 nodes (of a node's blocked receives
            // only the head holds a ticket), so 4·n leaves 2× headroom;
            // `queue.grow` in BENCH_megascale.json confirms zero
            // steady-state reallocations at this size.
            queue: EventQueue::with_capacity((n * 4).max(1024)),
            blocked: (0..n).map(|_| VecDeque::new()).collect(),
            stats,
            hot,
            rng: SmallRng::seed_from_u64(seed),
            fault_streams: FaultStreams::new(&machine.config.faults, n),
            machine,
            events_processed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The machine description.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Immutable access to a node (for inspection in tests and harnesses).
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node (for setup).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.index()]
    }

    /// Gathered statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Mutable statistics (harnesses reset between phases).
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// The disk attached to `node` (meaningful for I/O nodes only).
    pub fn disk(&self, node: NodeId) -> &Disk {
        &self.disks[node.index()]
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// High-water mark of simultaneously pending events — capacity-planning
    /// telemetry for the event queue's pre-reservation heuristic.
    pub fn queue_peak(&self) -> usize {
        self.queue.peak_len()
    }

    /// Pushes that outgrew the queue's pre-reserved capacity (each implies
    /// a reallocation). Zero means the sizing heuristic held for this run.
    pub fn queue_grow_events(&self) -> u64 {
        self.queue.grow_events()
    }

    /// Schedules `msg` for delivery to `dst` at absolute time `at` with no
    /// CPU charge — used to seed the simulation from outside the event loop.
    pub fn post(&mut self, at: Time, dst: NodeId, msg: M) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(
            at,
            Envelope {
                dst,
                recv_cpu: Dur::ZERO,
                msg,
            },
        );
    }

    /// Runs a single event. Returns `false` when the queue is empty.
    ///
    /// Messages that reach a node whose message processor is busy park in
    /// the node's `blocked` FIFO. Only the head of the FIFO holds a ticket:
    /// it stands in for the whole backlog and re-checks `msg_free` each
    /// time it fires, so exactly one waiter is delivered per free instant.
    /// Naively retrying every waiter at `msg_free` costs O(k²) heap churn
    /// at k-way fan-in — ruinous at kilo-node scale — while service order
    /// and delivery times are the same either way: strict arrival order,
    /// yielding to any send CPU the in-between handlers charge.
    ///
    /// The envelope is examined where it lies in the queue's arena: parking
    /// moves a 4-byte [`Slot`], a waiter that must sleep again gets a new
    /// ticket for the slot it already has, and the message is moved out
    /// exactly once, into the handler.
    pub fn step(&mut self) -> bool {
        let Some((t, slot)) = self.queue.pop_slot() else {
            debug_assert!(
                self.queue.resident() == 0 && self.blocked.iter().all(VecDeque::is_empty),
                "quiescent world still holds events"
            );
            return false;
        };
        debug_assert!(t >= self.now, "event queue violated time order");
        self.now = t;
        let Envelope {
            dst: me, recv_cpu, ..
        } = *self.queue.payload(slot);
        let dst = me.index();
        let mut handler_now = t;
        // Zero-`recv_cpu` deliveries need no processor and never park.
        let mut woken = false;
        if !recv_cpu.is_zero() {
            let waiters = &mut self.blocked[dst];
            woken = waiters.front() == Some(&slot);
            let free = self.cpus[dst].msg_free;
            if free > t {
                // Busy receiver. The head of the FIFO sleeps until `free`:
                // a fresh arrival that finds nobody waiting, or a woken
                // head that found the processor taken again (a handler's
                // send, or a same-instant delivery) since it was ticketed.
                // Any other arrival just queues behind, in arrival order.
                if woken || waiters.is_empty() {
                    self.queue.reticket(free, slot);
                }
                if !woken {
                    waiters.push_back(slot);
                }
                return true;
            }
            if woken {
                waiters.pop_front();
            }
            handler_now = t + recv_cpu;
            self.cpus[dst].msg_free = handler_now;
        }
        self.events_processed += 1;
        let msg = self.queue.take(slot).msg;
        let node = &mut self.nodes[dst];
        let mut ctx = Ctx {
            now: handler_now,
            me,
            machine: &self.machine,
            cpus: &mut self.cpus,
            disks: &mut self.disks,
            queue: &mut self.queue,
            stats: &mut self.stats,
            hot: self.hot,
            rng: &mut self.rng,
            fault_streams: &mut self.fault_streams,
        };
        node.on_message(&mut ctx, msg);
        // The next waiter is ticketed only now, once the handler has
        // finished charging this node's processor.
        if woken {
            if let Some(&next) = self.blocked[dst].front() {
                self.queue.reticket(self.cpus[dst].msg_free, next);
            }
        }
        true
    }

    /// Runs until the queue drains or `budget` events have been processed.
    ///
    /// The budget is a livelock guard: protocol bugs that ping-pong messages
    /// forever fail fast instead of hanging the test suite.
    pub fn run_to_quiescence(&mut self, budget: u64) -> Result<Time, EventBudgetExceeded> {
        let limit = self.events_processed + budget;
        loop {
            if !self.step() {
                return Ok(self.now);
            }
            if self.events_processed > limit {
                return Err(EventBudgetExceeded { budget });
            }
        }
    }

    /// Runs until simulated time reaches `until` or the queue drains.
    pub fn run_until(&mut self, until: Time) -> Time {
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            self.step();
        }
        self.now = self.now.max(until);
        self.now
    }

    /// True if no events are pending.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }
}

/// Handler-side view of the world: everything a node may touch while
/// processing a message.
pub struct Ctx<'a, M> {
    now: Time,
    me: NodeId,
    machine: &'a Machine,
    cpus: &'a mut [CpuState],
    disks: &'a mut [Disk],
    queue: &'a mut EventQueue<Envelope<M>>,
    stats: &'a mut Stats,
    hot: HotIds,
    rng: &'a mut SmallRng,
    fault_streams: &'a mut FaultStreams,
}

impl<'a, M> Ctx<'a, M> {
    /// Current instant (advances as CPU is charged).
    pub fn now(&self) -> Time {
        self.now
    }

    /// The node this handler runs on.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The machine description. The reference outlives the borrow of
    /// `self`, so a handler can walk `machine.compute_nodes()` while it
    /// sends through the same `Ctx`.
    pub fn machine(&self) -> &'a Machine {
        self.machine
    }

    /// Statistics sink.
    pub fn stats(&mut self) -> &mut Stats {
        self.stats
    }

    /// Deterministic random source.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Charges `d` of message-processor time on this node and advances the
    /// local clock past it.
    pub fn charge_msg_cpu(&mut self, d: Dur) {
        let cpu = &mut self.cpus[self.me.index()];
        let done = cpu.msg_free.max(self.now) + d;
        cpu.msg_free = done;
        self.now = done;
    }

    /// Charges `d` of compute-processor time on this node; returns the
    /// completion instant (the local clock does *not* advance — compute work
    /// proceeds concurrently with message handling, as on the real machine's
    /// two processors).
    pub fn charge_compute(&mut self, d: Dur) -> Time {
        let cpu = &mut self.cpus[self.me.index()];
        let done = cpu.compute_free.max(self.now) + d;
        cpu.compute_free = done;
        done
    }

    /// Instant at which this node's compute processor becomes free.
    pub fn compute_free(&self) -> Time {
        self.cpus[self.me.index()].compute_free
    }

    /// Sends `msg` to `dst` with the given transport cost envelope.
    ///
    /// Sender CPU is charged now; the message arrives after the wire time
    /// and pays `recv_cpu` at the destination before delivery. Sending to
    /// the local node is allowed (loopback with no wire time) — used by the
    /// protocol layers for uniform self-delivery.
    pub fn send(&mut self, dst: NodeId, costs: MsgCosts, msg: M) {
        self.send_gated(dst, costs, Dur::ZERO, Time::ZERO, msg);
    }

    /// The one send body: charges the sender CPU now, lets the message hit
    /// the wire no earlier than `earliest`, and delivers it `extra` after
    /// its natural arrival.
    ///
    /// `earliest` gates a pager reply on its disk access: the processor is
    /// free to do other work while the buffered message waits, only the
    /// wire departure is delayed. `extra` is injected delay (and the late
    /// copy of a duplicated message): within that window, younger messages
    /// on the same link can overtake it.
    #[inline]
    pub fn send_gated(&mut self, dst: NodeId, costs: MsgCosts, extra: Dur, earliest: Time, msg: M) {
        let arrival = self.charge_send_only(costs).max(earliest)
            + self.machine.wire_time(self.me, dst, costs.bytes)
            + costs.extra_latency
            + extra;
        self.queue.push(
            arrival,
            Envelope {
                dst,
                recv_cpu: costs.recv_cpu,
                msg,
            },
        );
    }

    /// The fault layer's verdict for the next exposed frame of `class` to
    /// `dst`, sent at the current instant: counts the frame on its link
    /// and class, then asks [`crate::FaultPlan::decide`].
    ///
    /// Total: under an inactive plan the verdict is `Deliver` and nothing
    /// is counted, so the transport asks unconditionally for every exposed
    /// frame and reliable runs stay byte-identical.
    pub fn fault_decision(&mut self, dst: NodeId, class: FaultClass) -> FaultDecision {
        match self.fault_streams.next(self.me, dst, class) {
            Some(k) => self
                .machine
                .config
                .faults
                .decide(self.now, self.me, dst, class, k),
            None => FaultDecision::Deliver,
        }
    }

    /// Charges the sender side of `costs` and counts the wire statistics
    /// without delivering anything — the sender's half of every send, and
    /// all there is to a message dropped in transit: it left the NIC and
    /// consumed link bandwidth, but no one receives it. Returns the
    /// instant the message departs.
    #[inline]
    pub fn charge_send_only(&mut self, costs: MsgCosts) -> Time {
        let cpu = &mut self.cpus[self.me.index()];
        cpu.msg_free = cpu.msg_free.max(self.now) + costs.send_cpu;
        self.stats.bump_id(self.hot.net_messages);
        self.stats.add_id(self.hot.net_bytes, costs.bytes as u64);
        cpu.msg_free
    }

    /// Schedules `msg` for local delivery at absolute time `at` with no CPU
    /// charge (timers, task resumptions, deferred work).
    ///
    /// `at` is clamped to [`Ctx::now`]: an instant the handler's own CPU
    /// charges have already passed means "as soon as possible", not an
    /// error. Periodic timers beware — a period computed from an instant
    /// captured *before* the handler's sends can land in its past, and the
    /// clamp then fires the next tick back to back (docs/RELIABILITY.md
    /// §7.5).
    pub fn post_self(&mut self, at: Time, msg: M) {
        self.post(at, self.me, msg);
    }

    /// Schedules `msg` for delivery to `dst` at absolute time `at` with no
    /// transport cost. Used for intra-kernel hand-offs whose cost has
    /// already been charged by the caller. Like [`Ctx::post_self`], `at` is
    /// clamped to [`Ctx::now`].
    pub fn post(&mut self, at: Time, dst: NodeId, msg: M) {
        self.queue.push(
            at.max(self.now),
            Envelope {
                dst,
                recv_cpu: Dur::ZERO,
                msg,
            },
        );
    }

    /// Queues a disk access on this node's drive; returns completion time.
    ///
    /// Only I/O nodes have meaningful disks; accessing a compute node's disk
    /// is a logic error caught in debug builds.
    pub fn disk_access(&mut self, op: DiskOp, pos: u64, len: u32) -> Time {
        debug_assert!(
            matches!(self.machine.kind(self.me), crate::machine::NodeKind::Io),
            "disk access on non-I/O node {}",
            self.me
        );
        let id = match op {
            DiskOp::Read => self.hot.disk_reads,
            DiskOp::Write => self.hot.disk_writes,
        };
        self.stats.bump_id(id);
        self.disks[self.me.index()].access(&self.machine.config.cost, self.now, op, pos, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    /// Echo node: replies to every `Ping(k)` with `Pong(k)` to the sender.
    enum Msg {
        Ping { from: NodeId, k: u32 },
        Pong { k: u32 },
        Tick,
    }

    #[derive(Default)]
    struct Echo {
        pongs: Vec<u32>,
        ticks: u32,
    }

    fn costs() -> MsgCosts {
        MsgCosts {
            send_cpu: Dur::from_micros(10),
            recv_cpu: Dur::from_micros(20),
            bytes: 64,
            extra_latency: Dur::ZERO,
        }
    }

    impl NodeBehavior<Msg> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
            match msg {
                Msg::Ping { from, k } => {
                    ctx.send(from, costs(), Msg::Pong { k });
                }
                Msg::Pong { k } => self.pongs.push(k),
                Msg::Tick => self.ticks += 1,
            }
        }
    }

    fn world(n: u16) -> World<Echo, Msg> {
        World::new(Machine::new(MachineConfig::paragon(n)), 7, |_, _| {
            Echo::default()
        })
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut w = world(2);
        w.post(
            Time::ZERO,
            NodeId(1),
            Msg::Ping {
                from: NodeId(0),
                k: 42,
            },
        );
        let end = w.run_to_quiescence(100).unwrap();
        assert_eq!(w.node(NodeId(0)).pongs, vec![42]);
        // The reply is one real message: its arrival pays send CPU plus
        // wire time, at least 15 us.
        assert!(end.since(Time::ZERO) >= Dur::from_micros(15));
        assert_eq!(w.stats().counter("net.messages"), 1);
    }

    #[test]
    fn receiver_cpu_serializes_messages() {
        let mut w = world(3);
        // Two pings arrive at node 2 at the same time; replies must be
        // serialized by node 2's message processor.
        w.post(
            Time::ZERO,
            NodeId(2),
            Msg::Ping {
                from: NodeId(0),
                k: 1,
            },
        );
        w.post(
            Time::ZERO,
            NodeId(2),
            Msg::Ping {
                from: NodeId(0),
                k: 2,
            },
        );
        w.run_to_quiescence(100).unwrap();
        assert_eq!(w.node(NodeId(0)).pongs, vec![1, 2]);
    }

    #[test]
    fn busy_cpu_delays_delivery() {
        // A message arriving while the receiver is busy waits for the CPU.
        let mut w = world(2);
        w.post(
            Time::ZERO,
            NodeId(0),
            Msg::Ping {
                from: NodeId(1),
                k: 1,
            },
        );
        w.post(
            Time::ZERO,
            NodeId(0),
            Msg::Ping {
                from: NodeId(1),
                k: 2,
            },
        );
        // Ping handlers charge send CPU; the second send departs after the
        // first. Both pongs go to node 1 whose recv CPU serializes them.
        w.run_to_quiescence(100).unwrap();
        assert_eq!(w.node(NodeId(1)).pongs.len(), 2);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut w = world(2);
        w.post(Time::from_nanos(1_000_000), NodeId(0), Msg::Tick);
        w.post(Time::from_nanos(2_000_000), NodeId(0), Msg::Tick);
        let t = w.run_until(Time::from_nanos(1_500_000));
        assert_eq!(w.node(NodeId(0)).ticks, 1);
        assert_eq!(t, Time::from_nanos(1_500_000));
        assert!(!w.is_quiescent());
    }

    #[test]
    fn event_budget_detects_livelock() {
        // Two nodes ping each other forever.
        struct Loopy;
        impl NodeBehavior<Msg> for Loopy {
            fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
                if let Msg::Ping { from, k } = msg {
                    let me = ctx.me();
                    ctx.send(from, costs(), Msg::Ping { from: me, k });
                }
            }
        }
        let mut w: World<Loopy, Msg> =
            World::new(Machine::new(MachineConfig::paragon(2)), 1, |_, _| Loopy);
        w.post(
            Time::ZERO,
            NodeId(1),
            Msg::Ping {
                from: NodeId(0),
                k: 0,
            },
        );
        assert!(w.run_to_quiescence(50).is_err());
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut w = world(4);
            for i in 0..4u16 {
                w.post(
                    Time::ZERO,
                    NodeId(i % 4),
                    Msg::Ping {
                        from: NodeId((i + 1) % 4),
                        k: i as u32,
                    },
                );
            }
            w.run_to_quiescence(1000).unwrap();
            (
                w.now(),
                w.events_processed(),
                w.stats().counter("net.bytes"),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn charge_compute_is_concurrent_with_messages() {
        let mut w = world(1);
        w.post(Time::ZERO, NodeId(0), Msg::Tick);
        // Drive one handler manually to inspect ctx behaviour.
        struct Probe;
        impl NodeBehavior<Msg> for Probe {
            fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _msg: Msg) {
                let t0 = ctx.now();
                let done = ctx.charge_compute(Dur::from_millis(1));
                assert_eq!(done, t0 + Dur::from_millis(1));
                // The local clock did not advance.
                assert_eq!(ctx.now(), t0);
                ctx.charge_msg_cpu(Dur::from_micros(5));
                assert_eq!(ctx.now(), t0 + Dur::from_micros(5));
            }
        }
        let mut w2: World<Probe, Msg> =
            World::new(Machine::new(MachineConfig::paragon(1)), 1, |_, _| Probe);
        w2.post(Time::ZERO, NodeId(0), Msg::Tick);
        w2.run_to_quiescence(10).unwrap();
        drop(w);
    }
}

#[cfg(test)]
mod send_gated_tests {
    use super::*;
    use crate::machine::MachineConfig;

    enum M {
        Go,
        Note(u64),
    }

    struct Sender {
        notes: Vec<u64>,
    }

    impl NodeBehavior<M> for Sender {
        fn on_message(&mut self, ctx: &mut Ctx<'_, M>, msg: M) {
            match msg {
                M::Go => {
                    let costs = MsgCosts {
                        send_cpu: Dur::from_micros(10),
                        recv_cpu: Dur::from_micros(10),
                        bytes: 32,
                        extra_latency: Dur::ZERO,
                    };
                    // Departure gated far in the future.
                    let gate = Time::from_nanos(5_000_000);
                    ctx.send_gated(NodeId(1), costs, Dur::ZERO, gate, M::Note(1));
                    // Ungated message sent afterwards still arrives first.
                    ctx.send(NodeId(1), costs, M::Note(2));
                }
                M::Note(n) => self.notes.push(n),
            }
        }
    }

    #[test]
    fn a_gate_delays_departure_not_order_of_issue() {
        let mut w: World<Sender, M> =
            World::new(Machine::new(MachineConfig::paragon(2)), 3, |_, _| Sender {
                notes: vec![],
            });
        w.post(Time::ZERO, NodeId(0), M::Go);
        w.run_to_quiescence(100).unwrap();
        assert_eq!(w.node(NodeId(1)).notes, vec![2, 1]);
        assert!(w.now() >= Time::from_nanos(5_000_000));
    }

    #[test]
    fn loopback_send_delivers_to_self() {
        struct Loop {
            got: bool,
        }
        impl NodeBehavior<M> for Loop {
            fn on_message(&mut self, ctx: &mut Ctx<'_, M>, msg: M) {
                match msg {
                    M::Go => {
                        let me = ctx.me();
                        let costs = MsgCosts {
                            send_cpu: Dur::from_micros(1),
                            recv_cpu: Dur::from_micros(1),
                            bytes: 8,
                            extra_latency: Dur::ZERO,
                        };
                        ctx.send(me, costs, M::Note(9));
                    }
                    M::Note(_) => self.got = true,
                }
            }
        }
        let mut w: World<Loop, M> =
            World::new(Machine::new(MachineConfig::paragon(1)), 3, |_, _| Loop {
                got: false,
            });
        w.post(Time::ZERO, NodeId(0), M::Go);
        w.run_to_quiescence(10).unwrap();
        assert!(w.node(NodeId(0)).got);
    }
}

#[cfg(test)]
mod fan_in_tests {
    //! Pins the busy-receiver parking semantics: which handler runs when,
    //! in what order, and how many steps the loop spends getting there.
    //! The expectation in `testdata/fan_in_trace.txt` was recorded on the
    //! commit *before* parked receives became arena handles (when `blocked`
    //! held whole envelopes and an `Event::Wake` stood in for the backlog)
    //! and must never be regenerated to make a queue or `World::step`
    //! change pass.
    use super::*;
    use crate::machine::MachineConfig;
    use rand::Rng;
    use std::cell::RefCell;
    use std::fmt::Write as _;
    use std::rc::Rc;

    const SINK: NodeId = NodeId(0);
    /// Id offsets telling the message kinds apart in the trace.
    const ACK: u32 = 100_000;
    const NOTE: u32 = 200_000;
    const GO: u32 = 900_000;

    /// `Go` kicks a sender into `n` costed `Data` sends to the sink.
    enum Fan {
        Go { id: u32, n: u32 },
        Data { id: u32, from: NodeId },
        Ack { id: u32 },
        Note { id: u32 },
    }

    type Log = Rc<RefCell<Vec<(Time, NodeId, u32)>>>;

    struct FanNode {
        log: Log,
        senders: u32,
    }

    fn costs() -> MsgCosts {
        MsgCosts {
            send_cpu: Dur::from_micros(10),
            recv_cpu: Dur::from_micros(20),
            bytes: 64,
            extra_latency: Dur::ZERO,
        }
    }

    impl NodeBehavior<Fan> for FanNode {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Fan>, msg: Fan) {
            let (me, now) = (ctx.me(), ctx.now());
            let id = match msg {
                Fan::Go { id, .. } => GO + id,
                Fan::Data { id, .. } | Fan::Ack { id } | Fan::Note { id } => id,
            };
            self.log.borrow_mut().push((now, me, id));
            match msg {
                Fan::Go { id, n } => {
                    for j in 0..n {
                        let id = id * 4 + j;
                        ctx.send(SINK, costs(), Fan::Data { id, from: me });
                    }
                }
                Fan::Data { id, from } => {
                    // A send mid-backlog pushes `msg_free` out before the
                    // next waiter's wake is armed.
                    if id % 3 == 0 {
                        ctx.send(from, costs(), Fan::Ack { id: ACK + id });
                    }
                    // Zero-`recv_cpu` deliveries bypass parking however
                    // busy the processor is.
                    if id % 5 == 0 {
                        ctx.post_self(now, Fan::Note { id: NOTE + id });
                    }
                    if id % 7 == 0 {
                        let at = now + Dur::from_micros(3);
                        ctx.post(at, from, Fan::Note { id: 2 * NOTE + id });
                    }
                }
                Fan::Ack { id } => {
                    if id % 2 == 0 {
                        ctx.post(now, SINK, Fan::Note { id: 3 * NOTE + id });
                    }
                }
                // A handler that ran without the processor (zero
                // `recv_cpu`) and then sends: the wake armed for the old
                // `msg_free` fires early and must go back to sleep.
                Fan::Note { id } if me == SINK && id % 2 == 0 => {
                    let to = NodeId(1 + (id % self.senders) as u16);
                    ctx.send(
                        to,
                        costs(),
                        Fan::Ack {
                            id: 4 * NOTE + id + 1,
                        },
                    );
                }
                Fan::Note { .. } => {}
            }
        }
    }

    /// Runs the `k`-way script step by step and renders its trace.
    fn run(k: u16) -> String {
        let log = Log::default();
        let mut w: World<FanNode, Fan> =
            World::new(Machine::new(MachineConfig::paragon(k + 1)), 7, |_, _| {
                FanNode {
                    log: log.clone(),
                    senders: k as u32,
                }
            });
        let mut rng = SmallRng::seed_from_u64(1996 + k as u64);
        for s in 1..=k {
            // Most senders start together so that equidistant ones reach
            // the sink at the same instant.
            let at = [0, 0, 0, 40, 90][rng.gen_range(0..5usize)];
            let n = rng.gen_range(1..4u32);
            let go = Fan::Go { id: s as u32, n };
            w.post(Time::ZERO + Dur::from_micros(at), NodeId(s), go);
        }
        let (mut steps, mut parked, mut peak_live) = (0u64, 0u64, 0usize);
        loop {
            let before = w.events_processed();
            // Every resident payload is accounted for at every step
            // boundary: ticketed, or parked behind a FIFO's head (the head
            // itself holds a ticket and is already counted).
            let waiting = w.blocked.iter().map(|q| q.len().saturating_sub(1));
            let live = w.queue.len() + waiting.sum::<usize>();
            assert_eq!(w.queue.resident(), live, "arena leaked at step {steps}");
            peak_live = peak_live.max(live);
            if !w.step() {
                break;
            }
            steps += 1;
            parked += u64::from(w.events_processed() == before);
        }
        assert!(w.is_quiescent() && w.queue.resident() == 0);
        assert!(w.blocked.iter().all(VecDeque::is_empty));
        assert!(
            w.queue.arena_len() <= peak_live,
            "arena outgrew its peak load"
        );
        let mut out = format!("# k={k}\n");
        for (t, dst, id) in log.borrow().iter() {
            writeln!(out, "{} {} {}", t.as_nanos(), dst.0, id).unwrap();
        }
        let (events, end) = (w.events_processed(), w.now().as_nanos());
        writeln!(
            out,
            "= events {events} steps {steps} parked {parked} end {end}"
        )
        .unwrap();
        out
    }

    #[test]
    fn fan_in_trace_matches_the_recorded_one() {
        let got: String = [1u16, 2, 17, 255].into_iter().map(run).collect();
        let want = include_str!("../testdata/fan_in_trace.txt");
        for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "trace diverges at line {}", n + 1);
        }
        assert_eq!(got.lines().count(), want.lines().count());
    }
}
