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

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::disk::{Disk, DiskOp};
use crate::faults::FaultDecision;
use crate::machine::Machine;
use crate::mesh::NodeId;
use crate::queue::EventQueue;
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

struct Envelope<M> {
    dst: NodeId,
    recv_cpu: Dur,
    msg: M,
}

/// One scheduled occurrence: a message delivery, or a wake-up for the
/// head of a node's blocked-receive queue (see [`World::step`]).
enum Event<M> {
    Deliver(Envelope<M>),
    /// Re-examine this node's message processor: if it has freed up,
    /// deliver the oldest blocked message; otherwise go back to sleep
    /// until the new `msg_free`. One such event stands in for the whole
    /// backlog, however deep.
    Wake(NodeId),
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
    queue: EventQueue<Event<M>>,
    /// Per-node FIFO of messages that arrived while the node's message
    /// processor was busy, paired with (at most) one `Event::Wake` per
    /// node in the event queue. See [`World::step`].
    blocked: Vec<VecDeque<Envelope<M>>>,
    stats: Stats,
    hot: HotIds,
    rng: SmallRng,
    /// Dedicated generator for fault-injection decisions, seeded only by
    /// the [`crate::FaultPlan`]. Kept apart from `rng` so enabling the
    /// fault layer with an inactive plan perturbs nothing.
    fault_rng: SmallRng,
    events_processed: u64,
    wall_busy: std::time::Duration,
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
            // near 2·n across 128-1024 nodes (blocked receives park in
            // per-node FIFOs, not the heap), so 4·n leaves 2× headroom;
            // `queue.grow` in BENCH_megascale.json confirms zero
            // steady-state reallocations at this size.
            queue: EventQueue::with_capacity((n * 4).max(1024)),
            blocked: (0..n).map(|_| VecDeque::new()).collect(),
            stats,
            hot,
            rng: SmallRng::seed_from_u64(seed),
            fault_rng: SmallRng::seed_from_u64(machine.config.faults.seed),
            machine,
            events_processed: 0,
            wall_busy: std::time::Duration::ZERO,
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

    /// Wall-clock time spent inside [`World::run_to_quiescence`] and
    /// [`World::run_until`] so far (accumulated across calls).
    pub fn wall_time(&self) -> std::time::Duration {
        self.wall_busy
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

    /// Events processed per wall-clock second of event-loop execution —
    /// the simulator's throughput, surfaced in the benchmark trajectory
    /// output. Zero until the loop has run.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall_busy.as_secs_f64();
        if secs > 0.0 {
            self.events_processed as f64 / secs
        } else {
            0.0
        }
    }

    /// Schedules `msg` for delivery to `dst` at absolute time `at` with no
    /// CPU charge — used to seed the simulation from outside the event loop.
    pub fn post(&mut self, at: Time, dst: NodeId, msg: M) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(
            at,
            Event::Deliver(Envelope {
                dst,
                recv_cpu: Dur::ZERO,
                msg,
            }),
        );
    }

    /// Runs a single event. Returns `false` when the queue is empty.
    ///
    /// Messages that reach a node whose message processor is busy park in
    /// the node's `blocked` FIFO; a single `Event::Wake` per node stands
    /// in for the whole backlog and re-checks `msg_free` each time it
    /// fires, delivering exactly one waiter per free instant. Naively
    /// retrying every waiter at `msg_free` costs O(k²) heap churn at k-way
    /// fan-in — ruinous at kilo-node scale — while service order and
    /// delivery times are the same either way: strict arrival order,
    /// yielding to any send CPU the in-between handlers charge.
    pub fn step(&mut self) -> bool {
        let Some((t, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(t >= self.now, "event queue violated time order");
        self.now = t;
        let (env, from_wake) = match ev {
            Event::Wake(who) => {
                let d = who.index();
                let free = self.cpus[d].msg_free;
                if free > t {
                    // The processor picked up other work (a handler's send,
                    // or a same-instant delivery) after this wake was
                    // scheduled: sleep until it frees again.
                    self.queue.push(free, Event::Wake(who));
                    return true;
                }
                let env = self.blocked[d]
                    .pop_front()
                    .expect("wake fired for a node with no blocked messages");
                (env, true)
            }
            Event::Deliver(env) => {
                let d = env.dst.index();
                if !env.recv_cpu.is_zero() && self.cpus[d].msg_free > t {
                    // Busy receiver: park in arrival order. The first
                    // waiter brings the wake event with it; later ones
                    // just queue behind.
                    if self.blocked[d].is_empty() {
                        self.queue.push(self.cpus[d].msg_free, Event::Wake(env.dst));
                    }
                    self.blocked[d].push_back(env);
                    return true;
                }
                (env, false)
            }
        };
        let me = env.dst;
        let dst = me.index();
        let mut handler_now = t;
        if !env.recv_cpu.is_zero() {
            self.cpus[dst].msg_free = t + env.recv_cpu;
            handler_now = t + env.recv_cpu;
        }
        self.events_processed += 1;
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
            fault_rng: &mut self.fault_rng,
        };
        node.on_message(&mut ctx, env.msg);
        // A delivery consumed off the blocked FIFO consumed its wake too;
        // re-arm for the next waiter once the handler has finished charging
        // this node's processor.
        if from_wake && !self.blocked[dst].is_empty() {
            let at = self.cpus[dst].msg_free;
            self.queue.push(at, Event::Wake(me));
        }
        true
    }

    /// Runs until the queue drains or `budget` events have been processed.
    ///
    /// The budget is a livelock guard: protocol bugs that ping-pong messages
    /// forever fail fast instead of hanging the test suite.
    pub fn run_to_quiescence(&mut self, budget: u64) -> Result<Time, EventBudgetExceeded> {
        let started = std::time::Instant::now();
        let limit = self.events_processed + budget;
        let result = loop {
            if !self.step() {
                break Ok(self.now);
            }
            if self.events_processed > limit {
                break Err(EventBudgetExceeded { budget });
            }
        };
        self.wall_busy += started.elapsed();
        result
    }

    /// Runs until simulated time reaches `until` or the queue drains.
    pub fn run_until(&mut self, until: Time) -> Time {
        let started = std::time::Instant::now();
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            self.step();
        }
        self.wall_busy += started.elapsed();
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
    queue: &'a mut EventQueue<Event<M>>,
    stats: &'a mut Stats,
    hot: HotIds,
    rng: &'a mut SmallRng,
    fault_rng: &'a mut SmallRng,
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

    /// The machine description.
    pub fn machine(&self) -> &Machine {
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
    #[inline]
    fn send_gated(&mut self, dst: NodeId, costs: MsgCosts, extra: Dur, earliest: Time, msg: M) {
        let cpu = &mut self.cpus[self.me.index()];
        let departure = cpu.msg_free.max(self.now) + costs.send_cpu;
        cpu.msg_free = departure;
        let arrival = departure.max(earliest)
            + self.machine.wire_time(self.me, dst, costs.bytes)
            + costs.extra_latency
            + extra;
        self.stats.bump_id(self.hot.net_messages);
        self.stats.add_id(self.hot.net_bytes, costs.bytes as u64);
        self.queue.push(
            arrival,
            Event::Deliver(Envelope {
                dst,
                recv_cpu: costs.recv_cpu,
                msg,
            }),
        );
    }

    /// Samples the fault layer's verdict for one message to `dst` at the
    /// current instant, drawing from the dedicated fault RNG.
    ///
    /// Only the transport's exposed send path calls this, and only when the
    /// machine's [`crate::FaultPlan`] is active — inactive plans never
    /// consume fault randomness, keeping reliable runs byte-identical.
    pub fn fault_decision(&mut self, dst: NodeId) -> FaultDecision {
        self.machine
            .config
            .faults
            .decide(self.now, self.me, dst, self.fault_rng)
    }

    /// Charges the sender side of `costs` and counts the wire statistics
    /// without delivering anything — a message dropped in transit: it left
    /// the NIC and consumed link bandwidth, but no one receives it.
    pub fn charge_send_only(&mut self, costs: MsgCosts) {
        let cpu = &mut self.cpus[self.me.index()];
        cpu.msg_free = cpu.msg_free.max(self.now) + costs.send_cpu;
        self.stats.bump_id(self.hot.net_messages);
        self.stats.add_id(self.hot.net_bytes, costs.bytes as u64);
    }

    /// Like [`Ctx::send`], but the message arrives `extra` later than its
    /// natural arrival time — injected delay (and the late copy of a
    /// duplicated message). Within that window, younger messages on the
    /// same link can overtake it.
    pub fn send_delayed(&mut self, dst: NodeId, costs: MsgCosts, extra: Dur, msg: M) {
        self.send_gated(dst, costs, extra, Time::ZERO, msg);
    }

    /// Like [`Ctx::send`], but the message may not hit the wire before
    /// `earliest` (used by pagers whose reply waits for a disk access).
    ///
    /// The send CPU is charged now — the processor is free to do other
    /// work while the buffered message waits for its gate; only the wire
    /// departure is delayed.
    pub fn send_after(&mut self, earliest: Time, dst: NodeId, costs: MsgCosts, msg: M) {
        self.send_gated(dst, costs, Dur::ZERO, earliest, msg);
    }

    /// Schedules `msg` for local delivery at absolute time `at` with no CPU
    /// charge (timers, task resumptions, deferred work).
    pub fn post_self(&mut self, at: Time, msg: M) {
        debug_assert!(at >= self.now || at >= Time::ZERO);
        self.queue.push(
            at.max(self.now),
            Event::Deliver(Envelope {
                dst: self.me,
                recv_cpu: Dur::ZERO,
                msg,
            }),
        );
    }

    /// Schedules `msg` for delivery to `dst` at absolute time `at` with no
    /// transport cost. Used for intra-kernel hand-offs whose cost has
    /// already been charged by the caller.
    pub fn post(&mut self, at: Time, dst: NodeId, msg: M) {
        self.queue.push(
            at.max(self.now),
            Event::Deliver(Envelope {
                dst,
                recv_cpu: Dur::ZERO,
                msg,
            }),
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
mod send_after_tests {
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
                    ctx.send_after(Time::from_nanos(5_000_000), NodeId(1), costs, M::Note(1));
                    // Ungated message sent afterwards still arrives first.
                    ctx.send(NodeId(1), costs, M::Note(2));
                }
                M::Note(n) => self.notes.push(n),
            }
        }
    }

    #[test]
    fn send_after_delays_departure_not_order_of_issue() {
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
