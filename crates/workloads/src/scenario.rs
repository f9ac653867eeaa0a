//! One cluster configuration, one place a run is built, one place it is
//! drained.
//!
//! The paper's §4 evaluation is one method applied many times: build a
//! cluster, run it to quiescence, read counters. A [`Scenario`] is the
//! *where* of that method — machine, manager, ASVM carrier, fault plan,
//! seed, per-touch think time — and every workload shape in this crate
//! (and every bespoke cell of the `bench` driver) goes through its two
//! ends: [`Scenario::build`] is the only place an [`Ssi`] is constructed,
//! [`Scenario::finish`] the only place a finished run is checked against
//! the quiescence invariants and drained into an [`Outcome`].

use cluster::{ManagerKind, ScriptProgram, Ssi, Step};
use machvm::{Access, Inherit, MemObjId, TaskId};
use svmsim::{Dur, FaultPlan, MachineConfig, NodeId, Stats, Time};
use transport::Transport;

/// Where a workload runs.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Node count, memory sizes, cost model and fault plan.
    pub machine: MachineConfig,
    /// Which distributed memory manager runs the cluster.
    pub kind: ManagerKind,
    /// Transport carrying the ASVM protocol (STS unless overridden).
    pub transport: Transport,
    /// Workload seed: seeded workloads derive their access streams from
    /// it. The simulator itself consumes none of it.
    pub seed: u64,
    /// Modeled compute after every memory touch of [`crate::run_pattern`].
    /// Back-to-back streams (`Dur::ZERO`) race ahead of in-flight
    /// readahead fills and book extra near-zero-latency faults, so fault
    /// counts become sensitive to fill *arrival spacing*; a realistic
    /// think time makes the fault denominator depend only on the access
    /// pattern, which is what a messages-per-fault comparison needs.
    pub think: Dur,
}

impl Scenario {
    /// `kind` on a healthy Paragon of `nodes` compute nodes, ASVM over
    /// STS, back-to-back accesses.
    pub fn new(kind: ManagerKind, nodes: u16, seed: u64) -> Scenario {
        Scenario {
            machine: MachineConfig::paragon(nodes),
            kind,
            transport: Transport::STS,
            seed,
            think: Dur::ZERO,
        }
    }

    /// Replaces the whole machine (memory sizes, I/O nodes, cost model,
    /// fault plan).
    pub fn machine(mut self, machine: MachineConfig) -> Scenario {
        self.machine = machine;
        self
    }

    /// Carries the ASVM protocol on `t`.
    pub fn transport(mut self, t: Transport) -> Scenario {
        self.transport = t;
        self
    }

    /// Arms `plan` on the interconnect.
    pub fn faults(mut self, plan: FaultPlan) -> Scenario {
        self.machine.faults = plan;
        self
    }

    /// Sets the per-touch think time.
    pub fn think(mut self, think: Dur) -> Scenario {
        self.think = think;
        self
    }

    /// Builds the cluster. The only `Ssi` construction site of the
    /// evaluation code.
    pub fn build(&self) -> Ssi {
        let mut ssi = Ssi::with_machine(self.machine.clone(), self.kind, self.seed);
        ssi.set_asvm_transport(self.transport);
        ssi
    }

    /// Drains a quiesced run into its [`Outcome`]; `since` is when the
    /// measured phase began (`Time::ZERO` for a whole run; the workload
    /// resets the statistics at the same instant).
    ///
    /// A run whose tasks all finished must satisfy the cross-node
    /// quiescence invariants ([`cluster::validate`]) among the nodes
    /// still lit at the end of the plan, and a run under an inactive
    /// plan must not have touched the recovery layer at all.
    ///
    /// # Panics
    ///
    /// Panics with the checker's diagnostic if an invariant is violated.
    pub fn finish(&self, mut ssi: Ssi, since: Time) -> Outcome {
        let completed = ssi.all_done();
        let now = ssi.world.now();
        if completed {
            match self.kind {
                ManagerKind::Asvm(_) => {
                    let dark: Vec<NodeId> = self
                        .machine
                        .faults
                        .blackouts
                        .iter()
                        .filter(|b| b.until > now)
                        .map(|b| b.node)
                        .collect();
                    cluster::check_asvm_invariants_except(&ssi, &dark);
                }
                ManagerKind::Xmm { .. } => cluster::check_xmm_invariants(&ssi),
            }
        }
        let probe = StateProbe::read(&ssi);
        let events = ssi.world.events_processed();
        let mut nodes = ssi.world.machine().compute_nodes();
        let shared_node = nodes.any(|n| ssi.node(n).tasks_done > 1);
        let stats = std::mem::take(ssi.world.stats_mut());
        if !self.machine.faults.is_active() {
            // The whole recovery layer is gated on the fault plan: a
            // healthy run must not arm heartbeats, suspect anyone, or
            // re-issue anything — otherwise baseline results would stop
            // being byte-identical to a build without the recovery layer.
            // One exception: `asvm.recover.stale_grant` also absorbs the
            // benign same-node upgrade race — task A's read request is in
            // flight when task B write-faults the same page, the write
            // request supersedes the pending read, and the late read
            // grant is dropped as a duplicate. Only a node that hosted
            // several tasks (the tenants shape) is allowed it.
            for (key, v) in stats.counters() {
                let recovery =
                    key.starts_with("asvm.recover.") || key.starts_with("cluster.suspect.");
                assert!(
                    !recovery || (shared_node && key == "asvm.recover.stale_grant"),
                    "healthy run bumped recovery counter {key} = {v}"
                );
            }
        }
        Outcome {
            completed,
            elapsed: now.since(since),
            events,
            stats,
            probe,
        }
    }

    /// The setup most shapes share: one `pages`-page object homed on node
    /// 0, mapped read/write at address 0 by one fresh task on each of the
    /// first `nodes` compute nodes (task `i` on node `i`), membership
    /// finalized.
    pub fn shared_region(
        ssi: &mut Ssi,
        nodes: u16,
        pages: u32,
        populated: bool,
    ) -> (MemObjId, Vec<TaskId>) {
        let home = NodeId(0);
        let mobj = ssi.create_object(home, pages, populated);
        let tasks = (0..nodes)
            .map(|n| {
                let t = ssi.alloc_task();
                ssi.map_shared(
                    t,
                    NodeId(n),
                    0,
                    mobj,
                    home,
                    pages,
                    Access::Write,
                    Inherit::Share,
                );
                t
            })
            .collect();
        ssi.finalize();
        (mobj, tasks)
    }

    /// Runs `steps` (plus a final `Done`) as `task` on `node`, to
    /// quiescence — one phase of a scripted probe.
    pub fn run_script(ssi: &mut Ssi, node: NodeId, task: TaskId, steps: Vec<Step>) {
        Self::spawn_script(ssi, node, task, steps);
        ssi.run(u64::MAX / 2).expect("scripted phase quiesces");
    }

    /// Starts `steps` (plus a final `Done`) as `task` on `node` without
    /// running the cluster.
    pub fn spawn_script(ssi: &mut Ssi, node: NodeId, task: TaskId, mut steps: Vec<Step>) {
        steps.push(Step::Done);
        ssi.spawn(node, task, Box::new(ScriptProgram::new(steps)));
    }
}

/// Protocol-state and event-queue gauges read from a finished run.
///
/// The paper's scaling argument is about *memory*, not just messages: an
/// ASVM node's protocol state (ownership records, copyset entries, hint
/// caches) is bounded by the pages it actually uses, while the XMM
/// baseline's centralized manager keeps a lock-state table of one entry
/// per page *per using node* — state that grows linearly with the
/// cluster. The probe reads both through
/// [`cluster::Engine::state_bytes`], so the `megascale`
/// experiment can plot the ASVM-flat vs. XMM-growing curve directly. The
/// queue fields are the telemetry behind the event queue's
/// pre-reservation heuristic.
#[derive(Clone, Copy, Debug, Default)]
pub struct StateProbe {
    /// Largest per-node protocol state across the compute nodes, bytes.
    /// Under XMM this is the manager node; under ASVM it is whichever
    /// node owns the most pages.
    pub state_max_bytes: u64,
    /// Mean per-node protocol state across the compute nodes, bytes.
    pub state_mean_bytes: u64,
    /// Total protocol state across the compute nodes, bytes.
    pub state_total_bytes: u64,
    /// High-water mark of simultaneously pending events.
    pub queue_peak: u64,
    /// Event-queue pushes that outgrew the pre-reserved capacity (each
    /// implies a heap reallocation; zero means the sizing heuristic held).
    pub queue_grow: u64,
}

impl StateProbe {
    fn read(ssi: &Ssi) -> StateProbe {
        let mut max = 0u64;
        let mut total = 0u64;
        let mut nodes = 0u64;
        for id in ssi.world.machine().compute_nodes() {
            let b = ssi.node(id).engine.state_bytes();
            max = max.max(b);
            total += b;
            nodes += 1;
        }
        StateProbe {
            state_max_bytes: max,
            state_mean_bytes: total / nodes.max(1),
            state_total_bytes: total,
            queue_peak: ssi.world.queue_peak() as u64,
            queue_grow: ssi.world.queue_grow_events(),
        }
    }
}

/// What a finished run leaves behind: the one result type of every
/// workload shape. Anything a counter, tally or histogram recorded is in
/// [`Outcome::stats`]; the methods are the derived figures the
/// experiments report.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Whether every task finished (retry exhaustion, or an exhausted
    /// watchdog on a backend without link-level ARQ, legally strands
    /// waiters under an active fault plan).
    pub completed: bool,
    /// Simulated time the measured phase covered.
    pub elapsed: Dur,
    /// Simulator events processed since the cluster was built.
    pub events: u64,
    /// Every statistic of the measured phase, owned.
    pub stats: Stats,
    /// Per-node protocol-state bytes and event-queue telemetry.
    pub probe: StateProbe,
}

impl Outcome {
    /// Asserts the run completed.
    ///
    /// # Panics
    ///
    /// Panics naming `what` and the retry/recovery counters if tasks were
    /// stranded.
    pub fn expect_completed(self, what: &str) -> Outcome {
        let recovery =
            |(k, _): &(&str, u64)| k.starts_with("asvm.re") || k.starts_with("cluster.suspect.");
        assert!(
            self.completed,
            "{what} must complete: {:?}",
            self.stats.counters().filter(recovery).collect::<Vec<_>>()
        );
        self
    }

    /// Value of counter `key` (zero if never bumped).
    pub fn counter(&self, key: &'static str) -> u64 {
        self.stats.counter(key)
    }

    /// Simulated seconds of the measured phase.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }

    /// Page faults completed.
    pub fn faults(&self) -> u64 {
        self.stats.tally("fault.ms").map_or(0, |t| t.count)
    }

    /// Mean fault latency.
    pub fn mean_fault(&self) -> Dur {
        self.stats.tally("fault.ms").map_or(Dur::ZERO, |t| t.mean())
    }

    /// Mean fault latency, milliseconds.
    pub fn mean_fault_ms(&self) -> f64 {
        self.mean_fault().as_millis_f64()
    }

    /// Total fault stall (faults × mean latency), milliseconds — the
    /// page-wait cost a workload actually pays. Mean latency alone
    /// misreads readahead: averting a scan's cheap faults *raises* the
    /// mean of the remaining ones even as total waiting falls.
    pub fn stall_ms(&self) -> f64 {
        self.faults() as f64 * self.mean_fault_ms()
    }

    /// Messages sent on any transport backend.
    pub fn messages(&self) -> u64 {
        self.counter("sts.messages")
            + self.counter("norma.messages")
            + self.counter("rdma.messages")
    }

    /// Page-carrying messages sent on the paper's two transports.
    pub fn page_messages(&self) -> u64 {
        self.counter("sts.page_messages") + self.counter("norma.page_messages")
    }

    /// Messages the fault layer dropped (loss + blackout).
    pub fn dropped(&self) -> u64 {
        self.counter("transport.fault.dropped") + self.counter("transport.fault.blackout")
    }

    /// ASVM protocol messages (Σ `asvm.msg.*`).
    pub fn asvm_msgs(&self) -> u64 {
        self.stats
            .counters()
            .filter(|(k, _)| k.starts_with("asvm.msg."))
            .map(|(_, v)| v)
            .sum()
    }

    /// Demand faults per thousand memory accesses — the prefetch
    /// ablation's headline rate (`BENCH_prefetch.json`); pass the
    /// pattern's analytic [`crate::Pattern::accesses`] count.
    pub fn faults_per_kilo_access(&self, accesses: u64) -> f64 {
        ratio(self.faults() * 1000, accesses)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_pattern, Pattern};

    #[test]
    fn probe_reads_nonzero_state_after_sharing() {
        let run = |kind| {
            run_pattern(
                &Scenario::new(kind, 4, 17),
                8,
                Pattern::ProducerConsumer { rounds: 2 },
            )
            .expect_completed("prodcons")
            .probe
        };
        let (asvm, xmm) = (run(ManagerKind::asvm()), run(ManagerKind::xmm()));
        assert!(asvm.state_max_bytes > 0);
        assert!(xmm.state_max_bytes > 0);
        assert!(asvm.state_max_bytes >= asvm.state_mean_bytes);
        assert!(xmm.queue_peak > 0);
    }

    #[test]
    fn ratios_are_zero_without_faults() {
        let sc = Scenario::new(ManagerKind::asvm(), 2, 1);
        let out = sc.finish(sc.build(), Time::ZERO);
        assert!(out.completed);
        assert_eq!(out.faults(), 0);
        assert_eq!(out.faults_per_kilo_access(0), 0.0);
    }
}
