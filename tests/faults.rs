//! Fault-injection coverage: the ASVM retry channel must hide message
//! drops, duplications and delays from the coherence protocol, and must
//! fail *cleanly* (retry exhaustion, never a hang) when a link is truly
//! dead. Reliability model: `docs/RELIABILITY.md`.
//!
//! The CI fault-matrix job runs this file under two fixed seeds via the
//! `ASVM_FAULTS_SEED` environment variable (default 1996); every fault
//! plan in here folds that seed in, so both runs exercise different
//! injected schedules with the same assertions.

mod common;

use cluster::{ManagerKind, ScriptProgram, Ssi, Step};
use common::{run_trace_faulted, with_trace_dump, TraceOp};
use machvm::{Access, Inherit};
use proptest::prelude::*;
use svmsim::{Dur, FaultPlan, LinkFaults, MachineConfig, NodeId};
use workloads::{run_pattern, Outcome, Pattern, Scenario};

/// Base seed for every fault plan in this file (CI matrix: 1996, 777).
fn fault_seed() -> u64 {
    std::env::var("ASVM_FAULTS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1996)
}

/// `pattern` on `nodes` × `pages` of ASVM over STS under `plan`. A run
/// that completes has passed the quiescence invariants
/// (`Scenario::finish`).
fn faulted(
    kind: ManagerKind,
    nodes: u16,
    pages: u32,
    pattern: Pattern,
    plan: FaultPlan,
) -> Outcome {
    run_pattern(&Scenario::new(kind, nodes, 17).faults(plan), pages, pattern)
}

fn trace_strategy(nodes: u16, pages: u32, max_ops: usize) -> impl Strategy<Value = Vec<TraceOp>> {
    prop::collection::vec(
        (0..nodes, 0..pages, any::<bool>()).prop_map(|(node, page, write)| TraceOp {
            node,
            page,
            write,
        }),
        1..max_ops,
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// Convergence under randomized fault plans: any barrier-sequenced
    /// trace, run under random drop/duplicate/delay rates, still satisfies
    /// the sequential reference on every in-band read and every final
    /// page — no lost pages, no duplicate-apply. Rates stay below the
    /// retry-exhaustion regime (~6 % loss with 6 attempts leaves the
    /// per-frame failure odds around 1e-8).
    #[test]
    fn randomized_fault_plans_converge_to_the_reference(
        ops in trace_strategy(3, 4, 12),
        drop_ppm in 0u32..60_000,
        dup_ppm in 0u32..30_000,
        delay_ppm in 0u32..30_000,
    ) {
        let salt = ((drop_ppm as u64) << 40) ^ ((dup_ppm as u64) << 20) ^ delay_ppm as u64;
        let plan = FaultPlan::seeded(fault_seed() ^ salt)
            .with_drop_ppm(drop_ppm)
            .with_dup_ppm(dup_ppm)
            .with_delay(delay_ppm, Dur::from_millis(2));
        run_trace_faulted(ManagerKind::asvm(), 3, 4, &ops, plan);
    }
}

/// A scripted 100 %-loss link kills every retry: exhaustion must feed the
/// failure detector (the dead peer becomes suspected), and the request
/// watchdog must then carry the stranded reader to completion through the
/// terminal pager re-fetch — a degraded-but-finished run, never a hang.
/// Also the regression test for `Ssi::link_failures` draining: a second
/// poll must come back empty instead of re-reporting the same failures.
#[test]
fn total_loss_exhausts_retries_cleanly() {
    let mut cfg = MachineConfig::paragon(2);
    cfg.faults = FaultPlan::seeded(fault_seed()).with_link(
        NodeId(1),
        NodeId(0),
        LinkFaults {
            drop_ppm: 1_000_000,
            ..LinkFaults::NONE
        },
    );
    let mut ssi = Ssi::with_machine(cfg, ManagerKind::asvm(), 7);
    let mobj = ssi.create_object(NodeId(0), 2, false);
    let writer = ssi.alloc_task();
    let reader = ssi.alloc_task();
    for (t, n) in [(writer, 0u16), (reader, 1u16)] {
        ssi.map_shared(
            t,
            NodeId(n),
            0,
            mobj,
            NodeId(0),
            2,
            Access::Write,
            Inherit::Share,
        );
    }
    ssi.finalize();
    ssi.set_barrier_parties(2);
    ssi.enable_trace(96);
    ssi.spawn(
        NodeId(0),
        writer,
        Box::new(ScriptProgram::new(vec![
            Step::Write {
                va_page: 0,
                value: 7,
            },
            Step::Barrier(0),
            Step::Done,
        ])),
    );
    ssi.spawn(
        NodeId(1),
        reader,
        Box::new(ScriptProgram::new(vec![
            Step::Barrier(0),
            // This fault's PageReq leaves node 1 for the home node over
            // the dead link; every transmission is dropped.
            Step::Read { va_page: 0 },
            Step::Done,
        ])),
    );
    with_trace_dump(&mut ssi, |ssi| {
        ssi.run(50_000_000)
            .expect("exhaustion quiesces, never hangs");
        assert!(
            ssi.stats().counter("asvm.retry.exhausted") >= 1,
            "retries must exhaust"
        );
        // Exhaustion evidence reaches the failure detector…
        assert!(
            ssi.stats().counter("cluster.suspect.count") >= 1,
            "exhaustion must raise suspicion"
        );
        // …and the watchdog's terminal rung re-fetches from the pager
        // (reachable over reliable NORMA-IPC), so the reader finishes —
        // with pager-stale data, which is the documented trade
        // (docs/RELIABILITY.md), hence no value assertion here.
        assert!(
            ssi.stats().counter("asvm.recover.refetch") >= 1,
            "the stranded read must fall back to the pager"
        );
        assert!(
            ssi.all_done(),
            "recovery must carry the reader to completion"
        );
        let failures = ssi.link_failures();
        assert!(!failures.is_empty(), "link failure must be recorded");
        assert_eq!(failures[0].peer, NodeId(0), "the dead link points home");
        // Draining semantics: the first poll consumed the records.
        assert!(
            ssi.link_failures().is_empty(),
            "link_failures must drain, not re-copy"
        );
    });
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// Killing a static ownership-manager node mid-run: a randomly chosen
    /// compute node (which holds the static manager role for its share of
    /// pages) goes permanently dark at a random point in the first 30 ms.
    /// The survivors' barrier-sequenced trace must still converge to the
    /// sequential reference — rehash of the dead manager's roles, watchdog
    /// re-issue and ownership reconstruction all have to work — with no
    /// hung pending requests at quiescence.
    #[test]
    fn static_manager_death_converges_to_the_reference(
        ops in trace_strategy(3, 4, 10),
        victim in 1u16..4,
        dark_ms in 1u64..30,
    ) {
        use svmsim::Time;
        common::run_trace_with_victim(
            4,
            4,
            &ops,
            NodeId(victim),
            Time::from_nanos(dark_ms * 1_000_000),
            fault_seed() ^ (dark_ms << 16) ^ victim as u64,
        );
    }
}

/// Same seed, same plan, same workload: every statistic of a faulted run
/// is reproducible — each fault decision is a pure function of the plan's
/// seed and the frame's link, class and index on that link.
#[test]
fn faulted_runs_are_deterministic() {
    let plan = || {
        FaultPlan::seeded(fault_seed())
            .with_drop_ppm(30_000)
            .with_dup_ppm(10_000)
            .with_delay(10_000, Dur::from_millis(1))
    };
    let run = || {
        let out = faulted(
            ManagerKind::asvm(),
            4,
            8,
            Pattern::Migratory { rounds: 3 },
            plan(),
        );
        (
            out.completed,
            out.faults(),
            out.messages(),
            out.events,
            out.elapsed,
            out.dropped(),
            out.counter("transport.fault.duplicated"),
            out.counter("transport.fault.delayed"),
            out.counter("asvm.retry.resent"),
            out.counter("asvm.retry.exhausted"),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "two identically-seeded faulted runs diverged");
    assert!(a.0, "faulted migratory run completes");
    assert!(a.5 > 0, "3% loss must drop something");
    assert!(a.8 > 0, "drops must provoke retransmissions");
}

/// An inactive plan — even a seeded one — changes nothing: no frame is
/// counted and no decision computed, so results are identical to
/// `FaultPlan::none()` (the stdout byte-identity check in CI relies on
/// this).
#[test]
fn inactive_plans_do_not_perturb_runs() {
    let run = |plan: FaultPlan| {
        let out = faulted(
            ManagerKind::asvm(),
            4,
            8,
            Pattern::ProducerConsumer { rounds: 2 },
            plan,
        );
        (out.faults(), out.messages(), out.events, out.elapsed)
    };
    let baseline = run(FaultPlan::none());
    // Seeded but all rates zero: is_active() is false, nothing changes.
    let seeded = run(FaultPlan::seeded(fault_seed()));
    assert_eq!(baseline, seeded, "inactive seeded plan perturbed the run");
}

/// The price of the recovery layer when nothing goes wrong. A plan that
/// is active but never fires — its one blackout starts long after the run
/// ends — arms everything ROADMAP item 7 would run always (ARQ sequencing
/// and acks, gossip heartbeats, the watchdog tick) and loses nothing. It
/// must fire no fault and no recovery, and slow a migratory run by at most
/// `BOUND` over the healthy one. Measured at every seed (the plan draws
/// nothing): +2.7 % here (8 nodes × 16 pages × 4 rounds), against +9.3 %
/// while every ack left before delivery and every watchdog tick charged a
/// full handling step.
#[test]
fn armed_lossless_plan_costs_little() {
    use svmsim::Time;
    const BOUND: f64 = 1.04;
    let run = |plan| {
        faulted(
            ManagerKind::asvm(),
            8,
            16,
            Pattern::Migratory { rounds: 4 },
            plan,
        )
    };
    let healthy = run(FaultPlan::none()).expect_completed("healthy");
    let never = Time::ZERO + Dur::from_millis(1_000_000);
    let plan = FaultPlan::seeded(fault_seed()).with_blackout(NodeId(1), never, Time::MAX);
    let armed = run(plan).expect_completed("armed, lossless");
    let fired: Vec<_> = (armed.stats.counters())
        .filter(|(k, _)| k.starts_with("transport.fault.") || k.starts_with("asvm.recover."))
        .collect();
    assert!(fired.is_empty(), "a lossless plan fired: {fired:?}");
    assert!(armed.counter("asvm.retry.acked") > 0, "the ARQ channel ran");
    assert!(armed.counter("cluster.hb") > 0, "the detector ran");
    let ratio = armed.elapsed_s() / healthy.elapsed_s();
    assert!(
        ratio < BOUND,
        "armed-but-lossless run is {ratio:.4}× the healthy one (bound {BOUND})"
    );
}

/// Duplicate-heavy traffic: every duplicated frame must be suppressed by
/// the receiver (the protocol would double-apply otherwise), and the
/// coherence checks still hold. XMM control traffic rides reliable
/// NORMA-IPC, so the same trace under XMM is unaffected by the plan.
#[test]
fn duplicates_are_suppressed_not_applied() {
    let plan = FaultPlan::seeded(fault_seed().wrapping_mul(3))
        .with_dup_ppm(200_000)
        .with_delay(100_000, Dur::from_millis(1));
    let ops: Vec<TraceOp> = (0..10)
        .map(|i| TraceOp {
            node: (i % 3) as u16,
            page: (i % 2) as u32,
            write: i % 3 != 2,
        })
        .collect();
    run_trace_faulted(ManagerKind::asvm(), 3, 2, &ops, plan.clone());
    run_trace_faulted(ManagerKind::xmm(), 3, 2, &ops, plan.clone());

    // Counter-level check: the duplicates actually happened and were
    // caught at the receiver.
    let out = faulted(
        ManagerKind::asvm(),
        4,
        8,
        Pattern::Migratory { rounds: 3 },
        plan,
    );
    assert!(out.completed);
    assert!(
        out.counter("transport.fault.duplicated") > 0,
        "20% dup rate must duplicate something"
    );
}

/// A scripted blackout window delays progress but, once it lifts, retries
/// push the workload through to completion.
#[test]
fn blackout_window_recovers_after_it_lifts() {
    use svmsim::Time;
    let plan = FaultPlan::seeded(fault_seed() ^ 0xB1AC).with_blackout(
        NodeId(1),
        Time::ZERO,
        Time::ZERO + Dur::from_millis(20),
    );
    let out = faulted(
        ManagerKind::asvm(),
        4,
        8,
        Pattern::Migratory { rounds: 2 },
        plan,
    );
    assert!(out.completed, "workload must finish after the blackout");
    assert!(out.dropped() > 0, "the blackout must have eaten messages");
    assert!(
        out.counter("asvm.retry.resent") > 0,
        "recovery happens through retransmission"
    );
}

/// ARQ and watchdog timeouts follow the carrier: over NORMA-IPC (≈10× the
/// per-message software cost of STS) the STS-sized 2 ms / 250 ms bounds
/// sat inside one loaded round trip, so queueing alone retransmitted
/// (3 624 resends for 248 drops in the committed ablation cell), the
/// watchdog re-issued requests that were merely slow, and a re-issue
/// racing its live original minted a second owner — 8 of 8 seeds ended
/// incoherent. With `Ssi::set_asvm_transport` stretching the bounds to
/// the carrier's cost, every arm of every seed must complete and pass the
/// quiescence invariants without the watchdog ever firing.
#[test]
fn norma_carrier_stays_coherent_under_loss() {
    for seed in (0..8).map(|i| fault_seed() + i) {
        for (arm, cfg) in [
            ("default", asvm::AsvmConfig::default()),
            ("prefetch 8", asvm::AsvmConfig::with_prefetch(8)),
        ] {
            let plan = FaultPlan::seeded(seed)
                .with_drop_ppm(10_000)
                .with_dup_ppm(2_000);
            let sc = Scenario::new(ManagerKind::Asvm(cfg), 4, seed)
                .transport(transport::Transport::NORMA)
                .faults(plan);
            let pattern = Pattern::Uniform {
                ops: 80,
                write_pct: 30,
            };
            let out = run_pattern(&sc, 16, pattern).expect_completed(arm);
            assert!(out.dropped() > 0, "seed {seed} / {arm}: the plan must bite");
            assert_eq!(
                out.counter("asvm.recover.reissue"),
                0,
                "seed {seed} / {arm}: link loss alone must never look like a dead peer"
            );
        }
    }
}

/// The heartbeat period holds under backlog (`docs/RELIABILITY.md` §7.5):
/// on the NORMA carrier, where one send costs more CPU than a whole STS
/// exchange, the next tick is still a full period after the handler
/// *ended* — never back to back — so a loaded node beacons no more than
/// an idle one: one `cluster.hb` frame per armed node per period.
#[test]
fn heartbeat_period_holds_under_backlog_on_the_norma_carrier() {
    const NODES: u16 = 16;
    const PAGES: u64 = 16;
    let period = Dur::from_millis(5);
    let plan = FaultPlan::seeded(fault_seed())
        .with_drop_ppm(10_000)
        .with_dup_ppm(2_000);
    let sc = Scenario::new(ManagerKind::asvm(), NODES, fault_seed())
        .transport(transport::Transport::NORMA)
        .faults(plan);
    let mut ssi = sc.build();
    let (_, tasks) = Scenario::shared_region(&mut ssi, NODES, PAGES as u32, false);
    for (i, t) in tasks.iter().enumerate() {
        // Everyone walks the whole region from its own page on, writing
        // every third: 16-way contention for every page.
        let steps = (0..PAGES)
            .map(|k| match (i as u64 + k) % PAGES {
                va_page if k % 3 == 0 => Step::Write {
                    va_page,
                    value: k << 8 | i as u64,
                },
                va_page => Step::Read { va_page },
            })
            .collect();
        Scenario::spawn_script(&mut ssi, NodeId(i as u16), *t, steps);
    }
    // A node's own counter moves exactly when it handles an `HbTick`.
    let mut ticked = [(0u64, svmsim::Time::ZERO); NODES as usize];
    while ssi.world.step() {
        let now = ssi.world.now();
        for (n, (beat, at)) in ticked.iter_mut().enumerate() {
            let b = ssi.node(NodeId(n as u16)).detector.beat();
            if b != *beat {
                assert!(
                    *beat == 0 || now.since(*at) >= period,
                    "n{n}: tick {b} at {now}, {} after the previous",
                    now.since(*at)
                );
                (*beat, *at) = (b, now);
            }
        }
    }
    let out = sc
        .finish(ssi, svmsim::Time::ZERO)
        .expect_completed("16-way contention over norma");
    let periods = out.elapsed.as_nanos().div_ceil(period.as_nanos());
    let beacons = out.counter("cluster.hb");
    assert!(beacons >= periods, "the detector must have run: {beacons}");
    assert!(
        beacons <= periods * NODES as u64,
        "{beacons} beacons in {periods} periods on {NODES} nodes"
    );
}
