//! The carriage layer's safety net: one small fixed workload over the
//! whole {backend} × {fault plan} matrix, every cell pinned to an exact
//! tuple of simulated numbers. Every protocol message travels in a wire
//! frame of its own (`single` in the row labels).
//!
//! The goldens cover healthy × {STS, NORMA, RDMA} and faulted × {STS,
//! NORMA}; faulted × RDMA was otherwise checked for completion only.
//! `tests/testdata/carriage_table.txt` was recorded on
//! the commit *before* the transport's send paths, the ASVM frame
//! envelopes and the fault seam were each collapsed to one — never
//! regenerate it to make a change to the carriage layer pass: a moved
//! cell means a counter was bumped a different number of times, a link
//! carried a different number of exposed frames, or a cost changed.
//!
//! Its `lossy` and `blackout` rows were re-recorded twice since. First when
//! the failure detector went from all-to-all beacons to one gossip frame
//! per node per period: the beacons are exposed frames, so their number
//! was part of every faulted cell's draw order, message count and timing.
//! Then when each fault decision became a pure function of its link, its
//! frame class and the frame's index on that link (`svmsim::faults`), in
//! the same change that moved ARQ acks after delivery and made an idle
//! watchdog tick free. Since then an extra beacon or ack no longer moves
//! protocol-frame faults at all. Its rows for the deleted coalescing arm
//! are gone, and so is the always-zero `frames=` field (wire frames of
//! coalesced messages).
//!
//! The seven completing `prodcons` rows were re-recorded once more when
//! the ungated readahead policy was deleted: every cell runs prefetch
//! depth 8, which now waits for a confirmed stride and caps its
//! speculation in flight, so the producer/consumer scans issue fewer
//! speculative reads. That is a change of workload, not of carriage. The
//! nine `migratory` rows (their writes never issue speculation) and the
//! two NORMA `INCOHERENT` rows stayed byte-identical; the other healthy
//! rows are the original recording.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use asvm::AsvmConfig;
use cluster::ManagerKind;
use svmsim::{Dur, FaultPlan, NodeId, Time};
use transport::Transport;
use workloads::{run_pattern, Outcome, Pattern, Scenario};

const NODES: u16 = 4;
const PAGES: u32 = 16;
const SEED: u64 = 1996;

fn plans() -> [(&'static str, FaultPlan); 3] {
    [
        ("healthy", FaultPlan::none()),
        (
            "lossy",
            FaultPlan::seeded(SEED)
                .with_drop_ppm(10_000)
                .with_dup_ppm(2_000)
                .with_delay(1_000, Dur::from_millis(2)),
        ),
        (
            "blackout",
            FaultPlan::seeded(SEED).with_blackout(
                NodeId(1),
                Time::ZERO,
                Time::ZERO + Dur::from_millis(20),
            ),
        ),
    ]
}

fn patterns() -> [(&'static str, Pattern); 2] {
    [
        ("prodcons", Pattern::ProducerConsumer { rounds: 3 }),
        ("migratory", Pattern::Migratory { rounds: 2 }),
    ]
}

/// Runs one cell of the matrix.
fn cell(t: Transport, plan: FaultPlan, pattern: Pattern) -> Outcome {
    let cfg = AsvmConfig::with_prefetch(8);
    let sc = Scenario::new(ManagerKind::Asvm(cfg), NODES, SEED)
        .transport(t)
        .faults(plan);
    run_pattern(&sc, PAGES, pattern)
}

/// The pinned tuple of one cell, as one line of the table.
fn line(label: &str, t: Transport, out: &Outcome) -> String {
    let c = |k| out.counter(k);
    let mut s = format!(
        "{label}: done={} elapsed={} events={} net={}/{} backend={}/{}",
        out.completed,
        out.elapsed.as_nanos(),
        out.events,
        c("net.messages"),
        c("net.bytes"),
        c(t.stat_key()),
        c(t.page_stat_key()),
    );
    write!(
        s,
        " asvm.msg={} retry={}/{}/{}/{} fault={}/{}/{}/{} rdma={}/{}/{}/{}/{}",
        out.asvm_msgs(),
        c("asvm.retry.resent"),
        c("asvm.retry.acked"),
        c("asvm.retry.dup_drop"),
        c("asvm.retry.buffered"),
        c("transport.fault.dropped"),
        c("transport.fault.blackout"),
        c("transport.fault.duplicated"),
        c("transport.fault.delayed"),
        c("transport.rdma.read"),
        c("transport.rdma.read_served"),
        c("transport.rdma.read_fallback"),
        c("transport.rdma.prefetch_read"),
        c("transport.rdma.link_setup"),
    )
    .unwrap();
    s
}

fn table() -> String {
    let mut got = String::new();
    for t in [Transport::STS, Transport::NORMA, Transport::RDMA] {
        for (plan_name, plan) in plans() {
            for (pat_name, pattern) in patterns() {
                let label = format!("{}/single/{plan_name}/{pat_name}", t.name());
                // NORMA carrier, producer/consumer under an active plan
                // ends incoherent (ROADMAP item 1's ledger): both such
                // cells, `lossy` and `blackout`. (For one recording `lossy`
                // escaped at this seed by timing luck.) The line is the
                // checker's diagnostic, which a carriage refactor must not
                // move either; the protocol fix is what legitimately
                // replaces it.
                let run = AssertUnwindSafe(|| cell(t, plan.clone(), pattern));
                match catch_unwind(run) {
                    Ok(out) => writeln!(got, "{}", line(&label, t, &out)).unwrap(),
                    Err(panic) => {
                        let why = panic.downcast_ref::<String>().expect("formatted panic");
                        writeln!(got, "{label}: INCOHERENT {why}").unwrap();
                    }
                }
            }
        }
    }
    got
}

#[test]
fn every_cell_matches_the_table_recorded_before_the_collapse() {
    let got = table();
    let want = include_str!("testdata/carriage_table.txt");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "carriage cell moved; full table:\n{got}");
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "carriage matrix changed shape; full table:\n{got}"
    );
}

/// Σ `asvm.msg.*` counts transmissions, not logical messages, once the
/// ARQ channel retransmits (docs/TUNING.md, "Counters";
/// docs/RELIABILITY.md §3): the per-kind counter rides the transport
/// send, so every retransmission bumps it again. Every sequenced frame is
/// acknowledged exactly once by quiescence (no exhaustion here, and these
/// workloads send no loopback protocol messages), so `asvm.retry.acked`
/// is the number of logical messages. This identity is part of
/// `BENCH_faultsweep.json`'s `protocol.messages`.
#[test]
fn per_kind_counters_count_every_transmission() {
    let (_, lossy) = plans().into_iter().nth(1).unwrap();
    let [(_, prodcons), (_, migratory)] = patterns();
    // (NORMA, prodcons) is the table's incoherent shape.
    for (t, pattern) in [
        (Transport::STS, prodcons),
        (Transport::STS, migratory),
        (Transport::NORMA, migratory),
    ] {
        let out = cell(t, lossy.clone(), pattern);
        assert!(out.completed, "{} completes", t.name());
        assert_eq!(out.counter("asvm.retry.exhausted"), 0);
        assert!(
            out.counter("asvm.retry.resent") > 0,
            "{}: the plan must provoke retransmissions",
            t.name()
        );
        // First transmissions *and* retransmissions are counted.
        assert_eq!(
            out.asvm_msgs(),
            out.counter("asvm.retry.acked") + out.counter("asvm.retry.resent"),
            "{}: asvm.msg.* counts every transmission",
            t.name()
        );
    }
}
