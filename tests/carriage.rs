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
//! two NORMA `INCOHERENT` rows stayed byte-identical.
//!
//! The nine `migratory` rows were re-recorded when the new owner of an
//! owner-to-owner transfer stopped repeating the granter's report to the
//! static manager: each row's logical protocol messages fell by 84 (496 →
//! 412 on the healthy rows), again a change of protocol, not of carriage.
//! The `prodcons` rows and the two `INCOHERENT` rows stayed
//! byte-identical; no row is the original recording any more.
//!
//! Six faulted rows were re-recorded when the ARQ channel's first
//! timeout became a per-link round-trip estimate (`asvm::retry`): every
//! retransmission and ack moved, so the STS and NORMA `migratory` rows
//! under `lossy` and `blackout` and both NORMA `prodcons` rows changed.
//! Those two no longer end `INCOHERENT`: a re-roll of their timing, not a
//! fix of ROADMAP ledger 1(d), which `ledger_1d_norma_prodcons_under_loss`
//! still reproduces at another seed. No `healthy` row and no RDMA row
//! moved.

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
        ("lossy", lossy(SEED)),
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

/// The `lossy` plan: 1 % drop, 0.2 % duplication, 0.1 % delayed 2 ms.
fn lossy(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_drop_ppm(10_000)
        .with_dup_ppm(2_000)
        .with_delay(1_000, Dur::from_millis(2))
}

fn patterns() -> [(&'static str, Pattern); 2] {
    [
        ("prodcons", Pattern::ProducerConsumer { rounds: 3 }),
        ("migratory", Pattern::Migratory { rounds: 2 }),
    ]
}

/// Runs one cell of the matrix (the table's are all at `SEED`).
fn cell(seed: u64, t: Transport, plan: FaultPlan, pattern: Pattern) -> Outcome {
    let cfg = AsvmConfig::with_prefetch(8);
    let sc = Scenario::new(ManagerKind::Asvm(cfg), NODES, seed)
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
                // ends incoherent at some seeds (ROADMAP ledger 1(d),
                // pinned by `ledger_1d_norma_prodcons_under_loss` below).
                // At `SEED` both such cells here now complete: `blackout`
                // since the ARQ's first timeout became an estimate,
                // `lossy` since later retransmissions back off from the
                // base again. Both are re-rolls of timing, not fixes. A
                // cell that ends incoherent records the checker's
                // diagnostic, which a carriage refactor must not move
                // either.
                let run = AssertUnwindSafe(|| cell(SEED, t, plan.clone(), pattern));
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
    let [(_, prodcons), (_, migratory)] = patterns();
    // (NORMA, prodcons) is ledger 1(d)'s incoherent shape.
    for (t, pattern) in [
        (Transport::STS, prodcons),
        (Transport::STS, migratory),
        (Transport::NORMA, migratory),
    ] {
        let out = cell(SEED, t, lossy(SEED), pattern);
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

/// ROADMAP ledger 1(d), still open: ASVM over NORMA with prefetch depth
/// 8, producer/consumer under the `lossy` plan, ends with `n0 holds mo1
/// p0 writable while n1 also holds it (Read)` at seed 3. The table's own
/// `lossy` cell showed the same until a change of ARQ timing re-rolled it
/// at `SEED`; this cell keeps the defect in reach. Its fix drops the
/// `ignore`.
#[test]
#[ignore = "open: ROADMAP ledger 1(d)"]
fn ledger_1d_norma_prodcons_under_loss() {
    let [(_, prodcons), _] = patterns();
    let out = cell(3, Transport::NORMA, lossy(3), prodcons);
    assert!(out.completed);
}
