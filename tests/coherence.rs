//! Strong-coherence property tests: randomized multi-node access traces
//! checked against a sequential reference memory, for both managers.
//!
//! The paper (§3.5): *"The only coherency model that is currently supported
//! by ASVM is strong coherence, which means that any read operation to a
//! shared memory address will return the data of the most recent write
//! operation to this address."*

mod common;

use cluster::ManagerKind;
use common::{run_trace, TraceOp};
use proptest::prelude::*;

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
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn asvm_is_strongly_coherent(ops in trace_strategy(4, 6, 24)) {
        run_trace(ManagerKind::asvm(), 4, 6, &ops);
    }

    #[test]
    fn xmm_is_strongly_coherent(ops in trace_strategy(3, 4, 16)) {
        run_trace(ManagerKind::xmm(), 3, 4, &ops);
    }

    #[test]
    fn asvm_without_dynamic_forwarding_is_coherent(ops in trace_strategy(4, 6, 16)) {
        run_trace(
            ManagerKind::Asvm(asvm::AsvmConfig::fixed_distributed()),
            4,
            6,
            &ops,
        );
    }

    #[test]
    fn asvm_global_only_is_coherent(ops in trace_strategy(4, 4, 12)) {
        run_trace(ManagerKind::Asvm(asvm::AsvmConfig::global_only()), 4, 4, &ops);
    }
}

/// The minimal failing case the real `proptest` crate once shrank to and
/// saved in `coherence.proptest-regressions` — a file the vendored
/// stand-in never reads, so it lives on as an explicit test: a single cold
/// read, by a node that is not the home, of a page nobody wrote.
#[test]
fn lone_cold_remote_read_regression() {
    let ops = [TraceOp {
        node: 1,
        page: 2,
        write: false,
    }];
    run_trace(ManagerKind::asvm(), 4, 6, &ops);
    run_trace(ManagerKind::xmm(), 3, 4, &ops);
    let fixed = asvm::AsvmConfig::fixed_distributed();
    run_trace(ManagerKind::Asvm(fixed), 4, 6, &ops);
    let global = asvm::AsvmConfig::global_only();
    run_trace(ManagerKind::Asvm(global), 4, 4, &ops);
}

#[test]
fn write_write_conflict_on_one_page() {
    // Two nodes alternately writing one page: maximum ownership ping-pong.
    let ops: Vec<TraceOp> = (0..12)
        .map(|i| TraceOp {
            node: (i % 2) as u16,
            page: 0,
            write: true,
        })
        .collect();
    run_trace(ManagerKind::asvm(), 2, 1, &ops);
    run_trace(ManagerKind::xmm(), 2, 1, &ops);
}

#[test]
fn rotating_writer_many_readers() {
    let mut ops = Vec::new();
    for r in 0..6 {
        ops.push(TraceOp {
            node: r % 4,
            page: 0,
            write: true,
        });
        for n in 0..4 {
            ops.push(TraceOp {
                node: n,
                page: 0,
                write: false,
            });
        }
    }
    run_trace(ManagerKind::asvm(), 4, 1, &ops);
}

#[test]
fn disjoint_pages_do_not_interfere() {
    // Each node hammers its own page; coherence of the final cross-reads
    // exercises read-grant fan-out.
    let mut ops = Vec::new();
    for round in 0..4 {
        for n in 0..4u16 {
            ops.push(TraceOp {
                node: n,
                page: n as u32,
                write: true,
            });
        }
        let _ = round;
    }
    run_trace(ManagerKind::asvm(), 4, 4, &ops);
    run_trace(ManagerKind::xmm(), 4, 4, &ops);
}
