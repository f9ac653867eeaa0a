//! Cross-manager parity: the same randomized workload through both
//! coherence engines, driven via the one `cluster::Engine` surface.
//!
//! Both managers promise the same memory model — strong coherence (paper
//! §3.5) — so any barrier-sequenced trace must leave *identical* visible
//! memory behind under ASVM and XMM, even though the protocols (and their
//! timings) differ completely. The trace runner checks every read against
//! the sequential reference in-band; this test additionally compares the
//! final per-node page contents across the two engines.

mod common;

use cluster::{ManagerKind, Ssi};
use common::{run_trace, TraceOp};
use machvm::{Access, Inherit, PageIdx, TaskId};
use proptest::prelude::*;
use svmsim::{FaultPlan, MachineConfig, NodeId};
use transport::Transport;

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

/// Runs `ops` to completion under `kind` and returns every node's view of
/// every page (what its task observes after the final verification pass).
fn final_memory(kind: ManagerKind, nodes: u16, pages: u32, ops: &[TraceOp]) -> Vec<Option<u64>> {
    let mut ssi = Ssi::new(nodes, kind, 99);
    ssi.enable_trace(96);
    let home = NodeId(0);
    let mobj = ssi.create_object(home, pages, false);
    let tasks: Vec<TaskId> = (0..nodes)
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
    ssi.set_barrier_parties(nodes as u32);
    for n in 0..nodes {
        let steps: Vec<cluster::Step> = ops
            .iter()
            .enumerate()
            .flat_map(|(r, op)| {
                let mine = op.node == n;
                let action = mine.then(|| {
                    if op.write {
                        cluster::Step::Write {
                            va_page: op.page as u64,
                            value: common::round_value(r),
                        }
                    } else {
                        cluster::Step::Read {
                            va_page: op.page as u64,
                        }
                    }
                });
                action
                    .into_iter()
                    .chain(std::iter::once(cluster::Step::Barrier(r as u32)))
            })
            .chain((0..pages).map(|p| cluster::Step::Read { va_page: p as u64 }))
            .chain(std::iter::once(cluster::Step::Done))
            .collect();
        ssi.spawn(
            NodeId(n),
            tasks[n as usize],
            Box::new(cluster::ScriptProgram::new(steps)),
        );
    }
    common::with_trace_dump(&mut ssi, |ssi| {
        ssi.run(200_000_000).expect("parity trace quiesces");
        assert!(ssi.all_done(), "{}: parity trace finishes", kind.label());
    });
    let mut mem = Vec::new();
    for n in 0..nodes {
        for p in 0..pages {
            mem.push(
                ssi.node(NodeId(n))
                    .vm
                    .peek_task_page(tasks[n as usize], p as u64),
            );
        }
    }
    mem
}

/// Per-page protocol state after a run: `(page, owner node, copyset)`.
/// Exactly one node must claim ownership of every page.
type OwnershipMap = Vec<(u32, u16, Vec<u16>)>;

/// Runs `ops` under an ASVM config and returns every node's view of every
/// page plus the final ownership/copyset map. Same trace scaffolding as
/// [`final_memory`], but machine-configurable so a fault plan can ride
/// along.
fn asvm_final_state(
    cfg: asvm::AsvmConfig,
    faults: FaultPlan,
    nodes: u16,
    pages: u32,
    ops: &[TraceOp],
) -> (Vec<Option<u64>>, OwnershipMap) {
    asvm_backend_state(cfg, Transport::STS, faults, nodes, pages, ops)
}

/// [`asvm_final_state`] with the protocol carried on an explicit transport
/// backend (the cross-backend parity check).
fn asvm_backend_state(
    cfg: asvm::AsvmConfig,
    transport: Transport,
    faults: FaultPlan,
    nodes: u16,
    pages: u32,
    ops: &[TraceOp],
) -> (Vec<Option<u64>>, OwnershipMap) {
    let mut mc = MachineConfig::paragon(nodes);
    mc.faults = faults;
    let mut ssi = Ssi::with_machine(mc, ManagerKind::Asvm(cfg), 99);
    ssi.set_asvm_transport(transport);
    let home = NodeId(0);
    let mobj = ssi.create_object(home, pages, false);
    let tasks: Vec<TaskId> = (0..nodes)
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
    ssi.set_barrier_parties(nodes as u32);
    for n in 0..nodes {
        // The verification pass is barrier-sequenced per node (unlike
        // `final_memory`'s concurrent pass): a never-written page gets its
        // first owner minted whenever the first read reaches the static
        // manager, and concurrent final reads would let transport *timing*
        // pick that owner — a harness race, not a protocol property. One
        // reader at a time makes the final ownership map a pure function
        // of the trace, comparable across transports.
        let steps: Vec<cluster::Step> = ops
            .iter()
            .enumerate()
            .flat_map(|(r, op)| {
                let mine = op.node == n;
                let action = mine.then(|| {
                    if op.write {
                        cluster::Step::Write {
                            va_page: op.page as u64,
                            value: common::round_value(r),
                        }
                    } else {
                        cluster::Step::Read {
                            va_page: op.page as u64,
                        }
                    }
                });
                action
                    .into_iter()
                    .chain(std::iter::once(cluster::Step::Barrier(r as u32)))
            })
            .chain((0..nodes).flat_map(|turn| {
                let mine = turn == n;
                mine.then(|| (0..pages).map(|p| cluster::Step::Read { va_page: p as u64 }))
                    .into_iter()
                    .flatten()
                    .chain(std::iter::once(cluster::Step::Barrier(
                        ops.len() as u32 + turn as u32,
                    )))
            }))
            .chain(std::iter::once(cluster::Step::Done))
            .collect();
        ssi.spawn(
            NodeId(n),
            tasks[n as usize],
            Box::new(cluster::ScriptProgram::new(steps)),
        );
    }
    ssi.run(200_000_000).expect("backend parity trace quiesces");
    assert!(ssi.all_done(), "backend parity trace finishes");
    let mut mem = Vec::new();
    for n in 0..nodes {
        for p in 0..pages {
            mem.push(
                ssi.node(NodeId(n))
                    .vm
                    .peek_task_page(tasks[n as usize], p as u64),
            );
        }
    }
    let mut ownership = Vec::new();
    for p in 0..pages {
        let mut owner = None;
        let mut copyset = Vec::new();
        for n in 0..nodes {
            let eng = ssi.node(NodeId(n)).asvm().expect("asvm engine");
            if let Some(pi) = eng.page_info(mobj, PageIdx(p)) {
                if pi.owner {
                    assert!(owner.is_none(), "page {p}: two nodes claim ownership");
                    owner = Some(n);
                    copyset = pi.readers.iter().map(|r| r.0).collect();
                }
            }
        }
        let owner = owner.unwrap_or_else(|| panic!("page {p}: no owner after quiesce"));
        ownership.push((p, owner, copyset));
    }
    (mem, ownership)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The coherence check itself, through both engines: every in-trace and
    /// final read observes the sequential reference value.
    #[test]
    fn both_engines_satisfy_the_same_reference(ops in trace_strategy(3, 4, 14)) {
        run_trace(ManagerKind::asvm(), 3, 4, &ops);
        run_trace(ManagerKind::xmm(), 3, 4, &ops);
    }

    /// Visible memory agrees across engines once the trace settles: both
    /// must match the sequential reference on every resident page. (Which
    /// pages *stay* resident after the final reads is protocol-dependent —
    /// XMM's flush semantics differ from ASVM's read sharing — so `None`
    /// entries are residency artifacts, not coherence violations.)
    #[test]
    fn final_memory_matches_across_engines(ops in trace_strategy(3, 4, 14)) {
        let mut reference = std::collections::BTreeMap::new();
        for (r, op) in ops.iter().enumerate() {
            if op.write {
                reference.insert(op.page, common::round_value(r));
            }
        }
        let asvm = final_memory(ManagerKind::asvm(), 3, 4, &ops);
        let xmm = final_memory(ManagerKind::xmm(), 3, 4, &ops);
        prop_assert_eq!(asvm.len(), xmm.len());
        for (i, (a, x)) in asvm.iter().zip(&xmm).enumerate() {
            let page = (i % 4) as u32;
            let want = reference.get(&page).copied().unwrap_or(0);
            if let Some(v) = a {
                prop_assert_eq!(*v, want, "ASVM node {} page {}", i / 4, page);
            }
            if let Some(v) = x {
                prop_assert_eq!(*v, want, "XMM node {} page {}", i / 4, page);
            }
            if let (Some(a), Some(x)) = (a, x) {
                prop_assert_eq!(a, x);
            }
        }
    }

    /// Prefetch is a latency optimisation, not a semantics change: the
    /// same randomized workload with speculation off and on must reach
    /// identical final memory contents and page ownership — healthy and
    /// under an active fault plan. A
    /// deterministic write prefix mints every page's first owner before
    /// any speculation can reach the static manager; without it, a
    /// speculative read racing the baseline's demand read would mint a
    /// different first owner for a never-written page — a harness
    /// artifact, not a coherence violation. Copysets are *not* compared:
    /// speculative read copies legitimately widen them.
    #[test]
    fn prefetch_preserves_final_state(ops in trace_strategy(3, 6, 12)) {
        let mut full: Vec<TraceOp> = (0..6)
            .map(|p| TraceOp { node: (p % 3) as u16, page: p, write: true })
            .collect();
        full.extend(ops.iter().copied());
        let base = asvm::AsvmConfig::default();
        let streaming = asvm::AsvmConfig::with_prefetch(4);
        let owners = |own: &OwnershipMap| -> Vec<(u32, u16)> {
            own.iter().map(|(p, o, _)| (*p, *o)).collect()
        };
        for faulted in [false, true] {
            let plan = || if faulted {
                FaultPlan::seeded(7).with_drop_ppm(10_000).with_dup_ppm(2_000)
            } else {
                FaultPlan::none()
            };
            let (mem_off, own_off) = asvm_final_state(base, plan(), 3, 6, &full);
            let (mem_s, own_s) = asvm_final_state(streaming, plan(), 3, 6, &full);
            prop_assert_eq!(&mem_off, &mem_s, "prefetch memory diverged (faulted={})", faulted);
            prop_assert_eq!(
                owners(&own_off), owners(&own_s),
                "prefetch ownership diverged (faulted={})", faulted
            );
        }
    }

    /// The transport backend is a carrier, not a protocol: the same
    /// randomized workload over STS, NORMA-IPC, and RDMA must converge to
    /// identical final memory contents, page ownership, and copysets —
    /// healthy and faulted. RDMA is the interesting arm: eligible read
    /// faults go one-sided (zero owner occupancy, no link ARQ, watchdog
    /// re-issue on loss), yet every state transition must match the
    /// two-sided backends exactly.
    #[test]
    fn backends_preserve_final_state(ops in trace_strategy(3, 6, 12)) {
        let base = asvm::AsvmConfig::default();
        for faulted in [false, true] {
            let plan = || if faulted {
                FaultPlan::seeded(7).with_drop_ppm(10_000).with_dup_ppm(2_000)
            } else {
                FaultPlan::none()
            };
            let (mem_sts, own_sts) =
                asvm_backend_state(base, Transport::STS, plan(), 3, 6, &ops);
            let (mem_norma, own_norma) =
                asvm_backend_state(base, Transport::NORMA, plan(), 3, 6, &ops);
            let (mem_rdma, own_rdma) =
                asvm_backend_state(base, Transport::RDMA, plan(), 3, 6, &ops);
            prop_assert_eq!(
                &mem_sts, &mem_norma,
                "STS vs NORMA memory diverged (faulted={})", faulted
            );
            prop_assert_eq!(
                &own_sts, &own_norma,
                "STS vs NORMA ownership diverged (faulted={})", faulted
            );
            prop_assert_eq!(
                &mem_sts, &mem_rdma,
                "STS vs RDMA memory diverged (faulted={})", faulted
            );
            prop_assert_eq!(
                &own_sts, &own_rdma,
                "STS vs RDMA ownership diverged (faulted={})", faulted
            );
        }
    }
}

#[test]
fn parity_on_a_write_heavy_pingpong() {
    let ops: Vec<TraceOp> = (0..10)
        .map(|i| TraceOp {
            node: (i % 3) as u16,
            page: (i % 2) as u32,
            write: i % 3 != 2,
        })
        .collect();
    let asvm = final_memory(ManagerKind::asvm(), 3, 2, &ops);
    let xmm = final_memory(ManagerKind::xmm(), 3, 2, &ops);
    assert_eq!(asvm, xmm);
}
