//! End-to-end tests driving full clusters through the public facade.

use asvm::{AsvmMsg, PageRange, QueuedReq, ReqKind, ReqPath};
use machvm::{
    Access, Backing, EmmiToPager, Inherit, MemObjId, PageData, PageIdx, PagerSend, TaskId,
    VmEffect, VmObjId,
};
use svmsim::{Dur, FaultPlan, MachineConfig, NodeId, Time, TraceRing};

use crate::engine::{EngineFx, TraceDir};
use crate::msg::{Msg, ObjInfo};
use crate::program::{ScriptProgram, Step};
use crate::ssi::{ManagerKind, Ssi};

const BUDGET: u64 = 2_000_000;

fn setup_shared(
    kind: ManagerKind,
    nodes: u16,
    size_pages: u32,
) -> (Ssi, machvm::MemObjId, Vec<TaskId>) {
    let mut ssi = Ssi::new(nodes, kind, 42);
    let mobj = ssi.create_object(NodeId(0), size_pages, false);
    let mut tasks = Vec::new();
    for n in 0..nodes {
        let t = ssi.alloc_task();
        ssi.map_shared(
            t,
            NodeId(n),
            0,
            mobj,
            NodeId(0),
            size_pages,
            Access::Write,
            Inherit::Share,
        );
        tasks.push(t);
    }
    ssi.finalize();
    (ssi, mobj, tasks)
}

fn write_then_read(kind: ManagerKind) {
    let (mut ssi, _mobj, tasks) = setup_shared(kind, 2, 8);
    ssi.set_barrier_parties(2);
    // Task 0 on node 0 writes page 3, then hits the barrier.
    ssi.spawn(
        NodeId(0),
        tasks[0],
        Box::new(ScriptProgram::new(vec![
            Step::Write {
                va_page: 3,
                value: 0xBEEF,
            },
            Step::Barrier(1),
            Step::Done,
        ])),
    );
    // Task 1 on node 1 waits, then reads page 3.
    ssi.spawn(
        NodeId(1),
        tasks[1],
        Box::new(ScriptProgram::new(vec![
            Step::Barrier(1),
            Step::Read { va_page: 3 },
            Step::Done,
        ])),
    );
    ssi.run(BUDGET).expect("must quiesce");
    assert!(ssi.all_done(), "all tasks must finish");
    // Verify the read observed the write: re-read node 1's VM state.
    let n1 = ssi.node(NodeId(1));
    assert!(n1.vm.can_access(tasks[1], 3, Access::Read));
}

#[test]
fn asvm_write_then_read_across_nodes() {
    write_then_read(ManagerKind::asvm());
}

#[test]
fn xmm_write_then_read_across_nodes() {
    write_then_read(ManagerKind::xmm());
}

fn coherence_ping_pong(kind: ManagerKind) {
    let (mut ssi, _mobj, tasks) = setup_shared(kind, 2, 4);
    ssi.set_barrier_parties(2);
    // Node 0: write v1, barrier, barrier, write v2, barrier.
    ssi.spawn(
        NodeId(0),
        tasks[0],
        Box::new(ScriptProgram::new(vec![
            Step::Write {
                va_page: 0,
                value: 1,
            },
            Step::Barrier(1),
            Step::Barrier(2),
            Step::Write {
                va_page: 0,
                value: 2,
            },
            Step::Barrier(3),
            Step::Done,
        ])),
    );
    // Node 1: barrier, read (must be 1), barrier, barrier, read (must be 2).
    ssi.spawn(
        NodeId(1),
        tasks[1],
        Box::new(ScriptProgram::new(vec![
            Step::Barrier(1),
            Step::Read { va_page: 0 },
            Step::Barrier(2),
            Step::Barrier(3),
            Step::Read { va_page: 0 },
            Step::Done,
        ])),
    );
    ssi.run(BUDGET).expect("must quiesce");
    assert!(ssi.all_done());
    let n1 = ssi.node(NodeId(1));
    let v = n1.vm.peek_task_page(tasks[1], 0);
    assert_eq!(v, Some(2), "reader must observe the second write");
}

#[test]
fn asvm_strong_coherence_ping_pong() {
    coherence_ping_pong(ManagerKind::asvm());
}

#[test]
fn xmm_strong_coherence_ping_pong() {
    coherence_ping_pong(ManagerKind::xmm());
}

#[test]
fn asvm_many_readers_one_writer() {
    let n = 8u16;
    let (mut ssi, mobj, tasks) = setup_shared(ManagerKind::asvm(), n, 4);
    ssi.set_barrier_parties(n as u32);
    ssi.spawn(
        NodeId(0),
        tasks[0],
        Box::new(ScriptProgram::new(vec![
            Step::Write {
                va_page: 1,
                value: 77,
            },
            Step::Barrier(1),
            Step::Barrier(2),
            Step::Done,
        ])),
    );
    for i in 1..n {
        ssi.spawn(
            NodeId(i),
            tasks[i as usize],
            Box::new(ScriptProgram::new(vec![
                Step::Barrier(1),
                Step::Read { va_page: 1 },
                Step::Barrier(2),
                Step::Done,
            ])),
        );
    }
    ssi.run(BUDGET).expect("must quiesce");
    assert!(ssi.all_done());
    // Exactly one owner; every reader is in its reader list.
    let mut owners = 0;
    let mut readers = 0;
    for i in 0..n {
        let node = ssi.node(NodeId(i));
        if let Some(pi) = node
            .asvm()
            .and_then(|a| a.page_info(mobj, machvm::PageIdx(1)))
        {
            if pi.owner {
                owners += 1;
                readers = pi.readers.len();
            }
        }
    }
    assert_eq!(owners, 1, "exactly one owner per page");
    assert!(readers >= (n as usize) - 2, "owner tracks the readers");
    for i in 1..n {
        assert_eq!(
            ssi.node(NodeId(i)).vm.peek_task_page(tasks[i as usize], 1),
            Some(77)
        );
    }
}

#[test]
fn asvm_write_invalidates_readers() {
    let n = 4u16;
    let (mut ssi, mobj, tasks) = setup_shared(ManagerKind::asvm(), n, 4);
    ssi.set_barrier_parties(n as u32);
    // Everyone reads; then node 3 writes; then everyone re-reads.
    for i in 0..n {
        let mut steps = vec![Step::Read { va_page: 0 }, Step::Barrier(1)];
        if i == 3 {
            steps.push(Step::Write {
                va_page: 0,
                value: 5,
            });
        }
        steps.push(Step::Barrier(2));
        steps.push(Step::Read { va_page: 0 });
        steps.push(Step::Done);
        ssi.spawn(
            NodeId(i),
            tasks[i as usize],
            Box::new(ScriptProgram::new(steps)),
        );
    }
    ssi.run(BUDGET).expect("must quiesce");
    assert!(ssi.all_done());
    for i in 0..n {
        assert_eq!(
            ssi.node(NodeId(i)).vm.peek_task_page(tasks[i as usize], 0),
            Some(5),
            "node {i} must see the write"
        );
    }
    // Single-writer-or-multiple-readers: after the final reads, the owner
    // must hold the page read-only (it granted read copies).
    let owners: Vec<_> = (0..n)
        .filter_map(|i| {
            ssi.node(NodeId(i))
                .asvm()
                .and_then(|a| a.page_info(mobj, machvm::PageIdx(0)))
                .filter(|pi| pi.owner)
                .map(|pi| (i, pi.access))
        })
        .collect();
    assert_eq!(owners.len(), 1);
}

#[test]
fn asvm_fault_latency_in_expected_range() {
    // Sanity check against Table 1's order of magnitude: a remote write
    // fault should cost single-digit milliseconds, not micro or hundreds.
    let (mut ssi, _mobj, tasks) = setup_shared(ManagerKind::asvm(), 2, 4);
    ssi.set_barrier_parties(2);
    ssi.spawn(
        NodeId(0),
        tasks[0],
        Box::new(ScriptProgram::new(vec![
            Step::Write {
                va_page: 0,
                value: 1,
            },
            Step::Barrier(1),
            Step::Done,
        ])),
    );
    ssi.spawn(
        NodeId(1),
        tasks[1],
        Box::new(ScriptProgram::new(vec![
            Step::Barrier(1),
            Step::Write {
                va_page: 0,
                value: 2,
            },
            Step::Done,
        ])),
    );
    ssi.run(BUDGET).expect("must quiesce");
    let tally = ssi.stats().tally("fault.ms").expect("faults happened");
    assert!(tally.count >= 2);
    let mean_ms = tally.mean().as_millis_f64();
    assert!(
        mean_ms > 0.2 && mean_ms < 50.0,
        "fault latency {mean_ms} ms out of plausible range"
    );
}

#[test]
fn xmm_first_remote_read_pays_paging_space_write() {
    // The paper: "XMM writes a dirty page to the paging space when it is
    // requested for the first time by another node" — so the first remote
    // read of a dirty page costs tens of ms (disk), later ones do not.
    let (mut ssi, _mobj, tasks) = setup_shared(ManagerKind::xmm(), 3, 4);
    ssi.set_barrier_parties(3);
    ssi.spawn(
        NodeId(0),
        tasks[0],
        Box::new(ScriptProgram::new(vec![
            Step::Write {
                va_page: 0,
                value: 9,
            },
            Step::Barrier(1),
            Step::Barrier(2),
            Step::Done,
        ])),
    );
    ssi.spawn(
        NodeId(1),
        tasks[1],
        Box::new(ScriptProgram::new(vec![
            Step::Barrier(1),
            Step::Read { va_page: 0 }, // first remote request: disk write
            Step::Barrier(2),
            Step::Done,
        ])),
    );
    ssi.spawn(
        NodeId(2),
        tasks[2],
        Box::new(ScriptProgram::new(vec![
            Step::Barrier(1),
            Step::Barrier(2),
            Step::Read { va_page: 0 }, // second remote request: no disk
            Step::Done,
        ])),
    );
    ssi.run(BUDGET).expect("must quiesce");
    assert!(ssi.all_done());
    assert_eq!(ssi.node(NodeId(1)).vm.peek_task_page(tasks[1], 0), Some(9));
    assert_eq!(ssi.node(NodeId(2)).vm.peek_task_page(tasks[2], 0), Some(9));
    // At least one paging-space (file) disk write happened on the I/O node.
    assert!(ssi.stats().counter("disk.writes") >= 1);
}

/// A program that forks a child inheriting shared memory, then both sides
/// communicate through it.
#[test]
fn fork_with_shared_region_connects_parent_and_child() {
    for kind in [ManagerKind::asvm(), ManagerKind::xmm()] {
        let mut ssi = Ssi::new(2, kind, 4);
        let mobj = ssi.create_object(NodeId(0), 4, false);
        let parent = ssi.alloc_task();
        ssi.map_shared(
            parent,
            NodeId(0),
            0,
            mobj,
            NodeId(0),
            4,
            Access::Write,
            Inherit::Share,
        );
        ssi.finalize();
        ssi.set_barrier_parties(2);

        // The closed trait, same on both engines: registering a known
        // object again returns the same VM object and emits nothing.
        let info = ObjInfo {
            size_pages: 4,
            home: NodeId(0),
            pager_node: ssi.pager_node_for(NodeId(0)),
            cfg: asvm::AsvmConfig::default(),
            peer: None,
            source: None,
        };
        let n0 = ssi.world.node_mut(NodeId(0));
        let known = n0.engine.vm_obj_of(mobj).expect("mapped at setup");
        let mut fx = EngineFx::default();
        let again = n0.engine.ensure_object(&mut n0.vm, mobj, &info, &mut fx);
        assert_eq!(again, known, "{}: second register", kind.label());
        assert!(fx.is_drained(), "{}: second register emits", kind.label());
        assert_eq!(n0.engine.mobj_of(known), Some(mobj));

        let child_task = machvm::TaskId(7001);
        // Parent: write, fork (Share inheritance), barrier, read child's
        // reply.
        ssi.spawn(
            NodeId(0),
            parent,
            Box::new(ScriptProgram::new(vec![
                Step::Write {
                    va_page: 0,
                    value: 0xA,
                },
                Step::Fork {
                    child: child_task,
                    node: NodeId(1),
                    program: Box::new(ScriptProgram::new(vec![
                        Step::Read { va_page: 0 },
                        Step::Write {
                            va_page: 1,
                            value: 0xB,
                        },
                        Step::Barrier(1),
                        Step::Done,
                    ])),
                },
                Step::Barrier(1),
                Step::Read { va_page: 1 },
                Step::Done,
            ])),
        );
        ssi.run(50_000_000).expect("quiesces");
        assert!(ssi.all_done(), "{}: fork+share completes", kind.label());
        // Parent observed the child's write through the shared object.
        assert_eq!(
            ssi.node(NodeId(0)).vm.peek_task_page(parent, 1),
            Some(0xB),
            "{}: parent must see the child's shared write",
            kind.label()
        );
        assert_eq!(
            ssi.node(NodeId(1)).vm.peek_task_page(child_task, 0),
            Some(0xA),
            "{}: child must see the parent's shared write",
            kind.label()
        );
    }
}

#[test]
fn barriers_are_reusable_across_many_rounds() {
    let n = 3u16;
    let (mut ssi, _mobj, tasks) = setup_shared(ManagerKind::asvm(), n, 2);
    ssi.set_barrier_parties(n as u32);
    for i in 0..n {
        let steps: Vec<Step> = (0..20).map(Step::Barrier).chain([Step::Done]).collect();
        ssi.spawn(
            NodeId(i),
            tasks[i as usize],
            Box::new(ScriptProgram::new(steps)),
        );
    }
    ssi.run(10_000_000).expect("quiesces");
    assert!(ssi.all_done(), "20 barrier rounds complete");
}

#[test]
fn two_objects_do_not_interfere() {
    let mut ssi = Ssi::new(2, ManagerKind::asvm(), 6);
    let m1 = ssi.create_object(NodeId(0), 4, false);
    let m2 = ssi.create_object(NodeId(1), 4, false);
    let t0 = ssi.alloc_task();
    let t1 = ssi.alloc_task();
    for (t, node) in [(t0, NodeId(0)), (t1, NodeId(1))] {
        ssi.map_shared(t, node, 0, m1, NodeId(0), 4, Access::Write, Inherit::Share);
        ssi.map_shared(
            t,
            node,
            100,
            m2,
            NodeId(1),
            4,
            Access::Write,
            Inherit::Share,
        );
    }
    ssi.finalize();
    ssi.set_barrier_parties(2);
    ssi.spawn(
        NodeId(0),
        t0,
        Box::new(ScriptProgram::new(vec![
            Step::Write {
                va_page: 0,
                value: 1,
            },
            Step::Write {
                va_page: 100,
                value: 2,
            },
            Step::Barrier(1),
            Step::Done,
        ])),
    );
    ssi.spawn(
        NodeId(1),
        t1,
        Box::new(ScriptProgram::new(vec![
            Step::Barrier(1),
            Step::Read { va_page: 0 },
            Step::Read { va_page: 100 },
            Step::Done,
        ])),
    );
    ssi.run(10_000_000).expect("quiesces");
    assert!(ssi.all_done());
    let node1 = ssi.node(NodeId(1));
    assert_eq!(node1.vm.peek_task_page(t1, 0), Some(1));
    assert_eq!(node1.vm.peek_task_page(t1, 100), Some(2));
}

#[test]
fn mixed_inheritance_fork_shares_and_copies_correctly() {
    // One shared region (Share) and one private region (Copy) in the same
    // fork: the child communicates through the first and snapshots the
    // second.
    let mut ssi = Ssi::new(2, ManagerKind::asvm(), 12);
    let shared = ssi.create_object(NodeId(0), 2, false);
    let parent = ssi.alloc_task();
    ssi.map_shared(
        parent,
        NodeId(0),
        0,
        shared,
        NodeId(0),
        2,
        Access::Write,
        Inherit::Share,
    );
    {
        let n = ssi.world.node_mut(NodeId(0));
        let obj = n.vm.create_object(2, machvm::Backing::Anonymous);
        n.vm.map_object(parent, 50, 2, obj, 0, Access::Write, Inherit::Copy);
    }
    ssi.finalize();

    let child = machvm::TaskId(7002);
    ssi.spawn(
        NodeId(0),
        parent,
        Box::new(ScriptProgram::new(vec![
            Step::Write {
                va_page: 50,
                value: 0x51AB,
            },
            Step::Fork {
                child,
                node: NodeId(1),
                program: Box::new(ScriptProgram::new(vec![
                    Step::Read { va_page: 50 }, // snapshot of the private page
                    Step::Write {
                        va_page: 0,
                        value: 0xC0DE,
                    }, // via shared
                    Step::Done,
                ])),
            },
            // Overwrite the private page after the fork: must not leak.
            Step::Write {
                va_page: 50,
                value: 0x0BAD,
            },
            Step::Done,
        ])),
    );
    ssi.run(50_000_000).expect("quiesces");
    assert!(ssi.all_done());
    let n1 = ssi.node(NodeId(1));
    assert_eq!(n1.vm.peek_task_page(child, 50), Some(0x51AB), "snapshot");
    // Parent can read the child's shared write.
    let n0 = ssi.node(NodeId(0));
    // The write invalidated nothing at the parent (parent never read page
    // 0 of the shared object); fetch through the protocol by peeking the
    // child side instead.
    assert_eq!(n1.vm.peek_task_page(child, 0), Some(0xC0DE));
    let _ = n0;
}

/// What node `n`'s trace ring saw, oldest first.
fn traced(ssi: &Ssi, n: u16) -> Vec<(TraceDir, &'static str, MemObjId)> {
    let ring = ssi.node(NodeId(n)).trace.as_ref().expect("trace installed");
    ring.iter().map(|e| (e.dir, e.kind, e.mobj)).collect()
}

fn writeback(page: u32) -> EmmiToPager {
    EmmiToPager::DataReturn {
        page: PageIdx(page),
        data: PageData::Word(1),
        dirty: true,
    }
}

/// The drain order the engine module calls load-bearing: whatever order
/// an engine call filled its sink in, the interpreter acts pager →
/// protocol → settled copies → lock grants → VM effects.
#[test]
fn interpreter_drains_effect_classes_in_the_mandatory_order() {
    let (mut ssi, mobj, _tasks) = setup_shared(ManagerKind::asvm(), 2, 4);
    let pager_node = ssi.pager_node_for(NodeId(0));
    let now = ssi.world.now();
    let n0 = ssi.world.node_mut(NodeId(0));
    n0.trace = Some(TraceRing::new(16));
    let obj = n0.engine.vm_obj_of(mobj).expect("mapped at setup");
    // One effect of each class, pushed in reverse class order.
    let mut fx = EngineFx::default();
    fx.asvm.vm.out.push(VmEffect::ToPager {
        obj: VmObjId(999),
        backing: Backing::Anonymous,
        call: writeback(3),
    });
    let first = PageIdx(1);
    fx.asvm
        .lock_granted
        .push((mobj, PageRange { first, count: 2 }));
    fx.asvm.settled.push(mobj);
    let page = PageIdx(2);
    fx.asvm.send(NodeId(1), AsvmMsg::PagedHint { mobj, page });
    fx.asvm.pager.push(PagerSend {
        pager_node,
        reply_to: NodeId(0),
        mobj,
        obj,
        call: writeback(0),
    });
    n0.preload_sink(fx);
    // The next engine call writes into the preloaded sink.
    let msg = AsvmMsg::PagedHint { mobj, page };
    let from = NodeId(1);
    ssi.world.post(
        now,
        NodeId(0),
        Msg::Asvm {
            from,
            seq: 0,
            sent: Time::ZERO,
            msg,
        },
    );
    ssi.run(BUDGET).expect("must quiesce");
    assert_eq!(
        traced(&ssi, 0),
        [
            (TraceDir::Recv, "asvm.msg.paged_hint", mobj),
            (TraceDir::Send, "emmi.req.data_return", mobj),
            (TraceDir::Send, "asvm.msg.paged_hint", mobj),
            (TraceDir::Recv, "cluster.copy_settled", mobj),
            (TraceDir::Recv, "cluster.lock_granted", mobj),
            (TraceDir::Send, "emmi.req.data_return", MemObjId(0)),
        ]
    );
}

/// §3.6 step 4 through the real engine: the owner of a dirty page nobody
/// reads, whose only peer has no room, returns the page to the pager and
/// tells the static manager from *one* engine call — and the writeback
/// must leave before the hint that lets requests reach the pager.
#[test]
fn evicted_page_is_written_back_before_the_paged_hint() {
    let (mut ssi, mobj, tasks) = setup_shared(ManagerKind::asvm(), 2, 4);
    let write = Step::Write {
        va_page: 0,
        value: 5,
    };
    ssi.spawn(
        NodeId(1),
        tasks[1],
        Box::new(ScriptProgram::new(vec![write, Step::Done])),
    );
    ssi.run(BUDGET).expect("must quiesce");
    let now = ssi.world.now();
    let n1 = ssi.world.node_mut(NodeId(1));
    n1.trace = Some(TraceRing::new(16));
    let obj = n1.engine.vm_obj_of(mobj).expect("mapped at setup");
    // The kernel evicts the page; with no reader to hand ownership to,
    // the engine asks its peer to take it (step 3).
    let mut vmfx = machvm::Effects::new();
    n1.vm.evict(now, obj, PageIdx(0), &mut vmfx);
    let Some(VmEffect::EvictExternal {
        page, data, dirty, ..
    }) = vmfx.out.pop()
    else {
        panic!("external page must be handed to its manager");
    };
    assert!(dirty, "the page was written");
    let mut asked = EngineFx::default();
    n1.engine
        .handle_evict(now, &mut n1.vm, obj, page, data, dirty, &mut asked);
    let [(NodeId(0), ref offer @ AsvmMsg::AcceptAsk { .. })] = asked.asvm.net[..] else {
        panic!("one offer to the peer: {:?}", asked.asvm.net);
    };
    assert_eq!(
        offer.payload_bytes(8192),
        8192,
        "the offer carries the page"
    );
    // The peer declines (the offer is dropped and its answer posted by
    // hand): step 4, with node 0 the static manager of page 0.
    let from = NodeId(0);
    let msg = AsvmMsg::AcceptReply {
        mobj,
        page,
        from,
        accept: false,
    };
    ssi.world.post(
        now,
        NodeId(1),
        Msg::Asvm {
            from,
            seq: 0,
            sent: Time::ZERO,
            msg,
        },
    );
    ssi.run(BUDGET).expect("must quiesce");
    assert_eq!(
        traced(&ssi, 1),
        [
            (TraceDir::Recv, "asvm.msg.accept_reply", mobj),
            (TraceDir::Send, "emmi.req.data_return", mobj),
            (TraceDir::Send, "asvm.msg.paged_hint", mobj),
        ]
    );
}

/// Three ASVM nodes under an active fault plan that never fires, so the
/// ARQ channel runs: node 2 is about to send node 1 a read request for a
/// page node 1 neither owns nor manages, which node 1 forwards to the
/// page's static manager.
fn arq_link_setup() -> (Ssi, MemObjId, AsvmMsg) {
    let mut cfg = MachineConfig::paragon(3);
    // Active, so the ARQ channel runs, but dark only long after the test.
    let late = Time::from_nanos(u64::MAX / 2);
    cfg.faults = FaultPlan::seeded(1).with_blackout(NodeId(2), late, Time::MAX);
    let mut ssi = Ssi::with_machine(cfg, ManagerKind::asvm(), 42);
    let mobj = ssi.create_object(NodeId(0), 8, false);
    for n in 0..3 {
        let t = ssi.alloc_task();
        let (prot, inherit) = (Access::Write, Inherit::Share);
        ssi.map_shared(t, NodeId(n), 0, mobj, NodeId(0), 8, prot, inherit);
    }
    ssi.finalize();
    let (me, origin) = (NodeId(1), NodeId(2));
    let o = ssi.node(me).asvm().expect("ASVM").object(mobj);
    let page = (0..8)
        .map(PageIdx)
        .find(|p| o.static_node(*p) != me)
        .expect("a page managed elsewhere");
    let req = QueuedReq {
        access: Access::Read,
        origin,
        origin_obj: ssi.node(origin).engine.vm_obj_of(mobj).expect("mapped"),
        has_copy: false,
        kind: ReqKind::Access,
        deliver: None,
    };
    let msg = AsvmMsg::PageReq {
        mobj,
        page,
        req,
        path: ReqPath::default(),
    };
    (ssi, mobj, msg)
}

/// The retry channel's receive order: a sequenced frame's body is
/// delivered first and acknowledged after, so a request it forwards
/// leaves ahead of the ack. A duplicate and a frame buffered behind a gap
/// deliver nothing and are still acked, each at once.
#[test]
fn sequenced_frames_are_acked_after_delivery() {
    let (mut ssi, mobj, msg) = arq_link_setup();
    let (me, origin) = (NodeId(1), NodeId(2));
    let frame = |seq| Msg::Asvm {
        from: origin,
        seq,
        sent: Time::ZERO,
        msg: msg.clone(),
    };
    let ack = (TraceDir::Send, "asvm.retry.ack", MemObjId(0));
    // Seq 1 in order, then seq 1 again, then seq 3 ahead of the missing 2.
    for (seq, delivers, bumped) in [
        (1, true, None),
        (1, false, Some("asvm.retry.dup_drop")),
        (3, false, Some("asvm.retry.buffered")),
    ] {
        ssi.world.node_mut(me).trace = Some(TraceRing::new(16));
        let now = ssi.world.now();
        ssi.world.post(now, me, frame(seq));
        // Step exactly that arrival; the sends it caused stay in flight.
        while ssi.node(me).trace.as_ref().expect("installed").is_empty() {
            assert!(ssi.world.step(), "the frame was delivered");
        }
        let expect = if delivers {
            vec![
                (TraceDir::Recv, "asvm.msg.page_req", mobj),
                (TraceDir::Send, "asvm.msg.page_req", mobj),
                ack,
            ]
        } else {
            vec![ack]
        };
        assert_eq!(traced(&ssi, 1), expect, "seq {seq}");
        if let Some(key) = bumped {
            assert_eq!(ssi.stats().counter(key), 1, "seq {seq}");
        }
    }
    assert_eq!(ssi.stats().counter("asvm.retry.ack"), 3);
}

/// An ack echoes the send stamp of the copy it answers — the original's,
/// and a duplicate's own — so the sender's round-trip sample measures
/// that copy. Each copy here claims to have left a distinct, long time
/// ago; the sender holds the frame in flight on a fresh link, so the ack
/// is its first sample R, and the next frame's first timeout is the RTO
/// that sample sets, R + max(G, 2R) — read under a base timeout wide
/// enough not to cap it.
#[test]
fn acks_echo_the_send_time_of_the_copy_they_answer() {
    let (mut ssi, _, msg) = arq_link_setup();
    let (me, origin) = (NodeId(1), NodeId(2));
    let cfg = asvm::RetryConfig::default();
    let wide = asvm::RetryConfig {
        base_timeout: Dur::from_millis(100),
        ..cfg
    };
    let rto_after = |r: Dur| r + (r * 2).max(wide.granularity());
    // The ack's own way back (handling, send, wire, receive) is well
    // under a millisecond.
    const TRIP: Dur = Dur::from_millis(1);
    for (copy, age) in [("original", 7), ("duplicate", 3)] {
        let tx = ssi.world.node_mut(origin).link_sender(me);
        *tx = asvm::LinkSender::default();
        let (seq, _) = tx.enqueue(msg.clone(), 0, "asvm.msg.page_req", &cfg);
        let at = ssi.world.now() + Dur::from_millis(10);
        let sent = at - Dur::from_millis(age);
        let frame = Msg::Asvm {
            from: origin,
            seq,
            sent,
            msg: msg.clone(),
        };
        ssi.world.post(at, me, frame);
        let in_flight = |ssi: &mut Ssi| ssi.world.node_mut(origin).link_sender(me).in_flight();
        while in_flight(&mut ssi) > 0 {
            assert!(ssi.world.step(), "{copy}: the ack arrived");
        }
        let tx = ssi.world.node_mut(origin).link_sender(me);
        let (_, rto) = tx.enqueue(msg.clone(), 0, "asvm.msg.page_req", &wide);
        let floor = Dur::from_millis(age);
        assert!(
            rto_after(floor) < rto && rto < rto_after(floor + TRIP),
            "{copy}: {rto:?}"
        );
    }
    assert_eq!(ssi.stats().counter("asvm.retry.dup_drop"), 1);
}

/// A capability the engine lacks is refused by the trait's default, not
/// by the node asking which engine it runs.
#[test]
#[should_panic(expected = "range locks require an ASVM cluster")]
fn range_locks_are_refused_on_an_xmm_cluster() {
    let (mut ssi, _mobj, tasks) = setup_shared(ManagerKind::xmm(), 2, 4);
    let lock = Step::LockRange {
        va_page: 0,
        pages: 2,
    };
    ssi.spawn(
        NodeId(0),
        tasks[0],
        Box::new(ScriptProgram::new(vec![lock, Step::Done])),
    );
    let _ = ssi.run(BUDGET);
}
