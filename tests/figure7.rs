//! The eight state transitions of FIGURE 7, exercised by number, and
//! what a write transfer costs in messages.
//!
//! The paper's sharing state machine: a page's state on a node is its
//! access level plus an owner flag; the listed transitions keep it
//! coherent under the single-writer-or-multiple-readers invariant.

use cluster::{ManagerKind, ScriptProgram, Ssi, Step};
use machvm::{Access, Inherit, PageIdx, TaskId};
use svmsim::NodeId;

struct Rig {
    ssi: Ssi,
    tasks: Vec<TaskId>,
    mobj: machvm::MemObjId,
}

fn rig(nodes: u16) -> Rig {
    let mut ssi = Ssi::new(nodes, ManagerKind::asvm(), 3);
    let home = NodeId(0);
    let mobj = ssi.create_object(home, 4, false);
    let tasks = (0..nodes)
        .map(|n| {
            let t = ssi.alloc_task();
            ssi.map_shared(
                t,
                NodeId(n),
                0,
                mobj,
                home,
                4,
                Access::Write,
                Inherit::Share,
            );
            t
        })
        .collect();
    ssi.finalize();
    Rig { ssi, tasks, mobj }
}

impl Rig {
    fn run_on(&mut self, node: u16, steps: Vec<Step>) {
        let now = self.ssi.world.now();
        self.ssi.world.node_mut(NodeId(node)).install_task(
            self.tasks[node as usize],
            Box::new(ScriptProgram::new(steps)),
            now,
        );
        self.ssi.world.post(
            now,
            NodeId(node),
            cluster::Msg::Resume(self.tasks[node as usize]),
        );
        self.ssi.run(10_000_000).expect("quiesces");
    }

    fn state(&self, node: u16) -> Option<(Access, bool, usize)> {
        let n = self.ssi.node(NodeId(node));
        let a = n.asvm().expect("figure 7 rig runs ASVM");
        a.page_info(self.mobj, PageIdx(0))
            .map(|pi| (pi.access, pi.owner, pi.readers.len()))
    }

    /// Protocol messages and page-carrying messages sent so far.
    fn messages(&self) -> (u64, u64) {
        let stats = self.ssi.stats();
        let sum =
            |f: fn(&str) -> bool| stats.counters().filter(|(k, _)| f(k)).map(|(_, v)| v).sum();
        (
            sum(|k| k.starts_with("asvm.msg.")),
            sum(|k| k.ends_with(".page_messages")),
        )
    }
}

#[test]
fn transitions_1_and_5_read_grant_and_reader_list() {
    // T1 (requester): the node is granted read access to the page.
    // T5 (owner): the owner grants read access and records the reader.
    let mut r = rig(2);
    r.run_on(
        0,
        vec![
            Step::Write {
                va_page: 0,
                value: 1,
            },
            Step::Done,
        ],
    );
    r.run_on(1, vec![Step::Read { va_page: 0 }, Step::Done]);
    assert_eq!(
        r.state(1),
        Some((Access::Read, false, 0)),
        "T1 at requester"
    );
    assert_eq!(r.state(0), Some((Access::Read, true, 1)), "T5 at owner");
}

#[test]
fn transitions_2_and_4_write_grant_moves_ownership() {
    // T2 (requester): the node is granted write access.
    // T4 (old owner): grants write access to another node (and, in ASVM,
    // ownership moves with it — "a page is always owned by the node that
    // most recently had write access").
    let mut r = rig(2);
    r.run_on(
        0,
        vec![
            Step::Write {
                va_page: 0,
                value: 1,
            },
            Step::Done,
        ],
    );
    r.run_on(
        1,
        vec![
            Step::Write {
                va_page: 0,
                value: 2,
            },
            Step::Done,
        ],
    );
    assert_eq!(r.state(1), Some((Access::Write, true, 0)), "T2+ownership");
    assert_eq!(r.state(0), None, "T4: old owner's copy flushed");
}

#[test]
fn transitions_3_and_6_upgrade_with_invalidations() {
    // T3 (requester): upgrade from read to write access.
    // T6 (owner): grants write to another node, invalidating the reader
    // list first.
    let mut r = rig(3);
    r.run_on(
        0,
        vec![
            Step::Write {
                va_page: 0,
                value: 1,
            },
            Step::Done,
        ],
    );
    r.run_on(1, vec![Step::Read { va_page: 0 }, Step::Done]);
    r.run_on(2, vec![Step::Read { va_page: 0 }, Step::Done]);
    assert_eq!(r.state(0), Some((Access::Read, true, 2)));
    // Node 1 upgrades: owner (node 0) must invalidate node 2 and itself.
    r.run_on(
        1,
        vec![
            Step::Write {
                va_page: 0,
                value: 2,
            },
            Step::Done,
        ],
    );
    assert_eq!(
        r.state(1),
        Some((Access::Write, true, 0)),
        "T3 at requester"
    );
    assert_eq!(r.state(0), None, "T6: granting owner flushed");
    assert_eq!(r.state(2), None, "T6: reader invalidated");
}

#[test]
fn transition_7_owner_upgrades_itself() {
    // T7: the owner upgrades its own access from read to write, sending
    // invalidations to its reader list.
    let mut r = rig(2);
    r.run_on(
        0,
        vec![
            Step::Write {
                va_page: 0,
                value: 1,
            },
            Step::Done,
        ],
    );
    r.run_on(1, vec![Step::Read { va_page: 0 }, Step::Done]);
    assert_eq!(r.state(0), Some((Access::Read, true, 1)));
    r.run_on(
        0,
        vec![
            Step::Write {
                va_page: 0,
                value: 2,
            },
            Step::Done,
        ],
    );
    assert_eq!(r.state(0), Some((Access::Write, true, 0)), "T7 at owner");
    assert_eq!(r.state(1), None, "T7/T8: reader invalidated");
}

#[test]
fn transition_8_reader_receives_invalidation() {
    // T8: a reader receives an invalidation message from the owner; its
    // copy (and state) disappear while the owner proceeds.
    let mut r = rig(4);
    r.run_on(
        0,
        vec![
            Step::Write {
                va_page: 0,
                value: 1,
            },
            Step::Done,
        ],
    );
    for n in 1..4 {
        r.run_on(n, vec![Step::Read { va_page: 0 }, Step::Done]);
    }
    assert_eq!(r.state(0), Some((Access::Read, true, 3)));
    r.run_on(
        3,
        vec![
            Step::Write {
                va_page: 0,
                value: 2,
            },
            Step::Done,
        ],
    );
    for n in 0..3 {
        assert_eq!(r.state(n), None, "T8: node {n} invalidated");
    }
    assert_eq!(r.state(3), Some((Access::Write, true, 0)));
    cluster::check_asvm_invariants(&r.ssi);
}

/// Figure 7's cost of a write transfer with no readers, the static
/// manager on a third node: the request to the owner, the owner's grant
/// with the page and its ownership, and the owner's ownership report to
/// the static manager — three protocol messages, one carrying the page.
/// The new owner does not repeat the report.
#[test]
fn a_write_transfer_costs_three_messages() {
    let mut r = rig(3);
    let sm = r
        .ssi
        .node(NodeId(0))
        .asvm()
        .expect("figure 7 rig runs ASVM")
        .object(r.mobj)
        .static_node(PageIdx(0));
    let [writer, owner] = [0, 1, 2]
        .into_iter()
        .filter(|n| NodeId(*n) != sm)
        .collect::<Vec<u16>>()
        .try_into()
        .expect("two nodes besides the static manager");
    let write = |value| vec![Step::Write { va_page: 0, value }, Step::Done];
    // The writer first owns the page, then hands it to the owner: its
    // hint now names the owner, so its next request goes straight there.
    r.run_on(writer, write(1));
    r.run_on(owner, write(2));
    assert_eq!(r.state(owner), Some((Access::Write, true, 0)));
    let before = r.messages();
    r.run_on(writer, write(3));
    let after = r.messages();
    assert_eq!(r.state(writer), Some((Access::Write, true, 0)));
    assert_eq!(r.state(owner), None);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (3, 1),
        "(protocol messages, page-carrying messages)"
    );
}
