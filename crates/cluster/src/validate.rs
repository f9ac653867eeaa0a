//! Cross-node invariant checking for quiescent clusters.
//!
//! These checks encode the paper's structural invariants (§3.4–§3.6) and
//! are called by the integration tests after every run:
//!
//! * at most one owner per page, system-wide;
//! * the single-writer-XOR-multiple-readers rule;
//! * page state only for resident pages (state tied to physical memory),
//!   in the engine and in the VM's replacement queue;
//! * no stranded work: no pending requests, parked fills, queued lock
//!   waiters or manager transactions survive quiescence.

use asvm::AsvmNode;
use machvm::MemObjId;
use xmm::XmmNode;

use crate::node::ClusterNode;
use crate::ssi::Ssi;

/// Read-only engine inspectors for the checks below, tests, examples and
/// bench probes. They live here, not in `node.rs`: the node's own control
/// flow goes through [`crate::Engine`]'s methods alone.
impl ClusterNode {
    /// The ASVM instance, if this node runs ASVM.
    pub fn asvm(&self) -> Option<&AsvmNode> {
        self.engine.as_asvm()
    }

    /// The XMM instance, if this node runs XMM.
    pub fn xmm(&self) -> Option<&XmmNode> {
        self.engine.as_xmm()
    }
}

/// Checks every ASVM invariant on a quiescent cluster, for every object.
///
/// # Panics
///
/// Panics with a diagnostic if any invariant is violated.
pub fn check_asvm_invariants(ssi: &Ssi) {
    check_asvm_invariants_except(ssi, &[]);
}

/// [`check_asvm_invariants`] restricted to the surviving nodes: every node
/// in `dead` is skipped entirely. A permanently blacked-out node keeps
/// whatever state it had when the lights went out — including an owner bit
/// the survivors have since re-elected away from it — so fault tests check
/// convergence among the nodes that can still talk (`docs/RELIABILITY.md`).
///
/// # Panics
///
/// Panics with a diagnostic if any invariant is violated on a live node.
pub fn check_asvm_invariants_except(ssi: &Ssi, dead: &[svmsim::NodeId]) {
    let nodes: Vec<_> = ssi
        .world
        .machine()
        .mesh
        .node_ids()
        .filter(|id| !dead.contains(id))
        .collect();
    for id in &nodes {
        ssi.world.node(*id).vm.check_replacement_queue();
    }
    // Collect object ids from every node.
    let mut objects: Vec<MemObjId> = Vec::new();
    for id in &nodes {
        if let Some(a) = ssi.world.node(*id).asvm() {
            for o in a.objects() {
                if !objects.contains(&o.mobj) {
                    objects.push(o.mobj);
                }
            }
        }
    }
    for mobj in objects {
        let mut owners: Vec<(svmsim::NodeId, machvm::PageIdx)> = Vec::new();
        for id in &nodes {
            let node = ssi.world.node(*id);
            let Some(a) = node.asvm() else {
                continue;
            };
            if !a.has_object(mobj) {
                continue;
            }
            let o = a.object(mobj);
            assert!(
                o.pending.is_empty(),
                "{id}: {mobj:?} has pending requests at quiescence: {:?}",
                o.pending
            );
            assert!(
                o.fill_waiters.is_empty(),
                "{id}: {mobj:?} has parked requests at quiescence"
            );
            assert!(
                o.static_waiting.is_empty(),
                "{id}: {mobj:?} has requests stranded at the static manager"
            );
            assert!(
                o.static_filling.is_empty(),
                "{id}: {mobj:?} has pager fills that never completed"
            );
            assert!(
                o.pull_in_flight.is_empty(),
                "{id}: {mobj:?} has pulls that never completed"
            );
            assert!(
                o.copy_settles.is_empty(),
                "{id}: {mobj:?} has unsettled copy notifications"
            );
            // Ownership reconstruction must have run to completion; the
            // suspicion list itself may legitimately be non-empty (a dead
            // peer stays suspected forever).
            assert!(
                o.recover.is_empty(),
                "{id}: {mobj:?} has unfinished ownership reconstruction: {:?}",
                o.recover.keys().collect::<Vec<_>>()
            );
            for (page, pi) in o.pages.iter() {
                assert!(
                    pi.busy.is_none(),
                    "{id}: {mobj:?} {page:?} still busy at quiescence: {:?}",
                    pi.busy
                );
                assert!(
                    pi.queued.is_empty(),
                    "{id}: {mobj:?} {page:?} has queued requests at quiescence"
                );
                // State tied to residency (paper §3.1/§3.4).
                assert!(
                    node.vm.object(o.vm_obj).resident(page),
                    "{id}: {mobj:?} holds state for non-resident {page:?}"
                );
                if pi.owner {
                    owners.push((*id, page));
                }
            }
        }
        // At most one owner per page.
        let mut seen = std::collections::BTreeSet::new();
        for (id, page) in &owners {
            assert!(
                seen.insert(*page),
                "two owners for {mobj:?} {page:?} (second on {id})"
            );
        }
        // Single writer XOR multiple readers: if any node holds write
        // access, nobody else holds the page.
        for id in &nodes {
            let node = ssi.world.node(*id);
            let Some(a) = node.asvm() else {
                continue;
            };
            if !a.has_object(mobj) {
                continue;
            }
            let o = a.object(mobj);
            for (page, pi) in o.pages.iter() {
                if pi.access == machvm::Access::Write {
                    for other in &nodes {
                        if other == id {
                            continue;
                        }
                        let onode = ssi.world.node(*other);
                        let Some(oa) = onode.asvm() else {
                            continue;
                        };
                        if let Some(opi) = oa.page_info(mobj, page) {
                            panic!(
                                "{id} holds {mobj:?} {page:?} writable while {other} \
                                 also holds it ({:?})",
                                opi.access
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Checks the XMM counterpart: no stranded manager transactions or
/// internal-pager work at quiescence.
///
/// # Panics
///
/// Panics with a diagnostic if any check fails.
pub fn check_xmm_invariants(ssi: &Ssi) {
    for id in ssi.world.machine().mesh.node_ids().collect::<Vec<_>>() {
        let node = ssi.world.node(id);
        node.vm.check_replacement_queue();
        let Some(x) = node.xmm() else { continue };
        assert_eq!(
            x.thread_queue_len(),
            0,
            "{id}: internal-pager requests still queued (deadlock?)"
        );
        assert_eq!(node.vm.pending_faults(), 0, "{id}: faults never completed");
    }
}
