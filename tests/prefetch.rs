//! Integration tests for the access-pattern-driven prefetch engine:
//! stream detection, speculative data pulls and cancellation on a pattern
//! break.

use cluster::{ManagerKind, ScriptProgram, Ssi, Step};
use machvm::{Access, Inherit, PageIdx};
use svmsim::NodeId;

/// No recovery machinery may fire in a healthy (fault-free) run: a
/// speculative fill arriving after a cancellation must be absorbed, not
/// "recovered" from.
fn assert_healthy(ssi: &Ssi) {
    for (key, v) in ssi.stats().counters() {
        assert!(
            !key.starts_with("asvm.recover.") && !key.starts_with("cluster.suspect."),
            "healthy prefetch run tripped recovery: {key} = {v}"
        );
    }
}

/// A mid-stream stride change must cancel the speculative window: the
/// detector resets (no further issues against the dead stride), every
/// in-flight fill is counted under `asvm.prefetch.cancelled`, and the
/// late-arriving fills are absorbed without staleness — the reads after
/// the break still observe the file's bytes.
#[test]
fn pattern_break_cancels_inflight_prefetches() {
    let kind = ManagerKind::Asvm(asvm::AsvmConfig::with_prefetch(8));
    let mut ssi = Ssi::new(2, kind, 5);
    let pages = 64u32;
    let mobj = ssi.create_object(NodeId(0), pages, true);
    let t = ssi.alloc_task();
    ssi.map_shared(
        t,
        NodeId(1),
        0,
        mobj,
        NodeId(0),
        pages,
        Access::Write,
        Inherit::Share,
    );
    ssi.finalize();
    // Stride-1 stream long enough to lock the detector and fill the
    // speculative window, then a hard jump to a stride-4 region.
    let steps: Vec<Step> = (0..12u64)
        .map(|p| Step::Read { va_page: p })
        .chain([40u64, 44, 48].map(|p| Step::Read { va_page: p }))
        .chain([Step::Done])
        .collect();
    ssi.spawn(NodeId(1), t, Box::new(ScriptProgram::new(steps)));
    ssi.run(u64::MAX / 2).expect("quiesces");
    assert!(ssi.all_done());
    assert!(
        ssi.stats().counter("asvm.prefetch.issued") > 0,
        "the stride-1 run must trigger speculative pulls"
    );
    assert!(
        ssi.stats().counter("asvm.prefetch.cancelled") >= 1,
        "the jump to page 40 must cancel the in-flight window"
    );
    // No stale fills: the post-break reads see the file's bytes.
    for p in [5u64, 40, 44, 48] {
        assert_eq!(
            ssi.node(NodeId(1)).vm.peek_task_page(t, p),
            Some(pager::file_stamp(mobj, PageIdx(p as u32))),
            "page {p} content after the pattern break"
        );
    }
    assert_healthy(&ssi);
    cluster::check_asvm_invariants(&ssi);
}

/// A speculative one-sided read lost on RDMA (no link ARQ) is recovered
/// only by the requester's watchdog — which stops ticking with the node's
/// last task. The speculation nobody is left to claim must be cancelled
/// then, not left pending forever ("pending requests at quiescence";
/// `Scenario::finish` checks the invariants). The loss is scripted, not
/// drawn: the requester's link to node 2 drops everything exposed, which
/// on RDMA is exactly the one-sided postings routed there.
#[test]
fn lost_speculative_read_is_cancelled_when_the_node_goes_idle() {
    use svmsim::{FaultPlan, LinkFaults};
    use workloads::Scenario;
    let dead = LinkFaults {
        drop_ppm: 1_000_000,
        ..LinkFaults::NONE
    };
    let plan = FaultPlan::seeded(1).with_link(NodeId(1), NodeId(2), dead);
    let kind = ManagerKind::Asvm(asvm::AsvmConfig::with_readahead(8));
    let sc = Scenario::new(kind, 3, 1)
        .transport(transport::Transport::RDMA)
        .faults(plan);
    let mut ssi = sc.build();
    let (_, tasks) = Scenario::shared_region(&mut ssi, 3, 32, false);
    // Node 1's only access is a demand read of page 0, whose static
    // manager is node 0: it is served, and the task is done long before
    // the watchdog deadline. Of the readahead it triggers for pages
    // 1..=8, the postings routed to node 2 are lost for good.
    Scenario::spawn_script(
        &mut ssi,
        NodeId(1),
        tasks[1],
        vec![Step::Read { va_page: 0 }],
    );
    ssi.run(u64::MAX / 2).expect("quiesces");
    let out = sc
        .finish(ssi, svmsim::Time::ZERO)
        .expect_completed("a node going idle on lost speculative reads");
    assert_eq!(
        out.counter("asvm.recover.reissue"),
        0,
        "the demand read is served; no watchdog pass ever re-issues"
    );
    // Everything still speculative at idle is cancelled; what node 0
    // answers afterwards installs as a late fill. The difference is the
    // postings nobody will ever answer.
    let cancelled = out.counter("asvm.prefetch.cancelled");
    let answered = out.counter("asvm.prefetch.cancelled_fill");
    assert!(
        answered >= 1,
        "the live link's speculative reads are served"
    );
    assert!(
        cancelled > answered,
        "the stranded speculative reads must be scored as cancelled"
    );
    assert!(out.counter("transport.fault.dropped") >= cancelled - answered);
}

/// A cancelled speculation is not always a lost one: readahead onto
/// never-touched pages is routed by the static manager to the pager,
/// which serializes every later request for the page behind that fill.
/// The supply arriving after the requester went idle must still install
/// and report ownership — dropping it as stale left the manager's fill
/// record, and the second node's read queued behind it, stranded forever.
#[test]
fn cancelled_speculation_still_completes_its_pager_fill() {
    use svmsim::{Dur, FaultPlan};
    use workloads::Scenario;
    // An armed plan that (at 1 ppm) never fires: the cancellation path
    // runs, nothing is lost.
    let plan = FaultPlan::seeded(1).with_dup_ppm(1);
    let kind = ManagerKind::Asvm(asvm::AsvmConfig::with_readahead(8));
    let sc = Scenario::new(kind, 3, 1)
        .transport(transport::Transport::RDMA)
        .faults(plan);
    let mut ssi = sc.build();
    let (_, tasks) = Scenario::shared_region(&mut ssi, 3, 32, false);
    // Node 1's only access issues readahead for pages 1..=8 and the task
    // is done before any pager fill returns.
    Scenario::spawn_script(
        &mut ssi,
        NodeId(1),
        tasks[1],
        vec![Step::Read { va_page: 0 }],
    );
    // Node 2 asks for one of those pages while its fill is in flight,
    // and for another long after.
    let late = vec![
        Step::Compute(Dur::from_millis_f64(1.0)),
        Step::Read { va_page: 3 },
        Step::Compute(Dur::from_millis_f64(200.0)),
        Step::Read { va_page: 5 },
    ];
    Scenario::spawn_script(&mut ssi, NodeId(2), tasks[2], late);
    ssi.run(u64::MAX / 2).expect("quiesces");
    let out = sc
        .finish(ssi, svmsim::Time::ZERO)
        .expect_completed("reads behind a cancelled speculation's fill");
    assert!(out.counter("asvm.prefetch.cancelled") >= 1);
    assert!(
        out.counter("asvm.prefetch.cancelled_fill") >= 1,
        "the late supplies must install, not be dropped as stale"
    );
    assert_eq!(out.counter("asvm.recover.stale_fill"), 0);
}
