//! Forwarding tails under a rotating writer: how many hops a request takes
//! before the owner serves it.
//!
//! Each node that gives a page away leaves a *handoff hint* pointing at
//! the next writer, so after a rotation the hints form a chain through
//! every former owner. Without a bound, the first request of each
//! rotation walks that chain nearly end to end (one 9+-hop request per
//! page per rotation). A request that forwards a write also collapses
//! the hints it passes into *learned* ones naming its origin, so later
//! walks alternate learned and handoff hints. The redirector cuts a
//! request to the page's static manager before a handoff hint once it has
//! followed two hints of either kind in a row (`asvm::config::HANDOFF_HOPS`),
//! and the static manager's record is exact, so no walk reaches five hops.
//! At its origin a request on a handoff hint goes instead to the node
//! that last granted such a page back, which under a fixed rotation is
//! the owner, so most requests take one hop.
//!
//! The CI fault-seeds job runs this file under two fixed seeds via the
//! `ASVM_FAULTS_SEED` environment variable (default 1996); the lossy
//! variant folds that seed into its fault plan.

use cluster::ManagerKind;
use svmsim::FaultPlan;
use workloads::{run_pattern, Outcome, Pattern, Scenario};

/// Base seed of the lossy variant's fault plan (CI matrix: 1996, 777).
fn fault_seed() -> u64 {
    std::env::var("ASVM_FAULTS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1996)
}

const NODES: u16 = 32;
const PAGES: u32 = 16;
const ROUNDS: u32 = 4;

/// The buckets that must stay empty: requests served after five or more
/// hops. Measured on this shape (healthy and at 1 % loss, seeds 1996 and
/// 777), hops 1 / 2 / 3–4 / 5–8 / 9+ read 1 446 / 499 / 87 / 0 / 0 with
/// the whole hint run counted toward the cut; 1 362 / 543 / 46 / 81 / 0
/// when only handoff hops in a row count; and 72 of 2 032 at 9+ when
/// requests follow handoff hints to the end.
const LONG_WALKS: [&str; 2] = ["asvm.forward.hops.5-8", "asvm.forward.hops.9+"];

/// Requests served after exactly one hop, at least this share of all
/// routed requests served. Measured on this shape: 1 446 of 2 032 when
/// an origin sends its request to where its handoffs last led
/// (`AsvmObject::successor`; healthy and at 1 % loss, seeds 1996 and
/// 777); 54 of 2 032 when every origin request on a handoff hint goes to
/// the static manager first.
const MIN_ONE_HOP_SHARE: f64 = 0.5;

const HOP_BUCKETS: [&str; 5] = [
    "asvm.forward.hops.1",
    "asvm.forward.hops.2",
    "asvm.forward.hops.3-4",
    "asvm.forward.hops.5-8",
    "asvm.forward.hops.9+",
];

fn rotating_writer(sc: Scenario) -> Outcome {
    run_pattern(&sc, PAGES, Pattern::Migratory { rounds: ROUNDS })
        .expect_completed("rotating writer")
}

fn assert_short_walks(o: &Outcome) {
    let served: u64 = HOP_BUCKETS.iter().map(|k| o.stats.counter(k)).sum();
    // Every fault but the first touch of each page is a routed request
    // the owner serves.
    assert_eq!(
        served,
        o.faults() - PAGES as u64,
        "hop buckets miss requests"
    );
    assert!(
        o.stats.counter("asvm.forward.handoff_cut") > 0,
        "no handoff chain was cut"
    );
    for key in LONG_WALKS {
        let long = o.stats.counter(key);
        assert_eq!(long, 0, "{long} of {served} requests took {key}");
    }
    let direct = o.stats.counter("asvm.forward.hops.1");
    let share = direct as f64 / served as f64;
    assert!(
        share >= MIN_ONE_HOP_SHARE,
        "only {direct} of {served} requests ({:.1} %) reached the owner in one hop",
        share * 100.0
    );
}

#[test]
fn handoff_chains_are_cut_short() {
    let o = rotating_writer(Scenario::new(ManagerKind::asvm(), NODES, 17));
    assert_short_walks(&o);
}

#[test]
fn handoff_chains_are_cut_short_under_loss() {
    let plan = FaultPlan::seeded(fault_seed()).with_drop_ppm(10_000);
    let o = rotating_writer(Scenario::new(ManagerKind::asvm(), NODES, 17).faults(plan));
    assert!(
        o.stats.counter("asvm.retry.resent") > 0,
        "the plan never fired"
    );
    assert_short_walks(&o);
}
