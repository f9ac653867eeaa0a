//! Healthy-path coherence of the `tenants` cells, with the quiescence
//! invariants checked in every cell.
//!
//! The five seeded cells below each used to end with two owners for one
//! page and no fault injected: a delayed `OwnerHint` naming the static
//! manager itself overwrote its record after the page had moved on, and
//! a request whose global walk found no owner then minted a second one at
//! the pager. The static manager now drops such a hint (DESIGN §7,
//! "Handoff chains"); these are the regressions. With that check
//! removed, seeds 26, 28, 40 and 42 fail again; seed 33 passes either
//! way.
//!
//! The `static` cells at the end livelocked while message coalescing
//! existed: a coalesced frame could deliver a grant and the request that
//! takes the page away again in one step, before the faulting task ran
//! (DESIGN §7, "Atomic multi-message delivery"). With one message per
//! frame the task runs in between.
//!
//! Still open (ROADMAP item 1): over RDMA, a few cells end with a writer
//! while another node still holds a read copy — the ignored test is the
//! first of them at seeds 1–100 that also failed before the fix.

use bench::experiments::tenants::{base_spec, configs, workloads};
use transport::Transport;
use workloads::run_tenants;

fn cell(seed: u64, backend: Transport, workload: &str, arm: &str) {
    let (_, spec) = workloads(base_spec(seed))
        .into_iter()
        .find(|(wl, _)| *wl == workload)
        .expect("a workload row");
    let (_, cfg) = configs()
        .into_iter()
        .find(|(a, _)| *a == arm)
        .expect("a configuration arm");
    run_tenants(cfg, backend, &spec, false);
}

#[test]
fn seed_26_norma_mixed_global() {
    cell(26, Transport::NORMA, "mixed", "global");
}

#[test]
fn seed_28_norma_mixed_global() {
    cell(28, Transport::NORMA, "mixed", "global");
}

#[test]
fn seed_33_sts_write_heavy_accel() {
    cell(33, Transport::STS, "write-heavy", "accel");
}

#[test]
fn seed_40_norma_mixed_static() {
    cell(40, Transport::NORMA, "mixed", "static");
}

#[test]
fn seed_42_sts_write_heavy_static() {
    cell(42, Transport::STS, "write-heavy", "static");
}

#[test]
#[ignore = "open: ROADMAP item 1"]
fn seed_26_rdma_write_heavy_static() {
    cell(26, Transport::RDMA, "write-heavy", "static");
}

#[test]
fn seed_1_sts_mixed_static() {
    cell(1, Transport::STS, "mixed", "static");
}

#[test]
fn seed_1996_norma_churn_static() {
    cell(1996, Transport::NORMA, "churn", "static");
}
