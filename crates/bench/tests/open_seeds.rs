//! Healthy-path double owners: with the quiescence invariants checked in
//! every cell, six of seeds 1–42 end a `tenants` cell with two owners for
//! one page and no fault injected (the CI seeds 1996 and 777 pass). Each
//! test is the first failing cell of its seed — executable starting
//! points for the shrinker of ROADMAP item 1 (and the explorer of item 2).

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
#[ignore = "open: ROADMAP item 1"]
fn seed_5_rdma_mixed_adaptive() {
    cell(5, Transport::RDMA, "mixed", "adaptive");
}

#[test]
#[ignore = "open: ROADMAP item 1"]
fn seed_26_norma_mixed_global() {
    cell(26, Transport::NORMA, "mixed", "global");
}

#[test]
#[ignore = "open: ROADMAP item 1"]
fn seed_28_norma_mixed_global() {
    cell(28, Transport::NORMA, "mixed", "global");
}

#[test]
#[ignore = "open: ROADMAP item 1"]
fn seed_33_sts_write_heavy_accel() {
    cell(33, Transport::STS, "write-heavy", "accel");
}

#[test]
#[ignore = "open: ROADMAP item 1"]
fn seed_40_norma_mixed_static() {
    cell(40, Transport::NORMA, "mixed", "static");
}

#[test]
#[ignore = "open: ROADMAP item 1"]
fn seed_42_sts_write_heavy_static() {
    cell(42, Transport::STS, "write-heavy", "static");
}
