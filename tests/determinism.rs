//! Reproducibility: the whole stack is a deterministic discrete-event
//! simulation — identical inputs give bit-identical outcomes, which every
//! experiment in `EXPERIMENTS.md` relies on.

use cluster::ManagerKind;
use workloads::{
    copy_chain_probe, em3d_run, fault_probe, file_scan, run_tenants, CopyChainSpec, Em3dSpec,
    FaultProbeSpec, FileScanSpec, ProbeAccess, ScanDir, TenantsSpec,
};

#[test]
fn fault_probe_is_deterministic() {
    let spec = FaultProbeSpec {
        kind: ManagerKind::asvm(),
        read_copies: 8,
        faulter_has_copy: false,
        access: ProbeAccess::Write,
    };
    let a = fault_probe(spec);
    let b = fault_probe(spec);
    assert_eq!(a.mean_fault(), b.mean_fault());
    assert_eq!(a.messages(), b.messages());
}

#[test]
fn copy_chain_is_deterministic() {
    let spec = CopyChainSpec {
        kind: ManagerKind::xmm(),
        chain_len: 4,
        region_pages: 16,
    };
    assert_eq!(
        copy_chain_probe(spec).mean_fault(),
        copy_chain_probe(spec).mean_fault()
    );
}

#[test]
fn file_scan_is_deterministic() {
    let spec = FileScanSpec {
        kind: ManagerKind::asvm(),
        nodes: 4,
        file_pages: 64,
        dir: ScanDir::Read,
    };
    let a = file_scan(spec);
    let b = file_scan(spec);
    assert_eq!(a.outcome.elapsed, b.outcome.elapsed);
    assert_eq!(a.rate_mb_s, b.rate_mb_s);
}

#[test]
fn em3d_is_deterministic() {
    let mut spec = Em3dSpec::paper(ManagerKind::asvm(), 4, 16_000);
    spec.iterations = 3;
    let a = em3d_run(spec);
    let b = em3d_run(spec);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.faults(), b.faults());
}

#[test]
fn tenants_is_deterministic() {
    let spec = TenantsSpec {
        objects: 24,
        tasks: 8,
        ops_per_task: 120,
        ..TenantsSpec::default()
    };
    // Streaming prefetch: the waste latch runs too.
    let cfg = asvm::AsvmConfig::with_prefetch(4);
    let a = run_tenants(cfg, transport::Transport::STS, &spec, false);
    let b = run_tenants(cfg, transport::Transport::STS, &spec, false);
    assert_eq!(a.faults(), b.faults());
    assert_eq!(a.stall_ms(), b.stall_ms());
    assert_eq!(a.asvm_msgs(), b.asvm_msgs());
    // Every counter, the prefetch and latch counters included.
    assert!(a.stats.counters().eq(b.stats.counters()));
}

#[test]
fn tenants_seed_changes_the_schedule_not_the_regime() {
    let spec = TenantsSpec {
        objects: 24,
        tasks: 8,
        ops_per_task: 120,
        ..TenantsSpec::default()
    };
    let mut other = spec.clone();
    other.seed = 4242;
    let a = run_tenants(
        asvm::AsvmConfig::default(),
        transport::Transport::STS,
        &spec,
        false,
    );
    let b = run_tenants(
        asvm::AsvmConfig::default(),
        transport::Transport::STS,
        &other,
        false,
    );
    assert_ne!(
        (a.faults(), a.asvm_msgs()),
        (b.faults(), b.asvm_msgs()),
        "different seeds must draw different Zipf schedules"
    );
    let ratio = a.stall_ms() / b.stall_ms();
    assert!(
        ratio > 0.5 && ratio < 2.0,
        "seed changed the regime: {ratio}"
    );
}

#[test]
fn different_seeds_change_only_workload_randomness() {
    // The fault probe has no randomness at all, so even different seeds in
    // the EM3D generator must not leak into it. EM3D with different seeds
    // differs (the graph differs), but stays in the same regime.
    let mut s1 = Em3dSpec::paper(ManagerKind::asvm(), 4, 16_000);
    s1.iterations = 3;
    let mut s2 = s1;
    s2.seed = 4242;
    let a = em3d_run(s1);
    let b = em3d_run(s2);
    let ratio = a.elapsed_s() / b.elapsed_s();
    assert!(
        ratio > 0.5 && ratio < 2.0,
        "seed changed the regime: {ratio}"
    );
}
