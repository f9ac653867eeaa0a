//! Multi-tenant consolidation sweep: every uniform configuration vs
//! per-object class-ideal configuration.
//!
//! A consolidated host runs *mixed tenants at once* — many Zipf-popular
//! memory objects, some sequential-scan read-mostly (analytics), some
//! hot-page write-heavy (OLTP), with tasks arriving and departing
//! (`workloads::tenants`). No uniform configuration need suit both
//! classes: readahead cuts a scan's faults by more than half but is pure
//! frame cost on write-heavy objects (prefetched neighbours are
//! invalidated unread, and wider copysets make every write's
//! invalidation fan-out dearer), while the forwarding ablation's
//! static-vs-dynamic trade cuts the other way. This sweep runs
//!
//! * four uniform arms — `plain` (dynamic forwarding, no speculation),
//!   `accel` (dynamic + readahead), `static` (the fixed
//!   distributed manager), `global` (zero-hint-state walk), and
//! * an **oracle** arm that registers every object with its class-ideal
//!   configuration up front (`Ssi::set_object_config`, the paper's
//!   per-memory-object hook): `accel` for read-mostly objects, `static`
//!   for write-heavy ones,
//!
//! across workload mixes and the three transport backends.
//!
//! The headline metric is **total fault stall** (faults × mean latency):
//! scans are bandwidth-bound at the owner, so prefetch mostly converts
//! many short stalls into few long ones — mean fault latency alone would
//! call that a regression while total page-wait time and protocol work
//! (faults, frames) improve.
//!
//! The **churn** row flips every object's read/write mix each 40 ops, so
//! the classes stop meaning what they say.
//!
//! Knob: `--seed` (classes, working sets, access streams).
//!
//! Determinism: fully seeded; `--json --stable-json` regenerates
//! `BENCH_tenants.json` byte-identically.

use asvm::AsvmConfig;
use transport::Transport;
use workloads::{run_tenants, Outcome, TenantsSpec};

use crate::cli::Args;
use crate::sweep::Sweep;
use crate::Key;

/// Readahead depth of the accelerated arm (the committed `futurework`
/// sweep's depth; deep enough to stream a 16-page scan).
const RA: u32 = 4;

const KEYS: &[Key] = &[
    "page.faults=faults",
    "stall_ms",
    "fault_us_mean=mean_fault_us",
    "asvm.msgs",
];

/// The base mixed-tenant shape (the generator's defaults at `seed`); the
/// workload rows perturb it.
pub fn base_spec(seed: u64) -> TenantsSpec {
    TenantsSpec {
        seed,
        ..TenantsSpec::default()
    }
}

/// The accelerated uniform configuration (and the oracle's choice for
/// read-mostly objects).
fn accel() -> AsvmConfig {
    AsvmConfig::with_readahead(RA)
}

/// The four uniform configuration arms, in table-column order.
pub fn configs() -> [(&'static str, AsvmConfig); 4] {
    [
        ("plain", AsvmConfig::default()),
        ("accel", accel()),
        ("static", AsvmConfig::fixed_distributed()),
        ("global", AsvmConfig::global_only()),
    ]
}

/// Workload rows: label × spec perturbation.
pub fn workloads(base: TenantsSpec) -> [(&'static str, TenantsSpec); 4] {
    let mut read_mostly = base.clone();
    read_mostly.read_mostly_pct = 90;
    let mut write_heavy = base.clone();
    write_heavy.read_mostly_pct = 10;
    let mut churn = base.clone();
    churn.phase_flip = 40;
    [
        ("mixed", base),
        ("read-mostly", read_mostly),
        ("write-heavy", write_heavy),
        ("churn", churn),
    ]
}

pub fn run(args: &Args) {
    let base = base_spec(args.seed);
    let mut sweep = Sweep::with_config("tenants", args.sweep.clone());
    // STS: every workload row × every configuration column.
    for (wl, spec) in workloads(base.clone()) {
        for (arm, cfg) in configs() {
            let spec = spec.clone();
            crate::cell(&mut sweep, format!("sts / {wl} / {arm}"), KEYS, move || {
                run_tenants(cfg, Transport::STS, &spec, false)
            });
        }
    }
    // The oracle on the headline mixed row (class-ideal per-object
    // configs: accel on the read-mostly class, static on the rest).
    {
        let spec = base.clone();
        crate::cell(&mut sweep, "sts / mixed / oracle", KEYS, move || {
            run_tenants(accel(), Transport::STS, &spec, true)
        });
    }
    // Backend generality: the headline row on NORMA-IPC and RDMA.
    for (bl, backend) in [("norma", Transport::NORMA), ("rdma", Transport::RDMA)] {
        for (arm, cfg) in configs() {
            let spec = base.clone();
            crate::cell(
                &mut sweep,
                format!("{bl} / mixed / {arm}"),
                KEYS,
                move || run_tenants(cfg, backend, &spec, false),
            );
        }
    }
    let report = sweep.run();

    let spec = &base;
    println!(
        "Multi-tenant sweep ({} nodes, {} objects x {} pages, {} tasks x {} ops, \
         object skew {}, readahead {RA})",
        spec.nodes,
        spec.objects,
        spec.pages_per_object,
        spec.tasks,
        spec.ops_per_task,
        spec.object_skew
    );
    println!("total fault stall in ms (faults x mean latency) per uniform arm");
    println!(
        "{:<22}{:>10}{:>10}{:>10}{:>10}{:>8}{:>10}",
        "workload", "plain", "accel", "static", "global", "best", "flt-best"
    );
    println!("{}", "-".repeat(80));
    let mut cells = report.values();
    let print_row = |label: &str, cells: &mut dyn Iterator<Item = &Outcome>| {
        let uniform: Vec<&Outcome> = (0..4)
            .map(|_| cells.next().expect("uniform cell"))
            .collect();
        let best = (0..4)
            .min_by(|&a, &b| uniform[a].stall_ms().total_cmp(&uniform[b].stall_ms()))
            .map(|i| configs()[i].0)
            .expect("four uniform arms");
        let flt_best = uniform
            .iter()
            .map(|o| o.faults())
            .min()
            .expect("four uniform arms");
        print!("{label:<22}");
        for o in &uniform {
            print!("{:>10.0}", o.stall_ms());
        }
        println!("{best:>8}{flt_best:>10}");
    };
    for (wl, _) in workloads(base.clone()) {
        print_row(&format!("sts / {wl}"), &mut cells);
    }
    let oracle = cells.next().expect("oracle cell");
    println!(
        "{:<22}{:>10.0}   (per-object class-ideal configs via set_object_config)",
        "sts / mixed / oracle",
        oracle.stall_ms()
    );
    for (bl, _) in [("norma", ()), ("rdma", ())] {
        print_row(&format!("{bl} / mixed"), &mut cells);
    }
    report.finish();
}
