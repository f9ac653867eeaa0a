//! Multi-tenant consolidation sweep: per-object adaptive strategy
//! selection vs every uniform configuration.
//!
//! A consolidated host runs *mixed tenants at once* — many Zipf-popular
//! memory objects, some sequential-scan read-mostly (analytics), some
//! hot-page write-heavy (OLTP), with tasks arriving and departing
//! (`workloads::tenants`). No uniform configuration suits both classes:
//! readahead + coalescing cut a scan's faults by more than half but are
//! pure frame cost on write-heavy objects (prefetched neighbours are
//! invalidated unread, and wider copysets make every write's
//! invalidation fan-out dearer), while the forwarding ablation's
//! static-vs-dynamic trade cuts the other way. This sweep runs
//!
//! * four uniform arms — `plain` (dynamic forwarding, no speculation),
//!   `accel` (dynamic + readahead + coalescing), `static` (the fixed
//!   distributed manager), `global` (zero-hint-state walk),
//! * the **adaptive** arm (`asvm::policy`): every object starts in the
//!   conservative Static mode with speculation stripped, and each node
//!   upgrades its replica to accelerated Dynamic only on observed read
//!   evidence — so write-heavy objects never pay the speculation tax
//!   and scan objects earn it back within a window or two, and
//! * an **oracle** arm that registers every object with its class-ideal
//!   configuration up front (`Ssi::set_object_config`) — the bound the
//!   policy chases without being told the classes,
//!
//! across workload mixes and the three transport backends.
//!
//! The headline metric is **total fault stall** (faults × mean latency):
//! scans are bandwidth-bound at the owner, so prefetch mostly converts
//! many short stalls into few long ones — mean fault latency alone would
//! call that a regression while total page-wait time and protocol work
//! (faults, frames) improve.
//!
//! The **churn** row is the honest counter-case: tenants flip their
//! read/write mix faster than the policy's window × hysteresis, so the
//! adaptive arm pays `asvm.policy.switch` churn without a stall win —
//! raise the window or disable the policy for such tenants.
//!
//! Knob: `--seed` (classes, working sets, access streams).
//!
//! Determinism: fully seeded; `--json --stable-json` regenerates
//! `BENCH_tenants.json` byte-identically.

use asvm::AsvmConfig;
use transport::Transport;
use workloads::tenants::{run_tenants, TenantsSpec, MODE_GAUGES};
use workloads::Outcome;

use crate::cli::Args;
use crate::sweep::Sweep;
use crate::Key;

/// Readahead depth of the accelerated arms (the committed `futurework`
/// sweep's depth; deep enough to stream a 16-page scan).
const RA: u32 = 4;

/// The policy window used by the adaptive arm: short enough that a scan
/// object earns its upgrade within one pass, long enough that one
/// anomalous burst cannot flip a mode by itself (hysteresis stays at the
/// default 2).
const WINDOW: u32 = 8;

const KEYS: &[Key] = &[
    "page.faults=faults",
    "stall_ms",
    "fault_us_mean=mean_fault_us",
    "asvm.msgs",
    "asvm.frames",
    "coalesce.merged=asvm.coalesce.merged",
    "policy.observe=asvm.policy.observe",
    "policy.switch=asvm.policy.switch",
    "modes.dynamic=tenants.modes.dynamic",
    "modes.static=tenants.modes.static",
    "modes.global=tenants.modes.global",
];

/// The base mixed-tenant shape (the generator's defaults at `seed`); the
/// workload rows perturb it.
pub fn base_spec(seed: u64) -> TenantsSpec {
    TenantsSpec {
        seed,
        ..TenantsSpec::default()
    }
}

/// The accelerated uniform configuration (and the accelerant base the
/// adaptive and oracle arms restore on read-mostly objects).
fn accel() -> AsvmConfig {
    AsvmConfig::with_readahead(RA).coalesced()
}

/// The five configuration arms, in table-column order. The adaptive arm
/// starts conservative: static forwarding with the accelerants stripped
/// at object creation (the policy's Static mode), upgrading per replica
/// on read evidence.
pub fn configs() -> [(&'static str, AsvmConfig); 5] {
    let mut adaptive = AsvmConfig::fixed_distributed().coalesced().adaptive();
    adaptive.prefetch = asvm::PrefetchCfg::readahead(RA);
    adaptive.policy.window = WINDOW;
    [
        ("plain", AsvmConfig::default()),
        ("accel", accel()),
        ("static", AsvmConfig::fixed_distributed()),
        ("global", AsvmConfig::global_only()),
        ("adaptive", adaptive),
    ]
}

/// Workload rows: label × spec perturbation.
pub fn workloads(base: TenantsSpec) -> [(&'static str, TenantsSpec); 4] {
    let mut read_mostly = base.clone();
    read_mostly.read_mostly_pct = 90;
    let mut write_heavy = base.clone();
    write_heavy.read_mostly_pct = 10;
    let mut churn = base.clone();
    // Flip period well under WINDOW * hysteresis observations per object:
    // the policy keeps chasing a moving target.
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
    // The oracle bound on the headline mixed row (class-ideal per-object
    // configs, accelerants restored on the read-mostly class).
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
         object skew {}, readahead {RA}, policy window {WINDOW})",
        spec.nodes,
        spec.objects,
        spec.pages_per_object,
        spec.tasks,
        spec.ops_per_task,
        spec.object_skew
    );
    println!(
        "total fault stall in ms (faults x mean latency); best/worst over the four \
         uniform arms"
    );
    println!(
        "{:<22}{:>10}{:>10}{:>10}{:>9}{:>9}{:>9}{:>7}{:>10}",
        "workload",
        "best",
        "worst",
        "adaptive",
        "vs best",
        "flt-best",
        "flt-adpt",
        "switch",
        "modes"
    );
    println!("{}", "-".repeat(96));
    let mut cells = report.values();
    let print_row = |label: &str, cells: &mut dyn Iterator<Item = &Outcome>| {
        let uniform: Vec<&Outcome> = (0..4)
            .map(|_| cells.next().expect("uniform cell"))
            .collect();
        let adaptive = cells.next().expect("adaptive cell");
        let best = uniform
            .iter()
            .map(|o| o.stall_ms())
            .fold(f64::INFINITY, f64::min);
        let worst = uniform.iter().map(|o| o.stall_ms()).fold(0.0, f64::max);
        let delta = 100.0 * (adaptive.stall_ms() / best - 1.0);
        let flt_best = uniform
            .iter()
            .map(|o| o.faults())
            .min()
            .expect("four uniform arms");
        let modes = MODE_GAUGES.map(|k| adaptive.counter(k));
        println!(
            "{:<22}{:>10.0}{:>10.0}{:>10.0}{:>+8.1}%{:>9}{:>9}{:>7}  {:>3}/{:<3}/{:<3}",
            label,
            best,
            worst,
            adaptive.stall_ms(),
            delta,
            flt_best,
            adaptive.faults(),
            adaptive.counter("asvm.policy.switch"),
            modes[0],
            modes[1],
            modes[2],
        );
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
    println!();
    println!("churn is the counter-case: the mix flips faster than the policy can");
    println!("re-learn, so switches climb without a stall win — raise the window or");
    println!("disable the policy for such tenants.");
    report.finish();
}
