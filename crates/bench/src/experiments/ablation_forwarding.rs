//! Ablation for §3.4: the three request-forwarding strategies.
//!
//! ASVM layers dynamic hints over static ownership managers over the
//! global walk, and lets either cache level be disabled per object:
//! static+global reproduces Kai Li's fixed distributed manager, dynamic
//! behaviour comes from enabling the hint caches. This harness measures
//! the strategies across the access patterns that stress them differently,
//! the effect of shrinking the dynamic hint cache, and the default
//! strategy's forwarding-hop histogram under a rotating writer, at the
//! harness's size and at the 64-node size where long walks once lived.

use asvm::AsvmConfig;
use cluster::ManagerKind;
use workloads::{run_pattern, Outcome, Pattern, Scenario};

use crate::cli::Args;
use crate::sweep::Sweep;

type ConfigFn = fn() -> AsvmConfig;

const CONFIGS: [(&str, ConfigFn); 4] = [
    ("dynamic+static+global (default)", AsvmConfig::default),
    (
        "static+global (Kai Li fixed)",
        AsvmConfig::fixed_distributed,
    ),
    ("dynamic+global (dynamic mgr)", AsvmConfig::dynamic_only),
    ("global only (min memory)", AsvmConfig::global_only),
];

const CACHE_SIZES: [usize; 5] = [0, 4, 16, 64, 4096];

/// The `asvm.forward.hops.*` buckets, by column label.
const HOP_BUCKETS: [(&str, &str); 5] = [
    ("1", "asvm.forward.hops.1"),
    ("2", "asvm.forward.hops.2"),
    ("3-4", "asvm.forward.hops.3-4"),
    ("5-8", "asvm.forward.hops.5-8"),
    ("9+", "asvm.forward.hops.9+"),
];

fn row(label: &str, outs: &[&Outcome]) {
    print!("{label:<36}");
    for o in outs {
        print!("{:>9.2}{:>9}", o.mean_fault_ms(), o.messages());
    }
    println!();
}

const NODES: u16 = 8;
const PAGES: u32 = 32;
/// Rotations of the migratory pattern at that size.
const ROUNDS: u32 = 4;

/// The rotating writer whose hop tail the second histogram row pins:
/// nodes, pages and rotations.
const TAIL_SHAPE: (u16, u32, u32) = (64, 128, 32);

fn run_sized(cfg: AsvmConfig, nodes: u16, pages: u32, pattern: Pattern) -> Outcome {
    let sc = Scenario::new(ManagerKind::Asvm(cfg), nodes, 17);
    run_pattern(&sc, pages, pattern).expect_completed("forwarding cell")
}

fn run_cell(cfg: AsvmConfig, pattern: Pattern) -> Outcome {
    run_sized(cfg, NODES, PAGES, pattern)
}

fn hop_row(shape: (u16, u32, u32), o: &Outcome) {
    let (nodes, pages, rounds) = shape;
    print!("{nodes:>6}{pages:>7}{rounds:>8}");
    for (_, key) in HOP_BUCKETS {
        print!("{:>8}", o.stats.counter(key));
    }
    println!("{:>16}", o.stats.counter("asvm.forward.handoff_cut"));
}

pub fn run(args: &Args) {
    let (nodes, pages) = (NODES, PAGES);
    let patterns: [(&str, Pattern); 3] = [
        ("migratory", Pattern::Migratory { rounds: ROUNDS }),
        ("producer/consumer", Pattern::ProducerConsumer { rounds: 4 }),
        (
            "hotspot",
            Pattern::Hotspot {
                rounds: 8,
                write_every: 4,
            },
        ),
    ];

    let mut sweep = Sweep::with_config("ablation_forwarding", args.sweep.clone());
    for (label, cfg) in CONFIGS {
        for (pl, p) in patterns {
            crate::cell(&mut sweep, format!("{label} / {pl}"), &[], move || {
                run_cell(cfg(), p)
            });
        }
    }
    for entries in CACHE_SIZES {
        let label = format!("cache {entries} / migratory");
        crate::cell(&mut sweep, label, &[], move || {
            let cfg = AsvmConfig {
                dynamic_cache_entries: entries,
                ..AsvmConfig::default()
            };
            run_cell(cfg, Pattern::Migratory { rounds: ROUNDS })
        });
    }
    let (tn, tp, rounds) = TAIL_SHAPE;
    crate::cell(&mut sweep, "default / migratory tail", &[], move || {
        run_sized(AsvmConfig::default(), tn, tp, Pattern::Migratory { rounds })
    });
    let report = sweep.run();

    println!("forwarding strategies x access patterns ({nodes} nodes, {pages} pages)");
    println!("columns per pattern: mean fault ms | protocol messages");
    print!("{:<36}", "");
    for (pl, _) in &patterns {
        print!("{pl:>18}");
    }
    println!();
    println!("{}", "-".repeat(36 + 18 * patterns.len()));
    let mut cells = report.values();
    for (label, _) in CONFIGS {
        let outs: Vec<&Outcome> = patterns
            .iter()
            .map(|_| cells.next().expect("one result per pattern"))
            .collect();
        row(label, &outs);
    }

    println!();
    println!("dynamic hint cache sizing (default strategy, migratory pattern):");
    println!(
        "{:>14}{:>16}{:>16}",
        "cache entries", "mean fault ms", "messages"
    );
    for entries in CACHE_SIZES {
        let o = cells.next().expect("one result per cache size");
        println!(
            "{entries:>14}{:>16.2}{:>16}",
            o.mean_fault_ms(),
            o.messages()
        );
    }
    println!();
    println!("forwarding hops before the owner served a request (default strategy,");
    println!("migratory pattern):");
    print!("{:>6}{:>7}{:>8}", "nodes", "pages", "rounds");
    for (label, _) in HOP_BUCKETS {
        print!("{label:>8}");
    }
    println!("{:>16}", "handoff cuts");
    // The first cell: the default strategy on the migratory pattern.
    let o = report.values().next().expect("the default strategy ran");
    hop_row((nodes, pages, ROUNDS), o);
    hop_row(TAIL_SHAPE, cells.next().expect("the tail cell ran"));
    println!();
    println!("hints cut forwarding hops; when a cache level is disabled or too");
    println!("small, requests fall back to the static managers and finally the");
    println!("global walk — §3.4's layered design. The global-only column shows");
    println!("what the caches buy.");
    report.finish();
}
