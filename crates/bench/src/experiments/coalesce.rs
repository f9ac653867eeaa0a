//! Coalescing ablation: ASVM wire frames per page fault with the STS
//! message combiner off vs on.
//!
//! The paper's case for a specialized transport is that per-message
//! software overhead — not wire time — dominates remote-fault latency.
//! Coalescing attacks the message *count*: protocol sends headed for the
//! same node within one scheduling step share a single frame (one fixed
//! header, amortized per-subframe demux), acks ride data frames, and every
//! data/ack frame piggybacks the sender's owner hint. This harness sweeps
//! the sharing-heavy patterns with `AsvmConfig::coalesce` off and on and reports
//! the headline **messages-per-fault** metric (wire frames per resolved
//! fault, `(Σ asvm.msg.* − asvm.coalesce.merged) / faults`).
//!
//! Both arms run identical readahead (the main source of same-destination
//! bursts) and identical per-touch think time, so the fault denominator
//! depends only on the access pattern — see
//! `workloads::Scenario::think` — and the only difference between the
//! arms is the combiner. Migratory rides along as the honest
//! counter-case: its write-token hops serialize one page per step, so
//! there is almost nothing to merge.
//!
//! Determinism: fully seeded; `--json --stable-json` regenerates
//! `BENCH_coalesce.json` byte-identically.

use asvm::AsvmConfig;
use cluster::ManagerKind;
use svmsim::Dur;
use workloads::{run_pattern, Outcome, Pattern, Scenario};

use crate::cli::Args;
use crate::sweep::Sweep;
use crate::Key;

const NODES: u16 = 4;
const PAGES: u32 = 32;
const READAHEAD: u32 = 8;
const THINK_US: f64 = 800.0;

const PATTERNS: [(&str, Pattern); 3] = [
    ("producer/consumer", Pattern::ProducerConsumer { rounds: 4 }),
    (
        "hotspot",
        Pattern::Hotspot {
            rounds: 24,
            write_every: 4,
        },
    ),
    ("migratory", Pattern::Migratory { rounds: 4 }),
];

const KEYS: &[Key] = &[
    "page.faults=faults",
    "asvm.msgs",
    "asvm.frames",
    "coalesce.merged=asvm.coalesce.merged",
    "coalesce.piggyback_hint=asvm.coalesce.piggyback_hint",
    "coalesce.piggyback_ack=asvm.coalesce.piggyback_ack",
    "frames_per_fault_x100",
];

fn run_cell(pattern: Pattern, coalesce: bool) -> Outcome {
    let mut cfg = AsvmConfig::with_readahead(READAHEAD);
    if coalesce {
        cfg = cfg.coalesced();
    }
    let sc = Scenario::new(ManagerKind::Asvm(cfg), NODES, 17).think(Dur::from_micros_f64(THINK_US));
    run_pattern(&sc, PAGES, pattern).expect_completed("coalesce cell")
}

pub fn run(args: &Args) {
    let mut sweep = Sweep::with_config("coalesce", args.sweep.clone());
    for (label, pattern) in PATTERNS {
        for (arm, coalesce) in [("off", false), ("on", true)] {
            let label = format!("{label} / coalesce {arm}");
            crate::cell(&mut sweep, label, KEYS, move || run_cell(pattern, coalesce));
        }
    }
    let report = sweep.run();

    println!(
        "STS coalescing ablation ({NODES} nodes, {PAGES} pages, readahead {READAHEAD}, \
         {THINK_US:.0}us think/touch)"
    );
    println!("frames/fault = (logical asvm messages - merged subframes) / faults");
    println!(
        "{:<20}{:>8}{:>10}{:>10}{:>12}{:>12}{:>8}{:>8}",
        "pattern", "faults", "off f/f", "on f/f", "reduction", "merged", "hints", "acks"
    );
    println!("{}", "-".repeat(88));
    let mut cells = report.values();
    for (label, _) in PATTERNS {
        let off = cells.next().expect("off cell");
        let on = cells.next().expect("on cell");
        let (m_off, m_on) = (off.frames_per_fault(), on.frames_per_fault());
        let reduction = if m_off > 0.0 {
            100.0 * (1.0 - m_on / m_off)
        } else {
            0.0
        };
        println!(
            "{:<20}{:>8}{:>10.2}{:>10.2}{:>11.1}%{:>12}{:>8}{:>8}",
            label,
            on.faults(),
            m_off,
            m_on,
            reduction,
            on.counter("asvm.coalesce.merged"),
            on.counter("asvm.coalesce.piggyback_hint"),
            on.counter("asvm.coalesce.piggyback_ack")
        );
    }
    println!();
    println!("off-arm counters are byte-identical to a build without the combiner;");
    println!("logical asvm.msg.* counts match across arms — coalescing only changes");
    println!("how many wire frames carry them.");
    report.finish();
}
