//! The experiments `bench <name>` can run, one module each.

use crate::cli::Args;

mod ablation_forwarding;
mod ablation_memory;
mod ablation_paging;
mod ablation_transport;
mod chaossweep;
mod faultsweep;
mod figure10;
mod figure11;
mod futurework;
mod megascale;
mod prefetch;
mod table1;
mod table2;
mod table3;
pub mod tenants;

/// One entry of `bench list`.
pub struct Experiment {
    /// What `bench <name>` and `BENCH_<name>.json` call it.
    pub name: &'static str,
    /// What it reproduces.
    pub about: &'static str,
    /// `"--seed"` if the seed changes its cells (it is accepted, and
    /// changes nothing, elsewhere).
    pub knobs: &'static str,
    /// Runs the sweep and prints its table.
    pub run: fn(&Args),
}

macro_rules! experiments {
    ($($name:ident [$knobs:literal] $about:literal),* $(,)?) => {
        /// Every experiment, in `bench list` order.
        pub const ALL: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            about: $about,
            knobs: $knobs,
            run: $name::run,
        }),*];
    };
}

experiments! {
    table1 [""] "Table 1 — page fault latencies",
    figure10 [""] "Figure 10 — write fault latency vs read copies",
    figure11 [""] "Figure 11 — inherited-memory faults vs copy-chain length",
    table2 [""] "Table 2 / Figures 12–13 — mapped-file transfer rates",
    table3 [""] "Table 3 — EM3D timings",
    ablation_transport ["--seed"] "§3.1 — NORMA vs STS, 5 vs 3 messages; backend × pattern; recovery by backend",
    ablation_memory [""] "§3.1 — manager memory requirements",
    ablation_forwarding [""] "§3.4 — forwarding strategy mix",
    ablation_paging [""] "§3.6 — internode paging behaviour",
    futurework [""] "§6 — striping and read clustering",
    faultsweep [""] "completion time and retry traffic vs link loss",
    chaossweep ["--seed"] "every pattern through a permanent node blackout",
    megascale ["--seed"] "events/s and per-node protocol state at 128–1024 nodes",
    prefetch [""] "stream-driven data prefetch, off vs on",
    tenants ["--seed"] "multi-tenant Zipf mix, uniform arms vs a per-object oracle",
}

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.name == name)
}
