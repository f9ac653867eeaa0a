//! `bench` — the one driver regenerating every table and figure of the
//! paper, and the ablations and sweeps that grew around them.
//!
//! `bench list` names the experiments; `bench <name>` runs one (flags:
//! [`cli`]). Each experiment is a module of [`experiments`]: a declarative
//! list of cells — label, a closure building and running a
//! [`workloads::Scenario`], and the counter keys to export from the
//! finished run's statistics snapshot ([`export`]) — plus the printer of
//! its table. Tables print paper-reported values next to measured ones.
//! Absolute match is not the goal — the machine is a simulator — but the
//! *shape* (who wins, by what factor, where crossovers fall) must hold.
//! `EXPERIMENTS.md` records a full run.
//!
//! Cells run through the [`sweep`] harness: parallel across worker
//! threads by default, stdout byte-identical regardless of thread count,
//! `--json` for a `BENCH_<name>.json` trajectory file. Every cell that
//! completes has passed the quiescence invariants
//! ([`workloads::Scenario::finish`]); a violation fails the experiment.

pub mod cli;
pub mod experiments;
pub mod sweep;

use sweep::{CellCounters, Sweep};
use workloads::{FileScanResult, Outcome};

/// Formats a paper-vs-measured pair.
pub fn pair(paper: f64, measured: f64) -> String {
    format!("{paper:>7.2}/{measured:<7.2}")
}

/// One exported counter of a cell's JSON record: `"name"`, or
/// `"name=source"` when the JSON key differs from its source.
///
/// The source is a statistics counter name, a trailing-`*` prefix (every
/// non-zero counter under it, each under its own name), or one of the
/// derived figures [`metric`] knows.
pub type Key = &'static str;

/// Resolves one export source against a finished run. Derived sources —
/// everything that is not a plain counter — are integer encodings of
/// [`Outcome`]'s methods and gauges:
///
/// | source | value |
/// |---|---|
/// | `faults` | page faults completed (`fault.ms` samples) |
/// | `elapsed_us`, `mean_fault_us`, `stall_ms` | rounded times |
/// | `messages`, `dropped` | transport totals (all backends; loss + blackout) |
/// | `asvm.msgs` | ASVM protocol messages |
/// | `state.{max,mean,total}_bytes`, `queue.{peak,grow}` | the [`workloads::StateProbe`] |
pub fn metric(o: &Outcome, source: &'static str) -> u64 {
    match source {
        "faults" => o.faults(),
        "elapsed_us" => (o.elapsed_s() * 1e6).round() as u64,
        "mean_fault_us" => (o.mean_fault_ms() * 1e3).round() as u64,
        "stall_ms" => o.stall_ms().round() as u64,
        "messages" => o.messages(),
        "dropped" => o.dropped(),
        "asvm.msgs" => o.asvm_msgs(),
        "state.max_bytes" => o.probe.state_max_bytes,
        "state.mean_bytes" => o.probe.state_mean_bytes,
        "state.total_bytes" => o.probe.state_total_bytes,
        "queue.peak" => o.probe.queue_peak,
        "queue.grow" => o.probe.queue_grow,
        counter => o.counter(counter),
    }
}

/// The JSON counters of one cell: `keys` resolved against `o`, in order.
pub fn export(o: &Outcome, keys: &[Key]) -> CellCounters {
    let mut out = CellCounters::new();
    for key in keys {
        let (name, source) = key.split_once('=').unwrap_or((key, key));
        match source.strip_suffix('*') {
            Some(prefix) => out.extend(
                o.stats
                    .counters()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .map(|(k, v)| (k.to_string(), v)),
            ),
            None => out.push((name.to_string(), metric(o, source))),
        }
    }
    out
}

/// A cell value that carries its run's [`Outcome`].
pub trait HasOutcome {
    /// The finished run.
    fn outcome(&self) -> &Outcome;
}

impl HasOutcome for Outcome {
    fn outcome(&self) -> &Outcome {
        self
    }
}

impl HasOutcome for FileScanResult {
    fn outcome(&self) -> &Outcome {
        &self.outcome
    }
}

/// A bespoke cell's own measurement next to its run.
impl<X> HasOutcome for (X, Outcome) {
    fn outcome(&self) -> &Outcome {
        &self.1
    }
}

/// Adds one cell to `sweep`: `job` builds and runs its scenario on the
/// worker thread that claims it; the cell's event count and the `keys`
/// exported from its snapshot land in the JSON record.
pub fn cell<T: HasOutcome + Send + 'static>(
    sweep: &mut Sweep<T>,
    label: impl Into<String>,
    keys: &'static [Key],
    job: impl FnOnce() -> T + Send + 'static,
) {
    sweep.cell_with_counters(label, move || {
        let value = job();
        let o = value.outcome();
        let (events, counters) = (o.events, export(o, keys));
        (value, events, counters)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_resolves_counters_prefixes_and_derived_sources() {
        use cluster::ManagerKind;
        use workloads::{run_pattern, Pattern, Scenario};
        let o = run_pattern(
            &Scenario::new(ManagerKind::asvm(), 2, 17),
            4,
            Pattern::Migratory { rounds: 1 },
        );
        let got = export(
            &o,
            &["page.faults=faults", "sts=sts.messages", "asvm.msg.*"],
        );
        assert_eq!(got[0], ("page.faults".to_string(), o.faults()));
        assert_eq!(got[1], ("sts".to_string(), o.counter("sts.messages")));
        assert!(got.len() > 2, "the prefix expands to the message kinds");
        assert!(got[2..]
            .iter()
            .all(|(k, v)| k.starts_with("asvm.msg.") && *v > 0));
        assert_eq!(got[2..].iter().map(|(_, v)| v).sum::<u64>(), o.asvm_msgs());
    }
}
