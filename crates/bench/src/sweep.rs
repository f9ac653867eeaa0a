//! Parallel sweep harness for the `bench` driver's experiments.
//!
//! Every table/figure reproduction sweeps a grid of simulation cells
//! (manager kind × node count × problem size). The cells are independent
//! deterministic simulations, so they parallelize trivially — except that
//! [`cluster::Ssi`]'s `World` is `!Send` (page contents are `Rc`-shared).
//! The harness therefore never moves a world between threads: each cell is
//! a `FnOnce` closure that *constructs and runs* its world entirely on the
//! worker thread that claims it, returning plain `Send` results.
//!
//! Output discipline: `run` prints nothing, and results come back in
//! cell-index order, so a table printed from the report is **byte-identical**
//! between serial and parallel runs. Host timing goes to stderr only; with
//! `--json` the cells' events and counters go to a `BENCH_<name>.json`
//! file, which holds no host-dependent field and so is byte-identical
//! between runs and thread counts too (`perf/` owns host time).
//!
//! The driver's flags (`--serial`, `--threads N`, `--json`; see
//! [`crate::cli`]) resolve to a [`SweepConfig`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a sweep should execute.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Worker thread count (1 = serial).
    pub threads: usize,
    /// Write a `BENCH_<name>.json` file after the sweep.
    pub json: bool,
}

impl SweepConfig {
    /// A fixed-thread-count configuration (used by the determinism tests).
    pub fn with_threads(threads: usize) -> SweepConfig {
        SweepConfig {
            threads: threads.max(1),
            json: false,
        }
    }
}

/// Named counters a cell reports alongside its value (per-message-kind
/// statistics in the benchmark binaries).
pub type CellCounters = Vec<(String, u64)>;

type Job<T> = Box<dyn FnOnce() -> (T, u64, CellCounters) + Send>;

/// One finished cell before labelling: value, events, counters.
type Done<T> = (T, u64, CellCounters);

/// A sweep under construction: named, configured, accumulating cells.
pub struct Sweep<T> {
    name: &'static str,
    config: SweepConfig,
    labels: Vec<String>,
    jobs: Vec<Job<T>>,
}

/// One finished cell: the job's value plus the harness's accounting.
#[derive(Clone, Debug)]
pub struct CellResult<T> {
    /// The cell's label (for the JSON file).
    pub label: String,
    /// What the job returned.
    pub value: T,
    /// Simulator events the job reported processing.
    pub events: u64,
    /// Named counters the job reported (empty unless the cell was added
    /// with [`Sweep::cell_with_counters`]).
    pub counters: CellCounters,
}

/// A completed sweep, cells in submission order regardless of how many
/// threads ran them.
pub struct SweepReport<T> {
    /// The sweep's name (`BENCH_<name>.json`).
    pub name: &'static str,
    config: SweepConfig,
    /// Finished cells, in the order they were added.
    pub cells: Vec<CellResult<T>>,
    /// Wall-clock duration of the whole sweep.
    pub total_wall: Duration,
}

impl<T: Send> Sweep<T> {
    /// A sweep named `name` (its `BENCH_<name>.json`) run under `config`.
    pub fn with_config(name: &'static str, config: SweepConfig) -> Sweep<T> {
        Sweep {
            name,
            config,
            labels: Vec::new(),
            jobs: Vec::new(),
        }
    }

    /// Adds one cell. The closure must construct *and* run its simulation:
    /// worlds are `!Send`, so nothing world-shaped may cross threads. It
    /// returns its result plus the number of simulator events processed.
    pub fn cell(
        &mut self,
        label: impl Into<String>,
        job: impl FnOnce() -> (T, u64) + Send + 'static,
    ) {
        self.cell_with_counters(label, move || {
            let (value, events) = job();
            (value, events, Vec::new())
        });
    }

    /// Adds one cell whose job also reports named counters (e.g. protocol
    /// messages broken down by kind); they land in the cell's JSON record.
    pub fn cell_with_counters(
        &mut self,
        label: impl Into<String>,
        job: impl FnOnce() -> (T, u64, CellCounters) + Send + 'static,
    ) {
        self.labels.push(label.into());
        self.jobs.push(Box::new(job));
    }

    /// Runs every cell and returns the report, results in cell order.
    /// Prints nothing (see the module docs on output discipline).
    pub fn run(self) -> SweepReport<T> {
        let Sweep {
            name,
            config,
            labels,
            jobs,
        } = self;
        let n = jobs.len();
        let threads = config.threads.min(n.max(1));
        let started = Instant::now();

        let done: Vec<Done<T>> = if threads <= 1 {
            jobs.into_iter().map(|job| job()).collect()
        } else {
            // Work-stealing over an atomic cursor: each worker claims the
            // next unclaimed cell, runs it locally, and deposits the result
            // in that cell's slot. Slot order — not completion order —
            // determines the report, which is what keeps parallel output
            // byte-identical to serial.
            let slots: Vec<Mutex<Option<Done<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
            let pending: Vec<Mutex<Option<Job<T>>>> =
                jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let job = pending[i].lock().unwrap().take().unwrap();
                        *slots[i].lock().unwrap() = Some(job());
                    });
                }
            });
            slots
                .into_iter()
                .map(|s| s.into_inner().unwrap().expect("worker deposited result"))
                .collect()
        };

        let cells = labels
            .into_iter()
            .zip(done)
            .map(|(label, (value, events, counters))| CellResult {
                label,
                value,
                events,
                counters,
            })
            .collect();
        SweepReport {
            name,
            config,
            cells,
            total_wall: started.elapsed(),
        }
    }
}

impl<T> SweepReport<T> {
    /// Total simulator events across all cells.
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    /// The cell values in order (for printing the table).
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.cells.iter().map(|c| &c.value)
    }

    /// Emits the timing summary to stderr and, in `--json` mode, writes the
    /// `BENCH_<name>.json` file. Stdout is untouched.
    pub fn finish(&self) {
        let secs = self.total_wall.as_secs_f64();
        eprintln!(
            "[{}] {} cells on {} thread{} in {:.3}s — {} events, {:.0} events/s",
            self.name,
            self.cells.len(),
            self.config.threads,
            if self.config.threads == 1 { "" } else { "s" },
            secs,
            self.total_events(),
            if secs > 0.0 {
                self.total_events() as f64 / secs
            } else {
                0.0
            },
        );
        if self.config.json {
            let path = format!("BENCH_{}.json", self.name);
            std::fs::write(&path, self.to_json()).expect("write benchmark JSON");
            eprintln!("[{}] wrote {}", self.name, path);
        }
    }

    /// The JSON document (hand-rolled; the workspace has no serde). It
    /// holds only simulated quantities, so a deterministic sweep
    /// serializes byte-identically on every run and thread count.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"name\": {},\n", json_str(self.name)));
        s.push_str(&format!("  \"total_events\": {},\n", self.total_events()));
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let mut counters = String::new();
            if !c.counters.is_empty() {
                counters.push_str(", \"counters\": {");
                for (j, (k, v)) in c.counters.iter().enumerate() {
                    if j > 0 {
                        counters.push_str(", ");
                    }
                    counters.push_str(&format!("{}: {}", json_str(k), v));
                }
                counters.push('}');
            }
            s.push_str(&format!(
                "    {{\"label\": {}, \"events\": {}{}}}{}\n",
                json_str(&c.label),
                c.events,
                counters,
                if i + 1 < self.cells.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(threads: usize) -> SweepReport<u64> {
        let mut sweep = Sweep::with_config("squares", SweepConfig::with_threads(threads));
        for i in 0..17u64 {
            sweep.cell(format!("cell{i}"), move || (i * i, i));
        }
        sweep.run()
    }

    #[test]
    fn results_come_back_in_cell_order() {
        for threads in [1, 4] {
            let report = squares(threads);
            let values: Vec<u64> = report.values().copied().collect();
            assert_eq!(values, (0..17u64).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(report.total_events(), (0..17u64).sum::<u64>());
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let a: Vec<u64> = squares(1).values().copied().collect();
        let b: Vec<u64> = squares(8).values().copied().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn more_threads_than_cells_is_fine() {
        let mut sweep = Sweep::with_config("tiny", SweepConfig::with_threads(64));
        sweep.cell("only", || (42u64, 1));
        let report = sweep.run();
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].value, 42);
    }

    #[test]
    fn counters_appear_in_json() {
        let mut sweep = Sweep::with_config("ctr", SweepConfig::with_threads(1));
        sweep.cell_with_counters("probe", || {
            (1u64, 5, vec![("asvm.msg.grant".to_string(), 3u64)])
        });
        sweep.cell("plain", || (2u64, 1));
        let report = sweep.run();
        assert_eq!(report.cells[0].counters.len(), 1);
        assert!(report.cells[1].counters.is_empty());
        let json = report.to_json();
        assert!(
            json.contains(r#""counters": {"asvm.msg.grant": 3}"#),
            "{json}"
        );
        assert!(
            json.contains("{\"label\": \"plain\", \"events\": 1}\n"),
            "{json}"
        );
    }

    #[test]
    fn json_escapes_labels() {
        let mut sweep = Sweep::with_config("esc", SweepConfig::with_threads(1));
        sweep.cell("a \"b\"\n\\c", || (0u64, 0));
        let json = sweep.run().to_json();
        assert!(json.contains(r#""a \"b\"\n\\c""#), "{json}");
    }
}
