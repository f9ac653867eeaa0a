//! Repetitions: build a fresh world, run it, read back what happened.

use std::time::Instant;

use svmsim::NodeId;

use crate::stat;
use crate::trace::{self, Traced};
use crate::workloads::{self, Built, Expect, Scale};

/// Stall distribution as the generators measured it, simulated nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stalls {
    /// Accesses that stalled.
    pub n: u64,
    /// Sum of their stalls.
    pub total_ns: u64,
    /// Nearest-rank percentiles; `None` without ten samples beyond.
    pub p50: Option<u64>,
    /// 99th percentile.
    pub p99: Option<u64>,
    /// 99.9th percentile.
    pub p999: Option<u64>,
}

/// Everything simulated about one finished run. Repeats exactly for a
/// `(workload, seed, scale)`, traced or not: that is checked, not assumed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimState {
    /// Handler invocations.
    pub events: u64,
    /// Simulated time at quiescence, nanoseconds.
    pub elapsed_ns: u64,
    /// Operations the tasks were given.
    pub ops: u64,
    /// Operations whose completion a generator saw.
    pub completed: u64,
    /// Reads that returned the wrong value.
    pub bad_reads: u64,
    /// `Program::step` calls.
    pub gen_steps: u64,
    /// Stall distribution.
    pub stalls: Stalls,
    /// Every non-zero counter, in key order.
    pub counters: Vec<(&'static str, u64)>,
    /// Samples in the `fault.ms` tally.
    pub fault_samples: u64,
    /// Peak of simultaneously pending events.
    pub queue_peak: u64,
    /// Largest per-node protocol state, bytes.
    pub state_max_bytes: u64,
    /// Every spawned task finished.
    pub all_done: bool,
    /// The run stayed within its event budget.
    pub within_budget: bool,
}

impl SimState {
    /// Value of counter `key` (0 if never bumped).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, v)| *v)
    }

    /// Sum of the counters whose key starts with `prefix`.
    pub fn sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Operations not completed.
    pub fn failed(&self) -> u64 {
        self.ops - self.completed
    }

    /// The printed `sim_digest`: events, faults, messages, simulated time
    /// and the stall distribution. A change that only speeds the simulator
    /// up must leave it identical.
    pub fn digest(&self) -> u64 {
        let s = &self.stalls;
        let opt = |v: Option<u64>| v.unwrap_or(u64::MAX);
        stat::digest(&[
            self.events,
            self.counter("faults.completed"),
            self.counter("net.messages"),
            self.elapsed_ns,
            s.n,
            s.total_ns,
            opt(s.p50),
            opt(s.p99),
            opt(s.p999),
        ])
    }

    /// Output checks; each returned line is one failed check.
    pub fn problems(&self, expect: &Expect, scale: Scale) -> Vec<String> {
        let mut out = Vec::new();
        if self.bad_reads > 0 {
            out.push(format!("{} reads returned the wrong value", self.bad_reads));
        }
        if expect.healthy {
            if !self.within_budget {
                out.push("event budget exceeded".into());
            }
            if !self.all_done || self.failed() > 0 {
                out.push(format!(
                    "{} of {} operations did not complete",
                    self.failed(),
                    self.ops
                ));
            }
            for (k, v) in &self.counters {
                let recovery = k.starts_with("asvm.recover.") || k.starts_with("cluster.suspect.");
                if recovery {
                    out.push(format!("healthy run bumped {k} = {v}"));
                }
            }
        }
        if expect.stalls_are_faults && self.stalls.n != self.fault_samples {
            out.push(format!(
                "{} stalled accesses but {} fault.ms samples",
                self.stalls.n, self.fault_samples
            ));
        }
        if scale == Scale::Full && self.stalls.p999.is_none() {
            out.push(format!(
                "only {} stall samples: too few for p99.9",
                self.stalls.n
            ));
        }
        out
    }
}

/// Host-side measurements of one repetition.
#[derive(Clone, Copy, Debug)]
pub struct HostTimes {
    /// Input generation + world construction + spawn.
    pub setup_s: f64,
    /// The run loop alone.
    pub run_s: f64,
}

/// What the generators' self-timing saw (traced runs only).
#[derive(Clone, Copy, Debug)]
pub struct GenTiming {
    /// Timed `step` bodies.
    pub timed_steps: u64,
    /// Ticks spent in them, one clock read each included.
    pub timed_ticks: u64,
}

/// One finished repetition.
pub struct Rep {
    /// Host times.
    pub host: HostTimes,
    /// Simulated state.
    pub sim: SimState,
    /// Output checks that apply.
    pub expect: Expect,
    /// Generator self-timing.
    pub gen: GenTiming,
    /// The spans, if the run was traced.
    pub traced: Option<Traced>,
}

/// How to drive the run loop.
pub enum Mode {
    /// `Ssi::run`: what end-to-end numbers are taken from.
    Plain,
    /// Step by step with spans, reusing this span store.
    Traced(Vec<u64>),
}

/// Builds `name` afresh; the seconds that took are `setup_s`.
fn timed_build(name: &str, seed: u64, scale: Scale, time_steps: bool) -> (Built, f64) {
    let t0 = Instant::now();
    let built = workloads::build(name, seed, scale, time_steps);
    let setup_s = t0.elapsed().as_secs_f64();
    (built, setup_s)
}

/// Builds `name` afresh and runs it to quiescence.
pub fn rep(name: &str, seed: u64, scale: Scale, mode: Mode) -> Rep {
    let (mut built, setup_s) = timed_build(name, seed, scale, matches!(mode, Mode::Traced(_)));
    let (run_s, within_budget, traced) = match mode {
        Mode::Plain => {
            let t1 = Instant::now();
            let ok = built.ssi.run(built.budget).is_ok();
            (t1.elapsed().as_secs_f64(), ok, None)
        }
        Mode::Traced(marks) => {
            let t = trace::run(&mut built.ssi, built.budget, marks);
            (t.secs, t.within_budget, Some(t))
        }
    };
    let (sim, gen) = read_back(&built, within_budget);
    Rep {
        host: HostTimes { setup_s, run_s },
        sim,
        expect: built.expect,
        gen,
        traced,
    }
}

/// Only the set-up half of [`rep`], for extra `setup_s` samples.
pub fn setup_only(name: &str, seed: u64, scale: Scale) -> f64 {
    timed_build(name, seed, scale, false).1
}

fn read_back(built: &Built, within_budget: bool) -> (SimState, GenTiming) {
    let Built { ssi, rec, ops, .. } = built;
    let mut rec = rec.borrow_mut();
    rec.stalls.sort_unstable();
    let stalls = Stalls {
        n: rec.stalls.len() as u64,
        total_ns: rec.stalls.iter().sum(),
        p50: stat::percentile(&rec.stalls, 500),
        p99: stat::percentile(&rec.stalls, 990),
        p999: stat::percentile(&rec.stalls, 999),
    };
    let stats = ssi.stats();
    let state_max_bytes = (0..built.nodes)
        .map(|n| ssi.node(NodeId(n)).engine.state_bytes())
        .max()
        .unwrap_or(0);
    let sim = SimState {
        events: ssi.world.events_processed(),
        elapsed_ns: ssi.world.now().as_nanos(),
        ops: *ops,
        completed: rec.completed,
        bad_reads: rec.bad_reads,
        gen_steps: rec.steps,
        stalls,
        counters: stats.counters().collect(),
        fault_samples: stats.tally("fault.ms").map_or(0, |t| t.count),
        queue_peak: ssi.world.queue_peak() as u64,
        state_max_bytes,
        all_done: ssi.all_done(),
        within_budget,
    };
    let gen = GenTiming {
        timed_steps: rec.timed_steps,
        timed_ticks: rec.timed_ticks,
    };
    (sim, gen)
}

/// Peak resident set of this process, MiB: `VmHWM` of `/proc/self/status`,
/// or where `/proc` is not mounted (a sandbox) `ru_maxrss`, the same
/// high-water mark as `getrusage` reports it. That one survives `exec`, so
/// it is never below `VmHWM` and equal to it once this process has outgrown
/// the shell that started it, as every workload does.
pub fn peak_rss_mb() -> Option<f64> {
    let from_proc = || {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse::<f64>().ok()
    };
    let kb = from_proc().or_else(max_rss_kb)?;
    Some(kb / 1024.0)
}

/// `ru_maxrss` of this process, KiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn max_rss_kb() -> Option<f64> {
    /// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // above; 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut usage) };
    (rc == 0 && usage.maxrss > 0).then_some(usage.maxrss as f64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn max_rss_kb() -> Option<f64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn ru_maxrss_is_read_and_not_below_vm_hwm() {
        let hwm_mb = peak_rss_mb().expect("VmHWM or ru_maxrss");
        let max_mb = max_rss_kb().expect("getrusage") / 1024.0;
        // Not below, and not absurdly above either (the test harness that
        // exec'ed this process peaked at tens of MiB).
        assert!(
            max_mb >= 0.99 * hwm_mb && max_mb < 4096.0,
            "{max_mb} vs {hwm_mb}"
        );
    }
}
