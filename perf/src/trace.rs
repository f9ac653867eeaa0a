//! The step-traced run: where a workload's host time goes.
//!
//! `World::step` is the one public seam at which every handler of every
//! layer is entered, so the traced run replaces `Ssi::run` by a loop over
//! it and classifies every step afterwards from what moved: the event count
//! and four interned counters. Class counts are therefore exact.
//!
//! Host time is taken in windows: [`WINDOW`] consecutive steps out of every
//! [`PERIOD`] are timed back to back, one clock read per step (spans are
//! contiguous: a step starts where the previous one ended). Timing every
//! step was the first design; on the reference box a clock read between two
//! 100 ns `eventloop` steps costs 31 ns, a 47 % `trace.overhead_pct`, and a
//! quarter of the steps still is 4 M spans there. A class's host time is
//! its mean timed span times its exact count. Spans stay in memory and are
//! summarised after the run.

use cluster::Ssi;
use svmsim::StatId;

use crate::clock::{self, Bracket};
use crate::stat;

/// What a simulator step did, by the most expensive thing that moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// No handler ran: a message parked behind a busy receiver, or a wake
    /// found the processor busy again and went back to sleep.
    Park = 0,
    /// A pager touched its disk.
    Disk = 1,
    /// A page fault completed (grant handling, VM install, task resume).
    Complete = 2,
    /// A handler sent at least one network message.
    Send = 3,
    /// A handler ran and stayed on its node: task resumes, compute bursts,
    /// timers.
    Local = 4,
}

impl Class {
    /// All classes, in discriminant order.
    pub const ALL: [Class; 5] = [
        Class::Park,
        Class::Disk,
        Class::Complete,
        Class::Send,
        Class::Local,
    ];

    /// Name used in metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Class::Park => "park",
            Class::Disk => "disk",
            Class::Complete => "complete",
            Class::Send => "send",
            Class::Local => "local",
        }
    }
}

/// The quantities a step can move.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Moved {
    /// `World::events_processed`.
    pub events: u64,
    /// `disk.reads` + `disk.writes`.
    pub disk: u64,
    /// `faults.completed`.
    pub completed: u64,
    /// `net.messages`.
    pub sent: u64,
}

/// Classifies the step that took the world from `before` to `after`.
/// Priority: park, disk, complete, send, local — a step that both
/// completes a fault and sends (a grant that triggers the next request) is
/// a completion, because that is where its time goes.
pub fn classify(before: &Moved, after: &Moved) -> Class {
    if after.events == before.events {
        Class::Park
    } else if after.disk != before.disk {
        Class::Disk
    } else if after.completed != before.completed {
        Class::Complete
    } else if after.sent != before.sent {
        Class::Send
    } else {
        Class::Local
    }
}

/// Steps timed back to back at the start of every [`PERIOD`].
pub const WINDOW: u64 = 256;
/// Steps from one window's start to the next.
pub const PERIOD: u64 = 1024;
const _: () = assert!(WINDOW < PERIOD);

const CLASS_BITS: u32 = 3;
const CLASS_MASK: u64 = (1 << CLASS_BITS) - 1;
/// Not a span: the clock reading a window's first span starts at.
const WINDOW_START: u64 = CLASS_MASK;

/// Spans of one traced run. One word per timed step, `end_tick << 3 |
/// class`; a span starts where its predecessor ended, the first of a window
/// at that window's `WINDOW_START` mark.
pub struct Spans {
    marks: Vec<u64>,
    /// Steps of each class, timed or not.
    counts: [u64; 5],
    ns_per_tick: f64,
}

/// Result of [`run`].
pub struct Traced {
    /// Whether the run stayed within its event budget.
    pub within_budget: bool,
    /// Host seconds of the traced loop.
    pub secs: f64,
    /// The spans.
    pub spans: Spans,
}

struct Probe {
    disk_reads: StatId,
    disk_writes: StatId,
    completed: StatId,
    sent: StatId,
}

impl Probe {
    fn read(&self, ssi: &Ssi) -> Moved {
        let s = ssi.world.stats();
        Moved {
            events: ssi.world.events_processed(),
            disk: s.counter_value(self.disk_reads) + s.counter_value(self.disk_writes),
            completed: s.counter_value(self.completed),
            sent: s.counter_value(self.sent),
        }
    }
}

/// Runs `ssi` to quiescence (or past `budget` events) one step at a time.
/// `marks` is reused across runs so a traced run allocates nothing new.
pub fn run(ssi: &mut Ssi, budget: u64, mut marks: Vec<u64>) -> Traced {
    marks.clear();
    let stats = ssi.world.stats_mut();
    let probe = Probe {
        disk_reads: stats.counter_id("disk.reads"),
        disk_writes: stats.counter_id("disk.writes"),
        completed: stats.counter_id("faults.completed"),
        sent: stats.counter_id("net.messages"),
    };
    let mut before = probe.read(ssi);
    let limit = before.events.saturating_add(budget);
    let mut within_budget = true;
    let mut counts = [0u64; 5];
    let mut taken = 0u64;
    let bracket = Bracket::start();
    marks.push(bracket.first_tick() << CLASS_BITS | WINDOW_START);
    while ssi.world.step() {
        let after = probe.read(ssi);
        let class = classify(&before, &after);
        counts[class as usize] += 1;
        let phase = taken % PERIOD;
        if phase < WINDOW {
            marks.push(clock::ticks() << CLASS_BITS | class as u64);
        } else if phase == PERIOD - 1 {
            marks.push(clock::ticks() << CLASS_BITS | WINDOW_START);
        }
        taken += 1;
        before = after;
        if after.events > limit {
            within_budget = false;
            break;
        }
    }
    let (secs, ns_per_tick) = bracket.finish();
    Traced {
        within_budget,
        secs,
        spans: Spans {
            marks,
            counts,
            ns_per_tick,
        },
    }
}

/// Host-time summary of one step class.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClassSummary {
    /// Steps of the class (exact).
    pub count: u64,
    /// Their total host time, nanoseconds: mean timed span x count.
    pub total_ns: f64,
    /// Median step, nanoseconds (0 without enough samples).
    pub p50_ns: f64,
    /// 99th-percentile step, nanoseconds (0 without enough samples).
    pub p99_ns: f64,
}

impl Spans {
    /// Steps taken.
    pub fn steps(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Gives the span store back for reuse.
    pub fn into_marks(self) -> Vec<u64> {
        self.marks
    }

    /// Length of one clock tick, nanoseconds.
    pub fn ns_per_tick(&self) -> f64 {
        self.ns_per_tick
    }

    /// Per-class step counts, host time and percentiles. A class no window
    /// caught has no host time.
    pub fn summarise(&self) -> [ClassSummary; 5] {
        let mut ticks: [Vec<u64>; 5] = Default::default();
        let mut prev = 0;
        for m in &self.marks {
            let end = m >> CLASS_BITS;
            if m & CLASS_MASK != WINDOW_START {
                ticks[(m & CLASS_MASK) as usize].push(end.saturating_sub(prev));
            }
            prev = end;
        }
        let mut out = [ClassSummary::default(); 5];
        for ((s, t), count) in out.iter_mut().zip(&mut ticks).zip(self.counts) {
            t.sort_unstable();
            let ns = |v: Option<u64>| v.map_or(0.0, |v| v as f64 * self.ns_per_tick);
            let mean = t.iter().sum::<u64>() as f64 / t.len().max(1) as f64;
            *s = ClassSummary {
                count,
                total_ns: mean * count as f64 * self.ns_per_tick,
                p50_ns: ns(stat::percentile(t, 500)),
                p99_ns: ns(stat::percentile(t, 990)),
            };
        }
        out
    }
}

/// Cost of one clock read, in ticks: the median distance of back-to-back
/// reads. Subtracted from the generator's timed `step` bodies, each of
/// which contains one read.
pub fn tick_cost() -> u64 {
    let mut d: Vec<u64> = (0..1001)
        .map(|_| {
            let a = clock::ticks();
            clock::ticks().saturating_sub(a)
        })
        .collect();
    d.sort_unstable();
    d[d.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: Moved = Moved {
        events: 10,
        disk: 1,
        completed: 2,
        sent: 3,
    };

    #[test]
    fn classifier_priority_is_park_disk_complete_send_local() {
        let all = Moved {
            events: 11,
            disk: 2,
            completed: 3,
            sent: 4,
        };
        assert_eq!(classify(&BASE, &all), Class::Disk);
        assert_eq!(classify(&BASE, &Moved { disk: 1, ..all }), Class::Complete);
        let send = Moved {
            events: 11,
            sent: 9,
            ..BASE
        };
        assert_eq!(classify(&BASE, &send), Class::Send);
        assert_eq!(classify(&BASE, &Moved { events: 11, ..BASE }), Class::Local);
        // No handler ran: park, whatever else claims to have moved.
        assert_eq!(classify(&BASE, &Moved { events: 10, ..all }), Class::Park);
        assert_eq!(classify(&BASE, &BASE), Class::Park);
    }

    #[test]
    fn class_names_and_discriminants_line_up() {
        for (i, c) in Class::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        assert_eq!(Class::Complete.name(), "complete");
    }

    #[test]
    fn summary_rebuilds_spans_and_scales_by_exact_counts() {
        // Ticks of 2 ns. Window one: 30 local steps of 5 ticks, one send of
        // 100. An untimed gap, then window two: one send of 300.
        let mut marks = vec![1_000 << CLASS_BITS | WINDOW_START];
        let mut t = 1_000u64;
        for _ in 0..30 {
            t += 5;
            marks.push(t << CLASS_BITS | Class::Local as u64);
        }
        t += 100;
        marks.push(t << CLASS_BITS | Class::Send as u64);
        t += 1_000_000;
        marks.push(t << CLASS_BITS | WINDOW_START);
        t += 300;
        marks.push(t << CLASS_BITS | Class::Send as u64);
        // 90 local and 4 send steps were taken in all.
        let mut counts = [0; 5];
        counts[Class::Local as usize] = 90;
        counts[Class::Send as usize] = 4;
        let spans = Spans {
            marks,
            counts,
            ns_per_tick: 2.0,
        };
        assert_eq!(spans.steps(), 94);
        let s = spans.summarise();
        let local = s[Class::Local as usize];
        assert_eq!(local.count, 90);
        // Mean timed span 5 ticks = 10 ns, times the 90 steps taken.
        assert_eq!(local.total_ns, 900.0);
        assert_eq!(local.p50_ns, 10.0);
        // Fewer than ten samples beyond the 99th percentile: withheld.
        assert_eq!(local.p99_ns, 0.0);
        // The gap between the windows is in no span.
        let send = s[Class::Send as usize];
        assert_eq!((send.count, send.total_ns), (4, 4.0 * 400.0));
        assert_eq!(s[Class::Park as usize], ClassSummary::default());
    }

    #[test]
    fn window_marker_is_not_a_class() {
        assert!(Class::ALL.iter().all(|c| *c as u64 != WINDOW_START));
    }
}
