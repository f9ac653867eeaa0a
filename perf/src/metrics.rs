//! The benchmark's metric catalogue: every name `BENCHMARK.json` declares,
//! in the order it is printed. `tests/quick.rs` holds the two in step.

use crate::run::SimState;
use crate::trace::{Class, ClassSummary};

/// Which clock (if any) a metric reads. Decides how `check_repeat.sh`
/// compares two runs of one commit: host values within the bound,
/// everything else exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host time or memory: noisy.
    Host,
    /// Simulated time, a count, or a ratio of counts: repeats exactly.
    Exact,
}

impl Kind {
    /// Column value in the TSV report.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Exact => "exact",
        }
    }
}

/// A declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Decl {
    /// Name, final: later issues cite it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether lower is better (else higher).
    pub lower_is_better: bool,
    /// Clock class.
    pub kind: Kind,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only; per-layer metrics have no bound).
    pub bound: f64,
}

const fn host(name: &'static str, unit: &'static str, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        lower_is_better: true,
        kind: Kind::Host,
        bound,
    }
}

const fn exact(name: &'static str, unit: &'static str, bound: f64) -> Decl {
    Decl {
        kind: Kind::Exact,
        ..host(name, unit, bound)
    }
}

/// End-to-end metrics, per workload. A simulated metric's bound is at least
/// three times the widest spread (interquartile range over median, ten
/// seeds) any workload showed - see the README's table - so that a median
/// over seeds that moves by a bound is a change, not the seeds. The host
/// times get the widest bound the contract allows: the reference box has
/// minutes in which everything runs a third slower.
pub const END_TO_END: [Decl; 8] = [
    host("run_s", "s", 0.25),
    host("setup_s", "s", 0.25),
    host("peak_rss_mb", "MiB", 0.12),
    exact("sim_elapsed_s", "s", 0.03),
    exact("sim_stall_p50_ms", "ms", 0.05),
    exact("sim_stall_p99_ms", "ms", 0.08),
    exact("sim_stall_p999_ms", "ms", 0.18),
    exact("sim_stall_total_s", "s", 0.03),
];

const fn layer(name: &'static str, unit: &'static str, kind: Kind) -> Decl {
    Decl {
        name,
        unit,
        lower_is_better: true,
        kind,
        bound: 0.0,
    }
}

const fn higher(d: Decl) -> Decl {
    Decl {
        lower_is_better: false,
        ..d
    }
}

use Kind::{Exact as E, Host as H};

/// Per-layer metrics, per workload (the isolated drivers' values do not
/// depend on the workload and are printed with each).
pub const PER_LAYER: [Decl; 66] = [
    layer("sim.events", "count", E),
    layer("sim.steps", "count", E),
    layer("sim.parked_steps", "count", E),
    layer("sim.queue_peak", "count", E),
    layer("sim.ns_per_event", "ns", H),
    higher(layer("sim.events_per_s", "1/s", H)),
    layer("sim.queue.ns_per_op", "ns", H),
    layer("sim.world.ns_per_event", "ns", H),
    layer("sim.stats.ns_per_bump", "ns", H),
    layer("sim.stats.ns_per_record", "ns", H),
    layer("sim.mesh.ns_per_wire_time", "ns", H),
    layer("transport.messages", "count", E),
    layer("transport.bytes", "B", E),
    layer("transport.page_messages", "count", E),
    layer("transport.messages_per_fault", "ratio", E),
    layer("transport.resent", "count", E),
    layer("transport.dropped", "count", E),
    layer("transport.sts.ns_per_send", "ns", H),
    layer("transport.norma.ns_per_send", "ns", H),
    layer("machvm.faults", "count", E),
    layer("machvm.refault_ratio", "ratio", E),
    layer("machvm.pageouts", "count", E),
    layer("machvm.emmi_calls", "count", E),
    layer("machvm.ns_per_hit", "ns", H),
    layer("machvm.ns_per_zero_fill", "ns", H),
    layer("pager.disk_reads", "count", E),
    layer("pager.disk_writes", "count", E),
    layer("pager.ns_per_request", "ns", H),
    layer("core.msgs", "count", E),
    layer("core.msgs_per_fault", "ratio", E),
    layer("core.invalidates", "count", E),
    layer("core.owner_hints", "count", E),
    layer("core.forward_loop_trips", "count", E),
    layer("core.recover_events", "count", E),
    layer("core.policy_switches", "count", E),
    layer("core.state_max_bytes", "B", E),
    layer("core.ns_per_msg", "ns", H),
    layer("xmm.msgs", "count", E),
    layer("xmm.msgs_per_fault", "ratio", E),
    layer("xmm.state_max_bytes", "B", E),
    layer("xmm.ns_per_msg", "ns", H),
    layer("cluster.step.park.count", "count", E),
    layer("cluster.step.park.host_share", "%", H),
    layer("cluster.step.park.ns_p50", "ns", H),
    layer("cluster.step.park.ns_p99", "ns", H),
    layer("cluster.step.disk.count", "count", E),
    layer("cluster.step.disk.host_share", "%", H),
    layer("cluster.step.disk.ns_p50", "ns", H),
    layer("cluster.step.disk.ns_p99", "ns", H),
    layer("cluster.step.complete.count", "count", E),
    layer("cluster.step.complete.host_share", "%", H),
    layer("cluster.step.complete.ns_p50", "ns", H),
    layer("cluster.step.complete.ns_p99", "ns", H),
    layer("cluster.step.send.count", "count", E),
    layer("cluster.step.send.host_share", "%", H),
    layer("cluster.step.send.ns_p50", "ns", H),
    layer("cluster.step.send.ns_p99", "ns", H),
    layer("cluster.step.local.count", "count", E),
    layer("cluster.step.local.host_share", "%", H),
    layer("cluster.step.local.ns_p50", "ns", H),
    layer("cluster.step.local.ns_p99", "ns", H),
    layer("cluster.heartbeats", "count", E),
    layer("cluster.suspects", "count", E),
    layer("gen.ns_per_step", "ns", H),
    layer("gen.host_share", "%", H),
    layer("trace.overhead_pct", "%", H),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics that are counts (or ratios of counts) of one run.
/// Which engine ran decides whether protocol state is `core`'s or `xmm`'s.
pub fn layer_counts(sim: &SimState) -> Vec<(&'static str, f64)> {
    let faults = sim.counter("faults.completed");
    let core_msgs = sim.sum("asvm.msg.");
    let xmm_msgs = sim.sum("xmm.msg.");
    let is_xmm = xmm_msgs > 0;
    let state = |mine: bool| if mine { sim.state_max_bytes } else { 0 } as f64;
    let c = |key: &str| sim.counter(key) as f64;
    vec![
        ("sim.events", sim.events as f64),
        ("sim.queue_peak", sim.queue_peak as f64),
        ("transport.messages", c("net.messages")),
        ("transport.bytes", c("net.bytes")),
        (
            "transport.page_messages",
            c("sts.page_messages") + c("norma.page_messages") + c("rdma.page_messages"),
        ),
        (
            "transport.messages_per_fault",
            ratio(sim.counter("net.messages"), faults),
        ),
        ("transport.resent", c("asvm.retry.resent")),
        (
            "transport.dropped",
            c("transport.fault.dropped") + c("transport.fault.blackout"),
        ),
        ("machvm.faults", faults as f64),
        ("machvm.refault_ratio", ratio(faults, sim.stalls.n)),
        ("machvm.pageouts", c("pageouts")),
        ("machvm.emmi_calls", sim.sum("emmi.") as f64),
        ("pager.disk_reads", c("disk.reads")),
        ("pager.disk_writes", c("disk.writes")),
        ("core.msgs", core_msgs as f64),
        ("core.msgs_per_fault", ratio(core_msgs, faults)),
        ("core.invalidates", c("asvm.msg.invalidate")),
        ("core.owner_hints", c("asvm.msg.owner_hint")),
        ("core.forward_loop_trips", c("asvm.forward.loop_trip")),
        ("core.recover_events", sim.sum("asvm.recover.") as f64),
        ("core.policy_switches", c("asvm.policy.switch")),
        ("core.state_max_bytes", state(!is_xmm)),
        ("xmm.msgs", xmm_msgs as f64),
        ("xmm.msgs_per_fault", ratio(xmm_msgs, faults)),
        ("xmm.state_max_bytes", state(is_xmm)),
        ("cluster.heartbeats", c("cluster.hb")),
        ("cluster.suspects", c("cluster.suspect.count")),
    ]
}

/// The `cluster.step.*` metrics from per-class summaries whose totals were
/// added up over `reps` traced runs and whose percentiles are medians.
pub fn step_metrics(classes: &[ClassSummary; 5], reps: u64) -> Vec<(String, f64)> {
    let total: f64 = classes.iter().map(|c| c.total_ns).sum();
    let mut out = Vec::with_capacity(20);
    for class in Class::ALL {
        let s = &classes[class as usize];
        let key = |leaf: &str| format!("cluster.step.{}.{leaf}", class.name());
        out.push((key("count"), (s.count / reps) as f64));
        out.push((key("host_share"), 100.0 * s.total_ns / total));
        out.push((key("ns_p50"), s.p50_ns));
        out.push((key("ns_p99"), s.p99_ns));
    }
    out
}

/// End-to-end values that come from the simulation (the rest are host
/// measurements). `None` where a percentile lacks the samples.
pub fn sim_end_to_end(sim: &SimState) -> Vec<(&'static str, Option<f64>)> {
    let ms = |v: Option<u64>| v.map(|ns| ns as f64 / 1e6);
    vec![
        ("sim_elapsed_s", Some(sim.elapsed_ns as f64 / 1e9)),
        ("sim_stall_p50_ms", ms(sim.stalls.p50)),
        ("sim_stall_p99_ms", ms(sim.stalls.p99)),
        ("sim_stall_p999_ms", ms(sim.stalls.p999)),
        ("sim_stall_total_s", Some(sim.stalls.total_ns as f64 / 1e9)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_ok(decls: &[Decl]) {
        for (i, d) in decls.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(decls[..i].iter().all(|o| o.name != d.name), "{}", d.name);
        }
    }

    #[test]
    fn declared_names_fit_the_contract() {
        names_ok(&END_TO_END);
        names_ok(&PER_LAYER);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn step_shares_sum_to_one_hundred() {
        let mut classes = [ClassSummary::default(); 5];
        classes[Class::Send as usize].total_ns = 600.0;
        classes[Class::Send as usize].count = 4;
        classes[Class::Local as usize].total_ns = 200.0;
        classes[Class::Park as usize].total_ns = 200.0;
        let m = step_metrics(&classes, 2);
        let share: f64 = m
            .iter()
            .filter(|(k, _)| k.ends_with("host_share"))
            .map(|(_, v)| v)
            .sum();
        assert!((share - 100.0).abs() < 1e-9);
        let count = m
            .iter()
            .find(|(k, _)| k == "cluster.step.send.count")
            .unwrap();
        assert_eq!(count.1, 2.0);
    }
}
