//! The compute-only event-loop saturation workload of the 128–1024-node
//! `megascale` experiment. (The per-node protocol-state gauges and
//! event-queue telemetry that experiment reports are read for every run,
//! by [`crate::Scenario::finish`] — see [`crate::StateProbe`].)

use cluster::{ManagerKind, Program, Step, TaskEnv};
use svmsim::{Dur, NodeId, Time};

use crate::scenario::{Outcome, Scenario};

/// A compute-only task: `left` short compute bursts, then done. No memory
/// traffic at all — every simulator event it generates is a bare resume on
/// the event hot path (pop, dispatch, reschedule), which is exactly what
/// the `eventloop` megascale cells measure.
struct SpinProgram {
    left: u32,
    burst: Dur,
}

impl Program for SpinProgram {
    fn step(&mut self, _env: &mut TaskEnv) -> Step {
        if self.left == 0 {
            return Step::Done;
        }
        self.left -= 1;
        Step::Compute(self.burst)
    }
}

/// Runs one compute-only task per node, each burning `steps_per_node`
/// short compute bursts. The result is a pure event-hot-path workload at
/// cluster scale: `nodes × steps_per_node` resume events flowing through
/// a queue that holds about one pending event per node.
pub fn run_eventloop(kind: ManagerKind, nodes: u16, steps_per_node: u32, burst: Dur) -> Outcome {
    let sc = Scenario::new(kind, nodes, 7);
    let mut ssi = sc.build();
    let tasks: Vec<_> = (0..nodes).map(|_| ssi.alloc_task()).collect();
    ssi.finalize();
    for (i, t) in tasks.iter().enumerate() {
        ssi.spawn(
            NodeId(i as u16),
            *t,
            Box::new(SpinProgram {
                left: steps_per_node,
                burst,
            }),
        );
    }
    ssi.run(u64::MAX / 2).expect("event loop quiesces");
    sc.finish(ssi, Time::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventloop_generates_one_event_per_burst() {
        let out = run_eventloop(ManagerKind::asvm(), 8, 100, Dur::from_nanos(500));
        // One resume event per burst plus spawn/bookkeeping events.
        assert!(out.events >= 8 * 100, "events: {}", out.events);
        assert!(out.elapsed > Dur::ZERO);
        // Queue never holds much more than one pending event per node.
        assert!(out.probe.queue_peak >= 8);
    }
}
