//! Microbenchmark probes for basic page-fault latencies (Table 1 and
//! Figure 10 of the paper).
//!
//! The probe arranges the exact page state each Table 1 row describes and
//! then measures one fault in isolation:
//!
//! * an *initializer* node writes the page, making it dirty and making that
//!   node the owner;
//! * `readers - 1` further nodes read it (the initializer's own copy is the
//!   remaining read copy), so exactly `readers` nodes hold read copies;
//! * the *faulting* node — which optionally already holds one of those read
//!   copies — performs the measured access.
//!
//! The object's home (ASVM) / manager (XMM) node is distinct from all of
//! the above, matching the paper's *"general case in which the XMM stack is
//! remote from both the faulting node and the nodes that have read
//! copies"*.

use cluster::{ManagerKind, Step};
use machvm::Access;
use svmsim::NodeId;

use crate::scenario::{Outcome, Scenario};

/// What the measured access is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbeAccess {
    /// A read fault.
    Read,
    /// A write fault.
    Write,
}

/// One fault-latency experiment.
#[derive(Clone, Copy, Debug)]
pub struct FaultProbeSpec {
    /// Which manager runs the cluster.
    pub kind: ManagerKind,
    /// Number of nodes holding read copies before the measured fault
    /// (including the initializer's downgraded copy). Zero means the page
    /// is only dirty at the initializer.
    pub read_copies: u16,
    /// The faulting node already holds one of the read copies.
    pub faulter_has_copy: bool,
    /// The measured access.
    pub access: ProbeAccess,
}

/// Runs one fault-latency probe. The [`Outcome`] covers exactly the one
/// measured fault: its latency is [`Outcome::mean_fault`], its protocol
/// traffic the `asvm.msg.*` / `xmm.msg.*` / `emmi.*` counters.
///
/// # Panics
///
/// Panics if the simulation fails to quiesce (protocol bug) or the
/// measured access does not fault exactly once.
pub fn fault_probe(spec: FaultProbeSpec) -> Outcome {
    // Layout: node 0 = home/manager (and barrier coordinator),
    // node 1 = initializer, nodes 2.. = additional readers, last = faulter.
    let extra_readers = spec.read_copies.saturating_sub(1);
    let n_nodes = 3 + extra_readers;
    let sc = Scenario::new(spec.kind, n_nodes.max(4), 7);
    let mut ssi = sc.build();
    let init = NodeId(1);
    let faulter = NodeId(n_nodes - 1);
    let (_, tasks) = Scenario::shared_region(&mut ssi, n_nodes, 16, false);
    let task_on = |n: NodeId| tasks[n.0 as usize];

    let page = 0u64;
    // Phase A: the initializer dirties the page.
    let dirty = vec![Step::Write {
        va_page: page,
        value: 0xD1,
    }];
    Scenario::run_script(&mut ssi, init, task_on(init), dirty);

    // Phase B: build up the read copies.
    if spec.read_copies > 0 {
        let mut readers: Vec<NodeId> = (0..extra_readers).map(|i| NodeId(2 + i)).collect();
        if spec.faulter_has_copy {
            readers.push(faulter);
        }
        for n in readers {
            Scenario::spawn_script(&mut ssi, n, task_on(n), vec![Step::Read { va_page: page }]);
        }
        ssi.run(1_000_000).expect("phase B quiesces");
    }

    // Phase C: the measured fault.
    ssi.world.stats_mut().reset();
    let start = ssi.world.now();
    let access = match spec.access {
        ProbeAccess::Read => Access::Read,
        ProbeAccess::Write => Access::Write,
    };
    let touch = vec![Step::Touch {
        va_page: page,
        access,
    }];
    Scenario::run_script(&mut ssi, faulter, task_on(faulter), touch);

    let out = sc.finish(ssi, start).expect_completed("fault probe");
    assert_eq!(out.faults(), 1, "exactly one measured fault expected");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asvm_write_fault_one_copy_single_digit_ms() {
        let r = fault_probe(FaultProbeSpec {
            kind: ManagerKind::asvm(),
            read_copies: 1,
            faulter_has_copy: false,
            access: ProbeAccess::Write,
        });
        let ms = r.mean_fault_ms();
        assert!(ms > 0.5 && ms < 10.0, "ASVM write fault {ms} ms");
    }

    #[test]
    fn xmm_write_fault_one_copy_pays_disk() {
        let r = fault_probe(FaultProbeSpec {
            kind: ManagerKind::xmm(),
            read_copies: 1,
            faulter_has_copy: false,
            access: ProbeAccess::Write,
        });
        let ms = r.mean_fault_ms();
        assert!(ms > 15.0 && ms < 90.0, "XMM write fault {ms} ms");
    }

    #[test]
    fn upgrade_faults_skip_page_transfer() {
        let r = fault_probe(FaultProbeSpec {
            kind: ManagerKind::asvm(),
            read_copies: 2,
            faulter_has_copy: true,
            access: ProbeAccess::Write,
        });
        assert_eq!(r.page_messages(), 0, "upgrades must not move page contents");
    }

    #[test]
    fn latency_grows_with_readers() {
        let few = fault_probe(FaultProbeSpec {
            kind: ManagerKind::asvm(),
            read_copies: 2,
            faulter_has_copy: false,
            access: ProbeAccess::Write,
        });
        let many = fault_probe(FaultProbeSpec {
            kind: ManagerKind::asvm(),
            read_copies: 32,
            faulter_has_copy: false,
            access: ProbeAccess::Write,
        });
        assert!(many.mean_fault() > few.mean_fault());
    }
}
