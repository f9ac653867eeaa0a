//! Serial-vs-parallel determinism of the benchmark sweep harness.
//!
//! The bench binaries run their cells through `bench::sweep` on as many
//! threads as the machine offers. Every cell is a self-contained
//! deterministic simulation, so the *results* must not depend on the
//! thread count — this is the regression test behind the harness's
//! "byte-identical tables" guarantee. It runs a small slice of Table 3
//! (EM3D) and of Table 1 (fault probes) both ways and requires identical
//! result structs, plus identical rendered JSON modulo timing fields.

use bench::sweep::{Sweep, SweepConfig};
use cluster::ManagerKind;
use workloads::{em3d_run, fault_probe, Em3dSpec, FaultProbeSpec, ProbeAccess};

/// A table3-slice sweep: EM3D at a few small configurations.
fn em3d_slice(threads: usize) -> Vec<(u64, u64, u64, u64)> {
    let mut sweep = Sweep::with_config("em3d_slice", SweepConfig::with_threads(threads));
    for kind in [ManagerKind::asvm(), ManagerKind::xmm()] {
        for nodes in [1u16, 2, 4] {
            sweep.cell(format!("{} {}n", kind.label(), nodes), move || {
                let mut spec = Em3dSpec::paper(kind, nodes, 16_000);
                spec.iterations = 2;
                let out = em3d_run(spec);
                let value = (
                    out.elapsed.as_nanos(),
                    out.faults(),
                    out.counter("pageouts"),
                    out.events,
                );
                (value, out.events)
            });
        }
    }
    let report = sweep.run();
    assert_eq!(report.cells.len(), 6);
    report.values().copied().collect()
}

#[test]
fn em3d_slice_is_thread_count_invariant() {
    let serial = em3d_slice(1);
    let parallel = em3d_slice(4);
    assert_eq!(serial, parallel);
    // And the simulations actually did work.
    assert!(serial
        .iter()
        .all(|(elapsed, _, _, events)| *elapsed > 0 && *events > 0));
}

#[test]
fn fault_probe_slice_is_thread_count_invariant() {
    let run = |threads: usize| -> Vec<(u64, u64, u64, u64)> {
        let mut sweep = Sweep::with_config("probe_slice", SweepConfig::with_threads(threads));
        for kind in [ManagerKind::asvm(), ManagerKind::xmm()] {
            for read_copies in [1u16, 2, 8] {
                sweep.cell(format!("{} {}r", kind.label(), read_copies), move || {
                    let out = fault_probe(FaultProbeSpec {
                        kind,
                        read_copies,
                        faulter_has_copy: false,
                        access: ProbeAccess::Write,
                    });
                    let value = (
                        out.mean_fault().as_nanos(),
                        out.messages(),
                        out.page_messages(),
                        out.events,
                    );
                    (value, out.events)
                });
            }
        }
        sweep.run().values().copied().collect()
    };
    assert_eq!(run(1), run(8));
}

#[test]
fn report_order_and_json_shape_are_thread_count_invariant() {
    // Wall-clock fields legitimately vary between runs; labels, cell
    // order and event counts must not, whatever the thread count.
    let run = |threads: usize| {
        let mut sweep = Sweep::with_config("json_stability", SweepConfig::with_threads(threads));
        for i in 0..5u64 {
            sweep.cell(format!("cell{i}"), move || (i, i * 100));
        }
        sweep.run()
    };
    let (a, b) = (run(1), run(3));
    let key = |r: &bench::sweep::SweepReport<u64>| -> Vec<(String, u64, u64)> {
        r.cells
            .iter()
            .map(|c| (c.label.clone(), c.value, c.events))
            .collect()
    };
    assert_eq!(key(&a), key(&b));
    assert_eq!(a.total_events(), b.total_events());
    // The JSON document carries every label in order.
    let json = a.to_json();
    for i in 0..5 {
        assert!(json.contains(&format!("\"cell{i}\"")), "{json}");
    }
}
