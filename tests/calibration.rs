//! Calibration guard: the microbenchmarks that anchor the reproduction
//! must stay near the paper's numbers. Tolerances are deliberately loose
//! (the goal is catching accidental cost-model or protocol drift, not
//! enforcing exact agreement — see `EXPERIMENTS.md` for the real record).

use cluster::ManagerKind;
use workloads::{copy_chain_probe, fault_probe, CopyChainSpec, FaultProbeSpec, ProbeAccess};

fn assert_near(label: &str, paper_ms: f64, measured_ms: f64, tolerance: f64) {
    let ratio = measured_ms / paper_ms;
    assert!(
        (1.0 - tolerance..=1.0 + tolerance).contains(&ratio),
        "{label}: measured {measured_ms:.2} ms vs paper {paper_ms:.2} ms \
         (ratio {ratio:.2}, tolerance ±{tolerance})"
    );
}

struct Anchor {
    label: &'static str,
    kind: ManagerKind,
    read_copies: u16,
    faulter_has_copy: bool,
    access: ProbeAccess,
    paper_ms: f64,
    tolerance: f64,
}

#[test]
fn table1_anchors_hold() {
    let anchors = [
        Anchor {
            label: "ASVM write fault, 1 copy",
            kind: ManagerKind::asvm(),
            read_copies: 1,
            faulter_has_copy: false,
            access: ProbeAccess::Write,
            paper_ms: 2.24,
            tolerance: 0.35,
        },
        Anchor {
            label: "ASVM write fault, 64 copies",
            kind: ManagerKind::asvm(),
            read_copies: 64,
            faulter_has_copy: false,
            access: ProbeAccess::Write,
            paper_ms: 8.96,
            tolerance: 0.35,
        },
        Anchor {
            label: "ASVM read fault, first reader",
            kind: ManagerKind::asvm(),
            read_copies: 0,
            faulter_has_copy: false,
            access: ProbeAccess::Read,
            paper_ms: 2.35,
            tolerance: 0.35,
        },
        Anchor {
            label: "XMM write fault, 1 copy (disk)",
            kind: ManagerKind::xmm(),
            read_copies: 1,
            faulter_has_copy: false,
            access: ProbeAccess::Write,
            paper_ms: 38.42,
            tolerance: 0.25,
        },
        Anchor {
            label: "XMM write fault, 64 copies",
            kind: ManagerKind::xmm(),
            read_copies: 64,
            faulter_has_copy: false,
            access: ProbeAccess::Write,
            paper_ms: 72.18,
            tolerance: 0.30,
        },
        Anchor {
            label: "XMM read fault, second reader",
            kind: ManagerKind::xmm(),
            read_copies: 2,
            faulter_has_copy: false,
            access: ProbeAccess::Read,
            paper_ms: 10.06,
            tolerance: 0.40,
        },
    ];
    for a in anchors {
        let r = fault_probe(FaultProbeSpec {
            kind: a.kind,
            read_copies: a.read_copies,
            faulter_has_copy: a.faulter_has_copy,
            access: a.access,
        });
        assert_near(a.label, a.paper_ms, r.mean_fault_ms(), a.tolerance);
    }
}

#[test]
fn figure11_slopes_hold() {
    let probe = |kind, len| {
        copy_chain_probe(CopyChainSpec {
            kind,
            chain_len: len,
            region_pages: 16,
        })
        .mean_fault_ms()
    };
    // Per-hop costs (paper: ASVM 0.48 ms, XMM 4.3 ms).
    let asvm_hop = (probe(ManagerKind::asvm(), 8) - probe(ManagerKind::asvm(), 2)) / 6.0;
    let xmm_hop = (probe(ManagerKind::xmm(), 8) - probe(ManagerKind::xmm(), 2)) / 6.0;
    assert!(
        (0.2..=1.0).contains(&asvm_hop),
        "ASVM per-hop cost drifted: {asvm_hop:.2} ms (paper 0.48)"
    );
    assert!(
        (2.0..=6.0).contains(&xmm_hop),
        "XMM per-hop cost drifted: {xmm_hop:.2} ms (paper 4.3)"
    );
    assert!(
        xmm_hop / asvm_hop > 3.0,
        "the ASVM:XMM hop-cost gap collapsed ({asvm_hop:.2} vs {xmm_hop:.2})"
    );
}

#[test]
fn asvm_beats_xmm_on_every_table1_row() {
    for (copies, has_copy, access) in [
        (1, false, ProbeAccess::Write),
        (2, false, ProbeAccess::Write),
        (16, false, ProbeAccess::Write),
        (2, true, ProbeAccess::Write),
        (0, false, ProbeAccess::Read),
        (2, false, ProbeAccess::Read),
    ] {
        let a = fault_probe(FaultProbeSpec {
            kind: ManagerKind::asvm(),
            read_copies: copies,
            faulter_has_copy: has_copy,
            access,
        });
        let x = fault_probe(FaultProbeSpec {
            kind: ManagerKind::xmm(),
            read_copies: copies,
            faulter_has_copy: has_copy,
            access,
        });
        assert!(
            a.mean_fault() < x.mean_fault(),
            "ASVM must win: copies={copies} has_copy={has_copy} {access:?} \
             ({} vs {})",
            a.mean_fault(),
            x.mean_fault()
        );
    }
}
