//! `workloads` — the evaluation workloads of the ASVM paper.
//!
//! * [`faultprobe`] — basic SVM page-fault latencies (Table 1, Figure 10);
//! * [`copychain`] — inherited-memory faults across fork chains (Figure 11);
//! * [`filescan`] — memory-mapped file read/write scans (Table 2,
//!   Figures 12/13);
//! * [`em3d`] — the EM3D electromagnetic wave propagation kernel ported to
//!   shared-memory communication (Table 3);
//! * [`patterns`] — reusable synthetic access patterns (migratory,
//!   producer/consumer, hotspot, uniform) for ablations and tests;
//! * [`megascale`] — the compute-only event-loop saturation workload of
//!   the 128–1024-node `megascale` benchmark;
//! * [`tenants`] — the multi-tenant consolidation shape: thousands of
//!   Zipf-popular memory objects with mixed per-object read/write ratios
//!   and tasks arriving/departing in waves, where per-object strategy
//!   selection ([`cluster::Ssi::set_object_config`]) pays.
//!
//! Every shape builds its cluster through [`Scenario::build`] and drains
//! it through [`Scenario::finish`] into the one [`Outcome`] type — the
//! owned statistics snapshot plus the [`StateProbe`] gauges — after the
//! quiescence invariants have been checked ([`scenario`]).

pub mod copychain;
pub mod em3d;
pub mod faultprobe;
pub mod filescan;
pub mod megascale;
pub mod patterns;
pub mod scenario;
pub mod tenants;

pub use copychain::{copy_chain_probe, CopyChainSpec};
pub use em3d::{em3d_run, Em3dSpec};
pub use faultprobe::{fault_probe, FaultProbeSpec, ProbeAccess};
pub use filescan::{file_scan, FileScanResult, FileScanSpec, ScanDir};
pub use megascale::run_eventloop;
pub use patterns::{run_pattern, Pattern};
pub use scenario::{Outcome, Scenario, StateProbe};
pub use tenants::{run_tenants, TenantsSpec, Zipf};
