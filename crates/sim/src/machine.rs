//! Machine model: node inventory, memory sizes and the calibrated cost model.
//!
//! The paper's testbed is an Intel Paragon with GP nodes (two i860XP
//! processors — one running applications, one dedicated to message
//! passing — and 16 MB of memory per node) plus I/O nodes with attached
//! disks, roughly one per 32 compute nodes. This module captures that
//! machine shape together with every timing constant the simulation uses.
//!
//! All constants live in [`CostModel`] so that calibration is a single-file
//! affair. The defaults were fitted against the paper's microbenchmarks
//! (Table 1 and the intercepts/slopes of Figures 10 and 11); the macro
//! experiments (Tables 2 and 3) are then *emergent* — see `EXPERIMENTS.md`.

use crate::faults::FaultPlan;
use crate::mesh::{Mesh, NodeId};
use crate::time::Dur;

/// Role of a node in the machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// Runs user tasks; no disk attached.
    Compute,
    /// Hosts pager tasks and a disk; does not run application tasks.
    Io,
}

/// Static description of the simulated multicomputer.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of compute nodes.
    pub compute_nodes: u16,
    /// Number of I/O nodes (disk-bearing). The Paragon ratio is about one
    /// I/O node per 32 compute nodes; [`MachineConfig::paragon`] applies it.
    pub io_nodes: u16,
    /// Physical memory per node, in bytes (16 MB on the paper's GP nodes).
    pub mem_bytes_per_node: u64,
    /// Memory available to user pages per node, in bytes. The paper notes a
    /// 16 MB node "only has about 9 MB of memory available for user
    /// applications"; the rest is kernel text and data.
    pub user_mem_bytes_per_node: u64,
    /// VM page size in bytes (8 KB on the Paragon).
    pub page_size: u32,
    /// All timing constants.
    pub cost: CostModel,
    /// Interconnect fault injection (defaults to [`FaultPlan::none`]:
    /// perfectly reliable, zero overhead, byte-identical to a machine
    /// without the fault layer).
    pub faults: FaultPlan,
}

impl MachineConfig {
    /// A Paragon-like configuration: `compute_nodes` GP nodes with 16 MB
    /// each, plus one I/O node per 32 compute nodes (at least one).
    pub fn paragon(compute_nodes: u16) -> MachineConfig {
        let io_nodes = compute_nodes.div_ceil(32).max(1);
        MachineConfig {
            compute_nodes,
            io_nodes,
            mem_bytes_per_node: 16 << 20,
            user_mem_bytes_per_node: 9 << 20,
            page_size: 8192,
            cost: CostModel::default(),
            faults: FaultPlan::none(),
        }
    }

    /// Same as [`MachineConfig::paragon`] but with 32 MB nodes, used for the
    /// paper's sequential EM3D baselines that do not fit in 16 MB.
    pub fn paragon_32mb(compute_nodes: u16) -> MachineConfig {
        let mut cfg = MachineConfig::paragon(compute_nodes);
        cfg.mem_bytes_per_node = 32 << 20;
        cfg.user_mem_bytes_per_node = 25 << 20;
        cfg
    }

    /// Total number of nodes (compute + I/O).
    pub fn total_nodes(&self) -> u16 {
        self.compute_nodes + self.io_nodes
    }

    /// Number of user pages that fit in one node's memory.
    pub fn user_pages_per_node(&self) -> u32 {
        (self.user_mem_bytes_per_node / self.page_size as u64) as u32
    }
}

/// Runtime view of the machine: geometry plus per-node roles.
#[derive(Clone, Debug)]
pub struct Machine {
    /// The static configuration this machine was built from.
    pub config: MachineConfig,
    /// Mesh over all nodes (compute first, then I/O).
    pub mesh: Mesh,
}

impl Machine {
    /// Instantiates the machine for a configuration.
    pub fn new(config: MachineConfig) -> Machine {
        let mesh = Mesh::new(config.total_nodes());
        Machine { config, mesh }
    }

    /// Role of node `n`.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        if n.0 < self.config.compute_nodes {
            NodeKind::Compute
        } else {
            NodeKind::Io
        }
    }

    /// Iterator over compute node ids.
    pub fn compute_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.config.compute_nodes).map(NodeId)
    }

    /// Iterator over I/O node ids.
    pub fn io_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (self.config.compute_nodes..self.config.total_nodes()).map(NodeId)
    }

    /// The I/O node responsible for compute node `n` (round-robin blocks of
    /// 32, like Paragon disk placement).
    pub fn io_node_for(&self, n: NodeId) -> NodeId {
        let io = self.config.io_nodes;
        debug_assert!(io > 0);
        NodeId(self.config.compute_nodes + (n.0 / 32) % io)
    }

    /// Raw wire time for `bytes` between `src` and `dst`: base latency plus
    /// per-hop routing delay plus serialization at link bandwidth.
    pub fn wire_time(&self, src: NodeId, dst: NodeId, bytes: u32) -> Dur {
        if src == dst {
            return Dur::ZERO;
        }
        let c = &self.config.cost;
        let hops = self.mesh.hops(src, dst) as u64;
        Dur::from_nanos(
            c.wire_base.as_nanos()
                + hops * c.wire_per_hop.as_nanos()
                + bytes as u64 * 1_000_000_000 / c.link_bandwidth_bytes_per_s,
        )
    }
}

/// Every timing constant used by the simulation, in one place.
///
/// Grouped by subsystem. Values are calibrated, not measured from first
/// principles; see `EXPERIMENTS.md` for the fitting procedure.
#[derive(Clone, Debug)]
pub struct CostModel {
    // --- Interconnect -----------------------------------------------------
    /// Fixed hardware latency per message.
    pub wire_base: Dur,
    /// Additional latency per mesh hop (wormhole routing).
    pub wire_per_hop: Dur,
    /// Link bandwidth (200 MB/s raw on the Paragon mesh).
    pub link_bandwidth_bytes_per_s: u64,

    // --- STS (SVM Transport Service) ---------------------------------------
    /// Sender-side message-processor occupancy per STS message.
    pub sts_send_cpu: Dur,
    /// Receiver-side message-processor occupancy per STS message.
    pub sts_recv_cpu: Dur,
    /// STS header size: "a fixed size block of untyped data (currently
    /// 32 Byte)".
    pub sts_header_bytes: u32,
    /// Per-side CPU for node-local (loopback) messages — kernel-internal
    /// hand-off, no wire or protocol stack.
    pub local_ipc_cpu: Dur,

    // --- NORMA-IPC ----------------------------------------------------------
    /// Sender-side occupancy per NORMA-IPC message (port right translation,
    /// typed message construction). The paper attributes ~90 % of XMM remote
    /// fault latency to NORMA-IPC.
    pub norma_send_cpu: Dur,
    /// Receiver-side occupancy per NORMA-IPC message.
    pub norma_recv_cpu: Dur,
    /// NORMA-IPC header/envelope size (typed descriptors, port names).
    pub norma_header_bytes: u32,

    // --- RDMA (one-sided interconnect) ---------------------------------------
    //
    // Models a commodity RNIC rather than the Paragon's dedicated message
    // co-processor: one-sided page reads are served entirely by the NIC
    // (zero host CPU at the target), while ordinary two-sided protocol
    // sends take an interrupt-driven completion path with no message
    // co-processor behind it — slightly costlier per message than STS,
    // far cheaper than NORMA.
    /// Requester CPU to post a one-sided read work request (WQE build +
    /// doorbell write).
    pub rdma_post_cpu: Dur,
    /// Requester CPU to reap a one-sided read completion (poll the CQ,
    /// hand the landed page to the VM layer).
    pub rdma_completion_cpu: Dur,
    /// Sender-side occupancy per *two-sided* RDMA send (control-plane
    /// protocol message: WQE build, doorbell, send-completion reap).
    pub rdma_ctrl_send_cpu: Dur,
    /// Receiver-side occupancy per two-sided RDMA send (interrupt-driven
    /// receive completion + dispatch; no STS-style co-processor).
    pub rdma_ctrl_recv_cpu: Dur,
    /// Per-message fabric latency floor (RNIC pipeline + PCIe round
    /// trips), paid in flight on every RDMA message without occupying
    /// either host.
    pub rdma_latency_floor: Dur,
    /// RDMA transport header bytes on the wire (RETH/AETH-class framing).
    pub rdma_header_bytes: u32,
    /// One-time per-link setup charged at the requester the first time it
    /// targets a peer: queue-pair bring-up plus memory registration of the
    /// shared region (the price of pre-registered zero-copy landing zones).
    pub rdma_link_setup_cpu: Dur,

    // --- Kernel VM -----------------------------------------------------------
    /// Trap entry + address map lookup on a page fault (compute CPU).
    pub vm_fault_entry: Dur,
    /// Installing a page into the pmap and resuming the thread.
    pub vm_fault_finish: Dur,
    /// One pmap operation (protect/remove) on one page.
    pub vm_pmap_op: Dur,
    /// Copying one page within a node (8 KB memcpy on an i860XP).
    pub vm_page_copy: Dur,
    /// Zero-filling one page.
    pub vm_zero_fill: Dur,
    /// Generic VM object bookkeeping step (shadow-chain hop, object create).
    pub vm_object_op: Dur,

    // --- Managers -------------------------------------------------------------
    /// One ASVM state-machine step (request redirector, owner transition).
    pub asvm_handle: Dur,
    /// Lightweight ASVM bookkeeping step (acknowledgement processing).
    pub asvm_ack_handle: Dur,
    /// One XMM step at a proxy or at the centralized manager.
    pub xmm_handle: Dur,
    /// Lightweight XMM bookkeeping step (acknowledgement processing).
    pub xmm_ack_handle: Dur,

    // --- Pager tasks ------------------------------------------------------------
    /// Pager-task processing per EMMI request (user-level context switch,
    /// object lookup), excluding disk time.
    pub pager_handle: Dur,

    // --- Disk ----------------------------------------------------------------------
    /// Positioning time when an access is not sequential to the previous one.
    pub disk_position: Dur,
    /// Sustained media bandwidth for sequential transfers.
    pub disk_bandwidth_bytes_per_s: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            wire_base: Dur::from_micros_f64(5.0),
            wire_per_hop: Dur::from_micros_f64(0.1),
            link_bandwidth_bytes_per_s: 200 << 20,

            sts_send_cpu: Dur::from_micros_f64(45.0),
            sts_recv_cpu: Dur::from_micros_f64(55.0),
            sts_header_bytes: 32,
            local_ipc_cpu: Dur::from_micros_f64(25.0),

            norma_send_cpu: Dur::from_micros_f64(450.0),
            norma_recv_cpu: Dur::from_micros_f64(550.0),
            norma_header_bytes: 256,

            rdma_post_cpu: Dur::from_micros_f64(10.0),
            rdma_completion_cpu: Dur::from_micros_f64(15.0),
            rdma_ctrl_send_cpu: Dur::from_micros_f64(60.0),
            rdma_ctrl_recv_cpu: Dur::from_micros_f64(85.0),
            rdma_latency_floor: Dur::from_micros_f64(30.0),
            rdma_header_bytes: 64,
            rdma_link_setup_cpu: Dur::from_micros_f64(400.0),

            vm_fault_entry: Dur::from_micros_f64(450.0),
            vm_fault_finish: Dur::from_micros_f64(450.0),
            vm_pmap_op: Dur::from_micros_f64(25.0),
            vm_page_copy: Dur::from_micros_f64(160.0),
            vm_zero_fill: Dur::from_micros_f64(120.0),
            vm_object_op: Dur::from_micros_f64(40.0),

            asvm_handle: Dur::from_micros_f64(180.0),
            asvm_ack_handle: Dur::from_micros_f64(20.0),
            xmm_handle: Dur::from_micros_f64(1150.0),
            xmm_ack_handle: Dur::from_micros_f64(40.0),

            pager_handle: Dur::from_micros_f64(250.0),

            disk_position: Dur::from_millis_f64(25.0),
            disk_bandwidth_bytes_per_s: (2.2 * 1024.0 * 1024.0) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paragon_io_ratio() {
        assert_eq!(MachineConfig::paragon(1).io_nodes, 1);
        assert_eq!(MachineConfig::paragon(32).io_nodes, 1);
        assert_eq!(MachineConfig::paragon(33).io_nodes, 2);
        assert_eq!(MachineConfig::paragon(64).io_nodes, 2);
    }

    #[test]
    fn node_kinds_partition() {
        let m = Machine::new(MachineConfig::paragon(4));
        assert_eq!(m.kind(NodeId(0)), NodeKind::Compute);
        assert_eq!(m.kind(NodeId(3)), NodeKind::Compute);
        assert_eq!(m.kind(NodeId(4)), NodeKind::Io);
        assert_eq!(m.compute_nodes().count(), 4);
        assert_eq!(m.io_nodes().count(), 1);
    }

    #[test]
    fn io_node_assignment_round_robins() {
        let m = Machine::new(MachineConfig::paragon(64));
        assert_eq!(m.io_node_for(NodeId(0)), NodeId(64));
        assert_eq!(m.io_node_for(NodeId(31)), NodeId(64));
        assert_eq!(m.io_node_for(NodeId(32)), NodeId(65));
        assert_eq!(m.io_node_for(NodeId(63)), NodeId(65));
    }

    #[test]
    fn wire_time_scales_with_size_and_distance() {
        let m = Machine::new(MachineConfig::paragon(16));
        let near = m.wire_time(NodeId(0), NodeId(1), 32);
        let far = m.wire_time(NodeId(0), NodeId(15), 32);
        let big = m.wire_time(NodeId(0), NodeId(1), 8192);
        assert!(near < far, "more hops must cost more");
        assert!(near < big, "bigger payload must cost more");
        assert_eq!(m.wire_time(NodeId(3), NodeId(3), 8192), Dur::ZERO);
        // 8 KB at 200 MB/s is ~39 us of serialization.
        assert!(big.as_micros_f64() > 39.0 && big.as_micros_f64() < 60.0);
    }

    #[test]
    fn user_pages_per_node_matches_paper() {
        let cfg = MachineConfig::paragon(1);
        // ~9 MB of 8 KB pages.
        assert_eq!(cfg.user_pages_per_node(), 9 * 128);
    }
}
