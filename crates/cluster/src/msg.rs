//! The unified message type of the simulated cluster.

use asvm::{AsvmConfig, AsvmMsg};
use machvm::{Access, EmmiToKernel, Inherit, MemObjId, TaskId, VmObjId};
use pager::PagerIn;
use svmsim::{NodeId, Time};
use xmm::XmmMsg;

use crate::program::Program;

/// Metadata a node needs to instantiate the local representation of a
/// memory object (carried in fork messages; known statically at setup).
#[derive(Clone, Copy, Debug)]
pub struct ObjInfo {
    /// Object length in pages.
    pub size_pages: u32,
    /// ASVM home node / XMM manager node.
    pub home: NodeId,
    /// I/O node hosting the backing pager.
    pub pager_node: NodeId,
    /// ASVM forwarding configuration.
    pub cfg: AsvmConfig,
    /// Distributed-copy peer node, if the object is a copy (ASVM).
    pub peer: Option<NodeId>,
    /// Distributed-copy source object, if any (ASVM).
    pub source: Option<MemObjId>,
}

/// One address-space region a forked child inherits.
#[derive(Debug)]
pub enum ForkEntry {
    /// Shared memory: the child maps the same memory object.
    Share {
        /// First virtual page.
        va_page: u64,
        /// Length in pages.
        pages: u32,
        /// Protection.
        prot: Access,
        /// Inheritance for further forks.
        inherit: Inherit,
        /// The object.
        mobj: MemObjId,
        /// Its metadata.
        info: ObjInfo,
    },
    /// ASVM delayed copy (§3.7): the child maps the source object shared,
    /// then creates a local copy object through the VM.
    CopyAsvm {
        /// First virtual page.
        va_page: u64,
        /// Length in pages.
        pages: u32,
        /// Protection.
        prot: Access,
        /// The (possibly just ASVM-ized) object being copied.
        source_mobj: MemObjId,
        /// Its metadata.
        info: ObjInfo,
    },
    /// XMM delayed copy (§2.3.3): the child maps a fresh object backed by
    /// an internal copy pager on the parent's node.
    CopyXmm {
        /// First virtual page.
        va_page: u64,
        /// Length in pages.
        pages: u32,
        /// Protection.
        prot: Access,
        /// The new internal-pager-backed object.
        mobj: MemObjId,
        /// Node running the internal pager (the fork snapshot).
        ip_node: NodeId,
    },
}

/// A remote fork in flight.
#[derive(Debug)]
pub struct ForkMsg {
    /// The child task to create.
    pub child: TaskId,
    /// Program the child runs.
    pub program: Box<dyn Program>,
    /// Inherited address space.
    pub entries: Vec<ForkEntry>,
    /// Node the forking parent runs on (fork-completion destination).
    pub parent_node: NodeId,
    /// The forking parent task (suspended until the fork settles).
    pub parent_task: TaskId,
}

/// Every message a cluster node can receive.
pub enum Msg {
    /// One ASVM protocol message (STS unless the carrier is swapped).
    /// `seq` is the frame's per-`(from, dst)` sequence number on the
    /// retry channel, which carries protocol traffic whenever the
    /// machine's fault plan is active (see `asvm::retry` and
    /// `docs/RELIABILITY.md`); 0 — no channel ever assigns it — marks an
    /// unsequenced message, delivered as it arrives: the healthy path,
    /// loopback, fabric-reliable backends, and the completion of a
    /// one-sided read (a grant DMA'd back into the requester's registered
    /// buffer, handled exactly like its two-sided twin so protocol state
    /// stays backend-independent).
    Asvm {
        /// Sending node.
        from: NodeId,
        /// Retry-channel sequence number, or 0.
        seq: u32,
        /// When this transmission of a sequenced frame left the sender
        /// (its ack echoes it back as a round-trip sample, like RFC 7323's
        /// TSval); `Time::ZERO` on an unsequenced message.
        sent: Time,
        /// The message.
        msg: AsvmMsg,
    },
    /// Acknowledgement of a sequenced [`Msg::Asvm`] (header-only).
    AsvmAck {
        /// The acknowledging node (the frame's receiver).
        from: NodeId,
        /// Sequence number being acknowledged.
        seq: u32,
        /// The `sent` stamp of the copy being acknowledged (TSecr), so a
        /// late ack of a frame already retransmitted still measures the
        /// round trip of the copy it answers.
        echo: Time,
    },
    /// Sender-side retry timer for the frame `seq` on the link to `dst`
    /// (self-posted; stale ticks are ignored).
    RetryTick {
        /// The link's destination node.
        dst: NodeId,
        /// The in-flight frame the timer covers.
        seq: u32,
    },
    /// Failure-detector gossip beacon, exposed to the fault plan so a
    /// blacked-out link actually silences it (see `docs/RELIABILITY.md`
    /// §7.1): one per node per period, to one peer.
    Heartbeat {
        /// The beaconing node.
        from: NodeId,
        /// Its heartbeat-counter vector, one entry per compute node;
        /// the receiver merges by per-entry max.
        beats: Box<[u64]>,
    },
    /// Self-posted heartbeat/watchdog timer (active fault plans only).
    HbTick,
    /// Reliable "I finished my work" broadcast: receivers stop expecting
    /// heartbeats from `from`, so a gracefully idle node is never falsely
    /// suspected.
    Farewell {
        /// The node whose tasks all completed.
        from: NodeId,
    },
    /// A one-sided remote read posted by `from`'s RNIC (RDMA backend
    /// only): the carried [`AsvmMsg::PageReq`] is served against this
    /// node's protocol state **without occupying its event handler** —
    /// the reply, when the owner can serve a plain copy, goes back as an
    /// unsequenced [`Msg::Asvm`] at one-sided cost, with zero host CPU
    /// charged here.
    RdmaRead {
        /// The requesting node.
        from: NodeId,
        /// The read request (always an `AsvmMsg::PageReq`).
        msg: AsvmMsg,
    },
    /// XMMI traffic (NORMA-IPC).
    Xmm(XmmMsg),
    /// EMMI request to a pager task on this I/O node (NORMA-IPC).
    PagerReq(PagerIn),
    /// EMMI reply from a pager task (NORMA-IPC).
    PagerReply {
        /// Destination VM object on this node.
        obj: VmObjId,
        /// The reply.
        reply: EmmiToKernel,
    },
    /// Resume a task (fault completed, compute finished, barrier released).
    Resume(TaskId),
    /// Remote fork request (NORMA-IPC). Boxed: forks are rare but fat
    /// (program + inherited address map), and the envelope size of the
    /// *largest* variant is what every queued event pays for.
    Fork(Box<ForkMsg>),
    /// The fork completed on the child side (all copy notifications
    /// settled); the suspended parent resumes — `fork()` is synchronous.
    ForkDone {
        /// The parent task to resume.
        parent_task: TaskId,
    },
    /// A task reached barrier `id` (sent to the coordinator, node 0).
    Barrier {
        /// Barrier identifier.
        id: u32,
    },
    /// The coordinator releases barrier `id`.
    BarrierGo {
        /// Barrier identifier.
        id: u32,
    },
}

// The event queue's slot arena stores one `Msg` (inside its delivery
// envelope) per pending or parked event, written once on send and moved
// out once by `World::step` into the handler — so the size of the
// *largest* variant is a hot-path constant. These assertions fail the
// build if a new variant (or a grown payload type) silently fattens every
// event in the system; box the offender instead (see `Msg::Fork`).
const _: () = assert!(
    std::mem::size_of::<Msg>() <= 80,
    "cluster::Msg grew past 80 bytes; box the fat variant"
);
const _: () = assert!(
    std::mem::size_of::<asvm::AsvmMsg>() <= 64,
    "asvm::AsvmMsg grew past 64 bytes; shrink or box the fat payload"
);
