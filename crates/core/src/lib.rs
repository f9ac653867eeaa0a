//! `asvm` — the Advanced Shared Virtual Memory system.
//!
//! This crate is the paper's primary contribution: a distributed memory
//! manager for the Mach microkernel that replaces the centralized-manager
//! XMM design with
//!
//! * a **dynamic distributed manager** — each page has an *owner* (the node
//!   that most recently had write access), distinct from the *ownership
//!   managers* that forward requests to it;
//! * three layered **forwarding strategies** (dynamic hint caches → fixed
//!   distributed static managers with `fresh`/`paged` hints → global walk),
//!   individually switchable per memory object;
//! * page state tied to **resident pages only**, so memory use never grows
//!   with address-space size times node count;
//! * fully **asynchronous state transitions** — no thread ever blocks on a
//!   remote operation;
//! * a compact **ASVM protocol** (32-byte headers, at most one page of
//!   payload) over the dedicated STS transport;
//! * **internode paging** — the memory of all nodes mapping an object forms
//!   a cache for it, with the four-step eviction algorithm of §3.6;
//! * **distributed delayed copies** — version-counted push/pull operations
//!   extending Mach's asymmetric copy strategy across nodes, using the five
//!   EMMI extensions of §3.7.1.
//!
//! The crate is sans-IO: [`AsvmNode`] consumes local EMMI calls, peer
//! protocol messages and pager replies, mutates the co-located
//! [`machvm::VmSystem`], and emits sends/CPU charges through [`Fx`]. The
//! `cluster` crate binds it to the simulated machine.

pub mod config;
pub mod copymgmt;
mod evict;
mod grant;
pub mod locks;
pub mod lru;
pub mod node;
pub mod object;
pub mod prefetch;
pub mod protocol;
mod recovery;
pub mod retry;
mod route;

#[cfg(test)]
mod node_tests;

pub use config::AsvmConfig;
pub use locks::{HeldLock, PageRange, RangeLockMgr};
pub use lru::Lru;
pub use node::{AsvmNode, Fx};
pub use object::{
    AsvmObject, Busy, DynHint, EvictStage, PageInfo, PendingLocal, QueuedReq, RecoverState,
    StaticHint,
};
pub use prefetch::{StreamDetector, WasteLatch};
pub use protocol::{AsvmMsg, CopyView, Handover, PageGrant, ReqKind, ReqPath, Transfer};
pub use retry::{Accepted, LinkReceiver, LinkSender, RecoveryTiming, RetryConfig, TimeoutVerdict};

use machvm::MemObjId;
use svmsim::NodeId;

/// Declares that `copy_mobj` is a distributed delayed copy of
/// `source_mobj`, created on `peer` (which maps the source and therefore
/// serves pull requests, §3.7.3). Call on each node that registers the
/// copy object. Pure bookkeeping: version counters are maintained by the
/// `CopyMade` settle protocol.
pub fn declare_copy_link(
    node: &mut AsvmNode,
    copy_mobj: MemObjId,
    source_mobj: Option<MemObjId>,
    peer: Option<NodeId>,
) {
    copymgmt::declare_copy_link(node, copy_mobj, source_mobj, peer);
}
