//! The ASVM wire protocol.
//!
//! ASVM defines its own protocol for all communication between ASVM
//! instances, mapped onto the dedicated SVM Transport Service: messages are
//! a fixed 32-byte block of untyped data, possibly followed by the contents
//! of one VM page (paper §3.1). The variants below are that protocol; the
//! [`AsvmMsg::payload_bytes`] accessor tells the transport how much data
//! follows the header.

use machvm::{Access, MemObjId, PageData, PageIdx};
use svmsim::NodeId;

use crate::object::QueuedReq;

/// Routing state carried by a request while the redirector forwards it.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReqPath {
    /// The static ownership manager has already been consulted.
    pub tried_static: bool,
    /// Forwarding hops so far (dynamic-hint loop guard).
    pub hops: u16,
    /// Dynamic hints of either kind (see [`crate::DynHint`]) followed in
    /// a row by the latest hops; any other hop (to or from the static
    /// manager, of a global walk, on the successor record) resets it.
    pub hint_hops: u8,
    /// The redirector abandoned a hint chain for the static manager — a
    /// handoff cut or a hop-bound trip — so the static manager answers
    /// from its record, not from its own dynamic hint.
    pub static_routed: bool,
    /// Position in the membership list during a global walk, if one is in
    /// progress.
    pub global_pos: Option<u16>,
    /// A global walk completed without finding an owner; the static
    /// manager must dispatch to the pager.
    pub walk_done: bool,
    /// Watchdog re-issue after a suspected node failure: hint shortcuts
    /// are untrustworthy, so the static manager resolves this request
    /// through ownership reconstruction instead of cached state.
    pub recovering: bool,
    /// Issued by the prefetch engine ahead of any demand fault (see
    /// [`crate::prefetch`]). Routing and serving are identical to a
    /// demand request; the flag only feeds transport-level accounting
    /// (`transport.rdma.prefetch_read`).
    pub speculative: bool,
}

impl ReqPath {
    /// The path after one more forwarding hop, `hint` when it follows a
    /// dynamic hint.
    pub(crate) fn hop(mut self, hint: bool) -> ReqPath {
        self.hops += 1;
        self.hint_hops = if hint {
            self.hint_hops.saturating_add(1)
        } else {
            0
        };
        self
    }
}

/// What a [`AsvmMsg::PageReq`] is asking for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReqKind {
    /// Normal access request for a fault.
    Access,
    /// Push scan (§3.7.2): determine whether any node holds an owner of
    /// this page inside a shared *copy* object. If one exists the push is
    /// cancelled; if the request falls through to "no owner", the push
    /// proceeds.
    PushScan,
}

/// What a [`AsvmMsg::Grant`] hands the requester.
#[derive(Clone, Debug)]
pub struct PageGrant {
    /// Access granted.
    pub access: Access,
    /// Page contents, unless the requester already has them.
    pub data: Option<PageData>,
    /// The distributed page differs from the pager's version.
    pub dirty: bool,
    /// Ownership is transferred to the requester.
    pub ownership: bool,
    /// Reader list handed over with ownership.
    pub readers: Vec<NodeId>,
    /// Delayed-copy page version.
    pub version: u64,
    /// This grant answers a pull lookup: the receiver becomes the page's
    /// first owner inside the copy object and takes the copy object's
    /// current version.
    pub pull_snapshot: bool,
}

impl PageGrant {
    /// The answer to a pull lookup (§3.7.3): a snapshot of the page that
    /// makes the receiver its first owner inside the copy object. Version
    /// 0 — a pulled snapshot has never been pushed, so a later write still
    /// delivers it to existing copies.
    pub(crate) fn snapshot(access: Access, data: PageData) -> PageGrant {
        PageGrant {
            access,
            data: Some(data),
            dirty: true,
            ownership: true,
            readers: vec![],
            version: 0,
            pull_snapshot: true,
        }
    }
}

/// The owner's page record an [`AsvmMsg::OwnershipTransfer`] hands to a
/// reader (§3.6 step 2 — no contents).
#[derive(Clone, Debug)]
pub struct Handover {
    /// Remaining reader list (minus the new owner).
    pub readers: Vec<NodeId>,
    /// Delayed-copy page version.
    pub version: u64,
    /// The page differs from the pager's version.
    pub dirty: bool,
}

/// The page an [`AsvmMsg::AcceptAsk`] offers to a step-3 candidate (§3.6):
/// the candidate installs it at once if it accepts, and drops it if it
/// refuses — the evicting owner keeps its own copy until the answer.
#[derive(Clone, Debug)]
pub struct Transfer {
    /// Contents.
    pub data: PageData,
    /// The page differs from the pager's version.
    pub dirty: bool,
    /// Delayed-copy page version.
    pub version: u64,
}

/// A member's local view of a page, reported in an
/// [`AsvmMsg::RecoverReply`].
#[derive(Clone, Copy, Debug)]
pub struct CopyView {
    /// It holds usable page contents (resident, not mid-transition).
    pub has_copy: bool,
    /// Delayed-copy version of its copy (0 if none).
    pub version: u64,
    /// It is the page's current owner.
    pub owner: bool,
}

/// One ASVM protocol message.
#[derive(Clone, Debug)]
pub enum AsvmMsg {
    /// A node mapped the object; sent to the home node.
    MapNotify {
        /// The object.
        mobj: MemObjId,
        /// The mapping node.
        node: NodeId,
    },
    /// Home node's authoritative membership broadcast.
    Membership {
        /// The object.
        mobj: MemObjId,
        /// All nodes that have mapped the object, sorted.
        nodes: Vec<NodeId>,
    },
    /// Access request travelling toward the page owner.
    PageReq {
        /// The object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// The request in flight: who wants which access (`origin` is the
        /// grant destination), whether an upgrade may elide the page
        /// contents, and the push-scan / pull-lookup markers (§3.7.3).
        req: QueuedReq,
        /// Routing state.
        path: ReqPath,
    },
    /// Owner's (or pager path's) answer to a `PageReq`.
    Grant {
        /// The object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// What is granted.
        grant: PageGrant,
    },
    /// Owner tells a reader to drop its copy.
    Invalidate {
        /// The object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// The owner (ack destination).
        from: NodeId,
    },
    /// Reader's acknowledgement (sent even if the copy was already gone).
    InvalidateAck {
        /// The object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// The acknowledging reader.
        from: NodeId,
    },
    /// Internode pageout step 2: does the reader still hold a copy?
    ReadCheck {
        /// The object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// The evicting owner.
        from: NodeId,
    },
    /// Answer to [`AsvmMsg::ReadCheck`].
    ReadCheckReply {
        /// The object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// The replying reader.
        from: NodeId,
        /// It still holds a read copy.
        has_copy: bool,
    },
    /// Internode pageout step 2: ownership moves to a reader — *"Note that
    /// this ownership transfer doesn't require sending the page contents."*
    OwnershipTransfer {
        /// The object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// The owner's record the reader takes over.
        handover: Handover,
    },
    /// Internode pageout step 3: will you take this page? The page rides
    /// along; accepting installs it and makes the receiver owner.
    AcceptAsk {
        /// The object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// The evicting owner.
        from: NodeId,
        /// The page and its record.
        xfer: Transfer,
    },
    /// Answer to [`AsvmMsg::AcceptAsk`].
    AcceptReply {
        /// The object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// The candidate node.
        from: NodeId,
        /// It had memory available and installed the page.
        accept: bool,
    },
    /// Tells the page's static ownership manager who owns it now.
    OwnerHint {
        /// The object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// The new owner.
        owner: NodeId,
    },
    /// Tells the static manager the page went back to the pager.
    PagedHint {
        /// The object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
    },
    /// Push operation (§3.7.2): the write-granting owner asks a sharing
    /// node to push the page down its local copy chain and invalidate it in
    /// the source object (`memory_object_lock_request` with push mode).
    PushReq {
        /// The source object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// The coordinating owner (ack destination).
        from: NodeId,
    },
    /// Answer to [`AsvmMsg::PushReq`].
    PushAck {
        /// The source object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// The replying node.
        from: NodeId,
        /// The page was absent locally; contents are needed to complete
        /// the push (`lock_completed` reported `PageAbsent`).
        needs_data: bool,
    },
    /// Page contents sent to a node whose push found the page absent; the
    /// receiver performs `data_supply(mode=push)`.
    PushData {
        /// The source object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// The coordinating owner (completion destination).
        from: NodeId,
        /// Contents to push down the local copy chain.
        data: PageData,
    },
    /// Completion of the remote half of a push at one sharing node.
    PushDone {
        /// The source object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// The node that completed its push.
        from: NodeId,
    },
    /// A delayed copy of the object was created somewhere: every sharing
    /// node bumps its version counter and write-protects its resident
    /// pages, so the next write triggers a push operation (§3.7).
    CopyMade {
        /// The source object.
        mobj: MemObjId,
        /// Node that created the copy (the home relays to everyone else).
        from: NodeId,
    },
    /// A sharing node finished applying a copy notification (version bump
    /// + write protection); sent to the home node, which aggregates.
    CopyMadeAck {
        /// The source object.
        mobj: MemObjId,
        /// The acknowledging node.
        from: NodeId,
    },
    /// Every sharing node has applied the copy notification: the fork that
    /// created the copy may complete (the copy point is linearized here).
    CopySettled {
        /// The source object.
        mobj: MemObjId,
    },
    /// Hands a pull lookup to the peer node of a copy object, which walks
    /// its local shadow chain with `memory_object_pull_request` (§3.7.3).
    PullHop {
        /// The object whose local shadow chain must be traversed.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// The pull lookup: who faulted (`origin`, `origin_obj`), for
        /// which access, and the copy object the grant must be delivered
        /// in terms of (`deliver`, always set).
        req: QueuedReq,
    },
    /// Range-lock request (§6 future work): sent to the object's home
    /// node, which runs the lock manager.
    RangeLockReq {
        /// The object.
        mobj: MemObjId,
        /// First page of the range.
        first: PageIdx,
        /// Length in pages.
        count: u32,
        /// The requesting node.
        from: NodeId,
    },
    /// The range lock was granted.
    RangeLockGrant {
        /// The object.
        mobj: MemObjId,
        /// First page of the range.
        first: PageIdx,
        /// Length in pages.
        count: u32,
    },
    /// The holder releases the range.
    RangeLockRelease {
        /// The object.
        mobj: MemObjId,
        /// First page of the range.
        first: PageIdx,
        /// Length in pages.
        count: u32,
        /// The releasing node.
        from: NodeId,
    },
    /// Retry indicator (§3.7.3): a copy request raced with a push; the
    /// origin must re-issue it.
    Retry {
        /// The object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// Access originally requested.
        access: Access,
    },
    /// Ownership reconstruction, step 1: the static manager (or the node
    /// that inherited the role) asks a surviving member what it knows
    /// about a page whose owner is suspected dead.
    RecoverQuery {
        /// The object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// The reconstructing manager (reply destination).
        from: NodeId,
    },
    /// Answer to [`AsvmMsg::RecoverQuery`]: the replier's local view.
    RecoverReply {
        /// The object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// The replying member.
        from: NodeId,
        /// What it holds.
        view: CopyView,
    },
    /// Ownership reconstruction, step 2: no live owner was found; the
    /// receiver — the surviving copy holder with the highest version
    /// (ties to the lowest node id) — becomes the page's owner.
    RecoverElect {
        /// The object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// Surviving copy holders other than the new owner (its reader
        /// set).
        readers: Vec<NodeId>,
    },
}

impl AsvmMsg {
    /// Bytes of payload following the fixed 32-byte header (page contents
    /// and variable-length lists).
    pub fn payload_bytes(&self, page_size: u32) -> u32 {
        match self {
            AsvmMsg::Grant { grant, .. } => {
                grant.data.as_ref().map_or(0, |_| page_size) + 2 * grant.readers.len() as u32
            }
            AsvmMsg::OwnershipTransfer { handover, .. } => 2 * handover.readers.len() as u32,
            AsvmMsg::AcceptAsk { .. } | AsvmMsg::PushData { .. } => page_size,
            AsvmMsg::Membership { nodes, .. } => 2 * nodes.len() as u32,
            AsvmMsg::RecoverElect { readers, .. } => 2 * readers.len() as u32,
            _ => 0,
        }
    }

    /// Statistics key counting sends of this message kind
    /// (`asvm.msg.<kind>`). One interned counter per protocol message
    /// variant; the effect interpreter bumps it on every send.
    pub fn stat_key(&self) -> &'static str {
        match self {
            AsvmMsg::MapNotify { .. } => "asvm.msg.map_notify",
            AsvmMsg::Membership { .. } => "asvm.msg.membership",
            AsvmMsg::PageReq { .. } => "asvm.msg.page_req",
            AsvmMsg::Grant { .. } => "asvm.msg.grant",
            AsvmMsg::Invalidate { .. } => "asvm.msg.invalidate",
            AsvmMsg::InvalidateAck { .. } => "asvm.msg.invalidate_ack",
            AsvmMsg::ReadCheck { .. } => "asvm.msg.read_check",
            AsvmMsg::ReadCheckReply { .. } => "asvm.msg.read_check_reply",
            AsvmMsg::OwnershipTransfer { .. } => "asvm.msg.ownership_transfer",
            AsvmMsg::AcceptAsk { .. } => "asvm.msg.accept_ask",
            AsvmMsg::AcceptReply { .. } => "asvm.msg.accept_reply",
            AsvmMsg::OwnerHint { .. } => "asvm.msg.owner_hint",
            AsvmMsg::PagedHint { .. } => "asvm.msg.paged_hint",
            AsvmMsg::PushReq { .. } => "asvm.msg.push_req",
            AsvmMsg::PushAck { .. } => "asvm.msg.push_ack",
            AsvmMsg::PushData { .. } => "asvm.msg.push_data",
            AsvmMsg::PushDone { .. } => "asvm.msg.push_done",
            AsvmMsg::CopyMade { .. } => "asvm.msg.copy_made",
            AsvmMsg::CopyMadeAck { .. } => "asvm.msg.copy_made_ack",
            AsvmMsg::CopySettled { .. } => "asvm.msg.copy_settled",
            AsvmMsg::PullHop { .. } => "asvm.msg.pull_hop",
            AsvmMsg::RangeLockReq { .. } => "asvm.msg.range_lock_req",
            AsvmMsg::RangeLockGrant { .. } => "asvm.msg.range_lock_grant",
            AsvmMsg::RangeLockRelease { .. } => "asvm.msg.range_lock_release",
            AsvmMsg::Retry { .. } => "asvm.msg.retry",
            AsvmMsg::RecoverQuery { .. } => "asvm.msg.recover_query",
            AsvmMsg::RecoverReply { .. } => "asvm.msg.recover_reply",
            AsvmMsg::RecoverElect { .. } => "asvm.msg.recover_elect",
        }
    }

    /// Whether this message may be posted as a *one-sided* remote read on
    /// a transport that supports them: a plain read-access request issued
    /// by `me` itself, with no pull-lookup indirection and no recovery
    /// routing. Forwarded requests, upgrades-in-disguise and watchdog
    /// re-issues must take the two-sided path — their handling can mutate
    /// owner-side state beyond serving a copy, and recovery deliberately
    /// routes through the static manager's reconstruction logic.
    pub fn one_sided_read_candidate(&self, me: NodeId) -> bool {
        matches!(
            self,
            AsvmMsg::PageReq {
                req: QueuedReq {
                    access: Access::Read,
                    origin,
                    has_copy: false,
                    kind: ReqKind::Access,
                    deliver: None,
                    ..
                },
                path: ReqPath { recovering: false, .. },
                ..
            } if *origin == me
        )
    }

    /// Whether this is a speculative (prefetch-issued) page request.
    pub fn is_speculative_req(&self) -> bool {
        matches!(
            self,
            AsvmMsg::PageReq {
                path: ReqPath {
                    speculative: true,
                    ..
                },
                ..
            }
        )
    }

    /// The page this message concerns, if it addresses a single page
    /// (object-level messages — membership, copy notifications — have
    /// none).
    pub fn page(&self) -> Option<PageIdx> {
        match self {
            AsvmMsg::PageReq { page, .. }
            | AsvmMsg::Grant { page, .. }
            | AsvmMsg::Invalidate { page, .. }
            | AsvmMsg::InvalidateAck { page, .. }
            | AsvmMsg::ReadCheck { page, .. }
            | AsvmMsg::ReadCheckReply { page, .. }
            | AsvmMsg::OwnershipTransfer { page, .. }
            | AsvmMsg::AcceptAsk { page, .. }
            | AsvmMsg::AcceptReply { page, .. }
            | AsvmMsg::OwnerHint { page, .. }
            | AsvmMsg::PagedHint { page, .. }
            | AsvmMsg::PushReq { page, .. }
            | AsvmMsg::PushAck { page, .. }
            | AsvmMsg::PushData { page, .. }
            | AsvmMsg::PushDone { page, .. }
            | AsvmMsg::PullHop { page, .. }
            | AsvmMsg::Retry { page, .. }
            | AsvmMsg::RecoverQuery { page, .. }
            | AsvmMsg::RecoverReply { page, .. }
            | AsvmMsg::RecoverElect { page, .. } => Some(*page),
            AsvmMsg::RangeLockReq { first, .. }
            | AsvmMsg::RangeLockGrant { first, .. }
            | AsvmMsg::RangeLockRelease { first, .. } => Some(*first),
            AsvmMsg::MapNotify { .. }
            | AsvmMsg::Membership { .. }
            | AsvmMsg::CopyMade { .. }
            | AsvmMsg::CopyMadeAck { .. }
            | AsvmMsg::CopySettled { .. } => None,
        }
    }

    /// The memory object this message concerns.
    pub fn mobj(&self) -> MemObjId {
        match self {
            AsvmMsg::MapNotify { mobj, .. }
            | AsvmMsg::Membership { mobj, .. }
            | AsvmMsg::PageReq { mobj, .. }
            | AsvmMsg::Grant { mobj, .. }
            | AsvmMsg::Invalidate { mobj, .. }
            | AsvmMsg::InvalidateAck { mobj, .. }
            | AsvmMsg::ReadCheck { mobj, .. }
            | AsvmMsg::ReadCheckReply { mobj, .. }
            | AsvmMsg::OwnershipTransfer { mobj, .. }
            | AsvmMsg::AcceptAsk { mobj, .. }
            | AsvmMsg::AcceptReply { mobj, .. }
            | AsvmMsg::OwnerHint { mobj, .. }
            | AsvmMsg::PagedHint { mobj, .. }
            | AsvmMsg::PushReq { mobj, .. }
            | AsvmMsg::PushAck { mobj, .. }
            | AsvmMsg::PushData { mobj, .. }
            | AsvmMsg::PushDone { mobj, .. }
            | AsvmMsg::PullHop { mobj, .. }
            | AsvmMsg::CopyMade { mobj, .. }
            | AsvmMsg::CopyMadeAck { mobj, .. }
            | AsvmMsg::CopySettled { mobj }
            | AsvmMsg::RangeLockReq { mobj, .. }
            | AsvmMsg::RangeLockGrant { mobj, .. }
            | AsvmMsg::RangeLockRelease { mobj, .. }
            | AsvmMsg::Retry { mobj, .. }
            | AsvmMsg::RecoverQuery { mobj, .. }
            | AsvmMsg::RecoverReply { mobj, .. }
            | AsvmMsg::RecoverElect { mobj, .. } => *mobj,
        }
    }

    /// Whether this is an ack-class message: pure bookkeeping replies that
    /// the engine handles at `asvm_ack_handle` cost.
    pub fn is_ack_class(&self) -> bool {
        matches!(
            self,
            AsvmMsg::InvalidateAck { .. }
                | AsvmMsg::ReadCheckReply { .. }
                | AsvmMsg::AcceptReply { .. }
                | AsvmMsg::PushAck { .. }
                | AsvmMsg::PushDone { .. }
                | AsvmMsg::OwnerHint { .. }
                | AsvmMsg::PagedHint { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hint hop extends the run of hint hops, any other hop resets it;
    /// the run saturates rather than overflowing on objects that never cut
    /// (the hop bound of a large `dynamic_only` object exceeds 255).
    #[test]
    fn a_hop_counts_hint_runs() {
        let mut path = ReqPath::default().hop(true).hop(true);
        assert_eq!((path.hops, path.hint_hops), (2, 2));
        path = path.hop(false);
        assert_eq!((path.hops, path.hint_hops), (3, 0));
        for _ in 0..300 {
            path = path.hop(true);
        }
        assert_eq!((path.hops, path.hint_hops), (303, u8::MAX));
    }

    #[test]
    fn payload_accounting() {
        let ps = 8192;
        let hdr_only = AsvmMsg::Invalidate {
            mobj: MemObjId(1),
            page: PageIdx(0),
            from: NodeId(0),
        };
        assert_eq!(hdr_only.payload_bytes(ps), 0);

        let grant = |data, readers| AsvmMsg::Grant {
            mobj: MemObjId(1),
            page: PageIdx(0),
            grant: PageGrant {
                access: Access::Write,
                data,
                dirty: false,
                ownership: true,
                readers,
                version: 0,
                pull_snapshot: false,
            },
        };
        let full = grant(Some(PageData::Word(1)), vec![NodeId(1), NodeId(2)]);
        assert_eq!(full.payload_bytes(ps), ps + 4);
        assert_eq!(grant(None, vec![]).payload_bytes(ps), 0, "upgrade");
    }

    #[test]
    fn mobj_extraction() {
        let m = AsvmMsg::PagedHint {
            mobj: MemObjId(9),
            page: PageIdx(1),
        };
        assert_eq!(m.mobj(), MemObjId(9));
    }
}
