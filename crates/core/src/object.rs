//! Per-node, per-memory-object ASVM state.
//!
//! The paper's memory rule (§3.1): a node only holds page state for pages
//! cached in its physical memory. [`PageInfo`] entries therefore exist only
//! for locally resident pages (plus short-lived transitional records while
//! an eviction or transfer is in flight), and all forwarding knowledge
//! lives in bounded LRU caches.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use machvm::{Access, KeyTable, MemObjId, NodeSet, PageData, PageIdx, VmObjId};
use svmsim::{NodeId, Time};

use crate::config::AsvmConfig;
use crate::lru::Lru;
use crate::protocol::ReqKind;

/// A request parked while the page is busy or while its owner is unknown.
#[derive(Clone, Copy, Debug)]
pub struct QueuedReq {
    /// Requested access.
    pub access: Access,
    /// Requesting node.
    pub origin: NodeId,
    /// The requester's VM object (reply-routing token).
    pub origin_obj: VmObjId,
    /// The requester claims to hold a read copy.
    pub has_copy: bool,
    /// Normal access or push scan.
    pub kind: ReqKind,
    /// Pull lookup on behalf of this copy object (§3.7.3), if any.
    pub deliver: Option<MemObjId>,
}

impl QueuedReq {
    /// A fault's own access request — neither a push scan nor a pull
    /// lookup. Only these carry the object's read/write mix, and only
    /// these may start ownership reconstruction.
    pub(crate) fn is_plain_access(&self) -> bool {
        self.kind == ReqKind::Access && self.deliver.is_none()
    }
}

/// Stage of an internode pageout (paper §3.6).
#[derive(Clone, Debug)]
pub enum EvictStage {
    /// Step 2: asking readers, one after another, whether they still hold
    /// the page.
    CheckingReaders {
        /// The reader currently being asked.
        current: NodeId,
        /// Readers not yet asked.
        remaining: Vec<NodeId>,
    },
    /// Step 3: asking a node with mapped memory to accept the page.
    Asking {
        /// The candidate currently being asked.
        candidate: NodeId,
        /// Whether the most-recent-acceptor fallback was already tried.
        tried_last_accept: bool,
    },
}

/// In-flight protocol operation pinning a page's state.
#[derive(Clone, Debug)]
pub enum Busy {
    /// Transition 6: invalidating readers before granting write access
    /// (and ownership) to another node.
    WriteTransfer {
        /// The node receiving write access.
        to: NodeId,
        /// The requester claimed a read copy when the request left it, so
        /// the grant may elide the page contents (checked against our
        /// reader list when the transfer completes).
        to_has_copy: bool,
        /// Acks still outstanding.
        pending_acks: NodeSet,
    },
    /// Transition 7: invalidating readers before upgrading our own access.
    LocalUpgrade {
        /// Acks still outstanding.
        pending_acks: NodeSet,
    },
    /// Internode pageout in progress; the contents were already removed
    /// from the VM cache and are held here.
    Evict {
        /// The page contents.
        data: PageData,
        /// Whether they differ from the pager's version.
        dirty: bool,
        /// Current stage.
        stage: EvictStage,
    },
    /// We answered a read-check positively and are waiting for the
    /// ownership transfer; the page is pinned against eviction.
    AwaitingOwnership,
    /// A push operation is collecting acknowledgements from sharing nodes
    /// before write access is granted (§3.7.2).
    Push {
        /// Nodes that have not yet completed their local push.
        pending: NodeSet,
        /// The write request to serve once the push completes.
        resume: Box<QueuedReq>,
    },
}

/// ASVM state for one page on one node.
#[derive(Clone, Debug)]
pub struct PageInfo {
    /// Access level the local VM cache holds.
    pub access: Access,
    /// This node is the page owner.
    pub owner: bool,
    /// Nodes holding read copies (meaningful only when `owner`).
    pub readers: NodeSet,
    /// Delayed-copy page version (paper §3.7.2).
    pub version: u64,
    /// The distributed page differs from the pager's version.
    pub dirty: bool,
    /// Lent memory: the page arrived here by another node's §3.6 step 3
    /// eviction and this node has not used it since. The first read
    /// request takes it back with its ownership (`grant.rs`); this node's
    /// own served request clears the flag. Rides in the record's padding.
    pub lent: bool,
    /// In-flight operation, if any.
    pub busy: Option<Busy>,
    /// Requests parked on this page while busy.
    pub queued: VecDeque<QueuedReq>,
}

impl PageInfo {
    /// A fresh record with the given access and ownership.
    pub fn new(access: Access, owner: bool, version: u64) -> PageInfo {
        PageInfo {
            access,
            owner,
            readers: NodeSet::new(),
            version,
            dirty: false,
            lent: false,
            busy: None,
            queued: VecDeque::new(),
        }
    }

    /// No operation is in flight on the page — or only the wait for an
    /// ownership transfer ([`Busy::AwaitingOwnership`]), which still
    /// holds a usable copy.
    pub(crate) fn idle_or_awaiting(&self) -> bool {
        matches!(self.busy, None | Some(Busy::AwaitingOwnership))
    }
}

/// A read copy the VM silently discarded (internode pageout step 1)
/// while our own upgrade request for the page — which claimed the copy —
/// was still in flight. The owner may honour that claim and elide the
/// page contents from the ownership grant, so the contents are kept here
/// until the grant arrives. Sound because an elided grant implies this
/// node stayed in the owner's reader list the whole time: any
/// intervening write would have invalidated us out of it, and then the
/// grant carries data.
#[derive(Clone, Debug)]
pub struct StashedCopy {
    /// The discarded page contents.
    pub data: PageData,
    /// The page version the copy had (must match an elided grant's).
    pub version: u64,
}

/// Our own outstanding request for a page.
#[derive(Clone, Copy, Debug)]
pub struct PendingLocal {
    /// Access requested.
    pub access: Access,
    /// We held a read copy when the request left.
    pub has_copy: bool,
    /// When the request (or its latest watchdog re-issue) left this node.
    pub issued: Time,
    /// Watchdog re-issues so far (bounded by
    /// [`crate::config::WATCHDOG_RETRY_BUDGET`]).
    pub retries: u8,
    /// Issued by the prefetch engine ahead of any demand fault; cleared
    /// (and counted `asvm.prefetch.late`) when a demand fault catches up
    /// with the request in flight. See [`crate::prefetch`].
    pub speculative: bool,
}

/// Ownership reconstruction in progress at a static manager (or the node
/// that inherited the role) for one page whose owner is suspected dead.
#[derive(Debug)]
pub struct RecoverState {
    /// Members whose [`crate::protocol::AsvmMsg::RecoverReply`] is still
    /// outstanding.
    pub expect: BTreeSet<NodeId>,
    /// Best surviving copy seen so far: `(version, holder)`, highest
    /// version winning and ties going to the lowest node id.
    pub best: Option<(u64, NodeId)>,
    /// All members that reported a usable copy.
    pub holders: BTreeSet<NodeId>,
    /// A member that reported itself as the live owner.
    pub owner: Option<NodeId>,
    /// Requests parked until reconstruction resolves.
    pub waiting: Vec<QueuedReq>,
}

/// Static-ownership-manager knowledge about a page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StaticHint {
    /// This node owns the page (last we heard).
    Owner(NodeId),
    /// The page was returned to the pager.
    Paged,
}

/// A dynamic forwarding hint: the page's presumed owner, and whether this
/// node's own hand-away wrote it (a *handoff* hint). Handoff hints chain:
/// each former owner points at the next writer, so a request following
/// them walks the ownership history (see `route.rs`). The flag rides in
/// the cache entry's padding, so it costs no memory (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DynHint {
    /// The presumed owner.
    pub owner: NodeId,
    /// Written by this node's own hand-away.
    pub handoff: bool,
}

impl DynHint {
    /// A hint learned from anyone but this node's own hand-away.
    pub fn learned(owner: NodeId) -> DynHint {
        DynHint {
            owner,
            handoff: false,
        }
    }
}

/// Per-node representation of one ASVM-managed memory object.
#[derive(Debug)]
pub struct AsvmObject {
    /// The distributed memory object.
    pub mobj: MemObjId,
    /// The local VM object representing it.
    pub vm_obj: VmObjId,
    /// Object length in pages.
    pub size_pages: u32,
    /// Creation node; membership authority.
    pub home: NodeId,
    /// I/O node hosting the backing pager.
    pub pager_node: NodeId,
    /// Striped backing (§6 future work): pager nodes used round-robin by
    /// page. Contains just `pager_node` for a conventional object.
    pub stripe: Vec<NodeId>,
    /// Forwarding configuration.
    pub cfg: AsvmConfig,
    /// All nodes that have mapped the object, sorted (kept consistent by
    /// home-node broadcasts).
    pub nodes: Vec<NodeId>,
    /// Page state (resident/owned pages only). Boxed: the table's
    /// load-factor slack then costs a pointer per free slot, not a whole
    /// 128-byte record.
    pub pages: KeyTable<PageIdx, Box<PageInfo>>,
    /// Our own outstanding requests.
    pub pending: KeyTable<PageIdx, PendingLocal>,
    /// Read copies discarded by the VM while an upgrade request claiming
    /// them was in flight (see [`StashedCopy`]); consumed when the grant
    /// arrives.
    pub stash: BTreeMap<PageIdx, StashedCopy>,
    /// Requests from others that will be servable once our own pending
    /// write/fill completes.
    pub fill_waiters: BTreeMap<PageIdx, Vec<QueuedReq>>,
    /// Dynamic forwarding hints (most recent presumed owner).
    pub dyn_cache: Lru<PageIdx, DynHint>,
    /// Static-manager hint cache (for pages this node statically manages).
    pub static_cache: Lru<PageIdx, StaticHint>,
    /// Pager fills in flight, recorded at the static manager so that
    /// concurrent no-owner requests serialize instead of racing to the
    /// pager.
    pub static_filling: BTreeMap<PageIdx, NodeId>,
    /// Requests parked at the static manager until a fill completes.
    pub static_waiting: BTreeMap<PageIdx, Vec<QueuedReq>>,
    /// Pages that have ever had an owner (distinguishes `fresh` from
    /// merely-unknown while no hint has been evicted).
    pub static_seen: BTreeSet<PageIdx>,
    /// The `fresh` fast path is sound: membership has not changed since
    /// setup, so "never seen at the static manager" really means "no owner
    /// anywhere". Runtime membership changes (forks) clear it; unknown
    /// pages then take the global walk, which finds owners the (moved)
    /// static managers never heard about.
    pub fresh_valid: bool,
    /// Pages whose transfer we accepted and are waiting to receive
    /// (internode pageout step 3); requests park until the page lands.
    pub incoming_transfer: BTreeSet<PageIdx>,
    /// Delayed-copy object version counter (incremented per copy).
    pub version: u64,
    /// Internode pageout cycling counter (§3.6 step 3).
    pub pageout_counter: usize,
    /// Node that most recently accepted a page transfer from us.
    pub last_accept: Option<NodeId>,
    /// Distributed delayed copy: the node where this copy object was
    /// created ("peer node", §3.7.3), which maps the source object.
    pub peer: Option<NodeId>,
    /// Distributed delayed copy: the source object this object was copied
    /// from.
    pub source: Option<MemObjId>,
    /// Distributed copy objects made from this object.
    pub copies: Vec<MemObjId>,
    /// Pull requests whose local shadow-chain traversal
    /// (`memory_object_pull_request`) is in flight.
    pub pull_in_flight: BTreeMap<PageIdx, Vec<QueuedReq>>,
    /// Copy notifications being settled at the home node: the copying node
    /// and the members whose acknowledgement is still outstanding.
    pub copy_settles: Vec<(NodeId, BTreeSet<NodeId>)>,
    /// Range-lock manager (home node only; §6 future work).
    pub range_locks: crate::locks::RangeLockMgr,
    /// Prefetch's waste latch (inert unless prefetch is on). See
    /// [`crate::prefetch::WasteLatch`].
    pub latch: crate::prefetch::WasteLatch,
    /// Local fault-stream detector driving prefetch (inert unless
    /// `cfg.prefetch_depth > 0`). See [`crate::prefetch`].
    pub local_stream: crate::prefetch::StreamDetector,
    /// Speculatively filled pages no demand access has consumed yet:
    /// removed with `asvm.prefetch.hit` on first demand use, or with
    /// `asvm.prefetch.wasted` when invalidation/eviction takes the page
    /// first.
    pub prefetched: BTreeSet<PageIdx>,
    /// Members of this object suspected dead by the failure detector.
    /// Persists across quiescence — suspicion is evidence, not state to
    /// drain.
    pub suspects: BTreeSet<NodeId>,
    /// Ownership reconstructions in flight (must be empty at quiescence).
    pub recover: BTreeMap<PageIdx, RecoverState>,
}

impl AsvmObject {
    /// Creates the local representation of `mobj`.
    pub fn new(
        mobj: MemObjId,
        vm_obj: VmObjId,
        size_pages: u32,
        home: NodeId,
        pager_node: NodeId,
        me: NodeId,
        cfg: AsvmConfig,
    ) -> AsvmObject {
        let mut nodes = vec![home];
        if me != home {
            nodes.push(me);
            nodes.sort();
        }
        AsvmObject {
            mobj,
            vm_obj,
            size_pages,
            home,
            pager_node,
            stripe: vec![pager_node],
            cfg,
            nodes,
            pages: KeyTable::new(),
            pending: KeyTable::new(),
            stash: BTreeMap::new(),
            fill_waiters: BTreeMap::new(),
            dyn_cache: Lru::new(cfg.dynamic_cache_entries),
            static_cache: Lru::new(crate::config::STATIC_CACHE_ENTRIES),
            static_filling: BTreeMap::new(),
            static_waiting: BTreeMap::new(),
            static_seen: BTreeSet::new(),
            fresh_valid: true,
            incoming_transfer: BTreeSet::new(),
            version: 0,
            pageout_counter: 0,
            last_accept: None,
            peer: None,
            source: None,
            copies: Vec::new(),
            pull_in_flight: BTreeMap::new(),
            copy_settles: Vec::new(),
            range_locks: crate::locks::RangeLockMgr::default(),
            latch: crate::prefetch::WasteLatch::default(),
            local_stream: crate::prefetch::StreamDetector::default(),
            prefetched: BTreeSet::new(),
            suspects: BTreeSet::new(),
            recover: BTreeMap::new(),
        }
    }

    /// True if this node's local copy chain below the object still needs
    /// `page` pushed into it (the copy object exists and lacks the page).
    pub fn has_local_copy_needing(&self, vm: &machvm::VmSystem, page: PageIdx) -> bool {
        let src = vm.object(self.vm_obj);
        match src.copy {
            Some(c) => {
                let copy = vm.object(c);
                !copy.resident(page) && !copy.paged_out.contains(&page)
            }
            None => false,
        }
    }

    /// This node's record of `page`, which the protocol state says exists
    /// (the node owns the page, or has an operation in flight on it).
    pub(crate) fn page(&self, page: PageIdx) -> &PageInfo {
        self.pages
            .get(&page)
            .expect("no state for an owned or busy page")
    }

    /// [`AsvmObject::page`], mutably.
    pub(crate) fn page_mut(&mut self, page: PageIdx) -> &mut PageInfo {
        (self.pages.get_mut(&page)).expect("no state for an owned or busy page")
    }

    /// The static ownership manager for `page`: a fixed hash of the page
    /// number over the object's membership.
    pub fn static_node(&self, page: PageIdx) -> NodeId {
        assert!(!self.nodes.is_empty(), "object with empty membership");
        self.nodes[page.0 as usize % self.nodes.len()]
    }

    /// [`AsvmObject::static_node`] with failover: when the hashed manager
    /// is suspected dead, the role rehashes to the next live member in
    /// membership order. With no suspects this is exactly `static_node`;
    /// with every member suspected it degenerates to the original hash
    /// (the caller falls back to the pager in that regime anyway).
    pub fn static_node_live(&self, page: PageIdx) -> NodeId {
        assert!(!self.nodes.is_empty(), "object with empty membership");
        let n = self.nodes.len();
        let start = page.0 as usize % n;
        for i in 0..n {
            let cand = self.nodes[(start + i) % n];
            if !self.suspects.contains(&cand) {
                return cand;
            }
        }
        self.nodes[start]
    }

    /// Bound on the dynamic-hint hops a request may take before the hint
    /// chain is abandoned for the static manager / global walk: a chain
    /// over `n` members can legitimately be `n` long, ownership may move
    /// once more while the request is in flight (`2n`), and the slack
    /// absorbs a transfer racing the request. Trips are counted under
    /// `asvm.forward.loop_trip` (see `docs/RELIABILITY.md`).
    pub(crate) fn hop_bound(&self) -> u16 {
        self.nodes.len() as u16 * 2 + 4
    }

    /// Whether a request that has followed [`crate::config::HANDOFF_HOPS`]
    /// handoff hints in a row is cut to the static manager instead of
    /// taking another. A chain over `m` members is at most `m − 1` hops
    /// long; after two of them the static manager's exact record (two hops
    /// away) can only win if `m − 3 > 2`, and only with static forwarding
    /// on.
    pub(crate) fn cuts_handoff_chains(&self) -> bool {
        self.cfg.static_forwarding && self.nodes.len() > 5
    }

    /// The pager serving `page`: round-robin over the stripe set (§6
    /// future work — *"multiple pagers for one VM object that are used for
    /// paging requests in a round-robin fashion"*).
    pub fn pager_for(&self, page: PageIdx) -> NodeId {
        self.stripe[page.0 as usize % self.stripe.len()]
    }

    /// The most slots any page-keyed table of this object has allocated.
    #[cfg(test)]
    fn max_table_slots(&self) -> usize {
        [
            self.pages.capacity(),
            self.pending.capacity(),
            self.dyn_cache.slots(),
            self.static_cache.slots(),
        ]
        .into_iter()
        .max()
        .unwrap_or(0)
    }

    /// Approximate bytes of non-pageable memory this node spends on the
    /// object's distributed-memory state (for the memory ablation).
    pub fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pages.len() * (size_of::<PageIdx>() + size_of::<PageInfo>())
            + self
                .pages
                .values()
                .map(|p| p.readers.len() * 2)
                .sum::<usize>()
            + self.dyn_cache.len() * (size_of::<PageIdx>() + size_of::<NodeId>() + 8)
            + self.static_cache.len() * (size_of::<PageIdx>() + size_of::<StaticHint>() + 8)
            + self.static_seen.len() * size_of::<PageIdx>()
            + self.nodes.len() * size_of::<NodeId>()
            + self.prefetched.len() * size_of::<PageIdx>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(me: u16, home: u16) -> AsvmObject {
        obj_sized(me, home, 64)
    }

    fn obj_sized(me: u16, home: u16, size_pages: u32) -> AsvmObject {
        AsvmObject::new(
            MemObjId(1),
            VmObjId(1),
            size_pages,
            NodeId(home),
            NodeId(9),
            NodeId(me),
            AsvmConfig::default(),
        )
    }

    #[test]
    fn initial_membership_contains_home_and_self() {
        let o = obj(2, 0);
        assert_eq!(o.nodes, vec![NodeId(0), NodeId(2)]);
        let h = obj(0, 0);
        assert_eq!(h.nodes, vec![NodeId(0)]);
    }

    #[test]
    fn static_manager_is_deterministic_hash() {
        let mut o = obj(0, 0);
        o.nodes = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        assert_eq!(o.static_node(PageIdx(0)), NodeId(0));
        assert_eq!(o.static_node(PageIdx(5)), NodeId(1));
        assert_eq!(o.static_node(PageIdx(7)), NodeId(3));
    }

    #[test]
    fn static_role_rehashes_past_suspects() {
        let mut o = obj(0, 0);
        o.nodes = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        // No suspects: identical to the plain hash.
        assert_eq!(o.static_node_live(PageIdx(5)), o.static_node(PageIdx(5)));
        // The hashed manager died: the role moves to its successor.
        o.suspects.insert(NodeId(1));
        assert_eq!(o.static_node_live(PageIdx(5)), NodeId(2));
        // Successor also dead: keep walking.
        o.suspects.insert(NodeId(2));
        assert_eq!(o.static_node_live(PageIdx(5)), NodeId(3));
        // Everyone suspected: fall back to the original hash.
        o.suspects.extend([NodeId(0), NodeId(3)]);
        assert_eq!(o.static_node_live(PageIdx(5)), NodeId(1));
    }

    #[test]
    fn state_bytes_grows_with_resident_pages_only() {
        let mut o = obj(0, 0);
        let empty = o.state_bytes();
        o.pages
            .insert(PageIdx(0), Box::new(PageInfo::new(Access::Read, true, 0)));
        assert!(o.state_bytes() > empty);
        // Crucially: no term proportional to size_pages — neither in the
        // gauge nor in what the tables allocate (§3.1's memory rule).
        let mut big = obj_sized(0, 0, 1 << 24);
        assert_eq!(big.state_bytes(), empty);
        let touch = |o: &mut AsvmObject, pages: [PageIdx; 2]| {
            for p in pages {
                o.pages
                    .insert(p, Box::new(PageInfo::new(Access::Read, true, 0)));
                o.pending.insert(
                    p,
                    PendingLocal {
                        access: Access::Write,
                        has_copy: true,
                        issued: Time::ZERO,
                        retries: 0,
                        speculative: false,
                    },
                );
                o.dyn_cache.insert(p, DynHint::learned(NodeId(1)));
                o.static_cache.insert(p, StaticHint::Paged);
            }
        };
        let mut small = obj(0, 0);
        touch(&mut small, [PageIdx(0), PageIdx(63)]);
        touch(&mut big, [PageIdx(0), PageIdx((1 << 24) - 1)]);
        assert_eq!(big.state_bytes(), small.state_bytes());
        assert!(
            big.max_table_slots() <= 8,
            "two entries per table, {} slots allocated",
            big.max_table_slots()
        );
    }
}
