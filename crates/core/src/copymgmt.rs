//! Distributed delayed-copy management (paper §3.7).
//!
//! ASVM extends the VM system's asymmetric copy strategy across node
//! boundaries. The building blocks:
//!
//! * **Version counters** — an object's version increments each time a copy
//!   is made from it; a page's version is set to the object version when a
//!   push completes. A write to a page whose version lags the object
//!   version triggers a push operation first.
//! * **Push operations** — the owner broadcasts [`crate::protocol::AsvmMsg::PushReq`]
//!   to every sharing node; each uses `memory_object_lock_request` with the
//!   push mode to push the page down its local copy chain and invalidate it
//!   in the source object. Nodes whose VM cache lacks the page report
//!   `PageAbsent`; the owner sends them the contents and they complete via
//!   `data_supply(mode=push)`.
//! * **Push scans** — before pushing into a *shared* copy object, a push
//!   scan request travels through the forwarding machinery; if an owner
//!   exists in the copy object the push is cancelled for it.
//! * **Pull operations** — a fault in a copy object traverses the local
//!   shadow chain, hops to the copy's *peer node* via the forwarding
//!   machinery, continues with `memory_object_pull_request` there, and so
//!   on until contents or the chain end (zero fill) are found.
//! * **Retry** — a copy request that enters its source while a push is in
//!   progress is bounced back with a retry indicator.

use machvm::{
    Access, EmmiToKernel, LockMode, MemObjId, NodeSet, PageData, PageIdx, PullResult, SupplyMode,
    VmObjId,
};
use svmsim::NodeId;

use crate::node::{AsvmNode, Cx, DOWNGRADE, FLUSH};
use crate::object::{Busy, QueuedReq};
use crate::protocol::{AsvmMsg, PageGrant, ReqPath};

impl Cx<'_> {
    /// Starts a push operation at the owner before a write can be granted
    /// (`req` resumes once every sharing node has pushed).
    pub(crate) fn start_push(&mut self, page: PageIdx, req: QueuedReq) {
        // Local half: push the page down our own copy chain.
        let (op, mode) = (DOWNGRADE, LockMode::PushFirst);
        self.kernel(EmmiToKernel::LockRequest { page, op, mode });
        // Remote half: every other sharing node pushes too.
        let (mobj, from) = (self.o.mobj, self.me);
        let pending: NodeSet = self
            .o
            .nodes
            .iter()
            .copied()
            .filter(|n| *n != from)
            .collect();
        if pending.is_empty() {
            let pi = self.o.pages.get_mut(&page).expect("push on untracked page");
            pi.version = self.o.version;
            return self.serve(page, req);
        }
        for n in &pending {
            self.fx.send(*n, AsvmMsg::PushReq { mobj, page, from });
        }
        let resume = Box::new(req);
        self.pin(page, Busy::Push { pending, resume });
    }

    /// A sharing node received a push request: run the local push via the
    /// extended `lock_request` and report the outcome.
    pub(crate) fn on_push_req(&mut self, page: PageIdx, from: NodeId) {
        // The push must also invalidate the page in the source object; a
        // read copy here is dropped (the owner keeps the authoritative
        // copy). Our copy chain may need the page while the VM cache lacks
        // it: then ask the owner for the contents (lock_completed reported
        // PageAbsent).
        let resident = self.vm.peek_page(self.o.vm_obj, page).is_some();
        let needs_data = !resident && self.o.has_local_copy_needing(self.vm, page);
        if resident {
            let (op, mode) = (FLUSH, LockMode::PushFirst);
            self.kernel(EmmiToKernel::LockRequest { page, op, mode });
            self.o.pages.remove(&page);
        }
        let (mobj, me) = (self.o.mobj, self.me);
        let msg = AsvmMsg::PushAck {
            mobj,
            page,
            from: me,
            needs_data,
        };
        self.fx.send(from, msg);
    }

    /// The owner received a push acknowledgement.
    pub(crate) fn on_push_ack(&mut self, page: PageIdx, from: NodeId, needs_data: bool) {
        if !needs_data {
            return self.push_done(page, from);
        }
        // Send the contents; the node completes with data_supply(push) and
        // then reports PushDone.
        let data = (self.vm.peek_page(self.o.vm_obj, page))
            .map(|(d, _)| d.clone())
            .or_else(|| match self.o.pages.get(&page).map(|pi| &pi.busy) {
                Some(Some(Busy::Evict { data, .. })) => Some(data.clone()),
                _ => None,
            })
            .expect("push owner lost the page contents");
        let (mobj, me) = (self.o.mobj, self.me);
        let msg = AsvmMsg::PushData {
            mobj,
            page,
            from: me,
            data,
        };
        self.fx.send(from, msg);
    }

    /// A node that needed contents received them from the coordinating
    /// `owner`: complete the local push and report completion.
    pub(crate) fn on_push_data(&mut self, page: PageIdx, owner: NodeId, data: PageData) {
        let (lock, mode) = (Access::Write, SupplyMode::PushCopyChain);
        self.kernel(EmmiToKernel::DataSupply {
            page,
            data,
            lock,
            mode,
        });
        let (mobj, from) = (self.o.mobj, self.me);
        self.fx.send(owner, AsvmMsg::PushDone { mobj, page, from });
    }

    /// The owner learned one sharing node finished its push.
    pub(crate) fn push_done(&mut self, page: PageIdx, from: NodeId) {
        let Some(pi) = self.o.pages.get_mut(&page) else {
            return;
        };
        let Some(Busy::Push { pending, resume }) = &mut pi.busy else {
            return;
        };
        pending.remove(&from);
        if !pending.is_empty() {
            return;
        }
        let resume = **resume;
        pi.version = self.o.version;
        pi.busy = None;
        let queued: Vec<QueuedReq> = pi.queued.drain(..).collect();
        self.vm.set_busy(self.o.vm_obj, page, false);
        self.serve(page, resume);
        for q in queued {
            if let Some(deliver) = q.deliver {
                // §3.7.3: a copy request that entered the source during the
                // push is bounced back with a retry indicator — the pushed
                // contents now live in the copy objects, so re-pulling from
                // the (about to change) source page would be wrong.
                let access = q.access;
                let msg = AsvmMsg::Retry {
                    mobj: deliver,
                    page,
                    access,
                };
                self.fx.send(q.origin, msg);
            } else {
                self.route(page, q, ReqPath::default());
            }
        }
    }

    /// A push scan ended: it found an owner inside the shared copy object
    /// (`needs_data` false — the push for this copy object is cancelled),
    /// or fell through to "no owner" (`needs_data` true — the push
    /// proceeds: the scanning node performs the push supply). Either way
    /// the scanning node is told.
    pub(crate) fn push_scan_answer(&mut self, page: PageIdx, req: QueuedReq, needs_data: bool) {
        let mobj = self.o.mobj;
        let msg = AsvmMsg::PushAck {
            mobj,
            page,
            from: req.origin,
            needs_data,
        };
        self.fx.send(req.origin, msg);
    }

    /// A fault in a distributed copy object found no owner anywhere: pull
    /// the page through the shadow chain on the peer node (§3.7.3).
    pub(crate) fn pull_dispatch(&mut self, page: PageIdx, mut req: QueuedReq) {
        let peer = self.o.peer.expect("copy object without a peer node");
        let mobj = self.o.mobj;
        req.deliver.get_or_insert(mobj);
        if peer != self.me {
            // Hand the request to the peer node; it will issue the pull
            // there. The hop carries no copy claim.
            let req = QueuedReq {
                has_copy: false,
                ..req
            };
            return self.fx.send(peer, AsvmMsg::PullHop { mobj, page, req });
        }
        // We are the peer: traverse the local shadow chain.
        let slot = self.o.pull_in_flight.entry(page).or_default();
        slot.push(req);
        if slot.len() == 1 {
            self.kernel(EmmiToKernel::PullRequest { page });
        }
    }

    /// Outcome of a `pull_request` we issued on the local shadow chain.
    /// When the chain continues in another distributed object, returns
    /// that object and the requests the node dispatcher must forward into
    /// it (§3.7.3).
    pub(crate) fn on_pull_completed(
        &mut self,
        page: PageIdx,
        result: PullResult,
    ) -> Option<(VmObjId, Vec<QueuedReq>)> {
        let reqs = self.o.pull_in_flight.remove(&page).unwrap_or_default();
        if reqs.is_empty() {
            return None;
        }
        let data = match result {
            PullResult::Zero => PageData::Zero,
            PullResult::Data(data) => data,
            PullResult::AskShadow(shadow_obj) => return Some((shadow_obj, reqs)),
        };
        for req in reqs {
            self.grant_pull(page, req, data.clone());
        }
        None
    }

    /// Sends a pulled page snapshot to the request origin, making it the
    /// page's first owner inside the copy object. Loopback sends are fine:
    /// the glue delivers self-addressed messages locally.
    pub(crate) fn grant_pull(&mut self, page: PageIdx, req: QueuedReq, data: PageData) {
        let mobj = req.deliver.expect("pull without deliver object");
        let grant = PageGrant::snapshot(req.access, data);
        self.fx
            .send(req.origin, AsvmMsg::Grant { mobj, page, grant });
    }

    /// A delayed copy of the object was created on this node: apply the
    /// version bump here and broadcast it via the home node.
    pub(crate) fn copy_made_local(&mut self) {
        self.apply_copy_made();
        let (mobj, me) = (self.o.mobj, self.me);
        if self.o.home == me {
            self.relay_copy_made(me);
        } else {
            self.fx
                .send(self.o.home, AsvmMsg::CopyMade { mobj, from: me });
        }
    }

    /// `creator` made a delayed copy of the object: apply the version bump
    /// here, then relay (home node) or acknowledge (everyone else).
    pub(crate) fn on_copy_made(&mut self, creator: NodeId) {
        self.apply_copy_made();
        let (mobj, me) = (self.o.mobj, self.me);
        if self.o.home == me {
            self.relay_copy_made(creator);
        } else {
            self.fx
                .send(self.o.home, AsvmMsg::CopyMadeAck { mobj, from: me });
        }
    }

    /// Home node: relays `creator`'s copy notification to every other
    /// member and settles it once all have acknowledged (at once when
    /// there is nobody else to tell).
    fn relay_copy_made(&mut self, creator: NodeId) {
        let (mobj, me) = (self.o.mobj, self.me);
        let targets: Vec<NodeId> = (self.o.nodes.iter().copied())
            .filter(|n| *n != me && *n != creator)
            .collect();
        if targets.is_empty() {
            return self.settle_copy(creator);
        }
        // The relayed notification names the creator as its sender.
        let from = creator;
        for n in &targets {
            self.fx.send(*n, AsvmMsg::CopyMade { mobj, from });
        }
        self.o
            .copy_settles
            .push((creator, targets.into_iter().collect()));
    }

    /// Home node: a member applied a relayed copy notification.
    pub(crate) fn on_copy_made_ack(&mut self, acker: NodeId) {
        assert_eq!(self.o.home, self.me, "copy acks aggregate at the home node");
        let settles = &mut self.o.copy_settles;
        let Some(i) = settles.iter().position(|(_, p)| p.contains(&acker)) else {
            return;
        };
        settles[i].1.remove(&acker);
        if settles[i].1.is_empty() {
            let (creator, _) = settles.remove(i);
            self.settle_copy(creator);
        }
    }

    /// Every member applied `creator`'s copy notification: tell it, so the
    /// fork waiting on the copy may complete.
    fn settle_copy(&mut self, creator: NodeId) {
        let mobj = self.o.mobj;
        if creator == self.me {
            self.fx.settled.push(mobj);
        } else {
            self.fx.send(creator, AsvmMsg::CopySettled { mobj });
        }
    }

    /// Applies the local half of a copy notification: bump the object
    /// version and write-protect resident pages so the next write faults
    /// into the push machinery.
    fn apply_copy_made(&mut self) {
        self.o.version += 1;
        let writable: Vec<PageIdx> = (self.o.pages.iter())
            .filter(|(_, pi)| pi.access == Access::Write)
            .map(|(p, _)| p)
            .collect();
        for page in writable {
            self.lock(page, DOWNGRADE);
            if let Some(pi) = self.o.pages.get_mut(&page) {
                pi.access = Access::Read;
            }
        }
    }
}

/// Records a distributed copy relationship: `copy_mobj` is a delayed copy
/// of `source_mobj`, created on `peer` (which maps the source, making it
/// the pull target of §3.7.3).
///
/// This is pure bookkeeping — the source's version counter is bumped by
/// the `CopyMade` settle protocol, not here.
pub(crate) fn declare_copy_link(
    node: &mut AsvmNode,
    copy_mobj: MemObjId,
    source_mobj: Option<MemObjId>,
    peer: Option<NodeId>,
) {
    if let Some(src_id) = source_mobj {
        if node.has_object(src_id) {
            let src = node.object_mut(src_id);
            if !src.copies.contains(&copy_mobj) {
                src.copies.push(copy_mobj);
            }
        }
    }
    let copy = node.object_mut(copy_mobj);
    copy.peer = peer;
    copy.source = source_mobj;
}
