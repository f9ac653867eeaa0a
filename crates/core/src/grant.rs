//! The Figure 7 grant path: a fault's request, its service at the owner
//! (§3.4 transitions 1–8), the grant's arrival, and the pager fill that
//! mints a page's first owner.
//!
//! | state here | event | effects |
//! |---|---|---|
//! | nothing (or weaker) pending | own request | record `PendingLocal`; busy → park; owner → serve (7); else route |
//! | owner, idle | read request | downgrade a writable copy; add reader; `Grant{Read}` (5) |
//! | owner of lent memory, idle, no reader | read request | `Grant{Read, ownership}`; flush; hand the page away (`asvm.evict.lent_return`) |
//! | owner of lent memory | own request served | the page is ours: clear `lent` |
//! | owner, idle, no other reader | write request | `Grant{Write, ownership}`; flush; hand the page away (4) |
//! | owner, idle, other readers | write request | `Invalidate` them; `Busy::WriteTransfer` (6) |
//! | owner, idle, readers | own upgrade | `Invalidate` them; `Busy::LocalUpgrade` (7) |
//! | owner, page version behind object | write request | push first (§3.7.2) |
//! | `WriteTransfer` | last `InvalidateAck` | as transition 4 |
//! | `LocalUpgrade` | last `InvalidateAck` | grant write locally; re-route queue; drain parked |
//! | reader | `Invalidate` | flush the copy; `InvalidateAck` (8) |
//! | request pending | `Grant` | install contents (elided → stash or lock upgrade); completes the request over our handoff hint to `y` → successor record `(y, granter)`; pull snapshot, or ownership at the static manager → notify static manager; drain parked |
//! | no request, page resident | non-owner `Grant` | drop it (`asvm.recover.stale_grant`) |
//! | fill pending | pager supply | install as owner; notify static manager; push if copies exist; drain parked |

use machvm::{Access, LockOp, NodeSet, PageData, PageIdx};
use svmsim::NodeId;

use crate::node::{Cx, DOWNGRADE, FLUSH};
use crate::object::{Busy, DynHint, PageInfo, QueuedReq, StaticHint};
use crate::protocol::{AsvmMsg, PageGrant, ReqKind, ReqPath};

impl Cx<'_> {
    /// This node needs `access` to `page`: a local fault, or —
    /// `speculative` — a prefetch, which travels, routes and is served
    /// exactly like a demand request (the flag only drives accounting).
    pub(crate) fn request(&mut self, page: PageIdx, access: Access, speculative: bool) {
        if let Some(p) = self.o.pending.get_mut(&page) {
            // A demand fault catching an in-flight speculative request:
            // the prefetch was issued but did not land in time.
            if !speculative && p.speculative {
                p.speculative = false;
                self.fx.bump("asvm.prefetch.late");
            }
            if p.access.allows(access) {
                return; // Already in flight.
            }
        }
        let has_copy = self.o.pages.contains_key(&page);
        self.pend(page, access, has_copy, 0, speculative);
        let req = self.own_req(access, has_copy);
        // If the page is busy here (transfer/eviction in flight), park the
        // request; completion re-dispatches it.
        if let Some(pi) = self.o.pages.get_mut(&page) {
            if pi.busy.is_some() {
                pi.queued.push_back(req);
                return;
            }
            if pi.owner {
                // Owner with a local upgrade request: run transition 7.
                return self.serve(page, req);
            }
        }
        let path = ReqPath {
            speculative,
            ..ReqPath::default()
        };
        self.route(page, req, path);
    }

    /// Grants the request at the owner (Figure 7 transitions 4–7).
    pub(crate) fn serve(&mut self, page: PageIdx, req: QueuedReq) {
        if req.kind == ReqKind::PushScan {
            return self.push_scan_answer(page, req, false);
        }
        // Delayed-copy rule (§3.7.2): a write on a page whose version lags
        // the object version needs a push operation first.
        if req.access == Access::Write && self.o.page(page).version != self.o.version {
            return self.start_push(page, req);
        }
        if req.deliver.is_some() {
            // Pull lookup (§3.7.3): hand a snapshot of the page to the
            // origin in terms of the copy object; the origin does not join
            // this object's reader list.
            let (data, _) = self.owned_page(page);
            return self.grant_pull(page, req, data);
        }
        if req.origin == self.me {
            // Our own request came back to us as owner: a lent page is
            // ours from now on.
            self.o.pending.remove(&page);
            self.o.page_mut(page).lent = false;
            return match req.access {
                Access::Read => self.lock(page, LockOp::Grant(Access::Read)),
                Access::Write => self.local_upgrade(page),
            };
        }
        if req.access == Access::Read {
            return self.grant_read(page, req.origin);
        }
        // Transition 4/6: transfer ownership; invalidate readers first if
        // any exist.
        let mut acks = self.o.page(page).readers.clone();
        acks.remove(&req.origin);
        if acks.is_empty() {
            return self.finish_write_transfer(page, req.origin, req.has_copy);
        }
        self.invalidate(page, &acks);
        self.pin(
            page,
            Busy::WriteTransfer {
                to: req.origin,
                to_has_copy: req.has_copy,
                pending_acks: acks,
            },
        );
    }

    /// Transition 5: grant `to` a read copy and add it to the reader list
    /// — unless the page is lent and has no readers. Lent memory is an
    /// exclusive victim cache (§3.6): a re-fault is the lender's cue to
    /// hand the page back whole, with its ownership.
    fn grant_read(&mut self, page: PageIdx, to: NodeId) {
        let pi = self.o.page(page);
        if pi.lent && pi.readers.is_empty() {
            self.fx.bump("asvm.evict.lent_return");
            return self.transfer_ownership(page, to, Access::Read, false);
        }
        if pi.access == Access::Write {
            // Single writer XOR multiple readers: downgrade first.
            let dirty = self
                .vm
                .peek_page(self.o.vm_obj, page)
                .is_some_and(|(_, d)| d);
            self.lock(page, DOWNGRADE);
            let pi = self.o.page_mut(page);
            pi.dirty |= dirty;
            pi.access = Access::Read;
        }
        let (data, vm_dirty) = self.owned_page(page);
        let pi = self.o.page_mut(page);
        pi.readers.insert(to);
        pi.dirty |= vm_dirty;
        self.send_grant(to, page, Access::Read, Some(data), false);
    }

    /// Transition 7: the owner upgrades its own access.
    pub(crate) fn local_upgrade(&mut self, page: PageIdx) {
        let pi = self.o.page(page);
        debug_assert!(pi.owner);
        let acks = pi.readers.clone();
        if acks.is_empty() {
            return self.write_here(page);
        }
        self.invalidate(page, &acks);
        self.pin(page, Busy::LocalUpgrade { pending_acks: acks });
    }

    /// Completes transition 4/6 once all invalidations are acknowledged.
    ///
    /// The page contents ride along unless the requester both claimed a
    /// read copy in its request (`to_has_copy`) *and* is still in our
    /// reader list — the claim alone is not enough, because the VM may
    /// have silently discarded the copy before the request left (§3.6
    /// step 1 does not notify the owner), and the reader list alone is
    /// not enough, because such a discard leaves it stale.
    fn finish_write_transfer(&mut self, page: PageIdx, to: NodeId, to_has_copy: bool) {
        let elide = to_has_copy && self.o.page(page).readers.contains(&to);
        self.transfer_ownership(page, to, Access::Write, elide);
    }

    /// Grants `to` `access` to `page` with its ownership, dirty bit and
    /// version — the contents ride along unless `elide` — and gives the
    /// page up here.
    fn transfer_ownership(&mut self, page: PageIdx, to: NodeId, access: Access, elide: bool) {
        let (data, vm_dirty) = self.owned_page(page);
        self.o.page_mut(page).dirty |= vm_dirty;
        self.send_grant(to, page, access, (!elide).then_some(data), true);
        // Flush our own copy: the new owner holds the only one.
        self.vm.set_busy(self.o.vm_obj, page, false);
        self.lock(page, FLUSH);
        // Tell the static manager about the transfer NOW — this is the
        // transfer's only report: a concurrent global walk that finds no
        // owner must see the in-flight transfer at the static manager
        // instead of minting a second owner at the pager.
        self.hand_away(page, Some(to), Some(StaticHint::Owner(to)));
    }

    /// An invalidation ack arrived; advance whatever was waiting on it.
    pub(crate) fn invalidate_ack(&mut self, page: PageIdx, acker: NodeId) {
        let Some(pi) = self.o.pages.get_mut(&page) else {
            return; // Stale ack after the page moved on.
        };
        pi.readers.remove(&acker);
        let (Some(Busy::WriteTransfer { pending_acks, .. })
        | Some(Busy::LocalUpgrade { pending_acks })) = &mut pi.busy
        else {
            return;
        };
        pending_acks.remove(&acker);
        if !pending_acks.is_empty() {
            return;
        }
        if let Some(Busy::WriteTransfer {
            to, to_has_copy, ..
        }) = pi.busy.take()
        {
            return self.finish_write_transfer(page, to, to_has_copy);
        }
        let queued: Vec<QueuedReq> = pi.queued.drain(..).collect();
        self.vm.set_busy(self.o.vm_obj, page, false);
        self.write_here(page);
        self.reroute(page, queued);
        self.drain_parked(page);
    }

    /// Gives this node's own VM write access to `page`, which it owns and
    /// no other node holds a copy of any more.
    fn write_here(&mut self, page: PageIdx) {
        let pi = self.o.page_mut(page);
        pi.access = Access::Write;
        pi.dirty = true;
        pi.readers.clear();
        self.lock(page, LockOp::Grant(Access::Write));
    }

    /// The owner invalidates our read copy (transition 8).
    pub(crate) fn on_invalidate(&mut self, page: PageIdx, owner: NodeId) {
        if let Some(pi) = self.o.pages.get(&page) {
            assert!(pi.idle_or_awaiting(), "invalidate raced a busy page");
            if !pi.owner {
                self.vm.set_busy(self.o.vm_obj, page, false);
                self.lock(page, FLUSH);
                self.o.pages.remove(&page);
                // A speculative fill invalidated before any demand access
                // consumed it: the transfer was wasted.
                self.spec_settle(page, true);
            }
        }
        self.o.dyn_cache.insert(page, DynHint::learned(owner));
        let (mobj, from) = (self.o.mobj, self.me);
        self.fx
            .send(owner, AsvmMsg::InvalidateAck { mobj, page, from });
    }

    /// A grant (read copy, write+ownership, or upgrade) arrived from
    /// `from`.
    pub(crate) fn grant_arrived(&mut self, from: NodeId, page: PageIdx, grant: PageGrant) {
        let PageGrant {
            access,
            data,
            dirty,
            ownership,
            readers,
            version,
            pull_snapshot,
        } = grant;
        // An owner-making write grant for a page whose version lags the
        // object version must run a push before the write proceeds (the
        // snapshot in the grant has not reached existing copies yet). This
        // covers pulled snapshots; owner-to-owner transfers arrive already
        // pushed by the granting owner.
        let needs_push = ownership && access == Access::Write && version != self.o.version;
        let lock = if needs_push { Access::Read } else { access };
        let pend = self.o.pending.get(&page).copied();
        // A non-ownership grant with no pending request and the page
        // already resident is a duplicate: the original and a watchdog
        // re-issue both got answered, or a same-node write fault
        // superseded an in-flight read (the write's ownership grant
        // landed first and this is the late read grant). Applying it
        // again is harmless for the data (same owner, same contents) but
        // would clobber local bookkeeping; drop it.
        if pend.is_none() && !ownership && self.o.pages.contains_key(&page) {
            self.fx.bump("asvm.recover.stale_grant");
            return;
        }
        if let Some(p) = pend.filter(|p| !needs_push && access.allows(p.access)) {
            self.o.pending.remove(&page);
            // The request went out over our handoff hint to `y`: pages
            // handed to `y` have moved on to the granter.
            let hint = self.o.dyn_cache.peek(&page).copied();
            if let Some(h) = hint.filter(|h| h.handoff && !pull_snapshot) {
                self.o.successor = Some((h.owner, from));
            }
            if p.speculative {
                // The fill landed before any demand access touched it:
                // remember it so the eventual demand hit (or eviction)
                // settles the speculation honestly.
                self.o.prefetched.insert(page);
            }
        }
        let pi = self
            .o
            .pages
            .get_or_insert_with(page, || Box::new(PageInfo::new(lock, false, version)));
        pi.access = pi.access.max(lock);
        pi.owner |= ownership;
        pi.version = version;
        pi.dirty |= dirty;
        pi.readers.extend(readers);
        pi.readers.remove(&self.me);
        if !ownership {
            // The sender is the owner; remember it.
            self.o.dyn_cache.insert(page, DynHint::learned(from));
        }
        // Any grant supersedes a stashed discarded copy: either it carries
        // fresh contents, or (elided) the stash *is* the contents.
        let stashed = self.o.stash.remove(&page);
        match data {
            Some(d) => self.supply(page, d, lock),
            None if self.vm.peek_page(self.o.vm_obj, page).is_none() => {
                // The owner elided the contents against our claimed read
                // copy, but the VM silently discarded that copy while the
                // request was in flight; restore the stashed contents. The
                // stash is current: an elided grant means we stayed in the
                // owner's reader list, so no write intervened.
                let s = stashed.expect("elided grant for a page with no local copy");
                debug_assert_eq!(s.version, version, "stashed copy version mismatch");
                self.fx.bump("asvm.evict.stash_fill");
                self.supply(page, s.data, lock);
            }
            None => self.lock(page, LockOp::Grant(lock)),
        }
        // An owner-to-owner transfer was reported by its granter when it
        // handed the page away. A pull snapshot has no granter in this
        // object, so its receiver reports it; and a static manager records
        // itself, having dropped the granter's hint as a stale self-hint
        // if that hint arrived first.
        if ownership && (pull_snapshot || self.o.static_node_live(page) == self.me) {
            self.notify_owner_hint(page);
        }
        if needs_push {
            let req = self.own_req(Access::Write, true);
            self.start_push(page, req);
        }
        self.drain_parked(page);
    }

    /// The real pager supplied `page`. `cancelled`: the supply answers a
    /// speculation [`crate::AsvmNode::cancel_unclaimed_speculation`]
    /// forgot.
    pub(crate) fn pager_supply(&mut self, page: PageIdx, data: PageData, cancelled: bool) {
        if cancelled && !self.o.pages.contains_key(&page) && !self.o.pending.contains_key(&page) {
            // The fill of a cancelled speculation: the static manager
            // serializes the page behind it, so take it as the plain read
            // it now is.
            self.fx.bump("asvm.prefetch.cancelled_fill");
            self.pend(page, Access::Read, false, 0, false);
        }
        // A recovery re-fetch can race the regular protocol: a late grant
        // may rebuild local page state (completing the pending request,
        // possibly followed by a newer pending) after the fetch went out.
        // A reply arriving into that state is stale — drop it rather than
        // double-supplying the kernel. Healthy runs never take this branch
        // (`docs/RELIABILITY.md`).
        if self.o.pages.contains_key(&page) || !self.o.pending.contains_key(&page) {
            self.fx.bump("asvm.recover.stale_fill");
            return;
        }
        let pend = self.o.pending.remove(&page).expect("checked above");
        // Version 0 = "never pushed": if copies were made before this page
        // ever materialized, the first write must still push the
        // (zero/pager) snapshot into them.
        let needs_push = pend.access == Access::Write && self.o.version > 0;
        let lock = if needs_push {
            Access::Read
        } else {
            pend.access
        };
        self.o
            .pages
            .insert(page, Box::new(PageInfo::new(lock, true, 0)));
        if pend.speculative {
            self.o.prefetched.insert(page);
        }
        self.supply(page, data, lock);
        self.notify_owner_hint(page);
        if needs_push {
            // Run the write through the owner state machine so the
            // snapshot reaches every copy before the grant.
            self.o.pending.insert(page, pend);
            let req = self.own_req(Access::Write, true);
            self.start_push(page, req);
        }
        self.drain_parked(page);
    }

    /// The contents and VM dirty bit of `page`, which this node owns.
    fn owned_page(&self, page: PageIdx) -> (PageData, bool) {
        let (data, dirty) = self
            .vm
            .peek_page(self.o.vm_obj, page)
            .expect("owner must hold the page");
        (data.clone(), dirty)
    }

    /// Sends `to` the owner's grant of `access` to `page` (contents
    /// elided when `data` is `None`), stamped with our record.
    fn send_grant(
        &mut self,
        to: NodeId,
        page: PageIdx,
        access: Access,
        data: Option<PageData>,
        ownership: bool,
    ) {
        let pi = self.o.page(page);
        let grant = PageGrant {
            access,
            data,
            dirty: pi.dirty,
            ownership,
            readers: vec![],
            version: pi.version,
            pull_snapshot: false,
        };
        let mobj = self.o.mobj;
        self.fx.send(to, AsvmMsg::Grant { mobj, page, grant });
    }

    /// Sends `Invalidate` for `page` to every node in `readers`.
    fn invalidate(&mut self, page: PageIdx, readers: &NodeSet) {
        let (mobj, from) = (self.o.mobj, self.me);
        for r in readers {
            self.fx.send(*r, AsvmMsg::Invalidate { mobj, page, from });
        }
    }

    /// Pins `page` behind the operation `busy`, here and in the VM.
    pub(crate) fn pin(&mut self, page: PageIdx, busy: Busy) {
        self.o.page_mut(page).busy = Some(busy);
        self.vm.set_busy(self.o.vm_obj, page, true);
    }
}
