//! Internode paging (§3.6): the memory of every node mapping an object
//! is a cache for it, and a page the VM evicts leaves this node in four
//! steps — discard a read copy; hand ownership to a reader; move the page
//! to a node with free memory; return it to the pager.
//!
//! | state here | event | effects |
//! |---|---|---|
//! | reader | VM eviction (step 1) | discard silently; stash the contents if our own upgrade claimed the copy |
//! | owner with readers | VM eviction (step 2) | `Busy::Evict{CheckingReaders}`; `ReadCheck` the first reader |
//! | `CheckingReaders{r}` | `ReadCheckReply{r, copy}` | `OwnershipTransfer` to `r`; hand the page away to `r` |
//! | `CheckingReaders{r}` | `ReadCheckReply{r, none}` | `ReadCheck` the next reader, or step 3 |
//! | reader, idle | `ReadCheck` | `Busy::AwaitingOwnership`; `ReadCheckReply{copy}` |
//! | `AwaitingOwnership` | `OwnershipTransfer` | become owner; notify static manager; re-route queue; drain parked |
//! | owner, no reader left (step 3) | — | `Busy::Evict{Asking}`; `AcceptAsk` the next member (cycling counter) |
//! | `Asking{c}` | `AcceptReply{c, yes}` | `PageTransfer` to `c`; hand the page away to `c` |
//! | `Asking{c}` | `AcceptReply{c, no}` | `AcceptAsk` the last acceptor once, else step 4 |
//! | member | `AcceptAsk` | accept iff memory is free and no transfer is already incoming |
//! | accepted | `PageTransfer` | install as owner of lent memory; notify static manager; drain parked |
//! | owner of lent memory, no reader | read request | return the page with its ownership (`grant.rs`) |
//! | no taker (step 4) | — | dirty → `DataReturn` to the pager; hand the page away, `Paged` at the static manager |
//!
//! Each eviction bumps `asvm.evict.step{1,2,3,4}` once, at the step that
//! decides where the page goes. Lent memory is an exclusive victim cache:
//! the lender holds a lent page only until someone reads it again.

use machvm::{Access, PageData, PageIdx};
use svmsim::NodeId;

use crate::node::Cx;
use crate::object::{Busy, EvictStage, PageInfo, QueuedReq, StashedCopy, StaticHint};
use crate::protocol::{AsvmMsg, Handover, Transfer};

impl Cx<'_> {
    /// The VM evicted `page`: run the four-step internode pageout.
    pub(crate) fn evict(&mut self, page: PageIdx, data: PageData, dirty: bool) {
        let Some(pi) = self.o.pages.get_mut(&page) else {
            // No state: nothing to do (e.g. a pushed page the manager never
            // tracked).
            return;
        };
        assert!(pi.busy.is_none(), "VM evicted a busy page");
        if !pi.owner {
            self.fx.bump("asvm.evict.step1");
            // Step 1: not the owner — discard; the owner can supply it
            // again at any time. Exception: if our own upgrade request for
            // this page is in flight and claimed this copy, the owner may
            // elide the contents from the grant — keep them until it
            // arrives (see [`StashedCopy`]).
            if matches!(self.o.pending.get(&page), Some(p) if p.has_copy) {
                self.fx.bump("asvm.evict.stash");
                let version = pi.version;
                self.o.stash.insert(page, StashedCopy { data, version });
            }
            self.o.pages.remove(&page);
            // A speculative fill evicted before any demand access: wasted.
            self.spec_settle(page, true);
            return;
        }
        pi.dirty |= dirty;
        let dirty = pi.dirty;
        let readers = pi.readers.as_slice().to_vec();
        self.check_readers(page, data, dirty, &readers);
    }

    /// Step 2 over `readers`: ask the first whether it still holds a copy
    /// that could take ownership over, one after another — or, with none
    /// left, go on to step 3.
    fn check_readers(&mut self, page: PageIdx, data: PageData, dirty: bool, readers: &[NodeId]) {
        let Some((&current, rest)) = readers.split_first() else {
            return self.evict_step3(page, data, dirty);
        };
        let remaining = rest.to_vec();
        let stage = EvictStage::CheckingReaders { current, remaining };
        self.evict_ask(page, data, dirty, stage);
    }

    /// Puts the eviction of `page` (whose contents it holds) into `stage`
    /// and asks that stage's question: `ReadCheck` the reader or
    /// `AcceptAsk` the candidate.
    fn evict_ask(&mut self, page: PageIdx, data: PageData, dirty: bool, stage: EvictStage) {
        let (mobj, from) = (self.o.mobj, self.me);
        let (dst, msg) = match stage {
            EvictStage::CheckingReaders { current, .. } => {
                (current, AsvmMsg::ReadCheck { mobj, page, from })
            }
            EvictStage::Asking { candidate, .. } => {
                (candidate, AsvmMsg::AcceptAsk { mobj, page, from })
            }
        };
        self.o.page_mut(page).busy = Some(Busy::Evict { data, dirty, stage });
        self.fx.send(dst, msg);
    }

    /// An evicting owner asks whether we still hold a read copy that
    /// could take the page over (step 2).
    pub(crate) fn on_read_check(&mut self, page: PageIdx, owner: NodeId) {
        let has_copy = (self.o.pages.get(&page)).is_some_and(|pi| !pi.owner && pi.busy.is_none());
        if has_copy {
            self.pin(page, Busy::AwaitingOwnership);
        }
        let (mobj, from) = (self.o.mobj, self.me);
        let msg = AsvmMsg::ReadCheckReply {
            mobj,
            page,
            from,
            has_copy,
        };
        self.fx.send(owner, msg);
    }

    /// Step 2 reply.
    pub(crate) fn read_check_reply(&mut self, page: PageIdx, reader: NodeId, has_copy: bool) {
        let pi = self
            .o
            .pages
            .get_mut(&page)
            .expect("read-check reply without state");
        let Some(Busy::Evict {
            data,
            dirty,
            stage: EvictStage::CheckingReaders { current, remaining },
        }) = pi.busy.take()
        else {
            panic!("read-check reply while not checking readers");
        };
        assert_eq!(current, reader);
        pi.readers.remove(&reader);
        if has_copy {
            // Ownership moves to the reader; no page contents needed.
            self.fx.bump("asvm.evict.step2");
            let handover = Handover {
                readers: pi.readers.as_slice().to_vec(),
                version: pi.version,
                dirty,
            };
            let mobj = self.o.mobj;
            let msg = AsvmMsg::OwnershipTransfer {
                mobj,
                page,
                handover,
            };
            self.fx.send(reader, msg);
            return self.hand_away(page, Some(reader), None);
        }
        self.check_readers(page, data, dirty, &remaining);
    }

    /// Ownership of a page we hold a copy of arrives (step 2).
    pub(crate) fn on_ownership_transfer(&mut self, page: PageIdx, handover: Handover) {
        let pi = self
            .o
            .pages
            .get_mut(&page)
            .expect("ownership transfer to node without the page");
        // `busy == None` happens only when the watchdog broke an
        // AwaitingOwnership limbo (suspected-dead transferor) and the
        // transfer then arrived after all; accept it.
        assert!(
            pi.idle_or_awaiting(),
            "ownership transfer raced a busy page"
        );
        pi.busy = None;
        pi.owner = true;
        pi.readers = handover.readers.into_iter().collect();
        pi.readers.remove(&self.me);
        pi.version = handover.version;
        pi.dirty |= handover.dirty;
        let queued: Vec<QueuedReq> = pi.queued.drain(..).collect();
        self.vm.set_busy(self.o.vm_obj, page, false);
        self.notify_owner_hint(page);
        self.reroute(page, queued);
        self.drain_parked(page);
    }

    /// Step 3: pick a candidate via the cycling counter.
    fn evict_step3(&mut self, page: PageIdx, data: PageData, dirty: bool) {
        let me = self.me;
        let candidates: Vec<NodeId> = self.o.nodes.iter().copied().filter(|n| *n != me).collect();
        if candidates.is_empty() {
            return self.evict_step4(page, data, dirty);
        }
        let candidate = candidates[self.o.pageout_counter % candidates.len()];
        self.o.pageout_counter += 1;
        let stage = EvictStage::Asking {
            candidate,
            tried_last_accept: false,
        };
        self.evict_ask(page, data, dirty, stage);
    }

    /// An evicting owner asks whether we have room for the page (step 3).
    pub(crate) fn on_accept_ask(&mut self, page: PageIdx, owner: NodeId) {
        let free = self.vm.resident_total() + 16 <= self.vm.capacity_pages();
        let accept = free && !self.o.incoming_transfer.contains(&page);
        if accept {
            self.o.incoming_transfer.insert(page);
        }
        let (mobj, from) = (self.o.mobj, self.me);
        let msg = AsvmMsg::AcceptReply {
            mobj,
            page,
            from,
            accept,
        };
        self.fx.send(owner, msg);
    }

    /// Step 3 reply.
    pub(crate) fn accept_reply(&mut self, page: PageIdx, candidate: NodeId, accept: bool) {
        let pi = self
            .o
            .pages
            .get_mut(&page)
            .expect("accept reply without state");
        let Some(Busy::Evict {
            data,
            dirty,
            stage:
                EvictStage::Asking {
                    candidate: asked,
                    tried_last_accept,
                },
        }) = pi.busy.take()
        else {
            panic!("accept reply while not asking");
        };
        assert_eq!(asked, candidate);
        if accept {
            self.fx.bump("asvm.evict.step3");
            let xfer = Transfer {
                data,
                dirty,
                version: pi.version,
            };
            let mobj = self.o.mobj;
            self.fx
                .send(candidate, AsvmMsg::PageTransfer { mobj, page, xfer });
            self.o.last_accept = Some(candidate);
            return self.hand_away(page, Some(candidate), None);
        }
        // Fall back to the node that most recently accepted a transfer.
        let me = self.me;
        let fallback =
            (self.o.last_accept).filter(|n| *n != candidate && *n != me && !tried_last_accept);
        match fallback {
            Some(n) => {
                let stage = EvictStage::Asking {
                    candidate: n,
                    tried_last_accept: true,
                };
                self.evict_ask(page, data, dirty, stage);
            }
            None => self.evict_step4(page, data, dirty),
        }
    }

    /// A page we accepted arrives with its ownership (step 3), as lent
    /// memory.
    pub(crate) fn on_page_transfer(&mut self, page: PageIdx, xfer: Transfer) {
        self.o.incoming_transfer.remove(&page);
        let mut pi = PageInfo::new(Access::Read, true, xfer.version);
        pi.dirty = xfer.dirty;
        pi.lent = true;
        let prev = self.o.pages.insert(page, Box::new(pi));
        assert!(prev.is_none(), "page transfer onto existing state");
        self.supply(page, xfer.data, Access::Read);
        self.notify_owner_hint(page);
        self.drain_parked(page);
    }

    /// Step 4: return the page to the real pager.
    fn evict_step4(&mut self, page: PageIdx, data: PageData, dirty: bool) {
        self.fx.bump("asvm.evict.step4");
        if dirty {
            self.write_back(page, data);
        }
        self.hand_away(page, None, Some(StaticHint::Paged));
    }
}
