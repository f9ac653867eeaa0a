//! Failure recovery (`docs/RELIABILITY.md`): ownership reconstruction at
//! the static manager, the watchdog's re-issue ladder, and the unwinding a
//! suspicion triggers.
//!
//! Everything here is reachable only when the failure detector has
//! produced suspects or the watchdog found a stalled request — i.e. only
//! under an active fault plan. Fault-free runs never enter it, which is
//! what keeps baseline traces byte-identical.
//!
//! | state here | event | effects |
//! |---|---|---|
//! | static manager, page not reconstructing | plain access needing reconstruction | seed with own view; `RecoverQuery` every live member |
//! | reconstructing | another such request | park behind it (`asvm.recover.dup_req`) |
//! | member | `RecoverQuery` | `RecoverReply` with its usable copy, version, ownership |
//! | reconstructing | last `RecoverReply` (or its sender suspected) | owner survived → release waiters to it; else elect the best copy (`RecoverElect`) and release to it; else pager re-fetch |
//! | copy holder | `RecoverElect` | own the surviving copyset; serve our stalled request; re-route queue; drain parked |
//! | own request stalled past the deadline | watchdog tick | one handling charge; drop its hint; re-issue as `recovering`, or (budget spent / no live peer) flush and re-fetch from the pager |
//! | no own request stalled | watchdog tick | nothing (not even a charge) |
//! | any | peer suspected | scrub hints; abort transfers to it; answer its acks, push, read-check and accept rounds negatively; drop it as reader; reclaim its fills; finish reconstructions waiting on it |

use std::collections::BTreeSet;

use machvm::{EmmiToPager, PageIdx, PagerSend};
use svmsim::{Dur, NodeId};

use crate::config::WATCHDOG_RETRY_BUDGET;
use crate::node::{Cx, FLUSH};
use crate::object::{Busy, EvictStage, PendingLocal, QueuedReq, RecoverState};
use crate::protocol::{AsvmMsg, CopyView, ReqPath};

impl Cx<'_> {
    /// Begins ownership reconstruction for `page` at this node (the static
    /// manager, or the live successor that inherited the role): query every
    /// live member for its surviving copy, then elect a new owner.
    pub(crate) fn start_recovery(&mut self, page: PageIdx, req: QueuedReq) {
        if let Some(rs) = self.o.recover.get_mut(&page) {
            // Reconstruction already in flight: serialize behind it.
            rs.waiting.push(req);
            self.fx.bump("asvm.recover.dup_req");
            return;
        }
        self.fx.bump("asvm.recover.query");
        let me = self.me;
        let expect: BTreeSet<NodeId> = (self.o.nodes.iter().copied())
            .filter(|n| *n != me && !self.o.suspects.contains(n))
            .collect();
        // Seed with our own view so the election sees the manager's copy
        // without a message round.
        let mine = self.o.pages.get(&page).filter(|pi| pi.idle_or_awaiting());
        let holders = mine.map(|_| me).into_iter().collect();
        let best = mine.map(|pi| (pi.version, me));
        let owner = mine.filter(|pi| pi.owner).map(|_| me);
        let mobj = self.o.mobj;
        for n in &expect {
            self.fx.send(
                *n,
                AsvmMsg::RecoverQuery {
                    mobj,
                    page,
                    from: me,
                },
            );
        }
        let done = expect.is_empty();
        let rs = RecoverState {
            expect,
            best,
            holders,
            owner,
            waiting: vec![req],
        };
        self.o.recover.insert(page, rs);
        if done {
            self.finish_recovery(page);
        }
    }

    /// A recovering static manager asks for our local view of `page`.
    pub(crate) fn on_recover_query(&mut self, page: PageIdx, asker: NodeId) {
        // A page mid-transition is not a usable copy — except
        // AwaitingOwnership, which is exactly the dead-owner limbo
        // reconstruction resolves.
        let view = match self.o.pages.get(&page) {
            Some(pi) if pi.idle_or_awaiting() => CopyView {
                has_copy: true,
                version: pi.version,
                owner: pi.owner,
            },
            _ => CopyView {
                has_copy: false,
                version: 0,
                owner: false,
            },
        };
        let (mobj, from) = (self.o.mobj, self.me);
        let msg = AsvmMsg::RecoverReply {
            mobj,
            page,
            from,
            view,
        };
        self.fx.send(asker, msg);
    }

    /// A member's answer to a [`AsvmMsg::RecoverQuery`] arrived.
    pub(crate) fn recover_reply(&mut self, page: PageIdx, peer: NodeId, view: CopyView) {
        let Some(rs) = self.o.recover.get_mut(&page) else {
            return; // Duplicate reply after reconstruction resolved.
        };
        if !rs.expect.remove(&peer) {
            return;
        }
        if view.owner {
            rs.owner = Some(peer);
        }
        if view.has_copy {
            rs.holders.insert(peer);
            // Deterministic election: max version, ties to lowest id.
            let v = view.version;
            if rs
                .best
                .is_none_or(|(bv, b)| v > bv || (v == bv && peer.0 < b.0))
            {
                rs.best = Some((v, peer));
            }
        }
        if rs.expect.is_empty() {
            self.finish_recovery(page);
        }
    }

    /// All live members have answered: install the surviving owner, elect
    /// one from the copyset, or fall back to a pager re-fetch.
    fn finish_recovery(&mut self, page: PageIdx) {
        let rs = self
            .o
            .recover
            .remove(&page)
            .expect("finish_recovery without state");
        let new_owner = if let Some(owner) = rs.owner {
            // An owner survived after all (the suspicion was about a stale
            // hint, not the owner itself); just repair the hint.
            self.fx.bump("asvm.recover.owner_found");
            owner
        } else if let Some((_, winner)) = rs.best {
            self.fx.bump("asvm.recover.elected");
            let readers: Vec<NodeId> = rs
                .holders
                .iter()
                .copied()
                .filter(|h| *h != winner)
                .collect();
            if winner == self.me {
                self.recover_elect(page, readers);
            } else {
                let mobj = self.o.mobj;
                let msg = AsvmMsg::RecoverElect {
                    mobj,
                    page,
                    readers,
                };
                self.fx.send(winner, msg);
            }
            winner
        } else {
            // No copy survives anywhere: the pager's version is the best
            // remaining one. Serialize the waiters behind a fresh fill
            // (we are the acting manager, so recording the fill here is
            // exactly the normal first-touch discipline).
            self.fx.bump("asvm.recover.refetch");
            let mut waiting = rs.waiting.into_iter();
            if let Some(first) = waiting.next() {
                for q in waiting {
                    self.o.static_waiting.entry(page).or_default().push(q);
                }
                self.pager_dispatch(page, first);
            }
            return;
        };
        self.release_to_owner(page, new_owner, rs.waiting);
    }

    /// This node won the election: promote the local copy to owner, adopt
    /// the surviving copyset as readers, and drain everything parked.
    pub(crate) fn recover_elect(&mut self, page: PageIdx, readers: Vec<NodeId>) {
        let Some(pi) = self.o.pages.get_mut(&page) else {
            // Our copy was evicted between the reply and the election; the
            // stale Owner(me) hint self-heals through the manager's
            // stale-self-hint path and the next watchdog pass.
            self.fx.bump("asvm.recover.elect_lost");
            return;
        };
        if matches!(pi.busy, Some(Busy::AwaitingOwnership)) {
            // The transfer we were waiting for came from the dead owner;
            // the election supersedes it.
            pi.busy = None;
            self.vm.set_busy(self.o.vm_obj, page, false);
        }
        if pi.busy.is_some() {
            // Mid-transition (only reachable if we were already owner):
            // the running operation completes on its own.
            return;
        }
        pi.owner = true;
        let (me, suspects) = (self.me, &self.o.suspects);
        pi.readers.extend(
            readers
                .into_iter()
                .filter(|r| *r != me && !suspects.contains(r)),
        );
        let queued: Vec<QueuedReq> = pi.queued.drain(..).collect();
        self.notify_owner_hint(page);
        if let Some(p) = self.o.pending.get(&page).copied() {
            // Our own stalled request resolves locally now that we own the
            // page (serve handles read grants, upgrades and pushes).
            let req = self.own_req(p.access, true);
            self.serve(page, req);
        }
        self.reroute(page, queued);
        self.drain_parked(page);
    }

    /// Re-issues this object's own requests stalled past `deadline`;
    /// returns how many it re-issued or re-fetched.
    pub(crate) fn watchdog(&mut self, deadline: Dur) -> u64 {
        if self.o.peer.is_some() || self.o.source.is_some() {
            // Distributed copy objects pull through their peer's shadow
            // chain; recovery of those is out of scope (documented).
            return 0;
        }
        let stalled = self.stalled(deadline);
        let acted = stalled.len() as u64;
        for (page, pl) in stalled {
            // The hint that routed the stalled request is the prime
            // suspect; drop it so the re-issue takes the next rung.
            self.o.dyn_cache.remove(&page);
            if let Some(pi) = self.o.pages.get_mut(&page) {
                if matches!(pi.busy, Some(Busy::AwaitingOwnership)) {
                    pi.busy = None;
                    self.vm.set_busy(self.o.vm_obj, page, false);
                }
            }
            if pl.retries >= WATCHDOG_RETRY_BUDGET || self.next_live(0).is_none() {
                self.refetch(page, pl);
            } else {
                self.fx.bump("asvm.recover.reissue");
                let has_copy = self.o.pages.contains_key(&page);
                self.pend(page, pl.access, has_copy, pl.retries + 1, pl.speculative);
                let req = self.own_req(pl.access, has_copy);
                let path = ReqPath {
                    recovering: true,
                    ..ReqPath::default()
                };
                self.route(page, req, path);
            }
        }
        acted
    }

    /// This node's own requests stalled past `deadline`.
    fn stalled(&self, deadline: Dur) -> Vec<(PageIdx, PendingLocal)> {
        let o = &*self.o;
        let stalled = |page: &PageIdx, pl: &PendingLocal| {
            // Not `now.since(issued)`: `issued` carries the node's local
            // clock, which can run ahead of this tick's delivery time
            // through same-instant CPU charges.
            if self.now < pl.issued + deadline {
                return false;
            }
            match o.pages.get(page) {
                // Busy pages resolve through their own transition — except
                // AwaitingOwnership from a possibly-dead transferor, which
                // only recovery can break.
                Some(pi) if pi.owner => false,
                Some(pi) => {
                    pi.busy.is_none()
                        || (matches!(pi.busy, Some(Busy::AwaitingOwnership))
                            && !o.suspects.is_empty())
                }
                None => true,
            }
        };
        (o.pending.iter())
            .filter(|(page, pl)| stalled(page, pl))
            .map(|(p, pl)| (p, *pl))
            .collect()
    }

    /// The watchdog's terminal rung: give up on peers, flush whatever copy
    /// we hold and re-fetch from the pager (always reachable; NORMA
    /// traffic is reliable).
    fn refetch(&mut self, page: PageIdx, pl: PendingLocal) {
        self.fx.bump("asvm.recover.refetch");
        let mut queued = Default::default();
        if let Some(pi) = self.o.pages.get_mut(&page) {
            queued = std::mem::take(&mut pi.queued);
            self.vm.set_busy(self.o.vm_obj, page, false);
            self.lock(page, FLUSH);
            self.o.pages.remove(&page);
            self.spec_settle(page, true);
        }
        let retries = pl.retries.saturating_add(1);
        self.pend(page, pl.access, false, retries, pl.speculative);
        // Straight to the pager — deliberately NOT through pager_dispatch,
        // which would record a static fill at a node that is not the
        // page's manager.
        let access = pl.access;
        self.fx.pager.push(PagerSend {
            pager_node: self.o.pager_for(page),
            reply_to: self.me,
            mobj: self.o.mobj,
            obj: self.o.vm_obj,
            call: EmmiToPager::DataRequest { page, access },
        });
        self.reroute(page, queued);
    }

    /// The failure detector now suspects `peer`: scrub hints naming it,
    /// unwind every in-flight operation waiting on it, and reclaim pager
    /// fills issued on its behalf.
    pub(crate) fn peer_suspected(&mut self, peer: NodeId) {
        if !self.o.nodes.contains(&peer) || !self.o.suspects.insert(peer) {
            return;
        }
        // Static roles just rehashed onto successors that have never
        // seen these pages: "never seen" no longer implies "fresh".
        self.o.fresh_valid = false;
        // Scrub dynamic hints naming the dead node (the static Owner(peer)
        // hints stay: they are the tripwire that routes requests into
        // reconstruction).
        let stale: Vec<PageIdx> = (self.o.dyn_cache.iter())
            .filter(|(_, h)| h.owner == peer)
            .map(|(p, _)| p)
            .collect();
        for p in stale {
            self.o.dyn_cache.remove(&p);
            self.fx.bump("asvm.recover.hint_scrub");
        }
        self.unwind_busy(peer);
        // Drop dead readers from owned pages so future invalidation
        // rounds never wait on them.
        for (_, pi) in self.o.pages.iter_mut() {
            pi.readers.remove(&peer);
        }
        // Pager fills issued on behalf of the dead node complete on the
        // dead node; release the requests serialized behind them.
        let stale_fills: Vec<PageIdx> = (self.o.static_filling.iter())
            .filter(|(_, origin)| **origin == peer)
            .map(|(p, _)| *p)
            .collect();
        for page in stale_fills {
            self.o.static_filling.remove(&page);
            self.fx.bump("asvm.recover.fill_reclaim");
            let path = ReqPath {
                recovering: true,
                ..ReqPath::default()
            };
            for q in self.o.static_waiting.remove(&page).unwrap_or_default() {
                self.route(page, q, path);
            }
        }
        // Reconstructions waiting on a reply from the newly dead node
        // complete without it.
        let stuck: Vec<PageIdx> = (self.o.recover.iter())
            .filter(|(_, rs)| rs.expect.contains(&peer))
            .map(|(p, _)| *p)
            .collect();
        for page in stuck {
            let rs = self.o.recover.get_mut(&page).expect("listed above");
            rs.expect.remove(&peer);
            if rs.expect.is_empty() {
                self.finish_recovery(page);
            }
        }
    }

    /// Unwinds the busy operations blocked on the dead `peer`, reusing the
    /// normal completion paths with a synthesized negative reply — kind by
    /// kind, each in page order.
    fn unwind_busy(&mut self, peer: NodeId) {
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Unwind {
            AbortTransfer,
            DeadAck,
            PushDone,
            ReadCheck,
            AcceptAsk,
        }
        let mut todo: Vec<(Unwind, PageIdx)> = (self.o.pages.iter())
            .filter_map(|(page, pi)| {
                let kind = match pi.busy.as_ref()? {
                    Busy::WriteTransfer { to, .. } if *to == peer => Unwind::AbortTransfer,
                    Busy::WriteTransfer { pending_acks, .. }
                    | Busy::LocalUpgrade { pending_acks }
                        if pending_acks.contains(&peer) =>
                    {
                        Unwind::DeadAck
                    }
                    Busy::Push { pending, .. } if pending.contains(&peer) => Unwind::PushDone,
                    Busy::Evict {
                        stage: EvictStage::CheckingReaders { current, .. },
                        ..
                    } if *current == peer => Unwind::ReadCheck,
                    Busy::Evict {
                        stage: EvictStage::Asking { candidate, .. },
                        ..
                    } if *candidate == peer => Unwind::AcceptAsk,
                    _ => return None,
                };
                Some((kind, page))
            })
            .collect();
        todo.sort_by_key(|(kind, _)| *kind);
        for (kind, page) in todo {
            match kind {
                Unwind::AbortTransfer => {
                    // The grantee died before the transfer completed: keep
                    // ownership here and re-dispatch whatever queued
                    // behind it.
                    self.fx.bump("asvm.recover.abort_transfer");
                    let pi = self.o.page_mut(page);
                    pi.busy = None;
                    let queued: Vec<QueuedReq> = pi.queued.drain(..).collect();
                    self.vm.set_busy(self.o.vm_obj, page, false);
                    self.reroute(page, queued);
                }
                // The dead reader will never acknowledge its invalidation;
                // its copy is unreachable, which is as good as invalidated.
                Unwind::DeadAck => self.invalidate_ack(page, peer),
                Unwind::PushDone => self.push_done(page, peer),
                Unwind::ReadCheck => self.read_check_reply(page, peer, false),
                Unwind::AcceptAsk => self.accept_reply(page, peer, false),
            }
        }
    }
}
