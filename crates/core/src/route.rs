//! The request redirector (§3.4) and the hint maintenance behind it.
//!
//! A request held by a node — raised by a local fault, arriving as a
//! `PageReq`, or released from a queue — is routed through three
//! forwarding tiers layered as fallbacks: the dynamic ownership hint, the
//! page's fixed distributed (static) ownership manager with its
//! `fresh`/`paged` hints, and the global walk over live members.
//! Pager-bound requests always serialize through the static manager so
//! that two concurrent first-touch faults cannot mint two owners.
//!
//! | state here | event | effects |
//! |---|---|---|
//! | page busy | request | park on `PageInfo::queued` |
//! | owner, idle | request | serve (grant path); a forwarded one bumps its `asvm.forward.hops.*` bucket |
//! | global walk in progress | request | next live member; exhausted → static manager, `walk_done` |
//! | static manager | request marked static-routed | skip the dynamic hint: answer from the record |
//! | live handoff hint, two hint hops of either kind in a row, > 5 members, static forwarding on | request | `asvm.forward.handoff_cut`; mark static-routed; keep the hint; fall through |
//! | origin, live handoff hint to `y`, successor record `(y, x)`, `x` live and not here, > 5 members, static forwarding on | own plain request, no hop yet, not a re-issue | `asvm.forward.successor`; forward to `x`, unmarked; keep the hint |
//! | origin, live handoff hint, > 5 members, static forwarding on | own request, no hop yet, no usable successor | `asvm.forward.handoff_cut`; mark static-routed; keep the hint; fall through |
//! | live dynamic hint, hops < bound | request | forward to it, one more hint hop in a row (a write points the hint at its origin) |
//! | hops ≥ bound, hint on offer | request | `asvm.forward.loop_trip`; mark static-routed; fall through |
//! | not the static manager | request | forward to the static manager |
//! | static manager, fill in flight | request | park on `static_waiting` |
//! | static manager, own write pending | foreign request | park on `fill_waiters` |
//! | static manager, suspects | recovering / walk-done / dead-owner plain access | start reconstruction |
//! | static manager, walk done | request | live `Owner` hint → forward; else pager |
//! | static manager, first visit | request | `Owner` → forward; `Paged` or fresh → pager; else global walk |
//! | static manager, not the owner | `OwnerHint` naming itself | drop it (stale: the page came and went) |
//! | static manager | `OwnerHint` | record, end the fill, release `static_waiting` toward the owner |
//! | static manager | `PagedHint` | record `Paged` |
//! | home | `MapNotify` | extend and broadcast membership; re-announce owned pages |
//! | member | `Membership` | adopt it; re-announce owned pages; re-route `static_waiting` |
//! | owner | hands the page away | drop the record; point a handoff hint at the new owner; re-route its queue |
//!
//! A *handoff hint* is one this node's own hand-away wrote
//! ([`crate::DynHint`]); any other writer of the hint clears the flag.
//! Handoff hints chain through the page's ownership history, and a
//! forwarded write collapses the ones it passes into learned hints, so a
//! stale chain alternates the two kinds. A request that has followed
//! [`crate::config::HANDOFF_HOPS`] hints of either kind in a row takes no
//! further handoff hint: the static manager, whose record is exact, takes
//! over. Any hop not taken on a hint ends the run, and a learned hint is
//! never cut. At its origin a request takes no handoff hint at all, the
//! origin's own being the oldest link of the chain: it goes to where its
//! pages handed to the same node last came back from
//! ([`crate::AsvmObject::successor`]), or, with no such record, to the
//! static manager (DESIGN §7 "Handoff chains").

use machvm::{Access, EmmiToPager, PageIdx, PagerSend};
use svmsim::NodeId;

use crate::config::HANDOFF_HOPS;
use crate::node::Cx;
use crate::object::{DynHint, QueuedReq, StaticHint};
use crate::protocol::{AsvmMsg, ReqKind, ReqPath};

impl Cx<'_> {
    /// Routes a request currently held by this node toward the page owner.
    pub(crate) fn route(&mut self, page: PageIdx, req: QueuedReq, mut path: ReqPath) {
        // 1. Can we serve or must the request wait here? (Requests are
        // deliberately NOT parked at nodes with their own grants pending —
        // two pending nodes could park each other's requests in a cycle;
        // in-flight ownership is instead tracked at the static manager,
        // whose hint the granter updates eagerly.)
        if let Some(pi) = self.o.pages.get_mut(&page) {
            if pi.busy.is_some() {
                pi.queued.push_back(req);
                return;
            }
            if pi.owner {
                if path.hops > 0 {
                    self.fx.bump(hop_key(path.hops));
                }
                return self.serve(page, req);
            }
        }
        // 2. Global walk in progress: try the next (live) member.
        if let Some(pos) = path.global_pos {
            if let Some(next) = self.next_live(pos as usize + 1) {
                path.global_pos = Some(next as u16);
                return self.forward(self.o.nodes[next], page, req, path);
            }
            // Walk exhausted: no owner exists; the static manager
            // dispatches to the pager.
            path.walk_done = true;
            path.global_pos = None;
            let sm = self.o.static_node_live(page);
            if sm == self.me {
                return self.static_route(page, req, path);
            }
            return self.forward(sm, page, req, path);
        }
        // 3. Dynamic hint — except at the static manager for a request
        // sent here to use its record.
        let sm = self.o.static_node_live(page);
        if self.o.cfg.dynamic_forwarding
            && !path.walk_done
            && !(path.static_routed && sm == self.me)
        {
            if path.hops < self.o.hop_bound() {
                // A hint pointing at a suspected-dead node is useless; skip
                // it (peek, not get — a dead-end consult must not refresh
                // recency).
                let suspects = &self.o.suspects;
                if self
                    .o
                    .dyn_cache
                    .peek(&page)
                    .is_some_and(|h| !suspects.contains(&h.owner))
                {
                    let hint = *self.o.dyn_cache.get(&page).expect("peeked above");
                    if hint.owner != self.me {
                        // A handoff hop after two hint hops of either
                        // kind in a row, or a first one still at the
                        // origin: the hints are the page's ownership
                        // history, and the static manager holds its end.
                        let at_origin = path.hops == 0 && req.origin == self.me;
                        if hint.handoff
                            && (at_origin || path.hint_hops >= HANDOFF_HOPS)
                            && self.o.cuts_handoff_chains()
                        {
                            // At the origin: pages it handed to the
                            // hint's node last came back from the
                            // successor, so the page has likely moved on
                            // there too.
                            let succ = self.successor(hint.owner, &req, &path);
                            if let Some(x) = succ.filter(|_| at_origin) {
                                self.fx.bump("asvm.forward.successor");
                                return self.forward(x, page, req, path);
                            }
                            self.fx.bump("asvm.forward.handoff_cut");
                            path.static_routed = true;
                        } else {
                            if req.access == Access::Write && req.kind == ReqKind::Access {
                                // Collapse the hint chain: the originator
                                // becomes the next owner (Kai Li's
                                // optimization).
                                self.o.dyn_cache.insert(page, DynHint::learned(req.origin));
                            }
                            return self.send_req(hint.owner, page, req, path.hop(true));
                        }
                    }
                }
            } else if self.o.dyn_cache.peek(&page).is_some() {
                // The hop bound tripped with a hint still on offer: a hint
                // cycle (or churn faster than forwarding) — abandon the
                // chain for the static manager.
                self.fx.bump("asvm.forward.loop_trip");
                path.static_routed = true;
            }
        }
        // 4. The static ownership manager.
        if sm != self.me {
            return self.forward(sm, page, req, path);
        }
        self.static_route(page, req, path);
    }

    /// The node an origin's own request goes to instead of its handoff
    /// hint's node `y`: the successor record's `x` when the record is
    /// about `y`, `x` is live and not this node, and the request is a
    /// first issue of a plain access (not a watchdog re-issue, a push
    /// scan or a pull). A wrong guess costs what a stale hint costs: `x`
    /// routes the request on like any other.
    fn successor(&self, y: NodeId, req: &QueuedReq, path: &ReqPath) -> Option<NodeId> {
        let (hy, x) = self.o.successor?;
        let usable = hy == y && x != self.me && !self.o.suspects.contains(&x);
        (usable && !path.recovering && req.is_plain_access()).then_some(x)
    }

    /// Routing at the static ownership manager.
    fn static_route(&mut self, page: PageIdx, req: QueuedReq, mut path: ReqPath) {
        let me = self.me;
        if self.o.static_filling.contains_key(&page) {
            // A pager fill is in flight; serialize behind it.
            self.o.static_waiting.entry(page).or_default().push(req);
            return;
        }
        // We are the static manager AND our own write grant is in flight:
        // the page is about to be ours. Parking here is cycle-free (one
        // static manager per page).
        let own_write = self.o.pending.get(&page).map(|p| p.access) == Some(Access::Write);
        if req.origin != me && req.deliver.is_none() && own_write {
            self.o.fill_waiters.entry(page).or_default().push(req);
            return;
        }
        let suspects = !self.o.suspects.is_empty();
        let reconstruct = req.is_plain_access();
        // A watchdog re-issue after a suspected failure: every cached
        // shortcut (hints, fresh) may name the dead node, so resolve the
        // page through ownership reconstruction instead.
        if path.recovering && suspects && reconstruct {
            return self.start_recovery(page, req);
        }
        if path.walk_done {
            // The walk found no owner — but an ownership transfer may be
            // in flight. The granter updates our hint eagerly, so consult
            // it (in every configuration: this is the safety record, not
            // the forwarding optimization) before going to the pager.
            match self.o.static_cache.get(&page).copied() {
                Some(StaticHint::Owner(n)) if n != me && !self.o.suspects.contains(&n) => {
                    path.walk_done = false;
                    path.global_pos = None;
                    return self.forward(n, page, req, path);
                }
                // The recorded owner died: reconstruct instead of minting
                // a second owner from the pager.
                Some(StaticHint::Owner(n)) if self.o.suspects.contains(&n) && reconstruct => {
                    return self.start_recovery(page, req);
                }
                _ => {}
            }
            // With suspects around, "the walk found no live owner" does not
            // mean "no owner": the owner may be the dead node, with
            // surviving read copies that a pager re-fetch would silently
            // fork from. Reconstruct first; it falls back to the pager
            // itself when no copy survives.
            if suspects && reconstruct {
                return self.start_recovery(page, req);
            }
            return self.pager_dispatch(page, req);
        }
        if !path.tried_static {
            path.tried_static = true;
            if self.o.cfg.static_forwarding {
                match self.o.static_cache.get(&page).copied() {
                    // Our own hint names a dead owner: reconstruct.
                    Some(StaticHint::Owner(n))
                        if n != me && self.o.suspects.contains(&n) && reconstruct =>
                    {
                        return self.start_recovery(page, req);
                    }
                    Some(StaticHint::Owner(n)) if n != me => {
                        return self.forward(n, page, req, path)
                    }
                    // Stale self-hint (we no longer own it); fall through.
                    Some(StaticHint::Owner(_)) => {
                        self.o.static_cache.remove(&page);
                    }
                    Some(StaticHint::Paged) => return self.pager_dispatch(page, req),
                    None => {}
                }
            }
            // Fresh: the page has never had an owner; the pager (or the
            // pull path, for copy objects) is authoritative. For
            // distributed *copy* objects this shortcut is always sound even
            // after membership changes: their pages are immutable snapshots
            // (writes COW into local shadow objects), so a duplicate pull
            // returns identical data.
            if (self.o.fresh_valid || self.o.source.is_some())
                && !self.o.static_seen.contains(&page)
            {
                return self.pager_dispatch(page, req);
            }
        }
        // Hint missing or already tried: fall back to the global walk
        // (over live members only).
        match self.next_live(0) {
            Some(start) => {
                path.global_pos = Some(start as u16);
                self.forward(self.o.nodes[start], page, req, path);
            }
            // Single-member object with no owner: dispatch to pager.
            None => self.pager_dispatch(page, req),
        }
    }

    /// Index of the first member at or after `from` that is neither this
    /// node nor suspected dead.
    pub(crate) fn next_live(&self, from: usize) -> Option<usize> {
        let o = &*self.o;
        (from..o.nodes.len()).find(|&i| o.nodes[i] != self.me && !o.suspects.contains(&o.nodes[i]))
    }

    /// Sends the request to the real pager on behalf of `req.origin` and
    /// records the fill so concurrent requests serialize.
    pub(crate) fn pager_dispatch(&mut self, page: PageIdx, req: QueuedReq) {
        if req.kind == ReqKind::PushScan {
            return self.push_scan_answer(page, req, true);
        }
        if req.deliver.is_none() {
            // Serialize concurrent first-touch faults behind this fill —
            // for pager fills AND pulls: two racing pulls would otherwise
            // both become owners of the page.
            self.o.static_seen.insert(page);
            self.o.static_filling.insert(page, req.origin);
        }
        if self.o.source.is_some() {
            // A distributed copy object with no owner anywhere: the page
            // must be pulled through the shadow chain on the peer node
            // (§3.7.3), not fetched from a pager.
            return self.pull_dispatch(page, req);
        }
        // PagerSend.obj routes the pager's reply to the origin node's VM
        // object; the glue marks the request as coming from the origin.
        let access = req.access;
        self.fx.pager.push(PagerSend {
            pager_node: self.o.pager_for(page),
            reply_to: req.origin,
            mobj: self.o.mobj,
            obj: req.origin_obj,
            call: EmmiToPager::DataRequest { page, access },
        });
    }

    /// Sends `req` one forwarding hop on, to `dst`.
    pub(crate) fn forward(&mut self, dst: NodeId, page: PageIdx, req: QueuedReq, path: ReqPath) {
        self.send_req(dst, page, req, path.hop(false));
    }

    fn send_req(&mut self, dst: NodeId, page: PageIdx, req: QueuedReq, path: ReqPath) {
        let mobj = self.o.mobj;
        self.fx.send(
            dst,
            AsvmMsg::PageReq {
                mobj,
                page,
                req,
                path,
            },
        );
    }

    /// Re-routes `reqs` — requests that were parked on `page` — from
    /// scratch.
    pub(crate) fn reroute(&mut self, page: PageIdx, reqs: impl IntoIterator<Item = QueuedReq>) {
        for q in reqs {
            self.route(page, q, ReqPath::default());
        }
    }

    /// Re-dispatches requests parked while this node awaited a fill.
    pub(crate) fn drain_parked(&mut self, page: PageIdx) {
        let parked = self.o.fill_waiters.remove(&page).unwrap_or_default();
        self.reroute(page, parked);
    }

    /// Hands `page` away from this node: drops its record, settles any
    /// speculation on it as wasted, points the dynamic hint at the new
    /// owner `to` (none when the page went back to the pager), records
    /// `hint` at the static manager, and re-routes the requests that were
    /// parked on it — they now chase the page.
    pub(crate) fn hand_away(
        &mut self,
        page: PageIdx,
        to: Option<NodeId>,
        hint: Option<StaticHint>,
    ) {
        let queued = self.o.pages.remove(&page).map(|pi| pi.queued);
        self.spec_settle(page, true);
        if let Some(to) = to {
            let hint = DynHint {
                owner: to,
                handoff: true,
            };
            self.o.dyn_cache.insert(page, hint);
        }
        if let Some(hint) = hint {
            self.hint_static(page, hint);
        }
        self.reroute(page, queued.into_iter().flatten());
    }

    // --- Hint maintenance ----------------------------------------------------

    /// Records `hint` for `page` in this node's static-manager cache.
    pub(crate) fn record_static(&mut self, page: PageIdx, hint: StaticHint) {
        self.o.static_seen.insert(page);
        self.o.static_cache.insert(page, hint);
    }

    /// Records `hint` for `page` at the page's static manager: here when
    /// this node holds the role, as an `OwnerHint`/`PagedHint` otherwise.
    fn hint_static(&mut self, page: PageIdx, hint: StaticHint) {
        let sm = self.o.static_node_live(page);
        let mobj = self.o.mobj;
        match hint {
            _ if sm == self.me => self.record_static(page, hint),
            StaticHint::Owner(owner) => self.fx.send(sm, AsvmMsg::OwnerHint { mobj, page, owner }),
            StaticHint::Paged => self.fx.send(sm, AsvmMsg::PagedHint { mobj, page }),
        }
    }

    /// Reports fresh ownership of `page` to its static manager (or applies
    /// it locally when we are the static manager).
    pub(crate) fn notify_owner_hint(&mut self, page: PageIdx) {
        let me = self.me;
        if self.o.static_node_live(page) == me {
            self.owner_hint(page, me);
        } else {
            self.hint_static(page, StaticHint::Owner(me));
        }
    }

    /// Applies an ownership hint at the static manager and releases any
    /// requests serialized behind a pager fill.
    pub(crate) fn owner_hint(&mut self, page: PageIdx, owner: NodeId) {
        // A hint naming us while we do not own the page is stale: the
        // granter's eager hint arrived after we had already received the
        // page and passed it on. Recording it would point the record at
        // nobody, and a walk that found no owner would then mint a second
        // one at the pager. We record ourselves when we do become owner.
        if owner == self.me && !self.o.pages.get(&page).is_some_and(|pi| pi.owner) {
            self.fx.bump("asvm.forward.stale_self_hint");
            return;
        }
        let waiting = self.o.static_waiting.remove(&page).unwrap_or_default();
        self.release_to_owner(page, owner, waiting);
    }

    /// Static manager: records `owner` for `page`, ends any fill, and
    /// releases `waiting` — requests serialized here — toward the owner.
    pub(crate) fn release_to_owner(
        &mut self,
        page: PageIdx,
        owner: NodeId,
        waiting: Vec<QueuedReq>,
    ) {
        self.record_static(page, StaticHint::Owner(owner));
        self.o.static_filling.remove(&page);
        let path = ReqPath {
            tried_static: true,
            hops: 1,
            ..ReqPath::default()
        };
        for q in waiting {
            if owner == self.me {
                self.route(page, q, path);
            } else {
                self.send_req(owner, page, q, path);
            }
        }
    }

    /// Re-announces ownership of every page this node owns to the pages'
    /// static managers. Membership changes move the static-manager
    /// hashing: without this, requests would need a global walk to find
    /// owners and the fresh/pull shortcut could mint a second owner.
    fn reannounce_owned(&mut self) {
        self.o.fresh_valid = false;
        let owned: Vec<PageIdx> = self
            .o
            .pages
            .iter()
            .filter(|(_, pi)| pi.owner)
            .map(|(p, _)| p)
            .collect();
        for page in owned {
            self.notify_owner_hint(page);
        }
    }

    /// `node` mapped the object: the home node extends the member list and
    /// broadcasts it.
    pub(crate) fn on_map_notify(&mut self, node: NodeId) {
        assert_eq!(self.o.home, self.me, "MapNotify must go to the home node");
        if self.o.nodes.contains(&node) {
            return;
        }
        self.o.nodes.push(node);
        self.o.nodes.sort();
        let mobj = self.o.mobj;
        for n in self.o.nodes.iter().filter(|n| **n != self.me) {
            let nodes = self.o.nodes.clone();
            self.fx.send(*n, AsvmMsg::Membership { mobj, nodes });
        }
        // The home applies the same membership-change rules as everyone
        // else, before the new member's first fault (the synchronous fork
        // guarantees the ordering).
        self.reannounce_owned();
    }

    /// The home node broadcast a new member list.
    pub(crate) fn on_membership(&mut self, nodes: Vec<NodeId>) {
        self.o.nodes = nodes;
        self.reannounce_owned();
        // Static-manager hashing may have moved: re-dispatch anything
        // parked on static routing so nothing is stranded.
        for (page, reqs) in std::mem::take(&mut self.o.static_waiting) {
            self.reroute(page, reqs);
        }
    }
}

/// The `asvm.forward.hops.*` bucket counting a request the owner serves
/// after `hops` forwarding hops.
fn hop_key(hops: u16) -> &'static str {
    match hops {
        1 => "asvm.forward.hops.1",
        2 => "asvm.forward.hops.2",
        3..=4 => "asvm.forward.hops.3-4",
        5..=8 => "asvm.forward.hops.5-8",
        _ => "asvm.forward.hops.9+",
    }
}
