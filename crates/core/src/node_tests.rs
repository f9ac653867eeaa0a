//! Unit tests driving the ASVM state machine directly, without the
//! discrete-event simulator: a miniature network shuttles protocol
//! messages between a handful of `(AsvmNode, VmSystem)` pairs and the
//! tests assert on protocol decisions, page state and invariants.

use machvm::{
    Access, Backing, EmmiToKernel, EmmiToPager, Inherit, MemObjId, PageData, PageIdx, PagerSend,
    SupplyMode, TaskId, VmObjId, VmSystem,
};
use svmsim::{CostModel, Dur, NodeId, Time};

use crate::config::{AsvmConfig, WATCHDOG_RETRY_BUDGET};
use crate::node::{AsvmNode, Fx};
use crate::object::{AsvmObject, Busy, DynHint, PageInfo, QueuedReq, StaticHint};
use crate::protocol::{AsvmMsg, ReqKind, ReqPath};

const MOBJ: MemObjId = MemObjId(7);
const PAGES: u32 = 16;

/// A miniature cluster: ASVM instances with their VM systems, a message
/// bag, and a fake pager that answers data requests with stamps.
struct MiniNet {
    nodes: Vec<(AsvmNode, VmSystem)>,
    /// In-flight protocol messages: (from, to, msg).
    wire: Vec<(NodeId, NodeId, AsvmMsg)>,
    /// In-flight pager requests.
    pager_wire: Vec<PagerSend>,
    /// What the fake pager supplies per page.
    pager_data: Box<dyn Fn(PageIdx) -> PageData>,
    now_ns: u64,
}

impl MiniNet {
    fn new(n: u16, cfg: AsvmConfig) -> MiniNet {
        let cost = CostModel::default();
        let mut nodes = Vec::new();
        for i in 0..n {
            let mut vm = VmSystem::new(8192, 1 << 20, cost.clone());
            let mut asvm = AsvmNode::new(NodeId(i), cost.clone());
            let vo = vm.create_object(PAGES, Backing::External(MOBJ));
            let mut fx = Fx::new();
            // Home is node 0; the pager node id is out-of-band (99).
            let o = AsvmObject::new(MOBJ, vo, PAGES, NodeId(0), NodeId(99), NodeId(i), cfg);
            asvm.register_object(o, &mut fx);
            // Drop setup MapNotify traffic; membership is set directly.
            nodes.push((asvm, vm));
        }
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        for (a, _) in &mut nodes {
            a.object_mut(MOBJ).nodes = members.clone();
        }
        MiniNet {
            nodes,
            wire: Vec::new(),
            pager_wire: Vec::new(),
            pager_data: Box::new(|_| PageData::Zero),
            now_ns: 0,
        }
    }

    fn now(&mut self) -> Time {
        self.now_ns += 1000;
        Time::from_nanos(self.now_ns)
    }

    fn vm_obj(&self, n: u16) -> VmObjId {
        self.nodes[n as usize].0.object(MOBJ).vm_obj
    }

    /// Maps the object into a task on node `n` so faults can be raised.
    fn add_task(&mut self, n: u16) -> TaskId {
        let task = TaskId(100 + n as u32);
        let vo = self.vm_obj(n);
        let vm = &mut self.nodes[n as usize].1;
        vm.create_task(task);
        vm.map_object(task, 0, PAGES, vo, 0, Access::Write, Inherit::Share);
        task
    }

    fn absorb(&mut self, from: NodeId, fx: Fx) {
        for (dst, msg) in fx.net {
            self.wire.push((from, dst, msg));
        }
        self.pager_wire.extend(fx.pager);
        // VM effects: route EMMI back into the local ASVM; surface fault
        // completions implicitly through VM state.
        let mut vm_out: std::collections::VecDeque<machvm::VmEffect> = fx.vm.out.into();
        while let Some(eff) = vm_out.pop_front() {
            if let machvm::VmEffect::ToPager { obj, call, .. } = eff {
                let now = self.now();
                let (a, vm) = &mut self.nodes[from.index()];
                let mut fx2 = Fx::new();
                a.handle_emmi(now, vm, obj, call, &mut fx2);
                for (dst, msg) in fx2.net {
                    self.wire.push((from, dst, msg));
                }
                self.pager_wire.extend(fx2.pager);
                vm_out.extend(fx2.vm.out);
            }
        }
    }

    /// Delivers one in-flight pager request or protocol message (pager
    /// first, then the newest message); false once the network is
    /// drained.
    fn deliver_one(&mut self) -> bool {
        if let Some(p) = self.pager_wire.pop() {
            // Fake pager: answer data requests immediately.
            if let EmmiToPager::DataRequest { page, .. } = p.call {
                let data = (self.pager_data)(page);
                let now = self.now();
                let (a, vm) = &mut self.nodes[p.reply_to.index()];
                let mut fx = Fx::new();
                a.on_pager_reply(
                    now,
                    vm,
                    p.obj,
                    EmmiToKernel::DataSupply {
                        page,
                        data,
                        lock: Access::Write,
                        mode: SupplyMode::Normal,
                    },
                    &mut fx,
                );
                self.absorb(p.reply_to, fx);
            }
            return true;
        }
        let Some((from, to, msg)) = self.wire.pop() else {
            return false;
        };
        let fx = self.deliver(from.0, to.0, msg);
        self.absorb(to, fx);
        true
    }

    /// Hands `msg` from node `from` to node `to` and returns the effects
    /// without absorbing them.
    fn deliver(&mut self, from: u16, to: u16, msg: AsvmMsg) -> Fx {
        let now = self.now();
        let (a, vm) = &mut self.nodes[to as usize];
        let mut fx = Fx::new();
        a.handle_msg(now, vm, NodeId(from), msg, &mut fx);
        fx
    }

    /// Delivers every in-flight message until the network drains.
    fn settle(&mut self) {
        self.settle_without(&[]);
    }

    /// [`MiniNet::settle`] with the `dead` nodes dark: everything sent to
    /// them is lost.
    fn settle_without(&mut self, dead: &[NodeId]) {
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 10_000, "mini net livelock");
            self.wire.retain(|(_, to, _)| !dead.contains(to));
            self.pager_wire.retain(|p| !dead.contains(&p.reply_to));
            if !self.deliver_one() {
                return;
            }
        }
    }

    /// Delivers messages one at a time until `done` holds.
    fn deliver_until(&mut self, done: impl Fn(&MiniNet) -> bool) {
        while !done(self) {
            assert!(
                self.deliver_one(),
                "network drained before the condition held"
            );
        }
    }

    /// Raises a fault on node `n`; its requests stay on the wire.
    fn raise(&mut self, n: u16, task: TaskId, page: u32, access: Access) {
        let now = self.now();
        let (_, vm) = &mut self.nodes[n as usize];
        let mut vfx = machvm::Effects::new();
        vm.fault(now, task, page as u64, access, &mut vfx);
        let fx = Fx {
            vm: vfx,
            ..Fx::new()
        };
        self.absorb(NodeId(n), fx);
    }

    /// Raises a fault on node `n` and settles the network.
    fn fault(&mut self, n: u16, task: TaskId, page: u32, access: Access) {
        self.raise(n, task, page, access);
        self.settle();
    }

    /// Node `n`'s failure detector suspects `peer`; returns the effects.
    fn suspect(&mut self, n: u16, peer: u16) -> Fx {
        let now = self.now();
        let (a, vm) = &mut self.nodes[n as usize];
        let mut fx = Fx::new();
        a.peer_suspected(now, vm, NodeId(peer), &mut fx);
        fx
    }

    /// Runs node `n`'s watchdog, re-issuing pending requests older than
    /// `deadline`; returns the effects.
    fn watchdog(&mut self, n: u16, deadline: Dur) -> Fx {
        let now = self.now();
        let (a, vm) = &mut self.nodes[n as usize];
        let mut fx = Fx::new();
        a.watchdog(now, deadline, vm, &mut fx);
        fx
    }

    fn page(&self, n: u16, page: u32) -> Option<&PageInfo> {
        self.nodes[n as usize].0.page_info(MOBJ, PageIdx(page))
    }

    fn owner_of(&self, page: u32) -> Option<NodeId> {
        let mut owner = None;
        for (i, (a, _)) in self.nodes.iter().enumerate() {
            if let Some(pi) = a.page_info(MOBJ, PageIdx(page)) {
                if pi.owner {
                    assert!(owner.is_none(), "two owners for page {page}");
                    owner = Some(NodeId(i as u16));
                }
            }
        }
        owner
    }

    /// The state invariant of §3.1/§3.4: every node holding page state for
    /// a non-busy page has the page resident in its VM cache.
    fn check_state_tied_to_residency(&self) {
        for (i, (a, vm)) in self.nodes.iter().enumerate() {
            let o = a.object(MOBJ);
            for (page, pi) in o.pages.iter() {
                if pi.busy.is_none() {
                    assert!(
                        vm.object(o.vm_obj).resident(page),
                        "node {i} holds state for non-resident {page:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn first_touch_goes_to_pager_and_makes_owner() {
    let mut net = MiniNet::new(3, AsvmConfig::default());
    let t = net.add_task(1);
    net.fault(1, t, 4, Access::Read);
    assert_eq!(net.owner_of(4), Some(NodeId(1)));
    // The static manager learned about the owner.
    let sm = net.nodes[0].0.object(MOBJ).static_node(PageIdx(4));
    let smo = net.nodes[sm.index()].0.object(MOBJ);
    assert!(smo.static_seen.contains(&PageIdx(4)));
    net.check_state_tied_to_residency();
}

#[test]
fn read_grant_builds_reader_list() {
    let mut net = MiniNet::new(4, AsvmConfig::default());
    let t0 = net.add_task(0);
    net.fault(0, t0, 0, Access::Write);
    for n in 1..4 {
        let t = net.add_task(n);
        net.fault(n, t, 0, Access::Read);
    }
    let owner = net.owner_of(0).unwrap();
    assert_eq!(owner, NodeId(0));
    let pi = net.nodes[0].0.page_info(MOBJ, PageIdx(0)).unwrap();
    assert_eq!(pi.readers.len(), 3, "all readers tracked");
    assert_eq!(pi.access, Access::Read, "owner downgraded to share reads");
    net.check_state_tied_to_residency();
}

#[test]
fn write_transfer_moves_ownership_and_invalidates() {
    let mut net = MiniNet::new(4, AsvmConfig::default());
    let t0 = net.add_task(0);
    net.fault(0, t0, 0, Access::Write);
    let t1 = net.add_task(1);
    net.fault(1, t1, 0, Access::Read);
    let t2 = net.add_task(2);
    net.fault(2, t2, 0, Access::Write);

    assert_eq!(net.owner_of(0), Some(NodeId(2)));
    // Old owner and old reader lost their copies.
    assert!(net.nodes[0].0.page_info(MOBJ, PageIdx(0)).is_none());
    assert!(net.nodes[1].0.page_info(MOBJ, PageIdx(0)).is_none());
    assert!(!net.nodes[0].1.object(net.vm_obj(0)).resident(PageIdx(0)));
    // The writer's VM has write access.
    assert!(net.nodes[2].1.can_access(TaskId(102), 0, Access::Write));
    net.check_state_tied_to_residency();
}

#[test]
fn upgrade_in_place_needs_no_page_transfer() {
    let mut net = MiniNet::new(3, AsvmConfig::default());
    let t0 = net.add_task(0);
    net.fault(0, t0, 3, Access::Write);
    let t1 = net.add_task(1);
    net.fault(1, t1, 3, Access::Read);
    // Node 1 upgrades: it already holds the data.
    net.fault(1, t1, 3, Access::Write);
    assert_eq!(net.owner_of(3), Some(NodeId(1)));
    assert!(net.nodes[1].1.can_access(t1, 3, Access::Write));
    net.check_state_tied_to_residency();
}

#[test]
fn dynamic_hints_chase_migrating_ownership() {
    let mut net = MiniNet::new(4, AsvmConfig::default());
    let tasks: Vec<_> = (0..4).map(|n| net.add_task(n)).collect();
    for round in 0..3 {
        for n in 0..4u16 {
            net.fault(n, tasks[n as usize], 1, Access::Write);
            let _ = round;
        }
    }
    assert_eq!(net.owner_of(1), Some(NodeId(3)));
    // Some node's dynamic cache should point at a recent owner.
    let hint = net.nodes[0].0.object(MOBJ).dyn_cache.peek(&PageIdx(1));
    assert!(hint.is_some(), "write traffic must leave ownership hints");
}

#[test]
fn static_manager_records_paged_hint_on_evict_to_pager() {
    let mut net = MiniNet::new(2, AsvmConfig::default());
    let t0 = net.add_task(0);
    net.fault(0, t0, 2, Access::Write);
    net.nodes[0]
        .1
        .write_page(Time::from_nanos(1), t0, 2, PageData::Word(42));

    // Evict the page on the owner; with a lone other node refusing is not
    // modelled here (it accepts), so force step 4 by making node 1 "full":
    // easiest honest path: single-member object.
    let mut solo = MiniNet::new(1, AsvmConfig::default());
    let ts = solo.add_task(0);
    solo.fault(0, ts, 2, Access::Write);
    solo.nodes[0]
        .1
        .write_page(Time::from_nanos(1), ts, 2, PageData::Word(42));
    let now = solo.now();
    let vo = solo.vm_obj(0);
    let mut vfx = machvm::Effects::new();
    solo.nodes[0].1.evict(now, vo, PageIdx(2), &mut vfx);
    // Route the EvictExternal effect into ASVM.
    let mut fx = Fx::new();
    for eff in vfx.out {
        if let machvm::VmEffect::EvictExternal {
            obj,
            page,
            data,
            dirty,
            ..
        } = eff
        {
            let now = solo.now();
            let (a, vm) = &mut solo.nodes[0];
            a.evict_external(now, vm, obj, page, data, dirty, &mut fx);
        }
    }
    // Step 4: the dirty page went to the pager...
    assert!(
        fx.pager
            .iter()
            .any(|p| matches!(p.call, EmmiToPager::DataReturn { .. })),
        "dirty page must be returned to the pager"
    );
    // ...state is gone, and the static manager (itself) knows it is paged.
    let o = solo.nodes[0].0.object(MOBJ);
    assert!(!o.pages.contains_key(&PageIdx(2)));
    assert_eq!(o.static_cache.peek(&PageIdx(2)), Some(&StaticHint::Paged));
}

#[test]
fn eviction_hands_ownership_to_a_reader_without_contents() {
    let mut net = MiniNet::new(3, AsvmConfig::default());
    let t0 = net.add_task(0);
    net.fault(0, t0, 5, Access::Write);
    let t1 = net.add_task(1);
    net.fault(1, t1, 5, Access::Read);

    // Evict on the owner (node 0): step 2 must transfer ownership to the
    // reader (node 1) without a page-carrying message.
    let now = net.now();
    let vo = net.vm_obj(0);
    let mut vfx = machvm::Effects::new();
    net.nodes[0].1.evict(now, vo, PageIdx(5), &mut vfx);
    let mut fx = Fx::new();
    for eff in vfx.out {
        if let machvm::VmEffect::EvictExternal {
            obj,
            page,
            data,
            dirty,
            ..
        } = eff
        {
            let now = net.now();
            let (a, vm) = &mut net.nodes[0];
            a.evict_external(now, vm, obj, page, data, dirty, &mut fx);
        }
    }
    // Check that no page payload travels during the hand-off.
    let ps = 8192;
    for (_, msg) in &fx.net {
        assert_eq!(
            msg.payload_bytes(ps),
            0,
            "ownership hand-off must not carry page contents"
        );
    }
    net.absorb(NodeId(0), fx);
    net.settle();
    assert_eq!(net.owner_of(5), Some(NodeId(1)));
    net.check_state_tied_to_residency();
}

/// Routes a VM eviction of `page` on node `n` into that node's ASVM
/// (what the cluster layer does under frame pressure) and returns the
/// effects for inspection.
fn evict_on(net: &mut MiniNet, n: u16, page: u32) -> Fx {
    let now = net.now();
    let vo = net.vm_obj(n);
    let mut vfx = machvm::Effects::new();
    net.nodes[n as usize]
        .1
        .evict(now, vo, PageIdx(page), &mut vfx);
    let mut fx = Fx::new();
    for eff in vfx.out {
        if let machvm::VmEffect::EvictExternal {
            obj,
            page,
            data,
            dirty,
            ..
        } = eff
        {
            let now = net.now();
            let (a, vm) = &mut net.nodes[n as usize];
            a.evict_external(now, vm, obj, page, data, dirty, &mut fx);
        }
    }
    fx
}

/// §3.6 step 1 discards a read copy *silently*, so the owner's reader
/// list goes stale. A later write request from the discarder must still
/// receive the page contents — eliding them against the stale reader
/// list alone would destroy the page (the old owner flushes its copy
/// after the transfer).
#[test]
fn write_transfer_ships_data_when_readers_copy_was_discarded() {
    let mut net = MiniNet::new(3, AsvmConfig::default());
    let t0 = net.add_task(0);
    net.fault(0, t0, 0, Access::Write);
    net.nodes[0]
        .1
        .write_page(Time::from_nanos(1), t0, 0, PageData::Word(42));
    let t1 = net.add_task(1);
    net.fault(1, t1, 0, Access::Read);

    // Frame pressure discards node 1's read copy; the owner is not told.
    let fx = evict_on(&mut net, 1, 0);
    net.absorb(NodeId(1), fx);
    net.settle();
    let pi = net.nodes[0].0.page_info(MOBJ, PageIdx(0)).unwrap();
    assert!(pi.readers.contains(&NodeId(1)), "reader list is now stale");

    // Node 1 write-faults: its request no longer claims a copy, so the
    // transfer must carry the page.
    net.fault(1, t1, 0, Access::Write);
    assert_eq!(net.owner_of(0), Some(NodeId(1)));
    let vo = net.vm_obj(1);
    assert_eq!(
        net.nodes[1]
            .1
            .peek_page(vo, PageIdx(0))
            .map(|(d, _)| d.clone()),
        Some(PageData::Word(42)),
        "contents must survive the transfer"
    );
    // The new owner can serve a further transfer (the old panic site).
    let t2 = net.add_task(2);
    net.fault(2, t2, 0, Access::Write);
    assert_eq!(net.owner_of(0), Some(NodeId(2)));
    net.check_state_tied_to_residency();
}

/// The narrower in-flight window: the upgrade request already claimed
/// the read copy when frame pressure discards it. The owner honours the
/// claim and elides the contents, so the discarder must have kept them
/// (the stash) and restore them when the elided grant lands.
#[test]
fn stashed_copy_survives_eviction_during_pending_upgrade() {
    let mut net = MiniNet::new(3, AsvmConfig::default());
    let t0 = net.add_task(0);
    net.fault(0, t0, 0, Access::Write);
    net.nodes[0]
        .1
        .write_page(Time::from_nanos(1), t0, 0, PageData::Word(7));
    let t1 = net.add_task(1);
    net.fault(1, t1, 0, Access::Read);

    // Raise the write upgrade on node 1 but keep its request parked on
    // the wire (no settle): the claim `has_copy` is now in flight.
    net.raise(1, t1, 0, Access::Write);
    assert!(
        net.nodes[1]
            .0
            .object(MOBJ)
            .pending
            .get(&PageIdx(0))
            .unwrap()
            .has_copy,
        "the in-flight request claims the read copy"
    );

    // Frame pressure discards the claimed copy: the contents must be
    // stashed until the grant arrives.
    let fx = evict_on(&mut net, 1, 0);
    assert!(fx.bumps.contains(&"asvm.evict.stash"));
    assert!(net.nodes[1].0.object(MOBJ).stash.contains_key(&PageIdx(0)));
    net.absorb(NodeId(1), fx);
    net.settle();

    // The owner elided the data against the honoured claim; the stash
    // filled the VM page back in.
    assert_eq!(net.owner_of(0), Some(NodeId(1)));
    let vo = net.vm_obj(1);
    assert_eq!(
        net.nodes[1]
            .1
            .peek_page(vo, PageIdx(0))
            .map(|(d, _)| d.clone()),
        Some(PageData::Word(7)),
        "stashed contents must be restored"
    );
    assert!(net.nodes[1].0.object(MOBJ).stash.is_empty());
    // And the restored owner serves further transfers.
    let t2 = net.add_task(2);
    net.fault(2, t2, 0, Access::Write);
    assert_eq!(net.owner_of(0), Some(NodeId(2)));
    net.check_state_tied_to_residency();
}

#[test]
fn global_walk_finds_owner_without_any_caches() {
    let mut net = MiniNet::new(4, AsvmConfig::global_only());
    let t2 = net.add_task(2);
    net.fault(2, t2, 9, Access::Write);
    // A different node finds the owner purely by walking.
    let t0 = net.add_task(0);
    net.fault(0, t0, 9, Access::Read);
    assert_eq!(net.owner_of(9), Some(NodeId(2)));
    let pi = net.nodes[2].0.page_info(MOBJ, PageIdx(9)).unwrap();
    assert!(pi.readers.contains(&NodeId(0)));
}

#[test]
fn copy_made_bumps_version_and_write_protects() {
    let mut net = MiniNet::new(2, AsvmConfig::default());
    let t0 = net.add_task(0);
    net.fault(0, t0, 0, Access::Write);
    assert_eq!(net.nodes[0].0.object(MOBJ).version, 0);

    // Node 1 declares a copy (as a fork would).
    let now = net.now();
    let (a, vm) = &mut net.nodes[1];
    let mut fx = Fx::new();
    a.copy_made_local(now, vm, MOBJ, &mut fx);
    net.absorb(NodeId(1), fx);
    net.settle();

    for (i, (a, _)) in net.nodes.iter().enumerate() {
        assert_eq!(a.object(MOBJ).version, 1, "node {i} version");
    }
    // The owner's page state was downgraded to read-only.
    let pi = net.nodes[0].0.page_info(MOBJ, PageIdx(0)).unwrap();
    assert_eq!(pi.access, Access::Read);
    // And a new write now requires a push round (version mismatch).
    assert_eq!(pi.version, 0);
    assert_ne!(pi.version, net.nodes[0].0.object(MOBJ).version);
}

#[test]
fn pager_contents_flow_through_grants() {
    let mut net = MiniNet::new(2, AsvmConfig::default());
    net.pager_data = Box::new(|p| PageData::Word(0xF00D_0000 + p.0 as u64));
    let t0 = net.add_task(0);
    net.fault(0, t0, 6, Access::Read);
    let now = net.now();
    assert_eq!(
        net.nodes[0].1.read_page(now, t0, 6),
        PageData::Word(0xF00D_0006)
    );
    // Second node gets it from the owner, not the pager.
    let before = net.pager_wire.len();
    let t1 = net.add_task(1);
    net.fault(1, t1, 6, Access::Read);
    assert_eq!(net.pager_wire.len(), before, "no further pager traffic");
    let now = net.now();
    assert_eq!(
        net.nodes[1].1.read_page(now, t1, 6),
        PageData::Word(0xF00D_0006)
    );
}

#[test]
fn state_bytes_stay_bounded_by_residency() {
    let mut net = MiniNet::new(2, AsvmConfig::default());
    let t0 = net.add_task(0);
    for p in 0..PAGES {
        net.fault(0, t0, p, Access::Write);
    }
    let o = net.nodes[0].0.object(MOBJ);
    assert_eq!(o.pages.len(), PAGES as usize);
    // The other node holds no per-page state at all.
    assert_eq!(net.nodes[1].0.object(MOBJ).pages.len(), 0);
}

/// The forwarding hop bound is `2 × members + 4`
/// ([`AsvmObject::hop_bound`]). A request arriving with that many hops
/// while a live dynamic hint is on offer abandons the hint chain — the
/// trip is counted — and goes to the page's static manager instead; one
/// hop fewer still follows the hint.
#[test]
fn hop_bound_trip_abandons_the_hint_for_the_static_manager() {
    let mut net = MiniNet::new(4, AsvmConfig::default());
    let (page, at, hint) = (PageIdx(1), NodeId(2), NodeId(3));
    let sm = net.nodes[0].0.object(MOBJ).static_node(page);
    assert!(sm != at && sm != hint);
    let bound = net.nodes[at.index()].0.object(MOBJ).hop_bound();
    assert_eq!(bound, 2 * 4 + 4);
    let req = read_req(&net);
    for (hops, trips, dst) in [(bound - 1, 0, hint), (bound, 1, sm)] {
        net.nodes[at.index()]
            .0
            .object_mut(MOBJ)
            .dyn_cache
            .insert(page, DynHint::learned(hint));
        let path = ReqPath {
            hops,
            ..ReqPath::default()
        };
        let msg = AsvmMsg::PageReq {
            mobj: MOBJ,
            page,
            req,
            path,
        };
        let now = net.now();
        let (a, vm) = &mut net.nodes[at.index()];
        let mut fx = Fx::new();
        a.handle_msg(now, vm, NodeId(0), msg, &mut fx);
        let tripped = fx.bumps.iter().filter(|k| **k == "asvm.forward.loop_trip");
        assert_eq!(tripped.count(), trips, "hops {hops}");
        match fx.net.as_slice() {
            [(d, AsvmMsg::PageReq { path, .. })] => {
                assert_eq!((*d, path.hops), (dst, hops + 1), "hops {hops}");
                // A tripped request goes to use the static manager's record.
                assert_eq!(path.static_routed, trips == 1, "hops {hops}");
            }
            other => panic!("hops {hops}: expected one forwarded request, got {other:?}"),
        }
    }
}

/// A plain read request from node 0 for `page`, as it travels.
fn read_req(net: &MiniNet) -> QueuedReq {
    QueuedReq {
        access: Access::Read,
        origin: NodeId(0),
        origin_obj: net.vm_obj(0),
        has_copy: false,
        kind: ReqKind::Access,
        deliver: None,
    }
}

/// Points node `at`'s dynamic hint for `page` at `owner`.
fn set_hint(net: &mut MiniNet, at: NodeId, page: PageIdx, owner: NodeId, handoff: bool) {
    let o = net.nodes[at.index()].0.object_mut(MOBJ);
    o.dyn_cache.insert(page, DynHint { owner, handoff });
}

/// Delivers `req` for `page` along `path` to node `at`, which must
/// forward it exactly once: where to, the path it travels on, and the
/// counters `at` bumped.
fn route_at(
    net: &mut MiniNet,
    at: NodeId,
    page: PageIdx,
    req: QueuedReq,
    path: ReqPath,
) -> (NodeId, ReqPath, Vec<&'static str>) {
    let msg = AsvmMsg::PageReq {
        mobj: MOBJ,
        page,
        req,
        path,
    };
    let fx = net.deliver(0, at.0, msg);
    match fx.net.as_slice() {
        [(d, AsvmMsg::PageReq { path, .. })] => (*d, *path, fx.bumps.clone()),
        other => panic!("{at}: expected one forwarded request, got {other:?}"),
    }
}

/// A `members`-node object with a handoff chain for page 1: nodes `a → b
/// → c → d`, each pointing at the next (as if each had given the page to
/// its successor), none of them the static manager. Runs
/// a write request from node 0 down the chain, starting at `a`, for three
/// hops; returns the third hop's destination and path, `c`'s bumps, the
/// chain and the static manager.
#[allow(clippy::type_complexity)]
fn walk_handoff_chain(
    members: u16,
    cfg: AsvmConfig,
) -> (
    NodeId,
    ReqPath,
    Vec<&'static str>,
    [NodeId; 4],
    NodeId,
    MiniNet,
) {
    let mut net = MiniNet::new(members, cfg);
    let page = PageIdx(1);
    let sm = net.nodes[0].0.object(MOBJ).static_node(page);
    let others: Vec<NodeId> = (0..members).map(NodeId).filter(|n| *n != sm).collect();
    let chain: [NodeId; 4] = others[others.len() - 4..].try_into().unwrap();
    for w in chain.windows(2) {
        set_hint(&mut net, w[0], page, w[1], true);
    }
    let req = QueuedReq {
        access: Access::Write,
        ..read_req(&net)
    };
    let (mut at, mut path, mut bumps) = (chain[0], ReqPath::default(), vec![]);
    for hop in 1..=3u8 {
        (at, path, bumps) = route_at(&mut net, at, page, req, path);
        if hop < 3 {
            assert_eq!((at, path.handoff_hops), (chain[hop as usize], hop));
        }
    }
    (at, path, bumps, chain, sm, net)
}

/// Two handoff hops in a row are followed; the third is cut to the
/// page's static manager, marked to use its record. The hops taken
/// collapse their hints onto the writer (Kai Li); the cut one keeps its
/// handoff hint.
#[test]
fn third_handoff_hop_is_cut_to_the_static_manager() {
    let (dst, path, bumps, chain, sm, net) = walk_handoff_chain(6, AsvmConfig::default());
    assert!(bumps.contains(&"asvm.forward.handoff_cut"));
    assert_eq!(dst, sm);
    assert!(path.static_routed);
    assert_eq!((path.hops, path.handoff_hops), (3, 0));
    let hint = |n: NodeId| {
        *net.nodes[n.index()]
            .0
            .object(MOBJ)
            .dyn_cache
            .peek(&PageIdx(1))
            .unwrap()
    };
    assert_eq!(hint(chain[0]), DynHint::learned(NodeId(0)));
    assert_eq!(hint(chain[1]), DynHint::learned(NodeId(0)));
    assert_eq!(
        hint(chain[2]),
        DynHint {
            owner: chain[3],
            handoff: true
        }
    );
}

/// Objects without static forwarding, or with at most five members (where
/// the static detour cannot beat the rest of any chain), never cut.
#[test]
fn dynamic_only_and_small_objects_never_cut() {
    for (members, cfg) in [(6, AsvmConfig::dynamic_only()), (5, AsvmConfig::default())] {
        let (dst, path, bumps, chain, ..) = walk_handoff_chain(members, cfg);
        assert!(
            !bumps.contains(&"asvm.forward.handoff_cut"),
            "{members} members"
        );
        assert_eq!((dst, path.handoff_hops), (chain[3], 3), "{members} members");
        assert!(!path.static_routed, "{members} members");
    }
}

/// The static manager answers a request routed to it for its record from
/// that record, not from its own (stale) dynamic hint; an unmarked
/// request still takes the hint.
#[test]
fn static_manager_answers_a_static_routed_request_from_its_record() {
    let mut net = MiniNet::new(6, AsvmConfig::default());
    let page = PageIdx(1);
    let sm = net.nodes[0].0.object(MOBJ).static_node(page);
    let others: Vec<NodeId> = (1..6).map(NodeId).filter(|n| *n != sm).collect();
    let (stale, owner) = (others[0], others[1]);
    set_hint(&mut net, sm, page, stale, true);
    let o = net.nodes[sm.index()].0.object_mut(MOBJ);
    o.static_cache.insert(page, StaticHint::Owner(owner));
    for (static_routed, dst) in [(true, owner), (false, stale)] {
        let path = ReqPath {
            hops: 3,
            static_routed,
            ..ReqPath::default()
        };
        let req = read_req(&net);
        let (d, ..) = route_at(&mut net, sm, page, req, path);
        assert_eq!(d, dst, "static_routed {static_routed}");
    }
}

/// An `OwnerHint` naming the static manager itself, arriving when it does
/// not own the page, is stale — the page came and went while the hint was
/// in flight — and is dropped: recording it would point the record at
/// nobody, and a walk that found no owner would then mint a second one at
/// the pager. Once the manager does own the page the hint is recorded.
#[test]
fn static_manager_drops_a_stale_owner_hint_naming_itself() {
    let mut net = MiniNet::new(4, AsvmConfig::default());
    let page = PageIdx(1);
    let sm = net.nodes[0].0.object(MOBJ).static_node(page);
    let owner = NodeId((sm.0 + 1) % 4);
    let record = |net: &MiniNet| {
        net.nodes[sm.index()]
            .0
            .object(MOBJ)
            .static_cache
            .peek(&page)
            .copied()
    };
    let t = net.add_task(owner.0);
    net.fault(owner.0, t, page.0, Access::Write);
    assert_eq!(record(&net), Some(StaticHint::Owner(owner)));
    let hint = AsvmMsg::OwnerHint {
        mobj: MOBJ,
        page,
        owner: sm,
    };
    let fx = net.deliver(owner.0, sm.0, hint.clone());
    assert!(fx.bumps.contains(&"asvm.forward.stale_self_hint"));
    assert_eq!(record(&net), Some(StaticHint::Owner(owner)));

    let t = net.add_task(sm.0);
    net.fault(sm.0, t, page.0, Access::Write);
    assert_eq!(net.owner_of(page.0), Some(sm));
    let fx = net.deliver(owner.0, sm.0, hint);
    assert!(!fx.bumps.contains(&"asvm.forward.stale_self_hint"));
    assert_eq!(record(&net), Some(StaticHint::Owner(sm)));
}

/// Suspicion unwinding, abort branch: the grantee of a write transfer is
/// suspected while the owner still waits for invalidation acks. The owner
/// keeps the page, unpins it, and serves the request queued behind the
/// transfer.
#[test]
fn owner_aborts_a_write_transfer_to_a_suspected_grantee() {
    let mut net = MiniNet::new(4, AsvmConfig::default());
    let t: Vec<TaskId> = (0..4).map(|n| net.add_task(n)).collect();
    net.fault(0, t[0], 0, Access::Write);
    net.fault(1, t[1], 0, Access::Read);
    // Node 2's write request reaches the owner, which starts invalidating
    // node 1 …
    net.raise(2, t[2], 0, Access::Write);
    net.deliver_until(|net| {
        matches!(
            net.page(0, 0).unwrap().busy,
            Some(Busy::WriteTransfer { .. })
        )
    });
    // … and node 3's read request queues behind the transfer.
    net.raise(3, t[3], 0, Access::Read);
    net.deliver_until(|net| !net.page(0, 0).unwrap().queued.is_empty());

    let fx = net.suspect(0, 2);
    assert!(fx.bumps.contains(&"asvm.recover.abort_transfer"));
    let pi = net.page(0, 0).unwrap();
    assert!(
        pi.owner && pi.busy.is_none(),
        "the owner keeps the page, unpinned"
    );
    assert!(
        (fx.net.iter()).any(|(d, m)| *d == NodeId(3) && matches!(m, AsvmMsg::Grant { .. })),
        "the queued read is served"
    );
    net.absorb(NodeId(0), fx);
    net.settle_without(&[NodeId(2)]);
    assert!(net.page(0, 0).unwrap().owner);
    assert!(net.nodes[3].1.can_access(t[3], 0, Access::Read));
    net.check_state_tied_to_residency();
}

/// A global walk that found no owner comes back to the static manager
/// (`walk_done`). A live recorded owner gets the request; with suspects
/// around — the recorded owner dead, or nothing recorded — the manager
/// reconstructs ownership instead of minting a second owner at the pager.
#[test]
fn walk_done_at_the_static_manager_reconstructs_around_a_dead_owner() {
    let mut net = MiniNet::new(4, AsvmConfig::default());
    // Pages 1, 5 and 9 are all managed by node 1.
    let (sm, dead) = (1, NodeId(3));
    let walk_done = |net: &mut MiniNet, page: u32| {
        let req = read_req(net);
        let path = ReqPath {
            tried_static: true,
            walk_done: true,
            ..ReqPath::default()
        };
        let page = PageIdx(page);
        let msg = AsvmMsg::PageReq {
            mobj: MOBJ,
            page,
            req,
            path,
        };
        net.deliver(0, sm, msg)
    };
    let o = net.nodes[sm as usize].0.object_mut(MOBJ);
    for p in [1, 5] {
        o.static_cache.insert(PageIdx(p), StaticHint::Owner(dead));
    }
    let fx = walk_done(&mut net, 1);
    assert!(
        matches!(fx.net.as_slice(), [(d, AsvmMsg::PageReq { .. })] if *d == dead),
        "a live recorded owner gets the request"
    );
    net.nodes[sm as usize]
        .0
        .object_mut(MOBJ)
        .suspects
        .insert(dead);
    for page in [5, 9] {
        let fx = walk_done(&mut net, page);
        assert!(fx.bumps.contains(&"asvm.recover.query"), "page {page}");
        let asked: Vec<NodeId> = (fx.net.iter())
            .filter(|(_, m)| matches!(m, AsvmMsg::RecoverQuery { .. }))
            .map(|(d, _)| *d)
            .collect();
        assert_eq!(asked, [NodeId(0), NodeId(2)], "page {page}: live members");
        let o = net.nodes[sm as usize].0.object(MOBJ);
        assert!(o.recover.contains_key(&PageIdx(page)), "page {page}");
    }
}

/// The watchdog's two rungs on a node whose write upgrade was lost with
/// the page's owner. A re-issue reconstructs ownership at the dead
/// manager's live successor — this node — which elects its own surviving
/// copy and then serves its own stalled upgrade. With the retry budget
/// spent, the terminal rung instead flushes the held copy and re-fetches
/// the page from the pager.
#[test]
fn watchdog_recovers_an_upgrade_lost_with_the_owner() {
    for budget_spent in [false, true] {
        let mut net = MiniNet::new(3, AsvmConfig::default());
        let (t0, t1) = (net.add_task(0), net.add_task(1));
        net.fault(0, t0, 0, Access::Write);
        net.fault(1, t1, 0, Access::Read);
        // Node 1's upgrade leaves for the owner, node 0, which dies.
        net.raise(1, t1, 0, Access::Write);
        net.wire.clear();
        net.suspect(1, 0);
        if budget_spent {
            let o = net.nodes[1].0.object_mut(MOBJ);
            o.pending.get_mut(&PageIdx(0)).unwrap().retries = WATCHDOG_RETRY_BUDGET;
        }
        let fx = net.watchdog(1, Dur::ZERO);
        if budget_spent {
            assert!(fx.bumps.contains(&"asvm.recover.refetch"));
            assert!(net.page(1, 0).is_none(), "the held copy is flushed");
            assert!(fx.pager.iter().any(|p| matches!(
                p.call,
                EmmiToPager::DataRequest {
                    access: Access::Write,
                    ..
                }
            )));
        } else {
            assert!(fx.bumps.contains(&"asvm.recover.reissue"));
        }
        net.absorb(NodeId(1), fx);
        net.settle_without(&[NodeId(0)]);
        assert!(
            net.page(1, 0).unwrap().owner,
            "budget spent: {budget_spent}"
        );
        assert!(net.nodes[1].1.can_access(t1, 0, Access::Write));
        assert!(net.nodes[1].0.object(MOBJ).pending.is_empty());
    }
}

/// The watchdog is charged per action, not per tick: a tick that finds a
/// pending request younger than the deadline costs no CPU and does
/// nothing; one that finds it stalled costs exactly one handling charge
/// for its one re-issue.
#[test]
fn watchdog_charges_only_for_stalled_requests() {
    let mut net = MiniNet::new(3, AsvmConfig::default());
    let t1 = net.add_task(1);
    net.raise(1, t1, 0, Access::Read);
    assert!(net.nodes[1]
        .0
        .object(MOBJ)
        .pending
        .contains_key(&PageIdx(0)));
    let idle = net.watchdog(1, Dur::from_millis(1000));
    assert_eq!(idle.cpu, Dur::ZERO);
    assert!(idle.bumps.is_empty() && idle.net.is_empty() && idle.pager.is_empty());
    let late = net.watchdog(1, Dur::ZERO);
    assert_eq!(late.cpu, CostModel::default().asvm_handle);
    let reissues = late.bumps.iter().filter(|k| **k == "asvm.recover.reissue");
    assert_eq!(reissues.count(), 1);
    assert_eq!(
        late.bumps.len(),
        1,
        "nothing but the re-issue: {:?}",
        late.bumps
    );
}

/// Node 0 write-faults `page`, stores `value` in it, and evicts it with
/// no reader left: §3.6 step 3 lends it to node 1, the first candidate.
fn lend_from_node0(net: &mut MiniNet, page: u32, value: u64) -> TaskId {
    let t0 = net.add_task(0);
    net.fault(0, t0, page, Access::Write);
    net.nodes[0]
        .1
        .write_page(Time::from_nanos(1), t0, page as u64, PageData::Word(value));
    let fx = evict_on(net, 0, page);
    net.absorb(NodeId(0), fx);
    // `AcceptAsk` to node 1, then its yes, which decides step 3.
    for step in 0..2 {
        let (from, to, msg) = net.wire.pop().expect("the step-3 round trip");
        let fx = net.deliver(from.0, to.0, msg);
        assert_eq!(fx.bumps.contains(&"asvm.evict.step3"), step == 1);
        net.absorb(to, fx);
    }
    net.settle();
    let lent = net.page(1, page).expect("node 1 accepted the page");
    assert!(lent.owner && lent.lent && lent.dirty);
    t0
}

/// Lent memory is a victim cache: the first read of a lent page takes it
/// back whole — one grant carrying the contents, ownership, the dirty bit
/// and the version — and the lender keeps neither state nor a VM page for
/// it. The lender hints the page's static manager at once.
#[test]
fn a_lent_page_goes_back_owned_on_the_first_read() {
    let mut net = MiniNet::new(3, AsvmConfig::default());
    let page = 2;
    let sm = net.nodes[0].0.object(MOBJ).static_node(PageIdx(page));
    assert_eq!(sm, NodeId(2), "neither the evictor nor the lender");
    let t0 = lend_from_node0(&mut net, page, 42);
    let o1 = net.nodes[1].0.object_mut(MOBJ);
    o1.pages.get_mut(&PageIdx(page)).unwrap().version = 3;

    net.raise(0, t0, page, Access::Read);
    net.deliver_until(|net| net.page(1, page).is_none());
    let lender_vm = net.nodes[1].1.object(net.vm_obj(1));
    assert!(
        !lender_vm.resident(PageIdx(page)),
        "the lender flushed its copy"
    );
    let grant = net.wire.iter().find_map(|(from, to, m)| match m {
        AsvmMsg::Grant { grant, .. } if (*from, *to) == (NodeId(1), NodeId(0)) => Some(grant),
        _ => None,
    });
    let grant = grant.expect("a grant to the reader");
    assert!(grant.ownership && grant.dirty && grant.access == Access::Read);
    assert_eq!((grant.version, &grant.data), (3, &Some(PageData::Word(42))));
    assert!(
        (net.wire.iter()).any(|(from, to, m)| (*from, *to) == (NodeId(1), sm)
            && matches!(m, AsvmMsg::OwnerHint { owner, .. } if *owner == NodeId(0))),
        "the static manager is hinted by the lender"
    );

    net.settle();
    assert_eq!(net.owner_of(page), Some(NodeId(0)));
    let pi = net.page(0, page).unwrap();
    assert!(pi.dirty && !pi.lent && pi.readers.is_empty());
    assert_eq!((pi.access, pi.version), (Access::Read, 3));
    let now = net.now();
    assert_eq!(
        net.nodes[0].1.read_page(now, t0, page as u64),
        PageData::Word(42)
    );
    let o = net.nodes[sm.index()].0.object(MOBJ);
    assert_eq!(
        o.static_cache.peek(&PageIdx(page)),
        Some(&StaticHint::Owner(NodeId(0)))
    );
    net.check_state_tied_to_residency();
}

/// Once the lender uses a lent page itself (its own request is served
/// there), the page is its own: a remote read is plain transition 5.
#[test]
fn a_lent_page_the_lender_used_is_shared_as_usual() {
    let mut net = MiniNet::new(3, AsvmConfig::default());
    let page = 2;
    let t0 = lend_from_node0(&mut net, page, 42);
    let t1 = net.add_task(1);
    net.fault(1, t1, page, Access::Write);
    assert!(!net.page(1, page).unwrap().lent);

    net.raise(0, t0, page, Access::Read);
    let fx = loop {
        let (from, to, msg) = net.wire.pop().expect("the read reaches the owner");
        let fx = net.deliver(from.0, to.0, msg);
        if to == NodeId(1) {
            break fx;
        }
        net.absorb(to, fx);
    };
    assert!(!fx.bumps.contains(&"asvm.evict.lent_return"));
    assert!(matches!(
        fx.net.as_slice(),
        [(d, AsvmMsg::Grant { grant, .. })] if *d == NodeId(0) && !grant.ownership
    ));
    net.absorb(NodeId(1), fx);
    net.settle();
    assert_eq!(net.owner_of(page), Some(NodeId(1)));
    assert!(net.page(1, page).unwrap().readers.contains(&NodeId(0)));
    net.check_state_tied_to_residency();
}

/// Only pages that arrived as lent memory go back on a read: a page owned
/// by a pager fill, or one a writer took from the lender (transition 4),
/// keeps its owner when another node reads it.
#[test]
fn pages_owned_by_pager_fill_or_write_are_never_returned() {
    let mut net = MiniNet::new(3, AsvmConfig::default());
    let lent = 2;
    lend_from_node0(&mut net, lent, 42);
    let t2 = net.add_task(2);
    net.fault(2, t2, lent, Access::Write);
    let t1 = net.add_task(1);
    net.fault(1, t1, 4, Access::Read);
    assert_eq!(
        (net.owner_of(lent), net.owner_of(4)),
        (Some(NodeId(2)), Some(NodeId(1)))
    );
    let t0 = TaskId(100);
    for (page, owner) in [(lent, NodeId(2)), (4, NodeId(1))] {
        assert!(!net.page(owner.0, page).unwrap().lent, "page {page}");
        net.fault(0, t0, page, Access::Read);
        assert_eq!(net.owner_of(page), Some(owner), "page {page}");
        let pi = net.page(owner.0, page).unwrap();
        assert!(pi.readers.contains(&NodeId(0)), "page {page}");
    }
    net.check_state_tied_to_residency();
}

/// The provenance bit rides in `PageInfo`'s padding: the record is no
/// larger than before it.
#[test]
fn the_lent_bit_costs_no_page_record_bytes() {
    assert_eq!(std::mem::size_of::<PageInfo>(), 128);
}
