//! Unit tests driving the XMM state machine directly: a miniature network
//! shuttles XMMI messages and pager traffic between `(XmmNode, VmSystem)`
//! pairs.

use machvm::{
    Access, Backing, EmmiToKernel, EmmiToPager, Inherit, MemObjId, PageData, PageIdx, PagerSend,
    SupplyMode, TaskId, VmSystem,
};
use svmsim::{CostModel, NodeId, Time};

use crate::node::{Fx, XmmBacking, XmmNode};
use crate::protocol::XmmMsg;

const MOBJ: MemObjId = MemObjId(3);
const PAGES: u32 = 8;

struct MiniNet {
    nodes: Vec<(XmmNode, VmSystem)>,
    wire: Vec<(NodeId, XmmMsg)>,
    pager_wire: Vec<PagerSend>,
    /// Pages the fake pager holds (written back to it).
    pager_store: std::collections::BTreeMap<PageIdx, PageData>,
    pager_writes: u32,
    now_ns: u64,
}

impl MiniNet {
    /// Builds `n` nodes; the manager is node 0; the pager is out-of-band.
    fn new(n: u16) -> MiniNet {
        let cost = CostModel::default();
        let mut nodes = Vec::new();
        for i in 0..n {
            let mut vm = VmSystem::new(8192, 1 << 20, cost.clone());
            let mut xmm = XmmNode::new(NodeId(i), cost.clone(), 4);
            let vo = vm.create_object(PAGES, Backing::External(MOBJ));
            xmm.register_object(
                MOBJ,
                vo,
                PAGES,
                NodeId(0),
                XmmBacking::RealPager { node: NodeId(99) },
            );
            nodes.push((xmm, vm));
        }
        MiniNet {
            nodes,
            wire: Vec::new(),
            pager_wire: Vec::new(),
            pager_store: Default::default(),
            pager_writes: 0,
            now_ns: 0,
        }
    }

    fn now(&mut self) -> Time {
        self.now_ns += 1000;
        Time::from_nanos(self.now_ns)
    }

    fn add_task(&mut self, n: u16) -> TaskId {
        let task = TaskId(200 + n as u32);
        let vo = self.nodes[n as usize].0.object(MOBJ).vm_obj;
        let vm = &mut self.nodes[n as usize].1;
        vm.create_task(task);
        vm.map_object(task, 0, PAGES, vo, 0, Access::Write, Inherit::Share);
        task
    }

    fn absorb(&mut self, from: NodeId, fx: Fx) {
        self.wire.extend(fx.net);
        self.pager_wire.extend(fx.pager);
        let mut vm_out: std::collections::VecDeque<machvm::VmEffect> = fx.vm.out.into();
        while let Some(eff) = vm_out.pop_front() {
            if let machvm::VmEffect::ToPager { obj, call, .. } = eff {
                let now = self.now();
                let (x, vm) = &mut self.nodes[from.index()];
                let mut fx2 = Fx::new();
                x.handle_emmi(now, vm, obj, call, &mut fx2);
                self.wire.extend(fx2.net);
                self.pager_wire.extend(fx2.pager);
                vm_out.extend(fx2.vm.out);
            }
        }
    }

    fn settle(&mut self) {
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 10_000, "mini net livelock");
            if let Some(p) = self.pager_wire.pop() {
                match p.call {
                    EmmiToPager::DataRequest { page, .. } => {
                        let data = self
                            .pager_store
                            .get(&page)
                            .cloned()
                            .unwrap_or(PageData::Zero);
                        let now = self.now();
                        let (x, vm) = &mut self.nodes[p.reply_to.index()];
                        let mut fx = Fx::new();
                        x.on_pager_reply(
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
                    EmmiToPager::DataReturn { page, data, .. } => {
                        self.pager_store.insert(page, data);
                        self.pager_writes += 1;
                    }
                    _ => {}
                }
                continue;
            }
            let Some((to, msg)) = self.wire.pop() else {
                return;
            };
            let now = self.now();
            let (x, vm) = &mut self.nodes[to.index()];
            let mut fx = Fx::new();
            x.handle_msg(now, vm, msg, &mut fx);
            self.absorb(to, fx);
        }
    }

    fn fault(&mut self, n: u16, task: TaskId, page: u32, access: Access) {
        let now = self.now();
        let (_, vm) = &mut self.nodes[n as usize];
        let mut vfx = machvm::Effects::new();
        vm.fault(now, task, page as u64, access, &mut vfx);
        let fx = Fx {
            vm: vfx,
            ..Fx::new()
        };
        self.absorb(NodeId(n), fx);
        self.settle();
    }
}

#[test]
fn fresh_write_goes_through_manager_and_pager() {
    let mut net = MiniNet::new(3);
    let t = net.add_task(1);
    net.fault(1, t, 0, Access::Write);
    assert!(net.nodes[1].1.can_access(t, 0, Access::Write));
    // The manager (node 0) recorded the grant in its state table.
    let bytes = net.nodes[0].0.manager_table_bytes();
    assert!(bytes >= PAGES as usize, "manager table materialized");
}

#[test]
fn dirty_page_flows_through_the_pager_to_the_reader() {
    let mut net = MiniNet::new(3);
    let tw = net.add_task(1);
    net.fault(1, tw, 2, Access::Write);
    let now = net.now();
    net.nodes[1]
        .1
        .write_page(now, tw, 2, PageData::Word(0xABCD));

    let tr = net.add_task(2);
    net.fault(2, tr, 2, Access::Read);
    // The coherent version went through the paging space...
    assert!(net.pager_writes >= 1, "dirty page must be returned first");
    assert_eq!(
        net.pager_store.get(&PageIdx(2)),
        Some(&PageData::Word(0xABCD))
    );
    // ...and the reader observed it.
    let now = net.now();
    assert_eq!(net.nodes[2].1.read_page(now, tr, 2), PageData::Word(0xABCD));
    // The writer lost its copy (flush, not downgrade, in NMK13).
    let vo = net.nodes[1].0.object(MOBJ).vm_obj;
    assert!(!net.nodes[1].1.object(vo).resident(PageIdx(2)));
}

#[test]
fn write_after_readers_flushes_them() {
    let mut net = MiniNet::new(4);
    let t1 = net.add_task(1);
    net.fault(1, t1, 0, Access::Write);
    let t2 = net.add_task(2);
    net.fault(2, t2, 0, Access::Read);
    let t3 = net.add_task(3);
    net.fault(3, t3, 0, Access::Write);
    // Node 2's read copy is gone; node 3 can write.
    let vo2 = net.nodes[2].0.object(MOBJ).vm_obj;
    assert!(!net.nodes[2].1.object(vo2).resident(PageIdx(0)));
    assert!(net.nodes[3].1.can_access(t3, 0, Access::Write));
}

#[test]
fn upgrade_uses_grant_without_contents() {
    let mut net = MiniNet::new(3);
    let t1 = net.add_task(1);
    net.fault(1, t1, 4, Access::Write);
    let t2 = net.add_task(2);
    net.fault(2, t2, 4, Access::Read);
    // Reset the counter; the upgrade itself must not move page contents.
    let writes_before = net.pager_writes;
    net.fault(2, t2, 4, Access::Write);
    assert!(net.nodes[2].1.can_access(t2, 4, Access::Write));
    assert_eq!(
        net.pager_writes, writes_before,
        "an upgrade of a clean copy must not touch the pager"
    );
}

#[test]
fn eviction_notifies_manager_and_returns_dirty_data() {
    let mut net = MiniNet::new(2);
    let t1 = net.add_task(1);
    net.fault(1, t1, 5, Access::Write);
    let now = net.now();
    net.nodes[1].1.write_page(now, t1, 5, PageData::Word(77));

    let vo = net.nodes[1].0.object(MOBJ).vm_obj;
    let now = net.now();
    let mut vfx = machvm::Effects::new();
    net.nodes[1].1.evict(now, vo, PageIdx(5), &mut vfx);
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
            let (x, vm) = &mut net.nodes[1];
            x.evict_external(now, vm, obj, page, data, dirty, &mut fx);
        }
    }
    net.absorb(NodeId(1), fx);
    net.settle();
    assert_eq!(net.pager_store.get(&PageIdx(5)), Some(&PageData::Word(77)));
    // A later fault re-fetches from the pager with the written contents.
    net.fault(1, t1, 5, Access::Read);
    let now = net.now();
    assert_eq!(net.nodes[1].1.read_page(now, t1, 5), PageData::Word(77));
}

#[test]
fn manager_serializes_conflicting_requests() {
    // Two writers race for the same fresh page; both must end up having
    // held it, with the table never showing two writers.
    let mut net = MiniNet::new(3);
    let t1 = net.add_task(1);
    let t2 = net.add_task(2);
    // Raise both faults before settling the network.
    for (n, t) in [(1u16, t1), (2u16, t2)] {
        let now = net.now();
        let (_, vm) = &mut net.nodes[n as usize];
        let mut vfx = machvm::Effects::new();
        vm.fault(now, t, 0, Access::Write, &mut vfx);
        let fx = Fx {
            vm: vfx,
            ..Fx::new()
        };
        net.absorb(NodeId(n), fx);
    }
    net.settle();
    // Exactly one of them holds write access at quiescence.
    let w1 = net.nodes[1].1.can_access(t1, 0, Access::Write);
    let w2 = net.nodes[2].1.can_access(t2, 0, Access::Write);
    assert!(w1 ^ w2, "exactly one writer may survive (w1={w1}, w2={w2})");
}

#[test]
fn state_table_bytes_grow_with_pages_times_nodes() {
    let mut net = MiniNet::new(3);
    for n in 0..3u16 {
        let t = net.add_task(n);
        net.fault(n, t, 0, Access::Read);
    }
    // Three nodes touched the object: three rows of PAGES bytes.
    assert_eq!(net.nodes[0].0.manager_table_bytes(), 3 * PAGES as usize);
}
