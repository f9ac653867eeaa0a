//! Isolated per-layer drivers: one hot operation of one layer, alone.
//!
//! The traced run says where a workload's host time goes; these say what
//! one operation of a layer costs when nothing else runs, so a layer-local
//! optimisation has a number of its own and a regression found in a
//! workload can be chased into the layer that caused it. They do not depend
//! on the workload or the seed.

use std::hint::black_box;
use std::time::Instant;

use machvm::{Access, Backing, Effects, EmmiToPager, Inherit, PageData, PageIdx, TaskId, VmSystem};
use pager::{DefaultPager, PagerIn};
use svmsim::{
    CostModel, Ctx, Dur, EventQueue, Machine, MachineConfig, NodeBehavior, NodeId, Stats, Time,
    World,
};
use transport::Transport;

use crate::gen::Rng;
use crate::stat;
use crate::workloads::Scale;

/// Timed batches per driver; the median is reported.
const BATCHES: usize = 5;

/// Operation counts are divided by this under `--quick`, like every size.
fn div(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 1,
        Scale::Quick => 16,
    }
}

/// Median over [`BATCHES`] of `batch()`'s nanoseconds per operation.
fn median_ns(mut batch: impl FnMut() -> f64) -> f64 {
    let mut ns: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    stat::median(&mut ns)
}

fn per_op(started: Instant, ops: u64) -> f64 {
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// Every isolated metric, by name.
pub fn run_all(scale: Scale) -> Vec<(&'static str, f64)> {
    let d = div(scale);
    vec![
        ("sim.queue.ns_per_op", queue_hold(d)),
        ("sim.world.ns_per_event", bare_world(d)),
        ("sim.stats.ns_per_bump", stats_bump(d)),
        ("sim.stats.ns_per_record", stats_record(d)),
        ("sim.mesh.ns_per_wire_time", wire_time(d)),
        ("transport.sts.ns_per_send", ring(Transport::STS, d)),
        ("transport.norma.ns_per_send", ring(Transport::NORMA, d)),
        ("machvm.ns_per_hit", vm_hit(d)),
        ("machvm.ns_per_zero_fill", vm_zero_fill(d)),
        ("pager.ns_per_request", pager_request(d)),
    ]
}

/// Hold model at depth 1 024: pop the earliest event, push it back a random
/// increment later. One operation is one pop plus one push.
fn queue_hold(div: u64) -> f64 {
    const DEPTH: u64 = 1024;
    let holds = 200_000 / div;
    let mut rng = Rng::new(1);
    let mut q: EventQueue<u64> = EventQueue::with_capacity(DEPTH as usize);
    for i in 0..DEPTH {
        q.push(Time::from_nanos(rng.below(100_000) as u64), i);
    }
    median_ns(|| {
        let t0 = Instant::now();
        for _ in 0..holds {
            let (t, v) = q.pop().expect("hold model never drains");
            q.push(t + Dur::from_nanos(1 + rng.below(100_000) as u64), v);
        }
        per_op(t0, holds)
    })
}

/// A node that re-posts itself a message 500 ns later, `left` times.
struct Reposter {
    left: u32,
}

impl NodeBehavior<()> for Reposter {
    fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _msg: ()) {
        if self.left > 0 {
            self.left -= 1;
            let at = ctx.now() + Dur::from_nanos(500);
            ctx.post_self(at, ());
        }
    }
}

/// Bare `World`, 512 self-reposting nodes: queue plus dispatch, no cluster.
fn bare_world(div: u64) -> f64 {
    const NODES: u16 = 512;
    let reposts = (400 / div) as u32;
    median_ns(|| {
        let machine = Machine::new(MachineConfig::paragon(NODES));
        let mut w: World<Reposter, ()> = World::new(machine, 1, |_, _| Reposter { left: reposts });
        for n in 0..NODES {
            w.post(Time::from_nanos(n as u64), NodeId(n), ());
        }
        let t0 = Instant::now();
        w.run_to_quiescence(u64::MAX / 2).expect("reposters stop");
        per_op(t0, w.events_processed())
    })
}

/// One interned counter bump, cycling over eight keys.
fn stats_bump(div: u64) -> f64 {
    const KEYS: [&str; 8] = ["a", "b", "c", "d", "e", "f", "g", "h"];
    let bumps = 2_000_000 / div;
    let mut s = Stats::new();
    let ids: Vec<_> = KEYS.iter().map(|k| s.counter_id(k)).collect();
    median_ns(|| {
        let t0 = Instant::now();
        for i in 0..bumps {
            s.bump_id(black_box(ids[i as usize % ids.len()]));
        }
        black_box(&s);
        per_op(t0, bumps)
    })
}

/// One interned histogram record.
fn stats_record(div: u64) -> f64 {
    let records = 2_000_000 / div;
    let mut s = Stats::new();
    let id = s.hist_id("h");
    median_ns(|| {
        let t0 = Instant::now();
        for i in 0..records {
            s.record_id(id, black_box(Dur::from_nanos(1 + (i & 0xffff) * 977)));
        }
        black_box(&s);
        per_op(t0, records)
    })
}

/// One `Machine::wire_time` on a 256-node mesh.
fn wire_time(div: u64) -> f64 {
    let calls = 2_000_000 / div;
    let m = Machine::new(MachineConfig::paragon(256));
    median_ns(|| {
        let t0 = Instant::now();
        let mut acc = Dur::ZERO;
        for i in 0..calls {
            let (a, b) = (NodeId((i % 251) as u16), NodeId((i * 7 % 256) as u16));
            acc += m.wire_time(black_box(a), black_box(b), 8192);
        }
        black_box(acc);
        per_op(t0, calls)
    })
}

/// A node that forwards a page-sized message to its ring successor.
struct RingNode {
    next: NodeId,
    via: Transport,
}

impl NodeBehavior<u32> for RingNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, hops_left: u32) {
        if hops_left > 0 {
            self.via.send(ctx, self.next, 8192, hops_left - 1);
        }
    }
}

/// Bare `World`, one 8 KB payload circling a 64-node ring: the transport's
/// cost envelope, statistics and the world's send path.
fn ring(via: Transport, div: u64) -> f64 {
    const NODES: u16 = 64;
    let hops = (100_000 / div) as u32;
    median_ns(|| {
        let machine = Machine::new(MachineConfig::paragon(NODES));
        let mut w: World<RingNode, u32> = World::new(machine, 1, |id, _| RingNode {
            next: NodeId((id.0 + 1) % NODES),
            via,
        });
        w.post(Time::ZERO, NodeId(0), hops);
        let t0 = Instant::now();
        w.run_to_quiescence(u64::MAX / 2).expect("ring stops");
        per_op(t0, hops as u64)
    })
}

/// Pages of the `machvm` and `pager` drivers at full size.
const PAGES: u32 = 4096;

/// A `VmSystem` with one task mapping one fresh anonymous object.
fn vm_with_anon_object(pages: u32) -> (VmSystem, TaskId) {
    let mut vm = VmSystem::new(8192, 2 * pages, CostModel::default());
    let task = TaskId(1);
    vm.create_task(task);
    let obj = vm.create_object(pages, Backing::Anonymous);
    vm.map_object(task, 0, pages, obj, 0, Access::Write, Inherit::Share);
    (vm, task)
}

fn zero_fill_all(vm: &mut VmSystem, task: TaskId, pages: u32) {
    let mut fx = Effects::new();
    for p in 0..pages as u64 {
        vm.fault(Time::ZERO, task, p, Access::Write, &mut fx);
        fx.out.clear();
    }
}

/// A read that hits: translation walk plus use-stamp update.
fn vm_hit(div: u64) -> f64 {
    const PASSES: u64 = 100;
    let pages = PAGES / div as u32;
    let (mut vm, task) = vm_with_anon_object(pages);
    zero_fill_all(&mut vm, task, pages);
    median_ns(|| {
        let t0 = Instant::now();
        for _ in 0..PASSES {
            for p in 0..pages as u64 {
                black_box(vm.try_read_page(Time::ZERO, task, black_box(p)));
            }
        }
        per_op(t0, PASSES * pages as u64)
    })
}

/// A first-touch write fault on anonymous memory, resolved locally.
fn vm_zero_fill(div: u64) -> f64 {
    let pages = PAGES / div as u32;
    median_ns(|| {
        let (mut vm, task) = vm_with_anon_object(pages);
        let t0 = Instant::now();
        zero_fill_all(&mut vm, task, pages);
        per_op(t0, pages as u64)
    })
}

/// `DefaultPager::handle`: return 4 096 pages, then request them back.
fn pager_request(div: u64) -> f64 {
    let pages = PAGES / div as u32;
    median_ns(|| {
        let mut pager = DefaultPager::new(8192, 0);
        let mut disk = |_op, _pos, _len| Time::ZERO;
        let req = |call| PagerIn {
            from_node: NodeId(0),
            obj: machvm::VmObjId(1),
            mobj: machvm::MemObjId(0),
            call,
        };
        let t0 = Instant::now();
        for p in 0..pages {
            let call = EmmiToPager::DataReturn {
                page: PageIdx(p),
                data: PageData::Word(p as u64),
                dirty: true,
            };
            black_box(pager.handle(Time::ZERO, req(call), &mut disk));
        }
        for p in 0..pages {
            let call = EmmiToPager::DataRequest {
                page: PageIdx(p),
                access: Access::Read,
            };
            black_box(pager.handle(Time::ZERO, req(call), &mut disk));
        }
        per_op(t0, 2 * pages as u64)
    })
}
