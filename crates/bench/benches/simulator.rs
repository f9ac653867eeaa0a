//! Criterion benchmarks of the simulator's hot paths and of representative
//! end-to-end experiments (wall-clock cost of running the reproduction, as
//! opposed to the simulated times the `table*`/`figure*` binaries report).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use asvm::Lru;
use cluster::ManagerKind;
use machvm::{KeyTable, NodeSet, PageIdx};
use svmsim::{
    Ctx, Dur, EventQueue, Machine, MachineConfig, MsgCosts, NodeBehavior, NodeId, Stats, Time,
    World,
};
use workloads::{
    copy_chain_probe, em3d_run, fault_probe, run_pattern, CopyChainSpec, Em3dSpec, FaultProbeSpec,
    Pattern, ProbeAccess, Scenario,
};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..1000u64 {
                // Scatter times so the heap actually works.
                q.push(Time::from_nanos((i * 7919) % 10_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });
}

fn bench_event_queue_preallocated(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k_prealloc", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::with_capacity(1000);
            for i in 0..1000u64 {
                q.push(Time::from_nanos((i * 7919) % 10_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });
}

/// A message as fat as `cluster::Msg` in its envelope: what the event
/// loop pays to move a payload, which the `M = ()` drivers cannot see.
type Fat = [u64; 12];

/// Reposts its message to itself `left` more times, 500 ns apart.
struct Reposter {
    left: u32,
}

impl NodeBehavior<Fat> for Reposter {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Fat>, mut msg: Fat) {
        if self.left > 0 {
            self.left -= 1;
            msg[0] += 1;
            let at = ctx.now() + Dur::from_nanos(500);
            ctx.post_self(at, msg);
        }
    }
}

/// Node 0 sinks; every other node answers its kick-off message with
/// `BURST` costed sends to node 0.
struct FanIn {
    sunk: u64,
}

const BURST: u64 = 16;

impl NodeBehavior<Fat> for FanIn {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Fat>, msg: Fat) {
        if ctx.me() == NodeId(0) {
            self.sunk += msg[0];
            return;
        }
        let costs = MsgCosts {
            send_cpu: Dur::from_micros(1),
            recv_cpu: Dur::from_micros(20),
            bytes: 96,
            extra_latency: Dur::ZERO,
        };
        for i in 0..BURST {
            ctx.send(NodeId(0), costs, [i + 1; 12]);
        }
    }
}

fn bench_world(c: &mut Criterion) {
    let mut g = c.benchmark_group("world");
    g.sample_size(20);
    // The hold model at the `eventloop` shape: 512 pending events, each
    // delivery schedules the next; 64 reposts per node per iteration.
    g.bench_function("hold_512_msg96", |b| {
        b.iter(|| {
            let machine = Machine::new(MachineConfig::paragon(512));
            let mut w: World<Reposter, Fat> = World::new(machine, 1, |_, _| Reposter { left: 64 });
            for n in 0..512u16 {
                w.post(Time::from_nanos(n as u64), NodeId(n), [n as u64; 12]);
            }
            w.run_to_quiescence(u64::MAX / 2).expect("reposters stop");
            black_box(w.events_processed())
        })
    });
    // The `readshare` shape at the writer: 255 senders' bursts reach one
    // receiver whose message processor takes 20 µs per arrival, so nearly
    // every arrival parks and is woken in turn.
    g.bench_function("fan_in_park_255", |b| {
        b.iter(|| {
            let machine = Machine::new(MachineConfig::paragon(256));
            let mut w: World<FanIn, Fat> = World::new(machine, 1, |_, _| FanIn { sunk: 0 });
            for n in 1..256u16 {
                w.post(Time::ZERO, NodeId(n), [0; 12]);
            }
            w.run_to_quiescence(u64::MAX / 2).expect("the sink drains");
            black_box(w.node(NodeId(0)).sunk)
        })
    });
    g.finish();
}

fn bench_stats(c: &mut Criterion) {
    // The per-message counter update, both ways: the cold string-keyed
    // lookup and the interned-id fast path the event loop actually uses.
    let mut g = c.benchmark_group("stats");
    g.bench_function("bump_by_key_1k", |b| {
        let mut s = Stats::new();
        // Populate a realistic number of distinct counters first.
        for k in [
            "net.messages",
            "net.bytes",
            "disk.reads",
            "disk.writes",
            "faults.raised",
            "faults.completed",
            "norma.messages",
            "sts.messages",
            "pageouts",
            "forks",
        ] {
            s.bump(k);
        }
        b.iter(|| {
            for _ in 0..1000 {
                s.bump(black_box("sts.messages"));
            }
            black_box(s.counter("sts.messages"))
        })
    });
    g.bench_function("bump_by_id_1k", |b| {
        let mut s = Stats::new();
        for k in [
            "net.messages",
            "net.bytes",
            "disk.reads",
            "disk.writes",
            "faults.raised",
            "faults.completed",
            "norma.messages",
            "sts.messages",
            "pageouts",
            "forks",
        ] {
            s.bump(k);
        }
        let id = s.counter_id("sts.messages");
        b.iter(|| {
            for _ in 0..1000 {
                s.bump_id(black_box(id));
            }
            black_box(s.counter_value(id))
        })
    });
    g.finish();
}

fn bench_mesh_routing(c: &mut Criterion) {
    let machine = Machine::new(MachineConfig::paragon(64));
    c.bench_function("wire_time_all_pairs_64", |b| {
        b.iter(|| {
            let mut acc = Dur::ZERO;
            for a in machine.mesh.node_ids() {
                for z in machine.mesh.node_ids() {
                    acc += machine.wire_time(a, z, 8224);
                }
            }
            black_box(acc)
        })
    });
}

fn bench_fault_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("fault_probe");
    g.sample_size(20);
    g.bench_function("asvm_write_8_readers", |b| {
        b.iter(|| {
            black_box(fault_probe(FaultProbeSpec {
                kind: ManagerKind::asvm(),
                read_copies: 8,
                faulter_has_copy: false,
                access: ProbeAccess::Write,
            }))
        })
    });
    g.bench_function("xmm_write_8_readers", |b| {
        b.iter(|| {
            black_box(fault_probe(FaultProbeSpec {
                kind: ManagerKind::xmm(),
                read_copies: 8,
                faulter_has_copy: false,
                access: ProbeAccess::Write,
            }))
        })
    });
    g.finish();
}

fn bench_copy_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("copy_chain");
    g.sample_size(20);
    g.bench_function("asvm_chain4", |b| {
        b.iter(|| {
            black_box(copy_chain_probe(CopyChainSpec {
                kind: ManagerKind::asvm(),
                chain_len: 4,
                region_pages: 16,
            }))
        })
    });
    g.bench_function("xmm_chain4", |b| {
        b.iter(|| {
            black_box(copy_chain_probe(CopyChainSpec {
                kind: ManagerKind::xmm(),
                chain_len: 4,
                region_pages: 16,
            }))
        })
    });
    g.finish();
}

fn bench_lru(c: &mut Criterion) {
    let mut g = c.benchmark_group("lru");
    // The `migratory` shape: a 128-page working set in a dynamic hint
    // cache far below capacity — every forwarded request peeks, refreshes
    // and rewrites its page's hint, and nothing is ever evicted.
    g.bench_function("working_set_128_cap_4096", |b| {
        let mut hints: Lru<PageIdx, NodeId> = Lru::new(4096);
        for p in 0..128 {
            hints.insert(PageIdx(p), NodeId(0));
        }
        b.iter(|| {
            for p in 0..128u32 {
                let page = PageIdx(p);
                if hints.peek(&page).is_some() {
                    black_box(hints.get(&page));
                }
                hints.insert(page, NodeId((p % 64) as u16));
            }
            black_box(hints.len())
        })
    });
    // A cache smaller than its working set: every insert evicts.
    g.bench_function("evict_every_insert_cap_64", |b| {
        let mut hints: Lru<PageIdx, NodeId> = Lru::new(64);
        let mut next = 0u32;
        b.iter(|| {
            for _ in 0..1000 {
                hints.insert(PageIdx(next), NodeId(1));
                next = next.wrapping_add(1);
            }
            black_box(hints.evictions())
        })
    });
    g.finish();
}

fn bench_node_set(c: &mut Criterion) {
    // The `readshare` shape: 255 readers join a page's reader list, a write
    // fault copies the list into the outstanding-ack set, and the acks
    // trickle in.
    c.bench_function("node_set/insert_clone_remove_255", |b| {
        b.iter(|| {
            let mut readers = NodeSet::new();
            for n in 1..256u16 {
                readers.insert(NodeId(n));
            }
            let mut acks = readers.clone();
            for n in 1..256u16 {
                acks.remove(&NodeId(n));
            }
            black_box((readers.len(), acks.is_empty()))
        })
    });
}

fn bench_page_table(c: &mut Criterion) {
    // A page-keyed engine table (`AsvmObject::pages`) holding `live`
    // entries: look one up, take it out, put it back.
    let mut g = c.benchmark_group("page_table");
    for live in [64u32, 4096] {
        g.bench_function(&format!("get_remove_insert_{live}_live"), |b| {
            let mut table: KeyTable<PageIdx, u64> = KeyTable::new();
            for p in 0..live {
                table.insert(PageIdx(p * 3), p as u64);
            }
            b.iter(|| {
                let mut sum = 0u64;
                for p in (0..live).step_by((live / 64) as usize) {
                    let page = PageIdx(p * 3);
                    sum += table.get(&page).copied().unwrap_or(0);
                    let v = table.remove(&page).expect("live key");
                    table.insert(page, v + 1);
                }
                black_box(sum)
            })
        });
    }
    g.finish();
}

fn bench_patterns(c: &mut Criterion) {
    let mut g = c.benchmark_group("patterns");
    g.sample_size(10);
    g.bench_function("migratory_8n", |b| {
        b.iter(|| {
            black_box(run_pattern(
                &Scenario::new(ManagerKind::asvm(), 8, 17),
                32,
                Pattern::Migratory { rounds: 2 },
            ))
        })
    });
    g.finish();
}

fn bench_em3d(c: &mut Criterion) {
    let mut g = c.benchmark_group("em3d");
    g.sample_size(10);
    g.bench_function("asvm_8n_16k_2iter", |b| {
        b.iter(|| {
            let mut spec = Em3dSpec::paper(ManagerKind::asvm(), 8, 16_000);
            spec.iterations = 2;
            black_box(em3d_run(spec))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_event_queue_preallocated,
    bench_world,
    bench_stats,
    bench_mesh_routing,
    bench_fault_probe,
    bench_copy_chain,
    bench_lru,
    bench_node_set,
    bench_page_table,
    bench_patterns,
    bench_em3d
);
criterion_main!(benches);
