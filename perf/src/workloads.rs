//! The seven workloads: what each builds, and why it is in the set.
//!
//! A workload is a function from `(seed, scale)` to a ready-to-run cluster:
//! inputs drawn, world constructed, objects mapped, tasks spawned. The time
//! that takes is `setup_s`; the caller times the run loop separately.

use std::cell::RefCell;
use std::rc::Rc;

use cluster::{ManagerKind, Ssi};
use machvm::{Access, Inherit, MemObjId, TaskId};
use svmsim::{Dur, FaultPlan, MachineConfig, NodeId, Time};

use crate::gen::{Item, Op, Recorder, Rng, Spin, Sweep, Tenant, Zipf};

/// Name and one-line rationale of a workload, as `BENCHMARK.json` lists it.
pub struct Workload {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// Which layers it exercises and which it bypasses.
    pub why: &'static str,
}

/// The set, in report order.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "eventloop",
        why: "512 compute-only tasks: only sim's queue/dispatch and cluster's task driver run, every protocol layer is bypassed",
    },
    Workload {
        name: "readshare",
        why: "ASVM, 256 nodes: one writer, 255 readers per round - read replication, invalidation fan-out, busy-receiver parking",
    },
    Workload {
        name: "migratory",
        why: "ASVM, 64 nodes take turns writing every page: ownership transfer and forwarding tiers, no read copies",
    },
    Workload {
        name: "tenants",
        why: "ASVM, 512 Zipf-popular objects, 96 tasks in waves on 16 nodes with think time: the realistic unsynchronised mix",
    },
    Workload {
        name: "paging",
        why: "ASVM, region larger than node memory: machvm eviction, internode pageout, pager and disk do the work",
    },
    Workload {
        name: "faulted",
        why: "migratory shape under 1% drop, 0.2% dup, 0.1% delay: the ARQ, heartbeat and watchdog code path",
    },
    Workload {
        name: "xmm",
        why: "XMM over NORMA-IPC, readshare shape on 64 nodes: the paper's baseline engine, core is bypassed",
    },
];

/// Full size, or every size divided by 16 (`--quick`, for the tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// Every size / 16: seconds for the whole set.
    Quick,
}

impl Scale {
    /// `full`, or `full / 16` but at least `min`.
    fn of(self, full: u32, min: u32) -> u32 {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 16).max(min),
        }
    }
}

/// Output checks that apply to a workload.
#[derive(Clone, Copy, Debug)]
pub struct Expect {
    /// No fault plan: every task must finish and the recovery layer must
    /// stay dark.
    pub healthy: bool,
    /// One fault per stalled access: the generator's stall count must equal
    /// `fault.ms`' count.
    pub stalls_are_faults: bool,
}

/// A cluster ready to run.
pub struct Built {
    /// The simulator.
    pub ssi: Ssi,
    /// Compute nodes.
    pub nodes: u16,
    /// Where the generators record what they measured.
    pub rec: Rc<RefCell<Recorder>>,
    /// Operations the tasks will attempt.
    pub ops: u64,
    /// Event budget of the run: a thrash or livelock regression is reported
    /// as failed operations, not as a hang.
    pub budget: u64,
    /// Output checks.
    pub expect: Expect,
}

const HEALTHY: Expect = Expect {
    healthy: true,
    stalls_are_faults: true,
};

/// Generous for every workload but `paging` (its own, tighter budget).
const BUDGET: u64 = 200_000_000;

/// The two random sources of a workload.
///
/// A workload's *shape* — page orders, rotation order, burst tables, the
/// tenant population — is drawn once and for all from `shape`, the same for
/// every seed. `draw` is what `--seed` moves: the machine specimen, which
/// readers sit a round out, the tenants' request streams, the fault plan.
/// The split is what keeps seeds comparable. Drawing the shape from the
/// seed too made every seed a different experiment: across ten seeds
/// `tenants`' simulated time spread 39 % and `xmm`'s p99.9 stall 11 %; with
/// the shape fixed they spread 0.9 % and 0.5 %, and a median over seeds
/// resolves a change of a few percent.
struct Rngs {
    shape: Rng,
    draw: Rng,
}

/// Builds `name` for `seed`. `time_steps` turns the generators' self-timing
/// on (traced runs only). Panics on an unknown name: the caller validated it.
pub fn build(name: &str, seed: u64, scale: Scale, time_steps: bool) -> Built {
    let lane = name.bytes().fold(0u64, |h, b| h * 131 + b as u64);
    let rngs = Rngs {
        shape: Rng::new(0x5A4E_1996).fork(lane),
        draw: Rng::new(seed).fork(lane),
    };
    match name {
        "eventloop" => eventloop(rngs, seed, scale, time_steps),
        "readshare" => {
            let shape = Shape {
                nodes: scale.of(256, 2) as u16,
                pages: scale.of(64, 2),
                rounds: scale.of(32, 2),
            };
            one_writer_many_readers(ManagerKind::asvm(), shape, rngs, seed, time_steps)
        }
        "xmm" => {
            let shape = Shape {
                nodes: scale.of(64, 2) as u16,
                pages: scale.of(128, 2),
                rounds: scale.of(64, 2),
            };
            one_writer_many_readers(ManagerKind::xmm(), shape, rngs, seed, time_steps)
        }
        "migratory" => {
            let shape = Shape {
                nodes: scale.of(64, 2) as u16,
                pages: scale.of(128, 2),
                rounds: scale.of(32, 2),
            };
            rotating_writer(shape, FaultPlan::none(), rngs, seed, time_steps)
        }
        "faulted" => {
            let shape = Shape {
                nodes: scale.of(16, 4) as u16,
                pages: scale.of(64, 4),
                rounds: scale.of(32, 2),
            };
            let plan = FaultPlan::seeded(seed)
                .with_drop_ppm(10_000)
                .with_dup_ppm(2_000)
                .with_delay(1_000, Dur::from_millis(2));
            rotating_writer(shape, plan, rngs, seed, time_steps)
        }
        "tenants" => tenants(rngs, seed, scale, time_steps),
        "paging" => paging(rngs, seed, scale, time_steps),
        other => panic!("unknown workload {other}"),
    }
}

/// Size of a single-object barriered pattern.
#[derive(Clone, Copy)]
struct Shape {
    nodes: u16,
    pages: u32,
    rounds: u32,
}

/// A Paragon with `nodes` compute nodes, two of whose fixed latencies are
/// drawn within a fraction of a percent of their calibrated values: another
/// specimen of the same machine per seed. An uncontended fault's latency is
/// a sum of model constants and a queued disk request waits a whole number
/// of disk operations, so without a continuous input those percentiles read
/// the same to the nanosecond for every seed; this moves them in the fourth
/// digit and nothing else measurably.
fn machine(nodes: u16, draw: &mut Rng) -> MachineConfig {
    let mut cfg = MachineConfig::paragon(nodes);
    // 450 us +- 0.5 us of trap entry, paid once by every fault.
    cfg.cost.vm_fault_entry = Dur::from_nanos(449_500 + draw.below(1_001) as u64);
    // 25 ms +- 50 us of disk positioning.
    cfg.cost.disk_position = Dur::from_nanos(24_950_000 + draw.below(100_001) as u64);
    cfg
}

/// One task per node, all mapping one object homed on node 0 at page 0.
fn map_everywhere(ssi: &mut Ssi, nodes: u16, pages: u32) -> Vec<TaskId> {
    let home = NodeId(0);
    let mobj = ssi.create_object(home, pages, false);
    let tasks = (0..nodes)
        .map(|n| {
            let t = ssi.alloc_task();
            ssi.map_shared(
                t,
                NodeId(n),
                0,
                mobj,
                home,
                pages,
                Access::Write,
                Inherit::Share,
            );
            t
        })
        .collect();
    ssi.finalize();
    tasks
}

/// Every page of `0..pages` once, in an order drawn from `rng`.
fn shuffled(pages: u32, rng: &mut Rng) -> Vec<u64> {
    let mut order: Vec<u64> = (0..pages as u64).collect();
    rng.shuffle(&mut order);
    order
}

fn eventloop(mut rngs: Rngs, seed: u64, scale: Scale, time_steps: bool) -> Built {
    let nodes = scale.of(512, 2) as u16;
    let steps = scale.of(32_768, 32);
    let samples = (nodes as u32 * (steps / Spin::SAMPLE_EVERY)) as usize;
    let rec = Recorder::shared(samples, time_steps);
    // No objects, no maps: the engine kind is irrelevant, nothing calls it,
    // and no message ever crosses the wire.
    let mut ssi = Ssi::with_machine(MachineConfig::paragon(nodes), ManagerKind::asvm(), seed);
    let tasks: Vec<TaskId> = (0..nodes).map(|_| ssi.alloc_task()).collect();
    ssi.finalize();
    // Bursts of about 500 ns +- 20 % from one shared table, each task
    // starting elsewhere in it and lengthening every burst by its own
    // 0-15 ns: the tasks drift apart instead of resuming in lock-step, so
    // the queue sees realistic key disorder. The seed draws the shortest
    // burst, which shifts them all, and each task's lengthening.
    let shortest = 392 + rngs.draw.below(4) as u64;
    let bursts: Rc<[Dur]> = (0..64)
        .map(|_| Dur::from_nanos(shortest + rngs.shape.below(201) as u64))
        .collect();
    for (n, task) in tasks.into_iter().enumerate() {
        let phase = rngs.shape.below(64);
        let skew = Dur::from_nanos(rngs.draw.below(16) as u64);
        let prog = Spin::new(Rc::clone(&rec), Rc::clone(&bursts), phase, skew, steps);
        ssi.spawn_at(Time::ZERO, NodeId(n as u16), task, Box::new(prog));
    }
    Built {
        ssi,
        nodes,
        rec,
        ops: nodes as u64 * steps as u64,
        budget: BUDGET,
        expect: Expect {
            stalls_are_faults: false,
            ..HEALTHY
        },
    }
}

/// `readshare` and `xmm`: per round node 0 writes every page, then every
/// other node reads every page and checks the round's stamp. A reader sits
/// a round out with probability 1/64: with all of them always reading, the
/// writer's request queue is a closed loop of fixed length and the median
/// stall is the same number for every seed.
fn one_writer_many_readers(
    kind: ManagerKind,
    shape: Shape,
    mut rngs: Rngs,
    seed: u64,
    time_steps: bool,
) -> Built {
    let Shape {
        nodes,
        pages,
        rounds,
    } = shape;
    let rec = Recorder::shared(
        rounds as usize * nodes as usize * pages as usize,
        time_steps,
    );
    let mut ssi = Ssi::with_machine(machine(nodes, &mut rngs.draw), kind, seed);
    let tasks = map_everywhere(&mut ssi, nodes, pages);
    ssi.set_barrier_parties(nodes as u32);
    let mut ops = 0;
    for (n, task) in tasks.into_iter().enumerate() {
        let mut plan = Vec::with_capacity(rounds as usize * 3);
        for round in 0..rounds {
            let pass = Item::Pass {
                op: if n == 0 { Op::Write } else { Op::Read },
                turn: round,
                expect_turn: Some(round),
            };
            let barriers = [Item::Barrier(2 * round), Item::Barrier(2 * round + 1)];
            if n == 0 {
                plan.push(pass);
                plan.extend(barriers);
            } else if rngs.draw.below(64) == 0 {
                plan.extend(barriers);
            } else {
                plan.extend([barriers[0], pass, barriers[1]]);
            }
        }
        let order = shuffled(pages, &mut rngs.shape.fork(n as u64));
        ops += Sweep::accesses(&plan, order.len());
        let prog = Sweep::new(Rc::clone(&rec), plan, order);
        ssi.spawn_at(Time::ZERO, NodeId(n as u16), task, Box::new(prog));
    }
    Built {
        ssi,
        nodes,
        rec,
        ops,
        budget: BUDGET,
        expect: HEALTHY,
    }
}

/// `migratory` and `faulted`: the nodes, in a shuffled order, take turns
/// updating every page, each checking on the way that it received the
/// previous turn's stamp.
fn rotating_writer(
    shape: Shape,
    faults: FaultPlan,
    mut rngs: Rngs,
    seed: u64,
    time_steps: bool,
) -> Built {
    let Shape {
        nodes,
        pages,
        rounds,
    } = shape;
    let turns = rounds * nodes as u32;
    let rec = Recorder::shared(turns as usize * pages as usize, time_steps);
    let healthy = !faults.is_active();
    let mut cfg = machine(nodes, &mut rngs.draw);
    cfg.faults = faults;
    let mut ssi = Ssi::with_machine(cfg, ManagerKind::asvm(), seed);
    let tasks = map_everywhere(&mut ssi, nodes, pages);
    ssi.set_barrier_parties(nodes as u32);
    // Position of each node in the rotation: neighbours in the rotation
    // are not neighbours in the mesh.
    let mut rotation: Vec<u32> = (0..nodes as u32).collect();
    rngs.shape.fork(u64::MAX).shuffle(&mut rotation);
    let mut ops = 0;
    for (n, task) in tasks.into_iter().enumerate() {
        let mut plan = Vec::with_capacity(turns as usize + rounds as usize);
        for t in 0..turns {
            if t % nodes as u32 == rotation[n] {
                plan.push(Item::Pass {
                    op: Op::Update,
                    turn: t,
                    expect_turn: t.checked_sub(1),
                });
            }
            plan.push(Item::Barrier(t));
        }
        let order = shuffled(pages, &mut rngs.shape.fork(n as u64));
        ops += Sweep::accesses(&plan, order.len());
        let prog = Sweep::new(Rc::clone(&rec), plan, order);
        ssi.spawn_at(Time::ZERO, NodeId(n as u16), task, Box::new(prog));
    }
    Built {
        ssi,
        nodes,
        rec,
        ops,
        budget: BUDGET,
        expect: Expect {
            healthy,
            // A re-issued request can complete a fault the generator sees
            // as one stall.
            stalls_are_faults: healthy,
        },
    }
}

/// `paging`: two tasks each sweep a private slice half again as large as
/// their node's memory - a write pass, then a read pass that checks the
/// data survived eviction - while two idle nodes lend their memory.
///
/// Two sweepers, not the six first tried: six contending for one pager and
/// disk are chaotic (a 100 ns change of wire latency moved p99.9 by 25 % and
/// simulated time by 2 %, README findings), and no median over seeds
/// resolves anything through that. Two keep the eviction, internode
/// pageout, pager and disk paths as busy per access and repeat to 0.1 %.
fn paging(mut rngs: Rngs, seed: u64, scale: Scale, time_steps: bool) -> Built {
    const NODES: u16 = 4;
    const ACTIVE: u16 = 2;
    const ROUNDS: u32 = 3;
    let mem_pages = scale.of(2048, 16);
    let slice = mem_pages * 3 / 2;
    let pages = slice * NODES as u32;
    let rec = Recorder::shared(
        ACTIVE as usize * ROUNDS as usize * 2 * slice as usize,
        time_steps,
    );
    let mut cfg = machine(NODES, &mut rngs.draw);
    cfg.user_mem_bytes_per_node = mem_pages as u64 * cfg.page_size as u64;
    let mut ssi = Ssi::with_machine(cfg, ManagerKind::asvm(), seed);
    let tasks = map_everywhere(&mut ssi, NODES, pages);
    let mut ops = 0;
    for (n, task) in tasks.into_iter().enumerate().take(ACTIVE as usize) {
        let mut plan = Vec::with_capacity(ROUNDS as usize * 2);
        for r in 0..ROUNDS {
            for op in [Op::Write, Op::Read] {
                plan.push(Item::Pass {
                    op,
                    turn: r,
                    expect_turn: Some(r),
                });
            }
        }
        // Sequential within the slice (the disk model charges a seek for
        // anything else), each task from its own starting page.
        let first = n as u64 * slice as u64;
        let start = rngs.shape.fork(n as u64).below(slice) as u64;
        let order: Vec<u64> = (0..slice as u64)
            .map(|i| first + (start + i) % slice as u64)
            .collect();
        ops += Sweep::accesses(&plan, order.len());
        let prog = Sweep::new(Rc::clone(&rec), plan, order);
        ssi.spawn_at(Time::ZERO, NodeId(n as u16), task, Box::new(prog));
    }
    Built {
        ssi,
        nodes: NODES,
        rec,
        ops,
        budget: 40_000_000,
        expect: Expect {
            // Evicted pages fault again: more faults than stalls is the
            // finding `machvm.refault_ratio` exists to show.
            stalls_are_faults: false,
            ..HEALTHY
        },
    }
}

/// `tenants`: many objects of skewed popularity, tasks arriving in waves,
/// half the objects scanned read-mostly and half hammered write-heavy,
/// think time between accesses. The population (classes, who maps what) is
/// the workload's shape; the seed draws what the tenants then ask for.
fn tenants(mut rngs: Rngs, seed: u64, scale: Scale, time_steps: bool) -> Built {
    const OBJS_PER_TASK: usize = 6;
    const PAGES_PER_OBJECT: u32 = 16;
    const WAVES: u32 = 4;
    const WAVE_GAP: Dur = Dur::from_millis(40);
    const THINK: Dur = Dur::from_micros(200);
    let nodes = scale.of(16, 2) as u16;
    let objects = scale.of(512, 16) as usize;
    let tasks = scale.of(96, 4);
    let ops_per_task = scale.of(6_000, 64);
    let ops = tasks as u64 * ops_per_task as u64;
    let rec = Recorder::shared(ops as usize, time_steps);
    // The default configuration, not `AsvmConfig::adaptive()`: under the
    // online policy this mix trips engine assertions on about 1 % of seeds
    // (README, findings), and a benchmark cannot have a workload that dies.
    let cfg = machine(nodes, &mut rngs.draw);
    let mut ssi = Ssi::with_machine(cfg, ManagerKind::asvm(), seed);

    // The pool, most popular first: homes round-robin, classes alternating
    // (even ranks read-mostly), so both classes have hot and cold objects.
    let pool: Vec<(MemObjId, NodeId)> = (0..objects)
        .map(|i| {
            let home = NodeId(i as u16 % nodes);
            (ssi.create_object(home, PAGES_PER_OBJECT, false), home)
        })
        .collect();
    let read_mostly = |object: usize| object.is_multiple_of(2);

    let popularity = Zipf::new(objects, 0.9);
    let slot_zipf = Zipf::new(OBJS_PER_TASK, 0.9);
    let page_zipf = Zipf::new(PAGES_PER_OBJECT as usize, 1.1);
    let mut spawns = Vec::with_capacity(tasks as usize);
    // Objects some task of each node already maps.
    let mut taken: Vec<Vec<usize>> = vec![Vec::new(); nodes as usize];
    for t in 0..tasks {
        let node = NodeId(t as u16 % nodes);
        let task = ssi.alloc_task();
        // Working set: distinct objects, most popular first, none shared
        // with another task of the same node: two tasks of one node
        // faulting on one page trip an engine assertion on some seeds
        // (README, findings). Sharing across nodes is what the draw is for.
        let mine = &mut taken[node.0 as usize];
        let first = mine.len();
        while mine.len() < first + OBJS_PER_TASK {
            let o = popularity.sample(&mut rngs.shape);
            if !mine.contains(&o) {
                mine.push(o);
            }
        }
        let mut set = mine[first..].to_vec();
        set.sort_unstable();
        for (slot, &o) in set.iter().enumerate() {
            let (mobj, home) = pool[o];
            let va = slot as u64 * PAGES_PER_OBJECT as u64;
            ssi.map_shared(
                task,
                node,
                va,
                mobj,
                home,
                PAGES_PER_OBJECT,
                Access::Write,
                Inherit::Share,
            );
        }
        // The access script: read-mostly objects are scanned in order and
        // read 98 % of the time; write-heavy ones are hit at Zipf-hot pages
        // and read 30 % of the time.
        let mut r = rngs.draw.fork(t as u64);
        let mut cursors = [0u32; OBJS_PER_TASK];
        let script = (0..ops_per_task)
            .map(|_| {
                let slot = slot_zipf.sample(&mut r);
                let scanned = read_mostly(set[slot]);
                let page = if scanned {
                    let p = cursors[slot];
                    cursors[slot] = (p + 1) % PAGES_PER_OBJECT;
                    p
                } else {
                    page_zipf.sample(&mut r) as u32
                };
                let read_pct = if scanned { 98 } else { 30 };
                let write = r.below(100) >= read_pct;
                Tenant::encode(slot as u32 * PAGES_PER_OBJECT + page, write)
            })
            .collect();
        let wave = t * WAVES / tasks;
        spawns.push((Time::ZERO + WAVE_GAP * wave as u64, node, task, script));
    }
    ssi.finalize();
    for (at, node, task, script) in spawns {
        let prog = Tenant::new(Rc::clone(&rec), script, THINK);
        ssi.spawn_at(at, node, task, Box::new(prog));
    }
    Built {
        ssi,
        nodes,
        rec,
        ops,
        budget: BUDGET,
        expect: Expect {
            // An access can take two faults: a copy invalidated before the
            // task resumed faults again within the same stall.
            stalls_are_faults: false,
            ..HEALTHY
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_buildable() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200, "{}: why too long", w.name);
            let b = build(w.name, 1996, Scale::Quick, false);
            assert!(b.ops > 0);
        }
    }

    #[test]
    fn quick_divides_by_sixteen_with_a_floor() {
        assert_eq!(Scale::Full.of(512, 2), 512);
        assert_eq!(Scale::Quick.of(512, 2), 32);
        assert_eq!(Scale::Quick.of(16, 4), 4);
    }
}
