//! Multi-tenant Zipf workload: the millions-of-users shape.
//!
//! Every other workload in this crate is one task group on one memory
//! object. A host in the paper's target deployment looks nothing like
//! that: *thousands* of memory objects with heavily skewed popularity,
//! tasks arriving and departing mid-run, and no single access pattern —
//! some objects are read-mostly fan-out, others write-heavy migratory.
//! One uniform configuration need not suit that whole mix, which is what
//! the paper's per-object strategy hook
//! ([`cluster::Ssi::set_object_config`]) is for.
//!
//! The generator is fully seeded and deterministic:
//!
//! * **objects** — a pool of [`TenantsSpec::objects`] memory objects,
//!   homed round-robin across the nodes, each assigned a *class*
//!   (read-mostly or write-heavy) by the setup RNG;
//! * **popularity** — each task draws a working set of
//!   [`TenantsSpec::objs_per_task`] distinct objects from a [`Zipf`]
//!   distribution over the pool, so popular objects are mapped (and
//!   contended) on many nodes while tail objects often live on one;
//! * **arrival/departure** — tasks start in [`TenantsSpec::waves`]
//!   arrival waves spaced [`TenantsSpec::wave_gap_ms`] apart
//!   ([`cluster::Ssi::spawn_at`]) and depart when their op budget is
//!   spent, so membership of the popular objects' sharing sets shifts
//!   mid-run;
//! * **accesses** — each op picks a working-set object (Zipf over slots,
//!   most popular first) and read vs write from the object's class
//!   ratio. The classes differ in *shape*, not just mix: read-mostly
//!   objects are scanned sequentially (the analytics/file-scan tenant,
//!   where prefetch turns k faults into k/(1+depth)), while write-heavy
//!   objects hammer Zipf-hot pages (the OLTP tenant, where prefetched
//!   neighbours are invalidated before anyone reads them).
//!
//! [`TenantsSpec::phase_flip`] inverts every object's read/write mix
//! each `phase_flip` ops, so no per-object configuration chosen up front
//! fits the whole run — see the `tenants` bench.

use asvm::AsvmConfig;
use cluster::{ManagerKind, Program, Step, TaskEnv};
use machvm::{Access, Inherit};
use svmsim::{Dur, NodeId, Rng, Time};
use transport::Transport;

use crate::scenario::{Outcome, Scenario};

/// A seeded Zipf sampler over `0..n` by inverse CDF: rank `i` carries
/// weight `1 / (i + 1)^skew`. Skew 0 degenerates to uniform; skew around
/// 1 is the classic web-popularity curve. Sampling is a binary search
/// over the precomputed cumulative weights — deterministic for a given
/// `(n, skew, rng)` (see the determinism tests).
#[derive(Clone, Debug)]
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler over `0..n` with exponent `skew`.
    pub fn new(n: usize, skew: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty domain");
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(skew);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        Zipf { cum }
    }

    /// Draws one rank in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        // Uniform in [0, 1): 53 random bits over 2^53.
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1)
    }
}

/// Parameters of the multi-tenant workload.
#[derive(Clone, Debug)]
pub struct TenantsSpec {
    /// Compute nodes.
    pub nodes: u16,
    /// Memory objects in the pool (the generator handles thousands; the
    /// committed bench keeps cells smaller for CI wall-clock).
    pub objects: u32,
    /// Pages per object.
    pub pages_per_object: u32,
    /// Zipf exponent of object popularity (0 = uniform).
    pub object_skew: f64,
    /// Zipf exponent of page popularity within a *write-heavy* object
    /// (read-mostly objects are scanned sequentially instead).
    pub page_skew: f64,
    /// Total tasks over the whole run.
    pub tasks: u32,
    /// Arrival waves the tasks are split into.
    pub waves: u32,
    /// Gap between arrival waves, in simulated milliseconds.
    pub wave_gap_ms: f64,
    /// Distinct objects in each task's working set.
    pub objs_per_task: u32,
    /// Accesses each task performs before departing.
    pub ops_per_task: u32,
    /// Percent of objects assigned the read-mostly class.
    pub read_mostly_pct: u32,
    /// Read percentage of a read-mostly object's accesses.
    pub read_mostly_read_pct: u32,
    /// Read percentage of a write-heavy object's accesses.
    pub write_heavy_read_pct: u32,
    /// Modeled compute per access, in microseconds.
    pub think_us: f64,
    /// Invert every object's read/write mix each `phase_flip` ops per
    /// task (0 disables).
    pub phase_flip: u32,
    /// Master seed for classes, working sets, and access streams.
    pub seed: u64,
}

impl Default for TenantsSpec {
    fn default() -> TenantsSpec {
        TenantsSpec {
            nodes: 8,
            objects: 96,
            pages_per_object: 16,
            object_skew: 0.9,
            page_skew: 1.1,
            tasks: 24,
            waves: 3,
            wave_gap_ms: 40.0,
            objs_per_task: 6,
            ops_per_task: 400,
            read_mostly_pct: 50,
            read_mostly_read_pct: 98,
            write_heavy_read_pct: 30,
            think_us: 200.0,
            phase_flip: 0,
            seed: 1996,
        }
    }
}

/// Simulator events [`run_tenants`] allows per access before it calls
/// the run livelocked. Healthy runs need under ten; a livelock climbs
/// without bound.
pub const EVENTS_PER_OP: u64 = 100;

struct TenantProgram {
    pages: u32,
    /// Read percentage per working-set slot (popularity order).
    slot_read_pct: Vec<u32>,
    /// Per slot: true = read-mostly class, accessed as a sequential scan;
    /// false = write-heavy class, accessed at Zipf-hot pages.
    slot_scan: Vec<bool>,
    /// Per-slot scan cursor (wraps at the object end).
    cursors: Vec<u32>,
    ops: u32,
    done: u32,
    slot_zipf: Zipf,
    page_zipf: Zipf,
    phase_flip: u32,
    rng: Rng,
    think: Dur,
    think_pending: bool,
}

impl Program for TenantProgram {
    fn step(&mut self, _env: &mut TaskEnv) -> Step {
        if self.think_pending {
            self.think_pending = false;
            return Step::Compute(self.think);
        }
        if self.done >= self.ops {
            return Step::Done;
        }
        self.done += 1;
        let slot = self.slot_zipf.sample(&mut self.rng);
        let page = if self.slot_scan[slot] {
            let p = self.cursors[slot];
            self.cursors[slot] = (p + 1) % self.pages;
            p
        } else {
            self.page_zipf.sample(&mut self.rng) as u32
        };
        let va = slot as u64 * self.pages as u64 + page as u64;
        let mut read_pct = self.slot_read_pct[slot];
        if self.phase_flip > 0 && (self.done / self.phase_flip) % 2 == 1 {
            read_pct = 100 - read_pct;
        }
        if self.think > Dur::ZERO {
            self.think_pending = true;
        }
        if self.rng.range(0..100) < read_pct as u64 {
            Step::Read { va_page: va }
        } else {
            Step::Write {
                va_page: va,
                value: self.done as u64,
            }
        }
    }
}

/// Runs the tenants workload under `cfg` on `transport` and drains it
/// (every task must depart; a run that needs more than
/// [`EVENTS_PER_OP`] events per access panics as livelocked). With
/// `oracle` set, every object is registered with a class-ideal
/// configuration through [`cluster::Ssi::set_object_config`]: `cfg` for
/// read-mostly objects, the fixed distributed manager for write-heavy
/// ones.
pub fn run_tenants(
    cfg: AsvmConfig,
    transport: Transport,
    spec: &TenantsSpec,
    oracle: bool,
) -> Outcome {
    assert!(spec.objects > 0 && spec.tasks > 0 && spec.objs_per_task > 0);
    assert!(
        spec.objs_per_task <= spec.objects,
        "working set larger than the object pool"
    );
    let mut setup = Rng::seeded(spec.seed);
    let sc = Scenario::new(ManagerKind::Asvm(cfg), spec.nodes, spec.seed).transport(transport);
    let mut ssi = sc.build();

    // The object pool: homes round-robin, classes drawn by the setup RNG.
    let mut mobjs = Vec::with_capacity(spec.objects as usize);
    let mut read_mostly = Vec::with_capacity(spec.objects as usize);
    for i in 0..spec.objects {
        let home = NodeId(i as u16 % spec.nodes);
        let mobj = ssi.create_object(home, spec.pages_per_object, false);
        let rm = setup.range(0..100) < spec.read_mostly_pct as u64;
        if oracle {
            let c = if rm {
                cfg
            } else {
                AsvmConfig::fixed_distributed()
            };
            ssi.set_object_config(mobj, c);
        }
        mobjs.push((mobj, home));
        read_mostly.push(rm);
    }

    // Tasks: working sets drawn Zipf over the pool, mapped at setup time;
    // arrival staggered by wave, departure after the op budget.
    let object_zipf = Zipf::new(spec.objects as usize, spec.object_skew);
    let mut spawns = Vec::with_capacity(spec.tasks as usize);
    for t in 0..spec.tasks {
        let node = NodeId(t as u16 % spec.nodes);
        let task = ssi.alloc_task();
        let mut set: Vec<usize> = Vec::with_capacity(spec.objs_per_task as usize);
        while set.len() < spec.objs_per_task as usize {
            let o = object_zipf.sample(&mut setup);
            if !set.contains(&o) {
                set.push(o);
            }
        }
        // Popularity order: lower rank = heavier weight in the slot Zipf.
        set.sort_unstable();
        let mut slot_read_pct = Vec::with_capacity(set.len());
        let mut slot_scan = Vec::with_capacity(set.len());
        for (slot, &obj) in set.iter().enumerate() {
            let (mobj, home) = mobjs[obj];
            ssi.map_shared(
                task,
                node,
                slot as u64 * spec.pages_per_object as u64,
                mobj,
                home,
                spec.pages_per_object,
                Access::Write,
                Inherit::Share,
            );
            slot_read_pct.push(if read_mostly[obj] {
                spec.read_mostly_read_pct
            } else {
                spec.write_heavy_read_pct
            });
            slot_scan.push(read_mostly[obj]);
        }
        let wave = t * spec.waves / spec.tasks;
        let at = Time::ZERO + Dur::from_millis_f64(wave as f64 * spec.wave_gap_ms);
        spawns.push((at, node, task, slot_read_pct, slot_scan));
    }
    ssi.finalize();
    for (at, node, task, slot_read_pct, slot_scan) in spawns {
        let cursors = vec![0; slot_scan.len()];
        let program = TenantProgram {
            pages: spec.pages_per_object,
            slot_read_pct,
            slot_scan,
            cursors,
            ops: spec.ops_per_task,
            done: 0,
            slot_zipf: Zipf::new(spec.objs_per_task as usize, spec.object_skew),
            page_zipf: Zipf::new(spec.pages_per_object as usize, spec.page_skew),
            phase_flip: spec.phase_flip,
            rng: Rng::seeded(spec.seed ^ ((task.0 as u64) << 32)),
            think: Dur::from_micros_f64(spec.think_us),
            think_pending: false,
        };
        ssi.spawn_at(at, node, task, Box::new(program));
    }
    let ops = spec.tasks as u64 * spec.ops_per_task as u64;
    if let Err(e) = ssi.run(ops * EVENTS_PER_OP) {
        let done: u32 = (0..spec.nodes)
            .map(|n| ssi.node(NodeId(n)).tasks_done)
            .sum();
        panic!(
            "tenants run livelocked: {e}, {done} of {} tasks done",
            spec.tasks
        );
    }
    sc.finish(ssi, Time::ZERO)
        .expect_completed("tenants (all tasks depart)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_under_a_fixed_seed() {
        let z = Zipf::new(1000, 0.9);
        let draw = |seed: u64| {
            let mut rng = Rng::seeded(seed);
            (0..256).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7), "same seed, same sequence");
        assert_ne!(draw(7), draw(8), "different seed, different sequence");
    }

    #[test]
    fn zipf_skew_concentrates_mass_on_low_ranks() {
        let mut rng = Rng::seeded(42);
        let z = Zipf::new(100, 1.1);
        let head = (0..2000).filter(|_| z.sample(&mut rng) < 10).count() as f64;
        assert!(
            head / 2000.0 > 0.5,
            "top 10% of ranks got {head} of 2000 draws"
        );
        // Skew 0 is uniform: the head takes roughly its fair share.
        let u = Zipf::new(100, 0.0);
        let head = (0..2000).filter(|_| u.sample(&mut rng) < 10).count() as f64;
        assert!(head / 2000.0 < 0.2, "uniform head share: {head} of 2000");
    }

    #[test]
    fn zipf_covers_the_domain() {
        let mut rng = Rng::seeded(3);
        let z = Zipf::new(4, 0.8);
        let mut seen = [false; 4];
        for _ in 0..500 {
            seen[z.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all ranks reachable: {seen:?}");
    }

    fn small_spec() -> TenantsSpec {
        TenantsSpec {
            nodes: 4,
            objects: 12,
            pages_per_object: 4,
            tasks: 8,
            waves: 2,
            wave_gap_ms: 10.0,
            objs_per_task: 3,
            ops_per_task: 60,
            think_us: 100.0,
            ..TenantsSpec::default()
        }
    }

    #[test]
    fn tenants_run_is_deterministic() {
        let spec = small_spec();
        let a = run_tenants(AsvmConfig::default(), Transport::STS, &spec, false);
        let b = run_tenants(AsvmConfig::default(), Transport::STS, &spec, false);
        assert_eq!(a.faults(), b.faults());
        assert_eq!(a.asvm_msgs(), b.asvm_msgs());
        assert_eq!(a.events, b.events);
        assert_eq!(a.elapsed, b.elapsed);
        let mut other = spec;
        other.seed = 7;
        let c = run_tenants(AsvmConfig::default(), Transport::STS, &other, false);
        assert_ne!(
            (a.faults(), a.asvm_msgs(), a.events),
            (c.faults(), c.asvm_msgs(), c.events),
            "a different seed must reshape the workload"
        );
    }

    #[test]
    fn oracle_assigns_class_ideal_configs() {
        let spec = small_spec();
        let key = |o: &Outcome| (o.faults(), o.asvm_msgs(), o.events);
        let accel = AsvmConfig::with_prefetch(4);
        let oracle = run_tenants(accel, Transport::STS, &spec, true);
        // Both classes appear, so the oracle run matches neither of the
        // uniform runs it mixes.
        for uniform in [accel, AsvmConfig::fixed_distributed()] {
            let u = run_tenants(uniform, Transport::STS, &spec, false);
            assert_ne!(key(&oracle), key(&u), "{uniform:?}");
        }
    }
}
