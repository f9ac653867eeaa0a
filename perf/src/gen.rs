//! The benchmark's own load generators (`gen` in the layer list).
//!
//! Every generator is a closed loop: a task issues its next access only
//! after the previous one completed, because that is what a faulting
//! instruction does. Inputs are drawn from the seed *before* the timed
//! region, so the run loop replays a script and `gen.host_share` stays
//! small. Each program also measures, in simulated time, what its accesses
//! cost: `env.now` at the `step` that issues an access to `env.now` at the
//! next `step` is the stall the task paid, and the value a `Read` returned
//! is compared with the value the access pattern implies.

use std::cell::RefCell;
use std::rc::Rc;

use cluster::{Program, Step, TaskEnv};
use machvm::Access;
use svmsim::{Dur, Time};

use crate::clock;

/// SplitMix64: the benchmark's only random source. Small, seedable, and
/// owned here so that no simulator crate's RNG choice can move the inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for sub-generator `lane` (task, object, ...).
    pub fn fork(&self, lane: u64) -> Rng {
        let mut r = Rng(self.0 ^ lane.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u32) -> u32 {
        debug_assert!(n > 0);
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u32 + 1) as usize);
        }
    }
}

/// Zipf sampler over `0..n` by inverse CDF: rank `i` has weight
/// `1 / (i + 1)^skew`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
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

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1)
    }
}

/// What the generators measured during one run.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Simulated stall of every access that stalled, nanoseconds
    /// (`eventloop`: the duration of every [`Spin::SAMPLE_EVERY`]-th step).
    pub stalls: Vec<u64>,
    /// Accesses whose completion the generator saw.
    pub completed: u64,
    /// `Read`s that returned a value other than the pattern's.
    pub bad_reads: u64,
    /// `Program::step` calls.
    pub steps: u64,
    /// When set, one `step` body in [`Recorder::TIME_EVERY`] is timed.
    pub time_steps: bool,
    /// Timed `step` bodies.
    pub timed_steps: u64,
    /// Clock ticks spent in them (each includes one clock read).
    pub timed_ticks: u64,
}

impl Recorder {
    /// Sampling period of the generator's self-timing: timing every body
    /// would triple the traced cost of an 80 ns `eventloop` event.
    pub const TIME_EVERY: u64 = 32;
    /// A timed body longer than this many ticks (microseconds; bodies take
    /// nanoseconds) was interrupted, not slow, and is left out: a handful of
    /// preemptions on a busy host would otherwise double the mean.
    const INTERRUPTED_TICKS: u64 = 1 << 14;

    /// A recorder with room for `stall_capacity` stall samples, so the
    /// timed region never reallocates.
    pub fn shared(stall_capacity: usize, time_steps: bool) -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(Recorder {
            stalls: Vec::with_capacity(stall_capacity),
            time_steps,
            ..Recorder::default()
        }))
    }

    /// Counts a `step` call; returns the start tick if this body is timed.
    #[inline]
    fn enter(&mut self) -> Option<u64> {
        self.steps += 1;
        (self.time_steps && self.steps.is_multiple_of(Self::TIME_EVERY)).then(clock::ticks)
    }

    #[inline]
    fn exit(&mut self, started: Option<u64>) {
        if let Some(t0) = started {
            let ticks = clock::ticks().saturating_sub(t0);
            if ticks < Self::INTERRUPTED_TICKS {
                self.timed_ticks += ticks;
                self.timed_steps += 1;
            }
        }
    }
}

/// An access in flight: when it was issued and what a read must return.
#[derive(Clone, Copy, Debug)]
struct Issued {
    at: Time,
    expect: Option<u64>,
}

/// Settles the access issued by the previous `step`, now that the driver
/// called `step` again.
#[inline]
fn settle(rec: &mut Recorder, issued: &mut Option<Issued>, env: &TaskEnv) {
    let Some(i) = issued.take() else { return };
    rec.completed += 1;
    let stall = env.now.since(i.at).as_nanos();
    if stall > 0 {
        rec.stalls.push(stall);
    }
    if let Some(want) = i.expect {
        if env.last_read != Some(want) {
            rec.bad_reads += 1;
        }
    }
}

/// The stamp a writer of `turn` leaves in `page` (never 0: 0 is the
/// zero-filled page).
pub fn stamp(turn: u32, page: u64) -> u64 {
    (turn as u64 + 1) << 32 | page
}

/// How a [`Pass`] touches each page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `Write` the turn's stamp.
    Write,
    /// `Read` and compare with the stamp of `expect_turn`.
    Read,
    /// Fault the page in for writing (`Touch`), `Read` it back — a hit that
    /// checks the previous writer's stamp arrived with the page — then
    /// `Write` the turn's stamp. One fault per page, like a plain write.
    Update,
}

/// One element of a barriered task's plan.
#[derive(Clone, Copy, Debug)]
pub enum Item {
    /// Wait for every party.
    Barrier(u32),
    /// Visit every page of the task's order once.
    Pass {
        /// Access kind.
        op: Op,
        /// Turn whose stamp writes leave.
        turn: u32,
        /// Turn whose stamp reads must find; `None` expects the zero page.
        expect_turn: Option<u32>,
    },
}

/// A task of the barriered patterns (`readshare`, `migratory`, `paging`,
/// `faulted`, `xmm`): a plan of passes over a fixed page order.
pub struct Sweep {
    rec: Rc<RefCell<Recorder>>,
    plan: Vec<Item>,
    /// Virtual pages in visiting order (seeded).
    order: Vec<u64>,
    item: usize,
    pos: usize,
    /// Sub-step of [`Op::Update`]: 0 touch, 1 read, 2 write.
    sub: u8,
    issued: Option<Issued>,
}

impl Sweep {
    /// A task following `plan` over `order`.
    pub fn new(rec: Rc<RefCell<Recorder>>, plan: Vec<Item>, order: Vec<u64>) -> Sweep {
        Sweep {
            rec,
            plan,
            order,
            item: 0,
            pos: 0,
            sub: 0,
            issued: None,
        }
    }

    /// Accesses (`Read`, `Write`, `Touch`) the plan issues in total.
    pub fn accesses(plan: &[Item], pages: usize) -> u64 {
        plan.iter()
            .map(|it| match it {
                Item::Barrier(_) => 0,
                Item::Pass { op: Op::Update, .. } => 3 * pages as u64,
                Item::Pass { .. } => pages as u64,
            })
            .sum()
    }

    fn next(&mut self, env: &TaskEnv) -> Step {
        loop {
            let Some(item) = self.plan.get(self.item) else {
                return Step::Done;
            };
            match *item {
                Item::Barrier(id) => {
                    self.item += 1;
                    return Step::Barrier(id);
                }
                Item::Pass {
                    op,
                    turn,
                    expect_turn,
                } => {
                    let Some(&va_page) = self.order.get(self.pos) else {
                        self.item += 1;
                        self.pos = 0;
                        continue;
                    };
                    let expect = expect_turn.map_or(0, |t| stamp(t, va_page));
                    let (step, expect) = match (op, self.sub) {
                        (Op::Write, _) | (Op::Update, 2) => (
                            Step::Write {
                                va_page,
                                value: stamp(turn, va_page),
                            },
                            None,
                        ),
                        (Op::Read, _) | (Op::Update, 1) => (Step::Read { va_page }, Some(expect)),
                        (Op::Update, _) => (
                            Step::Touch {
                                va_page,
                                access: Access::Write,
                            },
                            None,
                        ),
                    };
                    if op == Op::Update && self.sub < 2 {
                        self.sub += 1;
                    } else {
                        self.sub = 0;
                        self.pos += 1;
                    }
                    self.issued = Some(Issued {
                        at: env.now,
                        expect,
                    });
                    return step;
                }
            }
        }
    }
}

impl Program for Sweep {
    fn step(&mut self, env: &mut TaskEnv) -> Step {
        let rec = Rc::clone(&self.rec);
        let mut rec = rec.borrow_mut();
        let timed = rec.enter();
        settle(&mut rec, &mut self.issued, env);
        let step = self.next(env);
        rec.exit(timed);
        step
    }
}

/// A task of the `tenants` mix: a pre-drawn script of accesses with a fixed
/// think time between them. Reads are not checked (the mix is racy by
/// design).
pub struct Tenant {
    rec: Rc<RefCell<Recorder>>,
    /// `va_page << 1 | is_write`, in issue order.
    script: Vec<u32>,
    pos: usize,
    think: Dur,
    think_pending: bool,
    issued: Option<Issued>,
}

impl Tenant {
    /// A task replaying `script`.
    pub fn new(rec: Rc<RefCell<Recorder>>, script: Vec<u32>, think: Dur) -> Tenant {
        Tenant {
            rec,
            script,
            pos: 0,
            think,
            think_pending: false,
            issued: None,
        }
    }

    /// Encodes one scripted access.
    pub fn encode(va_page: u32, write: bool) -> u32 {
        va_page << 1 | write as u32
    }
}

impl Program for Tenant {
    fn step(&mut self, env: &mut TaskEnv) -> Step {
        let rec = Rc::clone(&self.rec);
        let mut rec = rec.borrow_mut();
        let timed = rec.enter();
        settle(&mut rec, &mut self.issued, env);
        let step = if self.think_pending {
            self.think_pending = false;
            Step::Compute(self.think)
        } else if let Some(&op) = self.script.get(self.pos) {
            self.pos += 1;
            self.think_pending = true;
            self.issued = Some(Issued {
                at: env.now,
                expect: None,
            });
            let va_page = (op >> 1) as u64;
            if op & 1 == 1 {
                Step::Write {
                    va_page,
                    value: self.pos as u64,
                }
            } else {
                Step::Read { va_page }
            }
        } else {
            Step::Done
        };
        rec.exit(timed);
        step
    }
}

/// A task of `eventloop`: compute bursts and nothing else, so every
/// simulator event it causes is a bare resume. It has no accesses; its
/// "operations" are the bursts, and the stall it reports is the simulated
/// duration of every [`Spin::SAMPLE_EVERY`]-th one (burst plus whatever the
/// task driver added), so the workload still has a latency distribution.
///
/// One `step` of this task is one 90 ns simulator event, so it touches the
/// shared [`Recorder`] only at the sampled bursts and keeps its own step
/// count in between: borrowing it on every step was a tenth of `run_s`.
pub struct Spin {
    rec: Rc<RefCell<Recorder>>,
    /// Burst lengths, cycled; one table shared by all tasks, so that 512
    /// generators' state stays in the first-level cache.
    bursts: Rc<[Dur]>,
    /// Where in the table this task starts.
    phase: u32,
    /// Added to every burst of this task: tasks drift apart.
    skew: Dur,
    left: u32,
    issued: Option<Issued>,
    /// `step` calls not yet added to the recorder's count.
    unreported: u32,
    /// Copy of [`Recorder::time_steps`].
    time_steps: bool,
}

impl Spin {
    /// One burst in this many is recorded: sorting all 16.8 M would cost
    /// more host time than the run.
    pub const SAMPLE_EVERY: u32 = 32;

    /// A task issuing `steps` bursts drawn cyclically from `bursts`,
    /// starting at `phase`, each lengthened by `skew`. `steps` is a multiple
    /// of [`Spin::SAMPLE_EVERY`], so that every burst is accounted to
    /// exactly one sample.
    pub fn new(
        rec: Rc<RefCell<Recorder>>,
        bursts: Rc<[Dur]>,
        phase: u32,
        skew: Dur,
        steps: u32,
    ) -> Spin {
        assert!(!bursts.is_empty() && steps.is_multiple_of(Spin::SAMPLE_EVERY));
        let time_steps = rec.borrow().time_steps;
        Spin {
            rec,
            bursts,
            phase,
            skew,
            left: steps,
            issued: None,
            unreported: 0,
            time_steps,
        }
    }
}

impl Program for Spin {
    fn step(&mut self, env: &mut TaskEnv) -> Step {
        self.unreported += 1;
        // Half-way between two sampled bursts: a body like most.
        let timed = self.time_steps && self.left % Spin::SAMPLE_EVERY == Spin::SAMPLE_EVERY / 2;
        let started = timed.then(clock::ticks);
        if self.issued.is_some() || self.left == 0 {
            let mut rec = self.rec.borrow_mut();
            if self.issued.is_some() {
                settle(&mut rec, &mut self.issued, env);
                rec.completed += Spin::SAMPLE_EVERY as u64 - 1;
            }
            rec.steps += std::mem::take(&mut self.unreported) as u64;
        }
        let step = if self.left == 0 {
            Step::Done
        } else {
            self.left -= 1;
            if self.left.is_multiple_of(Spin::SAMPLE_EVERY) {
                self.issued = Some(Issued {
                    at: env.now,
                    expect: None,
                });
            }
            let at = (self.left + self.phase) as usize % self.bursts.len();
            Step::Compute(self.bursts[at] + self.skew)
        };
        if started.is_some() {
            self.rec.borrow_mut().exit(started);
        }
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machvm::TaskId;
    use svmsim::NodeId;

    fn env(now_ns: u64, last_read: Option<u64>) -> TaskEnv {
        TaskEnv {
            task: TaskId(1),
            node: NodeId(0),
            now: Time::from_nanos(now_ns),
            last_read,
        }
    }

    #[test]
    fn rng_is_seeded_and_lanes_differ() {
        let draw = |mut r: Rng| (0..8).map(|_| r.next_u64()).collect::<Vec<_>>();
        assert_eq!(draw(Rng::new(1996)), draw(Rng::new(1996)));
        assert_ne!(draw(Rng::new(1996)), draw(Rng::new(777)));
        let base = Rng::new(1996);
        assert_ne!(draw(base.fork(0)), draw(base.fork(1)));
        let mut r = Rng::new(5);
        assert!((0..1000).all(|_| r.below(7) < 7));
        let mut v: Vec<u32> = (0..64).collect();
        r.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..64).collect::<Vec<_>>());
        assert_ne!(v, s);
    }

    #[test]
    fn zipf_concentrates_on_low_ranks() {
        let z = Zipf::new(100, 1.1);
        let mut r = Rng::new(42);
        let head = (0..2000).filter(|_| z.sample(&mut r) < 10).count();
        assert!(head > 1000, "top 10 ranks drew {head} of 2000");
    }

    #[test]
    fn sweep_measures_stall_and_checks_reads() {
        let rec = Recorder::shared(16, false);
        let plan = vec![
            Item::Pass {
                op: Op::Write,
                turn: 0,
                expect_turn: None,
            },
            Item::Barrier(0),
            Item::Pass {
                op: Op::Read,
                turn: 0,
                expect_turn: Some(0),
            },
        ];
        assert_eq!(Sweep::accesses(&plan, 2), 4);
        let mut p = Sweep::new(Rc::clone(&rec), plan, vec![5, 6]);
        assert!(matches!(
            p.step(&mut env(0, None)),
            Step::Write { va_page: 5, .. }
        ));
        // The write stalled 700 ns.
        assert!(matches!(
            p.step(&mut env(700, None)),
            Step::Write { va_page: 6, .. }
        ));
        // The second write hit: no stall sample.
        assert!(matches!(p.step(&mut env(700, None)), Step::Barrier(0)));
        assert!(matches!(
            p.step(&mut env(900, None)),
            Step::Read { va_page: 5 }
        ));
        // Right value for page 5, wrong one for page 6.
        assert!(matches!(
            p.step(&mut env(1_000, Some(stamp(0, 5)))),
            Step::Read { va_page: 6 }
        ));
        assert!(matches!(
            p.step(&mut env(1_000, Some(stamp(0, 5)))),
            Step::Done
        ));
        let r = rec.borrow();
        assert_eq!(r.stalls, vec![700, 100]);
        assert_eq!(r.completed, 4);
        assert_eq!(r.bad_reads, 1);
        assert_eq!(r.steps, 6);
    }

    #[test]
    fn update_is_touch_read_write_and_expects_the_zero_page_first() {
        let rec = Recorder::shared(4, false);
        let plan = vec![Item::Pass {
            op: Op::Update,
            turn: 3,
            expect_turn: None,
        }];
        assert_eq!(Sweep::accesses(&plan, 1), 3);
        let mut p = Sweep::new(Rc::clone(&rec), plan, vec![9]);
        assert!(matches!(
            p.step(&mut env(0, None)),
            Step::Touch {
                va_page: 9,
                access: Access::Write
            }
        ));
        assert!(matches!(
            p.step(&mut env(50, None)),
            Step::Read { va_page: 9 }
        ));
        match p.step(&mut env(50, Some(0))) {
            Step::Write { va_page: 9, value } => assert_eq!(value, stamp(3, 9)),
            _ => panic!("expected the write of the update"),
        }
        assert!(matches!(p.step(&mut env(50, Some(0))), Step::Done));
        let r = rec.borrow();
        assert_eq!((r.completed, r.bad_reads), (3, 0));
        assert_eq!(r.stalls, vec![50]);
    }

    #[test]
    fn tenant_alternates_access_and_think() {
        let rec = Recorder::shared(4, false);
        let script = vec![Tenant::encode(3, false), Tenant::encode(4, true)];
        let mut p = Tenant::new(Rc::clone(&rec), script, Dur::from_nanos(200));
        assert!(matches!(
            p.step(&mut env(0, None)),
            Step::Read { va_page: 3 }
        ));
        assert!(matches!(p.step(&mut env(10, None)), Step::Compute(_)));
        assert!(matches!(
            p.step(&mut env(210, None)),
            Step::Write { va_page: 4, .. }
        ));
        assert!(matches!(p.step(&mut env(210, None)), Step::Compute(_)));
        assert!(matches!(p.step(&mut env(410, None)), Step::Done));
        let r = rec.borrow();
        assert_eq!(r.stalls, vec![10]);
        assert_eq!(r.completed, 2);
    }

    #[test]
    fn spin_samples_one_burst_in_thirty_two() {
        let rec = Recorder::shared(4, false);
        let bursts: Rc<[Dur]> = Rc::new([Dur::from_nanos(300), Dur::from_nanos(700)]);
        let mut p = Spin::new(Rc::clone(&rec), bursts, 1, Dur::from_nanos(5), 64);
        let mut now = 0;
        loop {
            match p.step(&mut env(now, None)) {
                Step::Compute(d) => now += d.as_nanos(),
                Step::Done => break,
                _ => panic!("spin only computes"),
            }
        }
        let r = rec.borrow();
        // Bursts alternate 305 and 705 ns; the sampled ones are the 32nd
        // and the 64th, both at an odd `left + phase`: 700 ns plus the skew.
        assert_eq!(r.stalls, vec![705, 705]);
        assert_eq!(r.completed, 64);
        assert_eq!(r.steps, 65);
    }

    #[test]
    fn step_timing_is_sampled() {
        let rec = Recorder::shared(0, true);
        let bursts: Rc<[Dur]> = Rc::new([Dur::from_nanos(1)]);
        let mut p = Spin::new(Rc::clone(&rec), bursts, 0, Dur::ZERO, 256);
        for _ in 0..128 {
            p.step(&mut env(0, None));
        }
        assert_eq!(rec.borrow().timed_steps, 128 / Recorder::TIME_EVERY);
    }
}
