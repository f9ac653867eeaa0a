//! Synthetic shared-memory access patterns.
//!
//! Reusable program builders for the access shapes that stress different
//! parts of a DSM system: migratory ownership (write tokens hopping
//! between nodes), producer/consumer pairs, read-mostly hotspots and
//! uniform random mixes. The forwarding ablation and several integration
//! tests are built from these.

use cluster::{Program, Step, TaskEnv};
use svmsim::{Dur, NodeId, Rng, Time};

use crate::scenario::{Outcome, Scenario};

/// Which synthetic pattern to run.
#[derive(Clone, Copy, Debug)]
pub enum Pattern {
    /// Every node in turn writes every page (barrier-sequenced rounds):
    /// maximal ownership migration.
    Migratory {
        /// Rounds of the rotation.
        rounds: u32,
    },
    /// Node 0 writes, everyone else reads, each round: one writer fanning
    /// out to many readers.
    ProducerConsumer {
        /// Production rounds.
        rounds: u32,
    },
    /// All nodes read a fixed hot set repeatedly; one node occasionally
    /// writes it.
    Hotspot {
        /// Read rounds per node.
        rounds: u32,
        /// A write is injected every `write_every` rounds.
        write_every: u32,
    },
    /// Uniformly random reads/writes (seeded by the scenario), no
    /// barriers: raw protocol churn.
    Uniform {
        /// Operations per node.
        ops: u32,
        /// Fraction of writes, in percent.
        write_pct: u32,
    },
    /// Every node sequentially reads every page each round (barriered
    /// rounds): the file-scan shape — a pure stride-1 read stream, the
    /// prefetch engine's best case.
    Scan {
        /// Scan passes over the object.
        rounds: u32,
    },
    /// Round `r`: node `r % nodes` writes the whole region, then node
    /// `(r+1) % nodes` streams the first `read_pages` of it back in
    /// (barriered phases) — a copy chain whose reads always target
    /// remotely-owned dirty pages. With `read_pages` well short of the
    /// region, the reader's speculative window overshoots its interest
    /// and the next round's writer invalidates the overshoot unread —
    /// the prefetch-waste counter-case.
    Chain {
        /// Hand-off rounds.
        rounds: u32,
        /// Pages the reader consumes per round (clamped to the region).
        read_pages: u32,
    },
}

impl Pattern {
    /// Total memory accesses the pattern performs across all nodes — the
    /// analytic denominator of faults-per-kilo-access (counting accesses
    /// in the simulator would itself perturb nothing, but the closed form
    /// documents the shape).
    pub fn accesses(&self, nodes: u16, pages: u32) -> u64 {
        let (n, p) = (nodes as u64, pages as u64);
        match *self {
            // Each turn one node writes every page; nodes*rounds turns.
            Pattern::Migratory { rounds } => rounds as u64 * n * p,
            // Per round: one producer writes, nodes-1 consumers read.
            Pattern::ProducerConsumer { rounds } => rounds as u64 * p * n,
            Pattern::Hotspot { rounds, .. } => rounds as u64 * n * p,
            Pattern::Uniform { ops, .. } => ops as u64 * n,
            Pattern::Scan { rounds } => rounds as u64 * n * p,
            Pattern::Chain { rounds, read_pages } => {
                rounds as u64 * (p + u64::from(read_pages.min(pages)))
            }
        }
    }
}

struct PatternProgram {
    me: u16,
    nodes: u16,
    pages: u32,
    pattern: Pattern,
    round: u32,
    idx: u32,
    barrier: u32,
    phase: u8,
    rng: Rng,
    /// Per-touch compute time ([`Scenario::think`]); `Dur::ZERO` keeps
    /// the classic back-to-back access stream.
    think: Dur,
    think_pending: bool,
}

impl PatternProgram {
    /// Marks a memory touch so the next step models `think` of compute
    /// before the following access.
    fn touch(&mut self, s: Step) -> Step {
        if self.think > Dur::ZERO {
            self.think_pending = true;
        }
        s
    }

    /// The next page of a `count`-page phase, while this node `takes_part`
    /// in it and pages remain.
    fn next_page(&mut self, takes_part: bool, count: u32) -> Option<u64> {
        (takes_part && self.idx < count).then(|| {
            self.idx += 1;
            (self.idx - 1) as u64
        })
    }

    fn read(&mut self, va_page: u64) -> Step {
        self.touch(Step::Read { va_page })
    }

    fn write(&mut self, va_page: u64, value: u64) -> Step {
        self.touch(Step::Write { va_page, value })
    }

    /// A value that names the round and page that wrote it.
    fn stamp(&self, page: u64) -> u64 {
        (self.round as u64) << 8 | page
    }

    /// Closes the phase: everyone meets at the next barrier.
    fn end_phase(&mut self) -> Step {
        self.idx = 0;
        self.barrier += 1;
        Step::Barrier(self.barrier - 1)
    }
}

impl Program for PatternProgram {
    fn step(&mut self, _env: &mut TaskEnv) -> Step {
        if self.think_pending {
            self.think_pending = false;
            return Step::Compute(self.think);
        }
        let (me, nodes, pages) = (self.me as u32, self.nodes as u32, self.pages);
        let rounds = match self.pattern {
            // Round-robin turns: every node writes once per rotation.
            Pattern::Migratory { rounds } => rounds * nodes,
            Pattern::ProducerConsumer { rounds }
            | Pattern::Hotspot { rounds, .. }
            | Pattern::Scan { rounds }
            | Pattern::Chain { rounds, .. } => rounds,
            Pattern::Uniform { ops, .. } => ops,
        };
        if self.round >= rounds {
            return Step::Done;
        }
        match self.pattern {
            Pattern::Migratory { .. } => {
                // In turn r, node (r % nodes) writes all pages; everyone
                // barriers between turns.
                if let Some(p) = self.next_page(self.round % nodes == me, pages) {
                    return self.write(p, self.stamp(p));
                }
                self.round += 1;
            }
            Pattern::ProducerConsumer { .. } | Pattern::Chain { .. } => {
                // Two barriered phases per round: the round's writer
                // writes the region, then its readers stream it back.
                let (writer, reads, read_pages) = match self.pattern {
                    Pattern::Chain { read_pages, .. } => (
                        self.round % nodes,
                        (self.round + 1) % nodes == me,
                        read_pages.min(pages),
                    ),
                    _ => (0, me != 0, pages),
                };
                if self.phase == 0 {
                    if let Some(p) = self.next_page(writer == me, pages) {
                        return self.write(p, self.stamp(p));
                    }
                    self.phase = 1;
                } else {
                    if let Some(p) = self.next_page(reads, read_pages) {
                        return self.read(p);
                    }
                    self.phase = 0;
                    self.round += 1;
                }
            }
            Pattern::Hotspot { write_every, .. } => {
                if let Some(p) = self.next_page(true, pages) {
                    let writer_round = self.round % write_every == write_every - 1;
                    return if writer_round && me == 0 {
                        self.write(p, self.round as u64)
                    } else {
                        self.read(p)
                    };
                }
                self.round += 1;
            }
            Pattern::Scan { .. } => {
                if let Some(p) = self.next_page(true, pages) {
                    return self.read(p);
                }
                self.round += 1;
            }
            Pattern::Uniform { write_pct, .. } => {
                self.round += 1;
                let p = self.rng.range(0..pages as u64);
                return if self.rng.range(0..100) < write_pct as u64 {
                    self.write(p, self.round as u64)
                } else {
                    self.read(p)
                };
            }
        }
        self.end_phase()
    }
}

/// Runs `pattern` over one shared `pages`-page region, one task per node
/// of `sc`, and drains the run. Stranded tasks (legal under an active
/// fault plan) are reported through [`Outcome::completed`], not asserted.
pub fn run_pattern(sc: &Scenario, pages: u32, pattern: Pattern) -> Outcome {
    let nodes = sc.machine.compute_nodes;
    let mut ssi = sc.build();
    let (_, tasks) = Scenario::shared_region(&mut ssi, nodes, pages, false);
    ssi.set_barrier_parties(nodes as u32);
    for (i, t) in tasks.iter().enumerate() {
        ssi.spawn(
            NodeId(i as u16),
            *t,
            Box::new(PatternProgram {
                me: i as u16,
                nodes,
                pages,
                pattern,
                round: 0,
                idx: 0,
                barrier: 0,
                phase: 0,
                rng: Rng::seeded(sc.seed ^ (i as u64) << 32),
                think: sc.think,
                think_pending: false,
            }),
        );
    }
    ssi.run(u64::MAX / 2).expect("pattern quiesces");
    sc.finish(ssi, Time::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ManagerKind;

    fn healthy(kind: ManagerKind, nodes: u16, pages: u32, pattern: Pattern) -> Outcome {
        run_pattern(&Scenario::new(kind, nodes, 17), pages, pattern).expect_completed("pattern")
    }

    #[test]
    fn migratory_pattern_migrates_ownership() {
        let out = healthy(ManagerKind::asvm(), 4, 8, Pattern::Migratory { rounds: 3 });
        // Each turn after the first re-faults the pages at the new writer.
        assert!(out.faults() >= 8 * 3, "faults: {}", out.faults());
        assert!(out.mean_fault_ms() > 0.5);
    }

    #[test]
    fn producer_consumer_fans_out_reads() {
        let out = healthy(
            ManagerKind::asvm(),
            4,
            8,
            Pattern::ProducerConsumer { rounds: 3 },
        );
        // 3 consumers x 8 pages x 3 rounds of reads (plus write upgrades).
        assert!(out.faults() >= 72, "faults: {}", out.faults());
    }

    #[test]
    fn hotspot_reads_are_mostly_free_after_warmup() {
        let out = healthy(
            ManagerKind::asvm(),
            4,
            4,
            Pattern::Hotspot {
                rounds: 12,
                write_every: 6,
            },
        );
        // Reads hit after the first round except right after the writes:
        // far fewer faults than accesses (4 nodes x 4 pages x 12 rounds).
        assert!(out.faults() < 4 * 4 * 12 / 2, "faults: {}", out.faults());
    }

    #[test]
    fn uniform_pattern_is_coherent_under_both_managers() {
        // Barrier-free random churn: the rawest protocol stress in the
        // suite (it caught a queued-request starvation bug during
        // development). Several seeds, both managers.
        for seed in [5u64, 6, 7, 1996] {
            for kind in [ManagerKind::asvm(), ManagerKind::xmm()] {
                let out = run_pattern(
                    &Scenario::new(kind, 4, seed),
                    4,
                    Pattern::Uniform {
                        ops: 60,
                        write_pct: 30,
                    },
                )
                .expect_completed("uniform churn");
                assert!(out.faults() > 0);
                assert!(out.elapsed > Dur::ZERO);
            }
        }
    }

    #[test]
    fn uniform_churn_under_every_forwarding_config() {
        for cfg in [
            asvm::AsvmConfig::default(),
            asvm::AsvmConfig::fixed_distributed(),
            asvm::AsvmConfig::dynamic_only(),
            asvm::AsvmConfig::global_only(),
        ] {
            let out = run_pattern(
                &Scenario::new(ManagerKind::Asvm(cfg), 4, 11),
                4,
                Pattern::Uniform {
                    ops: 50,
                    write_pct: 40,
                },
            )
            .expect_completed("uniform churn");
            assert!(out.faults() > 0);
        }
    }
}
