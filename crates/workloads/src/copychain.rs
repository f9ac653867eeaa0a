//! Inherited-memory fault probe (Figure 11 of the paper).
//!
//! A task initializes a region of memory (128 KB), spawns a chain of copies
//! of that region across a defined number of nodes (each task forks the
//! next onto the next node), and the last task in the chain faults in all
//! pages of the region. The paper models the resulting per-fault latency as
//! `lb + n * la`: a base cost plus a per-hop forwarding cost — ~0.48 ms/hop
//! for ASVM's pull operations versus ~4.3 ms/hop for XMM's blocking
//! internal-pager chain.

use cluster::{ManagerKind, Program, Step, TaskEnv};
use machvm::{Access, Inherit, TaskId};
use svmsim::{NodeId, Time};

use crate::scenario::{Outcome, Scenario};

/// One copy-chain experiment.
#[derive(Clone, Copy, Debug)]
pub struct CopyChainSpec {
    /// Which manager runs the cluster.
    pub kind: ManagerKind,
    /// Number of fork hops (1 = plain remote fork; the paper sweeps 1–8+).
    pub chain_len: u16,
    /// Region size in pages (128 KB = 16 pages in the paper).
    pub region_pages: u32,
}

/// The chain program: intermediate tasks fork the next link; the last task
/// reads every page of the inherited region.
struct Chainer {
    depth: u16,
    chain_len: u16,
    region_pages: u32,
    next_page: u32,
    forked: bool,
}

impl Chainer {
    fn new(depth: u16, chain_len: u16, region_pages: u32) -> Chainer {
        Chainer {
            depth,
            chain_len,
            region_pages,
            next_page: 0,
            forked: false,
        }
    }
}

impl Program for Chainer {
    fn step(&mut self, env: &mut TaskEnv) -> Step {
        if self.depth < self.chain_len {
            if !self.forked {
                self.forked = true;
                let child = TaskId(1000 + self.depth as u32 + 1);
                return Step::Fork {
                    child,
                    node: NodeId(env.node.0 + 1),
                    program: Box::new(Chainer::new(
                        self.depth + 1,
                        self.chain_len,
                        self.region_pages,
                    )),
                };
            }
            return Step::Done;
        }
        // Last link: fault in all pages of the region.
        if self.next_page < self.region_pages {
            let p = self.next_page;
            self.next_page += 1;
            return Step::Read { va_page: p as u64 };
        }
        Step::Done
    }
}

/// The root program: initialize the region, then start the chain.
struct Root {
    region_pages: u32,
    next_page: u32,
    chain_len: u16,
    forked: bool,
}

impl Program for Root {
    fn step(&mut self, _env: &mut TaskEnv) -> Step {
        if self.next_page < self.region_pages {
            let p = self.next_page;
            self.next_page += 1;
            return Step::Write {
                va_page: p as u64,
                value: 0xC0FFEE00 + p as u64,
            };
        }
        if !self.forked {
            self.forked = true;
            return Step::Fork {
                child: TaskId(1001),
                node: NodeId(1),
                program: Box::new(Chainer::new(1, self.chain_len, self.region_pages)),
            };
        }
        Step::Done
    }
}

/// Runs one copy-chain experiment; verifies the last task observed the
/// initializer's data. [`Outcome::mean_fault`] is the mean latency of
/// the last task's page faults.
pub fn copy_chain_probe(spec: CopyChainSpec) -> Outcome {
    let sc = Scenario::new(spec.kind, (spec.chain_len + 1).max(2), 11);
    let mut ssi = sc.build();
    let root_task = ssi.alloc_task();

    // The root's region is node-private anonymous memory with copy
    // inheritance — the fork machinery turns it into distributed delayed
    // copies (ASVM) or internal-pager snapshots (XMM).
    {
        let n = ssi.world.node_mut(NodeId(0));
        n.vm.create_task(root_task);
        let obj =
            n.vm.create_object(spec.region_pages, machvm::Backing::Anonymous);
        n.vm.map_object(
            root_task,
            0,
            spec.region_pages,
            obj,
            0,
            Access::Write,
            Inherit::Copy,
        );
    }
    ssi.finalize();

    ssi.spawn(
        NodeId(0),
        root_task,
        Box::new(Root {
            region_pages: spec.region_pages,
            next_page: 0,
            chain_len: spec.chain_len,
            forked: false,
        }),
    );
    ssi.run(20_000_000).expect("copy chain quiesces");

    // Verify: the last task's pages carry the initializer's stamps.
    let last = ssi.node(NodeId(spec.chain_len));
    let last_task = TaskId(1000 + spec.chain_len as u32);
    for p in 0..spec.region_pages {
        assert_eq!(
            last.vm.peek_task_page(last_task, p as u64),
            Some(0xC0FFEE00 + p as u64),
            "inherited page {p} must reach the last task intact"
        );
    }
    sc.finish(ssi, Time::ZERO).expect_completed("copy chain")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asvm_chain_delivers_correct_data() {
        let r = copy_chain_probe(CopyChainSpec {
            kind: ManagerKind::asvm(),
            chain_len: 3,
            region_pages: 16,
        });
        assert!(r.faults() >= 16);
    }

    #[test]
    fn xmm_chain_delivers_correct_data() {
        let r = copy_chain_probe(CopyChainSpec {
            kind: ManagerKind::xmm(),
            chain_len: 3,
            region_pages: 16,
        });
        assert!(r.faults() >= 16);
    }

    #[test]
    fn asvm_chain_cost_grows_slowly() {
        let short = copy_chain_probe(CopyChainSpec {
            kind: ManagerKind::asvm(),
            chain_len: 1,
            region_pages: 16,
        });
        let long = copy_chain_probe(CopyChainSpec {
            kind: ManagerKind::asvm(),
            chain_len: 8,
            region_pages: 16,
        });
        let per_hop = (long.mean_fault_ms() - short.mean_fault_ms()) / 7.0;
        assert!(
            per_hop < 2.0,
            "ASVM per-hop cost {per_hop} ms too high (paper: ~0.48 ms)"
        );
    }
}
