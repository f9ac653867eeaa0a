//! Delayed-copy semantics across remote forks (paper §3.7), property-based.
//!
//! The invariant: a forked child observes exactly the parent's memory as of
//! the fork (the settle point), no matter how the parent and child write
//! afterwards, how long the fork chain is, or in which order pages are
//! touched. Push operations protect snapshots from later parent writes;
//! pull operations materialize untouched pages across arbitrary chains.

use cluster::{ManagerKind, Program, Ssi, Step, TaskEnv};
use machvm::{Access, Inherit, TaskId};
use proptest::prelude::*;
use svmsim::NodeId;

const REGION_PAGES: u32 = 8;

/// Script for one chain link: optional pre-fork writes, fork (if not last),
/// post-fork writes, then verify the values inherited at fork time.
#[derive(Clone, Debug)]
pub struct LinkPlan {
    /// Pages this link writes *before* forking the next link.
    pub pre_writes: Vec<u32>,
    /// Pages this link writes *after* the fork returned.
    pub post_writes: Vec<u32>,
}

/// What one link runs: execute the plan, verify inherited values.
struct Link {
    depth: u16,
    plans: Vec<LinkPlan>,
    /// Value each page must have inherited (computed by the reference).
    expect: Vec<u64>,
    stage: u8,
    idx: usize,
    fork_sent: bool,
}

fn write_stamp(depth: u16, page: u32, post: bool) -> u64 {
    0x1_0000 + (depth as u64) * 0x100 + page as u64 * 4 + if post { 1 } else { 0 }
}

impl Program for Link {
    fn step(&mut self, env: &mut TaskEnv) -> Step {
        let plan = self.plans[self.depth as usize].clone();
        let last = self.depth as usize == self.plans.len() - 1;
        loop {
            match self.stage {
                // Verify inherited contents first (before own writes).
                0 => {
                    if self.idx < REGION_PAGES as usize {
                        let p = self.idx;
                        self.idx += 1;
                        self.stage = 1;
                        return Step::Read { va_page: p as u64 };
                    }
                    self.stage = 2;
                    self.idx = 0;
                }
                1 => {
                    let p = self.idx - 1;
                    if self.depth > 0 {
                        let got = env.last_read.expect("read done");
                        assert_eq!(
                            got, self.expect[p],
                            "depth {} page {p}: inherited {got:#x}, expected {:#x}",
                            self.depth, self.expect[p]
                        );
                    }
                    self.stage = 0;
                }
                // Pre-fork writes.
                2 => {
                    if self.idx < plan.pre_writes.len() {
                        let p = plan.pre_writes[self.idx];
                        self.idx += 1;
                        return Step::Write {
                            va_page: p as u64,
                            value: write_stamp(self.depth, p, false),
                        };
                    }
                    self.stage = 3;
                    self.idx = 0;
                }
                // Fork the next link.
                3 => {
                    if !last && !self.fork_sent {
                        self.fork_sent = true;
                        // The child inherits what this link sees right now.
                        let mut child_expect = self.expect.clone();
                        if self.depth == 0 {
                            // Root's pre-write state is the baseline.
                            child_expect = vec![0; REGION_PAGES as usize];
                        }
                        for p in &plan.pre_writes {
                            child_expect[*p as usize] = write_stamp(self.depth, *p, false);
                        }
                        return Step::Fork {
                            child: TaskId(500 + self.depth as u32 + 1),
                            node: NodeId(env.node.0 + 1),
                            program: Box::new(Link {
                                depth: self.depth + 1,
                                plans: self.plans.clone(),
                                expect: child_expect,
                                stage: 0,
                                idx: 0,
                                fork_sent: false,
                            }),
                        };
                    }
                    self.stage = 4;
                    self.idx = 0;
                }
                // Post-fork writes (must NOT leak into the child).
                4 => {
                    if self.idx < plan.post_writes.len() {
                        let p = plan.post_writes[self.idx];
                        self.idx += 1;
                        return Step::Write {
                            va_page: p as u64,
                            value: write_stamp(self.depth, p, true),
                        };
                    }
                    return Step::Done;
                }
                _ => unreachable!(),
            }
        }
    }
}

/// Wait: the child's expect must account for inherited values, not only the
/// parent's own pre-writes. The parent computes it incrementally: its own
/// view is `expect` overlaid with its pre-writes; that is what the child
/// inherits (done in stage 3 above — except depth 0 starts from zeros).
fn run_chain(kind: ManagerKind, plans: Vec<LinkPlan>) {
    let nodes = plans.len() as u16;
    let mut ssi = Ssi::new(nodes.max(2), kind, 77);
    let root = ssi.alloc_task();
    {
        let n = ssi.world.node_mut(NodeId(0));
        n.vm.create_task(root);
        let obj = n.vm.create_object(REGION_PAGES, machvm::Backing::Anonymous);
        n.vm.map_object(root, 0, REGION_PAGES, obj, 0, Access::Write, Inherit::Copy);
    }
    ssi.finalize();
    let now = ssi.world.now();
    ssi.world.node_mut(NodeId(0)).install_task(
        root,
        Box::new(Link {
            depth: 0,
            plans,
            expect: vec![0; REGION_PAGES as usize],
            stage: 2, // the root skips inherited verification
            idx: 0,
            fork_sent: false,
        }),
        now,
    );
    ssi.world.post(now, NodeId(0), cluster::Msg::Resume(root));
    ssi.run(500_000_000).expect("chain quiesces");
    assert!(ssi.all_done(), "all links finish");
    match kind {
        ManagerKind::Asvm(_) => cluster::check_asvm_invariants(&ssi),
        ManagerKind::Xmm { .. } => cluster::check_xmm_invariants(&ssi),
    }
}

fn plan_strategy(links: usize) -> impl Strategy<Value = Vec<LinkPlan>> {
    prop::collection::vec(
        (
            prop::collection::vec(0..REGION_PAGES, 0..4),
            prop::collection::vec(0..REGION_PAGES, 0..4),
        )
            .prop_map(|(pre_writes, post_writes)| LinkPlan {
                pre_writes,
                post_writes,
            }),
        links,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn asvm_chain_snapshots_hold(plans in plan_strategy(4)) {
        run_chain(ManagerKind::asvm(), plans);
    }

    #[test]
    fn xmm_chain_snapshots_hold(plans in plan_strategy(3)) {
        run_chain(ManagerKind::xmm(), plans);
    }
}

/// The two minimal failing chains the real `proptest` crate once shrank
/// to and saved in `inheritance.proptest-regressions` — a file the
/// vendored stand-in never reads, so they live on as an explicit test:
/// four links where only post-fork writes happen, deep in the chain, on
/// pages no ancestor ever materialised.
#[test]
fn post_fork_writes_deep_in_a_chain_regressions() {
    let chain = |post_writes: [&[u32]; 4]| -> Vec<LinkPlan> {
        let link = |post: &[u32]| LinkPlan {
            pre_writes: vec![],
            post_writes: post.to_vec(),
        };
        post_writes.map(link).to_vec()
    };
    for plans in [
        chain([&[], &[], &[0], &[]]),
        chain([&[], &[5, 0, 7], &[7], &[]]),
    ] {
        run_chain(ManagerKind::asvm(), plans.clone());
        run_chain(ManagerKind::xmm(), plans);
    }
}

#[test]
fn post_fork_writes_do_not_leak() {
    // Root writes everything, forks, rewrites everything; child must see
    // only the pre-fork values — the hardest push-path case.
    let plans = vec![
        LinkPlan {
            pre_writes: (0..REGION_PAGES).collect(),
            post_writes: (0..REGION_PAGES).collect(),
        },
        LinkPlan {
            pre_writes: vec![],
            post_writes: vec![],
        },
    ];
    run_chain(ManagerKind::asvm(), plans.clone());
    run_chain(ManagerKind::xmm(), plans);
}

#[test]
fn every_link_writes_every_page() {
    let plans: Vec<LinkPlan> = (0..4)
        .map(|_| LinkPlan {
            pre_writes: (0..REGION_PAGES).collect(),
            post_writes: (0..REGION_PAGES).collect(),
        })
        .collect();
    run_chain(ManagerKind::asvm(), plans.clone());
    run_chain(ManagerKind::xmm(), plans);
}
