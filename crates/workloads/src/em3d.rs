//! EM3D: three-dimensional electromagnetic wave propagation (Table 3).
//!
//! The paper's version (originally Split-C with active messages \[9\],
//! rewritten for shared-memory communication) iterates over a bipartite
//! graph: E cells are updated from the H cells they are connected to, then
//! vice versa. The graph is generated randomly with a user-specified
//! percentage (20 %) of the 6 edges per cell leading to a cell on a
//! different processing node; each cell occupies 224 bytes.
//!
//! Cells are distributed in blocks; remote edges target cells near the
//! block boundaries of the ring neighbours (the `window` parameter),
//! reflecting the spatial locality of a 3-D field decomposition. Each half
//! iteration a node (a) read-faults the remote boundary pages it consumes,
//! (b) write-faults its own pages (invalidating the neighbours' read
//! copies), (c) charges the floating-point update cost, and (d) barriers —
//! so the coherency traffic pattern that separates ASVM from XMM is
//! reproduced exactly, page for page.

use std::collections::BTreeSet;

use cluster::{ManagerKind, Program, Step, TaskEnv};
use machvm::Access;
use svmsim::{Dur, MachineConfig, NodeId, Rng};

use crate::scenario::{Outcome, Scenario};

/// Bytes per cell (fixed by the paper).
pub const CELL_BYTES: u64 = 224;

/// Floating-point cost per edge evaluation, calibrated so that the
/// sequential 64 000-cell, 100-iteration run takes the paper's 43.6 s:
/// 43.6 s / (100 iters × 2 phases × 64 000 cells × 6 edges) ≈ 0.568 µs.
pub const EDGE_COST: Dur = Dur::from_nanos(568);

/// One EM3D experiment.
#[derive(Clone, Copy, Debug)]
pub struct Em3dSpec {
    /// Which manager runs the cluster.
    pub kind: ManagerKind,
    /// Number of compute nodes.
    pub nodes: u16,
    /// Total number of cells (E + H).
    pub cells: u64,
    /// Edges per cell (6 in the paper).
    pub edges_per_cell: u32,
    /// Fraction of edges leading to a remote cell (0.20 in the paper).
    pub pct_remote: f64,
    /// Computation iterations (100 in the paper).
    pub iterations: u32,
    /// Locality window, in cells, for remote edge targets at block
    /// boundaries.
    pub window: u32,
    /// Workload generation seed.
    pub seed: u64,
    /// Use 32 MB nodes (the paper's sequential baseline for 64 000 cells).
    pub mem_32mb: bool,
}

impl Em3dSpec {
    /// The paper's parameters for a given manager/node-count/problem size.
    pub fn paper(kind: ManagerKind, nodes: u16, cells: u64) -> Em3dSpec {
        Em3dSpec {
            kind,
            nodes,
            cells,
            edges_per_cell: 6,
            pct_remote: 0.20,
            iterations: 100,
            window: 200,
            seed: 1996,
            mem_32mb: nodes == 1,
        }
    }

    /// Cells per page (8 KB pages, 224-byte cells).
    pub fn cells_per_page(&self) -> u64 {
        8192 / CELL_BYTES
    }

    /// Total region size in pages.
    pub fn region_pages(&self) -> u32 {
        self.cells.div_ceil(self.cells_per_page()) as u32
    }

    /// True if the combined user memory of the nodes can hold the data set
    /// (the paper omits configurations where it cannot).
    pub fn feasible(&self) -> bool {
        let per_node = if self.mem_32mb {
            25u64 << 20
        } else {
            9u64 << 20
        };
        self.cells * CELL_BYTES <= per_node * self.nodes as u64
    }
}

/// Per-node access pattern derived from the generated graph.
struct NodePattern {
    own_pages: Vec<u64>,
    remote_pages: Vec<u64>,
    compute_per_half: Dur,
}

fn build_patterns(spec: &Em3dSpec) -> Vec<NodePattern> {
    let mut rng = Rng::seeded(spec.seed);
    let n = spec.nodes as u64;
    let cpn = spec.cells / n;
    let mut out = Vec::new();
    for i in 0..n {
        let first_cell = i * cpn;
        let last_cell = if i == n - 1 {
            spec.cells
        } else {
            (i + 1) * cpn
        };
        let own_cells = last_cell - first_cell;
        let own_pages: BTreeSet<u64> = (first_cell * CELL_BYTES / 8192
            ..=(last_cell.saturating_sub(1)) * CELL_BYTES / 8192)
            .collect();
        // Remote references: pct_remote of all edge endpoints, targeted at
        // ring neighbours' block boundaries within the window.
        let mut remote_pages = BTreeSet::new();
        if n > 1 {
            let remote_refs =
                (own_cells as f64 * spec.edges_per_cell as f64 * spec.pct_remote) as u64;
            for _ in 0..remote_refs {
                let dir = rng.coin();
                let neighbour = if dir { (i + 1) % n } else { (i + n - 1) % n };
                let nb_first = neighbour * cpn;
                let nb_last = if neighbour == n - 1 {
                    spec.cells
                } else {
                    (neighbour + 1) * cpn
                };
                let nb_cells = nb_last - nb_first;
                let w = (spec.window as u64).min(nb_cells);
                // Bias toward the block edge facing us.
                let off = rng.range(0..w.max(1));
                let cell = if dir {
                    nb_first + off
                } else {
                    nb_last - 1 - off
                };
                let page = cell * CELL_BYTES / 8192;
                if !own_pages.contains(&page) {
                    remote_pages.insert(page);
                }
            }
        }
        let compute =
            Dur::from_nanos(own_cells * spec.edges_per_cell as u64 * EDGE_COST.as_nanos());
        out.push(NodePattern {
            own_pages: own_pages.into_iter().collect(),
            remote_pages: remote_pages.into_iter().collect(),
            compute_per_half: compute,
        });
    }
    out
}

/// The per-node EM3D program.
struct Em3dProgram {
    own_pages: Vec<u64>,
    remote_pages: Vec<u64>,
    compute_per_half: Dur,
    iterations: u32,
    // progress
    half: u32,
    idx: usize,
    stage: Stage,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    ReadRemote,
    WriteOwn,
    Compute,
    Barrier,
}

impl Program for Em3dProgram {
    fn step(&mut self, _env: &mut TaskEnv) -> Step {
        let total_halves = self.iterations * 2;
        loop {
            if self.half >= total_halves {
                return Step::Done;
            }
            match self.stage {
                Stage::ReadRemote => {
                    if self.idx < self.remote_pages.len() {
                        let p = self.remote_pages[self.idx];
                        self.idx += 1;
                        return Step::Touch {
                            va_page: p,
                            access: Access::Read,
                        };
                    }
                    self.stage = Stage::WriteOwn;
                    self.idx = 0;
                }
                Stage::WriteOwn => {
                    if self.idx < self.own_pages.len() {
                        let p = self.own_pages[self.idx];
                        self.idx += 1;
                        return Step::Touch {
                            va_page: p,
                            access: Access::Write,
                        };
                    }
                    self.stage = Stage::Compute;
                }
                Stage::Compute => {
                    self.stage = Stage::Barrier;
                    return Step::Compute(self.compute_per_half);
                }
                Stage::Barrier => {
                    let id = self.half;
                    self.half += 1;
                    self.idx = 0;
                    self.stage = Stage::ReadRemote;
                    return Step::Barrier(id);
                }
            }
        }
    }
}

/// Runs one EM3D experiment; the [`Outcome`] covers the computation
/// loop only (`elapsed`, `faults.completed`, `pageouts`, …).
///
/// The initialization phase (building the graph, first-touch population of
/// the region) is excluded from the measurement, as in the paper.
pub fn em3d_run(spec: Em3dSpec) -> Outcome {
    assert!(spec.feasible(), "configuration does not fit in memory");
    let machine = if spec.mem_32mb {
        MachineConfig::paragon_32mb(spec.nodes)
    } else {
        MachineConfig::paragon(spec.nodes)
    };
    let sc = Scenario::new(spec.kind, spec.nodes, spec.seed).machine(machine);
    let mut ssi = sc.build();
    let (_, tasks) = Scenario::shared_region(&mut ssi, spec.nodes, spec.region_pages(), false);
    ssi.set_barrier_parties(spec.nodes as u32);

    // Initialization phase: every node first-touches (writes) its own
    // block. Excluded from the measurement.
    let patterns = build_patterns(&spec);
    for (i, pat) in patterns.iter().enumerate() {
        let steps = pat
            .own_pages
            .iter()
            .map(|p| Step::Touch {
                va_page: *p,
                access: Access::Write,
            })
            .collect();
        Scenario::spawn_script(&mut ssi, NodeId(i as u16), tasks[i], steps);
    }
    ssi.run(u64::MAX / 2).expect("init quiesces");

    // Computation loop (measured).
    ssi.world.stats_mut().reset();
    let start = ssi.world.now();
    for (i, pat) in patterns.into_iter().enumerate() {
        ssi.spawn(
            NodeId(i as u16),
            tasks[i],
            Box::new(Em3dProgram {
                own_pages: pat.own_pages,
                remote_pages: pat.remote_pages,
                compute_per_half: pat.compute_per_half,
                iterations: spec.iterations,
                half: 0,
                idx: 0,
                stage: Stage::ReadRemote,
            }),
        );
    }
    ssi.run(u64::MAX / 2).expect("computation quiesces");
    sc.finish(ssi, start).expect_completed("EM3D")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_run_matches_pure_compute() {
        let mut spec = Em3dSpec::paper(ManagerKind::asvm(), 1, 8000);
        spec.iterations = 10;
        let out = em3d_run(spec);
        // 8 000 cells × 6 edges × 2 × 10 iters × 0.568 µs ≈ 0.545 s.
        assert!(
            (out.elapsed_s() - 0.545).abs() < 0.1,
            "sequential time {} s",
            out.elapsed_s()
        );
    }

    #[test]
    fn parallel_asvm_speeds_up() {
        // Speedup needs a compute-dominated size, as in the paper (small
        // problems are overhead-bound and slow down on more nodes).
        let mut spec = Em3dSpec::paper(ManagerKind::asvm(), 4, 64_000);
        spec.iterations = 10;
        spec.mem_32mb = true;
        let par = em3d_run(spec);
        let mut seq = Em3dSpec::paper(ManagerKind::asvm(), 1, 64_000);
        seq.iterations = 10;
        let s = em3d_run(seq);
        assert!(
            par.elapsed < s.elapsed,
            "4 nodes ({}) must beat 1 node ({})",
            par.elapsed,
            s.elapsed
        );
    }

    #[test]
    fn feasibility_matches_paper_footnotes() {
        // 64 000 cells ≈ 14 MB: too much for one 16 MB node (9 MB user)…
        let seq16 = Em3dSpec {
            mem_32mb: false,
            ..Em3dSpec::paper(ManagerKind::asvm(), 1, 64_000)
        };
        assert!(!seq16.feasible());
        // …fine on a 32 MB node…
        assert!(Em3dSpec::paper(ManagerKind::asvm(), 1, 64_000).feasible());
        // …and 256 000 cells need ≥ 8 of the 16 MB nodes.
        assert!(!Em3dSpec::paper(ManagerKind::asvm(), 4, 256_000).feasible());
        assert!(Em3dSpec::paper(ManagerKind::asvm(), 8, 256_000).feasible());
    }
}

#[cfg(test)]
mod pressure_tests {
    use super::*;
    use svmsim::Dur;

    #[test]
    fn em3d_survives_memory_pressure() {
        // A problem that barely fits: internode paging and pageout engage
        // during the run, and the computation still completes with every
        // barrier round intact.
        let mut spec = Em3dSpec::paper(ManagerKind::asvm(), 2, 60_000);
        spec.iterations = 3;
        // 60 000 cells x 224 B = 13.4 MB over 2 x 9 MB: tight but feasible.
        assert!(spec.feasible());
        let out = em3d_run(spec);
        assert!(out.elapsed > Dur::ZERO);
        assert!(out.counter("faults.completed") > 0);
    }

    #[test]
    fn compute_cost_calibration_matches_paper() {
        // 0.568 us x 64 000 cells x 6 edges x 200 half-iterations = 43.6 s.
        let total = EDGE_COST.as_nanos() as f64 * 64_000.0 * 6.0 * 200.0 / 1e9;
        assert!((total - 43.6).abs() < 0.3, "calibration drifted: {total}");
        let _ = Dur::ZERO;
    }
}
