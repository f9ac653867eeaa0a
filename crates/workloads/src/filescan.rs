//! Memory-mapped file transfer-rate workload (Table 2, Figures 12/13).
//!
//! Mirrors the paper's measurement: the OSF/1 server is bypassed; each node
//! maps the file and reads/writes memory directly. The *write* test has all
//! nodes write disjoint sections of a fresh 4 MB file (asynchronous writes:
//! nothing waits for writeback, so the bound is how fast the pager supplies
//! zero-filled pages). The *read* test has all nodes read the whole 4 MB
//! populated file in parallel (the bound is the pager's supply rate — or,
//! under ASVM, the peer caches once the first copy is in memory).

use cluster::{ManagerKind, Program, Step, TaskEnv};
use svmsim::{NodeId, Time};

use crate::scenario::{Outcome, Scenario};

/// Scan direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScanDir {
    /// All nodes read the whole file.
    Read,
    /// Each node writes its own section.
    Write,
}

/// One file-scan experiment.
#[derive(Clone, Copy, Debug)]
pub struct FileScanSpec {
    /// Which manager runs the cluster.
    pub kind: ManagerKind,
    /// Number of compute nodes taking part.
    pub nodes: u16,
    /// File size in pages (4 MB = 512 pages in the paper).
    pub file_pages: u32,
    /// Read or write scan.
    pub dir: ScanDir,
}

/// Result of a file-scan run.
#[derive(Clone, Debug)]
pub struct FileScanResult {
    /// Mean effective transfer rate seen by each node, MB/s — derived
    /// from per-task runtimes, which no statistic records.
    pub rate_mb_s: f64,
    /// Everything else (pager-supplied pages are `disk.reads`).
    pub outcome: Outcome,
}

struct Scanner {
    first: u32,
    count: u32,
    next: u32,
    write: bool,
}

impl Program for Scanner {
    fn step(&mut self, _env: &mut TaskEnv) -> Step {
        if self.next < self.count {
            let p = (self.first + self.next) as u64;
            self.next += 1;
            if self.write {
                Step::Write {
                    va_page: p,
                    value: 0xF11E_0000 + p,
                }
            } else {
                Step::Read { va_page: p }
            }
        } else {
            Step::Done
        }
    }
}

/// Runs one file-scan experiment.
pub fn file_scan(spec: FileScanSpec) -> FileScanResult {
    let sc = Scenario::new(spec.kind, spec.nodes, 23);
    let mut ssi = sc.build();
    let populated = spec.dir == ScanDir::Read;
    let (mobj, tasks) = Scenario::shared_region(&mut ssi, spec.nodes, spec.file_pages, populated);

    let per_node = spec.file_pages / spec.nodes as u32;
    for (i, t) in tasks.iter().enumerate() {
        let (first, count) = match spec.dir {
            ScanDir::Read => (0, spec.file_pages),
            ScanDir::Write => (i as u32 * per_node, per_node),
        };
        ssi.spawn(
            NodeId(i as u16),
            *t,
            Box::new(Scanner {
                first,
                count,
                next: 0,
                write: spec.dir == ScanDir::Write,
            }),
        );
    }
    ssi.run(600_000_000).expect("file scan quiesces");
    assert!(ssi.all_done(), "all scanners must finish");

    // Verify read scans observed the file contents.
    if spec.dir == ScanDir::Read {
        for (i, t) in tasks.iter().enumerate() {
            let n = ssi.node(NodeId(i as u16));
            // Spot-check a few pages.
            for p in [0u32, spec.file_pages / 2, spec.file_pages - 1] {
                if let Some(v) = n.vm.peek_task_page(*t, p as u64) {
                    assert_eq!(
                        v,
                        pager::file_stamp(mobj, machvm::PageIdx(p)),
                        "node {i} read wrong contents for page {p}"
                    );
                }
            }
        }
    }

    // Per-node rate: section bytes / that node's elapsed time.
    let page_bytes = 8192u64;
    let mut rates = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        let rt = ssi
            .node(NodeId(i as u16))
            .task_runtime(*t)
            .expect("task finished");
        let bytes = match spec.dir {
            ScanDir::Read => spec.file_pages as u64 * page_bytes,
            ScanDir::Write => per_node as u64 * page_bytes,
        };
        rates.push(bytes as f64 / rt.as_secs_f64() / (1024.0 * 1024.0));
    }
    let rate_mb_s = rates.iter().sum::<f64>() / rates.len() as f64;
    FileScanResult {
        rate_mb_s,
        outcome: sc.finish(ssi, Time::ZERO),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asvm_single_node_write_rate_plausible() {
        let r = file_scan(FileScanSpec {
            kind: ManagerKind::asvm(),
            nodes: 1,
            file_pages: 128,
            dir: ScanDir::Write,
        });
        assert!(
            r.rate_mb_s > 0.5 && r.rate_mb_s < 20.0,
            "write rate {} MB/s implausible",
            r.rate_mb_s
        );
    }

    #[test]
    fn asvm_read_scales_better_than_xmm() {
        let nodes = 8;
        let pages = 128;
        let a = file_scan(FileScanSpec {
            kind: ManagerKind::asvm(),
            nodes,
            file_pages: pages,
            dir: ScanDir::Read,
        });
        let x = file_scan(FileScanSpec {
            kind: ManagerKind::xmm(),
            nodes,
            file_pages: pages,
            dir: ScanDir::Read,
        });
        assert!(
            a.rate_mb_s > 2.0 * x.rate_mb_s,
            "ASVM {} MB/s should beat XMM {} MB/s clearly",
            a.rate_mb_s,
            x.rate_mb_s
        );
    }
}
