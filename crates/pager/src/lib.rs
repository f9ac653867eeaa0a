//! User-level pager tasks.
//!
//! In Mach, memory objects are backed by user-level *pager* tasks that speak
//! EMMI with the kernel: they provide initial page contents and preserve
//! evicted data. This crate implements the two pagers the Paragon OS runs on
//! its I/O nodes:
//!
//! * the **default pager**, backing anonymous memory with paging space on
//!   disk — XMM's dirty-page writeback penalty (Table 1 of the paper) is a
//!   synchronous write into this paging space;
//! * the **file pager**, backing the memory-mapped Unix file system — the
//!   mapped-file experiments of Table 2 read through and write back to it.
//!
//! Both are sans-IO: they consume [`PagerIn`] records and return
//! [`PagerOut`] replies stamped with the time they are ready (after any
//! disk accesses, performed through a caller-provided disk closure). The
//! `cluster` crate runs them on I/O nodes and carries their traffic over
//! NORMA-IPC, as the real system does.

use std::collections::BTreeMap;

use machvm::{
    Access, EmmiToKernel, EmmiToPager, LockMode, LockOp, MemObjId, PageData, PageIdx, SupplyMode,
    VmObjId,
};
use svmsim::{DiskOp, NodeId, Time};

/// A request arriving at a pager (an EMMI call from some node's kernel).
#[derive(Clone, Debug)]
pub struct PagerIn {
    /// The kernel that sent the call.
    pub from_node: NodeId,
    /// That kernel's VM object (opaque reply-routing token).
    pub obj: VmObjId,
    /// The memory object addressed (file pager only; the default pager
    /// keys on `(from_node, obj)`).
    pub mobj: MemObjId,
    /// The call itself.
    pub call: EmmiToPager,
}

/// A reply from a pager to some node's kernel.
#[derive(Clone, Debug)]
pub struct PagerOut {
    /// Destination kernel.
    pub to_node: NodeId,
    /// Destination VM object on that kernel.
    pub obj: VmObjId,
    /// Instant at which the reply may leave (after disk accesses).
    pub ready_at: Time,
    /// The EMMI call to deliver.
    pub reply: EmmiToKernel,
}

/// Disk access hook: `(op, byte offset, length) -> completion time`.
pub type DiskFn<'a> = &'a mut dyn FnMut(DiskOp, u64, u32) -> Time;

/// The default pager: backing store for anonymous memory ("paging space").
///
/// Pages are keyed by `(owning node, VM object, page)`. A `data_return`
/// synchronously writes the page into paging space; a later `data_request`
/// supplies it from the pager's buffer (the disk write is the expensive
/// part, matching the behaviour behind the paper's Table 1 note that *"XMM
/// writes a dirty page to the paging space when it is requested for the
/// first time by another node"*).
pub struct DefaultPager {
    page_size: u32,
    disk_base: u64,
    next_slot: u64,
    store: BTreeMap<(NodeId, VmObjId, PageIdx), PageData>,
    slots: BTreeMap<(NodeId, VmObjId, PageIdx), u64>,
    /// Completion time of the last paging-space write per page: a supply
    /// for a just-returned page waits for the write (XMM's first-remote-
    /// request penalty in Table 1 comes from exactly this).
    write_done: BTreeMap<(NodeId, VmObjId, PageIdx), Time>,
}

impl DefaultPager {
    /// Creates a default pager whose paging space starts at `disk_base`.
    pub fn new(page_size: u32, disk_base: u64) -> DefaultPager {
        DefaultPager {
            page_size,
            disk_base,
            next_slot: 0,
            store: BTreeMap::new(),
            slots: BTreeMap::new(),
            write_done: BTreeMap::new(),
        }
    }

    /// Number of pages held in paging space.
    pub fn pages_held(&self) -> usize {
        self.store.len()
    }

    /// Handles one EMMI call; returns replies (possibly none).
    pub fn handle(&mut self, now: Time, req: PagerIn, disk: DiskFn<'_>) -> Vec<PagerOut> {
        match req.call {
            EmmiToPager::DataReturn { page, data, .. } => {
                let key = (req.from_node, req.obj, page);
                let slot = *self.slots.entry(key).or_insert_with(|| {
                    let s = self.next_slot;
                    self.next_slot += 1;
                    s
                });
                let pos = self.disk_base + slot * self.page_size as u64;
                let done = disk(DiskOp::Write, pos, self.page_size);
                self.write_done.insert(key, done);
                self.store.insert(key, data);
                vec![]
            }
            EmmiToPager::DataRequest { page, .. } => {
                let key = (req.from_node, req.obj, page);
                let data = self.store.get(&key).cloned().unwrap_or(PageData::Zero);
                let ready_at = self.write_done.get(&key).copied().unwrap_or(now).max(now);
                vec![PagerOut {
                    to_node: req.from_node,
                    obj: req.obj,
                    ready_at,
                    reply: EmmiToKernel::DataSupply {
                        page,
                        data,
                        lock: Access::Write,
                        mode: SupplyMode::Normal,
                    },
                }]
            }
            EmmiToPager::DataUnlock { page, access } => vec![PagerOut {
                to_node: req.from_node,
                obj: req.obj,
                ready_at: now,
                reply: EmmiToKernel::LockRequest {
                    page,
                    op: LockOp::Grant(access),
                    mode: LockMode::Normal,
                },
            }],
            // Completion notifications need no action from a plain pager.
            EmmiToPager::LockCompleted { .. } | EmmiToPager::PullCompleted { .. } => vec![],
        }
    }
}

/// State of one file managed by the file pager.
#[derive(Debug)]
struct FileState {
    size_pages: u32,
    disk_base: u64,
    /// Stripe interleave (§6 future work): this pager holds every
    /// `stride`-th page; on-disk slots are compacted by that factor so
    /// striped scans stay sequential per disk. 1 for plain files.
    stride: u32,
    /// The file has pre-existing contents on media.
    populated: bool,
    /// Pages written back by kernels (dirty data now authoritative here),
    /// with the completion time of the disk write (supplies wait for it).
    written: BTreeMap<PageIdx, (PageData, Time)>,
}

/// The file pager: a memory-mapped Unix file system on an I/O node.
///
/// Each registered memory object is one file, laid out contiguously on the
/// node's disk so that sequential faults stream at media bandwidth.
pub struct FilePager {
    page_size: u32,
    next_base: u64,
    files: BTreeMap<MemObjId, FileState>,
}

impl FilePager {
    /// Creates a file pager allocating file extents from disk offset 0.
    pub fn new(page_size: u32) -> FilePager {
        FilePager {
            page_size,
            next_base: 0,
            files: BTreeMap::new(),
        }
    }

    /// Registers a file of `size_pages` backing memory object `mobj`.
    ///
    /// A `populated` file has pre-existing contents on disk (reads pay disk
    /// time); an unpopulated one supplies zero-filled pages without I/O,
    /// like a freshly created file.
    pub fn create_file(&mut self, mobj: MemObjId, size_pages: u32, populated: bool) {
        self.create_striped_file(mobj, size_pages, populated, 1);
    }

    /// Registers one stripe of a file spread round-robin over
    /// `stride` pagers (§6 future work). This pager serves every
    /// `stride`-th page; its on-disk slots are compacted accordingly.
    pub fn create_striped_file(
        &mut self,
        mobj: MemObjId,
        size_pages: u32,
        populated: bool,
        stride: u32,
    ) {
        assert!(stride >= 1);
        let local_pages = size_pages.div_ceil(stride) as u64;
        let base = self.next_base;
        self.next_base += local_pages * self.page_size as u64;
        let prev = self.files.insert(
            mobj,
            FileState {
                size_pages,
                disk_base: base,
                stride,
                populated,
                written: BTreeMap::new(),
            },
        );
        assert!(prev.is_none(), "file already exists for {mobj:?}");
    }

    /// The authoritative contents of `page` of file `mobj` as the pager
    /// would supply them now (for end-to-end verification in tests).
    pub fn file_contents(&self, mobj: MemObjId, page: PageIdx) -> PageData {
        let f = &self.files[&mobj];
        if let Some((d, _)) = f.written.get(&page) {
            return d.clone();
        }
        if f.populated {
            PageData::Word(file_stamp(mobj, page))
        } else {
            PageData::Zero
        }
    }

    /// Handles one EMMI call; returns replies (possibly none).
    ///
    /// A request for an unknown memory object auto-creates an unpopulated
    /// backing file ("swap file") — this is how anonymous SVM regions that
    /// get ASVM-ized at fork time acquire backing store without a separate
    /// control round trip.
    pub fn handle(&mut self, now: Time, req: PagerIn, disk: DiskFn<'_>) -> Vec<PagerOut> {
        if !self.files.contains_key(&req.mobj) {
            // Generous fixed extent; disk offsets are virtual.
            self.create_file(req.mobj, 1 << 20, false);
        }
        let Some(f) = self.files.get_mut(&req.mobj) else {
            unreachable!()
        };
        match req.call {
            EmmiToPager::DataRequest { page, .. } => {
                assert!(page.0 < f.size_pages, "request beyond file end");
                let (data, ready_at) = if let Some((d, done)) = f.written.get(&page) {
                    (d.clone(), (*done).max(now))
                } else if f.populated {
                    let slot = (page.0 / f.stride) as u64;
                    let pos = f.disk_base + slot * self.page_size as u64;
                    let done = disk(DiskOp::Read, pos, self.page_size);
                    (PageData::Word(file_stamp(req.mobj, page)), done)
                } else {
                    // Fresh file: zero-filled pages cost no I/O.
                    (PageData::Zero, now)
                };
                vec![PagerOut {
                    to_node: req.from_node,
                    obj: req.obj,
                    ready_at,
                    reply: EmmiToKernel::DataSupply {
                        page,
                        data,
                        lock: Access::Write,
                        mode: SupplyMode::Normal,
                    },
                }]
            }
            EmmiToPager::DataReturn { page, data, .. } => {
                let slot = (page.0 / f.stride) as u64;
                let pos = f.disk_base + slot * self.page_size as u64;
                let done = disk(DiskOp::Write, pos, self.page_size);
                f.written.insert(page, (data, done));
                vec![]
            }
            EmmiToPager::DataUnlock { page, access } => vec![PagerOut {
                to_node: req.from_node,
                obj: req.obj,
                ready_at: now,
                reply: EmmiToKernel::LockRequest {
                    page,
                    op: LockOp::Grant(access),
                    mode: LockMode::Normal,
                },
            }],
            EmmiToPager::LockCompleted { .. } | EmmiToPager::PullCompleted { .. } => vec![],
        }
    }
}

/// Deterministic stamp standing in for the contents of a populated file
/// page (verifiable end to end without storing gigabytes).
pub fn file_stamp(mobj: MemObjId, page: PageIdx) -> u64 {
    let x = ((mobj.0 as u64) << 32) | page.0 as u64;
    x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_disk() -> impl FnMut(DiskOp, u64, u32) -> Time {
        |_, _, _| Time::ZERO
    }

    fn req(node: u16, obj: u32, mobj: u32, call: EmmiToPager) -> PagerIn {
        PagerIn {
            from_node: NodeId(node),
            obj: VmObjId(obj),
            mobj: MemObjId(mobj),
            call,
        }
    }

    #[test]
    fn default_pager_round_trips_data() {
        let mut p = DefaultPager::new(8192, 0);
        let mut disk_calls = 0;
        let mut disk = |op, _pos, _len| {
            assert_eq!(op, DiskOp::Write);
            disk_calls += 1;
            Time::from_nanos(1)
        };
        let out = p.handle(
            Time::ZERO,
            req(
                0,
                1,
                0,
                EmmiToPager::DataReturn {
                    page: PageIdx(3),
                    data: PageData::Word(9),
                    dirty: true,
                },
            ),
            &mut disk,
        );
        assert!(out.is_empty());
        assert_eq!(p.pages_held(), 1);

        let out = p.handle(
            Time::ZERO,
            req(
                0,
                1,
                0,
                EmmiToPager::DataRequest {
                    page: PageIdx(3),
                    access: Access::Read,
                },
            ),
            &mut no_disk(),
        );
        match &out[..] {
            [PagerOut {
                reply: EmmiToKernel::DataSupply { data, .. },
                to_node,
                ..
            }] => {
                assert_eq!(*data, PageData::Word(9));
                assert_eq!(*to_node, NodeId(0));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(disk_calls, 1);
    }

    #[test]
    fn default_pager_keys_by_node_and_object() {
        let mut p = DefaultPager::new(8192, 0);
        let mut d = no_disk();
        p.handle(
            Time::ZERO,
            req(
                0,
                1,
                0,
                EmmiToPager::DataReturn {
                    page: PageIdx(0),
                    data: PageData::Word(1),
                    dirty: true,
                },
            ),
            &mut d,
        );
        // Same page index, different node: must be distinct.
        let out = p.handle(
            Time::ZERO,
            req(
                1,
                1,
                0,
                EmmiToPager::DataRequest {
                    page: PageIdx(0),
                    access: Access::Read,
                },
            ),
            &mut d,
        );
        match &out[..] {
            [PagerOut {
                reply: EmmiToKernel::DataSupply { data, .. },
                ..
            }] => assert_eq!(*data, PageData::Zero),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn default_pager_reuses_slots_for_rewrites() {
        let mut p = DefaultPager::new(8192, 1000);
        let mut positions = vec![];
        let mut disk = |_op, pos, _len| {
            positions.push(pos);
            Time::ZERO
        };
        for val in [1u64, 2, 3] {
            p.handle(
                Time::ZERO,
                req(
                    0,
                    1,
                    0,
                    EmmiToPager::DataReturn {
                        page: PageIdx(5),
                        data: PageData::Word(val),
                        dirty: true,
                    },
                ),
                &mut disk,
            );
        }
        assert!(positions.iter().all(|p| *p == positions[0]));
        assert_eq!(positions[0], 1000);
    }

    #[test]
    fn file_pager_populated_reads_hit_disk_sequentially() {
        let mut p = FilePager::new(8192);
        p.create_file(MemObjId(1), 16, true);
        let mut reads = vec![];
        let mut disk = |op, pos, len| {
            assert_eq!(op, DiskOp::Read);
            reads.push((pos, len));
            Time::from_nanos(500)
        };
        for pg in 0..3u32 {
            let out = p.handle(
                Time::ZERO,
                req(
                    2,
                    7,
                    1,
                    EmmiToPager::DataRequest {
                        page: PageIdx(pg),
                        access: Access::Read,
                    },
                ),
                &mut disk,
            );
            match &out[..] {
                [PagerOut {
                    ready_at,
                    reply: EmmiToKernel::DataSupply { data, .. },
                    ..
                }] => {
                    assert_eq!(*ready_at, Time::from_nanos(500));
                    assert_eq!(data.word(), file_stamp(MemObjId(1), PageIdx(pg)));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(reads, vec![(0, 8192), (8192, 8192), (16384, 8192)]);
    }

    #[test]
    fn file_pager_fresh_file_supplies_zero_without_io() {
        let mut p = FilePager::new(8192);
        p.create_file(MemObjId(2), 4, false);
        let mut disk = |_op, _pos, _len| panic!("no disk I/O expected");
        let out = p.handle(
            Time::ZERO,
            req(
                0,
                1,
                2,
                EmmiToPager::DataRequest {
                    page: PageIdx(0),
                    access: Access::Write,
                },
            ),
            &mut disk,
        );
        match &out[..] {
            [PagerOut {
                reply: EmmiToKernel::DataSupply { data, .. },
                ready_at,
                ..
            }] => {
                assert_eq!(*data, PageData::Zero);
                assert_eq!(*ready_at, Time::ZERO);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn file_pager_written_data_wins_over_media() {
        let mut p = FilePager::new(8192);
        p.create_file(MemObjId(1), 4, true);
        let mut d = |_op, _pos, _len| Time::ZERO;
        p.handle(
            Time::ZERO,
            req(
                0,
                1,
                1,
                EmmiToPager::DataReturn {
                    page: PageIdx(2),
                    data: PageData::Word(77),
                    dirty: true,
                },
            ),
            &mut d,
        );
        assert_eq!(p.file_contents(MemObjId(1), PageIdx(2)), PageData::Word(77));
        let mut no_io = |_op, _pos, _len| panic!("written pages need no disk read");
        let out = p.handle(
            Time::ZERO,
            req(
                3,
                9,
                1,
                EmmiToPager::DataRequest {
                    page: PageIdx(2),
                    access: Access::Read,
                },
            ),
            &mut no_io,
        );
        match &out[..] {
            [PagerOut {
                reply: EmmiToKernel::DataSupply { data, .. },
                ..
            }] => assert_eq!(*data, PageData::Word(77)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unlock_returns_grant() {
        let mut p = FilePager::new(8192);
        p.create_file(MemObjId(1), 4, false);
        let mut d = no_disk();
        let out = p.handle(
            Time::ZERO,
            req(
                0,
                1,
                1,
                EmmiToPager::DataUnlock {
                    page: PageIdx(1),
                    access: Access::Write,
                },
            ),
            &mut d,
        );
        match &out[..] {
            [PagerOut {
                reply:
                    EmmiToKernel::LockRequest {
                        op: LockOp::Grant(Access::Write),
                        ..
                    },
                ..
            }] => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn files_get_disjoint_extents() {
        let mut p = FilePager::new(8192);
        p.create_file(MemObjId(1), 16, true);
        p.create_file(MemObjId(2), 16, true);
        let mut pos1 = 0;
        let mut d1 = |_op, pos, _len| {
            pos1 = pos;
            Time::ZERO
        };
        p.handle(
            Time::ZERO,
            req(
                0,
                1,
                2,
                EmmiToPager::DataRequest {
                    page: PageIdx(0),
                    access: Access::Read,
                },
            ),
            &mut d1,
        );
        assert_eq!(pos1, 16 * 8192);
    }
}
