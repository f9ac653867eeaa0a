//! The per-node VM system: fault handling, EMMI kernel calls, delayed
//! copies and pageout.
//!
//! This is a sans-IO state machine. Public methods consume kernel entry
//! points (page faults from tasks, EMMI calls from managers, pageout ticks)
//! and emit [`VmEffect`]s plus accumulated CPU cost into an [`Effects`]
//! sink; the `cluster` crate binds those effects to the event loop and to
//! whichever memory manager (local pager, XMM, ASVM) owns each object.
//!
//! Faults are fully asynchronous: a fault that cannot complete locally
//! registers a waiter on the `(object, page)` it is stalled on and returns;
//! a later `data_supply`/`lock_request(grant)` re-runs resolution. Nothing
//! ever blocks a thread, mirroring the paper's "asynchronous state
//! transitions" design rule.
//!
//! Faults, the driver's reads and access checks, and pull operations all
//! find a page through one shadow-chain walk (`VmSystem::find`): it stops
//! where the page is resident, paged out to the default pager, missing
//! from an externally managed object, or at the end of the chain. So what
//! a task reads, what `can_access` promises and what a fault resolves
//! never disagree.

use svmsim::{CostModel, Dur, Time};

use crate::containers::{HandleQueue, KeyTable, SlotTable, SortedMap};
use crate::emmi::{
    EmmiToKernel, EmmiToPager, LockMode, LockOp, LockResult, PullResult, SupplyMode,
};
use crate::ids::{Access, FaultId, Inherit, MemObjId, PageIdx, TaskId, VmObjId};
use crate::map::{AddressMap, MapEntry};
use crate::object::{Backing, CopyStrategy, ResidentPage, VmObject};
use crate::pagedata::PageData;

/// Side effects emitted by the VM state machine.
#[derive(Debug)]
pub enum VmEffect {
    /// An EMMI call to the manager/pager of `obj` (routing decided by the
    /// glue from `backing`).
    ToPager {
        /// Originating VM object.
        obj: VmObjId,
        /// Its backing at emission time (routing key).
        backing: Backing,
        /// The call.
        call: EmmiToPager,
    },
    /// A pending fault completed; the task may resume.
    FaultDone {
        /// Faulting task.
        task: TaskId,
        /// Fault instance.
        fault: FaultId,
        /// When the fault started (for latency stats).
        started: Time,
    },
    /// A delayed (asymmetric) copy object was created locally; managers of
    /// the source may need to know (ASVM version counters / read-only
    /// broadcast).
    CopyCreated {
        /// The source object.
        source: VmObjId,
        /// The new copy object.
        copy: VmObjId,
    },
    /// An externally managed page was evicted from the cache; the manager
    /// decides its fate (ASVM's four-step internode paging, §3.6).
    EvictExternal {
        /// The VM object.
        obj: VmObjId,
        /// Its memory object.
        mobj: MemObjId,
        /// The page.
        page: PageIdx,
        /// Contents handed off to the manager.
        data: PageData,
        /// Whether the contents were modified since supply.
        dirty: bool,
    },
}

/// Effect sink: emitted effects plus CPU time to charge.
#[derive(Debug, Default)]
pub struct Effects {
    /// CPU to charge for the processing that generated these effects.
    pub cpu: Dur,
    /// Ordered effects.
    pub out: Vec<VmEffect>,
}

impl Effects {
    /// Creates an empty sink.
    pub fn new() -> Effects {
        Effects::default()
    }

    /// Adds CPU cost.
    pub fn charge(&mut self, d: Dur) {
        self.cpu += d;
    }

    fn pager(&mut self, obj: VmObjId, backing: Backing, call: EmmiToPager) {
        self.out.push(VmEffect::ToPager { obj, backing, call });
    }
}

/// Result of a fault entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultOutcome {
    /// Resolved immediately (cache hit, local zero-fill or copy-up).
    Hit,
    /// Suspended; a [`VmEffect::FaultDone`] with this id will follow.
    Pending(FaultId),
}

/// What happened to an evicted page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvictDisposition {
    /// Dropped silently (reconstructible or clean).
    Dropped,
    /// Written to the default pager (anonymous memory).
    ToDefaultPager,
    /// Handed to the external manager via [`VmEffect::EvictExternal`].
    Handed,
}

#[derive(Clone, Copy, Debug)]
enum Resolve {
    Done,
    Wait(VmObjId, PageIdx),
}

/// Why a lookup of a page in a shadow chain stopped (see [`VmSystem::find`]).
#[derive(Debug)]
enum Stop<'a> {
    /// Resident in the object the lookup stopped at.
    Resident(&'a ResidentPage),
    /// That anonymous object's page is held by the default pager.
    PagedOut,
    /// That object is externally managed and lacks the page: its manager
    /// supplies it (paper §3.7.3).
    External,
    /// The chain ended without the page: it reads as zeros.
    End,
}

#[derive(Clone, Copy, Debug)]
enum Waiter {
    Fault(FaultId),
    Pull { origin: VmObjId, page: PageIdx },
}

#[derive(Clone, Copy, Debug)]
struct PendingFault {
    task: TaskId,
    va_page: u64,
    access: Access,
    started: Time,
}

/// The VM system of one node.
#[derive(Clone)]
pub struct VmSystem {
    page_size: u32,
    capacity_pages: u32,
    cost: CostModel,
    next_obj: u32,
    next_fault: u64,
    objects: SlotTable<VmObjId, VmObject>,
    maps: SortedMap<TaskId, AddressMap>,
    resident_total: u32,
    faults: KeyTable<FaultId, PendingFault>,
    waiters: KeyTable<(VmObjId, PageIdx), Vec<Waiter>>,
    outstanding: KeyTable<(VmObjId, PageIdx), Access>,
    /// Every resident page, once, in the order the pages entered the cache
    /// (a selected victim that stays goes to the back).
    replacement: HandleQueue<(VmObjId, PageIdx)>,
}

impl VmSystem {
    /// Creates a VM system with a physical cache of `capacity_pages`.
    pub fn new(page_size: u32, capacity_pages: u32, cost: CostModel) -> VmSystem {
        VmSystem {
            page_size,
            capacity_pages,
            cost,
            next_obj: 1,
            next_fault: 1,
            objects: SlotTable::new(),
            maps: SortedMap::new(),
            resident_total: 0,
            faults: KeyTable::new(),
            waiters: KeyTable::new(),
            outstanding: KeyTable::new(),
            replacement: HandleQueue::new(),
        }
    }

    /// The VM page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Pages currently resident.
    pub fn resident_total(&self) -> u32 {
        self.resident_total
    }

    /// Physical page capacity.
    pub fn capacity_pages(&self) -> u32 {
        self.capacity_pages
    }

    /// Number of pages above capacity (pageout pressure).
    pub fn over_capacity(&self) -> u32 {
        self.resident_total.saturating_sub(self.capacity_pages)
    }

    // --- Objects and maps ---------------------------------------------------

    /// Creates a VM object.
    pub fn create_object(&mut self, size_pages: u32, backing: Backing) -> VmObjId {
        let id = VmObjId(self.next_obj);
        self.next_obj += 1;
        self.objects
            .insert(id, VmObject::new(id, size_pages, backing));
        id
    }

    /// Immutable access to an object.
    ///
    /// # Panics
    ///
    /// Panics if the object does not exist.
    pub fn object(&self, id: VmObjId) -> &VmObject {
        self.objects.get(&id).expect("no such VM object")
    }

    /// Mutable access to an object.
    pub fn object_mut(&mut self, id: VmObjId) -> &mut VmObject {
        self.objects.get_mut(&id).expect("no such VM object")
    }

    /// Associates an anonymous object with an external memory object,
    /// turning it into a managed one (used when a local copy object becomes
    /// shared across nodes).
    pub fn associate(&mut self, obj: VmObjId, mobj: MemObjId) {
        let o = self.object_mut(obj);
        assert!(
            matches!(o.backing, Backing::Anonymous),
            "object already associated"
        );
        o.backing = Backing::External(mobj);
    }

    /// Registers an (empty) address space for `task`.
    pub fn create_task(&mut self, task: TaskId) {
        let prev = self.maps.insert(task, AddressMap::new());
        assert!(prev.is_none(), "task already exists");
    }

    /// True if `task` has an address space on this node.
    pub fn has_task(&self, task: TaskId) -> bool {
        self.maps.contains_key(&task)
    }

    /// Maps `pages` pages of `obj` starting at `offset` into `task`'s
    /// address space at `va_page`. (One argument per `vm_map` attribute;
    /// `perf/` calls it with this signature.)
    #[allow(clippy::too_many_arguments)]
    pub fn map_object(
        &mut self,
        task: TaskId,
        va_page: u64,
        pages: u32,
        obj: VmObjId,
        offset: u32,
        prot: Access,
        inherit: Inherit,
    ) {
        self.object_mut(obj).refs += 1;
        self.maps
            .get_mut(&task)
            .expect("no such task")
            .insert(MapEntry {
                va_page,
                pages,
                object: obj,
                offset,
                prot,
                inherit,
                needs_copy: false,
            });
    }

    /// The address map of `task`.
    pub fn address_map(&self, task: TaskId) -> &AddressMap {
        self.maps.get(&task).expect("no such task")
    }

    /// Removes the mapping covering `va_page` from `task`'s address space,
    /// dropping one reference on its VM object (and garbage-collecting the
    /// object chain when the last reference disappears).
    ///
    /// # Panics
    ///
    /// Panics if nothing is mapped at `va_page` or the task has a fault in
    /// flight under the mapping (tear-down during a fault is a caller bug).
    pub fn unmap(&mut self, task: TaskId, va_page: u64) {
        let entry = self
            .maps
            .get_mut(&task)
            .expect("no such task")
            .remove(va_page)
            .expect("unmap of unmapped range");
        assert!(
            !self.faults.values().any(|f| f.task == task
                && f.va_page >= entry.va_page
                && f.va_page < entry.va_page + entry.pages as u64),
            "unmap with a fault in flight"
        );
        self.deallocate_ref(entry.object);
    }

    /// Destroys `task`: unmaps everything and removes its address space.
    ///
    /// # Panics
    ///
    /// Panics if the task still has faults in flight.
    pub fn destroy_task(&mut self, task: TaskId) {
        assert!(
            !self.faults.values().any(|f| f.task == task),
            "destroying a task with faults in flight"
        );
        let map = self.maps.remove(&task).expect("no such task");
        for e in map.entries() {
            self.deallocate_ref(e.object);
        }
    }

    /// Drops one reference from `obj`; destroys it (releasing resident
    /// pages and its shadow-chain references) when the count reaches zero.
    fn deallocate_ref(&mut self, obj: VmObjId) {
        let o = self.object_mut(obj);
        assert!(o.refs > 0, "reference underflow on {obj:?}");
        o.refs -= 1;
        if o.refs > 0 {
            return;
        }
        // Last reference: release the cache and follow the shadow link.
        // (A live copy link means a copy object still shadows us, which
        // keeps refs > 0 — so reaching zero implies no live copies.)
        let o = self.objects.remove(&obj).expect("no such VM object");
        for rp in o.pages.values() {
            self.replacement.unlink(rp.queued);
        }
        self.resident_total -= o.pages.len() as u32;
        if let Some(s) = o.shadow {
            self.deallocate_ref(s);
        }
    }

    /// Contents and dirty flag of a resident page, if present (managers
    /// like ASVM are kernel-resident and may inspect the cache directly).
    pub fn peek_page(&self, obj: VmObjId, page: PageIdx) -> Option<(&PageData, bool)> {
        self.objects
            .get(&obj)?
            .pages
            .get(&page)
            .map(|rp| (&rp.data, rp.dirty))
    }

    /// Pins (`busy = true`) or unpins a resident page against eviction
    /// while a manager protocol operation is in flight. A no-op if the
    /// page is not resident.
    pub fn set_busy(&mut self, obj: VmObjId, page: PageIdx, busy: bool) {
        if let Some(o) = self.objects.get_mut(&obj) {
            if let Some(rp) = o.pages.get_mut(&page) {
                rp.busy = busy;
            }
        }
    }

    // --- Data access (driver fast path) ----------------------------------------

    /// The map entry of `task` covering `va_page`.
    fn entry(&self, task: TaskId, va_page: u64) -> Option<&MapEntry> {
        self.maps.get(&task)?.lookup(va_page)
    }

    /// The page a read of `va_page` by `task` sees right now, with the map
    /// entry and the page's depth below the entry's object; `None` when
    /// the read must fault first.
    fn readable(&self, task: TaskId, va_page: u64) -> Option<(&MapEntry, u32, &ResidentPage)> {
        let entry = self.entry(task, va_page)?;
        match self.find(entry.object, entry.object_page(va_page), false) {
            (_, depth, Stop::Resident(rp)) => Some((entry, depth, rp)),
            _ => None,
        }
    }

    /// True if `task` can access `va_page` with `access` right now (no
    /// fault needed). Does not mutate.
    pub fn can_access(&self, task: TaskId, va_page: u64, access: Access) -> bool {
        self.readable(task, va_page)
            .is_some_and(|(entry, depth, rp)| match access {
                Access::Read => true,
                // Writes must hit the top object with write protection.
                Access::Write => !entry.needs_copy && depth == 0 && rp.prot == Access::Write,
            })
    }

    /// Combined [`VmSystem::can_access`] + [`VmSystem::read_page`]: one
    /// translation walk instead of two. Returns the page contents when the
    /// read can proceed without faulting, `None` when the caller must fault.
    /// The `None` cases are precisely those where `can_access(.., Read)`
    /// is false, so `try_read_page(..).is_some() == can_access(.., Read)`.
    pub fn try_read_page(&self, _now: Time, task: TaskId, va_page: u64) -> Option<PageData> {
        self.readable(task, va_page)
            .map(|(_, _, rp)| rp.data.clone())
    }

    /// Combined [`VmSystem::can_access`] + [`VmSystem::write_page`]: one
    /// translation walk. Writes `data` and returns `true` when the write
    /// can proceed without faulting; returns `false` (writing nothing)
    /// exactly when `can_access(.., Write)` is false and the caller must
    /// fault first.
    pub fn try_write_page(
        &mut self,
        _now: Time,
        task: TaskId,
        va_page: u64,
        data: PageData,
    ) -> bool {
        let Some(entry) = self.entry(task, va_page) else {
            return false;
        };
        if entry.needs_copy {
            return false;
        }
        let page = entry.object_page(va_page);
        let obj = entry.object;
        // Writes must hit the top object with write protection; a page
        // resident only deeper in the chain still faults.
        let Some(rp) = self.object_mut(obj).pages.get_mut(&page) else {
            return false;
        };
        if rp.prot != Access::Write {
            return false;
        }
        rp.data = data;
        rp.dirty = true;
        true
    }

    /// The stamp `task` reads at `va_page` right now, or `None` if the
    /// read would fault (no mutation; for tests and verification
    /// harnesses).
    pub fn peek_task_page(&self, task: TaskId, va_page: u64) -> Option<u64> {
        self.readable(task, va_page)
            .map(|(_, _, rp)| rp.data.word())
    }

    /// Reads the page serving `va_page` for `task`.
    ///
    /// # Panics
    ///
    /// Panics if the access would fault — callers must fault first.
    pub fn read_page(&self, now: Time, task: TaskId, va_page: u64) -> PageData {
        self.try_read_page(now, task, va_page)
            .expect("read_page: the read would fault")
    }

    /// Overwrites the page at `va_page` with `data`.
    ///
    /// # Panics
    ///
    /// Panics if the task lacks a resident, writable page — callers must
    /// fault for write first.
    pub fn write_page(&mut self, now: Time, task: TaskId, va_page: u64, data: PageData) {
        assert!(
            self.try_write_page(now, task, va_page, data),
            "write_page: the write would fault"
        );
    }

    /// The one shadow-chain walk that faults, reads, access checks and
    /// pulls share (paper §2.2): follows shadow links from `top` until
    /// `page` is resident or the lookup must stop. Returns the object it
    /// stopped at, that object's depth below `top`, and why it stopped.
    /// With `through_external_top`, an externally managed `top` that lacks
    /// the page does not stop the walk (a pull looks below its own object,
    /// §3.7.1).
    #[inline]
    fn find(
        &self,
        top: VmObjId,
        page: PageIdx,
        through_external_top: bool,
    ) -> (VmObjId, u32, Stop<'_>) {
        let (mut oid, mut depth) = (top, 0u32);
        loop {
            let o = self.object(oid);
            let stop = if let Some(rp) = o.pages.get(&page) {
                Stop::Resident(rp)
            } else if o.paged_out.contains(&page) {
                Stop::PagedOut
            } else if matches!(o.backing, Backing::External(_))
                && (depth > 0 || !through_external_top)
            {
                Stop::External
            } else if let Some(s) = o.shadow {
                oid = s;
                depth += 1;
                continue;
            } else {
                Stop::End
            };
            return (oid, depth, stop);
        }
    }

    // --- Fault entry ------------------------------------------------------------

    /// Handles a page fault of `task` at `va_page` for `access`.
    pub fn fault(
        &mut self,
        now: Time,
        task: TaskId,
        va_page: u64,
        access: Access,
        fx: &mut Effects,
    ) -> FaultOutcome {
        fx.charge(self.cost.vm_fault_entry);
        match self.try_resolve(task, va_page, access, fx) {
            Resolve::Done => {
                fx.charge(self.cost.vm_fault_finish);
                FaultOutcome::Hit
            }
            Resolve::Wait(obj, page) => {
                let id = FaultId(self.next_fault);
                self.next_fault += 1;
                self.faults.insert(
                    id,
                    PendingFault {
                        task,
                        va_page,
                        access,
                        started: now,
                    },
                );
                self.waiters
                    .get_or_insert_with((obj, page), Vec::new)
                    .push(Waiter::Fault(id));
                FaultOutcome::Pending(id)
            }
        }
    }

    /// Number of faults currently suspended (diagnostics).
    pub fn pending_faults(&self) -> usize {
        self.faults.len()
    }

    fn try_resolve(
        &mut self,
        task: TaskId,
        va_page: u64,
        access: Access,
        fx: &mut Effects,
    ) -> Resolve {
        // Symmetric copy-on-write: the first write through a needs-copy
        // entry gets a fresh shadow object (paper FIGURE 2).
        let entry = self
            .entry(task, va_page)
            .unwrap_or_else(|| panic!("fault outside mappings: {task:?} va {va_page}"));
        let (mut top, page) = (entry.object, entry.object_page(va_page));
        if access == Access::Write && entry.needs_copy {
            let shadow = self.create_object(self.object(top).size_pages, Backing::Anonymous);
            // The map entry moves from `top` to the shadow: `top` loses a
            // map reference but gains the shadow link (net zero); the
            // shadow object starts with the map reference.
            self.object_mut(shadow).shadow = Some(top);
            self.object_mut(shadow).refs += 1;
            let e = self
                .maps
                .get_mut(&task)
                .unwrap()
                .lookup_mut(va_page)
                .unwrap();
            e.object = shadow;
            e.needs_copy = false;
            fx.charge(self.cost.vm_object_op);
            top = shadow;
        }

        // Every object of a chain has the size of the one it was made from.
        assert!(
            page.0 < self.object(top).size_pages,
            "fault beyond object size: {page:?} in {top:?}"
        );
        let (oid, depth, stop) = self.find(top, page, false);
        fx.charge(self.cost.vm_object_op * depth as u64);
        match stop {
            Stop::Resident(_) => self.resolve_at(top, oid, page, depth, access, fx),
            Stop::PagedOut => {
                // The default pager holds this anonymous page.
                self.request(oid, page, Access::Write, fx);
                Resolve::Wait(oid, page)
            }
            Stop::External => {
                // Stop the local walk at the first externally managed
                // object lacking the page (paper §3.7.3). Below the top
                // object we only ever need read access: a write fault
                // copies the page up into the top object afterwards.
                let want = if depth == 0 { access } else { Access::Read };
                self.request(oid, page, want, fx);
                Resolve::Wait(oid, page)
            }
            Stop::End => {
                // End of chain: zero-fill into the top object.
                fx.charge(self.cost.vm_zero_fill);
                let dirty = access == Access::Write;
                self.insert_page(top, page, PageData::Zero, Access::Write, dirty);
                Resolve::Done
            }
        }
    }

    /// Completes resolution once the page was found resident in `oid` at
    /// `depth` below `top`.
    fn resolve_at(
        &mut self,
        top: VmObjId,
        oid: VmObjId,
        page: PageIdx,
        depth: u32,
        access: Access,
        fx: &mut Effects,
    ) -> Resolve {
        if depth == 0 {
            let rp = self.resident_mut(oid, page);
            if access == Access::Read || rp.prot == Access::Write {
                if access == Access::Write {
                    rp.dirty = true;
                }
                return Resolve::Done;
            }
            // Write upgrade on a read-only page. Push down the local copy
            // chain first if a copy object lacks the page.
            self.local_push(oid, page, fx);
            let obj = self.object(oid);
            match obj.backing {
                Backing::Anonymous => {
                    let rp = self.resident_mut(oid, page);
                    rp.prot = Access::Write;
                    rp.dirty = true;
                    Resolve::Done
                }
                Backing::External(_) => {
                    // The manager must grant the upgrade.
                    self.request(oid, page, Access::Write, fx);
                    Resolve::Wait(oid, page)
                }
            }
        } else {
            // Page found in an ancestor.
            if access == Access::Read {
                // Enter the source object's page directly (paper §2.2: read
                // faults are satisfied from the source object; no copy).
                return Resolve::Done;
            }
            // Write: copy the page up into the top object (copy-on-write).
            match self.object(top).backing {
                Backing::Anonymous => {
                    let data = self.object(oid).pages.get(&page).unwrap().data.clone();
                    fx.charge(self.cost.vm_page_copy);
                    self.insert_page(top, page, data, Access::Write, true);
                    Resolve::Done
                }
                Backing::External(_) => {
                    // A shared (distributed) copy object: write permission
                    // comes from its manager, which coordinates the push
                    // scan across nodes.
                    self.request(top, page, Access::Write, fx);
                    Resolve::Wait(top, page)
                }
            }
        }
    }

    /// Pushes `page` of `oid` into its copy object if that copy lacks it
    /// (the VM-internal part of a delayed-copy push).
    ///
    /// Pages pushed into an externally managed copy object are inserted
    /// read-only: writes must fault into its manager, which coordinates
    /// the copy object's *own* distributed push machinery. Pushes into
    /// purely local copy objects grant write directly.
    fn local_push(&mut self, oid: VmObjId, page: PageIdx, fx: &mut Effects) -> bool {
        let Some(copy) = self.object(oid).copy else {
            return false;
        };
        if self.object(copy).resident(page) || self.object(copy).paged_out.contains(&page) {
            return false;
        }
        let data = self.object(oid).pages.get(&page).unwrap().data.clone();
        let prot = match self.object(copy).backing {
            Backing::Anonymous => Access::Write,
            Backing::External(_) => Access::Read,
        };
        fx.charge(self.cost.vm_page_copy);
        self.insert_page(copy, page, data, prot, true);
        true
    }

    /// Asks the manager of `obj` for `access` to `page` — a `data_unlock`
    /// (upgrade) when the page is resident, a `data_request` when not —
    /// unless an equal-or-stronger ask is already outstanding.
    fn request(&mut self, obj: VmObjId, page: PageIdx, access: Access, fx: &mut Effects) {
        if let Some(prev) = self.outstanding.get(&(obj, page)) {
            if prev.allows(access) {
                return;
            }
        }
        self.outstanding.insert((obj, page), access);
        let o = self.object(obj);
        let call = if o.resident(page) {
            EmmiToPager::DataUnlock { page, access }
        } else {
            EmmiToPager::DataRequest { page, access }
        };
        fx.charge(self.cost.vm_object_op);
        fx.pager(obj, o.backing, call);
    }

    // --- EMMI ingress (manager → kernel) -------------------------------------------

    /// Handles an EMMI call from the manager/pager of `obj`.
    pub fn kernel_call(&mut self, _now: Time, obj: VmObjId, call: EmmiToKernel, fx: &mut Effects) {
        match call {
            EmmiToKernel::DataSupply {
                page,
                data,
                lock,
                mode,
            } => self.data_supply(obj, page, data, lock, mode, fx),
            EmmiToKernel::LockRequest { page, op, mode } => {
                self.lock_request(obj, page, op, mode, fx)
            }
            EmmiToKernel::PullRequest { page } => self.pull_request(obj, page, fx),
            EmmiToKernel::DataError { page } => {
                panic!("pager reported data error for {obj:?} {page:?}")
            }
        }
    }

    fn data_supply(
        &mut self,
        obj: VmObjId,
        page: PageIdx,
        data: PageData,
        lock: Access,
        mode: SupplyMode,
        fx: &mut Effects,
    ) {
        fx.charge(self.cost.vm_object_op);
        let target = match mode {
            SupplyMode::Normal => obj,
            SupplyMode::PushCopyChain => self
                .object(obj)
                .copy
                .expect("push supply on object without copy"),
        };
        // Pushed pages land read-only in externally managed copy objects
        // (see `local_push`).
        let lock = if mode == SupplyMode::PushCopyChain
            && matches!(self.object(target).backing, Backing::External(_))
        {
            Access::Read
        } else {
            lock
        };
        let dirty = mode == SupplyMode::PushCopyChain;
        if mode == SupplyMode::PushCopyChain && self.object(target).resident(page) {
            // The copy already has its own version; the push is stale.
        } else {
            let o = self.objects.get_mut(&target).unwrap();
            o.paged_out.remove(&page);
            match o.pages.get_mut(&page) {
                Some(rp) => {
                    // Re-supply of a resident page (e.g. a write grant that
                    // arrives as a fresh supply): upgrade in place.
                    rp.prot = rp.prot.max(lock);
                    rp.data = data;
                }
                None => self.insert_page(target, page, data, lock, dirty),
            }
        }
        if mode == SupplyMode::Normal {
            self.outstanding.remove(&(obj, page));
        }
        self.wake(target, page, fx);
        if target != obj {
            self.wake(obj, page, fx);
        }
    }

    fn lock_request(
        &mut self,
        obj: VmObjId,
        page: PageIdx,
        op: LockOp,
        mode: LockMode,
        fx: &mut Effects,
    ) {
        fx.charge(self.cost.vm_object_op);
        let backing = self.object(obj).backing;
        let resident = self.object(obj).resident(page);
        let result = if mode == LockMode::PushFirst && !resident {
            // ASVM extension: report that the push could not run.
            LockResult::PageAbsent
        } else {
            if mode == LockMode::PushFirst {
                self.local_push(obj, page, fx);
            }
            match op {
                LockOp::Flush { return_dirty } if resident => {
                    let rp = self.remove_page(obj, page);
                    fx.charge(self.cost.vm_pmap_op);
                    if rp.dirty && return_dirty {
                        let call = EmmiToPager::DataReturn {
                            page,
                            data: rp.data,
                            dirty: true,
                        };
                        fx.pager(obj, backing, call);
                    }
                }
                LockOp::Downgrade { return_dirty } if resident => {
                    fx.charge(self.cost.vm_pmap_op);
                    let rp = self.resident_mut(obj, page);
                    rp.prot = Access::Read;
                    if rp.dirty && return_dirty {
                        rp.dirty = false;
                        let call = EmmiToPager::DataReturn {
                            page,
                            data: rp.data.clone(),
                            dirty: true,
                        };
                        fx.pager(obj, backing, call);
                    }
                }
                LockOp::Grant(a) => {
                    // A grant for a page no longer resident just wakes the
                    // fault, which re-requests.
                    if resident {
                        let rp = self.resident_mut(obj, page);
                        rp.prot = rp.prot.max(a);
                    }
                    self.outstanding.remove(&(obj, page));
                    self.wake(obj, page, fx);
                }
                _ => {}
            }
            LockResult::Done
        };
        fx.pager(obj, backing, EmmiToPager::LockCompleted { page, result });
    }

    fn pull_request(&mut self, obj: VmObjId, page: PageIdx, fx: &mut Effects) {
        fx.charge(self.cost.vm_object_op);
        let backing = self.object(obj).backing;
        let (oid, depth, stop) = self.find(obj, page, true);
        fx.charge(self.cost.vm_object_op * depth as u64);
        let result = match stop {
            Stop::Resident(rp) => PullResult::Data(rp.data.clone()),
            Stop::PagedOut => {
                // Fetch from the default pager, then re-run the pull.
                self.waiters
                    .get_or_insert_with((oid, page), Vec::new)
                    .push(Waiter::Pull { origin: obj, page });
                self.request(oid, page, Access::Write, fx);
                return;
            }
            // Case 3: ask the shadow object's memory manager.
            Stop::External => PullResult::AskShadow(oid),
            Stop::End => PullResult::Zero,
        };
        fx.pager(obj, backing, EmmiToPager::PullCompleted { page, result });
    }

    /// Re-runs everything stalled on `(obj, page)`.
    fn wake(&mut self, obj: VmObjId, page: PageIdx, fx: &mut Effects) {
        let Some(list) = self.waiters.remove(&(obj, page)) else {
            return;
        };
        for w in list {
            match w {
                Waiter::Fault(fid) => {
                    let Some(pf) = self.faults.get(&fid).copied() else {
                        continue;
                    };
                    match self.try_resolve(pf.task, pf.va_page, pf.access, fx) {
                        Resolve::Done => {
                            self.faults.remove(&fid);
                            fx.charge(self.cost.vm_fault_finish);
                            fx.out.push(VmEffect::FaultDone {
                                task: pf.task,
                                fault: fid,
                                started: pf.started,
                            });
                        }
                        Resolve::Wait(o2, p2) => {
                            self.waiters
                                .get_or_insert_with((o2, p2), Vec::new)
                                .push(Waiter::Fault(fid));
                        }
                    }
                }
                Waiter::Pull { origin, page } => {
                    self.pull_request(origin, page, fx);
                }
            }
        }
    }

    // --- Delayed copies ---------------------------------------------------------------

    /// Forks `parent` into `child` on the same node, honouring inheritance
    /// attributes (paper §2.2).
    pub fn fork_local(&mut self, _now: Time, parent: TaskId, child: TaskId, fx: &mut Effects) {
        assert!(self.maps.contains_key(&parent), "no such parent task");
        self.create_task(child);
        let entries: Vec<MapEntry> = self.address_map(parent).entries().to_vec();
        for e in entries {
            match e.inherit {
                Inherit::None => {}
                Inherit::Share => {
                    self.map_object(
                        child, e.va_page, e.pages, e.object, e.offset, e.prot, e.inherit,
                    );
                }
                Inherit::Copy => match self.object(e.object).copy_strategy {
                    CopyStrategy::Symmetric => {
                        // Both sides keep the object; whichever writes first
                        // shadows it.
                        if let Some(pe) = self.maps.get_mut(&parent).unwrap().lookup_mut(e.va_page)
                        {
                            pe.needs_copy = true;
                        }
                        self.object_mut(e.object).refs += 1;
                        let mut ce = e.clone();
                        ce.needs_copy = true;
                        self.maps.get_mut(&child).unwrap().insert(ce);
                        fx.charge(self.cost.vm_object_op);
                    }
                    CopyStrategy::Asymmetric => {
                        let copy = self.copy_delayed(e.object, fx);
                        self.map_object(
                            child, e.va_page, e.pages, copy, e.offset, e.prot, e.inherit,
                        );
                    }
                },
            }
        }
    }

    /// Creates a delayed (asymmetric) copy object of `src` and links it
    /// into the copy chain (paper FIGURE 3). Returns the copy object.
    pub fn copy_delayed(&mut self, src: VmObjId, fx: &mut Effects) -> VmObjId {
        let size = self.object(src).size_pages;
        let copy = self.create_object(size, Backing::Anonymous);
        // New copies are inserted immediately after their source object:
        // any older copy now shadows the new one.
        if let Some(prev) = self.object(src).copy {
            self.object_mut(prev).shadow = Some(copy);
            self.object_mut(copy).refs += 1;
            self.object_mut(src).refs -= 1;
        }
        self.object_mut(copy).shadow = Some(src);
        self.object_mut(copy).copy_strategy = CopyStrategy::Asymmetric;
        self.object_mut(src).refs += 1;
        self.object_mut(src).copy = Some(copy);
        let downgraded = self.object_mut(src).write_protect_all();
        fx.charge(self.cost.vm_object_op + self.cost.vm_pmap_op * downgraded as u64);
        fx.out.push(VmEffect::CopyCreated { source: src, copy });
        copy
    }

    // --- Pageout -------------------------------------------------------------------------

    /// Selects the next eviction victim: FIFO in fault-in order, busy
    /// pages skipped. There is no reference bit — a hit does not keep a
    /// page. Everything looked at, the victim included, goes to the back
    /// of the queue, so a victim the caller does not evict is offered again
    /// only after every other page. Returns `None` if nothing is evictable.
    pub fn select_victim(&mut self) -> Option<(VmObjId, PageIdx)> {
        for _ in 0..self.replacement.len() {
            let (handle, (obj, page)) = self.replacement.front()?;
            self.replacement.move_to_back(handle);
            let rp = self.object(obj).pages.get(&page);
            if !rp.expect("queued page is resident").busy {
                return Some((obj, page));
            }
        }
        None
    }

    /// Checks that the replacement queue holds exactly the resident pages,
    /// each once, under the handle the page records.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic if it does not.
    pub fn check_replacement_queue(&self) {
        assert_eq!(
            self.replacement.len(),
            self.resident_total,
            "replacement queue length differs from the resident page count"
        );
        for (handle, (obj, page)) in self.replacement.iter() {
            let rp = self.objects.get(&obj).and_then(|o| o.pages.get(&page));
            assert_eq!(
                rp.map(|rp| rp.queued),
                Some(handle),
                "replacement queue entry {handle} names {obj:?} {page:?}"
            );
        }
    }

    /// Evicts `(obj, page)` from the cache.
    ///
    /// Anonymous pages go to the default pager (or are dropped when
    /// reconstructible); externally managed pages are handed to their
    /// manager, which implements the paper's four-step internode pageout.
    pub fn evict(
        &mut self,
        _now: Time,
        obj: VmObjId,
        page: PageIdx,
        fx: &mut Effects,
    ) -> EvictDisposition {
        let rp = self.remove_page(obj, page);
        fx.charge(self.cost.vm_pmap_op);
        match self.object(obj).backing {
            Backing::External(mobj) => {
                fx.out.push(VmEffect::EvictExternal {
                    obj,
                    mobj,
                    page,
                    data: rp.data,
                    dirty: rp.dirty,
                });
                EvictDisposition::Handed
            }
            Backing::Anonymous => {
                let reconstructible = !rp.dirty
                    && (matches!(rp.data, PageData::Zero)
                        || self.object(obj).paged_out.contains(&page));
                if reconstructible {
                    return EvictDisposition::Dropped;
                }
                self.object_mut(obj).paged_out.insert(page);
                let call = EmmiToPager::DataReturn {
                    page,
                    data: rp.data,
                    dirty: true,
                };
                fx.pager(obj, Backing::Anonymous, call);
                EvictDisposition::ToDefaultPager
            }
        }
    }

    // --- internals ------------------------------------------------------------------------

    /// Enters a page into the cache (not busy) and, last, into the
    /// replacement queue.
    fn insert_page(
        &mut self,
        obj: VmObjId,
        page: PageIdx,
        data: PageData,
        prot: Access,
        dirty: bool,
    ) {
        let queued = self.replacement.push_back((obj, page));
        let o = self.objects.get_mut(&obj).unwrap();
        let prev = o
            .pages
            .insert(page, ResidentPage::new(data, prot, dirty, queued));
        assert!(prev.is_none(), "page already resident: {obj:?} {page:?}");
        o.paged_out.remove(&page);
        self.resident_total += 1;
    }

    /// The resident page `(obj, page)`.
    fn resident_mut(&mut self, obj: VmObjId, page: PageIdx) -> &mut ResidentPage {
        let o = self.objects.get_mut(&obj).expect("no such VM object");
        o.pages.get_mut(&page).expect("page not resident")
    }

    fn remove_page(&mut self, obj: VmObjId, page: PageIdx) -> ResidentPage {
        let o = self.objects.get_mut(&obj).unwrap();
        let rp = o.pages.remove(&page).expect("removing non-resident page");
        self.replacement.unlink(rp.queued);
        self.resident_total -= 1;
        rp
    }
}
