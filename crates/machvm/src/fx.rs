//! The effect sink every EMMI memory manager writes.
//!
//! A manager (ASVM, XMM) is a sans-IO state machine: each entry point
//! consumes one stimulus and records what must happen — CPU to charge,
//! EMMI requests to real pagers, protocol messages to peer instances,
//! completions, and the kernel's own [`Effects`] from nested VM calls —
//! into one [`Fx`]. The binding layer drains the classes in a fixed
//! order: **pager sends, then protocol sends, then settled copies, then
//! lock grants, then the VM effects**. Pager sends go first so that an
//! acknowledgement can never causally overtake the writeback it follows.
//!
//! `M` is the manager's protocol message type; everything else is shared,
//! so there is exactly one definition of the sink and of [`PagerSend`].

use svmsim::{Dur, NodeId};

use crate::{Effects, EmmiToPager, MemObjId, PageIdx, VmObjId};

/// An EMMI request to a real pager task, carried over NORMA-IPC.
#[derive(Clone, Debug)]
pub struct PagerSend {
    /// The I/O node hosting the pager.
    pub pager_node: NodeId,
    /// Node the pager's reply must go to (the request origin — not
    /// necessarily the node that dispatched the request).
    pub reply_to: NodeId,
    /// The memory object addressed.
    pub mobj: MemObjId,
    /// Reply-routing VM object on `reply_to`.
    pub obj: VmObjId,
    /// The EMMI call.
    pub call: EmmiToPager,
}

/// A run of pages in a memory object (range locks, §6 future work).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PageRange {
    /// First page.
    pub first: PageIdx,
    /// Length in pages.
    pub count: u32,
}

impl PageRange {
    /// True if the ranges share any page (empty ranges overlap nothing).
    pub fn overlaps(&self, other: &PageRange) -> bool {
        if self.count == 0 || other.count == 0 {
            return false;
        }
        let a0 = self.first.0;
        let a1 = self.first.0 + self.count;
        let b0 = other.first.0;
        let b1 = other.first.0 + other.count;
        a0 < b1 && b0 < a1
    }
}

/// Effects produced by one memory-manager entry point.
///
/// A reusable sink: the caller drains every vector in place (capacities
/// survive), so in steady state a pooled `Fx` makes the per-message path
/// allocation-free.
#[derive(Debug)]
pub struct Fx<M> {
    /// Message-processor time to charge.
    pub cpu: Dur,
    /// EMMI requests to real pagers.
    pub pager: Vec<PagerSend>,
    /// Protocol messages to peer manager instances, by destination.
    pub net: Vec<(NodeId, M)>,
    /// Objects whose copy notification has been applied by every sharing
    /// node; a fork waiting on them may complete.
    pub settled: Vec<MemObjId>,
    /// Range locks granted to this node; the task waiting on each resumes.
    pub lock_granted: Vec<(MemObjId, PageRange)>,
    /// Statistics counters to bump, by interned key (managers have no
    /// stats handle; the binding layer applies these).
    pub bumps: Vec<&'static str>,
    /// Effects emitted by nested VM calls (fault completions, further EMMI
    /// traffic), drained after everything above.
    pub vm: Effects,
}

// Not derived: `M` need not be `Default`.
impl<M> Default for Fx<M> {
    fn default() -> Fx<M> {
        Fx {
            cpu: Dur::ZERO,
            pager: Vec::new(),
            net: Vec::new(),
            settled: Vec::new(),
            lock_granted: Vec::new(),
            bumps: Vec::new(),
            vm: Effects::default(),
        }
    }
}

impl<M> Fx<M> {
    /// Creates an empty effect sink.
    pub fn new() -> Fx<M> {
        Fx::default()
    }

    /// Queues protocol message `msg` for `dst`.
    pub fn send(&mut self, dst: NodeId, msg: M) {
        self.net.push((dst, msg));
    }

    /// Queues one increment of the counter `key`.
    pub fn bump(&mut self, key: &'static str) {
        self.bumps.push(key);
    }

    /// True if nothing is waiting to be interpreted.
    pub fn is_drained(&self) -> bool {
        self.cpu.is_zero()
            && self.pager.is_empty()
            && self.net.is_empty()
            && self.settled.is_empty()
            && self.lock_granted.is_empty()
            && self.bumps.is_empty()
            && self.vm.out.is_empty()
            && self.vm.cpu.is_zero()
    }
}
