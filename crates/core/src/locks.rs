//! Range locks (§6 future work).
//!
//! The paper: *"Provide and utilize ASVM primitives for locking a range of
//! pages in a shared address space for the exclusive access of a particular
//! task on a particular node. This would allow to guarantee the atomicity
//! of read and write operations ... The current scheme uses NORMA-IPC to
//! acquire an exclusive token from a token server each time a read or
//! write operation takes place."*
//!
//! The lock manager for an object lives on its home node (requests ride
//! the same STS transport as the rest of the ASVM protocol, replacing the
//! NORMA token server). Locks are granted when the requested range
//! overlaps no held range; conflicting requests queue FIFO and are granted
//! on release. The primitive is advisory: it orders *operations* (callers
//! bracket multi-page reads/writes), while per-page coherence continues to
//! come from the sharing state machine.

use std::collections::VecDeque;

use machvm::MemObjId;
pub use machvm::PageRange;
use svmsim::NodeId;

use crate::node::Fx;
use crate::object::AsvmObject;
use crate::protocol::AsvmMsg;

/// A lock held by a node.
#[derive(Clone, Copy, Debug)]
pub struct HeldLock {
    /// The locked range.
    pub range: PageRange,
    /// The holding node.
    pub holder: NodeId,
}

/// Lock-manager state for one object (home node only).
#[derive(Clone, Debug, Default)]
pub struct RangeLockMgr {
    held: Vec<HeldLock>,
    queue: VecDeque<HeldLock>,
}

impl RangeLockMgr {
    /// Requests `range` for `holder`; returns true if granted immediately,
    /// false if queued.
    pub fn acquire(&mut self, range: PageRange, holder: NodeId) -> bool {
        let blocked = self.held.iter().any(|h| h.range.overlaps(&range))
            || self.queue.iter().any(|q| q.range.overlaps(&range));
        if blocked {
            self.queue.push_back(HeldLock { range, holder });
            false
        } else {
            self.held.push(HeldLock { range, holder });
            true
        }
    }

    /// Releases `range` held by `holder`; returns the queued locks that
    /// become grantable (already moved to held).
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held — releasing a lock you do not hold
    /// is a protocol error.
    pub fn release(&mut self, range: PageRange, holder: NodeId) -> Vec<HeldLock> {
        let pos = self
            .held
            .iter()
            .position(|h| h.range == range && h.holder == holder)
            .expect("releasing a range lock that is not held");
        self.held.remove(pos);
        // Grant queued requests in FIFO order while they fit.
        let mut granted = Vec::new();
        let mut remaining = VecDeque::new();
        while let Some(q) = self.queue.pop_front() {
            let blocked = self.held.iter().any(|h| h.range.overlaps(&q.range))
                || granted
                    .iter()
                    .any(|g: &HeldLock| g.range.overlaps(&q.range))
                || remaining
                    .iter()
                    .any(|r: &HeldLock| r.range.overlaps(&q.range));
            if blocked {
                remaining.push_back(q);
            } else {
                self.held.push(q);
                granted.push(q);
            }
        }
        self.queue = remaining;
        granted
    }

    /// Number of locks currently held.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Number of requests waiting.
    pub fn queued_count(&self) -> usize {
        self.queue.len()
    }
}

// The lock manager's handlers touch neither the VM nor the clock (their
// `lock_range`/`unlock_range` entry points have neither), so they are
// methods on the object rather than on the handler context.
impl AsvmObject {
    /// Home node (`me`): `holder` asks for `range`; granted at once when
    /// the range is free, queued otherwise.
    pub(crate) fn lock_acquire(
        &mut self,
        me: NodeId,
        range: PageRange,
        holder: NodeId,
        fx: &mut Fx,
    ) {
        assert_eq!(self.home, me, "range locks are managed at the home node");
        if self.range_locks.acquire(range, holder) {
            deliver_grant(self.mobj, me, range, holder, fx);
        }
    }

    /// Home node (`me`): `holder` releases `range`; queued requests that
    /// now fit are granted.
    pub(crate) fn lock_release(
        &mut self,
        me: NodeId,
        range: PageRange,
        holder: NodeId,
        fx: &mut Fx,
    ) {
        assert_eq!(self.home, me, "range locks are managed at the home node");
        for g in self.range_locks.release(range, holder) {
            deliver_grant(self.mobj, me, g.range, g.holder, fx);
        }
    }
}

/// Delivers a range-lock grant on `mobj` to `holder` (locally when the
/// home node `me` is the holder).
fn deliver_grant(mobj: MemObjId, me: NodeId, range: PageRange, holder: NodeId, fx: &mut Fx) {
    if holder == me {
        fx.lock_granted.push((mobj, range));
    } else {
        let PageRange { first, count } = range;
        fx.send(holder, AsvmMsg::RangeLockGrant { mobj, first, count });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machvm::PageIdx;

    fn r(first: u32, count: u32) -> PageRange {
        PageRange {
            first: PageIdx(first),
            count,
        }
    }

    #[test]
    fn overlap_logic() {
        assert!(r(0, 4).overlaps(&r(3, 2)));
        assert!(!r(0, 4).overlaps(&r(4, 2)));
        assert!(r(2, 1).overlaps(&r(0, 8)));
        assert!(!r(5, 0).overlaps(&r(0, 100)));
    }

    #[test]
    fn disjoint_locks_grant_immediately() {
        let mut m = RangeLockMgr::default();
        assert!(m.acquire(r(0, 4), NodeId(0)));
        assert!(m.acquire(r(4, 4), NodeId(1)));
        assert_eq!(m.held_count(), 2);
    }

    #[test]
    fn conflicting_lock_queues_until_release() {
        let mut m = RangeLockMgr::default();
        assert!(m.acquire(r(0, 8), NodeId(0)));
        assert!(!m.acquire(r(4, 2), NodeId(1)));
        assert_eq!(m.queued_count(), 1);
        let granted = m.release(r(0, 8), NodeId(0));
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].holder, NodeId(1));
        assert_eq!(m.held_count(), 1);
    }

    #[test]
    fn fifo_fairness_prevents_overtaking() {
        let mut m = RangeLockMgr::default();
        assert!(m.acquire(r(0, 4), NodeId(0)));
        // Node 1 queues for an overlapping range; node 2 then asks for a
        // range overlapping node 1's queued request — it must queue behind
        // it even though nothing *held* conflicts.
        assert!(!m.acquire(r(2, 6), NodeId(1)));
        assert!(!m.acquire(r(6, 2), NodeId(2)));
        let granted = m.release(r(0, 4), NodeId(0));
        // Node 1 is granted; node 2 still conflicts with it.
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].holder, NodeId(1));
        let granted = m.release(r(2, 6), NodeId(1));
        assert_eq!(granted.len(), 1);
        assert_eq!(granted[0].holder, NodeId(2));
    }

    #[test]
    #[should_panic(expected = "not held")]
    fn releasing_unheld_lock_panics() {
        let mut m = RangeLockMgr::default();
        m.release(r(0, 1), NodeId(0));
    }
}
