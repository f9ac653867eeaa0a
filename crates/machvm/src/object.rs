//! VM objects: the kernel-side representation of memory, with shadow and
//! copy links implementing Mach's delayed-copy strategies (§2.2 of the
//! paper).

use std::collections::BTreeSet;

use crate::containers::SlotTable;
use crate::ids::{Access, MemObjId, PageIdx, VmObjId};
use crate::pagedata::PageData;

/// What backs a VM object when its pages are not resident.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backing {
    /// Zero-filled on first touch; evicted pages go to the default pager.
    Anonymous,
    /// Backed by an external memory object (a pager task, possibly behind
    /// an XMM or ASVM layer).
    External(MemObjId),
}

/// Which delayed-copy strategy applies when this object is copied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CopyStrategy {
    /// Symmetric: source and copy keep referencing the object; whichever
    /// side writes first gets a fresh shadow object (FIGURE 2). The source
    /// object's contents freeze. Used when changes need not reach a pager.
    Symmetric,
    /// Asymmetric: a copy object is created eagerly and linked with
    /// copy/shadow links; pages are pushed to it before modification and
    /// pulled through it on access (FIGURE 3). Used for externally managed
    /// memory such as mapped files.
    Asymmetric,
}

/// One page resident in the VM page cache.
#[derive(Clone, Debug)]
pub struct ResidentPage {
    /// Contents.
    pub data: PageData,
    /// Maximum access the kernel may grant on this page (the manager's
    /// lock value for external objects).
    pub prot: Access,
    /// Modified since it was supplied / created.
    pub dirty: bool,
    /// A protocol operation (fault completion, push, eviction) is in
    /// flight; the page must not be evicted or flushed underneath it.
    pub busy: bool,
    /// Handle of this page's entry in its VM system's replacement queue
    /// (what makes leaving the queue `O(1)`).
    pub(crate) queued: u32,
}

// One of these per resident page in the whole cluster.
const _: () = assert!(
    std::mem::size_of::<ResidentPage>() == 24,
    "machvm::ResidentPage is no longer 24 bytes"
);

impl ResidentPage {
    /// A page entering the cache, not busy, queued for replacement under
    /// handle `queued`.
    pub(crate) fn new(data: PageData, prot: Access, dirty: bool, queued: u32) -> ResidentPage {
        ResidentPage {
            data,
            prot,
            dirty,
            busy: false,
            queued,
        }
    }
}

/// The resident-page table of one VM object: dense storage indexed by
/// page number.
///
/// This sits on the hottest path in the simulator — every Touch/Read/
/// Write step walks a shadow chain doing one lookup per object — so the
/// page record lives in a flat slot array (`O(1)` index instead of a
/// B-tree descent), iterated in ascending page index. The trade is
/// memory proportional to the highest resident page index per object;
/// simulated regions are compact, and sparse giants would only pay one
/// `Option` slot per hole.
pub type PageTable = SlotTable<PageIdx, ResidentPage>;

/// A kernel VM object.
#[derive(Clone, Debug)]
pub struct VmObject {
    /// This object's id within its node.
    pub id: VmObjId,
    /// Object length in pages.
    pub size_pages: u32,
    /// Resident pages.
    pub pages: PageTable,
    /// Backing store.
    pub backing: Backing,
    /// Copy strategy used when this object is delayed-copied.
    pub copy_strategy: CopyStrategy,
    /// Shadow link: where to look for pages this object lacks (toward the
    /// copy's source).
    pub shadow: Option<VmObjId>,
    /// Copy link: the most recent copy object (asymmetric strategy); pushes
    /// target it.
    pub copy: Option<VmObjId>,
    /// Reference count from address-map entries and child shadow links.
    pub refs: u32,
    /// Pages evicted to the default pager (anonymous objects only): the
    /// kernel must re-request them instead of zero-filling.
    pub paged_out: BTreeSet<PageIdx>,
}

impl VmObject {
    /// Creates an object with no pages resident.
    pub fn new(id: VmObjId, size_pages: u32, backing: Backing) -> VmObject {
        let copy_strategy = match backing {
            Backing::Anonymous => CopyStrategy::Symmetric,
            Backing::External(_) => CopyStrategy::Asymmetric,
        };
        VmObject {
            id,
            size_pages,
            pages: PageTable::new(),
            backing,
            copy_strategy,
            shadow: None,
            copy: None,
            refs: 0,
            paged_out: BTreeSet::new(),
        }
    }

    /// The external memory object this VM object represents, if any.
    pub fn mem_obj(&self) -> Option<MemObjId> {
        match self.backing {
            Backing::External(m) => Some(m),
            Backing::Anonymous => None,
        }
    }

    /// True if `page` is resident.
    pub fn resident(&self, page: PageIdx) -> bool {
        self.pages.contains_key(&page)
    }

    /// Write-protects every resident page (used when a delayed copy is
    /// created, so the next write faults and triggers a push).
    pub fn write_protect_all(&mut self) -> u32 {
        let mut n = 0;
        for rp in self.pages.values_mut() {
            if rp.prot == Access::Write {
                rp.prot = Access::Read;
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_follows_backing() {
        let a = VmObject::new(VmObjId(1), 4, Backing::Anonymous);
        assert_eq!(a.copy_strategy, CopyStrategy::Symmetric);
        let e = VmObject::new(VmObjId(2), 4, Backing::External(MemObjId(9)));
        assert_eq!(e.copy_strategy, CopyStrategy::Asymmetric);
        assert_eq!(e.mem_obj(), Some(MemObjId(9)));
        assert_eq!(a.mem_obj(), None);
    }

    #[test]
    fn write_protect_counts_downgrades() {
        let mut o = VmObject::new(VmObjId(1), 4, Backing::Anonymous);
        o.pages.insert(
            PageIdx(0),
            ResidentPage::new(PageData::Zero, Access::Write, false, 0),
        );
        o.pages.insert(
            PageIdx(1),
            ResidentPage::new(PageData::Zero, Access::Read, false, 1),
        );
        assert_eq!(o.write_protect_all(), 1);
        assert!(o.pages.values().all(|p| p.prot == Access::Read));
    }
}
