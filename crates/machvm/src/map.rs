//! Task address maps.
//!
//! An address map is an ordered list of entries mapping page-aligned
//! virtual address ranges onto `(VM object, offset)` pairs, with protection
//! and inheritance attributes — a faithful miniature of Mach's `vm_map`.

use crate::ids::{Access, Inherit, PageIdx, VmObjId};

/// One mapping in a task's address space.
#[derive(Clone, Debug)]
pub struct MapEntry {
    /// First virtual page number covered.
    pub va_page: u64,
    /// Length in pages.
    pub pages: u32,
    /// The mapped VM object.
    pub object: VmObjId,
    /// Offset into the object, in pages.
    pub offset: u32,
    /// Maximum access this mapping permits.
    pub prot: Access,
    /// Fork behaviour.
    pub inherit: Inherit,
    /// Symmetric copy pending: the next write through this entry must
    /// first create a shadow object (FIGURE 2 of the paper).
    pub needs_copy: bool,
}

impl MapEntry {
    /// Translates a virtual page number to a page index within the object.
    ///
    /// # Panics
    ///
    /// Panics if `va_page` is outside the entry.
    pub fn object_page(&self, va_page: u64) -> PageIdx {
        assert!(self.contains(va_page), "va outside entry");
        PageIdx(self.offset + (va_page - self.va_page) as u32)
    }

    /// True if the entry covers `va_page`.
    pub fn contains(&self, va_page: u64) -> bool {
        va_page >= self.va_page && va_page < self.va_page + self.pages as u64
    }
}

/// A task's address space.
#[derive(Clone, Debug, Default)]
pub struct AddressMap {
    entries: Vec<MapEntry>,
}

impl AddressMap {
    /// An empty address space.
    pub fn new() -> AddressMap {
        AddressMap::default()
    }

    /// Inserts a mapping.
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps an existing entry — the workloads always
    /// lay out their address spaces disjointly, so an overlap is a bug.
    pub fn insert(&mut self, entry: MapEntry) {
        assert!(
            !self
                .entries
                .iter()
                .any(|e| entry.va_page < e.va_page + e.pages as u64
                    && e.va_page < entry.va_page + entry.pages as u64),
            "overlapping map entry at va_page {}",
            entry.va_page
        );
        let pos = self.entries.partition_point(|e| e.va_page < entry.va_page);
        self.entries.insert(pos, entry);
    }

    /// Finds the entry covering `va_page`.
    pub fn lookup(&self, va_page: u64) -> Option<&MapEntry> {
        let pos = self
            .entries
            .partition_point(|e| e.va_page + e.pages as u64 <= va_page);
        self.entries.get(pos).filter(|e| e.contains(va_page))
    }

    /// Mutable lookup.
    pub fn lookup_mut(&mut self, va_page: u64) -> Option<&mut MapEntry> {
        let pos = self
            .entries
            .partition_point(|e| e.va_page + e.pages as u64 <= va_page);
        self.entries.get_mut(pos).filter(|e| e.contains(va_page))
    }

    /// Removes the entry covering `va_page`, returning it.
    pub fn remove(&mut self, va_page: u64) -> Option<MapEntry> {
        let pos = self.entries.iter().position(|e| e.contains(va_page))?;
        Some(self.entries.remove(pos))
    }

    /// All entries in address order.
    pub fn entries(&self) -> &[MapEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(va: u64, pages: u32, obj: u32) -> MapEntry {
        MapEntry {
            va_page: va,
            pages,
            object: VmObjId(obj),
            offset: 0,
            prot: Access::Write,
            inherit: Inherit::Copy,
            needs_copy: false,
        }
    }

    #[test]
    fn lookup_finds_covering_entry() {
        let mut m = AddressMap::new();
        m.insert(entry(10, 5, 1));
        m.insert(entry(0, 4, 2));
        assert_eq!(m.lookup(0).unwrap().object, VmObjId(2));
        assert_eq!(m.lookup(3).unwrap().object, VmObjId(2));
        assert!(m.lookup(4).is_none());
        assert_eq!(m.lookup(14).unwrap().object, VmObjId(1));
        assert!(m.lookup(15).is_none());
    }

    #[test]
    fn object_page_translates_offsets() {
        let mut e = entry(10, 5, 1);
        e.offset = 100;
        assert_eq!(e.object_page(12), PageIdx(102));
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlap_rejected() {
        let mut m = AddressMap::new();
        m.insert(entry(0, 4, 1));
        m.insert(entry(3, 2, 2));
    }

    #[test]
    fn remove_returns_entry() {
        let mut m = AddressMap::new();
        m.insert(entry(0, 4, 1));
        assert_eq!(m.remove(2).unwrap().object, VmObjId(1));
        assert!(m.lookup(2).is_none());
        assert!(m.remove(2).is_none());
    }

    #[test]
    fn entries_sorted_by_va() {
        let mut m = AddressMap::new();
        m.insert(entry(20, 1, 1));
        m.insert(entry(0, 1, 2));
        m.insert(entry(10, 1, 3));
        let vas: Vec<u64> = m.entries().iter().map(|e| e.va_page).collect();
        assert_eq!(vas, vec![0, 10, 20]);
    }
}
