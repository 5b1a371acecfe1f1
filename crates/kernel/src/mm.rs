//! Memory-management substrate: per-task address spaces with demand
//! paging.
//!
//! Page faults are one of the paper's headline findings ("page faults
//! may have even larger impact than timer interrupts"), so they must be
//! generated mechanistically: a workload maps regions and *touches*
//! pages; the first touch of a non-present page raises a fault whose
//! service-cost class depends on how the region is backed.

use crate::activity::FaultKind;
use crate::ids::RegionId;

/// Page size used by the simulated node (4 KiB, as on the paper's
/// x86-64 testbed; they note HugeTLB as related work, not used here).
pub const PAGE_SIZE: u64 = 4096;

/// How a mapped region is backed, which decides the fault class of its
/// first-touch faults.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backing {
    /// Fresh anonymous memory: first touch maps the shared zero page
    /// (cheap minor fault).
    AnonFresh,
    /// Anonymous memory allocated under pressure: first touch goes
    /// through the allocator/reclaim path (the second AMG mode).
    AnonRecycled,
    /// File-backed (NFS) pages: executable, input decks.
    File,
    /// Private writable mapping of a shared page: first write breaks
    /// COW.
    CowShared,
}

impl Backing {
    /// The fault class raised by the first touch of a page in a region
    /// with this backing.
    pub fn fault_kind(self) -> FaultKind {
        match self {
            Backing::AnonFresh => FaultKind::AnonZero,
            Backing::AnonRecycled => FaultKind::AnonReclaim,
            Backing::File => FaultKind::FileBacked,
            Backing::CowShared => FaultKind::Cow,
        }
    }
}

/// A mapped virtual memory region.
#[derive(Clone, Debug)]
pub struct Region {
    pub id: RegionId,
    pub backing: Backing,
    pub pages: u64,
    /// Present bit per page. A `Vec<u64>` bitmap: bit set = present.
    present: Vec<u64>,
    present_count: u64,
}

impl Region {
    fn new(id: RegionId, backing: Backing, pages: u64) -> Self {
        let words = pages.div_ceil(64) as usize;
        Region {
            id,
            backing,
            pages,
            present: vec![0; words],
            present_count: 0,
        }
    }

    #[inline]
    pub fn is_present(&self, page: u64) -> bool {
        debug_assert!(page < self.pages);
        self.present[(page / 64) as usize] >> (page % 64) & 1 == 1
    }

    /// Mark `page` present; returns `true` if it was absent (i.e. this
    /// touch faulted).
    #[inline]
    pub fn touch(&mut self, page: u64) -> bool {
        debug_assert!(page < self.pages, "page {page} out of {}", self.pages);
        let word = &mut self.present[(page / 64) as usize];
        let bit = 1u64 << (page % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.present_count += 1;
            true
        } else {
            false
        }
    }

    /// First non-present page index in `[from, to)`, if any.
    pub fn next_absent(&self, from: u64, to: u64) -> Option<u64> {
        debug_assert!(to <= self.pages);
        let mut page = from;
        while page < to {
            let word_idx = (page / 64) as usize;
            // Invert so absent pages are set bits, mask off pages before `page`.
            let inv = !self.present[word_idx] & (!0u64 << (page % 64));
            if inv != 0 {
                let candidate = (word_idx as u64) * 64 + inv.trailing_zeros() as u64;
                if candidate < to {
                    return Some(candidate);
                }
                return None;
            }
            page = (word_idx as u64 + 1) * 64;
        }
        None
    }

    pub fn present_count(&self) -> u64 {
        self.present_count
    }

    /// Drop all present bits (models the region being unmapped and its
    /// address range reused, so re-touching faults again).
    pub fn reset(&mut self) {
        self.present.iter_mut().for_each(|w| *w = 0);
        self.present_count = 0;
    }
}

/// A task's address space: a slab of regions.
#[derive(Clone, Debug, Default)]
pub struct AddressSpace {
    regions: Vec<Region>,
}

impl AddressSpace {
    pub fn new() -> Self {
        AddressSpace::default()
    }

    /// Map a new region; returns its handle.
    pub fn mmap(&mut self, backing: Backing, pages: u64) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region::new(id, backing, pages));
        id
    }

    /// Unmap: present bits are cleared but the slot stays (handles are
    /// never reused, so stale handles fail loudly in debug builds).
    pub fn munmap(&mut self, id: RegionId) {
        self.region_mut(id).reset();
    }

    #[inline]
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0 as usize]
    }

    #[inline]
    pub fn region_mut(&mut self, id: RegionId) -> &mut Region {
        &mut self.regions[id.0 as usize]
    }

    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Total resident pages across all regions.
    pub fn rss_pages(&self) -> u64 {
        self.regions.iter().map(|r| r.present_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backing_to_fault_kind() {
        assert_eq!(Backing::AnonFresh.fault_kind(), FaultKind::AnonZero);
        assert_eq!(Backing::AnonRecycled.fault_kind(), FaultKind::AnonReclaim);
        assert_eq!(Backing::File.fault_kind(), FaultKind::FileBacked);
        assert_eq!(Backing::CowShared.fault_kind(), FaultKind::Cow);
    }

    #[test]
    fn touch_faults_only_once() {
        let mut aspace = AddressSpace::new();
        let r = aspace.mmap(Backing::AnonFresh, 100);
        let region = aspace.region_mut(r);
        assert!(region.touch(5), "first touch faults");
        assert!(!region.touch(5), "second touch does not");
        assert!(region.is_present(5));
        assert!(!region.is_present(6));
        assert_eq!(region.present_count(), 1);
    }

    #[test]
    fn next_absent_scans_bitmap() {
        let mut aspace = AddressSpace::new();
        let r = aspace.mmap(Backing::AnonFresh, 200);
        let region = aspace.region_mut(r);
        assert_eq!(region.next_absent(0, 200), Some(0));
        for p in 0..70 {
            region.touch(p);
        }
        assert_eq!(region.next_absent(0, 200), Some(70));
        assert_eq!(region.next_absent(0, 70), None);
        assert_eq!(region.next_absent(100, 200), Some(100));
        region.touch(70);
        assert_eq!(region.next_absent(0, 200), Some(71));
    }

    #[test]
    fn next_absent_respects_range_end() {
        let mut aspace = AddressSpace::new();
        let r = aspace.mmap(Backing::File, 64);
        let region = aspace.region_mut(r);
        for p in 0..64 {
            region.touch(p);
        }
        assert_eq!(region.next_absent(0, 64), None);
    }

    #[test]
    fn munmap_resets_presence() {
        let mut aspace = AddressSpace::new();
        let r = aspace.mmap(Backing::AnonRecycled, 32);
        aspace.region_mut(r).touch(3);
        assert_eq!(aspace.rss_pages(), 1);
        aspace.munmap(r);
        assert_eq!(aspace.rss_pages(), 0);
        assert!(!aspace.region(r).is_present(3));
    }

    #[test]
    fn region_handles_are_stable() {
        let mut aspace = AddressSpace::new();
        let a = aspace.mmap(Backing::AnonFresh, 10);
        let b = aspace.mmap(Backing::File, 20);
        assert_ne!(a, b);
        assert_eq!(aspace.region(a).pages, 10);
        assert_eq!(aspace.region(b).pages, 20);
    }

    #[test]
    fn non_multiple_of_64_sizes() {
        let mut aspace = AddressSpace::new();
        let r = aspace.mmap(Backing::AnonFresh, 65);
        let region = aspace.region_mut(r);
        assert!(region.touch(64));
        assert_eq!(region.next_absent(64, 65), None);
        assert_eq!(region.next_absent(0, 65), Some(0));
    }
}
