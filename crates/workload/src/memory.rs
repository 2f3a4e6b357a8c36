//! The two-pool priority memory model (paper Sec 3.2).
//!
//! "The idea is to divide memory into two pools: one for the local jobs
//! and the other for foreign jobs. Whenever a page is placed on the
//! free-list by a local job, the foreign job is able to use the page.
//! Likewise, when the local job runs out of pages, it reclaims them from
//! the foreign job prior to paging out any of its pages."
//!
//! [`TwoPoolMemory`] captures the policy at page granularity with the
//! invariants that matter to the scheduler:
//!
//! 1. local demand is **always** satisfied before foreign residency —
//!    local pages are never evicted on behalf of a foreign job;
//! 2. the foreign job's resident set grows only into free memory;
//! 3. when local demand grows, pages are reclaimed from the foreign job
//!    first.
//!
//! The cluster simulator gates job placement on a node's free memory
//! ([`TwoPoolMemory::free_kb`]). It keeps a pool only while the node
//! hosts a job: a pool holding none carries nothing beyond its owner's
//! last demand, so a free node's room is that of a pool built fresh from
//! the window's demand.

use serde::{Deserialize, Serialize};

/// Page size used to express the model in pages (4 KB, as in the paper's
/// Linux prototype).
pub const PAGE_KB: u32 = 4;

/// Two-pool priority page allocation state for one node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TwoPoolMemory {
    total_pages: u32,
    local_pages: u32,
    foreign_resident_pages: u32,
    /// The foreign job's full working-set size; residency may be lower.
    foreign_demand_pages: u32,
}

impl TwoPoolMemory {
    /// A node with `total_kb` of physical memory and `local_pages`
    /// initially used by the OS and local processes (clamped to the
    /// node's pages).
    pub fn new(total_kb: u32, local_pages: u32) -> Self {
        let total_pages = total_kb / PAGE_KB;
        let local_pages = local_pages.min(total_pages);
        TwoPoolMemory {
            total_pages,
            local_pages,
            foreign_resident_pages: 0,
            foreign_demand_pages: 0,
        }
    }

    /// Physical memory, KB.
    pub fn total_kb(&self) -> u32 {
        self.total_pages * PAGE_KB
    }

    /// Memory used by local jobs + OS, KB.
    pub fn local_kb(&self) -> u32 {
        self.local_pages * PAGE_KB
    }

    /// Foreign job resident size, KB.
    pub fn foreign_resident_kb(&self) -> u32 {
        self.foreign_resident_pages * PAGE_KB
    }

    /// Free memory (neither pool), KB.
    pub fn free_kb(&self) -> u32 {
        (self.total_pages - self.local_pages - self.foreign_resident_pages) * PAGE_KB
    }

    /// Would a foreign job of `job_kb` fit entirely in currently-free
    /// memory? This is the admission check the cluster scheduler applies
    /// (as `job_kb <= free_kb()`) before placing or migrating a job onto
    /// a node.
    pub fn fits(&self, job_kb: u32) -> bool {
        job_kb <= self.free_kb()
    }

    /// Attach a foreign job with a working set of `job_kb`. Residency is
    /// capped by free memory (invariant 2). Returns the resident KB.
    pub fn attach_foreign(&mut self, job_kb: u32) -> u32 {
        debug_assert_eq!(self.foreign_demand_pages, 0, "one foreign job per node");
        let demand = job_kb.div_ceil(PAGE_KB);
        self.foreign_demand_pages = demand;
        let free = self.total_pages - self.local_pages;
        self.foreign_resident_pages = demand.min(free);
        self.foreign_resident_kb()
    }

    /// Detach the foreign job (eviction or completion), freeing its pool.
    #[cfg(test)]
    fn detach_foreign(&mut self) {
        self.foreign_resident_pages = 0;
        self.foreign_demand_pages = 0;
    }

    /// Fraction of the foreign job's demand that is resident (1.0 when
    /// fully resident, less under local memory pressure).
    pub fn foreign_residency(&self) -> f64 {
        if self.foreign_demand_pages == 0 {
            1.0
        } else {
            self.foreign_resident_pages as f64 / self.foreign_demand_pages as f64
        }
    }

    /// Update local memory demand to `local_pages` (from the coarse
    /// trace's page lane).
    ///
    /// Demand past physical memory is clamped. Growth takes free pages,
    /// then reclaims foreign pages (invariant 3). Shrink releases pages
    /// to the free list, where the foreign job may re-grow toward its
    /// demand (invariant 1 of the free-list rule).
    pub fn set_local_pages(&mut self, local_pages: u32) {
        let want = local_pages.min(self.total_pages);
        if want > self.local_pages {
            // Take free pages first, then reclaim from the foreign pool:
            // `want` is capped at physical memory, so the two cover it.
            let free = self.total_pages - self.local_pages - self.foreign_resident_pages;
            self.foreign_resident_pages -= (want - self.local_pages).saturating_sub(free);
            self.local_pages = want;
        } else {
            self.local_pages = want;
            // Freed pages flow to the foreign job up to its demand.
            let free = self.total_pages - self.local_pages - self.foreign_resident_pages;
            let regrow = (self.foreign_demand_pages - self.foreign_resident_pages).min(free);
            self.foreign_resident_pages += regrow;
        }
        debug_assert!(
            self.local_pages + self.foreign_resident_pages <= self.total_pages,
            "pools exceed physical memory"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mem() -> TwoPoolMemory {
        // 64 MB node, 30 MB local.
        TwoPoolMemory::new(64 * 1024, 30 * 1024 / PAGE_KB)
    }

    #[test]
    fn initial_accounting() {
        let m = mem();
        assert_eq!(m.total_kb(), 64 * 1024);
        assert_eq!(m.local_kb(), 30 * 1024);
        assert_eq!(m.free_kb(), 34 * 1024);
        assert_eq!(m.foreign_resident_kb(), 0);
    }

    #[test]
    fn fits_respects_free_memory() {
        let m = mem();
        assert!(m.fits(8 * 1024));
        assert!(m.fits(34 * 1024));
        assert!(!m.fits(34 * 1024 + PAGE_KB));
    }

    #[test]
    fn attach_caps_residency_at_free() {
        let mut m = mem();
        let resident = m.attach_foreign(40 * 1024);
        assert_eq!(resident, 34 * 1024);
        assert_eq!(m.free_kb(), 0);
        assert!((m.foreign_residency() - 34.0 / 40.0).abs() < 1e-9);
    }

    #[test]
    fn local_growth_reclaims_foreign_first() {
        let mut m = mem();
        m.attach_foreign(8 * 1024);
        assert_eq!(m.free_kb(), 26 * 1024);
        // Local grows by 30 MB: 26 MB from free, 4 MB reclaimed.
        m.set_local_pages(60 * 1024 / PAGE_KB);
        assert_eq!(m.local_kb(), 60 * 1024);
        assert_eq!(m.foreign_resident_kb(), 4 * 1024);
    }

    #[test]
    fn local_pageouts_only_after_foreign_is_empty() {
        let mut m = mem();
        m.attach_foreign(8 * 1024);
        m.set_local_pages(64 * 1024 / PAGE_KB); // consumes everything
        assert_eq!(m.foreign_resident_kb(), 0);
        m.set_local_pages(64 * 1024 / PAGE_KB); // no-op
                                                // Demand beyond physical memory is clamped, not counted against
                                                // the foreign job.
        m.set_local_pages(80 * 1024 / PAGE_KB);
        assert_eq!(m.local_kb(), 64 * 1024);
    }

    #[test]
    fn foreign_regrows_when_local_shrinks() {
        let mut m = mem();
        m.attach_foreign(8 * 1024);
        m.set_local_pages(60 * 1024 / PAGE_KB);
        assert_eq!(m.foreign_resident_kb(), 4 * 1024);
        m.set_local_pages(30 * 1024 / PAGE_KB);
        assert_eq!(m.foreign_resident_kb(), 8 * 1024, "free pages flow back");
        assert_eq!(m.free_kb(), 26 * 1024);
    }

    #[test]
    fn detach_restores_free_memory() {
        let mut m = mem();
        m.attach_foreign(8 * 1024);
        m.detach_foreign();
        assert_eq!(m.free_kb(), 34 * 1024);
        assert_eq!(m.foreign_residency(), 1.0);
    }

    #[test]
    fn pools_never_exceed_total() {
        // Randomized local demand walk preserves the core invariant.
        let mut m = mem();
        m.attach_foreign(12 * 1024);
        let mut x = 48_271u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let kb = (x >> 33) as u32 % (80 * 1024);
            m.set_local_pages(kb / PAGE_KB);
            assert!(m.local_kb() + m.foreign_resident_kb() <= m.total_kb());
        }
    }

    #[test]
    fn page_rounding() {
        let mut m = TwoPoolMemory::new(100 * PAGE_KB, 10);
        // 5 KB demand rounds up to 2 pages.
        let resident = m.attach_foreign(5);
        assert_eq!(resident, 2 * PAGE_KB);
    }

    /// The KB-argument constructor and setter this model had while the
    /// owner-memory lane held KB, copied verbatim (modulo `self` → `m`)
    /// as the reference the page API must reproduce on `kb / PAGE_KB`.
    fn reference_new(total_kb: u32, local_kb: u32) -> TwoPoolMemory {
        let total_pages = total_kb / PAGE_KB;
        let local_pages = (local_kb / PAGE_KB).min(total_pages);
        TwoPoolMemory {
            total_pages,
            local_pages,
            foreign_resident_pages: 0,
            foreign_demand_pages: 0,
        }
    }

    fn reference_set_local_kb(m: &mut TwoPoolMemory, local_kb: u32) {
        let want = (local_kb / PAGE_KB).min(m.total_pages);
        if want > m.local_pages {
            let mut need = want - m.local_pages;
            let free = m.total_pages - m.local_pages - m.foreign_resident_pages;
            let from_free = need.min(free);
            need -= from_free;
            let from_foreign = need.min(m.foreign_resident_pages);
            m.foreign_resident_pages -= from_foreign;
            m.local_pages = want;
        } else {
            m.local_pages = want;
            let free = m.total_pages - m.local_pages - m.foreign_resident_pages;
            let regrow = (m.foreign_demand_pages - m.foreign_resident_pages).min(free);
            m.foreign_resident_pages += regrow;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The page constructor and setters leave every counter exactly
        /// where the KB formula left it, with and without a foreign job,
        /// across demands that straddle physical memory and odd KB
        /// values that are not whole pages.
        #[test]
        fn page_setters_match_the_kb_formula(
            total_kb in 1u32..=128 * 1024,
            local_kb in 0u32..=160 * 1024,
            job_kb in 0u32..=48 * 1024,
            walk in prop::collection::vec(0u32..=160 * 1024, 1..64),
        ) {
            let mut got = TwoPoolMemory::new(total_kb, local_kb / PAGE_KB);
            let mut want = reference_new(total_kb, local_kb);
            prop_assert_eq!(&got, &want);
            // A zero-KB job stands for none attached.
            if job_kb > 0 {
                got.attach_foreign(job_kb);
                want.attach_foreign(job_kb);
            }
            for kb in walk {
                got.set_local_pages(kb / PAGE_KB);
                reference_set_local_kb(&mut want, kb);
                prop_assert_eq!(&got, &want);
            }
        }

        /// A pool that holds no foreign job carries no state beyond the
        /// owner's last demand, so a pool built fresh from that demand
        /// can stand in for it: the cluster keeps a node's pool only
        /// while it hosts a job and seeds it from the window row when the
        /// job attaches. Each op is `(code, kb)`: codes 0 and 1 set the
        /// owner's demand to `kb`, 2 attaches a job of `kb % 48 MB` when
        /// none is attached, and 3 detaches.
        #[test]
        fn a_fresh_pool_stands_in_for_a_detached_one(
            total_kb in 1u32..=128 * 1024,
            local_kb in 0u32..=160 * 1024,
            ops in prop::collection::vec((0u32..4, 0u32..=160 * 1024), 1..64),
        ) {
            // What the simulator reads of a pool.
            let view = |m: &TwoPoolMemory| {
                (m.local_kb(), m.foreign_resident_kb(), m.free_kb(), m.foreign_residency())
            };
            let mut last_pages = local_kb / PAGE_KB;
            let mut persistent = TwoPoolMemory::new(total_kb, last_pages);
            // The seeded stand-in while a job is attached.
            let mut seeded: Option<TwoPoolMemory> = None;
            for (code, kb) in ops {
                match code {
                    0 | 1 => {
                        last_pages = kb / PAGE_KB;
                        persistent.set_local_pages(last_pages);
                        if let Some(s) = seeded.as_mut() {
                            s.set_local_pages(last_pages);
                        }
                    }
                    2 if seeded.is_none() => {
                        let job_kb = kb % (48 * 1024);
                        persistent.attach_foreign(job_kb);
                        let mut fresh = TwoPoolMemory::new(total_kb, last_pages);
                        fresh.attach_foreign(job_kb);
                        seeded = Some(fresh);
                    }
                    2 => {}
                    _ => {
                        persistent.detach_foreign();
                        seeded = None;
                    }
                }
                if let Some(s) = &seeded {
                    prop_assert_eq!(view(s), view(&persistent));
                }
            }
            persistent.detach_foreign();
            prop_assert_eq!(view(&TwoPoolMemory::new(total_kb, last_pages)), view(&persistent));
        }
    }
}
