//! Page-level simulation of the prototype's priority paging (Sec 3.2 and
//! Sec 7: "we have added priority to the Linux paging mechanism").
//!
//! [`crate::memory::TwoPoolMemory`] captures the *policy* (pool sizes and
//! reclaim order); this module simulates the *mechanism* at page
//! granularity: per-pool LRU lists, a shared free list, reference and
//! fault streams, and the costs that make the policy matter — a foreign
//! job whose resident set has been reclaimed pays page faults to grow it
//! back, and (the point of the design) the local workload *never* faults
//! because of the foreign job.
//!
//! The model is used two ways:
//! * unit/property tests prove the protection invariant the paper's
//!   prototype relies on;
//! * [`PagingSim::foreign_efficiency`] feeds the memory-pressure ablation:
//!   how much of the foreign job's progress survives when its working set
//!   only partly fits.

use linger_sim_core::{domains, RngFactory, SimRng};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Who owns a physical frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Owner {
    /// Free list.
    Free,
    /// Local (owner-class) page.
    Local,
    /// Foreign (guest-class) page.
    Foreign,
}

/// Configuration of the paging simulation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PagingConfig {
    /// Physical frames.
    pub frames: usize,
    /// Local working-set size, pages.
    pub local_pages: usize,
    /// Foreign working-set size, pages.
    pub foreign_pages: usize,
    /// Cost of a major fault (disk), in microseconds — used for the
    /// efficiency estimate.
    pub fault_cost_us: f64,
    /// Mean CPU time between two foreign page references, microseconds.
    pub foreign_ref_interval_us: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for PagingConfig {
    fn default() -> Self {
        PagingConfig {
            // 64 MB of 4 KB frames.
            frames: 16_384,
            local_pages: 8_000,
            foreign_pages: 2_048,   // 8 MB
            fault_cost_us: 8_000.0, // ~8 ms disk service, 1998 hardware
            foreign_ref_interval_us: 20.0,
            seed: 0,
        }
    }
}

/// Counters of interest.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PagingStats {
    /// Foreign references simulated.
    pub foreign_refs: u64,
    /// Foreign major faults taken.
    pub foreign_faults: u64,
    /// Local references simulated.
    pub local_refs: u64,
    /// Local major faults taken (must stay 0 while the foreign pool is
    /// non-empty — the protection invariant).
    pub local_faults: u64,
    /// Frames reclaimed from the foreign pool for local growth.
    pub reclaims: u64,
}

/// The page-level simulator.
pub struct PagingSim {
    cfg: PagingConfig,
    owner: Vec<Owner>,
    /// LRU order of local frames (front = coldest).
    local_lru: VecDeque<usize>,
    /// LRU order of foreign frames (front = coldest).
    foreign_lru: VecDeque<usize>,
    free: Vec<usize>,
    /// Virtual-page → frame maps (None = not resident).
    local_map: Vec<Option<usize>>,
    foreign_map: Vec<Option<usize>>,
    /// Pages that have been resident at least once: a miss on one of
    /// these is a true re-fault, not a compulsory first touch.
    local_seen: Vec<bool>,
    foreign_seen: Vec<bool>,
    rng: SimRng,
    stats: PagingStats,
}

impl PagingSim {
    /// Initialize with all frames free.
    pub fn new(cfg: PagingConfig) -> Self {
        assert!(cfg.frames > 0, "need at least one frame");
        PagingSim {
            owner: vec![Owner::Free; cfg.frames],
            local_lru: VecDeque::new(),
            foreign_lru: VecDeque::new(),
            free: (0..cfg.frames).rev().collect(),
            local_map: vec![None; cfg.local_pages],
            foreign_map: vec![None; cfg.foreign_pages],
            local_seen: vec![false; cfg.local_pages],
            foreign_seen: vec![false; cfg.foreign_pages],
            rng: RngFactory::new(cfg.seed).stream_for(domains::MEMORY, 0xBEEF),
            stats: PagingStats::default(),
            cfg,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> PagingStats {
        self.stats
    }

    /// Resident page counts `(local, foreign, free)`.
    pub fn residency(&self) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for o in &self.owner {
            match o {
                Owner::Local => counts.0 += 1,
                Owner::Foreign => counts.1 += 1,
                Owner::Free => counts.2 += 1,
            }
        }
        counts
    }

    fn grab_free(&mut self) -> Option<usize> {
        self.free.pop()
    }

    /// Take a frame for a **local** page: free list first, then reclaim
    /// the coldest foreign frame, then evict the coldest local frame
    /// (self-eviction — the only case that counts as a local fault cost
    /// beyond the compulsory miss).
    fn frame_for_local(&mut self) -> usize {
        if let Some(f) = self.grab_free() {
            return f;
        }
        if let Some(f) = self.foreign_lru.pop_front() {
            self.stats.reclaims += 1;
            // Unmap the foreign page that held it.
            if let Some(vp) = self.foreign_map.iter().position(|&m| m == Some(f)) {
                self.foreign_map[vp] = None;
            }
            return f;
        }
        let f = self.local_lru.pop_front().expect("no frames at all");
        if let Some(vp) = self.local_map.iter().position(|&m| m == Some(f)) {
            self.local_map[vp] = None;
        }
        f
    }

    /// Take a frame for a **foreign** page: free list, else evict the
    /// coldest *foreign* frame. Never touches local frames.
    fn frame_for_foreign(&mut self) -> Option<usize> {
        if let Some(f) = self.grab_free() {
            return Some(f);
        }
        let f = self.foreign_lru.pop_front()?;
        if let Some(vp) = self.foreign_map.iter().position(|&m| m == Some(f)) {
            self.foreign_map[vp] = None;
        }
        Some(f)
    }

    fn touch(lru: &mut VecDeque<usize>, frame: usize) {
        if let Some(pos) = lru.iter().position(|&f| f == frame) {
            lru.remove(pos);
        }
        lru.push_back(frame);
    }

    /// Reference local virtual page `vp`; returns `true` on a fault.
    pub fn local_ref(&mut self, vp: usize) -> bool {
        assert!(vp < self.cfg.local_pages, "local page out of range");
        self.stats.local_refs += 1;
        if let Some(f) = self.local_map[vp] {
            Self::touch(&mut self.local_lru, f);
            return false;
        }
        let f = self.frame_for_local();
        self.owner[f] = Owner::Local;
        self.local_map[vp] = Some(f);
        self.local_lru.push_back(f);
        // Compulsory (first-touch) misses are not charged as faults; a
        // re-fault of a previously-resident page is — and it can only
        // happen via local self-eviction, never foreign pressure.
        let refault = self.local_seen[vp];
        self.local_seen[vp] = true;
        if refault {
            self.stats.local_faults += 1;
        }
        refault
    }

    /// Reference foreign virtual page `vp`; returns `true` on a fault
    /// (compulsory misses excluded), `false` on a hit. Returns `None`
    /// when no frame can be obtained (zero residency).
    pub fn foreign_ref(&mut self, vp: usize) -> Option<bool> {
        assert!(vp < self.cfg.foreign_pages, "foreign page out of range");
        self.stats.foreign_refs += 1;
        if let Some(f) = self.foreign_map[vp] {
            Self::touch(&mut self.foreign_lru, f);
            return Some(false);
        }
        let f = self.frame_for_foreign()?;
        self.owner[f] = Owner::Foreign;
        self.foreign_map[vp] = Some(f);
        self.foreign_lru.push_back(f);
        let refault = self.foreign_seen[vp];
        self.foreign_seen[vp] = true;
        if refault {
            self.stats.foreign_faults += 1;
        }
        Some(refault)
    }

    /// Release local residency down to `pages` (the owner's demand
    /// shrank); freed frames go to the free list.
    #[cfg(test)]
    fn shrink_local_to(&mut self, pages: usize) {
        while self.local_lru.len() > pages {
            let f = self.local_lru.pop_front().expect("non-empty");
            if let Some(vp) = self.local_map.iter().position(|&m| m == Some(f)) {
                self.local_map[vp] = None;
            }
            self.owner[f] = Owner::Free;
            self.free.push(f);
        }
    }

    /// Drive `refs` uniformly-random foreign references and return the
    /// efficiency: CPU time doing work / (work + fault service). This is
    /// the page-level ground truth behind the cluster simulator's
    /// residency-proportional slowdown.
    pub fn foreign_efficiency(&mut self, refs: u64) -> f64 {
        let mut faults = 0u64;
        for _ in 0..refs {
            let vp = (self.rng.random::<u64>() % self.cfg.foreign_pages as u64) as usize;
            match self.foreign_ref(vp) {
                Some(true) => faults += 1,
                Some(false) => {}
                None => return 0.0,
            }
        }
        let work = refs as f64 * self.cfg.foreign_ref_interval_us;
        let stall = faults as f64 * self.cfg.fault_cost_us;
        work / (work + stall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(frames: usize, local: usize, foreign: usize) -> PagingSim {
        PagingSim::new(PagingConfig {
            frames,
            local_pages: local,
            foreign_pages: foreign,
            ..Default::default()
        })
    }

    #[test]
    fn cold_start_populates_without_faults() {
        let mut s = small(100, 40, 20);
        for vp in 0..40 {
            assert!(!s.local_ref(vp), "compulsory miss is not a fault");
        }
        for vp in 0..20 {
            assert_eq!(s.foreign_ref(vp), Some(false));
        }
        let (l, f, free) = s.residency();
        assert_eq!((l, f, free), (40, 20, 40));
        assert_eq!(s.stats().local_faults, 0);
        assert_eq!(s.stats().foreign_faults, 0);
    }

    #[test]
    fn local_growth_reclaims_foreign_lru_first() {
        let mut s = small(30, 30, 10);
        for vp in 0..10 {
            s.foreign_ref(vp);
        }
        for vp in 0..25 {
            s.local_ref(vp);
        }
        // 30 frames: local 25, foreign shrunk to 5.
        let (l, f, _) = s.residency();
        assert_eq!(l, 25);
        assert_eq!(f, 5);
        assert_eq!(s.stats().reclaims, 5);
        assert_eq!(s.stats().local_faults, 0, "local never faults on foreign");
        // The coldest foreign pages (0..5) were the ones reclaimed.
        for vp in 0..5 {
            assert!(s.foreign_map_is_absent(vp));
        }
    }

    #[test]
    fn foreign_never_steals_local_frames() {
        let mut s = small(20, 20, 30);
        for vp in 0..20 {
            s.local_ref(vp);
        }
        // All frames local; foreign cannot obtain anything.
        assert_eq!(s.foreign_ref(0), None);
        let (l, f, _) = s.residency();
        assert_eq!((l, f), (20, 0));
    }

    #[test]
    fn foreign_thrashes_within_its_own_pool() {
        // Foreign WS 20 pages but only ~10 frames available: it re-faults
        // against itself, never against local.
        let mut s = small(30, 20, 20);
        for vp in 0..20 {
            s.local_ref(vp);
        }
        for round in 0..3 {
            for vp in 0..20 {
                let r = s.foreign_ref(vp);
                assert!(r.is_some());
                let _ = round;
            }
        }
        assert!(s.stats().foreign_faults > 0);
        assert_eq!(s.stats().local_faults, 0);
        let (l, f, _) = s.residency();
        assert_eq!(l, 20);
        assert_eq!(f, 10);
    }

    #[test]
    fn local_refault_only_after_self_eviction() {
        // Local WS larger than physical memory: local evicts local, and
        // those re-references are real faults.
        let mut s = small(10, 15, 5);
        for vp in 0..15 {
            s.local_ref(vp);
        }
        assert_eq!(s.stats().local_faults, 0, "first touches are compulsory");
        // Re-reference the evicted cold pages.
        let before = s.stats().local_faults;
        s.local_ref(0);
        assert_eq!(s.stats().local_faults, before + 1);
    }

    #[test]
    fn shrink_returns_frames_to_free_list() {
        let mut s = small(50, 30, 10);
        for vp in 0..30 {
            s.local_ref(vp);
        }
        s.shrink_local_to(10);
        let (l, _, free) = s.residency();
        assert_eq!(l, 10);
        // 20 frames were free before the shrink, plus the 20 released.
        assert_eq!(free, 40);
        // Foreign can now grow into the freed frames.
        for vp in 0..10 {
            assert!(s.foreign_ref(vp).is_some());
        }
        let (_, f, _) = s.residency();
        assert_eq!(f, 10);
    }

    #[test]
    fn efficiency_is_one_when_fully_resident() {
        let mut s = small(4096, 1000, 512);
        for vp in 0..1000 {
            s.local_ref(vp);
        }
        let eff = s.foreign_efficiency(20_000);
        assert!(eff > 0.999, "eff {eff}");
    }

    #[test]
    fn efficiency_collapses_under_pressure() {
        // Foreign working set 512 pages, only ~64 frames for it.
        let mut s = small(1064, 1000, 512);
        for vp in 0..1000 {
            s.local_ref(vp);
        }
        let eff = s.foreign_efficiency(20_000);
        assert!(eff < 0.05, "thrashing should dominate: eff {eff}");
    }

    #[test]
    fn efficiency_degrades_monotonically_with_residency() {
        // Sweep available foreign frames; efficiency must not increase as
        // the pool shrinks.
        let mut prev = 1.1f64;
        for avail in [512usize, 384, 256, 128] {
            let mut s = small(1000 + avail, 1000, 512);
            for vp in 0..1000 {
                s.local_ref(vp);
            }
            let eff = s.foreign_efficiency(30_000);
            assert!(eff <= prev + 0.02, "avail {avail}: eff {eff} vs prev {prev}");
            prev = eff;
        }
    }

    impl PagingSim {
        fn foreign_map_is_absent(&self, vp: usize) -> bool {
            self.foreign_map[vp].is_none()
        }
    }
}
