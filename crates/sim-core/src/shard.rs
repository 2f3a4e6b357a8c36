//! Deterministic partitioning of a node-id space into contiguous shards.
//!
//! The cluster window sweep reads per-node hot state (occupancy, trace
//! activity, linger countdowns) once per window. To let several workers
//! advance one window cooperatively *without* changing any output byte,
//! the id space `0..n` is split into contiguous, 64-aligned ranges: each
//! shard classifies its own nodes into an intent buffer, and a single
//! sequential pass then merges the buffers in ascending shard (and hence
//! ascending node-id) order. Because shard boundaries fall on `u64`
//! bitset word boundaries, a shard can also write its slice of a packed
//! bit mask without atomics or false sharing.
//!
//! The plan is a pure function of `(n, shards)` — the same discipline
//! [`par_map_indexed`](crate::par_map_indexed) uses for index-derived
//! seeding — so a run is reproducible at any worker count: the merge
//! order, and therefore every emitted byte, never depends on which
//! thread ran which shard.
//!
//! [`ShardPlan::run`] is the one place that decides whether shards run
//! on threads; sweeps below [`SHARD_MIN_NODES`] default to one shard.

use crate::par::default_jobs;
use std::ops::Range;
use std::panic::resume_unwind;

/// Node count from which a window sweep defaults to several (threaded)
/// shards. On a 2-core host the in-line sweep beat 8 threaded shards at
/// 65,536 nodes and lost to 16 at 262,144 (DESIGN.md §5g); no sweep has
/// a cell in between.
pub const SHARD_MIN_NODES: usize = 131_072;

/// Default shard count for an `n`-node sweep: one below
/// [`SHARD_MIN_NODES`], else one per ~8k nodes, capped at 16. Purely an
/// execution choice — any value produces the same bytes.
pub fn default_shard_count(n: usize) -> usize {
    if n < SHARD_MIN_NODES {
        1
    } else {
        (n / 8192).clamp(1, 16)
    }
}

/// A deterministic split of the id space `0..n` into contiguous,
/// 64-aligned ranges.
///
/// All ranges except possibly the last hold the same multiple-of-64
/// number of ids; the last takes the remainder. Requesting more shards
/// than the space supports yields fewer (never empty) shards, so every
/// range in [`ShardPlan::ranges`] is non-empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n: usize,
    ranges: Vec<Range<usize>>,
}

impl ShardPlan {
    /// Plan a split of `0..n` into at most `shards` ranges.
    ///
    /// `shards == 0` is treated as 1. For `n == 0` the plan is empty.
    pub fn new(n: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut ranges = Vec::new();
        if n > 0 {
            let words = n.div_ceil(64);
            let per_shard_words = words.div_ceil(shards).max(1);
            let step = per_shard_words * 64;
            let mut start = 0usize;
            while start < n {
                let end = (start + step).min(n);
                ranges.push(start..end);
                start = end;
            }
        }
        ShardPlan { n, ranges }
    }

    /// The contiguous id ranges, ascending and non-overlapping; their
    /// concatenation is exactly `0..n`.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Number of shards actually produced (≤ the requested count).
    pub fn shard_count(&self) -> usize {
        self.ranges.len()
    }

    /// The range of packed-`u64`-word indices shard `i` owns. Because
    /// every boundary is 64-aligned, word ranges of distinct shards never
    /// overlap — each shard may mutate its own slice of a packed bit
    /// array.
    pub fn word_range(&self, i: usize) -> Range<usize> {
        let r = &self.ranges[i];
        r.start / 64..r.end.div_ceil(64)
    }

    /// Split `slice` (of length `n`) into one mutable sub-slice per
    /// shard, in shard order.
    ///
    /// # Panics
    /// If `slice.len() != n`.
    pub fn split_mut<'a, T>(&self, slice: &'a mut [T]) -> Vec<&'a mut [T]> {
        assert_eq!(slice.len(), self.n, "slice length must match plan");
        let mut out = Vec::with_capacity(self.ranges.len());
        let mut rest = slice;
        let mut consumed = 0usize;
        for r in &self.ranges {
            let (head, tail) = rest.split_at_mut(r.end - consumed);
            out.push(head);
            rest = tail;
            consumed = r.end;
        }
        out
    }

    /// Split a packed bit array of `n.div_ceil(64)` words into one
    /// mutable word sub-slice per shard, in shard order — the word-level
    /// counterpart of [`ShardPlan::split_mut`], valid because every shard
    /// boundary is 64-aligned.
    ///
    /// # Panics
    /// If `words.len() != n.div_ceil(64)`.
    pub fn split_words_mut<'a>(&self, words: &'a mut [u64]) -> Vec<&'a mut [u64]> {
        assert_eq!(words.len(), self.n.div_ceil(64), "word count must match plan");
        let mut out = Vec::with_capacity(self.ranges.len());
        let mut rest = words;
        let mut consumed = 0usize;
        for i in 0..self.ranges.len() {
            let end = self.word_range(i).end;
            let (head, tail) = rest.split_at_mut(end - consumed);
            out.push(head);
            rest = tail;
            consumed = end;
        }
        out
    }

    /// Call `f(shard_index, part)` for each of `parts` (one per shard,
    /// in shard order). With more than one shard and a worker budget
    /// ([`default_jobs`](crate::default_jobs)) above one, each shard gets
    /// its own scoped thread; otherwise the shards run in-line, in order.
    /// A shard's panic reaches the caller with its own payload.
    pub fn run<P: Send>(&self, parts: impl IntoIterator<Item = P>, f: impl Fn(usize, P) + Sync) {
        // `default_jobs` may query the OS; a one-shard plan never needs it.
        let workers = if self.shard_count() > 1 { default_jobs() } else { 1 };
        self.run_with(workers, parts, f);
    }

    fn run_with<P: Send>(
        &self,
        workers: usize,
        parts: impl IntoIterator<Item = P>,
        f: impl Fn(usize, P) + Sync,
    ) {
        let parts = parts.into_iter().enumerate();
        if self.shard_count() <= 1 || workers <= 1 {
            return parts.for_each(|(si, part)| f(si, part));
        }
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                parts.map(|(si, part)| scope.spawn(move || f(si, part))).collect();
            for handle in handles {
                if let Err(payload) = handle.join() {
                    resume_unwind(payload);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_the_space_and_align_to_words() {
        for n in [0usize, 1, 63, 64, 65, 500, 4096, 65_536, 65_537] {
            for shards in [1usize, 2, 3, 7, 16, 1000] {
                let plan = ShardPlan::new(n, shards);
                let mut next = 0usize;
                for (i, r) in plan.ranges().iter().enumerate() {
                    assert_eq!(r.start, next, "contiguous");
                    assert!(r.start < r.end, "non-empty");
                    assert_eq!(r.start % 64, 0, "word-aligned start");
                    if i + 1 < plan.shard_count() {
                        assert_eq!(r.end % 64, 0, "interior boundaries word-aligned");
                    }
                    next = r.end;
                }
                assert_eq!(next, n, "tiles exactly 0..n");
                assert!(plan.shard_count() <= shards.max(1));
            }
        }
    }

    #[test]
    fn plan_is_pure_in_inputs() {
        assert_eq!(ShardPlan::new(4096, 7), ShardPlan::new(4096, 7));
        assert_ne!(ShardPlan::new(4096, 7).ranges(), ShardPlan::new(4096, 8).ranges());
    }

    #[test]
    fn word_ranges_are_disjoint() {
        let plan = ShardPlan::new(65_537, 16);
        let mut prev_end = 0usize;
        for i in 0..plan.shard_count() {
            let wr = plan.word_range(i);
            assert_eq!(wr.start, prev_end);
            prev_end = wr.end;
        }
        assert_eq!(prev_end, 65_537usize.div_ceil(64));
    }

    #[test]
    fn split_mut_partitions_in_order() {
        let plan = ShardPlan::new(300, 3);
        let mut data: Vec<usize> = (0..300).collect();
        let parts = plan.split_mut(&mut data);
        assert_eq!(parts.len(), plan.shard_count());
        for (part, r) in parts.iter().zip(plan.ranges()) {
            assert_eq!(part.len(), r.len());
            assert_eq!(part[0], r.start);
        }
    }

    #[test]
    fn split_words_mut_mirrors_word_ranges() {
        let plan = ShardPlan::new(300, 3);
        let mut words = vec![0u64; 300usize.div_ceil(64)];
        let parts = plan.split_words_mut(&mut words);
        assert_eq!(parts.len(), plan.shard_count());
        for (i, part) in parts.iter().enumerate() {
            assert_eq!(part.len(), plan.word_range(i).len());
        }
    }

    #[test]
    fn default_shard_count_is_one_below_the_threshold() {
        assert_eq!(default_shard_count(0), 1);
        assert_eq!(default_shard_count(65_536), 1);
        assert_eq!(default_shard_count(SHARD_MIN_NODES - 1), 1);
        assert_eq!(default_shard_count(SHARD_MIN_NODES), 16);
        assert_eq!(default_shard_count(1 << 20), 16);
    }

    /// Run `plan` over its `split_mut` slices under `workers`, each shard
    /// stamping its index into its slice; return the per-shard visit
    /// counts and whether every shard ran on a thread other than the
    /// caller's.
    fn stamp(n: usize, plan: &ShardPlan, workers: usize) -> (Vec<usize>, Vec<usize>, bool) {
        use std::sync::Mutex;
        let mut data = vec![usize::MAX; n];
        let visits = Mutex::new(vec![0usize; plan.shard_count()]);
        let caller = std::thread::current().id();
        let off_caller = Mutex::new(Vec::new());
        plan.run_with(workers, plan.split_mut(&mut data), |si, part: &mut [usize]| {
            part.fill(si);
            visits.lock().unwrap()[si] += 1;
            off_caller.lock().unwrap().push(std::thread::current().id() != caller);
        });
        let off_caller = off_caller.into_inner().unwrap();
        let threaded = !off_caller.is_empty() && off_caller.iter().all(|&t| t);
        (data, visits.into_inner().unwrap(), threaded)
    }

    #[test]
    fn run_visits_every_part_once_with_its_own_index() {
        for (n, shards, want) in [(0usize, 4usize, 0usize), (200, 1, 1), (200, 4, 4), (4096, 7, 7)]
        {
            let plan = ShardPlan::new(n, shards);
            assert_eq!(plan.shard_count(), want, "n={n} shards={shards}");
            for workers in [1usize, 4] {
                let (data, visits, threaded) = stamp(n, &plan, workers);
                assert_eq!(visits, vec![1; want], "n={n} workers={workers}");
                for (si, r) in plan.ranges().iter().enumerate() {
                    assert!(
                        data[r.clone()].iter().all(|&v| v == si),
                        "shard {si} stamped its range"
                    );
                }
                assert_eq!(threaded, want > 1 && workers > 1, "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn a_shard_panic_reaches_the_caller() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for shards in [1usize, 4] {
            let plan = ShardPlan::new(256, shards);
            let last = plan.shard_count() - 1;
            for workers in [1usize, 4] {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    plan.run_with(workers, 0..plan.shard_count(), |si, _| {
                        assert!(si != last, "shard {si} down");
                    })
                }))
                .expect_err("the panic must propagate");
                let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
                assert!(msg.contains(&format!("shard {last} down")), "shards={shards}: {msg}");
            }
        }
    }

    #[test]
    fn zero_shards_treated_as_one() {
        let plan = ShardPlan::new(128, 0);
        assert_eq!(plan.shard_count(), 1);
        assert_eq!(plan.ranges(), std::slice::from_ref(&(0..128)));
    }
}
