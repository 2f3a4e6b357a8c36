//! The per-window destination index behind every central destination
//! query.
//!
//! Central scheduling asks one question over and over: *which free node
//! with the lowest current CPU load (ties to the lowest id) can hold a
//! job of `mem_kb`?* The Linger-Longer test asks it for every lingering
//! job every window (paper Sec 2: the "best available destination" of
//! load `l` in `T_lingr = (1−l)/(h−l)·T_migr`); evictions, transfer
//! retries and queue placement ask it too. A linear `min_by` over the
//! candidate set per query costs O(queries × candidates) per window.
//!
//! [`DestIndex`] answers the same question from one lazily sorted
//! vector per candidate pool (`free ∧ idle`, `free ∧ ¬idle`), built on
//! the pool's first query in a window and shared by every query after
//! it. A build only collects the members and sorts the first
//! [`FIRST_SLICE`] of them; the sorted prefix (the *frontier*) doubles
//! whenever a walk reaches its end, so a window sorts only about as far
//! as its queries read, not the whole pool. It is exact because, within
//! a window, a node's CPU
//! load is fixed and a free node's free memory changes only when it is
//! claimed or released — so entries hold only `(cpu, id)` and a live
//! node's free memory is read at query time:
//!
//! * **Claims and crashes** leave their entry in place; queries skip it
//!   through the caller's live bitset.
//! * **Releases and reboots** that return a node to a pool mid-window
//!   keep or gain exactly one entry. At or below the frontier's last
//!   key it sits at its sorted position, and every cursor past that
//!   position is pulled back to it. Above the frontier it joins the
//!   unsorted tail, which no cursor has reached.
//! * **Per-demand cursors** remember, for each distinct memory demand,
//!   the first position that might still answer it. Everything before a
//!   cursor is dead or too small for that demand, so a lingering job
//!   that stays put, or a long queue of equal demands, never re-walks a
//!   prefix of unfitting candidates. A cursor never passes the frontier.
//!
//! An empty pool answers in O(1) without building anything.

use linger_sim_core::NodeIndex;
use std::cmp::Ordering;

/// Which central candidate pool a query draws from.
#[derive(Clone, Copy)]
pub(crate) enum Pool {
    /// Free nodes whose owner is idle this window.
    Idle,
    /// Free nodes whose owner is active this window (lingering policies
    /// may place there as a fallback).
    NonIdle,
}

/// One destination candidate: CPU load this window and node id.
pub(crate) type Cand = (f64, u32);

/// Candidates a build sorts up front; the frontier then doubles.
const FIRST_SLICE: usize = 64;

/// `(cpu, id)` order — the order a `min_by` over ascending ids, keyed
/// on CPU with an id tiebreak, would pick minima in.
fn key_cmp(a: &Cand, b: &Cand) -> Ordering {
    a.0.partial_cmp(&b.0)
        .expect("finite cpu")
        .then(a.1.cmp(&b.1))
}

/// One pool's lazily sorted candidates and per-demand cursors.
struct SortedPool {
    /// False until the pool's first query in the current window.
    built: bool,
    /// Every node that was in the pool at build time or joined it since,
    /// once each. `cands[..sorted]` ascends by `(cpu, id)` and no entry
    /// of it is greater than any entry of the unsorted tail. Entries
    /// whose node has since left the pool stay in place and are skipped
    /// through the live bitset.
    cands: Vec<Cand>,
    /// Length of the sorted prefix (the frontier).
    sorted: usize,
    /// One bit per node id: set ⇔ the node has an entry in `cands`.
    entered: Vec<u64>,
    /// Demand KB → first position that may still answer it; never past
    /// `sorted`.
    cursors: Vec<(u32, usize)>,
    /// Candidates a build sorts up front ([`FIRST_SLICE`] outside tests).
    first_slice: usize,
}

impl Default for SortedPool {
    fn default() -> Self {
        SortedPool {
            built: false,
            cands: Vec::new(),
            sorted: 0,
            entered: Vec::new(),
            cursors: Vec::new(),
            first_slice: FIRST_SLICE,
        }
    }
}

impl SortedPool {
    fn build(&mut self, members: impl Iterator<Item = Cand>) {
        self.cands.clear();
        self.entered.fill(0);
        for cand in members {
            self.cands.push(cand);
            self.enter(cand.1 as usize);
        }
        self.sorted = 0;
        self.cursors.clear();
        self.built = true;
    }

    fn enter(&mut self, ni: usize) {
        let word = ni / 64;
        if word >= self.entered.len() {
            self.entered.resize(word + 1, 0);
        }
        self.entered[word] |= 1 << (ni % 64);
    }

    fn has_entry(&self, ni: usize) -> bool {
        self.entered
            .get(ni / 64)
            .is_some_and(|w| w & (1 << (ni % 64)) != 0)
    }

    /// Sort the next slice of the tail onto the frontier, doubling it.
    fn grow(&mut self) {
        let end = (2 * self.sorted)
            .max(self.first_slice)
            .min(self.cands.len());
        let tail = &mut self.cands[self.sorted..];
        let k = end - self.sorted;
        if k < tail.len() {
            tail.select_nth_unstable_by(k, key_cmp);
        }
        tail[..k].sort_unstable_by(key_cmp);
        self.sorted = end;
    }

    /// The node at sorted position `pos`, growing the frontier to cover
    /// it; `None` past the last candidate.
    fn node_at(&mut self, pos: usize) -> Option<usize> {
        while pos >= self.sorted && self.sorted < self.cands.len() {
            self.grow();
        }
        self.cands.get(pos).map(|c| c.1 as usize)
    }

    fn best(
        &mut self,
        live: &NodeIndex,
        room: impl Fn(usize) -> u32,
        mem_kb: u32,
        exclude: Option<usize>,
    ) -> Option<usize> {
        let slot = match self.cursors.iter().position(|c| c.0 == mem_kb) {
            Some(i) => i,
            None => {
                self.cursors.push((mem_kb, 0));
                self.cursors.len() - 1
            }
        };
        let usable = |ni: usize| live.contains(ni) && room(ni) >= mem_kb;
        let mut pos = self.cursors[slot].1;
        while self.node_at(pos).is_some_and(|ni| !usable(ni)) {
            pos += 1;
        }
        self.cursors[slot].1 = pos;
        // `exclude` is per query, so it never advances the cursor.
        while let Some(ni) = self.node_at(pos) {
            if usable(ni) && Some(ni) != exclude {
                return Some(ni);
            }
            pos += 1;
        }
        None
    }

    fn insert(&mut self, cand: Cand) {
        if !self.built {
            return;
        }
        let above = match self.sorted.checked_sub(1) {
            Some(last) => key_cmp(&cand, &self.cands[last]) == Ordering::Greater,
            None => true,
        };
        if above {
            // The unordered tail: no cursor points into it, so none is
            // pulled back.
            if !self.has_entry(cand.1 as usize) {
                self.enter(cand.1 as usize);
                self.cands.push(cand);
            }
            return;
        }
        let pos = match self.cands[..self.sorted].binary_search_by(|c| key_cmp(c, &cand)) {
            // The node's own stale entry: it becomes live again.
            Ok(pos) => pos,
            Err(pos) => {
                // The first tail entry moves to the back (the tail is
                // unordered) and `cand` takes its place, then rotates
                // down to `pos`: only the prefix shifts.
                self.enter(cand.1 as usize);
                self.cands.push(cand);
                let last = self.cands.len() - 1;
                self.cands.swap(self.sorted, last);
                self.cands[pos..=self.sorted].rotate_right(1);
                self.sorted += 1;
                pos
            }
        };
        for c in &mut self.cursors {
            c.1 = c.1.min(pos);
        }
    }
}

/// The per-window destination index: one [`SortedPool`] per candidate
/// pool, rebuilt lazily after every [`DestIndex::invalidate`].
#[derive(Default)]
pub(crate) struct DestIndex {
    idle: SortedPool,
    non_idle: SortedPool,
}

impl DestIndex {
    fn pool(&mut self, pool: Pool) -> &mut SortedPool {
        match pool {
            Pool::Idle => &mut self.idle,
            Pool::NonIdle => &mut self.non_idle,
        }
    }

    /// A new window refreshed every node's CPU load and memory: both
    /// pools rebuild on their next query.
    pub(crate) fn invalidate(&mut self) {
        self.idle.built = false;
        self.non_idle.built = false;
    }

    /// A node (re)joined `pool` mid-window as `cand`. A no-op until the
    /// pool is built — the build reads the pool as it is then.
    pub(crate) fn insert(&mut self, pool: Pool, cand: Cand) {
        self.pool(pool).insert(cand);
    }

    /// The lowest-`(cpu, id)` node of `pool` other than `exclude` with at
    /// least `mem_kb` free.
    ///
    /// `live` is the caller's membership bitset — `free ∧ idle` for
    /// [`Pool::Idle`]; `free` for [`Pool::NonIdle`], whose entries are
    /// all non-idle because idleness is fixed for the window. `room`
    /// reads a live node's free KB. `members` yields the pool's
    /// candidates and is consumed only by a build.
    pub(crate) fn best(
        &mut self,
        pool: Pool,
        live: &NodeIndex,
        room: impl Fn(usize) -> u32,
        mem_kb: u32,
        exclude: Option<usize>,
        members: impl Iterator<Item = Cand>,
    ) -> Option<usize> {
        if live.is_empty() {
            return None;
        }
        let p = self.pool(pool);
        if !p.built {
            p.build(members);
        }
        p.best(live, room, mem_kb, exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl DestIndex {
        /// An index whose builds sort only `first_slice` candidates up
        /// front, so small pools cross the frontier.
        fn with_first_slice(first_slice: usize) -> Self {
            let mut index = DestIndex::default();
            index.idle.first_slice = first_slice;
            index.non_idle.first_slice = first_slice;
            index
        }
    }

    impl SortedPool {
        /// The frontier's structural invariants.
        fn check(&self) -> Result<(), TestCaseError> {
            if !self.built {
                return Ok(());
            }
            let (prefix, tail) = self.cands.split_at(self.sorted);
            prop_assert!(prefix.windows(2).all(|w| key_cmp(&w[0], &w[1]).is_lt()));
            if let Some(last) = prefix.last() {
                prop_assert!(tail.iter().all(|c| key_cmp(last, c).is_lt()));
            }
            let mut ids: Vec<u32> = self.cands.iter().map(|c| c.1).collect();
            ids.sort_unstable();
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "duplicate entry");
            for &ni in &ids {
                prop_assert!(self.has_entry(ni as usize));
            }
            let marked: u32 = self.entered.iter().map(|w| w.count_ones()).sum();
            prop_assert_eq!(marked as usize, ids.len());
            prop_assert!(self.cursors.iter().all(|c| c.1 <= self.sorted));
            Ok(())
        }
    }

    /// The linear scan the index replaced — the reference answer.
    fn scan_best(
        members: impl Iterator<Item = usize>,
        mem_kb: u32,
        exclude: Option<usize>,
        cpu_w: &[f64],
        free_kb: &[u32],
    ) -> Option<usize> {
        members
            .filter(|&ni| Some(ni) != exclude)
            .filter(|&ni| free_kb[ni] >= mem_kb)
            .min_by(|&a, &b| key_cmp(&(cpu_w[a], a as u32), &(cpu_w[b], b as u32)))
    }

    /// A miniature of the simulator's node state: free/idle/crashed sets,
    /// a per-window CPU lane, and per-node free memory.
    struct Model {
        cpu: Vec<f64>,
        idle: Vec<bool>,
        free_kb: Vec<u32>,
        free: NodeIndex,
        free_idle: NodeIndex,
        crashed: NodeIndex,
        index: DestIndex,
    }

    #[derive(Debug)]
    enum Op {
        /// Refresh every node's CPU, idleness and memory; invalidate.
        Window(u64),
        Claim(usize),
        /// Release a hosted node with a new free-memory figure.
        Release(usize, u32),
        Crash(usize),
        /// Reboot a crashed node with a new free-memory figure (the crash
        /// dropped its foreign job).
        Reboot(usize, u32),
        Query {
            non_idle: bool,
            mem_kb: u32,
            exclude: Option<usize>,
        },
    }

    /// Cheap deterministic hash for per-window lanes.
    fn mix(seed: u64, i: usize) -> u64 {
        let mut x = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 31;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^ (x >> 29)
    }

    impl Model {
        fn new(n: usize, first_slice: usize) -> Self {
            let mut m = Model {
                cpu: vec![0.0; n],
                idle: vec![false; n],
                free_kb: vec![0; n],
                free: NodeIndex::full(n),
                free_idle: NodeIndex::new(n),
                crashed: NodeIndex::new(n),
                index: DestIndex::with_first_slice(first_slice),
            };
            m.window(0);
            m
        }

        fn n(&self) -> usize {
            self.cpu.len()
        }

        fn cand(&self, ni: usize) -> Cand {
            (self.cpu[ni], ni as u32)
        }

        fn window(&mut self, seed: u64) {
            for ni in 0..self.n() {
                let h = mix(seed, ni);
                // Few distinct loads, so `(cpu, id)` ties are common.
                self.cpu[ni] = (h % 4) as f64 * 0.25;
                self.idle[ni] = (h >> 8) & 3 != 0;
                self.free_kb[ni] = ((h >> 16) % 6) as u32;
            }
            self.free_idle.clear();
            for ni in self.free.iter() {
                if self.idle[ni] {
                    self.free_idle.insert(ni);
                }
            }
            self.index.invalidate();
        }

        fn join(&mut self, ni: usize) {
            self.free.insert(ni);
            let pool = if self.idle[ni] {
                self.free_idle.insert(ni);
                Pool::Idle
            } else {
                Pool::NonIdle
            };
            self.index.insert(pool, self.cand(ni));
        }

        fn leave(&mut self, ni: usize) {
            self.free.remove(ni);
            self.free_idle.remove(ni);
        }

        fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
            let n = self.n();
            match *op {
                Op::Window(seed) => self.window(seed),
                Op::Claim(ni) => self.leave(ni % n),
                Op::Release(ni, kb) => {
                    let ni = ni % n;
                    if !self.free.contains(ni) && !self.crashed.contains(ni) {
                        self.free_kb[ni] = kb;
                        self.join(ni);
                    }
                }
                Op::Crash(ni) => {
                    self.leave(ni % n);
                    self.crashed.insert(ni % n);
                }
                Op::Reboot(ni, kb) => {
                    if self.crashed.remove(ni % n) {
                        self.free_kb[ni % n] = kb;
                        self.join(ni % n);
                    }
                }
                Op::Query {
                    non_idle,
                    mem_kb,
                    exclude,
                } => {
                    let exclude = exclude.map(|e| e % n);
                    let (pool, live) = if non_idle {
                        (Pool::NonIdle, &self.free)
                    } else {
                        (Pool::Idle, &self.free_idle)
                    };
                    let members = || live.iter().filter(|&ni| self.idle[ni] != non_idle);
                    let want = scan_best(members(), mem_kb, exclude, &self.cpu, &self.free_kb);
                    let cands: Vec<Cand> = members().map(|ni| self.cand(ni)).collect();
                    let free_kb = &self.free_kb;
                    let room = |ni: usize| free_kb[ni];
                    let got = self
                        .index
                        .best(pool, live, room, mem_kb, exclude, cands.into_iter());
                    prop_assert_eq!(got, want, "{:?}", op);
                }
            }
            self.index.idle.check()?;
            self.index.non_idle.check()
        }
    }

    /// Decode one raw draw into an operation; queries are the most
    /// common so cursors get reused, mutations interleave with them.
    fn decode((tag, word, kb, node): (u8, u64, u32, usize)) -> Op {
        match tag {
            0 => Op::Window(word),
            1..=4 => Op::Claim(node),
            5..=8 => Op::Release(node, kb),
            9 => Op::Crash(node),
            10 => Op::Reboot(node, kb),
            _ => Op::Query {
                non_idle: word & 1 == 1,
                mem_kb: kb,
                exclude: (word & 2 == 2).then_some(node),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every answer equals the linear scan's, through any interleaving
        /// of claims, releases, crashes, reboots, window refreshes and
        /// queries (empty pools, `exclude`, unfitting candidates and
        /// repeated demands included), at the production first slice.
        #[test]
        fn index_matches_linear_scan(
            n in 1usize..48,
            raw in prop::collection::vec((0u8..19, any::<u64>(), 0u32..6, 0usize..64), 1..160),
        ) {
            let mut m = Model::new(n, FIRST_SLICE);
            for op in raw.into_iter().map(decode) {
                m.apply(&op)?;
            }
        }

        /// The same, with pools many times the first slice: builds sort a
        /// few entries, cursors and `exclude` walks cross the frontier,
        /// and releases and reboots land below, at and above its last
        /// key — including nodes whose stale entry sits in the tail.
        #[test]
        fn frontier_matches_linear_scan(
            n in 1usize..160,
            pick in 0usize..5,
            raw in prop::collection::vec((0u8..19, any::<u64>(), 0u32..7, 0usize..192), 1..320),
        ) {
            let first_slice = [1, 2, 3, 8, FIRST_SLICE][pick];
            let mut m = Model::new(n, first_slice);
            for op in raw.into_iter().map(decode) {
                m.apply(&op)?;
            }
        }
    }

    #[test]
    fn insert_before_an_advanced_cursor_is_found() {
        let cpu = [0.1, 0.2, 0.3, 0.4, 0.0];
        let mut kb = [0u32, 0, 0, 8, 8];
        let mut live = NodeIndex::new(5);
        for ni in 0..4 {
            live.insert(ni);
        }
        let cand = |ni: usize| (cpu[ni], ni as u32);
        let mut idx = DestIndex::default();
        let mut query = |live: &NodeIndex, kb: &[u32], exclude| {
            let members = live.iter().map(cand);
            idx.best(Pool::Idle, live, |ni| kb[ni], 4, exclude, members)
        };
        // Nodes 0-2 are too small: the cursor for 4 KB advances to node 3.
        assert_eq!(query(&live, &kb, None), Some(3));
        assert_eq!(query(&live, &kb, Some(3)), None, "exclude skips");
        // Node 1 is claimed, then released with room: its stale entry
        // sits before the cursor and must win.
        live.remove(1);
        kb[1] = 8;
        live.insert(1);
        idx.insert(Pool::Idle, cand(1));
        let room = |ni: usize| kb[ni];
        let mut query = |live: &NodeIndex, exclude| {
            idx.best(Pool::Idle, live, room, 4, exclude, std::iter::empty())
        };
        assert_eq!(query(&live, None), Some(1));
        assert_eq!(query(&live, Some(1)), Some(3), "cursor stays");
        // Node 4 was never in the pool: it inserts fresh, ahead of both.
        live.insert(4);
        idx.insert(Pool::Idle, cand(4));
        assert_eq!(
            idx.best(Pool::Idle, &live, room, 4, None, std::iter::empty()),
            Some(4)
        );
    }

    #[test]
    fn frontier_sorts_only_what_queries_reach() {
        // Node `i` has load i/16, so `(cpu, id)` order is id order.
        let cpu: Vec<f64> = (0..16).map(|i| i as f64 / 16.0).collect();
        let cand = |ni: usize| (cpu[ni], ni as u32);
        let mut kb = [8u32; 16];
        let mut live = NodeIndex::new(16);
        for ni in 2..14 {
            live.insert(ni);
        }
        let mut idx = DestIndex::with_first_slice(2);
        let members: Vec<Cand> = (2..14).rev().map(cand).collect();
        let got = idx.best(Pool::Idle, &live, |ni| kb[ni], 4, None, members.into_iter());
        assert_eq!(got, Some(2));
        assert_eq!(idx.idle.sorted, 2, "a build sorts only the first slice");
        let q = |idx: &mut DestIndex, live: &NodeIndex, kb: &[u32], exclude| {
            idx.best(
                Pool::Idle,
                live,
                |ni| kb[ni],
                4,
                exclude,
                std::iter::empty(),
            )
        };
        // An exclude walk past the frontier doubles it.
        live.remove(2);
        assert_eq!(q(&mut idx, &live, &kb, Some(3)), Some(4));
        assert_eq!(
            (idx.idle.sorted, idx.idle.cursors.clone()),
            (4, vec![(4, 1)])
        );
        // So does a cursor crossing it.
        for ni in 3..6 {
            live.remove(ni);
        }
        assert_eq!(q(&mut idx, &live, &kb, None), Some(6));
        assert_eq!(
            (idx.idle.sorted, idx.idle.cursors.clone()),
            (8, vec![(4, 4)])
        );
        // Node 9, the frontier's last key, rejoins: its entry is reused.
        live.remove(9);
        live.insert(9);
        idx.insert(Pool::Idle, cand(9));
        assert_eq!((idx.idle.sorted, idx.idle.cands.len()), (8, 12));
        // Node 1 joins below the frontier: inserted in order, the cursor
        // is pulled back to it.
        live.insert(1);
        idx.insert(Pool::Idle, cand(1));
        assert_eq!(
            (idx.idle.sorted, idx.idle.cursors.clone()),
            (9, vec![(4, 0)])
        );
        assert_eq!(q(&mut idx, &live, &kb, None), Some(1));
        // Node 15 joins above it: into the tail. Node 12 (claimed and
        // released) and node 13 (crashed, rebooted with less room)
        // already have tail entries and gain no duplicate.
        live.insert(15);
        idx.insert(Pool::Idle, cand(15));
        live.remove(12);
        live.insert(12);
        idx.insert(Pool::Idle, cand(12));
        live.remove(13);
        kb[13] = 2;
        live.insert(13);
        idx.insert(Pool::Idle, cand(13));
        assert_eq!((idx.idle.sorted, idx.idle.cands.len()), (9, 14));
        idx.idle.check().unwrap();
        // The cursor walks the dead prefix into the tail, which sorts;
        // node 13's room is read as it is now.
        for ni in [1, 6, 7, 8, 9, 10, 11] {
            live.remove(ni);
        }
        assert_eq!(q(&mut idx, &live, &kb, None), Some(12));
        assert_eq!(idx.idle.sorted, 14);
        live.remove(12);
        assert_eq!(q(&mut idx, &live, &kb, None), Some(15));
        idx.idle.check().unwrap();
    }

    #[test]
    fn empty_pool_answers_without_building() {
        let live = NodeIndex::new(1024);
        let mut idx = DestIndex::default();
        let members = std::iter::from_fn(|| -> Option<Cand> { panic!("empty pool was built") });
        assert_eq!(idx.best(Pool::Idle, &live, |_| 0, 1, None, members), None);
        assert!(!idx.idle.built);
    }
}
