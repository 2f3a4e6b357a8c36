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
//! [`DestIndex`] answers the same question from one sorted vector per
//! candidate pool (`free ∧ idle`, `free ∧ ¬idle`), built at most once
//! per window on the pool's first query and shared by every query after
//! it. It is exact because, within a window, a node's CPU load is fixed
//! and a free node's free memory changes only when it is claimed or
//! released:
//!
//! * **Claims and crashes** leave their entry in place; queries skip it
//!   through the caller's live bitset.
//! * **Releases and reboots** that return a node to a pool mid-window
//!   are inserted (or their stale entry refreshed) at the node's sorted
//!   position, and every cursor past that position is pulled back to it.
//! * **Per-demand cursors** remember, for each distinct memory demand,
//!   the first position that might still answer it. Everything before a
//!   cursor is dead or too small for that demand, so a lingering job
//!   that stays put, or a long queue of equal demands, never re-walks a
//!   prefix of unfitting candidates.
//!
//! An empty pool answers in O(1) without building anything.

use linger_sim_core::NodeIndex;

/// Which central candidate pool a query draws from.
#[derive(Clone, Copy)]
pub(crate) enum Pool {
    /// Free nodes whose owner is idle this window.
    Idle,
    /// Free nodes whose owner is active this window (lingering policies
    /// may place there as a fallback).
    NonIdle,
}

/// One destination candidate: CPU load this window, node id, free KB.
pub(crate) type Cand = (f64, u32, u32);

/// `(cpu, id)` order — the order a `min_by` over ascending ids, keyed
/// on CPU with an id tiebreak, would pick minima in.
fn key_cmp(a: (f64, u32), b: (f64, u32)) -> std::cmp::Ordering {
    a.0.partial_cmp(&b.0)
        .expect("finite cpu")
        .then(a.1.cmp(&b.1))
}

/// One pool's sorted candidates and per-demand cursors.
#[derive(Default)]
struct SortedPool {
    /// False until the pool's first query in the current window.
    built: bool,
    /// Every node that was in the pool at build time or joined it since,
    /// ascending `(cpu, id)`. Entries whose node has since left the pool
    /// stay in place and are skipped through the live bitset.
    cands: Vec<Cand>,
    /// Demand KB → first position that may still answer it.
    cursors: Vec<(u32, usize)>,
}

impl SortedPool {
    fn build(&mut self, members: impl Iterator<Item = Cand>) {
        self.cands.clear();
        self.cands.extend(members);
        self.cands
            .sort_unstable_by(|a, b| key_cmp((a.0, a.1), (b.0, b.1)));
        self.cursors.clear();
        self.built = true;
    }

    fn best(&mut self, live: &NodeIndex, mem_kb: u32, exclude: Option<usize>) -> Option<usize> {
        let slot = match self.cursors.iter().position(|c| c.0 == mem_kb) {
            Some(i) => i,
            None => {
                self.cursors.push((mem_kb, 0));
                self.cursors.len() - 1
            }
        };
        let usable = |&(_, ni, room): &Cand| room >= mem_kb && live.contains(ni as usize);
        let mut pos = self.cursors[slot].1;
        while self.cands.get(pos).is_some_and(|c| !usable(c)) {
            pos += 1;
        }
        self.cursors[slot].1 = pos;
        // `exclude` is per query, so it never advances the cursor.
        self.cands[pos..]
            .iter()
            .filter(|c| usable(c))
            .map(|&(_, ni, _)| ni as usize)
            .find(|&ni| Some(ni) != exclude)
    }

    fn insert(&mut self, cand: Cand) {
        if !self.built {
            return;
        }
        let pos = match self
            .cands
            .binary_search_by(|c| key_cmp((c.0, c.1), (cand.0, cand.1)))
        {
            Ok(pos) => {
                // A stale entry of the same node: refresh its memory.
                self.cands[pos].2 = cand.2;
                pos
            }
            Err(pos) => {
                self.cands.insert(pos, cand);
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
    /// all non-idle because idleness is fixed for the window. `members`
    /// yields the pool's candidates and is consumed only by a build.
    pub(crate) fn best(
        &mut self,
        pool: Pool,
        live: &NodeIndex,
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
        p.best(live, mem_kb, exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
            .min_by(|&a, &b| key_cmp((cpu_w[a], a as u32), (cpu_w[b], b as u32)))
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
        Reboot(usize),
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
        fn new(n: usize) -> Self {
            let mut m = Model {
                cpu: vec![0.0; n],
                idle: vec![false; n],
                free_kb: vec![0; n],
                free: NodeIndex::full(n),
                free_idle: NodeIndex::new(n),
                crashed: NodeIndex::new(n),
                index: DestIndex::default(),
            };
            m.window(0);
            m
        }

        fn n(&self) -> usize {
            self.cpu.len()
        }

        fn cand(&self, ni: usize) -> Cand {
            (self.cpu[ni], ni as u32, self.free_kb[ni])
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
                Op::Reboot(ni) => {
                    if self.crashed.remove(ni % n) {
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
                    let got = self
                        .index
                        .best(pool, live, mem_kb, exclude, cands.into_iter());
                    prop_assert_eq!(got, want, "{:?}", op);
                }
            }
            Ok(())
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
            10 => Op::Reboot(node),
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
        /// repeated demands included).
        #[test]
        fn index_matches_linear_scan(
            n in 1usize..48,
            raw in prop::collection::vec((0u8..19, any::<u64>(), 0u32..6, 0usize..64), 1..160),
        ) {
            let mut m = Model::new(n);
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
        let cand = |ni: usize, kb: &[u32]| (cpu[ni], ni as u32, kb[ni]);
        let mut idx = DestIndex::default();
        let mut query = |live: &NodeIndex, kb: &[u32], exclude| {
            let members = live.iter().map(|ni| cand(ni, kb));
            idx.best(Pool::Idle, live, 4, exclude, members)
        };
        // Nodes 0-2 are too small: the cursor for 4 KB advances to node 3.
        assert_eq!(query(&live, &kb, None), Some(3));
        assert_eq!(query(&live, &kb, Some(3)), None, "exclude skips");
        // Node 1 is claimed, then released with room: its stale entry
        // sits before the cursor and must win.
        live.remove(1);
        kb[1] = 8;
        live.insert(1);
        idx.insert(Pool::Idle, cand(1, &kb));
        let mut query =
            |live: &NodeIndex, exclude| idx.best(Pool::Idle, live, 4, exclude, std::iter::empty());
        assert_eq!(query(&live, None), Some(1));
        assert_eq!(query(&live, Some(1)), Some(3), "cursor stays");
        // Node 4 was never in the pool: it inserts fresh, ahead of both.
        live.insert(4);
        idx.insert(Pool::Idle, cand(4, &kb));
        assert_eq!(
            idx.best(Pool::Idle, &live, 4, None, std::iter::empty()),
            Some(4)
        );
    }

    #[test]
    fn empty_pool_answers_without_building() {
        let live = NodeIndex::new(1024);
        let mut idx = DestIndex::default();
        let members = std::iter::from_fn(|| -> Option<Cand> { panic!("empty pool was built") });
        assert_eq!(idx.best(Pool::Idle, &live, 1, None, members), None);
        assert!(!idx.idle.built);
    }
}
