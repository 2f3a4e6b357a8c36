//! Decentralized work stealing: per-node deques, randomized victims,
//! and steal latency as a first-class cost.
//!
//! The four paper policies route every placement through one central
//! queue — the scalability bottleneck a real large fleet removes first.
//! This module adds the alternative the work-stealing literature
//! (Khatiri/Trystram/Wagner's Work Stealing Simulator, arXiv:1910.02803;
//! Van Houdt's randomized stealing-vs-sharing analysis, arXiv:1810.13186)
//! studies: each node keeps a **local deque** of queued jobs, the owner
//! pops **LIFO** from the back, and an idle node with an empty deque
//! probes randomly chosen victims, stealing **FIFO** from the front (one
//! job, or half the deque when configured). Every probe is a request/
//! response round trip charged in simulated time, so stealing pays real
//! latency where the central queue's globally informed dispatcher pays
//! none — unless the comparison models the coordinator's serialization
//! (see [`StealingConfig::central_dispatch_rtt_secs`]).
//!
//! # Determinism contract
//!
//! Victim choices come from [`linger_sim_core::domains::STEALING`]
//! streams keyed by `(thief node, window, attempt)` — see
//! [`victim_stream_index`] — so every draw is a pure function of
//! `(config, seed, node, window, attempt)`. Steal intents are classified
//! per shard against window-start state and applied in ascending node
//! order (the same classify → ordered-merge discipline as
//! `DecideIntent`), so results are byte-identical at any `--jobs` or
//! `LINGER_SHARDS`.

use linger_sim_core::{domains, RngFactory};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration of the decentralized work-stealing scheduler.
///
/// With `enabled`, queued foreign jobs live in per-node deques (a job's
/// home deque is `job id % nodes`) instead of the central queue, and
/// placement happens by owner pops and randomized steals. Disabled (the
/// default everywhere), the simulator behaves byte-identically to every
/// earlier revision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StealingConfig {
    /// Use per-node deques and randomized stealing instead of the
    /// central queue.
    pub enabled: bool,
    /// Probes an idle thief may send per window before giving up
    /// (`steal_abandon`).
    pub probe_attempts: u32,
    /// Baseline request/response round-trip time of one probe, seconds.
    /// A successful steal at attempt `k` delays the stolen job's start
    /// by `k × rtt_secs` (plus the usual migration cost if the job had
    /// already run elsewhere). Zero models free steals.
    pub rtt_secs: f64,
    /// Steal half the victim's deque (`ceil(len/2)`, front first)
    /// instead of a single job. The extra jobs ride the same round trip
    /// and land on the thief's deque.
    pub steal_half: bool,
    /// Serialization cost of the *central-queue* dispatcher, seconds per
    /// placement — the knob that makes the central/stealing comparison
    /// honest at scale. Zero (the default) keeps the historical
    /// free-coordinator behavior, byte-identical to every earlier
    /// figure; positive values model a coordinator that dispatches one
    /// job per `central_dispatch_rtt_secs` (a single-server queue whose
    /// backlog carries across windows). Only meaningful when `enabled`
    /// is false.
    pub central_dispatch_rtt_secs: f64,
}

impl StealingConfig {
    /// The inert default: central queue, no dispatch serialization.
    /// Byte-identical to pre-stealing behavior.
    pub fn disabled() -> Self {
        StealingConfig {
            enabled: false,
            probe_attempts: 0,
            rtt_secs: 0.0,
            steal_half: false,
            central_dispatch_rtt_secs: 0.0,
        }
    }

    /// Randomized single-job stealing with the given probe budget and
    /// per-probe round-trip time.
    pub fn randomized(probe_attempts: u32, rtt_secs: f64) -> Self {
        StealingConfig {
            enabled: true,
            probe_attempts,
            rtt_secs,
            steal_half: false,
            central_dispatch_rtt_secs: 0.0,
        }
    }
}

/// Exact counters of the stealing (and central-dispatch) fast paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StealStats {
    /// Jobs an owner popped from its own deque (LIFO, zero latency).
    pub local_pops: u64,
    /// Victim probes sent (`== hits + misses`).
    pub probes: u64,
    /// Probes that found stealable work.
    pub hits: u64,
    /// Probes that found none (empty deque, crashed victim, or a front
    /// job that does not fit the thief's memory).
    pub misses: u64,
    /// Thieves that exhausted their probe budget in a window.
    pub abandons: u64,
    /// Jobs moved between deques by successful steals.
    pub stolen_jobs: u64,
    /// Placements charged the central coordinator's serialization delay
    /// (central mode with `central_dispatch_rtt_secs > 0` only).
    pub central_dispatches: u64,
}

/// The per-node deques of queued jobs (stealing mode's queue state).
///
/// Holds job **slot indices** into the simulator's job slabs. A job's
/// home deque is `job id % nodes`, so placement is independent of slab
/// layout and slot recycling. The owner pops LIFO from the back; thieves
/// steal FIFO from the front — the classic deque discipline that keeps
/// an owner on its freshest (cache-warm) work while thieves take the
/// oldest (longest-waiting) jobs.
#[derive(Debug, Clone)]
pub struct StealState {
    deques: Vec<VecDeque<u32>>,
    /// Bit `ni` set iff deque `ni` is non-empty. Victim probes are the
    /// hot path — millions of draws per run, the vast majority misses —
    /// and a miss that only touches this bitmap (2 KB at 16,384 nodes,
    /// L1-resident) costs nanoseconds where dereferencing a cold
    /// `VecDeque` header costs a cache miss per probe.
    nonempty: Vec<u64>,
    total: usize,
}

impl StealState {
    /// Empty deques for a fleet of `nodes`.
    pub fn new(nodes: usize) -> Self {
        let n = nodes.max(1);
        StealState {
            deques: vec![VecDeque::new(); n],
            nonempty: vec![0; n.div_ceil(64)],
            total: 0,
        }
    }

    #[inline]
    fn set_nonempty(&mut self, ni: usize, nonempty: bool) {
        let (w, b) = (ni / 64, 1u64 << (ni % 64));
        if nonempty {
            self.nonempty[w] |= b;
        } else {
            self.nonempty[w] &= !b;
        }
    }

    /// True when node `ni`'s deque holds at least one job — the cheap
    /// first test of a victim probe.
    #[inline]
    pub fn has_work(&self, ni: usize) -> bool {
        self.nonempty[ni / 64] & (1 << (ni % 64)) != 0
    }

    /// Number of deques (= nodes).
    pub fn nodes(&self) -> usize {
        self.deques.len()
    }

    /// The home deque for a job id.
    pub fn home_of(&self, job_id: u64) -> usize {
        (job_id % self.deques.len() as u64) as usize
    }

    /// Total queued jobs across all deques.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Queued jobs on node `ni`'s deque.
    pub fn len(&self, ni: usize) -> usize {
        self.deques[ni].len()
    }

    /// True when no deque holds a job.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Enqueue a job slot at the back of node `ni`'s deque.
    pub fn push_back(&mut self, ni: usize, ji: u32) {
        self.deques[ni].push_back(ji);
        self.total += 1;
        self.set_nonempty(ni, true);
    }

    /// Owner pop: the newest job on node `ni`'s deque (LIFO).
    pub fn pop_back(&mut self, ni: usize) -> Option<u32> {
        let ji = self.deques[ni].pop_back()?;
        self.total -= 1;
        if self.deques[ni].is_empty() {
            self.set_nonempty(ni, false);
        }
        Some(ji)
    }

    /// Thief pop: the oldest job on node `ni`'s deque (FIFO).
    pub fn pop_front(&mut self, ni: usize) -> Option<u32> {
        let ji = self.deques[ni].pop_front()?;
        self.total -= 1;
        if self.deques[ni].is_empty() {
            self.set_nonempty(ni, false);
        }
        Some(ji)
    }

    /// The job slot at the back of `ni`'s deque, if any.
    pub fn back(&self, ni: usize) -> Option<u32> {
        self.deques[ni].back().copied()
    }

    /// The job slot at the front of `ni`'s deque, if any.
    pub fn front(&self, ni: usize) -> Option<u32> {
        self.deques[ni].front().copied()
    }

    /// Iterate node `ni`'s deque front to back (oldest first).
    pub fn iter(&self, ni: usize) -> impl Iterator<Item = u32> + '_ {
        self.deques[ni].iter().copied()
    }

    /// Remove every job slot in `expired` from node `ni`'s deque,
    /// preserving the order of survivors. Returns how many were removed.
    /// Used by deadline reneging, whose drops can sit mid-deque once
    /// `steal_half` moves old jobs onto younger deques.
    pub fn remove(&mut self, ni: usize, expired: &[u32]) -> usize {
        if expired.is_empty() {
            return 0;
        }
        let before = self.deques[ni].len();
        self.deques[ni].retain(|ji| !expired.contains(ji));
        let removed = before - self.deques[ni].len();
        self.total -= removed;
        if self.deques[ni].is_empty() {
            self.set_nonempty(ni, false);
        }
        removed
    }
}

/// The keyed stream index for one victim draw: packs
/// `(thief, window mod 2²⁴, attempt mod 2⁸)` into the 64-bit index of a
/// [`domains::STEALING`] stream. Thieves draw at most once per
/// `(window, attempt)`, and the window field wraps only past 16M windows
/// (~1 simulated year) — far beyond any sweep horizon.
pub fn victim_stream_index(thief: u32, window: u32, attempt: u32) -> u64 {
    ((thief as u64) << 32) | (((window as u64) & 0x00FF_FFFF) << 8) | ((attempt as u64) & 0xFF)
}

/// Draw the victim node `thief` probes at `(window, attempt)`.
///
/// Uniform over the other `nodes − 1` nodes (never the thief itself),
/// and a pure function of `(seed, thief, window, attempt)` — the
/// stealing determinism contract. `nodes` must be ≥ 2.
pub fn draw_victim(factory: &RngFactory, thief: u32, window: u32, attempt: u32, nodes: u32) -> u32 {
    debug_assert!(nodes >= 2, "stealing needs at least two nodes");
    // One keyed draw, not a keyed stream: a probe needs exactly one
    // value, and at cluster scale the probe path issues millions of
    // draws per run, so the draw skips the ChaCha stream set-up.
    let r = factory.draw_u64(domains::STEALING, victim_stream_index(thief, window, attempt));
    let v = (r % (nodes as u64 - 1)) as u32;
    if v >= thief {
        v + 1
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_round_trips_through_json() {
        // The config digest serializes every field; the inert default
        // must survive a JSON round trip (no non-finite floats).
        let s = StealingConfig::disabled();
        let line = serde_json::to_string(&s).unwrap();
        let back: StealingConfig = serde_json::from_str(&line).unwrap();
        assert_eq!(s, back);
        assert!(!back.enabled);
        let r = StealingConfig { steal_half: true, ..StealingConfig::randomized(3, 0.25) };
        let back: StealingConfig =
            serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(r, back);
        assert!(back.enabled && back.steal_half);
    }

    #[test]
    fn deque_discipline_is_lifo_owner_fifo_thief() {
        let mut st = StealState::new(4);
        for ji in [10, 11, 12] {
            st.push_back(1, ji);
        }
        assert_eq!(st.total(), 3);
        assert_eq!(st.back(1), Some(12));
        assert_eq!(st.front(1), Some(10));
        assert_eq!(st.pop_back(1), Some(12), "owner takes the newest");
        assert_eq!(st.pop_front(1), Some(10), "thief takes the oldest");
        assert_eq!(st.total(), 1);
        assert_eq!(st.pop_back(1), Some(11));
        assert!(st.is_empty());
        assert_eq!(st.pop_back(1), None);
        assert_eq!(st.pop_front(1), None);
    }

    #[test]
    fn removal_preserves_order_and_total() {
        let mut st = StealState::new(2);
        for ji in [5, 6, 7, 8] {
            st.push_back(0, ji);
        }
        assert_eq!(st.remove(0, &[6, 8]), 2);
        assert_eq!(st.total(), 2);
        let left: Vec<u32> = st.iter(0).collect();
        assert_eq!(left, vec![5, 7]);
        assert_eq!(st.remove(0, &[]), 0);
    }

    #[test]
    fn homes_cover_all_nodes() {
        let st = StealState::new(8);
        for id in 0..64u64 {
            assert_eq!(st.home_of(id), (id % 8) as usize);
        }
    }

    #[test]
    fn victim_draws_are_pure_and_skip_self() {
        let f = RngFactory::new(1998);
        let mut seen = std::collections::BTreeSet::new();
        for thief in 0..8u32 {
            for w in 0..16u32 {
                for a in 1..=4u32 {
                    let v = draw_victim(&f, thief, w, a, 8);
                    assert_ne!(v, thief, "thief probed itself");
                    assert!(v < 8);
                    // Pure: same key, same victim.
                    assert_eq!(v, draw_victim(&f, thief, w, a, 8));
                    seen.insert(v);
                }
            }
        }
        assert!(seen.len() >= 7, "victim draws should spread across the fleet");
        // Different attempts must be able to pick different victims.
        let picks: std::collections::BTreeSet<u32> =
            (1..=8).map(|a| draw_victim(&f, 0, 0, a, 64)).collect();
        assert!(picks.len() > 1, "attempt index never changed the victim");
    }

    #[test]
    fn victim_stream_indices_do_not_collide_in_range() {
        let mut seen = std::collections::BTreeSet::new();
        for thief in [0u32, 1, 7, 1023] {
            for w in [0u32, 1, 43_199] {
                for a in 1..=8u32 {
                    assert!(seen.insert(victim_stream_index(thief, w, a)));
                }
            }
        }
    }

    #[test]
    fn two_node_fleet_always_probes_the_other_node() {
        let f = RngFactory::new(7);
        for w in 0..32 {
            assert_eq!(draw_victim(&f, 0, w, 1, 2), 1);
            assert_eq!(draw_victim(&f, 1, w, 1, 2), 0);
        }
    }
}
