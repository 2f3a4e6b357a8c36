//! The scheduler seam: where queued jobs wait and how they reach a free
//! node.
//!
//! [`Dispatch`] owns the one decision the two schedulers make
//! differently: **which queued job starts on which free node, and when.**
//! The window loop in the parent module makes one placement call per
//! window ([`ClusterSim::place`]) and asks its destination questions
//! through [`ClusterSim::best_destination`]; it never branches on the
//! scheduler itself.
//!
//! * **Central** — the paper's coordinator (Sec 4.2). Jobs wait in one
//!   FIFO queue. Placement walks it and asks the per-window destination
//!   index ([`DestIndex`]) for the least-loaded free node that fits, as
//!   linger migrations, evictions and transfer retries do. With
//!   `central_dispatch_rtt_secs > 0` the coordinator is a single server
//!   handling one placement per round trip: its backlog carries across
//!   windows, delays each placement and ends a pass once it is a full
//!   window deep. That serialized coordinator shares every other line of
//!   the pass, so it is an option of [`Central`], not a scheduler of its
//!   own.
//! * **Stealing** ([`crate::stealing`]) — per-node deques. Free nodes pop
//!   their own deque or probe randomly drawn victims; shards classify
//!   which nodes may acquire work and the merge resolves pops and probes
//!   in ascending node order. No node knows the best destination, so
//!   destination queries answer `None` and evictions return to the job's
//!   home deque. The central round trip is ignored.

use super::{room_kb, ClusterSim, WINDOW};
use crate::config::ClusterConfig;
use crate::dest::{Cand, DestIndex, Pool};
use crate::state::{JobSlabs, NodeId};
use crate::stealing::{StealState, VictimDraws};
use linger::{JobId, Policy};
use linger_sim_core::{RngFactory, SimDuration, SimTime};
use linger_telemetry::EventKind;
use std::collections::VecDeque;

/// The scheduler, built once from `cfg.stealing`.
pub(super) enum Dispatch {
    Central(Central),
    Stealing(Stealing),
}

/// The paper's coordinator: one FIFO queue, placed against a view of
/// every free node.
#[derive(Default)]
pub(super) struct Central {
    /// Waiting job slots, oldest first.
    queue: VecDeque<usize>,
    /// A pass's not-yet-placeable jobs; reused across windows.
    scratch: VecDeque<usize>,
    /// Lazily sorted view of the two candidate pools (`free ∧ idle` and
    /// free ∧ non-idle), collected at most once per window and shared by
    /// every destination query.
    dest: DestIndex,
    /// The serialized coordinator, when `central_dispatch_rtt_secs` is
    /// positive; `None` is the free coordinator.
    coordinator: Option<Coordinator>,
}

/// Decentralized work stealing: per-node deques.
pub(super) struct Stealing {
    /// Waiting job slots, each on one node's deque.
    deques: StealState,
    /// Reusable per-shard steal-intent buffers.
    bufs: Vec<Vec<StealIntent>>,
    /// Keyed victim draws ([`crate::stealing`]).
    victims: VictimDraws,
}

/// A central coordinator that handles one placement per round trip.
#[derive(Clone, Copy)]
struct Coordinator {
    rtt: SimDuration,
    /// When the coordinator next frees up.
    next_free: SimTime,
}

impl Coordinator {
    /// The backlog is a full window deep: at most `WINDOW / rtt`
    /// placements start per window, and the rest wait in the bounded
    /// admission queue. This keeps the in-flight transfer list
    /// O(window / rtt) under overload.
    fn backlog_full(&self, t: SimTime) -> bool {
        self.next_free >= t + WINDOW
    }

    /// Queue one placement behind the backlog; returns how long after
    /// `t` the coordinator finishes it.
    fn charge(&mut self, t: SimTime) -> SimDuration {
        self.next_free = self.next_free.max(t) + self.rtt;
        self.next_free.saturating_since(t)
    }
}

/// A free node eligible to acquire work this window (stealing mode) —
/// recorded by the owning shard against window-start state, resolved by
/// the merge in ascending node order (pops first, then randomized
/// probes), exactly the classify → ordered-merge discipline of the
/// decision sweep.
#[derive(Debug, Clone, Copy)]
struct StealIntent {
    ni: u32,
    /// Window-start advisory: the thief's own deque held work, so the
    /// merge tries an owner pop before probing. Re-validated against the
    /// live deques (an earlier thief may have stolen it away).
    pop: bool,
}

impl Dispatch {
    /// The scheduler `cfg` asks for, holding the family's jobs (slots
    /// `0..jobs.len()`) in arrival order: on the central queue, or each
    /// on its home deque (`id % nodes`).
    pub(super) fn new(cfg: &ClusterConfig, jobs: &JobSlabs, shards: usize) -> Self {
        if cfg.stealing.enabled {
            let mut deques = StealState::new(cfg.nodes);
            for ji in 0..jobs.len() {
                deques.push_back(deques.home_of(jobs.id[ji].0 as u64), ji as u32);
            }
            let bufs = vec![Vec::new(); shards];
            let victims = VictimDraws::new(&RngFactory::new(cfg.seed), cfg.nodes as u32);
            return Dispatch::Stealing(Stealing { deques, bufs, victims });
        }
        let rtt = cfg.stealing.central_dispatch_rtt_secs;
        let coordinator = (rtt > 0.0).then(|| Coordinator {
            rtt: SimDuration::from_secs_f64(rtt),
            next_free: SimTime::ZERO,
        });
        let queue = (0..jobs.len()).collect();
        Dispatch::Central(Central { queue, coordinator, ..Central::default() })
    }

    /// Resize the per-shard buffers to `shards`.
    pub(super) fn set_shards(&mut self, shards: usize) {
        if let Dispatch::Stealing(s) = self {
            s.bufs = vec![Vec::new(); shards];
        }
    }

    /// True under the central coordinator, which directs migrations and
    /// transfer retries; stealing has no one to direct them.
    pub(super) fn is_central(&self) -> bool {
        matches!(self, Dispatch::Central(_))
    }

    /// Jobs waiting for a node, wherever they wait.
    pub(super) fn queued_len(&self) -> usize {
        match self {
            Dispatch::Central(c) => c.queue.len(),
            Dispatch::Stealing(s) => s.deques.total(),
        }
    }

    /// Enqueue job slot `ji` (job `id`): at the back of the central
    /// queue, or of its home deque (`id % nodes`).
    pub(super) fn enqueue(&mut self, ji: usize, id: JobId) {
        match self {
            Dispatch::Central(c) => c.queue.push_back(ji),
            Dispatch::Stealing(s) => s.deques.push_back(s.deques.home_of(id.0 as u64), ji as u32),
        }
    }

    /// A new window brought every node's load and memory: the
    /// destination pools rebuild on their next query.
    pub(super) fn new_window(&mut self) {
        if let Dispatch::Central(c) = self {
            c.dest.invalidate();
        }
    }

    /// A node rejoined `pool` mid-window as `cand`.
    pub(super) fn node_freed(&mut self, pool: Pool, cand: Cand) {
        if let Dispatch::Central(c) = self {
            c.dest.insert(pool, cand);
        }
    }

    /// Move every waiting job slot that `expired` accepts to `out`, in
    /// the order found.
    ///
    /// The central queue is FIFO and every (re)enqueue stamps the
    /// current window, so effective entry windows are non-decreasing
    /// front to back and the scan stops at the first unexpired job.
    /// `steal_half` moves old jobs onto younger deques, so expiry is
    /// *not* front-monotonic per deque: every deque is scanned in full,
    /// ascending node order, front to back (a deterministic order at any
    /// shard count).
    pub(super) fn take_expired(&mut self, expired: impl Fn(u32) -> bool, out: &mut Vec<u32>) {
        match self {
            Dispatch::Central(c) => {
                while let Some(ji) = c.queue.front().map(|&ji| ji as u32) {
                    if !expired(ji) {
                        break;
                    }
                    c.queue.pop_front();
                    out.push(ji);
                }
            }
            Dispatch::Stealing(s) => {
                for ni in 0..s.deques.nodes() {
                    let first = out.len();
                    out.extend(s.deques.iter(ni).filter(|&ji| expired(ji)));
                    s.deques.remove(ni, &out[first..]);
                }
            }
        }
    }
}

impl ClusterSim {
    /// Phase 5: start queued jobs on free nodes — the window's one
    /// placement call.
    pub(super) fn place(&mut self, t: SimTime) {
        if self.dispatch.is_central() {
            self.place_queued(t);
            return;
        }
        // Every dispatch in the stealing merge needs the whole simulator,
        // so the deques leave it for the pass. An empty central queue
        // holds their place; nothing in the pass reads it.
        let placeholder = Dispatch::Central(Central::default());
        if let Dispatch::Stealing(mut s) = std::mem::replace(&mut self.dispatch, placeholder) {
            self.classify_steals(&s.deques, &mut s.bufs);
            self.apply_steals(&mut s, t);
            self.dispatch = Dispatch::Stealing(s);
        }
    }

    /// The best destination in `pool`: the free node with the lowest
    /// current utilization (ties to the lowest id) that can hold
    /// `mem_kb`, other than `exclude`. Answered by the central
    /// coordinator's per-window [`DestIndex`]; an empty pool answers in
    /// O(1). Stealing knows no destination and always answers `None`.
    pub(super) fn best_destination(
        &mut self,
        pool: Pool,
        mem_kb: u32,
        exclude: Option<NodeId>,
    ) -> Option<NodeId> {
        let Dispatch::Central(c) = &mut self.dispatch else {
            return None;
        };
        // Only free nodes are candidates, and `room` is asked only of
        // live ones, so both read the window row.
        let (rows, total_kb) = (self.windows.current(), self.cfg.node_memory_kb);
        let cand = |ni: usize| (rows.cpu[ni], ni as u32);
        let room = |ni: usize| room_kb(total_kb, rows.mem_pages[ni]);
        let ex = exclude.map(|n| n.0);
        match pool {
            Pool::Idle => {
                let live = &self.free_idle;
                c.dest.best(pool, live, room, mem_kb, ex, live.iter().map(cand))
            }
            Pool::NonIdle => {
                let members = self
                    .free
                    .iter()
                    .filter(|&ni| rows.idle[ni / 64] & (1u64 << (ni % 64)) == 0)
                    .map(cand);
                c.dest.best(pool, &self.free, room, mem_kb, ex, members)
            }
        }
        .map(NodeId)
    }

    /// FIFO placement of queued jobs: idle nodes first; lingering policies
    /// may fall back to the least-loaded non-idle node (Sec 4.2: LL "can
    /// run jobs on any semi-available node").
    fn place_queued(&mut self, t: SimTime) {
        let Dispatch::Central(c) = &mut self.dispatch else {
            return;
        };
        // A saturated cluster (every node claimed or crashed) cannot
        // place anything: the pass below would pop each job and push it
        // back unchanged. Skip it — queue order, lazy queue-time spans,
        // and all indexes are untouched, so the bytes are identical. A
        // serialized coordinator's backlog only grows during a pass, so
        // once it is full every job still queued keeps its place — the
        // pass ends there (or never starts).
        if self.free.is_empty() || c.coordinator.is_some_and(|k| k.backlog_full(t)) {
            return;
        }
        let mut coordinator = c.coordinator;
        let mut queue = std::mem::take(&mut c.queue);
        let mut unplaced = std::mem::take(&mut c.scratch);
        unplaced.clear();
        // Smallest memory demand whose query already came up empty this
        // pass. While placing, both candidate sets only shrink (claims
        // remove nodes; free nodes' memory never changes mid-pass), so a
        // failure at `m` KB guarantees failure for any demand ≥ m — the
        // query can be skipped without changing a single placement. This
        // keeps the saturated-queue case O(queue).
        let mut idle_fail_kb = u32::MAX;
        let mut nonidle_fail_kb = u32::MAX;
        while let Some(ji) = queue.pop_front() {
            if self.jobs.arrival[ji] > t {
                unplaced.push_back(ji);
                continue;
            }
            if coordinator.is_some_and(|k| k.backlog_full(t)) {
                queue.push_front(ji);
                break;
            }
            // Only the dense hot lanes (`mem_kb`, `arrival`) are read on
            // the skip path — a saturated queue never touches the cold
            // job slab at all.
            let mem_kb = self.jobs.mem_kb[ji];
            let mut target = if mem_kb >= idle_fail_kb {
                None
            } else {
                let d = self.best_destination(Pool::Idle, mem_kb, None);
                if d.is_none() {
                    idle_fail_kb = mem_kb;
                }
                d
            };
            if target.is_none()
                && self.cfg.params.policy.places_on_non_idle()
                && mem_kb < nonidle_fail_kb
            {
                // Least-loaded non-idle node that can take the job.
                let d = self.best_destination(Pool::NonIdle, mem_kb, None);
                if d.is_none() {
                    nonidle_fail_kb = mem_kb;
                }
                target = d;
            }
            let Some(dest) = target else {
                unplaced.push_back(ji);
                continue;
            };
            // A serialized coordinator charges every placement its round
            // trip behind the backlog; the free one (the default) keeps
            // the historical placement, byte for byte.
            let mut extra = SimDuration::ZERO;
            if let Some(k) = coordinator.as_mut() {
                self.steal_stats.central_dispatches += 1;
                extra = k.charge(t);
            }
            self.dispatch_queued(ji, dest, t, extra);
        }
        if queue.is_empty() {
            // The drained queue buffer becomes next window's scratch.
            std::mem::swap(&mut queue, &mut unplaced);
        } else {
            // Stopped early: the few jobs skipped so far go back in front
            // of the untouched rest.
            while let Some(ji) = unplaced.pop_back() {
                queue.push_front(ji);
            }
        }
        if let Dispatch::Central(c) = &mut self.dispatch {
            (c.queue, c.scratch, c.coordinator) = (queue, unplaced, coordinator);
        }
    }

    /// Stealing classify: each shard scans its slice of the free index
    /// (crashed nodes are already excluded) and records which nodes may
    /// acquire work this window — idle nodes always, non-idle ones when
    /// the policy places on semi-available nodes — plus the window-start
    /// advisory of whether their own deque held work.
    fn classify_steals(&self, deques: &StealState, bufs: &mut [Vec<StealIntent>]) {
        let plan = &self.plan;
        let free_words = self.free.words();
        let idle = self.windows.current().idle;
        let policy = self.cfg.params.policy;
        plan.run(bufs.iter_mut(), |si, out| {
            out.clear();
            let wr = plan.word_range(si);
            classify_steals_shard(wr.start, &free_words[wr], idle, policy, deques, out);
        });
    }

    /// Stealing merge: resolve the intents in ascending node order.
    /// Owners pop LIFO from their own deque at zero latency; empty-handed
    /// thieves probe randomly drawn victims, each probe a round trip in
    /// simulated time, and a hit ships the victim's oldest job (plus half
    /// the deque under `steal_half`) with the accumulated probe delay.
    /// Probes are only sent while unserved work exists (`total() > 0`) —
    /// a no-work window costs nothing, and the RNG contract is unaffected
    /// because victim draws are keyed by `(thief, window, attempt)`, not
    /// by draw order.
    fn apply_steals(&mut self, s: &mut Stealing, t: SimTime) {
        let st = &mut s.deques;
        let scfg = self.cfg.stealing;
        let nodes = st.nodes() as u32;
        let window = self.window as u32;
        // Effective per-probe round trip: the configured baseline, or
        // the shared backbone's control-message round trip under the
        // current bulk-transfer load, whichever is slower.
        let in_flight = self.migrating.len();
        let rtt = match self.cfg.network {
            Some(net) => scfg.rtt_secs.max(net.steal_round_trip_secs(in_flight)),
            None => scfg.rtt_secs,
        };
        'merge: for buf in &s.bufs {
            for &intent in buf {
                if st.total() == 0 {
                    // Nothing left to pop or steal anywhere; later
                    // thieves stay silent (no probes against a known-
                    // empty system).
                    break 'merge;
                }
                let (thief, ni) = (intent.ni, intent.ni as usize);
                // Owner pop: the newest job on the node's own deque,
                // LIFO, zero latency.
                if intent.pop {
                    if let Some(ji) = st.back(ni).map(|ji| ji as usize) {
                        if self.jobs.arrival[ji] <= t && self.room_at(ni) >= self.jobs.mem_kb[ji] {
                            st.pop_back(ni);
                            self.steal_stats.local_pops += 1;
                            self.dispatch_queued(ji, NodeId(ni), t, SimDuration::ZERO);
                            continue;
                        }
                    }
                }
                if nodes < 2 {
                    continue;
                }
                // Probe randomized victims, one round trip each.
                let mut hit = false;
                for attempt in 1..=scfg.probe_attempts {
                    let victim = s.victims.victim(thief, window, attempt);
                    let vi = victim as usize;
                    self.steal_stats.probes += 1;
                    self.telemetry.record(|| {
                        let victim_depth = st.len(vi) as u32;
                        let kind = EventKind::StealAttempt { victim, attempt, victim_depth };
                        self.event_at(t, kind).on_node(thief)
                    });
                    // Bitmap first: almost every probe at scale is a
                    // miss against an empty deque, and `has_work` keeps
                    // that verdict in L1 instead of paying a cache miss
                    // on the victim's deque header per probe.
                    let stealable = st.has_work(vi)
                        && !self.crashed.contains(vi)
                        && st.front(vi).is_some_and(|ji| {
                            let ji = ji as usize;
                            self.jobs.arrival[ji] <= t && self.room_at(ni) >= self.jobs.mem_kb[ji]
                        });
                    if !stealable {
                        self.steal_stats.misses += 1;
                        self.telemetry.record(|| {
                            self.event_at(t, EventKind::StealMiss { victim, attempt })
                                .on_node(thief)
                        });
                        continue;
                    }
                    let half = st.len(vi).div_ceil(2);
                    let batch = if scfg.steal_half { half } else { 1 };
                    let delay_secs = attempt as f64 * rtt;
                    let first = st.pop_front(vi).expect("validated front") as usize;
                    self.steal_stats.hits += 1;
                    self.steal_stats.stolen_jobs += 1;
                    let job = self.jobs.id[first].0;
                    self.telemetry.record(|| {
                        let batch = batch as u32;
                        let kind = EventKind::StealHit { victim, attempt, batch, delay_secs };
                        self.event_at(t, kind).on_node(thief).for_job(job)
                    });
                    // The rest of the batch rides the same round trip
                    // onto the thief's deque (oldest first, appended at
                    // the back — they are the thief's freshest work now).
                    for _ in 1..batch {
                        let Some(ji) = st.pop_front(vi) else { break };
                        st.push_back(ni, ji);
                        self.steal_stats.stolen_jobs += 1;
                    }
                    let delay = SimDuration::from_secs_f64(delay_secs);
                    self.dispatch_queued(first, NodeId(ni), t, delay);
                    hit = true;
                    break;
                }
                if !hit && scfg.probe_attempts > 0 {
                    self.steal_stats.abandons += 1;
                    let attempts = scfg.probe_attempts;
                    self.telemetry.record(|| {
                        self.event_at(t, EventKind::StealAbandon { attempts }).on_node(thief)
                    });
                }
            }
        }
        for buf in &mut s.bufs {
            buf.clear();
        }
    }
}

/// One shard's slice of the stealing classify: record every free node in
/// the slice that may acquire work this window (idle, or any free node
/// when the policy places on semi-available nodes), with the window-start
/// pop advisory. The free index already excludes crashed nodes.
fn classify_steals_shard(
    word_base: usize,
    free_words: &[u64],
    idle: &[u64],
    policy: Policy,
    st: &StealState,
    out: &mut Vec<StealIntent>,
) {
    let on_non_idle = policy.places_on_non_idle();
    for (k, &w0) in free_words.iter().enumerate() {
        let idle_word = idle[word_base + k];
        let mut word = w0;
        while word != 0 {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            let idle = idle_word & (1u64 << bit) != 0;
            if !idle && !on_non_idle {
                continue;
            }
            let ni = (word_base + k) * 64 + bit;
            let pop = st.len(ni) > 0;
            out.push(StealIntent { ni: ni as u32, pop });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdmissionPolicy;
    use crate::sim::tests::{
        at_width, open_cfg, open_cfg_256, realize, run_outcome, sharded, small_cfg,
    };

    #[test]
    fn stealing_family_completes_and_counters_balance() {
        use crate::stealing::StealingConfig;
        let mut cfg = small_cfg(Policy::LingerLonger);
        cfg.stealing = StealingConfig::randomized(3, 0.05);
        let mut sim = ClusterSim::new(cfg);
        assert!(sim.run(), "stealing family must finish");
        assert_eq!(sim.completed(), 8);
        let s = sim.steal_stats();
        assert_eq!(s.probes, s.hits + s.misses, "every probe hits or misses");
        assert!(
            s.local_pops + s.stolen_jobs >= 8,
            "every job reached a node through the deques: {s:?}"
        );
        assert_eq!(s.central_dispatches, 0, "stealing mode never uses the coordinator");
    }

    #[test]
    fn steal_half_moves_batches_and_still_completes() {
        use crate::stealing::StealingConfig;
        let mut cfg = small_cfg(Policy::LingerLonger);
        cfg.stealing = StealingConfig { steal_half: true, ..StealingConfig::randomized(3, 0.05) };
        let mut sim = ClusterSim::new(cfg);
        assert!(sim.run());
        assert_eq!(sim.completed(), 8);
        let s = sim.steal_stats();
        assert!(s.stolen_jobs >= s.hits, "a hit moves at least one job");
    }

    #[test]
    fn stealing_deterministic_across_shards_and_threads() {
        use crate::stealing::StealingConfig;
        let mut cfg = open_cfg_256(AdmissionPolicy::Shed, 2.0);
        cfg.stealing = StealingConfig::randomized(3, 0.5);
        let real = realize(&cfg);
        let outcome = |shards: usize, width: usize| {
            at_width(width, || run_outcome(sharded(cfg.clone(), &real, shards)))
        };
        let base = outcome(1, 1);
        assert_eq!(base, outcome(4, 1), "shards changed stealing bytes");
        assert_eq!(base, outcome(4, 4), "threads changed stealing bytes");
    }

    #[test]
    fn central_dispatch_serialization_is_opt_in_and_counts() {
        use crate::stealing::StealingConfig;
        // Default: the coordinator is free and the counter stays zero.
        let mut sim = ClusterSim::new(open_cfg(AdmissionPolicy::Shed, 2.0, 24, 1800));
        sim.run();
        assert_eq!(sim.steal_stats().central_dispatches, 0);
        // Opt-in: every placement is charged and delayed.
        let mut cfg = open_cfg(AdmissionPolicy::Shed, 2.0, 24, 1800);
        cfg.stealing = StealingConfig {
            central_dispatch_rtt_secs: 4.0,
            ..StealingConfig::disabled()
        };
        let mut slow = ClusterSim::new(cfg);
        slow.run();
        let s = slow.steal_stats();
        assert!(s.central_dispatches > 0, "placements must be charged");
        assert_eq!(s.probes, 0, "central mode never probes");
        assert!(
            slow.completed() < sim.completed(),
            "a 4 s/dispatch coordinator must lose throughput: {} vs {}",
            slow.completed(),
            sim.completed()
        );
    }

    #[test]
    fn stealing_serves_open_arrivals_with_exact_accounting() {
        use crate::stealing::StealingConfig;
        let mut cfg = open_cfg(AdmissionPolicy::Deadline, 2.0, 24, 3600);
        cfg.service.deadline_secs = 120.0;
        cfg.stealing = StealingConfig { steal_half: true, ..StealingConfig::randomized(3, 0.1) };
        let mut sim = ClusterSim::new(cfg);
        assert!(sim.run());
        let s = sim.service_stats();
        assert!(s.accounting_holds());
        assert!(sim.completed() > 0, "stealing must serve arrivals");
        assert!(s.deadline_dropped > 0, "2× overload against a 120 s deadline drops");
        let st = sim.steal_stats();
        assert_eq!(st.probes, st.hits + st.misses);
    }
}
