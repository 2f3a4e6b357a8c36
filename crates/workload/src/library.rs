//! Shared workload-realization cache.
//!
//! Every policy evaluation under common random numbers deliberately
//! replays the *same* owner-workload realization: the per-node phase
//! offsets and the window-major [`WindowTable`] (or the stream recipe
//! that realizes it in chunks) derive only from `(master seed, stream
//! domain, node id)` — never from the policy, the cost parameters, or
//! the thread that happens to run the simulation. Re-synthesizing them
//! for each of the four policies at every sweep point is therefore pure
//! redundant work: the bytes are provably identical.
//!
//! [`TraceLibrary`] is a content-keyed store of those realizations. The
//! key is `(CoarseTraceConfig, seed, node count)` — the *logical* inputs
//! of synthesis, bit-exact on the float fields — so a cache hit returns
//! exactly the `Arc` a miss would have built, and results are
//! byte-identical whether the cache is cold, warm, bypassed
//! (`LINGER_NO_TRACE_CACHE=1`), or evicted mid-sweep. Misses synthesize
//! deterministically; hits are pure reads.
//!
//! Memory is bounded: each entry's resident bytes are estimated at
//! insertion and least-recently-used entries are dropped once the budget
//! (`LINGER_TRACE_CACHE_BYTES`, default 1 GiB) is exceeded. Eviction is
//! safe by construction — holders keep their `Arc`s alive, and a re-miss
//! re-synthesizes the identical realization.

use crate::coarse::{CoarseTrace, CoarseTraceConfig, TraceStream};
use crate::generator::LocalWorkload;
use crate::stream::{
    forced_chunk_windows, streamed_chunk_windows, window_budget_bytes, StreamSpec, WindowCursor,
};
use linger_sim_core::{par_map_indexed, RngFactory};
use serde::Serialize;
use std::collections::{hash_map, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Window-major struct-of-arrays matrix of every node's `(cpu, mem,
/// idle)` per window.
///
/// Each per-window row is stored as three parallel dense arrays rather
/// than one array of 16-byte cells: the CPU sweep of the cluster
/// simulators touches only the `f64` lane, the memory refresh only the
/// `u32` lane, and the recruitment scan reads the idle flags 64 nodes at
/// a time as packed bit words — so each pass streams the minimum number
/// of cache lines for the field it actually consumes.
///
/// Row `w` holds all nodes for window `w % period()`, in node order:
/// node `n`'s entry is sample `(offset_n + w) % period` of its trace.
/// Because every [`CoarseTrace`] lookup wraps modulo the trace length,
/// row `w` equals the direct per-trace lookups at *any* `w`, not just
/// `w < period()`: for traces of length `period`,
/// `(offset + (w % period)) % period == (offset + w) % period`.
///
/// Synthesized realizations write the table straight from the per-node
/// trace streams (`WindowTable::synthesize`);
/// [`WorkloadRealization::from_traces`] transposes already materialized
/// traces (measured or hand-built). Simulators read it through a
/// [`WindowCursor`].
#[derive(Debug, Clone)]
pub struct WindowTable {
    period: usize,
    nodes: usize,
    /// One bit per (window, node): nodes per row padded to a whole number
    /// of 64-bit words so rows start word-aligned.
    words_per_row: usize,
    cpu: Vec<f64>,
    mem_kb: Vec<u32>,
    idle: Vec<u64>,
}

/// Nodes per column block of [`WindowTable::synthesize`]: one packed
/// idle word per row.
const BLOCK_NODES: usize = 64;

/// One column block of a table under construction: up to
/// [`BLOCK_NODES`] adjacent nodes in window-major order, each row as
/// wide as the block's node count. A worker fills and scatters one
/// block after another in the same buffers.
struct ColumnBlock {
    cpu: Vec<f64>,
    mem_kb: Vec<u32>,
    /// One word per window; bit `j` ⇔ node `first + j` is idle.
    idle: Vec<u64>,
}

impl ColumnBlock {
    fn new(period: usize) -> ColumnBlock {
        ColumnBlock {
            cpu: vec![0.0; period * BLOCK_NODES],
            mem_kb: vec![0; period * BLOCK_NODES],
            idle: vec![0; period],
        }
    }

    /// Run each node's [`TraceStream`] once through one period, writing
    /// sample `s` of node `first + j` to row `(s - offset_j) mod period`
    /// — the row whose lookup `(offset_j + w) % period` lands on `s`.
    /// Rows are `offsets.len()` wide.
    fn fill(
        &mut self,
        cfg: &CoarseTraceConfig,
        factory: &RngFactory,
        first: usize,
        offsets: &[usize],
        period: usize,
    ) {
        let width = offsets.len();
        self.idle.fill(0);
        for (j, &offset) in offsets.iter().enumerate() {
            let mut stream = TraceStream::new(cfg, factory, (first + j) as u64);
            let mut w = (period - offset % period) % period;
            for _ in 0..period {
                let (s, is_idle) = stream.next_sample();
                self.cpu[w * width + j] = s.cpu;
                self.mem_kb[w * width + j] = s.mem_used_kb;
                self.idle[w] |= u64::from(is_idle) << j;
                w += 1;
                if w == period {
                    w = 0;
                }
            }
        }
    }
}

impl WindowTable {
    /// Synthesize the table of `offsets.len()` nodes straight from their
    /// `cfg` trace streams under `factory`, without materializing a
    /// single per-node trace.
    ///
    /// Nodes are generated in 64-node column blocks over `jobs` workers.
    /// Each worker reuses one block buffer and scatters every block into
    /// its columns as soon as it is filled. A block's bytes and columns
    /// depend only on its index, so the table is identical at any worker
    /// count and equals [`WindowTable::build`] over the same streams'
    /// traces, while peak memory is the table plus one block per worker.
    ///
    /// # Panics
    /// If the period is zero.
    pub(crate) fn synthesize(
        cfg: &CoarseTraceConfig,
        factory: &RngFactory,
        offsets: &[usize],
        jobs: Option<usize>,
    ) -> WindowTable {
        let period = cfg.sample_count();
        assert!(period > 0, "window table needs a nonzero period");
        let nodes = offsets.len();
        let words_per_row = nodes.div_ceil(BLOCK_NODES);
        let table = Mutex::new(WindowTable {
            period,
            nodes,
            words_per_row,
            cpu: vec![0.0; period * nodes],
            mem_kb: vec![0; period * nodes],
            idle: vec![0u64; period * words_per_row],
        });
        // Idle block buffers: one per worker once every worker has run.
        // A unit that panics poisons the locks only on its way to failing
        // the whole fan-out.
        const POISONED: &str = "a synthesis unit panicked";
        let spare: Mutex<Vec<ColumnBlock>> = Mutex::new(Vec::new());
        par_map_indexed(words_per_row, jobs, |b| {
            let first = b * BLOCK_NODES;
            let last = (first + BLOCK_NODES).min(nodes);
            let width = last - first;
            let mut block = spare
                .lock()
                .expect(POISONED)
                .pop()
                .unwrap_or_else(|| ColumnBlock::new(period));
            block.fill(cfg, factory, first, &offsets[first..last], period);
            let mut t = table.lock().expect(POISONED);
            for w in 0..period {
                let col = w * nodes + first;
                let src = w * width..(w + 1) * width;
                t.cpu[col..col + width].copy_from_slice(&block.cpu[src.clone()]);
                t.mem_kb[col..col + width].copy_from_slice(&block.mem_kb[src]);
                t.idle[w * words_per_row + b] = block.idle[w];
            }
            drop(t);
            spare.lock().expect(POISONED).push(block);
        });
        table.into_inner().expect(POISONED)
    }

    /// Gather `traces` (with per-node phase `offsets`) into a window-major
    /// table.
    ///
    /// Returns `None` when the node set is empty or the traces do not all
    /// share one period: such a set has no window-major form.
    pub(crate) fn build(traces: &[Arc<CoarseTrace>], offsets: &[usize]) -> Option<WindowTable> {
        let period = traces.first()?.len();
        if period == 0 || traces.iter().any(|t| t.len() != period) {
            return None;
        }
        let nodes = traces.len();
        let words_per_row = nodes.div_ceil(64);
        let mut cpu = Vec::with_capacity(period * nodes);
        let mut mem_kb = Vec::with_capacity(period * nodes);
        let mut idle = vec![0u64; period * words_per_row];
        for w in 0..period {
            for (n, (trace, &offset)) in traces.iter().zip(offsets).enumerate() {
                let i = offset + w;
                let s = trace.sample(i);
                cpu.push(s.cpu);
                mem_kb.push(s.mem_used_kb);
                if trace.is_idle(i) {
                    idle[w * words_per_row + n / 64] |= 1u64 << (n % 64);
                }
            }
        }
        Some(WindowTable { period, nodes, words_per_row, cpu, mem_kb, idle })
    }

    /// Number of windows before the table wraps (the shared trace length).
    pub fn period(&self) -> usize {
        self.period
    }

    /// Number of node columns per row.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// `u64` words per idle row (`nodes` rounded up to a multiple of 64).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Owner CPU demand (in `[0, 1]`) of every node for window `w`
    /// (wraps modulo the period).
    pub fn cpu_row(&self, w: usize) -> &[f64] {
        let start = (w % self.period) * self.nodes;
        &self.cpu[start..start + self.nodes]
    }

    /// Owner-resident memory (KB) of every node for window `w` (wraps
    /// modulo the period).
    pub fn mem_row(&self, w: usize) -> &[u32] {
        let start = (w % self.period) * self.nodes;
        &self.mem_kb[start..start + self.nodes]
    }

    /// Recruitment idle flags for window `w` as packed bit words: bit
    /// `n % 64` of word `n / 64` ⇔ node `n` is idle (wraps modulo the
    /// period). Bits at or past `nodes()` are zero.
    pub fn idle_row(&self, w: usize) -> &[u64] {
        let start = (w % self.period) * self.words_per_row;
        &self.idle[start..start + self.words_per_row]
    }

    fn approx_bytes(&self) -> usize {
        self.cpu.len() * std::mem::size_of::<f64>()
            + self.mem_kb.len() * std::mem::size_of::<u32>()
            + self.idle.len() * std::mem::size_of::<u64>()
    }
}

/// One fully synthesized owner workload for a cluster: per-node phase
/// offsets plus either the prebuilt window table or the recipe a
/// [`WindowCursor`] streams it from. No per-node trace is kept resident.
///
/// This is the single shared helper behind `ClusterSim::new`, the
/// parallel-program simulators, and the bench drivers — the one place
/// that implements the `RngFactory` /
/// [`LocalWorkload::random_offset_for_len`] derivation convention, so the
/// consumers cannot drift.
#[derive(Debug)]
pub struct WorkloadRealization {
    offsets: Vec<usize>,
    windows: Windows,
}

/// How a realization holds its window rows.
#[derive(Debug)]
enum Windows {
    /// Fully materialized, `Arc`-shared with every simulator over it.
    Table(Arc<WindowTable>),
    /// Realized on demand in chunks, one [`WindowCursor`] per run.
    Stream(StreamSpec),
}

impl WorkloadRealization {
    /// Deterministically synthesize the realization for `nodes` machines
    /// from `seed`.
    ///
    /// Node `n`'s samples come from its `COARSE_TRACE`/`MEMORY` streams
    /// and its offset from its `TRACE_OFFSET` stream — exactly the
    /// streams `ClusterSim::new` historically drew, so cached and
    /// uncached construction are bit-identical. Synthesis is index-keyed,
    /// so it fans out over the process worker pool without affecting the
    /// bytes produced.
    ///
    /// When the window table would not fit the window byte budget
    /// (`LINGER_WINDOW_BUDGET_BYTES`, default 4 GiB) — or
    /// `LINGER_WINDOW_CHUNK` forces it — this returns a *streamed*
    /// realization instead (see [`streamed_chunk_windows`]): only the
    /// offsets are computed up front and windows are realized on demand
    /// in chunks, byte-identical to the monolithic table at any chunk
    /// size.
    pub fn synthesize(cfg: &CoarseTraceConfig, seed: u64, nodes: usize) -> WorkloadRealization {
        let period = cfg.sample_count();
        let forced = forced_chunk_windows();
        match streamed_chunk_windows(nodes, period, window_budget_bytes(), forced) {
            Some(chunk) => Self::synthesize_streamed(cfg, seed, nodes, chunk),
            None => Self::synthesize_monolithic(cfg, seed, nodes),
        }
    }

    /// [`Self::synthesize`] pinned to the materialized window-table
    /// representation, regardless of budget knobs.
    ///
    /// # Panics
    /// If `cfg` has a zero-length period.
    pub fn synthesize_monolithic(
        cfg: &CoarseTraceConfig,
        seed: u64,
        nodes: usize,
    ) -> WorkloadRealization {
        let factory = RngFactory::new(seed);
        let offsets = draw_offsets(cfg.sample_count(), &factory, nodes);
        let table = WindowTable::synthesize(cfg, &factory, &offsets, None);
        WorkloadRealization { offsets, windows: Windows::Table(Arc::new(table)) }
    }

    /// [`Self::synthesize`] pinned to the streamed representation with an
    /// explicit chunk size (in windows), regardless of budget knobs.
    ///
    /// Offsets are the same `TRACE_OFFSET`-stream draws as the monolithic
    /// path (they depend only on the replay period), so a streamed
    /// realization replays the *identical* workload — the proptests pin
    /// full-simulation byte equality across representations.
    pub fn synthesize_streamed(
        cfg: &CoarseTraceConfig,
        seed: u64,
        nodes: usize,
        chunk_windows: usize,
    ) -> WorkloadRealization {
        let period = cfg.sample_count();
        assert!(period > 0, "streamed realization needs a nonzero period");
        let offsets = draw_offsets(period, &RngFactory::new(seed), nodes);
        let spec = StreamSpec {
            cfg: cfg.clone(),
            seed,
            nodes,
            chunk_windows: chunk_windows.clamp(1, period),
        };
        WorkloadRealization { offsets, windows: Windows::Stream(spec) }
    }

    /// A realization over already materialized per-node traces (measured
    /// or hand-built) and their phase offsets: the traces are transposed
    /// into a window table once and not kept.
    ///
    /// Returns `None` when `traces` is empty or the traces do not all
    /// share one period.
    ///
    /// # Panics
    /// If the number of offsets differs from the number of traces.
    pub fn from_traces(
        traces: &[Arc<CoarseTrace>],
        offsets: Vec<usize>,
    ) -> Option<WorkloadRealization> {
        assert_eq!(offsets.len(), traces.len(), "one offset per trace");
        let table = WindowTable::build(traces, &offsets)?;
        Some(WorkloadRealization { offsets, windows: Windows::Table(Arc::new(table)) })
    }

    /// The per-node phase offsets (in samples).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The prebuilt window-major table (`None` for a streamed
    /// realization). Simulators read rows through [`Self::cursor`]
    /// instead, which serves both representations.
    pub fn window_table(&self) -> Option<&Arc<WindowTable>> {
        match &self.windows {
            Windows::Table(tbl) => Some(tbl),
            Windows::Stream(_) => None,
        }
    }

    /// A fresh window cursor at window 0: over the shared table for a
    /// monolithic realization, or streaming chunks for a streamed one.
    ///
    /// Each simulation run needs its own cursor (the per-node generator
    /// streams are mutable); the realization itself stays shareable.
    pub fn cursor(&self) -> WindowCursor {
        match &self.windows {
            Windows::Table(tbl) => WindowCursor::table(tbl.clone()),
            Windows::Stream(spec) => WindowCursor::streamed(spec, &self.offsets),
        }
    }

    /// Number of nodes this realization covers.
    pub fn nodes(&self) -> usize {
        self.offsets.len()
    }

    /// Estimated resident bytes: the window table plus the offsets (just
    /// the offsets for a streamed realization — cursors own the chunk
    /// arena and are not cached).
    pub fn approx_bytes(&self) -> usize {
        let table = self.window_table().map_or(0, |t| t.approx_bytes());
        table + self.offsets.len() * std::mem::size_of::<usize>()
    }
}

/// Every node's phase offset into a `period`-sample trace, drawn from its
/// `TRACE_OFFSET` stream — shared by both representations.
fn draw_offsets(period: usize, factory: &RngFactory, nodes: usize) -> Vec<usize> {
    (0..nodes)
        .map(|n| LocalWorkload::random_offset_for_len(period, factory, n as u64))
        .collect()
}

/// Cache key: the logical inputs of synthesis, bit-exact.
///
/// Float fields are keyed by `to_bits`, so two configs compare equal iff
/// synthesis would walk identical sample paths. Thread identity, policy,
/// and cost parameters are deliberately absent: they cannot influence the
/// realization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RealizationKey {
    duration_ns: u64,
    active_bits: u64,
    away_bits: u64,
    keyboard_bits: u64,
    persistence_bits: u64,
    diurnal: bool,
    weekly: bool,
    seed: u64,
    nodes: usize,
}

impl RealizationKey {
    fn new(cfg: &CoarseTraceConfig, seed: u64, nodes: usize) -> RealizationKey {
        RealizationKey {
            duration_ns: cfg.duration.as_nanos(),
            active_bits: cfg.active_episode_mean_secs.to_bits(),
            away_bits: cfg.away_episode_mean_secs.to_bits(),
            keyboard_bits: cfg.keyboard_prob.to_bits(),
            persistence_bits: cfg.cpu_persistence.to_bits(),
            diurnal: cfg.diurnal,
            weekly: cfg.weekly,
            seed,
            nodes,
        }
    }
}

struct Entry {
    slot: Arc<OnceLock<Arc<WorkloadRealization>>>,
    last_used: u64,
    /// 0 until the realization is synthesized and its size recorded.
    bytes: usize,
}

struct LibState {
    entries: HashMap<RealizationKey, Entry>,
    clock: u64,
    bytes: usize,
    max_bytes: usize,
}

/// How a [`TraceLibrary::realize_with_origin`] lookup was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RealizeOrigin {
    /// Served from an existing cache entry.
    Hit,
    /// Synthesized afresh and cached.
    Miss,
    /// Synthesized afresh, cache disabled (`LINGER_NO_TRACE_CACHE=1`).
    Bypass,
}

/// Counter snapshot of a [`TraceLibrary`], serialized into
/// `BENCH_runall.json`.
#[derive(Debug, Clone, Serialize)]
pub struct TraceCacheStats {
    /// Lookups served from an existing entry.
    pub hits: u64,
    /// Lookups that had to synthesize.
    pub misses: u64,
    /// Lookups that skipped the cache (`LINGER_NO_TRACE_CACHE=1`).
    pub bypasses: u64,
    /// Entries dropped to stay under the byte budget.
    pub evictions: u64,
    /// Realizations currently resident.
    pub entries: usize,
    /// Estimated bytes currently resident.
    pub bytes_resident: usize,
    /// Byte budget evictions enforce.
    pub max_bytes: usize,
}

impl TraceCacheStats {
    /// Fraction of cached lookups that hit, in `[0, 1]` (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Default byte budget: 1 GiB. A realization costs ~21.8 KB per node at
/// a 1-hour trace (window table + offset), so the 64–16,384-node scaling
/// points fit together (~477 MB) with headroom; a 65,536-node table
/// (~1.43 GB) exceeds the budget on its own, so it evicts every other
/// entry and is itself evicted by the next miss.
const DEFAULT_MAX_BYTES: usize = 1 << 30;

/// Content-keyed store of [`WorkloadRealization`]s.
///
/// Concurrent misses on the same key synthesize once: the map holds an
/// `Arc<OnceLock<..>>` per key, claimed under the lock but initialized
/// outside it, so latecomers block on `get_or_init` instead of
/// duplicating work — and the lock is never held across synthesis.
pub struct TraceLibrary {
    state: Mutex<LibState>,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for TraceLibrary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLibrary").field("stats", &self.stats()).finish()
    }
}

impl Default for TraceLibrary {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceLibrary {
    /// An empty library with the default byte budget.
    pub fn new() -> TraceLibrary {
        TraceLibrary::with_max_bytes(DEFAULT_MAX_BYTES)
    }

    /// An empty library that evicts least-recently-used realizations once
    /// the estimated resident size exceeds `max_bytes`.
    pub fn with_max_bytes(max_bytes: usize) -> TraceLibrary {
        TraceLibrary {
            state: Mutex::new(LibState {
                entries: HashMap::new(),
                clock: 0,
                bytes: 0,
                max_bytes,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Lock the cache state, tolerating poison.
    ///
    /// A cell that panics mid-`realize` (the harness isolates such
    /// panics and keeps running) must not take the shared cache down
    /// with it: the state is a plain map plus counters, and every
    /// mutation leaves it consistent, so recovering the guard is safe.
    fn state(&self) -> std::sync::MutexGuard<'_, LibState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The process-wide shared library.
    ///
    /// The byte budget is `LINGER_TRACE_CACHE_BYTES` (read once, at first
    /// use), defaulting to 1 GiB.
    pub fn global() -> &'static TraceLibrary {
        static GLOBAL: OnceLock<TraceLibrary> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let budget = std::env::var("LINGER_TRACE_CACHE_BYTES")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(DEFAULT_MAX_BYTES);
            TraceLibrary::with_max_bytes(budget)
        })
    }

    /// The realization for `(cfg, seed, nodes)` — synthesized on first
    /// sight, shared thereafter.
    ///
    /// Setting `LINGER_NO_TRACE_CACHE=1` makes every call synthesize
    /// afresh (counted as a bypass); because hits return exactly what a
    /// miss would build, this changes wall-clock only, never results.
    pub fn realize(
        &self,
        cfg: &CoarseTraceConfig,
        seed: u64,
        nodes: usize,
    ) -> Arc<WorkloadRealization> {
        self.realize_with_origin(cfg, seed, nodes).0
    }

    /// Like [`Self::realize`], also reporting how the lookup was served
    /// — so callers (the cluster simulator's telemetry) can attribute a
    /// hit/miss/bypass to *this* realization without racing on the
    /// shared counters.
    pub fn realize_with_origin(
        &self,
        cfg: &CoarseTraceConfig,
        seed: u64,
        nodes: usize,
    ) -> (Arc<WorkloadRealization>, RealizeOrigin) {
        if cache_disabled() {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            let real = Arc::new(WorkloadRealization::synthesize(cfg, seed, nodes));
            return (real, RealizeOrigin::Bypass);
        }
        let key = RealizationKey::new(cfg, seed, nodes);
        let (slot, origin) = {
            let mut st = self.state();
            st.clock += 1;
            let now = st.clock;
            match st.entries.entry(key) {
                hash_map::Entry::Occupied(mut e) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    e.get_mut().last_used = now;
                    (e.get().slot.clone(), RealizeOrigin::Hit)
                }
                hash_map::Entry::Vacant(v) => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let slot = v
                        .insert(Entry {
                            slot: Arc::new(OnceLock::new()),
                            last_used: now,
                            bytes: 0,
                        })
                        .slot
                        .clone();
                    (slot, RealizeOrigin::Miss)
                }
            }
        };
        let real = slot
            .get_or_init(|| Arc::new(WorkloadRealization::synthesize(cfg, seed, nodes)))
            .clone();
        let mut st = self.state();
        if let Some(e) = st.entries.get_mut(&key) {
            // Record the size once the slot backing this entry is filled
            // (the entry may have been evicted and re-created meanwhile —
            // only account for the slot we actually hold).
            if e.bytes == 0 && Arc::ptr_eq(&e.slot, &slot) {
                e.bytes = real.approx_bytes().max(1);
                st.bytes += e.bytes;
            }
        }
        self.evict_over_budget(&mut st, &key);
        (real, origin)
    }

    /// Drop LRU-initialized entries (never `keep`) until under budget.
    fn evict_over_budget(&self, st: &mut LibState, keep: &RealizationKey) {
        while st.bytes > st.max_bytes {
            let victim = st
                .entries
                .iter()
                .filter(|(k, e)| e.bytes > 0 && *k != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(k) = victim else { break };
            let e = st.entries.remove(&k).expect("victim chosen from map");
            st.bytes -= e.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> TraceCacheStats {
        let st = self.state();
        TraceCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: st.entries.len(),
            bytes_resident: st.bytes,
            max_bytes: st.max_bytes,
        }
    }

    /// Drop every resident realization (counters are kept).
    ///
    /// Outstanding `Arc`s stay valid; the next lookup per key is a miss.
    pub fn clear(&self) {
        let mut st = self.state();
        st.entries.clear();
        st.bytes = 0;
    }
}

/// Whether `LINGER_NO_TRACE_CACHE` requests cache bypass (any non-empty
/// value other than `0`). Read per lookup so a harness can toggle it
/// between sections.
fn cache_disabled() -> bool {
    match std::env::var("LINGER_NO_TRACE_CACHE") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linger_sim_core::SimDuration;
    use proptest::prelude::*;

    fn cfg(secs: u64) -> CoarseTraceConfig {
        CoarseTraceConfig {
            duration: SimDuration::from_secs(secs),
            ..CoarseTraceConfig::default()
        }
    }

    /// The hand-rolled synthesis loop `ClusterSim::new` used before the
    /// library existed — the compatibility contract.
    fn legacy_synthesize(
        cfg: &CoarseTraceConfig,
        seed: u64,
        nodes: usize,
    ) -> (Vec<Arc<CoarseTrace>>, Vec<usize>) {
        let factory = RngFactory::new(seed);
        let traces: Vec<Arc<CoarseTrace>> = (0..nodes)
            .map(|n| Arc::new(cfg.synthesize(&factory, n as u64)))
            .collect();
        let offsets = traces
            .iter()
            .enumerate()
            .map(|(n, t)| LocalWorkload::random_offset(t, &factory, n as u64))
            .collect();
        (traces, offsets)
    }

    /// Assert two tables hold bit-identical rows (cpu bits, memory,
    /// idle words) and that padding bits past the node count are zero.
    fn assert_same_rows(got: &WindowTable, want: &WindowTable, what: &str) {
        assert_eq!(got.period(), want.period(), "{what}: period");
        assert_eq!(got.nodes(), want.nodes(), "{what}: nodes");
        assert_eq!(got.words_per_row(), want.words_per_row(), "{what}: words");
        let bits = |row: &[f64]| row.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        for w in 0..want.period() {
            assert_eq!(
                bits(got.cpu_row(w)),
                bits(want.cpu_row(w)),
                "{what}: cpu row {w}"
            );
            assert_eq!(got.mem_row(w), want.mem_row(w), "{what}: mem row {w}");
            assert_eq!(got.idle_row(w), want.idle_row(w), "{what}: idle row {w}");
            let tail = got.nodes() % 64;
            if tail != 0 {
                assert_eq!(got.idle_row(w)[got.nodes() / 64] >> tail, 0, "{what}: padding {w}");
            }
        }
    }

    /// The fused builder against the legacy derivation: whole traces,
    /// then [`WindowTable::build`].
    fn assert_fused_matches_legacy(c: &CoarseTraceConfig, seed: u64, nodes: usize, jobs: usize) {
        let (traces, offsets) = legacy_synthesize(c, seed, nodes);
        let legacy = WindowTable::build(&traces, &offsets).expect("uniform traces");
        let fused = WindowTable::synthesize(c, &RngFactory::new(seed), &offsets, Some(jobs));
        assert_same_rows(&fused, &legacy, &format!("{nodes} nodes, jobs {jobs}, seed {seed}"));
    }

    #[test]
    fn synthesize_matches_the_legacy_derivation() {
        let c = cfg(1800);
        let real = WorkloadRealization::synthesize(&c, 42, 6);
        let (traces, offsets) = legacy_synthesize(&c, 42, 6);
        assert_eq!(real.offsets(), &offsets[..]);
        let legacy = WindowTable::build(&traces, &offsets).expect("uniform traces");
        let tbl = real.window_table().expect("monolithic realization");
        assert_same_rows(tbl, &legacy, "6 nodes");
    }

    #[test]
    fn fused_table_matches_legacy_at_block_edges() {
        // Periods 1 and 97 (not a multiple of the 64-node block; long
        // enough for the one-minute quiet streak that sets idle bits);
        // node counts straddling one block, two blocks, and — at 1,089
        // — 18 blocks, so every worker's buffer is refilled, last with
        // a one-node block narrower than the rows it held before.
        for secs in [2, 194] {
            for nodes in [1, 63, 64, 65, 130, 1089] {
                for jobs in [1, 4] {
                    assert_fused_matches_legacy(&cfg(secs), 11, nodes, jobs);
                }
            }
        }
    }

    #[test]
    fn empty_realization_has_an_empty_table() {
        let real = WorkloadRealization::synthesize_monolithic(&cfg(600), 3, 0);
        let tbl = real.window_table().expect("monolithic realization");
        assert_eq!((tbl.nodes(), tbl.words_per_row()), (0, 0));
        assert!(tbl.cpu_row(5).is_empty() && tbl.idle_row(5).is_empty());
        assert_eq!(real.nodes(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every row of the fused table equals the legacy transpose, at
        /// any node count, period and worker count.
        #[test]
        fn fused_table_matches_legacy_build(
            node_pick in 0usize..6,
            any_nodes in 1usize..=300,
            secs_pick in 0usize..3,
            any_secs in 2u64..=400,
            jobs_pick in 0usize..2,
            seed in 0u64..1_000,
        ) {
            // Block edges, or any count ≤ 300; period 1, 97 (not a
            // multiple of the block), or any period ≤ 200.
            let nodes = [1, 63, 64, 65, 130, any_nodes][node_pick];
            let secs = [2, 194, any_secs][secs_pick];
            let jobs = [1, 4][jobs_pick];
            assert_fused_matches_legacy(&cfg(secs), seed, nodes, jobs);
        }
    }

    #[test]
    fn window_table_rows_match_direct_trace_lookups() {
        let real = WorkloadRealization::synthesize(&cfg(600), 7, 5);
        let (traces, _) = legacy_synthesize(&cfg(600), 7, 5);
        let tbl = real.window_table().expect("uniform traces build a table");
        assert_eq!(tbl.period(), traces[0].len());
        assert_eq!(tbl.nodes(), 5);
        // Probe beyond the period to cover the wrap equivalence.
        for w in [0, 1, tbl.period() - 1, tbl.period(), 3 * tbl.period() + 2] {
            let cpu = tbl.cpu_row(w);
            let mem = tbl.mem_row(w);
            let idle = tbl.idle_row(w);
            assert_eq!(idle.len(), tbl.words_per_row());
            for n in 0..tbl.nodes() {
                let i = real.offsets()[n] + w;
                let s = traces[n].sample(i);
                assert_eq!(cpu[n].to_bits(), s.cpu.to_bits());
                assert_eq!(mem[n], s.mem_used_kb);
                let bit = idle[n / 64] & (1u64 << (n % 64)) != 0;
                assert_eq!(bit, traces[n].is_idle(i));
            }
            // Padding bits past the node count stay clear.
            let tail = tbl.nodes() % 64;
            if tail != 0 {
                assert_eq!(idle[tbl.nodes() / 64] >> tail, 0);
            }
        }
    }

    #[test]
    fn window_table_rejects_mixed_periods_and_empty_sets() {
        assert!(WindowTable::build(&[], &[]).is_none());
        let c = cfg(600);
        let f = RngFactory::new(1);
        let a = Arc::new(c.synthesize(&f, 0));
        let b = Arc::new(cfg(1200).synthesize(&f, 1));
        assert!(WindowTable::build(&[a, b], &[0, 0]).is_none());
    }

    #[test]
    fn hits_share_the_synthesized_arc() {
        let lib = TraceLibrary::new();
        let c = cfg(600);
        let a = lib.realize(&c, 1, 3);
        let b = lib.realize(&c, 1, 3);
        assert!(Arc::ptr_eq(&a, &b));
        let s = lib.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.bytes_resident, a.approx_bytes());
        // A different seed is a different realization.
        let other = lib.realize(&c, 2, 3);
        assert!(!Arc::ptr_eq(&a, &other));
        assert_eq!(lib.stats().misses, 2);
    }

    #[test]
    fn key_is_bit_exact_on_the_config() {
        let lib = TraceLibrary::new();
        let c = cfg(600);
        let _ = lib.realize(&c, 1, 3);
        let mut tweaked = c.clone();
        tweaked.keyboard_prob += 1e-12;
        let _ = lib.realize(&tweaked, 1, 3);
        assert_eq!(lib.stats().misses, 2, "any float perturbation must re-key");
    }

    #[test]
    fn eviction_keeps_results_identical_and_respects_the_budget() {
        let c = cfg(600);
        let probe = WorkloadRealization::synthesize(&c, 1, 2);
        // Budget fits one entry but not two.
        let lib = TraceLibrary::with_max_bytes(probe.approx_bytes() + probe.approx_bytes() / 2);
        let a1 = lib.realize(&c, 1, 2);
        let _b = lib.realize(&c, 2, 2); // evicts seed 1
        let s = lib.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 1);
        assert!(s.bytes_resident <= s.max_bytes);
        // The evicted Arc is still usable, and a re-miss resynthesizes
        // the identical realization.
        let a2 = lib.realize(&c, 1, 2);
        assert!(!Arc::ptr_eq(&a1, &a2));
        assert_eq!(a1.offsets(), a2.offsets());
        let table = |r: &WorkloadRealization| r.window_table().expect("monolithic").clone();
        assert_same_rows(&table(&a2), &table(&a1), "re-synthesized after eviction");
        assert_eq!(lib.stats().misses, 3);
    }

    #[test]
    fn clear_forces_fresh_misses_but_not_fresh_bytes() {
        let lib = TraceLibrary::new();
        let c = cfg(600);
        let a = lib.realize(&c, 9, 2);
        lib.clear();
        assert_eq!(lib.stats().bytes_resident, 0);
        let b = lib.realize(&c, 9, 2);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.offsets(), b.offsets());
        assert_eq!(lib.stats().misses, 2);
    }

    #[test]
    fn stats_hit_rate() {
        let lib = TraceLibrary::new();
        assert_eq!(lib.stats().hit_rate(), 0.0);
        let c = cfg(600);
        for _ in 0..4 {
            let _ = lib.realize(&c, 5, 2);
        }
        let s = lib.stats();
        assert_eq!((s.hits, s.misses), (3, 1));
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
