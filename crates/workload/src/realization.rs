//! One cluster's owner workload, synthesized once and shared.
//!
//! Every policy evaluation under common random numbers deliberately
//! replays the *same* owner-workload realization: the per-node phase
//! offsets and the window-major [`WindowTable`] (or the stream recipe
//! that realizes it in chunks) derive only from `(master seed, stream
//! domain, node id)` — never from the policy, the cost parameters, or
//! the thread that happens to run the simulation. Re-synthesizing them
//! for each of the four policies at every sweep point is therefore pure
//! redundant work: the bytes are provably identical. A sweep calls
//! [`WorkloadRealization::synthesize`] once per `(trace config, seed,
//! node count)` and hands the realization to every cell that shares it.
//!
//! Synthesis itself draws only the phase offsets. The table's rows are
//! built when the first simulator asks for a cursor, and only as many
//! as that simulator can read: a run over a horizon of `h` seconds
//! reads windows `0..=h/2`, often a small share of the trace's replay
//! period. The realization keeps that table and hands it to every later
//! simulator that reads no further; one that reads further rebuilds it
//! once at the longer length. Rows do not depend on how many were
//! built, so a table of `r` rows is the first `r` rows of the full one.

use crate::coarse::{CoarseTrace, CoarseTraceConfig, TOTAL_MEMORY_KB};
use crate::generator::LocalWorkload;
use crate::memory::PAGE_KB;
use crate::stream::{
    streamed_chunk_windows, NodeStreams, StreamSpec, WindowCursor, WindowLanes, WindowRows,
    DEFAULT_WINDOW_BUDGET_BYTES,
};
use linger_sim_core::{default_jobs, env_count, RngFactory, ShardPlan};
use std::sync::{Arc, Mutex, PoisonError};

/// Window-major struct-of-arrays matrix of every node's `(cpu, mem,
/// idle)` per window.
///
/// Each per-window row is stored as three parallel dense arrays rather
/// than one array of 16-byte cells: the CPU sweep of the cluster
/// simulators touches only the `f64` lane, the memory refresh only the
/// `u16` page lane, and the recruitment scan reads the idle flags 64
/// nodes at a time as packed bit words — so each pass streams the
/// minimum number of cache lines for the field it actually consumes.
///
/// Owner memory is stored as whole 4 KB pages ([`PAGE_KB`]), converted
/// once here: the two-pool model is the only reader, and it works in
/// pages, so KB below a page never reached any result. At 2 bytes the
/// lane costs 10.125 bytes per node-window with the other two.
///
/// Row `w` holds all nodes for window `w % period()`, in node order:
/// node `n`'s entry is sample `(offset_n + w) % period` of its trace.
/// Because every [`CoarseTrace`] lookup wraps modulo the trace length,
/// row `w` equals the direct per-trace lookups at *any* `w`, not just
/// `w < period()`: for traces of length `period`,
/// `(offset + (w % period)) % period == (offset + w) % period`.
///
/// A table may hold only its first [`rows()`](Self::rows) rows: a run
/// over a horizon shorter than the period never reads the rest. Such a
/// table serves windows `0..rows()` and panics past them instead of
/// wrapping; only a table of every row (`rows() == period()`) wraps.
///
/// The lanes are the same struct a streamed chunk fills. A synthesized
/// realization's table is built by the streamed cursor's filler as one
/// chunk at window 0, straight from the per-node trace streams, with as
/// many rows as the simulators over it can read;
/// [`WorkloadRealization::from_traces`] transposes already materialized
/// traces (measured or hand-built) into a table of every row.
/// Simulators read it through a [`WindowCursor`].
#[derive(Debug, Clone)]
pub struct WindowTable {
    period: usize,
    /// Rows `0..rows`, with `rows` in `1..=period`.
    lanes: WindowLanes,
}

/// Every synthesized sample holds at most [`TOTAL_MEMORY_KB`], so its
/// page count always fits the `u16` lane.
const _: () = assert!(TOTAL_MEMORY_KB / PAGE_KB <= u16::MAX as u32);

/// A synthesized sample's owner memory in lane pages. Never truncates:
/// synthesis caps samples at [`TOTAL_MEMORY_KB`] (see the assertion
/// above).
#[inline]
pub(crate) fn synthesized_pages(mem_used_kb: u32) -> u16 {
    debug_assert!(mem_used_kb <= TOTAL_MEMORY_KB);
    (mem_used_kb / PAGE_KB) as u16
}

impl WindowTable {
    /// Gather `traces` (with per-node phase `offsets`) into a window-major
    /// table.
    ///
    /// Returns `None` when the node set is empty, the traces do not all
    /// share one period, or a sample's owner memory exceeds the page
    /// lane (`u16::MAX` pages, 262,143 KB): such a set has no
    /// window-major form.
    pub(crate) fn build(traces: &[Arc<CoarseTrace>], offsets: &[usize]) -> Option<WindowTable> {
        let period = traces.first()?.len();
        if period == 0 || traces.iter().any(|t| t.len() != period) {
            return None;
        }
        let nodes = traces.len();
        let words_per_row = nodes.div_ceil(64);
        let mut cpu = Vec::with_capacity(period * nodes);
        let mut mem_pages = Vec::with_capacity(period * nodes);
        let mut idle = vec![0u64; period * words_per_row];
        for w in 0..period {
            for (n, (trace, &offset)) in traces.iter().zip(offsets).enumerate() {
                let i = offset + w;
                let s = trace.sample(i);
                cpu.push(s.cpu);
                mem_pages.push(u16::try_from(s.mem_used_kb / PAGE_KB).ok()?);
                if trace.is_idle(i) {
                    idle[w * words_per_row + n / 64] |= 1u64 << (n % 64);
                }
            }
        }
        Some(WindowTable {
            period,
            lanes: WindowLanes {
                rows: period,
                nodes,
                words_per_row,
                cpu,
                mem_pages,
                idle,
            },
        })
    }

    /// Number of windows before the table wraps (the shared trace length).
    pub fn period(&self) -> usize {
        self.period
    }

    /// Number of rows built: windows `0..rows()` are readable, and every
    /// window is once `rows() == period()`.
    pub fn rows(&self) -> usize {
        self.lanes.rows
    }

    /// The stored row of window `w`.
    ///
    /// # Panics
    /// If the table stops short of the period and `w` lies past its
    /// rows: a partial table never wraps.
    #[inline]
    pub(crate) fn row(&self, w: usize) -> usize {
        let rows = self.lanes.rows;
        assert!(
            w < rows || rows == self.period,
            "window {w} lies past the {rows} rows built of a {}-window period",
            self.period
        );
        w % self.period
    }

    /// Number of node columns per row.
    pub fn nodes(&self) -> usize {
        self.lanes.nodes
    }

    /// `u64` words per idle row (`nodes` rounded up to a multiple of 64).
    pub fn words_per_row(&self) -> usize {
        self.lanes.words_per_row
    }

    /// Owner CPU demand (in `[0, 1]`) of every node for window `w`
    /// (wraps modulo the period; see [`Self::rows`]).
    #[cfg(test)]
    pub(crate) fn cpu_row(&self, w: usize) -> &[f64] {
        self.stored(self.row(w)).cpu
    }

    /// Owner-resident memory (whole [`PAGE_KB`] pages) of every node for
    /// window `w` (wraps modulo the period; see [`Self::rows`]).
    #[cfg(test)]
    pub(crate) fn mem_row(&self, w: usize) -> &[u16] {
        self.stored(self.row(w)).mem_pages
    }

    /// Recruitment idle flags for window `w` as packed bit words: bit
    /// `n % 64` of word `n / 64` ⇔ node `n` is idle (wraps modulo the
    /// period; see [`Self::rows`]). Bits at or past `nodes()` are zero.
    #[cfg(test)]
    pub(crate) fn idle_row(&self, w: usize) -> &[u64] {
        self.stored(self.row(w)).idle
    }

    /// The lanes of stored row `r` ([`Self::row`] maps windows to rows).
    #[inline]
    pub(crate) fn stored(&self, r: usize) -> WindowRows<'_> {
        self.lanes.stored(r)
    }
}

/// One cluster's owner workload: per-node phase offsets plus the
/// recipe for its window rows. No per-node trace is kept resident.
///
/// A synthesized realization draws only the offsets up front. Its rows
/// come either from a [`WindowTable`] built on the first
/// [`Self::cursor`] request — as many rows as that run can read, kept
/// and shared by `Arc` with every later simulator — or from a per-run
/// [`WindowCursor`] that streams them in chunks.
///
/// This is the single shared helper behind `ClusterSim::new`, the
/// parallel-program simulators, and the bench drivers — the one place
/// that implements the `RngFactory` /
/// [`LocalWorkload::random_offset_for_len`] derivation convention, so the
/// consumers cannot drift.
#[derive(Debug)]
pub struct WorkloadRealization {
    /// Shared with every streamed cursor.
    offsets: Arc<[usize]>,
    windows: Windows,
}

/// How a realization holds its window rows.
#[derive(Debug)]
enum Windows {
    /// Transposed whole from materialized traces: every row exists.
    Traces(Arc<WindowTable>),
    /// Synthesized into a shared table, built as far as a cursor asks.
    Table(TableSlot),
    /// Realized on demand in chunks, one [`WindowCursor`] per run.
    Stream(StreamSpec),
}

/// A synthesized realization's table: the trace recipe and the rows
/// built from it so far.
#[derive(Debug)]
struct TableSlot {
    cfg: CoarseTraceConfig,
    seed: u64,
    /// `None` until the first cursor; then the table every cursor so far
    /// could read, swapped for a longer one when a later run reads
    /// further.
    built: Mutex<Option<Arc<WindowTable>>>,
}

impl TableSlot {
    /// A table covering at least `rows` rows (clamped to the period) of
    /// the nodes with phase `offsets`: the built one if it reaches that
    /// far, else a table of exactly that many rows, built here and kept.
    ///
    /// Builds run under the slot's lock, so racing requests build once.
    /// A build that panics leaves the slot as it was (it is assigned
    /// only after a build returns), so a poisoned lock is recovered.
    fn rows(&self, rows: usize, offsets: &[usize]) -> Arc<WindowTable> {
        let rows = rows.clamp(1, self.cfg.sample_count());
        let mut built = self.built.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(table) = built.as_ref().filter(|t| t.rows() >= rows) {
            return table.clone();
        }
        let plan = ShardPlan::new(offsets.len(), default_jobs());
        let table = Arc::new(self.build(offsets, rows, &plan));
        *built = Some(table.clone());
        table
    }

    /// The table's first `rows` rows (`1..=period`), built by the
    /// streamed cursor's filler as one chunk at window 0 over `plan`'s
    /// node shards. The rows are identical at any shard and worker
    /// count and equal the first rows of [`WindowTable::build`] over
    /// the same streams' traces, while peak memory is the table plus
    /// one 64-node block buffer per shard.
    fn build(&self, offsets: &[usize], rows: usize, plan: &ShardPlan) -> WindowTable {
        let mut lanes = WindowLanes::zeroed(rows, offsets.len());
        let factory = RngFactory::new(self.seed);
        let streams = NodeStreams { cfg: &self.cfg, factory: &factory, offsets, plan };
        streams.fill(&mut lanes, 0, None);
        WindowTable { period: self.cfg.sample_count(), lanes }
    }

    /// The table built so far, if any.
    fn built(&self) -> Option<Arc<WindowTable>> {
        self.built.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

impl WorkloadRealization {
    /// Deterministically synthesize the realization for `nodes` machines
    /// from `seed`.
    ///
    /// Node `n`'s samples come from its `COARSE_TRACE`/`MEMORY` streams
    /// and its offset from its `TRACE_OFFSET` stream — exactly the
    /// streams `ClusterSim::new` historically drew, so a realization
    /// shared across runs and a fresh one per run are bit-identical.
    /// Only the offsets are drawn here; window rows are built when a
    /// simulator asks for them ([`Self::cursor`]). Synthesis is
    /// index-keyed, so it fans out over the process worker pool without
    /// affecting the bytes produced.
    ///
    /// When the full window table would not fit the window byte budget
    /// ([`DEFAULT_WINDOW_BUDGET_BYTES`], 4 GiB) — or
    /// `LINGER_WINDOW_CHUNK=<windows>` forces it at any node count, as
    /// the chunked-vs-monolithic determinism checks do — this returns a
    /// *streamed* realization instead (see [`streamed_chunk_windows`]):
    /// windows are realized on demand in chunks, byte-identical to the
    /// table at any chunk size. The budget sizes the whole period on
    /// purpose, not the rows a run reads: one realization may serve a
    /// run that reads every row.
    pub fn synthesize(cfg: &CoarseTraceConfig, seed: u64, nodes: usize) -> WorkloadRealization {
        let period = cfg.sample_count();
        let forced = env_count("LINGER_WINDOW_CHUNK");
        match streamed_chunk_windows(nodes, period, DEFAULT_WINDOW_BUDGET_BYTES, forced) {
            Some(chunk) => Self::synthesize_streamed(cfg, seed, nodes, chunk),
            None => Self::synthesize_monolithic(cfg, seed, nodes),
        }
    }

    /// [`Self::synthesize`] pinned to the window-table representation,
    /// regardless of budget knobs. Draws the offsets; the table's rows
    /// are built by the first [`Self::cursor`] that needs them.
    ///
    /// # Panics
    /// If `cfg` has a zero-length period.
    pub fn synthesize_monolithic(
        cfg: &CoarseTraceConfig,
        seed: u64,
        nodes: usize,
    ) -> WorkloadRealization {
        let period = cfg.sample_count();
        assert!(period > 0, "window table needs a nonzero period");
        let offsets = draw_offsets(period, &RngFactory::new(seed), nodes);
        let slot = TableSlot { cfg: cfg.clone(), seed, built: Mutex::new(None) };
        WorkloadRealization { offsets, windows: Windows::Table(slot) }
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
    /// Returns `None` when `traces` is empty, the traces do not all share
    /// one period, or a sample's owner memory exceeds `u16::MAX` pages
    /// (262,143 KB).
    ///
    /// # Panics
    /// If the number of offsets differs from the number of traces.
    pub fn from_traces(
        traces: &[Arc<CoarseTrace>],
        offsets: Vec<usize>,
    ) -> Option<WorkloadRealization> {
        assert_eq!(offsets.len(), traces.len(), "one offset per trace");
        let table = WindowTable::build(traces, &offsets)?;
        Some(WorkloadRealization {
            offsets: offsets.into(),
            windows: Windows::Traces(Arc::new(table)),
        })
    }

    /// The per-node phase offsets (in samples).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The window-major table with at least `rows` rows (or every row,
    /// if the period is shorter), building or growing the shared table
    /// if it stops short; `None` for a streamed realization. Simulators
    /// read rows through [`Self::cursor`] instead, which serves both
    /// representations.
    pub fn table(&self, rows: usize) -> Option<Arc<WindowTable>> {
        match &self.windows {
            Windows::Traces(table) => Some(table.clone()),
            Windows::Table(slot) => Some(slot.rows(rows, &self.offsets)),
            Windows::Stream(_) => None,
        }
    }

    /// A fresh window cursor at window 0 for a run that reads windows
    /// `0..rows`: over the shared table for a table realization (built
    /// first if it does not yet reach `rows`, see [`Self::table`]), or
    /// streaming chunks of at most `rows` windows for a streamed one,
    /// which still reads any window.
    ///
    /// Each simulation run needs its own cursor (the per-node generator
    /// streams are mutable); the realization itself, offsets included,
    /// stays shared.
    pub fn cursor(&self, rows: usize) -> WindowCursor {
        match &self.windows {
            Windows::Traces(table) => WindowCursor::table(table.clone()),
            Windows::Table(slot) => WindowCursor::table(slot.rows(rows, &self.offsets)),
            Windows::Stream(spec) => WindowCursor::streamed(spec, self.offsets.clone(), rows),
        }
    }

    /// Number of nodes this realization covers.
    pub fn nodes(&self) -> usize {
        self.offsets.len()
    }

    /// Estimated resident bytes: the offsets plus the rows built so far.
    ///
    /// A synthesized table holds no rows until the first [`Self::cursor`]
    /// and then as many as the longest run over it can read (every row
    /// once one run reads the whole period), so read this after the
    /// simulators are built. A table from traces holds every row; a
    /// streamed realization holds just the offsets, which its cursors
    /// share (each cursor owns its chunk arena and parked streams).
    pub fn approx_bytes(&self) -> usize {
        let table = match &self.windows {
            Windows::Traces(table) => Some(table.clone()),
            Windows::Table(slot) => slot.built(),
            Windows::Stream(_) => None,
        };
        table.map_or(0, |t| t.lanes.approx_bytes())
            + self.offsets.len() * std::mem::size_of::<usize>()
    }
}

/// Every node's phase offset into a `period`-sample trace, drawn from its
/// `TRACE_OFFSET` stream — shared by both representations.
fn draw_offsets(period: usize, factory: &RngFactory, nodes: usize) -> Arc<[usize]> {
    (0..nodes)
        .map(|n| LocalWorkload::random_offset_for_len(period, factory, n as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::CoarseSample;
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

    /// Assert `got` holds bit-identical rows (cpu bits, memory pages,
    /// idle words) to the first `got.rows()` rows of `want`, and that
    /// padding bits past the node count are zero.
    fn assert_same_rows(got: &WindowTable, want: &WindowTable, what: &str) {
        assert_eq!(got.period(), want.period(), "{what}: period");
        assert_eq!(got.nodes(), want.nodes(), "{what}: nodes");
        assert_eq!(got.words_per_row(), want.words_per_row(), "{what}: words");
        let bits = |row: &[f64]| row.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        for w in 0..got.rows() {
            assert_eq!(bits(got.cpu_row(w)), bits(want.cpu_row(w)), "{what}: cpu row {w}");
            assert_eq!(got.mem_row(w), want.mem_row(w), "{what}: mem row {w}");
            assert_eq!(got.idle_row(w), want.idle_row(w), "{what}: idle row {w}");
            let tail = got.nodes() % 64;
            if tail != 0 {
                assert_eq!(got.idle_row(w)[got.nodes() / 64] >> tail, 0, "{what}: padding {w}");
            }
        }
    }

    /// The table builder's first `rows` rows (every row at
    /// `usize::MAX`) over a plan of `shards` node shards against the
    /// legacy derivation: whole traces, then [`WindowTable::build`] —
    /// and its page lane against each trace's KB samples directly, so a
    /// KB-to-page error the two builders shared would still show.
    /// `offsets` replaces the drawn offsets when given.
    fn assert_fused_matches_legacy(
        c: &CoarseTraceConfig,
        seed: u64,
        nodes: usize,
        rows: usize,
        shards: usize,
        offsets: Option<Vec<usize>>,
    ) {
        let (traces, drawn) = legacy_synthesize(c, seed, nodes);
        let offsets = offsets.unwrap_or(drawn);
        let legacy = WindowTable::build(&traces, &offsets).expect("uniform traces");
        let slot = TableSlot { cfg: c.clone(), seed, built: Mutex::new(None) };
        let rows = rows.clamp(1, legacy.period());
        let fused = slot.build(&offsets, rows, &ShardPlan::new(nodes, shards));
        assert_eq!(fused.rows(), rows, "rows built");
        let what = format!("{nodes} nodes, {rows} rows, {shards} shards, seed {seed}");
        assert_same_rows(&fused, &legacy, &what);
        for w in 0..fused.rows() {
            let want: Vec<u32> = (traces.iter().zip(&offsets))
                .map(|(t, &o)| t.sample(o + w).mem_used_kb / PAGE_KB)
                .collect();
            let got: Vec<u32> = fused.mem_row(w).iter().map(|&p| u32::from(p)).collect();
            assert_eq!(got, want, "{what}: page row {w}");
        }
    }

    #[test]
    fn synthesize_matches_the_legacy_derivation() {
        let c = cfg(1800);
        let real = WorkloadRealization::synthesize(&c, 42, 6);
        let (traces, offsets) = legacy_synthesize(&c, 42, 6);
        assert_eq!(real.offsets(), &offsets[..]);
        let legacy = WindowTable::build(&traces, &offsets).expect("uniform traces");
        let tbl = real.table(usize::MAX).expect("monolithic realization");
        assert_eq!(tbl.rows(), tbl.period());
        assert_same_rows(&tbl, &legacy, "6 nodes");
    }

    #[test]
    fn fused_table_matches_legacy_at_block_edges() {
        // Periods 1 and 97 (not a multiple of the 64-node block; long
        // enough for the one-minute quiet streak that sets idle bits);
        // node counts straddling one block, two blocks, and — at 1,089
        // — 18 blocks, so every shard's buffer is refilled, the last
        // shard's last with a one-node block narrower than the rows it
        // held before.
        for secs in [2, 194] {
            for nodes in [1, 63, 64, 65, 130, 1089] {
                for shards in [1, 4] {
                    assert_fused_matches_legacy(&cfg(secs), 11, nodes, usize::MAX, shards, None);
                }
            }
        }
    }

    #[test]
    fn empty_realization_has_an_empty_table() {
        let real = WorkloadRealization::synthesize_monolithic(&cfg(600), 3, 0);
        let tbl = real.table(usize::MAX).expect("monolithic realization");
        assert_eq!((tbl.nodes(), tbl.words_per_row()), (0, 0));
        assert!(tbl.cpu_row(5).is_empty() && tbl.idle_row(5).is_empty());
        assert_eq!(real.nodes(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every row of the built table equals the legacy transpose, at
        /// any node count, period and shard count.
        #[test]
        fn fused_table_matches_legacy_build(
            node_pick in 0usize..6,
            any_nodes in 1usize..=300,
            secs_pick in 0usize..3,
            any_secs in 2u64..=400,
            shards_pick in 0usize..2,
            seed in 0u64..1_000,
        ) {
            // Block edges, or any count ≤ 300; period 1, 97 (not a
            // multiple of the block), or any period ≤ 200.
            let nodes = [1, 63, 64, 65, 130, any_nodes][node_pick];
            let secs = [2, 194, any_secs][secs_pick];
            let shards = [1, 4][shards_pick];
            assert_fused_matches_legacy(&cfg(secs), seed, nodes, usize::MAX, shards, None);
        }

        /// A table of `R` rows equals the first `R` rows of the full
        /// one — around the 30-sample recruitment window the offset skip
        /// builds in full, one short of the period, and at it — with
        /// node 0's offset chosen so its rows do or do not wrap past
        /// the period and, beside it, the last node's so they always do
        /// (`R > 1`).
        #[test]
        fn bounded_table_is_the_full_tables_first_rows(
            node_pick in 0usize..6,
            any_nodes in 1usize..=300,
            secs_pick in 0usize..2,
            any_secs in 64u64..=400,
            rows_pick in 0usize..7,
            any_rows in 1usize..=200,
            shards_pick in 0usize..2,
            first_wraps in any::<bool>(),
            seed in 0u64..1_000,
        ) {
            let nodes = [1, 63, 64, 65, 130, any_nodes][node_pick];
            // Period 97, or any period 32..=200: past every fixed `R`.
            let c = cfg([194, any_secs][secs_pick]);
            let period = c.sample_count();
            let rows = [1, 29, 30, 31, period - 1, period, any_rows.min(period)][rows_pick];
            let shards = [1, 4][shards_pick];
            let (_, mut offsets) = legacy_synthesize(&c, seed, nodes);
            offsets[nodes - 1] = period - 1;
            offsets[0] = if first_wraps { period - 1 } else { 0 };
            assert_fused_matches_legacy(&c, seed, nodes, rows, shards, Some(offsets));
        }
    }

    #[test]
    fn reading_past_the_built_rows_panics() {
        let real = WorkloadRealization::synthesize_monolithic(&cfg(600), 5, 70);
        let tbl = real.table(40).expect("table");
        assert_eq!((tbl.rows(), tbl.period()), (40, 300));
        let _ = (tbl.cpu_row(39), tbl.mem_row(39), tbl.idle_row(39));
        // Past the rows, in the unbuilt rest of the period, and past the
        // period (where a full table would wrap back into the built rows).
        for w in [40, 299, 300, 301] {
            for lane in 0..3 {
                let read = std::panic::catch_unwind(|| match lane {
                    0 => tbl.cpu_row(w).len(),
                    1 => tbl.mem_row(w).len(),
                    _ => tbl.idle_row(w).len(),
                });
                assert!(read.is_err(), "lane {lane} read window {w} of 40 rows");
            }
        }
        // The full table wraps.
        let full = real.table(usize::MAX).expect("table");
        assert_eq!(full.cpu_row(301), full.cpu_row(1));
    }

    #[test]
    fn one_table_serves_every_cursor_and_grows_once() {
        let real = WorkloadRealization::synthesize_monolithic(&cfg(600), 9, 70);
        let offsets_only = real.approx_bytes();
        assert_eq!(offsets_only, 70 * 8, "synthesis builds no rows");
        let short = real.table(100).expect("table");
        assert_eq!(short.rows(), 100);
        // A request the built table covers returns it; a longer one
        // swaps in a table of exactly that length, whose first rows are
        // the short table's.
        assert!(Arc::ptr_eq(&short, &real.table(30).expect("table")));
        let long = real.table(250).expect("table");
        assert_eq!(long.rows(), 250);
        assert_same_rows(&short, &long, "100 of 250 rows");
        assert!(Arc::ptr_eq(&long, &real.table(100).expect("table")));
        assert!(real.approx_bytes() > offsets_only);
        // Requests clamp to the period and never build an empty table.
        assert_eq!(real.table(usize::MAX).expect("table").rows(), 300);
        let fresh = WorkloadRealization::synthesize_monolithic(&cfg(600), 9, 70);
        assert_eq!(fresh.table(0).expect("table").rows(), 1);
    }

    #[test]
    fn window_table_rows_match_direct_trace_lookups() {
        let real = WorkloadRealization::synthesize(&cfg(600), 7, 5);
        let (traces, _) = legacy_synthesize(&cfg(600), 7, 5);
        let tbl = real.table(usize::MAX).expect("uniform traces build a table");
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
                assert_eq!(u32::from(mem[n]), s.mem_used_kb / PAGE_KB);
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

    /// A two-node realization whose second node's memory peaks at
    /// `peak_kb` in its last sample.
    fn peaking_at(peak_kb: u32) -> Option<WorkloadRealization> {
        let sample = |mem_used_kb| CoarseSample { cpu: 0.1, mem_used_kb, keyboard: false };
        let flat = Arc::new(CoarseTrace::from_samples(vec![sample(30_000); 3]));
        let peak =
            Arc::new(CoarseTrace::from_samples(vec![sample(30_000), sample(1), sample(peak_kb)]));
        WorkloadRealization::from_traces(&[flat, peak], vec![0, 1])
    }

    #[test]
    fn from_traces_takes_memory_up_to_the_page_lane_limit() {
        // u16::MAX pages is 262,140..=262,143 KB; one KB more is a page
        // the lane cannot hold, so the set has no window-major form.
        let real = peaking_at(262_143).expect("65,535 pages fit the lane");
        let tbl = real.table(1).expect("a table from traces");
        assert_eq!(tbl.rows(), tbl.period(), "every row exists");
        // Node 1 starts at offset 1: window 1 reads its last sample.
        assert_eq!(tbl.mem_row(1), &[30_000 / 4, u16::MAX]);
        assert_eq!(tbl.mem_row(0), &[30_000 / 4, 0], "1 KB is no whole page");
        assert!(peaking_at(262_144).is_none(), "65,536 pages overflow the lane");
    }

    #[test]
    fn approx_bytes_pins_the_table_layout() {
        // 130 nodes: one 8-byte offset per node (1,040 bytes) before
        // any rows are built; then per row an 8-byte cpu cell and a
        // 2-byte page cell per node and 3 idle words — 1,324 bytes.
        let real = WorkloadRealization::synthesize_monolithic(&cfg(600), 3, 130);
        assert_eq!(real.approx_bytes(), 1_040);
        assert_eq!(real.table(150).expect("table").rows(), 150);
        assert_eq!(real.approx_bytes(), 1_040 + 150 * 1_324);
        // Every row of the 300-window period.
        assert_eq!(real.table(usize::MAX).expect("table").period(), 300);
        assert_eq!(real.approx_bytes(), 398_240);
    }
}
