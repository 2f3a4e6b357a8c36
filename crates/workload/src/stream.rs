//! Memory-bounded streaming realization of the window table.
//!
//! The monolithic [`WindowTable`] costs `O(nodes × period)` bytes — ~12 B
//! per node-window (no per-node traces stay resident behind it). At
//! 1,048,576 nodes and a 3600-second trace that is ~21 GiB: the memory
//! wall, not the sweep loop, is what used to cap the scaling experiments.
//!
//! This module replaces the build-everything-up-front step with a
//! deterministic pipeline that never materializes a trace at all:
//!
//! * each node keeps a resumable [`TraceStream`] — two counter-based RNGs
//!   (each buffering four ChaCha blocks) plus a handful of scalars,
//!   ~760 B — positioned at the sample its phase offset says the sweep
//!   needs next;
//! * a [`WindowCursor`] realizes windows in chunks of `W` windows, built
//!   on demand just ahead of the sweep; the arena is the chunk plus the
//!   streams, recycled on every refill, so peak memory is
//!   `O(nodes × W)` regardless of the period;
//! * chunk fill is sharded over contiguous 64-aligned node ranges
//!   ([`ShardPlan`]) — every node's samples come from its own
//!   `stream_for(domain, node)` streams, and each shard writes straight
//!   into its own disjoint slice of every chunk row (the 64-aligned
//!   boundaries keep the packed idle words disjoint too), so the realized
//!   bytes are identical at any worker count, any shard count, and any
//!   chunk size.
//!
//! Replay wraps are handled per node: when `(offset + window) mod period`
//! returns to 0 the node's stream is simply restarted at sample 0, which
//! costs nothing — only the *initial* positioning pays a skip of
//! `offset` samples (on average half a period per node, done once,
//! in parallel, and attributed to setup time by the harness).
//!
//! The same [`WindowCursor`] type also serves a monolithic realization,
//! straight from its shared table, so every consumer reads window rows
//! through one interface whichever representation it was handed.
//!
//! Knobs: `LINGER_WINDOW_CHUNK` forces streaming with an explicit chunk
//! size (in windows); `LINGER_WINDOW_BUDGET_BYTES` (default 4 GiB) is the
//! ceiling above which a monolithic realization would not fit and the
//! library switches to streaming on its own, sizing chunks to a quarter
//! of the budget.

use crate::coarse::{CoarseTraceConfig, TraceStream};
use crate::library::WindowTable;
use linger_sim_core::{default_jobs, RngFactory, ShardPlan, SHARD_MIN_NODES};
use std::sync::Arc;
use std::time::Instant;

/// Default byte ceiling for a fully materialized realization
/// (window table + offsets): 4 GiB keeps every historical sweep point
/// (≤65,536 nodes, ~1.3 GiB at a 1-hour trace) on the monolithic path
/// while 262,144 nodes (~5.3 GiB) and up stream.
pub const DEFAULT_WINDOW_BUDGET_BYTES: usize = 4 << 30;

/// The byte ceiling for materialized realizations
/// (`LINGER_WINDOW_BUDGET_BYTES`, default
/// [`DEFAULT_WINDOW_BUDGET_BYTES`]). Read per call so harnesses can
/// retune between sections.
pub fn window_budget_bytes() -> usize {
    std::env::var("LINGER_WINDOW_BUDGET_BYTES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&b| b > 0)
        .unwrap_or(DEFAULT_WINDOW_BUDGET_BYTES)
}

/// Chunk size override: `LINGER_WINDOW_CHUNK` windows per chunk, which
/// also *forces* the streamed path at any node count (the
/// chunked-vs-monolithic determinism checks rely on this).
pub fn forced_chunk_windows() -> Option<usize> {
    std::env::var("LINGER_WINDOW_CHUNK")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&w| w > 0)
}

/// Estimated resident bytes of a *monolithic* realization: the
/// window-major table plus the per-node offsets.
pub fn monolithic_bytes_estimate(nodes: usize, period: usize) -> usize {
    period * window_row_bytes(nodes) + nodes * std::mem::size_of::<usize>()
}

/// Bytes of one window row over `nodes` nodes (cpu + memory lanes plus
/// the packed idle words).
fn window_row_bytes(nodes: usize) -> usize {
    nodes * (std::mem::size_of::<f64>() + std::mem::size_of::<u32>())
        + nodes.div_ceil(64) * std::mem::size_of::<u64>()
}

/// The representation [`WorkloadRealization::synthesize`] picks for
/// `nodes` over a `period`-window trace: `Some(chunk_windows)` to stream,
/// `None` for the monolithic table.
///
/// Streams when `forced` (the `LINGER_WINDOW_CHUNK` override) is set or
/// the monolithic estimate exceeds `budget_bytes`; a pure function of
/// its arguments, so the choice for every sweep point is testable
/// without synthesizing anything.
///
/// [`WorkloadRealization::synthesize`]: crate::library::WorkloadRealization::synthesize
pub fn streamed_chunk_windows(
    nodes: usize,
    period: usize,
    budget_bytes: usize,
    forced: Option<usize>,
) -> Option<usize> {
    if nodes == 0 || period == 0 {
        return None;
    }
    if forced.is_none() && monolithic_bytes_estimate(nodes, period) <= budget_bytes {
        return None;
    }
    Some(forced.unwrap_or_else(|| auto_chunk_windows(nodes, period, budget_bytes)))
}

/// Chunk size (windows) chosen automatically: a quarter of the byte
/// budget, at least 1 window, at most the whole period.
pub fn auto_chunk_windows(nodes: usize, period: usize, budget_bytes: usize) -> usize {
    ((budget_bytes / 4) / window_row_bytes(nodes).max(1)).clamp(1, period.max(1))
}

/// The immutable recipe for a streamed realization: everything a
/// [`WindowCursor`] needs to realize any window of any node, and nothing
/// mutable — so it can live in the shared trace cache and serve any
/// number of concurrent simulations, each with its own cursor.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Trace generator configuration (fixes the period).
    pub cfg: CoarseTraceConfig,
    /// Master seed for the per-node RNG streams.
    pub seed: u64,
    /// Number of nodes realized.
    pub nodes: usize,
    /// Windows per chunk.
    pub chunk_windows: usize,
}

impl StreamSpec {
    /// The replay period in windows (= samples; both are 2 s).
    pub fn period(&self) -> usize {
        self.cfg.sample_count()
    }
}

/// A window-major slice of the realization covering `windows` consecutive
/// absolute windows starting at `base` — same row layout as
/// [`WindowTable`], minus the modulo (the stream already resolved
/// absolute windows to trace samples).
#[derive(Debug, Default)]
struct WindowChunk {
    base: usize,
    windows: usize,
    nodes: usize,
    words_per_row: usize,
    cpu: Vec<f64>,
    mem_kb: Vec<u32>,
    idle: Vec<u64>,
}

impl WindowChunk {
    /// Whether absolute window `w` is resident.
    fn contains(&self, w: usize) -> bool {
        self.windows > 0 && w >= self.base && w < self.base + self.windows
    }

    /// The rows of resident absolute window `w`.
    fn rows(&self, w: usize) -> WindowRows<'_> {
        assert!(self.contains(w), "window {w} not in chunk");
        let cells = (w - self.base) * self.nodes;
        let words = (w - self.base) * self.words_per_row;
        WindowRows {
            cpu: &self.cpu[cells..cells + self.nodes],
            mem_kb: &self.mem_kb[cells..cells + self.nodes],
            idle: &self.idle[words..words + self.words_per_row],
        }
    }

    /// Resident bytes of the chunk arena.
    fn approx_bytes(&self) -> usize {
        self.cpu.capacity() * std::mem::size_of::<f64>()
            + self.mem_kb.capacity() * std::mem::size_of::<u32>()
            + self.idle.capacity() * std::mem::size_of::<u64>()
    }
}

/// One window's rows over every node, in node order: owner CPU demand
/// (in `[0, 1]`), owner-resident memory (KB), and the recruitment idle
/// flags as packed bit words (bit `n % 64` of word `n / 64` ⇔ node `n`
/// is idle; bits at or past the node count are zero).
#[derive(Debug, Clone, Copy)]
pub struct WindowRows<'a> {
    /// Owner CPU demand per node.
    pub cpu: &'a [f64],
    /// Owner-resident memory per node, KB.
    pub mem_kb: &'a [u32],
    /// Packed idle flags.
    pub idle: &'a [u64],
}

/// A forward cursor over one simulation's window rows — the single row
/// source of every consumer, whichever representation the realization
/// holds (see [`WorkloadRealization::cursor`]).
///
/// Over a monolithic realization it reads the shared [`WindowTable`]
/// (absolute windows wrap modulo the period, and nothing is ever built);
/// over a streamed one it realizes windows in chunks. Either way
/// [`WindowCursor::rows`] returns the identical bytes for every window.
///
/// One cursor belongs to exactly one simulation run (the per-node
/// streams are mutable); the realization is the cacheable part.
///
/// [`WorkloadRealization::cursor`]: crate::library::WorkloadRealization::cursor
pub struct WindowCursor {
    source: RowSource,
}

enum RowSource {
    /// The realization's fully materialized table, `Arc`-shared.
    Table(Arc<WindowTable>),
    /// Chunks realized on demand from per-node trace streams.
    Stream(Box<ChunkStream>),
}

impl WindowCursor {
    /// A cursor over a materialized table.
    pub(crate) fn table(table: Arc<WindowTable>) -> WindowCursor {
        WindowCursor { source: RowSource::Table(table) }
    }

    /// A streaming cursor at window 0 for `spec`, with per-node phase
    /// `offsets` (the `TRACE_OFFSET`-stream draws).
    pub(crate) fn streamed(spec: &StreamSpec, offsets: &[usize]) -> WindowCursor {
        WindowCursor { source: RowSource::Stream(Box::new(ChunkStream::new(spec, offsets))) }
    }

    /// The rows of absolute window `w`, first realizing the chunk that
    /// holds it if the cursor streams and `w` is not resident.
    #[inline]
    pub fn rows(&mut self, w: usize) -> WindowRows<'_> {
        match &mut self.source {
            RowSource::Table(table) => WindowRows {
                cpu: table.cpu_row(w),
                mem_kb: table.mem_row(w),
                idle: table.idle_row(w),
            },
            RowSource::Stream(stream) => stream.rows(w),
        }
    }

    /// Seconds spent building chunks so far (stream positioning +
    /// generation; 0 over a table). Harnesses report this as
    /// setup, not window-loop time.
    pub fn build_secs(&self) -> f64 {
        match &self.source {
            RowSource::Table(_) => 0.0,
            RowSource::Stream(stream) => stream.build_secs,
        }
    }

    /// Chunks built so far (0 over a table).
    pub fn chunks_built(&self) -> u64 {
        match &self.source {
            RowSource::Table(_) => 0,
            RowSource::Stream(stream) => stream.chunks_built,
        }
    }

    /// Resident bytes this cursor owns: the streaming arena (chunk +
    /// per-node streams + offsets), or 0 over a table (the table belongs
    /// to the realization).
    pub fn approx_bytes(&self) -> usize {
        match &self.source {
            RowSource::Table(_) => 0,
            RowSource::Stream(stream) => stream.approx_bytes(),
        }
    }
}

/// The streaming half of [`WindowCursor`]. Windows may be requested in
/// any forward order; requesting an earlier window restarts the affected
/// streams (correct, but O(period) — the sweep never does it).
struct ChunkStream {
    spec: StreamSpec,
    offsets: Vec<usize>,
    period: usize,
    factory: RngFactory,
    /// Lazily initialized at the first fill (creation + offset skip is
    /// the dominant setup cost and belongs inside `build_secs`).
    streams: Vec<TraceStream>,
    chunk: WindowChunk,
    plan: ShardPlan,
    build_secs: f64,
    chunks_built: u64,
}

impl ChunkStream {
    fn new(spec: &StreamSpec, offsets: &[usize]) -> ChunkStream {
        assert_eq!(offsets.len(), spec.nodes, "one offset per node");
        let period = spec.period();
        assert!(period > 0, "streamed realization needs a nonzero period");
        let shards = if spec.nodes >= SHARD_MIN_NODES { default_jobs() } else { 1 };
        let plan = ShardPlan::new(spec.nodes, shards);
        ChunkStream {
            spec: spec.clone(),
            offsets: offsets.to_vec(),
            period,
            factory: RngFactory::new(spec.seed),
            streams: Vec::new(),
            chunk: WindowChunk::default(),
            plan,
            build_secs: 0.0,
            chunks_built: 0,
        }
    }

    /// Resident bytes of the arena (chunk + streams + offsets).
    fn approx_bytes(&self) -> usize {
        self.chunk.approx_bytes()
            + self.streams.capacity() * std::mem::size_of::<TraceStream>()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
    }

    /// Make absolute window `w` resident and return its rows.
    fn rows(&mut self, w: usize) -> WindowRows<'_> {
        if !self.chunk.contains(w) {
            self.fill(w);
        }
        self.chunk.rows(w)
    }

    /// Rebuild the chunk arena to cover `[base, base + W)`. Every shard
    /// writes its own nodes straight into its slice of each window row.
    fn fill(&mut self, base: usize) {
        let t0 = Instant::now();
        let nodes = self.spec.nodes;
        let period = self.period;
        let windows = self.spec.chunk_windows.min(period).max(1);
        let words_per_row = nodes.div_ceil(64);

        if self.streams.is_empty() {
            // First fill: create every stream at sample 0. The skip to
            // each node's offset happens in the per-window positioning
            // below, inside the sharded fill.
            let spec_cfg = &self.spec.cfg;
            let factory = &self.factory;
            self.streams = linger_sim_core::par_map_indexed(nodes, None, |n| {
                TraceStream::new(spec_cfg, factory, n as u64)
            });
        }

        let chunk = &mut self.chunk;
        chunk.base = base;
        chunk.windows = windows;
        chunk.nodes = nodes;
        chunk.words_per_row = words_per_row;
        // Every cpu and memory cell is overwritten below; only the idle
        // bits accumulate, so only they are cleared.
        chunk.cpu.resize(windows * nodes, 0.0);
        chunk.mem_kb.resize(windows * nodes, 0);
        chunk.idle.clear();
        chunk.idle.resize(windows * words_per_row, 0);

        // Hand each shard its nodes' streams and its slice of every window
        // row. Shard ranges are 64-aligned, so the idle words of distinct
        // shards are disjoint. (`max(1)`: a node-less chunk has no rows.)
        let plan = &self.plan;
        let mut shards: Vec<ShardFill<'_>> = plan
            .ranges()
            .iter()
            .zip(plan.split_mut(&mut self.streams))
            .map(|(range, streams)| ShardFill {
                start: range.start,
                streams,
                offsets: &self.offsets[range.clone()],
                cpu: Vec::with_capacity(windows),
                mem_kb: Vec::with_capacity(windows),
                idle: Vec::with_capacity(windows),
            })
            .collect();
        for ((cpu, mem_kb), idle) in chunk
            .cpu
            .chunks_exact_mut(nodes.max(1))
            .zip(chunk.mem_kb.chunks_exact_mut(nodes.max(1)))
            .zip(chunk.idle.chunks_exact_mut(words_per_row.max(1)))
        {
            for (((shard, cpu), mem_kb), idle) in shards
                .iter_mut()
                .zip(plan.split_mut(cpu))
                .zip(plan.split_mut(mem_kb))
                .zip(plan.split_words_mut(idle))
            {
                shard.cpu.push(cpu);
                shard.mem_kb.push(mem_kb);
                shard.idle.push(idle);
            }
        }

        let spec_cfg = &self.spec.cfg;
        let factory = &self.factory;
        plan.run(shards, |_, shard: ShardFill<'_>| {
            let ShardFill { start, streams, offsets, mut cpu, mut mem_kb, mut idle } = shard;
            for (j, (stream, &offset)) in streams.iter_mut().zip(offsets).enumerate() {
                for dw in 0..windows {
                    let target = (offset + base + dw) % period;
                    if stream.index() > target {
                        // Wrapped past the end of the trace: replay from
                        // sample 0 (a fresh stream *is* sample 0).
                        *stream = TraceStream::new(spec_cfg, factory, (start + j) as u64);
                    }
                    if stream.index() < target {
                        stream.skip(target - stream.index());
                    }
                    let (s, is_idle) = stream.next_sample();
                    cpu[dw][j] = s.cpu;
                    mem_kb[dw][j] = s.mem_used_kb;
                    if is_idle {
                        idle[dw][j / 64] |= 1u64 << (j % 64);
                    }
                }
            }
        });

        self.build_secs += t0.elapsed().as_secs_f64();
        self.chunks_built += 1;
    }
}

/// One shard's share of a chunk fill: the streams and phase offsets of
/// its nodes (the first is node `start`) and its slice of every window
/// row, window by window.
struct ShardFill<'a> {
    start: usize,
    streams: &'a mut [TraceStream],
    offsets: &'a [usize],
    cpu: Vec<&'a mut [f64]>,
    mem_kb: Vec<&'a mut [u32]>,
    idle: Vec<&'a mut [u64]>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::WorkloadRealization;
    use linger_sim_core::SimDuration;

    fn cfg(secs: u64) -> CoarseTraceConfig {
        CoarseTraceConfig { duration: SimDuration::from_secs(secs), ..Default::default() }
    }

    /// Every chunk size must reproduce the monolithic table bit-for-bit,
    /// including across the wrap.
    #[test]
    fn chunked_rows_match_monolithic_table() {
        let c = cfg(600); // period 300
        let mono = WorkloadRealization::synthesize_monolithic(&c, 13, 70);
        let tbl = mono.window_table().expect("table");
        let mut table_cur = mono.cursor();
        for chunk_windows in [1usize, 7, 64, 300] {
            let streamed = WorkloadRealization::synthesize_streamed(&c, 13, 70, chunk_windows);
            let mut cur = streamed.cursor();
            assert_eq!(streamed.offsets(), mono.offsets());
            // Probe past the period to exercise per-node restarts.
            for w in 0..2 * tbl.period() + 3 {
                let rows = cur.rows(w);
                assert_eq!(
                    rows.cpu.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                    tbl.cpu_row(w).iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                    "cpu row {w} chunk {chunk_windows}"
                );
                assert_eq!(rows.mem_kb, tbl.mem_row(w), "mem row {w}");
                assert_eq!(rows.idle, tbl.idle_row(w), "idle row {w}");
                // The table-backed cursor serves the same bytes.
                let t = table_cur.rows(w);
                assert_eq!(t.cpu.as_ptr(), tbl.cpu_row(w).as_ptr(), "no copy of the table");
                assert_eq!(t.mem_kb, rows.mem_kb);
                assert_eq!(t.idle, rows.idle);
            }
            assert!(cur.build_secs() > 0.0);
            assert!(cur.chunks_built() >= 1);
        }
        assert_eq!(table_cur.build_secs(), 0.0, "a table cursor builds nothing");
        assert_eq!(table_cur.chunks_built(), 0);
        assert_eq!(table_cur.approx_bytes(), 0, "the table belongs to the realization");
    }

    /// The sharded fill — every shard writing its own slice of each row,
    /// here with a ragged last shard — must reproduce the monolithic
    /// table at every chunk size, including across the wrap.
    #[test]
    fn sharded_fill_matches_monolithic_table() {
        let c = cfg(40); // period 20
        let nodes = SHARD_MIN_NODES + 37;
        linger_sim_core::set_default_jobs(4);
        let mono = WorkloadRealization::synthesize_monolithic(&c, 29, nodes);
        let tbl = mono.window_table().expect("table");
        let period = tbl.period();
        for chunk_windows in [1, 7, period] {
            let streamed = WorkloadRealization::synthesize_streamed(&c, 29, nodes, chunk_windows);
            let mut cur = streamed.cursor();
            let RowSource::Stream(stream) = &cur.source else { panic!("streamed cursor") };
            assert_eq!(stream.plan.shard_count(), 4, "fill must be sharded");
            let ranges = stream.plan.ranges();
            assert_ne!(ranges[3].len(), ranges[0].len(), "ragged last shard");
            for w in 0..2 * period + 3 {
                let rows = cur.rows(w);
                let bits = |row: &[f64]| row.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                let (cpu, expect) = (bits(rows.cpu), bits(tbl.cpu_row(w)));
                assert_eq!(cpu, expect, "cpu row {w} chunk {chunk_windows}");
                assert_eq!(rows.mem_kb, tbl.mem_row(w), "mem row {w} chunk {chunk_windows}");
                assert_eq!(rows.idle, tbl.idle_row(w), "idle row {w} chunk {chunk_windows}");
            }
        }
        linger_sim_core::set_default_jobs(0);
    }

    #[test]
    fn auto_chunk_respects_budget_and_period() {
        // Period caps the chunk.
        assert_eq!(auto_chunk_windows(64, 10, usize::MAX), 10);
        // Tiny budgets still realize one window at a time.
        assert_eq!(auto_chunk_windows(1 << 20, 1800, 1), 1);
        // A quarter of the budget, not all of it.
        let nodes = 1 << 20;
        let w = auto_chunk_windows(nodes, 1800, 4 << 30);
        let per_window = nodes * 12 + nodes / 64 * 8;
        assert!(w * per_window <= 1 << 30);
        assert!(w >= 64, "got {w}");
    }

    #[test]
    fn monolithic_estimate_tracks_realized_bytes() {
        let c = cfg(600);
        let real = WorkloadRealization::synthesize_monolithic(&c, 5, 40);
        let est = monolithic_bytes_estimate(40, c.sample_count());
        let actual = real.approx_bytes();
        assert!(est >= actual, "estimate {est} must not undershoot {actual}");
        assert!(est <= actual * 2, "estimate {est} way above {actual}");
    }

    #[test]
    fn representation_choice_is_a_pure_function_of_size_budget_and_override() {
        // Degenerate realizations never stream.
        assert_eq!(streamed_chunk_windows(0, 1800, 1, None), None);
        assert_eq!(streamed_chunk_windows(64, 0, 1, Some(8)), None);
        // Within budget: monolithic unless the override forces a chunk.
        let fits = monolithic_bytes_estimate(64, 1800);
        assert_eq!(streamed_chunk_windows(64, 1800, fits, None), None);
        assert_eq!(streamed_chunk_windows(64, 1800, fits, Some(32)), Some(32));
        // One byte over: stream with the automatic chunk size.
        assert_eq!(
            streamed_chunk_windows(64, 1800, fits - 1, None),
            Some(auto_chunk_windows(64, 1800, fits - 1))
        );
    }
}
