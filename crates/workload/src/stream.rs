//! Memory-bounded streaming realization of the window table.
//!
//! A full [`WindowTable`] costs `O(nodes × period)` bytes — 10.125 B
//! per node-window: an 8-byte CPU lane, a 2-byte page lane and one idle
//! bit (no per-node traces stay resident behind it). At 1,048,576 nodes
//! and a 3600-second trace that is ~17.8 GiB: the memory wall, not the
//! sweep loop, is what used to cap the scaling experiments. A table
//! holds only the rows its runs read (see the realization module), but
//! a run whose horizon covers the period reads all of them, so the
//! representation choice sizes the full period.
//!
//! This module replaces the table with a deterministic pipeline that
//! never materializes a trace at all:
//!
//! * each node keeps its [`TraceStream`] *parked* between chunk fills
//!   (`ParkedTrace`, 64 B: the generator's scalars and its two
//!   counter-based RNGs' keystream word positions), at the sample its
//!   phase offset says the sweep needs next; a fill resumes one node's
//!   stream at a time (~760 B live, with both RNGs' four-block
//!   keystream buffers), writes that node's slice of the chunk and parks
//!   it again;
//! * a [`WindowCursor`] realizes windows in chunks of `W` windows, built
//!   on demand just ahead of the sweep; the arena is the chunk plus the
//!   parked streams, recycled on every refill, so peak memory is
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
//! `offset` samples (on average half a period per node, done once, in
//! the first fill, and attributed to setup time by the harness). That
//! fill runs on the cursor's shards, and a plan has one shard below
//! [`SHARD_MIN_NODES`] nodes, so up to there the positioning is serial.
//! The skip still makes every draw of those samples, but only the last
//! minute's 30 are built in full; the rest advance the episode,
//! CPU-level and memory state and consume the jitter and keyboard draws
//! unread ([`TraceStream::skip`]).
//!
//! The same [`WindowCursor`] type also serves a table realization,
//! straight from its shared table (built by the realization before the
//! cursor is handed out, never by the cursor), so every consumer reads
//! window rows through one interface whichever representation it was
//! handed.
//!
//! `LINGER_WINDOW_CHUNK` forces streaming with an explicit chunk size
//! (in windows); [`DEFAULT_WINDOW_BUDGET_BYTES`] (4 GiB) is the ceiling
//! above which a full table would not fit and synthesis switches to
//! streaming on its own, sizing chunks to a quarter of the budget.

use crate::coarse::{CoarseTraceConfig, ParkedTrace, TraceStream};
use crate::realization::{synthesized_pages, WindowTable};
use linger_sim_core::{default_jobs, RngFactory, ShardPlan, SHARD_MIN_NODES};
use std::sync::Arc;
use std::time::Instant;

/// Default byte ceiling for a fully materialized realization
/// (window table + offsets): 4 GiB keeps every historical sweep point
/// (≤65,536 nodes, ~1.1 GiB at a 1-hour trace) on the monolithic path
/// while 262,144 nodes (~4.45 GiB) and up stream. It sizes every row of
/// the period on purpose, although a table builds only the rows its runs
/// read: one realization may serve a run that reads them all.
pub const DEFAULT_WINDOW_BUDGET_BYTES: usize = 4 << 30;

/// Estimated resident bytes of a *monolithic* realization once every
/// row of its period is built: the window-major table plus the per-node
/// offsets.
pub fn monolithic_bytes_estimate(nodes: usize, period: usize) -> usize {
    period * window_row_bytes(nodes) + nodes * std::mem::size_of::<usize>()
}

/// Bytes of one window row over `nodes` nodes (cpu + page lanes plus
/// the packed idle words).
fn window_row_bytes(nodes: usize) -> usize {
    nodes * (std::mem::size_of::<f64>() + std::mem::size_of::<u16>())
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
/// [`WorkloadRealization::synthesize`]: crate::realization::WorkloadRealization::synthesize
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
/// mutable — so one realization can serve any number of concurrent
/// simulations, each with its own cursor.
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
    mem_pages: Vec<u16>,
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
            mem_pages: &self.mem_pages[cells..cells + self.nodes],
            idle: &self.idle[words..words + self.words_per_row],
        }
    }

    /// Resident bytes of the chunk arena.
    fn approx_bytes(&self) -> usize {
        self.cpu.capacity() * std::mem::size_of::<f64>()
            + self.mem_pages.capacity() * std::mem::size_of::<u16>()
            + self.idle.capacity() * std::mem::size_of::<u64>()
    }
}

/// One window's rows over every node, in node order: owner CPU demand
/// (in `[0, 1]`), owner-resident memory (whole 4 KB pages), and the
/// recruitment idle flags as packed bit words (bit `n % 64` of word
/// `n / 64` ⇔ node `n` is idle; bits at or past the node count are
/// zero).
#[derive(Debug, Clone, Copy)]
pub struct WindowRows<'a> {
    /// Owner CPU demand per node.
    pub cpu: &'a [f64],
    /// Owner-resident memory per node, in [`PAGE_KB`] pages.
    ///
    /// [`PAGE_KB`]: crate::PAGE_KB
    pub mem_pages: &'a [u16],
    /// Packed idle flags.
    pub idle: &'a [u64],
}

/// A forward cursor over one simulation's window rows — the single row
/// source of every consumer, whichever representation the realization
/// holds (see [`WorkloadRealization::cursor`]).
///
/// Over a monolithic realization it reads the shared [`WindowTable`],
/// whose rows the realization built before handing the cursor out
/// (absolute windows wrap modulo the period once every row exists, and
/// a shorter table panics past its rows); the cursor itself builds
/// nothing. Over a streamed realization it realizes windows in chunks.
/// Either way [`WindowCursor::rows`] returns the identical bytes for
/// every window it can serve.
///
/// One cursor belongs to exactly one simulation run (the per-node
/// streams are mutable); the realization is the shareable part.
///
/// [`WorkloadRealization::cursor`]: crate::realization::WorkloadRealization::cursor
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
    /// `offsets` (the `TRACE_OFFSET`-stream draws), for a run that reads
    /// windows `0..rows`: its chunks are no longer than `rows` windows.
    /// It still serves any window.
    pub(crate) fn streamed(spec: &StreamSpec, offsets: Arc<[usize]>, rows: usize) -> WindowCursor {
        WindowCursor {
            source: RowSource::Stream(Box::new(ChunkStream::new(spec, offsets, rows))),
        }
    }

    /// The rows of absolute window `w`, first realizing the chunk that
    /// holds it if the cursor streams and `w` is not resident.
    #[inline]
    pub fn rows(&mut self, w: usize) -> WindowRows<'_> {
        match &mut self.source {
            RowSource::Table(table) => WindowRows {
                cpu: table.cpu_row(w),
                mem_pages: table.mem_row(w),
                idle: table.idle_row(w),
            },
            RowSource::Stream(stream) => stream.rows(w),
        }
    }

    /// Seconds spent building chunks so far (stream positioning +
    /// generation; 0 over a table, whose rows were built before the
    /// cursor existed). Harnesses report this as setup, not window-loop
    /// time.
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
    /// parked per-node streams), or 0 over a table. The table and the
    /// offsets belong to the realization.
    pub fn approx_bytes(&self) -> usize {
        match &self.source {
            RowSource::Table(_) => 0,
            RowSource::Stream(stream) => stream.approx_bytes(),
        }
    }
}

/// A node not yet streamed is `None`, in the parked state's niche.
const _: () =
    assert!(std::mem::size_of::<Option<ParkedTrace>>() == std::mem::size_of::<ParkedTrace>());

/// The streaming half of [`WindowCursor`]. Windows may be requested in
/// any forward order; requesting an earlier window restarts the affected
/// streams (correct, but O(period) — the sweep never does it).
struct ChunkStream {
    spec: StreamSpec,
    /// The realization's offsets, shared.
    offsets: Arc<[usize]>,
    period: usize,
    /// Windows per chunk: the spec's chunk, capped at the rows the run
    /// reads.
    windows: usize,
    factory: RngFactory,
    /// Each node's stream between fills; `None` until the first fill
    /// creates it (creation + offset skip is the dominant setup cost and
    /// belongs inside `build_secs`).
    parked: Vec<Option<ParkedTrace>>,
    chunk: WindowChunk,
    plan: ShardPlan,
    build_secs: f64,
    chunks_built: u64,
}

impl ChunkStream {
    fn new(spec: &StreamSpec, offsets: Arc<[usize]>, rows: usize) -> ChunkStream {
        assert_eq!(offsets.len(), spec.nodes, "one offset per node");
        let period = spec.period();
        assert!(period > 0, "streamed realization needs a nonzero period");
        let shards = if spec.nodes >= SHARD_MIN_NODES { default_jobs() } else { 1 };
        let plan = ShardPlan::new(spec.nodes, shards);
        ChunkStream {
            spec: spec.clone(),
            offsets,
            period,
            windows: spec.chunk_windows.min(rows).min(period).max(1),
            factory: RngFactory::new(spec.seed),
            parked: vec![None; spec.nodes],
            chunk: WindowChunk::default(),
            plan,
            build_secs: 0.0,
            chunks_built: 0,
        }
    }

    /// Resident bytes of the arena (chunk + parked streams).
    fn approx_bytes(&self) -> usize {
        self.chunk.approx_bytes()
            + self.parked.capacity() * std::mem::size_of::<Option<ParkedTrace>>()
    }

    /// Make absolute window `w` resident and return its rows.
    fn rows(&mut self, w: usize) -> WindowRows<'_> {
        if !self.chunk.contains(w) {
            self.fill(w);
        }
        self.chunk.rows(w)
    }

    /// Rebuild the chunk arena to cover `[base, base + W)`. Every shard
    /// writes its own nodes straight into its slice of each window row,
    /// resuming one node's stream at a time and parking it again.
    fn fill(&mut self, base: usize) {
        let t0 = Instant::now();
        let nodes = self.spec.nodes;
        let period = self.period;
        let windows = self.windows;
        let words_per_row = nodes.div_ceil(64);

        let chunk = &mut self.chunk;
        chunk.base = base;
        chunk.windows = windows;
        chunk.nodes = nodes;
        chunk.words_per_row = words_per_row;
        // Every cpu and memory cell is overwritten below; only the idle
        // bits accumulate, so only they are cleared.
        chunk.cpu.resize(windows * nodes, 0.0);
        chunk.mem_pages.resize(windows * nodes, 0);
        chunk.idle.clear();
        chunk.idle.resize(windows * words_per_row, 0);

        // Hand each shard its nodes' parked streams and its slice of every
        // window row. Shard ranges are 64-aligned, so the idle words of
        // distinct shards are disjoint. (`max(1)`: a node-less chunk has
        // no rows.)
        let plan = &self.plan;
        let mut shards: Vec<ShardFill<'_>> = plan
            .ranges()
            .iter()
            .zip(plan.split_mut(&mut self.parked))
            .map(|(range, parked)| ShardFill {
                start: range.start,
                parked,
                offsets: &self.offsets[range.clone()],
                cpu: Vec::with_capacity(windows),
                mem_pages: Vec::with_capacity(windows),
                idle: Vec::with_capacity(windows),
            })
            .collect();
        for ((cpu, mem_pages), idle) in chunk
            .cpu
            .chunks_exact_mut(nodes.max(1))
            .zip(chunk.mem_pages.chunks_exact_mut(nodes.max(1)))
            .zip(chunk.idle.chunks_exact_mut(words_per_row.max(1)))
        {
            for (((shard, cpu), mem_pages), idle) in shards
                .iter_mut()
                .zip(plan.split_mut(cpu))
                .zip(plan.split_mut(mem_pages))
                .zip(plan.split_words_mut(idle))
            {
                shard.cpu.push(cpu);
                shard.mem_pages.push(mem_pages);
                shard.idle.push(idle);
            }
        }

        let spec_cfg = &self.spec.cfg;
        let factory = &self.factory;
        plan.run(shards, |_, shard: ShardFill<'_>| {
            let ShardFill {
                start,
                parked,
                offsets,
                mut cpu,
                mut mem_pages,
                mut idle,
            } = shard;
            for (j, (slot, &offset)) in parked.iter_mut().zip(offsets).enumerate() {
                let machine = (start + j) as u64;
                // A fresh stream *is* sample 0, so replaying from the
                // start of the trace is a restart.
                let restart = || TraceStream::new(spec_cfg, factory, machine);
                // Position once per chunk at the node's first sample,
                // `(offset + base) % period`. A sweep's parked stream
                // usually sits there already and lies behind after a
                // forward jump. A node the first fill meets has none, and
                // one parked past it (after a wrap or an earlier window)
                // replays from the start.
                let mut pos = (offset + base) % period;
                let mut stream = match slot {
                    Some(p) if p.index() <= pos => {
                        TraceStream::resume(spec_cfg, factory, machine, p)
                    }
                    _ => restart(),
                };
                if stream.index() < pos {
                    stream.skip(pos - stream.index());
                }
                // Consecutive windows read consecutive samples; a chunk
                // spans at most one period, so it wraps at most once.
                for dw in 0..windows {
                    if pos == period {
                        stream = restart();
                        pos = 0;
                    }
                    let (s, is_idle) = stream.next_sample();
                    pos += 1;
                    cpu[dw][j] = s.cpu;
                    mem_pages[dw][j] = synthesized_pages(s.mem_used_kb);
                    if is_idle {
                        idle[dw][j / 64] |= 1u64 << (j % 64);
                    }
                }
                *slot = Some(stream.park());
            }
        });

        self.build_secs += t0.elapsed().as_secs_f64();
        self.chunks_built += 1;
    }
}

/// One shard's share of a chunk fill: the parked streams and phase
/// offsets of its nodes (the first is node `start`) and its slice of
/// every window row, window by window.
struct ShardFill<'a> {
    start: usize,
    parked: &'a mut [Option<ParkedTrace>],
    offsets: &'a [usize],
    cpu: Vec<&'a mut [f64]>,
    mem_pages: Vec<&'a mut [u16]>,
    idle: Vec<&'a mut [u64]>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realization::WorkloadRealization;
    use linger_sim_core::SimDuration;

    fn cfg(secs: u64) -> CoarseTraceConfig {
        CoarseTraceConfig {
            duration: SimDuration::from_secs(secs),
            ..Default::default()
        }
    }

    /// Every chunk size must reproduce the monolithic table bit-for-bit,
    /// including across the wrap.
    #[test]
    fn chunked_rows_match_monolithic_table() {
        let c = cfg(600); // period 300
        let mono = WorkloadRealization::synthesize_monolithic(&c, 13, 70);
        let tbl = mono.table(usize::MAX).expect("table");
        let mut table_cur = mono.cursor(usize::MAX);
        for chunk_windows in [1usize, 7, 64, 300] {
            let streamed = WorkloadRealization::synthesize_streamed(&c, 13, 70, chunk_windows);
            let mut cur = streamed.cursor(usize::MAX);
            assert_eq!(streamed.offsets(), mono.offsets());
            // Probe past the period to exercise per-node restarts.
            for w in 0..2 * tbl.period() + 3 {
                let rows = cur.rows(w);
                assert_eq!(
                    rows.cpu.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                    tbl.cpu_row(w).iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                    "cpu row {w} chunk {chunk_windows}"
                );
                assert_eq!(rows.mem_pages, tbl.mem_row(w), "mem row {w}");
                assert_eq!(rows.idle, tbl.idle_row(w), "idle row {w}");
                // The table-backed cursor serves the same bytes.
                let t = table_cur.rows(w);
                assert_eq!(t.cpu.as_ptr(), tbl.cpu_row(w).as_ptr(), "no copy of the table");
                assert_eq!(t.mem_pages, rows.mem_pages);
                assert_eq!(t.idle, rows.idle);
            }
            assert!(cur.build_secs() > 0.0);
            assert!(cur.chunks_built() >= 1);
        }
        assert_eq!(table_cur.build_secs(), 0.0, "a table cursor builds nothing");
        assert_eq!(table_cur.chunks_built(), 0);
        assert_eq!(table_cur.approx_bytes(), 0, "the table belongs to the realization");
    }

    /// A cursor for a run that reads fewer rows than the spec's chunk
    /// builds chunks of those rows only, yet serves every window the
    /// table does: past its rows, past the period and across the wrap.
    #[test]
    fn short_run_cursor_caps_its_chunk_and_serves_every_window() {
        let c = cfg(600); // period 300
        let mono = WorkloadRealization::synthesize_monolithic(&c, 31, 130);
        let tbl = mono.table(usize::MAX).expect("table");
        let streamed = WorkloadRealization::synthesize_streamed(&c, 31, 130, 64);
        for rows in [1, 5, 63, 64, 400] {
            let mut cur = streamed.cursor(rows);
            let RowSource::Stream(stream) = &cur.source else { panic!("streamed cursor") };
            assert_eq!(stream.windows, rows.min(64), "chunk of a {rows}-row run");
            for w in (0..rows.min(80)).chain([rows, rows + 1, 299, 300, 301, 2 * 300 + 7]) {
                let r = cur.rows(w);
                let bits = |row: &[f64]| row.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(r.cpu), bits(tbl.cpu_row(w)), "cpu row {w} of a {rows}-row run");
                assert_eq!(r.mem_pages, tbl.mem_row(w), "mem row {w} of a {rows}-row run");
                assert_eq!(r.idle, tbl.idle_row(w), "idle row {w} of a {rows}-row run");
            }
        }
    }

    /// The arena is the chunk plus 64 B of parked stream per node; the
    /// offsets are the realization's, shared and counted there.
    #[test]
    fn arena_counts_the_chunk_and_the_parked_streams() {
        let c = cfg(600);
        let streamed = WorkloadRealization::synthesize_streamed(&c, 3, 130, 16);
        assert_eq!(streamed.approx_bytes(), 130 * 8, "the offsets");
        let mut cur = streamed.cursor(usize::MAX);
        cur.rows(0);
        // Per window 130 cpu and page cells and 3 idle words.
        assert_eq!(cur.approx_bytes(), 16 * 1_324 + 130 * 64);
        let RowSource::Stream(stream) = &cur.source else { panic!("streamed cursor") };
        assert!(std::ptr::eq(&stream.offsets[..], streamed.offsets()), "offsets are shared");
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
        let tbl = mono.table(usize::MAX).expect("table");
        let period = tbl.period();
        for chunk_windows in [1, 7, period] {
            let streamed = WorkloadRealization::synthesize_streamed(&c, 29, nodes, chunk_windows);
            let mut cur = streamed.cursor(usize::MAX);
            let RowSource::Stream(stream) = &cur.source else { panic!("streamed cursor") };
            assert_eq!(stream.plan.shard_count(), 4, "fill must be sharded");
            let ranges = stream.plan.ranges();
            assert_ne!(ranges[3].len(), ranges[0].len(), "ragged last shard");
            for w in 0..2 * period + 3 {
                let rows = cur.rows(w);
                let bits = |row: &[f64]| row.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                let (cpu, expect) = (bits(rows.cpu), bits(tbl.cpu_row(w)));
                assert_eq!(cpu, expect, "cpu row {w} chunk {chunk_windows}");
                assert_eq!(rows.mem_pages, tbl.mem_row(w), "mem row {w} chunk {chunk_windows}");
                assert_eq!(rows.idle, tbl.idle_row(w), "idle row {w} chunk {chunk_windows}");
            }
        }
        linger_sim_core::set_default_jobs(0);
    }

    /// The streamed page lane against each node's whole trace, derived
    /// the legacy way (one materialized trace per node), at node counts
    /// straddling the 64-node idle word and across the wrap.
    #[test]
    fn streamed_page_lane_matches_trace_samples() {
        let c = cfg(194); // period 97, not a multiple of any chunk below
        let factory = RngFactory::new(17);
        for nodes in [1, 63, 64, 65, 130] {
            let streamed = WorkloadRealization::synthesize_streamed(&c, 17, nodes, 40);
            let traces: Vec<_> = (0..nodes).map(|n| c.synthesize(&factory, n as u64)).collect();
            let mut cur = streamed.cursor(usize::MAX);
            for w in 0..2 * c.sample_count() + 3 {
                let want: Vec<u32> = (traces.iter().zip(streamed.offsets()))
                    .map(|(t, &o)| t.sample(o + w).mem_used_kb / crate::PAGE_KB)
                    .collect();
                let got: Vec<u32> = cur.rows(w).mem_pages.iter().map(|&p| u32::from(p)).collect();
                assert_eq!(got, want, "{nodes} nodes, window {w}");
            }
        }
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
        let per_window = nodes * 10 + nodes / 64 * 8;
        assert!(w * per_window <= 1 << 30);
        assert!(w >= 64, "got {w}");
    }

    #[test]
    fn monolithic_estimate_tracks_realized_bytes() {
        let c = cfg(600);
        let real = WorkloadRealization::synthesize_monolithic(&c, 5, 40);
        real.table(usize::MAX).expect("table");
        let est = monolithic_bytes_estimate(40, c.sample_count());
        let actual = real.approx_bytes();
        assert_eq!(est, actual, "the estimate counts exactly the realized lanes");
        // 16,384 nodes × 1,800 windows (a 1-hour trace): 10 bytes of
        // cpu and page lanes plus 1/8 byte of idle bit per node-window,
        // and an 8-byte offset per node.
        assert_eq!(monolithic_bytes_estimate(16_384, 1_800), 298_729_472);
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
