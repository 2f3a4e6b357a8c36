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
//!   stream at a time (2,296 B live, with both RNGs' sixteen-block
//!   keystream buffers), writes that node's column of the chunk and
//!   parks it again (a first fill holds a 64-node block's fresh streams
//!   live at once for the lane walk below);
//! * a [`WindowCursor`] realizes windows in chunks of `W` windows, built
//!   on demand just ahead of the sweep; the arena is the chunk plus the
//!   parked streams, recycled on every refill, so peak memory is
//!   `O(nodes × W)` regardless of the period;
//! * chunk fill is sharded over contiguous 64-aligned node ranges
//!   ([`ShardPlan`], one shard per worker at every node count) — every
//!   node's samples come from its own `stream_for(domain, node)`
//!   streams, and each shard fills its nodes 64 at a time into a small
//!   block buffer that it then scatters into its own disjoint slice of
//!   every chunk row (the 64-aligned boundaries keep the packed idle
//!   words disjoint too), so the realized bytes are identical at any
//!   worker count, any shard count, and any chunk size.
//!
//! Replay wraps are handled per node: when `(offset + window) mod period`
//! returns to 0 the node's stream is simply restarted at sample 0, which
//! costs nothing — only the *initial* positioning pays a skip of
//! `offset` samples (on average half a period per node, done once, in
//! the first fill, and attributed to setup time by the harness). That
//! fill runs on the cursor's shards, so positioning runs in parallel
//! whenever the worker budget is above one. A node whose first chunk
//! wraps the period walks its fresh stream once in sample order instead:
//! the wrapped head, then the skip, then the run from its offset; the
//! next chunk restarts it. The skip still makes every draw of those
//! samples, but only the last minute's 30 are built in full; the rest
//! advance the episode, CPU-level and memory state and consume the
//! jitter and keyboard draws unread ([`TraceStream::skip`]). A fill
//! takes each 64-node block in three passes — create or resume the
//! streams and write the wrapped heads; skip; write the rows and park
//! the streams — so that the block's skips longer than that minute run
//! eight at a time as the lanes of one vector walk
//! ([`TraceStream::skip_lanes`]); a table build and a streamed first
//! fill position every node that way. A node with a short skip (every
//! resumed stream in a run's later chunks skips none) takes its three
//! passes at once.
//!
//! The filler is the crate's one row builder: a table realization's
//! [`WindowTable`] is a single fill of as many rows as its runs read,
//! at window 0 and with no parked streams, into the same lanes a chunk
//! uses. The same [`WindowCursor`] type also serves a table
//! realization, straight from its shared table (built by the
//! realization before the cursor is handed out, never by the cursor),
//! so every consumer reads window rows through one interface whichever
//! representation it was handed.
//!
//! [`DEFAULT_WINDOW_BUDGET_BYTES`] (4 GiB) is the ceiling above which a
//! full table would not fit and synthesis switches to streaming, sizing
//! chunks to a quarter of the budget; the node count and the trace
//! period alone decide.
//! Tests and benchmarks pick a chunk size directly through
//! [`WorkloadRealization::synthesize_streamed`].
//!
//! [`WorkloadRealization::synthesize_streamed`]: crate::realization::WorkloadRealization::synthesize_streamed

use crate::coarse::{CoarseTraceConfig, ParkedTrace, TraceStream};
use crate::realization::{synthesized_pages, WindowTable};
use linger_sim_core::{default_jobs, RngFactory, ShardPlan};
use std::ops::Range;
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
/// Streams when the monolithic estimate exceeds `budget_bytes`; a pure
/// function of its arguments, so the choice for every sweep point is
/// testable without synthesizing anything.
///
/// [`WorkloadRealization::synthesize`]: crate::realization::WorkloadRealization::synthesize
pub fn streamed_chunk_windows(nodes: usize, period: usize, budget_bytes: usize) -> Option<usize> {
    if nodes == 0 || period == 0 || monolithic_bytes_estimate(nodes, period) <= budget_bytes {
        return None;
    }
    Some(auto_chunk_windows(nodes, period, budget_bytes))
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

/// Window-major struct-of-arrays lanes of `rows` consecutive windows
/// over every node: the storage of a [`WindowTable`] and of a streamed
/// chunk alike.
///
/// Row `r` holds every node in node order. The `cpu` and `mem_pages`
/// rows are `nodes` cells wide; the `idle` rows are `words_per_row`
/// packed words, the nodes padded to a whole number of 64-bit words so
/// rows start word-aligned.
#[derive(Debug, Clone, Default)]
pub(crate) struct WindowLanes {
    pub(crate) rows: usize,
    pub(crate) nodes: usize,
    pub(crate) words_per_row: usize,
    pub(crate) cpu: Vec<f64>,
    pub(crate) mem_pages: Vec<u16>,
    pub(crate) idle: Vec<u64>,
}

impl WindowLanes {
    /// Zeroed lanes of `rows` rows over `nodes` nodes.
    pub(crate) fn zeroed(rows: usize, nodes: usize) -> WindowLanes {
        let words_per_row = nodes.div_ceil(64);
        WindowLanes {
            rows,
            nodes,
            words_per_row,
            cpu: vec![0.0; rows * nodes],
            mem_pages: vec![0; rows * nodes],
            idle: vec![0; rows * words_per_row],
        }
    }

    /// The lanes of row `r`.
    #[inline]
    pub(crate) fn stored(&self, r: usize) -> WindowRows<'_> {
        let (cells, words) = (r * self.nodes, r * self.words_per_row);
        WindowRows {
            cpu: &self.cpu[cells..cells + self.nodes],
            mem_pages: &self.mem_pages[cells..cells + self.nodes],
            idle: &self.idle[words..words + self.words_per_row],
        }
    }

    /// Resident bytes of the three lanes.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.cpu.len() * std::mem::size_of::<f64>()
            + self.mem_pages.len() * std::mem::size_of::<u16>()
            + self.idle.len() * std::mem::size_of::<u64>()
    }
}

/// Everything a fill draws window rows from: the trace generator, the
/// seeded factory every node's streams derive from, the nodes' phase
/// offsets, and the node shards the fill runs on.
pub(crate) struct NodeStreams<'a> {
    pub(crate) cfg: &'a CoarseTraceConfig,
    pub(crate) factory: &'a RngFactory,
    pub(crate) offsets: &'a [usize],
    pub(crate) plan: &'a ShardPlan,
}

impl NodeStreams<'_> {
    /// Fill every row of `lanes` with absolute windows `base..base +
    /// lanes.rows`: row `r` of node `n` is sample `(offset_n + base + r)
    /// mod period` of its [`TraceStream`]. This is the one row builder:
    /// a table is a single fill at `base` 0, a streamed cursor one fill
    /// per chunk.
    ///
    /// With `parked`, every node resumes its parked stream if that lies
    /// at or before its first sample and parks it again afterwards; a
    /// table never refills, so it keeps no parked streams.
    ///
    /// Each shard of the plan fills its nodes' columns on its own
    /// ([`ShardPlan::run`]). Shard ranges are 64-aligned, so the shards'
    /// idle words are disjoint and the bytes are identical at any shard
    /// and worker count.
    ///
    /// # Panics
    /// If the period is zero, `lanes.rows` exceeds it, or the lanes and
    /// the offsets disagree on the node count.
    pub(crate) fn fill(
        &self,
        lanes: &mut WindowLanes,
        base: usize,
        parked: Option<&mut [Option<ParkedTrace>]>,
    ) {
        let (rows, nodes) = (lanes.rows, lanes.nodes);
        let period = self.cfg.sample_count();
        assert!(period > 0 && rows <= period, "a fill spans at most one nonzero period");
        assert_eq!(self.offsets.len(), nodes, "one offset per node");
        // Hand each shard its nodes' offsets and parked streams and its
        // slice of every row. (`max(1)`: a node-less fill has no rows.)
        let plan = self.plan;
        let mut parked = parked.map(|p| plan.split_mut(p).into_iter());
        let mut shards: Vec<ShardFill<'_>> = plan
            .ranges()
            .iter()
            .map(|range| ShardFill {
                start: range.start,
                offsets: &self.offsets[range.clone()],
                parked: parked.as_mut().and_then(Iterator::next),
                cpu: Vec::with_capacity(rows),
                mem_pages: Vec::with_capacity(rows),
                idle: Vec::with_capacity(rows),
            })
            .collect();
        for ((cpu, mem_pages), idle) in lanes
            .cpu
            .chunks_exact_mut(nodes.max(1))
            .zip(lanes.mem_pages.chunks_exact_mut(nodes.max(1)))
            .zip(lanes.idle.chunks_exact_mut(lanes.words_per_row.max(1)))
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
        plan.run(shards, |_, shard: ShardFill<'_>| shard.fill(self, base, rows));
    }
}

/// One shard's share of a fill: the phase offsets and parked streams of
/// its nodes (the first is node `start`) and its slice of every row.
struct ShardFill<'a> {
    start: usize,
    offsets: &'a [usize],
    parked: Option<&'a mut [Option<ParkedTrace>]>,
    cpu: Vec<&'a mut [f64]>,
    mem_pages: Vec<&'a mut [u16]>,
    idle: Vec<&'a mut [u64]>,
}

impl ShardFill<'_> {
    /// Fill the shard's nodes 64 at a time into one block buffer, which
    /// is then scattered into the rows. Each block takes three passes:
    /// create or resume every node's stream and write its wrapped head;
    /// skip every stream to its first row's sample, those with more
    /// than [`LANE_SKIP`] samples to pass together through
    /// [`TraceStream::skip_lanes`]; write each node's run of rows and
    /// park its stream. A node with a short skip (a resumed stream in a
    /// run's later chunks skips none) takes all three at once, so it
    /// never waits in the pending list.
    fn fill(mut self, src: &NodeStreams<'_>, base: usize, rows: usize) {
        let (cfg, factory) = (src.cfg, src.factory);
        let period = cfg.sample_count();
        let mut block = BlockBuffer::new(rows);
        let mut pending = Pending::default();
        for first in (0..self.offsets.len()).step_by(64) {
            let width = (self.offsets.len() - first).min(64);
            block.idle.fill(0);
            for j in 0..width {
                let n = first + j;
                let machine = (self.start + n) as u64;
                let pos = (self.offsets[n] + base) % period;
                let resumable =
                    self.parked.as_deref().and_then(|p| p[n]).filter(|p| p.index() <= pos);
                let run_rows = rows.min(period - pos);
                let restart = resumable.is_some() && run_rows < rows;
                let run = Run { col: j, rows: run_rows, restart, machine };
                let (mut stream, skip) = match resumable {
                    // A resumed stream walks forward from `pos` and, if
                    // the rows wrap the period, restarts at sample 0 (a
                    // fresh stream *is* sample 0).
                    Some(p) => (TraceStream::resume(cfg, factory, machine, &p), pos - p.index()),
                    // Any other node walks a fresh stream once in sample
                    // order: the rows past the wrap read the head
                    // `0..pos + rows - period`, then a skip passes the
                    // samples no row reads, then the run from `pos`. No
                    // sample is drawn twice, and a fill of the whole
                    // period draws each exactly once.
                    None => {
                        let mut stream = TraceStream::new(cfg, factory, machine);
                        let head = (pos + rows).saturating_sub(period);
                        block.write(&mut stream, j, run.rows..run.rows + head);
                        (stream, pos - head)
                    }
                };
                if skip > LANE_SKIP {
                    pending.push(stream, skip, run);
                    continue;
                }
                stream.skip(skip);
                self.finish(src, &mut block, stream, first, run);
            }
            TraceStream::skip_lanes(&mut pending.streams, &pending.skips);
            for (stream, run) in pending.streams.drain(..).zip(pending.runs.drain(..)) {
                self.finish(src, &mut block, stream, first, run);
            }
            pending.skips.clear();
            for r in 0..rows {
                let cells = r * 64..r * 64 + width;
                self.cpu[r][first..first + width].copy_from_slice(&block.cpu[cells.clone()]);
                self.mem_pages[r][first..first + width].copy_from_slice(&block.mem_pages[cells]);
                self.idle[r][first / 64] = block.idle[r];
            }
        }
    }

    /// Write `stream`'s run of rows from row 0 into column `run.col` of
    /// the block whose first node is `first`, restart the stream at
    /// sample 0 for the rows past a resumed stream's wrap, and park it.
    fn finish(
        &mut self,
        src: &NodeStreams<'_>,
        block: &mut BlockBuffer,
        mut stream: TraceStream,
        first: usize,
        run: Run,
    ) {
        block.write(&mut stream, run.col, 0..run.rows);
        if run.restart {
            stream = TraceStream::new(src.cfg, src.factory, run.machine);
            block.write(&mut stream, run.col, run.rows..block.rows());
        }
        if let Some(parked) = self.parked.as_deref_mut() {
            parked[first + run.col] = Some(stream.park());
        }
    }
}

/// Skips longer than this many samples (one recruitment minute, the
/// samples `skip` builds in full) go through the lane walk; shorter
/// ones have no draw-only samples to share.
const LANE_SKIP: usize = 30;

/// Where one node's rows go: its block column, how many rows run from
/// its first sample before the period wraps, whether a resumed stream
/// restarts at sample 0 for the rest, and its machine id.
#[derive(Clone, Copy)]
struct Run {
    col: usize,
    rows: usize,
    restart: bool,
    machine: u64,
}

/// A block's streams waiting for the lane walk, with their skips and
/// runs.
#[derive(Default)]
struct Pending {
    streams: Vec<TraceStream>,
    skips: Vec<usize>,
    runs: Vec<Run>,
}

impl Pending {
    fn push(&mut self, stream: TraceStream, skip: usize, run: Run) {
        self.streams.push(stream);
        self.skips.push(skip);
        self.runs.push(run);
    }
}

/// Up to 64 adjacent nodes' rows, filled one node's column at a time:
/// row `r` of the block's node `j` is cell `r * 64 + j`, and its idle
/// flag bit `j` of word `r`.
struct BlockBuffer {
    cpu: Vec<f64>,
    mem_pages: Vec<u16>,
    idle: Vec<u64>,
}

impl BlockBuffer {
    fn new(rows: usize) -> BlockBuffer {
        BlockBuffer {
            cpu: vec![0.0; rows * 64],
            mem_pages: vec![0; rows * 64],
            idle: vec![0; rows],
        }
    }

    /// Rows per column.
    fn rows(&self) -> usize {
        self.idle.len()
    }

    /// Write the stream's next samples into `rows` of column `j`, in
    /// order.
    fn write(&mut self, stream: &mut TraceStream, j: usize, rows: Range<usize>) {
        for r in rows {
            let (s, is_idle) = stream.next_sample();
            self.cpu[r * 64 + j] = s.cpu;
            self.mem_pages[r * 64 + j] = synthesized_pages(s.mem_used_kb);
            self.idle[r] |= u64::from(is_idle) << j;
        }
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
    /// Where the window [`WindowCursor::rows`] last loaded is stored: its
    /// table row, or its row of the resident chunk.
    row: usize,
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
        WindowCursor { source: RowSource::Table(table), row: 0 }
    }

    /// A streaming cursor at window 0 for `spec`, with per-node phase
    /// `offsets` (the `TRACE_OFFSET`-stream draws), for a run that reads
    /// windows `0..rows`: its chunks are no longer than `rows` windows.
    /// It still serves any window.
    pub(crate) fn streamed(spec: &StreamSpec, offsets: Arc<[usize]>, rows: usize) -> WindowCursor {
        WindowCursor {
            source: RowSource::Stream(Box::new(ChunkStream::new(spec, offsets, rows))),
            row: 0,
        }
    }

    /// The rows of absolute window `w`, first realizing the chunk that
    /// holds it if the cursor streams and `w` is not resident.
    #[inline]
    pub fn rows(&mut self, w: usize) -> WindowRows<'_> {
        self.row = match &mut self.source {
            RowSource::Table(table) => table.row(w),
            RowSource::Stream(stream) => stream.load(w),
        };
        self.current()
    }

    /// The rows of the window [`Self::rows`] last loaded (window 0 before
    /// any), read in place through a shared borrow: a simulation reads
    /// them while it updates its own state, and nothing is copied. The
    /// row was located at load time, so this only slices.
    ///
    /// # Panics
    /// If the cursor streams and has loaded no window yet.
    #[inline]
    pub fn current(&self) -> WindowRows<'_> {
        match &self.source {
            RowSource::Table(table) => table.stored(self.row),
            RowSource::Stream(stream) => stream.lanes.stored(self.row),
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
    /// Windows per chunk: the spec's chunk, capped at the rows the run
    /// reads.
    windows: usize,
    factory: RngFactory,
    /// Each node's stream between fills; `None` until the first fill
    /// creates it (creation + offset skip is the dominant setup cost and
    /// belongs inside `build_secs`).
    parked: Vec<Option<ParkedTrace>>,
    /// The resident chunk holds absolute windows `base..base + lanes.rows`
    /// (no rows before the first fill).
    base: usize,
    lanes: WindowLanes,
    plan: ShardPlan,
    build_secs: f64,
    chunks_built: u64,
}

impl ChunkStream {
    fn new(spec: &StreamSpec, offsets: Arc<[usize]>, rows: usize) -> ChunkStream {
        assert_eq!(offsets.len(), spec.nodes, "one offset per node");
        let period = spec.period();
        assert!(period > 0, "streamed realization needs a nonzero period");
        ChunkStream {
            spec: spec.clone(),
            offsets,
            windows: spec.chunk_windows.min(rows).min(period).max(1),
            factory: RngFactory::new(spec.seed),
            parked: vec![None; spec.nodes],
            base: 0,
            lanes: WindowLanes::default(),
            plan: ShardPlan::new(spec.nodes, default_jobs()),
            build_secs: 0.0,
            chunks_built: 0,
        }
    }

    /// Resident bytes of the arena (chunk + parked streams).
    fn approx_bytes(&self) -> usize {
        self.lanes.approx_bytes()
            + self.parked.capacity() * std::mem::size_of::<Option<ParkedTrace>>()
    }

    /// Make absolute window `w` resident; returns its chunk row.
    fn load(&mut self, w: usize) -> usize {
        if !(self.base..self.base + self.lanes.rows).contains(&w) {
            self.fill(w);
        }
        w - self.base
    }

    /// Rebuild the chunk arena to cover `[base, base + W)`, resuming
    /// every node's parked stream and parking it again.
    fn fill(&mut self, base: usize) {
        let t0 = Instant::now();
        if self.lanes.rows == 0 {
            self.lanes = WindowLanes::zeroed(self.windows, self.spec.nodes);
        }
        self.base = base;
        let streams = NodeStreams {
            cfg: &self.spec.cfg,
            factory: &self.factory,
            offsets: &self.offsets,
            plan: &self.plan,
        };
        streams.fill(&mut self.lanes, base, Some(&mut self.parked));
        self.build_secs += t0.elapsed().as_secs_f64();
        self.chunks_built += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::CoarseTrace;
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
                // Both read the loaded window again in place.
                assert_eq!(table_cur.current().cpu.as_ptr(), tbl.cpu_row(w).as_ptr());
                let again = cur.current();
                assert_eq!((again.mem_pages, again.idle), (tbl.mem_row(w), tbl.idle_row(w)));
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
    /// here over an explicit 4-shard plan with a ragged last shard —
    /// must reproduce the monolithic table at every chunk size,
    /// including across the wrap.
    #[test]
    fn sharded_fill_matches_monolithic_table() {
        let c = cfg(40); // period 20
        let nodes = 7 * 64 + 37; // shards of 128, 128, 128 and 101 nodes
        let mono = WorkloadRealization::synthesize_monolithic(&c, 29, nodes);
        let tbl = mono.table(usize::MAX).expect("table");
        let period = tbl.period();
        for chunk_windows in [1, 7, period] {
            let streamed = WorkloadRealization::synthesize_streamed(&c, 29, nodes, chunk_windows);
            let mut cur = streamed.cursor(usize::MAX);
            let RowSource::Stream(stream) = &mut cur.source else { panic!("streamed cursor") };
            stream.plan = ShardPlan::new(nodes, 4);
            let ranges = stream.plan.ranges();
            assert_eq!(ranges.len(), 4, "fill must be sharded");
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
    }

    /// A node whose first chunk wraps the period walks a fresh stream in
    /// sample order and parks it at the period's end, so the next chunk
    /// restarts it; a node one sample from wrapping and one that never
    /// wraps ride along. Every row, past the period too, equals the
    /// legacy transpose of whole traces.
    #[test]
    fn wrapping_first_chunk_walks_in_sample_order_then_restarts() {
        let c = cfg(194); // period 97
        let period = c.sample_count();
        let chunk = 7;
        let offsets: Vec<usize> = vec![0, period - 1, period - chunk + 1];
        let factory = RngFactory::new(23);
        let traces: Vec<Arc<CoarseTrace>> =
            (0..3).map(|n| Arc::new(c.synthesize(&factory, n))).collect();
        let oracle = WindowTable::build(&traces, &offsets).expect("uniform traces");
        let spec = StreamSpec {
            cfg: c.clone(),
            seed: 23,
            nodes: 3,
            chunk_windows: chunk,
        };
        let mut cur = WindowCursor::streamed(&spec, offsets.into(), usize::MAX);
        let parked = |cur: &WindowCursor| match &cur.source {
            RowSource::Stream(stream) => {
                stream.parked.iter().map(|p| p.map(|p| p.index())).collect()
            }
            RowSource::Table(_) => Vec::new(),
        };
        let bits = |row: &[f64]| row.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        for w in 0..2 * period + 3 {
            let rows = cur.rows(w);
            assert_eq!(bits(rows.cpu), bits(oracle.cpu_row(w)), "cpu row {w}");
            assert_eq!(rows.mem_pages, oracle.mem_row(w), "mem row {w}");
            assert_eq!(rows.idle, oracle.idle_row(w), "idle row {w}");
            if w == 0 {
                // Node 0 ran 0..7; nodes 1 and 2 wrapped, so each walked
                // its head, skipped and ran to the period's end, past
                // the next chunk's first samples (6 and 1).
                assert_eq!(parked(&cur), [Some(chunk), Some(period), Some(period)]);
            }
            if w == chunk {
                // Restarted at sample 0 and run to the chunk's end.
                assert_eq!(parked(&cur), [Some(2 * chunk), Some(13), Some(8)]);
            }
        }
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
    fn representation_choice_is_a_pure_function_of_size_and_budget() {
        // Degenerate realizations never stream.
        assert_eq!(streamed_chunk_windows(0, 1800, 1), None);
        assert_eq!(streamed_chunk_windows(64, 0, 1), None);
        // Within budget: monolithic.
        let fits = monolithic_bytes_estimate(64, 1800);
        assert_eq!(streamed_chunk_windows(64, 1800, fits), None);
        // One byte over: stream with the automatic chunk size.
        assert_eq!(
            streamed_chunk_windows(64, 1800, fits - 1),
            Some(auto_chunk_windows(64, 1800, fits - 1))
        );
    }
}
