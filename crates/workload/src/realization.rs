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

use crate::coarse::{CoarseTrace, CoarseTraceConfig, TraceStream, TOTAL_MEMORY_KB};
use crate::generator::LocalWorkload;
use crate::memory::PAGE_KB;
use crate::stream::{
    streamed_chunk_windows, StreamSpec, WindowCursor, DEFAULT_WINDOW_BUDGET_BYTES,
};
use linger_sim_core::{env_count, par_map_indexed, RngFactory};
use std::sync::{Arc, Mutex};

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
    mem_pages: Vec<u16>,
    idle: Vec<u64>,
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

/// Nodes per column block of [`WindowTable::synthesize`]: one packed
/// idle word per row.
const BLOCK_NODES: usize = 64;

/// One column block of a table under construction: up to
/// [`BLOCK_NODES`] adjacent nodes in window-major order, each row as
/// wide as the block's node count. A worker fills and scatters one
/// block after another in the same buffers.
struct ColumnBlock {
    cpu: Vec<f64>,
    mem_pages: Vec<u16>,
    /// One word per window; bit `j` ⇔ node `first + j` is idle.
    idle: Vec<u64>,
}

impl ColumnBlock {
    fn new(period: usize) -> ColumnBlock {
        ColumnBlock {
            cpu: vec![0.0; period * BLOCK_NODES],
            mem_pages: vec![0; period * BLOCK_NODES],
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
                self.mem_pages[w * width + j] = synthesized_pages(s.mem_used_kb);
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
            mem_pages: vec![0; period * nodes],
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
                t.mem_pages[col..col + width].copy_from_slice(&block.mem_pages[src]);
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
        Some(WindowTable { period, nodes, words_per_row, cpu, mem_pages, idle })
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

    /// Owner-resident memory (whole [`PAGE_KB`] pages) of every node for
    /// window `w` (wraps modulo the period).
    pub fn mem_row(&self, w: usize) -> &[u16] {
        let start = (w % self.period) * self.nodes;
        &self.mem_pages[start..start + self.nodes]
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
            + self.mem_pages.len() * std::mem::size_of::<u16>()
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
    /// streams `ClusterSim::new` historically drew, so a realization
    /// shared across runs and a fresh one per run are bit-identical.
    /// Synthesis is index-keyed, so it fans out over the process worker
    /// pool without affecting the bytes produced.
    ///
    /// When the window table would not fit the window byte budget
    /// ([`DEFAULT_WINDOW_BUDGET_BYTES`], 4 GiB) — or
    /// `LINGER_WINDOW_CHUNK=<windows>` forces it at any node count, as
    /// the chunked-vs-monolithic determinism checks do — this returns a
    /// *streamed* realization instead (see [`streamed_chunk_windows`]):
    /// only the offsets are computed up front and windows are realized on
    /// demand in chunks, byte-identical to the monolithic table at any
    /// chunk size.
    pub fn synthesize(cfg: &CoarseTraceConfig, seed: u64, nodes: usize) -> WorkloadRealization {
        let period = cfg.sample_count();
        let forced = env_count("LINGER_WINDOW_CHUNK");
        match streamed_chunk_windows(nodes, period, DEFAULT_WINDOW_BUDGET_BYTES, forced) {
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
    /// the offsets for a streamed realization — each cursor owns its
    /// chunk arena).
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

    /// Assert two tables hold bit-identical rows (cpu bits, memory pages,
    /// idle words) and that padding bits past the node count are zero.
    fn assert_same_rows(got: &WindowTable, want: &WindowTable, what: &str) {
        assert_eq!(got.period(), want.period(), "{what}: period");
        assert_eq!(got.nodes(), want.nodes(), "{what}: nodes");
        assert_eq!(got.words_per_row(), want.words_per_row(), "{what}: words");
        let bits = |row: &[f64]| row.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        for w in 0..want.period() {
            assert_eq!(bits(got.cpu_row(w)), bits(want.cpu_row(w)), "{what}: cpu row {w}");
            assert_eq!(got.mem_row(w), want.mem_row(w), "{what}: mem row {w}");
            assert_eq!(got.idle_row(w), want.idle_row(w), "{what}: idle row {w}");
            let tail = got.nodes() % 64;
            if tail != 0 {
                assert_eq!(got.idle_row(w)[got.nodes() / 64] >> tail, 0, "{what}: padding {w}");
            }
        }
    }

    /// The fused builder against the legacy derivation: whole traces,
    /// then [`WindowTable::build`] — and its page lane against each
    /// trace's KB samples directly, so a KB-to-page error the two
    /// builders shared would still show.
    fn assert_fused_matches_legacy(c: &CoarseTraceConfig, seed: u64, nodes: usize, jobs: usize) {
        let (traces, offsets) = legacy_synthesize(c, seed, nodes);
        let legacy = WindowTable::build(&traces, &offsets).expect("uniform traces");
        let fused = WindowTable::synthesize(c, &RngFactory::new(seed), &offsets, Some(jobs));
        let what = format!("{nodes} nodes, jobs {jobs}, seed {seed}");
        assert_same_rows(&fused, &legacy, &what);
        for w in 0..fused.period() {
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
        let tbl = real.window_table().expect("monolithic realization");
        // Node 1 starts at offset 1: window 1 reads its last sample.
        assert_eq!(tbl.mem_row(1), &[30_000 / 4, u16::MAX]);
        assert_eq!(tbl.mem_row(0), &[30_000 / 4, 0], "1 KB is no whole page");
        assert!(peaking_at(262_144).is_none(), "65,536 pages overflow the lane");
    }

    #[test]
    fn approx_bytes_pins_the_table_layout() {
        // 130 nodes × 300 windows: an 8-byte cpu cell and a 2-byte page
        // cell per node-window, 3 idle words per row and one offset per
        // node — 312,000 + 78,000 + 7,200 + 1,040 bytes.
        let real = WorkloadRealization::synthesize_monolithic(&cfg(600), 3, 130);
        assert_eq!(real.window_table().expect("table").period(), 300);
        assert_eq!(real.approx_bytes(), 398_240);
    }
}
