//! Coarse-grain workstation traces and their synthesis.
//!
//! The paper drives its cluster simulations with the Arpaci et al. traces:
//! 132 machines sampled every 2 seconds for 40 days, each sample recording
//! CPU usage, memory usage, keyboard activity, and an idle/non-idle flag
//! derived from the *recruitment threshold*: a machine is idle once the
//! CPU has stayed below 10% **and** the keyboard untouched for one minute
//! (Sec 3.2).
//!
//! Those traces are not distributable, so this module also contains a
//! synthetic generator ([`CoarseTraceConfig::synthesize`]) calibrated to
//! every aggregate the paper reports from them:
//!
//! * ≈46% of time in the non-idle state;
//! * ≈76% of non-idle time with CPU utilization below 10%;
//! * 64 MB machines with ≥14 MB free ≈90% of the time and ≥10 MB free
//!   ≈95% of the time, with no significant idle/non-idle difference
//!   (Fig 4).

use linger_sim_core::{domains, par_map_indexed, RngFactory, SimDuration, SimRng};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// Seconds between trace samples (the Arpaci sampling period).
pub const SAMPLE_PERIOD_SECS: u64 = 2;

/// The recruitment threshold: how long CPU and keyboard must stay quiet
/// before a machine counts as idle (Sec 3.2: one minute).
pub const RECRUITMENT_SECS: u64 = 60;

/// The recruitment threshold in samples (30).
const RECRUITMENT_WINDOW: u32 = (RECRUITMENT_SECS / SAMPLE_PERIOD_SECS) as u32;

/// CPU utilization below which a sample is "quiet" for idleness purposes.
pub const IDLE_CPU_THRESHOLD: f64 = 0.10;

/// Main memory per workstation in the trace set (Sec 3.2: 64 MB).
pub const TOTAL_MEMORY_KB: u32 = 64 * 1024;

/// One 2-second trace sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoarseSample {
    /// Mean CPU utilization over the sample period, in [0, 1].
    pub cpu: f64,
    /// Physical memory in use by local processes plus the OS, in KB.
    pub mem_used_kb: u32,
    /// Whether keyboard/mouse input occurred during the period.
    pub keyboard: bool,
}

/// A per-machine sequence of 2-second samples with derived idle flags.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoarseTrace {
    samples: Vec<CoarseSample>,
    /// `idle[i]` = machine is recruited (idle) during sample `i`.
    idle: Vec<bool>,
}

impl CoarseTrace {
    /// Wrap raw samples, deriving idle flags by the recruitment rule.
    pub fn from_samples(samples: Vec<CoarseSample>) -> Self {
        let idle = derive_idle_flags(&samples);
        CoarseTrace { samples, idle }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total wall-clock span of the trace.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs(self.samples.len() as u64 * SAMPLE_PERIOD_SECS)
    }

    /// Sample `i` (wrapping — simulations may outlive the trace, in which
    /// case it repeats, matching the paper's random-offset replay).
    pub fn sample(&self, i: usize) -> &CoarseSample {
        &self.samples[i % self.samples.len()]
    }

    /// Idle flag for sample `i` (wrapping).
    pub fn is_idle(&self, i: usize) -> bool {
        self.idle[i % self.idle.len()]
    }

    /// All samples.
    pub fn samples(&self) -> &[CoarseSample] {
        &self.samples
    }

    /// All idle flags.
    pub fn idle_flags(&self) -> &[bool] {
        &self.idle
    }

    /// Fraction of samples in the non-idle state.
    pub fn non_idle_fraction(&self) -> f64 {
        if self.idle.is_empty() {
            return 0.0;
        }
        self.idle.iter().filter(|&&b| !b).count() as f64 / self.idle.len() as f64
    }
}

/// Apply the recruitment rule: sample `i` is idle iff every sample in the
/// preceding minute (inclusive of `i`) was quiet (CPU < 10%, no keyboard).
fn derive_idle_flags(samples: &[CoarseSample]) -> Vec<bool> {
    let window = RECRUITMENT_WINDOW as usize;
    let mut quiet_streak = 0usize;
    samples
        .iter()
        .map(|s| {
            if s.cpu < IDLE_CPU_THRESHOLD && !s.keyboard {
                quiet_streak += 1;
            } else {
                quiet_streak = 0;
            }
            quiet_streak >= window
        })
        .collect()
}

/// Tunables of the synthetic trace generator.
///
/// Defaults are calibrated against the paper's published aggregates; the
/// calibration is locked in by the tests in [`crate::analysis`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoarseTraceConfig {
    /// Trace length.
    pub duration: SimDuration,
    /// Mean length of a user session (keyboard activity present).
    pub active_episode_mean_secs: f64,
    /// Mean length of an away period.
    pub away_episode_mean_secs: f64,
    /// Probability a 2-second sample within a session sees keyboard input.
    pub keyboard_prob: f64,
    /// Probability the CPU level persists from one sample to the next
    /// (creates multi-sample compute episodes).
    pub cpu_persistence: f64,
    /// Modulate episode lengths with a 24-hour day/night cycle.
    pub diurnal: bool,
    /// Additionally mute user sessions on days 6 and 7 of each week
    /// (the paper's trace set spans "time of day, day of week" effects).
    pub weekly: bool,
}

impl Default for CoarseTraceConfig {
    fn default() -> Self {
        CoarseTraceConfig {
            duration: SimDuration::from_secs(4 * 3600),
            active_episode_mean_secs: 450.0,
            away_episode_mean_secs: 780.0,
            keyboard_prob: 0.62,
            cpu_persistence: 0.70,
            diurnal: false,
            weekly: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum UserState {
    Active,
    Away,
}

/// A resumable, allocation-free generator over one machine's synthetic
/// trace.
///
/// Yields exactly the `(sample, idle)` sequence that
/// [`CoarseTraceConfig::synthesize`] would record for the same
/// `(factory, machine_id)` — `synthesize` is itself implemented on top of
/// this type, so the batch and streamed paths cannot drift. The stream
/// holds only O(1) state (two RNGs plus the generator's scalar state),
/// which is what lets the chunked window pipeline realize million-node
/// workloads without ever materializing whole traces.
///
/// The idle flag is the recruitment rule of [`CoarseTrace::from_samples`]
/// applied online: a sample is idle iff the preceding minute (inclusive)
/// was quiet. Streams always start at sample 0; to begin replay at a
/// later offset, [`TraceStream::skip`] past it (the flags depend on the
/// quiet streak, so there is no shortcut). [`TraceStream::skip_lanes`]
/// skips many streams at once, eight at a time as the lanes of one
/// AVX-512 walk where the CPU has it; `skip` stays the definition it is
/// tested against, and the path for a single stream.
///
/// A live stream is 2,296 B (`size_of`), almost all of it the two RNGs'
/// 1 KiB keystream buffers (sixteen ChaCha blocks each).
/// Between uses the crate parks it in 64 B (`park`) and resumes it
/// later (`resume`): the buffers are a cache of a counter-based
/// keystream, so a word position is all they hold.
#[derive(Clone)]
pub struct TraceStream {
    cfg: CoarseTraceConfig,
    rng: SimRng,
    mem_rng: SimRng,
    state: UserState,
    remaining: f64,
    cpu_level: f64,
    os_base_kb: f64,
    working_set_kb: f64,
    session_target_kb: f64,
    quiet_streak: u32,
    next: usize,
}

impl TraceStream {
    /// Position the stream at sample 0 of `machine_id`'s trace.
    pub fn new(cfg: &CoarseTraceConfig, factory: &RngFactory, machine_id: u64) -> Self {
        let mut rng = factory.stream_for(domains::COARSE_TRACE, machine_id);
        let mut mem_rng = factory.stream_for(domains::MEMORY, machine_id);
        let state = if rng.random::<f64>() < cfg.active_fraction() {
            UserState::Active
        } else {
            UserState::Away
        };
        let remaining = cfg.draw_episode(&mut rng, state, 0.0);

        // Memory: per-machine OS base plus a session working set that
        // mean-reverts toward a per-session target while active and decays
        // while away. Calibrated against the Fig 4 anchors (≥14 MB free at
        // P90 on 64 MB machines).
        let os_base_kb = 16_000.0 + mem_rng.random::<f64>() * 6_000.0;
        let working_set_kb = 6_000.0 + mem_rng.random::<f64>() * 8_000.0;
        let session_target_kb = session_target_from(mem_rng.random());

        TraceStream {
            cfg: cfg.clone(),
            rng,
            mem_rng,
            state,
            remaining,
            cpu_level: 0.02,
            os_base_kb,
            working_set_kb,
            session_target_kb,
            quiet_streak: 0,
            next: 0,
        }
    }

    /// Index of the sample the next [`TraceStream::next_sample`] call
    /// will produce.
    pub fn index(&self) -> usize {
        self.next
    }

    /// The stream at rest: its scalar state and both RNGs' keystream
    /// word positions, without the keystream buffers or the config.
    ///
    /// # Panics
    /// If the stream lies past sample `u32::MAX` (272 years of 2 s
    /// samples) or an RNG past word `u64::MAX`.
    pub(crate) fn park(&self) -> ParkedTrace {
        let word =
            |rng: &SimRng| u64::try_from(rng.get_word_pos()).expect("word position fits u64");
        ParkedTrace {
            remaining: self.remaining,
            cpu_level: self.cpu_level,
            os_base_kb: self.os_base_kb,
            working_set_kb: self.working_set_kb,
            session_target_kb: self.session_target_kb,
            rng_word: word(&self.rng),
            mem_rng_word: word(&self.mem_rng),
            next: u32::try_from(self.next).expect("trace position fits u32"),
            quiet_streak: u8::try_from(self.quiet_streak).expect("the streak saturates at 30"),
            state: self.state,
        }
    }

    /// Resume `machine_id`'s stream from `parked`, which
    /// [`TraceStream::park`] took from a stream over the same
    /// `(cfg, factory, machine_id)`: both RNGs are re-derived through
    /// [`RngFactory::stream_for`] and seeked to the parked word
    /// positions. The resumed stream yields exactly what the parked one
    /// would have.
    pub(crate) fn resume(
        cfg: &CoarseTraceConfig,
        factory: &RngFactory,
        machine_id: u64,
        parked: &ParkedTrace,
    ) -> Self {
        let mut rng = factory.stream_for(domains::COARSE_TRACE, machine_id);
        rng.set_word_pos(parked.rng_word.into());
        let mut mem_rng = factory.stream_for(domains::MEMORY, machine_id);
        mem_rng.set_word_pos(parked.mem_rng_word.into());
        TraceStream {
            cfg: cfg.clone(),
            rng,
            mem_rng,
            state: parked.state,
            remaining: parked.remaining,
            cpu_level: parked.cpu_level,
            os_base_kb: parked.os_base_kb,
            working_set_kb: parked.working_set_kb,
            session_target_kb: parked.session_target_kb,
            quiet_streak: parked.quiet_streak.into(),
            next: parked.next as usize,
        }
    }

    /// Generate the next sample and its recruitment (idle) flag.
    pub fn next_sample(&mut self) -> (CoarseSample, bool) {
        self.step();
        let jitter = 1.0 + 0.15 * (self.rng.random::<f64>() - 0.5);
        let cpu = (self.cpu_level * jitter).clamp(0.0, 1.0);
        let keyboard =
            self.state == UserState::Active && self.rng.random::<f64>() < self.cfg.keyboard_prob;
        let mem_used_kb = ((self.os_base_kb + self.working_set_kb) as u32).min(TOTAL_MEMORY_KB);

        // The flag only asks whether the streak reached the window, so
        // the streak saturates there: after 30 samples it no longer
        // depends on anything older, which is what lets `skip` hand only
        // the last 30 samples to this function.
        if cpu < IDLE_CPU_THRESHOLD && !keyboard {
            self.quiet_streak = (self.quiet_streak + 1).min(RECRUITMENT_WINDOW);
        } else {
            self.quiet_streak = 0;
        }
        (
            CoarseSample { cpu, mem_used_kb, keyboard },
            self.quiet_streak >= RECRUITMENT_WINDOW,
        )
    }

    /// Advance past `count` samples, discarding them.
    ///
    /// All but the last 30 samples (one recruitment minute) only advance
    /// the state later samples depend on (episodes, the CPU level, the
    /// memory walk) and consume their jitter and keyboard draws unread;
    /// those 30 run through [`TraceStream::next_sample`], which rebuilds
    /// the quiet streak the next idle flag needs. Both streams see the
    /// same draws in the same order as `count` calls to `next_sample`.
    pub fn skip(&mut self, count: usize) {
        let draw_only = count.saturating_sub(RECRUITMENT_WINDOW as usize);
        for _ in 0..draw_only {
            self.step();
            self.rng.next_u64(); // jitter
            if self.state == UserState::Active {
                self.rng.next_u64(); // keyboard
            }
        }
        for _ in draw_only..count {
            self.next_sample();
        }
    }

    /// Advance every `streams[i]` past `counts[i]` samples: exactly
    /// `streams[i].skip(counts[i])` for each `i`, draw for draw.
    ///
    /// On a CPU with AVX-512F and AVX-512DQ the draw-only samples of
    /// eight streams run together as the lanes of one vector walk, the
    /// streams grouped by count so a group's lanes finish together;
    /// each lane then builds its last 30 samples through
    /// [`TraceStream::next_sample`] as `skip` does. Elsewhere each
    /// stream skips on its own.
    ///
    /// # Panics
    /// If `streams` and `counts` differ in length.
    pub fn skip_lanes(streams: &mut [TraceStream], counts: &[usize]) {
        assert_eq!(streams.len(), counts.len(), "one count per stream");
        #[cfg(target_arch = "x86_64")]
        if lanes::available() {
            let mut order: Vec<usize> = (0..streams.len()).collect();
            order.sort_unstable_by_key(|&i| counts[i]);
            let mut slots: Vec<Option<&mut TraceStream>> = streams.iter_mut().map(Some).collect();
            for group in order.chunks(lanes::LANES) {
                let mut lane_streams: Vec<&mut TraceStream> = group
                    .iter()
                    .map(|&i| slots[i].take().expect("each stream once"))
                    .collect();
                let lane_counts: Vec<usize> = group.iter().map(|&i| counts[i]).collect();
                // SAFETY: `available` just found AVX-512F and AVX-512DQ.
                unsafe { lanes::skip(&mut lane_streams, &lane_counts) };
            }
            return;
        }
        for (stream, &count) in streams.iter_mut().zip(counts) {
            stream.skip(count);
        }
    }

    /// The part of a sample that later samples depend on: the episode
    /// switch, the CPU level and the memory walk, in the draw order of
    /// both streams. Leaves the jitter and keyboard draws (the next ones
    /// on `rng`) to the caller and moves the cursor past the sample.
    #[inline(always)]
    fn step(&mut self) {
        if self.remaining <= 0.0 {
            let t_secs = self.next as f64 * SAMPLE_PERIOD_SECS as f64;
            self.state = match self.state {
                UserState::Active => UserState::Away,
                UserState::Away => UserState::Active,
            };
            self.remaining = self.cfg.draw_episode(&mut self.rng, self.state, t_secs);
            if self.state == UserState::Active {
                // Each session brings its own memory footprint.
                self.session_target_kb = session_target_from(self.mem_rng.random());
            }
        }
        self.remaining -= SAMPLE_PERIOD_SECS as f64;

        // CPU: sticky mixture.
        if self.rng.random::<f64>() >= self.cfg.cpu_persistence {
            self.cpu_level = self.cfg.draw_cpu(&mut self.rng, self.state);
        }

        // Memory walk: mean-revert toward the session target (active)
        // or toward a small residual footprint (away). It draws only from
        // `mem_rng`, so running it before the caller's `rng` draws does
        // not reorder either stream.
        match self.state {
            UserState::Active => {
                self.working_set_kb += (self.session_target_kb - self.working_set_kb)
                    * walk::ACTIVE_PULL
                    + (self.mem_rng.random::<f64>() - 0.5) * walk::ACTIVE_STEP;
            }
            UserState::Away => {
                // Memory drains only slowly when the user steps away
                // (editors and builds stay resident) — the paper finds
                // "no significant difference in the available memory
                // between idle and non-idle states".
                self.working_set_kb += (walk::AWAY_RESIDUAL - self.working_set_kb)
                    * walk::AWAY_PULL
                    + (self.mem_rng.random::<f64>() - 0.5) * walk::AWAY_STEP;
            }
        }
        self.working_set_kb = self.working_set_kb.clamp(walk::FLOOR, walk::CEILING);
        self.next += 1;
    }
}

/// The vector walk behind [`TraceStream::skip_lanes`]: one stream per
/// 64-bit lane.
///
/// * **State.** Each lane's remaining episode time, working set and
///   session target are `f64` lanes of three vectors, its user state a
///   bit of the Active mask.
/// * **Draws.** Each lane reads its two RNGs through windows: copies of
///   their next keystream words ([`SimRng::read_words`]), topped up in
///   place as they drain. The persistence, CPU-level and memory draws
///   are gathered from the windows at per-lane indices, and the jitter
///   and keyboard draws only advance the index.
/// * **Persistence.** `random::<f64>() >= p` is the exact integer test
///   `x >> 11 >= persistence_threshold(p)`.
/// * **Episode ends** are rare (hundreds of seconds apart), so each lane
///   takes its logarithm in scalar code, through the
///   `episode_from_u` that `draw_episode` calls too.
/// * **CPU level.** The draw-only samples never read it, so the walk
///   keeps the last redraw's two draws and state and sets it once.
///
/// The arithmetic is the scalar step's, operation for operation (Rust
/// never fuses a multiply-add), so every lane ends bit-identical to
/// `skip`. Afterwards each RNG seeks back over the window words its
/// lane did not use.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::{
        cpu_level_from, persistence_threshold, session_target_from, unit_f64, walk, TraceStream,
        UserState, RECRUITMENT_WINDOW, SAMPLE_PERIOD_SECS,
    };
    use core::arch::x86_64::*;

    /// Streams per walk: one per 64-bit lane of a 512-bit vector.
    pub(super) const LANES: usize = 8;
    /// `u64` draws per lane window of the episode/CPU RNG and of the
    /// memory RNG.
    const RNG_WINDOW: usize = 128;
    const MEM_WINDOW: usize = 64;
    /// The most draws one sample takes from each RNG: episode length,
    /// persistence, two CPU-level draws, jitter and keyboard; session
    /// target and walk step.
    const RNG_PER_SAMPLE: usize = 6;
    const MEM_PER_SAMPLE: usize = 2;

    // The windows hold keystream words that the gathers read as `u64`
    // draws, low word first.
    const _: () = assert!(cfg!(target_endian = "little"));

    /// Whether this CPU runs the walk.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
    }

    /// Every lane's window of keystream words, lane `l` at `u64` draws
    /// `l * WINDOW .. (l + 1) * WINDOW`.
    #[repr(C, align(64))]
    struct Windows {
        rng: [u32; 2 * LANES * RNG_WINDOW],
        mem: [u32; 2 * LANES * MEM_WINDOW],
    }

    /// Draw `i` of a window (a `u64` index).
    #[inline(always)]
    fn draw(words: &[u32], i: u64) -> u64 {
        let i = 2 * i as usize;
        u64::from(words[i]) | u64::from(words[i + 1]) << 32
    }

    /// Refill lane `l`'s window from `rng` after it used the draws up to
    /// `*next` (an absolute index): the unused draws move to the front,
    /// fresh keystream fills the rest, and `*next` goes back to the
    /// lane's first draw.
    #[inline(never)]
    fn top_up(words: &mut [u32], window: usize, l: usize, next: &mut u64, rng: &mut super::SimRng) {
        let lane = &mut words[2 * l * window..2 * (l + 1) * window];
        let used = 2 * (*next as usize - l * window);
        lane.copy_within(used.., 0);
        rng.read_words(&mut lane[2 * window - used..]);
        *next = (l * window) as u64;
    }

    /// Seek `rng` back over the draws of lane `l`'s window from `next`
    /// on, which the lane read but did not use.
    fn unread(rng: &mut super::SimRng, window: usize, l: usize, next: u64) {
        let unused = ((l + 1) * window) as u64 - next;
        rng.set_word_pos(rng.get_word_pos() - 2 * u128::from(unused));
    }

    /// [`TraceStream::skip_lanes`] for at most [`LANES`] streams.
    ///
    /// # Safety
    /// The CPU must support AVX-512F and AVX-512DQ.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn skip(streams: &mut [&mut TraceStream], counts: &[usize]) {
        assert!(streams.len() <= LANES && streams.len() == counts.len());
        let mut draw_only = [0; LANES];
        for (d, c) in draw_only.iter_mut().zip(counts) {
            *d = c.saturating_sub(RECRUITMENT_WINDOW as usize);
        }
        let steps = draw_only.iter().copied().max().unwrap_or(0);
        if steps > 0 {
            walk_draw_only(streams, &draw_only, steps);
        }
        for (stream, (&count, &walked)) in streams.iter_mut().zip(counts.iter().zip(&draw_only)) {
            for _ in walked..count {
                stream.next_sample();
            }
        }
    }

    /// The draw-only samples: `draw_only[l]` of lane `l`'s, `steps` the
    /// most of any.
    #[target_feature(enable = "avx512f,avx512dq")]
    fn walk_draw_only(streams: &mut [&mut TraceStream], draw_only: &[usize; LANES], steps: usize) {
        let mut win = Windows {
            rng: [0; 2 * LANES * RNG_WINDOW],
            mem: [0; 2 * LANES * MEM_WINDOW],
        };
        // Per-lane state; lanes past the streams stay idle (left 0).
        let mut remaining = [0.0f64; LANES];
        let mut working_set = [0.0f64; LANES];
        let mut target = [0.0f64; LANES];
        let mut threshold = [u64::MAX; LANES];
        let mut left = [0u64; LANES];
        let mut rng_next = [0u64; LANES];
        let mut mem_next = [0u64; LANES];
        let mut rng_limit = [0u64; LANES];
        let mut mem_limit = [0u64; LANES];
        let mut active: __mmask8 = 0;
        for (l, s) in streams.iter_mut().enumerate() {
            s.rng
                .read_words(&mut win.rng[2 * l * RNG_WINDOW..2 * (l + 1) * RNG_WINDOW]);
            s.mem_rng
                .read_words(&mut win.mem[2 * l * MEM_WINDOW..2 * (l + 1) * MEM_WINDOW]);
            remaining[l] = s.remaining;
            working_set[l] = s.working_set_kb;
            target[l] = s.session_target_kb;
            threshold[l] = persistence_threshold(s.cfg.cpu_persistence);
            left[l] = draw_only[l] as u64;
            rng_next[l] = (l * RNG_WINDOW) as u64;
            mem_next[l] = (l * MEM_WINDOW) as u64;
            rng_limit[l] = ((l + 1) * RNG_WINDOW - RNG_PER_SAMPLE) as u64;
            mem_limit[l] = ((l + 1) * MEM_WINDOW - MEM_PER_SAMPLE) as u64;
            active |= u8::from(s.state == UserState::Active) << l;
        }
        let load_u64 = |a: &[u64; LANES]| {
            // SAFETY: `a` is eight `u64` (64 bytes); `loadu` has no
            // alignment requirement.
            unsafe { _mm512_loadu_epi64(a.as_ptr().cast()) }
        };
        let load_f64 = |a: &[f64; LANES]| {
            // SAFETY: as above, eight `f64`.
            unsafe { _mm512_loadu_pd(a.as_ptr()) }
        };
        let store_u64 = |a: &mut [u64; LANES], v: __m512i| {
            // SAFETY: `a` is eight `u64`; `storeu` has no alignment
            // requirement.
            unsafe { _mm512_storeu_epi64(a.as_mut_ptr().cast(), v) }
        };
        let store_f64 = |a: &mut [f64; LANES], v: __m512d| {
            // SAFETY: as above, eight `f64`.
            unsafe { _mm512_storeu_pd(a.as_mut_ptr(), v) }
        };
        let (mut rem_v, mut ws_v, mut target_v) =
            (load_f64(&remaining), load_f64(&working_set), load_f64(&target));
        let (mut rng_v, mut mem_v) = (load_u64(&rng_next), load_u64(&mem_next));
        let (threshold_v, left_v) = (load_u64(&threshold), load_u64(&left));
        let (rng_limit_v, mem_limit_v) = (load_u64(&rng_limit), load_u64(&mem_limit));
        let (one, two) = (_mm512_set1_epi64(1), _mm512_set1_epi64(2));
        let scale = _mm512_set1_pd(1.0 / (1u64 << 53) as f64);
        let half = _mm512_set1_pd(0.5);
        let period = _mm512_set1_pd(SAMPLE_PERIOD_SECS as f64);
        let zero_pd = _mm512_setzero_pd();
        let (floor, ceiling) = (_mm512_set1_pd(walk::FLOOR), _mm512_set1_pd(walk::CEILING));
        let (pull_active, step_active) =
            (_mm512_set1_pd(walk::ACTIVE_PULL), _mm512_set1_pd(walk::ACTIVE_STEP));
        let (residual, pull_away, step_away) = (
            _mm512_set1_pd(walk::AWAY_RESIDUAL),
            _mm512_set1_pd(walk::AWAY_PULL),
            _mm512_set1_pd(walk::AWAY_STEP),
        );
        // The last redraw's two draws and user state, per lane.
        let (mut last_u, mut last_v) = (_mm512_setzero_si512(), _mm512_setzero_si512());
        let (mut redrawn, mut last_active): (__mmask8, __mmask8) = (0, 0);
        let rng_base: *const i64 = win.rng.as_ptr().cast();
        let mem_base: *const i64 = win.mem.as_ptr().cast();
        for t in 0..steps {
            let alive = _mm512_cmpgt_epu64_mask(left_v, _mm512_set1_epi64(t as i64));
            // Room for one more sample's draws in every live window.
            let low = alive
                & (_mm512_cmpgt_epu64_mask(rng_v, rng_limit_v)
                    | _mm512_cmpgt_epu64_mask(mem_v, mem_limit_v));
            if low != 0 {
                store_u64(&mut rng_next, rng_v);
                store_u64(&mut mem_next, mem_v);
                for (l, s) in streams.iter_mut().enumerate().filter(|(l, _)| low >> l & 1 != 0) {
                    if rng_next[l] > rng_limit[l] {
                        top_up(&mut win.rng, RNG_WINDOW, l, &mut rng_next[l], &mut s.rng);
                    }
                    if mem_next[l] > mem_limit[l] {
                        top_up(&mut win.mem, MEM_WINDOW, l, &mut mem_next[l], &mut s.mem_rng);
                    }
                }
                (rng_v, mem_v) = (load_u64(&rng_next), load_u64(&mem_next));
            }
            // Episode ends: the user state flips and the next episode's
            // length (and a new session's target) is drawn.
            let ends = _mm512_mask_cmp_pd_mask::<_CMP_LE_OQ>(alive, rem_v, zero_pd);
            if ends != 0 {
                store_f64(&mut remaining, rem_v);
                store_f64(&mut target, target_v);
                store_u64(&mut rng_next, rng_v);
                store_u64(&mut mem_next, mem_v);
                for (l, s) in streams.iter().enumerate().filter(|(l, _)| ends >> l & 1 != 0) {
                    active ^= 1 << l;
                    let state =
                        if active >> l & 1 != 0 { UserState::Active } else { UserState::Away };
                    let t_secs = (s.next + t) as f64 * SAMPLE_PERIOD_SECS as f64;
                    let u = unit_f64(draw(&win.rng, rng_next[l]));
                    rng_next[l] += 1;
                    remaining[l] = s.cfg.episode_from_u(u, state, t_secs);
                    if state == UserState::Active {
                        target[l] = session_target_from(unit_f64(draw(&win.mem, mem_next[l])));
                        mem_next[l] += 1;
                    }
                }
                (rem_v, target_v) = (load_f64(&remaining), load_f64(&target));
                (rng_v, mem_v) = (load_u64(&rng_next), load_u64(&mem_next));
            }
            rem_v = _mm512_mask_sub_pd(rem_v, alive, rem_v, period);
            // CPU level: a draw at or above the persistence threshold
            // redraws it from the next two.
            // SAFETY (gathers): every index lies in its lane's window,
            // which the top-up above left room for this sample in.
            let persist =
                unsafe { _mm512_mask_i64gather_epi64::<8>(rng_v, alive, rng_v, rng_base) };
            let redraw =
                _mm512_mask_cmpge_epu64_mask(alive, _mm512_srli_epi64::<11>(persist), threshold_v);
            if redraw != 0 {
                let u_at = _mm512_add_epi64(rng_v, one);
                let v_at = _mm512_add_epi64(rng_v, two);
                last_u =
                    unsafe { _mm512_mask_i64gather_epi64::<8>(last_u, redraw, u_at, rng_base) };
                last_v =
                    unsafe { _mm512_mask_i64gather_epi64::<8>(last_v, redraw, v_at, rng_base) };
                last_active = (last_active & !redraw) | (active & redraw);
                redrawn |= redraw;
            }
            // Memory walk, in the scalar step's operation order.
            let m = unsafe { _mm512_mask_i64gather_epi64::<8>(mem_v, alive, mem_v, mem_base) };
            let noise = _mm512_sub_pd(
                _mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(m)), scale),
                half,
            );
            let toward_target = _mm512_add_pd(
                ws_v,
                _mm512_add_pd(
                    _mm512_mul_pd(_mm512_sub_pd(target_v, ws_v), pull_active),
                    _mm512_mul_pd(noise, step_active),
                ),
            );
            let toward_residual = _mm512_add_pd(
                ws_v,
                _mm512_add_pd(
                    _mm512_mul_pd(_mm512_sub_pd(residual, ws_v), pull_away),
                    _mm512_mul_pd(noise, step_away),
                ),
            );
            let walked = _mm512_mask_blend_pd(active, toward_residual, toward_target);
            let clamped = _mm512_min_pd(_mm512_max_pd(walked, floor), ceiling);
            ws_v = _mm512_mask_mov_pd(ws_v, alive, clamped);
            mem_v = _mm512_mask_add_epi64(mem_v, alive, mem_v, one);
            // Persistence and jitter, two CPU-level draws on a redraw,
            // and the keyboard draw while active.
            rng_v = _mm512_mask_add_epi64(rng_v, alive, rng_v, two);
            rng_v = _mm512_mask_add_epi64(rng_v, redraw, rng_v, two);
            rng_v = _mm512_mask_add_epi64(rng_v, alive & active, rng_v, one);
        }
        store_f64(&mut remaining, rem_v);
        store_f64(&mut working_set, ws_v);
        store_f64(&mut target, target_v);
        store_u64(&mut rng_next, rng_v);
        store_u64(&mut mem_next, mem_v);
        let (mut us, mut vs) = ([0u64; LANES], [0u64; LANES]);
        store_u64(&mut us, last_u);
        store_u64(&mut vs, last_v);
        for (l, s) in streams.iter_mut().enumerate() {
            s.remaining = remaining[l];
            s.working_set_kb = working_set[l];
            s.session_target_kb = target[l];
            s.state = if active >> l & 1 != 0 { UserState::Active } else { UserState::Away };
            if redrawn >> l & 1 != 0 {
                let state =
                    if last_active >> l & 1 != 0 { UserState::Active } else { UserState::Away };
                s.cpu_level = cpu_level_from(unit_f64(us[l]), unit_f64(vs[l]), state);
            }
            s.next += draw_only[l];
            unread(&mut s.rng, RNG_WINDOW, l, rng_next[l]);
            unread(&mut s.mem_rng, MEM_WINDOW, l, mem_next[l]);
        }
    }
}

/// A [`TraceStream`] at rest ([`TraceStream::park`]): everything but
/// the keystream buffers and the config, which
/// [`TraceStream::resume`] rebuilds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ParkedTrace {
    remaining: f64,
    cpu_level: f64,
    os_base_kb: f64,
    working_set_kb: f64,
    session_target_kb: f64,
    /// Keystream word positions of the episode/CPU and memory RNGs.
    rng_word: u64,
    mem_rng_word: u64,
    /// Index of the next sample.
    next: u32,
    /// Saturates at the 30-sample recruitment window.
    quiet_streak: u8,
    state: UserState,
}

const _: () = assert!(RECRUITMENT_WINDOW <= u8::MAX as u32);
const _: () = assert!(std::mem::size_of::<ParkedTrace>() <= 64);

impl ParkedTrace {
    /// Index of the sample the resumed stream produces next.
    pub(crate) fn index(&self) -> usize {
        self.next as usize
    }
}

impl CoarseTraceConfig {
    /// Number of samples one synthesized trace holds (the replay period).
    pub fn sample_count(&self) -> usize {
        (self.duration.as_secs_f64() / SAMPLE_PERIOD_SECS as f64).ceil() as usize
    }

    /// Synthesize the trace of machine `machine_id` deterministically from
    /// `factory`'s master seed.
    pub fn synthesize(&self, factory: &RngFactory, machine_id: u64) -> CoarseTrace {
        let n = self.sample_count();
        let mut stream = TraceStream::new(self, factory, machine_id);
        let mut samples = Vec::with_capacity(n);
        let mut idle = Vec::with_capacity(n);
        for _ in 0..n {
            let (s, flag) = stream.next_sample();
            samples.push(s);
            idle.push(flag);
        }
        debug_assert_eq!(idle, derive_idle_flags(&samples));
        CoarseTrace { samples, idle }
    }

    /// Synthesize a whole machine-room: traces for machines `0..count`.
    ///
    /// Machines are synthesized in parallel over
    /// [`par_map_indexed`] — each machine's draws come from its own
    /// `stream_for(domain, machine_id)` streams, so the library is
    /// byte-identical at any `--jobs` (including serial).
    pub fn synthesize_library(&self, factory: &RngFactory, count: usize) -> Vec<CoarseTrace> {
        par_map_indexed(count, None, |m| self.synthesize(factory, m as u64))
    }

    fn active_fraction(&self) -> f64 {
        self.active_episode_mean_secs
            / (self.active_episode_mean_secs + self.away_episode_mean_secs)
    }

    fn draw_episode(&self, rng: &mut SimRng, state: UserState, t_secs: f64) -> f64 {
        self.episode_from_u(rng.random(), state, t_secs)
    }

    /// The length of an episode in `state` starting at `t_secs`, from
    /// its unit draw `u`.
    fn episode_from_u(&self, u: f64, state: UserState, t_secs: f64) -> f64 {
        let mut mean = match state {
            UserState::Active => self.active_episode_mean_secs,
            UserState::Away => self.away_episode_mean_secs,
        };
        if self.diurnal {
            // Sessions lengthen (away shortens) during the "day" half of a
            // 24-hour cycle, and vice versa at night.
            let phase = (t_secs / 86_400.0 * std::f64::consts::TAU).sin();
            let factor = 1.0 + 0.6 * phase;
            mean = match state {
                UserState::Active => mean * factor,
                UserState::Away => mean / factor,
            };
        }
        if self.weekly {
            // Weekend: short, rare sessions; long away stretches.
            let day = (t_secs / 86_400.0) as u64 % 7;
            if day >= 5 {
                mean = match state {
                    UserState::Active => mean * 0.3,
                    UserState::Away => mean * 4.0,
                };
            }
        }
        -(1.0 - u).ln() * mean.max(SAMPLE_PERIOD_SECS as f64)
    }

    fn draw_cpu(&self, rng: &mut SimRng, state: UserState) -> f64 {
        let u: f64 = rng.random();
        let v: f64 = rng.random();
        cpu_level_from(u, v, state)
    }
}

/// The working-set walk's constants (KB), shared by the scalar step
/// and the lane walk.
mod walk {
    /// While active: the pull toward the session target per sample, and
    /// the span of the uniform step.
    pub(super) const ACTIVE_PULL: f64 = 0.02;
    pub(super) const ACTIVE_STEP: f64 = 900.0;
    /// While away: the residual footprint, the pull toward it, and the
    /// span of the step.
    pub(super) const AWAY_RESIDUAL: f64 = 9_000.0;
    pub(super) const AWAY_PULL: f64 = 0.0008;
    pub(super) const AWAY_STEP: f64 = 250.0;
    /// The clamp on the working set.
    pub(super) const FLOOR: f64 = 2_000.0;
    pub(super) const CEILING: f64 = 36_000.0;
}

/// A session's working-set target from its unit draw.
fn session_target_from(u: f64) -> f64 {
    10_000.0 + u * 18_000.0
}

/// The unit `f64` that `random::<f64>()` makes of the `u64` draw `x`:
/// its top 53 bits scaled by 2⁻⁵³.
#[inline(always)]
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The least `k` with `k · 2⁻⁵³ >= p`: for an integer `k < 2⁵³`,
/// `k · 2⁻⁵³ >= p ⟺ k >= ⌈p · 2⁵³⌉`, and both scalings by 2⁵³ are exact,
/// so `unit_f64(x) >= p ⟺ x >> 11 >= persistence_threshold(p)`. A NaN
/// `p` compares false with every draw, and a `p` above 1 passes none
/// (2⁵³ exceeds every `k`).
fn persistence_threshold(p: f64) -> u64 {
    const TWO53: f64 = (1u64 << 53) as f64;
    if p.is_nan() {
        u64::MAX
    } else if p <= 0.0 {
        0
    } else {
        (p * TWO53).ceil().min(TWO53) as u64
    }
}

/// A CPU level from its two unit draws in `state`.
fn cpu_level_from(u: f64, v: f64, state: UserState) -> f64 {
    match state {
        // Calibrated so ~76% of non-idle time sits below 10% CPU:
        // interactive use is mostly think-time.
        UserState::Active => {
            if u < 0.72 {
                0.01 + v * 0.08
            } else if u < 0.92 {
                0.10 + v * 0.40
            } else {
                0.50 + v * 0.50
            }
        }
        // Background daemons with rare batch work (cron, mail). Real
        // spikes must be rare: each one blanks idleness for a full
        // recruitment window, so their rate dominates the idle share
        // of away time.
        UserState::Away => {
            if u < 0.93 {
                v * 0.04
            } else if u < 0.995 {
                0.04 + v * 0.05
            } else {
                0.15 + v * 0.60
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> CoarseSample {
        CoarseSample { cpu: 0.02, mem_used_kb: 30_000, keyboard: false }
    }

    fn busy() -> CoarseSample {
        CoarseSample { cpu: 0.50, mem_used_kb: 30_000, keyboard: true }
    }

    #[test]
    fn recruitment_needs_a_full_quiet_minute() {
        let window = (RECRUITMENT_SECS / SAMPLE_PERIOD_SECS) as usize;
        // 29 quiet samples: still non-idle; the 30th flips it.
        let mut samples = vec![busy()];
        samples.extend(std::iter::repeat_with(quiet).take(window));
        let t = CoarseTrace::from_samples(samples);
        assert!(!t.idle_flags()[0]);
        for i in 1..window {
            assert!(!t.idle_flags()[i], "sample {i} should still be non-idle");
        }
        assert!(t.idle_flags()[window], "quiet minute elapsed");
    }

    #[test]
    fn keyboard_resets_recruitment() {
        let window = (RECRUITMENT_SECS / SAMPLE_PERIOD_SECS) as usize;
        let mut samples = std::iter::repeat_with(quiet).take(2 * window + 5).collect::<Vec<_>>();
        samples[window + 3] = CoarseSample { keyboard: true, ..quiet() };
        let t = CoarseTrace::from_samples(samples);
        assert!(t.idle_flags()[window]);
        assert!(!t.idle_flags()[window + 3], "keyboard makes it non-idle");
        assert!(!t.idle_flags()[window + 10], "recruitment restarts");
        assert!(t.idle_flags()[window + 3 + window]);
    }

    #[test]
    fn high_cpu_resets_recruitment_even_without_keyboard() {
        let window = (RECRUITMENT_SECS / SAMPLE_PERIOD_SECS) as usize;
        let mut samples = std::iter::repeat_with(quiet).take(2 * window).collect::<Vec<_>>();
        samples[window + 1] = CoarseSample { cpu: 0.5, ..quiet() };
        let t = CoarseTrace::from_samples(samples);
        assert!(!t.idle_flags()[window + 1]);
    }

    #[test]
    fn trace_wraps_around() {
        let t = CoarseTrace::from_samples(vec![quiet(), busy()]);
        assert_eq!(t.sample(0).cpu, t.sample(2).cpu);
        assert_eq!(t.sample(1).keyboard, t.sample(5).keyboard);
        assert_eq!(t.is_idle(0), t.is_idle(4));
    }

    #[test]
    fn synthesized_trace_has_requested_length() {
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(600),
            ..Default::default()
        };
        let t = cfg.synthesize(&RngFactory::new(1), 0);
        assert_eq!(t.len(), 300);
        assert_eq!(t.duration(), SimDuration::from_secs(600));
    }

    #[test]
    fn synthesis_is_deterministic_per_machine() {
        let cfg = CoarseTraceConfig::default();
        let f = RngFactory::new(7);
        let a = cfg.synthesize(&f, 3);
        let b = cfg.synthesize(&f, 3);
        assert_eq!(a.samples(), b.samples());
        let c = cfg.synthesize(&f, 4);
        assert_ne!(a.samples(), c.samples());
    }

    #[test]
    fn stream_replays_synthesize_exactly() {
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(3600),
            ..Default::default()
        };
        let f = RngFactory::new(42);
        let trace = cfg.synthesize(&f, 9);
        let mut stream = TraceStream::new(&cfg, &f, 9);
        for i in 0..cfg.sample_count() {
            assert_eq!(stream.index(), i);
            let (s, idle) = stream.next_sample();
            assert_eq!(&s, trace.sample(i), "sample {i}");
            assert_eq!(idle, trace.is_idle(i), "idle flag {i}");
        }
    }

    #[test]
    fn stream_skip_resumes_mid_trace() {
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(1800),
            ..Default::default()
        };
        let f = RngFactory::new(77);
        let trace = cfg.synthesize(&f, 3);
        let mut stream = TraceStream::new(&cfg, &f, 3);
        stream.skip(517);
        for i in 517..cfg.sample_count() {
            let (s, idle) = stream.next_sample();
            assert_eq!(&s, trace.sample(i), "sample {i}");
            assert_eq!(idle, trace.is_idle(i), "idle flag {i}");
        }
    }

    #[test]
    fn skip_then_sample_equals_sampling_throughout() {
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(3600),
            ..Default::default()
        };
        let period = cfg.sample_count();
        let f = RngFactory::new(19);
        // The first machines that start active and away.
        let start = |state| {
            (0u64..)
                .find(|&m| TraceStream::new(&cfg, &f, m).state == state)
                .expect("some machine starts in each state")
        };
        for machine in [start(UserState::Active), start(UserState::Away)] {
            for n in [0, 1, 29, 30, 31, 899, period - 1, period] {
                let mut reference = TraceStream::new(&cfg, &f, machine);
                for _ in 0..n {
                    reference.next_sample();
                }
                let mut skipped = TraceStream::new(&cfg, &f, machine);
                skipped.skip(n);
                assert_eq!(skipped.index(), n);
                // The saturated streak makes the whole state equal, not
                // only what the next flags show.
                assert_eq!(skipped.quiet_streak, reference.quiet_streak, "skip({n})");
                for k in 0..120 {
                    assert_eq!(
                        skipped.next_sample(),
                        reference.next_sample(),
                        "machine {machine}: sample {k} after skip({n})"
                    );
                }
            }
        }
    }

    /// Parking and resuming must continue exactly as the uninterrupted
    /// stream: after each of the first 130 samples (a sample draws 4–12
    /// CPU-RNG words, so these park at many phases of the first 256-word
    /// buffers, including right after refills), around the recruitment
    /// window, deep in the trace and at the period.
    #[test]
    fn park_then_resume_equals_sampling_throughout() {
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(3600),
            ..Default::default()
        };
        let period = cfg.sample_count();
        let f = RngFactory::new(23);
        let start = |state| {
            (0u64..)
                .find(|&m| TraceStream::new(&cfg, &f, m).state == state)
                .expect("some machine starts in each state")
        };
        for machine in [start(UserState::Active), start(UserState::Away)] {
            for n in (0..=130).chain([899, period - 1, period]) {
                let mut reference = TraceStream::new(&cfg, &f, machine);
                for _ in 0..n {
                    reference.next_sample();
                }
                let parked = reference.park();
                assert_eq!(parked.index(), n);
                let mut resumed = TraceStream::resume(&cfg, &f, machine, &parked);
                assert_eq!(resumed.index(), n);
                assert_eq!(resumed.quiet_streak, reference.quiet_streak, "park at {n}");
                assert_eq!(resumed.park(), parked, "a resumed stream parks where it was");
                for k in 0..120 {
                    assert_eq!(
                        resumed.next_sample(),
                        reference.next_sample(),
                        "machine {machine}: sample {k} after parking at {n}"
                    );
                }
                assert_eq!(resumed.quiet_streak, reference.quiet_streak);
            }
        }
    }

    /// The exact integer persistence test agrees with the float test it
    /// replaces, for draws on and around the threshold, at thresholds
    /// that are a whole multiple of 2⁻⁵³, one ulp beside one, and at the
    /// edges (zero, negative, one, above one, NaN, subnormal).
    #[test]
    fn persistence_threshold_is_the_float_test() {
        let on_grid = (0.7 * (1u64 << 53) as f64).round() / (1u64 << 53) as f64;
        let ps = [
            on_grid,
            on_grid.next_up(),
            on_grid.next_down(),
            0.62,
            0.0,
            -0.0,
            -1.0,
            1.0,
            1.0f64.next_down(),
            1.5,
            f64::INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE / 4.0,
            1e-300,
        ];
        let mut z = 77u64;
        for p in ps {
            let threshold = persistence_threshold(p);
            let near = threshold.min(1 << 53);
            for k in [0, 1, near.saturating_sub(1), near, near + 1, (1 << 53) - 1] {
                let k = k.min((1 << 53) - 1);
                for _ in 0..4 {
                    z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let x = k << 11 | z >> 53;
                    assert_eq!(
                        x >> 11 >= threshold,
                        unit_f64(x) >= p,
                        "p {p:e} threshold {threshold} draw {x:#x}"
                    );
                }
            }
        }
    }

    /// Lane-walk oracle: [`TraceStream::skip_lanes`], and the AVX-512
    /// walk called directly where the CPU has it, leave one to eight
    /// streams exactly where [`TraceStream::skip`] does (equal parked
    /// state, then the same 120 samples), for fresh and resumed streams
    /// starting Active and Away, flat, diurnal and weekly configs,
    /// `cpu_persistence` and `keyboard_prob` on and one ulp beside a
    /// whole multiple of 2⁻⁵³, a persistence high enough that the walk's
    /// CPU level often survives the last minute, and working sets held
    /// at the clamps.
    #[test]
    fn lane_walk_leaves_streams_where_skip_does() {
        let grid = |p: f64| (p * (1u64 << 53) as f64).round() / (1u64 << 53) as f64;
        let flat = CoarseTraceConfig {
            duration: SimDuration::from_secs(3600),
            ..Default::default()
        };
        let period = flat.sample_count();
        let mut configs = vec![
            (flat.clone(), vec![0, 1, 29, 30, 31, 900, period - 1, period]),
            (
                CoarseTraceConfig {
                    diurnal: true,
                    duration: SimDuration::from_secs(2 * 86_400),
                    ..flat.clone()
                },
                vec![31, 4_000, 20_000, 43_199, 86_399, 40, 61, 900],
            ),
            // Days 5 and 6 are the weekend: 216,000 samples in.
            (
                CoarseTraceConfig {
                    weekly: true,
                    duration: SimDuration::from_secs(7 * 86_400),
                    ..flat.clone()
                },
                vec![230_000, 216_100, 900, 31],
            ),
        ];
        for (persistence, keyboard) in [
            (grid(0.7), grid(0.62)),
            (grid(0.7).next_up(), grid(0.62).next_down()),
            (grid(0.7).next_down(), grid(0.62).next_up()),
        ] {
            let cfg = CoarseTraceConfig {
                cpu_persistence: persistence,
                keyboard_prob: keyboard,
                ..flat.clone()
            };
            configs.push((cfg, vec![900, 31, 1_200, 30, 77, period]));
        }
        // Redraws so rare that the last 30 samples often keep the CPU
        // level the walk set.
        let sticky = CoarseTraceConfig { cpu_persistence: 0.99, ..flat.clone() };
        configs.push((sticky, vec![900, 300, 1_200, 61, period]));
        let f = RngFactory::new(1998);
        let starts = |cfg: &CoarseTraceConfig, state| -> Vec<u64> {
            (0u64..)
                .filter(|&m| TraceStream::new(cfg, &f, m).state == state)
                .take(10)
                .collect()
        };
        type Walk = fn(&mut [TraceStream], &[usize]);
        let mut walks: Vec<(&str, Walk)> = vec![("dispatched", TraceStream::skip_lanes)];
        #[cfg(target_arch = "x86_64")]
        if lanes::available() {
            // Eight streams per call, in the order given.
            fn avx512(streams: &mut [TraceStream], counts: &[usize]) {
                for (group, counts) in
                    streams.chunks_mut(lanes::LANES).zip(counts.chunks(lanes::LANES))
                {
                    let mut refs: Vec<&mut TraceStream> = group.iter_mut().collect();
                    // SAFETY: only pushed after the CPU was checked.
                    unsafe { lanes::skip(&mut refs, counts) }
                }
            }
            walks.push(("avx512", avx512));
        } else {
            println!("avx512 lane walk skipped: this CPU lacks AVX-512F or AVX-512DQ");
        }
        for (cfg, counts) in &configs {
            // Machines starting Active and Away, alternating; odd lanes
            // resume from a park after a few samples.
            let (active, away) = (starts(cfg, UserState::Active), starts(cfg, UserState::Away));
            let machines: Vec<u64> =
                active.into_iter().zip(away).flat_map(|(a, b)| [a, b]).collect();
            // Lanes 2 and 3 (mod 4) start with the working set pulled
            // against the walk's ceiling and floor.
            let make = |l: usize| {
                let mut s = TraceStream::new(cfg, &f, machines[l]);
                if l % 2 == 1 {
                    for _ in 0..(l * 7) {
                        s.next_sample();
                    }
                    s = TraceStream::resume(cfg, &f, machines[l], &s.park());
                }
                match l % 4 {
                    2 => (s.working_set_kb, s.session_target_kb) = (35_900.0, 60_000.0),
                    3 => (s.working_set_kb, s.session_target_kb) = (2_100.0, -30_000.0),
                    _ => {}
                }
                s
            };
            // One to eight lanes, and 19 streams in three groups.
            for n in (1..=8).chain([19]) {
                let counts: Vec<usize> = (0..n).map(|l| counts[(l + n) % counts.len()]).collect();
                let mut reference: Vec<TraceStream> = (0..n).map(make).collect();
                for (s, &c) in reference.iter_mut().zip(&counts) {
                    s.skip(c);
                }
                for &(name, walk) in &walks {
                    let mut walked: Vec<TraceStream> = (0..n).map(make).collect();
                    walk(&mut walked, &counts);
                    for (l, (w, r)) in walked.iter_mut().zip(&reference).enumerate() {
                        let what = format!("{name}: lane {l} of {n}, counts {counts:?}");
                        assert_eq!(w.park(), r.park(), "{what}");
                        let mut r = r.clone();
                        for k in 0..120 {
                            assert_eq!(w.next_sample(), r.next_sample(), "{what}: sample {k}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_library_matches_serial_synthesis() {
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(1200),
            ..Default::default()
        };
        let f = RngFactory::new(8);
        let lib = cfg.synthesize_library(&f, 9);
        for (m, t) in lib.iter().enumerate() {
            let direct = cfg.synthesize(&f, m as u64);
            assert_eq!(t.samples(), direct.samples(), "machine {m}");
            assert_eq!(t.idle_flags(), direct.idle_flags(), "machine {m}");
        }
    }

    #[test]
    fn samples_are_well_formed() {
        let cfg = CoarseTraceConfig::default();
        let t = cfg.synthesize(&RngFactory::new(11), 0);
        for s in t.samples() {
            assert!((0.0..=1.0).contains(&s.cpu));
            assert!(s.mem_used_kb <= TOTAL_MEMORY_KB);
            assert!(s.mem_used_kb >= 18_000, "OS base should be present");
        }
    }

    #[test]
    fn calibration_non_idle_fraction_near_paper() {
        // Paper: "On average, 46% of the time a machine was in a non-idle
        // state." Average over several synthetic machines.
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(8 * 3600),
            ..Default::default()
        };
        let f = RngFactory::new(2024);
        let traces = cfg.synthesize_library(&f, 12);
        let avg: f64 =
            traces.iter().map(|t| t.non_idle_fraction()).sum::<f64>() / traces.len() as f64;
        assert!((avg - 0.46).abs() < 0.06, "non-idle fraction {avg} not near paper's 0.46");
    }

    #[test]
    fn calibration_non_idle_low_cpu_fraction_near_paper() {
        // Paper: "76% of the time in non-idle intervals, the processor
        // utilization is less than 10%."
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(8 * 3600),
            ..Default::default()
        };
        let f = RngFactory::new(2025);
        let traces = cfg.synthesize_library(&f, 12);
        let (mut non_idle, mut low) = (0u64, 0u64);
        for t in &traces {
            for (s, &idle) in t.samples().iter().zip(t.idle_flags()) {
                if !idle {
                    non_idle += 1;
                    if s.cpu < IDLE_CPU_THRESHOLD {
                        low += 1;
                    }
                }
            }
        }
        let frac = low as f64 / non_idle as f64;
        assert!(
            (frac - 0.76).abs() < 0.08,
            "low-cpu fraction of non-idle time {frac} not near paper's 0.76"
        );
    }

    #[test]
    fn calibration_memory_availability_near_fig4() {
        // Paper Fig 4: ≥14 MB free 90% of the time, ≥10 MB free 95%.
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(8 * 3600),
            ..Default::default()
        };
        let f = RngFactory::new(2026);
        let traces = cfg.synthesize_library(&f, 12);
        let mut free: Vec<f64> = Vec::new();
        for t in &traces {
            for s in t.samples() {
                free.push((TOTAL_MEMORY_KB - s.mem_used_kb) as f64);
            }
        }
        free.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p10 = free[free.len() / 10];
        let p05 = free[free.len() / 20];
        assert!(p10 >= 13_000.0, "P10 free memory {p10} KB below ~14 MB");
        assert!(p05 >= 9_000.0, "P5 free memory {p05} KB below ~10 MB");
    }

    #[test]
    fn weekly_traces_are_quieter_on_weekends() {
        // 7-day trace: compare non-idle fraction on weekdays vs weekend.
        let cfg = CoarseTraceConfig {
            duration: SimDuration::from_secs(7 * 86_400),
            weekly: true,
            ..Default::default()
        };
        let t = cfg.synthesize(&RngFactory::new(31), 0);
        let spd = (86_400 / SAMPLE_PERIOD_SECS) as usize; // samples per day
        let non_idle_frac = |lo: usize, hi: usize| {
            let flags = &t.idle_flags()[lo..hi];
            flags.iter().filter(|&&b| !b).count() as f64 / flags.len() as f64
        };
        let weekday = non_idle_frac(0, 5 * spd);
        let weekend = non_idle_frac(5 * spd, 7 * spd);
        assert!(
            weekend < 0.6 * weekday,
            "weekend {weekend} should be much quieter than weekday {weekday}"
        );
    }

    #[test]
    fn diurnal_traces_differ_from_flat() {
        let flat = CoarseTraceConfig {
            duration: SimDuration::from_secs(3600),
            ..Default::default()
        };
        let diurnal = CoarseTraceConfig { diurnal: true, ..flat.clone() };
        let f = RngFactory::new(5);
        let a = flat.synthesize(&f, 0);
        let b = diurnal.synthesize(&f, 0);
        assert_ne!(a.samples(), b.samples());
    }
}
