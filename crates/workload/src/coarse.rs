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
/// quiet streak, so there is no shortcut).
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
        let session_target_kb = 10_000.0 + mem_rng.random::<f64>() * 18_000.0;

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
                self.session_target_kb = 10_000.0 + self.mem_rng.random::<f64>() * 18_000.0;
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
                self.working_set_kb += (self.session_target_kb - self.working_set_kb) * 0.02
                    + (self.mem_rng.random::<f64>() - 0.5) * 900.0;
            }
            UserState::Away => {
                // Memory drains only slowly when the user steps away
                // (editors and builds stay resident) — the paper finds
                // "no significant difference in the available memory
                // between idle and non-idle states".
                self.working_set_kb += (9_000.0 - self.working_set_kb) * 0.0008
                    + (self.mem_rng.random::<f64>() - 0.5) * 250.0;
            }
        }
        self.working_set_kb = self.working_set_kb.clamp(2_000.0, 36_000.0);
        self.next += 1;
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
        let u: f64 = rng.random();
        -(1.0 - u).ln() * mean.max(SAMPLE_PERIOD_SECS as f64)
    }

    fn draw_cpu(&self, rng: &mut SimRng, state: UserState) -> f64 {
        let u: f64 = rng.random();
        let v: f64 = rng.random();
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
