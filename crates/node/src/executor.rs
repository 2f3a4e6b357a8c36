//! Foreign-job execution under strict priority.
//!
//! The scheduling semantics of lingering (paper Sec 2): "Foreground
//! processes have the highest priority and can starve background
//! processes. In addition, when a background process is running, an
//! interrupt that results in a foreground process becoming runnable causes
//! the foreground process to be scheduled onto the processor even if the
//! background job's scheduling quanta has not expired."
//!
//! Concretely, over one idle/run cycle of the local workload (idle burst
//! `I` followed by run burst `R`) with effective context-switch cost `c`:
//!
//! * the switch **to** the foreign job consumes `c` at the head of the
//!   idle burst;
//! * the preemption **back** to the local job delays the local process by
//!   `c` (the Local-job Delay Ratio numerator), which also displaces the
//!   tail of the foreign job's window;
//! * the foreign job therefore harvests `max(0, I − 2c)` of the `I`
//!   available idle cycles, and the local job runs `R` with `c` of added
//!   latency.
//!
//! [`FineGrainCpu`] walks a burst stream applying these rules exactly; the
//! closed-form expectation is exposed as [`steal_rate`] for the
//! window-rate fast path used by the cluster simulator (the two are
//! compared by the `cluster` ablation bench).

use crate::source::BurstSource;
use linger_sim_core::SimDuration;
use linger_workload::{BucketParams, BurstKind, BurstParamTable};

/// Incremental strict-priority execution of a compute-bound foreign job
/// over a local burst stream.
pub struct FineGrainCpu<S: BurstSource> {
    src: S,
    context_switch: SimDuration,
    /// Remainder of the burst currently in progress.
    leftover: Option<(BurstKind, SimDuration)>,
    /// Whether the charging decision for the current idle burst has been
    /// made.
    idle_switch_charged: bool,
    /// Whether the current idle burst needs a switch at all (it follows a
    /// run burst or a resume; consecutive idle bursts do not switch).
    idle_needs_switch: bool,
    /// Whether the tail switch charge is still embedded in the current
    /// idle burst's leftover.
    idle_tail_reserved: bool,
    /// Kind of the most recently *completed* burst — consecutive idle
    /// bursts (degenerate 0%-utilization stream) involve no switches.
    prev_kind: Option<BurstKind>,
    // Accumulated accounting.
    local_busy: SimDuration,
    idle_available: SimDuration,
    foreign_cpu: SimDuration,
    local_delay: SimDuration,
    preemptions: u64,
}

impl<S: BurstSource> FineGrainCpu<S> {
    /// Execute over `src` with the given effective context-switch cost.
    pub fn new(src: S, context_switch: SimDuration) -> Self {
        FineGrainCpu {
            src,
            context_switch,
            leftover: None,
            idle_switch_charged: false,
            idle_needs_switch: false,
            idle_tail_reserved: false,
            prev_kind: None,
            local_busy: SimDuration::ZERO,
            idle_available: SimDuration::ZERO,
            foreign_cpu: SimDuration::ZERO,
            local_delay: SimDuration::ZERO,
            preemptions: 0,
        }
    }

    /// Total local run time observed.
    pub fn local_busy(&self) -> SimDuration {
        self.local_busy
    }

    /// Total idle cycles that were available to the foreign job.
    pub fn idle_available(&self) -> SimDuration {
        self.idle_available
    }

    /// CPU time the foreign job actually harvested.
    pub fn foreign_cpu(&self) -> SimDuration {
        self.foreign_cpu
    }

    /// Extra latency inflicted on local run bursts (LDR numerator).
    pub fn local_delay(&self) -> SimDuration {
        self.local_delay
    }

    /// Number of foreground preemptions of the foreign job.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Local-job Delay Ratio accumulated so far.
    pub fn ldr(&self) -> f64 {
        let busy = self.local_busy.as_secs_f64();
        if busy == 0.0 {
            0.0
        } else {
            self.local_delay.as_secs_f64() / busy
        }
    }

    /// Fine-grain Cycle Stealing Ratio accumulated so far.
    pub fn fcsr(&self) -> f64 {
        let avail = self.idle_available.as_secs_f64();
        if avail == 0.0 {
            0.0
        } else {
            self.foreign_cpu.as_secs_f64() / avail
        }
    }

    fn current(&mut self) -> (BurstKind, SimDuration) {
        if self.leftover.is_none() {
            let b = self.src.next_burst();
            self.leftover = Some((b.kind, b.duration));
            match b.kind {
                BurstKind::Idle => {
                    // Availability is accounted as the burst is consumed
                    // (in `consume`), so partially-used bursts do not
                    // deflate the FCSR denominator.
                    self.idle_switch_charged = false;
                    // Switches happen only on a run/idle edge; a stream of
                    // consecutive idle bursts (0% utilization) is one long
                    // idle period with nothing to switch from.
                    self.idle_needs_switch = self.prev_kind == Some(BurstKind::Run);
                    self.idle_tail_reserved = false;
                }
                BurstKind::Run => {
                    self.local_busy += b.duration;
                    // The foreign job held the CPU; preempting it delays
                    // the local process by one switch.
                    self.local_delay += self.context_switch;
                    self.preemptions += 1;
                }
            }
        }
        self.leftover.unwrap()
    }

    fn consume_current(&mut self, amount: SimDuration) {
        let (kind, rem) = self.leftover.take().expect("burst in progress");
        debug_assert!(amount <= rem);
        let left = rem - amount;
        if left.is_zero() {
            self.prev_kind = Some(kind);
        } else {
            self.leftover = Some((kind, left));
        }
    }

    /// Run the foreign job until it accumulates `demand` of CPU time;
    /// returns the wall-clock time that elapsed.
    ///
    /// Switch costs are charged per the module rules: `c` at the head of
    /// each idle burst (switch-in) and `c` at the tail (the local
    /// process's preemption delay displaces the window tail).
    pub fn consume(&mut self, demand: SimDuration) -> SimDuration {
        let mut need = demand;
        let mut wall = SimDuration::ZERO;
        while !need.is_zero() {
            let (kind, rem) = self.current();
            match kind {
                BurstKind::Run => {
                    wall += rem;
                    self.consume_current(rem);
                }
                BurstKind::Idle => {
                    let mut usable = rem;
                    if !self.idle_switch_charged {
                        self.idle_switch_charged = true;
                        if self.idle_needs_switch {
                            // Head and tail switch charges. If the idle
                            // burst cannot cover them, the foreign job
                            // gets nothing from it.
                            let overhead = self.context_switch + self.context_switch;
                            if rem <= overhead {
                                wall += rem;
                                self.idle_available += rem;
                                self.consume_current(rem);
                                continue;
                            }
                            // Charge the head switch as elapsed wall time
                            // and keep the tail charge embedded in the
                            // burst's leftover.
                            wall += self.context_switch;
                            self.idle_available += self.context_switch;
                            self.consume_current(self.context_switch);
                            self.idle_tail_reserved = true;
                            usable = rem - overhead;
                        }
                    } else if self.idle_tail_reserved {
                        // Re-entering a charged burst: the usable part of
                        // the leftover excludes the embedded tail charge.
                        if rem <= self.context_switch {
                            wall += rem;
                            self.idle_available += rem;
                            self.consume_current(rem);
                            continue;
                        }
                        usable = rem - self.context_switch;
                    }
                    let take = usable.min(need);
                    self.foreign_cpu += take;
                    self.idle_available += take;
                    need -= take;
                    wall += take;
                    self.consume_current(take);
                    if need.is_zero() {
                        break;
                    }
                    if self.idle_tail_reserved {
                        // Demand outlived the usable window: the embedded
                        // tail charge elapses as wall time.
                        let (_, tail) = self.current();
                        wall += tail;
                        self.idle_available += tail;
                        self.consume_current(tail);
                    }
                }
            }
        }
        wall
    }

    /// Let `wall` elapse without the foreign job demanding CPU (e.g. it is
    /// blocked at a barrier or suspended). Local bursts continue; no
    /// switches are charged and no idle cycles count as "available".
    pub fn advance_wall(&mut self, wall: SimDuration) {
        let mut left = wall;
        while !left.is_zero() {
            let (_, rem) = self.current_unaccounted();
            let take = rem.min(left);
            self.consume_current(take);
            left -= take;
        }
    }

    /// Like [`Self::current`] but without charging foreign-presence
    /// accounting — used while the foreign job is not competing. While the
    /// foreign job is absent, local runs undisturbed and idle cycles are
    /// not "available" (nobody is there to steal them), so neither
    /// accumulator advances; but a later resume into the remainder of an
    /// idle burst must still pay the switch-in, so the charge flag resets.
    fn current_unaccounted(&mut self) -> (BurstKind, SimDuration) {
        if self.leftover.is_none() {
            let b = self.src.next_burst();
            self.leftover = Some((b.kind, b.duration));
            if b.kind == BurstKind::Idle {
                // A later resume into this burst pays a fresh switch-in.
                self.idle_switch_charged = false;
                self.idle_needs_switch = true;
                self.idle_tail_reserved = false;
            }
        }
        self.leftover.unwrap()
    }
}

/// Expected fraction of *wall time* a lingering compute-bound foreign job
/// harvests on a node at local utilization `u` (the closed-form mean of
/// [`FineGrainCpu`]'s behaviour):
///
/// ```text
/// rate(u) = (I(u) − 2c)⁺ / (R(u) + I(u))
/// ```
///
/// where `R`, `I` are the interpolated burst means. At `u = 0` there are
/// no switches and the rate is 1; at `u = 1` it is 0.
#[inline]
pub fn steal_rate(table: &BurstParamTable, u: f64, context_switch: SimDuration) -> f64 {
    steal_rate_with(&table.interpolate(u), u, context_switch)
}

/// [`steal_rate`] from burst parameters `p` already interpolated at `u`
/// (`p` must equal `table.interpolate(u)`), for callers that need the
/// parameters as well and should interpolate only once.
#[inline]
pub fn steal_rate_with(p: &BucketParams, u: f64, context_switch: SimDuration) -> f64 {
    let u = u.clamp(0.0, 1.0);
    if u <= 0.0 {
        return 1.0;
    }
    if u >= 1.0 {
        return 0.0;
    }
    let cycle = p.run_mean + p.idle_mean;
    if cycle <= 0.0 {
        return 0.0;
    }
    let usable = (p.idle_mean - 2.0 * context_switch.as_secs_f64()).max(0.0);
    usable / cycle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FixedUtilization;
    use linger_sim_core::{domains, RngFactory, SimRng};

    fn rng(i: u64) -> SimRng {
        RngFactory::new(41).stream_for(domains::FINE_BURSTS, i)
    }

    fn cpu(u: f64, cs_us: u64) -> FineGrainCpu<FixedUtilization> {
        FineGrainCpu::new(
            FixedUtilization::new(u, rng((u * 1000.0) as u64 + cs_us)),
            SimDuration::from_micros(cs_us),
        )
    }

    #[test]
    fn idle_node_runs_at_full_speed() {
        let mut c = cpu(0.0, 100);
        let wall = c.consume(SimDuration::from_secs(10));
        // Only the per-idle-burst switch charges separate wall from CPU;
        // idle bursts are 300 ms so overhead is ≤ (2×100µs)/300ms ≈ 0.07%.
        let ratio = wall.as_secs_f64() / 10.0;
        assert!(ratio < 1.001, "wall/cpu {ratio}");
        assert!(c.fcsr() > 0.999);
    }

    #[test]
    fn loaded_node_slows_foreign_by_availability() {
        for u in [0.2, 0.5, 0.8] {
            let mut c = cpu(u, 100);
            let demand = SimDuration::from_secs(20);
            let wall = c.consume(demand);
            let expect = 20.0 / (1.0 - u);
            let got = wall.as_secs_f64();
            assert!(
                (got - expect).abs() / expect < 0.10,
                "u={u}: wall {got} vs expected {expect}"
            );
        }
    }

    #[test]
    fn foreign_cpu_equals_demand() {
        let mut c = cpu(0.5, 100);
        let demand = SimDuration::from_secs(5);
        c.consume(demand);
        assert_eq!(c.foreign_cpu(), demand);
    }

    #[test]
    fn ldr_matches_analytic_prediction() {
        // LDR = c / mean run burst.
        for (u, cs) in [(0.2, 100u64), (0.5, 300), (0.9, 500)] {
            let mut c = cpu(u, cs);
            c.consume(SimDuration::from_secs(30));
            let table = BurstParamTable::paper_calibrated();
            let expect = (cs as f64 * 1e-6) / table.interpolate(u).run_mean;
            let got = c.ldr();
            assert!(
                (got - expect).abs() / expect < 0.15,
                "u={u} cs={cs}: ldr {got} vs {expect}"
            );
        }
    }

    #[test]
    fn fcsr_stays_above_90_percent() {
        // Paper Sec 4.1: "Lingering was able to make productive use of
        // over 90% of the available processor idle cycles" for all
        // context-switch costs up to 500 µs.
        for cs in [100u64, 300, 500] {
            for u in [0.1, 0.3, 0.5, 0.7, 0.9] {
                let mut c = cpu(u, cs);
                c.consume(SimDuration::from_secs(20));
                assert!(c.fcsr() > 0.90, "u={u} cs={cs}: fcsr {}", c.fcsr());
            }
        }
    }

    #[test]
    fn advance_wall_does_not_accumulate_foreign_cpu() {
        let mut c = cpu(0.5, 100);
        c.advance_wall(SimDuration::from_secs(5));
        assert_eq!(c.foreign_cpu(), SimDuration::ZERO);
        assert_eq!(c.idle_available(), SimDuration::ZERO);
        assert_eq!(c.preemptions(), 0);
        // Resuming after the gap still works.
        let wall = c.consume(SimDuration::from_secs(1));
        assert!(wall >= SimDuration::from_secs(1));
        assert_eq!(c.foreign_cpu(), SimDuration::from_secs(1));
    }

    #[test]
    fn consume_zero_is_free() {
        let mut c = cpu(0.5, 100);
        assert_eq!(c.consume(SimDuration::ZERO), SimDuration::ZERO);
    }

    /// `steal_rate` as it was before the libm-free interpolation: the
    /// oracle the fast version must match bit for bit.
    fn steal_rate_with_libm(table: &BurstParamTable, u: f64, context_switch: SimDuration) -> f64 {
        let u = u.clamp(0.0, 1.0);
        if u <= 0.0 {
            return 1.0;
        }
        if u >= 1.0 {
            return 0.0;
        }
        let pos = u / 0.05;
        let nearest = pos.round();
        let pos = if (pos - nearest).abs() < 1e-9 {
            nearest
        } else {
            pos
        };
        let lo = pos.floor() as usize;
        let b = table.buckets();
        let (run_mean, idle_mean) = if lo >= b.len() - 1 {
            (b[b.len() - 1].run_mean, b[b.len() - 1].idle_mean)
        } else {
            let w = pos - lo as f64;
            let lerp = |x: f64, y: f64| x + (y - x) * w;
            (
                lerp(b[lo].run_mean, b[lo + 1].run_mean),
                lerp(b[lo].idle_mean, b[lo + 1].idle_mean),
            )
        };
        let cycle = run_mean + idle_mean;
        if cycle <= 0.0 {
            return 0.0;
        }
        let usable = (idle_mean - 2.0 * context_switch.as_secs_f64()).max(0.0);
        usable / cycle
    }

    #[test]
    fn steal_rate_matches_the_libm_version_bit_for_bit() {
        let t = BurstParamTable::paper_calibrated();
        let mut us: Vec<f64> = (0..=102_000).map(|i| -0.01 + i as f64 * 1e-5).collect();
        for i in 0..=20 {
            let level = BurstParamTable::bucket_level(i);
            let (mut up, mut down) = (level, level);
            us.push(level);
            for _ in 0..3 {
                up = up.next_up();
                down = down.next_down();
                us.extend([up, down]);
            }
        }
        us.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]);
        for cs_us in [0, 100, 500, 20_000] {
            let cs = SimDuration::from_micros(cs_us);
            for &u in &us {
                assert_eq!(
                    steal_rate(&t, u, cs).to_bits(),
                    steal_rate_with_libm(&t, u, cs).to_bits(),
                    "u = {u:e}, cs = {cs_us} us"
                );
            }
        }
    }

    #[test]
    fn steal_rate_endpoints() {
        let t = BurstParamTable::paper_calibrated();
        let cs = SimDuration::from_micros(100);
        assert_eq!(steal_rate(&t, 0.0, cs), 1.0);
        assert_eq!(steal_rate(&t, 1.0, cs), 0.0);
    }

    #[test]
    fn steal_rate_decreases_with_utilization_and_cs() {
        let t = BurstParamTable::paper_calibrated();
        let cs = SimDuration::from_micros(100);
        let mut prev = 1.0;
        for i in 1..=20 {
            let u = i as f64 * 0.05;
            let r = steal_rate(&t, u, cs);
            assert!(r <= prev + 1e-12, "rate must fall with u");
            assert!(r <= 1.0 - u + 1e-9, "cannot exceed availability");
            prev = r;
        }
        assert!(
            steal_rate(&t, 0.5, SimDuration::from_micros(500))
                < steal_rate(&t, 0.5, SimDuration::from_micros(100))
        );
    }

    #[test]
    fn fine_grain_matches_steal_rate_in_expectation() {
        let t = BurstParamTable::paper_calibrated();
        let cs = SimDuration::from_micros(100);
        for u in [0.2, 0.6] {
            let mut c = cpu(u, 100);
            let demand = SimDuration::from_secs(30);
            let wall = c.consume(demand);
            let measured_rate = demand.as_secs_f64() / wall.as_secs_f64();
            let analytic = steal_rate(&t, u, cs);
            assert!(
                (measured_rate - analytic).abs() / analytic < 0.08,
                "u={u}: measured {measured_rate} vs analytic {analytic}"
            );
        }
    }
}
