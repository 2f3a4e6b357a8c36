//! Journal inspection: human-readable run summaries and decision-level
//! diffs between two runs (seed vs seed, or policy vs policy).
//!
//! The diff is exact: journals are compared event by event in sequence
//! order, and the report pinpoints the first diverging event and the
//! first diverging *decision* — the moment two otherwise-identical
//! schedules split, which is usually all that is needed to explain an
//! aggregate gap.

use crate::event::{Event, EventKind};
use crate::metrics::MetricsRegistry;
use std::fmt::Write as _;

/// Aggregate view of one journal, rendered by [`render_summary`].
pub struct JournalSummary {
    /// Resident events summarized (ring survivors).
    pub events: usize,
    /// Aggregated counters, gauges, and histograms.
    pub metrics: MetricsRegistry,
}

/// Summarize a journal snapshot.
pub fn summarize(events: &[Event]) -> JournalSummary {
    JournalSummary {
        events: events.len(),
        metrics: MetricsRegistry::from_events(events),
    }
}

/// Render a summary as a terminal-friendly report.
pub fn render_summary(s: &JournalSummary) -> String {
    let m = &s.metrics;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "events: {} over {} windows (max window {})",
        s.events, m.windows, m.max_window
    );
    if !m.counters.is_empty() {
        let _ = writeln!(out, "by kind:");
        for (k, n) in &m.counters {
            let _ = writeln!(out, "  {k:<18} {n}");
        }
    }
    if !m.decisions.is_empty() {
        let _ = writeln!(out, "decisions:");
        for (k, n) in &m.decisions {
            let _ = writeln!(out, "  {k:<18} {n}");
        }
    }
    let _ = writeln!(
        out,
        "queue depth: last {:.0}, max {:.0} over {} windows",
        m.queue_depth.last, m.queue_depth.max, m.queue_depth.samples
    );
    if !m.admission.is_empty() {
        let a = &m.admission;
        let _ = writeln!(out, "admission:");
        let _ = writeln!(out, "  offered            {}", a.offered);
        let _ = writeln!(out, "  admitted           {}", a.admitted);
        let _ = writeln!(out, "  shed               {}", a.shed);
        let _ =
            writeln!(out, "  deferred           {} (peak deficit {})", a.deferred, a.peak_deficit);
        if a.deadline_drops > 0 {
            let _ = writeln!(
                out,
                "  deadline drops     {} (avg waited {:.1} s)",
                a.deadline_drops,
                a.deadline_wait_secs / a.deadline_drops as f64
            );
        } else {
            let _ = writeln!(out, "  deadline drops     0");
        }
    }
    if !m.stealing.is_empty() {
        let st = &m.stealing;
        let _ = writeln!(out, "stealing:");
        let _ = writeln!(
            out,
            "  probes             {} ({} hit, {} miss)",
            st.attempts, st.hits, st.misses
        );
        let _ = writeln!(out, "  abandons           {}", st.abandons);
        if st.hits > 0 {
            let _ = writeln!(
                out,
                "  stolen jobs        {} (avg steal delay {:.2} s)",
                st.stolen_jobs,
                st.delay_secs / st.hits as f64
            );
        } else {
            let _ = writeln!(out, "  stolen jobs        0");
        }
    }
    if m.completions > 0 {
        let n = m.completions as f64;
        let _ = writeln!(
            out,
            "completions: {} (avg {:.1} s; {} migrations)",
            m.completions,
            m.avg_completion_secs(),
            m.migrations
        );
        let _ = writeln!(
            out,
            "avg breakdown: queued {:.1} s | running {:.1} s | lingering {:.1} s | paused {:.1} s | migrating {:.1} s",
            m.breakdown_totals[0] / n,
            m.breakdown_totals[1] / n,
            m.breakdown_totals[2] / n,
            m.breakdown_totals[3] / n,
            m.breakdown_totals[4] / n,
        );
    }
    out
}

/// One side-by-side divergence point.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Position in the compared streams (index into the snapshots).
    pub index: usize,
    /// The event on side A at that position, if any.
    pub a: Option<Event>,
    /// The event on side B at that position, if any.
    pub b: Option<Event>,
}

/// Result of diffing two journals.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Events in journal A.
    pub a_events: usize,
    /// Events in journal B.
    pub b_events: usize,
    /// First position where the full event streams differ.
    pub first_divergence: Option<Divergence>,
    /// First position where the decision-only streams differ.
    pub first_decision_divergence: Option<Divergence>,
}

impl DiffReport {
    /// True when the two journals are event-for-event identical.
    pub fn identical(&self) -> bool {
        self.first_divergence.is_none() && self.a_events == self.b_events
    }
}

fn first_mismatch(a: &[&Event], b: &[&Event]) -> Option<Divergence> {
    let n = a.len().max(b.len());
    for i in 0..n {
        match (a.get(i), b.get(i)) {
            (Some(x), Some(y)) if x == y => continue,
            (x, y) => {
                return Some(Divergence {
                    index: i,
                    a: x.map(|e| (*e).clone()),
                    b: y.map(|e| (*e).clone()),
                })
            }
        }
    }
    None
}

/// Compare two journal snapshots event by event.
pub fn diff(a: &[Event], b: &[Event]) -> DiffReport {
    let all_a: Vec<&Event> = a.iter().collect();
    let all_b: Vec<&Event> = b.iter().collect();
    fn dec(evs: &[Event]) -> Vec<&Event> {
        evs.iter()
            .filter(|e| matches!(e.kind, EventKind::Decision { .. }))
            .collect()
    }
    let da = dec(a);
    let db = dec(b);
    DiffReport {
        a_events: a.len(),
        b_events: b.len(),
        first_divergence: first_mismatch(&all_a, &all_b),
        first_decision_divergence: first_mismatch(&da, &db),
    }
}

fn describe(ev: &Option<Event>) -> String {
    match ev {
        None => "<stream ended>".to_string(),
        Some(e) => {
            let mut s = format!(
                "#{} w{} t={:.1}s {}",
                e.seq,
                e.window,
                e.sim_nanos as f64 / 1e9,
                e.kind.name()
            );
            if let Some(n) = e.node {
                let _ = write!(s, " node={n}");
            }
            if let Some(j) = e.job {
                let _ = write!(s, " job={j}");
            }
            if let EventKind::Decision {
                action,
                host_cpu,
                dest_cpu,
                age_secs,
                migration_secs,
                dest,
            } = &e.kind
            {
                let _ = write!(s, " action={}", action.name());
                if let Some(h) = host_cpu {
                    let _ = write!(s, " h={h:.3}");
                }
                if let Some(l) = dest_cpu {
                    let _ = write!(s, " l={l:.3}");
                }
                if let Some(a) = age_secs {
                    let _ = write!(s, " age={a:.1}s");
                }
                if let Some(m) = migration_secs {
                    let _ = write!(s, " t_migr={m:.2}s");
                }
                if let Some(d) = dest {
                    let _ = write!(s, " dest={d}");
                }
            }
            match &e.kind {
                EventKind::StealAttempt { victim, attempt, victim_depth } => {
                    let _ = write!(s, " victim={victim} attempt={attempt} depth={victim_depth}");
                }
                EventKind::StealHit { victim, attempt, batch, delay_secs } => {
                    let _ = write!(
                        s,
                        " victim={victim} attempt={attempt} batch={batch} delay={delay_secs:.2}s"
                    );
                }
                EventKind::StealMiss { victim, attempt } => {
                    let _ = write!(s, " victim={victim} attempt={attempt}");
                }
                EventKind::StealAbandon { attempts } => {
                    let _ = write!(s, " attempts={attempts}");
                }
                _ => {}
            }
            s
        }
    }
}

/// Render a diff report for the terminal.
pub fn render_diff(r: &DiffReport, label_a: &str, label_b: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "A: {label_a} ({} events)", r.a_events);
    let _ = writeln!(out, "B: {label_b} ({} events)", r.b_events);
    if r.identical() {
        let _ = writeln!(out, "journals identical ({} events, zero differences)", r.a_events);
        return out;
    }
    if let Some(d) = &r.first_decision_divergence {
        let _ = writeln!(out, "first divergence in decisions at decision #{}:", d.index);
        let _ = writeln!(out, "  A: {}", describe(&d.a));
        let _ = writeln!(out, "  B: {}", describe(&d.b));
    }
    if let Some(d) = &r.first_divergence {
        let _ = writeln!(out, "first divergence in full event stream at position {}:", d.index);
        let _ = writeln!(out, "  A: {}", describe(&d.a));
        let _ = writeln!(out, "  B: {}", describe(&d.b));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DecisionAction;

    fn stream(h: f64) -> Vec<Event> {
        vec![
            Event::new(0, 0, EventKind::WindowStart { queue_depth: 0 }),
            Event::new(
                1,
                2_000_000_000,
                EventKind::Decision {
                    action: DecisionAction::Linger,
                    host_cpu: Some(0.3),
                    dest_cpu: None,
                    age_secs: None,
                    migration_secs: None,
                    dest: None,
                },
            )
            .on_node(0)
            .for_job(0),
            Event::new(
                2,
                4_000_000_000,
                EventKind::Decision {
                    action: DecisionAction::Migrate,
                    host_cpu: Some(h),
                    dest_cpu: Some(0.0),
                    age_secs: Some(4.0),
                    migration_secs: Some(1.8),
                    dest: Some(1),
                },
            )
            .on_node(0)
            .for_job(0),
        ]
    }

    #[test]
    fn summary_renders_admission_and_steal_sections() {
        let events = vec![
            Event::new(0, 0, EventKind::WindowStart { queue_depth: 1 }),
            Event::new(0, 0, EventKind::ArrivalBurst { offered: 4, admitted: 3, depth: 2 }),
            Event::new(0, 0, EventKind::AdmissionShed { count: 1 }),
            Event::new(1, 0, EventKind::StealAttempt { victim: 3, attempt: 1, victim_depth: 2 })
                .on_node(0),
            Event::new(
                1,
                0,
                EventKind::StealHit { victim: 3, attempt: 1, batch: 1, delay_secs: 0.2 },
            )
            .on_node(0)
            .for_job(5),
        ];
        let text = render_summary(&summarize(&events));
        assert!(text.contains("admission:"), "{text}");
        assert!(text.contains("offered            4"), "{text}");
        assert!(text.contains("shed               1"), "{text}");
        assert!(text.contains("stealing:"), "{text}");
        assert!(text.contains("probes             1 (1 hit, 0 miss)"), "{text}");
        // A run without those kinds renders neither section.
        let quiet = render_summary(&summarize(&[Event::new(
            0,
            0,
            EventKind::WindowStart { queue_depth: 0 },
        )]));
        assert!(!quiet.contains("admission:"), "{quiet}");
        assert!(!quiet.contains("stealing:"), "{quiet}");
    }

    #[test]
    fn identical_streams_diff_clean() {
        let r = diff(&stream(0.8), &stream(0.8));
        assert!(r.identical());
        assert!(render_diff(&r, "a", "b").contains("zero differences"));
    }

    #[test]
    fn diverging_decision_is_pinpointed() {
        let r = diff(&stream(0.8), &stream(0.9));
        assert!(!r.identical());
        let d = r.first_decision_divergence.clone().expect("decision divergence");
        assert_eq!(d.index, 1, "second decision differs");
        let full = r.first_divergence.clone().expect("stream divergence");
        assert_eq!(full.index, 2, "third event differs");
        let text = render_diff(&r, "a", "b");
        assert!(text.contains("first divergence"), "{text}");
        assert!(text.contains("h=0.800") && text.contains("h=0.900"), "{text}");
    }

    #[test]
    fn length_mismatch_is_a_divergence() {
        let a = stream(0.8);
        let mut b = stream(0.8);
        b.pop();
        let r = diff(&a, &b);
        assert!(!r.identical());
        assert_eq!(r.first_divergence.unwrap().index, 2);
    }
}
