//! The allocation-bounded event journal and the recorder handle the
//! simulators carry.
//!
//! A [`Recorder`] is either disabled (one `Option` branch per emission
//! site, no event construction at all — the closure passed to
//! [`Recorder::record`] never runs) or backed by a shared [`Journal`]:
//! a fixed-capacity ring of [`Event`]s plus exact per-kind counters
//! that survive ring wraparound. Nothing here reads a clock or an RNG,
//! so attaching a recorder cannot perturb a simulation.

use crate::event::{Event, EventKind};
use linger_sim_core::write_atomic;
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// Ring capacity (events) of the journals the tools attach.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Anything that accepts a stream of events.
///
/// The simulators talk to a [`Recorder`], which is a `Sink` wired to a
/// journal or to nothing; custom sinks (a stderr tracer, a live
/// aggregator) can be swapped in for tests or tooling.
pub trait Sink: Send + Sync {
    /// Consume one event.
    fn accept(&self, ev: Event);
}

/// The no-op default: every event disappears.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn accept(&self, _ev: Event) {}
}

/// Exact event counts, kept outside the ring so they never wrap.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct JournalCounts {
    /// Total events pushed (= next seq).
    pub events: u64,
    /// Events evicted from the ring to respect the capacity bound.
    pub dropped: u64,
    /// Counts by [`EventKind::name`] declaration order.
    pub by_kind: [u64; KIND_SLOTS],
    /// Counts by [`DecisionAction`](crate::event::DecisionAction) declaration order.
    pub decisions: [u64; ACTION_SLOTS],
}

/// Number of `EventKind` variants (see [`kind_slot`]).
pub const KIND_SLOTS: usize = 19;
/// Number of `DecisionAction` variants.
pub const ACTION_SLOTS: usize = 7;

/// Dense counter slot for an event kind, in `EventKind` declaration
/// order (each slot taken once, checked by the tests below).
pub fn kind_slot(kind: &EventKind) -> usize {
    match kind {
        EventKind::WindowStart { .. } => 0,
        EventKind::Decision { .. } => 1,
        EventKind::MigrationStart { .. } => 2,
        EventKind::MigrationArrive { .. } => 3,
        EventKind::MigrationFail { .. } => 4,
        EventKind::MigrationRetry { .. } => 5,
        EventKind::MigrationAbandon => 6,
        EventKind::NodeCrash { .. } => 7,
        EventKind::NodeReboot => 8,
        EventKind::QueueEnter => 9,
        EventKind::Complete { .. } => 10,
        EventKind::ArrivalBurst { .. } => 11,
        EventKind::AdmissionShed { .. } => 12,
        EventKind::AdmissionDefer { .. } => 13,
        EventKind::DeadlineDrop { .. } => 14,
        EventKind::StealAttempt { .. } => 15,
        EventKind::StealHit { .. } => 16,
        EventKind::StealMiss { .. } => 17,
        EventKind::StealAbandon { .. } => 18,
    }
}

struct Ring {
    buf: VecDeque<Event>,
    cap: usize,
    counts: JournalCounts,
}

/// A bounded, thread-safe event journal.
///
/// Pushes assign monotone sequence numbers; once `cap` events are
/// resident the oldest is dropped (and counted), so memory stays
/// `O(cap)` for arbitrarily long runs.
pub struct Journal {
    ring: Mutex<Ring>,
}

impl Journal {
    /// An empty journal holding at most `cap` events (min 1).
    pub fn with_capacity(cap: usize) -> Journal {
        let cap = cap.max(1);
        Journal {
            ring: Mutex::new(Ring {
                buf: VecDeque::with_capacity(cap.min(4096)),
                cap,
                counts: JournalCounts::default(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        // A panicking simulation thread leaves the ring consistent
        // (every mutation is a single push/pop); recover the guard so
        // the harness can still export what was captured.
        self.ring.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Append an event, assigning its sequence number.
    pub fn push(&self, mut ev: Event) {
        let mut r = self.lock();
        ev.seq = r.counts.events;
        r.counts.events += 1;
        r.counts.by_kind[kind_slot(&ev.kind)] += 1;
        if let Some(a) = ev.kind.action() {
            r.counts.decisions[a as usize] += 1;
        }
        if r.buf.len() == r.cap {
            r.buf.pop_front();
            r.counts.dropped += 1;
        }
        r.buf.push_back(ev);
    }

    /// Events currently resident in the ring (≤ capacity).
    pub fn len(&self) -> usize {
        self.lock().buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().buf.is_empty()
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.lock().cap
    }

    /// Exact counters (unaffected by ring wraparound).
    pub fn counts(&self) -> JournalCounts {
        self.lock().counts
    }

    /// Copy of the resident events, in sequence order.
    pub fn snapshot(&self) -> Vec<Event> {
        self.lock().buf.iter().cloned().collect()
    }

    /// Write the resident events as JSON lines (one event per line),
    /// atomically (temp + sync + rename), creating parent directories.
    pub fn write_jsonl<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        write_events_jsonl(path, &self.snapshot())
    }
}

impl Sink for Journal {
    fn accept(&self, ev: Event) {
        self.push(ev);
    }
}

/// Serialize `events` as JSON lines and write them atomically.
pub fn write_events_jsonl<P: AsRef<Path>>(path: P, events: &[Event]) -> io::Result<()> {
    let mut out = String::new();
    for ev in events {
        let line = serde_json::to_string(ev)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        out.push_str(&line);
        out.push('\n');
    }
    if let Some(parent) = path.as_ref().parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    write_atomic(path, out.as_bytes())
}

/// Load a JSON-lines journal written by [`Journal::write_jsonl`].
pub fn read_events_jsonl<P: AsRef<Path>>(path: P) -> io::Result<Vec<Event>> {
    let text = std::fs::read_to_string(path)?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev: Event = serde_json::from_str(line).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("line {}: {}", i + 1, e))
        })?;
        events.push(ev);
    }
    Ok(events)
}

/// The handle a simulator carries: disabled (free) or journal-backed.
///
/// Cloning shares the underlying journal, so one recorder can be
/// threaded through helpers while the owner keeps reading it.
#[derive(Clone, Default)]
pub struct Recorder {
    journal: Option<Arc<Journal>>,
}

impl Recorder {
    /// The no-op recorder: `record` never runs its closure.
    pub fn disabled() -> Recorder {
        Recorder { journal: None }
    }

    /// A recorder backed by a fresh bounded journal.
    pub fn with_capacity(cap: usize) -> Recorder {
        Recorder { journal: Some(Arc::new(Journal::with_capacity(cap))) }
    }

    /// A recorder sharing an existing journal.
    pub fn new(journal: Arc<Journal>) -> Recorder {
        Recorder { journal: Some(journal) }
    }

    /// Whether events are being kept.
    pub fn enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Record an event. The closure only runs when enabled, so the
    /// disabled path costs a branch on an `Option` — no allocation, no
    /// formatting, no lock.
    #[inline]
    pub fn record<F: FnOnce() -> Event>(&self, f: F) {
        if let Some(j) = &self.journal {
            j.push(f());
        }
    }

    /// The backing journal, when enabled.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.journal {
            None => write!(f, "Recorder(disabled)"),
            Some(j) => write!(f, "Recorder({} events)", j.counts().events),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DecisionAction;

    fn ev(i: u32) -> Event {
        Event::new(i, i as u64 * 2_000_000_000, EventKind::WindowStart { queue_depth: i })
    }

    #[test]
    fn ring_respects_capacity_and_counts_drops() {
        let j = Journal::with_capacity(4);
        for i in 0..10 {
            j.push(ev(i));
        }
        assert_eq!(j.len(), 4);
        let c = j.counts();
        assert_eq!(c.events, 10);
        assert_eq!(c.dropped, 6);
        let snap = j.snapshot();
        assert_eq!(snap.first().unwrap().seq, 6, "oldest surviving seq");
        assert_eq!(snap.last().unwrap().seq, 9);
    }

    #[test]
    fn counts_track_kinds_and_actions_past_wraparound() {
        let j = Journal::with_capacity(2);
        for i in 0..5 {
            j.push(ev(i));
            j.push(Event::new(
                i,
                0,
                EventKind::Decision {
                    action: DecisionAction::Evict,
                    host_cpu: Some(0.5),
                    dest_cpu: None,
                    age_secs: None,
                    migration_secs: None,
                    dest: None,
                },
            ));
        }
        let c = j.counts();
        assert_eq!(c.by_kind[kind_slot(&ev(0).kind)], 5);
        assert_eq!(c.decisions[DecisionAction::Evict as usize], 5);
        assert_eq!(c.events, 10);
    }

    #[test]
    fn disabled_recorder_never_runs_the_closure() {
        let rec = Recorder::disabled();
        let mut ran = false;
        rec.record(|| {
            ran = true;
            ev(0)
        });
        assert!(!ran);
        assert!(!rec.enabled());
    }

    #[test]
    fn jsonl_round_trip() {
        let j = Journal::with_capacity(16);
        for i in 0..5 {
            j.push(ev(i));
        }
        let dir = std::env::temp_dir().join("linger-telemetry-test");
        let path = dir.join("roundtrip.jsonl");
        j.write_jsonl(&path).unwrap();
        let back = read_events_jsonl(&path).unwrap();
        assert_eq!(back, j.snapshot());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kind_slots_are_dense_and_distinct() {
        // One sample per variant: every slot is taken exactly once.
        let samples: Vec<EventKind> = vec![
            EventKind::WindowStart { queue_depth: 0 },
            EventKind::Decision {
                action: DecisionAction::Linger,
                host_cpu: None,
                dest_cpu: None,
                age_secs: None,
                migration_secs: None,
                dest: None,
            },
            EventKind::MigrationStart { dest: 0, attempt: 1 },
            EventKind::MigrationArrive { dest: 0 },
            EventKind::MigrationFail { dest: 0 },
            EventKind::MigrationRetry { dest: 0, attempt: 2 },
            EventKind::MigrationAbandon,
            EventKind::NodeCrash { evicted: None },
            EventKind::NodeReboot,
            EventKind::QueueEnter,
            EventKind::Complete {
                queued_secs: 0.0,
                running_secs: 0.0,
                lingering_secs: 0.0,
                paused_secs: 0.0,
                migrating_secs: 0.0,
                completion_secs: 0.0,
                migrations: 0,
            },
            EventKind::ArrivalBurst { offered: 0, admitted: 0, depth: 0 },
            EventKind::AdmissionShed { count: 0 },
            EventKind::AdmissionDefer { count: 0, deficit: 0 },
            EventKind::DeadlineDrop { waited_secs: 0.0 },
            EventKind::StealAttempt { victim: 0, attempt: 1, victim_depth: 0 },
            EventKind::StealHit { victim: 0, attempt: 1, batch: 1, delay_secs: 0.0 },
            EventKind::StealMiss { victim: 0, attempt: 1 },
            EventKind::StealAbandon { attempts: 3 },
        ];
        let mut slots: Vec<usize> = samples.iter().map(kind_slot).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..KIND_SLOTS).collect::<Vec<_>>());
    }
}
