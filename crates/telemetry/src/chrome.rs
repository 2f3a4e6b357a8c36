//! Chrome trace-event export: one journal becomes a JSON object
//! Perfetto / `chrome://tracing` opens directly as a per-node timeline.
//!
//! Layout: `pid 0` is the cluster; each node is a thread (`tid` =
//! node id + 1, named `node N`). Job state episodes — running,
//! lingering, paused, migrating — are complete (`"ph":"X"`) spans on
//! the node that hosted them, reconstructed from the decision /
//! migration / completion events; point events (crashes, reboots,
//! decisions, queue entries) are instants (`"ph":"i"`). Timestamps are
//! simulated microseconds, so the timeline is byte-deterministic.

use crate::event::{DecisionAction, Event, EventKind};
use serde::Value;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn us(nanos: u64) -> Value {
    Value::UInt(nanos / 1_000)
}

/// One open job episode being tracked by the span builder.
struct OpenSpan {
    state: &'static str,
    since_nanos: u64,
    /// Thread the span renders on (node id + 1; 0 = the queue lane).
    tid: u64,
}

fn span(name: &str, job: u32, open: &OpenSpan, end_nanos: u64) -> Value {
    obj(vec![
        ("name", Value::Str(name.to_string())),
        ("cat", Value::Str("job".to_string())),
        ("ph", Value::Str("X".to_string())),
        ("ts", us(open.since_nanos)),
        ("dur", us(end_nanos.saturating_sub(open.since_nanos))),
        ("pid", Value::UInt(0)),
        ("tid", Value::UInt(open.tid)),
        ("args", obj(vec![("job", Value::UInt(job as u64))])),
    ])
}

fn instant(ev: &Event) -> Value {
    let tid = ev.node.map(|n| n as u64 + 1).unwrap_or(0);
    let mut args: Vec<(&str, Value)> = Vec::new();
    if let Some(j) = ev.job {
        args.push(("job", Value::UInt(j as u64)));
    }
    args.push(("window", Value::UInt(ev.window as u64)));
    if let EventKind::Decision {
        action,
        host_cpu,
        dest_cpu,
        age_secs,
        migration_secs,
        dest,
    } = &ev.kind
    {
        args.push(("action", Value::Str(action.name().to_string())));
        if let Some(h) = host_cpu {
            args.push(("host_cpu", Value::Float(*h)));
        }
        if let Some(l) = dest_cpu {
            args.push(("dest_cpu", Value::Float(*l)));
        }
        if let Some(a) = age_secs {
            args.push(("age_secs", Value::Float(*a)));
        }
        if let Some(m) = migration_secs {
            args.push(("migration_secs", Value::Float(*m)));
        }
        if let Some(d) = dest {
            args.push(("dest", Value::UInt(*d as u64)));
        }
    }
    obj(vec![
        ("name", Value::Str(ev.kind.name().to_string())),
        ("cat", Value::Str("event".to_string())),
        ("ph", Value::Str("i".to_string())),
        ("s", Value::Str("t".to_string())),
        ("ts", us(ev.sim_nanos)),
        ("pid", Value::UInt(0)),
        ("tid", Value::UInt(tid)),
        ("args", obj(args)),
    ])
}

fn thread_name(tid: u64, name: &str) -> Value {
    obj(vec![
        ("name", Value::Str("thread_name".to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::UInt(0)),
        ("tid", Value::UInt(tid)),
        ("args", obj(vec![("name", Value::Str(name.to_string()))])),
    ])
}

/// The job-state transition implied by an event, if any:
/// `Some((state, tid))` opens that span, `Some(("", _))` just closes.
fn transition(ev: &Event, open: Option<&OpenSpan>) -> Option<(&'static str, u64)> {
    let node_tid = |n: u32| n as u64 + 1;
    match &ev.kind {
        EventKind::Decision { action, dest, .. } => match action {
            DecisionAction::Place => {
                // Placement reserves `dest`; the job runs there (a fresh
                // non-idle placement lingers — a Linger decision follows
                // immediately and reopens the span).
                dest.map(|d| ("running", node_tid(d)))
            }
            DecisionAction::Linger => {
                let tid = ev.node.map(node_tid).or(open.map(|o| o.tid))?;
                Some(("lingering", tid))
            }
            DecisionAction::Pause => {
                let tid = ev.node.map(node_tid).or(open.map(|o| o.tid))?;
                Some(("paused", tid))
            }
            DecisionAction::Resume => {
                let tid = ev.node.map(node_tid).or(open.map(|o| o.tid))?;
                Some(("running", tid))
            }
            DecisionAction::Migrate => dest.map(|d| ("migrating", node_tid(d))),
            DecisionAction::Requeue => Some(("queued", 0)),
            DecisionAction::Evict => None,
        },
        EventKind::MigrationStart { dest, .. } | EventKind::MigrationRetry { dest, .. } => {
            Some(("migrating", node_tid(*dest)))
        }
        EventKind::MigrationArrive { dest } => Some(("running", node_tid(*dest))),
        EventKind::MigrationAbandon | EventKind::QueueEnter => Some(("queued", 0)),
        EventKind::Complete { .. } => Some(("", 0)),
        _ => None,
    }
}

/// Render a journal snapshot as a Chrome trace-event JSON tree.
pub fn chrome_trace(events: &[Event]) -> Value {
    let mut out: Vec<Value> = Vec::new();
    out.push(obj(vec![
        ("name", Value::Str("process_name".to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::UInt(0)),
        ("args", obj(vec![("name", Value::Str("linger cluster".to_string()))])),
    ]));
    out.push(thread_name(0, "queue"));
    let mut named_nodes: Vec<u32> = events.iter().filter_map(|e| e.node).collect();
    for ev in events {
        if let EventKind::Decision { dest: Some(d), .. }
        | EventKind::MigrationStart { dest: d, .. }
        | EventKind::MigrationRetry { dest: d, .. }
        | EventKind::MigrationArrive { dest: d } = &ev.kind
        {
            named_nodes.push(*d);
        }
    }
    named_nodes.sort_unstable();
    named_nodes.dedup();
    for n in &named_nodes {
        out.push(thread_name(*n as u64 + 1, &format!("node {n}")));
    }

    // Per-job state machine → spans.
    let mut open: std::collections::BTreeMap<u32, OpenSpan> = std::collections::BTreeMap::new();
    let mut end_nanos = 0u64;
    for ev in events {
        end_nanos = end_nanos.max(ev.sim_nanos);
        out.push(instant(ev));
        let Some(job) = ev.job else { continue };
        let Some((state, tid)) = transition(ev, open.get(&job)) else { continue };
        if let Some(prev) = open.remove(&job) {
            if !prev.state.is_empty() {
                out.push(span(prev.state, job, &prev, ev.sim_nanos));
            }
        }
        if !state.is_empty() {
            open.insert(job, OpenSpan { state, since_nanos: ev.sim_nanos, tid });
        }
    }
    // Close whatever is still open at the journal's horizon.
    for (job, prev) in &open {
        if prev.since_nanos < end_nanos {
            out.push(span(prev.state, *job, prev, end_nanos));
        }
    }

    Value::Map(vec![
        ("traceEvents".to_string(), Value::Seq(out)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DecisionAction, Event, EventKind};

    fn place(w: u32, job: u32, dest: u32) -> Event {
        Event::new(
            w,
            w as u64 * 2_000_000_000,
            EventKind::Decision {
                action: DecisionAction::Place,
                host_cpu: None,
                dest_cpu: None,
                age_secs: None,
                migration_secs: None,
                dest: Some(dest),
            },
        )
        .for_job(job)
    }

    #[test]
    fn trace_has_spans_and_instants() {
        let events = vec![
            Event::new(0, 0, EventKind::WindowStart { queue_depth: 1 }),
            place(0, 0, 3),
            Event::new(
                2,
                4_000_000_000,
                EventKind::Decision {
                    action: DecisionAction::Linger,
                    host_cpu: Some(0.6),
                    dest_cpu: None,
                    age_secs: None,
                    migration_secs: None,
                    dest: None,
                },
            )
            .on_node(3)
            .for_job(0),
            Event::new(
                4,
                8_000_000_000,
                EventKind::Complete {
                    queued_secs: 0.0,
                    running_secs: 4.0,
                    lingering_secs: 4.0,
                    paused_secs: 0.0,
                    migrating_secs: 0.0,
                    completion_secs: 8.0,
                    migrations: 0,
                },
            )
            .on_node(3)
            .for_job(0),
        ];
        let trace = chrome_trace(&events);
        let Some(Value::Seq(evs)) = trace.get("traceEvents") else { panic!("traceEvents missing") };
        let phases: Vec<&str> = evs
            .iter()
            .filter_map(|e| match e.get("ph") {
                Some(Value::Str(s)) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert!(phases.contains(&"X"), "no spans in {phases:?}");
        assert!(phases.contains(&"i"), "no instants");
        assert!(phases.contains(&"M"), "no metadata");
        // The running span lives on node 3's lane (tid 4).
        let running = evs
            .iter()
            .find(|e| {
                matches!(e.get("ph"), Some(Value::Str(p)) if p == "X")
                    && matches!(e.get("name"), Some(Value::Str(n)) if n == "running")
            })
            .expect("running span");
        assert_eq!(running.get("tid"), Some(&Value::UInt(4)));
        // Deterministic bytes.
        assert_eq!(
            serde_json::to_string(&chrome_trace(&events)).unwrap(),
            serde_json::to_string(&trace).unwrap()
        );
    }
}
