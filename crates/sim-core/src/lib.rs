//! # linger-sim-core
//!
//! Deterministic discrete-event simulation substrate for the reproduction of
//! *Linger Longer: Fine-Grain Cycle Stealing for Networks of Workstations*
//! (Ryu & Hollingsworth, SC 1998).
//!
//! The paper evaluates its scheduling policy entirely by simulation; this
//! crate provides the three primitives every simulator in the workspace is
//! built on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time;
//! * [`EventQueue`] / [`Engine`] — a pending-event set with stable
//!   tie-breaking and a generic event loop;
//! * [`RngFactory`] — per-component deterministic random streams, enabling
//!   common-random-number comparison of scheduling policies;
//! * [`NodeIndex`] — incrementally maintained node-id sets (two-level
//!   bitsets) that replace per-window full scans in the cluster
//!   simulators;
//! * [`par_map_indexed`] — deterministic fan-out of independent
//!   simulation units (replications, sweep points) across scoped worker
//!   threads, with results in index order at any thread count;
//! * [`ShardPlan`] — word-aligned contiguous partitions of a node-id
//!   space, letting one window sweep be advanced by cooperating shards
//!   whose results merge back in index order; [`ShardPlan::run`] is the
//!   one place that decides whether the shards run on threads.
//!
//! ## Example
//!
//! ```
//! use linger_sim_core::{Engine, Simulation, Context, SimTime, SimDuration};
//!
//! struct Pinger { pings: u32 }
//! impl Simulation for Pinger {
//!     type Event = ();
//!     fn handle(&mut self, _: (), ctx: &mut Context<'_, ()>) {
//!         self.pings += 1;
//!         if self.pings < 10 {
//!             ctx.schedule_in(SimDuration::from_millis(100), ());
//!         }
//!     }
//! }
//!
//! let mut eng = Engine::new(Pinger { pings: 0 });
//! eng.prime(SimTime::ZERO, ());
//! eng.run_to_completion();
//! assert_eq!(eng.model().pings, 10);
//! assert_eq!(eng.now(), SimTime::from_millis(900));
//! ```

#![warn(missing_docs)]

mod engine;
mod fsio;
mod hint;
mod index;
mod par;
mod queue;
mod rng;
mod shard;
mod time;

pub use engine::{Context, Engine, RunOutcome, Simulation};
pub use fsio::write_atomic;
pub use hint::prefetch_read;
pub use index::NodeIndex;
pub use par::{default_jobs, par_map_indexed, set_default_jobs, try_par_map_indexed, CellPanic};
pub use queue::{EventHandle, EventQueue};
pub use shard::{default_shard_count, ShardPlan, SHARD_MIN_NODES};
pub use rng::{domains, replication_seed, RngFactory, SimRng, StreamId};
pub use time::{SimDuration, SimTime, NANOS_PER_MICRO, NANOS_PER_MILLI, NANOS_PER_SEC};
