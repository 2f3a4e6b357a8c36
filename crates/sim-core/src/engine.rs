//! The event loop.
//!
//! [`Engine`] drives a model implementing [`Simulation`]: it pops the
//! earliest pending event, advances the clock, and hands the event to the
//! model together with a [`Context`] through which the model schedules or
//! cancels further events. The loop stops when the event set drains or the
//! model calls [`Context::stop`].

use crate::queue::{EventHandle, EventQueue};
use crate::time::{SimDuration, SimTime};

/// The scheduling interface handed to a model while it handles an event.
pub struct Context<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    stop: &'a mut bool,
}

impl<'a, E> Context<'a, E> {
    /// Current simulated time (the timestamp of the event being handled).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `after` from now.
    pub fn schedule_in(&mut self, after: SimDuration, event: E) -> EventHandle {
        self.queue.schedule(self.now + after, event)
    }

    /// Schedule `event` at an absolute time (must not be in the past).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventHandle {
        debug_assert!(at >= self.now, "scheduling into the past: {at} < {}", self.now);
        self.queue.schedule(at, event)
    }

    /// Cancel a pending event. Returns `false` if it already fired.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle)
    }

    /// Ask the engine to stop after this event is handled.
    pub fn stop(&mut self) {
        *self.stop = true;
    }

    /// Number of pending events (diagnostic).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// A discrete-event model.
pub trait Simulation {
    /// The event alphabet of the model.
    type Event;

    /// Handle one event at its firing time.
    fn handle(&mut self, event: Self::Event, ctx: &mut Context<'_, Self::Event>);
}

/// Why an [`Engine`] run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// No pending events remain.
    Drained,
    /// The model requested a stop.
    Stopped,
}

/// The event loop driving a [`Simulation`].
pub struct Engine<S: Simulation> {
    sim: S,
    queue: EventQueue<S::Event>,
    now: SimTime,
    events_handled: u64,
}

impl<S: Simulation> Engine<S> {
    /// Wrap a model; time starts at zero with an empty event set.
    pub fn new(sim: S) -> Self {
        Engine {
            sim,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            events_handled: 0,
        }
    }

    /// Seed an event before the run starts.
    pub fn prime(&mut self, at: SimTime, event: S::Event) -> EventHandle {
        self.queue.schedule(at, event)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events handled so far.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Access the model.
    pub fn model(&self) -> &S {
        &self.sim
    }

    /// Mutable access to the model (between runs).
    pub fn model_mut(&mut self) -> &mut S {
        &mut self.sim
    }

    /// Consume the engine and return the model.
    pub fn into_model(self) -> S {
        self.sim
    }

    /// Run until the event set drains or the model stops the run. The
    /// clock rests at the last event handled.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        let mut stop = false;
        while let Some((at, event)) = self.queue.pop_due(SimTime::MAX) {
            debug_assert!(at >= self.now, "event queue yielded past event");
            self.now = at;
            self.events_handled += 1;
            let mut ctx = Context { now: self.now, queue: &mut self.queue, stop: &mut stop };
            self.sim.handle(event, &mut ctx);
            if stop {
                return RunOutcome::Stopped;
            }
        }
        RunOutcome::Drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that counts down, rescheduling itself every second.
    struct Countdown {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    enum Tick {
        Tick,
    }

    impl Simulation for Countdown {
        type Event = Tick;
        fn handle(&mut self, _e: Tick, ctx: &mut Context<'_, Tick>) {
            self.fired_at.push(ctx.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule_in(SimDuration::from_secs(1), Tick::Tick);
            }
        }
    }

    #[test]
    fn chain_of_events_advances_clock() {
        let mut eng = Engine::new(Countdown { remaining: 3, fired_at: vec![] });
        eng.prime(SimTime::ZERO, Tick::Tick);
        let outcome = eng.run_to_completion();
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(eng.model().fired_at.len(), 4);
        assert_eq!(eng.now(), SimTime::from_secs(3));
        assert_eq!(eng.events_handled(), 4);
    }

    struct Stopper;
    impl Simulation for Stopper {
        type Event = u32;
        fn handle(&mut self, e: u32, ctx: &mut Context<'_, u32>) {
            if e == 2 {
                ctx.stop();
            }
        }
    }

    #[test]
    fn model_can_stop_the_run() {
        let mut eng = Engine::new(Stopper);
        eng.prime(SimTime::from_secs(1), 1);
        eng.prime(SimTime::from_secs(2), 2);
        eng.prime(SimTime::from_secs(3), 3);
        assert_eq!(eng.run_to_completion(), RunOutcome::Stopped);
        assert_eq!(eng.now(), SimTime::from_secs(2));
    }

    struct Canceller {
        victim: Option<crate::queue::EventHandle>,
        fired: Vec<u32>,
    }
    impl Simulation for Canceller {
        type Event = u32;
        fn handle(&mut self, e: u32, ctx: &mut Context<'_, u32>) {
            self.fired.push(e);
            if e == 1 {
                if let Some(h) = self.victim.take() {
                    assert!(ctx.cancel(h));
                }
            }
        }
    }

    #[test]
    fn cancellation_through_context() {
        let mut eng = Engine::new(Canceller { victim: None, fired: vec![] });
        eng.prime(SimTime::from_secs(1), 1);
        let h = eng.prime(SimTime::from_secs(2), 2);
        eng.prime(SimTime::from_secs(3), 3);
        eng.model_mut().victim = Some(h);
        eng.run_to_completion();
        assert_eq!(eng.model().fired, vec![1, 3]);
    }
}
