//! The simulation engine: a virtual clock plus an event queue.
//!
//! The engine deliberately does *not* own the world it drives. A driver
//! (see `agentgrid::experiment`) owns both the [`Simulation`] and its own
//! state, and pulls events out one at a time:
//!
//! ```
//! use agentgrid_sim::{Simulation, SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut sim = Simulation::new();
//! sim.schedule(SimTime::from_secs(3), Ev::Ping(1));
//! let mut fired = vec![];
//! while let Some(ev) = sim.step() {
//!     // Handlers may schedule follow-up events through `sim`.
//!     if let Ev::Ping(n) = ev {
//!         if n < 3 {
//!             sim.schedule_in(SimDuration::from_secs(1), Ev::Ping(n + 1));
//!         }
//!         fired.push(n);
//!     }
//! }
//! assert_eq!(fired, [1, 2, 3]);
//! assert_eq!(sim.now(), SimTime::from_secs(5));
//! ```

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use agentgrid_telemetry::{Event, Telemetry};

/// How often the engine emits an [`Event::EngineStep`] progress marker
/// when telemetry is enabled.
const STEP_MARK_EVERY: u64 = 256;

/// A virtual clock driving an event queue of type `E`.
pub struct Simulation<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    horizon: Option<SimTime>,
    step_limit: Option<u64>,
    telemetry: Telemetry,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// A fresh simulation with the clock at zero, on a fresh event queue.
    pub fn new() -> Self {
        Self::with_queue(EventQueue::new())
    }

    /// A fresh simulation driving the given event queue — typically a
    /// recycled one (see [`EventQueue::reset`]), so its allocations stay
    /// warm across runs.
    pub fn with_queue(queue: EventQueue<E>) -> Self {
        Simulation {
            queue,
            now: SimTime::ZERO,
            processed: 0,
            horizon: None,
            step_limit: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Record periodic [`Event::EngineStep`] markers (and horizon events)
    /// through `telemetry`. Disabled by default.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Stop delivering events scheduled after `at` (they remain queued but
    /// [`Simulation::step`] returns `None`). Useful for bounded experiment
    /// runs and for defensive termination in tests.
    pub fn set_horizon(&mut self, at: SimTime) {
        self.horizon = Some(at);
        self.telemetry
            .emit(self.now.ticks(), || Event::EngineHorizon {
                horizon: at.ticks(),
            });
    }

    /// Refuse to deliver more than `limit` events in total: once
    /// [`Simulation::processed`] reaches the limit, [`Simulation::step`]
    /// returns `None` with events still queued. A livelock guard for
    /// fuzzing and defensive tests — a buggy handler that reschedules
    /// forever terminates instead of hanging, and the caller can detect
    /// the tripped limit via [`Simulation::step_limit_reached`].
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = Some(limit);
    }

    /// Whether a step limit is set and has been exhausted.
    pub fn step_limit_reached(&self) -> bool {
        self.step_limit.is_some_and(|l| self.processed >= l)
    }

    /// How many more events the step limit permits (`None` = unlimited).
    /// Batch drivers use this to bound speculative [`Simulation::pop_entry`]
    /// runs so replay can never trip the limit mid-batch.
    pub fn steps_remaining(&self) -> Option<u64> {
        self.step_limit.map(|l| l.saturating_sub(self.processed))
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The delivery horizon, if one was set.
    pub fn horizon(&self) -> Option<SimTime> {
        self.horizon
    }

    /// Number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The instant of the next pending event without delivering it, or
    /// `None` when the queue is empty. Ignores horizon and step limits —
    /// this is an injection hook for external drivers (the serve loop)
    /// that interleave runtime event injection with stepping: inject
    /// everything due at or before `peek_at()`, then `step()`.
    pub fn peek_at(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to the
    /// current instant (and will still fire) so that rounding at second
    /// boundaries can never deadlock a run, but debug builds assert.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        self.queue.push(at.max(self.now), event);
    }

    /// Schedule `event` after `delay` from the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Remove and return the earliest queue entry — `(time, seq, event)`
    /// — *without* advancing the clock, the processed counter or the
    /// step-marker telemetry. Ignores horizon and step limits.
    ///
    /// This is the speculative half of the sharded batch protocol: a
    /// driver inspects upcoming entries, then puts every one of them
    /// back with [`Simulation::restore_entry`] and re-delivers through
    /// [`Simulation::step`], so the observable run (clock, counters,
    /// telemetry, FIFO order) is identical to never having peeked.
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        self.queue.pop_entry()
    }

    /// Put back an entry obtained from [`Simulation::pop_entry`] under
    /// its original `(time, seq)` key. The sequence counter is not
    /// advanced, so events scheduled afterwards still order after it.
    pub fn restore_entry(&mut self, at: SimTime, seq: u64, event: E) {
        self.queue.push_at_seq(at, seq, event);
    }

    /// Pre-size queue storage for about `additional` pending events
    /// (see [`EventQueue::reserve`]).
    pub fn reserve(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Tear the simulation down and recover its event queue for reuse
    /// (reset and handed to [`Simulation::with_queue`] again), keeping
    /// the queue's grown allocations across runs.
    pub fn into_queue(self) -> EventQueue<E> {
        let mut queue = self.queue;
        queue.reset();
        queue
    }

    /// Advance to and return the next event, or `None` when the queue is
    /// exhausted or the horizon has been reached.
    pub fn step(&mut self) -> Option<E> {
        if self.step_limit_reached() {
            return None;
        }
        if let (Some(h), Some(t)) = (self.horizon, self.queue.peek_time()) {
            if t > h {
                return None;
            }
        }
        let (at, event) = self.queue.pop()?;
        self.now = at;
        self.processed += 1;
        if self.processed.is_multiple_of(STEP_MARK_EVERY) {
            let (processed, pending) = (self.processed, self.queue.len() as u64);
            self.telemetry.emit(self.now.ticks(), || Event::EngineStep {
                processed,
                pending,
            });
        }
        Some(event)
    }

    /// Run to completion, invoking `handler` for every event. The handler
    /// receives the simulation so it can schedule follow-ups.
    pub fn run_with<W>(
        &mut self,
        world: &mut W,
        mut handler: impl FnMut(&mut W, &mut Simulation<E>, E),
    ) {
        while let Some(ev) = self.step() {
            handler(world, self, ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn clock_advances_with_events() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_secs(2), Ev::Tick(0));
        sim.schedule(SimTime::from_secs(8), Ev::Tick(1));
        assert_eq!(sim.step(), Some(Ev::Tick(0)));
        assert_eq!(sim.now(), SimTime::from_secs(2));
        assert_eq!(sim.step(), Some(Ev::Tick(1)));
        assert_eq!(sim.now(), SimTime::from_secs(8));
        assert_eq!(sim.step(), None);
        assert_eq!(sim.processed(), 2);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_secs(5), Ev::Tick(0));
        sim.step();
        sim.schedule_in(SimDuration::from_secs(3), Ev::Tick(1));
        sim.step();
        assert_eq!(sim.now(), SimTime::from_secs(8));
    }

    #[test]
    fn horizon_stops_delivery() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::from_secs(1), Ev::Tick(0));
        sim.schedule(SimTime::from_secs(100), Ev::Tick(1));
        sim.set_horizon(SimTime::from_secs(50));
        assert_eq!(sim.step(), Some(Ev::Tick(0)));
        assert_eq!(sim.step(), None);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn step_limit_stops_runaway_delivery() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::ZERO, Ev::Tick(0));
        sim.set_step_limit(5);
        let mut fired = 0;
        while let Some(Ev::Tick(n)) = sim.step() {
            fired += 1;
            // A livelocked handler: always reschedules itself.
            sim.schedule_in(SimDuration::from_secs(1), Ev::Tick(n + 1));
        }
        assert_eq!(fired, 5);
        assert!(sim.step_limit_reached());
        assert_eq!(sim.pending(), 1, "the runaway event is still queued");
    }

    #[test]
    fn run_with_drives_world() {
        let mut sim = Simulation::new();
        sim.schedule(SimTime::ZERO, Ev::Tick(3));
        let mut total = 0u32;
        sim.run_with(&mut total, |total, sim, ev| {
            let Ev::Tick(n) = ev;
            *total += n;
            if n > 1 {
                sim.schedule_in(SimDuration::from_secs(1), Ev::Tick(n - 1));
            }
        });
        assert_eq!(total, 3 + 2 + 1);
    }
}
