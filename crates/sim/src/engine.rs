//! Discrete-event simulation engine.
//!
//! [`Engine`] owns the clock and the future-event set and delivers events in
//! non-decreasing time order to a handler closure. The handler receives a
//! [`Scheduler`] view through which it can schedule and cancel further
//! events, so simulation state structs never have to fight the borrow
//! checker over the queue.

use crate::error::{SimError, SimResult};
use crate::queue::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// Why [`Engine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The future-event set drained completely.
    Exhausted,
    /// The configured horizon was reached with events still pending.
    HorizonReached,
    /// The configured event budget was spent.
    EventBudget,
}

/// Scheduling interface handed to event handlers.
///
/// Wraps the engine's queue and current time; created by the engine for the
/// duration of one event delivery.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// The time of the event being handled.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire `delay` after now.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.queue.push(self.now + delay, payload)
    }

    /// Schedules `payload` at an absolute instant.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleInPast`] if `at` is before the current
    /// simulation time.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> SimResult<EventId> {
        if at < self.now {
            return Err(SimError::ScheduleInPast { at, now: self.now });
        }
        Ok(self.queue.push(at, payload))
    }

    /// Cancels a pending event; `true` if it was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// `true` if the event is still scheduled.
    #[must_use]
    pub fn is_pending(&self, id: EventId) -> bool {
        self.queue.is_pending(id)
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// A deterministic discrete-event simulation loop.
///
/// # Examples
///
/// Count ticks of a self-rescheduling timer until the horizon:
///
/// ```
/// use tempriv_sim::engine::{Engine, StopReason};
/// use tempriv_sim::time::{SimDuration, SimTime};
///
/// let mut engine = Engine::new();
/// engine.schedule_at(SimTime::ZERO, ()).unwrap();
/// let mut ticks = 0u32;
/// let reason = engine
///     .horizon(SimTime::from_units(10.0))
///     .run(|sched, ()| {
///         ticks += 1;
///         sched.schedule_in(SimDuration::from_units(1.0), ());
///     });
/// assert_eq!(reason, StopReason::HorizonReached);
/// assert_eq!(ticks, 11); // t = 0, 1, ..., 10
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    horizon: SimTime,
    event_budget: Option<u64>,
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with an unbounded horizon.
    #[must_use]
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon: SimTime::MAX,
            event_budget: None,
        }
    }

    /// Sets the inclusive time horizon; events after it are not delivered.
    pub fn horizon(&mut self, horizon: SimTime) -> &mut Self {
        self.horizon = horizon;
        self
    }

    /// Caps the total number of events delivered by [`Engine::run`]; a
    /// safety net against runaway self-scheduling loops.
    pub fn event_budget(&mut self, budget: u64) -> &mut Self {
        self.event_budget = Some(budget);
        self
    }

    /// Current simulation time (the time of the last delivered event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total events delivered so far.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.queue.delivered()
    }

    /// High-water mark of the future-event set over the engine's lifetime.
    #[must_use]
    pub fn peak_pending(&self) -> usize {
        self.queue.peak_len()
    }

    /// Entries physically held by the future-event heap right now,
    /// including not-yet-collected cancellation tombstones (see
    /// [`EventQueue::footprint`]).
    #[must_use]
    pub fn queue_footprint(&self) -> usize {
        self.queue.footprint()
    }

    /// Tombstone compaction passes the future-event queue has performed
    /// (see [`EventQueue::compactions`]).
    #[must_use]
    pub fn queue_compactions(&self) -> u64 {
        self.queue.compactions()
    }

    /// Schedules an event before the run starts (or between runs).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduleInPast`] if `at` is before current time.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> SimResult<EventId> {
        if at < self.now {
            return Err(SimError::ScheduleInPast { at, now: self.now });
        }
        Ok(self.queue.push(at, payload))
    }

    /// Timestamp of the next pending event, if any. Ignores the horizon:
    /// this is what the queue holds, not what `run` would deliver.
    #[must_use]
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Runs until the queue drains, the horizon passes or the event budget
    /// is spent. Returns why it stopped.
    ///
    /// The handler is invoked once per delivered event with a [`Scheduler`]
    /// positioned at the event's timestamp.
    pub fn run<F>(&mut self, handler: F) -> StopReason
    where
        F: FnMut(&mut Scheduler<'_, E>, E),
    {
        self.run_bounded(None, handler)
    }

    /// Runs like [`Engine::run`] but delivers only events strictly before
    /// `bound`, then returns [`StopReason::HorizonReached`] with the
    /// remaining events intact. The clock is left at the last delivered
    /// event, so a later `run_before` (or `run`) call resumes seamlessly —
    /// this is the window primitive conservative parallel runners build
    /// their barriers on: everything in `[now, bound)` is safe to process
    /// when cross-partition influences cannot arrive before `bound`.
    pub fn run_before<F>(&mut self, bound: SimTime, handler: F) -> StopReason
    where
        F: FnMut(&mut Scheduler<'_, E>, E),
    {
        self.run_bounded(Some(bound), handler)
    }

    fn run_bounded<F>(&mut self, bound: Option<SimTime>, mut handler: F) -> StopReason
    where
        F: FnMut(&mut Scheduler<'_, E>, E),
    {
        let mut remaining = self.event_budget;
        loop {
            if let Some(0) = remaining {
                return StopReason::EventBudget;
            }
            let Some(next_time) = self.queue.peek_time() else {
                return StopReason::Exhausted;
            };
            if let Some(bound) = bound {
                if next_time >= bound {
                    return StopReason::HorizonReached;
                }
            }
            if next_time > self.horizon {
                return StopReason::HorizonReached;
            }
            let (time, payload) = self.queue.pop().expect("peeked event must pop");
            debug_assert!(time >= self.now, "event queue violated time order");
            self.now = time;
            let mut sched = Scheduler {
                now: time,
                queue: &mut self.queue,
            };
            handler(&mut sched, payload);
            if let Some(r) = remaining.as_mut() {
                *r -= 1;
            }
        }
    }

    /// Delivers at most one event; returns its time and payload, or `None`
    /// if the queue is empty or the next event lies beyond the horizon.
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        let next_time = self.queue.peek_time()?;
        if next_time > self.horizon {
            return None;
        }
        let (time, payload) = self.queue.pop()?;
        self.now = time;
        Some((time, payload))
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    fn d(u: f64) -> SimDuration {
        SimDuration::from_units(u)
    }

    #[test]
    fn delivers_in_order_and_advances_clock() {
        let mut engine = Engine::new();
        engine.schedule_at(t(2.0), "b").unwrap();
        engine.schedule_at(t(1.0), "a").unwrap();
        let mut seen = Vec::new();
        let reason = engine.run(|sched, ev| seen.push((sched.now(), ev)));
        assert_eq!(reason, StopReason::Exhausted);
        assert_eq!(seen, vec![(t(1.0), "a"), (t(2.0), "b")]);
        assert_eq!(engine.now(), t(2.0));
    }

    #[test]
    fn horizon_stops_delivery() {
        let mut engine = Engine::new();
        engine.schedule_at(t(1.0), 1).unwrap();
        engine.schedule_at(t(100.0), 2).unwrap();
        engine.horizon(t(10.0));
        let mut seen = Vec::new();
        let reason = engine.run(|_, ev| seen.push(ev));
        assert_eq!(reason, StopReason::HorizonReached);
        assert_eq!(seen, vec![1]);
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn handler_can_schedule_and_cancel() {
        let mut engine = Engine::new();
        engine.schedule_at(t(0.0), "seed").unwrap();
        let mut log = Vec::new();
        engine.run(|sched, ev| {
            log.push(ev);
            if ev == "seed" {
                let doomed = sched.schedule_in(d(5.0), "doomed");
                sched.schedule_in(d(1.0), "kept");
                assert!(sched.cancel(doomed));
                assert!(!sched.is_pending(doomed));
            }
        });
        assert_eq!(log, vec!["seed", "kept"]);
    }

    #[test]
    fn event_budget_limits_deliveries() {
        let mut engine = Engine::new();
        engine.schedule_at(t(0.0), ()).unwrap();
        engine.event_budget(10);
        let reason = engine.run(|sched, ()| {
            sched.schedule_in(d(1.0), ());
        });
        assert_eq!(reason, StopReason::EventBudget);
        assert_eq!(engine.delivered(), 10);
    }

    #[test]
    fn schedule_in_past_is_rejected() {
        let mut engine = Engine::new();
        engine.schedule_at(t(5.0), ()).unwrap();
        engine.run(|_, ()| {});
        let err = engine.schedule_at(t(1.0), ()).unwrap_err();
        assert!(matches!(err, SimError::ScheduleInPast { .. }));
    }

    #[test]
    fn scheduler_rejects_past_absolute_times() {
        let mut engine = Engine::new();
        engine.schedule_at(t(5.0), ()).unwrap();
        let mut saw_err = false;
        engine.run(|sched, ()| {
            saw_err = sched.schedule_at(t(1.0), ()).is_err();
        });
        assert!(saw_err);
    }

    #[test]
    fn step_delivers_single_events() {
        let mut engine = Engine::new();
        engine.schedule_at(t(1.0), 1).unwrap();
        engine.schedule_at(t(2.0), 2).unwrap();
        assert_eq!(engine.step(), Some((t(1.0), 1)));
        assert_eq!(engine.step(), Some((t(2.0), 2)));
        assert_eq!(engine.step(), None);
    }

    #[test]
    fn run_before_windows_compose_into_a_full_run() {
        let build = |engine: &mut Engine<u32>| {
            for i in 0..6 {
                engine.schedule_at(t(i as f64), i).unwrap();
            }
        };
        let mut whole = Engine::new();
        build(&mut whole);
        let mut all = Vec::new();
        whole.run(|sched, ev| all.push((sched.now(), ev)));

        let mut windowed = Engine::new();
        build(&mut windowed);
        let mut seen = Vec::new();
        let mut window = t(0.0);
        while let Some(next) = windowed.next_time() {
            assert!(next >= window, "windows never re-deliver the past");
            window = next + d(2.0);
            let reason = windowed.run_before(window, |sched, ev| seen.push((sched.now(), ev)));
            assert!(matches!(
                reason,
                StopReason::HorizonReached | StopReason::Exhausted
            ));
            // The bound is exclusive: nothing at or past it was delivered.
            for &(at, _) in &seen {
                assert!(at < window);
            }
        }
        assert_eq!(seen, all);
        assert_eq!(windowed.next_time(), None);
    }

    #[test]
    fn run_before_leaves_later_events_pending() {
        let mut engine = Engine::new();
        engine.schedule_at(t(1.0), 1).unwrap();
        engine.schedule_at(t(5.0), 5).unwrap();
        let mut seen = Vec::new();
        let reason = engine.run_before(t(5.0), |_, ev| seen.push(ev));
        assert_eq!(reason, StopReason::HorizonReached);
        assert_eq!(seen, vec![1], "an event exactly at the bound must wait");
        assert_eq!(engine.pending(), 1);
        assert_eq!(engine.next_time(), Some(t(5.0)));
        // Cross-window insertions land before the pending tail.
        engine.schedule_at(t(3.0), 3).unwrap();
        let reason = engine.run(|_, ev| seen.push(ev));
        assert_eq!(reason, StopReason::Exhausted);
        assert_eq!(seen, vec![1, 3, 5]);
    }

    #[test]
    fn run_resumes_after_stop() {
        let mut engine = Engine::new();
        for i in 0..4 {
            engine.schedule_at(t(i as f64), i).unwrap();
        }
        engine.event_budget(2);
        let mut first = Vec::new();
        let reason = engine.run(|_, ev| first.push(ev));
        assert_eq!(reason, StopReason::EventBudget);
        assert_eq!(engine.pending(), 2);
        let mut second = Vec::new();
        engine.run(|_, ev| second.push(ev));
        assert_eq!(first, vec![0, 1]);
        assert_eq!(second, vec![2, 3]);
        assert_eq!(engine.pending(), 0);
    }
}
