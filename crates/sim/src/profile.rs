//! Phase vocabulary for engine self-profiling.
//!
//! The simulation driver attributes wall-time to coarse phases (event
//! dispatch by kind, queue pushes, victim selection, probe overhead) by
//! calling [`PhaseTimer::switch`] at phase boundaries. The kernel defines
//! only the vocabulary and the zero-cost default; recording
//! implementations live upstream (the telemetry crate's batched
//! `PhaseProfiler`). With [`NoopPhaseTimer`] every switch monomorphizes
//! to nothing, so un-profiled runs pay no cost at all.

/// Number of distinct [`Phase`] values (array-index bound).
pub const PHASE_COUNT: usize = 8;

/// A coarse wall-time attribution bucket inside the simulation driver.
///
/// `EngineLoop` is the residual: future-event-set pop/peek, scheduling
/// bookkeeping, and everything between the end of one handler region and
/// the start of the next. The remaining phases bracket the driver's
/// per-event work so the engine's own hot loop needs no instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Event-queue pop/peek and inter-handler residual time.
    EngineLoop,
    /// Handling packet-creation events (source arrivals).
    Create,
    /// Handling packet arrival at a node (buffering, mixing, forwarding).
    Arrive,
    /// Handling delay-timer release events (departures).
    Release,
    /// Scheduling future events into the event queue.
    QueuePush,
    /// Selecting a preemption victim in a full RCAD buffer.
    VictimSelect,
    /// Invoking observation probes (telemetry/trace/privacy hooks).
    Probe,
    /// Sharded-runner synchronization: waiting at the conservative
    /// time-window barrier and merging cross-shard handoffs. Serial runs
    /// never enter this phase.
    BarrierWait,
}

impl Phase {
    /// All phases, in index order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::EngineLoop,
        Phase::Create,
        Phase::Arrive,
        Phase::Release,
        Phase::QueuePush,
        Phase::VictimSelect,
        Phase::Probe,
        Phase::BarrierWait,
    ];

    /// Dense index of this phase (`0..PHASE_COUNT`).
    #[must_use]
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable display name (used in tables, JSON, and Chrome traces).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Phase::EngineLoop => "engine_loop",
            Phase::Create => "create",
            Phase::Arrive => "arrive",
            Phase::Release => "release",
            Phase::QueuePush => "queue_push",
            Phase::VictimSelect => "victim_select",
            Phase::Probe => "probe",
            Phase::BarrierWait => "barrier_wait",
        }
    }
}

/// Receiver for phase-boundary notifications from the driver.
///
/// `switch(phase)` declares "from now on, wall-time belongs to `phase`"
/// and returns the phase that was current before the call, so call sites
/// can bracket a region and restore the outer attribution:
///
/// ```
/// use tempriv_sim::profile::{NoopPhaseTimer, Phase, PhaseTimer};
///
/// let mut timer = NoopPhaseTimer;
/// let prev = timer.switch(Phase::VictimSelect);
/// // ... victim scan ...
/// timer.switch(prev);
/// ```
///
/// Implementations must be pure observers: no RNG, no scheduling, no
/// effect on simulation state. Timing is wall-clock and therefore
/// nondeterministic; it must never leak into outcomes or digests.
pub trait PhaseTimer {
    /// Attributes subsequent wall-time to `phase`; returns the previous
    /// phase. The default does nothing and reports `EngineLoop`.
    #[inline]
    fn switch(&mut self, phase: Phase) -> Phase {
        let _ = phase;
        Phase::EngineLoop
    }
}

/// The zero-cost default timer: every switch compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopPhaseTimer;

impl PhaseTimer for NoopPhaseTimer {}

impl<T: PhaseTimer + ?Sized> PhaseTimer for &mut T {
    #[inline]
    fn switch(&mut self, phase: Phase) -> Phase {
        (**self).switch(phase)
    }
}

/// An optional timer: `Some(t)` forwards every switch to `t`, `None`
/// behaves as [`NoopPhaseTimer`] (reporting `EngineLoop`) at the cost of
/// one predictable branch per switch.
impl<T: PhaseTimer> PhaseTimer for Option<T> {
    #[inline]
    fn switch(&mut self, phase: Phase) -> Phase {
        match self {
            Some(timer) => timer.switch(phase),
            None => Phase::EngineLoop,
        }
    }
}

/// Fans one phase switch out to two timers (e.g. a wall-clock profiler
/// paired with an allocation-scope timer). Both receive every switch,
/// so two tracking timers agree on the previous phase; a no-op half
/// (`None`, [`NoopPhaseTimer`]) always reports `EngineLoop`, so the pair
/// reports the other half's answer whenever the first says `EngineLoop`.
impl<A: PhaseTimer, B: PhaseTimer> PhaseTimer for (A, B) {
    #[inline]
    fn switch(&mut self, phase: Phase) -> Phase {
        let first = self.0.switch(phase);
        let second = self.1.switch(phase);
        if first == Phase::EngineLoop {
            second
        } else {
            first
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_named() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
            assert!(!phase.name().is_empty());
        }
        let mut names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PHASE_COUNT, "phase names are unique");
    }

    #[test]
    fn noop_timer_reports_engine_loop() {
        let mut timer = NoopPhaseTimer;
        assert_eq!(timer.switch(Phase::Probe), Phase::EngineLoop);
        let by_ref: &mut NoopPhaseTimer = &mut timer;
        assert_eq!(by_ref.switch(Phase::Create), Phase::EngineLoop);
    }

    /// Remembers the current phase, so `switch` reports a real previous
    /// phase instead of the default `EngineLoop`.
    struct Tracking(Phase);

    impl PhaseTimer for Tracking {
        fn switch(&mut self, phase: Phase) -> Phase {
            std::mem::replace(&mut self.0, phase)
        }
    }

    #[test]
    fn option_timer_forwards_or_acts_as_noop() {
        let mut some = Some(Tracking(Phase::EngineLoop));
        assert_eq!(some.switch(Phase::Arrive), Phase::EngineLoop);
        assert_eq!(some.switch(Phase::Probe), Phase::Arrive);
        assert_eq!(some.as_ref().map(|t| t.0), Some(Phase::Probe));
        let mut none: Option<Tracking> = None;
        assert_eq!(none.switch(Phase::Arrive), Phase::EngineLoop);
        assert_eq!(none.switch(Phase::Probe), Phase::EngineLoop);
    }

    #[test]
    fn pair_reports_the_tracking_half_whichever_side_it_is_on() {
        let mut left = (Some(Tracking(Phase::EngineLoop)), None::<Tracking>);
        let mut right = (None::<Tracking>, Some(Tracking(Phase::EngineLoop)));
        let mut both = (Tracking(Phase::EngineLoop), Tracking(Phase::EngineLoop));
        for (phase, prev) in [
            (Phase::Arrive, Phase::EngineLoop),
            (Phase::Probe, Phase::Arrive),
            (Phase::Arrive, Phase::Probe),
            (Phase::EngineLoop, Phase::Arrive),
        ] {
            assert_eq!(left.switch(phase), prev);
            assert_eq!(right.switch(phase), prev);
            assert_eq!(both.switch(phase), prev);
        }
    }
}
