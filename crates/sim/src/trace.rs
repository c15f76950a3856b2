//! Bounded event tracing for debugging simulation runs.

use std::collections::VecDeque;

use crate::time::SimTime;

/// A bounded ring buffer of timestamped trace records.
///
/// Keeps the most recent `capacity` records; older ones are evicted. Useful
/// for post-mortem inspection of a simulation without unbounded memory.
///
/// # Examples
///
/// ```
/// use tempriv_sim::trace::Trace;
/// use tempriv_sim::time::SimTime;
///
/// let mut trace = Trace::with_capacity(2);
/// trace.record(SimTime::from_units(1.0), "a");
/// trace.record(SimTime::from_units(2.0), "b");
/// trace.record(SimTime::from_units(3.0), "c");
/// let kept: Vec<_> = trace.iter().map(|(_, e)| *e).collect();
/// assert_eq!(kept, vec!["b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct Trace<E> {
    records: VecDeque<(SimTime, E)>,
    capacity: usize,
    dropped: u64,
}

impl<E> Trace<E> {
    /// Creates a trace retaining at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            records: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends a record, evicting the oldest if at capacity.
    #[inline]
    pub fn record(&mut self, time: SimTime, event: E) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back((time, event));
    }

    /// Iterates over retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, E)> {
        self.records.iter()
    }

    /// Number of retained records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no records are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records evicted due to capacity.
    #[must_use]
    pub const fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Maximum number of records retained before eviction starts.
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// Removes all retained records and resets the eviction count,
    /// returning the trace to its freshly constructed state — intended
    /// for reuse between runs.
    pub fn clear(&mut self) {
        self.records.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    #[test]
    fn retains_most_recent() {
        let mut tr = Trace::with_capacity(3);
        for i in 0..5 {
            tr.record(t(i as f64), i);
        }
        let kept: Vec<_> = tr.iter().map(|&(_, e)| e).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(tr.dropped(), 2);
        assert_eq!(tr.len(), 3);
    }

    #[test]
    fn clear_resets_records_and_eviction_count() {
        let mut tr = Trace::with_capacity(2);
        for i in 0..5 {
            tr.record(t(i as f64), i);
        }
        assert_eq!(tr.dropped(), 3);
        tr.clear();
        assert!(tr.is_empty());
        assert_eq!(tr.dropped(), 0);
        // The trace is reusable after clearing.
        tr.record(t(9.0), 9);
        assert_eq!(tr.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Trace::<()>::with_capacity(0);
    }
}
