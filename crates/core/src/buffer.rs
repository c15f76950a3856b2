//! Buffer policies and the RCAD preemption rule (paper §5).
//!
//! A delaying node holds each packet until its private delay timer fires.
//! With a finite buffer of `k` slots, an arrival that finds the buffer
//! full must be handled:
//!
//! * **drop-tail** discards the arriving packet (the plain M/M/k/k model
//!   of §4), or
//! * **RCAD** preempts: it selects a *victim* among the buffered packets —
//!   the one with the shortest remaining delay, so the realized delays
//!   stay closest to the intended distribution — transmits it
//!   immediately, and buffers the new packet.
//!
//! The per-node buffer that applies these policies is
//! [`StoreBuffer`](crate::store::StoreBuffer).

use serde::{Deserialize, Serialize};

/// What a node does when a packet arrives and the buffer is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum BufferPolicy {
    /// No capacity limit — the idealized M/M/∞ of §4.
    Unlimited,
    /// `capacity` slots; arrivals beyond that are dropped.
    DropTail {
        /// Buffer slots.
        capacity: usize,
    },
    /// `capacity` slots; arrivals beyond that preempt a victim, which is
    /// transmitted immediately (Rate-Controlled Adaptive Delaying).
    Rcad {
        /// Buffer slots.
        capacity: usize,
        /// How the victim is chosen.
        victim: VictimPolicy,
    },
    /// A Chaum-style threshold mix (related work, §6): packets wait with
    /// *no* individual timers; once `threshold` are buffered the node
    /// flushes them all at once. The node's delay plan is ignored —
    /// batching, not random delay, provides the obfuscation.
    ThresholdMix {
        /// Batch size that triggers a flush.
        threshold: usize,
    },
}

impl BufferPolicy {
    /// The paper's evaluation configuration: RCAD with the Mica-2-like
    /// 10-slot buffer and shortest-remaining-delay victims.
    #[must_use]
    pub const fn paper_rcad() -> Self {
        BufferPolicy::Rcad {
            capacity: 10,
            victim: VictimPolicy::ShortestRemaining,
        }
    }

    /// Buffer capacity, if finite (for a threshold mix this is the batch
    /// size — the most it ever holds).
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        match *self {
            BufferPolicy::Unlimited => None,
            BufferPolicy::DropTail { capacity } | BufferPolicy::Rcad { capacity, .. } => {
                Some(capacity)
            }
            BufferPolicy::ThresholdMix { threshold } => Some(threshold),
        }
    }

    /// Validates the policy (finite capacities must be positive).
    ///
    /// # Errors
    ///
    /// Returns a message describing the problem.
    pub fn validate(&self) -> Result<(), String> {
        match self.capacity() {
            Some(0) => Err("finite buffer capacity must be at least 1".into()),
            _ => Ok(()),
        }
    }
}

/// Victim-selection rule for RCAD preemption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum VictimPolicy {
    /// The packet with the least remaining delay — the paper's choice,
    /// keeping realized delays closest to the intended distribution.
    ShortestRemaining,
    /// The packet with the most remaining delay (ablation).
    LongestRemaining,
    /// A uniformly random buffered packet (ablation).
    Random,
    /// The packet buffered earliest (FIFO head, ablation).
    Oldest,
}

impl VictimPolicy {
    /// Stable snake_case name, used to label preemption trace events.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            VictimPolicy::ShortestRemaining => "shortest_remaining",
            VictimPolicy::LongestRemaining => "longest_remaining",
            VictimPolicy::Random => "random",
            VictimPolicy::Oldest => "oldest",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_helpers() {
        assert_eq!(BufferPolicy::paper_rcad().capacity(), Some(10));
        assert_eq!(BufferPolicy::Unlimited.capacity(), None);
        assert!(BufferPolicy::Unlimited.validate().is_ok());
        assert!(BufferPolicy::DropTail { capacity: 0 }.validate().is_err());
        assert!(BufferPolicy::paper_rcad().validate().is_ok());
        assert_eq!(
            BufferPolicy::ThresholdMix { threshold: 5 }.capacity(),
            Some(5)
        );
        assert!(BufferPolicy::ThresholdMix { threshold: 0 }
            .validate()
            .is_err());
    }
}
