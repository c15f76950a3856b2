//! Admission control: a bounded queue plus per-tenant quotas.
//!
//! The server admits a *cold* job (one that needs simulation) only while
//! the total number of queued-or-running jobs is below `max_queue` and
//! the submitting tenant holds fewer than `tenant_quota` of them. Warm
//! submissions answered straight from the content-addressed cache do no
//! work, so they bypass admission entirely — a tenant replaying cached
//! sweeps can never starve one submitting fresh work, and vice versa a
//! noisy tenant flooding cold jobs hits its own quota long before the
//! shared queue bound.
//!
//! Rejections map to HTTP `429 Too Many Requests` with a `Retry-After`
//! estimate derived from the current backlog.

use std::collections::HashMap;

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The shared queued-or-running bound is exhausted.
    QueueFull,
    /// The submitting tenant is at its per-tenant quota.
    TenantQuota,
}

impl RejectReason {
    /// Short machine-readable label (used in responses and metrics).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::TenantQuota => "tenant_quota",
        }
    }
}

/// Tracks active (queued + running) cold jobs globally and per tenant.
#[derive(Debug)]
pub struct Admission {
    max_queue: usize,
    tenant_quota: usize,
    active_total: usize,
    per_tenant: HashMap<String, usize>,
}

impl Admission {
    /// A controller with the given shared bound and per-tenant quota.
    #[must_use]
    pub fn new(max_queue: usize, tenant_quota: usize) -> Self {
        Admission {
            max_queue: max_queue.max(1),
            tenant_quota: tenant_quota.max(1),
            active_total: 0,
            per_tenant: HashMap::new(),
        }
    }

    /// Admits one cold job for `tenant`, or says why not. On success the
    /// job counts as active until [`Admission::release`].
    ///
    /// # Errors
    ///
    /// [`RejectReason::QueueFull`] when the shared bound is exhausted,
    /// [`RejectReason::TenantQuota`] when this tenant is at quota.
    pub fn try_admit(&mut self, tenant: &str) -> Result<(), RejectReason> {
        if self.active_total >= self.max_queue {
            return Err(RejectReason::QueueFull);
        }
        let mine = self.per_tenant.get(tenant).copied().unwrap_or(0);
        if mine >= self.tenant_quota {
            return Err(RejectReason::TenantQuota);
        }
        self.active_total += 1;
        *self.per_tenant.entry(tenant.to_string()).or_insert(0) += 1;
        Ok(())
    }

    /// Admits unconditionally — used when rebuilding the queue from a
    /// journal, where refusing previously accepted work would lose it.
    pub fn force_admit(&mut self, tenant: &str) {
        self.active_total += 1;
        *self.per_tenant.entry(tenant.to_string()).or_insert(0) += 1;
    }

    /// Releases one active job of `tenant` (it finished or failed).
    pub fn release(&mut self, tenant: &str) {
        self.active_total = self.active_total.saturating_sub(1);
        if let Some(mine) = self.per_tenant.get_mut(tenant) {
            *mine = mine.saturating_sub(1);
            if *mine == 0 {
                self.per_tenant.remove(tenant);
            }
        }
    }

    /// The shared queued-or-running bound.
    #[must_use]
    pub fn max_queue(&self) -> usize {
        self.max_queue
    }

    /// A `Retry-After` estimate in whole seconds: how long until backlog
    /// the size of the current one drains through `workers` workers, each
    /// assumed to finish a job in about a second — coarse on purpose
    /// (admission has no latency model), but it scales with the backlog
    /// instead of telling every rejected client the same constant.
    #[must_use]
    pub fn retry_after_s(&self, workers: usize) -> u64 {
        (self.active_total / workers.max(1)).max(1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_full_rejects_everyone() {
        let mut adm = Admission::new(2, 10);
        adm.try_admit("a").unwrap();
        adm.try_admit("b").unwrap();
        assert_eq!(adm.try_admit("c"), Err(RejectReason::QueueFull));
        assert_eq!(adm.try_admit("a"), Err(RejectReason::QueueFull));
        adm.release("a");
        assert_eq!(adm.try_admit("c"), Ok(()));
        assert_eq!(adm.active_total, 2);
    }

    #[test]
    fn tenant_quota_isolates_a_noisy_tenant() {
        // The noisy tenant saturates its quota; the quiet one is
        // unaffected because the shared queue still has room.
        let mut adm = Admission::new(100, 3);
        for _ in 0..3 {
            adm.try_admit("noisy").unwrap();
        }
        assert_eq!(adm.try_admit("noisy"), Err(RejectReason::TenantQuota));
        assert_eq!(adm.per_tenant.get("noisy").copied().unwrap_or(0), 3);
        assert_eq!(adm.try_admit("quiet"), Ok(()), "quiet tenant unaffected");
        assert_eq!(adm.per_tenant.get("quiet").copied().unwrap_or(0), 1);
        // Releasing one of the noisy tenant's jobs reopens its quota.
        adm.release("noisy");
        assert_eq!(adm.try_admit("noisy"), Ok(()));
    }

    #[test]
    fn release_of_unknown_tenant_is_harmless() {
        let mut adm = Admission::new(4, 4);
        adm.release("ghost");
        assert_eq!(adm.active_total, 0);
        adm.try_admit("a").unwrap();
        adm.release("a");
        adm.release("a");
        assert_eq!(adm.active_total, 0);
        assert_eq!(adm.per_tenant.get("a").copied().unwrap_or(0), 0);
    }

    #[test]
    fn force_admit_bypasses_both_bounds() {
        let mut adm = Admission::new(1, 1);
        adm.force_admit("t");
        adm.force_admit("t");
        assert_eq!(adm.active_total, 2);
        assert_eq!(adm.try_admit("t"), Err(RejectReason::QueueFull));
    }

    #[test]
    fn retry_after_scales_with_backlog() {
        let mut adm = Admission::new(100, 100);
        assert_eq!(adm.retry_after_s(4), 1);
        for _ in 0..40 {
            adm.force_admit("t");
        }
        assert_eq!(adm.retry_after_s(4), 10);
        assert_eq!(adm.retry_after_s(0), 40, "zero workers clamps to one");
    }

    #[test]
    fn bounds_clamp_to_at_least_one() {
        let mut adm = Admission::new(0, 0);
        assert_eq!(adm.max_queue(), 1);
        assert_eq!(adm.try_admit("t"), Ok(()));
        assert_eq!(adm.try_admit("t"), Err(RejectReason::QueueFull));
    }
}
