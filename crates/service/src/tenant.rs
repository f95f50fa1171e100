//! Tenant identity and per-tenant admission quotas.
//!
//! A tenant is the unit of isolation the front door authenticates: each
//! one gets its own admission quota (in-flight and queue-depth caps on
//! top of the service's global bounds), a weighted share of the
//! scheduler's grants, its own latency histograms and `svc.tenant.<name>.*`
//! counters, and a private region of the fabric namespace space — session
//! namespaces are `((tenant_index + 1) << 32) | sequence`, which keeps
//! every tenant's sessions disjoint from every other's (and below bit 48,
//! where the adaptive controller's replan sub-namespaces live).

use std::time::Duration;

/// Opaque handle for a registered tenant (a dense index into the
/// scheduler's tenant table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub(crate) usize);

impl TenantId {
    /// The pre-registered tenant legacy (tenant-less) submissions run as:
    /// unlimited quota, weight 1.
    pub const DEFAULT: TenantId = TenantId(0);

    /// The dense index (also the high half of the tenant's fabric
    /// namespaces, plus one).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Per-tenant admission limits and scheduling weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Relative share of scheduler grants under fair scheduling (≥ 1).
    pub weight: u64,
    /// Queries this tenant may have executing at once, on top of the
    /// global `max_in_flight`.
    pub max_in_flight: usize,
    /// Queries this tenant may have queued at once; one more gets the
    /// typed, retryable `QuotaExceeded` error.
    pub max_queued: usize,
}

impl TenantQuota {
    /// No per-tenant caps — only the global bounds apply.
    pub fn unlimited() -> TenantQuota {
        TenantQuota {
            weight: 1,
            max_in_flight: usize::MAX,
            max_queued: usize::MAX,
        }
    }
}

impl Default for TenantQuota {
    fn default() -> TenantQuota {
        TenantQuota::unlimited()
    }
}

/// One query's deadline, as carried on the wire: caps the queue wait
/// below the service's global `queue_timeout`. Threaded through the
/// protocol now so early-approximate answers can use it later.
pub fn effective_timeout(queue_timeout: Duration, deadline: Option<Duration>) -> Duration {
    match deadline {
        Some(d) => d.min(queue_timeout),
        None => queue_timeout,
    }
}
