//! Admission control: the overload valve.
//!
//! An online scheduler that accepts every arrival under saturation grows
//! its pending queue (and its rescheduling batches) without bound — each
//! batch replan is `O(batch)`, so overload also slows the scheduler itself.
//! Admission control sheds load *before* it enters the system; rejected
//! queries are counted in the metrics, never queued.
//!
//! Multi-tenant services shed *by class*: the [`LoadStatus`] names the
//! arriving query's SLA class, its priority, and its class-local queue
//! depth, so policies can protect tight SLAs by shedding the loosest
//! (lowest-priority) classes first — see [`AdmissionPolicy::PriorityShed`].

use wisedb_core::{Millis, TenantId};

/// The load signals an admission decision may consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadStatus {
    /// Current virtual time.
    pub now: Millis,
    /// Queries queued but not yet started, fleet-wide.
    pub pending: usize,
    /// Queries admitted but not yet finished (pending + executing).
    pub in_flight: u64,
    /// VMs provisioned and not yet released.
    pub vms_in_flight: usize,
    /// The arriving query's SLA class.
    pub class: TenantId,
    /// The arriving class's shedding priority (higher keeps working
    /// longer under priority-aware policies).
    pub priority: u8,
    /// Queries of the arriving class queued but not yet started.
    pub class_pending: usize,
}

/// When to accept an arriving query.
#[derive(Clone, Copy, Default)]
pub enum AdmissionPolicy {
    /// Accept everything (the default; matches §6.3 replay semantics).
    #[default]
    AcceptAll,
    /// Reject once this many queries are already queued unstarted,
    /// fleet-wide (the value is a capacity: `MaxPending(5)` admits while
    /// pending ≤ 4).
    MaxPending(usize),
    /// Reject once this many queries are already in flight.
    MaxInFlight(u64),
    /// Reject once this many VMs are already rented concurrently — a
    /// spend cap expressed in fleet size.
    MaxVms(usize),
    /// Reject once the *arriving class* has this many queries queued
    /// unstarted — per-tenant queue isolation: one class's burst cannot
    /// starve another's admission.
    MaxClassPending(usize),
    /// Priority-proportional shedding: a class of priority `p` is admitted
    /// while fleet-wide pending is below `base + p · per_priority`. Under
    /// a mounting backlog the lowest-priority class (the loosest SLA) hits
    /// its allowance first and sheds, while higher priorities keep
    /// admitting — graceful degradation from bronze up to gold.
    PriorityShed {
        /// Pending allowance of a priority-0 class.
        base: usize,
        /// Extra pending allowance per priority level.
        per_priority: usize,
    },
    /// An arbitrary hook over the load signals.
    Custom(fn(&LoadStatus) -> bool),
}

impl AdmissionPolicy {
    /// Whether an arrival observed under `status` is admitted.
    pub(crate) fn admits(&self, status: &LoadStatus) -> bool {
        match self {
            AdmissionPolicy::AcceptAll => true,
            AdmissionPolicy::MaxPending(limit) => status.pending < *limit,
            AdmissionPolicy::MaxInFlight(limit) => status.in_flight < *limit,
            AdmissionPolicy::MaxVms(limit) => status.vms_in_flight < *limit,
            AdmissionPolicy::MaxClassPending(limit) => status.class_pending < *limit,
            AdmissionPolicy::PriorityShed { base, per_priority } => {
                status.pending < base + status.priority as usize * per_priority
            }
            AdmissionPolicy::Custom(f) => f(status),
        }
    }
}

impl std::fmt::Debug for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionPolicy::AcceptAll => write!(f, "AcceptAll"),
            AdmissionPolicy::MaxPending(n) => write!(f, "MaxPending({n})"),
            AdmissionPolicy::MaxInFlight(n) => write!(f, "MaxInFlight({n})"),
            AdmissionPolicy::MaxVms(n) => write!(f, "MaxVms({n})"),
            AdmissionPolicy::MaxClassPending(n) => write!(f, "MaxClassPending({n})"),
            AdmissionPolicy::PriorityShed { base, per_priority } => {
                write!(f, "PriorityShed({base}+{per_priority}/prio)")
            }
            AdmissionPolicy::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(pending: usize, in_flight: u64, vms: usize) -> LoadStatus {
        LoadStatus {
            now: Millis::from_secs(1),
            pending,
            in_flight,
            vms_in_flight: vms,
            class: TenantId::DEFAULT,
            priority: 0,
            class_pending: pending,
        }
    }

    fn class_status(pending: usize, class: u32, priority: u8, class_pending: usize) -> LoadStatus {
        LoadStatus {
            now: Millis::from_secs(1),
            pending,
            in_flight: 0,
            vms_in_flight: 0,
            class: TenantId(class),
            priority,
            class_pending,
        }
    }

    #[test]
    fn policies_gate_on_their_signal() {
        assert!(AdmissionPolicy::AcceptAll.admits(&status(1000, 1000, 1000)));
        assert!(AdmissionPolicy::MaxPending(5).admits(&status(4, 0, 0)));
        assert!(!AdmissionPolicy::MaxPending(5).admits(&status(5, 0, 0)));
        assert!(AdmissionPolicy::MaxInFlight(2).admits(&status(0, 1, 0)));
        assert!(!AdmissionPolicy::MaxInFlight(2).admits(&status(0, 2, 0)));
        assert!(AdmissionPolicy::MaxVms(3).admits(&status(0, 0, 2)));
        assert!(!AdmissionPolicy::MaxVms(3).admits(&status(0, 0, 3)));
    }

    #[test]
    fn class_pending_isolates_tenants() {
        let policy = AdmissionPolicy::MaxClassPending(2);
        // Fleet-wide pressure is irrelevant; the class's own queue gates.
        assert!(policy.admits(&class_status(100, 1, 0, 1)));
        assert!(!policy.admits(&class_status(0, 1, 0, 2)));
    }

    #[test]
    fn priority_shed_drops_the_loosest_first() {
        let policy = AdmissionPolicy::PriorityShed {
            base: 2,
            per_priority: 3,
        };
        // Backlog of 4: priority 0 (allowance 2) sheds, priority 1
        // (allowance 5) still admits.
        assert!(!policy.admits(&class_status(4, 2, 0, 1)));
        assert!(policy.admits(&class_status(4, 0, 1, 1)));
        // Backlog of 6: priority 1 sheds too; priority 2 (allowance 8)
        // keeps working.
        assert!(!policy.admits(&class_status(6, 0, 1, 1)));
        assert!(policy.admits(&class_status(6, 1, 2, 1)));
    }

    #[test]
    fn custom_hook_sees_the_signals() {
        let policy = AdmissionPolicy::Custom(|s| s.pending + s.vms_in_flight < 4);
        assert!(policy.admits(&status(1, 0, 2)));
        assert!(!policy.admits(&status(2, 0, 2)));
        // Class signals are visible to hooks.
        let per_class = AdmissionPolicy::Custom(|s| s.class != TenantId(3));
        assert!(per_class.admits(&class_status(0, 0, 0, 0)));
        assert!(!per_class.admits(&class_status(0, 3, 0, 0)));
    }
}
