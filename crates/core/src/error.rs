//! Error types shared across the WiSeDB crates.

use std::fmt;

use crate::template::TemplateId;
use crate::vm::VmTypeId;

/// Errors arising from invalid specifications, workloads, or schedules.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The specification has no query templates.
    NoTemplates,
    /// The specification has no VM types.
    NoVmTypes,
    /// A template's latency vector does not have one entry per VM type.
    LatencyArityMismatch {
        /// Offending template.
        template: TemplateId,
        /// Entries the template has.
        got: usize,
        /// Number of VM types in the spec.
        expected: usize,
    },
    /// A template is not supported on any VM type, so no complete schedule
    /// can exist.
    UnschedulableTemplate {
        /// Offending template.
        template: TemplateId,
    },
    /// A template has a zero latency entry, which breaks the cost model's
    /// assumption that every placement consumes VM time.
    ZeroLatency {
        /// Offending template.
        template: TemplateId,
        /// VM type with the zero entry.
        vm_type: VmTypeId,
    },
    /// A schedule references a template id outside the specification.
    UnknownTemplate {
        /// Offending template.
        template: TemplateId,
    },
    /// A schedule references a VM type id outside the specification.
    UnknownVmType {
        /// Offending VM type.
        vm_type: VmTypeId,
    },
    /// A query was placed on a VM type that cannot process its template.
    UnsupportedPlacement {
        /// Template of the placed query.
        template: TemplateId,
        /// VM type it was placed on.
        vm_type: VmTypeId,
    },
    /// A schedule does not place exactly the queries of the workload
    /// (something is missing, duplicated, or foreign).
    IncompleteSchedule {
        /// Diagnostic message naming the first discrepancy.
        detail: String,
    },
    /// A percentile goal was constructed with a percent outside (0, 100].
    InvalidPercentile {
        /// The rejected percent value.
        percent: f64,
    },
    /// A per-query goal's deadline vector does not match the template count.
    DeadlineArityMismatch {
        /// Entries the goal has.
        got: usize,
        /// Number of templates in the spec.
        expected: usize,
    },
    /// A live-cluster operation referenced a VM index that was never
    /// provisioned in the session.
    UnknownVmIndex {
        /// The out-of-range index.
        index: usize,
    },
    /// Work was queued on a VM that was already released (idle VMs are
    /// released automatically and accept no further work).
    VmReleased {
        /// The released VM's index.
        index: usize,
    },
    /// A multi-tenant service was configured with no SLA classes.
    NoClasses,
    /// An SLA class declared an empty template subset, which can never
    /// admit an arrival.
    EmptyClassTemplates {
        /// The offending class.
        class: crate::tenant::TenantId,
    },
    /// An operation referenced an SLA class the service was not configured
    /// with.
    UnknownTenantClass {
        /// The out-of-range class.
        class: crate::tenant::TenantId,
    },
    /// An arrival's template is outside its SLA class's declared subset.
    TemplateNotInClass {
        /// The rejected template.
        template: TemplateId,
        /// The class whose subset excludes it.
        class: crate::tenant::TenantId,
    },
    /// A hot-swapped model was trained for a different spec or goal than
    /// the SLA class it is replacing.
    ModelMismatch {
        /// What disagreed.
        detail: String,
    },
    /// A scheduling plan could not be applied to the live cluster: a step
    /// was malformed (e.g. an assignment with no VM to target) or stale
    /// with respect to the cluster's state. The request that carried the
    /// plan fails; the service itself stays up.
    InconsistentPlan {
        /// What the plan asked for that the cluster could not honor.
        detail: String,
    },
    /// A batch holds more queries of one template than a search vertex can
    /// count (`u16::MAX`).
    TemplateCountOverflow {
        /// The template with too many queries.
        template: TemplateId,
        /// Its query count in the batch.
        count: u32,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoTemplates => write!(f, "workload specification has no query templates"),
            CoreError::NoVmTypes => write!(f, "workload specification has no VM types"),
            CoreError::LatencyArityMismatch {
                template,
                got,
                expected,
            } => write!(
                f,
                "template {template} has {got} latency entries but the spec has {expected} VM types"
            ),
            CoreError::UnschedulableTemplate { template } => {
                write!(f, "template {template} is not supported on any VM type")
            }
            CoreError::ZeroLatency { template, vm_type } => {
                write!(f, "template {template} has zero latency on {vm_type}")
            }
            CoreError::UnknownTemplate { template } => {
                write!(f, "template {template} is not part of the specification")
            }
            CoreError::UnknownVmType { vm_type } => {
                write!(f, "{vm_type} is not part of the specification")
            }
            CoreError::UnsupportedPlacement { template, vm_type } => {
                write!(f, "template {template} cannot be processed on {vm_type}")
            }
            CoreError::IncompleteSchedule { detail } => {
                write!(f, "schedule does not cover the workload exactly: {detail}")
            }
            CoreError::InvalidPercentile { percent } => {
                write!(
                    f,
                    "percentile goals require 0 < percent <= 100, got {percent}"
                )
            }
            CoreError::DeadlineArityMismatch { got, expected } => write!(
                f,
                "per-query goal has {got} deadlines but the spec has {expected} templates"
            ),
            CoreError::UnknownVmIndex { index } => {
                write!(f, "no VM with index {index} was provisioned")
            }
            CoreError::VmReleased { index } => {
                write!(f, "VM {index} was already released and accepts no work")
            }
            CoreError::NoClasses => {
                write!(f, "a multi-tenant service needs at least one SLA class")
            }
            CoreError::EmptyClassTemplates { class } => {
                write!(f, "SLA {class} declares an empty template subset")
            }
            CoreError::UnknownTenantClass { class } => {
                write!(f, "{class} is not a configured SLA class")
            }
            CoreError::TemplateNotInClass { template, class } => {
                write!(f, "template {template} is outside {class}'s subset")
            }
            CoreError::ModelMismatch { detail } => {
                write!(f, "swapped model does not match the service: {detail}")
            }
            CoreError::InconsistentPlan { detail } => {
                write!(f, "plan is inconsistent with the live cluster: {detail}")
            }
            CoreError::TemplateCountOverflow { template, count } => write!(
                f,
                "template {template} has {count} queries in one batch, more than the {} a search vertex can hold",
                u16::MAX
            ),
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenient result alias for core operations.
pub type CoreResult<T> = Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_actionable() {
        let e = CoreError::UnsupportedPlacement {
            template: TemplateId(2),
            vm_type: VmTypeId(1),
        };
        assert_eq!(e.to_string(), "template T3 cannot be processed on VM-type1");

        let e = CoreError::LatencyArityMismatch {
            template: TemplateId(0),
            got: 1,
            expected: 2,
        };
        assert!(e.to_string().contains("T1"));
        assert!(e.to_string().contains("2 VM types"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(CoreError::NoTemplates);
        assert!(e.to_string().contains("no query templates"));
    }
}
