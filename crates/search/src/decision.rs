//! Scheduling decisions: the edge labels of the scheduling graph.

use std::fmt;

use serde::{Deserialize, Serialize};

use wisedb_core::{TemplateId, VmTypeId};

/// One step of schedule construction (§4.3): either rent a new VM or place
/// an instance of a template on the most recently rented VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Decision {
    /// Rent a new VM of the given type (a *start-up edge*).
    CreateVm(VmTypeId),
    /// Place an unassigned instance of the given template on the most
    /// recently rented VM (a *placement edge*).
    Place(TemplateId),
}

impl Decision {
    /// Dense label index for classifiers: placements first (one per
    /// template), then VM creations (one per type). The label domain size is
    /// `num_templates + num_vm_types`, matching §4.4's observation that this
    /// is the decision domain.
    pub fn label(self, num_templates: usize) -> usize {
        match self {
            Decision::Place(t) => t.index(),
            Decision::CreateVm(v) => num_templates + v.index(),
        }
    }

    /// Inverse of [`Decision::label`].
    pub fn from_label(label: usize, num_templates: usize) -> Decision {
        if label < num_templates {
            Decision::Place(TemplateId(label as u32))
        } else {
            Decision::CreateVm(VmTypeId((label - num_templates) as u32))
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::CreateVm(v) => write!(f, "new-{v}"),
            Decision::Place(t) => write!(f, "assign-{t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_round_trip() {
        let nt = 5;
        // Labels cover |T| templates then |V| = 3 VM types.
        for label in 0..nt + 3 {
            let d = Decision::from_label(label, nt);
            assert_eq!(d.label(nt), label);
        }
        assert_eq!(Decision::Place(TemplateId(2)).label(nt), 2);
        assert_eq!(Decision::CreateVm(VmTypeId(1)).label(nt), 6);
    }

    #[test]
    fn display_matches_paper_vocabulary() {
        assert_eq!(Decision::Place(TemplateId(0)).to_string(), "assign-T1");
        assert_eq!(Decision::CreateVm(VmTypeId(0)).to_string(), "new-VM-type0");
    }
}
