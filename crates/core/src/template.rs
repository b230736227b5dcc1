//! Query templates.
//!
//! WiSeDB treats a query purely through the latency of its template on each
//! VM type (§2 of the paper: the advisor "cares only about the latency of
//! each template"). A template therefore carries a name (for reporting) and
//! one latency estimate per VM type, with `None` marking VM types that cannot
//! process the template at all (the `supports-X` feature of §4.4).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::Millis;
use crate::vm::VmTypeId;

/// Index of a template within a [`crate::spec::WorkloadSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TemplateId(pub u32);

impl TemplateId {
    /// The index as a `usize`, for slice addressing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TemplateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0 + 1)
    }
}

/// A query template: a parameterized query whose instances share latency
/// characteristics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryTemplate {
    /// Human-readable name (e.g. `"TPC-H Q6"`).
    pub name: String,
    /// Predicted latency on each VM type, indexed by [`VmTypeId`].
    /// `None` means the VM type cannot process this template.
    pub latencies: Vec<Option<Millis>>,
}

impl QueryTemplate {
    /// A template supported on every VM type with the given latencies.
    pub fn uniform(name: impl Into<String>, latencies: Vec<Millis>) -> Self {
        QueryTemplate {
            name: name.into(),
            latencies: latencies.into_iter().map(Some).collect(),
        }
    }

    /// A template for a single-VM-type specification.
    pub fn single(name: impl Into<String>, latency: Millis) -> Self {
        QueryTemplate {
            name: name.into(),
            latencies: vec![Some(latency)],
        }
    }

    /// Latency on the given VM type, or `None` if unsupported.
    pub(crate) fn latency_on(&self, vm: VmTypeId) -> Option<Millis> {
        self.latencies.get(vm.index()).copied().flatten()
    }

    /// The smallest latency across all supporting VM types.
    pub fn min_latency(&self) -> Option<Millis> {
        self.latencies.iter().flatten().copied().min()
    }

    /// The largest latency across all supporting VM types.
    pub fn max_latency(&self) -> Option<Millis> {
        self.latencies.iter().flatten().copied().max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_based_like_the_paper() {
        assert_eq!(TemplateId(0).to_string(), "T1");
        assert_eq!(TemplateId(9).to_string(), "T10");
    }

    #[test]
    fn latency_lookup() {
        let t = QueryTemplate {
            name: "q".into(),
            latencies: vec![Some(Millis::from_secs(10)), None],
        };
        assert_eq!(t.latency_on(VmTypeId(0)), Some(Millis::from_secs(10)));
        assert_eq!(t.latency_on(VmTypeId(1)), None);
        // Out-of-range VM ids are simply unsupported, not a panic.
        assert_eq!(t.latency_on(VmTypeId(7)), None);
    }

    #[test]
    fn min_max_latency() {
        let t = QueryTemplate::uniform("q", vec![Millis::from_secs(10), Millis::from_secs(25)]);
        assert_eq!(t.min_latency(), Some(Millis::from_secs(10)));
        assert_eq!(t.max_latency(), Some(Millis::from_secs(25)));

        let unsupported = QueryTemplate {
            name: "x".into(),
            latencies: vec![None],
        };
        assert_eq!(unsupported.min_latency(), None);
    }
}
