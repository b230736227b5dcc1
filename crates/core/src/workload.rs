//! Workloads: multisets of template instances.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, CoreResult};
use crate::spec::WorkloadSpec;
use crate::template::TemplateId;

/// Identifier of a concrete query instance within one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct QueryId(pub u32);

impl QueryId {
    /// The index as a `usize`, for slice addressing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0 + 1)
    }
}

/// One query instance: an id plus the template it instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Query {
    /// Unique id within the workload.
    pub id: QueryId,
    /// Template this query instantiates.
    pub template: TemplateId,
}

/// A batch of queries to be scheduled.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Workload {
    queries: Vec<Query>,
}

impl Workload {
    /// An empty workload.
    pub fn empty() -> Self {
        Workload::default()
    }

    /// Builds a workload from a list of template ids; query ids are assigned
    /// in order.
    pub fn from_templates(templates: impl IntoIterator<Item = TemplateId>) -> Self {
        let queries = templates
            .into_iter()
            .enumerate()
            .map(|(i, template)| Query {
                id: QueryId(i as u32),
                template,
            })
            .collect();
        Workload { queries }
    }

    /// Builds a workload with `counts[i]` instances of template `i`.
    pub fn from_counts(counts: &[u32]) -> Self {
        let mut templates = Vec::with_capacity(counts.iter().map(|&c| c as usize).sum());
        for (i, &count) in counts.iter().enumerate() {
            for _ in 0..count {
                templates.push(TemplateId(i as u32));
            }
        }
        Workload::from_templates(templates)
    }

    /// The queries in submission order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// `true` iff the workload has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Per-template instance counts, sized to `num_templates`.
    pub fn template_counts(&self, num_templates: usize) -> Vec<u32> {
        let mut counts = vec![0u32; num_templates];
        for q in &self.queries {
            if let Some(c) = counts.get_mut(q.template.index()) {
                *c += 1;
            }
        }
        counts
    }

    /// Validates that every query's template exists in `spec`.
    pub fn validate_against(&self, spec: &WorkloadSpec) -> CoreResult<()> {
        for q in &self.queries {
            if q.template.index() >= spec.num_templates() {
                return Err(CoreError::UnknownTemplate {
                    template: q.template,
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, q) in self.queries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}:{}", q.id, q.template)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Millis;
    use crate::vm::VmType;

    #[test]
    fn from_counts_builds_in_template_order() {
        let w = Workload::from_counts(&[2, 0, 1]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.queries()[0].template, TemplateId(0));
        assert_eq!(w.queries()[1].template, TemplateId(0));
        assert_eq!(w.queries()[2].template, TemplateId(2));
        assert_eq!(w.template_counts(3), vec![2, 0, 1]);
    }

    #[test]
    fn ids_are_sequential() {
        let w = Workload::from_templates([TemplateId(1), TemplateId(0)]);
        assert_eq!(w.queries()[0].id, QueryId(0));
        assert_eq!(w.queries()[1].id, QueryId(1));
    }

    #[test]
    fn push_assigns_next_id() {
        assert!(Workload::empty().is_empty());
        let templates = [TemplateId(4), TemplateId(2), TemplateId(4)];
        for n in 1..=templates.len() {
            let w = Workload::from_templates(templates[..n].iter().copied());
            assert_eq!(w.len(), n);
            let last = w.queries()[n - 1];
            assert_eq!(last.id, QueryId(n as u32 - 1));
            assert_eq!(last.template, templates[n - 1]);
        }
    }

    #[test]
    fn validate_against_catches_foreign_templates() {
        let spec = WorkloadSpec::single_vm(vec![("a", Millis::from_mins(1))], VmType::t2_medium())
            .unwrap();
        let ok = Workload::from_counts(&[3]);
        assert!(ok.validate_against(&spec).is_ok());
        let bad = Workload::from_templates([TemplateId(5)]);
        assert!(matches!(
            bad.validate_against(&spec),
            Err(CoreError::UnknownTemplate { .. })
        ));
    }

    #[test]
    fn counts_ignore_out_of_range() {
        let w = Workload::from_templates([TemplateId(7)]);
        assert_eq!(w.template_counts(2), vec![0, 0]);
    }

    #[test]
    fn display_lists_queries() {
        let w = Workload::from_templates([TemplateId(0), TemplateId(1)]);
        assert_eq!(w.to_string(), "{q1:T1, q2:T2}");
    }
}
