//! The workload specification: templates + VM types.
//!
//! Applications begin their interaction with WiSeDB by submitting a
//! [`WorkloadSpec`] (§2). Everything downstream — graph search, feature
//! extraction, model training, runtime scheduling — is parameterized by it.

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, CoreResult};
use crate::money::Money;
use crate::template::{QueryTemplate, TemplateId};
use crate::time::Millis;
use crate::vm::{VmType, VmTypeId};

/// The templates a workload may draw queries from and the VM types the IaaS
/// provider offers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    templates: Vec<QueryTemplate>,
    vm_types: Vec<VmType>,
}

impl WorkloadSpec {
    /// Builds and validates a specification.
    pub fn new(templates: Vec<QueryTemplate>, vm_types: Vec<VmType>) -> CoreResult<Self> {
        let spec = WorkloadSpec {
            templates,
            vm_types,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Convenience constructor for single-VM-type specifications, the
    /// default configuration of the paper's experiments.
    pub fn single_vm(
        templates: Vec<(impl Into<String>, Millis)>,
        vm_type: VmType,
    ) -> CoreResult<Self> {
        let templates = templates
            .into_iter()
            .map(|(name, latency)| QueryTemplate::single(name, latency))
            .collect();
        WorkloadSpec::new(templates, vec![vm_type])
    }

    fn validate(&self) -> CoreResult<()> {
        if self.templates.is_empty() {
            return Err(CoreError::NoTemplates);
        }
        if self.vm_types.is_empty() {
            return Err(CoreError::NoVmTypes);
        }
        for (i, t) in self.templates.iter().enumerate() {
            let template = TemplateId(i as u32);
            if t.latencies.len() != self.vm_types.len() {
                return Err(CoreError::LatencyArityMismatch {
                    template,
                    got: t.latencies.len(),
                    expected: self.vm_types.len(),
                });
            }
            if t.latencies.iter().all(Option::is_none) {
                return Err(CoreError::UnschedulableTemplate { template });
            }
            for (v, lat) in t.latencies.iter().enumerate() {
                if *lat == Some(Millis::ZERO) {
                    return Err(CoreError::ZeroLatency {
                        template,
                        vm_type: VmTypeId(v as u32),
                    });
                }
            }
        }
        Ok(())
    }

    /// All templates, indexable by [`TemplateId`].
    pub fn templates(&self) -> &[QueryTemplate] {
        &self.templates
    }

    /// All VM types, indexable by [`VmTypeId`].
    pub fn vm_types(&self) -> &[VmType] {
        &self.vm_types
    }

    /// Number of query templates.
    pub fn num_templates(&self) -> usize {
        self.templates.len()
    }

    /// Number of VM types.
    pub fn num_vm_types(&self) -> usize {
        self.vm_types.len()
    }

    /// Iterator over template ids.
    pub fn template_ids(&self) -> impl Iterator<Item = TemplateId> + '_ {
        (0..self.templates.len() as u32).map(TemplateId)
    }

    /// Iterator over VM type ids.
    pub fn vm_type_ids(&self) -> impl Iterator<Item = VmTypeId> + '_ {
        (0..self.vm_types.len() as u32).map(VmTypeId)
    }

    /// The template with the given id, if it exists.
    pub fn template(&self, id: TemplateId) -> CoreResult<&QueryTemplate> {
        self.templates
            .get(id.index())
            .ok_or(CoreError::UnknownTemplate { template: id })
    }

    /// The VM type with the given id, if it exists.
    pub fn vm_type(&self, id: VmTypeId) -> CoreResult<&VmType> {
        self.vm_types
            .get(id.index())
            .ok_or(CoreError::UnknownVmType { vm_type: id })
    }

    /// Latency `l(q, i)` of template `t` on VM type `v`; `None` if the VM
    /// type cannot process the template.
    pub fn latency(&self, t: TemplateId, v: VmTypeId) -> Option<Millis> {
        self.templates.get(t.index())?.latency_on(v)
    }

    /// Rental cost of processing one instance of `t` on `v`:
    /// `f_r(v) * l(t, v)`.
    pub fn runtime_cost(&self, t: TemplateId, v: VmTypeId) -> Option<Money> {
        let latency = self.latency(t, v)?;
        Some(self.vm_types[v.index()].runtime_cost(latency))
    }

    /// The cheapest possible processing cost of template `t` over all
    /// supporting VM types: `min_i f_r(i) * l(t, i)`. This is the term the
    /// admissible A* heuristic (Eq. 3) sums over unassigned queries.
    pub fn cheapest_runtime_cost(&self, t: TemplateId) -> Option<Money> {
        self.vm_type_ids()
            .filter_map(|v| self.runtime_cost(t, v))
            .min_by(|a, b| a.total_cmp(b))
    }

    /// The largest `min_latency` across templates: the fastest possible
    /// execution of the slowest template. No deadline below this is
    /// achievable, so goal tightening uses it as the strictness floor.
    pub(crate) fn strictest_feasible_deadline(&self) -> Millis {
        self.templates
            .iter()
            .filter_map(QueryTemplate::min_latency)
            .max()
            .unwrap_or(Millis::ZERO)
    }

    /// Mean of per-template minimum latencies; floor for average-latency
    /// goals.
    pub(crate) fn mean_min_latency(&self) -> Millis {
        if self.templates.is_empty() {
            return Millis::ZERO;
        }
        let total: Millis = self
            .templates
            .iter()
            .filter_map(QueryTemplate::min_latency)
            .sum();
        total / self.templates.len() as u64
    }

    /// Appends a template, revalidating. Used by online scheduling to add
    /// "aged" template variants (§6.3) without rebuilding the spec.
    pub fn with_extra_template(&self, template: QueryTemplate) -> CoreResult<Self> {
        let mut templates = self.templates.clone();
        templates.push(template);
        WorkloadSpec::new(templates, self.vm_types.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_type_spec() -> WorkloadSpec {
        WorkloadSpec::new(
            vec![
                QueryTemplate {
                    name: "short".into(),
                    latencies: vec![Some(Millis::from_mins(1)), Some(Millis::from_mins(2))],
                },
                QueryTemplate {
                    name: "long".into(),
                    latencies: vec![Some(Millis::from_mins(4)), None],
                },
            ],
            vec![VmType::t2_medium(), VmType::t2_small()],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_empty() {
        assert_eq!(
            WorkloadSpec::new(vec![], vec![VmType::t2_medium()]).unwrap_err(),
            CoreError::NoTemplates
        );
        assert_eq!(
            WorkloadSpec::new(vec![QueryTemplate::single("q", Millis::SECOND)], vec![])
                .unwrap_err(),
            CoreError::NoVmTypes
        );
    }

    #[test]
    fn validation_rejects_arity_mismatch() {
        let err = WorkloadSpec::new(
            vec![QueryTemplate::single("q", Millis::SECOND)],
            vec![VmType::t2_medium(), VmType::t2_small()],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::LatencyArityMismatch { .. }));
    }

    #[test]
    fn validation_rejects_unschedulable_and_zero_latency() {
        let err = WorkloadSpec::new(
            vec![QueryTemplate {
                name: "q".into(),
                latencies: vec![None],
            }],
            vec![VmType::t2_medium()],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::UnschedulableTemplate { .. }));

        let err = WorkloadSpec::new(
            vec![QueryTemplate::single("q", Millis::ZERO)],
            vec![VmType::t2_medium()],
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::ZeroLatency { .. }));
    }

    #[test]
    fn latency_and_cost_lookups() {
        let spec = two_type_spec();
        assert_eq!(
            spec.latency(TemplateId(0), VmTypeId(1)),
            Some(Millis::from_mins(2))
        );
        assert_eq!(spec.latency(TemplateId(1), VmTypeId(1)), None);

        // Cheapest cost of "short": min(medium 1min, small 2min).
        // medium: 0.052/60, small: 0.026*2/60 — equal here, so take either.
        let cheapest = spec.cheapest_runtime_cost(TemplateId(0)).unwrap();
        assert!(cheapest.approx_eq(Money::from_dollars(0.052 / 60.0), 1e-12));

        // "long" is only supported on medium.
        let long = spec.cheapest_runtime_cost(TemplateId(1)).unwrap();
        assert!(long.approx_eq(Money::from_dollars(0.052 * 4.0 / 60.0), 1e-12));
    }

    #[test]
    fn strictness_floors() {
        let spec = two_type_spec();
        // Slowest template at its fastest: "long" at 4 minutes.
        assert_eq!(spec.strictest_feasible_deadline(), Millis::from_mins(4));
        // Mean of min latencies: (1 + 4) / 2 = 2.5 minutes.
        assert_eq!(spec.mean_min_latency(), Millis::from_secs(150));
    }

    #[test]
    fn with_extra_template_extends() {
        let spec = two_type_spec();
        let aged = QueryTemplate {
            name: "short+wait".into(),
            latencies: vec![Some(Millis::from_mins(2)), Some(Millis::from_mins(3))],
        };
        let bigger = spec.with_extra_template(aged).unwrap();
        assert_eq!(bigger.num_templates(), 3);
        assert_eq!(
            bigger.latency(TemplateId(2), VmTypeId(0)),
            Some(Millis::from_mins(2))
        );
    }

    #[test]
    fn serde_round_trip() {
        let spec = two_type_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
