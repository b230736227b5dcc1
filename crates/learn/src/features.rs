//! Feature extraction (§4.4).
//!
//! Each vertex along an optimal path is summarized by features that are
//! deliberately **workload-size agnostic** (training workloads are small,
//! runtime workloads are huge), **goal agnostic** (the same schema serves
//! every metric), and **mutually non-redundant**:
//!
//! * `wait-time` — execution time already queued on the most recent VM;
//! * `proportion-of-X` — fraction of that VM's queue that is template X;
//! * `supports-X` — whether that VM's type can process template X;
//! * `cost-of-X` — the placement-edge weight for X (infinite if impossible);
//! * `have-X` — whether an instance of X is still unassigned.
//!
//! [`FeatureSchema::feature`] is the one definition of every column.
//! Training materialises whole rows with [`FeatureSchema::extract`];
//! scheduling never does: a tree descent asks for a column only when a
//! split on its path tests it (`DecisionTree::predict_with`), which reads
//! a handful of the `1 + 4·templates` columns per decision.

use wisedb_core::{Money, PerformanceGoal, TemplateId, WorkloadSpec};
use wisedb_search::SearchState;

use serde::{Deserialize, Serialize};

/// Layout of the feature vector for a given specification size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureSchema {
    /// Number of query templates (drives the per-template feature groups).
    pub num_templates: usize,
    /// Number of VM types (drives the decision-label domain).
    pub num_vm_types: usize,
}

/// Which feature a column index refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureKind {
    /// Queued execution time on the most recent VM, in seconds.
    WaitTime,
    /// Fraction of the most recent VM's queue that is this template.
    ProportionOf(TemplateId),
    /// 1.0 if the most recent VM's type supports this template.
    Supports(TemplateId),
    /// Placement-edge weight for this template, in dollars (∞ if the most
    /// recent VM cannot process it or no VM exists).
    CostOf(TemplateId),
    /// 1.0 if an instance of this template is still unassigned.
    Have(TemplateId),
}

impl FeatureSchema {
    /// Schema for a specification.
    pub fn for_spec(spec: &WorkloadSpec) -> Self {
        FeatureSchema {
            num_templates: spec.num_templates(),
            num_vm_types: spec.num_vm_types(),
        }
    }

    /// Number of feature columns: `wait-time` plus four per template.
    pub fn num_features(&self) -> usize {
        1 + 4 * self.num_templates
    }

    /// Number of decision labels: one placement per template plus one
    /// start-up per VM type.
    pub(crate) fn num_labels(&self) -> usize {
        self.num_templates + self.num_vm_types
    }

    /// The meaning of column `index`.
    pub fn kind(&self, index: usize) -> FeatureKind {
        if index == 0 {
            return FeatureKind::WaitTime;
        }
        let index = index - 1;
        let template = TemplateId((index % self.num_templates) as u32);
        match index / self.num_templates {
            0 => FeatureKind::ProportionOf(template),
            1 => FeatureKind::Supports(template),
            2 => FeatureKind::CostOf(template),
            _ => FeatureKind::Have(template),
        }
    }

    /// Human-readable column name (matches the paper's vocabulary).
    pub fn feature_name(&self, index: usize) -> String {
        match self.kind(index) {
            FeatureKind::WaitTime => "wait-time".to_string(),
            FeatureKind::ProportionOf(t) => format!("proportion-of-{t}"),
            FeatureKind::Supports(t) => format!("supports-{t}"),
            FeatureKind::CostOf(t) => format!("cost-of-{t}"),
            FeatureKind::Have(t) => format!("have-{t}"),
        }
    }

    /// Column index of `proportion-of-t`.
    pub fn proportion_index(&self, t: TemplateId) -> usize {
        1 + t.index()
    }

    /// Column index of `supports-t`.
    pub fn supports_index(&self, t: TemplateId) -> usize {
        1 + self.num_templates + t.index()
    }

    /// Column index of `cost-of-t`.
    pub fn cost_index(&self, t: TemplateId) -> usize {
        1 + 2 * self.num_templates + t.index()
    }

    /// Column index of `have-t`.
    pub fn have_index(&self, t: TemplateId) -> usize {
        1 + 3 * self.num_templates + t.index()
    }

    /// Extracts the whole feature vector of a search vertex (training rows
    /// and tests); column `i` is [`feature`](Self::feature)`(.., i)`.
    pub fn extract(
        &self,
        spec: &WorkloadSpec,
        goal: &PerformanceGoal,
        state: &SearchState,
    ) -> Vec<f64> {
        (0..self.num_features())
            .map(|i| self.feature(spec, goal, state, i))
            .collect()
    }

    /// Computes column `index` of a search vertex's feature vector alone:
    /// the one definition of every column, so a tree descent can compute
    /// just the columns its path tests.
    pub fn feature(
        &self,
        spec: &WorkloadSpec,
        goal: &PerformanceGoal,
        state: &SearchState,
        index: usize,
    ) -> f64 {
        let last = state.last_vm.as_ref();
        let indicator = |b: bool| if b { 1.0 } else { 0.0 };
        match self.kind(index) {
            FeatureKind::WaitTime => last.map(|l| l.wait.as_secs_f64()).unwrap_or(0.0),
            FeatureKind::ProportionOf(t) => match last {
                Some(l) if !l.queue.is_empty() => {
                    let count = l.queue.iter().filter(|&q| q == t).count();
                    count as f64 / l.queue.len() as f64
                }
                _ => 0.0,
            },
            FeatureKind::Supports(t) => {
                indicator(last.is_some_and(|l| spec.latency(t, l.vm_type).is_some()))
            }
            // The hypothetical placement-edge weight, even when the template
            // is depleted (have-X carries availability).
            FeatureKind::CostOf(t) => hypothetical_placement_cost(spec, goal, state, t)
                .map(|m| m.as_dollars())
                .unwrap_or(f64::INFINITY),
            FeatureKind::Have(t) => {
                indicator(state.unassigned.get(t.index()).is_some_and(|&c| c > 0))
            }
        }
    }
}

/// The weight the placement edge for `t` *would* carry at `state`
/// (Eq. 2), ignoring whether an instance of `t` is actually unassigned.
/// `None` when no VM exists or its type cannot process `t`.
pub fn hypothetical_placement_cost(
    spec: &WorkloadSpec,
    goal: &PerformanceGoal,
    state: &SearchState,
    t: TemplateId,
) -> Option<Money> {
    let last = state.last_vm.as_ref()?;
    let exec = spec.latency(t, last.vm_type)?;
    let runtime = spec.vm_type(last.vm_type).ok()?.runtime_cost(exec);
    let completion = last.wait + exec;
    Some(runtime + state.tracker.delta(goal, t, completion))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisedb_core::{Millis, PenaltyRate, VmType, VmTypeId};
    use wisedb_search::Decision;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::single_vm(
            vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
            VmType::t2_medium(),
        )
        .unwrap()
    }

    fn goal() -> PerformanceGoal {
        PerformanceGoal::PerQuery {
            deadlines: vec![Millis::from_mins(3), Millis::from_mins(1)],
            rate: PenaltyRate::CENT_PER_SECOND,
        }
    }

    #[test]
    fn schema_layout_round_trips() {
        let schema = FeatureSchema {
            num_templates: 3,
            num_vm_types: 2,
        };
        assert_eq!(schema.num_features(), 13);
        assert_eq!(schema.num_labels(), 5);
        assert_eq!(schema.feature_name(0), "wait-time");
        assert_eq!(
            schema.feature_name(schema.proportion_index(TemplateId(1))),
            "proportion-of-T2"
        );
        assert_eq!(
            schema.feature_name(schema.cost_index(TemplateId(2))),
            "cost-of-T3"
        );
        assert_eq!(
            schema.feature_name(schema.have_index(TemplateId(0))),
            "have-T1"
        );
        // Every column has a distinct kind/name.
        let names: std::collections::HashSet<String> = (0..schema.num_features())
            .map(|i| schema.feature_name(i))
            .collect();
        assert_eq!(names.len(), schema.num_features());
    }

    #[test]
    fn start_vertex_features() {
        let spec = spec();
        let goal = goal();
        let schema = FeatureSchema::for_spec(&spec);
        let state = SearchState::initial(vec![1, 2], &goal);
        let f = schema.extract(&spec, &goal, &state);
        assert_eq!(f[0], 0.0);
        // No VM yet: nothing supported, placement impossible (infinite cost).
        assert_eq!(f[schema.supports_index(TemplateId(0))], 0.0);
        assert!(f[schema.cost_index(TemplateId(0))].is_infinite());
        assert_eq!(f[schema.have_index(TemplateId(0))], 1.0);
        assert_eq!(f[schema.have_index(TemplateId(1))], 1.0);
    }

    #[test]
    fn features_track_the_walkthrough_of_section_4_5() {
        // Mirrors Figure 6's right-hand side: after placing one T2 on the
        // first VM, wait-time is one minute and proportions shift.
        let spec = spec();
        let goal = goal();
        let schema = FeatureSchema::for_spec(&spec);
        let state = SearchState::initial(vec![1, 2], &goal);
        let (state, _) = state
            .apply(&spec, &goal, Decision::CreateVm(VmTypeId(0)))
            .unwrap();
        let (state, _) = state
            .apply(&spec, &goal, Decision::Place(TemplateId(1)))
            .unwrap();

        let f = schema.extract(&spec, &goal, &state);
        assert_eq!(f[0], 60.0);
        assert_eq!(f[schema.proportion_index(TemplateId(0))], 0.0);
        assert_eq!(f[schema.proportion_index(TemplateId(1))], 1.0);
        assert_eq!(f[schema.supports_index(TemplateId(0))], 1.0);

        // Placing another T2 would complete at 2m, violating its 1m
        // deadline by 60s: cost = runtime + $0.60 penalty.
        let cost_t2 = f[schema.cost_index(TemplateId(1))];
        let expected = 0.052 / 60.0 + 0.60;
        assert!((cost_t2 - expected).abs() < 1e-9, "{cost_t2} vs {expected}");

        // Placing the T1 completes at 3m, exactly on deadline: no penalty.
        let cost_t1 = f[schema.cost_index(TemplateId(0))];
        let expected = 0.052 * 2.0 / 60.0;
        assert!((cost_t1 - expected).abs() < 1e-9);
    }

    #[test]
    fn cost_is_infinite_on_unsupporting_vm() {
        let spec = WorkloadSpec::new(
            vec![
                wisedb_core::QueryTemplate {
                    name: "medium-only".into(),
                    latencies: vec![Some(Millis::from_mins(1)), None],
                },
                wisedb_core::QueryTemplate::uniform(
                    "both",
                    vec![Millis::from_mins(1), Millis::from_mins(1)],
                ),
            ],
            vec![VmType::t2_medium(), VmType::t2_small()],
        )
        .unwrap();
        let goal = PerformanceGoal::MaxLatency {
            deadline: Millis::from_mins(10),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let schema = FeatureSchema::for_spec(&spec);
        let state = SearchState::initial(vec![1, 1], &goal);
        let (state, _) = state
            .apply(&spec, &goal, Decision::CreateVm(VmTypeId(1)))
            .unwrap();
        let f = schema.extract(&spec, &goal, &state);
        assert!(f[schema.cost_index(TemplateId(0))].is_infinite());
        assert_eq!(f[schema.supports_index(TemplateId(0))], 0.0);
        assert!(f[schema.cost_index(TemplateId(1))].is_finite());
        assert_eq!(f[schema.supports_index(TemplateId(1))], 1.0);
    }

    #[test]
    fn have_flags_follow_depletion() {
        let spec = spec();
        let goal = goal();
        let schema = FeatureSchema::for_spec(&spec);
        let state = SearchState::initial(vec![1, 0], &goal);
        let (state, _) = state
            .apply(&spec, &goal, Decision::CreateVm(VmTypeId(0)))
            .unwrap();
        let f = schema.extract(&spec, &goal, &state);
        assert_eq!(f[schema.have_index(TemplateId(0))], 1.0);
        assert_eq!(f[schema.have_index(TemplateId(1))], 0.0);

        let (state, _) = state
            .apply(&spec, &goal, Decision::Place(TemplateId(0)))
            .unwrap();
        let f = schema.extract(&spec, &goal, &state);
        assert_eq!(f[schema.have_index(TemplateId(0))], 0.0);
    }
}
