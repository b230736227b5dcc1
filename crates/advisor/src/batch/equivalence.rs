//! The lazy descent against a one-pass feature extraction.
//!
//! [`reference_extract`] is feature extraction as it stood before columns
//! were computed one at a time: a single pass that counts the open VM's
//! queue once and fills all `1 + 4·templates` columns. Two properties pin
//! the lazy walk to it:
//!
//! * `FeatureSchema::extract` equals it bit for bit (`to_bits`) in every
//!   column, at the start vertex, an empty fresh VM, seeded open VMs, and
//!   every vertex along solved paths, for all four goal kinds;
//! * `plan_with_tree`'s decisions and step sources equal those of a walk
//!   that descends with `predict(&reference_extract(..))`, over random
//!   batches with and without a seeded open VM.
//!
//! The specification has two VM types and a template the small type cannot
//! run, so `supports-X` is 0 and `cost-of-X` is `∞` somewhere on most paths.

use std::sync::OnceLock;

use proptest::prelude::*;
use wisedb_core::{GoalKind, Millis, QueryTemplate, TemplateId, VmType, VmTypeId};
use wisedb_learn::hypothetical_placement_cost;
use wisedb_search::{LastVm, Solver};

use super::*;
use crate::{DecisionModel, ModelConfig, ModelGenerator};

fn reference_extract(
    schema: &FeatureSchema,
    spec: &WorkloadSpec,
    goal: &PerformanceGoal,
    state: &SearchState,
) -> Vec<f64> {
    let mut out = vec![0.0; schema.num_features()];
    let last = state.last_vm.as_ref();
    out[0] = last.map(|l| l.wait.as_secs_f64()).unwrap_or(0.0);

    let queue_len = last.map(|l| l.queue.len()).unwrap_or(0);
    let counts = last.map(|l| {
        let mut counts = vec![0u16; schema.num_templates];
        for t in l.queue.iter() {
            if let Some(c) = counts.get_mut(t.index()) {
                *c += 1;
            }
        }
        counts
    });

    for i in 0..schema.num_templates {
        let t = TemplateId(i as u32);
        if queue_len > 0 {
            if let Some(counts) = &counts {
                out[schema.proportion_index(t)] = counts[i] as f64 / queue_len as f64;
            }
        }
        let supported = last
            .map(|l| spec.latency(t, l.vm_type).is_some())
            .unwrap_or(false);
        out[schema.supports_index(t)] = if supported { 1.0 } else { 0.0 };
        out[schema.cost_index(t)] = hypothetical_placement_cost(spec, goal, state, t)
            .map(|m| m.as_dollars())
            .unwrap_or(f64::INFINITY);
        let have = state.unassigned.get(i).map(|&c| c > 0).unwrap_or(false);
        out[schema.have_index(t)] = if have { 1.0 } else { 0.0 };
    }
    out
}

/// `plan_with_tree`'s loop with the tree fed a whole reference row.
fn reference_walk(
    spec: &WorkloadSpec,
    goal: &PerformanceGoal,
    schema: &FeatureSchema,
    tree: &DecisionTree,
    initial: SearchState,
) -> Vec<(Decision, StepSource)> {
    let canonical = CanonicalOrder::for_goal(spec, goal);
    let mut state = initial;
    let mut decisions = Vec::new();
    while !state.is_goal() {
        let label = tree.predict(&reference_extract(schema, spec, goal, &state));
        let suggested = Decision::from_label(label, spec.num_templates());
        let step = if is_applicable(spec, goal, &state, canonical.as_ref(), suggested) {
            (suggested, StepSource::Model)
        } else {
            (
                fallback_decision(spec, goal, canonical.as_ref(), &state),
                StepSource::Fallback,
            )
        };
        state.apply_in_place(spec, goal, step.0).unwrap();
        decisions.push(step);
    }
    decisions
}

/// Four templates on `t2.medium` and `t2.small`; T3 runs on medium only.
fn spec() -> WorkloadSpec {
    let secs = Millis::from_secs;
    let template = |name: &str, medium: u64, small: Option<u64>| QueryTemplate {
        name: name.into(),
        latencies: vec![Some(secs(medium)), small.map(secs)],
    };
    WorkloadSpec::new(
        vec![
            template("T1", 120, Some(126)),
            template("T2", 180, Some(360)),
            template("T3", 240, None),
            template("T4", 300, Some(315)),
        ],
        vec![VmType::t2_medium(), VmType::t2_small()],
    )
    .unwrap()
}

fn goal(kind: GoalKind) -> PerformanceGoal {
    PerformanceGoal::paper_default(kind, &spec()).unwrap()
}

fn config() -> ModelConfig {
    ModelConfig {
        num_samples: 24,
        sample_size: 5,
        seed: 0x1A2F,
        ..ModelConfig::fast()
    }
}

/// One trained model per goal kind, in [`GoalKind::ALL`] order.
fn models() -> &'static [DecisionModel] {
    static MODELS: OnceLock<Vec<DecisionModel>> = OnceLock::new();
    MODELS.get_or_init(|| {
        GoalKind::ALL
            .iter()
            .map(|&kind| {
                ModelGenerator::new(spec(), goal(kind), config())
                    .train()
                    .unwrap()
            })
            .collect()
    })
}

/// A seeded open VM: its type and queued templates, by index.
type Open = (u32, Vec<u32>);

/// The start vertex for `counts`, with the open VM when given. Templates
/// the type cannot run are dropped from the queue.
fn start(
    spec: &WorkloadSpec,
    goal: &PerformanceGoal,
    counts: &[u32],
    open: &Option<Open>,
) -> SearchState {
    let mut state = SearchState::for_counts(counts, goal).unwrap();
    if let Some((vm, queue)) = open {
        let vm_type = VmTypeId(*vm);
        let queue: Vec<TemplateId> = queue
            .iter()
            .map(|&t| TemplateId(t))
            .filter(|&t| spec.latency(t, vm_type).is_some())
            .collect();
        let wait = queue
            .iter()
            .map(|&t| spec.latency(t, vm_type).unwrap())
            .sum();
        state.last_vm = Some(LastVm::seeded(vm_type, queue, wait));
        state.vms_rented = 1;
    }
    state
}

/// Goal kind, per-template counts (at most `max` each, at least one query
/// in all) and an optional seeded open VM of up to five queued queries.
fn instance(max: u32) -> impl Strategy<Value = (usize, Vec<u32>, Option<Open>)> {
    let counts = collection::vec(0u32..=max, 4)
        .prop_filter("a non-empty batch", |c| c.iter().sum::<u32>() > 0);
    let open = prop_oneof![
        Just(None),
        (0u32..2, collection::vec(0u32..4, 0..=5)).prop_map(Some),
    ];
    (0usize..4, counts, open)
}

fn assert_bit_identical(spec: &WorkloadSpec, goal: &PerformanceGoal, state: &SearchState) {
    let schema = FeatureSchema::for_spec(spec);
    let lazy = schema.extract(spec, goal, state);
    let reference = reference_extract(&schema, spec, goal, state);
    assert_eq!(lazy.len(), reference.len());
    for (i, (a, b)) in lazy.iter().zip(&reference).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{}: {a} vs {b} at {state:?}",
            schema.feature_name(i)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn extract_matches_the_one_pass_reference((kind, counts, open) in instance(2)) {
        let spec = spec();
        let goal = goal(GoalKind::ALL[kind]);
        let solver = Solver::new(&spec, &goal).with_config(config().search_for(&goal));
        let initial = start(&spec, &goal, &counts, &open);
        assert_bit_identical(&spec, &goal, &initial);
        if initial.last_vm.is_none() {
            for v in spec.vm_type_ids() {
                let (fresh, _) = initial.apply(&spec, &goal, Decision::CreateVm(v)).unwrap();
                assert_bit_identical(&spec, &goal, &fresh);
            }
        }
        for step in solver.plan_from(initial).unwrap().steps {
            assert_bit_identical(&spec, &goal, &step.state);
        }
    }

    #[test]
    fn lazy_walk_matches_the_reference_walk((kind, counts, open) in instance(12)) {
        let spec = spec();
        let model = &models()[kind];
        let goal = model.goal();
        let initial = start(&spec, goal, &counts, &open);
        let plan = plan_with_tree(&spec, goal, model.schema(), model.tree(), initial.clone());
        let reference = reference_walk(&spec, goal, model.schema(), model.tree(), initial);
        prop_assert_eq!(plan.decisions, reference);
    }
}
