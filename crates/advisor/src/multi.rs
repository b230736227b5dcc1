//! Multi-tenant online scheduling: per-class decision models multiplexed
//! on one shared cluster.
//!
//! WiSeDB trains one decision model per performance goal; §6.2 (Fig. 19)
//! shows models are cheap to specialize but still *per-goal*. A provider
//! serving tenants with different SLAs would therefore need one fleet per
//! goal — unless the goals are multiplexed. [`MultiScheduler`] does the
//! multiplexing at the planning layer:
//!
//! * one [`OnlineScheduler`] (base model + Reuse/Shift/augment caches) per
//!   [`SlaClass`], all sharing a single interned [`SpecHandle`] — the
//!   PR-3 handle machinery means `k` class models cost one spec
//!   allocation, not `k`;
//! * one Shift ladder per set of *sibling* classes: classes whose
//!   schedulers have the same inputs (the same goal, spec and training
//!   configuration, and untightened artifacts of equal training runs; a
//!   provider's tenants on one SLA tier). A tightened model (§5) one
//!   sibling builds is held for the siblings still at the ladder state it
//!   was built from, and handed over, with its post-retrain memos shared
//!   copy-on-write, when their own ladders take the same step, so the step
//!   is trained and held once. Each class still plans with exactly the model
//!   its own ladder would have built, and counts it as its own shift;
//!   [`OnlineCounters::sibling_shifts`](crate::OnlineCounters::sibling_shifts)
//!   counts the ones taken;
//! * one shared [`ClusterView`]: every class's placements contend for the
//!   same open VM and the same fleet counter, so consolidation happens
//!   naturally (a gold-class plan can stack work behind a bronze-class
//!   query and vice versa);
//! * per-arrival routing: a batch of class `c` is planned by class `c`'s
//!   model under class `c`'s goal. Recall discipline is the caller's
//!   (the runtime recalls only same-class pending work, so one class's
//!   replan never perturbs another's queued placements).
//!
//! A single-class `MultiScheduler` routes everything through one
//! `OnlineScheduler` over the full spec — bit-identical to the legacy
//! single-goal pipeline (asserted by `tests/multitenant_e2e.rs`).

use wisedb_core::{
    validate_classes, CoreError, CoreResult, Millis, PerformanceGoal, SlaClass, SpecHandle,
    TenantId,
};

use crate::model::{DecisionModel, ModelGenerator, TrainingArtifacts};
use crate::online::{ClusterView, OnlineConfig, OnlineScheduler, PendingArrival, PlannedStep};

/// Per-class online schedulers multiplexed over one shared cluster view.
pub struct MultiScheduler {
    spec: SpecHandle,
    classes: Vec<SlaClass>,
    /// One scheduler per class, indexed by [`TenantId`].
    schedulers: Vec<OnlineScheduler>,
    config: OnlineConfig,
    /// The Shift ladder steps sibling classes hand each other.
    ladder: LadderStore,
}

impl MultiScheduler {
    /// Trains one base model per distinct class goal against the shared
    /// `spec`; classes with equal goals get clones of one model, so they
    /// are siblings from the start. Classes are identified by their index:
    /// `classes[i]` is [`TenantId`]`(i)`.
    pub fn train(
        spec: impl Into<SpecHandle>,
        classes: Vec<SlaClass>,
        config: OnlineConfig,
    ) -> CoreResult<Self> {
        let spec = spec.into();
        validate_classes(&classes, &spec)?;
        let mut schedulers: Vec<OnlineScheduler> = Vec::with_capacity(classes.len());
        for (i, class) in classes.iter().enumerate() {
            let (model, artifacts) = match classes[..i].iter().position(|c| c.goal == class.goal) {
                Some(j) => (
                    schedulers[j].base_model().clone(),
                    schedulers[j].artifacts().clone(),
                ),
                None => {
                    ModelGenerator::new(spec.clone(), class.goal.clone(), config.training.clone())
                        .train_with_artifacts()?
                }
            };
            schedulers.push(OnlineScheduler::with_model(
                model,
                artifacts,
                config.clone(),
            ));
        }
        Ok(MultiScheduler {
            ladder: LadderStore::new(&schedulers),
            spec,
            classes,
            schedulers,
            config,
        })
    }

    /// Wraps pre-trained per-class schedulers (parallel order with
    /// `classes`). All schedulers must share the spec.
    pub fn with_schedulers(
        classes: Vec<SlaClass>,
        schedulers: Vec<OnlineScheduler>,
        config: OnlineConfig,
    ) -> CoreResult<Self> {
        if classes.is_empty() {
            return Err(CoreError::NoClasses);
        }
        if classes.len() != schedulers.len() {
            return Err(CoreError::ModelMismatch {
                detail: format!(
                    "{} classes but {} schedulers",
                    classes.len(),
                    schedulers.len()
                ),
            });
        }
        let spec = schedulers[0].base_model().spec_handle().clone();
        for s in &schedulers[1..] {
            if *s.base_model().spec_handle() != spec {
                return Err(CoreError::ModelMismatch {
                    detail: "class schedulers disagree on the workload spec".to_string(),
                });
            }
        }
        validate_classes(&classes, &spec)?;
        Ok(MultiScheduler {
            ladder: LadderStore::new(&schedulers),
            spec,
            classes,
            schedulers,
            config,
        })
    }

    /// The shared workload specification.
    pub fn spec_handle(&self) -> &SpecHandle {
        &self.spec
    }

    /// The configured SLA classes, indexed by [`TenantId`].
    pub fn classes(&self) -> &[SlaClass] {
        &self.classes
    }

    /// One class's definition.
    pub fn class(&self, class: TenantId) -> CoreResult<&SlaClass> {
        self.classes
            .get(class.index())
            .ok_or(CoreError::UnknownTenantClass { class })
    }

    /// One class's scheduler (base model + caches).
    pub fn scheduler(&self, class: TenantId) -> CoreResult<&OnlineScheduler> {
        self.schedulers
            .get(class.index())
            .ok_or(CoreError::UnknownTenantClass { class })
    }

    /// Shift ladder steps that one class built and a sibling can still
    /// take: each is held while a sibling sits at the ladder state it was
    /// built from. Always zero without sibling classes, and at most
    /// `n(n-1)/2` for a group of `n` siblings. For tests.
    #[doc(hidden)]
    pub fn shared_steps(&self) -> usize {
        self.ladder.steps.len()
    }

    /// Plans one batch of class `class` against the shared cluster view.
    /// The batch must be that class's arrivals (the newcomer plus its
    /// recalled same-class pending); model selection runs entirely inside
    /// the class's scheduler while placements target the shared fleet.
    pub fn plan_arrivals(
        &mut self,
        class: TenantId,
        view: &ClusterView,
        batch: &[PendingArrival],
        now: Millis,
    ) -> CoreResult<Vec<PlannedStep>> {
        let scheduler = self
            .schedulers
            .get_mut(class.index())
            .ok_or(CoreError::UnknownTenantClass { class })?;
        scheduler.plan(view, batch, now, self.ladder.siblings(class.index()))
    }

    /// Hot-swaps one class's decision model — the background-retraining
    /// hook: a drift-adapted model trained off the event loop replaces the
    /// class's scheduler (fresh caches) and takes effect on the next
    /// arrival. In-flight and queued work is untouched; only future plans
    /// consult the new model. The class leaves its siblings and joins any
    /// class whose scheduler now has the same inputs.
    ///
    /// The model must be trained for the service's spec and the class's
    /// goal; anything else is a [`CoreError::ModelMismatch`].
    pub fn swap_model(
        &mut self,
        class: TenantId,
        model: DecisionModel,
        artifacts: TrainingArtifacts,
    ) -> CoreResult<()> {
        let slot = self
            .classes
            .get(class.index())
            .ok_or(CoreError::UnknownTenantClass { class })?;
        if *model.spec_handle() != self.spec {
            return Err(CoreError::ModelMismatch {
                detail: format!("model spec differs from the service spec ({class})"),
            });
        }
        if *model.goal_handle() != slot.goal {
            return Err(CoreError::ModelMismatch {
                detail: format!("model goal differs from {class}'s SLA goal"),
            });
        }
        self.schedulers[class.index()] =
            OnlineScheduler::with_model(model, artifacts, self.config.clone());
        self.ladder.regroup(class.index(), &self.schedulers);
        Ok(())
    }
}

/// The Shift ladder steps sibling classes hand each other.
///
/// Every sibling sits at a *ladder state*, a number that stands for the
/// memos its artifacts hold: siblings start at their group's base state,
/// and a step, a tightened retrain for a goal, leads from one state to a
/// new one. A step a class builds is held only while a sibling sits at
/// the state it was built from, keyed by that state and the goal; the
/// sibling takes it on reaching the same goal, or leaves it behind by
/// taking another. A class's states only grow while it stays in its
/// group, and a class that leaves (a swap) takes the steps it built with
/// it, so each held step pairs its builder with a sibling still waiting
/// at its start, a pair no other held step has: a group of `n` siblings
/// holds at most `n(n-1)/2` steps, however long it runs. A sibling that
/// reaches a step only after its builder moved on retrains it itself.
struct LadderStore {
    /// Each class's sibling group and ladder state; `None` for a class
    /// without siblings, which never touches the store.
    members: Vec<Option<Member>>,
    steps: Vec<SharedStep>,
    /// The number the next ladder state (or group) gets.
    next_state: usize,
}

#[derive(Clone, Copy)]
struct Member {
    /// The group's base state.
    group: usize,
    /// The ladder state the class's artifacts are at.
    at: usize,
}

/// One built step, held for the siblings at `from`: the tightened model
/// and the artifacts after it, at state `to`.
struct SharedStep {
    /// The class that built it.
    builder: usize,
    from: usize,
    goal: PerformanceGoal,
    to: usize,
    model: DecisionModel,
    artifacts: TrainingArtifacts,
}

impl LadderStore {
    /// Groups the classes whose schedulers have the same inputs; a group
    /// is named by its first class.
    fn new(schedulers: &[OnlineScheduler]) -> Self {
        let first: Vec<usize> = (0..schedulers.len())
            .map(|i| {
                (0..i)
                    .find(|&j| schedulers[j].same_inputs(&schedulers[i]))
                    .unwrap_or(i)
            })
            .collect();
        let members = (0..schedulers.len())
            .map(|i| {
                let siblings = first.iter().filter(|&&g| g == first[i]).count();
                (siblings > 1).then_some(Member {
                    group: first[i],
                    at: first[i],
                })
            })
            .collect();
        LadderStore {
            members,
            steps: Vec::new(),
            next_state: schedulers.len(),
        }
    }

    /// The store as `class`'s scheduler sees it, if the class has siblings.
    fn siblings(&mut self, class: usize) -> Option<Siblings<'_>> {
        self.members[class]
            .is_some()
            .then_some(Siblings { store: self, class })
    }

    /// After `class`'s scheduler was replaced: it leaves its group, with
    /// the steps it built, and joins the group of a class with the same
    /// inputs, if there is one.
    fn regroup(&mut self, class: usize, schedulers: &[OnlineScheduler]) {
        if let Some(left) = self.members[class].take() {
            let rest: Vec<usize> = (0..self.members.len())
                .filter(|&k| matches!(&self.members[k], Some(m) if m.group == left.group))
                .collect();
            if let [alone] = rest[..] {
                self.members[alone] = None;
            }
            self.steps.retain(|step| step.builder != class);
            self.drop_unreachable();
        }
        let Some(peer) = (0..schedulers.len())
            .find(|&k| k != class && schedulers[k].same_inputs(&schedulers[class]))
        else {
            return;
        };
        // Same inputs: the peer is untightened, still at its base state.
        let member = match self.members[peer] {
            Some(member) => member,
            None => {
                let base = self.fresh_state();
                Member {
                    group: base,
                    at: base,
                }
            }
        };
        self.members[peer] = Some(member);
        self.members[class] = Some(member);
    }

    fn fresh_state(&mut self) -> usize {
        self.next_state += 1;
        self.next_state - 1
    }

    fn member(&mut self, class: usize) -> &mut Member {
        self.members[class]
            .as_mut()
            .expect("only sibling classes reach the store")
    }

    /// Drops the steps no sibling sits at the start of.
    fn drop_unreachable(&mut self) {
        let members = &self.members;
        self.steps
            .retain(|step| members.iter().flatten().any(|m| m.at == step.from));
    }
}

/// One sibling class's view of the [`LadderStore`], handed to its
/// scheduler's Shift path.
pub(crate) struct Siblings<'a> {
    store: &'a mut LadderStore,
    class: usize,
}

impl Siblings<'_> {
    /// The step from this class's ladder state to `goal`, if a sibling
    /// built it there: the model and the artifacts after it (memos shared
    /// until either side tightens again). The class moves to its state.
    pub(crate) fn take(
        &mut self,
        goal: &PerformanceGoal,
    ) -> Option<(DecisionModel, TrainingArtifacts)> {
        let from = self.store.member(self.class).at;
        let step =
            (self.store.steps.iter()).find(|step| step.from == from && step.goal == *goal)?;
        let (to, taken) = (step.to, (step.model.clone(), step.artifacts.clone()));
        self.store.member(self.class).at = to;
        self.store.drop_unreachable();
        Some(taken)
    }

    /// Records the step to `goal` this class just built, `model` with
    /// `artifacts` after it, and holds it for the siblings at the state it
    /// started from.
    pub(crate) fn offer(
        &mut self,
        goal: &PerformanceGoal,
        model: &DecisionModel,
        artifacts: &TrainingArtifacts,
    ) {
        let to = self.store.fresh_state();
        let member = self.store.member(self.class);
        let from = std::mem::replace(&mut member.at, to);
        if (self.store.members.iter().flatten()).any(|m| m.at == from) {
            self.store.steps.push(SharedStep {
                builder: self.class,
                from,
                goal: goal.clone(),
                to,
                model: model.clone(),
                artifacts: artifacts.clone(),
            });
        }
        self.store.drop_unreachable();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::model::ModelConfig;
    use crate::online::Planner;
    use wisedb_core::{GoalKind, PerformanceGoal, QueryId, TemplateId, VmType, WorkloadSpec};

    fn spec() -> WorkloadSpec {
        WorkloadSpec::single_vm(
            vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
            VmType::t2_medium(),
        )
        .unwrap()
    }

    fn tiny() -> OnlineConfig {
        OnlineConfig {
            training: ModelConfig {
                num_samples: 40,
                sample_size: 5,
                seed: 3,
                ..ModelConfig::fast()
            },
            ..OnlineConfig::default()
        }
    }

    fn classes(spec: &WorkloadSpec) -> Vec<SlaClass> {
        vec![
            SlaClass::new(
                "gold",
                PerformanceGoal::paper_default(GoalKind::MaxLatency, spec).unwrap(),
            )
            .with_priority(2),
            SlaClass::new(
                "bronze",
                PerformanceGoal::paper_default(GoalKind::AverageLatency, spec).unwrap(),
            ),
        ]
    }

    /// `classes` plus a second class on gold's goal.
    fn with_twin(spec: &WorkloadSpec) -> Vec<SlaClass> {
        let mut set = classes(spec);
        set.push(SlaClass::new("gold-2", set[0].goal.clone()));
        set
    }

    /// Each class's sibling group, `None` without siblings.
    fn groups(multi: &MultiScheduler) -> Vec<Option<usize>> {
        (multi.ladder.members.iter())
            .map(|m| m.as_ref().map(|m| m.group))
            .collect()
    }

    #[test]
    fn trains_one_scheduler_per_class_on_one_spec() {
        let spec = spec();
        let multi = MultiScheduler::train(spec.clone(), with_twin(&spec), tiny()).unwrap();
        assert_eq!(multi.classes().len(), 3);
        assert_eq!(multi.class(TenantId(0)).unwrap().name, "gold");
        // Every class model shares the interned spec allocation.
        for id in 0..3 {
            assert!(multi
                .scheduler(TenantId(id))
                .unwrap()
                .base_model()
                .spec_handle()
                .ptr_eq(multi.spec_handle()));
        }
        // The twin's model is gold's, trained once (one solve cache), and
        // the one a training of its own would produce.
        let (gold, twin) = (
            multi.scheduler(TenantId(0)).unwrap(),
            multi.scheduler(TenantId(2)).unwrap(),
        );
        assert!(Arc::ptr_eq(
            gold.warm_start().cache(),
            twin.warm_start().cache()
        ));
        let solo = OnlineScheduler::train(
            spec.clone(),
            gold.base_model().goal_handle().clone(),
            tiny(),
        )
        .unwrap();
        assert_eq!(twin.base_model().tree(), solo.base_model().tree());
        assert!(twin.same_inputs(&solo));
        assert_eq!(groups(&multi), [Some(0), None, Some(0)]);
        assert!(matches!(
            multi.class(TenantId(7)),
            Err(CoreError::UnknownTenantClass { .. })
        ));
    }

    #[test]
    fn siblings_share_a_shift_step_and_regroup_on_swap() {
        let spec = spec();
        let mut multi = MultiScheduler::train(spec.clone(), with_twin(&spec), tiny()).unwrap();
        // Waited 10 s: both gold classes shift to the same tightened goal.
        let aged = |id| {
            [PendingArrival {
                id: QueryId(id),
                template: TemplateId(0),
                arrival: Millis::ZERO,
            }]
        };
        let now = Millis::from_secs(10);
        let view = ClusterView::default();
        let work =
            |multi: &MultiScheduler, class| multi.scheduler(TenantId(class)).unwrap().counters();
        let first = multi
            .plan_arrivals(TenantId(0), &view, &aged(0), now)
            .unwrap();
        assert_eq!(multi.shared_steps(), 1, "held for gold-2");
        let second = multi
            .plan_arrivals(TenantId(2), &view, &aged(1), now)
            .unwrap();
        assert_eq!(first.len(), second.len());
        assert_eq!(multi.shared_steps(), 0, "taken by the last sibling");
        assert_eq!(
            (work(&multi, 0).shifts, work(&multi, 0).sibling_shifts),
            (1, 0)
        );
        assert_eq!(
            (work(&multi, 2).shifts, work(&multi, 2).sibling_shifts),
            (1, 1)
        );
        assert_eq!(groups(&multi), [Some(0), None, Some(0)]);

        // A model of another seed has other inputs: gold-2 leaves.
        let shared = multi.spec_handle().clone();
        let goal = multi.class(TenantId(0)).unwrap().goal.clone();
        let train = |seed| {
            ModelGenerator::new(
                shared.clone(),
                goal.clone(),
                tiny().training.with_seed(seed),
            )
            .train_with_artifacts()
            .unwrap()
        };
        let (model, artifacts) = train(99);
        multi.swap_model(TenantId(2), model, artifacts).unwrap();
        assert_eq!(groups(&multi), [None, None, None], "gold is left alone");
        multi
            .plan_arrivals(TenantId(0), &view, &aged(2), now + now)
            .unwrap();
        assert_eq!(multi.shared_steps(), 0, "no sibling left to take it");

        // Gold swapped to gold-2's inputs: siblings again, in a new group.
        let (model, artifacts) = train(99);
        multi.swap_model(TenantId(0), model, artifacts).unwrap();
        assert_eq!(groups(&multi), [Some(4), None, Some(4)]);
        multi
            .plan_arrivals(TenantId(2), &view, &aged(3), now)
            .unwrap();
        multi
            .plan_arrivals(TenantId(0), &view, &aged(4), now)
            .unwrap();
        assert_eq!(
            (work(&multi, 0).shifts, work(&multi, 0).sibling_shifts),
            (1, 1)
        );
        assert_eq!(multi.shared_steps(), 0);
        // Gold took gold-2's step but keeps its own solve cache.
        assert!(!Arc::ptr_eq(
            multi.scheduler(TenantId(0)).unwrap().warm_start().cache(),
            multi.scheduler(TenantId(2)).unwrap().warm_start().cache()
        ));
    }

    #[test]
    fn an_idle_sibling_holds_one_step_however_far_the_busy_one_climbs() {
        let spec = spec();
        // One Shift cache entry: alternating waits miss every time.
        let config = OnlineConfig {
            cache_capacity: 1,
            ..tiny()
        };
        let mut multi = MultiScheduler::train(spec.clone(), with_twin(&spec), config).unwrap();
        let view = ClusterView::default();
        let aged = |id| {
            [PendingArrival {
                id: QueryId(id),
                template: TemplateId(0),
                arrival: Millis::ZERO,
            }]
        };
        let waits = |i| Millis::from_secs(if i % 2 == 0 { 10 } else { 20 });
        for i in 0..16 {
            multi
                .plan_arrivals(TenantId(0), &view, &aged(i), waits(i))
                .unwrap();
            assert_eq!(multi.shared_steps(), 1, "only gold's first step waits");
        }
        assert_eq!(multi.scheduler(TenantId(0)).unwrap().counters().shifts, 16);
        multi
            .plan_arrivals(TenantId(2), &view, &aged(16), waits(0))
            .unwrap();
        let twin = multi.scheduler(TenantId(2)).unwrap().counters();
        assert_eq!((twin.shifts, twin.sibling_shifts), (1, 1));
        assert_eq!(multi.shared_steps(), 0);
    }

    #[test]
    fn a_swapped_sibling_takes_the_steps_it_built_along() {
        let spec = spec();
        let mut set = with_twin(&spec);
        set.push(SlaClass::new("gold-3", set[0].goal.clone()));
        let mut multi = MultiScheduler::train(spec.clone(), set, tiny()).unwrap();
        let view = ClusterView::default();
        let aged = |id| {
            [PendingArrival {
                id: QueryId(id),
                template: TemplateId(0),
                arrival: Millis::ZERO,
            }]
        };
        let now = Millis::from_secs(10);
        multi
            .plan_arrivals(TenantId(3), &view, &aged(0), now)
            .unwrap();
        assert_eq!(multi.shared_steps(), 1, "held for gold and gold-2");

        // Retrained on the same inputs: gold-3 rejoins at the base state,
        // and the step it built before goes with it.
        let goal = multi.class(TenantId(3)).unwrap().goal.clone();
        let (model, artifacts) =
            ModelGenerator::new(multi.spec_handle().clone(), goal, tiny().training)
                .train_with_artifacts()
                .unwrap();
        multi.swap_model(TenantId(3), model, artifacts).unwrap();
        assert_eq!(groups(&multi), [Some(0), None, Some(0), Some(0)]);
        assert_eq!(multi.shared_steps(), 0);

        multi
            .plan_arrivals(TenantId(0), &view, &aged(1), now)
            .unwrap();
        multi
            .plan_arrivals(TenantId(3), &view, &aged(2), now)
            .unwrap();
        let work = multi.scheduler(TenantId(3)).unwrap().counters();
        assert_eq!((work.shifts, work.sibling_shifts), (1, 1));
        assert_eq!(multi.shared_steps(), 1, "held for gold-2");
    }

    #[test]
    fn routes_batches_to_the_class_model() {
        let spec = spec();
        let class_set = classes(&spec);
        let mut multi = MultiScheduler::train(spec, class_set, tiny()).unwrap();
        let view = ClusterView::default();
        let batch = [PendingArrival {
            id: QueryId(0),
            template: TemplateId(1),
            arrival: Millis::ZERO,
        }];
        for class in [TenantId(0), TenantId(1)] {
            let plan = multi
                .plan_arrivals(class, &view, &batch, Millis::ZERO)
                .unwrap();
            assert!(!plan.is_empty(), "{class} plans the batch");
        }
        assert!(matches!(
            multi.plan_arrivals(TenantId(9), &view, &batch, Millis::ZERO),
            Err(CoreError::UnknownTenantClass { .. })
        ));
    }

    #[test]
    fn swap_model_validates_spec_and_goal() {
        let spec = spec();
        let mut multi = MultiScheduler::train(spec.clone(), classes(&spec), tiny()).unwrap();
        let shared = multi.spec_handle().clone();
        let gold_goal = multi.class(TenantId(0)).unwrap().goal.clone();

        // A fresh model for the same (spec, goal) swaps in.
        let (ok_model, ok_artifacts) = ModelGenerator::new(
            shared.clone(),
            gold_goal.clone(),
            tiny().training.with_seed(99),
        )
        .train_with_artifacts()
        .unwrap();
        multi
            .swap_model(TenantId(0), ok_model, ok_artifacts)
            .unwrap();

        // Wrong goal (bronze's) is rejected.
        let bronze_goal = multi.class(TenantId(1)).unwrap().goal.clone();
        let (bad_model, bad_artifacts) = ModelGenerator::new(shared, bronze_goal, tiny().training)
            .train_with_artifacts()
            .unwrap();
        assert!(matches!(
            multi.swap_model(TenantId(0), bad_model, bad_artifacts),
            Err(CoreError::ModelMismatch { .. })
        ));
    }

    #[test]
    fn single_class_multi_is_the_plain_scheduler() {
        // One class => plan_arrivals must agree step-for-step with a
        // standalone OnlineScheduler for the same goal and seed.
        let spec = spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let mut solo = OnlineScheduler::train(spec.clone(), goal.clone(), tiny()).unwrap();
        let mut multi = MultiScheduler::train(spec, vec![SlaClass::solo(goal)], tiny()).unwrap();
        let view = ClusterView::default();
        for (i, t) in [1u32, 0, 1].iter().enumerate() {
            let batch = [PendingArrival {
                id: QueryId(i as u32),
                template: TemplateId(*t),
                arrival: Millis::from_secs(i as u64),
            }];
            let now = Millis::from_secs(i as u64);
            let a = solo.plan_arrivals(&view, &batch, now).unwrap();
            let b = multi
                .plan_arrivals(TenantId::DEFAULT, &view, &batch, now)
                .unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn oracle_planner_works_per_class() {
        let spec = spec();
        let class_set = classes(&spec);
        let config = OnlineConfig {
            planner: Planner::Optimal,
            ..tiny()
        };
        let mut multi = MultiScheduler::train(spec, class_set, config).unwrap();
        let batch = [PendingArrival {
            id: QueryId(0),
            template: TemplateId(0),
            arrival: Millis::ZERO,
        }];
        let plan = multi
            .plan_arrivals(TenantId(1), &ClusterView::default(), &batch, Millis::ZERO)
            .unwrap();
        assert!(!plan.is_empty());
    }
}
