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
    validate_classes, CoreError, CoreResult, Millis, SlaClass, SpecHandle, TenantId,
};

use crate::model::{DecisionModel, TrainingArtifacts};
use crate::online::{ArrivalPlan, ClusterView, OnlineConfig, OnlineScheduler, PendingArrival};

/// Per-class online schedulers multiplexed over one shared cluster view.
pub struct MultiScheduler {
    spec: SpecHandle,
    classes: Vec<SlaClass>,
    /// One scheduler per class, indexed by [`TenantId`]. A slot is `None`
    /// only while its scheduler is [lent](MultiScheduler::lend) to a
    /// planner thread.
    schedulers: Vec<Option<OnlineScheduler>>,
    config: OnlineConfig,
}

impl MultiScheduler {
    /// Trains one base model per class against the shared `spec`. Classes
    /// are identified by their index: `classes[i]` is [`TenantId`]`(i)`.
    pub fn train(
        spec: impl Into<SpecHandle>,
        classes: Vec<SlaClass>,
        config: OnlineConfig,
    ) -> CoreResult<Self> {
        let spec = spec.into();
        validate_classes(&classes, &spec)?;
        let schedulers = classes
            .iter()
            .map(|class| {
                OnlineScheduler::train(spec.clone(), class.goal.clone(), config.clone()).map(Some)
            })
            .collect::<CoreResult<Vec<_>>>()?;
        Ok(MultiScheduler {
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
            spec,
            classes,
            schedulers: schedulers.into_iter().map(Some).collect(),
            config,
        })
    }

    /// The shared workload specification.
    pub fn spec_handle(&self) -> &SpecHandle {
        &self.spec
    }

    /// Takes one class's scheduler out of the table so it can plan on
    /// another thread; [`restore`](Self::restore) brings it home. While it
    /// is out, the class reads as unknown to [`scheduler`](Self::scheduler)
    /// and [`plan_arrivals`](Self::plan_arrivals), and so does a second
    /// `lend`.
    pub fn lend(&mut self, class: TenantId) -> CoreResult<OnlineScheduler> {
        self.schedulers
            .get_mut(class.index())
            .and_then(Option::take)
            .ok_or(CoreError::UnknownTenantClass { class })
    }

    /// Puts back the scheduler [`lend`](Self::lend) handed out for `class`,
    /// caches and all.
    pub fn restore(&mut self, class: TenantId, scheduler: OnlineScheduler) {
        self.schedulers[class.index()] = Some(scheduler);
    }

    /// The configured SLA classes, indexed by [`TenantId`].
    pub fn classes(&self) -> &[SlaClass] {
        &self.classes
    }

    /// Number of SLA classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
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
            .and_then(Option::as_ref)
            .ok_or(CoreError::UnknownTenantClass { class })
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
    ) -> CoreResult<ArrivalPlan> {
        let scheduler = self
            .schedulers
            .get_mut(class.index())
            .and_then(Option::as_mut)
            .ok_or(CoreError::UnknownTenantClass { class })?;
        scheduler.plan_arrivals(view, batch, now)
    }

    /// Hot-swaps one class's decision model — the background-retraining
    /// hook: a drift-adapted model trained off the event loop replaces the
    /// class's scheduler (fresh caches) and takes effect on the next
    /// arrival. In-flight and queued work is untouched; only future plans
    /// consult the new model.
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
        self.schedulers[class.index()] = Some(OnlineScheduler::with_model(
            model,
            artifacts,
            self.config.clone(),
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelConfig, ModelGenerator};
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

    #[test]
    fn trains_one_scheduler_per_class_on_one_spec() {
        let spec = spec();
        let multi = MultiScheduler::train(spec.clone(), classes(&spec), tiny()).unwrap();
        assert_eq!(multi.num_classes(), 2);
        assert_eq!(multi.class(TenantId(0)).unwrap().name, "gold");
        // Every class model shares the interned spec allocation.
        for id in 0..2 {
            assert!(multi
                .scheduler(TenantId(id))
                .unwrap()
                .base_model()
                .spec_handle()
                .ptr_eq(multi.spec_handle()));
        }
        assert!(matches!(
            multi.class(TenantId(7)),
            Err(CoreError::UnknownTenantClass { .. })
        ));
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
            assert!(!plan.steps.is_empty(), "{class} plans the batch");
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
            assert_eq!(a.steps, b.steps);
        }
    }

    #[test]
    fn lend_and_restore_round_trip_keeps_the_scheduler() {
        let spec = spec();
        let class_set = classes(&spec);
        let mut multi = MultiScheduler::train(spec, class_set, tiny()).unwrap();
        let view = ClusterView::default();
        let batch = [PendingArrival {
            id: QueryId(0),
            template: TemplateId(0),
            arrival: Millis::ZERO,
        }];
        let plan = |multi: &mut MultiScheduler| {
            multi.plan_arrivals(TenantId(0), &view, &batch, Millis::ZERO)
        };
        let before = plan(&mut multi).unwrap();

        // While the scheduler is out, its class reads as unknown — to
        // readers, to planning, and to a second lend — and the other
        // class is untouched.
        let lent = multi.lend(TenantId(0)).unwrap();
        assert!(multi.scheduler(TenantId(0)).is_err());
        assert!(matches!(
            plan(&mut multi),
            Err(CoreError::UnknownTenantClass { .. })
        ));
        assert!(multi.lend(TenantId(0)).is_err());
        assert!(multi.lend(TenantId(9)).is_err());
        assert!(multi.scheduler(TenantId(1)).is_ok());

        // It comes home with its trained base model and caches.
        multi.restore(TenantId(0), lent);
        let after = plan(&mut multi).unwrap();
        assert_eq!(before.steps, after.steps);
        assert!(!after.retrained, "the trained base model survived the trip");
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
        assert!(!plan.steps.is_empty());
    }
}
