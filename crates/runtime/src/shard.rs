//! Names `benchmark/` still uses from the scheduler-sharding era, and
//! the multi-class tick's tests.
//!
//! A multi-class [`offer_tick`](WorkloadService::offer_tick) plans every
//! group on the calling thread (see [`crate::service`]); there is no
//! shard layout left to configure. Each name below is accepted and
//! ignored; it is kept only because `benchmark/` names it, and ROADMAP
//! 3(c) deletes it in a benchmark PR.

use crate::service::{TickStats, WorkloadService};

/// The one engine under its former name. Accepted and ignored; kept only
/// because `benchmark/` names it; ROADMAP 3(c) deletes it in a benchmark
/// PR.
pub type ShardedService = WorkloadService;

/// The tick counters under their former name. Accepted and ignored;
/// kept only because `benchmark/` names it; ROADMAP 3(c) deletes it in a
/// benchmark PR.
pub type ShardStats = TickStats;

/// Accepted and ignored; kept only because `benchmark/` names it;
/// ROADMAP 3(c) deletes it in a benchmark PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSignal {
    /// Accepted and ignored; kept only because `benchmark/` names it;
    /// ROADMAP 3(c) deletes it in a benchmark PR.
    BatchSize,
}

/// Accepted and ignored; kept only because `benchmark/` names it;
/// ROADMAP 3(c) deletes it in a benchmark PR.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Accepted and ignored; kept only because `benchmark/` names it;
    /// ROADMAP 3(c) deletes it in a benchmark PR.
    pub shards: usize,
    /// Accepted and ignored; kept only because `benchmark/` names it;
    /// ROADMAP 3(c) deletes it in a benchmark PR.
    pub signal: LoadSignal,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            signal: LoadSignal::BatchSize,
        }
    }
}

impl WorkloadService {
    /// Returns the service unchanged. Accepted and ignored; kept only
    /// because `benchmark/` names it; ROADMAP 3(c) deletes it in a
    /// benchmark PR.
    pub fn into_sharded(self, _config: ShardConfig) -> WorkloadService {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{config, scrub, spec, tagged_stream, three_classes};
    use crate::service::OfferOutcome;
    use wisedb_advisor::ModelConfig;
    use wisedb_core::{CoreError, Millis, TemplateId, TenantId};

    /// A three-class service.
    fn service() -> WorkloadService {
        let spec = spec();
        let classes = three_classes(&spec);
        WorkloadService::train_classes(spec, classes, config()).unwrap()
    }

    #[test]
    fn into_sharded_leaves_multi_group_ticks_untouched() {
        let stream = tagged_stream(8);

        let mut untouched = service();
        let expected = untouched.run_ticked(&stream, 4).unwrap();

        let mut relaid = service().into_sharded(ShardConfig {
            shards: 4,
            signal: LoadSignal::BatchSize,
        });
        let report = relaid.run_ticked(&stream, 4).unwrap();

        assert_eq!(report.completions, expected.completions);
        assert_eq!(scrub(report.last), scrub(expected.last));
        assert_eq!(relaid.stats(), untouched.stats());
        assert!(relaid.stats().epochs > 0, "ticks of 4 span several classes");
    }

    #[test]
    fn ticked_replay_matches_per_arrival_replay_for_singleton_ticks() {
        let stream = tagged_stream(5);

        let mut by_hand = service();
        for q in &stream {
            assert!(by_hand.offer_as(q.template, q.class, q.arrival).unwrap());
        }
        by_hand.drain();

        let mut ticked = service();
        let report = ticked.run_ticked(&stream, 1).unwrap();

        assert_eq!(by_hand.completions(), &report.completions[..]);
        assert_eq!(scrub(by_hand.snapshot()), scrub(report.last));
        // One-group ticks are planned inline: counted, but no epoch view.
        for stats in [by_hand.stats(), ticked.stats()] {
            assert_eq!((stats.ticks, stats.epochs), (15, 0));
            assert_eq!((stats.decisions, stats.merged_plans), (15, 15));
        }
    }

    #[test]
    fn tick_groups_fail_independently() {
        let mut svc = service();
        let at = Millis::from_secs(5);
        let results = svc
            .offer_tick(&[
                (TenantId(0), vec![(TemplateId(0), at)]),
                (TenantId(9), vec![(TemplateId(0), at)]),
                (TenantId(1), vec![(TemplateId(1), at)]),
                // Class 0 already heads a planned group: a second group is
                // refused, not planned.
                (TenantId(0), vec![(TemplateId(1), at)]),
            ])
            .unwrap();
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].as_ref().unwrap(), &vec![OfferOutcome::Admitted]);
        assert!(matches!(
            results[1],
            Err(CoreError::UnknownTenantClass { class: TenantId(9) })
        ));
        assert_eq!(results[2].as_ref().unwrap(), &vec![OfferOutcome::Admitted]);
        assert!(matches!(
            results[3],
            Err(CoreError::InconsistentPlan { .. })
        ));
        svc.drain();
        assert_eq!(svc.snapshot().completed, 2);
    }

    #[test]
    fn swap_model_rejects_mismatches_and_applies_matches() {
        let mut svc = service();

        // A model trained for class 1's goal fits class 1, not class 0.
        let goal = svc.classes()[1].goal.clone();
        let generator = wisedb_advisor::ModelGenerator::new(
            svc.scheduler(TenantId(1))
                .unwrap()
                .base_model()
                .spec_handle()
                .clone(),
            goal,
            ModelConfig {
                num_samples: 40,
                sample_size: 5,
                seed: 9,
                ..ModelConfig::fast()
            },
        );
        let (model, artifacts) = generator.train_with_artifacts().unwrap();
        assert!(matches!(
            svc.swap_model(TenantId(0), model.clone(), artifacts.clone()),
            Err(CoreError::ModelMismatch { .. })
        ));
        assert!(matches!(
            svc.swap_model(TenantId(9), model.clone(), artifacts.clone()),
            Err(CoreError::UnknownTenantClass { .. })
        ));
        svc.swap_model(TenantId(1), model, artifacts).unwrap();
        assert!(svc
            .offer_as(TemplateId(0), TenantId(1), Millis::from_secs(1))
            .unwrap());
    }
}
