//! `MultiScheduler` against one independent `OnlineScheduler` per class.
//!
//! One to three sibling classes (the same PerQuery goal, the same
//! training) and one distinct class (Max, another Shift ladder, or
//! Average, the Reuse path) plan random batches whose waits reach every
//! age bucket up to past the longest deadline: shifts that saturate some
//! or every deadline, and sequences that loosen after tightening, so the
//! siblings' ladders diverge. Built with `train` or over separately
//! trained schedulers (`with_schedulers`), with unbounded or two-entry
//! caches, the multiplexed scheduler must plan every batch exactly like
//! the class's own scheduler, and agree on every class's counters and
//! cache sizes.
//!
//! The siblings share one Shift ladder. A model of the sharing rule runs
//! beside them, fed each class's own ladder (the shifted goals its
//! independent scheduler retrained for, in order): every sibling sits at
//! a ladder state; a step built from a state is held while a sibling
//! still sits there, and a sibling reaching the same goal from that state
//! takes it instead of retraining. After every call the multiplexed
//! scheduler must agree with the model on each class's taken shifts and
//! on the held steps, and hold at most one step per pair of siblings; a
//! class without siblings takes nothing.

use proptest::prelude::*;

use wisedb::advisor::{ClusterView, MultiScheduler, OnlineCounters, PendingArrival};
use wisedb::prelude::*;

const QUANTUM: Millis = Millis::from_secs(60);

fn spec() -> WorkloadSpec {
    WorkloadSpec::single_vm(
        vec![
            ("T1", Millis::from_mins(2)),
            ("T2", Millis::from_mins(1)),
            ("T3", Millis::from_mins(3)),
        ],
        VmType::t2_medium(),
    )
    .unwrap()
}

fn online(bounded: bool) -> OnlineConfig {
    OnlineConfig {
        training: ModelConfig {
            num_samples: 16,
            sample_size: 4,
            seed: 9,
            threads: 1,
            ..ModelConfig::fast()
        },
        age_quantum: QUANTUM,
        cache_capacity: if bounded { 2 } else { 0 },
        ..OnlineConfig::default()
    }
}

/// `siblings` PerQuery classes with the distinct class second.
fn classes(spec: &WorkloadSpec, siblings: usize, distinct: GoalKind) -> Vec<SlaClass> {
    let goal = |kind| PerformanceGoal::paper_default(kind, spec).unwrap();
    let mut classes: Vec<SlaClass> = (0..siblings)
        .map(|i| SlaClass::new(format!("sibling-{i}"), goal(GoalKind::PerQuery)))
        .collect();
    classes.insert(1, SlaClass::new("distinct", goal(distinct)));
    classes
}

/// The sharing rule over the siblings' ladder states (numbers, fresh for
/// each built step).
struct LadderModel {
    /// Each sibling's state, `None` for the other classes.
    at: Vec<Option<usize>>,
    /// Held steps: (from, goal, to).
    held: Vec<(usize, PerformanceGoal, usize)>,
    next: usize,
    /// Each class's shifts taken from a sibling.
    taken: Vec<usize>,
}

impl LadderModel {
    fn new(siblings: &[usize], classes: usize) -> Self {
        let grouped = siblings.len() > 1;
        LadderModel {
            at: (0..classes)
                .map(|c| (grouped && siblings.contains(&c)).then_some(0))
                .collect(),
            held: Vec::new(),
            next: 1,
            taken: vec![0; classes],
        }
    }

    /// `class` shifted to `goal`.
    fn shift(&mut self, class: usize, goal: PerformanceGoal) {
        let Some(from) = self.at[class] else { return };
        let to = match self.held.iter().find(|(f, g, _)| *f == from && *g == goal) {
            Some(&(_, _, to)) => {
                self.taken[class] += 1;
                to
            }
            None => {
                self.next += 1;
                if (self.at.iter().enumerate()).any(|(c, at)| c != class && *at == Some(from)) {
                    self.held.push((from, goal, self.next));
                }
                self.next
            }
        };
        self.at[class] = Some(to);
        let at = &self.at;
        self.held.retain(|(f, _, _)| at.contains(&Some(*f)));
    }
}

/// A wait in quanta.
fn wait() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..=2, 0u32..=12]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64, .. ProptestConfig::default()
    })]

    #[test]
    fn multi_scheduler_plans_like_one_scheduler_per_class(
        siblings in 1usize..=3,
        average in prop_oneof![Just(false), Just(true)],
        via_train in prop_oneof![Just(false), Just(true)],
        bounded in prop_oneof![Just(false), Just(true)],
        // One planning call each: a class pick, the clock step before it
        // in seconds, and the batch as (template, wait in quanta). Waits
        // reach 12 quanta (the longest deadline is 9); half stay within
        // two, so the siblings' ladders often agree for a while.
        ops in collection::vec(
            (0u32..1_000, 0u32..200, collection::vec((0u32..3, wait()), 1..=3)),
            1..=24,
        ),
    ) {
        let spec = spec();
        let config = online(bounded);
        let distinct = if average { GoalKind::AverageLatency } else { GoalKind::MaxLatency };
        let class_set = classes(&spec, siblings, distinct);
        let train_one = |class: &SlaClass| {
            OnlineScheduler::train(spec.clone(), class.goal.clone(), config.clone()).unwrap()
        };
        let mut reference: Vec<OnlineScheduler> = class_set.iter().map(train_one).collect();
        let mut multi = if via_train {
            MultiScheduler::train(spec.clone(), class_set.clone(), config.clone()).unwrap()
        } else {
            let schedulers = class_set.iter().map(train_one).collect();
            MultiScheduler::with_schedulers(class_set.clone(), schedulers, config.clone()).unwrap()
        };

        let view = ClusterView::default();
        let mut now = Millis::HOUR;
        let mut next_id = 0u32;
        let sibling_ids: Vec<usize> = (0..class_set.len()).filter(|&c| c != 1).collect();
        let mut ladder = LadderModel::new(&sibling_ids, class_set.len());
        let most_held = sibling_ids.len() * (sibling_ids.len() - 1) / 2;
        for (pick, step, queries) in &ops {
            let class = *pick as usize % class_set.len();
            now += Millis::from_secs(u64::from(*step));
            let batch: Vec<PendingArrival> = queries
                .iter()
                .map(|&(template, wait)| {
                    next_id += 1;
                    PendingArrival {
                        id: QueryId(next_id),
                        template: TemplateId(template),
                        arrival: now.saturating_sub(QUANTUM * u64::from(wait)),
                    }
                })
                .collect();
            let shifts = reference[class].counters().shifts;
            let expected = reference[class].plan_arrivals(&view, &batch, now).unwrap();
            let planned = multi
                .plan_arrivals(TenantId(class as u32), &view, &batch, now)
                .unwrap();
            prop_assert_eq!(planned, expected, "class {} at {}", class, now);
            if reference[class].counters().shifts > shifts {
                // Waits are whole quanta, so the oldest wait is the bucket.
                let bucket = queries.iter().map(|&(_, wait)| wait).max().unwrap_or(0);
                let shift = QUANTUM * u64::from(bucket);
                ladder.shift(class, class_set[class].goal.shift(shift).unwrap());
            }

            for c in 0..class_set.len() {
                let work = multi.scheduler(TenantId(c as u32)).unwrap().counters();
                prop_assert_eq!(work.sibling_shifts, ladder.taken[c], "class {}", c);
            }
            prop_assert_eq!(multi.shared_steps(), ladder.held.len());
            prop_assert!(multi.shared_steps() <= most_held);
        }
        for (c, solo) in reference.iter().enumerate() {
            let shared = multi.scheduler(TenantId(c as u32)).unwrap();
            let counters = OnlineCounters {
                sibling_shifts: 0,
                ..shared.counters()
            };
            prop_assert_eq!(counters, solo.counters(), "class {}", c);
            prop_assert_eq!(shared.cache_sizes(), solo.cache_sizes(), "class {}", c);
        }
    }
}
