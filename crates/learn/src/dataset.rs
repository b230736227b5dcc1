//! Training-set assembly: `(features, decision)` pairs from optimal paths.

use wisedb_core::{PerformanceGoal, WorkloadSpec};
use wisedb_search::OptimalSchedule;

use crate::features::FeatureSchema;

/// A dense training set for the decision-tree learner.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Column layout.
    pub schema: FeatureSchema,
    /// One feature vector per decision, row-major.
    pub rows: Vec<Vec<f64>>,
    /// The decision label taken at each row (see
    /// [`wisedb_search::Decision::label`]).
    pub labels: Vec<usize>,
}

impl Dataset {
    /// An empty dataset for the given schema.
    pub fn new(schema: FeatureSchema) -> Self {
        Dataset {
            schema,
            rows: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Number of training examples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends every decision of one optimal path.
    pub(crate) fn push_path(
        &mut self,
        spec: &WorkloadSpec,
        goal: &PerformanceGoal,
        path: &OptimalSchedule,
    ) {
        for step in &path.steps {
            let features = self.schema.extract(spec, goal, &step.state);
            self.rows.push(features);
            self.labels
                .push(step.decision.label(self.schema.num_templates));
        }
    }

    /// Builds a dataset from a batch of optimal paths.
    pub fn from_paths(
        spec: &WorkloadSpec,
        goal: &PerformanceGoal,
        paths: &[OptimalSchedule],
    ) -> Self {
        let mut ds = Dataset::new(FeatureSchema::for_spec(spec));
        for p in paths {
            ds.push_path(spec, goal, p);
        }
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisedb_core::{Millis, PenaltyRate, VmType, Workload};
    use wisedb_search::Solver;

    #[test]
    fn dataset_collects_one_row_per_decision() {
        let spec = WorkloadSpec::single_vm(
            vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
            VmType::t2_medium(),
        )
        .unwrap();
        let goal = PerformanceGoal::PerQuery {
            deadlines: vec![Millis::from_mins(3), Millis::from_mins(1)],
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let workload = Workload::from_counts(&[1, 2]);
        let path = Solver::new(&spec, &goal).solve(&workload).unwrap();
        let ds = Dataset::from_paths(&spec, &goal, std::slice::from_ref(&path));
        assert_eq!(ds.len(), path.steps.len());
        assert!(!ds.is_empty());
        // Labels are within the decision domain |T| + |V|.
        assert!(ds.labels.iter().all(|&l| l < ds.schema.num_labels()));
        // Placements of T1, T2 and VM creations all appear.
        let mut hist = vec![0usize; ds.schema.num_labels()];
        for &l in &ds.labels {
            hist[l] += 1;
        }
        assert_eq!(hist[0], 1); // one T1 placement
        assert_eq!(hist[1], 2); // two T2 placements
        assert!(hist[2] >= 1); // at least one VM creation
    }
}
