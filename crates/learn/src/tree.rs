//! A hand-rolled C4.5/J48-style decision-tree learner.
//!
//! The paper trains its workload-management models with Weka's J48 (§7.1),
//! i.e. C4.5: top-down induction with gain-ratio split selection and
//! confidence-based (pessimistic) error pruning. No adequate Rust crate
//! exists for this, so the learner is implemented here from scratch:
//!
//! * binary splits `feature < threshold` on numeric columns (booleans are
//!   encoded 0/1, infinities — the `cost-of-X = ∞` case — sort after every
//!   finite value and split off naturally);
//! * split selection by **gain ratio** (information gain normalized by split
//!   entropy), C4.5's guard against many-valued features;
//! * **pessimistic pruning** with the Wilson-style upper confidence bound on
//!   the leaf error rate (J48's `addErrs`, default CF = 0.25), applied
//!   bottom-up during induction (subtree replacement; subtree raising is not
//!   implemented).
//!
//! Induction copies the row-major [`Dataset`] once into column-major
//! arrays: per feature, every row id in value order (`total_cmp`) with its
//! value and label alongside. Each node owns one contiguous span of every
//! column, kept value-sorted by stably partitioning the span at each split,
//! so split search is a sequential scan rather than an `O(n log n)`
//! per-node sort with a `rows[row][f]` lookup per step. Candidate
//! thresholds sit between distinct values and their prefix label counts are
//! tie-order independent, so the scan picks exactly the splits a
//! sort-per-node builder picks. Two shortcuts keep the result bit-identical:
//!
//! * a span whose first and last values have the same bits holds one value,
//!   offers no threshold, and stays constant in every descendant, so it is
//!   neither scanned nor partitioned again;
//! * an **entropy screen** prices each boundary from a `c·log2 c` table and
//!   skips the exact entropies only where even the approximate gain plus a
//!   margin far above its worst-case rounding error (see `MARGIN`) could
//!   not beat the best split so far. Every split that can win is scored with
//!   the exact arithmetic, so every chosen threshold and gain ratio is the
//!   same `f64` a full scan computes; debug builds recompute every screened
//!   candidate and assert that it would have lost.
//!
//! Feature values must not be NaN (the schema emits finite values and
//! `+∞`).
//!
//! The trained tree is stored **flat**: a structure-of-arrays in preorder,
//! with the left child of node `i` implicitly at `i + 1` and the right child
//! index stored explicitly. The descent — `predict_with`, which sits on the
//! per-decision hot path of `schedule_batch` and every online plan — is a
//! tight iterative loop over three contiguous arrays with no recursion or
//! pointer chasing. It takes the feature values from a closure, so a caller
//! computes only the columns the path tests; `predict` is the same loop
//! over a materialised row.

use serde::{Deserialize, Serialize, Value};

use crate::dataset::Dataset;

/// Induction and pruning parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (root = 0).
    pub max_depth: usize,
    /// Minimum number of training examples in each child of a split
    /// (J48's `minNumObj`, default 2).
    pub min_leaf: usize,
    /// Minimum number of examples at a node to attempt a split.
    pub min_split: usize,
    /// Whether to apply pessimistic pruning.
    pub prune: bool,
    /// Pruning confidence factor (J48's `CF`, default 0.25; smaller prunes
    /// more aggressively, above 0.5 disables the correction). Must be
    /// positive.
    pub confidence: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 40,
            min_leaf: 2,
            min_split: 4,
            prune: true,
            confidence: 0.25,
        }
    }
}

/// Sentinel in the `feature` array marking a leaf node.
const LEAF: u32 = u32::MAX;

/// A trained decision tree mapping feature vectors to decision labels.
///
/// Nodes live in preorder in parallel arrays: node `i` is a leaf iff
/// `feature[i] == u32::MAX`, in which case `right[i]` holds its label;
/// otherwise `feature[i]`/`threshold[i]` encode the test
/// `features[feature] < threshold`, the left (`<`) child is at `i + 1` and
/// the right child at `right[i]`. `samples`/`errors` carry the per-leaf
/// training statistics shown by [`DecisionTree::render`] (splits store their
/// sample count and zero errors by convention).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    right: Vec<u32>,
    samples: Vec<u32>,
    errors: Vec<u32>,
    num_features: usize,
    num_labels: usize,
}

impl DecisionTree {
    /// Trains a tree on `dataset`.
    ///
    /// # Panics
    /// Panics if the dataset is empty (there is nothing to learn from) or
    /// `params.confidence` is not positive.
    pub fn train(dataset: &Dataset, params: &TreeParams) -> DecisionTree {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let mut span = wisedb_obs::span("learn.fit_tree");
        let mut counts = vec![0usize; dataset.schema.num_labels()];
        for &label in &dataset.labels {
            counts[label] += 1;
        }
        let mut builder = Builder::new(dataset, params);
        builder.build(0, counts, 0);
        let tree = builder.tree;
        if span.recording() {
            span.attr_u64("rows", dataset.len() as u64);
            span.attr_u64("nodes", tree.num_nodes() as u64);
            span.attr_u64("depth", tree.depth() as u64);
        }
        tree
    }

    /// Predicts the decision label for a feature vector.
    ///
    /// # Panics
    /// Panics if `features` is shorter than the training schema.
    #[inline]
    pub fn predict(&self, features: &[f64]) -> usize {
        assert!(
            features.len() >= self.num_features,
            "feature vector has {} columns, tree expects {}",
            features.len(),
            self.num_features
        );
        self.predict_with(|f| features[f])
    }

    /// Predicts the decision label, asking `feature(column)` for a value
    /// only when a split on the path tests that column — once per split,
    /// so a column tested twice on one path is asked for twice. Columns
    /// are below the training schema's width.
    #[inline]
    pub fn predict_with(&self, mut feature: impl FnMut(usize) -> f64) -> usize {
        let mut i = 0usize;
        loop {
            let f = self.feature[i];
            if f == LEAF {
                return self.right[i] as usize;
            }
            i = if feature(f as usize) < self.threshold[i] {
                i + 1
            } else {
                self.right[i] as usize
            };
        }
    }

    /// Fraction of `dataset` rows the tree classifies correctly.
    pub fn accuracy(&self, dataset: &Dataset) -> f64 {
        if dataset.is_empty() {
            return 1.0;
        }
        let correct = dataset
            .rows
            .iter()
            .zip(&dataset.labels)
            .filter(|(row, &label)| self.predict(row) == label)
            .count();
        correct as f64 / dataset.len() as f64
    }

    /// Height of the tree (a lone leaf has depth 0). The paper observes its
    /// trees stay shallow (h < 30), which bounds scheduling to `O(h·n)`.
    pub fn depth(&self) -> usize {
        let mut max = 0usize;
        let mut stack = vec![(0u32, 0usize)];
        while let Some((i, d)) = stack.pop() {
            let i = i as usize;
            if self.feature[i] == LEAF {
                max = max.max(d);
            } else {
                stack.push((i as u32 + 1, d + 1));
                stack.push((self.right[i], d + 1));
            }
        }
        max
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.feature.iter().filter(|&&f| f == LEAF).count()
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.feature.len()
    }

    /// The `(feature, threshold)` tested at the root, or `None` if the tree
    /// is a single leaf. Inspection hook for tests and tools now that the
    /// recursive node form is gone.
    pub fn root_split(&self) -> Option<(usize, f64)> {
        if self.feature[0] == LEAF {
            None
        } else {
            Some((self.feature[0] as usize, self.threshold[0]))
        }
    }

    /// Renders the tree as indented text, in the spirit of Figure 6.
    pub fn render(
        &self,
        feature_name: &dyn Fn(usize) -> String,
        label_name: &dyn Fn(usize) -> String,
    ) -> String {
        enum Item {
            Node(usize, usize),
            Text(usize, &'static str),
        }
        let mut out = String::new();
        let mut stack = vec![Item::Node(0, 0)];
        while let Some(item) = stack.pop() {
            match item {
                Item::Text(indent, text) => {
                    out.push_str(&format!("{}{text}\n", "  ".repeat(indent)));
                }
                Item::Node(i, indent) => {
                    let pad = "  ".repeat(indent);
                    if self.feature[i] == LEAF {
                        out.push_str(&format!(
                            "{pad}=> {} ({} samples, {} errors)\n",
                            label_name(self.right[i] as usize),
                            self.samples[i],
                            self.errors[i],
                        ));
                    } else {
                        out.push_str(&format!(
                            "{pad}{} < {:.6}?\n",
                            feature_name(self.feature[i] as usize),
                            self.threshold[i]
                        ));
                        // Preorder via LIFO: push in reverse emission order.
                        stack.push(Item::Node(self.right[i] as usize, indent + 1));
                        stack.push(Item::Text(indent, "no:"));
                        stack.push(Item::Node(i + 1, indent + 1));
                        stack.push(Item::Text(indent, "yes:"));
                    }
                }
            }
        }
        out
    }

    fn push_leaf(&mut self, label: usize, samples: usize, errors: usize) {
        self.feature.push(LEAF);
        self.threshold.push(0.0);
        self.right.push(label as u32);
        self.samples.push(samples as u32);
        self.errors.push(errors as u32);
    }

    fn push_split(&mut self, feature: usize, threshold: f64, samples: usize) -> usize {
        let at = self.feature.len();
        self.feature.push(feature as u32);
        self.threshold.push(threshold);
        self.right.push(0); // patched once the right subtree is placed
        self.samples.push(samples as u32);
        self.errors.push(0);
        at
    }

    /// Drops every node from `at` onward (the tail of the arrays is always a
    /// whole preorder subtree during construction — this is how pruning
    /// replaces a built subtree with a leaf).
    fn truncate(&mut self, at: usize) {
        self.feature.truncate(at);
        self.threshold.truncate(at);
        self.right.truncate(at);
        self.samples.truncate(at);
        self.errors.truncate(at);
    }

    /// Structural sanity for trees built from untrusted (deserialized) data:
    /// equal array lengths, labels/features in range, and every right-child
    /// index pointing strictly forward (which also guarantees `predict`
    /// terminates).
    fn validate(&self) -> Result<(), serde::Error> {
        let n = self.feature.len();
        if n == 0 {
            return Err(serde::Error::custom("decision tree has no nodes"));
        }
        if [
            self.threshold.len(),
            self.right.len(),
            self.samples.len(),
            self.errors.len(),
        ]
        .iter()
        .any(|&l| l != n)
        {
            return Err(serde::Error::custom(
                "decision tree arrays disagree on length",
            ));
        }
        for i in 0..n {
            if self.feature[i] == LEAF {
                if (self.right[i] as usize) >= self.num_labels {
                    return Err(serde::Error::custom(format!(
                        "leaf {i} label {} out of range",
                        self.right[i]
                    )));
                }
            } else {
                if (self.feature[i] as usize) >= self.num_features {
                    return Err(serde::Error::custom(format!(
                        "split {i} feature {} out of range",
                        self.feature[i]
                    )));
                }
                let r = self.right[i] as usize;
                if r <= i + 1 || r >= n {
                    return Err(serde::Error::custom(format!(
                        "split {i} right child {r} out of range"
                    )));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Serde: the flat preorder arrays, validated on the way in
// ---------------------------------------------------------------------------

impl Serialize for DecisionTree {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("num_features".to_owned(), self.num_features.to_value()),
            ("num_labels".to_owned(), self.num_labels.to_value()),
            ("feature".to_owned(), self.feature.to_value()),
            ("threshold".to_owned(), self.threshold.to_value()),
            ("right".to_owned(), self.right.to_value()),
            ("samples".to_owned(), self.samples.to_value()),
            ("errors".to_owned(), self.errors.to_value()),
        ])
    }
}

impl Deserialize for DecisionTree {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::custom(format!("decision tree missing `{name}`")))
        };
        let num_features = usize::from_value(field("num_features")?)?;
        let num_labels = usize::from_value(field("num_labels")?)?;
        let mut tree = DecisionTree {
            feature: Vec::new(),
            threshold: Vec::new(),
            right: Vec::new(),
            samples: Vec::new(),
            errors: Vec::new(),
            num_features,
            num_labels,
        };
        tree.feature = Vec::from_value(field("feature")?)?;
        tree.threshold = Vec::from_value(field("threshold")?)?;
        tree.right = Vec::from_value(field("right")?)?;
        tree.samples = Vec::from_value(field("samples")?)?;
        tree.errors = Vec::from_value(field("errors")?)?;
        tree.validate()?;
        Ok(tree)
    }
}

// ---------------------------------------------------------------------------
// Induction
// ---------------------------------------------------------------------------

/// Slack the entropy screen adds to its approximate gain: a boundary is
/// skipped without exact entropies only when `(approx + MARGIN) /
/// split_info` still falls short of the best gain ratio so far.
///
/// `MARGIN` is over 1e3 times the worst-case gap between
/// [`Boundary::approx_gain`] and [`Boundary::gain`] in `f64`, so `approx +
/// MARGIN` bounds the exact gain from above. Let `u = 2^-53`, `L` the label
/// count, `m < 2^32` the node's rows (row ids are `u32`) and `g` the gain
/// in real arithmetic from the same `f64` parent entropy; libm's `log2` is
/// within one ulp.
///
/// * `approx_gain` is within `(L + 9)·u·log2 m + 2u·(log2 L + 1)` of `g`:
///   each `c·log2 c` table entry is within `3u·c·log2 c`; the `2L + 2`
///   entries read sum to at most `2·m·log2 m` (counts summing to `k` have
///   `Σ c·log2 c ≤ k·log2 k`), so entry errors and the `2L + 2` rounded
///   additions stay within `(L + 9)·u·m·log2 m`; dividing by `m` and
///   subtracting from the parent entropy add the rest.
/// * `gain` is within `1.5u + (L + 7)·u·log2 L` of `g`: each `-p·log2 p`
///   term is within `1.5u + 4u·|p·log2 p|` (`p` rounded, `log2`, one
///   product), so a child entropy is within `1.5u + (L + 3)·u·log2 L` after
///   its sum, and the weights and two subtractions add `4u·log2 L`.
///
/// Together `|approx − gain| ≤ (2L + 20)·u·(log2 m + log2 L + 2) < 4.2e-11`
/// for `L ≤` [`SCREENED_LABELS`], and 1e3 × 4.2e-11 < `MARGIN`. With more
/// labels the builder uses an infinite margin, which screens nothing. Debug
/// builds assert the 1e3 factor (`|approx − gain| ≤ MARGIN · 1e-3`) on
/// every screened boundary.
const MARGIN: f64 = 1e-6;

/// The most labels [`MARGIN`]'s error argument covers.
const SCREENED_LABELS: usize = 4096;

struct Builder<'a> {
    params: &'a TreeParams,
    tree: DecisionTree,
    /// One column per feature. Invariant: every node's rows occupy the same
    /// contiguous span `[lo, lo + len)` of every column, value-sorted —
    /// maintained by stably partitioning the span at every split, so
    /// `best_split` never sorts. A column that was constant over some
    /// ancestor's span is no longer partitioned; its span still holds that
    /// one value, which is all `best_split` and `partition` read of it.
    columns: Vec<Column>,
    /// `clog[c] = c·log2 c` for every count `c ≤ n`: the screen's table.
    clog: Vec<f64>,
    /// [`MARGIN`], or `∞` when the label count is outside its argument.
    margin: f64,
    /// `normal_inverse(1 - confidence)`, once per fit (see [`add_errs`]).
    z: f64,
    /// Scratch: `in_left[row]` during a split's partition step, else false.
    in_left: Vec<bool>,
    /// Scratch for the stable partition (holds a span's right-side rows).
    spill: Column,
}

/// One feature's rows in value order, each with its value and label
/// alongside, so the split scan reads memory sequentially.
struct Column {
    rows: Vec<u32>,
    vals: Vec<f64>,
    labs: Vec<u32>,
}

impl Column {
    fn sorted(dataset: &Dataset, feature: usize) -> Column {
        let mut keyed: Vec<(f64, u32)> = (0..dataset.len())
            .map(|r| (dataset.rows[r][feature], r as u32))
            .collect();
        keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        Column {
            rows: keyed.iter().map(|&(_, r)| r).collect(),
            vals: keyed.iter().map(|&(v, _)| v).collect(),
            labs: keyed
                .iter()
                .map(|&(_, r)| dataset.labels[r as usize] as u32)
                .collect(),
        }
    }

    /// Whether the span holds a single value. It is sorted by `total_cmp`,
    /// under which only bit-identical values are equal, so equal end bits
    /// mean every value in between matches too.
    fn is_constant(&self, lo: usize, len: usize) -> bool {
        self.vals[lo].to_bits() == self.vals[lo + len - 1].to_bits()
    }

    /// Stably moves the span's rows marked in `in_left` to its front.
    fn partition(&mut self, lo: usize, len: usize, in_left: &[bool], spill: &mut Column) {
        let (rows, vals, labs) = (
            &mut self.rows[lo..lo + len],
            &mut self.vals[lo..lo + len],
            &mut self.labs[lo..lo + len],
        );
        // Branch-free: every row is written to both sides and only the
        // cursor of its own side advances.
        let (mut keep, mut spilled) = (0usize, 0usize);
        for i in 0..len {
            let (r, v, l) = (rows[i], vals[i], labs[i]);
            let left = in_left[r as usize];
            rows[keep] = r;
            vals[keep] = v;
            labs[keep] = l;
            spill.rows[spilled] = r;
            spill.vals[spilled] = v;
            spill.labs[spilled] = l;
            keep += usize::from(left);
            spilled += usize::from(!left);
        }
        rows[keep..].copy_from_slice(&spill.rows[..spilled]);
        vals[keep..].copy_from_slice(&spill.vals[..spilled]);
        labs[keep..].copy_from_slice(&spill.labs[..spilled]);
    }
}

struct SplitChoice {
    feature: usize,
    threshold: f64,
    gain_ratio: f64,
}

/// A candidate threshold: the node's label counts, those left of the
/// threshold (the right side's are the difference), and the side weights.
struct Boundary<'c> {
    counts: &'c [usize],
    left: &'c [usize],
    left_n: usize,
    right_n: usize,
    pl: f64,
    pr: f64,
}

impl Boundary<'_> {
    /// Information gain over a parent of entropy `base`: the arithmetic
    /// every chosen split is scored with, so part of the tree's identity.
    fn gain(&self, base: f64) -> f64 {
        base - self.pl * entropy(self.left.iter().copied(), self.left_n)
            - self.pr * entropy(self.right(), self.right_n)
    }

    fn right(&self) -> impl Iterator<Item = usize> + '_ {
        self.counts.iter().zip(self.left).map(|(c, l)| c - l)
    }

    /// [`gain`](Self::gain) from the `c·log2 c` table, using
    /// `k·H(counts) = k·log2 k − Σ c·log2 c`; within `MARGIN · 1e-3` of it.
    fn approx_gain(&self, base: f64, n: f64, clog: &[f64]) -> f64 {
        let mut sum = 0.0;
        for (&l, r) in self.left.iter().zip(self.right()) {
            sum += clog[l] + clog[r];
        }
        base - (clog[self.left_n] + clog[self.right_n] - sum) / n
    }

    /// C4.5's split information: the entropy of the left/right weights.
    fn split_info(&self) -> f64 {
        -(self.pl * self.pl.log2() + self.pr * self.pr.log2())
    }
}

impl<'a> Builder<'a> {
    fn new(dataset: &Dataset, params: &'a TreeParams) -> Builder<'a> {
        let n = dataset.len();
        let num_labels = dataset.schema.num_labels();
        // Row ids are `u32`, which `MARGIN`'s argument relies on too.
        assert!(u32::try_from(n).is_ok(), "a fit takes under 2^32 rows");
        debug_assert!(
            dataset.rows.iter().flatten().all(|v| !v.is_nan()),
            "feature values must not be NaN"
        );
        let columns = (0..dataset.schema.num_features())
            .map(|f| Column::sorted(dataset, f))
            .collect();
        let cf = params.confidence;
        Builder {
            params,
            tree: DecisionTree {
                feature: Vec::new(),
                threshold: Vec::new(),
                right: Vec::new(),
                samples: Vec::new(),
                errors: Vec::new(),
                num_features: dataset.schema.num_features(),
                num_labels,
            },
            columns,
            clog: (0..=n)
                .map(|c| match c {
                    0 => 0.0,
                    _ => c as f64 * (c as f64).log2(),
                })
                .collect(),
            margin: if num_labels <= SCREENED_LABELS {
                MARGIN
            } else {
                f64::INFINITY
            },
            // `add_errs` never reads `z` when cf > 0.5.
            z: if cf > 0.5 {
                0.0
            } else {
                normal_inverse(1.0 - cf)
            },
            in_left: vec![false; n],
            spill: Column {
                rows: vec![0; n],
                vals: vec![0.0; n],
                labs: vec![0; n],
            },
        }
    }

    /// Appends the subtree for the node with label `counts` occupying span
    /// `[lo, lo + Σ counts)` of every column to the flat arrays and returns
    /// its pessimistic error estimate (per-leaf observed errors plus the
    /// confidence correction, summed bottom-up in tree order — the same
    /// quantity the recursive builder recomputed by walking each subtree).
    fn build(&mut self, lo: usize, counts: Vec<usize>, depth: usize) -> f64 {
        let len: usize = counts.iter().sum();
        let (majority, majority_count) = argmax(&counts);
        let errors = len - majority_count;
        let cf = self.params.confidence;
        let leaf_errs = errors as f64 + add_errs(len as f64, errors as f64, cf, self.z);
        let at = self.tree.feature.len();
        if errors == 0 || len < self.params.min_split || depth >= self.params.max_depth {
            self.tree.push_leaf(majority, len, errors);
            return leaf_errs;
        }
        let Some(split) = self.best_split(lo, len, &counts) else {
            self.tree.push_leaf(majority, len, errors);
            return leaf_errs;
        };
        let left_counts = self.partition(lo, len, &split);
        let right_counts: Vec<usize> = counts
            .iter()
            .zip(&left_counts)
            .map(|(c, l)| c - l)
            .collect();
        let mid: usize = left_counts.iter().sum();
        debug_assert!(mid > 0 && mid < len);
        self.tree.push_split(split.feature, split.threshold, len);
        let left_errs = self.build(lo, left_counts, depth + 1);
        let right_at = self.tree.feature.len();
        let right_errs = self.build(lo + mid, right_counts, depth + 1);
        self.tree.right[at] = right_at as u32;
        let subtree_errs = left_errs + right_errs;
        if self.params.prune {
            // J48's subtree-replacement rule (with its 0.1 slack). The whole
            // subtree sits at the tail of the arrays, so replacement is a
            // truncation.
            if leaf_errs <= subtree_errs + 0.1 {
                self.tree.truncate(at);
                self.tree.push_leaf(majority, len, errors);
                return leaf_errs;
            }
        }
        subtree_errs
    }

    /// Splits the node's span of every column that can still split — left
    /// child (`feature < threshold`) first, stably — and returns the left
    /// child's label counts.
    fn partition(&mut self, lo: usize, len: usize, split: &SplitChoice) -> Vec<usize> {
        let mut left_counts = vec![0usize; self.tree.num_labels];
        let chosen = &self.columns[split.feature];
        for i in lo..lo + len {
            if chosen.vals[i] < split.threshold {
                self.in_left[chosen.rows[i] as usize] = true;
                left_counts[chosen.labs[i] as usize] += 1;
            }
        }
        for column in &mut self.columns {
            // A constant column stays constant below this node, so its
            // arrays are never read in row order again.
            if !column.is_constant(lo, len) {
                column.partition(lo, len, &self.in_left, &mut self.spill);
            }
        }
        let mid: usize = left_counts.iter().sum();
        for &r in &self.columns[split.feature].rows[lo..lo + mid] {
            self.in_left[r as usize] = false;
        }
        left_counts
    }

    /// Finds the best gain-ratio split of the node occupying span `[lo, lo +
    /// len)` of the columns. Candidates are visited in (feature, threshold)
    /// order and one replaces the incumbent only if its gain ratio is higher
    /// by more than 1e-12, so the lowest feature, then the lowest threshold,
    /// wins a tie within 1e-12.
    fn best_split(&self, lo: usize, len: usize, counts: &[usize]) -> Option<SplitChoice> {
        let n = len as f64;
        let base_entropy = entropy(counts.iter().copied(), len);
        let mut best: Option<SplitChoice> = None;

        let mut left_counts = vec![0usize; counts.len()];
        for (feature, column) in self.columns.iter().enumerate() {
            if column.is_constant(lo, len) {
                continue; // no two distinct values, so no threshold
            }
            let vals = &column.vals[lo..lo + len];
            let labs = &column.labs[lo..lo + len];
            left_counts.fill(0);
            for w in 0..len - 1 {
                left_counts[labs[w] as usize] += 1;
                let (v, v_next) = (vals[w], vals[w + 1]);
                if v_next <= v {
                    continue; // not a boundary between distinct values
                }
                let left_n = w + 1;
                let right_n = len - left_n;
                if left_n < self.params.min_leaf || right_n < self.params.min_leaf {
                    continue;
                }
                let boundary = Boundary {
                    counts,
                    left: &left_counts,
                    left_n,
                    right_n,
                    pl: left_n as f64 / n,
                    pr: right_n as f64 / n,
                };
                let split_info = boundary.split_info();
                if let Some(b) = &best {
                    let approx = boundary.approx_gain(base_entropy, n, &self.clog);
                    if (approx + self.margin) / split_info <= b.gain_ratio - 1e-12 {
                        debug_assert!(
                            {
                                let gain = boundary.gain(base_entropy);
                                (approx - gain).abs() <= self.margin * 1e-3
                                    && !(gain > 1e-12 && gain / split_info > b.gain_ratio + 1e-12)
                            },
                            "the entropy screen dropped a boundary that could win"
                        );
                        continue;
                    }
                }
                let gain = boundary.gain(base_entropy);
                if gain <= 1e-12 || split_info <= 1e-12 {
                    continue;
                }
                let gain_ratio = gain / split_info;
                if best
                    .as_ref()
                    .is_none_or(|b| gain_ratio > b.gain_ratio + 1e-12)
                {
                    best = Some(SplitChoice {
                        feature,
                        threshold: midpoint(v, v_next),
                        gain_ratio,
                    });
                }
            }
        }
        best
    }
}

fn argmax(counts: &[usize]) -> (usize, usize) {
    let mut best = (0usize, 0usize);
    for (i, &c) in counts.iter().enumerate() {
        if c > best.1 {
            best = (i, c);
        }
    }
    best
}

/// Shannon entropy (bits) of a label distribution.
fn entropy(counts: impl IntoIterator<Item = usize>, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    counts
        .into_iter()
        .filter(|&c| c > 0)
        .map(|c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Midpoint threshold between two consecutive distinct values, robust to
/// infinities (`cost-of-X = ∞`) and float rounding. Splits are `value < t`.
fn midpoint(lo: f64, hi: f64) -> f64 {
    if !hi.is_finite() {
        // Everything finite goes left, infinite right.
        return f64::MAX;
    }
    let mid = lo + (hi - lo) / 2.0;
    if mid > lo {
        mid
    } else {
        hi
    }
}

/// J48's `addErrs`: the expected number of *additional* errors at a leaf of
/// `n` examples with `e` observed errors, at confidence factor `cf`, using
/// the upper bound of the binomial confidence interval (normal
/// approximation with continuity correction). `z` is the quantile
/// `normal_inverse(1 - cf)`, which a fit computes once.
fn add_errs(n: f64, e: f64, cf: f64, z: f64) -> f64 {
    if cf > 0.5 {
        return 0.0;
    }
    if e == 0.0 {
        return n * (1.0 - cf.powf(1.0 / n));
    }
    if e < 1.0 {
        let base = n * (1.0 - cf.powf(1.0 / n));
        return base + e * (add_errs(n, 1.0, cf, z) - base);
    }
    if e + 0.5 >= n {
        return (n - e).max(0.0);
    }
    let f = (e + 0.5) / n;
    let r = (f + z * z / (2.0 * n) + z * (f / n - f * f / n + z * z / (4.0 * n * n)).sqrt())
        / (1.0 + z * z / n);
    (r * n) - e
}

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// relative error < 1.15e-9 over (0, 1)).
fn normal_inverse(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal_inverse domain is (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod equivalence;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSchema;

    /// A dataset with a hand-built schema (bypassing feature extraction) so
    /// learner behaviour can be tested in isolation.
    fn synthetic(rows: Vec<Vec<f64>>, labels: Vec<usize>, num_labels_hint: usize) -> Dataset {
        // Schema sized so num_features/num_labels are large enough.
        let num_features = rows.first().map(|r| r.len()).unwrap_or(1);
        // num_features = 1 + 4t  =>  t = (f-1)/4; ensure at least hint labels.
        let t = ((num_features.saturating_sub(1)) / 4).max(num_labels_hint);
        let schema = FeatureSchema {
            num_templates: t,
            num_vm_types: 1,
        };
        let mut padded = rows;
        for r in &mut padded {
            r.resize(schema.num_features(), 0.0);
        }
        Dataset {
            schema,
            rows: padded,
            labels,
        }
    }

    #[test]
    fn learns_a_single_threshold() {
        // label = value >= 5.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..10).map(|i| usize::from(i >= 5)).collect();
        let ds = synthetic(rows, labels, 2);
        let tree = DecisionTree::train(&ds, &TreeParams::default());
        assert_eq!(tree.accuracy(&ds), 1.0);
        assert_eq!(tree.predict(&vec![3.0; ds.schema.num_features()]), 0);
        assert_eq!(tree.predict(&vec![7.0; ds.schema.num_features()]), 1);
        assert!(tree.depth() >= 1);
    }

    #[test]
    fn picks_the_informative_feature() {
        // Feature 0 is noise; feature 1 decides the label.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let noise = (i * 7 % 11) as f64;
            let signal = if i % 2 == 0 { 0.0 } else { 10.0 };
            rows.push(vec![noise, signal]);
            labels.push(i % 2);
        }
        let ds = synthetic(rows, labels, 2);
        let tree = DecisionTree::train(&ds, &TreeParams::default());
        assert_eq!(tree.accuracy(&ds), 1.0);
        match tree.root_split() {
            Some((feature, _)) => assert_eq!(feature, 1),
            None => panic!("expected a split at the root"),
        }
    }

    #[test]
    fn handles_infinite_feature_values() {
        // cost-like feature: finite => label 0, infinite => label 1.
        let rows = vec![
            vec![1.0],
            vec![2.0],
            vec![3.0],
            vec![f64::INFINITY],
            vec![f64::INFINITY],
            vec![f64::INFINITY],
        ];
        let labels = vec![0, 0, 0, 1, 1, 1];
        let ds = synthetic(rows, labels, 2);
        let tree = DecisionTree::train(
            &ds,
            &TreeParams {
                min_split: 2,
                min_leaf: 1,
                ..TreeParams::default()
            },
        );
        assert_eq!(tree.accuracy(&ds), 1.0);
        let nf = ds.schema.num_features();
        assert_eq!(tree.predict(&vec![100.0; nf]), 0);
        assert_eq!(tree.predict(&vec![f64::INFINITY; nf]), 1);
    }

    #[test]
    fn pruning_collapses_noise_splits() {
        // Labels are pure noise: an unpruned tree might split; a pruned one
        // should collapse to (or stay) a single leaf.
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![(i % 7) as f64]).collect();
        let labels: Vec<usize> = (0..50).map(|i| (i * 13 + 5) % 2).collect();
        let ds = synthetic(rows, labels, 2);
        let pruned = DecisionTree::train(&ds, &TreeParams::default());
        let unpruned = DecisionTree::train(
            &ds,
            &TreeParams {
                prune: false,
                min_leaf: 1,
                min_split: 2,
                ..TreeParams::default()
            },
        );
        assert!(pruned.num_nodes() <= unpruned.num_nodes());
        assert!(pruned.num_leaves() <= 3, "noise should prune hard");
    }

    #[test]
    fn max_depth_and_min_leaf_are_respected() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..64).map(|i| (i / 8) % 2).collect();
        let ds = synthetic(rows, labels, 2);
        let tree = DecisionTree::train(
            &ds,
            &TreeParams {
                max_depth: 2,
                prune: false,
                ..TreeParams::default()
            },
        );
        assert!(tree.depth() <= 2);

        let stump = DecisionTree::train(
            &ds,
            &TreeParams {
                max_depth: 0,
                ..TreeParams::default()
            },
        );
        assert_eq!(stump.depth(), 0);
        assert_eq!(stump.num_leaves(), 1);
        assert!(stump.root_split().is_none());
    }

    #[test]
    fn multiclass_labels() {
        // Three bands -> three labels.
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..30).map(|i| i / 10).collect();
        let ds = synthetic(rows, labels, 3);
        let tree = DecisionTree::train(&ds, &TreeParams::default());
        assert_eq!(tree.accuracy(&ds), 1.0);
        let nf = ds.schema.num_features();
        assert_eq!(tree.predict(&vec![5.0; nf]), 0);
        assert_eq!(tree.predict(&vec![15.0; nf]), 1);
        assert_eq!(tree.predict(&vec![25.0; nf]), 2);
    }

    #[test]
    fn flat_preorder_invariants() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64, (i % 5) as f64]).collect();
        let labels: Vec<usize> = (0..64).map(|i| (i / 8) % 2).collect();
        let ds = synthetic(rows, labels, 2);
        let tree = DecisionTree::train(
            &ds,
            &TreeParams {
                prune: false,
                ..TreeParams::default()
            },
        );
        assert!(tree.validate().is_ok());
        assert_eq!(tree.num_nodes(), 2 * tree.num_leaves() - 1);
    }

    #[test]
    fn serde_round_trip() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
        let ds = synthetic(rows, labels, 2);
        let tree = DecisionTree::train(&ds, &TreeParams::default());
        let json = serde_json::to_string(&tree).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tree);
        let nf = ds.schema.num_features();
        assert_eq!(back.predict(&vec![3.0; nf]), tree.predict(&vec![3.0; nf]));
    }

    #[test]
    fn malformed_trees_are_rejected() {
        // Right child pointing backwards must not deserialize (it would make
        // `predict` loop forever).
        let bad = r#"{
            "num_features": 2, "num_labels": 2,
            "feature": [0, 4294967295, 4294967295],
            "threshold": [1.0, 0.0, 0.0],
            "right": [0, 0, 1],
            "samples": [2, 1, 1],
            "errors": [0, 0, 0]
        }"#;
        assert!(serde_json::from_str::<DecisionTree>(bad).is_err());
        // Mismatched array lengths are rejected too.
        let ragged = r#"{
            "num_features": 2, "num_labels": 2,
            "feature": [4294967295],
            "threshold": [],
            "right": [0],
            "samples": [1],
            "errors": [0]
        }"#;
        assert!(serde_json::from_str::<DecisionTree>(ragged).is_err());
    }

    #[test]
    fn entropy_basics() {
        assert_eq!(entropy([10, 0], 10), 0.0);
        assert!((entropy([5, 5], 10) - 1.0).abs() < 1e-12);
        assert!(entropy([9, 1], 10) < 1.0);
        assert_eq!(entropy([], 0), 0.0);
    }

    #[test]
    fn normal_inverse_known_values() {
        assert!((normal_inverse(0.5)).abs() < 1e-9);
        assert!((normal_inverse(0.75) - 0.674_489_750_196_081_7).abs() < 1e-7);
        assert!((normal_inverse(0.975) - 1.959_963_984_540_054).abs() < 1e-7);
        assert!((normal_inverse(0.025) + 1.959_963_984_540_054).abs() < 1e-7);
    }

    #[test]
    fn add_errs_matches_j48_semantics() {
        let z = normal_inverse(0.75);
        // Zero observed errors still get a positive correction.
        assert!(add_errs(10.0, 0.0, 0.25, z) > 0.0);
        // More data, same error rate => smaller correction rate.
        let small = add_errs(10.0, 1.0, 0.25, z) / 10.0;
        let large = add_errs(1000.0, 100.0, 0.25, z) / 1000.0;
        assert!(large < small);
        // CF above 0.5 disables the correction.
        assert_eq!(add_errs(10.0, 3.0, 0.6, 0.0), 0.0);
        // Nearly-all-errors leaf caps at n - e.
        assert!(add_errs(10.0, 9.6, 0.25, z) <= 0.4 + 1e-12);
    }

    #[test]
    fn midpoint_is_strictly_between() {
        let m = midpoint(1.0, 2.0);
        assert!(m > 1.0 && m <= 2.0);
        assert_eq!(midpoint(1.0, f64::INFINITY), f64::MAX);
        // Adjacent floats degrade gracefully to the upper value.
        let lo = 1.0f64;
        let hi = f64::from_bits(lo.to_bits() + 1);
        let m = midpoint(lo, hi);
        assert!(m > lo && m <= hi);
    }

    #[test]
    fn render_mentions_features_and_labels() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let labels: Vec<usize> = (0..10).map(|i| usize::from(i >= 5)).collect();
        let ds = synthetic(rows, labels, 2);
        let tree = DecisionTree::train(&ds, &TreeParams::default());
        let text = tree.render(&|f| format!("f{f}"), &|l| format!("action{l}"));
        assert!(text.contains("f0 <"));
        assert!(text.contains("action0"));
        assert!(text.contains("action1"));
        // Each leaf shows its training statistics.
        assert!(text.contains("(5 samples, 0 errors)"));
    }
}
