//! The column-major builder against a sort-per-node reference.
//!
//! [`reference`] is plain C4.5 induction: it sorts each feature's rows at
//! every node, scores every boundary with the exact entropies, and breaks
//! near-ties with an explicit lowest-feature clause instead of relying on
//! scan order. The property trains both on random datasets with heavy ties,
//! `+∞` columns, constant columns and 1–12 labels, and compares the trees
//! by their JSON, so thresholds are compared bit for bit.

use proptest::prelude::*;

use super::*;
use crate::features::FeatureSchema;

fn reference(dataset: &Dataset, params: &TreeParams) -> DecisionTree {
    let mut tree = DecisionTree {
        feature: Vec::new(),
        threshold: Vec::new(),
        right: Vec::new(),
        samples: Vec::new(),
        errors: Vec::new(),
        num_features: dataset.schema.num_features(),
        num_labels: dataset.schema.num_labels(),
    };
    let mut idx: Vec<usize> = (0..dataset.len()).collect();
    build(dataset, params, &mut tree, &mut idx, 0);
    tree
}

fn build(
    ds: &Dataset,
    params: &TreeParams,
    tree: &mut DecisionTree,
    idx: &mut [usize],
    depth: usize,
) -> f64 {
    let mut counts = vec![0usize; ds.schema.num_labels()];
    idx.iter().for_each(|&i| counts[ds.labels[i]] += 1);
    let (majority, majority_count) = argmax(&counts);
    let (n, errors) = (idx.len(), idx.len() - majority_count);
    let cf = params.confidence;
    let z = if cf > 0.5 {
        0.0
    } else {
        normal_inverse(1.0 - cf)
    };
    let leaf_errs = errors as f64 + add_errs(n as f64, errors as f64, cf, z);
    let at = tree.feature.len();
    let split = (errors > 0 && n >= params.min_split && depth < params.max_depth)
        .then(|| best_split(ds, params, idx, &counts))
        .flatten();
    let Some((feature, threshold)) = split else {
        tree.push_leaf(majority, n, errors);
        return leaf_errs;
    };
    let mut mid = 0;
    for i in 0..n {
        if ds.rows[idx[i]][feature] < threshold {
            idx.swap(i, mid);
            mid += 1;
        }
    }
    tree.push_split(feature, threshold, n);
    let (left, right) = idx.split_at_mut(mid);
    let left_errs = build(ds, params, tree, left, depth + 1);
    tree.right[at] = tree.feature.len() as u32;
    let subtree_errs = left_errs + build(ds, params, tree, right, depth + 1);
    if params.prune && leaf_errs <= subtree_errs + 0.1 {
        tree.truncate(at);
        tree.push_leaf(majority, n, errors);
        return leaf_errs;
    }
    subtree_errs
}

fn best_split(
    ds: &Dataset,
    params: &TreeParams,
    idx: &[usize],
    counts: &[usize],
) -> Option<(usize, f64)> {
    let (len, n) = (idx.len(), idx.len() as f64);
    let base_entropy = entropy(counts.iter().copied(), len);
    let mut best: Option<(usize, f64, f64)> = None;
    for feature in 0..ds.schema.num_features() {
        let mut order = idx.to_vec();
        order.sort_by(|&a, &b| ds.rows[a][feature].total_cmp(&ds.rows[b][feature]));
        let mut left_counts = vec![0usize; counts.len()];
        let mut right_counts = counts.to_vec();
        for w in 0..len - 1 {
            left_counts[ds.labels[order[w]]] += 1;
            right_counts[ds.labels[order[w]]] -= 1;
            let (v, v_next) = (ds.rows[order[w]][feature], ds.rows[order[w + 1]][feature]);
            let (left_n, right_n) = (w + 1, len - w - 1);
            if v_next <= v || left_n < params.min_leaf || right_n < params.min_leaf {
                continue;
            }
            let gain = base_entropy
                - (left_n as f64 / n) * entropy(left_counts.iter().copied(), left_n)
                - (right_n as f64 / n) * entropy(right_counts.iter().copied(), right_n);
            let (pl, pr) = (left_n as f64 / n, right_n as f64 / n);
            let split_info = -(pl * pl.log2() + pr * pr.log2());
            if gain <= 1e-12 || split_info <= 1e-12 {
                continue;
            }
            let ratio = gain / split_info;
            let better = best
                .is_none_or(|(f, _, r)| ratio > r + 1e-12 || (ratio > r - 1e-12 && feature < f));
            if better {
                best = Some((feature, midpoint(v, v_next), ratio));
            }
        }
    }
    best.map(|(feature, threshold, _)| (feature, threshold))
}

/// One feature column of `n` rows: constant, heavily tied, tied with `+∞`
/// (a `cost-of-X` column), or continuous.
fn column(n: usize) -> impl Strategy<Value = Vec<f64>> {
    let small = |v: Vec<u32>| v.into_iter().map(f64::from).collect::<Vec<_>>();
    let inf = |v: Vec<u32>| {
        let cost = |c| if c == 4 { f64::INFINITY } else { f64::from(c) };
        v.into_iter().map(cost).collect::<Vec<_>>()
    };
    prop_oneof![
        (0u32..4).prop_map(move |v| vec![f64::from(v); n]),
        collection::vec(0u32..4, n).prop_map(small),
        collection::vec(0u32..5, n).prop_map(inf),
        collection::vec(0.0f64..100.0, n),
    ]
}

/// A dataset of 1–240 rows over 1–3 templates' worth of columns, with
/// labels drawn from the first 1–12 of 12.
fn dataset() -> impl Strategy<Value = Dataset> {
    (1usize..=240, 1usize..=3, 1usize..=12).prop_flat_map(|(n, t, k)| {
        let columns = collection::vec(column(n), 1 + 4 * t);
        let labels = collection::vec(0usize..k, n);
        (columns, labels).prop_map(move |(columns, labels)| Dataset {
            schema: FeatureSchema {
                num_templates: t,
                num_vm_types: 12 - t,
            },
            rows: (0..n)
                .map(|r| columns.iter().map(|c| c[r]).collect())
                .collect(),
            labels,
        })
    })
}

fn params() -> impl Strategy<Value = TreeParams> {
    let confidence = prop_oneof![Just(0.1), Just(0.25), Just(0.5)];
    (1usize..=4, 0usize..=8, 0usize..=12, 0u8..2, confidence).prop_map(
        |(min_leaf, min_split, max_depth, prune, confidence)| TreeParams {
            max_depth,
            min_leaf,
            min_split,
            prune: prune == 1,
            confidence,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn column_builder_matches_the_sort_per_node_reference(ds in dataset(), params in params()) {
        let fast = serde_json::to_string(&DecisionTree::train(&ds, &params)).unwrap();
        let slow = serde_json::to_string(&reference(&ds, &params)).unwrap();
        prop_assert_eq!(fast, slow);
    }
}
