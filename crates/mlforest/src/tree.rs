//! CART regression trees with variance-reduction splits.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Hyper-parameters of a single regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Maximum depth; the root is depth 0.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples each child must retain.
    pub min_samples_leaf: usize,
    /// Features sampled per split (`None` = all features).
    pub features_per_split: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self { max_depth: 16, min_samples_split: 2, min_samples_leaf: 1, features_per_split: None }
    }
}

/// [`Node::feature`] of a leaf.
const LEAF: u32 = u32::MAX;

/// One tree node, packed to 16 bytes and stored in pre-order: a split's
/// left child is always the node right after it, so only the right
/// child's index is kept.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    /// Split threshold; a leaf's predicted value.
    threshold: f64,
    /// Split feature, or [`LEAF`].
    feature: u32,
    /// Index of the right child (unused in a leaf).
    right: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

impl Node {
    fn leaf(value: f64) -> Self {
        Self { threshold: value, feature: LEAF, right: 0 }
    }

    /// The node a `row` reaching node `at` moves to, or `None` at a leaf.
    /// The child is picked arithmetically, not by a branch: which way a
    /// row goes is data-dependent, so a branch would mispredict often.
    /// NaN compares false and goes right.
    #[inline]
    fn next(&self, at: usize, row: &[f64]) -> Option<usize> {
        if self.feature == LEAF {
            return None;
        }
        let left = at + 1;
        let go_right = 1 - usize::from(row[self.feature as usize] <= self.threshold);
        Some(left + go_right * (self.right as usize - left))
    }
}

/// A fitted CART regression tree.
///
/// Splits minimize the weighted sum of child variances (equivalently,
/// maximize variance reduction), the standard CART criterion for
/// regression.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    n_features: usize,
}

impl RegressionTree {
    /// Fits a tree on `data`.
    ///
    /// `rng` drives per-split feature subsampling when
    /// [`TreeParams::features_per_split`] is set (used by the forest).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(data: &Dataset, params: &TreeParams, rng: &mut StdRng) -> Self {
        assert!(!data.is_empty(), "cannot fit a tree on an empty dataset");
        let mut tree = Self { nodes: Vec::new(), n_features: data.n_features() };
        let indices: Vec<usize> = (0..data.len()).collect();
        tree.build(data, indices, params, 0, rng);
        tree
    }

    /// Predicts the target for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the training feature count.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.n_features, "feature arity mismatch");
        let mut at = 0usize;
        while let Some(next) = self.nodes[at].next(at, row) {
            at = next;
        }
        self.nodes[at].threshold
    }

    /// Walks every row of `rows` to its leaf in lockstep — one step per
    /// unfinished row per pass, so the rows' independent node loads
    /// overlap — and calls `leaf(k, value)` once per row `k`, in the
    /// order the rows finish. The caller checks each row's arity.
    pub(crate) fn walk_lockstep(&self, rows: &[&[f64]], mut leaf: impl FnMut(usize, f64)) {
        // (row, node) of every row still walking.
        let mut live: Vec<(usize, usize)> = (0..rows.len()).map(|k| (k, 0)).collect();
        while !live.is_empty() {
            let mut kept = 0;
            for i in 0..live.len() {
                let (k, at) = live[i];
                let node = &self.nodes[at];
                match node.next(at, rows[k]) {
                    Some(next) => {
                        live[kept] = (k, next);
                        kept += 1;
                    }
                    None => leaf(k, node.threshold),
                }
            }
            live.truncate(kept);
        }
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the deepest leaf.
    pub fn depth(&self) -> usize {
        self.depth_below(0)
    }

    fn depth_below(&self, at: usize) -> usize {
        let node = &self.nodes[at];
        if node.feature == LEAF {
            0
        } else {
            1 + self.depth_below(at + 1).max(self.depth_below(node.right as usize))
        }
    }

    /// Recursively builds the subtree for `indices`; returns its node index.
    fn build(
        &mut self,
        data: &Dataset,
        indices: Vec<usize>,
        params: &TreeParams,
        depth: usize,
        rng: &mut StdRng,
    ) -> usize {
        let mean = indices.iter().map(|&i| data.target(i)).sum::<f64>() / indices.len() as f64;
        let leaf_ok = depth >= params.max_depth
            || indices.len() < params.min_samples_split
            || indices.len() < 2 * params.min_samples_leaf;
        if !leaf_ok {
            if let Some((feature, threshold)) = self.best_split(data, &indices, params, rng) {
                let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                    indices.iter().partition(|&&i| data.row(i)[feature] <= threshold);
                if left_idx.len() >= params.min_samples_leaf
                    && right_idx.len() >= params.min_samples_leaf
                {
                    let at = self.nodes.len();
                    self.nodes.push(Node::leaf(mean)); // placeholder
                    let left = self.build(data, left_idx, params, depth + 1, rng);
                    debug_assert_eq!(left, at + 1, "nodes are stored in pre-order");
                    let right = self.build(data, right_idx, params, depth + 1, rng);
                    self.nodes[at] = Node {
                        threshold,
                        feature: u32::try_from(feature).expect("feature index fits in u32"),
                        right: u32::try_from(right).expect("node index fits in u32"),
                    };
                    return at;
                }
            }
        }
        self.nodes.push(Node::leaf(mean));
        self.nodes.len() - 1
    }

    /// Finds the (feature, threshold) minimizing weighted child variance.
    fn best_split(
        &self,
        data: &Dataset,
        indices: &[usize],
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> Option<(usize, f64)> {
        let mut features: Vec<usize> = (0..data.n_features()).collect();
        if let Some(k) = params.features_per_split {
            features.shuffle(rng);
            features.truncate(k.max(1).min(data.n_features()));
        }

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        for &feature in &features {
            let mut order: Vec<usize> = indices.to_vec();
            order.sort_by(|&a, &b| {
                data.row(a)[feature].partial_cmp(&data.row(b)[feature]).expect("finite feature")
            });
            // Prefix sums of y and y^2 over the sorted order enable O(1)
            // variance computation for every candidate cut.
            let n = order.len();
            let mut sum = vec![0.0; n + 1];
            let mut sum2 = vec![0.0; n + 1];
            for (k, &i) in order.iter().enumerate() {
                let y = data.target(i);
                sum[k + 1] = sum[k] + y;
                sum2[k + 1] = sum2[k] + y * y;
            }
            let sse = |lo: usize, hi: usize| -> f64 {
                // Sum of squared errors of targets in order[lo..hi].
                let cnt = (hi - lo) as f64;
                let s = sum[hi] - sum[lo];
                let s2 = sum2[hi] - sum2[lo];
                (s2 - s * s / cnt).max(0.0)
            };
            for cut in params.min_samples_leaf..=(n - params.min_samples_leaf) {
                if cut == 0 || cut == n {
                    continue;
                }
                let lo_val = data.row(order[cut - 1])[feature];
                let hi_val = data.row(order[cut])[feature];
                if lo_val == hi_val {
                    continue; // cannot separate equal feature values
                }
                let score = sse(0, cut) + sse(cut, n);
                if best.is_none_or(|(_, _, s)| score < s) {
                    best = Some((feature, (lo_val + hi_val) / 2.0, score));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn step_data() -> Dataset {
        // y = 10 for x < 5, y = 20 for x >= 5: one split suffices.
        let mut d = Dataset::new(1);
        for i in 0..10 {
            let x = f64::from(i);
            d.push(vec![x], if x < 5.0 { 10.0 } else { 20.0 }).unwrap();
        }
        d
    }

    #[test]
    fn learns_a_step_function() {
        let tree = RegressionTree::fit(&step_data(), &TreeParams::default(), &mut rng());
        assert_eq!(tree.predict(&[2.0]), 10.0);
        assert_eq!(tree.predict(&[7.0]), 20.0);
    }

    #[test]
    fn depth_zero_yields_global_mean() {
        let params = TreeParams { max_depth: 0, ..TreeParams::default() };
        let tree = RegressionTree::fit(&step_data(), &params, &mut rng());
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[0.0]), 15.0);
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn constant_targets_produce_single_leaf() {
        let mut d = Dataset::new(2);
        for i in 0..20 {
            d.push(vec![f64::from(i), f64::from(i % 3)], 4.2).unwrap();
        }
        let tree = RegressionTree::fit(&d, &TreeParams::default(), &mut rng());
        // Splitting never reduces SSE below 0, but any split keeps SSE at 0;
        // predictions must be exact either way.
        assert_eq!(tree.predict(&[3.0, 1.0]), 4.2);
    }

    #[test]
    fn min_samples_leaf_limits_granularity() {
        let params = TreeParams { min_samples_leaf: 5, ..TreeParams::default() };
        let tree = RegressionTree::fit(&step_data(), &params, &mut rng());
        // With 10 samples and min leaf 5, at most one split is possible.
        assert!(tree.node_count() <= 3);
    }

    #[test]
    fn multivariate_split_picks_informative_feature() {
        // Feature 1 is noise; feature 0 determines y.
        let mut d = Dataset::new(2);
        for i in 0..40 {
            let x = f64::from(i);
            d.push(vec![x, f64::from(i % 2)], if x < 20.0 { -5.0 } else { 5.0 }).unwrap();
        }
        let tree = RegressionTree::fit(&d, &TreeParams::default(), &mut rng());
        assert_eq!(tree.predict(&[3.0, 0.0]), -5.0);
        assert_eq!(tree.predict(&[33.0, 0.0]), 5.0);
    }

    #[test]
    fn piecewise_linear_approximation_improves_with_depth() {
        let mut d = Dataset::new(1);
        for i in 0..200 {
            let x = f64::from(i) / 20.0;
            d.push(vec![x], x.sin()).unwrap();
        }
        let shallow = RegressionTree::fit(
            &d,
            &TreeParams { max_depth: 2, ..TreeParams::default() },
            &mut rng(),
        );
        let deep = RegressionTree::fit(
            &d,
            &TreeParams { max_depth: 8, ..TreeParams::default() },
            &mut rng(),
        );
        let err = |t: &RegressionTree| -> f64 {
            d.iter().map(|(x, y)| (t.predict(x) - y).powi(2)).sum::<f64>() / d.len() as f64
        };
        assert!(err(&deep) < err(&shallow) / 4.0);
    }

    #[test]
    #[should_panic]
    fn empty_dataset_panics() {
        let d = Dataset::new(1);
        let _ = RegressionTree::fit(&d, &TreeParams::default(), &mut rng());
    }

    #[test]
    #[should_panic]
    fn predict_checks_arity() {
        let tree = RegressionTree::fit(&step_data(), &TreeParams::default(), &mut rng());
        let _ = tree.predict(&[1.0, 2.0]);
    }

    #[cfg(test)]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn predictions_within_target_range(
                rows in proptest::collection::vec((0.0f64..100.0, -50.0f64..50.0), 5..60),
                probe in 0.0f64..100.0,
            ) {
                let mut d = Dataset::new(1);
                for (x, y) in &rows {
                    d.push(vec![*x], *y).unwrap();
                }
                let tree = RegressionTree::fit(&d, &TreeParams::default(), &mut rng());
                let lo = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
                let hi = rows.iter().map(|r| r.1).fold(f64::NEG_INFINITY, f64::max);
                let p = tree.predict(&[probe]);
                // Leaf values are means of training targets, so predictions
                // can never escape the convex hull of the targets.
                prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
            }

            #[test]
            fn training_points_fit_exactly_with_unlimited_depth(
                xs in proptest::collection::btree_set(0i32..1000, 2..40),
            ) {
                let mut d = Dataset::new(1);
                for &x in &xs {
                    d.push(vec![f64::from(x)], f64::from(x % 7)).unwrap();
                }
                let params = TreeParams { max_depth: 64, ..TreeParams::default() };
                let tree = RegressionTree::fit(&d, &params, &mut rng());
                for (row, y) in d.iter() {
                    prop_assert!((tree.predict(row) - y).abs() < 1e-9);
                }
            }
        }
    }
}
