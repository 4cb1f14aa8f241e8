//! CART decision trees (classification and regression).
//!
//! Trees serve two roles in the reproduction:
//!
//! 1. As a candidate *data-plane model*: IIsy maps decision trees onto
//!    match-action tables (one table per level/feature).
//! 2. As the building block of [`crate::forest`], whose regressor is the
//!    Bayesian-optimization surrogate model (the paper configures
//!    HyperMapper with a random-forest surrogate, §5).

use crate::tensor::Matrix;
use crate::{MlError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Stopping and split-search options shared by both tree flavors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each leaf.
    pub min_samples_leaf: usize,
    /// Number of features examined per split (`None` = all).
    pub mtry: Option<usize>,
    /// RNG seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            mtry: None,
            seed: 0,
        }
    }
}

impl TreeConfig {
    /// Sets the maximum depth.
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }

    /// Sets the number of features sampled per split.
    pub fn mtry(mut self, mtry: usize) -> Self {
        self.mtry = Some(mtry);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Arena node shared by both tree flavors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    /// Terminal node carrying the prediction payload.
    Leaf {
        /// Mean target (regression) or majority class (classification).
        value: f32,
        /// Class histogram (empty for regression trees).
        distribution: Vec<f32>,
    },
    /// Internal split: `feature <= threshold` goes left.
    Split {
        feature: usize,
        threshold: f32,
        left: usize,
        right: usize,
    },
}

/// A read-only view of one fitted tree node, for lowering a trained tree
/// into backend IRs (and from there into the compiled integer runtime).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ExportedNode {
    /// Terminal node predicting `class`.
    Leaf {
        /// Majority class at this leaf.
        class: usize,
    },
    /// Internal split: `feature <= threshold` goes to `left`, else `right`.
    Split {
        /// Feature index compared at this node.
        feature: usize,
        /// Split threshold.
        threshold: f32,
        /// Arena index of the left child.
        left: usize,
        /// Arena index of the right child.
        right: usize,
    },
}

/// Walks a fitted arena to a leaf for one sample.
fn descend<'a>(nodes: &'a [Node], features: &[f32]) -> &'a Node {
    let mut idx = 0;
    loop {
        match &nodes[idx] {
            leaf @ Node::Leaf { .. } => return leaf,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                idx = if features[*feature] <= *threshold {
                    *left
                } else {
                    *right
                };
            }
        }
    }
}

/// Candidate split thresholds for a feature: midpoints between the sorted
/// unique values present in the node.
fn thresholds(values: &mut Vec<f32>) -> Vec<f32> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    values.dedup();
    values.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect()
}

/// Picks the feature subset to examine at a node.
fn feature_subset(n_features: usize, mtry: Option<usize>, rng: &mut StdRng) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n_features).collect();
    match mtry {
        Some(m) if m < n_features => {
            all.shuffle(rng);
            all.truncate(m.max(1));
            all
        }
        _ => all,
    }
}

/// Checks the training data shared by both tree flavors (and, through
/// them, both forests). Non-finite features are refused: NaN has no place
/// in the split order (sorting it panics or silently drops splits), and
/// ±inf would put a threshold at infinity.
fn validate_inputs(x: &Matrix, targets: usize) -> Result<()> {
    if x.rows() == 0 || x.cols() == 0 {
        return Err(MlError::EmptyInput("tree training data"));
    }
    if x.rows() != targets {
        return Err(MlError::ShapeMismatch {
            op: "tree_fit",
            left: x.shape(),
            right: (targets, 1),
        });
    }
    if x.has_non_finite() {
        return Err(MlError::InvalidArgument(
            "tree training features must be finite".into(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

/// A CART classification tree using Gini impurity.
///
/// # Example
///
/// ```
/// use homunculus_ml::tree::{DecisionTreeClassifier, TreeConfig};
/// use homunculus_ml::tensor::Matrix;
///
/// # fn main() -> Result<(), homunculus_ml::MlError> {
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]])?;
/// let y = vec![0, 0, 1, 1];
/// let tree = DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default())?;
/// assert_eq!(tree.predict_row(&[0.5]), 0);
/// assert_eq!(tree.predict_row(&[2.9]), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeClassifier {
    nodes: Vec<Node>,
    n_classes: usize,
    n_features: usize,
    depth: usize,
}

impl DecisionTreeClassifier {
    /// Fits a classification tree.
    ///
    /// # Errors
    ///
    /// - [`MlError::EmptyInput`] / [`MlError::ShapeMismatch`] for bad data.
    /// - [`MlError::InvalidArgument`] for non-finite features,
    ///   out-of-range labels or `n_classes < 2`.
    pub fn fit(x: &Matrix, y: &[usize], n_classes: usize, config: &TreeConfig) -> Result<Self> {
        validate_inputs(x, y.len())?;
        if n_classes < 2 {
            return Err(MlError::InvalidArgument("need at least two classes".into()));
        }
        if let Some(&bad) = y.iter().find(|&&c| c >= n_classes) {
            return Err(MlError::InvalidArgument(format!(
                "label {bad} out of range for {n_classes} classes"
            )));
        }
        Ok(Self::grow(x, y, n_classes, config, sweep_split))
    }

    /// Grows a tree on validated inputs with the given split search.
    fn grow(
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        config: &TreeConfig,
        search: SplitSearch,
    ) -> Self {
        let mut grower = ClassifierGrower {
            x,
            y,
            n_classes,
            config,
            search,
            nodes: Vec::new(),
            rng: StdRng::seed_from_u64(config.seed),
            max_depth_seen: 0,
        };
        let indices: Vec<usize> = (0..x.rows()).collect();
        grower.grow(&indices, 0);
        DecisionTreeClassifier {
            nodes: grower.nodes,
            n_classes,
            n_features: x.cols(),
            depth: grower.max_depth_seen,
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of features the tree was trained on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Depth actually reached while fitting.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Exports the fitted arena (root at index 0) for lowering to IR.
    pub fn export_nodes(&self) -> Vec<ExportedNode> {
        self.nodes
            .iter()
            .map(|node| match node {
                Node::Leaf { value, .. } => ExportedNode::Leaf {
                    class: *value as usize,
                },
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => ExportedNode::Split {
                    feature: *feature,
                    threshold: *threshold,
                    left: *left,
                    right: *right,
                },
            })
            .collect()
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves in the fitted tree.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Predicted class for one sample.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() < n_features` used in training.
    pub fn predict_row(&self, features: &[f32]) -> usize {
        assert!(
            features.len() >= self.n_features,
            "expected {} features, got {}",
            self.n_features,
            features.len()
        );
        match descend(&self.nodes, features) {
            Node::Leaf { value, .. } => *value as usize,
            Node::Split { .. } => unreachable!("descend returns leaves"),
        }
    }

    /// Class distribution (normalized histogram) at the reached leaf.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() < n_features` used in training.
    pub fn predict_proba_row(&self, features: &[f32]) -> Vec<f32> {
        match descend(&self.nodes, features) {
            Node::Leaf { distribution, .. } => distribution.clone(),
            Node::Split { .. } => unreachable!("descend returns leaves"),
        }
    }

    /// Predicted classes for every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        x.iter_rows().map(|r| self.predict_row(r)).collect()
    }
}

fn gini(counts: &[f32], total: f32) -> f32 {
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - counts
        .iter()
        .map(|&c| (c / total) * (c / total))
        .sum::<f32>()
}

/// The data one node's split search sees: the rows that reached the node
/// and their class histogram.
struct SplitNode<'a> {
    x: &'a Matrix,
    y: &'a [usize],
    indices: &'a [usize],
    /// Class counts over `indices` (whole numbers held in `f32`).
    counts: &'a [f32],
    min_samples_leaf: usize,
}

/// A classifier split search: the best `(feature, threshold, impurity)`
/// over `features`, or `None` when no threshold leaves `min_samples_leaf`
/// rows on both sides.
type SplitSearch = fn(&SplitNode<'_>, &[usize]) -> Option<(usize, f32, f32)>;

/// The classifier split search: one sorted sweep per feature.
///
/// For each feature the node's `(value, label)` pairs are sorted once.
/// The candidate thresholds are then walked in the order the textbook
/// rescan walks them — ascending midpoints `0.5 * (lo + hi)` of adjacent
/// distinct values — while a cursor moves every row with
/// `value <= threshold` into the left class counts; the right counts are
/// the node counts minus the left. That is O(rows · log rows) per feature
/// instead of O(rows · thresholds).
///
/// The result is bit-identical to rescanning every row per threshold:
///
/// - The left side is exactly the sorted prefix with `value <= threshold`,
///   even when the `f32` midpoint rounds up to the upper value (the
///   cursor then also takes that value's rows, as the rescan would).
///   Midpoints never decrease, so the cursor only moves forward.
/// - `-0.0` and `0.0` compare equal, so they form one group and yield the
///   same midpoints whichever of them is seen first.
/// - Counts are whole numbers in `f32`, exact below 2^24 rows, so the
///   left, right and side totals carry the same bits in any summation
///   order, and the Gini terms are computed from them by the same
///   expression.
/// - Features are visited in the same order, thresholds ascending, and a
///   candidate replaces the best only when strictly better.
///
/// Regression trees keep the rescan (see `build_regressor`): their `f32`
/// sums of targets depend on the order they are added in, so a sweep
/// would change the bits, and they only ever fit BO histories of a few
/// dozen points.
fn sweep_split(node: &SplitNode<'_>, features: &[usize]) -> Option<(usize, f32, f32)> {
    let n = node.indices.len();
    let total = n as f32;
    let min_leaf = node.min_samples_leaf;
    let mut pairs: Vec<(f32, usize)> = Vec::with_capacity(n);
    let mut left = vec![0.0f32; node.counts.len()];
    let mut right = vec![0.0f32; node.counts.len()];
    let mut best: Option<(usize, f32, f32)> = None;
    for &feature in features {
        pairs.clear();
        pairs.extend(
            node.indices
                .iter()
                .map(|&i| (node.x.row(i)[feature], node.y[i])),
        );
        // Inputs are finite (see `validate_inputs`), so the total order
        // only differs from `<` on the zeros, which form one group below.
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        left.fill(0.0);
        let mut moved = 0; // rows with value <= threshold, counted in `left`
        for i in 1..n {
            let (lo, hi) = (pairs[i - 1].0, pairs[i].0);
            if lo == hi {
                continue;
            }
            let threshold = 0.5 * (lo + hi);
            while moved < n && pairs[moved].0 <= threshold {
                left[pairs[moved].1] += 1.0;
                moved += 1;
            }
            if n - moved < min_leaf {
                break; // the right side only shrinks from here
            }
            if moved < min_leaf {
                continue;
            }
            for ((r, &c), &l) in right.iter_mut().zip(node.counts).zip(&left) {
                *r = c - l;
            }
            let nl = moved as f32;
            let nr = total - nl;
            let impurity = (nl * gini(&left, nl) + nr * gini(&right, nr)) / total;
            if best.map_or(true, |(_, _, b)| impurity < b) {
                best = Some((feature, threshold, impurity));
            }
        }
    }
    best
}

/// Grows one classification tree depth-first into an arena.
struct ClassifierGrower<'a> {
    x: &'a Matrix,
    y: &'a [usize],
    n_classes: usize,
    config: &'a TreeConfig,
    search: SplitSearch,
    nodes: Vec<Node>,
    rng: StdRng,
    max_depth_seen: usize,
}

impl ClassifierGrower<'_> {
    /// Grows the subtree over `indices` and returns its arena index.
    fn grow(&mut self, indices: &[usize], depth: usize) -> usize {
        self.max_depth_seen = self.max_depth_seen.max(depth);
        let mut counts = vec![0.0f32; self.n_classes];
        for &i in indices {
            counts[self.y[i]] += 1.0;
        }
        let node_gini = gini(&counts, indices.len() as f32);

        let config = self.config;
        if depth >= config.max_depth || indices.len() < config.min_samples_split || node_gini == 0.0
        {
            return self.leaf(counts);
        }

        let features = feature_subset(self.x.cols(), config.mtry, &mut self.rng);
        let node = SplitNode {
            x: self.x,
            y: self.y,
            indices,
            counts: &counts,
            min_samples_leaf: config.min_samples_leaf,
        };
        let Some((feature, threshold, impurity)) = (self.search)(&node, &features) else {
            return self.leaf(counts);
        };
        if impurity >= node_gini {
            return self.leaf(counts);
        }

        let x = self.x;
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| x.row(i)[feature] <= threshold);

        let slot = self.nodes.len();
        self.nodes.push(Node::Leaf {
            value: 0.0,
            distribution: Vec::new(),
        }); // placeholder
        let left = self.grow(&left_idx, depth + 1);
        let right = self.grow(&right_idx, depth + 1);
        self.nodes[slot] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        slot
    }

    /// Pushes a leaf predicting the majority class of `counts`.
    fn leaf(&mut self, counts: Vec<f32>) -> usize {
        let majority = crate::tensor::argmax(&counts);
        let mut distribution = counts;
        let t: f32 = distribution.iter().sum();
        if t > 0.0 {
            for d in &mut distribution {
                *d /= t;
            }
        }
        self.nodes.push(Node::Leaf {
            value: majority as f32,
            distribution,
        });
        self.nodes.len() - 1
    }
}

// ---------------------------------------------------------------------------
// Regression
// ---------------------------------------------------------------------------

/// A CART regression tree using variance reduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeRegressor {
    nodes: Vec<Node>,
    n_features: usize,
    depth: usize,
}

impl DecisionTreeRegressor {
    /// Fits a regression tree on rows of `x` against continuous targets.
    ///
    /// # Errors
    ///
    /// - [`MlError::EmptyInput`] / [`MlError::ShapeMismatch`] for bad data.
    /// - [`MlError::InvalidArgument`] for non-finite features.
    pub fn fit(x: &Matrix, y: &[f32], config: &TreeConfig) -> Result<Self> {
        validate_inputs(x, y.len())?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut nodes = Vec::new();
        let indices: Vec<usize> = (0..x.rows()).collect();
        let mut max_depth_seen = 0;
        build_regressor(
            x,
            y,
            config,
            &indices,
            0,
            &mut nodes,
            &mut rng,
            &mut max_depth_seen,
        );
        Ok(DecisionTreeRegressor {
            nodes,
            n_features: x.cols(),
            depth: max_depth_seen,
        })
    }

    /// Depth actually reached while fitting.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Predicted value for one sample.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() < n_features` used in training.
    pub fn predict_row(&self, features: &[f32]) -> f32 {
        assert!(
            features.len() >= self.n_features,
            "expected {} features, got {}",
            self.n_features,
            features.len()
        );
        match descend(&self.nodes, features) {
            Node::Leaf { value, .. } => *value,
            Node::Split { .. } => unreachable!("descend returns leaves"),
        }
    }

    /// Predictions for every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<f32> {
        x.iter_rows().map(|r| self.predict_row(r)).collect()
    }
}

fn sum_and_sq(indices: &[usize], y: &[f32]) -> (f32, f32) {
    let mut s = 0.0;
    let mut ss = 0.0;
    for &i in indices {
        s += y[i];
        ss += y[i] * y[i];
    }
    (s, ss)
}

/// Grows a regression subtree. Unlike the classifier's sorted sweep
/// (`sweep_split`), the split search rescans every row per threshold: the
/// `f32` sums of targets and squares depend on the order rows are added
/// in, so a running sweep would change the fitted bits, and the only
/// regression trees in the system fit BO histories of a few dozen points.
#[allow(clippy::too_many_arguments)]
fn build_regressor(
    x: &Matrix,
    y: &[f32],
    config: &TreeConfig,
    indices: &[usize],
    depth: usize,
    nodes: &mut Vec<Node>,
    rng: &mut StdRng,
    max_depth_seen: &mut usize,
) -> usize {
    *max_depth_seen = (*max_depth_seen).max(depth);
    let n = indices.len() as f32;
    let (s, ss) = sum_and_sq(indices, y);
    let mean = s / n;
    let variance = (ss / n - mean * mean).max(0.0);

    let make_leaf = |nodes: &mut Vec<Node>| -> usize {
        nodes.push(Node::Leaf {
            value: mean,
            distribution: Vec::new(),
        });
        nodes.len() - 1
    };

    if depth >= config.max_depth || indices.len() < config.min_samples_split || variance <= 1e-12 {
        return make_leaf(nodes);
    }

    let mut best: Option<(usize, f32, f32)> = None; // (feature, threshold, weighted variance)
    for feature in feature_subset(x.cols(), config.mtry, rng) {
        let mut values: Vec<f32> = indices.iter().map(|&i| x.row(i)[feature]).collect();
        for threshold in thresholds(&mut values) {
            let (mut sl, mut ssl, mut nl) = (0.0f32, 0.0f32, 0.0f32);
            let (mut sr, mut ssr, mut nr) = (0.0f32, 0.0f32, 0.0f32);
            for &i in indices {
                if x.row(i)[feature] <= threshold {
                    sl += y[i];
                    ssl += y[i] * y[i];
                    nl += 1.0;
                } else {
                    sr += y[i];
                    ssr += y[i] * y[i];
                    nr += 1.0;
                }
            }
            if (nl as usize) < config.min_samples_leaf || (nr as usize) < config.min_samples_leaf {
                continue;
            }
            let var_l = (ssl / nl - (sl / nl) * (sl / nl)).max(0.0);
            let var_r = (ssr / nr - (sr / nr) * (sr / nr)).max(0.0);
            let weighted = (nl * var_l + nr * var_r) / n;
            if best.map_or(true, |(_, _, b)| weighted < b) {
                best = Some((feature, threshold, weighted));
            }
        }
    }

    let Some((feature, threshold, weighted)) = best else {
        return make_leaf(nodes);
    };
    if weighted >= variance {
        return make_leaf(nodes);
    }

    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
        .iter()
        .partition(|&&i| x.row(i)[feature] <= threshold);

    let slot = nodes.len();
    nodes.push(Node::Leaf {
        value: 0.0,
        distribution: Vec::new(),
    });
    let left = build_regressor(
        x,
        y,
        config,
        &left_idx,
        depth + 1,
        nodes,
        rng,
        max_depth_seen,
    );
    let right = build_regressor(
        x,
        y,
        config,
        &right_idx,
        depth + 1,
        nodes,
        rng,
        max_depth_seen,
    );
    nodes[slot] = Node::Split {
        feature,
        threshold,
        left,
        right,
    };
    slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    /// The reference split search the sweep replaced: for every candidate
    /// threshold, rescan every row of the node.
    fn rescan_split(node: &SplitNode<'_>, features: &[usize]) -> Option<(usize, f32, f32)> {
        let total = node.indices.len() as f32;
        let min_leaf = node.min_samples_leaf;
        let mut best: Option<(usize, f32, f32)> = None;
        for &feature in features {
            let mut values: Vec<f32> = node
                .indices
                .iter()
                .map(|&i| node.x.row(i)[feature])
                .collect();
            for threshold in thresholds(&mut values) {
                let mut left = vec![0.0f32; node.counts.len()];
                let mut right = vec![0.0f32; node.counts.len()];
                for &i in node.indices {
                    if node.x.row(i)[feature] <= threshold {
                        left[node.y[i]] += 1.0;
                    } else {
                        right[node.y[i]] += 1.0;
                    }
                }
                let nl: f32 = left.iter().sum();
                let nr: f32 = right.iter().sum();
                if (nl as usize) < min_leaf || (nr as usize) < min_leaf {
                    continue;
                }
                let impurity = (nl * gini(&left, nl) + nr * gini(&right, nr)) / total;
                if best.map_or(true, |(_, _, b)| impurity < b) {
                    best = Some((feature, threshold, impurity));
                }
            }
        }
        best
    }

    /// Bit-level view of an exported arena (so `-0.0` vs `0.0` thresholds
    /// count as different).
    fn node_bits(tree: &DecisionTreeClassifier) -> Vec<(usize, u32, usize, usize)> {
        tree.export_nodes()
            .into_iter()
            .map(|node| match node {
                ExportedNode::Leaf { class } => (class, u32::MAX, 0, 0),
                ExportedNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => (feature, threshold.to_bits(), left, right),
            })
            .collect()
    }

    /// `1.0` and its next two `f32` successors.
    fn one_and_successors() -> [f32; 3] {
        let one = 1.0f32.to_bits();
        [1.0, f32::from_bits(one + 1), f32::from_bits(one + 2)]
    }

    /// Feature values that stress the threshold walk: a handful of levels
    /// (so most values repeat), adjacent floats whose midpoint rounds down
    /// to the lower one or up to the upper one, and both zeros.
    fn tricky_value(rng: &mut StdRng) -> f32 {
        match rng.gen_range(0..6) {
            0 => rng.gen_range(0..4) as f32,
            1 => one_and_successors()[rng.gen_range(0..3)],
            2 => -0.0,
            3 => 0.0,
            _ => rng.gen_range(-8..8) as f32 * 0.25,
        }
    }

    #[test]
    fn classifier_fits_threshold_rule() {
        let x = Matrix::from_rows(&[
            vec![0.0, 9.0],
            vec![1.0, 8.0],
            vec![2.0, 7.0],
            vec![10.0, 1.0],
            vec![11.0, 2.0],
            vec![12.0, 0.0],
        ])
        .unwrap();
        let y = vec![0, 0, 0, 1, 1, 1];
        let tree = DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default()).unwrap();
        assert_eq!(tree.predict(&x), y);
        assert_eq!(tree.predict_row(&[5.0, 5.0]), 0);
        assert_eq!(tree.predict_row(&[20.0, 0.0]), 1);
    }

    #[test]
    fn classifier_pure_node_is_single_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = vec![1, 1, 1];
        let tree = DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default()).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn classifier_respects_max_depth() {
        // Alternating labels force deep splits if unconstrained.
        let rows: Vec<Vec<f32>> = (0..32).map(|i| vec![i as f32]).collect();
        let y: Vec<usize> = (0..32).map(|i| i % 2).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let tree =
            DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default().max_depth(3)).unwrap();
        assert!(tree.depth() <= 3, "depth {}", tree.depth());
    }

    #[test]
    fn classifier_proba_sums_to_one() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = vec![0, 0, 1, 1];
        let tree =
            DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default().max_depth(1)).unwrap();
        let p = tree.predict_proba_row(&[0.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn classifier_rejects_bad_input() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        assert!(DecisionTreeClassifier::fit(&x, &[0], 2, &TreeConfig::default()).is_err());
        assert!(DecisionTreeClassifier::fit(&x, &[0, 3], 2, &TreeConfig::default()).is_err());
        assert!(DecisionTreeClassifier::fit(&x, &[0, 1], 1, &TreeConfig::default()).is_err());
        let empty = Matrix::zeros(0, 1);
        assert!(DecisionTreeClassifier::fit(&empty, &[], 2, &TreeConfig::default()).is_err());
    }

    #[test]
    fn regressor_fits_step_function() {
        let rows: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
        let y: Vec<f32> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let tree = DecisionTreeRegressor::fit(&x, &y, &TreeConfig::default()).unwrap();
        assert!((tree.predict_row(&[3.0]) - 1.0).abs() < 1e-5);
        assert!((tree.predict_row(&[15.0]) - 5.0).abs() < 1e-5);
    }

    #[test]
    fn regressor_constant_target_single_leaf() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![5.0]]).unwrap();
        let tree =
            DecisionTreeRegressor::fit(&x, &[2.0, 2.0, 2.0], &TreeConfig::default()).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert!((tree.predict_row(&[9.0]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn regressor_interpolates_mean_at_depth_zero() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        let tree =
            DecisionTreeRegressor::fit(&x, &[0.0, 10.0], &TreeConfig::default().max_depth(0))
                .unwrap();
        assert!((tree.predict_row(&[0.5]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn exported_nodes_replay_the_tree() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = vec![0, 0, 1, 1];
        let tree = DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default()).unwrap();
        let nodes = tree.export_nodes();
        assert_eq!(nodes.len(), tree.node_count());
        assert_eq!(tree.n_features(), 1);
        // Replay the exported arena by hand and compare to predict_row.
        let walk = |features: &[f32]| -> usize {
            let mut idx = 0;
            loop {
                match nodes[idx] {
                    ExportedNode::Leaf { class } => return class,
                    ExportedNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        idx = if features[feature] <= threshold {
                            left
                        } else {
                            right
                        };
                    }
                }
            }
        };
        for v in [0.0f32, 0.6, 1.4, 2.5, 3.5] {
            assert_eq!(walk(&[v]), tree.predict_row(&[v]), "at {v}");
        }
    }

    #[test]
    fn mtry_subsampling_still_learns() {
        let rows: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![i as f32, (i * 7 % 13) as f32, (i * 3 % 5) as f32])
            .collect();
        let y: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let tree =
            DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default().mtry(2).seed(4)).unwrap();
        let acc = crate::metrics::accuracy(&y, &tree.predict(&x)).unwrap();
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn midpoints_of_adjacent_floats_round_to_either_end() {
        // The premise of `tricky_value`: the f32 midpoint of two adjacent
        // floats is one of them (ties round to even), and for the second
        // pair it is the upper one, so `value <= threshold` takes both
        // values' rows.
        let [a, b, c] = one_and_successors();
        assert_eq!(0.5 * (a + b), a);
        assert_eq!(0.5 * (b + c), c);
    }

    #[test]
    fn rejects_non_finite_features() {
        // Every third row non-finite in one column: with NaN, 40 rows used
        // to panic in the threshold sort and 200 to fit a one-node tree.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for rows in [4, 40, 200] {
                let x = Matrix::from_fn(rows, 2, |r, c| {
                    if r % 3 == 1 && c == 0 {
                        bad
                    } else {
                        (r + c) as f32
                    }
                });
                let y: Vec<usize> = (0..rows).map(|i| i % 2).collect();
                let targets: Vec<f32> = y.iter().map(|&c| c as f32).collect();
                let config = TreeConfig::default();
                assert!(matches!(
                    DecisionTreeClassifier::fit(&x, &y, 2, &config),
                    Err(MlError::InvalidArgument(_))
                ));
                assert!(matches!(
                    DecisionTreeRegressor::fit(&x, &targets, &config),
                    Err(MlError::InvalidArgument(_))
                ));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn prop_sweep_matches_rescan(
            seed in 0u64..1_000_000,
            rows in 2usize..160,
            cols in 1usize..5,
            classes in 0usize..2,
            leaf in 0usize..3,
            depth in 1usize..21,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_classes = [2, 5][classes];
            let data: Vec<Vec<f32>> = (0..rows)
                .map(|_| (0..cols).map(|_| tricky_value(&mut rng)).collect())
                .collect();
            let y: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..n_classes)).collect();
            let x = Matrix::from_rows(&data).unwrap();
            let mut config = TreeConfig::default().max_depth(depth).seed(seed);
            config.min_samples_leaf = [1, 5, 20][leaf];
            if seed % 2 == 1 {
                config.mtry = Some(1 + (seed as usize / 2) % cols);
            }
            let sweep = DecisionTreeClassifier::fit(&x, &y, n_classes, &config).unwrap();
            let rescan = DecisionTreeClassifier::grow(&x, &y, n_classes, &config, rescan_split);
            prop_assert_eq!(node_bits(&sweep), node_bits(&rescan));
            prop_assert_eq!(sweep, rescan);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_classifier_training_accuracy_perfect_without_noise(seed in 0u64..20) {
            // Distinct feature values, deterministic labels => tree can overfit.
            let rows: Vec<Vec<f32>> = (0..24).map(|i| vec![i as f32 + (seed % 3) as f32]).collect();
            let y: Vec<usize> = (0..24).map(|i| usize::from(i % 4 == 0)).collect();
            let x = Matrix::from_rows(&rows).unwrap();
            let tree = DecisionTreeClassifier::fit(&x, &y, 2, &TreeConfig::default().max_depth(24)).unwrap();
            prop_assert_eq!(tree.predict(&x), y);
        }

        #[test]
        fn prop_regressor_prediction_within_target_range(seed in 0u64..20) {
            let rows: Vec<Vec<f32>> = (0..30).map(|i| vec![(i as f32 * 1.3 + seed as f32).sin(), i as f32]).collect();
            let y: Vec<f32> = (0..30).map(|i| (i as f32 * 0.7).cos()).collect();
            let x = Matrix::from_rows(&rows).unwrap();
            let tree = DecisionTreeRegressor::fit(&x, &y, &TreeConfig::default()).unwrap();
            let lo = y.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = y.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            for row in x.iter_rows() {
                let p = tree.predict_row(row);
                prop_assert!(p >= lo - 1e-5 && p <= hi + 1e-5);
            }
        }
    }
}
