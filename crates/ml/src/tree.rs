//! CART classification trees with gini impurity and histogram split search.
//!
//! The crate's one grower (`crate::grow`) grows them with the `Gini`
//! statistic: per-(bin, class) counts, gini gain, a leaf holding its class
//! distribution. Feature subsampling per split is supported so
//! [`crate::forest::RandomForest`] can decorrelate its members.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::arena::{deserialize_validated, TreeArena};
use crate::dataset::{BinnedDataset, Dataset};
use crate::grow::{Grower, Grown, NodeStat};
use crate::Classifier;

/// Hyperparameters for growing a [`DecisionTree`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of features examined per split; `None` examines all.
    pub features_per_split: Option<usize>,
    /// Minimum gini gain for a split to be accepted.
    pub min_gain: f64,
    /// RNG seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_samples_leaf: 2,
            min_samples_split: 4,
            features_per_split: None,
            min_gain: 1e-9,
            seed: 0,
        }
    }
}

/// Classification trees in one arena, with the slab their leaves index:
/// one `n_classes`-wide row of class probabilities per leaf, in arena
/// order. A [`DecisionTree`] holds one tree, a random forest all of its
/// members.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ClassTrees {
    arena: TreeArena,
    leaf_probs: Vec<f32>,
    n_classes: usize,
    n_features: usize,
}

impl ClassTrees {
    pub(crate) fn new(n_classes: usize, n_features: usize) -> Self {
        ClassTrees { arena: TreeArena::default(), leaf_probs: Vec::new(), n_classes, n_features }
    }

    /// Flattens a grown tree behind those already here and returns its
    /// root; its leaf distributions move to the end of the slab.
    pub(crate) fn push(&mut self, grown: &Grown<Vec<f32>>) -> u32 {
        let (slab, k) = (&mut self.leaf_probs, self.n_classes);
        self.arena.append(&grown.nodes, |probs| {
            let row = (slab.len() / k) as u32;
            slab.extend_from_slice(probs);
            (row, 0.0)
        })
    }

    pub(crate) fn n_classes(&self) -> usize {
        self.n_classes
    }

    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// The class distribution of the leaf `features` falls into in the
    /// tree at `root`.
    #[inline]
    pub(crate) fn distribution(&self, root: u32, features: &[f64]) -> &[f32] {
        let row = self.arena.leaf_row(self.arena.leaf(root, features));
        &self.leaf_probs[row * self.n_classes..(row + 1) * self.n_classes]
    }

    /// Whether decoded fields describe trees that are safe to walk from
    /// `roots`: a valid arena, at least one root, every leaf's row inside
    /// the slab, every probability finite.
    pub(crate) fn validate(&self, roots: &[u32]) -> Result<(), String> {
        self.arena.validate(roots, self.n_features)?;
        if roots.is_empty() || self.n_classes == 0 {
            return Err("no trees or no classes".into());
        }
        let rows = self.leaf_probs.len() / self.n_classes;
        if let Some(id) = self.arena.leaves().find(|&id| self.arena.leaf_row(id) >= rows) {
            return Err(format!("leaf {id} points past the {rows}-row probability slab"));
        }
        if !self.leaf_probs.iter().all(|p| p.is_finite()) {
            return Err("non-finite leaf probability".into());
        }
        Ok(())
    }
}

/// A trained CART classification tree.
#[derive(Debug, Clone, Serialize)]
pub struct DecisionTree {
    /// The tree, rooted at node 0.
    trees: ClassTrees,
    /// Total gini gain contributed by each feature, for importance reports.
    feature_gain: Vec<f64>,
}

deserialize_validated!(DecisionTree { trees, feature_gain });

/// Class counts with gini impurity: the CART node statistic.
struct Gini<'a> {
    source: &'a Dataset,
    config: &'a TreeConfig,
}

impl NodeStat for Gini<'_> {
    type Cell = usize;
    type Leaf = Vec<f32>;

    fn width(&self) -> usize {
        self.source.n_classes()
    }

    fn add_row(&self, row: usize, counts: &mut [usize]) {
        counts[self.source.label(row)] += 1;
    }

    fn split_score(&self, depth: usize, counts: &[usize], n: usize) -> Option<f64> {
        let (config, impurity) = (self.config, gini(counts, n));
        let splittable = depth < config.max_depth && n >= config.min_samples_split;
        (splittable && impurity > 0.0).then_some(impurity)
    }

    /// Gini gain; the importance credit weights it by the node's rows.
    fn gain(&self, impurity: f64, left: &[usize], right: &[usize]) -> Option<(f64, f64)> {
        let (l, r) = (left.iter().sum::<usize>(), right.iter().sum::<usize>());
        if l.min(r) < self.config.min_samples_leaf {
            return None;
        }
        let total = (l + r) as f64;
        let gain = impurity - l as f64 / total * gini(left, l) - r as f64 / total * gini(right, r);
        (gain > self.config.min_gain).then_some((gain, gain * total))
    }

    fn leaf(&self, counts: &[usize], n: usize) -> Vec<f32> {
        counts.iter().map(|&c| (c as f64 / n as f64) as f32).collect()
    }
}

impl TreeConfig {
    /// Grows one CART tree over `rows`, reordering them; node 0 is the
    /// root.
    ///
    /// # Panics
    ///
    /// Panics when `rows` is empty.
    pub(crate) fn grow(&self, data: &BinnedDataset<'_>, rows: &mut [u32]) -> Grown<Vec<f32>> {
        let stat = Gini { source: data.source(), config: self };
        let sample = self.features_per_split.map(|k| (k, StdRng::seed_from_u64(self.seed)));
        Grower::grow(data, stat, sample, rows)
    }
}

impl DecisionTree {
    /// Grows a tree on all rows of `data`.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty.
    pub fn fit(data: &BinnedDataset<'_>, config: &TreeConfig) -> Self {
        let indices: Vec<u32> = (0..data.source().len() as u32).collect();
        Self::fit_on(data, &indices, config)
    }

    /// Grows a tree on the given subset of row indices.
    ///
    /// # Panics
    ///
    /// Panics when `indices` is empty.
    pub fn fit_on(data: &BinnedDataset<'_>, indices: &[u32], config: &TreeConfig) -> Self {
        let grown = config.grow(data, &mut indices.to_vec());
        let mut trees = ClassTrees::new(data.source().n_classes(), data.source().n_features());
        trees.push(&grown);
        DecisionTree { trees, feature_gain: grown.feature_gain }
    }

    fn validate(&self) -> Result<(), String> {
        self.trees.validate(&[0])
    }

    /// Number of nodes in the tree.
    pub fn n_nodes(&self) -> usize {
        self.trees.arena.n_nodes()
    }

    /// Depth of the tree (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        self.trees.arena.depth()
    }

    /// Accumulated gini gain per feature (unnormalized importance).
    pub fn feature_gain(&self) -> &[f64] {
        &self.feature_gain
    }
}

impl Classifier for DecisionTree {
    fn n_classes(&self) -> usize {
        self.trees.n_classes
    }

    fn predict_proba_into(&self, features: &[f64], out: &mut [f64]) {
        for (o, &p) in out.iter_mut().zip(self.trees.distribution(0, features)) {
            *o = p as f64;
        }
    }
}

/// Gini impurity of a class-count vector over `total` samples.
fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| c as f64 / t).map(|p| p * p).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    /// Two gaussian-ish blobs separable on feature 0.
    fn blobs(n: usize) -> Dataset {
        let mut d = Dataset::new(3, 2);
        let mut state = 42u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        for i in 0..n {
            let c = i % 2;
            let x0 = c as f64 * 2.0 + next() * 0.8;
            d.push(&[x0, next(), next()], c);
        }
        d
    }

    #[test]
    fn learns_separable_blobs() {
        let d = blobs(400);
        let b = BinnedDataset::build(&d);
        let tree = DecisionTree::fit(&b, &TreeConfig::default());
        let mut correct = 0;
        for i in 0..d.len() {
            if tree.predict(d.row(i)).0 == d.label(i) {
                correct += 1;
            }
        }
        assert!(correct as f64 / d.len() as f64 > 0.95, "got {correct}/400");
    }

    #[test]
    fn gini_basics() {
        assert_eq!(gini(&[10, 0], 10), 0.0);
        assert!((gini(&[5, 5], 10) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[0, 0], 0), 0.0);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let mut d = Dataset::new(1, 2);
        for i in 0..20 {
            d.push(&[i as f64], 0);
        }
        let b = BinnedDataset::build(&d);
        let tree = DecisionTree::fit(&b, &TreeConfig::default());
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.depth(), 0);
        let probs = tree.predict_proba(&[5.0]);
        assert!((probs[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn respects_max_depth() {
        let d = blobs(400);
        let b = BinnedDataset::build(&d);
        let cfg = TreeConfig { max_depth: 2, ..TreeConfig::default() };
        let tree = DecisionTree::fit(&b, &cfg);
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn probabilities_are_normalized() {
        let d = blobs(200);
        let b = BinnedDataset::build(&d);
        let tree = DecisionTree::fit(&b, &TreeConfig::default());
        for i in 0..d.len() {
            let p = tree.predict_proba(d.row(i));
            let s: f64 = p.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn informative_feature_gets_the_gain() {
        let d = blobs(400);
        let b = BinnedDataset::build(&d);
        let tree = DecisionTree::fit(&b, &TreeConfig::default());
        let g = tree.feature_gain();
        assert!(g[0] > g[1] && g[0] > g[2], "feature 0 should dominate: {g:?}");
    }

    /// The flattened walk against the `Node` walk it replaced: the full
    /// probability vector, bit for bit, NaN and infinite inputs included.
    #[test]
    fn arena_walk_matches_the_node_walk() {
        for seed in [3u64, 11] {
            // Overlapping classes with flipped labels: a deep, ragged tree.
            let mut d = Dataset::new(3, 3);
            for row in crate::arena::wild_rows(3, 600, seed ^ 0xD5)
                .iter()
                .filter(|r| r.iter().all(|x| x.is_finite()))
            {
                let noise = (row[0] * 1e3) as i64 % 7 == 0;
                d.push(
                    row,
                    ((row[0] > 0.0) as usize + (row[1] > 0.3) as usize + noise as usize) % 3,
                );
            }
            let b = BinnedDataset::build(&d);
            let indices: Vec<u32> = (0..d.len() as u32).collect();
            let cfg = TreeConfig { seed, features_per_split: Some(2), ..TreeConfig::default() };
            let tree = DecisionTree::fit_on(&b, &indices, &cfg);
            let grown = cfg.grow(&b, &mut indices.clone());
            assert_eq!(tree.n_nodes(), grown.nodes.len());
            assert!(tree.depth() > 3, "depth {}", tree.depth());
            assert!(tree.validate().is_ok());
            for row in crate::arena::wild_rows(3, 2_000, seed) {
                let old: Vec<u64> = crate::arena::reference_leaf(&grown.nodes, &row)
                    .iter()
                    .map(|&p| (p as f64).to_bits())
                    .collect();
                let new: Vec<u64> = tree.predict_proba(&row).iter().map(|p| p.to_bits()).collect();
                assert_eq!(old, new, "seed {seed}, row {row:?}");
            }
        }
    }

    #[test]
    fn decode_rejects_a_leaf_row_outside_the_slab() {
        let d = blobs(200);
        let b = BinnedDataset::build(&d);
        let mut tree = DecisionTree::fit(&b, &TreeConfig::default());
        assert!(crate::from_bytes::<DecisionTree>(&crate::to_bytes(&tree)).is_ok());
        tree.trees.leaf_probs.truncate(tree.trees.leaf_probs.len() - 1);
        assert!(crate::from_bytes::<DecisionTree>(&crate::to_bytes(&tree)).is_err());
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let d = blobs(200);
        let b = BinnedDataset::build(&d);
        let tree = DecisionTree::fit(&b, &TreeConfig::default());
        let bytes = crate::to_bytes(&tree);
        let back: DecisionTree = crate::from_bytes(&bytes).unwrap();
        for i in 0..d.len() {
            assert_eq!(tree.predict(d.row(i)).0, back.predict(d.row(i)).0);
        }
    }
}
