//! Extreme gradient boosting trees with softmax multi-class loss.
//!
//! This is the XGBoost formulation: each boosting round fits one regression
//! tree per class to the first/second-order gradients of the softmax
//! cross-entropy, split gain is the regularized second-order score
//! `1/2 (G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda)) - gamma`,
//! and leaf values are the Newton step `-G / (H + lambda)` scaled by the
//! learning rate. The trees grow in the crate's one grower (`crate::grow`)
//! with the `Newton` statistic: per-bin gradient and hessian sums.

use serde::{Deserialize, Serialize};

use crate::arena::{deserialize_validated, TreeArena};
use crate::dataset::BinnedDataset;
use crate::grow::{Grower, NodeStat};
use crate::Classifier;

/// Hyperparameters for [`GradientBoosting`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GradientBoostingConfig {
    /// Number of boosting rounds (trees per class).
    pub n_rounds: usize,
    /// Maximum depth of each regression tree.
    pub max_depth: usize,
    /// Shrinkage applied to every leaf value.
    pub learning_rate: f64,
    /// L2 regularization on leaf values (XGBoost's lambda).
    pub lambda: f64,
    /// Minimum gain required to split (XGBoost's gamma).
    pub gamma: f64,
    /// Minimum hessian mass in a child (XGBoost's min_child_weight).
    pub min_child_weight: f64,
}

impl Default for GradientBoostingConfig {
    fn default() -> Self {
        GradientBoostingConfig {
            n_rounds: 40,
            max_depth: 6,
            learning_rate: 0.2,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
        }
    }
}

/// Gradient and hessian sums with the regularized second-order gain: the
/// node statistic of a boosted regression tree.
struct Newton<'a> {
    grad: &'a [f64],
    hess: &'a [f64],
    config: &'a GradientBoostingConfig,
}

impl NodeStat for Newton<'_> {
    /// `[G, H]`.
    type Cell = f64;
    /// The leaf's (already shrunk) score contribution.
    type Leaf = f64;

    fn width(&self) -> usize {
        2
    }

    fn add_row(&self, row: usize, gh: &mut [f64]) {
        gh[0] += self.grad[row];
        gh[1] += self.hess[row];
    }

    fn split_score(&self, depth: usize, gh: &[f64], n: usize) -> Option<f64> {
        (depth < self.config.max_depth && n >= 2)
            .then(|| gh[0] * gh[0] / (gh[1] + self.config.lambda))
    }

    /// The second-order gain, credited as it is.
    fn gain(&self, parent_score: f64, l: &[f64], r: &[f64]) -> Option<(f64, f64)> {
        let GradientBoostingConfig { lambda, gamma, min_child_weight, .. } = *self.config;
        if l[1] < min_child_weight || r[1] < min_child_weight {
            return None;
        }
        let gain = 0.5
            * (l[0] * l[0] / (l[1] + lambda) + r[0] * r[0] / (r[1] + lambda) - parent_score)
            - gamma;
        (gain > 1e-12).then_some((gain, gain))
    }

    fn leaf(&self, gh: &[f64], _: usize) -> f64 {
        -gh[0] / (gh[1] + self.config.lambda) * self.config.learning_rate
    }
}

/// A trained gradient-boosted multi-class classifier.
#[derive(Debug, Clone, Serialize)]
pub struct GradientBoosting {
    /// Every regression tree, in one arena; a leaf's `threshold` cell
    /// holds its (already shrunk) score contribution.
    trees: TreeArena,
    /// Where each of the `rounds x n_classes` trees starts, row-major by
    /// round.
    roots: Vec<u32>,
    n_classes: usize,
    /// Per-class prior log-odds used as the initial score.
    base_score: Vec<f64>,
    /// Accumulated split gain per feature.
    feature_gain: Vec<f64>,
}

deserialize_validated!(GradientBoosting { trees, roots, n_classes, base_score, feature_gain });

/// Raw score contribution of the regression tree at `root` for one
/// feature row.
#[inline]
fn score(trees: &TreeArena, root: u32, features: &[f64]) -> f64 {
    trees.leaf_value(trees.leaf(root, features))
}

impl GradientBoosting {
    /// Trains a boosted ensemble on `data`.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty or the config requests zero rounds.
    pub fn fit(data: &BinnedDataset<'_>, config: &GradientBoostingConfig) -> Self {
        assert!(config.n_rounds > 0, "boosting needs at least one round");
        let n = data.source().len();
        assert!(n > 0, "cannot fit on zero rows");
        let k = data.source().n_classes();

        // Prior log-probabilities keep early rounds sane for skewed classes.
        let dist = data.source().class_distribution();
        let base_score: Vec<f64> = dist.iter().map(|&p| (p.max(1e-6)).ln()).collect();

        // scores[i * k + c] = current raw score of row i for class c.
        let mut scores = base_score.repeat(n);

        let mut trees = TreeArena::default();
        let mut roots = Vec::with_capacity(config.n_rounds * k);
        let mut feature_gain = vec![0.0; data.source().n_features()];
        let (mut grad, mut hess) = (vec![0.0f64; n], vec![0.0f64; n]);
        let mut probs = vec![0.0f64; k];
        let mut all: Vec<u32> = (0..n as u32).collect();

        for _round in 0..config.n_rounds {
            for c in 0..k {
                // Softmax gradients for class c.
                for i in 0..n {
                    probs.copy_from_slice(&scores[i * k..(i + 1) * k]);
                    softmax_in_place(&mut probs);
                    let p = probs[c];
                    let y = f64::from(data.source().label(i) == c);
                    grad[i] = p - y;
                    hess[i] = (p * (1.0 - p)).max(1e-12);
                }
                // Every tree starts from the row order the last one left.
                let stat = Newton { grad: &grad, hess: &hess, config };
                let grown = Grower::grow(data, stat, None, &mut all);
                for (a, g) in feature_gain.iter_mut().zip(&grown.feature_gain) {
                    *a += g;
                }
                let root = trees.append(&grown.nodes, |&value| (0, value));
                for i in 0..n {
                    scores[i * k + c] += score(&trees, root, data.source().row(i));
                }
                roots.push(root);
            }
        }

        GradientBoosting { trees, roots, n_classes: k, base_score, feature_gain }
    }

    /// Whether decoded fields describe an ensemble that is safe to walk:
    /// whole rounds of trees in a valid arena over `feature_gain.len()`
    /// features, a prior per class, every leaf value and prior finite.
    fn validate(&self) -> Result<(), String> {
        let k = self.n_classes;
        if k == 0 || self.base_score.len() != k || !self.roots.len().is_multiple_of(k) {
            return Err(format!(
                "{} trees and {} priors do not make rounds of {k} classes",
                self.roots.len(),
                self.base_score.len()
            ));
        }
        self.trees.validate(&self.roots, self.feature_gain.len())?;
        let leaf_values = self.trees.leaves().map(|id| self.trees.leaf_value(id));
        if !leaf_values.chain(self.base_score.iter().copied()).all(f64::is_finite) {
            return Err("non-finite leaf value or prior".into());
        }
        Ok(())
    }

    /// Number of regression trees in the ensemble (rounds × classes).
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Width of the feature rows the ensemble splits on.
    pub fn n_features(&self) -> usize {
        self.feature_gain.len()
    }

    /// Accumulated split gain per feature (unnormalized importance).
    pub fn feature_importance(&self) -> &[f64] {
        &self.feature_gain
    }
}

impl Classifier for GradientBoosting {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn predict_proba_into(&self, features: &[f64], out: &mut [f64]) {
        out.copy_from_slice(&self.base_score);
        // Round by round, so each class's score adds up in tree order.
        for round in self.roots.chunks_exact(self.n_classes) {
            for (s, &root) in out.iter_mut().zip(round) {
                *s += score(&self.trees, root, features);
            }
        }
        softmax_in_place(out);
    }
}

/// Replaces raw scores with their softmax.
fn softmax_in_place(scores: &mut [f64]) {
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for s in scores.iter_mut() {
        // `exp(±0)` is exactly 1 (C Annex F), so the top score skips the
        // call: a quarter of a four-class softmax.
        let below_max = *s - max;
        *s = if below_max == 0.0 { 1.0 } else { below_max.exp() };
        sum += *s;
    }
    for s in scores.iter_mut() {
        *s /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Node;
    use crate::dataset::Dataset;

    fn spiralish(n: usize) -> Dataset {
        // Three classes separated by thresholds on x0 with a noisy channel.
        let mut d = Dataset::new(3, 3);
        let mut state = 99u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        for _ in 0..n {
            let x = next() * 3.0;
            let c = if x < -0.5 {
                0
            } else if x < 0.5 {
                1
            } else {
                2
            };
            d.push(&[x + next() * 0.1, next(), next()], c);
        }
        d
    }

    #[test]
    fn learns_thresholds() {
        let d = spiralish(600);
        let b = BinnedDataset::build(&d);
        let g = GradientBoosting::fit(&b, &GradientBoostingConfig::default());
        let correct = (0..d.len()).filter(|&i| g.predict(d.row(i)).0 == d.label(i)).count();
        assert!(correct as f64 / d.len() as f64 > 0.95, "got {correct}/600");
    }

    #[test]
    fn softmax_is_a_distribution() {
        let mut out = [1.0, 2.0, 3.0];
        softmax_in_place(&mut out);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(out[2] > out[1] && out[1] > out[0]);
    }

    #[test]
    fn softmax_handles_extremes() {
        let mut out = [1000.0, -1000.0];
        softmax_in_place(&mut out);
        assert!((out[0] - 1.0).abs() < 1e-12);
        assert!(out[1] >= 0.0);
    }

    #[test]
    fn skewed_classes_get_prior() {
        // 99:1 class skew; base score should favor the majority class on
        // uninformative inputs.
        let mut d = Dataset::new(1, 2);
        for i in 0..500 {
            d.push(&[0.0], usize::from(i % 100 == 0));
        }
        let b = BinnedDataset::build(&d);
        let cfg = GradientBoostingConfig { n_rounds: 3, ..Default::default() };
        let g = GradientBoosting::fit(&b, &cfg);
        let p = g.predict_proba(&[0.0]);
        assert!(p[0] > 0.9, "majority prior should dominate: {p:?}");
    }

    #[test]
    fn probabilities_on_simplex() {
        let d = spiralish(200);
        let b = BinnedDataset::build(&d);
        let g = GradientBoosting::fit(
            &b,
            &GradientBoostingConfig { n_rounds: 10, ..Default::default() },
        );
        for i in (0..d.len()).step_by(11) {
            let p = g.predict_proba(d.row(i));
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    /// `predict_proba` as it was before the arena: walk `Node` links,
    /// index classes by `t % k`, softmax into a second vector.
    fn reference_proba(trees: &[Vec<Node<f64>>], base_score: &[f64], features: &[f64]) -> Vec<f64> {
        let k = base_score.len();
        let mut scores = base_score.to_vec();
        for (t, nodes) in trees.iter().enumerate() {
            scores[t % k] += *crate::arena::reference_leaf(nodes, features);
        }
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut probs: Vec<f64> = scores.iter().map(|&s| (s - max).exp()).collect();
        let sum: f64 = probs.iter().sum();
        probs.iter_mut().for_each(|p| *p /= sum);
        probs
    }

    /// Grows regression trees on made-up gradients, keeps both the node
    /// lists and their arenas, and compares the two walks bit for bit.
    #[test]
    fn arena_ensemble_matches_the_node_ensemble() {
        for seed in [5u64, 23] {
            let d = spiralish(300 + seed as usize);
            let b = BinnedDataset::build(&d);
            let config = GradientBoostingConfig::default();
            let (k, n) = (3, d.len());
            let mut all: Vec<u32> = (0..n as u32).collect();
            let mut node_trees = Vec::new();
            for t in 0..4 * k as u64 {
                let wave =
                    |i: usize, phase: u64| ((i as u64 * 31 + t * 7 + seed + phase) % 17) as f64;
                let grad: Vec<f64> = (0..n).map(|i| wave(i, 0) / 17.0 - 0.5).collect();
                let hess: Vec<f64> = (0..n).map(|i| 0.05 + wave(i, 3) / 100.0).collect();
                let stat = Newton { grad: &grad, hess: &hess, config: &config };
                let grown = Grower::grow(&b, stat, None, &mut all);
                assert!(grown.nodes.len() > 1, "gradients must be splittable");
                node_trees.push(grown.nodes);
            }
            let mut trees = TreeArena::default();
            let roots = node_trees.iter().map(|n| trees.append(n, |&v| (0, v))).collect();
            let model = GradientBoosting {
                trees,
                roots,
                n_classes: k,
                base_score: vec![-1.2, -0.9, -1.3],
                feature_gain: vec![0.0; 3],
            };
            assert!(model.validate().is_ok());
            for row in crate::arena::wild_rows(3, 1_000, seed) {
                let old = reference_proba(&node_trees, &model.base_score, &row);
                let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&old), bits(&model.predict_proba(&row)), "seed {seed}");
                let (value, score) = model.predict(&row);
                assert_eq!(value, old.iter().position(|&p| p == score).unwrap());
                assert!(old.iter().all(|&p| p <= score));
            }
        }
    }

    #[test]
    fn decode_rejects_partial_rounds_and_non_finite_leaves() {
        let d = spiralish(200);
        let b = BinnedDataset::build(&d);
        let g = GradientBoosting::fit(
            &b,
            &GradientBoostingConfig { n_rounds: 2, ..Default::default() },
        );
        let decode =
            |g: &GradientBoosting| crate::from_bytes::<GradientBoosting>(&crate::to_bytes(g));
        assert!(decode(&g).is_ok());
        let mut partial = g.clone();
        partial.roots.pop();
        assert!(decode(&partial).is_err());
        // 1e999 is valid JSON and parses to infinity.
        let text = String::from_utf8(crate::to_bytes(&g)).unwrap();
        let prior = format!("\"base_score\":[{}", g.base_score[0]);
        assert!(text.contains(&prior));
        let poisoned = text.replace(&prior, "\"base_score\":[1e999");
        assert!(crate::from_bytes::<GradientBoosting>(poisoned.as_bytes()).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let d = spiralish(200);
        let b = BinnedDataset::build(&d);
        let g = GradientBoosting::fit(
            &b,
            &GradientBoostingConfig { n_rounds: 5, ..Default::default() },
        );
        let back: GradientBoosting = crate::from_bytes(&crate::to_bytes(&g)).unwrap();
        for i in 0..d.len() {
            assert_eq!(g.predict(d.row(i)).0, back.predict(d.row(i)).0);
        }
    }

    #[test]
    fn more_rounds_do_not_hurt_train_accuracy() {
        let d = spiralish(400);
        let b = BinnedDataset::build(&d);
        let acc = |rounds| {
            let g = GradientBoosting::fit(
                &b,
                &GradientBoostingConfig { n_rounds: rounds, ..Default::default() },
            );
            (0..d.len()).filter(|&i| g.predict(d.row(i)).0 == d.label(i)).count()
        };
        assert!(acc(30) >= acc(2));
    }
}
