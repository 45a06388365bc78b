//! Extreme gradient boosting trees with softmax multi-class loss.
//!
//! This is the XGBoost formulation: each boosting round fits one regression
//! tree per class to the first/second-order gradients of the softmax
//! cross-entropy, split gain is the regularized second-order score
//! `1/2 (G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda)) - gamma`,
//! and leaf values are the Newton step `-G / (H + lambda)` scaled by the
//! learning rate.

use serde::{Deserialize, Serialize};

use crate::arena::{deserialize_validated, Node, TreeArena};
use crate::dataset::{BinnedDataset, MAX_BINS};
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

/// Scratch state for growing one regression tree.
struct RegGrower<'a, 'b> {
    data: &'a BinnedDataset<'b>,
    grad: &'a [f64],
    hess: &'a [f64],
    config: &'a GradientBoostingConfig,
    /// Depth-first node list; a leaf carries its (already shrunk) score
    /// contribution.
    nodes: Vec<Node<f64>>,
    feature_gain: Vec<f64>,
}

impl RegGrower<'_, '_> {
    fn grow(&mut self, indices: &mut [u32], depth: usize) -> u32 {
        let (g, h): (f64, f64) = indices
            .iter()
            .fold((0.0, 0.0), |(g, h), &i| (g + self.grad[i as usize], h + self.hess[i as usize]));
        if depth < self.config.max_depth && indices.len() >= 2 {
            if let Some((feature, bin, gain)) = self.best_split(indices, g, h) {
                self.feature_gain[feature] += gain;
                let threshold = self.data.threshold(feature, bin);
                let mut mid = 0;
                for i in 0..indices.len() {
                    if self.data.code(indices[i] as usize, feature) <= bin {
                        indices.swap(i, mid);
                        mid += 1;
                    }
                }
                let id = self.nodes.len() as u32;
                self.nodes.push(Node::Leaf(0.0));
                let (li, ri) = indices.split_at_mut(mid);
                let left = self.grow(li, depth + 1);
                let right = self.grow(ri, depth + 1);
                self.nodes[id as usize] =
                    Node::Split { feature: feature as u32, threshold, left, right };
                return id;
            }
        }
        let value = -g / (h + self.config.lambda) * self.config.learning_rate;
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Leaf(value));
        id
    }

    /// Best (feature, bin, gain) under the second-order gain criterion.
    fn best_split(
        &self,
        indices: &[u32],
        g_total: f64,
        h_total: f64,
    ) -> Option<(usize, usize, f64)> {
        let nf = self.data.source().n_features();
        let parent_score = g_total * g_total / (h_total + self.config.lambda);
        let mut best: Option<(usize, usize, f64)> = None;
        let mut gh = [(0.0f64, 0.0f64); MAX_BINS];
        for f in 0..nf {
            let n_bins = self.data.n_bins(f);
            if n_bins < 2 {
                continue;
            }
            gh[..n_bins].fill((0.0, 0.0));
            for &i in indices {
                let b = self.data.code(i as usize, f);
                let e = &mut gh[b];
                e.0 += self.grad[i as usize];
                e.1 += self.hess[i as usize];
            }
            let (mut gl, mut hl) = (0.0, 0.0);
            for (b, &(bg, bh)) in gh.iter().enumerate().take(n_bins - 1) {
                gl += bg;
                hl += bh;
                let gr = g_total - gl;
                let hr = h_total - hl;
                if hl < self.config.min_child_weight || hr < self.config.min_child_weight {
                    continue;
                }
                let gain = 0.5
                    * (gl * gl / (hl + self.config.lambda) + gr * gr / (hr + self.config.lambda)
                        - parent_score)
                    - self.config.gamma;
                if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f, b, gain));
                }
            }
        }
        best
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
        let nf = data.source().n_features();

        // Prior log-probabilities keep early rounds sane for skewed classes.
        let dist = data.source().class_distribution();
        let base_score: Vec<f64> = dist.iter().map(|&p| (p.max(1e-6)).ln()).collect();

        // scores[i * k + c] = current raw score of row i for class c.
        let mut scores = vec![0.0f64; n * k];
        for row in scores.chunks_mut(k) {
            row.copy_from_slice(&base_score);
        }

        let mut trees = TreeArena::default();
        let mut roots = Vec::with_capacity(config.n_rounds * k);
        let mut feature_gain = vec![0.0; nf];
        let mut grad = vec![0.0f64; n];
        let mut hess = vec![0.0f64; n];
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
                let mut grower = RegGrower {
                    data,
                    grad: &grad,
                    hess: &hess,
                    config,
                    nodes: Vec::new(),
                    feature_gain: vec![0.0; nf],
                };
                grower.grow(&mut all, 0);
                for (a, g) in feature_gain.iter_mut().zip(&grower.feature_gain) {
                    *a += g;
                }
                let root = trees.append(&grower.nodes, |&value| (0, value));
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
                let mut grower = RegGrower {
                    data: &b,
                    grad: &grad,
                    hess: &hess,
                    config: &config,
                    nodes: Vec::new(),
                    feature_gain: vec![0.0; 3],
                };
                grower.grow(&mut all, 0);
                assert!(grower.nodes.len() > 1, "gradients must be splittable");
                node_trees.push(grower.nodes);
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
