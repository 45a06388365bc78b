//! Bagged random forests of CART trees ([`crate::tree`]).
//!
//! Each member tree trains on a bootstrap resample of the rows and examines
//! a random subset of features at every split (`sqrt(n_features)` by
//! default, the standard Breiman setting). Member training is embarrassingly
//! parallel and runs on the scoped worker pool ([`crate::pool`]), one task
//! per tree so deep and shallow members load-balance dynamically.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::arena::deserialize_validated;
use crate::dataset::BinnedDataset;
use crate::tree::{ClassTrees, TreeConfig};
use crate::Classifier;

/// Hyperparameters for a [`RandomForest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForestConfig {
    /// Number of member trees.
    pub n_trees: usize,
    /// Settings for each member tree. `features_per_split = None` here means
    /// "use `sqrt(n_features)`" (unlike a bare tree, where it means "all").
    pub tree: TreeConfig,
    /// Fraction of the training set drawn (with replacement) per tree.
    pub bootstrap_fraction: f64,
    /// Number of worker threads; `0` picks the available parallelism.
    pub n_threads: usize,
    /// Master RNG seed; member seeds derive deterministically from it.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 48,
            tree: TreeConfig { max_depth: 14, ..TreeConfig::default() },
            bootstrap_fraction: 1.0,
            n_threads: 0,
            seed: 0x5eed,
        }
    }
}

/// A trained random forest classifier.
#[derive(Debug, Clone, Serialize)]
pub struct RandomForest {
    /// Every member, in one arena with one probability slab.
    trees: ClassTrees,
    /// Where each member starts, in training order.
    roots: Vec<u32>,
    /// Gini gain per feature, summed over the members.
    feature_gain: Vec<f64>,
}

deserialize_validated!(RandomForest { trees, roots, feature_gain });

impl RandomForest {
    /// Trains a forest on `data`.
    ///
    /// # Panics
    ///
    /// Panics when `data` is empty or `config.n_trees == 0`.
    pub fn fit(data: &BinnedDataset<'_>, config: &RandomForestConfig) -> Self {
        assert!(config.n_trees > 0, "a forest needs at least one tree");
        let n = data.source().len();
        assert!(n > 0, "cannot fit a forest on zero rows");
        let n_classes = data.source().n_classes();
        let n_features = data.source().n_features();
        let per_split = config
            .tree
            .features_per_split
            .unwrap_or_else(|| (n_features as f64).sqrt().ceil() as usize)
            .max(1);
        let sample = ((n as f64) * config.bootstrap_fraction).round().max(1.0) as usize;

        let n_threads =
            if config.n_threads == 0 { crate::pool::default_workers() } else { config.n_threads };

        // One pool task per tree: member seeds derive from the tree index,
        // so the forest is identical however the tasks are scheduled.
        let grown = crate::pool::run(n_threads, config.n_trees, |k| {
            let seed = config.seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(k as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut indices: Vec<u32> = (0..sample).map(|_| rng.gen_range(0..n) as u32).collect();
            let cfg = TreeConfig {
                features_per_split: Some(per_split),
                seed: seed ^ 0xabcd_1234,
                ..config.tree.clone()
            };
            cfg.grow(data, &mut indices)
        });

        let mut forest = RandomForest {
            trees: ClassTrees::new(n_classes, n_features),
            roots: Vec::with_capacity(grown.len()),
            feature_gain: vec![0.0; n_features],
        };
        for member in &grown {
            forest.roots.push(forest.trees.push(member));
            for (total, gain) in forest.feature_gain.iter_mut().zip(&member.feature_gain) {
                *total += gain;
            }
        }
        forest
    }

    fn validate(&self) -> Result<(), String> {
        self.trees.validate(&self.roots)
    }

    /// Number of member trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Width of the feature rows the forest splits on.
    pub fn n_features(&self) -> usize {
        self.trees.n_features()
    }

    /// Mean per-feature gini gain across members (unnormalized importance).
    pub fn feature_importance(&self) -> Vec<f64> {
        let n = self.roots.len() as f64;
        self.feature_gain.iter().map(|total| total / n).collect()
    }
}

impl Classifier for RandomForest {
    fn n_classes(&self) -> usize {
        self.trees.n_classes()
    }

    fn predict_proba_into(&self, features: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for &root in &self.roots {
            for (a, &p) in out.iter_mut().zip(self.trees.distribution(root, features)) {
                *a += p as f64;
            }
        }
        let n = self.roots.len() as f64;
        out.iter_mut().for_each(|a| *a /= n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::tree::DecisionTree;

    /// Four-class dataset: class = 2*(x0>0) + (x1>0), with noise features.
    fn quadrants(n: usize) -> Dataset {
        let mut d = Dataset::new(4, 4);
        let mut state = 7u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 - 0.5
        };
        for _ in 0..n {
            let x0 = next() * 2.0;
            let x1 = next() * 2.0;
            let c = 2 * usize::from(x0 > 0.0) + usize::from(x1 > 0.0);
            d.push(&[x0, x1, next(), next()], c);
        }
        d
    }

    #[test]
    fn learns_quadrants() {
        let d = quadrants(800);
        let b = BinnedDataset::build(&d);
        let cfg = RandomForestConfig { n_trees: 24, ..RandomForestConfig::default() };
        let f = RandomForest::fit(&b, &cfg);
        let correct = (0..d.len()).filter(|&i| f.predict(d.row(i)).0 == d.label(i)).count();
        assert!(correct as f64 / d.len() as f64 > 0.93, "got {correct}/800");
    }

    /// The forest as it was before the shared arena: every member a tree
    /// of its own, one probability vector per member, summed in member
    /// order.
    fn reference_proba(members: &[DecisionTree], features: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0f64; members[0].n_classes()];
        for t in members {
            for (a, p) in acc.iter_mut().zip(t.predict_proba(features)) {
                *a += p;
            }
        }
        let n = members.len() as f64;
        acc.iter_mut().for_each(|a| *a /= n);
        acc
    }

    /// The bootstrap and seeds of `RandomForest::fit`, member by member.
    fn members_of(data: &BinnedDataset<'_>, config: &RandomForestConfig) -> Vec<DecisionTree> {
        let n = data.source().len();
        (0..config.n_trees)
            .map(|k| {
                let seed = config.seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(k as u64);
                let mut rng = StdRng::seed_from_u64(seed);
                let indices: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n) as u32).collect();
                let cfg = TreeConfig {
                    features_per_split: Some(2),
                    seed: seed ^ 0xabcd_1234,
                    ..config.tree.clone()
                };
                DecisionTree::fit_on(data, &indices, &cfg)
            })
            .collect()
    }

    #[test]
    fn stack_accumulation_matches_the_vec_accumulation() {
        let d = quadrants(400);
        let b = BinnedDataset::build(&d);
        for seed in [0x5eedu64, 0xfeed] {
            let cfg = RandomForestConfig { n_trees: 12, seed, ..RandomForestConfig::default() };
            let f = RandomForest::fit(&b, &cfg);
            let members = members_of(&b, &cfg);
            for row in crate::arena::wild_rows(4, 1_000, seed) {
                let old = reference_proba(&members, &row);
                let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&old), bits(&f.predict_proba(&row)), "seed {seed:#x}");
                // Same first-max tie-break on the same numbers.
                let (value, score) = f.predict(&row);
                let first_max = old.iter().position(|&p| p == score).unwrap();
                assert_eq!(value, first_max);
                assert!(old.iter().all(|&p| p <= score));
            }
        }
    }

    #[test]
    fn decode_rejects_missing_and_dangling_roots() {
        let d = quadrants(200);
        let b = BinnedDataset::build(&d);
        let cfg = RandomForestConfig { n_trees: 2, ..RandomForestConfig::default() };
        let f = RandomForest::fit(&b, &cfg);
        let decode = |f: &RandomForest| crate::from_bytes::<RandomForest>(&crate::to_bytes(f));
        assert!(decode(&f).is_ok());
        assert!(decode(&RandomForest { roots: vec![], ..f.clone() }).is_err());
        assert!(decode(&RandomForest { roots: vec![0, u32::MAX], ..f.clone() }).is_err());
    }

    /// Same seed, same bytes, however many workers grow the members.
    #[test]
    fn deterministic_given_seed() {
        let d = quadrants(200);
        let b = BinnedDataset::build(&d);
        let fit = |n_threads| {
            let cfg = RandomForestConfig { n_trees: 8, n_threads, ..RandomForestConfig::default() };
            crate::to_bytes(&RandomForest::fit(&b, &cfg))
        };
        let serial = fit(1);
        assert_eq!(serial, fit(1));
        assert_eq!(serial, fit(3), "the forest must not depend on the worker count");
    }

    #[test]
    fn probabilities_average_to_simplex() {
        let d = quadrants(300);
        let b = BinnedDataset::build(&d);
        let cfg = RandomForestConfig { n_trees: 8, ..RandomForestConfig::default() };
        let f = RandomForest::fit(&b, &cfg);
        for i in (0..d.len()).step_by(17) {
            let p = f.predict_proba(d.row(i));
            // Leaf probabilities are stored as f32, so tolerate rounding.
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-5);
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn importance_finds_informative_features() {
        let d = quadrants(600);
        let b = BinnedDataset::build(&d);
        let cfg = RandomForestConfig { n_trees: 16, ..RandomForestConfig::default() };
        let f = RandomForest::fit(&b, &cfg);
        let imp = f.feature_importance();
        assert!(imp[0] > imp[2] && imp[0] > imp[3]);
        assert!(imp[1] > imp[2] && imp[1] > imp[3]);
    }

    #[test]
    fn serde_round_trip() {
        let d = quadrants(200);
        let b = BinnedDataset::build(&d);
        let cfg = RandomForestConfig { n_trees: 4, ..RandomForestConfig::default() };
        let f = RandomForest::fit(&b, &cfg);
        let back: RandomForest = crate::from_bytes(&crate::to_bytes(&f)).unwrap();
        assert_eq!(back.n_trees(), 4);
        for i in 0..d.len() {
            assert_eq!(f.predict(d.row(i)).0, back.predict(d.row(i)).0);
        }
    }
}
