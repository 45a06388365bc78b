//! From-scratch machine learning for the Resource Central reproduction.
//!
//! Table 1 of the paper names three modeling approaches: Random Forests
//! (utilization metrics), Extreme Gradient Boosting Trees (deployment size,
//! lifetime, workload class), and the Fast Fourier Transform (periodicity
//! labelling for the workload class). Rust's ML ecosystem is thin, so this
//! crate implements all three, plus the shared machinery they need:
//!
//! - [`dataset`]: feature matrices with quantile binning for fast splits.
//! - [`tree`]: CART classification trees (gini impurity), served from the
//!   flattened node arena in `arena`.
//! - `grow`: the one histogram tree grower; CART trees, forest members and
//!   boosted regression trees differ only in the node statistic they hand
//!   it (class counts with gini, or gradient/hessian sums).
//! - [`forest`]: bagged random forests with per-split feature subsampling,
//!   trained in parallel on the scoped worker pool.
//! - [`pool`]: a minimal scoped worker pool (dynamic dispatch over
//!   `std::thread::scope`) shared by forest training and the offline
//!   pipeline's per-metric fan-out.
//! - [`gbt`]: second-order gradient boosting with softmax multi-class loss
//!   (the XGBoost formulation: leaf value = -G / (H + lambda)), its
//!   regression trees grown by `grow`.
//! - [`fft`]: an iterative radix-2 FFT and a diurnal periodicity detector.
//!
//! All models implement [`Classifier`], predict class probabilities, and
//! serialize with serde so the client library can cache them and account
//! for their size (Table 1's "model size" column).

mod arena;
pub mod dataset;
pub mod fft;
pub mod forest;
pub mod gbt;
mod grow;
pub mod pool;
pub mod tree;

pub use dataset::{BinnedDataset, Dataset};
pub use fft::{
    detect_diurnal_periodicity, fft_in_place, Complex, PeriodicityConfig, PeriodicityDetector,
};
pub use forest::{RandomForest, RandomForestConfig};
pub use gbt::{GradientBoosting, GradientBoostingConfig};
pub use tree::{DecisionTree, TreeConfig};

use serde::{de::DeserializeOwned, Serialize};

/// Classes [`Classifier::predict`] can rank without touching the heap.
const STACK_CLASSES: usize = 16;

/// A trained multi-class classifier producing per-class probabilities.
pub trait Classifier {
    /// Number of classes the model distinguishes.
    fn n_classes(&self) -> usize;

    /// Writes the class-probability vector for one feature row into
    /// `out`, which is [`Classifier::n_classes`] long. Every entry lies in
    /// `[0, 1]` and the entries sum to 1 (up to rounding). Must not
    /// allocate: this is the model-execution step of a result-cache miss.
    fn predict_proba_into(&self, features: &[f64], out: &mut [f64]);

    /// Class-probability vector for one feature row.
    fn predict_proba(&self, features: &[f64]) -> Vec<f64> {
        let mut probs = vec![0.0; self.n_classes()];
        self.predict_proba_into(features, &mut probs);
        probs
    }

    /// Most likely class and its probability (the "confidence score" the
    /// Resource Central client exposes to callers); the lowest index wins
    /// a tie. Allocation-free up to [`STACK_CLASSES`] classes.
    fn predict(&self, features: &[f64]) -> (usize, f64) {
        let k = self.n_classes();
        let mut stack = [0.0; STACK_CLASSES];
        let mut heap = Vec::new();
        let probs = if k <= STACK_CLASSES {
            &mut stack[..k]
        } else {
            heap.resize(k, 0.0);
            &mut heap[..]
        };
        self.predict_proba_into(features, probs);
        let (mut best, mut best_p) = (0, f64::NEG_INFINITY);
        for (i, &p) in probs.iter().enumerate() {
            if p > best_p {
                best = i;
                best_p = p;
            }
        }
        (best, best_p)
    }
}

/// Size in bytes of a model's serialized form.
///
/// Used to populate Table 1's "model size" column and to account for client
/// cache footprints.
///
/// # Panics
///
/// Panics if the model fails to serialize, which only happens for
/// non-finite floats; trained models never contain them.
pub fn serialized_size<M: Serialize>(model: &M) -> usize {
    serde_json::to_vec(model).expect("model serialization").len()
}

/// Deserializes a model from bytes fetched from the store.
pub fn from_bytes<M: DeserializeOwned>(bytes: &[u8]) -> Result<M, serde_json::Error> {
    serde_json::from_slice(bytes)
}

/// Serializes a model to bytes for publication to the store.
///
/// # Panics
///
/// Panics if the model fails to serialize (non-finite floats only).
pub fn to_bytes<M: Serialize>(model: &M) -> Vec<u8> {
    serde_json::to_vec(model).expect("model serialization")
}
