//! Feature matrices and quantile binning.
//!
//! Tree growing in this crate is histogram-based (the LightGBM/XGBoost
//! approach): every feature is discretized once into at most
//! [`MAX_BINS`] quantile bins, and split search scans per-bin statistics
//! instead of sorting samples at every node. [`BinnedDataset`] holds the
//! discretized view plus the bin-edge values needed to emit real-valued
//! thresholds, so trained trees predict directly on raw feature rows.

use serde::{Deserialize, Serialize};

/// Maximum number of histogram bins per feature.
pub const MAX_BINS: usize = 64;

/// A dense row-major feature matrix with integer class labels.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    /// Row-major feature values; `rows * n_features` entries.
    features: Vec<f64>,
    /// One class label per row.
    labels: Vec<usize>,
    /// Number of columns.
    n_features: usize,
    /// Number of distinct classes (labels are `0..n_classes`).
    n_classes: usize,
    /// Optional column names for reporting feature importance.
    feature_names: Vec<String>,
}

impl Dataset {
    /// Creates an empty dataset with the given schema.
    ///
    /// # Panics
    ///
    /// Panics when `n_features == 0` or `n_classes < 2`.
    pub fn new(n_features: usize, n_classes: usize) -> Self {
        assert!(n_features > 0, "datasets need at least one feature");
        assert!(n_classes >= 2, "classification needs at least two classes");
        Dataset {
            features: Vec::new(),
            labels: Vec::new(),
            n_features,
            n_classes,
            feature_names: (0..n_features).map(|i| format!("f{i}")).collect(),
        }
    }

    /// Column names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Appends one labelled row.
    ///
    /// # Panics
    ///
    /// Panics when the row width or label is out of schema.
    pub fn push(&mut self, row: &[f64], label: usize) {
        assert_eq!(row.len(), self.n_features, "row width mismatch");
        assert!(label < self.n_classes, "label out of range");
        self.features.extend_from_slice(row);
        self.labels.push(label);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The feature row at `idx`.
    pub fn row(&self, idx: usize) -> &[f64] {
        let start = idx * self.n_features;
        &self.features[start..start + self.n_features]
    }

    /// The label of row `idx`.
    pub fn label(&self, idx: usize) -> usize {
        self.labels[idx]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Empirical class distribution (fraction of rows per class).
    pub fn class_distribution(&self) -> Vec<f64> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        let n = self.len().max(1) as f64;
        counts.into_iter().map(|c| c as f64 / n).collect()
    }

    /// Splits row indices into a train/test partition with the first
    /// `train_fraction` of rows (callers shuffle beforehand if needed;
    /// the RC pipeline splits *by time*, which is order-preserving).
    pub fn split_indices(&self, train_fraction: f64) -> (Vec<usize>, Vec<usize>) {
        let cut = ((self.len() as f64) * train_fraction.clamp(0.0, 1.0)).round() as usize;
        ((0..cut).collect(), (cut..self.len()).collect())
    }

    /// Builds a new dataset containing only the given rows.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.n_features, self.n_classes);
        out.feature_names = self.feature_names.clone();
        for &i in indices {
            out.push(self.row(i), self.label(i));
        }
        out
    }
}

/// A dataset discretized into quantile bins for histogram split search.
#[derive(Debug, Clone)]
pub struct BinnedDataset<'a> {
    /// Borrowed source dataset.
    source: &'a Dataset,
    /// Row-major bin codes, same shape as the source feature matrix.
    codes: Vec<u8>,
    /// Per-feature ascending bin upper-edge values. A sample with code `b`
    /// for feature `f` satisfies `value <= edges[f][b]`; splitting "left"
    /// at bin `b` means `value <= edges[f][b]`.
    edges: Vec<Vec<f64>>,
}

impl<'a> BinnedDataset<'a> {
    /// Discretizes `source` into at most [`MAX_BINS`] quantile bins per
    /// feature.
    ///
    /// # Panics
    ///
    /// Panics when the source dataset is empty.
    pub fn build(source: &'a Dataset) -> Self {
        assert!(!source.is_empty(), "cannot bin an empty dataset");
        let n = source.len();
        let nf = source.n_features();
        let mut edges = Vec::with_capacity(nf);
        // Quantile edges per feature.
        let mut col: Vec<f64> = Vec::with_capacity(n);
        for f in 0..nf {
            col.clear();
            col.extend((0..n).map(|r| source.row(r)[f]));
            col.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
            col.dedup();
            let distinct = col.len();
            let n_bins = distinct.min(MAX_BINS);
            let mut fe = Vec::with_capacity(n_bins);
            if distinct <= MAX_BINS {
                fe.extend_from_slice(&col);
            } else {
                for b in 1..=n_bins {
                    let q = b as f64 / n_bins as f64;
                    let idx = ((distinct - 1) as f64 * q).round() as usize;
                    fe.push(col[idx]);
                }
                fe.dedup();
            }
            // The last edge must dominate every value.
            if let Some(last) = fe.last_mut() {
                *last = f64::INFINITY;
            }
            edges.push(fe);
        }
        // Assign codes by binary search over the edges.
        let mut codes = vec![0u8; n * nf];
        for r in 0..n {
            let row = source.row(r);
            for f in 0..nf {
                let fe = &edges[f];
                let v = row[f];
                // First edge >= v.
                let mut lo = 0usize;
                let mut hi = fe.len() - 1;
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if v <= fe[mid] {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                codes[r * nf + f] = lo as u8;
            }
        }
        BinnedDataset { source, codes, edges }
    }

    /// The source dataset.
    pub fn source(&self) -> &Dataset {
        self.source
    }

    /// Number of bins for feature `f`.
    pub fn n_bins(&self, f: usize) -> usize {
        self.edges[f].len()
    }

    /// Bin code of row `r`, feature `f`.
    pub fn code(&self, r: usize, f: usize) -> usize {
        self.codes[r * self.source.n_features() + f] as usize
    }

    /// Real-valued threshold for "go left" when splitting feature `f` at
    /// bin `b`: samples with `value <= threshold` go left.
    ///
    /// Returns `f64::INFINITY` for the last bin (a degenerate split).
    pub fn threshold(&self, f: usize, b: usize) -> f64 {
        self.edges[f][b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(2, 2);
        for i in 0..10 {
            let v = i as f64;
            d.push(&[v, -v], (i >= 5) as usize);
        }
        d
    }

    #[test]
    fn push_and_row_access() {
        let d = toy();
        assert_eq!(d.len(), 10);
        assert_eq!(d.row(3), &[3.0, -3.0]);
        assert_eq!(d.label(3), 0);
        assert_eq!(d.label(7), 1);
    }

    #[test]
    fn class_distribution_sums_to_one() {
        let d = toy();
        let dist = d.class_distribution();
        assert_eq!(dist.len(), 2);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((dist[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn split_preserves_order() {
        let d = toy();
        let (train, test) = d.split_indices(0.7);
        assert_eq!(train.len(), 7);
        assert_eq!(test, vec![7, 8, 9]);
    }

    #[test]
    fn subset_copies_rows() {
        let d = toy();
        let s = d.subset(&[0, 9]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(1), &[9.0, -9.0]);
        assert_eq!(s.label(1), 1);
    }

    #[test]
    fn binning_respects_thresholds() {
        let d = toy();
        let b = BinnedDataset::build(&d);
        for r in 0..d.len() {
            for f in 0..2 {
                let code = b.code(r, f);
                let v = d.row(r)[f];
                assert!(v <= b.threshold(f, code));
                if code > 0 {
                    assert!(v > b.threshold(f, code - 1));
                }
            }
        }
    }

    #[test]
    fn binning_caps_bins() {
        let mut d = Dataset::new(1, 2);
        for i in 0..1000 {
            d.push(&[i as f64], i % 2);
        }
        let b = BinnedDataset::build(&d);
        assert!(b.n_bins(0) <= MAX_BINS);
        assert!(b.n_bins(0) >= MAX_BINS / 2);
    }

    #[test]
    fn last_threshold_dominates() {
        let d = toy();
        let b = BinnedDataset::build(&d);
        for f in 0..2 {
            assert!(b.threshold(f, b.n_bins(f) - 1).is_infinite());
        }
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_rejects_bad_width() {
        let mut d = Dataset::new(2, 2);
        d.push(&[1.0], 0);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn push_rejects_bad_label() {
        let mut d = Dataset::new(2, 2);
        d.push(&[1.0, 2.0], 5);
    }
}
