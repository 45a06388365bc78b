//! The one tree grower behind CART trees, forest members and boosted
//! regression trees.
//!
//! A tree grows depth-first over a [`BinnedDataset`]. At every node the
//! histogram of each candidate feature is built once and scanned over
//! ascending bins for the best `code <= bin` split; the rows are then
//! partitioned in place and the left subtree grows before the right.
//! What a node's statistic is (class counts for CART, gradient and
//! hessian sums for boosting) and everything read off it comes from a
//! [`NodeStat`]; the partition, the recursion, the candidate order, the
//! bin scan and the first-best tie-break exist only here. The histogram,
//! the running sums and the candidate list are scratch owned by the
//! grower, so a node allocates nothing but its leaf payload.

use std::ops::{AddAssign, Sub};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::arena::Node;
use crate::dataset::{BinnedDataset, MAX_BINS};

/// What differs between the trees the grower grows: the per-row
/// statistic a node and a histogram bin sum up, and what is read off it.
pub(crate) trait NodeStat {
    /// One component of a statistic; a bin holds [`NodeStat::width`].
    type Cell: Copy + Default + AddAssign + Sub<Output = Self::Cell>;
    /// What a leaf carries.
    type Leaf;

    /// Components per statistic.
    fn width(&self) -> usize;
    /// Adds row `row` into `cells`.
    fn add_row(&self, row: usize, cells: &mut [Self::Cell]);
    /// The score [`NodeStat::gain`] is measured against for a node at
    /// `depth` with totals `total` over `n` rows, or `None` when the stop
    /// rule makes the node a leaf.
    fn split_score(&self, depth: usize, total: &[Self::Cell], n: usize) -> Option<f64>;
    /// The gain of splitting a node of `score` into `left` and `right`,
    /// and the importance the split credits its feature; `None` when a
    /// child is under the minimum weight or the gain does not clear the
    /// floor.
    fn gain(&self, score: f64, left: &[Self::Cell], right: &[Self::Cell]) -> Option<(f64, f64)>;
    /// The payload of a leaf with totals `total` over `n` rows.
    fn leaf(&self, total: &[Self::Cell], n: usize) -> Self::Leaf;

    /// Zeroes `out`, then adds every row of `rows` into its bin. Out of
    /// line on purpose: as arguments, the bins cannot alias the
    /// statistic's or the dataset's slices, so the row loop keeps their
    /// addresses in registers; inlined into the scan it reloaded them for
    /// every row and boosted fits ran about 15 % slower.
    #[inline(never)]
    fn add_rows(&self, rows: &[u32], bin: impl Fn(usize) -> usize, out: &mut [Self::Cell]) {
        let width = self.width();
        out.fill(Self::Cell::default());
        for &i in rows {
            let b = bin(i as usize) * width;
            self.add_row(i as usize, &mut out[b..b + width]);
        }
    }
}

/// A grown tree: its depth-first node list, root at 0, and the
/// importance each feature earned.
pub(crate) struct Grown<L> {
    pub(crate) nodes: Vec<Node<L>>,
    pub(crate) feature_gain: Vec<f64>,
}

/// One tree's growing state.
pub(crate) struct Grower<'a, S: NodeStat> {
    data: &'a BinnedDataset<'a>,
    stat: S,
    /// How many features each node examines, and the generator that picks
    /// them; `None` examines all in index order.
    sample: Option<(usize, StdRng)>,
    grown: Grown<S::Leaf>,
    candidates: Vec<usize>,
    /// Per-(bin, component) histogram of one feature.
    hist: Vec<S::Cell>,
    /// The node's totals and the scan's running left and right sums.
    total: Vec<S::Cell>,
    left: Vec<S::Cell>,
    right: Vec<S::Cell>,
}

impl<'a, S: NodeStat> Grower<'a, S> {
    /// Grows one tree over `indices`, reordering them.
    ///
    /// # Panics
    ///
    /// Panics when `indices` is empty.
    pub(crate) fn grow(
        data: &'a BinnedDataset<'a>,
        stat: S,
        sample: Option<(usize, StdRng)>,
        indices: &mut [u32],
    ) -> Grown<S::Leaf> {
        assert!(!indices.is_empty(), "cannot fit a tree on zero rows");
        let (n_features, width) = (data.source().n_features(), stat.width());
        let zeros = |n| vec![S::Cell::default(); n];
        let mut grower = Grower {
            data,
            sample,
            grown: Grown { nodes: Vec::new(), feature_gain: vec![0.0; n_features] },
            candidates: Vec::with_capacity(n_features),
            hist: zeros(MAX_BINS * width),
            total: zeros(width),
            left: zeros(width),
            right: zeros(width),
            stat,
        };
        grower.node(indices, 0);
        grower.grown
    }

    /// Grows the subtree for `indices` and returns its node id.
    fn node(&mut self, indices: &mut [u32], depth: usize) -> u32 {
        let n = indices.len();
        self.stat.add_rows(indices, |_| 0, &mut self.total);
        let split = self.stat.split_score(depth, &self.total, n);
        if let Some((feature, bin, _, credit)) = split.and_then(|s| self.best_split(indices, s)) {
            self.grown.feature_gain[feature] += credit;
            let mut mid = 0;
            for i in 0..n {
                if self.data.code(indices[i] as usize, feature) <= bin {
                    indices.swap(i, mid);
                    mid += 1;
                }
            }
            debug_assert!(mid > 0 && mid < n);
            // Reserve this node's slot before the children are appended.
            let id = self.grown.nodes.len();
            let (feature, threshold) = (feature as u32, self.data.threshold(feature, bin));
            self.grown.nodes.push(Node::Split { feature, threshold, left: 0, right: 0 });
            let (left_rows, right_rows) = indices.split_at_mut(mid);
            let (left, right) = (self.node(left_rows, depth + 1), self.node(right_rows, depth + 1));
            self.grown.nodes[id] = Node::Split { feature, threshold, left, right };
            return id as u32;
        }
        self.grown.nodes.push(Node::Leaf(self.stat.leaf(&self.total, n)));
        (self.grown.nodes.len() - 1) as u32
    }

    /// The (feature, bin, gain, credit) with the best gain: candidates in
    /// order, bins ascending, the first best wins.
    fn best_split(&mut self, indices: &[u32], score: f64) -> Option<(usize, usize, f64, f64)> {
        let Grower { data, stat, sample, candidates, hist, total, left, right, .. } = self;
        let (n_features, width) = (data.source().n_features(), stat.width());
        candidates.clear();
        candidates.extend(0..n_features);
        if let Some((k, rng)) = sample {
            candidates.shuffle(rng);
            candidates.truncate((*k).max(1).min(n_features));
        }
        let mut best: Option<(usize, usize, f64, f64)> = None;
        for &f in candidates.iter().filter(|&&f| data.n_bins(f) >= 2) {
            let n_bins = data.n_bins(f);
            let hist = &mut hist[..n_bins * width];
            stat.add_rows(indices, |i| data.code(i, f), hist);
            // Left = bins 0..=b; right is the node total minus left.
            left.fill(S::Cell::default());
            for (b, bin) in hist.chunks_exact(width).take(n_bins - 1).enumerate() {
                for c in 0..width {
                    left[c] += bin[c];
                    right[c] = total[c] - left[c];
                }
                if let Some((gain, credit)) = stat.gain(score, left, right) {
                    if best.is_none_or(|(.., g, _)| gain > g) {
                        best = Some((f, b, gain, credit));
                    }
                }
            }
        }
        best
    }
}
