//! One scorer for every (observed, predicted) pair the system judges.
//!
//! Table 4 (§6.1) judges a model by overall accuracy, by each bucket's
//! true share, precision and recall, and by `P^θ` / `R^θ`: the precision
//! of the predictions whose confidence score reaches θ, and the share of
//! all examples that keep such a prediction (coverage). Offline
//! validation, the live [`crate::AccuracyTracker`], the control loop's
//! live and frozen scores and its shadow comparison all count through a
//! [`Scorecard`]. The card holds no θ: the caller says per example
//! whether the prediction was confident.

/// Counts of `(truth, predicted)` bucket pairs, plus the examples that
/// got no prediction at all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scorecard {
    /// Buckets per side; the matrix is `k × k`.
    k: usize,
    /// Row-major counts: `cells[truth * k + predicted]`.
    cells: Vec<u64>,
    /// Examples seen without an answer; they count in the accuracy and
    /// coverage denominators.
    unanswered: u64,
    /// Answered examples whose prediction was confident.
    confident: u64,
    /// Confident predictions that were correct.
    confident_correct: u64,
}

impl Scorecard {
    /// An empty card pre-sized to `k` buckets, so per-bucket queries
    /// cover `0..k` even for a bucket no example reaches. It grows to the
    /// largest bucket recorded.
    pub fn new(k: usize) -> Self {
        Scorecard { k, cells: vec![0; k * k], ..Scorecard::default() }
    }

    /// Records one answered example.
    pub fn record(&mut self, truth: usize, predicted: usize, confident: bool) {
        self.grow_to(truth.max(predicted) + 1);
        self.cells[truth * self.k + predicted] += 1;
        if confident {
            self.confident += 1;
            self.confident_correct += u64::from(truth == predicted);
        }
    }

    /// Records one example that got no prediction.
    pub fn record_unanswered(&mut self) {
        self.unanswered += 1;
    }

    /// Adds `other`'s counts to this card, growing it to `other`'s size.
    pub fn merge(&mut self, other: &Scorecard) {
        self.grow_to(other.k);
        for truth in 0..other.k {
            for predicted in 0..other.k {
                self.cells[truth * self.k + predicted] += other.count(truth, predicted);
            }
        }
        self.unanswered += other.unanswered;
        self.confident += other.confident;
        self.confident_correct += other.confident_correct;
    }

    fn grow_to(&mut self, k: usize) {
        if k <= self.k {
            return;
        }
        let mut cells = vec![0; k * k];
        for truth in 0..self.k {
            let row = &self.cells[truth * self.k..(truth + 1) * self.k];
            cells[truth * k..truth * k + self.k].copy_from_slice(row);
        }
        (self.k, self.cells) = (k, cells);
    }

    /// Buckets per side of the matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Examples with this `(truth, predicted)` pair (0 out of range).
    pub fn count(&self, truth: usize, predicted: usize) -> u64 {
        if truth < self.k && predicted < self.k {
            self.cells[truth * self.k + predicted]
        } else {
            0
        }
    }

    /// Answered examples.
    pub fn answered(&self) -> u64 {
        self.cells.iter().sum()
    }

    fn correct(&self) -> u64 {
        (0..self.k).map(|c| self.count(c, c)).sum()
    }

    fn truth_total(&self, c: usize) -> u64 {
        (0..self.k).map(|p| self.count(c, p)).sum()
    }

    fn predicted_total(&self, c: usize) -> u64 {
        (0..self.k).map(|t| self.count(t, c)).sum()
    }

    /// Correct predictions over every example seen, unanswered included.
    pub fn accuracy(&self) -> f64 {
        ratio(self.correct(), self.answered() + self.unanswered)
    }

    /// Share of answered examples whose true bucket is `c` (Table 4's
    /// "%" column).
    pub fn true_share(&self, c: usize) -> f64 {
        ratio(self.truth_total(c), self.answered())
    }

    /// Precision for bucket `c`: correct over predicted `c`.
    pub fn precision(&self, c: usize) -> f64 {
        ratio(self.count(c, c), self.predicted_total(c))
    }

    /// Recall for bucket `c`: correct over truly `c`.
    pub fn recall(&self, c: usize) -> f64 {
        ratio(self.count(c, c), self.truth_total(c))
    }

    /// `P^θ`: precision of the confident predictions.
    pub fn p_theta(&self) -> f64 {
        ratio(self.confident_correct, self.confident)
    }

    /// `R^θ`: share of every example seen that kept a confident
    /// prediction.
    pub fn r_theta(&self) -> f64 {
        ratio(self.confident, self.answered() + self.unanswered)
    }

    /// Answered examples per predicted bucket, exactly `max predicted + 1`
    /// long (empty with no answers): a larger truth bucket or the
    /// pre-sized `k` adds no trailing empty bucket, since
    /// [`crate::counts_psi`] smooths by length.
    pub fn predicted_histogram(&self) -> Vec<u64> {
        let mut histogram: Vec<u64> = (0..self.k).map(|c| self.predicted_total(c)).collect();
        while histogram.last() == Some(&0) {
            histogram.pop();
        }
        histogram
    }
}

/// `n / d`, or 0 when `d` is 0.
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_card() -> Scorecard {
        let mut card = Scorecard::new(3);
        // truth 0: 8 correct, 2 predicted as 1.
        for _ in 0..8 {
            card.record(0, 0, true);
        }
        for _ in 0..2 {
            card.record(0, 1, true);
        }
        // truth 1: 5 correct, 5 predicted as 2.
        for _ in 0..5 {
            card.record(1, 1, true);
        }
        for _ in 0..5 {
            card.record(1, 2, true);
        }
        // truth 2: 10 correct.
        for _ in 0..10 {
            card.record(2, 2, true);
        }
        card
    }

    #[test]
    fn accuracy_and_shares() {
        let card = sample_card();
        assert_eq!(card.answered(), 30);
        assert!((card.accuracy() - 23.0 / 30.0).abs() < 1e-12);
        assert!((card.true_share(0) - 10.0 / 30.0).abs() < 1e-12);
        assert!((card.true_share(2) - 10.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn precision_and_recall() {
        let card = sample_card();
        assert!((card.precision(0) - 1.0).abs() < 1e-12); // 8 / 8
        assert!((card.recall(0) - 0.8).abs() < 1e-12); // 8 / 10
        assert!((card.precision(1) - 5.0 / 7.0).abs() < 1e-12); // 5 / (2+5)
        assert!((card.recall(1) - 0.5).abs() < 1e-12);
        assert!((card.precision(2) - 10.0 / 15.0).abs() < 1e-12);
        assert!((card.recall(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_bucket_yields_zero_not_nan() {
        let mut card = Scorecard::new(2);
        card.record(0, 0, true);
        assert_eq!(card.precision(1), 0.0);
        assert_eq!(card.recall(1), 0.0);
        assert_eq!(card.true_share(1), 0.0);
        let empty = Scorecard::new(2);
        assert_eq!((empty.accuracy(), empty.p_theta(), empty.r_theta()), (0.0, 0.0, 0.0));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = sample_card();
        a.merge(&sample_card());
        assert_eq!(a.answered(), 60);
        assert_eq!(a.count(2, 2), 20);
        assert_eq!(a.p_theta(), sample_card().p_theta());
    }

    #[test]
    fn unconfident_predictions_leave_p_theta_and_lower_r_theta() {
        let mut card = Scorecard::new(2);
        card.record(0, 0, true); // retained, correct
        card.record(0, 1, true); // retained, wrong
        card.record(1, 1, false); // dropped
        card.record(1, 0, false); // dropped
        assert_eq!(card.answered(), 4);
        assert!((card.p_theta() - 0.5).abs() < 1e-12);
        assert!((card.r_theta() - 0.5).abs() < 1e-12);
        assert!((card.accuracy() - 0.5).abs() < 1e-12, "accuracy counts every answer");
    }

    #[test]
    fn histogram_ends_at_the_largest_predicted_bucket() {
        let mut card = Scorecard::new(6);
        card.record(5, 1, true);
        card.record(0, 0, true);
        card.record(3, 1, true);
        assert_eq!(card.k(), 6);
        assert_eq!(card.predicted_histogram(), [1, 2]);
        assert!(Scorecard::new(4).predicted_histogram().is_empty());
        // Growth by a truth bucket alone adds no predicted bucket either.
        let mut grown = Scorecard::default();
        grown.record(7, 2, true);
        assert_eq!((grown.k(), grown.predicted_histogram()), (8, vec![0, 0, 1]));
    }

    #[test]
    fn unanswered_examples_count_in_the_denominators() {
        let mut card = Scorecard::default();
        card.record(1, 1, true);
        card.record(2, 1, true);
        card.record_unanswered();
        card.record_unanswered();
        assert_eq!(card.answered(), 2);
        assert_eq!(card.accuracy(), 0.25);
        assert_eq!(card.r_theta(), 0.5);
        assert_eq!(card.p_theta(), 0.5, "P^θ is over confident answers only");
        assert_eq!(card.true_share(1), 0.5, "shares are over answered examples");
        let mut none = Scorecard::default();
        none.record_unanswered();
        assert_eq!(none.accuracy(), 0.0);
        assert!(none.predicted_histogram().is_empty());
    }

    #[test]
    fn merge_grows_to_the_larger_card() {
        let mut small = Scorecard::new(2);
        small.record(1, 0, true);
        small.record_unanswered();
        let mut large = Scorecard::new(4);
        large.record(3, 1, false);
        large.record(1, 0, true);

        let mut a = small.clone();
        a.merge(&large);
        let mut b = large.clone();
        b.merge(&small);
        assert_eq!(a, b, "merge commutes across sizes");
        assert_eq!(a.k(), 4);
        assert_eq!((a.count(1, 0), a.count(3, 1), a.answered()), (2, 1, 3));
        assert_eq!(a.accuracy(), 0.0);
        assert_eq!(a.r_theta(), 0.5);
        assert_eq!(a.predicted_histogram(), [2, 1]);
    }
}
