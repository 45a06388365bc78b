//! Prediction results as the client library returns them.

use serde::{Deserialize, Serialize};

/// One prediction: a bucket index plus the model's confidence score
/// (§4.2: "Each prediction result is typically a predicted value and a
/// score. The score reflects the model's confidence on the predicted
/// value.").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted bucket index (Table 3 semantics per metric).
    pub value: usize,
    /// Confidence in `[0, 1]`.
    pub score: f64,
}

/// A shadow evaluation's paired result: what the serving model answered
/// and what a not-yet-promoted candidate would have answered for the same
/// inputs, both resolved against one serve snapshot. Produced by
/// `RcClient::shadow_predict`; never visible to prediction clients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowPrediction {
    /// The serving model's answer; `None` when the model or the
    /// subscription's feature record is not resident.
    pub serving: Option<Prediction>,
    /// The candidate's answer; `None` only when the feature record is
    /// missing.
    pub candidate: Option<Prediction>,
}

/// The client's reply: a prediction, or the no-prediction flag the caller
/// must be prepared to handle (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PredictionResponse {
    /// A prediction was produced (possibly served from cache).
    Predicted(Prediction),
    /// No prediction: unknown model, missing feature data, store
    /// unavailable without a cached copy, or (in pull mode) a cache miss.
    NoPrediction,
}

/// How a lookup was resolved — the degradation ladder rung it landed on.
///
/// Every lookup lands on exactly one rung, so over any interval
/// `Hit + Fresh + Stale + Default` equals the number of lookups; the
/// chaos suite asserts that reconciliation from registry deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Served {
    /// Result-cache hit (no model executed).
    Hit,
    /// Model executed against fresh data (in-memory or store/disk within
    /// expiry).
    Fresh,
    /// Model executed against stale data (disk past expiry, inside the
    /// grace window).
    Stale,
    /// The no-prediction default.
    Default,
}

impl PredictionResponse {
    /// The prediction, if one was produced.
    pub fn prediction(&self) -> Option<Prediction> {
        match self {
            PredictionResponse::Predicted(p) => Some(*p),
            PredictionResponse::NoPrediction => None,
        }
    }

    /// The prediction if its score reaches `threshold`, else `None` —
    /// the "ignore a prediction when the confidence score is too low"
    /// pattern of §4.2 and line 10 of Algorithm 1.
    pub fn confident(&self, threshold: f64) -> Option<Prediction> {
        self.prediction().filter(|p| p.score >= threshold)
    }

    /// True when a prediction was produced.
    pub fn is_predicted(&self) -> bool {
        matches!(self, PredictionResponse::Predicted(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confident_filters_by_score() {
        let low = PredictionResponse::Predicted(Prediction { value: 2, score: 0.4 });
        let high = PredictionResponse::Predicted(Prediction { value: 2, score: 0.9 });
        assert_eq!(low.confident(0.6), None);
        assert_eq!(high.confident(0.6).unwrap().value, 2);
        assert_eq!(PredictionResponse::NoPrediction.confident(0.0), None);
    }

    #[test]
    fn accessors() {
        let p = PredictionResponse::Predicted(Prediction { value: 1, score: 0.7 });
        assert!(p.is_predicted());
        assert_eq!(p.prediction().unwrap().value, 1);
        assert!(!PredictionResponse::NoPrediction.is_predicted());
    }
}
