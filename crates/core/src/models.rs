//! Model specifications and trained-model containers (Table 1).
//!
//! Data analysts "provide a specification describing the inputs to each
//! model and record them in the store" (§4.2). [`ModelSpec`] is that
//! specification: which metric, which learning approach, and which
//! feature-assembly function. [`TrainedModel`] wraps the trained
//! estimator in a serializable enum the client library can cache.

use serde::{Deserialize, Serialize};

use rc_ml::{Classifier, GradientBoosting, RandomForest};
use rc_types::metrics::PredictionMetric;

use crate::features::{
    assemble, build_class, build_deployment, build_lifetime, build_utilization, names_of, Build,
    SubscriptionFeatures, MAX_FEATURES,
};
use crate::inputs::ClientInputs;
use crate::prediction::Prediction;

/// The learning approach used for a metric (Table 1, column 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelApproach {
    /// Random Forest classifier.
    RandomForest,
    /// Extreme Gradient Boosting Tree classifier.
    GradientBoosting,
    /// FFT labelling feeding a Gradient Boosting Tree classifier.
    FftGradientBoosting,
}

impl ModelApproach {
    /// Table 1's label for the approach.
    pub const fn label(self) -> &'static str {
        match self {
            ModelApproach::RandomForest => "Random Forest",
            ModelApproach::GradientBoosting => "Extreme Gradient Boosting Tree",
            ModelApproach::FftGradientBoosting => "FFT, Extreme Gradient Boosting Tree",
        }
    }
}

/// The static specification of one model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSpec {
    /// The metric the model predicts.
    pub metric: PredictionMetric,
    /// The learning approach (Table 1).
    pub approach: ModelApproach,
}

impl ModelSpec {
    /// The specification table — one row per metric, mirroring Table 1.
    pub fn all() -> [ModelSpec; 6] {
        [
            ModelSpec {
                metric: PredictionMetric::AvgCpuUtil,
                approach: ModelApproach::RandomForest,
            },
            ModelSpec {
                metric: PredictionMetric::P95MaxCpuUtil,
                approach: ModelApproach::RandomForest,
            },
            ModelSpec {
                metric: PredictionMetric::DeploymentSizeVms,
                approach: ModelApproach::GradientBoosting,
            },
            ModelSpec {
                metric: PredictionMetric::DeploymentSizeCores,
                approach: ModelApproach::GradientBoosting,
            },
            ModelSpec {
                metric: PredictionMetric::Lifetime,
                approach: ModelApproach::GradientBoosting,
            },
            ModelSpec {
                metric: PredictionMetric::WorkloadClass,
                approach: ModelApproach::FftGradientBoosting,
            },
        ]
    }

    /// Looks up the spec for a metric.
    pub fn for_metric(metric: PredictionMetric) -> ModelSpec {
        Self::all()[metric.index()]
    }

    /// The assembly routine of this model's feature family.
    fn build(&self) -> Build {
        match self.metric {
            PredictionMetric::AvgCpuUtil | PredictionMetric::P95MaxCpuUtil => build_utilization,
            PredictionMetric::DeploymentSizeVms | PredictionMetric::DeploymentSizeCores => {
                build_deployment
            }
            PredictionMetric::Lifetime => build_lifetime,
            PredictionMetric::WorkloadClass => build_class,
        }
    }

    /// Assembles the feature vector this model consumes into `out` and
    /// returns its length — the allocation-free form the serve path uses
    /// with a stack buffer.
    pub fn features_into(
        &self,
        inputs: &ClientInputs,
        sub: &SubscriptionFeatures,
        out: &mut [f64; MAX_FEATURES],
    ) -> usize {
        assemble(self.build(), inputs, sub, out)
    }

    /// [`ModelSpec::features_into`] as an owned vector, for training sets
    /// and offline callers.
    pub fn features(&self, inputs: &ClientInputs, sub: &SubscriptionFeatures) -> Vec<f64> {
        let mut buf = [0.0; MAX_FEATURES];
        let n = self.features_into(inputs, sub, &mut buf);
        buf[..n].to_vec()
    }

    /// Names of the features, aligned with [`ModelSpec::features`].
    pub fn feature_names(&self) -> Vec<String> {
        names_of(self.build())
    }

    /// Number of input features (Table 1, column 3).
    pub fn n_features(&self) -> usize {
        self.feature_names().len()
    }

    /// Store key under which the trained model is published.
    pub fn store_key(&self) -> String {
        format!("model/{}", self.metric.model_name())
    }
}

/// Store key for a subscription's feature-data record.
pub fn feature_store_key(subscription: rc_types::vm::SubscriptionId) -> String {
    format!("features/{}", subscription.0)
}

/// A trained model, ready to serve predictions.
#[derive(Debug, Clone, Serialize)]
pub struct TrainedModel {
    /// The specification this model implements.
    pub spec: ModelSpec,
    /// Trained estimator.
    pub estimator: Estimator,
}

/// Decoding rejects an estimator whose feature width is not the one its
/// spec assembles: relabelled to a narrower spec, a payload would split
/// on features past the end of every row the client hands it.
impl Deserialize for TrainedModel {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let fields = v.as_object().ok_or_else(|| serde::Error::ty("TrainedModel", "object"))?;
        let model = TrainedModel {
            spec: Deserialize::from_value(serde::field(fields, "spec")?)?,
            estimator: Deserialize::from_value(serde::field(fields, "estimator")?)?,
        };
        let width = match &model.estimator {
            Estimator::Forest(m) => m.n_features(),
            Estimator::Boosted(m) => m.n_features(),
        };
        if width != model.spec.n_features() {
            return Err(serde::Error::msg(format!(
                "{:?} assembles {} features but its estimator was fitted on {width}",
                model.spec.metric,
                model.spec.n_features()
            )));
        }
        Ok(model)
    }
}

/// The serializable estimator enum behind [`TrainedModel`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Estimator {
    /// A random forest (utilization metrics).
    Forest(RandomForest),
    /// A gradient-boosted ensemble (deployment size, lifetime, class).
    Boosted(GradientBoosting),
}

impl Classifier for TrainedModel {
    fn n_classes(&self) -> usize {
        match &self.estimator {
            Estimator::Forest(m) => m.n_classes(),
            Estimator::Boosted(m) => m.n_classes(),
        }
    }

    fn predict_proba_into(&self, features: &[f64], out: &mut [f64]) {
        match &self.estimator {
            Estimator::Forest(m) => m.predict_proba_into(features, out),
            Estimator::Boosted(m) => m.predict_proba_into(features, out),
        }
    }
}

impl TrainedModel {
    /// Assembles this model's features for `inputs` on the stack and
    /// executes it: the whole model-execution step of a result-cache
    /// miss, without touching the heap.
    pub fn predict_for(&self, inputs: &ClientInputs, sub: &SubscriptionFeatures) -> Prediction {
        let mut buf = [0.0; MAX_FEATURES];
        let n = self.spec.features_into(inputs, sub, &mut buf);
        let (value, score) = self.predict(&buf[..n]);
        Prediction { value, score }
    }

    /// Unnormalized per-feature importance of the underlying estimator.
    pub fn feature_importance(&self) -> Vec<f64> {
        match &self.estimator {
            Estimator::Forest(m) => m.feature_importance(),
            Estimator::Boosted(m) => m.feature_importance().to_vec(),
        }
    }

    /// Serialized size in bytes (Table 1, column 4).
    pub fn serialized_size(&self) -> usize {
        rc_ml::serialized_size(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_table_covers_all_metrics_once() {
        let specs = ModelSpec::all();
        for (i, m) in PredictionMetric::ALL.iter().enumerate() {
            assert_eq!(specs[i].metric, *m);
            assert_eq!(ModelSpec::for_metric(*m).metric, *m);
        }
    }

    #[test]
    fn approaches_match_table1() {
        use PredictionMetric::*;
        assert_eq!(ModelSpec::for_metric(AvgCpuUtil).approach, ModelApproach::RandomForest);
        assert_eq!(ModelSpec::for_metric(P95MaxCpuUtil).approach, ModelApproach::RandomForest);
        assert_eq!(
            ModelSpec::for_metric(DeploymentSizeVms).approach,
            ModelApproach::GradientBoosting
        );
        assert_eq!(
            ModelSpec::for_metric(WorkloadClass).approach,
            ModelApproach::FftGradientBoosting
        );
    }

    #[test]
    fn feature_counts_match_table1() {
        use PredictionMetric::*;
        assert_eq!(ModelSpec::for_metric(AvgCpuUtil).n_features(), 127);
        assert_eq!(ModelSpec::for_metric(P95MaxCpuUtil).n_features(), 127);
        assert_eq!(ModelSpec::for_metric(DeploymentSizeVms).n_features(), 24);
        assert_eq!(ModelSpec::for_metric(DeploymentSizeCores).n_features(), 24);
        assert_eq!(ModelSpec::for_metric(WorkloadClass).n_features(), 34);
    }

    #[test]
    fn store_keys_are_distinct() {
        let mut keys: Vec<String> = ModelSpec::all().iter().map(|s| s.store_key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 6);
    }
}
