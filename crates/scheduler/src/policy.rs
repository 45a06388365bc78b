//! Prediction sources and the scheduling policies of §6.2.
//!
//! The comparison in the paper needs six schedulers: Baseline (no
//! oversubscription), Naive (oversubscription without predictions),
//! RC-informed with the utilization check as a soft or hard rule, and two
//! prediction-quality endpoints (always-right, always-wrong). The policy
//! picks the rule behaviour; a [`P95Source`] supplies the predictions.

use rc_core::{PredictionResponse, RcClient};
use rc_types::metrics::PredictionMetric;

use crate::request::VmRequest;

/// Supplies 95th-percentile utilization-bucket predictions.
pub trait P95Source: Send + Sync {
    /// Predicted `(bucket, confidence)` for the VM, or `None` when no
    /// prediction is available.
    fn predict_p95(&self, req: &VmRequest) -> Option<(usize, f64)>;
}

/// Predictions served by a live Resource Central client — the production
/// path (Algorithm 1 line 9: `predict_single(VM_P95UTIL, ...)`).
pub struct RcSource {
    client: RcClient,
}

impl RcSource {
    /// Wraps an initialized client.
    pub fn new(client: RcClient) -> Self {
        RcSource { client }
    }

    /// Read access to the wrapped client (for cache statistics).
    pub fn client(&self) -> &RcClient {
        &self.client
    }
}

impl P95Source for RcSource {
    fn predict_p95(&self, req: &VmRequest) -> Option<(usize, f64)> {
        // §4.3: an Offline client answers the default for everything;
        // skip the lookup entirely so Algorithm 1 degrades to its
        // conservative no-prediction path (assume 100% utilization)
        // exactly as it would with no prediction source at all. The
        // Offline test alone is lock-free; `health()` would also lock the
        // degraded slot and the breaker table on every placement.
        if self.client.is_offline() {
            return None;
        }
        match self.client.predict_single(PredictionMetric::P95MaxCpuUtil.model_name(), &req.inputs)
        {
            PredictionResponse::Predicted(p) => Some((p.value, p.score)),
            PredictionResponse::NoPrediction => None,
        }
    }
}

/// Oracle: always the true bucket, full confidence (RC-soft-right).
pub struct OracleSource;

impl P95Source for OracleSource {
    fn predict_p95(&self, req: &VmRequest) -> Option<(usize, f64)> {
        Some((req.true_p95_bucket, 1.0))
    }
}

/// Adversary: always an incorrect random bucket, full confidence
/// (RC-soft-wrong).
pub struct WrongSource;

impl P95Source for WrongSource {
    fn predict_p95(&self, req: &VmRequest) -> Option<(usize, f64)> {
        // Deterministic "random" wrong bucket derived from the VM id.
        let h = req.vm_id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33;
        let offset = 1 + (h % 3) as usize;
        Some(((req.true_p95_bucket + offset) % 4, 1.0))
    }
}

/// No predictions at all; RC-informed policies degrade to assuming full
/// allocation for every VM.
pub struct NoSource;

impl P95Source for NoSource {
    fn predict_p95(&self, _req: &VmRequest) -> Option<(usize, f64)> {
        None
    }
}

/// The §6.2 scheduler variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// No oversubscription, no production/non-production split.
    Baseline,
    /// Oversubscription by allocation only; no utilization check.
    NaiveOversub,
    /// Algorithm 1 with the utilization check as a soft rule.
    RcInformedSoft,
    /// Algorithm 1 with the utilization check inside the hard fit rule.
    RcInformedHard,
}

impl PolicyKind {
    /// Display label matching the paper's terminology.
    pub const fn label(self) -> &'static str {
        match self {
            PolicyKind::Baseline => "Baseline",
            PolicyKind::NaiveOversub => "Naive",
            PolicyKind::RcInformedSoft => "RC-informed-soft",
            PolicyKind::RcInformedHard => "RC-informed-hard",
        }
    }

    /// True when the policy oversubscribes CPU at all.
    pub const fn oversubscribes(self) -> bool {
        !matches!(self, PolicyKind::Baseline)
    }

    /// True when the policy consults P95 predictions.
    pub const fn uses_predictions(self) -> bool {
        matches!(self, PolicyKind::RcInformedSoft | PolicyKind::RcInformedHard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_core::ClientInputs;
    use rc_trace::UtilParams;
    use rc_types::time::Timestamp;
    use rc_types::vm::{OsType, Party, ProdTag, SubscriptionId, VmId, VmRole};

    fn request(id: u64, bucket: usize) -> VmRequest {
        VmRequest {
            vm_id: VmId(id),
            cores: 2,
            memory_gb: 3.5,
            prod: ProdTag::NonProduction,
            created: Timestamp::ZERO,
            deleted: Timestamp::from_hours(1),
            util: UtilParams::creation_test(id),
            inputs: ClientInputs {
                subscription: SubscriptionId(0),
                party: Party::First,
                role: VmRole::Iaas,
                prod: ProdTag::NonProduction,
                os: OsType::Linux,
                sku_index: 2,
                deployment_time: Timestamp::ZERO,
                deployment_size_hint: 1,
                service: None,
            },
            true_p95_bucket: bucket,
        }
    }

    #[test]
    fn oracle_is_always_right() {
        for b in 0..4 {
            let (pred, score) = OracleSource.predict_p95(&request(7, b)).unwrap();
            assert_eq!(pred, b);
            assert_eq!(score, 1.0);
        }
    }

    #[test]
    fn wrong_source_is_always_wrong() {
        for id in 0..100 {
            for b in 0..4 {
                let (pred, _) = WrongSource.predict_p95(&request(id, b)).unwrap();
                assert_ne!(pred, b, "vm {id} bucket {b}");
                assert!(pred < 4);
            }
        }
    }

    #[test]
    fn no_source_gives_nothing() {
        assert_eq!(NoSource.predict_p95(&request(1, 2)), None);
    }

    #[test]
    fn policy_flags() {
        assert!(!PolicyKind::Baseline.oversubscribes());
        assert!(PolicyKind::NaiveOversub.oversubscribes());
        assert!(!PolicyKind::NaiveOversub.uses_predictions());
        assert!(PolicyKind::RcInformedSoft.uses_predictions());
        assert!(PolicyKind::RcInformedHard.uses_predictions());
    }
}
