//! Client inputs: what a resource manager knows when it asks for a
//! prediction.
//!
//! §4.2: "The client (e.g., VM scheduler, health monitoring system) calls
//! the DLL passing as input the model name and information about the
//! VM(s) for which it wants predictions. ... Examples of client inputs
//! are subscription id, VM type and size, and deployment size." Everything
//! here is available *at VM deployment time* — no observed behaviour.

use serde::{Deserialize, Serialize};

use rc_types::time::Timestamp;
use rc_types::vm::{OsType, Party, ProdTag, SubscriptionId, VmRole, VmType};
use rc_types::Fnv1a;

/// The client-input record for one prediction request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientInputs {
    /// Subscription the VM (or deployment) belongs to.
    pub subscription: SubscriptionId,
    /// First- or third-party customer.
    pub party: Party,
    /// VM role (IaaS or PaaS functional role).
    pub role: VmRole,
    /// Production annotation.
    pub prod: ProdTag,
    /// Guest operating system.
    pub os: OsType,
    /// Requested size as a SKU catalog index.
    pub sku_index: usize,
    /// Time of the deployment request.
    pub deployment_time: Timestamp,
    /// Number of VMs requested in the deployment so far.
    pub deployment_size_hint: u32,
    /// Top first-party service id, or `None` for "unknown".
    pub service: Option<u8>,
}

impl ClientInputs {
    /// The VM type implied by the role.
    pub fn vm_type(&self) -> VmType {
        self.role.vm_type()
    }

    /// Stable 64-bit hash of `(model_name, inputs)` used as the result-
    /// cache key (§4.2: "looks up the results cache first by hashing the
    /// model name and client inputs").
    ///
    /// FNV-1a over a canonical byte encoding: stable across processes and
    /// platforms, unlike `std::hash`.
    pub fn cache_key(&self, model_name: &str) -> u64 {
        let mut h = Fnv1a::new();
        h.write(model_name.as_bytes());
        h.write(&self.subscription.0.to_le_bytes());
        h.write_u8(match self.party {
            Party::First => 0,
            Party::Third => 1,
        });
        h.write_u8(self.role.index() as u8);
        h.write_u8(match self.prod {
            ProdTag::Production => 0,
            ProdTag::NonProduction => 1,
        });
        h.write_u8(match self.os {
            OsType::Windows => 0,
            OsType::Linux => 1,
        });
        h.write_u8(self.sku_index as u8);
        // §4.2: result caching "works well when the client does not
        // provide any rapidly changing inputs" — so the key buckets the
        // timestamp by day and the deployment-size hint by power of two,
        // rather than hashing their raw values.
        h.write(&self.deployment_time.day_index().to_le_bytes());
        h.write_u8(32 - self.deployment_size_hint.leading_zeros() as u8);
        h.write_u8(self.service.map_or(0xff, |s| s));
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_types::vm::SubscriptionId;

    fn sample() -> ClientInputs {
        ClientInputs {
            subscription: SubscriptionId(42),
            party: Party::Third,
            role: VmRole::Iaas,
            prod: ProdTag::Production,
            os: OsType::Linux,
            sku_index: 2,
            deployment_time: Timestamp::from_hours(30),
            deployment_size_hint: 5,
            service: None,
        }
    }

    #[test]
    fn cache_key_is_stable_and_model_scoped() {
        let a = sample();
        assert_eq!(a.cache_key("VM_P95UTIL"), a.cache_key("VM_P95UTIL"));
        assert_ne!(a.cache_key("VM_P95UTIL"), a.cache_key("VM_AVGUTIL"));
    }

    #[test]
    fn cache_key_changes_with_inputs() {
        let a = sample();
        let mut b = a;
        b.subscription = SubscriptionId(43);
        assert_ne!(a.cache_key("m"), b.cache_key("m"));
        let mut c = a;
        c.sku_index = 3;
        assert_ne!(a.cache_key("m"), c.cache_key("m"));
    }

    #[test]
    fn cache_key_buckets_deployment_size_by_power_of_two() {
        let a = sample(); // hint = 5
        let mut same_bucket = a;
        same_bucket.deployment_size_hint = 7;
        assert_eq!(a.cache_key("m"), same_bucket.cache_key("m"));
        let mut next_bucket = a;
        next_bucket.deployment_size_hint = 9;
        assert_ne!(a.cache_key("m"), next_bucket.cache_key("m"));
    }

    #[test]
    fn cache_key_buckets_time_by_day() {
        let a = sample();
        let mut same_day = a;
        same_day.deployment_time = Timestamp::from_hours(31);
        assert_eq!(a.cache_key("m"), same_day.cache_key("m"));
        let mut next_day = a;
        next_day.deployment_time = Timestamp::from_hours(50);
        assert_ne!(a.cache_key("m"), next_day.cache_key("m"));
    }

    #[test]
    fn vm_type_follows_role() {
        let mut a = sample();
        assert_eq!(a.vm_type(), VmType::Iaas);
        a.role = VmRole::PaasWorker;
        assert_eq!(a.vm_type(), VmType::Paas);
    }
}
