//! The hardware profiler workflow of the paper's Fig. 3.
//!
//! Given a hardware specification and a pool of efficient DNN candidates, the
//! profiler selects the most capable little model that fits the device's
//! memory and latency budget. The selected architecture is then augmented
//! with the AppealNet predictor head and jointly trained (that part lives in
//! `appealnet-core`).

use crate::device::DeviceSpec;
use crate::error::{require_positive, HwResult};
use appeal_models::{ModelCost, ModelSpec};
use appeal_tensor::SeededRng;

/// Outcome of profiling one candidate model on a device.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDecision {
    /// The candidate that was profiled.
    pub spec: ModelSpec,
    /// Its cost summary.
    pub cost: ModelCost,
    /// Estimated on-device latency in milliseconds.
    pub latency_ms: f64,
    /// Whether the candidate fits the device's memory.
    pub fits_memory: bool,
    /// Whether the candidate meets the latency budget.
    pub meets_latency: bool,
}

impl ProfileDecision {
    /// A candidate is deployable if it fits memory and meets the latency budget.
    pub fn deployable(&self) -> bool {
        self.fits_memory && self.meets_latency
    }
}

/// Profiles candidate little models against an edge device budget (Fig. 3).
#[derive(Debug, Clone)]
pub struct HardwareProfiler {
    device: DeviceSpec,
    latency_budget_ms: f64,
}

impl HardwareProfiler {
    /// Creates a profiler for a device with a per-inference latency budget.
    ///
    /// Returns [`crate::HwError`] if the latency budget is not positive.
    pub fn new(device: DeviceSpec, latency_budget_ms: f64) -> HwResult<Self> {
        require_positive("latency_budget_ms", latency_budget_ms)?;
        Ok(Self {
            device,
            latency_budget_ms,
        })
    }

    /// The device being profiled against.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Profiles one candidate.
    pub fn profile(&self, spec: &ModelSpec) -> ProfileDecision {
        // Building the model materializes exact FLOP/parameter counts; the
        // profiler never needs trained weights, so any seed works.
        let mut model = spec.build(&mut SeededRng::new(0));
        let cost = model.cost();
        let latency_ms = self.device.latency_ms(cost.flops);
        ProfileDecision {
            spec: spec.clone(),
            cost,
            latency_ms,
            fits_memory: self.device.fits(cost.params),
            meets_latency: latency_ms <= self.latency_budget_ms,
        }
    }

    /// Profiles every candidate in the pool.
    pub fn profile_pool(&self, pool: &[ModelSpec]) -> Vec<ProfileDecision> {
        pool.iter().map(|spec| self.profile(spec)).collect()
    }

    /// Selects the deployable candidate with the highest FLOP count — the
    /// most capable model that still fits the budget, which is the paper's
    /// selection rule for the little network.
    pub fn select(&self, pool: &[ModelSpec]) -> Option<ProfileDecision> {
        self.profile_pool(pool)
            .into_iter()
            .filter(ProfileDecision::deployable)
            .max_by_key(|d| d.cost.flops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appeal_models::ModelFamily;

    fn pool() -> Vec<ModelSpec> {
        let mut pool: Vec<ModelSpec> = ModelFamily::little_families()
            .iter()
            .map(|&f| ModelSpec::little(f, [3, 12, 12], 10))
            .collect();
        pool.push(ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 10).with_width(0.5));
        pool.push(ModelSpec::big([3, 12, 12], 10));
        pool
    }

    #[test]
    fn profile_reports_cost_and_latency() {
        let profiler = HardwareProfiler::new(DeviceSpec::mobile_soc(), 10.0).unwrap();
        let d = profiler.profile(&ModelSpec::little(
            ModelFamily::MobileNetLike,
            [3, 12, 12],
            10,
        ));
        assert!(d.cost.flops > 0);
        assert!(d.latency_ms > 0.0);
        assert!(d.fits_memory);
    }

    #[test]
    fn generous_budget_selects_most_capable_candidate() {
        let profiler = HardwareProfiler::new(DeviceSpec::cloud_gpu(), 1000.0).unwrap();
        let selected = profiler.select(&pool()).expect("something must fit");
        // With no effective constraint, the big network wins.
        assert_eq!(selected.spec.family, ModelFamily::ResNetLike);
    }

    #[test]
    fn tight_memory_excludes_big_model() {
        // A device whose memory holds the little models but not the big
        // network's parameters must select a little family.
        let mut rng = appeal_tensor::SeededRng::new(0);
        let big_params = ModelSpec::big([3, 12, 12], 10)
            .build(&mut rng)
            .param_count() as u64;
        let tight =
            DeviceSpec::new("tight-mcu", 0.5, 120.0, (big_params * 4 / 1024).max(1) / 2).unwrap();
        let profiler = HardwareProfiler::new(tight, 1e9).unwrap();
        let selected = profiler.select(&pool()).expect("a little model must fit");
        assert!(selected.spec.family.is_little());
    }

    #[test]
    fn impossible_latency_budget_selects_nothing() {
        let profiler = HardwareProfiler::new(DeviceSpec::edge_mcu(), 1e-6).unwrap();
        assert!(profiler.select(&pool()).is_none());
    }

    #[test]
    fn profile_pool_covers_all_candidates() {
        let profiler = HardwareProfiler::new(DeviceSpec::mobile_soc(), 10.0).unwrap();
        assert_eq!(profiler.profile_pool(&pool()).len(), pool().len());
    }

    #[test]
    fn rejects_zero_budget() {
        let err = HardwareProfiler::new(DeviceSpec::mobile_soc(), 0.0).unwrap_err();
        assert_eq!(
            err,
            crate::HwError::NonPositive {
                field: "latency_budget_ms",
                value: 0.0,
            }
        );
    }
}
