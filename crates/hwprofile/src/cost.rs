//! The edge/cloud system cost model (the paper's Eq. 5 constants, plus
//! energy and latency).

use crate::device::DeviceSpec;
use crate::link::LinkSpec;

/// Cost of processing one input, in three units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceCost {
    /// FLOPs-equivalent cost (the unit used by the paper's Table I).
    ///
    /// For offloaded inputs this counts the edge FLOPs plus the cloud FLOPs;
    /// communication shows up in the energy/latency fields.
    pub flops: u64,
    /// Energy drawn from the edge device's battery plus the cloud energy, in millijoules.
    pub energy_mj: f64,
    /// End-to-end latency, in milliseconds.
    pub latency_ms: f64,
}

impl InferenceCost {
    /// The zero cost.
    pub fn zero() -> Self {
        Self {
            flops: 0,
            energy_mj: 0.0,
            latency_ms: 0.0,
        }
    }

    /// Adds another cost to this one. The FLOPs component saturates at
    /// `u64::MAX` instead of overflowing: long-lived meters (a server's
    /// [`crate::CostMeter`], cumulative engine stats) accumulate costs for
    /// the lifetime of a deployment, and a counter that wraps would silently
    /// re-admit work a budget should reject.
    pub fn add(&self, other: &InferenceCost) -> Self {
        Self {
            flops: self.flops.saturating_add(other.flops),
            energy_mj: self.energy_mj + other.energy_mj,
            latency_ms: self.latency_ms + other.latency_ms,
        }
    }

    /// Scales the cost by a factor (e.g. a routing probability).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative.
    pub fn scale(&self, factor: f64) -> Self {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        Self {
            flops: (self.flops as f64 * factor).round() as u64,
            energy_mj: self.energy_mj * factor,
            latency_ms: self.latency_ms * factor,
        }
    }
}

/// The full edge + link + cloud system used to derive per-input costs.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemModel {
    /// Edge device running the little network and the predictor.
    pub edge: DeviceSpec,
    /// Cloud device running the big network.
    pub cloud: DeviceSpec,
    /// Uplink between them.
    pub link: LinkSpec,
}

/// Edge energy/latency advantage of the quantized (Q8_0) little-network
/// tier over f32, as a speedup factor.
///
/// Int8 weights quarter the bytes moved per MAC and widen SIMD lanes 4×;
/// measured end-to-end gains on mobile-class CPUs land well below the 4×
/// ceiling once the f32 accumulate, scale bookkeeping and the untouched
/// non-GEMM layers are included, so the model charges a conservative 3.2×.
/// FLOP counts are *unchanged*: the quantized tier performs the same MACs,
/// only cheaper, and Eq. 5/15 comparisons stay in the paper's FLOPs unit.
pub const QUANT_EDGE_SPEEDUP: f64 = 3.2;

impl SystemModel {
    /// Creates a system model.
    pub fn new(edge: DeviceSpec, cloud: DeviceSpec, link: LinkSpec) -> Self {
        Self { edge, cloud, link }
    }

    /// A typical deployment: mobile-class edge device, cloud GPU, Wi-Fi link.
    pub fn typical() -> Self {
        Self::new(
            DeviceSpec::mobile_soc(),
            DeviceSpec::cloud_gpu(),
            LinkSpec::wifi(),
        )
    }

    /// The same deployment with the little network on the quantized (Q8_0)
    /// tier: the edge device does [`QUANT_EDGE_SPEEDUP`]× the work per second
    /// and per joule, and every cost function below then prices the tier —
    /// the edge share of an offload included, the link and cloud terms
    /// untouched. Apply it once, where the tier is known (callers read it
    /// off the little network's `is_quantized()`).
    pub fn with_quantized_edge(mut self) -> Self {
        self.edge.name.push_str("+q8_0");
        self.edge.peak_gflops *= QUANT_EDGE_SPEEDUP;
        self.edge.energy_per_flop_pj /= QUANT_EDGE_SPEEDUP;
        self
    }

    /// Cost `c1` of Eq. 5: the input is handled entirely on the edge by the
    /// little network (which includes the predictor head).
    pub fn edge_only_cost(&self, little_flops: u64) -> InferenceCost {
        InferenceCost {
            flops: little_flops,
            energy_mj: self.edge.energy_mj(little_flops),
            latency_ms: self.edge.latency_ms(little_flops),
        }
    }

    /// Cost `c0` of Eq. 5: the edge runs the little network (to produce the
    /// predictor decision), uploads `input_bytes` to the cloud, the cloud runs
    /// the big network and returns the label.
    pub fn offload_cost(
        &self,
        little_flops: u64,
        big_flops: u64,
        input_bytes: u64,
    ) -> InferenceCost {
        let result_bytes = 16; // a class id + confidence comfortably fits
        let edge = self.edge_only_cost(little_flops);
        let uplink_energy = self.link.energy_mj(input_bytes + result_bytes);
        // Full appeal round trip: features up, logits back — one full RTT.
        let uplink_latency = self.link.round_trip_ms(input_bytes, result_bytes);
        InferenceCost {
            flops: little_flops + big_flops,
            energy_mj: edge.energy_mj + uplink_energy + self.cloud.energy_mj(big_flops),
            latency_ms: edge.latency_ms + uplink_latency + self.cloud.latency_ms(big_flops),
        }
    }

    /// Cost of a cloud-only deployment (every input is offloaded, no little network).
    pub fn cloud_only_cost(&self, big_flops: u64, input_bytes: u64) -> InferenceCost {
        self.offload_cost(0, big_flops, input_bytes)
    }

    /// Expected per-input cost of the collaborative system given the skipping
    /// rate `sr` (fraction of inputs kept on the edge) — the paper's Eq. 15
    /// extended to energy and latency.
    ///
    /// # Panics
    ///
    /// Panics if `sr` is outside `[0, 1]`.
    pub fn expected_cost(
        &self,
        sr: f64,
        little_flops: u64,
        big_flops: u64,
        input_bytes: u64,
    ) -> InferenceCost {
        assert!((0.0..=1.0).contains(&sr), "skipping rate must be in [0, 1]");
        let on_edge = self.edge_only_cost(little_flops).scale(sr);
        let offloaded = self
            .offload_cost(little_flops, big_flops, input_bytes)
            .scale(1.0 - sr);
        on_edge.add(&offloaded)
    }
}

impl Default for SystemModel {
    fn default() -> Self {
        Self::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> SystemModel {
        SystemModel::typical()
    }

    #[test]
    fn offload_is_more_expensive_than_edge_only() {
        let s = system();
        let edge = s.edge_only_cost(100_000);
        let offload = s.offload_cost(100_000, 3_000_000, 1728);
        assert!(offload.flops > edge.flops);
        assert!(offload.energy_mj > edge.energy_mj);
        assert!(offload.latency_ms > edge.latency_ms);
    }

    #[test]
    fn expected_cost_interpolates_between_extremes() {
        let s = system();
        let all_edge = s.expected_cost(1.0, 100_000, 3_000_000, 1728);
        let all_cloud = s.expected_cost(0.0, 100_000, 3_000_000, 1728);
        let half = s.expected_cost(0.5, 100_000, 3_000_000, 1728);
        assert!(all_edge.energy_mj < half.energy_mj);
        assert!(half.energy_mj < all_cloud.energy_mj);
        let expected = (all_edge.energy_mj + all_cloud.energy_mj) / 2.0;
        assert!((half.energy_mj - expected).abs() < 1e-9);
    }

    #[test]
    fn expected_cost_matches_eq15_in_flops() {
        // Eq. 15: cost = SR * c1 + (1 - SR) * c0.
        let s = system();
        let little = 200_000u64;
        let big = 4_000_000u64;
        let sr = 0.8;
        let c = s.expected_cost(sr, little, big, 1728);
        let c1 = little as f64;
        let c0 = (little + big) as f64;
        let expected = sr * c1 + (1.0 - sr) * c0;
        assert!((c.flops as f64 - expected).abs() <= 1.0);
    }

    #[test]
    fn higher_skipping_rate_always_cheaper() {
        let s = system();
        let mut prev = f64::INFINITY;
        for sr in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let c = s.expected_cost(sr, 100_000, 3_000_000, 1728);
            assert!(c.energy_mj < prev);
            prev = c.energy_mj;
        }
    }

    #[test]
    fn cloud_only_has_no_little_flops() {
        let s = system();
        let c = s.cloud_only_cost(3_000_000, 1728);
        assert_eq!(c.flops, 3_000_000);
    }

    #[test]
    fn cost_arithmetic() {
        let a = InferenceCost {
            flops: 10,
            energy_mj: 1.0,
            latency_ms: 2.0,
        };
        let b = a.scale(2.0);
        assert_eq!(b.flops, 20);
        let c = a.add(&b);
        assert_eq!(c.flops, 30);
        assert!((c.energy_mj - 3.0).abs() < 1e-12);
        assert_eq!(InferenceCost::zero().flops, 0);
    }

    #[test]
    #[should_panic(expected = "skipping rate must be in")]
    fn rejects_invalid_sr() {
        let _ = system().expected_cost(1.5, 1, 1, 1);
    }

    /// `(little_flops, big_flops, input_bytes)` as `Engine::build` and
    /// `FleetSim::new` issue them for the MobileNet-like little net (predictor
    /// head included) and the big net at `[3, 12, 12]`, 4 and 10 classes.
    const ISSUED_SHAPES: [(u64, u64, u64); 2] =
        [(131_505, 3_180_060, 1728), (131_799, 3_180_546, 1728)];

    fn quantized() -> SystemModel {
        system().with_quantized_edge()
    }

    #[test]
    fn quantized_edge_is_cheaper_but_same_flops() {
        let f = system().edge_only_cost(100_000);
        let q = quantized().edge_only_cost(100_000);
        assert_eq!(q.flops, f.flops, "quantization must not change FLOPs");
        assert!((q.energy_mj * QUANT_EDGE_SPEEDUP - f.energy_mj).abs() < 1e-9);
        assert!((q.latency_ms * QUANT_EDGE_SPEEDUP - f.latency_ms).abs() < 1e-9);
    }

    #[test]
    fn quantized_offload_discounts_only_the_edge_share() {
        let (s, sq) = (system(), quantized());
        let f = s.offload_cost(100_000, 3_000_000, 1728);
        let q = sq.offload_cost(100_000, 3_000_000, 1728);
        assert_eq!(q.flops, f.flops);
        // The saving equals exactly the edge share's discount; link + cloud
        // terms cancel.
        let edge_saving =
            s.edge_only_cost(100_000).energy_mj - sq.edge_only_cost(100_000).energy_mj;
        assert!((f.energy_mj - q.energy_mj - edge_saving).abs() < 1e-9);
        assert!(q.energy_mj < f.energy_mj);
        assert!(q.latency_ms < f.latency_ms);
        // With no edge pass at all the two tiers charge the same bits.
        assert_eq!(
            sq.cloud_only_cost(3_000_000, 1728),
            s.cloud_only_cost(3_000_000, 1728)
        );
        assert_eq!((&sq.cloud, &sq.link), (&s.cloud, &s.link));
    }

    #[test]
    fn quantized_expected_cost_dominates_f32_at_every_sr() {
        let (s, sq) = (system(), quantized());
        for sr in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let f = s.expected_cost(sr, 100_000, 3_000_000, 1728);
            let q = sq.expected_cost(sr, 100_000, 3_000_000, 1728);
            assert_eq!(q.flops, f.flops);
            assert!(q.energy_mj < f.energy_mj);
            assert!(q.latency_ms < f.latency_ms);
        }
        // Every input pays exactly one edge pass (offloaded inputs run the
        // little network too, per Eq. 5), so the per-input saving is the
        // same at every skipping rate.
        let gain = |sr: f64| {
            s.expected_cost(sr, 100_000, 3_000_000, 1728).energy_mj
                - sq.expected_cost(sr, 100_000, 3_000_000, 1728).energy_mj
        };
        assert!((gain(0.9) - gain(0.2)).abs() < 1e-9);
    }

    #[test]
    fn quantized_tier_stays_within_an_ulp_of_the_subtracted_discount() {
        // The retired `*_quantized` functions divided the f32 edge cost by
        // the speedup and patched it into the f32 offload total; scaling the
        // device instead may round differently, but never visibly.
        let (s, sq) = (system(), quantized());
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-12 * want.abs();
        for (little, big, bytes) in ISSUED_SHAPES {
            let edge = s.edge_only_cost(little);
            let offload = s.offload_cost(little, big, bytes);
            let (q_edge, q_offload) = (
                sq.edge_only_cost(little),
                sq.offload_cost(little, big, bytes),
            );
            let (want_e, want_l) = (
                edge.energy_mj / QUANT_EDGE_SPEEDUP,
                edge.latency_ms / QUANT_EDGE_SPEEDUP,
            );
            assert!(close(q_edge.energy_mj, want_e) && close(q_edge.latency_ms, want_l));
            assert!(close(
                q_offload.energy_mj,
                offload.energy_mj - edge.energy_mj + want_e
            ));
            assert!(close(
                q_offload.latency_ms,
                offload.latency_ms - edge.latency_ms + want_l
            ));
        }
    }

    #[test]
    fn quant_f32_tier_is_bit_identical() {
        // Energy and latency bits of the f32 tier, captured before the
        // quantized twins were folded into `with_quantized_edge`: selecting
        // the tier through the device must not move a single f32 cost.
        let golden: [[u64; 4]; 2] = [
            [
                0x3f7028ca23a520b6,
                0x3f7aeea63b688bdb,
                0x3fc7da2c714d1f44,
                0x40249265d7feb7b4,
            ],
            [
                0x3f703209bd6e0a1f,
                0x3f7afe103bb76634,
                0x3fc7da970b860148,
                0x40249267c6e03a17,
            ],
        ];
        let s = system();
        for ((little, big, bytes), want) in ISSUED_SHAPES.into_iter().zip(golden) {
            let (edge, offload) = (s.edge_only_cost(little), s.offload_cost(little, big, bytes));
            let got = [
                edge.energy_mj,
                edge.latency_ms,
                offload.energy_mj,
                offload.latency_ms,
            ];
            assert_eq!(
                got.map(f64::to_bits),
                want,
                "shape ({little}, {big}, {bytes})"
            );
        }
    }

    #[test]
    fn lpwan_link_makes_offloading_very_costly() {
        let constrained = SystemModel::new(
            DeviceSpec::edge_mcu(),
            DeviceSpec::cloud_gpu(),
            LinkSpec::lpwan(),
        );
        let wifi = SystemModel::typical();
        let bytes = 1728;
        assert!(
            constrained
                .offload_cost(100_000, 3_000_000, bytes)
                .latency_ms
                > wifi.offload_cost(100_000, 3_000_000, bytes).latency_ms * 10.0
        );
    }
}
