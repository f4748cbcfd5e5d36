//! Edge-to-cloud communication link specifications.

use crate::error::{require_non_negative, require_positive, HwResult};
use std::fmt;

/// A wireless (or wired) uplink between the edge device and the cloud.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Human-readable link name.
    pub name: String,
    /// Sustained throughput in megabits per second.
    pub bandwidth_mbps: f64,
    /// Transmission energy per byte, in nanojoules.
    pub energy_per_byte_nj: f64,
    /// Round-trip time in milliseconds.
    pub rtt_ms: f64,
}

impl LinkSpec {
    /// Creates a custom link specification.
    ///
    /// Returns [`crate::HwError`] if bandwidth or energy is not positive,
    /// or RTT is negative (NaN is rejected by all three checks).
    pub fn new(
        name: impl Into<String>,
        bandwidth_mbps: f64,
        energy_per_byte_nj: f64,
        rtt_ms: f64,
    ) -> HwResult<Self> {
        require_positive("bandwidth_mbps", bandwidth_mbps)?;
        require_positive("energy_per_byte_nj", energy_per_byte_nj)?;
        require_non_negative("rtt_ms", rtt_ms)?;
        Ok(Self {
            name: name.into(),
            bandwidth_mbps,
            energy_per_byte_nj,
            rtt_ms,
        })
    }

    /// A home/office Wi-Fi link.
    pub fn wifi() -> Self {
        Self {
            name: "wifi".into(),
            bandwidth_mbps: 50.0,
            energy_per_byte_nj: 90.0,
            rtt_ms: 10.0,
        }
    }

    /// A cellular LTE link.
    pub fn lte() -> Self {
        Self {
            name: "lte".into(),
            bandwidth_mbps: 10.0,
            energy_per_byte_nj: 400.0,
            rtt_ms: 50.0,
        }
    }

    /// A constrained LPWAN-style link (worst case for offloading).
    pub fn lpwan() -> Self {
        Self {
            name: "lpwan".into(),
            bandwidth_mbps: 0.25,
            energy_per_byte_nj: 1500.0,
            rtt_ms: 500.0,
        }
    }

    /// Pure serialization time for `bytes` at the link bandwidth, in
    /// milliseconds — no propagation component.
    pub fn transmit_ms(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 / (self.bandwidth_mbps * 1e6) * 1e3
    }

    /// Time to transmit `bytes` one way plus half the round trip, in
    /// milliseconds.
    ///
    /// This charges only *half* the RTT: it models a single one-way message.
    /// The appeal path (features up, logits back) is two such messages — use
    /// [`Self::round_trip_ms`] so the response leg is not dropped.
    pub fn latency_ms(&self, bytes: u64) -> f64 {
        self.transmit_ms(bytes) + self.rtt_ms / 2.0
    }

    /// Full appeal-response latency: send `up_bytes` to the cloud and
    /// receive `down_bytes` back, in milliseconds.
    ///
    /// Each direction pays its serialization time plus half the RTT, so the
    /// pair charges exactly one full RTT of propagation.
    pub fn round_trip_ms(&self, up_bytes: u64, down_bytes: u64) -> f64 {
        self.latency_ms(up_bytes) + self.latency_ms(down_bytes)
    }

    /// Transmission energy for `bytes`, in millijoules.
    pub fn energy_mj(&self, bytes: u64) -> f64 {
        bytes as f64 * self.energy_per_byte_nj * 1e-9 * 1e3
    }
}

impl fmt::Display for LinkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} Mbps, {} nJ/B, rtt {} ms)",
            self.name, self.bandwidth_mbps, self.energy_per_byte_nj, self.rtt_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::HwError;

    #[test]
    fn presets_are_ordered() {
        assert!(LinkSpec::wifi().bandwidth_mbps > LinkSpec::lte().bandwidth_mbps);
        assert!(LinkSpec::lte().bandwidth_mbps > LinkSpec::lpwan().bandwidth_mbps);
        assert!(LinkSpec::wifi().energy_per_byte_nj < LinkSpec::lpwan().energy_per_byte_nj);
    }

    #[test]
    fn presets_pass_their_own_validation() {
        for preset in [LinkSpec::wifi(), LinkSpec::lte(), LinkSpec::lpwan()] {
            let rebuilt = LinkSpec::new(
                preset.name.clone(),
                preset.bandwidth_mbps,
                preset.energy_per_byte_nj,
                preset.rtt_ms,
            )
            .expect("preset fields must validate");
            assert_eq!(rebuilt, preset);
        }
    }

    #[test]
    fn latency_includes_rtt() {
        let link = LinkSpec::wifi();
        assert!(link.latency_ms(0) >= link.rtt_ms / 2.0);
        assert!(link.latency_ms(1_000_000) > link.latency_ms(1_000));
    }

    #[test]
    fn transmit_excludes_propagation() {
        let link = LinkSpec::wifi();
        assert!((link.transmit_ms(0)).abs() < 1e-12);
        assert!((link.latency_ms(4096) - link.transmit_ms(4096) - link.rtt_ms / 2.0).abs() < 1e-12);
    }

    #[test]
    fn round_trip_charges_one_full_rtt() {
        let link = LinkSpec::lte();
        let rt = link.round_trip_ms(4096, 16);
        let expected = link.transmit_ms(4096) + link.transmit_ms(16) + link.rtt_ms;
        assert!((rt - expected).abs() < 1e-12);
        // The old single-call accounting undercounts by half the RTT.
        assert!(rt > link.latency_ms(4096 + 16));
    }

    #[test]
    fn energy_scales_with_bytes() {
        let link = LinkSpec::lte();
        assert!((link.energy_mj(2000) - 2.0 * link.energy_mj(1000)).abs() < 1e-12);
    }

    #[test]
    fn known_energy_value() {
        // 90 nJ per byte * 1e6 bytes = 0.09 J = 90 mJ.
        assert!((LinkSpec::wifi().energy_mj(1_000_000) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_invalid_fields() {
        assert_eq!(
            LinkSpec::new("bad", 0.0, 1.0, 1.0),
            Err(HwError::NonPositive {
                field: "bandwidth_mbps",
                value: 0.0,
            })
        );
        assert_eq!(
            LinkSpec::new("bad", 1.0, -1.0, 1.0),
            Err(HwError::NonPositive {
                field: "energy_per_byte_nj",
                value: -1.0,
            })
        );
        assert_eq!(
            LinkSpec::new("bad", 1.0, 1.0, -1.0),
            Err(HwError::Negative {
                field: "rtt_ms",
                value: -1.0,
            })
        );
        assert!(LinkSpec::new("bad", f64::NAN, 1.0, 1.0).is_err());
    }
}
