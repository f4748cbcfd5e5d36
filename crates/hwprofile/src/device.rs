//! Compute device specifications.

use crate::error::{require_positive, HwError, HwResult};
use std::fmt;

/// A compute device (edge or cloud) described by throughput, energy
/// efficiency and memory capacity.
///
/// The numbers in the presets are order-of-magnitude figures for the three
/// device classes the paper targets (IoT microcontroller, mobile SoC, cloud
/// GPU); they drive the *relative* cost comparisons, which is what the
/// paper's evaluation reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable device name.
    pub name: String,
    /// Sustained throughput in GFLOP/s.
    pub peak_gflops: f64,
    /// Energy per floating-point operation, in picojoules.
    pub energy_per_flop_pj: f64,
    /// Memory available for model parameters, in kilobytes.
    pub memory_kb: u64,
}

impl DeviceSpec {
    /// Creates a custom device specification.
    ///
    /// Returns [`HwError`] if any numeric field is not positive (NaN is
    /// rejected too).
    pub fn new(
        name: impl Into<String>,
        peak_gflops: f64,
        energy_per_flop_pj: f64,
        memory_kb: u64,
    ) -> HwResult<Self> {
        require_positive("peak_gflops", peak_gflops)?;
        require_positive("energy_per_flop_pj", energy_per_flop_pj)?;
        if memory_kb == 0 {
            return Err(HwError::ZeroCapacity { field: "memory_kb" });
        }
        Ok(Self {
            name: name.into(),
            peak_gflops,
            energy_per_flop_pj,
            memory_kb,
        })
    }

    /// A resource-starved IoT microcontroller (Cortex-M class).
    pub fn edge_mcu() -> Self {
        Self {
            name: "edge-mcu".into(),
            peak_gflops: 0.5,
            energy_per_flop_pj: 120.0,
            memory_kb: 512,
        }
    }

    /// A mobile system-on-chip (smartphone / robot vacuum class).
    pub fn mobile_soc() -> Self {
        Self {
            name: "mobile-soc".into(),
            peak_gflops: 20.0,
            energy_per_flop_pj: 30.0,
            memory_kb: 64 * 1024,
        }
    }

    /// A cloud GPU accelerator.
    pub fn cloud_gpu() -> Self {
        Self {
            name: "cloud-gpu".into(),
            peak_gflops: 10_000.0,
            energy_per_flop_pj: 8.0,
            memory_kb: 16 * 1024 * 1024,
        }
    }

    /// Time to execute `flops` floating-point operations, in milliseconds.
    pub fn latency_ms(&self, flops: u64) -> f64 {
        flops as f64 / (self.peak_gflops * 1e9) * 1e3
    }

    /// Energy to execute `flops` floating-point operations, in millijoules.
    pub fn energy_mj(&self, flops: u64) -> f64 {
        flops as f64 * self.energy_per_flop_pj * 1e-12 * 1e3
    }

    /// Whether a model with `params` f32 parameters fits in device memory.
    pub fn fits(&self, params: u64) -> bool {
        params * 4 <= self.memory_kb * 1024
    }
}

impl fmt::Display for DeviceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} GFLOP/s, {} pJ/FLOP, {} kB)",
            self.name, self.peak_gflops, self.energy_per_flop_pj, self.memory_kb
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_capability() {
        let mcu = DeviceSpec::edge_mcu();
        let soc = DeviceSpec::mobile_soc();
        let gpu = DeviceSpec::cloud_gpu();
        assert!(mcu.peak_gflops < soc.peak_gflops);
        assert!(soc.peak_gflops < gpu.peak_gflops);
        assert!(mcu.energy_per_flop_pj > gpu.energy_per_flop_pj);
        assert!(mcu.memory_kb < gpu.memory_kb);
    }

    #[test]
    fn latency_and_energy_scale_linearly_with_flops() {
        let dev = DeviceSpec::mobile_soc();
        assert!((dev.latency_ms(2_000_000) - 2.0 * dev.latency_ms(1_000_000)).abs() < 1e-9);
        assert!((dev.energy_mj(2_000_000) - 2.0 * dev.energy_mj(1_000_000)).abs() < 1e-9);
    }

    #[test]
    fn known_latency_value() {
        // 20 GFLOP/s device, 20 MFLOPs of work -> 1 ms.
        let dev = DeviceSpec::mobile_soc();
        assert!((dev.latency_ms(20_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memory_fit_check() {
        let mcu = DeviceSpec::edge_mcu();
        assert!(mcu.fits(100_000)); // 400 kB
        assert!(!mcu.fits(1_000_000)); // 4 MB
    }

    #[test]
    fn rejects_invalid_fields() {
        assert_eq!(
            DeviceSpec::new("bad", 0.0, 1.0, 1),
            Err(HwError::NonPositive {
                field: "peak_gflops",
                value: 0.0,
            })
        );
        assert_eq!(
            DeviceSpec::new("bad", 1.0, -1.0, 1),
            Err(HwError::NonPositive {
                field: "energy_per_flop_pj",
                value: -1.0,
            })
        );
        assert_eq!(
            DeviceSpec::new("bad", 1.0, 1.0, 0),
            Err(HwError::ZeroCapacity { field: "memory_kb" })
        );
    }

    #[test]
    fn presets_pass_their_own_validation() {
        for preset in [
            DeviceSpec::edge_mcu(),
            DeviceSpec::mobile_soc(),
            DeviceSpec::cloud_gpu(),
        ] {
            let rebuilt = DeviceSpec::new(
                preset.name.clone(),
                preset.peak_gflops,
                preset.energy_per_flop_pj,
                preset.memory_kb,
            )
            .expect("preset fields must validate");
            assert_eq!(rebuilt, preset);
        }
    }

    #[test]
    fn display_mentions_name() {
        assert!(DeviceSpec::cloud_gpu().to_string().contains("cloud-gpu"));
    }
}
