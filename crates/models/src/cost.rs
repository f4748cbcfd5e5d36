//! Model cost summaries.

use crate::zoo::ModelFamily;
use std::fmt;

/// FLOP and parameter counts for one model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelCost {
    /// FLOPs for one forward pass of a single sample.
    pub flops: u64,
    /// Number of trainable parameters.
    pub params: u64,
    /// Architecture family.
    pub family: ModelFamily,
}

impl ModelCost {
    /// FLOPs expressed in MFLOPs (the unit the paper's Table I uses).
    pub fn mflops(&self) -> f64 {
        self.flops as f64 / 1e6
    }

    /// Parameters expressed in thousands.
    pub fn kparams(&self) -> f64 {
        self.params as f64 / 1e3
    }
}

impl fmt::Display for ModelCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.3} MFLOPs, {:.1}k params",
            self.family,
            self.mflops(),
            self.kparams()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        let cost = ModelCost {
            flops: 2_500_000,
            params: 12_000,
            family: ModelFamily::MobileNetLike,
        };
        assert!((cost.mflops() - 2.5).abs() < 1e-9);
        assert!((cost.kparams() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn display_contains_units() {
        let cost = ModelCost {
            flops: 1_000_000,
            params: 1_000,
            family: ModelFamily::ResNetLike,
        };
        let s = cost.to_string();
        assert!(s.contains("MFLOPs"));
        assert!(s.contains("resnet_like"));
    }
}
