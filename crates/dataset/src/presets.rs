//! Named dataset presets mirroring the paper's four benchmarks.

use crate::synth::SynthSpec;
use std::fmt;

/// Experiment fidelity level.
///
/// `Smoke` keeps sample counts tiny so unit and integration tests run in
/// milliseconds; `Paper` is the scale used by the benchmark harness to
/// regenerate the paper's tables and figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// Minimal sizes for fast tests.
    Smoke,
    /// Reduced-but-realistic sizes for the benchmark harness.
    Paper,
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fidelity::Smoke => write!(f, "smoke"),
            Fidelity::Paper => write!(f, "paper"),
        }
    }
}

/// The four dataset presets used in the paper's evaluation (Section VI-A),
/// reproduced synthetically.
///
/// | Preset | Stands in for | Classes | Relative difficulty |
/// |---|---|---|---|
/// | `GtsrbLike` | GTSRB | 43 | easiest (little/big gap ≈ 2%) |
/// | `Cifar10Like` | CIFAR-10 | 10 | easy (gap ≈ 1.5%) |
/// | `Cifar100Like` | CIFAR-100 | 100 | harder (gap ≈ 5%) |
/// | `TinyImageNetLike` | Tiny-ImageNet | 200 | hardest (gap ≈ 9%) |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetPreset {
    /// 43-class traffic-sign-like task (GTSRB stand-in).
    GtsrbLike,
    /// 10-class natural-image-like task (CIFAR-10 stand-in).
    Cifar10Like,
    /// 100-class task (CIFAR-100 stand-in).
    Cifar100Like,
    /// 200-class higher-resolution task (Tiny-ImageNet stand-in).
    TinyImageNetLike,
}

impl DatasetPreset {
    /// All presets, in the order the paper reports them.
    pub fn all() -> [DatasetPreset; 4] {
        [
            DatasetPreset::GtsrbLike,
            DatasetPreset::Cifar10Like,
            DatasetPreset::Cifar100Like,
            DatasetPreset::TinyImageNetLike,
        ]
    }

    /// Short name used in tables and reports.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetPreset::GtsrbLike => "gtsrb_like",
            DatasetPreset::Cifar10Like => "cifar10_like",
            DatasetPreset::Cifar100Like => "cifar100_like",
            DatasetPreset::TinyImageNetLike => "tiny_imagenet_like",
        }
    }

    /// Name of the dataset this preset stands in for, as used in the paper.
    pub fn paper_name(&self) -> &'static str {
        match self {
            DatasetPreset::GtsrbLike => "GTSRB",
            DatasetPreset::Cifar10Like => "CIFAR-10",
            DatasetPreset::Cifar100Like => "CIFAR-100",
            DatasetPreset::TinyImageNetLike => "Tiny-ImageNet",
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        match self {
            DatasetPreset::GtsrbLike => 43,
            DatasetPreset::Cifar10Like => 10,
            DatasetPreset::Cifar100Like => 100,
            DatasetPreset::TinyImageNetLike => 200,
        }
    }

    /// Builds the synthesis specification for this preset at a given fidelity.
    pub fn spec(&self, fidelity: Fidelity) -> SynthSpec {
        let classes = self.num_classes();
        // Difficulty parameters are tuned so the little/big accuracy gap
        // qualitatively follows the paper: GTSRB ≈ CIFAR-10 < CIFAR-100 < Tiny-ImageNet.
        let (hard_fraction, noise_std, hard_noise_std, height, width) = match self {
            DatasetPreset::GtsrbLike => (0.08, 0.35, 1.3, 12, 12),
            DatasetPreset::Cifar10Like => (0.12, 0.40, 1.4, 12, 12),
            DatasetPreset::Cifar100Like => (0.28, 0.50, 1.6, 12, 12),
            DatasetPreset::TinyImageNetLike => (0.36, 0.55, 1.8, 16, 16),
        };
        let (train_size, test_size) = match fidelity {
            Fidelity::Smoke => (classes * 6, classes * 3),
            Fidelity::Paper => match self {
                DatasetPreset::GtsrbLike => (1600, 800),
                DatasetPreset::Cifar10Like => (1600, 800),
                DatasetPreset::Cifar100Like => (2000, 900),
                DatasetPreset::TinyImageNetLike => (2200, 1000),
            },
        };
        SynthSpec {
            name: self.name().to_string(),
            num_classes: classes,
            channels: 3,
            height,
            width,
            train_size,
            test_size,
            hard_fraction,
            noise_std,
            hard_noise_std,
            occlusion_frac: 0.4,
            mix_alpha: 0.45,
            proto_grid: 4,
            seed: 0xA99E ^ ((*self as u64 + 1) * 7919),
        }
    }
}

impl fmt::Display for DatasetPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_paper_class_counts() {
        assert_eq!(DatasetPreset::GtsrbLike.num_classes(), 43);
        assert_eq!(DatasetPreset::Cifar10Like.num_classes(), 10);
        assert_eq!(DatasetPreset::Cifar100Like.num_classes(), 100);
        assert_eq!(DatasetPreset::TinyImageNetLike.num_classes(), 200);
    }

    #[test]
    fn specs_are_internally_consistent() {
        for preset in DatasetPreset::all() {
            for fidelity in [Fidelity::Smoke, Fidelity::Paper] {
                let spec = preset.spec(fidelity);
                assert_eq!(spec.num_classes, preset.num_classes());
                assert!(spec.train_size > 0 && spec.test_size > 0);
                assert!(spec.hard_fraction > 0.0 && spec.hard_fraction < 1.0);
            }
        }
    }

    #[test]
    fn smoke_is_smaller_than_paper() {
        for preset in DatasetPreset::all() {
            assert!(
                preset.spec(Fidelity::Smoke).train_size < preset.spec(Fidelity::Paper).train_size
            );
        }
    }

    #[test]
    fn difficulty_ordering_follows_paper() {
        let hf = |p: DatasetPreset| p.spec(Fidelity::Paper).hard_fraction;
        assert!(hf(DatasetPreset::GtsrbLike) <= hf(DatasetPreset::Cifar10Like));
        assert!(hf(DatasetPreset::Cifar10Like) < hf(DatasetPreset::Cifar100Like));
        assert!(hf(DatasetPreset::Cifar100Like) < hf(DatasetPreset::TinyImageNetLike));
    }

    #[test]
    fn smoke_generation_runs_quickly_and_correctly() {
        let pair = DatasetPreset::Cifar10Like.spec(Fidelity::Smoke).generate();
        assert_eq!(pair.train.num_classes(), 10);
        assert_eq!(pair.train.len(), 60);
        assert_eq!(pair.test.len(), 30);
    }

    #[test]
    fn seeds_differ_across_presets() {
        let seeds: Vec<u64> = DatasetPreset::all()
            .iter()
            .map(|p| p.spec(Fidelity::Paper).seed)
            .collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn display_and_names() {
        assert_eq!(DatasetPreset::Cifar10Like.to_string(), "cifar10_like");
        assert_eq!(DatasetPreset::Cifar10Like.paper_name(), "CIFAR-10");
        assert_eq!(Fidelity::Smoke.to_string(), "smoke");
    }
}
