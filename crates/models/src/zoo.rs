//! Model families and specifications.

use crate::builder::{build_parts, ClassifierParts};
use appeal_tensor::SeededRng;
use std::fmt;

/// CNN architecture families available in the zoo.
///
/// The first three are "efficient" families suitable for edge deployment
/// (counterparts of the paper's MobileNet / EfficientNet / ShuffleNet); the
/// last is the big cloud network (counterpart of ResNet-101).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Depthwise-separable convolutions (MobileNet-style).
    MobileNetLike,
    /// Wider standard convolutions with one residual stage (EfficientNet-style).
    EfficientNetLike,
    /// Depthwise + pointwise convolutions with channel shuffle (ShuffleNet-style).
    ShuffleNetLike,
    /// Deep residual network (ResNet-style) — the big cloud model.
    ResNetLike,
}

impl ModelFamily {
    /// The three efficient (edge) families.
    pub fn little_families() -> [ModelFamily; 3] {
        [
            ModelFamily::MobileNetLike,
            ModelFamily::EfficientNetLike,
            ModelFamily::ShuffleNetLike,
        ]
    }

    /// Short name used in tables and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ModelFamily::MobileNetLike => "mobilenet_like",
            ModelFamily::EfficientNetLike => "efficientnet_like",
            ModelFamily::ShuffleNetLike => "shufflenet_like",
            ModelFamily::ResNetLike => "resnet_like",
        }
    }

    /// Name of the architecture this family stands in for in the paper.
    pub fn paper_name(&self) -> &'static str {
        match self {
            ModelFamily::MobileNetLike => "MobileNet",
            ModelFamily::EfficientNetLike => "EfficientNet",
            ModelFamily::ShuffleNetLike => "ShuffleNet",
            ModelFamily::ResNetLike => "ResNet-101",
        }
    }

    /// Returns `true` for the efficient edge families.
    pub fn is_little(&self) -> bool {
        !matches!(self, ModelFamily::ResNetLike)
    }
}

impl fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Full specification of a model instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Architecture family.
    pub family: ModelFamily,
    /// Channel width multiplier (1.0 = the family's base width).
    pub width: f32,
    /// Input image shape `[channels, height, width]`.
    pub input_shape: [usize; 3],
    /// Number of output classes.
    pub num_classes: usize,
}

impl ModelSpec {
    /// Specification for a little (edge) model at base width.
    ///
    /// # Panics
    ///
    /// Panics if `family` is not one of the little families.
    pub fn little(family: ModelFamily, input_shape: [usize; 3], num_classes: usize) -> Self {
        assert!(family.is_little(), "little() requires an efficient family");
        Self {
            family,
            width: 1.0,
            input_shape,
            num_classes,
        }
    }

    /// Specification for the big (cloud) model.
    pub fn big(input_shape: [usize; 3], num_classes: usize) -> Self {
        Self {
            family: ModelFamily::ResNetLike,
            width: 1.0,
            input_shape,
            num_classes,
        }
    }

    /// Returns a copy with a different width multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive.
    pub fn with_width(mut self, width: f32) -> Self {
        assert!(width > 0.0, "width multiplier must be positive");
        self.width = width;
        self
    }

    /// Builds the model (backbone + classifier head) with freshly initialized weights.
    pub fn build(&self, rng: &mut SeededRng) -> ClassifierParts {
        build_parts(self, rng)
    }
}

impl fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(w={}, in={:?}, classes={})",
            self.family, self.width, self.input_shape, self.num_classes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_and_predicates() {
        assert_eq!(ModelFamily::MobileNetLike.name(), "mobilenet_like");
        assert_eq!(ModelFamily::ResNetLike.paper_name(), "ResNet-101");
        assert!(ModelFamily::ShuffleNetLike.is_little());
        assert!(!ModelFamily::ResNetLike.is_little());
        assert_eq!(ModelFamily::little_families().len(), 3);
    }

    #[test]
    fn spec_constructors() {
        let little = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 10);
        assert_eq!(little.width, 1.0);
        let big = ModelSpec::big([3, 12, 12], 10);
        assert_eq!(big.family, ModelFamily::ResNetLike);
        let wide = little.clone().with_width(2.0);
        assert_eq!(wide.width, 2.0);
    }

    #[test]
    #[should_panic(expected = "requires an efficient family")]
    fn little_rejects_big_family() {
        let _ = ModelSpec::little(ModelFamily::ResNetLike, [3, 12, 12], 10);
    }

    #[test]
    fn display_is_informative() {
        let spec = ModelSpec::big([3, 16, 16], 200);
        let s = spec.to_string();
        assert!(s.contains("resnet_like"));
        assert!(s.contains("200"));
    }
}
