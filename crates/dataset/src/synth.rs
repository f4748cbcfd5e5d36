//! Synthetic long-tail image synthesis.
//!
//! Each class is defined by a smooth low-frequency *prototype* image. "Easy"
//! samples are mild perturbations of the prototype (noise, brightness and
//! contrast jitter). "Hard" samples — the long tail the AppealNet predictor
//! must learn to detect — are produced by one of three corruptions:
//!
//! 1. heavy additive noise,
//! 2. occlusion of a large rectangular patch,
//! 3. blending with the prototype of a *different* class (the true class
//!    remains dominant, so a high-capacity model can still recover it).
//!
//! The ground-truth "hard" flag is stored in the dataset for analysis but is
//! never visible to the models.

use crate::dataset::Dataset;
use appeal_tensor::{SeededRng, Tensor};

/// Configuration of a synthetic dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Number of classes.
    pub num_classes: usize,
    /// Image channels.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Number of training samples.
    pub train_size: usize,
    /// Number of test samples.
    pub test_size: usize,
    /// Fraction of samples drawn from the hard long tail.
    pub hard_fraction: f32,
    /// Standard deviation of the additive noise on easy samples.
    pub noise_std: f32,
    /// Standard deviation of the additive noise on heavy-noise hard samples.
    pub hard_noise_std: f32,
    /// Fraction of the image area covered by an occlusion patch on occluded hard samples.
    pub occlusion_frac: f32,
    /// Blend weight of the distractor class on mixed hard samples (0 = no mixing).
    pub mix_alpha: f32,
    /// Size of the coarse grid from which class prototypes are upsampled.
    pub proto_grid: usize,
    /// Seed controlling prototypes and sample noise.
    pub seed: u64,
}

impl SynthSpec {
    /// Generates the train/test pair described by this specification.
    ///
    /// Prototypes are shared between the train and test splits (they describe
    /// the same underlying distribution); sample noise is independent.
    pub fn generate(&self) -> DatasetPair {
        let mut rng = SeededRng::new(self.seed);
        let prototypes = self.make_prototypes(&mut rng);
        let mut train_rng = rng.split();
        let mut test_rng = rng.split();
        let train = self.sample_split(self.train_size, &prototypes, &mut train_rng);
        let test = self.sample_split(self.test_size, &prototypes, &mut test_rng);
        DatasetPair { train, test }
    }

    /// Total number of pixels per image.
    pub fn pixels(&self) -> usize {
        self.channels * self.height * self.width
    }

    fn make_prototypes(&self, rng: &mut SeededRng) -> Vec<Vec<f32>> {
        (0..self.num_classes)
            .map(|_| self.smooth_pattern(rng))
            .collect()
    }

    /// A smooth pattern: coarse random grid, bilinearly upsampled per channel.
    fn smooth_pattern(&self, rng: &mut SeededRng) -> Vec<f32> {
        let g = self.proto_grid.max(2);
        let mut out = vec![0.0f32; self.pixels()];
        for c in 0..self.channels {
            let coarse: Vec<f32> = (0..g * g).map(|_| rng.normal(0.0, 1.0)).collect();
            for y in 0..self.height {
                for x in 0..self.width {
                    // Map pixel coordinates into coarse-grid coordinates.
                    let fy = y as f32 / (self.height - 1).max(1) as f32 * (g - 1) as f32;
                    let fx = x as f32 / (self.width - 1).max(1) as f32 * (g - 1) as f32;
                    let (y0, x0) = (fy.floor() as usize, fx.floor() as usize);
                    let (y1, x1) = ((y0 + 1).min(g - 1), (x0 + 1).min(g - 1));
                    let (dy, dx) = (fy - y0 as f32, fx - x0 as f32);
                    let v = coarse[y0 * g + x0] * (1.0 - dy) * (1.0 - dx)
                        + coarse[y0 * g + x1] * (1.0 - dy) * dx
                        + coarse[y1 * g + x0] * dy * (1.0 - dx)
                        + coarse[y1 * g + x1] * dy * dx;
                    out[(c * self.height + y) * self.width + x] = v;
                }
            }
        }
        out
    }

    fn sample_split(&self, n: usize, prototypes: &[Vec<f32>], rng: &mut SeededRng) -> Dataset {
        let pixels = self.pixels();
        let mut data = Vec::with_capacity(n * pixels);
        let mut labels = Vec::with_capacity(n);
        let mut hard_flags = Vec::with_capacity(n);
        for _ in 0..n {
            let class = rng.below(self.num_classes);
            let hard = rng.bernoulli(self.hard_fraction);
            let image = self.sample_image(class, hard, prototypes, rng);
            data.extend_from_slice(&image);
            labels.push(class);
            hard_flags.push(hard);
        }
        let images = Tensor::from_vec(data, &[n, self.channels, self.height, self.width])
            .expect("synthesized data length matches shape");
        Dataset::new(images, labels, hard_flags, self.num_classes)
    }

    fn sample_image(
        &self,
        class: usize,
        hard: bool,
        prototypes: &[Vec<f32>],
        rng: &mut SeededRng,
    ) -> Vec<f32> {
        let pixels = self.pixels();
        let proto = &prototypes[class];
        let contrast = 1.0 + rng.normal(0.0, 0.1);
        let brightness = rng.normal(0.0, 0.1);
        let mut image: Vec<f32> = proto.iter().map(|&v| v * contrast + brightness).collect();

        if !hard {
            for v in image.iter_mut() {
                *v += rng.normal(0.0, self.noise_std);
            }
            return image;
        }

        // Hard long-tail sample: pick one of three corruption modes.
        match rng.below(3) {
            0 => {
                // Heavy noise.
                for v in image.iter_mut() {
                    *v += rng.normal(0.0, self.hard_noise_std);
                }
            }
            1 => {
                // Occlusion: overwrite a rectangle with noise.
                let area = (self.height * self.width) as f32 * self.occlusion_frac;
                let side = area.sqrt().round().max(1.0) as usize;
                let side_h = side.min(self.height);
                let side_w = side.min(self.width);
                let y0 = rng.below(self.height - side_h + 1);
                let x0 = rng.below(self.width - side_w + 1);
                for c in 0..self.channels {
                    for y in y0..y0 + side_h {
                        for x in x0..x0 + side_w {
                            image[(c * self.height + y) * self.width + x] = rng.normal(0.0, 1.0);
                        }
                    }
                }
                for v in image.iter_mut() {
                    *v += rng.normal(0.0, self.noise_std);
                }
            }
            _ => {
                // Class mixing: blend in a distractor prototype.
                let mut other = rng.below(self.num_classes);
                if self.num_classes > 1 {
                    while other == class {
                        other = rng.below(self.num_classes);
                    }
                }
                let alpha = self.mix_alpha;
                let distractor = &prototypes[other];
                for i in 0..pixels {
                    image[i] = (1.0 - alpha) * image[i] + alpha * distractor[i];
                    image[i] += rng.normal(0.0, self.noise_std);
                }
            }
        }
        image
    }
}

/// A train/test pair produced by [`SynthSpec::generate`].
#[derive(Debug, Clone)]
pub struct DatasetPair {
    /// Training split.
    pub train: Dataset,
    /// Held-out test split.
    pub test: Dataset,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SynthSpec {
        SynthSpec {
            name: "tiny".to_string(),
            num_classes: 4,
            channels: 3,
            height: 8,
            width: 8,
            train_size: 200,
            test_size: 80,
            hard_fraction: 0.25,
            noise_std: 0.2,
            hard_noise_std: 1.0,
            occlusion_frac: 0.4,
            mix_alpha: 0.45,
            proto_grid: 4,
            seed: 7,
        }
    }

    #[test]
    fn generates_requested_sizes_and_shapes() {
        let pair = tiny_spec().generate();
        assert_eq!(pair.train.len(), 200);
        assert_eq!(pair.test.len(), 80);
        assert_eq!(pair.train.image_shape(), vec![3, 8, 8]);
        assert_eq!(pair.train.num_classes(), 4);
    }

    #[test]
    fn generation_is_deterministic_given_seed() {
        let a = tiny_spec().generate();
        let b = tiny_spec().generate();
        assert_eq!(a.train.images().data(), b.train.images().data());
        assert_eq!(a.train.labels(), b.train.labels());
    }

    #[test]
    fn different_seeds_differ() {
        let a = tiny_spec().generate();
        let mut spec = tiny_spec();
        spec.seed = 8;
        let b = spec.generate();
        assert_ne!(a.train.images().data(), b.train.images().data());
    }

    #[test]
    fn hard_fraction_is_roughly_respected() {
        let mut spec = tiny_spec();
        spec.train_size = 4000;
        let pair = spec.generate();
        assert!((pair.train.hard_fraction() - 0.25).abs() < 0.04);
    }

    #[test]
    fn every_class_is_represented() {
        let pair = tiny_spec().generate();
        let counts = pair.train.class_counts();
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn images_are_finite() {
        let pair = tiny_spec().generate();
        assert!(pair.train.images().all_finite());
        assert!(pair.test.images().all_finite());
    }

    #[test]
    fn prototypes_are_class_separable_for_a_nearest_prototype_classifier() {
        // Easy samples should sit closer to their own prototype than to other
        // prototypes most of the time — the basic sanity check that the task
        // is learnable.
        let spec = tiny_spec();
        let mut rng = SeededRng::new(spec.seed);
        let protos = spec.make_prototypes(&mut rng);
        let pair = spec.generate();
        let train = &pair.train;
        let pixels = spec.pixels();
        let mut correct = 0;
        let mut total = 0;
        for i in 0..train.len() {
            if train.hard_flags()[i] {
                continue;
            }
            let img = &train.images().data()[i * pixels..(i + 1) * pixels];
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (k, p) in protos.iter().enumerate() {
                let d: f32 = img.iter().zip(p.iter()).map(|(a, b)| (a - b).powi(2)).sum();
                if d < best_d {
                    best_d = d;
                    best = k;
                }
            }
            if best == train.labels()[i] {
                correct += 1;
            }
            total += 1;
        }
        let acc = correct as f32 / total as f32;
        assert!(
            acc > 0.9,
            "nearest-prototype accuracy on easy samples was {acc}"
        );
    }

    #[test]
    fn hard_samples_are_farther_from_their_prototype() {
        let spec = tiny_spec();
        let mut rng = SeededRng::new(spec.seed);
        let protos = spec.make_prototypes(&mut rng);
        let pair = spec.generate();
        let train = &pair.train;
        let pixels = spec.pixels();
        let mut easy_d = Vec::new();
        let mut hard_d = Vec::new();
        for i in 0..train.len() {
            let img = &train.images().data()[i * pixels..(i + 1) * pixels];
            let p = &protos[train.labels()[i]];
            let d: f32 = img.iter().zip(p.iter()).map(|(a, b)| (a - b).powi(2)).sum();
            if train.hard_flags()[i] {
                hard_d.push(d);
            } else {
                easy_d.push(d);
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(mean(&hard_d) > mean(&easy_d) * 1.3);
    }
}
