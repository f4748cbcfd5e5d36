//! In-memory labelled image datasets and batching.

use appeal_tensor::{SeededRng, Tensor};

/// A mini-batch of images and labels.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Images, shape `[batch, channels, height, width]`.
    pub images: Tensor,
    /// Integer class labels, one per image.
    pub labels: Vec<usize>,
    /// Indices of these samples in the parent dataset.
    pub indices: Vec<usize>,
}

/// An in-memory labelled image dataset.
///
/// Every sample also carries a ground-truth *difficulty flag* recording
/// whether the synthesizer produced it as a long-tail "hard" input. The flag
/// is used only for analysis and visualization (e.g. Fig. 4-style
/// histograms); it is never shown to the models.
#[derive(Debug, Clone)]
pub struct Dataset {
    images: Tensor,
    labels: Vec<usize>,
    hard: Vec<bool>,
    num_classes: usize,
}

impl Dataset {
    /// Creates a dataset from images `[n, c, h, w]`, labels and difficulty flags.
    ///
    /// # Panics
    ///
    /// Panics if the images tensor is not rank 4, or the label / flag counts
    /// do not match the number of images, or a label is `>= num_classes`.
    pub fn new(images: Tensor, labels: Vec<usize>, hard: Vec<bool>, num_classes: usize) -> Self {
        assert_eq!(images.rank(), 4, "images must be [n, c, h, w]");
        let n = images.shape()[0];
        assert_eq!(labels.len(), n, "label count must match image count");
        assert_eq!(
            hard.len(),
            n,
            "difficulty flag count must match image count"
        );
        assert!(
            labels.iter().all(|&y| y < num_classes),
            "labels must be < num_classes"
        );
        Self {
            images,
            labels,
            hard,
            num_classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Image shape as `[channels, height, width]`.
    pub fn image_shape(&self) -> Vec<usize> {
        self.images.shape()[1..].to_vec()
    }

    /// All images, `[n, c, h, w]`.
    pub fn images(&self) -> &Tensor {
        &self.images
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Ground-truth difficulty flags (true = generated as a long-tail hard input).
    pub fn hard_flags(&self) -> &[bool] {
        &self.hard
    }

    /// Fraction of samples generated as hard inputs.
    pub fn hard_fraction(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        self.hard.iter().filter(|&&h| h).count() as f32 / self.len() as f32
    }

    /// Number of samples per class.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes];
        for &y in &self.labels {
            counts[y] += 1;
        }
        counts
    }

    /// Gathers a subset of samples by index into a [`Batch`].
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather(&self, indices: &[usize]) -> Batch {
        Batch {
            images: self.images.select_rows(indices),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            indices: indices.to_vec(),
        }
    }

    /// Returns the whole dataset as a single batch (useful for evaluation).
    pub fn full_batch(&self) -> Batch {
        self.gather(&(0..self.len()).collect::<Vec<_>>())
    }

    /// Splits the dataset into mini-batches, optionally shuffling sample order.
    ///
    /// The final batch may be smaller than `batch_size`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn batches(&self, batch_size: usize, shuffle: bool, rng: &mut SeededRng) -> Vec<Batch> {
        assert!(batch_size > 0, "batch_size must be positive");
        let order: Vec<usize> = if shuffle {
            rng.permutation(self.len())
        } else {
            (0..self.len()).collect()
        };
        order
            .chunks(batch_size)
            .map(|chunk| self.gather(chunk))
            .collect()
    }

    /// Returns a new dataset containing only the samples at `indices`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Self {
        Self {
            images: self.images.select_rows(indices),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            hard: indices.iter().map(|&i| self.hard[i]).collect(),
            num_classes: self.num_classes,
        }
    }

    /// Splits into two datasets: the first `n` samples and the rest.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn split_at(&self, n: usize) -> (Self, Self) {
        assert!(n <= self.len(), "split point beyond dataset length");
        let first: Vec<usize> = (0..n).collect();
        let second: Vec<usize> = (n..self.len()).collect();
        (self.subset(&first), self.subset(&second))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_dataset(n: usize, classes: usize) -> Dataset {
        let mut rng = SeededRng::new(1);
        let images = Tensor::randn(&[n, 1, 2, 2], &mut rng);
        let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
        let hard: Vec<bool> = (0..n).map(|i| i % 5 == 0).collect();
        Dataset::new(images, labels, hard, classes)
    }

    #[test]
    fn construction_and_accessors() {
        let ds = toy_dataset(10, 3);
        assert_eq!(ds.len(), 10);
        assert!(!ds.is_empty());
        assert_eq!(ds.num_classes(), 3);
        assert_eq!(ds.image_shape(), vec![1, 2, 2]);
        assert_eq!(ds.class_counts().iter().sum::<usize>(), 10);
        assert!((ds.hard_fraction() - 0.2).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "labels must be < num_classes")]
    fn rejects_out_of_range_label() {
        let images = Tensor::zeros(&[1, 1, 2, 2]);
        let _ = Dataset::new(images, vec![5], vec![false], 3);
    }

    #[test]
    fn gather_collects_requested_rows() {
        let ds = toy_dataset(6, 2);
        let batch = ds.gather(&[4, 1]);
        assert_eq!(batch.labels, vec![0, 1]);
        assert_eq!(batch.images.shape(), &[2, 1, 2, 2]);
        assert_eq!(batch.indices, vec![4, 1]);
    }

    #[test]
    fn batches_cover_every_sample_exactly_once() {
        let ds = toy_dataset(23, 4);
        let mut rng = SeededRng::new(2);
        let batches = ds.batches(5, true, &mut rng);
        assert_eq!(batches.len(), 5);
        let mut seen: Vec<usize> = batches.iter().flat_map(|b| b.indices.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..23).collect::<Vec<_>>());
        assert_eq!(batches.last().unwrap().labels.len(), 3);
    }

    #[test]
    fn unshuffled_batches_preserve_order() {
        let ds = toy_dataset(8, 2);
        let mut rng = SeededRng::new(3);
        let batches = ds.batches(4, false, &mut rng);
        assert_eq!(batches[0].indices, vec![0, 1, 2, 3]);
        assert_eq!(batches[1].indices, vec![4, 5, 6, 7]);
    }

    #[test]
    fn subset_and_split() {
        let ds = toy_dataset(10, 2);
        let sub = ds.subset(&[0, 2, 4]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.num_classes(), 2);
        let (a, b) = ds.split_at(7);
        assert_eq!(a.len(), 7);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn full_batch_has_all_samples() {
        let ds = toy_dataset(5, 2);
        assert_eq!(ds.full_batch().labels.len(), 5);
    }

    #[test]
    fn batch_size_zero_panics() {
        let ds = toy_dataset(4, 2);
        let mut rng = SeededRng::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ds.batches(0, false, &mut rng)
        }));
        assert!(result.is_err());
    }
}
