//! The rayon-backed batch evaluation engine.
//!
//! Evaluation passes (little network, big network, two-head network) are
//! embarrassingly parallel across samples: in eval mode every layer is a pure
//! function of its parameters, so a batch can be split into contiguous shards
//! and each shard evaluated on its own worker thread against a *replica* of
//! the model (layers are `&mut self` because they cache activations for
//! backward, so workers cannot share one instance).
//!
//! Two properties hold by construction:
//!
//! * **Determinism.** Shards are contiguous index ranges and results are
//!   concatenated in index order; per-sample outputs do not depend on which
//!   shard evaluated them (eval-mode forward passes are per-sample pure). A
//!   run with 1 thread and a run with 16 produce bit-identical artifacts.
//! * **Smoke stays cheap.** The [`ChunkPolicy`] refuses to shard workloads
//!   smaller than a fidelity-dependent floor, so smoke-scale tests (30-sample
//!   test splits) take the plain sequential path with zero clone or spawn
//!   overhead.

use crate::two_head::{TwoHeadNet, TwoHeadOutput};
use appeal_dataset::Fidelity;
use appeal_models::ClassifierParts;
use appeal_tensor::Tensor;
use std::borrow::Cow;
use std::ops::Range;

/// Decides how a batch evaluation workload is split across worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPolicy {
    /// Minimum number of samples a shard must contain. Workloads smaller
    /// than `2 * min_shard` are not split at all.
    pub min_shard: usize,
    /// Upper bound on the number of shards (and therefore worker threads).
    pub max_shards: usize,
}

impl ChunkPolicy {
    /// Policy tuned for a fidelity level.
    ///
    /// Smoke workloads are tiny (tens of samples); sharding them would be
    /// pure overhead, so the smoke policy keeps everything sequential. Paper
    /// workloads are hundreds to thousands of samples and shard freely.
    pub fn for_fidelity(fidelity: Fidelity) -> Self {
        match fidelity {
            Fidelity::Smoke => Self {
                min_shard: 256,
                max_shards: rayon::current_num_threads(),
            },
            Fidelity::Paper => Self {
                min_shard: 32,
                max_shards: rayon::current_num_threads(),
            },
        }
    }

    /// Default policy for runtime paths that do not know the fidelity
    /// (deployed [`crate::serve::Engine`] batches, training-time evaluation
    /// helpers): shard anything with at least 32 samples per worker.
    pub fn runtime() -> Self {
        Self {
            min_shard: 32,
            max_shards: rayon::current_num_threads(),
        }
    }

    /// A policy that never shards (sequential execution).
    pub fn sequential() -> Self {
        Self {
            min_shard: usize::MAX,
            max_shards: 1,
        }
    }

    /// Divides this policy's worker budget among `branches` concurrent
    /// pipelines so their combined shard count stays at the original
    /// budget: the vendored rayon shim's persistent pool caps the threads
    /// either way, but every shard past a runnable lane still pays for a
    /// model replica.
    pub fn split_across(&self, branches: usize) -> Self {
        Self {
            min_shard: self.min_shard,
            max_shards: (self.max_shards / branches.max(1)).max(1),
        }
    }

    /// Splits `0..n` into contiguous shards according to the policy.
    /// Returns a single shard when parallelism is not worthwhile: workloads
    /// smaller than `2 * min_shard` are never split, so every produced shard
    /// holds at least `min_shard` samples.
    pub fn shards(&self, n: usize) -> Vec<Range<usize>> {
        if n == 0 {
            return Vec::new();
        }
        let workers = self.max_shards.max(1);
        let shard = n.div_ceil(workers).max(self.min_shard.max(1));
        if shard >= n || n < self.min_shard.saturating_mul(2) {
            return std::iter::once(0..n).collect();
        }
        let mut out = Vec::with_capacity(n.div_ceil(shard));
        let mut start = 0;
        while start < n {
            let mut end = (start + shard).min(n);
            // A residual tail shorter than min_shard is not worth a worker
            // (and its model replica); fold it into this shard instead.
            if n - end < self.min_shard {
                end = n;
            }
            out.push(start..end);
            start = end;
        }
        out
    }

    /// Number of shards the policy would use for `n` samples.
    pub fn shard_count(&self, n: usize) -> usize {
        self.shards(n).len()
    }
}

/// Models that can be replicated onto evaluation worker threads.
///
/// A replica carries the parameters and running statistics a worker needs
/// for eval-mode forward passes, but drops the source's forward-pass
/// activation caches — workers rebuild what they need on their first batch,
/// so copying (and retaining) cached training activations is pure waste.
/// Kernel scratch arenas (`appeal_tensor::kernels::KernelScratch`) behave
/// the same way by construction: cloning a layer yields empty scratch, and
/// each replica grows its own high-water buffers on its first batch and
/// reuses them for the rest of its life.
pub trait Replica: Sync {
    /// Clones `self` for a worker, dropping activation caches.
    fn replica(&self) -> Self;
}

impl Replica for ClassifierParts {
    fn replica(&self) -> Self {
        let mut model = self.clone();
        model.clear_cache();
        model
    }
}

impl Replica for TwoHeadNet {
    fn replica(&self) -> Self {
        let mut net = self.clone();
        net.clear_cache();
        net
    }
}

/// Evaluates `n` samples by sharding them across worker threads, each thread
/// working on its own [`Replica`] of `model`. Shard results are returned in
/// index order.
///
/// `eval` receives a mutable model replica and the shard's sample range; it
/// must not depend on anything but the replica's parameters and the range
/// (which holds for all eval-mode forward passes).
///
/// Callers holding `&mut M` should handle the single-shard case with a
/// clone-free sequential pass on the original model (as the entry points in
/// this module do); this function still handles it correctly by replicating
/// once.
pub fn shard_eval<M, R, F>(model: &M, n: usize, policy: &ChunkPolicy, eval: F) -> Vec<R>
where
    M: Replica,
    R: Send,
    F: Fn(&mut M, Range<usize>) -> R + Sync,
{
    let shards = policy.shards(n);
    if shards.is_empty() {
        return Vec::new();
    }
    if shards.len() == 1 {
        let mut replica = model.replica();
        return vec![eval(&mut replica, 0..n)];
    }
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(shards.len(), || None);
    rayon::scope(|s| {
        for (shard, slot) in shards.into_iter().zip(slots.iter_mut()) {
            let eval = &eval;
            s.spawn(move |_| {
                let mut replica = model.replica();
                *slot = Some(eval(&mut replica, shard));
            });
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("evaluation shard did not produce a result"))
        .collect()
}

/// The mini-batches of `range` in `images`, `batch_size` samples each: the
/// tensor itself when one batch is all of it, otherwise a copy of its rows.
fn mini_batches<'a>(
    images: &'a Tensor,
    range: Range<usize>,
    batch_size: usize,
) -> impl Iterator<Item = Cow<'a, Tensor>> + 'a {
    assert!(batch_size > 0, "batch_size must be positive");
    let n = images.shape()[0];
    range.clone().step_by(batch_size).map(move |start| {
        let end = (start + batch_size).min(range.end);
        if start == 0 && end == n {
            Cow::Borrowed(images)
        } else {
            Cow::Owned(images.select_rows(&(start..end).collect::<Vec<_>>()))
        }
    })
}

/// Appends `out` to `rows`, or takes `out` itself while `rows` is empty.
fn append(rows: &mut Vec<f32>, out: Vec<f32>) {
    if rows.is_empty() {
        *rows = out;
    } else {
        rows.extend_from_slice(&out);
    }
}

/// `rows` as one `[n, rows.len() / n]` tensor.
fn stack(rows: Vec<f32>, n: usize) -> Tensor {
    let width = rows.len() / n.max(1);
    Tensor::from_vec(rows, &[n, width]).expect("every sample has one row of equal width")
}

/// Sequential core of a classifier evaluation pass: runs `model` over the
/// samples of `range` in `batch_size` mini-batches and returns their logits
/// rows, in order, as one buffer.
pub(crate) fn logits_rows(
    model: &mut ClassifierParts,
    images: &Tensor,
    range: Range<usize>,
    batch_size: usize,
) -> Vec<f32> {
    let mut rows = Vec::new();
    for batch in mini_batches(images, range, batch_size) {
        append(&mut rows, model.forward(&batch, false).into_vec());
    }
    rows
}

/// Runs a classifier over a dataset in mini-batches, sharding the samples
/// across worker threads per `policy`, and returns the stacked logits.
///
/// Workloads the policy keeps on a single shard are evaluated in place on
/// the calling thread — no model replica is cloned — and a mini-batch that
/// is the whole input is forwarded without a copy.
pub fn classifier_logits(
    model: &mut ClassifierParts,
    images: &Tensor,
    batch_size: usize,
    policy: &ChunkPolicy,
) -> Tensor {
    let n = images.shape()[0];
    let rows = if policy.shard_count(n) <= 1 {
        logits_rows(model, images, 0..n, batch_size)
    } else {
        shard_eval(&*model, n, policy, |m, range| {
            logits_rows(m, images, range, batch_size)
        })
        .concat()
    };
    stack(rows, n)
}

/// Per-sample correctness of a classifier over a labelled dataset, evaluated
/// in parallel per `policy`.
pub fn classifier_correctness(
    model: &mut ClassifierParts,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
    policy: &ChunkPolicy,
) -> Vec<bool> {
    classifier_logits(model, images, batch_size, policy)
        .argmax_rows()
        .iter()
        .zip(labels.iter())
        .map(|(p, y)| p == y)
        .collect()
}

/// Sequential core of a two-head evaluation pass over `range`: the logits
/// rows as one buffer, and the scores.
pub(crate) fn two_head_rows(
    net: &mut TwoHeadNet,
    images: &Tensor,
    range: Range<usize>,
    batch_size: usize,
) -> (Vec<f32>, Vec<f32>) {
    let mut rows = Vec::new();
    let mut q = Vec::new();
    for batch in mini_batches(images, range, batch_size) {
        let out = net.forward(&batch, false);
        append(&mut rows, out.logits.into_vec());
        append(&mut q, out.q);
    }
    (rows, q)
}

/// Runs the two-head network over a dataset in mini-batches, sharding the
/// samples across worker threads per `policy`.
///
/// Workloads the policy keeps on a single shard are evaluated in place on
/// the calling thread — no model replica is cloned — and a mini-batch that
/// is the whole input is forwarded without a copy.
pub fn two_head_output(
    net: &mut TwoHeadNet,
    images: &Tensor,
    batch_size: usize,
    policy: &ChunkPolicy,
) -> TwoHeadOutput {
    let n = images.shape()[0];
    let (rows, q) = if policy.shard_count(n) <= 1 {
        two_head_rows(net, images, 0..n, batch_size)
    } else {
        let shards = shard_eval(&*net, n, policy, |m, range| {
            two_head_rows(m, images, range, batch_size)
        });
        let (rows, q): (Vec<_>, Vec<_>) = shards.into_iter().unzip();
        (rows.concat(), q.concat())
    };
    TwoHeadOutput {
        logits: stack(rows, n),
        q,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plain data stands in for a model in the sharding tests.
    impl Replica for usize {
        fn replica(&self) -> Self {
            *self
        }
    }

    #[test]
    fn smoke_policy_never_shards_small_workloads() {
        let policy = ChunkPolicy::for_fidelity(Fidelity::Smoke);
        assert_eq!(policy.shard_count(30), 1);
        assert_eq!(policy.shard_count(255), 1);
    }

    #[test]
    fn runtime_policy_shards_large_batches() {
        let policy = ChunkPolicy {
            min_shard: 32,
            max_shards: 4,
        };
        assert_eq!(policy.shard_count(16), 1);
        assert_eq!(policy.shard_count(64), 2);
        let shards = policy.shards(128);
        assert_eq!(shards.len(), 4);
        // Shards tile 0..n contiguously.
        let mut expected_start = 0;
        for s in &shards {
            assert_eq!(s.start, expected_start);
            expected_start = s.end;
        }
        assert_eq!(expected_start, 128);
    }

    #[test]
    fn every_shard_meets_the_min_shard_floor() {
        let policy = ChunkPolicy {
            min_shard: 32,
            max_shards: 8,
        };
        for n in [1, 31, 33, 63, 64, 65, 100, 127, 129, 255, 1000] {
            for s in policy.shards(n) {
                assert!(
                    s.len() >= 32.min(n),
                    "n={n}: shard {s:?} is below the min_shard floor"
                );
            }
        }
        // Workloads below 2 * min_shard are never split at all.
        assert_eq!(policy.shard_count(63), 1);
        assert_eq!(policy.shard_count(33), 1);
    }

    #[test]
    fn sequential_policy_is_one_shard() {
        let policy = ChunkPolicy::sequential();
        assert_eq!(policy.shard_count(1_000_000), 1);
    }

    #[test]
    fn shards_of_empty_workload_is_empty() {
        assert!(ChunkPolicy::runtime().shards(0).is_empty());
    }

    #[test]
    fn shard_eval_concatenates_in_index_order() {
        let policy = ChunkPolicy {
            min_shard: 8,
            max_shards: 4,
        };
        // "Model" is a base offset; eval returns the sample indices plus base.
        let model = 1000usize;
        let results = shard_eval(&model, 100, &policy, |m, range| {
            range.map(|i| *m + i).collect::<Vec<_>>()
        });
        let flat: Vec<usize> = results.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).map(|i| 1000 + i).collect::<Vec<_>>());
    }

    #[test]
    fn shard_eval_matches_sequential_result() {
        let seq = shard_eval(&0usize, 50, &ChunkPolicy::sequential(), |_, r| {
            r.map(|i| i * i).collect::<Vec<_>>()
        });
        let par = shard_eval(
            &0usize,
            50,
            &ChunkPolicy {
                min_shard: 4,
                max_shards: 8,
            },
            |_, r| r.map(|i| i * i).collect::<Vec<_>>(),
        );
        let seq: Vec<usize> = seq.into_iter().flatten().collect();
        let par: Vec<usize> = par.into_iter().flatten().collect();
        assert_eq!(seq, par);
    }
}
