//! The typed error surface of the public API.
//!
//! Invalid *user* inputs — an out-of-range threshold, a NaN routing score, an
//! empty artifact set, a malformed request tensor — are reported as
//! [`CoreError`] values instead of panics. Internal invariants (shard
//! bookkeeping, parameter-shape agreement between replicas) remain `assert!`s:
//! violating them is a bug in this crate, not a caller mistake.

use crate::scores::ScoreKind;
use std::fmt;
use std::time::Duration;

/// Errors returned by the public routing / tuning / serving APIs.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A routing threshold δ outside `[0, 1]` (or NaN) was supplied where the
    /// predictor-score convention requires a probability.
    InvalidThreshold(f64),
    /// A target skipping rate / accuracy outside `[0, 1]` (or NaN).
    InvalidRate(f64),
    /// A routing score is NaN; quantile and sort based queries are undefined.
    InvalidScore {
        /// Index of the first offending score.
        index: usize,
    },
    /// The requested score kind cannot be used here (e.g. deriving
    /// [`ScoreKind::AppealNetQ`] from softmax probabilities).
    InvalidScoreKind(ScoreKind),
    /// The engine's micro-batch capacity must be positive.
    InvalidMaxBatch,
    /// An operation that needs evaluated samples was given empty artifacts.
    EmptyArtifacts,
    /// A sweep was requested over an empty method list.
    EmptyMethods,
    /// Per-sample artifact vectors disagree in length.
    LengthMismatch {
        /// Which artifact field has the wrong length.
        field: &'static str,
        /// The length of `scores`, which every per-sample field must match.
        expected: usize,
        /// The offending field's length.
        got: usize,
    },
    /// A request or batch tensor does not match the model's input shape.
    ShapeMismatch {
        /// The shape the engine's edge model expects (per sample).
        expected: Vec<usize>,
        /// The shape that was supplied.
        got: Vec<usize>,
    },
    /// A builder was finalized without a required component.
    MissingComponent(&'static str),
    /// No operating point reaches the requested target.
    UnreachableTarget {
        /// The target that could not be met.
        target: f64,
    },
    /// The engine's micro-batch queue buffers desynchronized (a panic unwound
    /// mid-enqueue, or a caller poked internal state). The corrupt queue is
    /// dropped atomically before this is returned, so the engine is already
    /// consistent again — but the listed pending requests were lost and must
    /// be resubmitted.
    CorruptQueue {
        /// Requests that were queued when the corruption was detected.
        pending: usize,
        /// Bytes-worth of samples the id queue implied (`n·c·h·w` floats).
        expected: usize,
        /// Floats actually present in the data queue.
        got: usize,
    },
    /// The server's bounded admission queue is full; the request was rejected
    /// for backpressure. Retry after draining some in-flight work.
    Overloaded {
        /// The admission capacity that was exhausted.
        capacity: usize,
    },
    /// The request was shed by the server's cost-budget overload policy
    /// (the accounting window's offload budget is spent).
    Shed,
    /// The serving front-end has shut down and no longer answers requests.
    ServerStopped,
    /// The server's admission queue must hold at least one request.
    InvalidQueueCapacity,
    /// A shed policy's accounting window must cover at least one request.
    InvalidShedWindow,
    /// The caller's per-request deadline elapsed before the answer arrived.
    /// The request is still in flight on the server (its admission slot is
    /// released only when the batcher settles it), but this ticket has
    /// abandoned the answer.
    DeadlineExceeded {
        /// The deadline that elapsed.
        deadline: Duration,
    },
    /// The batcher thread panicked. Its panic fence fails every queued
    /// request with this error and marks the server dead; already-coalescing
    /// tickets resolve with it too (via their disconnected channels), so no
    /// client hangs. The server cannot recover — restart it.
    BatcherPanicked,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidThreshold(t) => {
                write!(f, "routing threshold must be in [0, 1], got {t}")
            }
            CoreError::InvalidRate(r) => {
                write!(f, "target rate must be in [0, 1], got {r}")
            }
            CoreError::InvalidScore { index } => {
                write!(f, "routing score at index {index} is NaN")
            }
            CoreError::InvalidScoreKind(kind) => {
                write!(f, "score kind {kind} cannot be used in this context")
            }
            CoreError::InvalidMaxBatch => write!(f, "max_batch must be positive"),
            CoreError::EmptyArtifacts => write!(f, "no evaluation artifacts"),
            CoreError::EmptyMethods => write!(f, "at least one method is required"),
            CoreError::LengthMismatch {
                field,
                expected,
                got,
            } => {
                write!(
                    f,
                    "artifact field {field} has {got} entries, expected {expected}"
                )
            }
            CoreError::ShapeMismatch { expected, got } => {
                write!(
                    f,
                    "input shape mismatch: expected {expected:?}, got {got:?}"
                )
            }
            CoreError::MissingComponent(what) => {
                write!(f, "engine builder is missing a required component: {what}")
            }
            CoreError::UnreachableTarget { target } => {
                write!(f, "no operating point reaches the target {target}")
            }
            CoreError::CorruptQueue {
                pending,
                expected,
                got,
            } => {
                write!(
                    f,
                    "micro-batch queue desynchronized ({pending} pending ids imply \
                     {expected} floats, found {got}); the queue was dropped and the \
                     lost requests must be resubmitted"
                )
            }
            CoreError::Overloaded { capacity } => {
                write!(
                    f,
                    "admission queue full ({capacity} requests in flight); retry later"
                )
            }
            CoreError::Shed => {
                write!(
                    f,
                    "request shed: the overload policy's cost budget is spent"
                )
            }
            CoreError::ServerStopped => write!(f, "the serving front-end has shut down"),
            CoreError::InvalidQueueCapacity => write!(f, "queue_capacity must be positive"),
            CoreError::InvalidShedWindow => {
                write!(f, "shed policy window must cover at least one request")
            }
            CoreError::DeadlineExceeded { deadline } => {
                write!(
                    f,
                    "no answer within the per-request deadline of {deadline:?}"
                )
            }
            CoreError::BatcherPanicked => {
                write!(
                    f,
                    "the batcher thread panicked; in-flight requests were failed \
                     and the server must be restarted"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenience alias for results of the public API.
pub type CoreResult<T> = Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        assert!(CoreError::InvalidThreshold(1.5)
            .to_string()
            .contains("[0, 1]"));
        assert!(CoreError::InvalidScore { index: 3 }
            .to_string()
            .contains('3'));
        assert!(CoreError::ShapeMismatch {
            expected: vec![3, 12, 12],
            got: vec![1, 12, 12],
        }
        .to_string()
        .contains("expected"));
        assert!(CoreError::MissingComponent("big model")
            .to_string()
            .contains("big model"));
        assert!(CoreError::UnreachableTarget { target: 0.99 }
            .to_string()
            .contains("0.99"));
        assert!(CoreError::InvalidScoreKind(ScoreKind::AppealNetQ)
            .to_string()
            .contains("AppealNet"));
        let corrupt = CoreError::CorruptQueue {
            pending: 2,
            expected: 864,
            got: 10,
        };
        assert!(corrupt.to_string().contains("864"));
        assert!(corrupt.to_string().contains("resubmitted"));
        assert!(CoreError::Overloaded { capacity: 64 }
            .to_string()
            .contains("64"));
        assert!(CoreError::Shed.to_string().contains("budget"));
        assert!(CoreError::ServerStopped.to_string().contains("shut down"));
        assert!(CoreError::InvalidQueueCapacity
            .to_string()
            .contains("queue_capacity"));
        assert!(CoreError::InvalidShedWindow.to_string().contains("window"));
        assert!(CoreError::DeadlineExceeded {
            deadline: Duration::from_millis(7)
        }
        .to_string()
        .contains("7ms"));
        assert!(CoreError::BatcherPanicked.to_string().contains("panicked"));
    }

    #[test]
    fn implements_std_error() {
        let err: Box<dyn std::error::Error> = Box::new(CoreError::EmptyArtifacts);
        assert_eq!(err.to_string(), "no evaluation artifacts");
    }
}
