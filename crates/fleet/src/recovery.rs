//! Appeal recovery policy: bounded retries with decorrelated-jitter backoff,
//! a per-appeal deadline, and the degradation ladder's last rung.
//!
//! The ladder, from cheapest to most drastic (see `docs/ROBUSTNESS.md`):
//!
//! 1. **Retry** — an appeal that times out, loses its link, or comes back
//!    corrupted is retried after a decorrelated-jitter backoff, at most
//!    [`RetryConfig::max_attempts`] times in total.
//! 2. **Degrade** — once the retry budget is exhausted, or while the node's
//!    [`CircuitBreaker`](crate::CircuitBreaker) is open, the node accepts
//!    the little net's answer and ledgers it as `DegradedLocal`. The appeal
//!    mechanism *is* the fallback: the edge already computed a full answer
//!    to score, so degradation costs no extra compute — only the accuracy
//!    delta the fault experiment measures.
//!
//! Nothing here errors a request: with a [`RecoveryConfig`] installed, every
//! request resolves to a label, faulted cloud or not.

use crate::breaker::BreakerConfig;
use crate::error::{is_non_negative, is_positive, FleetError, FleetResult};
use appeal_tensor::SeededRng;

/// Bounded-retry parameters for a single appeal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Total transmission attempts per appeal (first send included), so
    /// `max_attempts = 1` means "never retry". Must be positive.
    pub max_attempts: u32,
    /// First backoff and the lower bound of every jittered draw, in
    /// milliseconds.
    pub base_backoff_ms: f64,
    /// Backoff cap, in milliseconds; must be at least the base.
    pub max_backoff_ms: f64,
}

impl RetryConfig {
    fn validate(&self) -> FleetResult<()> {
        if self.max_attempts == 0 {
            return Err(FleetError::InvalidConfig {
                what: "retry max_attempts must be positive",
            });
        }
        if !is_positive(self.base_backoff_ms) {
            return Err(FleetError::InvalidConfig {
                what: "retry base_backoff_ms must be positive",
            });
        }
        // NaN-safe: base is already known positive, so rejecting non-positive
        // (or NaN) caps plus anything below the base matches `!(max >= base)`.
        if !is_positive(self.max_backoff_ms) || self.max_backoff_ms < self.base_backoff_ms {
            return Err(FleetError::InvalidConfig {
                what: "retry max_backoff_ms must be at least base_backoff_ms",
            });
        }
        Ok(())
    }

    /// Draws the next backoff with decorrelated jitter:
    /// `min(cap, uniform(base, 3 * prev))`, seeded from `prev_ms = 0` for
    /// the first retry (which then waits exactly the base). Decorrelated
    /// jitter spreads concurrent retriers apart instead of letting plain
    /// exponential backoff re-synchronise their retry storms.
    pub fn backoff_ms(&self, prev_ms: f64, rng: &mut SeededRng) -> f64 {
        if prev_ms <= 0.0 {
            return self.base_backoff_ms;
        }
        let high = 3.0 * prev_ms;
        let drawn =
            f64::from(rng.uniform(0.0, 1.0)) * (high - self.base_backoff_ms) + self.base_backoff_ms;
        drawn.min(self.max_backoff_ms)
    }
}

/// The full recovery policy installed per fleet (one breaker instance per
/// node). `breaker: None` gives the *naive-retry* baseline the fault
/// experiment compares against: retries and deadlines still apply, but
/// nothing ever stops the node from appealing into a dead cloud.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// How long a node waits for an appeal's answer before treating the
    /// attempt as failed, in milliseconds. Must be positive.
    pub appeal_deadline_ms: f64,
    /// The bounded-retry schedule.
    pub retry: RetryConfig,
    /// Per-node circuit breaker; `None` disables breaking entirely.
    pub breaker: Option<BreakerConfig>,
}

impl RecoveryConfig {
    /// A policy matched to [`BreakerConfig::default_for_appeals`]: 250 ms
    /// appeal deadline, up to 3 attempts backing off 10–160 ms.
    pub fn default_for_appeals() -> Self {
        Self {
            appeal_deadline_ms: 250.0,
            retry: RetryConfig {
                max_attempts: 3,
                base_backoff_ms: 10.0,
                max_backoff_ms: 160.0,
            },
            breaker: Some(BreakerConfig::default_for_appeals()),
        }
    }

    /// Validates the policy (and the embedded breaker config, if any).
    pub fn validate(&self) -> FleetResult<()> {
        if !is_positive(self.appeal_deadline_ms) {
            return Err(FleetError::InvalidConfig {
                what: "recovery appeal_deadline_ms must be positive",
            });
        }
        self.retry.validate()?;
        if let Some(breaker) = self.breaker {
            // Breaker validation lives with CircuitBreaker::new; build one
            // to reuse it.
            crate::CircuitBreaker::new(breaker)?;
        }
        Ok(())
    }
}

/// The cooperative policy layered on top of per-node breakers when the
/// gossip plane is enabled: act on *fleet* evidence before local evidence
/// accumulates.
///
/// Three levers, all driven by the node's [`FleetHealthView`]
/// (see `crate::health`):
///
/// 1. **Pre-emptive open** — when the staleness-weighted mass of unhealthy
///    neighbours reaches `quorum` and the node has seen no successful appeal
///    of its own since the last gossip round, its breaker trips without
///    burning a local outcome window.
/// 2. **Stress relief on δ** — the local-answer band widens by
///    `delta_relief · stress`: borderline appeals degrade to the little
///    net's answer instead of joining a queue the fleet already knows is
///    drowning.
/// 3. **Staggered probes** — when a breaker trips, its half-open probe is
///    deferred by `probe_stagger_ms` per lower-indexed neighbour whose
///    breaker is also open, so a recovering cloud meets a trickle of probes
///    instead of a thundering herd.
///
/// [`FleetHealthView`]: crate::health::FleetHealthView
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CooperativeConfig {
    /// Staleness-weighted unhealthy-neighbour mass at which a node
    /// pre-emptively opens its own breaker. Must be positive; fractional
    /// values let a single fresh neighbour carry the quorum.
    pub quorum: f64,
    /// Per-round appeal failure fraction at or above which a gossiped
    /// digest marks its origin unhealthy, in `(0, 1]`.
    pub unhealthy_failure_rate: f64,
    /// How far the routing threshold's local-answer band widens at stress 1,
    /// in score units. Zero disables stress shedding.
    pub delta_relief: f64,
    /// Cloud GPU backlog (EWMA of the piggybacked signal) at which cloud
    /// backpressure saturates to stress 1, in milliseconds.
    pub cloud_backlog_target_ms: f64,
    /// Half-open probe deferral per lower-indexed open neighbour, in
    /// milliseconds. Zero disables staggering (every trip still ledgers an
    /// election).
    pub probe_stagger_ms: f64,
}

impl CooperativeConfig {
    /// A policy matched to [`GossipConfig::default_for_fleet`] and
    /// [`BreakerConfig::default_for_appeals`]: one-and-a-half fresh
    /// neighbours carry the quorum, stress widens the local band by up to
    /// 0.1, and probes fan out 40 ms apart.
    ///
    /// [`GossipConfig::default_for_fleet`]: crate::gossip::GossipConfig::default_for_fleet
    pub fn default_for_fleet() -> Self {
        Self {
            quorum: 1.5,
            unhealthy_failure_rate: 0.5,
            delta_relief: 0.1,
            cloud_backlog_target_ms: 50.0,
            probe_stagger_ms: 40.0,
        }
    }

    /// Validates the policy parameters.
    pub fn validate(&self) -> FleetResult<()> {
        if !is_positive(self.quorum) {
            return Err(FleetError::InvalidConfig {
                what: "cooperative quorum must be positive",
            });
        }
        if !is_positive(self.unhealthy_failure_rate) || self.unhealthy_failure_rate > 1.0 {
            return Err(FleetError::InvalidConfig {
                what: "cooperative unhealthy_failure_rate must be in (0, 1]",
            });
        }
        if !is_non_negative(self.delta_relief) {
            return Err(FleetError::InvalidConfig {
                what: "cooperative delta_relief must be non-negative",
            });
        }
        if !is_positive(self.cloud_backlog_target_ms) {
            return Err(FleetError::InvalidConfig {
                what: "cooperative cloud_backlog_target_ms must be positive",
            });
        }
        if !is_non_negative(self.probe_stagger_ms) {
            return Err(FleetError::InvalidConfig {
                what: "cooperative probe_stagger_ms must be non-negative",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retry() -> RetryConfig {
        RetryConfig {
            max_attempts: 3,
            base_backoff_ms: 10.0,
            max_backoff_ms: 80.0,
        }
    }

    #[test]
    fn first_backoff_is_the_base_then_jittered_and_capped() {
        let cfg = retry();
        let mut rng = SeededRng::new(7);
        let first = cfg.backoff_ms(0.0, &mut rng);
        assert_eq!(first, 10.0);
        let mut prev = first;
        for _ in 0..64 {
            let next = cfg.backoff_ms(prev, &mut rng);
            assert!(
                (cfg.base_backoff_ms..=cfg.max_backoff_ms).contains(&next),
                "backoff {next} out of [base, cap]"
            );
            prev = next;
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let cfg = retry();
        let draw = |seed| {
            let mut rng = SeededRng::new(seed);
            let mut prev = 0.0;
            (0..8)
                .map(|_| {
                    prev = cfg.backoff_ms(prev, &mut rng);
                    prev
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn validation_rejects_bad_policies() {
        assert!(RecoveryConfig {
            appeal_deadline_ms: 0.0,
            ..RecoveryConfig::default_for_appeals()
        }
        .validate()
        .is_err());
        assert!(RecoveryConfig {
            retry: RetryConfig {
                max_attempts: 0,
                ..retry()
            },
            ..RecoveryConfig::default_for_appeals()
        }
        .validate()
        .is_err());
        assert!(RecoveryConfig {
            retry: RetryConfig {
                max_backoff_ms: 1.0,
                ..retry()
            },
            ..RecoveryConfig::default_for_appeals()
        }
        .validate()
        .is_err());
        assert!(RecoveryConfig {
            retry: RetryConfig {
                base_backoff_ms: f64::NAN,
                ..retry()
            },
            ..RecoveryConfig::default_for_appeals()
        }
        .validate()
        .is_err());
        let mut with_bad_breaker = RecoveryConfig::default_for_appeals();
        with_bad_breaker.breaker = Some(BreakerConfig {
            window: 0,
            ..BreakerConfig::default_for_appeals()
        });
        assert!(with_bad_breaker.validate().is_err());
        assert!(RecoveryConfig::default_for_appeals().validate().is_ok());
    }

    #[test]
    fn cooperative_validation_rejects_bad_policies() {
        assert!(CooperativeConfig::default_for_fleet().validate().is_ok());
        for bad in [
            CooperativeConfig {
                quorum: 0.0,
                ..CooperativeConfig::default_for_fleet()
            },
            CooperativeConfig {
                unhealthy_failure_rate: 0.0,
                ..CooperativeConfig::default_for_fleet()
            },
            CooperativeConfig {
                unhealthy_failure_rate: 1.5,
                ..CooperativeConfig::default_for_fleet()
            },
            CooperativeConfig {
                delta_relief: -0.1,
                ..CooperativeConfig::default_for_fleet()
            },
            CooperativeConfig {
                cloud_backlog_target_ms: 0.0,
                ..CooperativeConfig::default_for_fleet()
            },
            CooperativeConfig {
                probe_stagger_ms: f64::NAN,
                ..CooperativeConfig::default_for_fleet()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }
}
