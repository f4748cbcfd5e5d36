//! Deterministic gossip of per-node health digests.
//!
//! Every gossip round each node packages its own appeal-path health into a
//! [`HealthDigest`](crate::health::HealthDigest) and pushes it — together
//! with everything it has heard about other nodes — to a small random peer
//! set. Receivers merge entries newest-first into their
//! [`FleetHealthView`](crate::health::FleetHealthView); older-than-known
//! entries are dropped as stale and ledgered. Delivery is modeled as
//! instantaneous and reliable (digests are a handful of bytes next to the
//! kilobyte-scale appeal tensors, and gossip redundancy masks loss), so the
//! interesting dynamics — propagation rounds, staleness decay, quorum
//! crossings — come from the *round structure*, not a second link model.
//!
//! Determinism contract: round timing and peer selection draw from two
//! dedicated [`SeededRng`] streams salted off the fleet seed. The simulator's
//! image and link streams are never touched, so
//! [`GossipConfig::disabled()`] replays the exact PR 8 event sequence
//! byte-for-byte, and an enabled plane is itself a pure function of
//! `(fleet seed, gossip config)`.

use crate::error::{is_positive, FleetError, FleetResult};
use crate::ms_to_nanos;
use appeal_tensor::SeededRng;

/// Stream salts for the gossip plane's two dedicated RNG streams. Arbitrary
/// odd constants; they only need to differ from each other and from the
/// simulator's image/link salts.
const TIMING_SALT: u64 = 0xA076_1D64_78BD_642F;
const PEER_SALT: u64 = 0xE703_7ED1_A0B4_28DB;

/// Parameters of the fleet health gossip plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// Master switch. Disabled means *no gossip events exist at all*: the
    /// simulator schedules nothing and replays the pre-gossip event
    /// sequence byte-for-byte.
    pub enabled: bool,
    /// Nominal gap between gossip rounds, in virtual milliseconds.
    pub interval_ms: f64,
    /// Relative round-timing jitter in `[0, 1)`: each gap is drawn uniformly
    /// from `interval · [1 − jitter, 1 + jitter]`, desynchronising rounds
    /// from the request arrival process.
    pub jitter: f64,
    /// How many distinct peers each node pushes to per round.
    pub fanout: usize,
    /// Staleness horizon, in milliseconds: a digest's weight decays linearly
    /// from 1 to 0 over this age, and fully decayed entries stop counting
    /// toward quorum or elections.
    pub stale_ms: f64,
}

impl GossipConfig {
    /// Gossip off — the byte-identical pre-gossip baseline.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            interval_ms: 0.0,
            jitter: 0.0,
            fanout: 0,
            stale_ms: 0.0,
        }
    }

    /// A plane tuned for the simulator's millisecond-scale fleets: rounds
    /// every 10 ms (±20 %), push to 2 peers, 80 ms staleness horizon — a
    /// breaker trip reaches the whole fleet within a few rounds and fades
    /// out well before the default 200 ms open timer expires.
    pub fn default_for_fleet() -> Self {
        Self {
            enabled: true,
            interval_ms: 10.0,
            jitter: 0.2,
            fanout: 2,
            stale_ms: 80.0,
        }
    }

    /// Validates the config. A disabled plane is always valid; an enabled
    /// one needs a positive interval and horizon, jitter in `[0, 1)`, and at
    /// least one peer of fanout.
    pub fn validate(&self) -> FleetResult<()> {
        if !self.enabled {
            return Ok(());
        }
        if !is_positive(self.interval_ms) {
            return Err(FleetError::InvalidConfig {
                what: "gossip interval_ms must be positive",
            });
        }
        if !(self.jitter >= 0.0 && self.jitter < 1.0) {
            return Err(FleetError::InvalidConfig {
                what: "gossip jitter must be in [0, 1)",
            });
        }
        if self.fanout == 0 {
            return Err(FleetError::InvalidConfig {
                what: "gossip fanout must be positive",
            });
        }
        if !is_positive(self.stale_ms) {
            return Err(FleetError::InvalidConfig {
                what: "gossip stale_ms must be positive",
            });
        }
        Ok(())
    }

    /// The staleness horizon in virtual nanoseconds.
    pub fn stale_nanos(&self) -> u64 {
        ms_to_nanos(self.stale_ms)
    }
}

/// The gossip plane's deterministic scheduling state: round timing and peer
/// selection, each on its own seeded stream.
pub struct GossipPlane {
    config: GossipConfig,
    timing_rng: SeededRng,
    peer_rng: SeededRng,
}

impl GossipPlane {
    /// Builds the plane for a validated, enabled config, salting both
    /// streams off the fleet seed so they are independent of the simulator's
    /// image and link streams.
    pub fn new(config: GossipConfig, fleet_seed: u64) -> Self {
        Self {
            config,
            timing_rng: SeededRng::new(fleet_seed ^ TIMING_SALT),
            peer_rng: SeededRng::new(fleet_seed ^ PEER_SALT),
        }
    }

    /// The configuration the plane runs under.
    pub fn config(&self) -> &GossipConfig {
        &self.config
    }

    /// Virtual time of the next round after `now_nanos`: one jittered
    /// interval ahead, and always at least 1 ns so rounds make progress.
    pub fn next_round_nanos(&mut self, now_nanos: u64) -> u64 {
        let factor = if self.config.jitter > 0.0 {
            let j = self.config.jitter;
            f64::from(self.timing_rng.uniform((1.0 - j) as f32, (1.0 + j) as f32))
        } else {
            1.0
        };
        now_nanos.saturating_add(ms_to_nanos(self.config.interval_ms * factor).max(1))
    }

    /// Draws `node`'s push targets for one round: `min(fanout, nodes − 1)`
    /// distinct peers, never the node itself, via a partial Fisher–Yates
    /// shuffle on the peer stream. Deterministic in draw order: the
    /// simulator calls this for node 0, 1, … each round.
    pub fn select_peers(&mut self, node: usize, nodes: usize) -> Vec<usize> {
        let mut candidates: Vec<usize> = (0..nodes).filter(|&p| p != node).collect();
        let picks = self.config.fanout.min(candidates.len());
        let mut peers = Vec::with_capacity(picks);
        for i in 0..picks {
            let j = i + self.peer_rng.below(candidates.len() - i);
            candidates.swap(i, j);
            peers.push(candidates[i]);
        }
        peers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_valid_and_enabled_is_checked() {
        assert!(GossipConfig::disabled().validate().is_ok());
        assert!(GossipConfig::default_for_fleet().validate().is_ok());
        for bad in [
            GossipConfig {
                interval_ms: 0.0,
                ..GossipConfig::default_for_fleet()
            },
            GossipConfig {
                jitter: 1.0,
                ..GossipConfig::default_for_fleet()
            },
            GossipConfig {
                jitter: -0.1,
                ..GossipConfig::default_for_fleet()
            },
            GossipConfig {
                fanout: 0,
                ..GossipConfig::default_for_fleet()
            },
            GossipConfig {
                stale_ms: f64::NAN,
                ..GossipConfig::default_for_fleet()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn peer_selection_is_distinct_and_excludes_self() {
        let mut plane = GossipPlane::new(GossipConfig::default_for_fleet(), 2021);
        for node in 0..4 {
            for _ in 0..64 {
                let peers = plane.select_peers(node, 4);
                assert_eq!(peers.len(), 2);
                assert!(!peers.contains(&node));
                assert_ne!(peers[0], peers[1]);
            }
        }
    }

    #[test]
    fn fanout_clamps_to_fleet_size() {
        let mut plane = GossipPlane::new(
            GossipConfig {
                fanout: 8,
                ..GossipConfig::default_for_fleet()
            },
            7,
        );
        let peers = plane.select_peers(0, 3);
        assert_eq!(peers.len(), 2, "only 2 other nodes exist");
        let mut sorted = peers.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2]);
        assert!(plane.select_peers(0, 1).is_empty(), "singleton fleet");
    }

    #[test]
    fn round_timing_is_jittered_within_bounds_and_deterministic() {
        let gaps = |seed| {
            let mut plane = GossipPlane::new(GossipConfig::default_for_fleet(), seed);
            let mut now = 0;
            (0..32)
                .map(|_| {
                    let next = plane.next_round_nanos(now);
                    let gap = next - now;
                    now = next;
                    gap
                })
                .collect::<Vec<_>>()
        };
        let a = gaps(2021);
        assert_eq!(a, gaps(2021), "same seed, same schedule");
        assert_ne!(a, gaps(2022));
        let interval = ms_to_nanos(10.0);
        for gap in &a {
            assert!(
                *gap >= (interval as f64 * 0.8 - 2.0) as u64
                    && *gap <= (interval as f64 * 1.2 + 2.0) as u64,
                "gap {gap} outside ±20% of {interval}"
            );
        }
    }

    #[test]
    fn zero_jitter_ticks_at_the_exact_interval() {
        let mut plane = GossipPlane::new(
            GossipConfig {
                jitter: 0.0,
                ..GossipConfig::default_for_fleet()
            },
            1,
        );
        assert_eq!(plane.next_round_nanos(0), ms_to_nanos(10.0));
    }
}
