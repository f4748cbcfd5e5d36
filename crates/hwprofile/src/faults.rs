//! Seeded, deterministic fault injection: typed virtual-time fault events
//! composable with the [`StochasticLink`](crate::StochasticLink) weather
//! model.
//!
//! A [`FaultPlan`] is a *script*, not a process: every event is a window (or
//! instant) on the virtual clock, and every probabilistic decision (response
//! drop/corruption) is a pure hash of `(plan seed, request, attempt)` — no
//! RNG stream is consumed, so a plan's answers are independent of query
//! order and a faulted simulation replays byte-for-byte from its seed. That
//! is the property the fleet simulator's chaos experiments lean on: the same
//! outage produces the same ledger twice.
//!
//! Supported fault types ([`FaultEvent`]):
//!
//! * **Cloud blackout** — the cloud tier is unreachable for a window:
//!   appeals arriving during it are lost (the edge learns via its appeal
//!   deadline).
//! * **Link brownout** — a window that multiplies the stochastic link's
//!   severity (stretching transfers and scaling loss, exactly like the fleet
//!   simulator's `Degradation` but bounded and composable — overlapping
//!   brownouts multiply).
//! * **Response drop / corruption** — each cloud answer inside the window is
//!   dropped (never delivered) or corrupted (delivered but unusable) with a
//!   configured probability, decided by the plan's seed.
//! * **Node crash** — one edge node's compute is down for a window starting
//!   at `at_nanos`; requests arriving while it is down wait for the restart.

use crate::error::{require_positive, require_probability_inclusive, HwError, HwResult};

/// One scripted fault on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The cloud tier is unreachable in `[from_nanos, until_nanos)`.
    CloudBlackout {
        /// Window start (inclusive), in virtual nanoseconds.
        from_nanos: u64,
        /// Window end (exclusive), in virtual nanoseconds.
        until_nanos: u64,
    },
    /// The link degrades by `severity` in `[from_nanos, until_nanos)`.
    LinkBrownout {
        /// Window start (inclusive), in virtual nanoseconds.
        from_nanos: u64,
        /// Window end (exclusive), in virtual nanoseconds.
        until_nanos: u64,
        /// Severity multiplier applied to transfers and loss (must be
        /// positive; > 1 degrades, and overlapping brownouts multiply).
        severity: f64,
    },
    /// Each cloud answer in `[from_nanos, until_nanos)` is dropped with
    /// probability `probability` (1.0 drops everything).
    ResponseDrop {
        /// Window start (inclusive), in virtual nanoseconds.
        from_nanos: u64,
        /// Window end (exclusive), in virtual nanoseconds.
        until_nanos: u64,
        /// Per-answer drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Each cloud answer in `[from_nanos, until_nanos)` is corrupted with
    /// probability `probability`: it arrives, but its payload is unusable
    /// and the edge must treat it as a failed appeal.
    ResponseCorrupt {
        /// Window start (inclusive), in virtual nanoseconds.
        from_nanos: u64,
        /// Window end (exclusive), in virtual nanoseconds.
        until_nanos: u64,
        /// Per-answer corruption probability in `[0, 1]`.
        probability: f64,
    },
    /// Edge node `node` crashes at `at_nanos` and restarts `down_nanos`
    /// later. While down, its compute is unavailable.
    NodeCrash {
        /// The crashed node's fleet index.
        node: usize,
        /// Crash instant, in virtual nanoseconds.
        at_nanos: u64,
        /// How long the node stays down, in virtual nanoseconds.
        down_nanos: u64,
    },
}

impl FaultEvent {
    fn validate(&self) -> HwResult<()> {
        match *self {
            FaultEvent::CloudBlackout {
                from_nanos,
                until_nanos,
            } => require_window(from_nanos, until_nanos),
            FaultEvent::LinkBrownout {
                from_nanos,
                until_nanos,
                severity,
            } => {
                require_window(from_nanos, until_nanos)?;
                require_positive("brownout severity", severity)
            }
            FaultEvent::ResponseDrop {
                from_nanos,
                until_nanos,
                probability,
            } => {
                require_window(from_nanos, until_nanos)?;
                require_probability_inclusive("drop probability", probability)
            }
            FaultEvent::ResponseCorrupt {
                from_nanos,
                until_nanos,
                probability,
            } => {
                require_window(from_nanos, until_nanos)?;
                require_probability_inclusive("corrupt probability", probability)
            }
            FaultEvent::NodeCrash { .. } => Ok(()),
        }
    }

    /// Whether this event touches the cloud-facing half of an appeal
    /// (blackouts, response drops/corruption). A simulator without a
    /// recovery policy cannot resolve requests these faults strand, so it
    /// should reject plans containing them unless recovery is configured.
    pub fn needs_recovery(&self) -> bool {
        matches!(
            self,
            FaultEvent::CloudBlackout { .. }
                | FaultEvent::ResponseDrop { .. }
                | FaultEvent::ResponseCorrupt { .. }
        )
    }
}

fn require_window(from_nanos: u64, until_nanos: u64) -> HwResult<()> {
    if until_nanos >= from_nanos {
        Ok(())
    } else {
        Err(HwError::InvalidWindow {
            from_nanos,
            until_nanos,
        })
    }
}

/// A validated script of [`FaultEvent`]s plus the seed its probabilistic
/// decisions hash from. Construct with [`FaultPlan::new`] (or
/// [`FaultPlan::none`] for the empty plan) and query it from a simulation's
/// event loop; queries are pure functions of `(plan, arguments)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Validates and assembles a plan.
    pub fn new(seed: u64, events: Vec<FaultEvent>) -> HwResult<Self> {
        for event in &events {
            event.validate()?;
        }
        Ok(Self { seed, events })
    }

    /// The empty plan: no faults, every query answers "healthy".
    pub fn none() -> Self {
        Self {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// Whether the plan scripts no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scripted events, in script order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether any scripted fault requires an appeal recovery policy to keep
    /// stranded requests resolvable (see [`FaultEvent::needs_recovery`]).
    pub fn needs_recovery(&self) -> bool {
        self.events.iter().any(FaultEvent::needs_recovery)
    }

    /// Whether the cloud tier is blacked out at `t_nanos`.
    pub fn cloud_down(&self, t_nanos: u64) -> bool {
        self.events.iter().any(|e| match *e {
            FaultEvent::CloudBlackout {
                from_nanos,
                until_nanos,
            } => (from_nanos..until_nanos).contains(&t_nanos),
            _ => false,
        })
    }

    /// The product of every brownout severity active at `t_nanos` (1.0 when
    /// none is). Multiply into the link's other severity sources.
    pub fn link_severity(&self, t_nanos: u64) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::LinkBrownout {
                    from_nanos,
                    until_nanos,
                    severity,
                } if (from_nanos..until_nanos).contains(&t_nanos) => Some(severity),
                _ => None,
            })
            .product()
    }

    /// If node `node` is down at `t_nanos`, the virtual time it restarts;
    /// `None` while the node is up. Overlapping crash windows report the
    /// latest restart.
    pub fn node_restart_at(&self, node: usize, t_nanos: u64) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::NodeCrash {
                    node: n,
                    at_nanos,
                    down_nanos,
                } if n == node => {
                    let restart = at_nanos.saturating_add(down_nanos);
                    (at_nanos..restart).contains(&t_nanos).then_some(restart)
                }
                _ => None,
            })
            .max()
    }

    /// Whether the cloud answer for `(request, attempt)` completing at
    /// `t_nanos` is dropped. Pure: hashes the plan seed, never draws from an
    /// RNG stream.
    pub fn drops_response(&self, t_nanos: u64, request: usize, attempt: u32) -> bool {
        self.response_fault(t_nanos, request, attempt, 0x5D, |e| match *e {
            FaultEvent::ResponseDrop {
                from_nanos,
                until_nanos,
                probability,
            } => Some((from_nanos, until_nanos, probability)),
            _ => None,
        })
    }

    /// Whether the cloud answer for `(request, attempt)` completing at
    /// `t_nanos` is corrupted. Pure, like [`drops_response`](Self::drops_response).
    pub fn corrupts_response(&self, t_nanos: u64, request: usize, attempt: u32) -> bool {
        self.response_fault(t_nanos, request, attempt, 0xC0, |e| match *e {
            FaultEvent::ResponseCorrupt {
                from_nanos,
                until_nanos,
                probability,
            } => Some((from_nanos, until_nanos, probability)),
            _ => None,
        })
    }

    fn response_fault(
        &self,
        t_nanos: u64,
        request: usize,
        attempt: u32,
        salt: u64,
        select: impl Fn(&FaultEvent) -> Option<(u64, u64, f64)>,
    ) -> bool {
        self.events
            .iter()
            .filter_map(&select)
            .any(|(from_nanos, until_nanos, probability)| {
                (from_nanos..until_nanos).contains(&t_nanos)
                    && hashed_unit(self.seed, request as u64, u64::from(attempt), salt)
                        < probability
            })
    }
}

/// SplitMix64-style avalanche of `(seed, request, attempt, salt)` onto
/// `[0, 1)`. Stateless so fault decisions replay independent of query order.
fn hashed_unit(seed: u64, request: u64, attempt: u64, salt: u64) -> f64 {
    let mut z = seed
        .wrapping_add(request.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(attempt.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(salt.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::new(
            42,
            vec![
                FaultEvent::CloudBlackout {
                    from_nanos: 100,
                    until_nanos: 200,
                },
                FaultEvent::LinkBrownout {
                    from_nanos: 150,
                    until_nanos: 400,
                    severity: 3.0,
                },
                FaultEvent::LinkBrownout {
                    from_nanos: 300,
                    until_nanos: 500,
                    severity: 2.0,
                },
                FaultEvent::ResponseDrop {
                    from_nanos: 0,
                    until_nanos: 1_000,
                    probability: 0.5,
                },
                FaultEvent::NodeCrash {
                    node: 1,
                    at_nanos: 600,
                    down_nanos: 100,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn blackout_windows_are_half_open() {
        let p = plan();
        assert!(!p.cloud_down(99));
        assert!(p.cloud_down(100));
        assert!(p.cloud_down(199));
        assert!(!p.cloud_down(200));
    }

    #[test]
    fn overlapping_brownouts_multiply() {
        let p = plan();
        assert_eq!(p.link_severity(0), 1.0);
        assert_eq!(p.link_severity(150), 3.0);
        assert_eq!(p.link_severity(350), 6.0);
        assert_eq!(p.link_severity(450), 2.0);
        assert_eq!(p.link_severity(500), 1.0);
    }

    #[test]
    fn node_crash_reports_restart_time() {
        let p = plan();
        assert_eq!(p.node_restart_at(1, 599), None);
        assert_eq!(p.node_restart_at(1, 600), Some(700));
        assert_eq!(p.node_restart_at(1, 699), Some(700));
        assert_eq!(p.node_restart_at(1, 700), None);
        assert_eq!(p.node_restart_at(0, 650), None, "other nodes stay up");
    }

    #[test]
    fn response_drops_are_pure_and_seed_sensitive() {
        let p = plan();
        // Same query always answers the same; query order cannot matter.
        let first: Vec<bool> = (0..64).map(|r| p.drops_response(10, r, 1)).collect();
        let second: Vec<bool> = (0..64).map(|r| p.drops_response(10, r, 1)).collect();
        assert_eq!(first, second);
        let dropped = first.iter().filter(|&&d| d).count();
        assert!(dropped > 10 && dropped < 54, "p=0.5 should land mid-range");
        // Attempts are independent coins: a request dropped on attempt 1 is
        // not automatically dropped on attempt 2.
        let flips = (0..64).any(|r| p.drops_response(10, r, 1) != p.drops_response(10, r, 2));
        assert!(flips);
        // A different plan seed reshuffles the outcomes.
        let reseeded = FaultPlan::new(43, p.events().to_vec()).unwrap();
        assert_ne!(
            first,
            (0..64)
                .map(|r| reseeded.drops_response(10, r, 1))
                .collect::<Vec<_>>()
        );
        // Outside the window nothing drops.
        assert!((0..64).all(|r| !p.drops_response(5_000, r, 1)));
    }

    #[test]
    fn probability_extremes_are_exact() {
        let all = FaultPlan::new(
            1,
            vec![FaultEvent::ResponseCorrupt {
                from_nanos: 0,
                until_nanos: 100,
                probability: 1.0,
            }],
        )
        .unwrap();
        assert!((0..32).all(|r| all.corrupts_response(50, r, 1)));
        let none = FaultPlan::new(
            1,
            vec![FaultEvent::ResponseCorrupt {
                from_nanos: 0,
                until_nanos: 100,
                probability: 0.0,
            }],
        )
        .unwrap();
        assert!((0..32).all(|r| !none.corrupts_response(50, r, 1)));
    }

    #[test]
    fn validation_rejects_bad_events() {
        assert!(matches!(
            FaultPlan::new(
                0,
                vec![FaultEvent::CloudBlackout {
                    from_nanos: 10,
                    until_nanos: 5,
                }],
            ),
            Err(HwError::InvalidWindow { .. })
        ));
        assert!(FaultPlan::new(
            0,
            vec![FaultEvent::LinkBrownout {
                from_nanos: 0,
                until_nanos: 1,
                severity: 0.0,
            }],
        )
        .is_err());
        assert!(FaultPlan::new(
            0,
            vec![FaultEvent::ResponseDrop {
                from_nanos: 0,
                until_nanos: 1,
                probability: 1.5,
            }],
        )
        .is_err());
    }

    #[test]
    fn needs_recovery_flags_cloud_facing_faults() {
        assert!(plan().needs_recovery());
        let benign = FaultPlan::new(
            0,
            vec![
                FaultEvent::LinkBrownout {
                    from_nanos: 0,
                    until_nanos: 10,
                    severity: 2.0,
                },
                FaultEvent::NodeCrash {
                    node: 0,
                    at_nanos: 0,
                    down_nanos: 10,
                },
            ],
        )
        .unwrap();
        assert!(!benign.needs_recovery());
        assert!(!FaultPlan::none().needs_recovery());
        assert!(FaultPlan::none().is_empty());
    }
}
