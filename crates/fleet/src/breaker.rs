//! Per-node circuit breaker for the appeal path.
//!
//! The [`AdaptiveBudget`](crate::AdaptiveBudget) answers "how much offload
//! can I afford this window?" — a *cost* question. The breaker answers a
//! different one: "is the appeal path *working at all*?". Each edge node
//! feeds both controllers from the same measured appeal stream: round-trips
//! go to `AdaptiveBudget::observe` and to [`CircuitBreaker::on_success`];
//! typed failures (link down, appeal deadline, corrupted response) go to
//! [`CircuitBreaker::on_failure`]. When the rolling failure fraction —
//! counting over-RTT successes as failures — crosses the threshold, the
//! breaker trips and the node stops appealing entirely, degrading to
//! edge-only answers until a timed half-open probe shows the path healthy
//! again.
//!
//! State machine (virtual time, no wall clock):
//!
//! ```text
//!            failure fraction ≥ threshold over a full window
//!   Closed ────────────────────────────────────────────────▶ Open
//!     ▲                                                       │
//!     │ `probes` consecutive probe successes                  │ `open_ms`
//!     │                                                       ▼
//!   HalfOpen ◀────────────────────────────────────────────────┘
//!     │
//!     └── any probe failure ▶ Open (timer restarts)
//! ```
//!
//! **Probe identity.** Admission is typed: [`CircuitBreaker::admit`] tells
//! the caller whether the attempt it just admitted is a half-open *probe* or
//! a regular closed-state send, and the caller echoes that tag back when the
//! attempt resolves. A probe's tag is the *generation* of the half-open
//! window that admitted it (the count of `Open → HalfOpen` transitions so
//! far). Only probes of the live window drive half-open transitions; a
//! straggler — a regular attempt sent before the trip, or a probe of an
//! earlier window that a re-trip already ledgered as orphaned — is ignored
//! instead of consuming a probe slot or closing the breaker on stale
//! evidence. Probe accounting reconciles exactly:
//! `attempts == ok + failed + orphaned + in flight`, where orphaned probes
//! are those whose window closed under them (the breaker re-tripped or
//! closed before they resolved).

use crate::error::{is_positive, FleetError, FleetResult};
use crate::ms_to_nanos;
use std::collections::VecDeque;

/// Parameters of the per-node appeal circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Rolling outcome-window size; the breaker only trips once it has seen
    /// this many appeal outcomes.
    pub window: usize,
    /// Failure fraction over the window at which the breaker opens, in
    /// `(0, 1]`.
    pub failure_threshold: f64,
    /// Successful appeals slower than this round-trip count as failures, in
    /// milliseconds.
    pub slow_ms: f64,
    /// How long the breaker stays open before probing, in virtual
    /// milliseconds.
    pub open_ms: f64,
    /// Consecutive half-open probe successes required to close; also the cap
    /// on concurrently in-flight probes.
    pub probes: u32,
}

impl BreakerConfig {
    /// A breaker tuned for the simulator's LTE-class appeal path: trips when
    /// half of the last 16 appeals fail or crawl, backs off 200 ms, and
    /// needs 3 clean probes to close.
    pub fn default_for_appeals() -> Self {
        Self {
            window: 16,
            failure_threshold: 0.5,
            slow_ms: 250.0,
            open_ms: 200.0,
            probes: 3,
        }
    }

    fn validate(&self) -> FleetResult<()> {
        if self.window == 0 {
            return Err(FleetError::InvalidConfig {
                what: "breaker window must be positive",
            });
        }
        if !(self.failure_threshold > 0.0 && self.failure_threshold <= 1.0) {
            return Err(FleetError::InvalidConfig {
                what: "breaker failure_threshold must be in (0, 1]",
            });
        }
        if !is_positive(self.slow_ms) {
            return Err(FleetError::InvalidConfig {
                what: "breaker slow_ms must be positive",
            });
        }
        if !is_positive(self.open_ms) {
            return Err(FleetError::InvalidConfig {
                what: "breaker open_ms must be positive",
            });
        }
        if self.probes == 0 {
            return Err(FleetError::InvalidConfig {
                what: "breaker probes must be positive",
            });
        }
        Ok(())
    }
}

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Appeals flow normally; outcomes fill the rolling window.
    Closed,
    /// Appeals are refused until the open timer expires.
    Open,
    /// A limited number of probe appeals test whether the path recovered.
    HalfOpen,
}

/// The typed outcome of asking the breaker to admit one appeal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Refused: the breaker is open, or every probe slot is in flight.
    Denied,
    /// Admitted as a regular closed-state attempt.
    Allowed,
    /// Admitted as a probe of the half-open window with this generation; the
    /// caller must resolve it with the probe-tagged outcome calls, echoing
    /// the generation, so probe accounting reconciles.
    Probe(u64),
}

impl Admission {
    /// The half-open generation to echo back when the attempt resolves, if
    /// it was admitted as a probe.
    pub fn probe_generation(self) -> Option<u64> {
        match self {
            Admission::Probe(generation) => Some(generation),
            Admission::Denied | Admission::Allowed => None,
        }
    }
}

/// Per-node circuit breaker over appeal outcomes, driven entirely by the
/// simulator's virtual clock.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Rolling window of outcomes in `Closed`; `true` records a failure.
    window: VecDeque<bool>,
    /// Virtual time at which an `Open` breaker starts probing.
    probe_at_nanos: u64,
    /// Probes admitted but not yet resolved while `HalfOpen`.
    probes_in_flight: u32,
    /// Consecutive probe successes while `HalfOpen`.
    probe_successes: u32,
    opened: u64,
    half_opened: u64,
    closed: u64,
    probe_attempts: u64,
    probe_ok: u64,
    probe_failed: u64,
    probe_orphaned: u64,
}

impl CircuitBreaker {
    /// Creates a closed breaker, validating the configuration.
    pub fn new(config: BreakerConfig) -> FleetResult<Self> {
        config.validate()?;
        Ok(Self {
            config,
            state: BreakerState::Closed,
            window: VecDeque::with_capacity(config.window),
            probe_at_nanos: 0,
            probes_in_flight: 0,
            probe_successes: 0,
            opened: 0,
            half_opened: 0,
            closed: 0,
            probe_attempts: 0,
            probe_ok: 0,
            probe_failed: 0,
            probe_orphaned: 0,
        })
    }

    /// The current state, advancing `Open → HalfOpen` if the open timer has
    /// expired by `now_nanos`.
    pub fn state(&mut self, now_nanos: u64) -> BreakerState {
        if self.state == BreakerState::Open && now_nanos >= self.probe_at_nanos {
            self.state = BreakerState::HalfOpen;
            self.probes_in_flight = 0;
            self.probe_successes = 0;
            self.half_opened += 1;
        }
        self.state
    }

    /// The state as it *would* read at `now_nanos`, without advancing the
    /// timer — for health digests and policy peeks that must not perturb the
    /// half-open ledger.
    pub fn peek_state(&self, now_nanos: u64) -> BreakerState {
        if self.state == BreakerState::Open && now_nanos >= self.probe_at_nanos {
            BreakerState::HalfOpen
        } else {
            self.state
        }
    }

    /// Asks the breaker to admit one appeal attempt at `now_nanos`. Closed:
    /// always [`Admission::Allowed`]. Open: [`Admission::Denied`] until the
    /// timer flips the state half-open. Half-open: [`Admission::Probe`]
    /// while fewer than `probes` probes are unresolved, `Denied` after.
    pub fn admit(&mut self, now_nanos: u64) -> Admission {
        match self.state(now_nanos) {
            BreakerState::Closed => Admission::Allowed,
            BreakerState::Open => Admission::Denied,
            BreakerState::HalfOpen => {
                if self.probes_in_flight < self.config.probes {
                    self.probes_in_flight += 1;
                    self.probe_attempts += 1;
                    Admission::Probe(self.half_opened)
                } else {
                    Admission::Denied
                }
            }
        }
    }

    /// Whether one more appeal may be sent at `now_nanos` — [`Self::admit`]
    /// without the probe tag, for callers that track it separately.
    pub fn allows(&mut self, now_nanos: u64) -> bool {
        self.admit(now_nanos) != Admission::Denied
    }

    /// Whether a round-trip counts as a slow call under this breaker's
    /// threshold (strict: exactly `slow_ms` is still healthy).
    pub fn is_slow(&self, round_trip_ms: f64) -> bool {
        round_trip_ms > self.config.slow_ms
    }

    /// Records a completed *regular* appeal round-trip. A success slower
    /// than `slow_ms` counts as a failure — a path that technically delivers
    /// but blows the latency target is still a path to stop trusting.
    pub fn on_success(&mut self, now_nanos: u64, round_trip_ms: f64) {
        self.resolve(now_nanos, round_trip_ms > self.config.slow_ms, None);
    }

    /// Records a failed *regular* appeal (link down, deadline expired,
    /// response corrupted).
    pub fn on_failure(&mut self, now_nanos: u64) {
        self.resolve(now_nanos, true, None);
    }

    /// Records a completed attempt that was admitted as a probe of half-open
    /// window `generation`.
    pub fn on_probe_success(&mut self, now_nanos: u64, round_trip_ms: f64, generation: u64) {
        let failed = round_trip_ms > self.config.slow_ms;
        self.resolve(now_nanos, failed, Some(generation));
    }

    /// Records a failed attempt that was admitted as a probe of half-open
    /// window `generation`.
    pub fn on_probe_failure(&mut self, now_nanos: u64, generation: u64) {
        self.resolve(now_nanos, true, Some(generation));
    }

    fn resolve(&mut self, now_nanos: u64, failed: bool, probe: Option<u64>) {
        match self.state(now_nanos) {
            BreakerState::Closed => {
                // Probe tags carry no meaning here: a probe whose half-open
                // window already closed under it (orphan-ledgered at the
                // transition) lands as ordinary closed-state evidence.
                if self.window.len() == self.config.window {
                    self.window.pop_front();
                }
                self.window.push_back(failed);
                if self.window.len() == self.config.window {
                    let failures = self.window.iter().filter(|&&f| f).count();
                    if failures as f64 / self.config.window as f64 >= self.config.failure_threshold
                    {
                        self.trip(now_nanos);
                    }
                }
            }
            BreakerState::HalfOpen => {
                if probe != Some(self.half_opened) {
                    // A straggler: a regular attempt from before the trip, or
                    // a probe of an earlier half-open window, orphan-ledgered
                    // when that window re-tripped. Either holds no slot of
                    // this window and its evidence predates it — ignoring it
                    // keeps the probe ledger exact and stops stale outcomes
                    // from closing (or re-tripping) the breaker.
                    return;
                }
                self.probes_in_flight = self.probes_in_flight.saturating_sub(1);
                if failed {
                    self.probe_failed += 1;
                    self.trip(now_nanos);
                } else {
                    self.probe_ok += 1;
                    self.probe_successes += 1;
                    if self.probe_successes >= self.config.probes {
                        self.state = BreakerState::Closed;
                        self.window.clear();
                        self.closed += 1;
                        // Probes still in flight outlive their window; any
                        // later outcome lands as closed-state evidence.
                        self.probe_orphaned += u64::from(self.probes_in_flight);
                        self.probes_in_flight = 0;
                    }
                }
            }
            // A straggler response from before the trip; the open timer is
            // already running and the outcome carries no new signal. Probes
            // orphaned by a re-trip were ledgered at the trip itself.
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now_nanos: u64) {
        self.state = BreakerState::Open;
        self.probe_at_nanos = now_nanos.saturating_add(ms_to_nanos(self.config.open_ms));
        self.window.clear();
        self.probe_orphaned += u64::from(self.probes_in_flight);
        self.probes_in_flight = 0;
        self.probe_successes = 0;
        self.opened += 1;
    }

    /// Trips the breaker open *pre-emptively* on fleet evidence rather than
    /// local outcomes. Only meaningful from `Closed` (an open breaker is
    /// already protecting the path); returns whether a trip happened.
    pub fn preemptive_open(&mut self, now_nanos: u64) -> bool {
        if self.state(now_nanos) != BreakerState::Closed {
            return false;
        }
        self.trip(now_nanos);
        true
    }

    /// Pushes the pending half-open probe time back by `extra_nanos` — the
    /// staggered-probe election's lever. Only meaningful while `Open`.
    pub fn defer_probe(&mut self, extra_nanos: u64) {
        if self.state == BreakerState::Open {
            self.probe_at_nanos = self.probe_at_nanos.saturating_add(extra_nanos);
        }
    }

    /// How many times the breaker has tripped open.
    pub fn opened(&self) -> u64 {
        self.opened
    }

    /// How many times the breaker has entered half-open probing.
    pub fn half_opened(&self) -> u64 {
        self.half_opened
    }

    /// How many times the breaker has closed again after probing.
    pub fn closed(&self) -> u64 {
        self.closed
    }

    /// Probe attempts admitted while half-open.
    pub fn probe_attempts(&self) -> u64 {
        self.probe_attempts
    }

    /// Probes that resolved successfully while their half-open window was
    /// still live.
    pub fn probe_ok(&self) -> u64 {
        self.probe_ok
    }

    /// Probes that resolved as failures and re-tripped the breaker.
    pub fn probe_failed(&self) -> u64 {
        self.probe_failed
    }

    /// Probes whose half-open window ended (re-trip or close) before they
    /// resolved.
    pub fn probe_orphaned(&self) -> u64 {
        self.probe_orphaned
    }

    /// Probes still unresolved in a live half-open window.
    pub fn probes_in_flight(&self) -> u64 {
        u64::from(self.probes_in_flight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> BreakerConfig {
        BreakerConfig {
            window: 4,
            failure_threshold: 0.5,
            slow_ms: 100.0,
            open_ms: 10.0,
            probes: 2,
        }
    }

    fn probe_ledger_reconciles(b: &CircuitBreaker) {
        assert_eq!(
            b.probe_attempts(),
            b.probe_ok() + b.probe_failed() + b.probe_orphaned() + b.probes_in_flight(),
            "probe ledger must reconcile exactly"
        );
    }

    #[test]
    fn trips_on_failure_fraction_and_recovers_via_probes() {
        let mut b = CircuitBreaker::new(config()).unwrap();
        assert_eq!(b.state(0), BreakerState::Closed);
        b.on_success(0, 5.0);
        b.on_success(0, 5.0);
        b.on_failure(0);
        assert_eq!(b.state(0), BreakerState::Closed, "window not yet decisive");
        b.on_failure(0);
        assert_eq!(b.state(0), BreakerState::Open, "2/4 failures trips at 0.5");
        assert_eq!(b.opened(), 1);
        assert_eq!(b.admit(1_000), Admission::Denied);

        // 10 ms later the timer admits probes, capped at `probes` in flight.
        let probe_time = crate::ms_to_nanos(10.0);
        assert_eq!(b.admit(probe_time), Admission::Probe(1));
        assert_eq!(b.state(probe_time), BreakerState::HalfOpen);
        assert_eq!(b.admit(probe_time), Admission::Probe(1));
        assert_eq!(
            b.admit(probe_time),
            Admission::Denied,
            "third concurrent probe refused"
        );

        b.on_probe_success(probe_time, 5.0, 1);
        assert_eq!(b.state(probe_time), BreakerState::HalfOpen);
        b.on_probe_success(probe_time, 5.0, 1);
        assert_eq!(b.state(probe_time), BreakerState::Closed);
        assert_eq!((b.half_opened(), b.closed()), (1, 1));
        assert_eq!((b.probe_attempts(), b.probe_ok()), (2, 2));
        probe_ledger_reconciles(&b);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let mut b = CircuitBreaker::new(config()).unwrap();
        for _ in 0..4 {
            b.on_failure(0);
        }
        let t = crate::ms_to_nanos(10.0);
        assert_eq!(b.admit(t), Admission::Probe(1));
        b.on_probe_failure(t, 1);
        assert_eq!(b.state(t), BreakerState::Open);
        assert_eq!(b.opened(), 2);
        assert_eq!(b.probe_failed(), 1);
        probe_ledger_reconciles(&b);
        // The timer restarted from the probe failure, not the first trip.
        assert_eq!(b.admit(t + 1), Admission::Denied);
        assert_eq!(b.admit(t + crate::ms_to_nanos(10.0)), Admission::Probe(2));
    }

    #[test]
    fn slow_successes_count_as_failures() {
        let mut b = CircuitBreaker::new(config()).unwrap();
        for _ in 0..4 {
            b.on_success(0, 500.0); // delivered, but 5x over slow_ms
        }
        assert_eq!(b.state(0), BreakerState::Open);
    }

    #[test]
    fn round_trip_exactly_at_slow_threshold_is_a_success() {
        // The slow-call comparison is strict: `rtt > slow_ms` fails, so a
        // round-trip landing exactly on the threshold is still healthy.
        let mut b = CircuitBreaker::new(config()).unwrap();
        for _ in 0..16 {
            b.on_success(0, 100.0);
        }
        assert_eq!(b.state(0), BreakerState::Closed);
        assert_eq!(b.opened(), 0);
        // One ulp over the threshold is a failure.
        for _ in 0..4 {
            b.on_success(0, 100.0 + f64::EPSILON * 200.0);
        }
        assert_eq!(b.state(0), BreakerState::Open);
    }

    #[test]
    fn exhausted_probe_budget_denies_until_a_slot_frees() {
        // `probes` caps concurrency: with every slot in flight the budget is
        // zero-length and admission must deny; resolving one probe frees
        // exactly one slot.
        let mut b = CircuitBreaker::new(config()).unwrap();
        for _ in 0..4 {
            b.on_failure(0);
        }
        let t = crate::ms_to_nanos(10.0);
        assert_eq!(b.admit(t), Admission::Probe(1));
        assert_eq!(b.admit(t), Admission::Probe(1));
        assert_eq!(b.admit(t), Admission::Denied, "budget exhausted");
        assert_eq!(
            b.admit(t + 1),
            Admission::Denied,
            "time alone frees nothing"
        );
        b.on_probe_success(t + 2, 5.0, 1);
        assert_eq!(
            b.admit(t + 2),
            Admission::Probe(1),
            "resolution frees a slot"
        );
        probe_ledger_reconciles(&b);
    }

    #[test]
    fn healthy_stream_never_trips() {
        let mut b = CircuitBreaker::new(config()).unwrap();
        for i in 0..100 {
            assert_eq!(b.admit(i), Admission::Allowed);
            b.on_success(i, 5.0);
        }
        assert_eq!(b.opened(), 0);
        assert_eq!(b.state(100), BreakerState::Closed);
    }

    #[test]
    fn straggler_outcomes_while_open_are_ignored() {
        let mut b = CircuitBreaker::new(config()).unwrap();
        for _ in 0..4 {
            b.on_failure(0);
        }
        assert_eq!(b.state(0), BreakerState::Open);
        b.on_success(1, 5.0); // in-flight appeal from before the trip
        assert_eq!(b.state(1), BreakerState::Open);
        assert_eq!(b.opened(), 1);
    }

    #[test]
    fn straggler_regular_outcomes_in_half_open_hold_no_probe_slot() {
        // A regular attempt sent before the trip resolves mid-probe: it must
        // neither close the breaker on stale evidence nor free or consume a
        // probe slot.
        let mut b = CircuitBreaker::new(config()).unwrap();
        for _ in 0..4 {
            b.on_failure(0);
        }
        let t = crate::ms_to_nanos(10.0);
        assert_eq!(b.admit(t), Admission::Probe(1));
        assert_eq!(b.admit(t), Admission::Probe(1));
        // Stragglers from before the trip resolve now — both flavors.
        b.on_success(t, 5.0);
        b.on_failure(t);
        assert_eq!(b.state(t), BreakerState::HalfOpen, "stragglers are inert");
        assert_eq!(b.opened(), 1, "a straggler failure must not re-trip");
        assert_eq!(b.probes_in_flight(), 2, "slots untouched");
        // The real probes still decide the outcome.
        b.on_probe_success(t, 5.0, 1);
        b.on_probe_success(t, 5.0, 1);
        assert_eq!(b.state(t), BreakerState::Closed);
        probe_ledger_reconciles(&b);
    }

    #[test]
    fn re_trip_orphans_probes_still_in_flight() {
        let mut b = CircuitBreaker::new(config()).unwrap();
        for _ in 0..4 {
            b.on_failure(0);
        }
        let t = crate::ms_to_nanos(10.0);
        assert_eq!(b.admit(t), Admission::Probe(1));
        assert_eq!(b.admit(t), Admission::Probe(1));
        b.on_probe_failure(t, 1); // re-trips with one probe still out
        assert_eq!(b.state(t), BreakerState::Open);
        assert_eq!(b.probe_orphaned(), 1);
        // The orphan resolving later (while open) changes nothing.
        b.on_probe_success(t + 1, 5.0, 1);
        assert_eq!(b.state(t + 1), BreakerState::Open);
        assert_eq!(b.probe_ok(), 0);
        probe_ledger_reconciles(&b);
    }

    #[test]
    fn orphan_answer_in_a_later_half_open_window_is_a_straggler() {
        // A probe orphaned by a re-trip was ledgered at the trip. If the
        // breaker is half-open *again* when its answer arrives, that answer
        // belongs to the old window: it must not take a slot from the new
        // window's probe, count as a second outcome, or help close the
        // breaker.
        let mut b = CircuitBreaker::new(config()).unwrap();
        for _ in 0..4 {
            b.on_failure(0);
        }
        let t = crate::ms_to_nanos(10.0);
        assert_eq!(b.admit(t), Admission::Probe(1));
        assert_eq!(b.admit(t), Admission::Probe(1));
        b.on_probe_failure(t, 1); // re-trips; the other probe is orphaned
        assert_eq!(b.probe_orphaned(), 1);
        let t2 = 2 * t;
        assert_eq!(b.admit(t2), Admission::Probe(2));
        b.on_probe_success(t2, 5.0, 1); // the orphan's answer, one window late
        assert_eq!(b.probes_in_flight(), 1, "the live probe keeps its slot");
        assert_eq!(b.probe_ok(), 0, "an orphan is ledgered once, as orphaned");
        probe_ledger_reconciles(&b);
        b.on_probe_success(t2 + 2, 5.0, 2);
        assert_eq!(b.admit(t2 + 2), Admission::Probe(2));
        b.on_probe_success(t2 + 3, 5.0, 2);
        assert_eq!(b.state(t2 + 3), BreakerState::Closed);
        assert_eq!((b.probe_attempts(), b.probe_ok()), (4, 2));
        probe_ledger_reconciles(&b);
    }

    #[test]
    fn back_to_back_open_timers_admit_exactly_at_the_boundary() {
        // Virtual-time ties: the open timer admits probes at *exactly*
        // `probe_at`, and a re-trip at that instant restarts a full open
        // window from the same timestamp.
        let mut b = CircuitBreaker::new(config()).unwrap();
        for _ in 0..4 {
            b.on_failure(0);
        }
        let open = crate::ms_to_nanos(10.0);
        assert_eq!(b.peek_state(open - 1), BreakerState::Open);
        assert_eq!(b.peek_state(open), BreakerState::HalfOpen);
        assert_eq!(b.admit(open), Admission::Probe(1));
        b.on_probe_failure(open, 1); // second trip at the same boundary instant
        assert_eq!(b.opened(), 2);
        assert_eq!(b.admit(2 * open - 1), Admission::Denied);
        assert_eq!(b.admit(2 * open), Admission::Probe(2));
        assert_eq!(b.half_opened(), 2);
        probe_ledger_reconciles(&b);
    }

    #[test]
    fn preemptive_open_trips_only_from_closed() {
        let mut b = CircuitBreaker::new(config()).unwrap();
        assert!(b.preemptive_open(5));
        assert_eq!(b.state(5), BreakerState::Open);
        assert_eq!(b.opened(), 1);
        assert!(!b.preemptive_open(6), "already open");
        let t = 5 + crate::ms_to_nanos(10.0);
        assert_eq!(b.admit(t), Admission::Probe(1));
        assert!(!b.preemptive_open(t), "half-open is already protecting");
        assert_eq!(b.opened(), 1);
    }

    #[test]
    fn defer_probe_staggers_the_half_open_transition() {
        let mut b = CircuitBreaker::new(config()).unwrap();
        assert!(b.preemptive_open(0));
        let open = crate::ms_to_nanos(10.0);
        b.defer_probe(crate::ms_to_nanos(5.0));
        assert_eq!(b.peek_state(open), BreakerState::Open, "probe deferred");
        let staggered = open + crate::ms_to_nanos(5.0);
        assert_eq!(b.peek_state(staggered - 1), BreakerState::Open);
        assert_eq!(b.admit(staggered), Admission::Probe(1));
        // Deferring while not open is a no-op.
        b.defer_probe(crate::ms_to_nanos(100.0));
        assert_eq!(b.state(staggered), BreakerState::HalfOpen);
    }

    #[test]
    fn peek_state_never_mutates() {
        let mut b = CircuitBreaker::new(config()).unwrap();
        for _ in 0..4 {
            b.on_failure(0);
        }
        let t = crate::ms_to_nanos(10.0);
        assert_eq!(b.peek_state(t), BreakerState::HalfOpen);
        assert_eq!(b.half_opened(), 0, "peek must not advance the timer");
        assert_eq!(b.state(t), BreakerState::HalfOpen);
        assert_eq!(b.half_opened(), 1, "state() does");
    }

    #[test]
    fn rejects_invalid_configs() {
        for (bad, what) in [
            (
                BreakerConfig {
                    window: 0,
                    ..config()
                },
                "window",
            ),
            (
                BreakerConfig {
                    failure_threshold: 0.0,
                    ..config()
                },
                "failure_threshold",
            ),
            (
                BreakerConfig {
                    failure_threshold: 1.5,
                    ..config()
                },
                "failure_threshold",
            ),
            (
                BreakerConfig {
                    slow_ms: 0.0,
                    ..config()
                },
                "slow_ms",
            ),
            (
                BreakerConfig {
                    open_ms: f64::NAN,
                    ..config()
                },
                "open_ms",
            ),
            (
                BreakerConfig {
                    probes: 0,
                    ..config()
                },
                "probes",
            ),
        ] {
            match CircuitBreaker::new(bad) {
                Err(FleetError::InvalidConfig { what: msg }) => {
                    assert!(msg.contains(what), "{msg} should mention {what}")
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn default_config_is_valid() {
        assert!(CircuitBreaker::new(BreakerConfig::default_for_appeals()).is_ok());
    }
}
