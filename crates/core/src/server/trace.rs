//! Synthetic serving traces: deterministic arrival-time generators for the
//! load generator and the shed-determinism tests.
//!
//! A [`TraceSpec`] names a traffic *shape* — uniform, bursty, or diurnal —
//! a request count, a mean inter-arrival gap, and a seed, and expands to a
//! sorted list of [`TraceEvent`]s (arrival nanosecond + client id). The
//! expansion is a pure function of the spec: the same spec replays the same
//! trace on every run, which is what makes shed rates and micro-batch
//! compositions reproducible end to end.

use appeal_tensor::SeededRng;

/// The temporal shape of a synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceShape {
    /// Exponential inter-arrival gaps at a constant mean rate (Poisson-like
    /// steady load).
    Uniform,
    /// Back-to-back bursts of `burst` requests separated by idle gaps: the
    /// worst case for a fixed-size batcher (queues fill instantly, then
    /// starve) and the showcase for deadline coalescing.
    Bursty {
        /// Requests per burst.
        burst: usize,
    },
    /// A sinusoidal rate profile: `periods` full day/night cycles over the
    /// trace, with the instantaneous rate swinging between `1 ± amplitude`
    /// times the mean (amplitude is clamped to `[0, 0.95]`).
    Diurnal {
        /// Full rate cycles across the whole trace.
        periods: f64,
        /// Relative swing of the instantaneous rate around the mean.
        amplitude: f64,
    },
}

/// A deterministic synthetic trace: shape + scale + seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Temporal shape.
    pub shape: TraceShape,
    /// Total requests in the trace.
    pub requests: usize,
    /// Mean gap between consecutive requests, in nanoseconds.
    pub mean_gap_nanos: u64,
    /// Number of distinct clients; events are assigned uniformly at random.
    pub clients: u32,
    /// Seed for the gap/client RNG.
    pub seed: u64,
}

/// One request arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Arrival time in nanoseconds from trace start.
    pub at_nanos: u64,
    /// Submitting client.
    pub client: u32,
}

impl TraceSpec {
    /// Expands the spec into its arrival events, sorted by time.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut rng = SeededRng::new(self.seed);
        let clients = self.clients.max(1);
        let mean = self.mean_gap_nanos.max(1) as f64;
        let mut t = 0.0f64;
        let mut events = Vec::with_capacity(self.requests);
        for i in 0..self.requests {
            let gap = match self.shape {
                TraceShape::Uniform => exponential_gap(&mut rng, mean),
                TraceShape::Bursty { burst } => {
                    let burst = burst.max(1);
                    if i % burst == burst - 1 {
                        // Idle between bursts: the whole burst's worth of
                        // mean gaps lands here, keeping the overall rate at
                        // the configured mean.
                        exponential_gap(&mut rng, mean * burst as f64)
                    } else {
                        // Within a burst requests arrive nearly together.
                        exponential_gap(&mut rng, mean * 0.01)
                    }
                }
                TraceShape::Diurnal { periods, amplitude } => {
                    let amplitude = amplitude.clamp(0.0, 0.95);
                    let progress = i as f64 / self.requests.max(1) as f64;
                    let rate = 1.0 + amplitude * (std::f64::consts::TAU * periods * progress).sin();
                    exponential_gap(&mut rng, mean / rate)
                }
            };
            t += gap;
            events.push(TraceEvent {
                at_nanos: t as u64,
                client: rng.below(clients as usize) as u32,
            });
        }
        events
    }

    /// Wall-clock span of the trace (arrival of the last event).
    pub fn span_nanos(&self) -> u64 {
        self.events().last().map(|e| e.at_nanos).unwrap_or(0)
    }
}

/// An exponentially distributed gap with the given mean, strictly positive.
fn exponential_gap(rng: &mut SeededRng, mean: f64) -> f64 {
    let u = f64::from(rng.uniform(0.0, 1.0)).clamp(1e-9, 1.0 - 1e-9);
    (-u.ln() * mean).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(shape: TraceShape) -> TraceSpec {
        TraceSpec {
            shape,
            requests: 200,
            mean_gap_nanos: 1_000_000,
            clients: 4,
            seed: 77,
        }
    }

    #[test]
    fn same_spec_replays_the_same_trace() {
        for shape in [
            TraceShape::Uniform,
            TraceShape::Bursty { burst: 8 },
            TraceShape::Diurnal {
                periods: 2.0,
                amplitude: 0.8,
            },
        ] {
            let a = spec(shape).events();
            let b = spec(shape).events();
            assert_eq!(a, b, "{shape:?} must be deterministic");
            assert_eq!(a.len(), 200);
            assert!(a.windows(2).all(|w| w[0].at_nanos <= w[1].at_nanos));
            assert!(a.iter().all(|e| e.client < 4));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = spec(TraceShape::Uniform).events();
        let mut other = spec(TraceShape::Uniform);
        other.seed = 78;
        assert_ne!(a, other.events());
    }

    #[test]
    fn bursty_gaps_are_bimodal() {
        let events = spec(TraceShape::Bursty { burst: 8 }).events();
        let gaps: Vec<u64> = events
            .windows(2)
            .map(|w| w[1].at_nanos - w[0].at_nanos)
            .collect();
        let tiny = gaps.iter().filter(|&&g| g < 100_000).count();
        let idle = gaps.iter().filter(|&&g| g > 1_000_000).count();
        assert!(
            tiny > gaps.len() / 2,
            "most gaps are intra-burst: {tiny}/{}",
            gaps.len()
        );
        assert!(idle > 5, "bursts are separated by long idles: {idle}");
    }

    #[test]
    fn diurnal_rate_swings_across_the_trace() {
        let events = spec(TraceShape::Diurnal {
            periods: 1.0,
            amplitude: 0.9,
        })
        .events();
        // First quarter (rising rate) must be denser than the third
        // quarter (trough) for a single-period sinusoid.
        let q = events.len() / 4;
        let first = events[q].at_nanos - events[0].at_nanos;
        let third = events[3 * q].at_nanos - events[2 * q].at_nanos;
        assert!(
            first < third,
            "peak quarter spans {first} ns, trough quarter {third} ns"
        );
    }

    #[test]
    fn mean_rate_is_roughly_the_configured_mean() {
        let s = spec(TraceShape::Uniform);
        let span = s.span_nanos() as f64;
        let expected = (s.requests as u64 * s.mean_gap_nanos) as f64;
        assert!(
            (span / expected - 1.0).abs() < 0.5,
            "span {span} vs expected {expected}"
        );
    }
}
