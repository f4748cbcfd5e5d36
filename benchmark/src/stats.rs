//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! per-slice statistics, the quiet-host tail and segment rates.

/// Sorts a copy of `values` ascending. Measurements are finite by
/// construction (durations and counts), so the comparison is total.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least a share `p` of the samples at or below it. 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `samples` (kept in arrival order) cut into `slices` equal-count,
/// contiguous slices; the nearest-rank percentile `p` of each slice.
pub fn slice_percentiles(samples: &[f64], slices: usize, p: f64) -> Vec<f64> {
    let slices = slices.clamp(1, samples.len().max(1));
    let chunk = samples.len() / slices;
    (0..slices)
        .map(|i| {
            let end = if i + 1 == slices {
                samples.len()
            } else {
                (i + 1) * chunk
            };
            percentile(&sorted(&samples[i * chunk..end]), p)
        })
        .collect()
}

/// The quiet-host value of a tail statistic measured once per slice: the
/// lower quartile of the per-slice values. What inflates a tail here is a
/// neighbour's stall, which only ever adds time and lands in some slices and
/// not in others; in a bad minute it lands in more than half of them, and the
/// median of the slices jumps where their lower quartile holds. A slowdown of
/// the program itself shows in every slice, and so in this value too.
pub fn quiet_tail(per_slice: &[f64]) -> f64 {
    percentile(&sorted(per_slice), 0.25)
}

/// Which statistics a sample of `n` independent operation times supports. A
/// percentile is reported only when at least ten samples lie beyond it, in
/// every slice it is taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Support {
    /// At least 100 samples: `slices` slices, each with ten samples beyond
    /// `percentile` (0.99 from four slices of 1000 samples up, else 0.90 over
    /// slices of at least 100).
    /// The median is the median of the slice medians, the tail the quiet
    /// value ([`quiet_tail`]) of the slice percentiles.
    Sliced { slices: usize, percentile: f64 },
    /// Fewer than 100 samples: nothing beyond the median is supported, and
    /// the tail reads the same as the median.
    Median,
}

impl Support {
    pub fn for_samples(n: usize) -> Support {
        match n {
            0..=99 => Support::Median,
            // A quartile over fewer than four slices is hardly a quartile:
            // below 4000 samples the p90 over more slices repeats better
            // than the p99 over one to three.
            100..=3999 => Support::Sliced {
                slices: (n / 100).min(10),
                percentile: 0.90,
            },
            _ => Support::Sliced {
                slices: (n / 1000).min(10),
                percentile: 0.99,
            },
        }
    }

    pub fn label(self) -> String {
        match self {
            Support::Sliced { slices, percentile } => format!(
                "lower quartile of {slices} slice p{:.0}s",
                100.0 * percentile
            ),
            Support::Median => "median".to_string(),
        }
    }
}

/// Median and tail of a run's operation times.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    pub support: Support,
    /// The per-slice tail percentiles behind `tail` (empty when unsliced).
    pub slice_tails: Vec<f64>,
}

/// Summarises operation times in arrival order as [`Support`] allows.
/// `group` is how many consecutive samples share one fate (the requests of a
/// burst are answered by one flush): the support is judged on
/// `samples.len() / group` independent samples.
pub fn latency_summary(samples: &[f64], group: usize) -> Latency {
    let support = Support::for_samples(samples.len() / group.max(1));
    match support {
        Support::Sliced { slices, percentile } => {
            let slice_tails = slice_percentiles(samples, slices, percentile);
            Latency {
                p50: median(&slice_percentiles(samples, slices, 0.50)),
                tail: quiet_tail(&slice_tails),
                support,
                slice_tails,
            }
        }
        Support::Median => Latency {
            p50: median(samples),
            tail: median(samples),
            support,
            slice_tails: Vec::new(),
        },
    }
}

/// Work completed per second in each of `segments` equal-count, contiguous
/// groups of completions. `done` holds `(seconds since start, units)` per
/// completion in completion order; a group's clock starts where the previous
/// group's ended.
pub fn segment_rates(done: &[(f64, u64)], segments: usize) -> Vec<f64> {
    let segments = segments.clamp(1, done.len().max(1));
    let chunk = done.len() / segments;
    let mut rates = Vec::with_capacity(segments);
    let mut clock = 0.0;
    for i in 0..segments {
        let end = if i + 1 == segments {
            done.len()
        } else {
            (i + 1) * chunk
        };
        let group = &done[i * chunk..end];
        let Some(&(t_end, _)) = group.last() else {
            continue;
        };
        let units: u64 = group.iter().map(|&(_, n)| n).sum();
        if t_end > clock {
            rates.push(units as f64 / (t_end - clock));
        }
        clock = t_end;
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    /// `(median, tail)` of [`latency_summary`].
    fn summary(samples: &[f64], group: usize) -> (f64, f64) {
        let latency = latency_summary(samples, group);
        (latency.p50, latency.tail)
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 0.50), 5.0);
        assert_eq!(percentile(&v, 0.90), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&ramp(200), 0.99), 198.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_quiet_tail_ignores_slices_a_neighbour_hit() {
        // Ten slices of 1000: the p99 of a 1..=1000 ramp is 990. Stalls that
        // inflate the tails of six of the ten slices move those slices only.
        let mut samples: Vec<f64> = Vec::new();
        for slice in 0..10 {
            for i in 1..=1000 {
                let stall = if slice % 5 < 3 && i > 900 {
                    5000.0
                } else {
                    0.0
                };
                samples.push(i as f64 + stall);
            }
        }
        let tails = slice_percentiles(&samples, 10, 0.99);
        assert_eq!(tails.iter().filter(|t| **t == 990.0).count(), 4);
        assert_eq!(quiet_tail(&tails), 990.0);
        // The median of the slices and the whole-run p99 both see the stalls.
        assert!(median(&tails) > 5000.0);
        assert!(percentile(&sorted(&samples), 0.99) > 5000.0);
        assert_eq!(summary(&samples, 1), (500.0, 990.0));
        // One slice is the plain percentile.
        assert_eq!(slice_percentiles(&ramp(100), 1, 0.99), vec![99.0]);
        // A slowdown of the program shows in every slice and in the result.
        let slower: Vec<f64> = samples.iter().map(|s| s * 1.2).collect();
        assert_eq!(summary(&slower, 1).1, 990.0 * 1.2);
    }

    #[test]
    fn the_quiet_tail_is_the_lower_quartile() {
        assert_eq!(quiet_tail(&ramp(8)), 2.0);
        assert_eq!(quiet_tail(&[7.0]), 7.0);
        assert_eq!(quiet_tail(&[9.0, 7.0, 8.0]), 7.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        let sliced = |slices, percentile| Support::Sliced { slices, percentile };
        assert_eq!(Support::for_samples(6), Support::Median);
        assert_eq!(Support::for_samples(99), Support::Median);
        assert_eq!(Support::for_samples(100), sliced(1, 0.90));
        assert_eq!(Support::for_samples(528), sliced(5, 0.90));
        assert_eq!(Support::for_samples(999), sliced(9, 0.90));
        assert_eq!(Support::for_samples(1398), sliced(10, 0.90));
        assert_eq!(Support::for_samples(3999), sliced(10, 0.90));
        assert_eq!(Support::for_samples(4000), sliced(4, 0.99));
        assert_eq!(Support::for_samples(20_000), sliced(10, 0.99));
        assert_eq!(summary(&ramp(6), 1), (3.5, 3.5));
        assert_eq!(summary(&ramp(100), 1), (50.0, 90.0));
        // Four slices of 1000 with p99s 990, 1990, 2990, 3990.
        assert_eq!(summary(&ramp(4000), 1).1, 990.0);
        // Two slices of 100: the median of [50, 150], the quiet value of [90, 190].
        assert_eq!(summary(&ramp(200), 1), (100.0, 90.0));
        // 1000 samples in bursts of 8 are 125 independent ones: one slice, p90.
        assert_eq!(summary(&ramp(1000), 8), (500.0, 900.0));
        // Ungrouped they make ten slices of 100; the third smallest p90 is 290.
        assert_eq!(summary(&ramp(1000), 1).1, 290.0);
    }

    #[test]
    fn segment_rates_use_each_groups_own_clock() {
        // Four completions of 10 units; the second pair takes twice as long.
        let done = [(1.0, 10), (2.0, 10), (4.0, 10), (6.0, 10)];
        assert_eq!(segment_rates(&done, 2), vec![10.0, 5.0]);
        assert_eq!(segment_rates(&done, 1), vec![40.0 / 6.0]);
        assert_eq!(median(&segment_rates(&done, 4)), 7.5);
        assert!(segment_rates(&[], 3).is_empty());
    }
}
