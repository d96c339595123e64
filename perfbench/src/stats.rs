//! The arithmetic every reported number rests on: nearest-rank
//! percentiles that only claim a tail they have samples for, medians,
//! and the min/median/max spread over a run's rounds.

/// Samples a percentile must leave beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p`% of the sample at or below it (rank
/// `ceil(p/100 * n)`, 1-based). `None` for an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A percentile as reported: the requested one, lowered until at least
/// [`TAIL_SAMPLES`] samples lie beyond it, with the sample count behind
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile actually reported (at most the requested one).
    pub p: f64,
    pub value: f64,
    pub samples: usize,
}

/// The highest percentile `<= requested` that leaves at least
/// [`TAIL_SAMPLES`] samples beyond its rank. `None` when the sample has
/// no such percentile (ten samples or fewer).
pub fn tail_percentile(sorted: &[f64], requested: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let max_rank = n - TAIL_SAMPLES;
    let rank = ((requested / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    // Capped ranks report their own percentile; comparing ranks (not
    // percentiles) keeps float rounding out of the cap.
    let (rank, p) = if rank > max_rank {
        (max_rank, 100.0 * max_rank as f64 / n as f64)
    } else {
        (rank, requested)
    };
    Some(Percentile {
        p,
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Median (nearest-rank p50) of an unsorted sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 50.0)
}

/// Min, median and max of per-round values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub rounds: usize,
}

pub fn spread(values: &[f64]) -> Option<Spread> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Spread {
        min: *v.first()?,
        median: nearest_rank(&v, 50.0)?,
        max: *v.last()?,
        rounds: v.len(),
    })
}

/// Failed over attempted operations, where a refused request, an error
/// event, a missing terminal event and a fidelity mismatch each count as
/// a failure of the operation they belong to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation and whether it failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            // Nothing attempted is a broken run, not a clean one.
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_is_ceil_of_p_times_n() {
        let s = one_to(100);
        assert_eq!(nearest_rank(&s, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&s, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[3.0, 4.0], 50.0), Some(3.0));
        assert_eq!(nearest_rank(&[3.0, 4.0], 51.0), Some(4.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly ten beyond rank 990.
        let s = one_to(1000);
        let p99 = tail_percentile(&s, 99.0).unwrap();
        assert_eq!((p99.p, p99.value, p99.samples), (99.0, 990.0, 1000));
        // 200 samples: p99 would leave 2 beyond, so it drops to p95
        // (rank 190, ten beyond) and says so.
        let s = one_to(200);
        let t = tail_percentile(&s, 99.0).unwrap();
        assert_eq!((t.p, t.value, t.samples), (95.0, 190.0, 200));
        assert_eq!(s.len() - t.value as usize, TAIL_SAMPLES);
        // The median is unaffected when the sample is large enough.
        assert_eq!(tail_percentile(&s, 50.0).unwrap().value, 100.0);
        // Ten samples cannot support any percentile with ten beyond it.
        assert_eq!(tail_percentile(&one_to(10), 50.0), None);
        assert_eq!(tail_percentile(&one_to(11), 99.0).unwrap().value, 1.0);
    }

    #[test]
    fn spread_and_median_ignore_input_order() {
        let s = spread(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.min, s.median, s.max, s.rounds), (1.0, 3.0, 5.0, 3));
        assert_eq!(median(&[4.0, 2.0, 1.0, 3.0]), Some(2.0));
        assert_eq!(spread(&[]), None);
    }

    #[test]
    fn error_rate_counts_refusals_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false); // a refused request
        t.record(true);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.error_rate(), 0.25);
        let mut sum = Tally::default();
        sum.absorb(t);
        sum.absorb(Tally {
            attempted: 4,
            failed: 0,
        });
        assert_eq!(sum.error_rate(), 0.125);
        assert_eq!(Tally::default().error_rate(), 1.0);
    }
}
