//! Exact statistics over raw samples.

/// Percentiles tried for a tail, highest first. A workload reports the
/// highest one with at least ten samples beyond it; its sample counts are
/// fixed by design, so the choice is the same on every run.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.8];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of sorted samples: the smallest sample with at
/// least `q` of all samples at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median and tail of one latency population.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The tail percentile reported, e.g. 0.99.
    pub tail_q: f64,
    pub tail: f64,
}

impl Summary {
    /// `None` when even the median has fewer than ten samples beyond it.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let beyond = |q| n - rank(n, q);
        if n == 0 || beyond(0.5) < MIN_BEYOND {
            return None;
        }
        let tail_q = TAIL_LADDER
            .into_iter()
            .find(|&q| beyond(q) >= MIN_BEYOND)
            .unwrap_or(0.5);
        Some(Summary {
            n,
            p50: nearest_rank(&sorted, 0.5),
            tail_q,
            tail: nearest_rank(&sorted, tail_q),
        })
    }
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 50.0);
        assert_eq!(nearest_rank(&s, 0.99), 99.0);
        assert_eq!(nearest_rank(&s, 1.0), 100.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let sum = Summary::of(&s).unwrap();
        assert_eq!((sum.tail_q, sum.tail), (0.99, 990.0));
        let s: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(Summary::of(&s).unwrap().tail_q, 0.9);
        assert!(Summary::of(&[1.0; 15]).is_none());
    }
}
