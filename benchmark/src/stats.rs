//! Order statistics over timing samples.

use crate::json::Json;

/// The `p`-th percentile (0–100) of `sorted`, linearly interpolated between
/// the two closest ranks — what numpy and spreadsheet `PERCENTILE` return.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    v
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Sample count and quartiles of one timing: printed beside every metric so
/// a reader can judge it, and the input of the *noisy* label.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            p25: percentile(&s, 25.0),
            p50: percentile(&s, 50.0),
            p75: percentile(&s, 75.0),
        }
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.p50 == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.p50.abs()
        }
    }

    /// The same summary in another unit (`value × factor`).
    pub fn scaled(&self, factor: f64) -> Summary {
        Summary {
            n: self.n,
            p25: self.p25 * factor,
            p50: self.p50 * factor,
            p75: self.p75 * factor,
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("n", Json::Num(self.n as f64)),
            ("p25", Json::Num(self.p25)),
            ("p50", Json::Num(self.p50)),
            ("p75", Json::Num(self.p75)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the textbook definition on an explicitly sorted copy.
    fn reference(samples: &[f64], p: f64) -> f64 {
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let h = (s.len() - 1) as f64 * p / 100.0;
        let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
        s[lo] * (1.0 - (h - lo as f64)) + s[hi] * (h - lo as f64)
    }

    #[test]
    fn percentiles_match_the_sorted_reference() {
        let samples: Vec<f64> = (0..101).map(|i| ((i * 37) % 101) as f64).collect();
        let s = sorted(&samples);
        for p in [0.0, 1.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0] {
            assert_eq!(percentile(&s, p), p, "0..=100 shuffled: p{p} is {p}");
            assert!((percentile(&s, p) - reference(&samples, p)).abs() < 1e-12);
        }
        let odd = [5.0, 1.0, 9.0];
        assert_eq!(median(&odd), 5.0);
        let even = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&even), 2.5);
        assert!((percentile(&sorted(&even), 99.0) - reference(&even, 99.0)).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn summary_quartiles_and_spread() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.p25, s.p50, s.p75), (5, 2.0, 3.0, 4.0));
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.scaled(1000.0).p50, 3000.0);
    }
}
