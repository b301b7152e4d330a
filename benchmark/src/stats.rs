//! Order statistics over timing samples, and the [`Stat`] every metric is
//! reported as (`value n q1 q3`).

/// One reported number with the size and quartiles of the sample behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

impl Stat {
    /// A count or a single measurement: no distribution behind it.
    pub fn exact(value: f64) -> Stat {
        Stat {
            value,
            n: 1,
            q1: value,
            q3: value,
        }
    }

    /// The median of `samples`, with their quartiles.
    pub fn median(samples: &[f64]) -> Stat {
        Stat::at(samples, 0.5)
    }

    /// The `p`-quantile (0..=1) of `samples`, with their quartiles.
    pub fn at(samples: &[f64], p: f64) -> Stat {
        let (q1, q3) = quartiles(samples);
        Stat {
            value: percentile(samples, p),
            n: samples.len(),
            q1,
            q3,
        }
    }

    /// The same statistic in another unit.
    pub fn scaled(self, factor: f64) -> Stat {
        Stat {
            value: self.value * factor,
            n: self.n,
            q1: self.q1 * factor,
            q3: self.q3 * factor,
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `p`-quantile (0..=1) by linear interpolation between closest ranks;
/// 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method: rank `p·(n+1)`), because the
/// driver judges run-to-run spread with that function.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    match v.len() {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        n => {
            let at = |p: f64| {
                let rank = (p * (n + 1) as f64).clamp(1.0, n as f64);
                let lo = rank.floor() as usize;
                let frac = rank - lo as f64;
                if lo >= n {
                    v[n - 1]
                } else {
                    v[lo - 1] + (v[lo] - v[lo - 1]) * frac
                }
            };
            (at(0.25), at(0.75))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!((percentile(&v, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], clamped to
        // the sample range here.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 2.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        assert_eq!(median(&[1.0, f64::NAN, 3.0]), 2.0);
    }
}
