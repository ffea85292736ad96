//! Order statistics for latency samples.

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Quantile `q` (in `0..=1`) of an ascending slice, interpolated between
/// the two nearest ranks (Hyndman and Fan's type 7, as numpy's default);
/// 0 for an empty one.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let h = last as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(last);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v), 0.5)
}

/// A tail percentile of a sample, with how many samples lie beyond it.
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
    pub samples: usize,
}

impl Tail {
    /// The rule a tail must meet: at least ten samples beyond it.
    pub fn supported(&self) -> bool {
        self.beyond >= 10
    }

    pub fn describe(&self) -> String {
        format!(
            "p{} of {} samples, {} beyond it{}",
            self.percentile,
            self.samples,
            self.beyond,
            if self.supported() {
                ""
            } else {
                " (FEWER THAN 10: tail not supported)"
            }
        )
    }
}

pub fn tail(v: &[f64], percentile: f64) -> Tail {
    let s = sorted(v);
    let n = s.len();
    let rank = ((percentile / 100.0 * n as f64).ceil() as usize).min(n);
    Tail {
        percentile,
        value: quantile(&s, percentile / 100.0),
        beyond: n - rank,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_a_uniform_grid() {
        let v: Vec<f64> = (1..=1001).map(f64::from).collect();
        assert!((median(&v) - 501.0).abs() < 1e-6);
        let t = tail(&v, 99.0);
        assert!((t.value - 991.0).abs() < 1.0, "{}", t.value);
        assert_eq!((t.beyond, t.supported()), (10, true));
        assert!(!tail(&v[..999], 99.0).supported());
        let big: Vec<f64> = (0..200_000).map(f64::from).collect();
        assert!((tail(&big, 99.9).value - 199_800.0).abs() < 2.0);
    }
}
