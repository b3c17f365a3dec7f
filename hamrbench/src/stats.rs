//! Order statistics for repeated measurements.

/// Sample count, quartiles and median of one metric's raw values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Quartiles by the "exclusive" rule of Python's
    /// `statistics.quantiles(xs, n=4)`, so a spread read from this
    /// summary matches one computed over the printed values. `None`
    /// for an empty sample; one value is its own quartiles.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        let mut v: Vec<f64> = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => None,
            1 => Some(Summary {
                n,
                q1: v[0],
                median: v[0],
                q3: v[0],
            }),
            _ => {
                let cut = |i: usize| {
                    let m = n + 1;
                    let j = (i * m / 4).clamp(1, n - 1);
                    let delta = (i * m) as f64 - (j * 4) as f64; // may be negative
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                Some(Summary {
                    n,
                    q1: cut(1),
                    median: cut(2),
                    q3: cut(3),
                })
            }
        }
    }
}

/// The median of a sample; NaN when it is empty, so a metric whose
/// every execution failed still prints and the run reads as incorrect.
pub fn median(xs: &[f64]) -> f64 {
    Summary::of(xs).map_or(f64::NAN, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive rule extrapolates past the ends of small samples.
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!(Summary::of(&[]).is_none());
    }
}
