//! Order statistics over timing samples.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks; `NaN` for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A metric value with the spread of the samples it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The reported value.
    pub value: f64,
    /// First quartile of the samples.
    pub p25: f64,
    /// Third quartile of the samples.
    pub p75: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// The median of `samples`, with their quartiles.
    pub fn median_of(samples: &[f64]) -> Summary {
        Summary {
            value: median(samples),
            p25: quantile(samples, 0.25),
            p75: quantile(samples, 0.75),
            n: samples.len(),
        }
    }

    /// A value computed once rather than from samples.
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            p25: value,
            p75: value,
            n: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.25), 1.75);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
