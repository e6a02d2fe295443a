//! Order statistics and the regression rule `compare` applies.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the "exclusive" method), so a spread computed here matches one
//! computed from the same numbers with the standard library there.

/// Whether a metric improves downwards (times) or upwards (rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Lower,
    Higher,
}

impl Direction {
    pub fn parse(s: &str) -> Option<Direction> {
        match s {
            "lower" => Some(Direction::Lower),
            "higher" => Some(Direction::Higher),
            _ => None,
        }
    }
}

/// How far a metric may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    pub better: Direction,
    /// Share of the base median.
    pub rel: f64,
    /// Absolute change below which nothing counts (0 for most metrics).
    pub abs_floor: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the middle pair for an even count). `v` must be
/// non-empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, as `statistics.quantiles(v, n=4)` gives
/// them; a single sample is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let ld = s.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)` by nearest rank; `None` below eleven samples.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n < 11 {
        return None;
    }
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, s[rank - 1]))
}

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(v: &[f64]) -> Summary {
        let (q1, q3) = quartiles(v);
        Summary {
            n: v.len(),
            median: median(v),
            q1,
            q3,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Judge the samples `b` of a change against the samples `a` of its
/// base. A spread wider than the bound leaves the row unresolved unless
/// every run of `b` reads better than every run of `a`; otherwise the
/// medians decide, and a move must exceed both the relative bound and
/// the absolute floor to count.
pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let sign = match bound.better {
        Direction::Lower => 1.0,
        Direction::Higher => -1.0,
    };
    if sa.rel_iqr().max(sb.rel_iqr()) > bound.rel {
        let worst_b = b.iter().map(|x| sign * x).fold(f64::MIN, f64::max);
        let best_a = a.iter().map(|x| sign * x).fold(f64::MAX, f64::min);
        return if worst_b < best_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let delta = sb.median - sa.median;
    let worsening = if sa.median == 0.0 {
        0.0
    } else {
        sign * delta / sa.median.abs()
    };
    if delta.abs() <= bound.abs_floor {
        Verdict::Unchanged
    } else if worsening > bound.rel {
        Verdict::Worse
    } else if -worsening > bound.rel {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER_10: Bound = Bound {
        better: Direction::Lower,
        rel: 0.10,
        abs_floor: 0.0,
    };

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // Two points extrapolate: [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let (pct, value) = tail(&v).expect("eleven samples");
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        assert_eq!(v.iter().filter(|&&x| x > 90.0).count(), 10);
    }

    #[test]
    fn rel_iqr_is_a_share_of_the_median() {
        let s = Summary::of(&[9.0, 10.0, 10.0, 10.0, 11.0]);
        assert_eq!(s.median, 10.0);
        assert!((s.rel_iqr() - 0.1).abs() < 1e-12, "{}", s.rel_iqr());
    }

    #[test]
    fn bound_logic_for_a_lower_is_better_metric() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.00];
        let same = [1.02, 1.00, 1.01, 0.99, 1.01];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.20];
        let faster = [0.80, 0.81, 0.79, 0.80, 0.80];
        assert_eq!(verdict(&base, &same, &LOWER_10), Verdict::Unchanged);
        assert_eq!(verdict(&base, &slower, &LOWER_10), Verdict::Worse);
        assert_eq!(verdict(&base, &faster, &LOWER_10), Verdict::Better);
    }

    #[test]
    fn direction_flips_for_a_higher_is_better_metric() {
        let higher = Bound {
            better: Direction::Higher,
            ..LOWER_10
        };
        let base = [100.0, 101.0, 99.0];
        assert_eq!(verdict(&base, &[80.0, 81.0, 79.0], &higher), Verdict::Worse);
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0], &higher),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [0.6, 1.0, 1.4, 0.7, 1.3];
        let mid = [0.9, 1.5, 1.1, 0.8, 1.2];
        assert_eq!(verdict(&noisy, &mid, &LOWER_10), Verdict::Unresolved);
        let all_below = [0.5, 0.55, 0.52, 0.51, 0.5];
        assert_eq!(verdict(&noisy, &all_below, &LOWER_10), Verdict::Better);
    }

    #[test]
    fn absolute_floor_absorbs_tiny_moves() {
        let floored = Bound {
            rel: 0.25,
            abs_floor: 1e-3,
            ..LOWER_10
        };
        // +100% but only 20 µs: within the 1 ms floor.
        assert_eq!(
            verdict(&[20e-6; 3], &[40e-6; 3], &floored),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&[0.010; 3], &[0.020; 3], &floored), Verdict::Worse);
    }
}
