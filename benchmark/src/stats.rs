//! Order statistics over samples and segments, and the regression
//! verdict `--compare` gives.

/// Median; the mean of the middle pair for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses by default. With one value
/// both quartiles are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    assert!(len > 0, "quartiles of nothing");
    if len == 1 {
        return (v[0], v[0]);
    }
    let m = len + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// A metric over segments: its median and quartiles, and the values.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub values: Vec<f64>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            values: values.to_vec(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `old` for a metric with the given direction and
/// bound (a share of the old median), after the choosing-metrics rules:
///
/// - when the spread (the wider interquartile range, as a share of the
///   old median) exceeds the bound, only a complete separation decides —
///   every new value better than every old one, or every one worse —
///   and anything else is unresolved;
/// - otherwise a median worse by more than the bound regressed, and one
///   better by more than the old interquartile range improved, provided
///   the new values win at least nine tenths of all old × new pairs;
/// - anything else is unchanged.
pub fn verdict(old: &Summary, new: &Summary, higher_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let base = old.median.abs().max(f64::MIN_POSITIVE);
    let spread = (old.q3 - old.q1).max(new.q3 - new.q1) / base;
    let all_pairs = |f: &dyn Fn(f64, f64) -> bool| {
        new.values
            .iter()
            .all(|&n| old.values.iter().all(|&o| f(n, o)))
    };
    if spread > bound {
        return if all_pairs(&|n, o| better(n, o)) {
            Verdict::Improved
        } else if all_pairs(&|n, o| better(o, n)) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    // Signed change of the median, positive when it got worse.
    let worse_by = if higher_is_better {
        old.median - new.median
    } else {
        new.median - old.median
    } / base;
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let wins = new
        .values
        .iter()
        .map(|&n| old.values.iter().filter(|&&o| better(n, o)).count())
        .sum::<usize>();
    let pairs = new.values.len() * old.values.len();
    if -worse_by * base > old.q3 - old.q1 && wins * 10 >= pairs * 9 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.median / statistics.quantiles(n=4) on the same data.
        let five = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&five), 3.0);
        assert_eq!(quartiles(&five), (1.5, 4.5));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&ten), 5.5);
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[7.0, 9.0]), (6.5, 9.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    fn summary(values: &[f64]) -> Summary {
        Summary::of(values)
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let old = summary(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // Lower is better: 20% slower is a regression past a 10% bound.
        let slower = summary(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        assert_eq!(verdict(&old, &slower, false, 0.1), Verdict::Regressed);
        // 5% slower stays within the bound.
        let same = summary(&[105.0, 106.0, 104.0, 105.5, 104.5]);
        assert_eq!(verdict(&old, &same, false, 0.1), Verdict::Unchanged);
        // 10% faster, beyond the old spread, winning every pair.
        let faster = summary(&[90.0, 91.0, 89.0, 90.5, 89.5]);
        assert_eq!(verdict(&old, &faster, false, 0.1), Verdict::Improved);
        // The same numbers read as throughput flip the verdicts.
        assert_eq!(verdict(&old, &faster, true, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&old, &slower, true, 0.1), Verdict::Improved);
        // A spread wider than the bound with overlapping values.
        let noisy = summary(&[70.0, 130.0, 100.0, 85.0, 115.0]);
        assert_eq!(verdict(&old, &noisy, false, 0.1), Verdict::Unresolved);
    }
}
