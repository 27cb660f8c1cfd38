//! The benchmark's own arithmetic: medians, quartiles, fitted
//! exponents and the Fig. 6 timing error.

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the steadiness check uses.
/// A single value is its own quartiles; empty input gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => return (0.0, 0.0),
        1 => return (v[0], v[0]),
        _ => {}
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Least-squares slope of `ln t` against `ln p`: the exponent `k` in
/// `t ≈ c·p^k`. Points with a non-positive coordinate are skipped; fewer
/// than two distinct `p` values give 0.
pub fn fit_exponent(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(p, t)| *p > 0.0 && *t > 0.0)
        .map(|(p, t)| (p.ln(), t.ln()))
        .collect();
    let n = logs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = logs.iter().map(|l| l.0).sum::<f64>() / n;
    let my = logs.iter().map(|l| l.1).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|l| (l.0 - mx).powi(2)).sum();
    let sxy: f64 = logs.iter().map(|l| (l.0 - mx) * (l.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// Mean absolute percentage error of generated-benchmark times against
/// application times, given as `(t_app, t_gen)` pairs (the paper's Fig. 6
/// metric). Pairs with `t_app == 0` are skipped; no usable pair gives 0.
pub fn mape_pct(pairs: &[(f64, f64)]) -> f64 {
    let errs: Vec<f64> = pairs
        .iter()
        .filter(|(app, _)| *app > 0.0)
        .map(|(app, gen)| (gen - app).abs() / app * 100.0)
        .collect();
    if errs.is_empty() {
        0.0
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    // Expected values from Python 3: statistics.quantiles(data, n=4).
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0]);
        assert!(close(q1, 1.0) && close(q3, 5.0), "{q1} {q3}");
        let (q1, q3) = quartiles(&[2.0, 1.0]);
        assert!(close(q1, 0.75) && close(q3, 2.25), "{q1} {q3}");
        let (q1, q3) = quartiles(&[0.9, 1.1, 1.0, 1.3, 0.95, 1.05, 1.2]);
        assert!(close(q1, 0.95) && close(q3, 1.2), "{q1} {q3}");
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn exponent_fit_recovers_power_laws() {
        let quad: Vec<(f64, f64)> = [16.0, 64.0, 256.0]
            .iter()
            .map(|&p| (p, 3.0 * p * p))
            .collect();
        assert!(close(fit_exponent(&quad), 2.0));
        let lin = [(64.0, 10.0), (256.0, 40.0)];
        assert!(close(fit_exponent(&lin), 1.0));
        assert_eq!(fit_exponent(&[(64.0, 1.0)]), 0.0);
        assert_eq!(fit_exponent(&[(64.0, 1.0), (64.0, 2.0)]), 0.0);
        assert_eq!(fit_exponent(&[(64.0, 0.0), (256.0, 5.0)]), 0.0);
    }

    #[test]
    fn mape_is_the_mean_relative_error_in_percent() {
        let m = mape_pct(&[(100.0, 110.0), (200.0, 190.0), (50.0, 50.0)]);
        assert!(close(m, (10.0 + 5.0 + 0.0) / 3.0), "{m}");
        assert_eq!(mape_pct(&[(0.0, 5.0)]), 0.0);
        assert_eq!(mape_pct(&[]), 0.0);
    }
}
