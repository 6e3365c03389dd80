//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark prints comes from the full list of
//! samples it kept, never from a bucketed histogram: a 1-2-5 grid reads a
//! 56 µs median as "100 µs" and cannot resolve a 10 % move.

/// The `q`-quantile of `sorted` by the nearest-rank rule: the smallest
/// sample with at least `q · n` samples at or below it. `sorted` must be
/// ascending and non-empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (nearest rank, like [`quantile`]).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A percentile read off a sample, with how many samples it rests on.
#[derive(Debug, Clone, Copy)]
pub struct Pct {
    /// The value.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// `(p50, p99)` of `values`, each with the sample count.
pub fn p50_p99(values: &[f64]) -> (Pct, Pct) {
    let s = sorted(values);
    let n = s.len();
    (
        Pct {
            value: quantile(&s, 0.5),
            samples: n,
        },
        Pct {
            value: quantile(&s, 0.99),
            samples: n,
        },
    )
}

/// Fewest samples a window needs for its p99 to rest on ten samples
/// beyond it.
const MIN_WINDOW: usize = 1_000;

/// A quantile that one stall cannot swing: the median, over consecutive
/// windows of `window_ns` by due instant, of each window's
/// `q`-quantile. Windows with fewer than [`MIN_WINDOW`] samples are
/// skipped; with none left it is the plain quantile. `at_ns[i]` is the
/// due instant of `values[i]`.
pub fn windowed(values: &[f64], at_ns: &[u64], window_ns: u64, q: f64) -> Pct {
    assert_eq!(values.len(), at_ns.len(), "one due instant per sample");
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for (&v, &t) in values.iter().zip(at_ns) {
        windows.entry(t / window_ns.max(1)).or_default().push(v);
    }
    let per: Vec<f64> = windows
        .values()
        .filter(|w| w.len() >= MIN_WINDOW)
        .map(|w| quantile(&sorted(w), q))
        .collect();
    let value = if per.is_empty() {
        quantile(&sorted(values), q)
    } else {
        median(&per)
    };
    Pct {
        value,
        samples: values.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_a_hand_computed_vector() {
        // 1..=10: p50 is the 5th value, p90 the 9th, p99 and p100 the
        // 10th, p0 and p10 the 1st.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.10), 1.0);
        assert_eq!(quantile(&v, 0.11), 2.0);
        assert_eq!(quantile(&v, 0.50), 5.0);
        assert_eq!(quantile(&v, 0.90), 9.0);
        assert_eq!(quantile(&v, 0.99), 10.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        // 200 samples 0.5, 1.5, ...: p99 is the 198th value.
        let w: Vec<f64> = (0..200).map(|i| i as f64 + 0.5).collect();
        assert_eq!(quantile(&w, 0.99), 197.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_quantile_ignores_one_bad_window() {
        // Three windows of 1000 samples 1..=1000; the middle one has a
        // stall that lifts its tail to 10x.
        let mut v = Vec::new();
        let mut at = Vec::new();
        for w in 0..3u64 {
            for i in 1..=1000u64 {
                let slow = w == 1 && i > 900;
                v.push(if slow { i as f64 * 10.0 } else { i as f64 });
                at.push(w * 1_000 + i - 1);
            }
        }
        let p = windowed(&v, &at, 1_000, 0.99);
        assert_eq!((p.value, p.samples), (990.0, 3000));
        // Windows too small to carry a p99 fall back to the plain p99.
        assert_eq!(
            windowed(&v, &at, 10, 0.99).value,
            quantile(&sorted(&v), 0.99)
        );
        assert_eq!(windowed(&v, &at, 1_000, 0.5).value, 500.0);
    }

    #[test]
    fn p50_p99_reports_the_sample_count() {
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let (p50, p99) = p50_p99(&v);
        assert_eq!((p50.value, p50.samples), (499.0, 1000));
        assert_eq!((p99.value, p99.samples), (989.0, 1000));
    }
}
