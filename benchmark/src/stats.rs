//! Order statistics and means used by every metric.

/// Sorts ascending. Timings are never NaN; if one were, it sorts last.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
}

/// The `q`-quantile (0..=1) of an ascending slice, linearly interpolated
/// between neighbouring ranks; 0 for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let below = rank.floor() as usize;
            let above = (below + 1).min(n - 1);
            sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
        }
    }
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    quantile_sorted(&sorted, q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail quantile a sample of `n` timings can support: 0.90 from 100
/// samples on; below that, the highest quantile that still has ten samples
/// beyond it; and the median when there are not even twenty samples. The
/// caller reports which one it used.
pub fn tail_quantile(n: usize) -> f64 {
    if n >= 100 {
        0.90
    } else if n >= 20 {
        (n - 10) as f64 / n as f64
    } else {
        0.5
    }
}

/// How far above its surroundings an op can land: the `q`-quantile of each
/// sample divided by the median of the `2 * half_window + 1` samples around
/// it (fewer at the ends). `series` is in time order. Dividing by the running
/// median takes out slow changes of the machine's speed, which this tail is
/// not about, and keeps what single ops add on top: stragglers, stalls.
pub fn local_tail_factor(series: &[f64], half_window: usize, q: f64) -> f64 {
    let ratios: Vec<f64> = (0..series.len())
        .map(|i| {
            let around =
                &series[i.saturating_sub(half_window)..(i + half_window + 1).min(series.len())];
            ratio(series[i], median(around))
        })
        .collect();
    quantile(&ratios, q)
}

/// The median, over up to `blocks` consecutive equal parts of `series`, of
/// each part's `sum(numerators) / sum(series)`: a rate that one slow stretch
/// of the machine cannot drag down the way it drags a whole-window mean.
pub fn median_block_rate(series: &[f64], per_sample: f64, blocks: usize) -> f64 {
    let blocks = blocks.min(series.len()).max(1);
    let rates: Vec<f64> = (0..blocks)
        .map(|b| {
            let part = &series[b * series.len() / blocks..(b + 1) * series.len() / blocks];
            ratio(per_sample * part.len() as f64, part.iter().sum())
        })
        .collect();
    median(&rates)
}

/// Geometric mean of the strictly positive values; 0 when there are none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0_f64, 0_u32);
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (ratios of empty counters).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.625), 3.5);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(5000), 0.90);
        // 99 samples: ten beyond p(89/99).
        assert!((tail_quantile(99) - 89.0 / 99.0).abs() < 1e-12);
        // 45 samples: ten beyond p77.7.
        assert!((tail_quantile(45) - 35.0 / 45.0).abs() < 1e-12);
        assert_eq!(tail_quantile(20), 0.5);
        assert_eq!(tail_quantile(19), 0.5);
        assert_eq!(tail_quantile(0), 0.5);
        // Whatever quantile is chosen leaves at least ten samples above it.
        for n in 20..200 {
            let beyond = n as f64 * (1.0 - tail_quantile(n));
            assert!(beyond >= 10.0 - 1e-9, "n={n}: {beyond}");
        }
    }

    #[test]
    fn local_tail_ignores_a_slow_change_of_level() {
        // The machine runs 2x slower for the last quarter of the window.
        let shifted: Vec<f64> = (0..400).map(|i| if i < 300 { 1.0 } else { 2.0 }).collect();
        assert_eq!(quantile(&shifted, 0.9) / median(&shifted), 2.0);
        assert_eq!(local_tail_factor(&shifted, 5, 0.9), 1.0);
        // Every tenth op takes 1.5x its neighbours: that is the tail.
        let spiky: Vec<f64> = (0..400)
            .map(|i| if i % 10 == 9 { 1.5 } else { 1.0 })
            .collect();
        assert_eq!(local_tail_factor(&spiky, 5, 0.95), 1.5);
        // A flat series has no tail; an empty one no factor.
        assert_eq!(local_tail_factor(&[3.0; 50], 5, 0.9), 1.0);
        assert_eq!(local_tail_factor(&[], 5, 0.9), 0.0);
    }

    #[test]
    fn block_rate_is_the_median_of_the_parts() {
        // Ten rounds of 4 ops; two slow rounds fall into one fifth.
        let mut busy = vec![1.0; 10];
        busy[0] = 9.0;
        busy[1] = 9.0;
        assert_eq!(median_block_rate(&busy, 4.0, 5), 4.0);
        assert_eq!(median_block_rate(&[2.0], 4.0, 5), 2.0);
        assert_eq!(median_block_rate(&[], 4.0, 5), 0.0);
    }

    #[test]
    fn geomean_skips_non_positive_values() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([2.0, 0.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean([]), 0.0);
        assert_eq!(geomean([0.0]), 0.0);
    }

    #[test]
    fn ratio_of_empty_counters_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }
}
