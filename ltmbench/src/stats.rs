//! Summary statistics computed by the benchmark itself (no program
//! histogram is read), so a change to the program's metrics layer cannot
//! move a reported number.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between order statistics (the "type 7" definition: the minimum at
/// `q = 0`, the maximum at `q = 1`, the usual median at `q = 0.5`).
///
/// # Panics
///
/// Panics on an empty slice, a NaN sample, or `q` outside `[0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The interquartile mean of per-block statistics: the mean of the
/// middle half once the lowest and highest quarter (`⌊n/4⌋` blocks each)
/// are set aside. On a shared host some blocks of a run are slowed by
/// steal bursts and some sped up while the neighbours idle; a quantile
/// of the blocks jumps between those levels as their mix changes from
/// run to run, while the middle half's mean moves little with either end
/// and fully with a program that is slower in every block.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn interquartile_mean(blocks: &[f64]) -> f64 {
    assert!(!blocks.is_empty(), "interquartile mean of no samples");
    let mut sorted = blocks.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 11.0);
        assert_eq!(quantile(&xs, 0.9), 10.0);
        // 0.25 × 3 = 0.75 of the way from 10 to 20.
        assert!((quantile(&[40.0, 10.0, 30.0, 20.0], 0.25) - 17.5).abs() < 1e-12);
        // Matches numpy.percentile([1, 2, 3, 4, 100], 90) = 61.6.
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0, 100.0], 0.9) - 61.6).abs() < 1e-9);
    }

    #[test]
    fn quantiles_ignore_input_order_and_are_monotone() {
        let xs = [5.0, 0.5, 9.0, 2.0, 2.0, 7.5, 1.0];
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = quantile(&xs, f64::from(i) / 20.0);
            assert!(q >= last);
            last = q;
        }
        let mut rev = xs;
        rev.reverse();
        assert_eq!(quantile(&xs, 0.37), quantile(&rev, 0.37));
    }

    #[test]
    fn interquartile_mean_sets_aside_each_outer_quarter() {
        // Eight blocks: the lowest two and highest two are set aside.
        assert_eq!(
            interquartile_mean(&[100.0, 5.0, 1.0, 4.0, 3.0, 6.0, 0.0, 90.0]),
            4.5
        );
        // Fewer than four blocks: nothing is set aside.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
        // One slow and one fast outlier in nine blocks do not move it.
        let steady = [2.0; 7];
        let mut mixed = steady.to_vec();
        mixed.extend([50.0, 0.1]);
        assert_eq!(interquartile_mean(&mixed), interquartile_mean(&steady));
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_panics() {
        quantile(&[], 0.5);
    }
}
