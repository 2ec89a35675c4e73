//! Order statistics over measured samples.

/// Mean of the middle half of `v` (the values between its quartiles);
/// sorts `v` in place. Panics on an empty slice.
pub fn midmean(v: &mut [u64]) -> f64 {
    v.sort_unstable();
    let n = v.len();
    let mid = &v[n / 4..n - n / 4];
    mid.iter().sum::<u64>() as f64 / mid.len() as f64
}

/// The median of `v`: the mean of the two middle values when its length
/// is even. Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (0..=100) of an ascending slice, nearest rank.
pub fn percentile<T: Copy + Into<u64>>(sorted: &[T], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].into() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(midmean(&mut [3, 1, 2]), 2.0);
        assert_eq!(midmean(&mut [100, 1, 2, 3, 4, 0, 5, 6]), 3.5);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&[7u64], 95.0), 7.0);
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
    }
}
