//! Order statistics, the geometric mean and the seeded generator the
//! workloads draw kernel orders and request sequences from.

/// Median of `xs` (mean of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `xs`.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of an empty sample");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `xs`, together with how
/// many samples lie strictly beyond its rank.
pub fn percentile(xs: &[f64], q: f64) -> (f64, usize) {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "percentile {q} out of (0, 1]");
    let v = sorted(xs);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// The 99th percentile, refused unless at least `min_beyond` samples lie
/// beyond it: a tail estimate from fewer samples is not reported.
pub fn p99(xs: &[f64], min_beyond: usize) -> Result<f64, String> {
    let (value, beyond) = percentile(xs, 0.99);
    if beyond < min_beyond {
        return Err(format!(
            "p99 of {} samples leaves {beyond} beyond it, fewer than {min_beyond}",
            xs.len()
        ));
    }
    Ok(value)
}

/// Samples needed so that [`p99`] leaves `min_beyond` samples beyond it.
pub fn p99_min_samples(min_beyond: usize) -> usize {
    min_beyond * 100
}

/// Geometric mean of strictly positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty sample");
    assert!(
        xs.iter().all(|x| *x > 0.0 && x.is_finite()),
        "geomean needs finite positive values"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same kernel order and request sequence on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream` (independent streams for
    /// independent clients).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), (50.0, 50));
        assert_eq!(percentile(&xs, 0.99), (99.0, 1));
        assert_eq!(percentile(&xs, 1.0), (100.0, 0));
        assert_eq!(percentile(&[5.0], 0.99), (5.0, 0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let ok: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(p99(&ok, 10), Ok(989.0));
        assert_eq!(percentile(&ok, 0.99).1, 10);
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(p99(&short, 10).is_err(), "999 samples leave only 9 beyond");
        assert_eq!(p99_min_samples(10), 1000);
        let (_, beyond) = percentile(&vec![1.0; p99_min_samples(10)], 0.99);
        assert!(beyond >= 10);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        let mut v: Vec<usize> = (0..30).collect();
        Rng::new(5, 0).shuffle(&mut v);
        let mut w = v.clone();
        w.sort();
        assert_eq!(w, (0..30).collect::<Vec<_>>(), "a shuffle is a permutation");
    }
}
