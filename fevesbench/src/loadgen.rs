//! The open-loop arrival schedule of `farm-qcif`: seeded Poisson arrival
//! times, fixed before the run starts, so a slow daemon receives the same
//! load as a fast one and its queue grows.

/// SplitMix64: a small, seedable, well-mixed generator.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Arrivals per stratum of [`poisson_schedule`].
pub const STRATUM: usize = 4;

/// Due times (seconds from the start of the run) of `n` arrivals at
/// `rate_per_s`: a Poisson process conditioned on [`STRATUM`] arrivals in
/// each consecutive window of `STRATUM / rate_per_s` seconds (the last
/// window holds the remainder). Within a window the arrivals are uniform
/// order statistics, i.e. the arrival times of a Poisson process given its
/// count, so they still cluster and leave gaps at random; but every seed
/// offers the same load in every window, so runs differ in where arrivals
/// cluster, not in how much work piles up.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, n: usize) -> Vec<f64> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let mut due = Vec::with_capacity(n);
    for start in (0..n).step_by(STRATUM) {
        let k = STRATUM.min(n - start);
        let t0 = start as f64 / rate_per_s;
        let window = k as f64 / rate_per_s;
        let mut w: Vec<f64> = (0..k).map(|_| t0 + rng.next_f64() * window).collect();
        w.sort_by(f64::total_cmp);
        due.extend(w);
    }
    due
}

/// `k` distinct indices in `0..n`, chosen by `seed`, ascending.
pub fn pick(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = SplitMix64::new(seed);
    // Partial Fisher–Yates: the first k slots are a uniform sample.
    for i in 0..k.min(n) {
        let j = i + (rng.next_u64() % (n - i) as u64) as usize;
        idx.swap(i, j);
    }
    let mut chosen = idx[..k.min(n)].to_vec();
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_sorted_and_offers_the_asked_load() {
        let a = poisson_schedule(7, 4.0, 20_000);
        assert_eq!(
            a,
            poisson_schedule(7, 4.0, 20_000),
            "same seed, same schedule"
        );
        assert_ne!(
            a[..10],
            poisson_schedule(8, 4.0, 20_000)[..10],
            "seeds differ"
        );
        assert!(a.windows(2).all(|w| w[1] >= w[0]), "sorted");
        assert!(a[0] >= 0.0 && a[a.len() - 1] < 5_000.0, "inside the window");
        // The last arrival closes the window: the offered rate is the asked one.
        assert!((a.len() as f64 / a[a.len() - 1] - 4.0).abs() < 0.01);
        // Every window holds exactly STRATUM arrivals.
        for (w, chunk) in a.chunks(STRATUM).enumerate() {
            let t0 = w as f64 * STRATUM as f64 / 4.0;
            assert!(chunk
                .iter()
                .all(|&t| t >= t0 && t < t0 + STRATUM as f64 / 4.0));
        }
        // Gaps stay irregular: below a free Poisson process's coefficient
        // of variation (1), since each window's count is fixed, but far
        // from a periodic schedule's (0).
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let m = crate::stats::mean(&gaps);
        assert!((m - 0.25).abs() < 0.01, "mean gap {m}");
        let sd = (gaps.iter().map(|g| (g - m).powi(2)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!((0.7..1.0).contains(&(sd / m)), "cv {}", sd / m);
    }

    #[test]
    fn schedule_of_a_fixed_seed_is_pinned() {
        let a = poisson_schedule(1, 2.0, 3);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|&t| (0.0..1.5).contains(&t)));
        // Rescaling the rate rescales every due time.
        let c = poisson_schedule(1, 4.0, 3);
        for (x, y) in a.iter().zip(&c) {
            assert!((x / 2.0 - y).abs() < 1e-12);
        }
    }

    #[test]
    fn pick_is_seeded_distinct_and_in_range() {
        let p = pick(3, 100, 5);
        assert_eq!(p, pick(3, 100, 5));
        assert_eq!(p.len(), 5);
        assert!(p.windows(2).all(|w| w[0] < w[1]));
        assert!(p.iter().all(|&i| i < 100));
        assert_eq!(pick(3, 4, 9), vec![0, 1, 2, 3]);
    }
}
