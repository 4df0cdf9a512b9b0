//! Seeded random number generation.
//!
//! A self-contained xoshiro256++ generator (Blackman & Vigna) seeded
//! through SplitMix64, with the sampling primitives the rest of the
//! workspace needs (normal deviates via the Box–Muller transform,
//! Bernoulli draws, permutations) behind a stable, deterministic-by-seed
//! API. Every stochastic component in the reproduction (weight init, data
//! synthesis, latent sampling, domain-label masking) draws from an
//! explicitly seeded `Rng` so experiments replay bit-for-bit. No external
//! crates: the workspace must build with no registry access.

/// Core xoshiro256++ state. 256 bits, period 2^256 − 1; all-zero state is
/// impossible after SplitMix64 expansion.
#[derive(Debug, Clone)]
struct Xoshiro256 {
    s: [u64; 4],
}

/// SplitMix64 step — the recommended seed expander for xoshiro.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Xoshiro256 {
    fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Deterministic random source used throughout the workspace.
#[derive(Debug)]
pub struct Rng {
    inner: Xoshiro256,
    /// Cached second deviate from the Box–Muller transform.
    spare_normal: Option<f32>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed. Equal seeds produce equal
    /// streams on every platform.
    pub fn seed_from(seed: u64) -> Self {
        Self {
            inner: Xoshiro256::from_seed(seed),
            spare_normal: None,
        }
    }

    /// The raw next 64-bit output of the generator.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform sample in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        // 24 high bits -> all f32 values in [0, 1) are representable.
        (self.inner.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform sample in `[lo, hi)`. `lo` must be `<= hi`; when they are
    /// equal the point value is returned.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        debug_assert!(lo <= hi, "uniform bounds inverted: [{lo}, {hi})");
        lo + (hi - lo) * self.unit()
    }

    /// Standard normal sample via Box–Muller (polar form avoided to keep the
    /// stream consumption per call predictable: exactly two uniforms per
    /// pair of deviates).
    pub fn standard_normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Guard against ln(0).
        let u1 = self.unit().max(f32::MIN_POSITIVE);
        let u2 = self.unit();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        debug_assert!(std >= 0.0, "negative std {std}");
        mean + std * self.standard_normal()
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f32) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        // Lemire's multiply-shift bounded sampler; the bias for any
        // realistic n (≪ 2^64) is far below observable.
        ((self.inner.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx
    }

    /// Vector of `n` standard-normal samples.
    pub fn normal_vec(&mut self, n: usize, mean: f32, std: f32) -> Vec<f32> {
        (0..n).map(|_| self.normal(mean, std)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = Rng::seed_from(42);
        let mut b = Rng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..32).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4, "streams should differ, {same} collisions");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = Rng::seed_from(7);
        for _ in 0..1000 {
            let x = rng.uniform(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
        }
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = Rng::seed_from(11);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn below_covers_range() {
        let mut rng = Rng::seed_from(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.below(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = Rng::seed_from(9);
        let mut p = rng.permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed_from(5);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
