//! Deterministic random number generation for workloads and simulations.
//!
//! Wraps a seeded [`rand::rngs::StdRng`] and adds the distributions the
//! paper's workloads require. The Gaussian sampler is a hand-rolled
//! Box–Muller transform so we do not need the `rand_distr` crate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic RNG: the same seed yields the same stream regardless of
/// platform (guaranteed by `StdRng`'s documented stability within a rand
/// major version).
pub struct DetRng {
    inner: StdRng,
    /// Spare value from the last Box–Muller draw (it produces pairs).
    gauss_spare: Option<f64>,
}

impl DetRng {
    pub fn new(seed: u64) -> Self {
        DetRng { inner: StdRng::seed_from_u64(seed), gauss_spare: None }
    }

    /// Uniform in `[lo, hi)`. `hi` must be greater than `lo`.
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi > lo);
        self.inner.random_range(lo..hi)
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(hi >= lo);
        self.inner.random_range(lo..=hi)
    }

    /// Uniform integer in `[0, n)`; handy for index selection.
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        self.inner.random_range(0..n)
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.random_range(0.0..1.0) < p
    }

    /// Standard normal via Box–Muller (mean 0, stddev 1).
    pub fn std_normal(&mut self) -> f64 {
        if let Some(v) = self.gauss_spare.take() {
            return v;
        }
        // Draw u1 in (0,1] to avoid ln(0).
        let u1: f64 = 1.0 - self.inner.random_range(0.0..1.0);
        let u2: f64 = self.inner.random_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        mean + stddev * self.std_normal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_same_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1000), b.uniform_u64(0, 1000));
        }
    }

    #[test]
    fn different_seed_differs() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let va: Vec<u64> = (0..16).map(|_| a.uniform_u64(0, u64::MAX / 2)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.uniform_u64(0, u64::MAX / 2)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn uniform_bounds() {
        let mut r = DetRng::new(7);
        for _ in 0..10_000 {
            let v = r.uniform_f64(1.0, 10.0);
            assert!((1.0..10.0).contains(&v));
            let i = r.uniform_u64(5, 9);
            assert!((5..=9).contains(&i));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut r = DetRng::new(11);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let v = r.normal(500.0, 50.0);
            sum += v;
            sumsq += v * v;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!((mean - 500.0).abs() < 1.0, "mean={mean}");
        assert!((var.sqrt() - 50.0).abs() < 1.0, "sd={}", var.sqrt());
    }
}
