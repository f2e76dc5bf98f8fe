//! Deterministic measurement jitter.
//!
//! Real testbeds fluctuate — the paper notes "some fluctuations occur" in
//! Figure 9(a). To keep plots honest-looking without sacrificing
//! reproducibility, [`Jitter`] perturbs durations multiplicatively with a
//! seeded PRNG: the same seed always yields the same "noise".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::SimDuration;

/// A deterministic multiplicative jitter source.
#[derive(Debug)]
pub struct Jitter {
    rng: StdRng,
    /// Maximum relative deviation, e.g. 0.1 for ±10%.
    amplitude: f64,
}

impl Jitter {
    /// Creates a jitter source with the given seed and amplitude
    /// (`0.0 ≤ amplitude < 1.0`).
    pub fn new(seed: u64, amplitude: f64) -> Jitter {
        assert!((0.0..1.0).contains(&amplitude));
        Jitter { rng: StdRng::seed_from_u64(seed), amplitude }
    }

    /// Perturbs `d` by a uniform factor in `[1−a, 1+a]`, consuming one
    /// draw of the stream (none at amplitude 0, where `d` is returned as is).
    pub fn apply(&mut self, d: SimDuration) -> SimDuration {
        if self.amplitude == 0.0 {
            return d;
        }
        d.scale(1.0 + self.rng.gen_range(-self.amplitude..=self.amplitude))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_noise() {
        let mut a = Jitter::new(7, 0.2);
        let mut b = Jitter::new(7, 0.2);
        for _ in 0..50 {
            let d = SimDuration::micros(10_000);
            assert_eq!(a.apply(d), b.apply(d));
        }
    }

    #[test]
    fn different_seed_different_noise() {
        let mut a = Jitter::new(1, 0.2);
        let mut b = Jitter::new(2, 0.2);
        let d = SimDuration::micros(1_000_000);
        let same = (0..20).filter(|_| a.apply(d) == b.apply(d)).count();
        assert!(same < 5);
    }

    #[test]
    fn stays_within_amplitude() {
        let mut j = Jitter::new(3, 0.1);
        let d = SimDuration::micros(1_000_000);
        for _ in 0..200 {
            let v = j.apply(d).as_micros();
            assert!((900_000..=1_100_000).contains(&v), "{v}");
        }
    }

    #[test]
    fn zero_amplitude_is_identity() {
        let mut j = Jitter::new(5, 0.0);
        for i in 0..10u64 {
            let d = SimDuration::micros(777 + i);
            assert_eq!(j.apply(d), d);
        }
    }
}
