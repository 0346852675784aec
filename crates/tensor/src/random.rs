//! A tiny, fast, deterministic RNG for weight initialisation and spike
//! encoding.
//!
//! Poisson rate encoding draws one uniform number per input pixel per
//! timestep, i.e. hundreds of millions of draws per epoch, so the encoder
//! needs something cheaper and more reproducible across platforms than a
//! cryptographic generator. `XorShiftRng` is the xorshift64* generator:
//! one multiply and three shifts per draw, full 2^64−1 period.

/// xorshift64* pseudo-random number generator.
///
/// ```
/// use skipper_tensor::XorShiftRng;
/// let mut a = XorShiftRng::new(7);
/// let mut b = XorShiftRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShiftRng {
    state: u64,
}

impl XorShiftRng {
    /// Seeded generator; a zero seed is remapped (xorshift requires a
    /// non-zero state).
    pub fn new(seed: u64) -> XorShiftRng {
        XorShiftRng {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        // 24 high bits → mantissa-exact uniform in [0,1).
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal via Box–Muller.
    pub fn next_normal(&mut self) -> f32 {
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE); // (0,1]
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        (r * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn next_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_below(0)");
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_nonzero_seed_safe() {
        let mut a = XorShiftRng::new(0);
        let mut b = XorShiftRng::new(0);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), 0);
    }

    #[test]
    fn uniform_range_and_mean() {
        let mut rng = XorShiftRng::new(123);
        let mut sum = 0.0f64;
        for _ in 0..10_000 {
            let x = rng.next_f32();
            assert!((0.0..1.0).contains(&x));
            sum += x as f64;
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn normal_moments() {
        let mut rng = XorShiftRng::new(7);
        let n = 20_000;
        let (mut m, mut v) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let x = rng.next_normal() as f64;
            m += x;
            v += x * x;
        }
        m /= n as f64;
        v = v / n as f64 - m * m;
        assert!(m.abs() < 0.03, "mean {m}");
        assert!((v - 1.0).abs() < 0.05, "var {v}");
    }

    #[test]
    fn next_below_in_range() {
        let mut rng = XorShiftRng::new(9);
        for _ in 0..1000 {
            assert!(rng.next_below(7) < 7);
        }
    }
}
