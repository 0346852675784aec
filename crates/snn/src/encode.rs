//! Input encoders: frames → spike-tensor sequences.
//!
//! The paper converts CIFAR-10/100 frames to spikes with Poisson rate
//! encoding (Section VII) and feeds DVS/N-MNIST event data as binned spike
//! frames (binning lives in `skipper-data`, next to the event generators).
//! Encoded sequences are booked under [`Category::Input`] — the "input"
//! share of the paper's memory breakdowns.
//!
//! [`Category::Input`]: skipper_memprof::Category::Input

use skipper_memprof::{Category, CategoryGuard};
use skipper_tensor::{Tensor, XorShiftRng};

/// Anything that turns a batch of frames `[B,C,H,W]` into `T` spike
/// tensors of the same shape.
pub trait Encoder {
    /// Encode `frames` into a length-`timesteps` spike sequence.
    fn encode(&self, frames: &Tensor, timesteps: usize, rng: &mut XorShiftRng) -> Vec<Tensor>;
}

/// Poisson rate encoding: pixel intensity `x ∈ [0,1]` fires each timestep
/// with probability `gain·x` (independent across time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonEncoder {
    /// Firing-probability multiplier.
    pub gain: f32,
}

impl Default for PoissonEncoder {
    fn default() -> Self {
        PoissonEncoder { gain: 1.0 }
    }
}

impl Encoder for PoissonEncoder {
    fn encode(&self, frames: &Tensor, timesteps: usize, rng: &mut XorShiftRng) -> Vec<Tensor> {
        let _cat = CategoryGuard::new(Category::Input);
        let src = frames.data();
        (0..timesteps)
            .map(|_| {
                let data = src
                    .iter()
                    .map(|&x| {
                        let p = (self.gain * x).clamp(0.0, 1.0);
                        if rng.next_f32() < p {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect();
                Tensor::from_vec(data, frames.shape().clone())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_tracks_intensity() {
        let frames = Tensor::from_vec(vec![0.0, 0.25, 0.75, 1.0], [1, 1, 2, 2]);
        let mut rng = XorShiftRng::new(50);
        let seq = PoissonEncoder::default().encode(&frames, 2000, &mut rng);
        assert_eq!(seq.len(), 2000);
        let mut counts = [0.0f64; 4];
        for t in &seq {
            for (c, &v) in counts.iter_mut().zip(t.data()) {
                assert!(v == 0.0 || v == 1.0, "spikes are binary");
                *c += v as f64;
            }
        }
        let rates: Vec<f64> = counts.iter().map(|c| c / 2000.0).collect();
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 0.25).abs() < 0.05);
        assert!((rates[2] - 0.75).abs() < 0.05);
        assert!((rates[3] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gain_clamps_probability() {
        let frames = Tensor::full([1, 1, 1, 1], 0.9);
        let mut rng = XorShiftRng::new(51);
        let seq = PoissonEncoder { gain: 5.0 }.encode(&frames, 100, &mut rng);
        assert!(seq.iter().all(|t| t.data()[0] == 1.0));
    }

    #[test]
    fn encoded_input_booked_under_input_category() {
        use skipper_memprof as mp;
        mp::reset_all();
        let frames = Tensor::ones([1, 1, 4, 4]);
        let mut rng = XorShiftRng::new(53);
        let seq = PoissonEncoder::default().encode(&frames, 3, &mut rng);
        assert_eq!(
            mp::snapshot().live(mp::Category::Input),
            3 * 16 * 4,
            "3 timesteps x 16 px x 4 B"
        );
        drop(seq);
        drop(frames);
    }
}
