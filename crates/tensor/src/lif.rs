//! The leaky-integrate-and-fire step (paper Eq. 1) as one elementwise pass.
//!
//! Every LIF step of the stack — taped or not — runs [`lif_fire`]: it
//! reads the synaptic current, the membrane and the previous spikes once,
//! writes the new membrane, and thresholds it into spikes while it is still
//! in cache, counting them on the way.

use crate::tensor::Tensor;
use skipper_memprof::{record_op, OpKind};

/// `U = (I + λ·mem) + (−θ)·o_prev`, `o = H(U − θ)` and the number of spikes
/// in `o`, reading the inputs once.
///
/// `U` and `o` have the bits of the unfused chain `current.add_scaled(mem,
/// λ).add_scaled(prev_spike, −θ)` then `map(|u| u ≥ θ)`, and the count is
/// `o.sum()`: a sum of exact `0.0`/`1.0` values is the same `f64` in any
/// order. The op log records that chain — two axpys, a threshold and a
/// reduce — so FLOP and byte counts do not depend on the fusion.
///
/// # Panics
///
/// Panics if `current`, `mem` and `prev_spike` differ in shape.
pub fn lif_fire(
    current: &Tensor,
    mem: &Tensor,
    prev_spike: &Tensor,
    leak: f32,
    theta: f32,
) -> (Tensor, Tensor, f64) {
    assert_eq!(
        current.shape(),
        mem.shape(),
        "LIF current vs membrane shape"
    );
    assert_eq!(
        current.shape(),
        prev_spike.shape(),
        "LIF current vs spike shape"
    );
    let (n, bytes) = (current.numel() as f64, current.byte_size() as f64);
    record_op(OpKind::Elementwise, n, 3.0 * bytes);
    record_op(OpKind::Elementwise, n, 3.0 * bytes);
    record_op(OpKind::Elementwise, n, 2.0 * bytes);
    record_op(OpKind::Reduce, n, bytes);
    let inputs = current.data().iter().zip(mem.data()).zip(prev_spike.data());
    let u: Vec<f32> = inputs
        .map(|((&i, &m), &p)| (i + leak * m) + -theta * p)
        .collect();
    // Thresholded while `U` is still in cache, and counted on the way. The
    // count is kept in 32 bits, which vectorises where 64 do not, so it is
    // taken over blocks that cannot overflow it.
    let mut o = Vec::with_capacity(u.len());
    let mut fired = 0u64;
    for block in u.chunks(u32::MAX as usize) {
        let mut count = 0u32;
        o.extend(block.iter().map(|&u| {
            let fires = u >= theta;
            count += u32::from(fires);
            if fires {
                1.0
            } else {
                0.0
            }
        }));
        fired += u64::from(count);
    }
    let shape = current.shape();
    (
        Tensor::from_vec(u, shape.clone()),
        Tensor::from_vec(o, shape.clone()),
        fired as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::reference::{mixed, same_bits};
    use crate::random::XorShiftRng;
    use proptest::prelude::*;
    use skipper_memprof::take_op_log;

    /// The unfused chain [`lif_fire`] replaced, with the spike count taken
    /// by [`Tensor::sum`].
    fn lif_reference(
        current: &Tensor,
        mem: &Tensor,
        prev_spike: &Tensor,
        leak: f32,
        theta: f32,
    ) -> (Tensor, Tensor, f64) {
        let u = current.add_scaled(mem, leak).add_scaled(prev_spike, -theta);
        let o = u.map(move |x| if x >= theta { 1.0 } else { 0.0 });
        let count = o.sum();
        (u, o, count)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Membrane, spikes, count and op records equal the unfused chain's,
        /// with `U` landing exactly on `θ` and `±0.0` among the inputs.
        #[test]
        fn fused_step_is_bitwise_the_unfused_chain(
            n in 1usize..40, leak in 0.0f32..1.0, theta in 0.05f32..2.0, seed in 0u64..u64::MAX,
        ) {
            let mut rng = XorShiftRng::new(seed);
            let mut current = mixed([n], &mut rng);
            let mut mem = mixed([n], &mut rng);
            let mut prev = Tensor::from_fn([n], |_| f32::from(rng.next_below(2) == 0));
            for i in 0..n {
                if rng.next_below(4) == 0 {
                    // U = θ exactly: nothing leaks in, no reset.
                    current.data_mut()[i] = theta;
                    mem.data_mut()[i] = -0.0;
                    prev.data_mut()[i] = 0.0;
                }
            }
            let _ = take_op_log();
            let (u, o, count) = lif_fire(&current, &mem, &prev, leak, theta);
            let fused_ops = take_op_log();
            let (ru, ro, rcount) = lif_reference(&current, &mem, &prev, leak, theta);
            let reference_ops = take_op_log();
            prop_assert!(same_bits("U", &u, &ru).is_ok());
            prop_assert!(same_bits("o", &o, &ro).is_ok());
            prop_assert_eq!(count.to_bits(), rcount.to_bits());
            prop_assert_eq!(fused_ops, reference_ops);
        }
    }

    /// `U` exactly on `θ` fires; `−0.0` inputs give `U = +0.0` or `−0.0`
    /// as the chain does, and do not fire.
    #[test]
    fn threshold_and_negative_zero_edges() {
        let current = Tensor::from_vec(vec![1.0, -0.0, -0.0, 0.5], [4]);
        let mem = Tensor::from_vec(vec![0.0, -0.0, 0.0, 0.0], [4]);
        let prev = Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0], [4]);
        let (u, o, count) = lif_fire(&current, &mem, &prev, 0.5, 1.0);
        let (ru, ro, rcount) = lif_reference(&current, &mem, &prev, 0.5, 1.0);
        same_bits("U", &u, &ru).unwrap();
        same_bits("o", &o, &ro).unwrap();
        assert_eq!(o.data(), &[1.0, 0.0, 0.0, 0.0]);
        assert_eq!((count, rcount), (1.0, 1.0));
    }
}
