//! Spike tensors stored one bit per element.

use crate::shape::Shape;
use crate::tensor::Tensor;
use skipper_memprof::Registration;

/// A tensor whose every element is `+0.0` or `1.0` (a spike map), stored
/// one bit per element.
///
/// Element `i` is bit `i % 64` of word `i / 64`, so the words written
/// little-endian are the elements LSB-first in byte order — the layout of
/// the cluster wire's spike encoding. Like a tensor's storage, the words
/// are booked with [`skipper_memprof`] under the category active at
/// creation, for as long as they live.
///
/// ```
/// use skipper_tensor::{SpikeBits, Tensor};
/// let spikes = Tensor::from_vec(vec![0.0, 1.0, 1.0], [3]);
/// let bits = SpikeBits::pack(&spikes);
/// assert_eq!(bits.map(|b| b.unpack()), Some(spikes));
/// assert_eq!(SpikeBits::packed_bytes(3), 8); // one u64 word
/// assert!(SpikeBits::pack(&Tensor::from_vec(vec![-0.0], [1])).is_none());
/// ```
#[derive(Debug)]
pub struct SpikeBits {
    words: Vec<u64>,
    shape: Shape,
    _reg: Registration,
}

impl SpikeBits {
    /// Bytes the packed form of `numel` elements occupies (and books):
    /// whole `u64` words.
    pub fn packed_bytes(numel: usize) -> u64 {
        numel.div_ceil(64) as u64 * 8
    }

    fn new(words: Vec<u64>, shape: Shape) -> SpikeBits {
        SpikeBits {
            _reg: Registration::new((words.len() * std::mem::size_of::<u64>()) as u64),
            words,
            shape,
        }
    }

    /// Pack `t` when every element is bitwise `+0.0` or `1.0`. Any other
    /// value — `-0.0` and NaN included — would not come back to the same
    /// bits, so the tensor is then not packed and `None` is returned.
    pub fn pack(t: &Tensor) -> Option<SpikeBits> {
        let one = 1.0f32.to_bits();
        let mut words = vec![0u64; t.numel().div_ceil(64)];
        for (word, chunk) in words.iter_mut().zip(t.data().chunks(64)) {
            for (i, &v) in chunk.iter().enumerate() {
                match v.to_bits() {
                    0 => {}
                    b if b == one => *word |= 1 << i,
                    _ => return None,
                }
            }
        }
        Some(SpikeBits::new(words, t.shape().clone()))
    }

    /// The dense tensor: `1.0` where a bit is set, `+0.0` elsewhere.
    pub fn unpack(&self) -> Tensor {
        let numel = self.shape.numel();
        let data = (0..numel)
            .map(|i| ((self.words[i / 64] >> (i % 64)) & 1) as f32)
            .collect();
        Tensor::from_vec(data, self.shape.clone())
    }

    /// Read `ceil(numel / 8)` bytes in the layout [`write_le_bytes`]
    /// emits; bits past the last element are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly `ceil(numel / 8)` long.
    ///
    /// [`write_le_bytes`]: SpikeBits::write_le_bytes
    pub fn from_le_bytes(bytes: &[u8], shape: impl Into<Shape>) -> SpikeBits {
        let shape = shape.into();
        let numel = shape.numel();
        assert_eq!(
            bytes.len(),
            numel.div_ceil(8),
            "{} bytes cannot hold the bits of shape {shape}",
            bytes.len()
        );
        let words = bytes
            .chunks(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(w)
            })
            .collect();
        SpikeBits::new(words, shape)
    }

    /// Append the elements as `ceil(numel / 8)` bytes, LSB-first.
    pub fn write_le_bytes(&self, out: &mut Vec<u8>) {
        let end = out.len() + self.shape.numel().div_ceil(8);
        out.extend(self.words.iter().flat_map(|w| w.to_le_bytes()));
        out.truncate(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Element kinds: the two spike values, then values a spike map must
    /// never silently absorb.
    fn element(kind: u8, x: f32) -> f32 {
        match kind {
            0 | 1 => f32::from(kind),
            2 => -0.0,
            3 => f32::NAN,
            4 => 0.5,
            5 => f32::from_bits(1), // smallest subnormal
            6 => -1.0,
            _ => x,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `pack` succeeds exactly when every element is bitwise `+0.0` or
        /// `1.0`, and then `unpack` returns the same bits and the wire
        /// bytes round-trip too. Lengths straddle word and byte ends.
        #[test]
        fn pack_is_exact_and_refuses_every_other_value(
            elems in prop::collection::vec((0u8..8, -2.0f32..2.0), 0..200),
            spikes_only in 0u8..2,
        ) {
            let data: Vec<f32> = elems
                .iter()
                .map(|&(k, x)| element(if spikes_only == 1 { k % 2 } else { k }, x))
                .collect();
            let t = Tensor::from_vec(data.clone(), data.len());
            let binary = data.iter().all(|v| v.to_bits() == 0 || v.to_bits() == 1.0f32.to_bits());
            match SpikeBits::pack(&t) {
                None => prop_assert!(!binary, "binary tensor refused: {data:?}"),
                Some(packed) => {
                    prop_assert!(binary, "non-binary tensor packed: {data:?}");
                    prop_assert_eq!(bits(&packed.unpack()), bits(&t));
                    let mut wire = Vec::new();
                    packed.write_le_bytes(&mut wire);
                    prop_assert_eq!(wire.len(), data.len().div_ceil(8));
                    let back = SpikeBits::from_le_bytes(&wire, data.len()).unpack();
                    prop_assert_eq!(bits(&back), bits(&t));
                }
            }
        }
    }

    fn packed(t: &Tensor) -> SpikeBits {
        let Some(p) = SpikeBits::pack(t) else {
            panic!("{t:?} is binary")
        };
        p
    }

    #[test]
    fn bytes_are_lsb_first_and_trailing_bits_are_ignored() {
        let t = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0], [3, 3]);
        let mut wire = Vec::new();
        packed(&t).write_le_bytes(&mut wire);
        assert_eq!(wire, [0b0000_1001, 0b0000_0001]);
        // A peer may set the unused high bits of the last byte.
        let back = SpikeBits::from_le_bytes(&[0b0000_1001, 0b1111_1111], [3, 3]);
        assert_eq!(back.unpack(), t);
    }

    #[test]
    fn packed_bytes_are_tracked() {
        use skipper_memprof as mp;
        mp::reset_all();
        let t = Tensor::ones([65]); // 260 bytes dense
        let p = packed(&t);
        assert_eq!(mp::snapshot().total_live(), 260 + 16, "two u64 words");
        assert_eq!(SpikeBits::packed_bytes(65), 16);
        drop(p);
        assert_eq!(mp::snapshot().total_live(), 260);
    }
}
