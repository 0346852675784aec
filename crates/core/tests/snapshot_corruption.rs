//! Robustness of `.sksn` snapshot decoding against corrupted bytes.
//!
//! A snapshot that was truncated, bit-flipped, or rewritten with a stale
//! CRC must come back as [`SkipperError::Snapshot`] — never a panic, never
//! a silently wrong [`SessionState`]. The decoder reads a slice, so no
//! other variant can come out of it. These tests drive
//! [`read_snapshot_from`] with systematically mutated images of a valid
//! snapshot, including a proptest sweep over arbitrary offsets.

use proptest::prelude::*;
use skipper_core::resume::{read_snapshot_from, write_snapshot_to};
use skipper_core::{Method, SessionState, SkipperError};
use skipper_snn::serialize::ParamRecord;
use skipper_snn::OptimizerState;
use skipper_tensor::Tensor;

/// A small but fully populated state: params, optimizer tensors, and an
/// auxiliary head so every section kind appears in the container.
fn state_with_aux() -> SessionState {
    SessionState {
        iteration: 7,
        timesteps: 12,
        method: Method::Skipper {
            checkpoints: 3,
            percentile: 30.0,
        },
        sam_metric: skipper_core::SamMetric::default(),
        skip_policy: skipper_core::SkipPolicy::default(),
        sam_sums: vec![0.5, 1.25, 2.0, 0.0],
        params: vec![
            ParamRecord {
                name: "conv1.w".into(),
                value: Tensor::from_vec(vec![1.0, -0.5, 0.25, 2.0], [4]),
            },
            ParamRecord {
                name: "fc.w".into(),
                value: Tensor::from_vec(vec![0.1; 6], [2, 3]),
            },
        ],
        optim: OptimizerState {
            kind: "adam".into(),
            scalars: vec![("lr".into(), 1e-3), ("t".into(), 7.0)],
            tensors: vec![("m.conv1.w".into(), Tensor::from_vec(vec![0.0; 4], [4]))],
        },
        aux: Some((
            vec![ParamRecord {
                name: "aux0.w".into(),
                value: Tensor::from_vec(vec![0.3, -0.3], [2]),
            }],
            OptimizerState {
                kind: "sgd".into(),
                scalars: vec![("lr".into(), 1e-2)],
                tensors: vec![],
            },
        )),
    }
}

fn valid_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    write_snapshot_to(&state_with_aux(), &mut buf).expect("serializing a valid state");
    buf
}

#[test]
fn valid_snapshot_roundtrips() {
    let state = read_snapshot_from(&valid_bytes()).expect("valid bytes decode");
    assert_eq!(state.iteration, 7);
    assert_eq!(state.params.len(), 2);
    assert!(state.aux.is_some());
}

#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    let buf = valid_bytes();
    // Every strict prefix must fail closed: magic cut short, a section
    // header cut mid-field, a payload cut mid-tensor, the trailer missing.
    for cut in 0..buf.len() {
        let mut short = buf.clone();
        short.truncate(cut);
        let err = read_snapshot_from(&short).expect_err("a truncated snapshot must never decode");
        match err {
            SkipperError::Snapshot(_) => {}
            other => panic!("cut at {cut}: unexpected error variant {other:?}"),
        }
    }
}

#[test]
fn wrong_section_crc_names_the_section() {
    let buf = valid_bytes();
    // The stored CRC of the "params" section is the 4 bytes right after its
    // payload; rewriting the payload without updating the CRC must be
    // caught. Locate the section by its name bytes.
    let name = b"params";
    let at = buf
        .windows(name.len())
        .position(|w| w == name)
        .expect("params section present");
    // name | payload_len(4) | payload... — flip a byte early in the payload.
    let payload_at = at + name.len() + 4;
    let mut bad = buf.clone();
    bad[payload_at + 8] ^= 0xFF;
    let err = read_snapshot_from(&bad).unwrap_err();
    assert!(
        err.to_string().contains("CRC mismatch"),
        "expected a CRC error, got: {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flipping any single bit anywhere in the image either still decodes
    /// (flips inside an unchecked length field can cancel out only by
    /// failing elsewhere) or returns a typed error — it never panics and
    /// never decodes to a state with a different shape of content.
    #[test]
    fn single_bit_flip_never_panics(pos in 0usize..4096, bit in 0u8..8) {
        let mut buf = valid_bytes();
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        match read_snapshot_from(&buf) {
            // A flip in the JSON meta that survives the CRC is impossible;
            // a successful decode can only mean the flip was reverted by
            // the modulo... it was not: any Ok must carry intact params.
            Ok(state) => {
                prop_assert_eq!(state.params.len(), 2);
                prop_assert_eq!(state.iteration, 7);
            }
            Err(SkipperError::Snapshot(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error variant {:?}", other),
        }
    }

    /// Random truncation points combined with a bit flip in the surviving
    /// prefix: the decoder must fail closed on the double fault too.
    #[test]
    fn truncate_then_flip_never_panics(cut in 1usize..4096, pos in 0usize..4096, bit in 0u8..8) {
        let mut buf = valid_bytes();
        let cut = 1 + cut % (buf.len() - 1);
        buf.truncate(cut);
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        // Decoding successfully is impossible, since the trailer can never
        // survive a strict truncation.
        match read_snapshot_from(&buf) {
            Err(SkipperError::Snapshot(_)) => {}
            other => prop_assert!(false, "expected a snapshot error, got {:?}", other),
        }
    }

    /// Appending garbage after a valid image still decodes the valid part
    /// (the reader consumes exactly the container), while garbage-only
    /// images of any length fail with a typed error.
    #[test]
    fn garbage_images_fail_closed(len in 0usize..512, seed in 0u64..u64::MAX) {
        let mut bytes = Vec::with_capacity(len);
        let mut x = seed | 1;
        for _ in 0..len {
            // xorshift* keeps the generator dependency-free.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            bytes.push((x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8);
        }
        match read_snapshot_from(&bytes) {
            Ok(_) => prop_assert!(false, "random bytes must never decode"),
            Err(SkipperError::Snapshot(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error variant {:?}", other),
        }
    }
}
