//! Durable training-session snapshots.
//!
//! A snapshot is everything needed to continue training **bit-exactly**
//! after a crash or kill: model parameters, complete optimizer state
//! (Adam moments, step counter, learning rate), the iteration counter that
//! seeds every iteration's randomness, and the last Spike Activity Monitor
//! record. Restoring into a freshly constructed same-topology session and
//! continuing produces the identical loss trajectory the uninterrupted run
//! would have produced.
//!
//! # Container format
//!
//! The `.sksn` container extends the `.skw` v2 conventions
//! (see [`skipper_snn::serialize`]): a magic header (`"SKSNP"` +
//! version), a section count, then named sections — each
//! `name_len | name | payload_len | payload | CRC32(payload)` — and a
//! trailing section count. [`write_snapshot`] goes through
//! [`write_atomic`], so a torn write is never observed; torn *reads* (bit
//! rot, truncation) are rejected by the one bounded [`WireReader`] and the
//! per-section CRCs, with a description of the offending section.
//!
//! Sections:
//!
//! | name         | payload                                              |
//! |--------------|------------------------------------------------------|
//! | `meta`       | JSON: iteration, timesteps, method, SAM config/history, optimizer scalars |
//! | `params`     | model parameters, `.skw` v2 records                  |
//! | `optim`      | optimizer state tensors, `.skw` v2 records           |
//! | `aux.params` | auxiliary (LBP) classifier parameters, if any        |
//! | `aux.optim`  | auxiliary optimizer state tensors, if any            |

use crate::error::SkipperError;
use crate::method::Method;
use crate::sam::{SamMetric, SkipPolicy};
use serde::{Deserialize, Serialize};
use skipper_snn::serialize::{
    crc32, put_bytes, put_str, put_u32, read_params, write_atomic, write_records, DecodeError,
    ParamRecord, WireReader,
};
use skipper_snn::OptimizerState;
use std::io::Write;
use std::path::Path;

/// Snapshot file magic: "SKSNP" + version 1.
const MAGIC: &[u8; 6] = b"SKSNP\x01";

/// Complete restorable training state, decoupled from [`TrainSession`] so
/// harnesses can inspect or rewrite it between save and resume.
///
/// [`TrainSession`]: crate::runner::TrainSession
#[derive(Debug, Clone)]
pub struct SessionState {
    /// Iterations completed (seeds each iteration's randomness).
    pub iteration: u64,
    /// The session horizon `T`.
    pub timesteps: usize,
    /// Training method, including checkpoint/percentile knobs as possibly
    /// adjusted by the memory governor.
    pub method: Method,
    /// Which activity statistic SAM thresholds on.
    pub sam_metric: SamMetric,
    /// How Skipper selects skipped timesteps.
    pub skip_policy: SkipPolicy,
    /// Per-timestep SAM sums of the last completed iteration.
    pub sam_sums: Vec<f64>,
    /// Model parameters.
    pub params: Vec<ParamRecord>,
    /// Main optimizer state.
    pub optim: OptimizerState,
    /// Auxiliary (LBP) classifier parameters and optimizer, if the method
    /// uses them.
    pub aux: Option<(Vec<ParamRecord>, OptimizerState)>,
}

/// The JSON `meta` section.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MetaDoc {
    iteration: u64,
    timesteps: usize,
    method: Method,
    sam_metric: SamMetric,
    skip_policy: SkipPolicy,
    sam_sums: Vec<f64>,
    optim_kind: String,
    optim_scalars: Vec<(String, f64)>,
    aux_kind: Option<String>,
    aux_scalars: Option<Vec<(String, f64)>>,
}

fn write_section(buf: &mut Vec<u8>, name: &str, payload: &[u8]) {
    put_str(buf, name);
    put_bytes(buf, payload);
    put_u32(buf, crc32(payload));
}

fn read_section<'a>(r: &mut WireReader<'a>) -> Result<(String, &'a [u8]), DecodeError> {
    let name = r.string()?;
    let payload = r
        .bytes()
        .map_err(|e| DecodeError(format!("section '{name}': {e}")))?;
    let stored = r.u32()?;
    let computed = crc32(payload);
    if stored != computed {
        return Err(DecodeError(format!(
            "section '{name}': CRC mismatch (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    Ok((name, payload))
}

fn records_payload<'a>(
    records: impl IntoIterator<Item = (&'a str, &'a skipper_tensor::Tensor)>,
) -> Vec<u8> {
    let mut buf = Vec::new();
    write_records(records, &mut buf);
    buf
}

/// Serialize `state` to `writer`.
///
/// # Errors
///
/// Propagates I/O and encoding errors.
pub fn write_snapshot_to(
    state: &SessionState,
    writer: &mut impl Write,
) -> Result<(), SkipperError> {
    let meta = MetaDoc {
        iteration: state.iteration,
        timesteps: state.timesteps,
        method: state.method.clone(),
        sam_metric: state.sam_metric,
        skip_policy: state.skip_policy,
        sam_sums: state.sam_sums.clone(),
        optim_kind: state.optim.kind.clone(),
        optim_scalars: state.optim.scalars.clone(),
        aux_kind: state.aux.as_ref().map(|(_, o)| o.kind.clone()),
        aux_scalars: state.aux.as_ref().map(|(_, o)| o.scalars.clone()),
    };
    let meta_json = serde_json::to_string(&meta)
        .map_err(|e| SkipperError::Snapshot(format!("encoding meta: {e}")))?;

    let mut sections: Vec<(&str, Vec<u8>)> = vec![
        ("meta", meta_json.into_bytes()),
        (
            "params",
            records_payload(state.params.iter().map(|r| (r.name.as_str(), &r.value))),
        ),
        (
            "optim",
            records_payload(state.optim.tensors.iter().map(|(n, t)| (n.as_str(), t))),
        ),
    ];
    if let Some((aux_params, aux_optim)) = &state.aux {
        sections.push((
            "aux.params",
            records_payload(aux_params.iter().map(|r| (r.name.as_str(), &r.value))),
        ));
        sections.push((
            "aux.optim",
            records_payload(aux_optim.tensors.iter().map(|(n, t)| (n.as_str(), t))),
        ));
    }

    let mut buf = MAGIC.to_vec();
    put_u32(&mut buf, sections.len() as u32);
    for (name, payload) in &sections {
        write_section(&mut buf, name, payload);
    }
    put_u32(&mut buf, sections.len() as u32);
    writer.write_all(&buf)?;
    Ok(())
}

/// Write `state` to the file at `path` atomically (see [`write_atomic`]),
/// so a crash mid-save can never leave a truncated snapshot where a valid
/// one is expected.
///
/// # Errors
///
/// Propagates I/O and encoding errors.
pub fn write_snapshot(state: &SessionState, path: impl AsRef<Path>) -> Result<(), SkipperError> {
    let path = path.as_ref();
    let mut buf = Vec::new();
    write_snapshot_to(state, &mut buf)?;
    write_atomic(path, &buf)?;
    skipper_obs::instant!(
        skipper_obs::Level::Info,
        "snapshot.saved",
        path = path.display().to_string(),
        iteration = state.iteration,
    );
    Ok(())
}

/// Deserialize a snapshot from `bytes`. Bytes after the container are
/// not read.
///
/// # Errors
///
/// [`SkipperError::Snapshot`] on bad magic, truncation, a count or length
/// past the bytes that remain, a per-section CRC mismatch, a wrong
/// trailing section count, or malformed contents.
pub fn read_snapshot_from(bytes: &[u8]) -> Result<SessionState, SkipperError> {
    let snapshot = |e: DecodeError| SkipperError::Snapshot(e.0);
    let mut r = WireReader::new(bytes);
    if r.take(MAGIC.len()).ok() != Some(MAGIC.as_slice()) {
        return Err(SkipperError::Snapshot(
            "not a skipper session snapshot (bad magic)".into(),
        ));
    }
    let sections = r.seq(64, "section", read_section).map_err(snapshot)?;
    let trailer = r.u32().map_err(snapshot)? as usize;
    if trailer != sections.len() {
        return Err(SkipperError::Snapshot(format!(
            "trailing section count {trailer} disagrees with header count {} (truncated?)",
            sections.len()
        )));
    }
    let section = |name: &str| {
        sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, p)| p)
            .ok_or_else(|| SkipperError::Snapshot(format!("missing section '{name}'")))
    };

    let meta_text = std::str::from_utf8(section("meta")?)
        .map_err(|e| SkipperError::Snapshot(format!("meta section is not UTF-8: {e}")))?;
    let meta: MetaDoc = serde_json::from_str(meta_text)
        .map_err(|e| SkipperError::Snapshot(format!("decoding meta: {e}")))?;

    let params = read_params(section("params")?)
        .map_err(|e| SkipperError::Snapshot(format!("section 'params': {e}")))?;
    let optim_tensors = read_params(section("optim")?)
        .map_err(|e| SkipperError::Snapshot(format!("section 'optim': {e}")))?;
    let optim = OptimizerState {
        kind: meta.optim_kind.clone(),
        scalars: meta.optim_scalars.clone(),
        tensors: optim_tensors
            .into_iter()
            .map(|r| (r.name, r.value))
            .collect(),
    };
    let aux = match (&meta.aux_kind, &meta.aux_scalars) {
        (Some(kind), Some(scalars)) => {
            let aux_params = read_params(section("aux.params")?)
                .map_err(|e| SkipperError::Snapshot(format!("section 'aux.params': {e}")))?;
            let aux_tensors = read_params(section("aux.optim")?)
                .map_err(|e| SkipperError::Snapshot(format!("section 'aux.optim': {e}")))?;
            Some((
                aux_params,
                OptimizerState {
                    kind: kind.clone(),
                    scalars: scalars.clone(),
                    tensors: aux_tensors.into_iter().map(|r| (r.name, r.value)).collect(),
                },
            ))
        }
        _ => None,
    };

    Ok(SessionState {
        iteration: meta.iteration,
        timesteps: meta.timesteps,
        method: meta.method,
        sam_metric: meta.sam_metric,
        skip_policy: meta.skip_policy,
        sam_sums: meta.sam_sums,
        params,
        optim,
        aux,
    })
}

/// Read a snapshot from the file at `path`. The whole file is read
/// first, so its length bounds what decoding it can allocate.
///
/// # Errors
///
/// See [`read_snapshot_from`].
pub fn read_snapshot(path: impl AsRef<Path>) -> Result<SessionState, SkipperError> {
    let path = path.as_ref();
    let state = read_snapshot_from(&std::fs::read(path)?)?;
    skipper_obs::instant!(
        skipper_obs::Level::Info,
        "snapshot.loaded",
        path = path.display().to_string(),
        iteration = state.iteration,
    );
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use skipper_tensor::Tensor;

    fn tiny_state() -> SessionState {
        SessionState {
            iteration: 42,
            timesteps: 8,
            method: Method::Skipper {
                checkpoints: 2,
                percentile: 25.0,
            },
            sam_metric: SamMetric::default(),
            skip_policy: SkipPolicy::default(),
            sam_sums: vec![1.5, 0.25, 3.0],
            params: vec![ParamRecord {
                name: "w".into(),
                value: Tensor::from_vec(vec![1.0, -2.0, 0.5], [3]),
            }],
            optim: OptimizerState {
                kind: "adam".into(),
                scalars: vec![("lr".into(), 1e-3), ("t".into(), 42.0)],
                tensors: vec![("m0".into(), Tensor::from_vec(vec![0.1, 0.2, 0.3], [3]))],
            },
            aux: None,
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let state = tiny_state();
        let mut buf = Vec::new();
        write_snapshot_to(&state, &mut buf).unwrap();
        let back = read_snapshot_from(&buf).unwrap();
        assert_eq!(back.iteration, 42);
        assert_eq!(back.timesteps, 8);
        assert_eq!(back.method, state.method);
        assert_eq!(back.sam_sums, state.sam_sums);
        assert_eq!(back.params[0].value.data(), state.params[0].value.data());
        assert_eq!(back.optim.kind, "adam");
        assert_eq!(back.optim.scalar("t"), Some(42.0));
        assert_eq!(back.optim.tensors[0].1.data(), &[0.1, 0.2, 0.3]);
    }

    #[test]
    fn corrupt_section_is_rejected_with_name() {
        let mut buf = Vec::new();
        write_snapshot_to(&tiny_state(), &mut buf).unwrap();
        // Flip a bit inside the meta JSON payload.
        let at = 30;
        buf[at] ^= 0x01;
        let err = read_snapshot_from(&buf).unwrap_err();
        assert!(err.to_string().contains("CRC mismatch"), "{err}");
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let mut buf = Vec::new();
        write_snapshot_to(&tiny_state(), &mut buf).unwrap();
        for cut in [buf.len() - 1, buf.len() - 4, buf.len() / 2, 10] {
            let mut short = buf.clone();
            short.truncate(cut);
            assert!(
                read_snapshot_from(&short).is_err(),
                "cut at {cut} must be rejected"
            );
        }
    }

    /// A `meta` section nested far past the JSON parser's limit is a typed
    /// snapshot error; without the limit the parser's recursion overflowed
    /// the stack and aborted the process.
    #[test]
    fn deeply_nested_meta_is_a_snapshot_error() {
        let depth = 100_000;
        let meta = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let mut buf = MAGIC.to_vec();
        put_u32(&mut buf, 1);
        write_section(&mut buf, "meta", meta.as_bytes());
        put_u32(&mut buf, 1);
        let err = read_snapshot_from(&buf).unwrap_err();
        assert!(matches!(err, SkipperError::Snapshot(_)), "{err}");
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_snapshot_from(b"NOTSNAPxxxx").unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn atomic_write_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("skipper_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.sksn");
        write_snapshot(&tiny_state(), &path).unwrap();
        assert!(path.exists());
        assert!(!path.with_file_name("session.sksn.tmp").exists());
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back.iteration, 42);
        std::fs::remove_file(&path).unwrap();
    }

    fn any_records(rng: &mut TestRng, prefix: &str) -> Vec<ParamRecord> {
        (0..rng.below(3))
            .map(|i| {
                let dims: Vec<usize> = (0..rng.below(3)).map(|_| rng.below(4) as usize).collect();
                let data = (0..dims.iter().product())
                    .map(|_| (rng.unit_f64() * 8.0 - 4.0) as f32)
                    .collect();
                ParamRecord {
                    name: format!("{prefix}{i}"),
                    value: Tensor::from_vec(data, dims),
                }
            })
            .collect()
    }

    fn any_optim(rng: &mut TestRng) -> OptimizerState {
        OptimizerState {
            kind: ["adam", "sgd"][rng.below(2) as usize].into(),
            scalars: vec![
                ("lr".into(), rng.unit_f64()),
                ("t".into(), rng.below(100) as f64),
            ],
            tensors: any_records(rng, "m")
                .into_iter()
                .map(|r| (r.name, r.value))
                .collect(),
        }
    }

    /// A session state with every section kind: params, optimizer, and
    /// (half the time) an auxiliary head.
    struct AnySession;

    impl Strategy for AnySession {
        type Value = SessionState;

        fn generate(&self, rng: &mut TestRng) -> SessionState {
            SessionState {
                iteration: rng.next_u64(),
                timesteps: 1 + rng.below(64) as usize,
                method: match rng.below(3) {
                    0 => Method::Bptt,
                    1 => Method::Skipper {
                        checkpoints: 1 + rng.below(8) as usize,
                        percentile: rng.below(100) as f32,
                    },
                    _ => Method::TbpttLbp {
                        window: 1 + rng.below(8) as usize,
                        taps: vec![1, 3],
                    },
                },
                sam_metric: SamMetric::default(),
                skip_policy: SkipPolicy::default(),
                sam_sums: (0..rng.below(6)).map(|_| rng.unit_f64() * 50.0).collect(),
                params: any_records(rng, "w"),
                optim: any_optim(rng),
                aux: (rng.below(2) == 1).then(|| (any_records(rng, "aux"), any_optim(rng))),
            }
        }
    }

    fn encode(state: &SessionState) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot_to(state, &mut buf).unwrap();
        buf
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// What is written is what is read (re-encoding it gives the same
        /// bytes); every strict prefix of a snapshot is a typed snapshot
        /// error.
        #[test]
        fn every_snapshot_roundtrips(state in AnySession) {
            let bytes = encode(&state);
            let back = read_snapshot_from(&bytes).unwrap();
            prop_assert_eq!(encode(&back), bytes.clone());
            for cut in 0..bytes.len() {
                prop_assert!(
                    matches!(read_snapshot_from(&bytes[..cut]), Err(SkipperError::Snapshot(_))),
                    "prefix of {cut}/{} bytes did not fail as a snapshot error",
                    bytes.len()
                );
            }
        }

        /// A snapshot with one byte changed decodes or is a typed snapshot
        /// error; it never panics.
        #[test]
        fn mutated_snapshots_decode_or_fail_typed(
            state in AnySession,
            at in 0usize..1 << 16,
            flip in 0u8..255,
        ) {
            let mut bytes = encode(&state);
            let at = at % bytes.len();
            bytes[at] ^= flip + 1;
            if let Err(e) = read_snapshot_from(&bytes) {
                prop_assert!(matches!(e, SkipperError::Snapshot(_)), "{e}");
            }
        }
    }
}
