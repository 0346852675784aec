//! Saving and loading trained parameters.
//!
//! A deliberately simple, self-describing binary container (no external
//! format dependencies): a magic header, then one record per parameter —
//! name, shape, and little-endian `f32` data. Loading matches records to
//! the network's parameters **by name and shape**, so weights survive
//! refactors that only reorder parameters, and mismatches fail loudly
//! rather than silently corrupting a model.
//!
//! Format **v2** (the default for writing) appends a CRC32 to every
//! record and a trailing record count, so torn writes, bit rot and
//! truncation are detected with a description of *which* record is bad
//! instead of garbage weights. v1 files (no checksums) still load.
//!
//! Every binary container of the workspace — `.skw` here, the `.sksn`
//! session snapshots and the cluster's wire frames — is written with the
//! `put_*` helpers below and read back through one bounded cursor,
//! [`WireReader`], over a byte slice: every count and length is checked
//! against the bytes that remain before anything is sized by it. Files are
//! written through [`write_atomic`] and read whole, so a file's length
//! bounds what decoding it can allocate.
//!
//! ```no_run
//! use skipper_snn::{custom_net, ModelConfig};
//! use skipper_snn::serialize::{load_params, save_params};
//!
//! # fn main() -> Result<(), skipper_snn::SnnError> {
//! let mut net = custom_net(&ModelConfig::default());
//! save_params(net.params(), "model.skw")?;
//! load_params(net.params_mut(), "model.skw")?;
//! # Ok(())
//! # }
//! ```

use crate::error::SnnError;
use crate::params::ParamStore;
use skipper_tensor::Tensor;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

/// File magic of the legacy checksum-less format: "SKPRW" + version 1.
const MAGIC_V1: &[u8; 6] = b"SKPRW\x01";

/// File magic of the current format: "SKPRW" + version 2
/// (per-record CRC32 + trailing record count).
const MAGIC_V2: &[u8; 6] = b"SKPRW\x02";

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 of `bytes` (the ubiquitous IEEE variant used by zip/png/gzip).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut state = 0xFFFF_FFFFu32;
    for &b in bytes {
        state = CRC32_TABLE[((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    state ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Encoding: little-endian scalars, counted runs, optional fields
// ---------------------------------------------------------------------------

/// Append `v` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A byte run: `u32` length, then the bytes.
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

/// A string as a [`put_bytes`] run of its UTF-8.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// A sequence: `u32` count, then each element through `put`.
pub fn put_seq<T>(buf: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(buf, items.len() as u32);
    for item in items {
        put(buf, item);
    }
}

/// A [`put_seq`] of `f64`s.
pub fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    put_seq(buf, vs, |b, v| put_f64(b, *v));
}

/// An optional field: one presence byte, then the value through `put`.
pub fn put_opt<T>(buf: &mut Vec<u8>, v: &Option<T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        Some(v) => {
            buf.push(1);
            put(buf, v);
        }
        None => buf.push(0),
    }
}

/// Write `bytes` to `path` atomically: they go to a `.tmp` sibling (same
/// directory, so the rename never crosses filesystems) that is renamed
/// over `path` only once written, so an interrupted save never leaves a
/// half-written file where a valid one is expected.
///
/// # Errors
///
/// Propagates file-creation, write and rename errors.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// The `.tmp` sibling [`write_atomic`] writes before it renames.
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".into());
    name.push_str(".tmp");
    path.with_file_name(name)
}

// ---------------------------------------------------------------------------
// Decoding: one bounded cursor
// ---------------------------------------------------------------------------

/// Bytes that do not decode: cut short, a count or length past the bytes
/// that remain, or a field out of range. Each container maps it to the
/// typed error it returns.
#[derive(Debug)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for SnnError {
    fn from(e: DecodeError) -> SnnError {
        SnnError::Format(e.0)
    }
}

/// Cursor over an encoded byte slice, the one decoder of every container.
/// Every read is bounds-checked, and every count and length is checked
/// against the bytes that remain before anything is sized by it, so no
/// input makes it allocate more than a small multiple of its own length.
pub struct WireReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> WireReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, at: 0 }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// Fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        // `at ≤ len` always, so the subtraction cannot wrap where `at + n`
        // could for a hostile `n`.
        if n > self.buf.len() - self.at {
            return Err(DecodeError(format!(
                "truncated: wanted {n} bytes at offset {} of {}",
                self.at,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.array().map(f64::from_le_bytes)
    }

    /// `n` little-endian `f32`s; `n` is checked against the bytes that
    /// remain before the vector is sized by it.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, DecodeError> {
        let b = self.take(n.saturating_mul(4))?;
        Ok(b.chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// A [`put_f64s`] sequence, its count checked like [`WireReader::f32s`].
    pub fn f64s(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.u32()? as usize;
        let b = self.take(n.saturating_mul(8))?;
        Ok(b.chunks_exact(8)
            .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect())
    }

    /// A [`put_bytes`] run.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A [`put_str`] string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|e| DecodeError(format!("string is not UTF-8: {e}")))
    }

    /// A [`put_seq`] sequence of at most `cap` elements named `what`. Every
    /// element takes at least one byte, so the count is checked against
    /// `cap` and the bytes that remain before the first element is read,
    /// and the vector grows only as elements actually decode.
    pub fn seq<T>(
        &mut self,
        cap: usize,
        what: &str,
        mut read: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.u32()? as usize;
        if n > cap || n > self.buf.len() - self.at {
            return Err(DecodeError(format!(
                "implausible {what} count {n} ({} bytes left)",
                self.buf.len() - self.at
            )));
        }
        (0..n).map(|_| read(self)).collect()
    }

    /// A [`put_opt`] field.
    pub fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => read(self).map(Some),
            other => Err(DecodeError(format!("unknown presence byte {other}"))),
        }
    }

    /// Run `read` and also return the bytes it consumed (what a CRC that
    /// follows them covers).
    pub fn spanned<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<(T, &'a [u8]), DecodeError> {
        let start = self.at;
        let value = read(self)?;
        Ok((value, &self.buf[start..self.at]))
    }

    /// Succeeds only when every byte has been read.
    pub fn done(&self) -> Result<(), DecodeError> {
        if self.at != self.buf.len() {
            return Err(DecodeError(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.at
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Encode one record body (everything the per-record CRC covers).
fn put_record(buf: &mut Vec<u8>, name: &str, value: &Tensor) {
    put_str(buf, name);
    put_seq(buf, value.shape().dims(), |b, &d| put_u32(b, d as u32));
    for &v in value.data() {
        put_f32(buf, v);
    }
}

/// Append named tensors to `buf` as a v2 container.
///
/// This is the general building block behind [`write_params`]; snapshot
/// and wire code use it directly for optimizer moments and other named
/// state.
pub fn write_records<'a>(
    records: impl IntoIterator<Item = (&'a str, &'a Tensor)>,
    buf: &mut Vec<u8>,
) {
    let records: Vec<_> = records.into_iter().collect();
    buf.extend_from_slice(MAGIC_V2);
    put_u32(buf, records.len() as u32);
    for (name, value) in &records {
        let start = buf.len();
        put_record(buf, name, value);
        let crc = crc32(&buf[start..]);
        put_u32(buf, crc);
    }
    // Trailing record count: a cheap whole-file completeness check that
    // catches files cut off cleanly between records.
    put_u32(buf, records.len() as u32);
}

/// Serialize every parameter of `params` to `writer` (format v2).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_params(params: &ParamStore, writer: &mut impl Write) -> Result<(), SnnError> {
    let mut buf = Vec::new();
    write_records(params.iter().map(|p| (p.name(), p.value())), &mut buf);
    writer.write_all(&buf)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// One deserialized parameter record.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamRecord {
    /// Parameter name (e.g. `"conv3.weight"`).
    pub name: String,
    /// The stored tensor.
    pub value: Tensor,
}

/// Read one record body (shared by v1 and v2).
fn read_record(r: &mut WireReader<'_>) -> Result<ParamRecord, DecodeError> {
    let name = r.string()?;
    let dims = r
        .seq(8, "dimension", |r| Ok(r.u32()? as usize))
        .map_err(|e| DecodeError(format!("'{name}': {e}")))?;
    // The dims are the file's: their product can overflow, so it is
    // checked, and the bytes it names must be there before any is copied.
    let data = dims
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .ok_or_else(|| DecodeError("element count overflows".into()))
        .and_then(|numel| r.f32s(numel))
        .map_err(|e| DecodeError(format!("'{name}': tensor {dims:?}: {e}")))?;
    Ok(ParamRecord {
        name,
        value: Tensor::from_vec(data, dims),
    })
}

/// Deserialize all parameter records from `bytes` (v1 or v2). Bytes after
/// the container are not read.
///
/// # Errors
///
/// [`SnnError::Format`] on a bad magic header, truncation, a count or
/// length past the bytes that remain, a CRC mismatch (v2) or a malformed
/// record, naming the offending record.
pub fn read_params(bytes: &[u8]) -> Result<Vec<ParamRecord>, SnnError> {
    let mut r = WireReader::new(bytes);
    let v2 = match r.take(MAGIC_V2.len()) {
        Ok(m) if m == MAGIC_V1 => false,
        Ok(m) if m == MAGIC_V2 => true,
        _ => {
            return Err(SnnError::Format(
                "not a skipper weight file (bad magic)".into(),
            ))
        }
    };
    let mut index = 0;
    let records = r.seq(1 << 20, "record", |r| {
        let in_record = |e: DecodeError| DecodeError(format!("record {index}: {e}"));
        let (record, body) = r.spanned(read_record).map_err(in_record)?;
        if v2 {
            let stored = r.u32().map_err(in_record)?;
            let computed = crc32(body);
            if stored != computed {
                return Err(DecodeError(format!(
                    "record {index} ('{}'): CRC mismatch (stored {stored:#010x}, computed {computed:#010x})",
                    record.name
                )));
            }
        }
        index += 1;
        Ok(record)
    })?;
    if v2 {
        let trailer = r.u32()? as usize;
        if trailer != records.len() {
            return Err(SnnError::Format(format!(
                "trailing record count {trailer} disagrees with header count {} (truncated?)",
                records.len()
            )));
        }
    }
    Ok(records)
}

/// Copy `records` into `params`, matching by name.
///
/// # Errors
///
/// Fails if a parameter has no record, a record has no parameter, or a
/// shape disagrees.
pub fn apply_records(params: &mut ParamStore, records: Vec<ParamRecord>) -> Result<(), SnnError> {
    let mut by_name: BTreeMap<String, ParamRecord> =
        records.into_iter().map(|r| (r.name.clone(), r)).collect();
    for p in params.iter_mut() {
        let record = by_name.remove(p.name()).ok_or_else(|| {
            SnnError::Mismatch(format!("no saved weights for parameter '{}'", p.name()))
        })?;
        if record.value.shape() != p.value().shape() {
            return Err(SnnError::Mismatch(format!(
                "shape mismatch for '{}': saved {} vs model {}",
                p.name(),
                record.value.shape(),
                p.value().shape()
            )));
        }
        p.value_mut()
            .data_mut()
            .copy_from_slice(record.value.data());
    }
    if let Some(extra) = by_name.keys().next() {
        return Err(SnnError::Mismatch(format!(
            "saved file contains unknown parameter '{extra}'"
        )));
    }
    Ok(())
}

/// Save `params` to the file at `path` (format v2), atomically (see
/// [`write_atomic`]).
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn save_params(params: &ParamStore, path: impl AsRef<Path>) -> Result<(), SnnError> {
    let mut buf = Vec::new();
    write_params(params, &mut buf)?;
    write_atomic(path.as_ref(), &buf)?;
    Ok(())
}

/// Load the file at `path` into `params` (matching by name and shape).
/// The whole file is read first, so its length bounds what decoding it
/// can allocate.
///
/// # Errors
///
/// See [`read_params`] and [`apply_records`].
pub fn load_params(params: &mut ParamStore, path: impl AsRef<Path>) -> Result<(), SnnError> {
    let records = read_params(&std::fs::read(path)?)?;
    apply_records(params, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{custom_net, ModelConfig};
    use proptest::prelude::*;
    use proptest::TestRng;
    use skipper_tensor::XorShiftRng;

    fn cfg() -> ModelConfig {
        ModelConfig {
            input_hw: 8,
            width_mult: 0.25,
            ..ModelConfig::default()
        }
    }

    /// The legacy v1 writer, kept in tests to prove v1 files still load.
    fn write_params_v1(params: &ParamStore, buf: &mut Vec<u8>) {
        buf.extend_from_slice(MAGIC_V1);
        buf.extend_from_slice(&(params.len() as u32).to_le_bytes());
        for p in params.iter() {
            put_record(buf, p.name(), p.value());
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE CRC32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_preserves_every_weight() {
        let net = custom_net(&cfg());
        let mut buf = Vec::new();
        write_params(net.params(), &mut buf).unwrap();
        // Load into a differently initialised twin.
        let mut twin = custom_net(&ModelConfig { seed: 999, ..cfg() });
        let a0 = twin.params().iter().next().unwrap().value().clone();
        let records = read_params(&buf).unwrap();
        apply_records(twin.params_mut(), records).unwrap();
        for (p, q) in net.params().iter().zip(twin.params().iter()) {
            assert_eq!(p.value().data(), q.value().data(), "{}", p.name());
        }
        assert_ne!(
            a0.data(),
            twin.params().iter().next().unwrap().value().data(),
            "weights must actually change"
        );
    }

    #[test]
    fn v1_files_still_load() {
        let net = custom_net(&cfg());
        let mut buf = Vec::new();
        write_params_v1(net.params(), &mut buf);
        let records = read_params(&buf).unwrap();
        let mut twin = custom_net(&ModelConfig { seed: 999, ..cfg() });
        apply_records(twin.params_mut(), records).unwrap();
        for (p, q) in net.params().iter().zip(twin.params().iter()) {
            assert_eq!(p.value().data(), q.value().data());
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("skipper_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.skw");
        let net = custom_net(&cfg());
        save_params(net.params(), &path).unwrap();
        let mut twin = custom_net(&ModelConfig {
            seed: 31337,
            ..cfg()
        });
        load_params(twin.params_mut(), &path).unwrap();
        for (p, q) in net.params().iter().zip(twin.params().iter()) {
            assert_eq!(p.value().data(), q.value().data());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_params(b"NOTSKW\x01rest").unwrap_err();
        assert!(matches!(err, SnnError::Format(_)), "{err}");
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn truncated_file_is_rejected() {
        let net = custom_net(&cfg());
        let mut buf = Vec::new();
        write_params(net.params(), &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        let err = read_params(&buf).unwrap_err();
        assert!(matches!(err, SnnError::Format(_)), "{err}");
    }

    #[test]
    fn missing_trailer_is_rejected() {
        let net = custom_net(&cfg());
        let mut buf = Vec::new();
        write_params(net.params(), &mut buf).unwrap();
        buf.truncate(buf.len() - 4); // drop the trailing count
        assert!(read_params(&buf).is_err());
    }

    #[test]
    fn corrupt_byte_fails_crc_with_record_name() {
        let net = custom_net(&cfg());
        let mut buf = Vec::new();
        write_params(net.params(), &mut buf).unwrap();
        // Flip one bit in the middle of the first record's tensor data,
        // far enough in to be past the header and the name.
        let at = 60;
        buf[at] ^= 0x40;
        let err = read_params(&buf).unwrap_err();
        assert!(err.to_string().contains("CRC mismatch"), "{err}");
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let net = custom_net(&cfg());
        let mut buf = Vec::new();
        write_params(net.params(), &mut buf).unwrap();
        let records = read_params(&buf).unwrap();
        // A wider twin has different shapes.
        let mut wide = custom_net(&ModelConfig {
            width_mult: 0.5,
            ..cfg()
        });
        let err = apply_records(wide.params_mut(), records).unwrap_err();
        assert!(err.to_string().contains("shape mismatch"), "{err}");
    }

    #[test]
    fn missing_parameter_is_rejected() {
        let net = custom_net(&cfg());
        let mut buf = Vec::new();
        write_params(net.params(), &mut buf).unwrap();
        let mut records = read_params(&buf).unwrap();
        records.pop();
        let mut twin = custom_net(&cfg());
        let err = apply_records(twin.params_mut(), records).unwrap_err();
        assert!(err.to_string().contains("no saved weights"), "{err}");
    }

    #[test]
    fn save_leaves_no_temp_file_behind() {
        let dir = std::env::temp_dir().join("skipper_serialize_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.skw");
        let net = custom_net(&cfg());
        save_params(net.params(), &path).unwrap();
        assert!(path.exists());
        assert!(!tmp_sibling(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn saved_model_predicts_identically() {
        use crate::network::StepCtx;
        let mut rng = XorShiftRng::new(8);
        let input = Tensor::rand([1, 3, 8, 8], &mut rng);
        let net = custom_net(&cfg());
        let mut state = net.init_state(1);
        let expect = net.step_infer(&input, &mut state, &StepCtx::eval(0));

        let mut buf = Vec::new();
        write_params(net.params(), &mut buf).unwrap();
        let mut twin = custom_net(&ModelConfig {
            seed: 1234,
            ..cfg()
        });
        apply_records(twin.params_mut(), read_params(&buf).unwrap()).unwrap();
        let mut state2 = twin.init_state(1);
        let got = twin.step_infer(&input, &mut state2, &StepCtx::eval(0));
        assert!(got.logits.allclose(&expect.logits, 1e-6));
    }

    /// A container of up to three named tensors of rank 0–3 (dims 0–4, so
    /// empty tensors too), in format v1 or v2.
    struct AnyContainer;

    impl Strategy for AnyContainer {
        type Value = (bool, Vec<ParamRecord>);

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let records = (0..rng.below(4))
                .map(|i| {
                    let dims: Vec<usize> =
                        (0..rng.below(4)).map(|_| rng.below(5) as usize).collect();
                    let data = (0..dims.iter().product())
                        .map(|_| (rng.unit_f64() * 8.0 - 4.0) as f32)
                        .collect();
                    ParamRecord {
                        name: format!("layer{i}.w{}", "é".repeat(rng.below(3) as usize)),
                        value: Tensor::from_vec(data, dims),
                    }
                })
                .collect();
            (rng.below(2) == 1, records)
        }
    }

    fn encode(v2: bool, records: &[ParamRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        if v2 {
            write_records(
                records.iter().map(|r| (r.name.as_str(), &r.value)),
                &mut buf,
            );
        } else {
            buf.extend_from_slice(MAGIC_V1);
            put_seq(&mut buf, records, |b, r| put_record(b, &r.name, &r.value));
        }
        buf
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// What is written is what is read; every strict prefix of a file
        /// is a typed format error.
        #[test]
        fn every_container_roundtrips((v2, records) in AnyContainer) {
            let bytes = encode(v2, &records);
            prop_assert_eq!(&read_params(&bytes).unwrap(), &records);
            for cut in 0..bytes.len() {
                prop_assert!(
                    matches!(read_params(&bytes[..cut]), Err(SnnError::Format(_))),
                    "prefix of {cut}/{} bytes did not fail as a format error",
                    bytes.len()
                );
            }
        }

        /// A file with one byte changed decodes or is a typed format error;
        /// it never panics.
        #[test]
        fn mutated_containers_decode_or_fail_typed(
            (v2, records) in AnyContainer,
            at in 0usize..1 << 16,
            flip in 0u8..255,
        ) {
            let mut bytes = encode(v2, &records);
            let at = at % bytes.len();
            bytes[at] ^= flip + 1;
            if let Err(e) = read_params(&bytes) {
                prop_assert!(matches!(e, SnnError::Format(_)), "{e}");
            }
        }
    }
}
