//! Wire types for the gateway's JSON endpoints.
//!
//! A prediction request carries **one sample**: a pre-encoded spike train
//! of `timesteps` frames, each of shape `shape` (e.g. `[3, 8, 8]`),
//! flattened timestep-major into `inputs`. Clients encode (Poisson,
//! latency, …) on their side — the gateway never runs an RNG, so a
//! response is a pure function of the request batch and the loaded
//! weights, and replicas answer identically.
//!
//! The gateway decodes request bodies with [`PredictRequest::from_json`],
//! one pass over the bytes that fills the fields directly. The serde
//! derive stays: clients build bodies with it, and it is the reference
//! the decoder is tested against.

use serde::{Deserialize, Serialize};
use serde_json::Number;
use skipper_tensor::Tensor;

/// `POST /v1/predict` request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictRequest {
    /// Admission-control tenant; must be configured on the gateway.
    pub tenant: String,
    /// Spike-train length `T`.
    pub timesteps: usize,
    /// Per-timestep sample shape, e.g. `[3, 8, 8]` (no batch dimension —
    /// batching is the gateway's job).
    pub shape: Vec<usize>,
    /// Flat spike data, timestep-major: `timesteps * shape.product()`
    /// values.
    pub inputs: Vec<f32>,
    /// Optional per-request deadline override in milliseconds; the
    /// gateway sheds the request rather than answer later than this.
    pub deadline_ms: Option<u64>,
}

impl PredictRequest {
    /// Decode a `POST /v1/predict` body in one pass over its bytes, with
    /// no JSON value tree in between.
    ///
    /// A UTF-8 body decodes exactly as `serde_json::from_str` decodes it
    /// into this type: the same bodies are accepted, and the fields come
    /// out equal, `inputs` bit for bit. Numbers are read as the vendored
    /// parser reads them, unknown keys are skipped, the last of duplicate
    /// keys wins, and `deadline_ms` may be absent or `null`. A body that
    /// is not UTF-8 is rejected, and so is one that nests more arrays and
    /// objects than `serde_json::RECURSION_LIMIT`. Nested values are
    /// skipped with a heap stack, so no body can exhaust the calling
    /// thread's stack.
    ///
    /// # Errors
    ///
    /// A human-readable reason for malformed JSON, a string that is not
    /// UTF-8, or a field that is missing or has the wrong type.
    pub fn from_json(body: &[u8]) -> Result<PredictRequest, String> {
        let as_usize = |n: Number| n.as_u64().and_then(|v| usize::try_from(v).ok());
        let mut cur = Cursor {
            bytes: body,
            pos: 0,
            depth: 1, // the body object
        };
        // A field whose value has the wrong type reads `None` (or `Err`)
        // until the end of the object: a later duplicate key replaces it.
        let (mut tenant, mut timesteps, mut shape, mut inputs) = (None, None, None, None);
        let mut deadline_ms = Ok(None);
        cur.skip_ws();
        cur.require(b'{')?;
        cur.skip_ws();
        if cur.peek() == Some(b'}') {
            cur.pos += 1;
        } else {
            loop {
                let key = cur.key()?;
                cur.skip_ws();
                match key.as_str() {
                    "tenant" => tenant = cur.string_or_skip()?,
                    "timesteps" => timesteps = cur.number_or_skip()?.and_then(as_usize),
                    "shape" => shape = cur.array(as_usize)?,
                    "inputs" => inputs = cur.array(|n| n.as_f64().map(|v| v as f32))?,
                    "deadline_ms" => {
                        deadline_ms = if cur.eat(b"null") {
                            Ok(None)
                        } else {
                            cur.number_or_skip()?
                                .and_then(|n| n.as_u64())
                                .map(Some)
                                .ok_or(())
                        }
                    }
                    _ => cur.skip_value()?,
                }
                if cur.next_or_close(b'}')? {
                    break;
                }
            }
        }
        cur.skip_ws();
        if cur.pos != body.len() {
            return Err(format!("trailing characters at byte {}", cur.pos));
        }
        let field = |name: &str, what: &str| format!("field `{name}` is missing or not {what}");
        Ok(PredictRequest {
            tenant: tenant.ok_or_else(|| field("tenant", "a string"))?,
            timesteps: timesteps.ok_or_else(|| field("timesteps", "an unsigned integer"))?,
            shape: shape.ok_or_else(|| field("shape", "an array of unsigned integers"))?,
            inputs: inputs.ok_or_else(|| field("inputs", "an array of numbers"))?,
            deadline_ms: deadline_ms
                .map_err(|()| "field `deadline_ms` is not null or an unsigned integer")?,
        })
    }

    /// The values in one timestep, once the declared geometry is checked
    /// against `inputs`.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the declared geometry is empty,
    /// overflows, or disagrees with `inputs.len()`.
    pub(crate) fn per_step(&self) -> Result<usize, String> {
        if self.timesteps == 0 {
            return Err("timesteps must be >= 1".to_string());
        }
        if self.shape.is_empty() || self.shape.contains(&0) {
            return Err(format!(
                "shape {:?} must be non-empty and positive",
                self.shape
            ));
        }
        let per_step: usize = self
            .shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| format!("shape {:?} overflows", self.shape))?;
        let want = per_step
            .checked_mul(self.timesteps)
            .ok_or_else(|| format!("{} x {:?} overflows", self.timesteps, self.shape))?;
        if self.inputs.len() != want {
            return Err(format!(
                "inputs has {} values; {} timesteps of shape {:?} need {}",
                self.inputs.len(),
                self.timesteps,
                self.shape,
                want
            ));
        }
        Ok(per_step)
    }

    /// Validate and unflatten into one `[1, …shape]` tensor per timestep.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the declared geometry is empty,
    /// overflows, or disagrees with `inputs.len()`.
    pub fn to_timestep_tensors(&self) -> Result<Vec<Tensor>, String> {
        let per_step = self.per_step()?;
        let mut sample_shape = Vec::with_capacity(self.shape.len() + 1);
        sample_shape.push(1usize);
        sample_shape.extend_from_slice(&self.shape);
        Ok(self
            .inputs
            .chunks_exact(per_step)
            .map(|step| Tensor::from_vec(step.to_vec(), sample_shape.clone()))
            .collect())
    }
}

/// A read position in a JSON document. The grammar is the vendored
/// `serde_json` parser's, byte for byte: what it accepts, this accepts.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the position.
    depth: usize,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn require(&mut self, b: u8) -> Result<(), String> {
        if self.eat(&[b]) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat(&mut self, keyword: &[u8]) -> bool {
        let found = self
            .bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(keyword));
        if found {
            self.pos += keyword.len();
        }
        found
    }

    /// After an array element or object member: `true` when `close` ends
    /// the container, `false` when a comma announces another entry.
    fn next_or_close(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(format!(
                "expected ',' or '{}' at byte {}",
                close as char, self.pos
            )),
        }
    }

    /// An object member's key and the `:` after it.
    fn key(&mut self) -> Result<String, String> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.require(b':')?;
        Ok(key)
    }

    /// A string with the vendored parser's escapes: `\uXXXX` must be one
    /// scalar value (no surrogate pairs). Its bytes must be UTF-8.
    fn string(&mut self) -> Result<String, String> {
        self.require(b'"')?;
        let mut out = Vec::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let c = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            c
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    };
                    self.pos += 1;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => out.push(b),
            }
        }
    }

    /// A number, scanned and typed as the vendored parser does: any of
    /// `.eE+-` after the sign makes it an `f64`, otherwise it is an
    /// `i64` (signed) or `u64`.
    fn number(&mut self) -> Result<Number, String> {
        let in_number = |b: &u8| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-');
        let start = self.pos;
        let rest = self.bytes.get(start..).unwrap_or_default();
        let len = rest
            .iter()
            .position(|b| !in_number(b))
            .unwrap_or(rest.len());
        let text = rest.get(..len).unwrap_or_default();
        self.pos += len;
        let unsigned = text.strip_prefix(b"-").unwrap_or(text);
        let float = unsigned.iter().any(|b| !b.is_ascii_digit());
        // Only ASCII was scanned, so this cannot fail.
        let text = std::str::from_utf8(text).map_err(|e| e.to_string())?;
        let bad = |e: &dyn std::fmt::Display| format!("bad number {text:?} at byte {start}: {e}");
        if float {
            text.parse().map(Number::from_f64).map_err(|e| bad(&e))
        } else if text.starts_with('-') {
            text.parse().map(Number::from_i64).map_err(|e| bad(&e))
        } else {
            text.parse().map(Number::from_u64).map_err(|e| bad(&e))
        }
    }

    /// A string value, or `None` after skipping a value of another type.
    fn string_or_skip(&mut self) -> Result<Option<String>, String> {
        if self.peek() == Some(b'"') {
            self.string().map(Some)
        } else {
            self.skip_value().map(|()| None)
        }
    }

    /// A number value, or `None` after skipping a value of another type.
    fn number_or_skip(&mut self) -> Result<Option<Number>, String> {
        if matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            self.number().map(Some)
        } else {
            self.skip_value().map(|()| None)
        }
    }

    /// An array whose every element `elem` accepts, or `None` after
    /// consuming a value of another shape.
    ///
    /// The elements a spike train is made of, `0.0` or `1.0` right before
    /// the `,` or `]` that ends them, are taken without a scan or a parse:
    /// they give the `Number` parsing would. Any other element, whitespace
    /// included, goes the general way.
    fn array<T>(&mut self, elem: impl Fn(Number) -> Option<T>) -> Result<Option<Vec<T>>, String> {
        if self.peek() != Some(b'[') {
            return self.skip_value().map(|()| None);
        }
        self.pos += 1;
        let mut out = Vec::new();
        let mut fits = true;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Some(out));
        }
        self.depth += 1;
        loop {
            let (number, close) = match self.bytes.get(self.pos..self.pos + 4) {
                Some(&[d @ (b'0' | b'1'), b'.', b'0', end @ (b',' | b']')]) => {
                    self.pos += 4;
                    (Some(Number::from_f64(f64::from(d - b'0'))), end == b']')
                }
                _ => {
                    self.skip_ws();
                    (self.number_or_skip()?, self.next_or_close(b']')?)
                }
            };
            match number.and_then(&elem) {
                Some(v) => out.push(v),
                None => fits = false,
            }
            if close {
                self.depth -= 1;
                return Ok(fits.then_some(out));
            }
        }
    }

    /// Consume one well-formed value of any type. Open containers are kept
    /// on a heap stack, one byte each, instead of one call frame each, and
    /// refused past the vendored parser's nesting limit.
    fn skip_value(&mut self) -> Result<(), String> {
        let mut open = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b @ (b'[' | b'{')) => {
                    if self.depth + open.len() == serde_json::RECURSION_LIMIT {
                        return Err(format!("nesting too deep at byte {}", self.pos));
                    }
                    let close = if b == b'[' { b']' } else { b'}' };
                    self.pos += 1;
                    self.skip_ws();
                    if self.peek() == Some(close) {
                        self.pos += 1;
                    } else {
                        open.push(close);
                        if close == b'}' {
                            self.key()?;
                        }
                        continue;
                    }
                }
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'-' | b'0'..=b'9') => {
                    self.number()?;
                }
                _ if self.eat(b"null") || self.eat(b"true") || self.eat(b"false") => {}
                other => {
                    return Err(format!(
                        "unexpected character {other:?} at byte {}",
                        self.pos
                    ))
                }
            }
            // A value ended: close every container it completes, then go
            // on to the next entry of the innermost one still open.
            loop {
                let Some(&close) = open.last() else {
                    return Ok(());
                };
                if !self.next_or_close(close)? {
                    if close == b'}' {
                        self.key()?;
                    }
                    break;
                }
                open.pop();
            }
        }
    }
}

/// `POST /v1/predict` success body (HTTP 200).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictResponse {
    /// Argmax class of the time-averaged logits.
    pub class: usize,
    /// The sample's time-averaged logits.
    pub logits: Vec<f32>,
    /// Timesteps the micro-batch actually ran.
    pub evaluated_steps: usize,
    /// Timesteps early-exited by inference-time skipping.
    pub skipped_steps: usize,
    /// How many requests shared the micro-batch this one rode in.
    pub batch_size: usize,
}

/// One row of `GET /v1/tenants`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantStatus {
    /// Tenant name.
    pub name: String,
    /// Configured sustained rate, requests/second.
    pub rate_per_sec: f64,
    /// Configured burst capacity.
    pub burst: f64,
    /// Current token-bucket level.
    pub tokens: f64,
}

/// `GET /v1/tenants` body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantsResponse {
    /// Every configured tenant with its live bucket level.
    pub tenants: Vec<TenantStatus>,
}

/// One rolling window's burn rate in `GET /slo`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloWindowStatus {
    /// Window name, `"short"` or `"long"`.
    pub window: String,
    /// Window length, seconds.
    pub seconds: f64,
    /// Overall burn rate: max of the latency and availability burns.
    /// `>= 1` means the error budget is being spent faster than the SLO
    /// allows.
    pub burn_rate: f64,
    /// Latency burn: fraction of answered requests slower than the p99
    /// target, over the 1 % the target tolerates.
    pub latency_burn: f64,
    /// Availability burn: involuntarily-shed fraction over the allowed
    /// unavailability.
    pub availability_burn: f64,
    /// Requests answered inside the window.
    pub requests: f64,
    /// Estimated answered requests above the latency target.
    pub slow: f64,
    /// Availability-impacting sheds inside the window (queue_full,
    /// deadline, shutdown — policy rejections like rate limiting are the
    /// SLO working, not breaking).
    pub shed: f64,
}

/// `GET /slo` body: the burn-rate engine's latest evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloStatus {
    /// Configured latency target: the p99 must stay at or under this many
    /// microseconds.
    pub latency_p99_target_us: f64,
    /// Configured availability target as a fraction (0.99 = "99 % of
    /// attempts answered").
    pub availability_target: f64,
    /// True while every window burns below 1.0. Alerts should require
    /// *both* windows to burn — see DESIGN.md §13.
    pub healthy: bool,
    /// Per-window burn rates, short first.
    pub windows: Vec<SloWindowStatus>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(timesteps: usize, shape: Vec<usize>, values: usize) -> PredictRequest {
        PredictRequest {
            tenant: "t".to_string(),
            timesteps,
            shape,
            inputs: vec![1.0; values],
            deadline_ms: None,
        }
    }

    #[test]
    fn well_formed_request_unflattens() {
        let tensors = request(4, vec![3, 8, 8], 4 * 3 * 8 * 8)
            .to_timestep_tensors()
            .unwrap();
        assert_eq!(tensors.len(), 4);
        assert_eq!(tensors[0].shape().dims(), &[1, 3, 8, 8]);
    }

    #[test]
    fn geometry_mismatches_are_rejected() {
        assert!(request(0, vec![3], 0).to_timestep_tensors().is_err());
        assert!(request(2, vec![], 2).to_timestep_tensors().is_err());
        assert!(request(2, vec![3, 0], 0).to_timestep_tensors().is_err());
        assert!(request(2, vec![3], 5).to_timestep_tensors().is_err());
    }

    #[test]
    fn json_round_trip_preserves_float_bits() {
        let req = PredictRequest {
            tenant: "acme".to_string(),
            timesteps: 1,
            shape: vec![2],
            inputs: vec![0.1, f32::MIN_POSITIVE],
            deadline_ms: Some(25),
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: PredictRequest = serde_json::from_str(&json).unwrap();
        for (a, b) in req.inputs.iter().zip(&back.inputs) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.deadline_ms, Some(25));

        // A body without the optional field still parses.
        let json = r#"{"tenant":"a","timesteps":1,"shape":[1],"inputs":[0.0]}"#;
        let sparse: PredictRequest = serde_json::from_str(json).unwrap();
        assert_eq!(sparse.deadline_ms, None);
    }
}
