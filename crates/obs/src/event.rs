//! The event vocabulary: everything the collector can record.
//!
//! An [`Event`] is one timestamped fact — a span boundary, a point-in-time
//! occurrence, or a metric update — plus free-form key/value [`Fields`].
//! Events are cheap to clone (fields are small vectors) so in-memory sinks
//! can hand out snapshots.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Severity / verbosity class of an event.
///
/// Sinks filter on it: the stderr sink installed by
/// [`init_from_env`](crate::init_from_env) shows `Info` and above by
/// default, while trace exporters usually take everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Level {
    /// Per-timestep firehose (skip decisions, kernel-ish detail).
    Trace,
    /// Per-segment / per-iteration structure.
    #[default]
    Debug,
    /// Run-level happenings a user wants on a terminal (governor actions,
    /// snapshots, epoch results).
    Info,
    /// Faults and recoveries (sentinel retries).
    Warn,
}

impl Level {
    /// Parse `"trace" | "debug" | "info" | "warn"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            _ => None,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
        })
    }
}

/// A field value. Conversions exist for the common scalar types so the
/// [`span!`](crate::span!) / [`instant!`](crate::instant!) macros accept
/// plain expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

macro_rules! field_from {
    ($($ty:ty => $variant:ident as $conv:ty),+ $(,)?) => {
        $(impl From<$ty> for FieldValue {
            fn from(v: $ty) -> FieldValue {
                FieldValue::$variant(v as $conv)
            }
        })+
    };
}

field_from!(
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64, i64 => I64 as i64,
    isize => I64 as i64,
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64, u64 => U64 as u64,
    usize => U64 as u64,
    f32 => F64 as f64, f64 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// Key/value payload of an event.
pub type Fields = Vec<(&'static str, FieldValue)>;

/// What kind of fact an [`Event`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened. `parent` is the id of the enclosing span on the same
    /// thread, if any.
    SpanBegin {
        /// Process-unique span id.
        id: u64,
        /// Enclosing span on the same thread.
        parent: Option<u64>,
    },
    /// The span with `id` closed.
    SpanEnd {
        /// Id from the matching [`EventKind::SpanBegin`].
        id: u64,
    },
    /// A point-in-time occurrence.
    Instant,
    /// A counter was incremented by `delta`.
    Counter {
        /// Increment (counters are monotone; deltas are non-negative).
        delta: f64,
    },
    /// A gauge was set to `value`.
    Gauge {
        /// New gauge value.
        value: f64,
    },
    /// A histogram observed `value`.
    Observe {
        /// Observed sample.
        value: f64,
    },
}

/// One timestamped record delivered to every installed sink.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event (or metric) name, dot-separated (`"recompute_segment"`,
    /// `"skipper.steps_skipped"`).
    pub name: Cow<'static, str>,
    /// Verbosity class.
    pub level: Level,
    /// Microseconds since the process-wide trace epoch
    /// (see [`now_us`](crate::now_us)).
    pub ts_us: u64,
    /// Small dense id of the emitting thread (stable for the thread's
    /// lifetime; the main thread is usually 1).
    pub tid: u64,
    /// The fact itself.
    pub kind: EventKind,
    /// Free-form payload.
    pub fields: Fields,
}

/// Append `s` JSON-escaped (with surrounding quotes) to `out`.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a JSON number (`null` for non-finite floats, which JSON cannot
/// represent) to `out`.
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_json_field_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::I64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(v) => push_json_f64(out, *v),
        FieldValue::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::Str(v) => push_json_string(out, v),
    }
}

/// Append the fields as a JSON object (`{"k":v,...}`) to `out`.
pub fn push_json_fields(out: &mut String, fields: &Fields) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, k);
        out.push(':');
        push_json_field_value(out, v);
    }
    out.push('}');
}

impl Event {
    /// One-line JSON representation (the JSONL sink's record format).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"ts_us\":");
        let _ = write!(out, "{}", self.ts_us);
        let _ = write!(out, ",\"tid\":{}", self.tid);
        out.push_str(",\"level\":");
        push_json_string(&mut out, &self.level.to_string());
        out.push_str(",\"name\":");
        push_json_string(&mut out, &self.name);
        match &self.kind {
            EventKind::SpanBegin { id, parent } => {
                let _ = write!(out, ",\"ev\":\"span_begin\",\"span\":{id}");
                if let Some(p) = parent {
                    let _ = write!(out, ",\"parent\":{p}");
                }
            }
            EventKind::SpanEnd { id } => {
                let _ = write!(out, ",\"ev\":\"span_end\",\"span\":{id}");
            }
            EventKind::Instant => out.push_str(",\"ev\":\"instant\""),
            EventKind::Counter { delta } => {
                out.push_str(",\"ev\":\"counter\",\"delta\":");
                push_json_f64(&mut out, *delta);
            }
            EventKind::Gauge { value } => {
                out.push_str(",\"ev\":\"gauge\",\"value\":");
                push_json_f64(&mut out, *value);
            }
            EventKind::Observe { value } => {
                out.push_str(",\"ev\":\"observe\",\"value\":");
                push_json_f64(&mut out, *value);
            }
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":");
            push_json_fields(&mut out, &self.fields);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Trace < Level::Debug);
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("bogus"), None);
    }

    #[test]
    fn json_escaping() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let mut s = String::new();
        push_json_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn event_json_roundtrip_shape() {
        let e = Event {
            name: "skip_decision".into(),
            level: Level::Trace,
            ts_us: 42,
            tid: 1,
            kind: EventKind::Instant,
            fields: vec![("t", 3usize.into()), ("skip", true.into())],
        };
        let j = e.to_json();
        assert!(j.starts_with("{\"ts_us\":42"));
        assert!(j.contains("\"ev\":\"instant\""));
        assert!(j.contains("\"fields\":{\"t\":3,\"skip\":true}"));
        assert!(j.ends_with('}'));
    }

    #[test]
    fn field_conversions() {
        assert_eq!(FieldValue::from(3i32), FieldValue::I64(3));
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(0.5f32), FieldValue::F64(0.5));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".into()));
    }
}
