//! JSON snapshot exporter and a matching minimal parser.
//!
//! [`snapshot`] serializes a [`MetricsSnapshot`] to pretty-printed
//! JSON; [`parse`] reads it back, so the ci.sh smoke can assert the
//! export round-trips losslessly (`parse(snapshot(s)) == s`). The
//! parser is a tiny hand-rolled recursive-descent JSON reader — there
//! is deliberately no serde in this workspace.
//!
//! Non-finite floats are not representable in JSON numbers; they are
//! written as the strings `"+Inf"`, `"-Inf"`, and `"NaN"` and accepted
//! back by the parser. Integers round-trip exactly up to 2^53 (they
//! pass through an `f64`).

use std::fmt::Write as _;

use super::registry::{
    BucketSample, CounterSample, GaugeSample, HistogramSample, MetricsSnapshot,
};
use super::ParseError;

/// The `Content-Type` an HTTP endpoint should declare for [`snapshot`]
/// output.
pub const CONTENT_TYPE: &str = "application/json";

/// Write an `f64` as a JSON value (string-encoding non-finite values).
fn fmt_f64(out: &mut String, value: f64) {
    if value == f64::INFINITY {
        out.push_str("\"+Inf\"");
    } else if value == f64::NEG_INFINITY {
        out.push_str("\"-Inf\"");
    } else if value.is_nan() {
        out.push_str("\"NaN\"");
    } else {
        let _ = write!(out, "{value}");
    }
}

/// Write a JSON string literal with minimal escaping.
fn fmt_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialize a snapshot to pretty-printed JSON.
pub fn snapshot(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    snapshot_into(&mut out, snap);
    out
}

/// Serialize a snapshot into an existing buffer (appending), so a
/// serving loop can reuse one `String` across exports instead of
/// allocating a fresh document each time.
pub fn snapshot_into(out: &mut String, snap: &MetricsSnapshot) {
    snapshot_with_fields_into(out, &[], snap);
}

/// Like [`snapshot_into`], but with extra top-level string fields
/// rendered (escaped) before the metric arrays — how the serving layer
/// folds its `"policy"` label into `/report` as a genuine JSON field.
/// [`parse`] looks fields up by name, so documents with extras still
/// round-trip.
pub fn snapshot_with_fields_into(
    out: &mut String,
    fields: &[(&str, &str)],
    snap: &MetricsSnapshot,
) {
    out.push('{');
    for (name, value) in fields {
        out.push_str("\n  ");
        fmt_str(out, name);
        out.push_str(": ");
        fmt_str(out, value);
        out.push(',');
    }
    out.push_str("\n  \"counters\": [");
    for (i, c) in snap.counters.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"name\": ");
        fmt_str(out, &c.name);
        let _ = write!(out, ", \"value\": {}}}", c.value);
    }
    out.push_str("\n  ],\n  \"gauges\": [");
    for (i, g) in snap.gauges.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"name\": ");
        fmt_str(out, &g.name);
        out.push_str(", \"value\": ");
        fmt_f64(out, g.value);
        out.push('}');
    }
    out.push_str("\n  ],\n  \"histograms\": [");
    for (i, h) in snap.histograms.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"name\": ");
        fmt_str(out, &h.name);
        out.push_str(", \"sum\": ");
        fmt_f64(out, h.sum);
        let _ = write!(out, ", \"count\": {}, \"buckets\": [", h.count);
        for (j, b) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"le\": ");
            fmt_f64(out, b.le);
            let _ = write!(out, ", \"cumulative\": {}}}", b.cumulative);
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]\n}\n");
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (via `f64`).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

/// Recursive-descent JSON reader over a byte slice.
struct Reader<'a> {
    /// The input text.
    src: &'a str,
    /// Input bytes (`src.as_bytes()`).
    bytes: &'a [u8],
    /// Cursor into `bytes`.
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Build an error at the current cursor.
    fn err(&self, reason: impl Into<String>) -> ParseError {
        ParseError::Json {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    /// Advance past ASCII whitespace.
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    /// Consume `token` or fail.
    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {token:?}")))
        }
    }

    /// Parse one value at the cursor.
    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.expect("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.expect("false").map(|_| Value::Bool(false)),
            Some(b'n') => self.expect("null").map(|_| Value::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse an object (cursor on `{`).
    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect("{")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(":")?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// Parse an array (cursor on `[`).
    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect("[")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Parse a string literal (cursor on the opening quote).
    fn string(&mut self) -> Result<String, ParseError> {
        self.expect("\"")?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            s.push(hex);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape.
                    // Both are ASCII, so the run ends on a char boundary
                    // of the (already valid UTF-8) input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    let text = self
                        .src
                        .get(self.pos..self.pos + run)
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    s.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    /// Parse a number literal.
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| {
            matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        }) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Look up a field in a parsed object.
fn field<'v>(obj: &'v [(String, Value)], name: &str, at: &str) -> Result<&'v Value, ParseError> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| ParseError::Json {
            offset: 0,
            reason: format!("missing field {name:?} in {at}"),
        })
}

/// Interpret a value as an `f64`, accepting the string-encoded
/// non-finite sentinels.
fn as_f64(value: &Value, at: &str) -> Result<f64, ParseError> {
    match value {
        Value::Num(n) => Ok(*n),
        Value::Str(s) if s == "+Inf" => Ok(f64::INFINITY),
        Value::Str(s) if s == "-Inf" => Ok(f64::NEG_INFINITY),
        Value::Str(s) if s == "NaN" => Ok(f64::NAN),
        _ => Err(ParseError::Json {
            offset: 0,
            reason: format!("expected number in {at}"),
        }),
    }
}

/// Interpret a value as a non-negative integer.
fn as_u64(value: &Value, at: &str) -> Result<u64, ParseError> {
    match value {
        Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        _ => Err(ParseError::Json {
            offset: 0,
            reason: format!("expected unsigned integer in {at}"),
        }),
    }
}

/// Interpret a value as a string.
fn as_str(value: &Value, at: &str) -> Result<String, ParseError> {
    match value {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(ParseError::Json {
            offset: 0,
            reason: format!("expected string in {at}"),
        }),
    }
}

/// Interpret a value as an array of objects.
fn as_objects<'v>(
    value: &'v Value,
    at: &str,
) -> Result<Vec<&'v [(String, Value)]>, ParseError> {
    let Value::Arr(items) = value else {
        return Err(ParseError::Json {
            offset: 0,
            reason: format!("expected array in {at}"),
        });
    };
    items
        .iter()
        .map(|item| match item {
            Value::Obj(fields) => Ok(fields.as_slice()),
            _ => Err(ParseError::Json {
                offset: 0,
                reason: format!("expected object in {at}"),
            }),
        })
        .collect()
}

/// Parse a JSON snapshot produced by [`snapshot`] back into a
/// [`MetricsSnapshot`].
pub fn parse(text: &str) -> Result<MetricsSnapshot, ParseError> {
    let mut reader = Reader {
        src: text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let root = reader.value()?;
    reader.skip_ws();
    if reader.pos != reader.bytes.len() {
        return Err(reader.err("trailing data"));
    }
    let Value::Obj(root) = root else {
        return Err(ParseError::Json {
            offset: 0,
            reason: "top level must be an object".to_string(),
        });
    };

    let counters = as_objects(field(&root, "counters", "snapshot")?, "counters")?
        .into_iter()
        .map(|obj| {
            Ok(CounterSample {
                name: as_str(field(obj, "name", "counter")?, "counter name")?,
                value: as_u64(field(obj, "value", "counter")?, "counter value")?,
            })
        })
        .collect::<Result<_, ParseError>>()?;

    let gauges = as_objects(field(&root, "gauges", "snapshot")?, "gauges")?
        .into_iter()
        .map(|obj| {
            Ok(GaugeSample {
                name: as_str(field(obj, "name", "gauge")?, "gauge name")?,
                value: as_f64(field(obj, "value", "gauge")?, "gauge value")?,
            })
        })
        .collect::<Result<_, ParseError>>()?;

    let histograms = as_objects(field(&root, "histograms", "snapshot")?, "histograms")?
        .into_iter()
        .map(|obj| {
            let buckets = as_objects(field(obj, "buckets", "histogram")?, "buckets")?
                .into_iter()
                .map(|b| {
                    Ok(BucketSample {
                        le: as_f64(field(b, "le", "bucket")?, "bucket le")?,
                        cumulative: as_u64(
                            field(b, "cumulative", "bucket")?,
                            "bucket cumulative",
                        )?,
                    })
                })
                .collect::<Result<_, ParseError>>()?;
            Ok(HistogramSample {
                name: as_str(field(obj, "name", "histogram")?, "histogram name")?,
                buckets,
                sum: as_f64(field(obj, "sum", "histogram")?, "histogram sum")?,
                count: as_u64(field(obj, "count", "histogram")?, "histogram count")?,
            })
        })
        .collect::<Result<_, ParseError>>()?;

    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
    })
}

#[cfg(test)]
mod tests {
    use super::super::registry::MetricsRegistry;
    use super::super::{Recorder, RoundPhase};
    use super::*;

    #[test]
    fn snapshot_round_trips_exactly() {
        let reg = MetricsRegistry::new();
        reg.counter_add("capmaestro_rounds_total", 41);
        reg.gauge_set("capmaestro_stale_servers", 0.0);
        reg.gauge_set("tricky \"gauge\"\n", -1.25e-7);
        for phase in RoundPhase::ALL {
            reg.observe(phase.metric_name(), 3.3e-5);
        }
        let snap = reg.snapshot();
        let text = snapshot(&snap);
        assert_eq!(parse(&text).expect("round trip"), snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = MetricsSnapshot::default();
        assert_eq!(parse(&snapshot(&snap)).expect("round trip"), snap);
    }

    #[test]
    fn non_finite_values_survive() {
        let snap = MetricsSnapshot {
            counters: vec![],
            gauges: vec![GaugeSample {
                name: "g".to_string(),
                value: f64::INFINITY,
            }],
            histograms: vec![],
        };
        let back = parse(&snapshot(&snap)).expect("round trip");
        assert_eq!(back.gauges[0].value, f64::INFINITY);
    }

    #[test]
    fn multi_byte_names_and_escapes_at_string_boundaries_round_trip() {
        let names = [
            "\"é\n🔌\t\"",
            "é",
            "日本語{server=\"π\"}",
            "\\🔌",
            "🔌\\",
            "a\u{7f}ü\r",
        ];
        let snap = MetricsSnapshot {
            counters: vec![],
            gauges: names
                .iter()
                .map(|name| GaugeSample {
                    name: name.to_string(),
                    value: 1.5,
                })
                .collect(),
            histograms: vec![],
        };
        assert_eq!(parse(&snapshot(&snap)).expect("round trip"), snap);
    }

    #[test]
    fn unicode_escapes_next_to_raw_multi_byte_text_decode() {
        let text = "{\"counters\": [{\"name\": \"\\u00e9é\\\\\", \"value\": 1}], \
                    \"gauges\": [], \"histograms\": []}";
        let snap = parse(text).expect("valid document");
        assert_eq!(snap.counters[0].name, "éé\\");
    }

    #[test]
    fn truncated_multi_byte_strings_fail_cleanly() {
        for bad in [
            "{\"counters\": [{\"name\": \"é",
            "{\"counters\": [{\"name\": \"🔌\\",
            "{\"counters\": [{\"name\": \"\\u00é\", \"value\": 1}]}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "[]",
            "{\"counters\": [}",
            "{\"counters\": [], \"gauges\": []}",
            "{\"counters\": [{\"name\": \"x\", \"value\": -1}], \
             \"gauges\": [], \"histograms\": []}",
            "{\"counters\": [], \"gauges\": [], \"histograms\": []} trailing",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
