//! Canonical JSON codec for committed threshold artifacts.
//!
//! The Merkle commitment `r_e` hashes one leaf per operator threshold, so
//! the byte encoding must be deterministic across platforms and releases.
//! The build environment is offline (no serde/serde_json), and a committed
//! format should not track a third-party crate's formatting anyway, so this
//! module hand-rolls the tiny subset of JSON the bundle needs: objects with
//! fixed key order, arrays, strings, and finite f64 numbers rendered via
//! Rust's shortest-roundtrip `{:?}` formatting.

use tao_graph::NodeId;

use crate::error::CalibError;
use crate::profile::{OperatorThreshold, PercentilePair, ThresholdBundle};

/// Serializes one operator threshold to its canonical Merkle-leaf bytes.
pub fn threshold_to_json(o: &OperatorThreshold) -> Vec<u8> {
    let mut s = String::with_capacity(256);
    s.push_str("{\"node\":");
    s.push_str(&o.node.0.to_string());
    s.push_str(",\"mnemonic\":");
    write_string(&mut s, &o.mnemonic);
    s.push_str(",\"thresholds\":");
    write_pair(&mut s, &o.thresholds);
    s.push_str(",\"mean_abs_error\":");
    write_f64(&mut s, o.mean_abs_error);
    s.push('}');
    s.into_bytes()
}

/// Parses bytes produced by [`threshold_to_json`].
pub fn threshold_from_json(bytes: &[u8]) -> crate::Result<OperatorThreshold> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| CalibError::Json("leaf is not UTF-8".to_string()))?;
    let (value, rest) = Value::parse(text.trim())?;
    if !rest.trim().is_empty() {
        return Err(CalibError::Json(
            "trailing bytes after JSON value".to_string(),
        ));
    }
    let node = value.field("node")?.as_usize()?;
    let mnemonic = value.field("mnemonic")?.as_str()?.to_string();
    let thresholds = value.field("thresholds")?;
    let pair = PercentilePair {
        abs: thresholds.field("abs")?.as_f64_array()?,
        rel: thresholds.field("rel")?.as_f64_array()?,
    };
    Ok(OperatorThreshold {
        node: NodeId(node),
        mnemonic,
        thresholds: pair,
        mean_abs_error: value.field("mean_abs_error")?.as_f64()?,
    })
}

/// Pretty-prints a whole bundle (reports and tooling; not commitment bytes).
pub fn bundle_to_json_pretty(b: &ThresholdBundle) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"grid\": ");
    write_f64_array(&mut s, &b.grid);
    s.push_str(",\n  \"alpha\": ");
    write_f64(&mut s, b.alpha);
    s.push_str(",\n  \"operators\": [");
    for (i, o) in b.operators.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    ");
        s.push_str(std::str::from_utf8(&threshold_to_json(o)).expect("codec emits UTF-8"));
    }
    if !b.operators.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}");
    s
}

fn write_string(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, v: f64) {
    // A non-finite value would serialize as `NaN`/`inf`, which the parser
    // rejects — committing unreadable leaf bytes into `r_e` for the
    // deployment's lifetime. Fail loudly instead, in every build profile.
    assert!(
        v.is_finite(),
        "committed thresholds must be finite, got {v}"
    );
    out.push_str(&format!("{v:?}"));
}

fn write_f64_array(out: &mut String, vs: &[f64]) {
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f64(out, *v);
    }
    out.push(']');
}

fn write_pair(out: &mut String, p: &PercentilePair) {
    out.push_str("{\"abs\":");
    write_f64_array(out, &p.abs);
    out.push_str(",\"rel\":");
    write_f64_array(out, &p.rel);
    out.push('}');
}

/// Parsed JSON value (only the shapes the codec emits).
enum Value {
    Object(Vec<(String, Value)>),
    Array(Vec<Value>),
    String(String),
    Number(f64),
}

fn err(msg: impl Into<String>) -> CalibError {
    CalibError::Json(msg.into())
}

impl Value {
    /// Parses one value off the front of `s`, returning the remainder.
    fn parse(s: &str) -> crate::Result<(Value, &str)> {
        let s = s.trim_start();
        match s.as_bytes().first() {
            Some(b'{') => {
                let mut rest = s[1..].trim_start();
                let mut fields = Vec::new();
                if let Some(r) = rest.strip_prefix('}') {
                    return Ok((Value::Object(fields), r));
                }
                loop {
                    let (key, r) = parse_string(rest)?;
                    let r = r
                        .trim_start()
                        .strip_prefix(':')
                        .ok_or_else(|| err("expected ':' after object key"))?;
                    let (val, r) = Value::parse(r)?;
                    fields.push((key, val));
                    let r = r.trim_start();
                    if let Some(r2) = r.strip_prefix(',') {
                        rest = r2.trim_start();
                    } else if let Some(r2) = r.strip_prefix('}') {
                        return Ok((Value::Object(fields), r2));
                    } else {
                        return Err(err("expected ',' or '}' in object"));
                    }
                }
            }
            Some(b'[') => {
                let mut rest = s[1..].trim_start();
                let mut items = Vec::new();
                if let Some(r) = rest.strip_prefix(']') {
                    return Ok((Value::Array(items), r));
                }
                loop {
                    let (val, r) = Value::parse(rest)?;
                    items.push(val);
                    let r = r.trim_start();
                    if let Some(r2) = r.strip_prefix(',') {
                        rest = r2.trim_start();
                    } else if let Some(r2) = r.strip_prefix(']') {
                        return Ok((Value::Array(items), r2));
                    } else {
                        return Err(err("expected ',' or ']' in array"));
                    }
                }
            }
            Some(b'"') => {
                let (v, r) = parse_string(s)?;
                Ok((Value::String(v), r))
            }
            Some(_) => {
                let end = s
                    .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                    .unwrap_or(s.len());
                let v = s[..end]
                    .parse::<f64>()
                    .ok()
                    // `1e999` parses as `inf`, which the encoder refuses.
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| err(format!("bad number: {:?}", &s[..end.min(24)])))?;
                Ok((Value::Number(v), &s[end..]))
            }
            None => Err(err("unexpected end of input")),
        }
    }

    fn field(&self, name: &str) -> crate::Result<&Value> {
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| err(format!("missing field `{name}`"))),
            _ => Err(err(format!("expected object while reading `{name}`"))),
        }
    }

    fn as_f64(&self) -> crate::Result<f64> {
        match self {
            Value::Number(v) => Ok(*v),
            _ => Err(err("expected number")),
        }
    }

    fn as_usize(&self) -> crate::Result<usize> {
        // Bound at 2^53: beyond that f64 loses integer exactness (and
        // `usize::MAX as f64` rounds up to 2^64, so comparing against it
        // would admit out-of-range values that saturate on cast).
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0;
        let v = self.as_f64()?;
        if v.fract() != 0.0 || !(0.0..MAX_EXACT).contains(&v) {
            return Err(err(format!("expected unsigned integer, got {v}")));
        }
        Ok(v as usize)
    }

    fn as_str(&self) -> crate::Result<&str> {
        match self {
            Value::String(v) => Ok(v),
            _ => Err(err("expected string")),
        }
    }

    fn as_f64_array(&self) -> crate::Result<Vec<f64>> {
        match self {
            Value::Array(items) => items.iter().map(Value::as_f64).collect(),
            _ => Err(err("expected array")),
        }
    }
}

fn parse_string(s: &str) -> crate::Result<(String, &str)> {
    let s = s
        .trim_start()
        .strip_prefix('"')
        .ok_or_else(|| err("expected string"))?;
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &s[i + 1..])),
            '\\' => match chars.next().map(|(_, e)| e) {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4)
                        .filter_map(|_| chars.next().map(|(_, h)| h))
                        .collect();
                    // Exactly four hex digits: `from_str_radix` alone would
                    // also take a sign (`\\u+041`).
                    if hex.len() != 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                        return Err(err(format!("bad \\u escape: {hex:?}")));
                    }
                    let code = u32::from_str_radix(&hex, 16).expect("four hex digits");
                    out.push(char::from_u32(code).ok_or_else(|| err("invalid \\u code point"))?);
                }
                other => return Err(err(format!("bad escape: {other:?}"))),
            },
            c => out.push(c),
        }
    }
    Err(err("unterminated string"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentile::PERCENTILE_GRID;

    fn sample() -> OperatorThreshold {
        OperatorThreshold {
            node: NodeId(13),
            mnemonic: "soft\"max\\\n".to_string(),
            thresholds: PercentilePair {
                abs: vec![0.0, 1e-6, 2.5e-4],
                rel: vec![3.25, 1.0 / 3.0],
            },
            mean_abs_error: 5.5e-9,
        }
    }

    #[test]
    fn threshold_roundtrips_exactly() {
        let o = sample();
        let bytes = threshold_to_json(&o);
        let back = threshold_from_json(&bytes).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn encoding_is_deterministic() {
        let o = sample();
        assert_eq!(threshold_to_json(&o), threshold_to_json(&o.clone()));
    }

    #[test]
    fn pretty_bundle_contains_each_operator() {
        let b = ThresholdBundle {
            grid: PERCENTILE_GRID.to_vec(),
            alpha: 3.0,
            operators: vec![sample()],
        };
        let text = bundle_to_json_pretty(&b);
        assert!(text.contains("\"alpha\": 3.0"));
        assert!(text.contains("\"node\":13"));
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(threshold_from_json(b"{").is_err());
        assert!(threshold_from_json(b"{}").is_err());
        assert!(threshold_from_json(b"[1,2]").is_err());
        assert!(threshold_from_json(b"{\"node\":1.5}").is_err());
        // Non-finite numbers and non-hex or short `\u` escapes are typed
        // errors, never a panic in the encoder or a silent accept.
        let good = String::from_utf8(threshold_to_json(&sample())).unwrap();
        let mae = good.replace("5.5e-9", "1e999");
        let abs = good.replace("0.00025", "-1e999");
        let plus = good.replace("soft", "\\u+041");
        let short = format!("{}\\u04", &good[..good.find("soft").unwrap()]);
        for bad in [mae, abs, plus, short] {
            assert_ne!(bad, good);
            assert!(
                matches!(
                    threshold_from_json(bad.as_bytes()),
                    Err(CalibError::Json(_))
                ),
                "{bad}"
            );
        }
        let escaped = good.replace("soft", "\\u0041");
        assert_eq!(
            threshold_from_json(escaped.as_bytes()).unwrap().mnemonic,
            "A\"max\\\n"
        );
    }
}
