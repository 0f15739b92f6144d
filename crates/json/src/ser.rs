//! JSON serializers: compact (storage/wire format) and pretty (debugging,
//! result files).

use crate::value::Value;

/// Serialize with no whitespace. One document per line is the `crowdnet-store`
/// on-disk format, so the output never contains raw newlines (they are escaped
/// inside strings).
pub fn to_compact(value: &Value) -> String {
    let mut out = String::with_capacity(estimate(value));
    write_value(value, &mut out);
    out
}

/// Append the compact form of `value` to `out` — exactly what
/// [`to_compact`] returns — for callers that frame a value inside a larger
/// compact document without first building that document as a [`Value`].
pub fn write_compact(value: &Value, out: &mut String) {
    write_value(value, out);
}

/// Append `s` as a JSON string literal, escaped as [`to_compact`] escapes it.
pub fn write_compact_str(s: &str, out: &mut String) {
    write_string(s, out);
}

/// A capacity hint for the compact form of `value`.
pub fn size_hint(value: &Value) -> usize {
    estimate(value)
}

/// Serialize with two-space indentation and `": "` / `",\n"` separators.
pub fn to_pretty(value: &Value) -> String {
    let mut out = String::with_capacity(estimate(value) * 2);
    write_pretty(value, &mut out, 0);
    out
}

/// Rough output-size estimate to pre-size the buffer (perf guide: avoid
/// repeated reallocation on hot serialization paths).
fn estimate(value: &Value) -> usize {
    match value {
        Value::Null => 4,
        Value::Bool(_) => 5,
        Value::Num(_) => 12,
        Value::Str(s) => s.len() + 2,
        Value::Arr(a) => 2 + a.iter().map(estimate).sum::<usize>() + a.len(),
        Value::Obj(o) => {
            2 + o
                .iter()
                .map(|(k, v)| k.len() + 3 + estimate(v) + 1)
                .sum::<usize>()
        }
    }
}

fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => {
            use std::fmt::Write;
            let _ = write!(out, "{n}");
        }
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(obj) => {
            out.push('{');
            for (i, (k, v)) in obj.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(value: &Value, out: &mut String, indent: usize) {
    match value {
        Value::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_pretty(item, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Obj(obj) if !obj.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in obj.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_string(k, out);
                out.push_str(": ");
                write_pretty(v, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

/// Write a JSON string literal with all required escapes.
fn write_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc: Option<&str> = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            0x08 => Some("\\b"),
            0x0C => Some("\\f"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x00..=0x1F => None, // handled below with \u00XX
            _ => continue,
        };
        out.push_str(&s[run_start..i]);
        match esc {
            Some(e) => out.push_str(e),
            None => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", b);
            }
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use crate::{arr, obj, parse, Value};

    #[test]
    fn compact_scalars() {
        assert_eq!(Value::Null.to_compact(), "null");
        assert_eq!(Value::from(true).to_compact(), "true");
        assert_eq!(Value::from(false).to_compact(), "false");
        assert_eq!(Value::from(-7i64).to_compact(), "-7");
        assert_eq!(Value::from(2.5).to_compact(), "2.5");
        assert_eq!(Value::from("x").to_compact(), "\"x\"");
    }

    #[test]
    fn compact_containers() {
        assert_eq!(arr![1, 2, 3].to_compact(), "[1,2,3]");
        assert_eq!(obj! {"a" => 1, "b" => arr![]}.to_compact(), r#"{"a":1,"b":[]}"#);
    }

    #[test]
    fn string_escaping() {
        assert_eq!(Value::from("a\"b").to_compact(), r#""a\"b""#);
        assert_eq!(Value::from("a\\b").to_compact(), r#""a\\b""#);
        assert_eq!(Value::from("a\nb\t").to_compact(), "\"a\\nb\\t\"");
        assert_eq!(Value::from("\u{1}").to_compact(), "\"\\u0001\"");
        // Non-ASCII stays raw UTF-8 (valid JSON, smaller output).
        assert_eq!(Value::from("é").to_compact(), "\"é\"");
    }

    #[test]
    fn compact_output_is_single_line() {
        let v = obj! {"text" => "line1\nline2", "arr" => arr![obj!{"x" => "\r"}]};
        assert!(!v.to_compact().contains('\n'));
        assert!(!v.to_compact().contains('\r'));
    }

    #[test]
    fn roundtrip_through_parser() {
        let v = obj! {
            "s" => "a\"\\\n\té😀",
            "nums" => arr![0, -1, 3.5, 1e10],
            "nested" => obj!{"deep" => arr![obj!{}, arr![], Value::Null]},
            "big" => u64::MAX,
        };
        assert_eq!(parse(&v.to_compact()).unwrap(), v);
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn pretty_format_shape() {
        let v = obj! {"a" => arr![1], "b" => obj!{}};
        let pretty = v.to_pretty();
        assert_eq!(pretty, "{\n  \"a\": [\n    1\n  ],\n  \"b\": {}\n}");
    }

    #[test]
    fn float_roundtrip_keeps_floatness() {
        let v = Value::from(3.0);
        let back = parse(&v.to_compact()).unwrap();
        assert!(matches!(back, Value::Num(crate::Number::Float(_))));
    }
}
