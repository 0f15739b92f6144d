//! Document envelope: key + JSON body, with a line-oriented wire encoding.

use crate::error::StoreError;
use crowdnet_json::{ser, Value};

/// A stored record: a unique key within its namespace plus an arbitrary JSON
/// body. Keys follow the `"<kind>:<id>"` convention used by the crawlers
/// (`"company:1441"`, `"user:88"`, `"tw:planetaryrsrcs"`).
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// Namespace-unique key.
    pub key: String,
    /// The JSON payload exactly as crawled.
    pub body: Value,
}

impl Document {
    /// Create a document.
    pub fn new(key: impl Into<String>, body: Value) -> Self {
        Document {
            key: key.into(),
            body,
        }
    }

    /// Encode as a single JSON line (the partition file format):
    /// `{"k":<key>,"b":<body>}`, written straight through the compact
    /// serializer.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(self.key.len() + ser::size_hint(&self.body) + 16);
        out.push_str("{\"k\":");
        ser::write_compact_str(&self.key, &mut out);
        out.push_str(",\"b\":");
        ser::write_compact(&self.body, &mut out);
        out.push('}');
        out
    }

    /// Decode one partition line. `namespace`/`line` feed error reporting.
    /// Key and body are moved out of the parsed envelope, never copied:
    /// every JSON scan decodes through here.
    pub fn decode(text: &str, namespace: &str, line: usize) -> Result<Document, StoreError> {
        let mut value = Value::parse(text).map_err(|cause| StoreError::Corrupt {
            namespace: namespace.to_string(),
            line,
            cause,
        })?;
        let bad = || StoreError::BadEnvelope {
            namespace: namespace.to_string(),
            line,
        };
        let obj = value.as_obj_mut().ok_or_else(bad)?;
        let key = match obj.remove("k") {
            Some(Value::Str(key)) => key,
            _ => return Err(bad()),
        };
        let body = obj.remove("b").ok_or_else(bad)?;
        Ok(Document { key, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_json::{arr, obj};

    #[test]
    fn encode_decode_roundtrip() {
        let d = Document::new("company:7", obj! {"name" => "Acme", "tags" => arr![1, 2]});
        let line = d.encode();
        assert!(!line.contains('\n'));
        let back = Document::decode(&line, "ns", 0).unwrap();
        assert_eq!(back, d);
    }

    /// The envelope encoding `encode` replaced: build `{"k","b"}` as a
    /// value (deep-cloning the body), then serialize it. Kept as the oracle.
    fn envelope(d: &Document) -> String {
        obj! { "k" => d.key.as_str(), "b" => d.body.clone() }.to_compact()
    }

    const KEYS: [&str; 6] = [
        "",
        "company:1441",
        "weird:\n\t\"key\"\\",
        "ключ:7",
        "emoji:🚀",
        "ctl:\u{0}\u{1f}\u{7f}",
    ];

    #[test]
    fn encode_is_the_envelope_encoding_on_fixtures() {
        let mut wide = crowdnet_json::Object::new();
        for i in 0..20 {
            wide.insert(format!("f{i}"), i);
        }
        let bodies = [
            obj! {},
            Value::Null,
            arr![],
            obj! {"a" => obj! {}, "b" => arr![obj! {}, arr![], Value::Null]},
            obj! {"q" => "quote \" backslash \\ slash /", "ctl" => "\u{0}\u{1f}\n\r\t\u{8}\u{c}"},
            obj! {"ü" => "日本語 🚀", "é\"\n" => "\u{2028}\u{feff}"},
            obj! {"n" => arr![0, -1, 1.5, -0.25, 1e300, u64::MAX, i64::MIN, true, false]},
            obj! {"deep" => obj! {"a" => obj! {"b" => obj! {"c" => arr![arr![arr![obj! {"d" => "e"}]]]}}}},
            Value::from(wide),
            Value::from("a bare string"),
            Value::from(42),
        ];
        for key in KEYS {
            for body in &bodies {
                let d = Document::new(key, body.clone());
                let line = d.encode();
                assert_eq!(line, envelope(&d), "key {key:?}");
                assert!(!line.contains('\n'));
                assert_eq!(Document::decode(&line, "ns", 0).unwrap(), d);
            }
        }
    }

    #[test]
    fn encode_is_the_envelope_encoding_on_random_documents() {
        // SplitMix64: a seeded stream of nested bodies over an alphabet
        // that hits every escape class, multi-byte UTF-8 and empty
        // containers.
        struct Gen(u64);
        impl Gen {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
            fn below(&mut self, n: u64) -> u64 {
                self.next() % n
            }
            fn string(&mut self) -> String {
                const ALPHABET: [&str; 14] = [
                    "a", "Z", "0", " ", "\"", "\\", "/", "\n", "\t", "\u{1}", "é", "日", "🚀",
                    "\u{7f}",
                ];
                (0..self.below(8))
                    .map(|_| ALPHABET[self.below(14) as usize])
                    .collect()
            }
            fn value(&mut self, depth: u32) -> Value {
                match self.below(if depth == 0 { 5 } else { 7 }) {
                    0 => Value::Null,
                    1 => Value::from(self.below(2) == 1),
                    2 => Value::from(self.next() as i64 >> self.below(64)),
                    3 => Value::from((self.next() >> 11) as f64 / (1u64 << 20) as f64 - 1e9),
                    4 => Value::from(self.string()),
                    5 => {
                        let n = self.below(4);
                        Value::Arr((0..n).map(|_| self.value(depth - 1)).collect())
                    }
                    _ => {
                        let mut o = crowdnet_json::Object::new();
                        for _ in 0..self.below(4) {
                            o.insert(self.string(), self.value(depth - 1));
                        }
                        Value::from(o)
                    }
                }
            }
        }
        let mut g = Gen(7);
        for case in 0..2000 {
            let key = format!("{}:{}", KEYS[case % KEYS.len()], g.string());
            let d = Document::new(key, g.value(4));
            assert_eq!(d.encode(), envelope(&d), "case {case}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let e = Document::decode("not json", "ns", 3).unwrap_err();
        assert!(matches!(e, StoreError::Corrupt { line: 3, .. }));
    }

    #[test]
    fn decode_rejects_wrong_shape() {
        for bad in ["[1,2]", "{\"k\": 5, \"b\": 1}", "{\"k\": \"x\"}", "\"str\""] {
            let e = Document::decode(bad, "ns", 1).unwrap_err();
            assert!(matches!(e, StoreError::BadEnvelope { line: 1, .. }), "input: {bad}");
        }
    }

    #[test]
    fn keys_with_newlines_survive() {
        let d = Document::new("weird:\n\t\"key\"", obj! {"x" => 1});
        let line = d.encode();
        assert!(!line.contains('\n'));
        assert_eq!(Document::decode(&line, "ns", 0).unwrap(), d);
    }
}
