//! Document envelope: key + JSON body, with a line-oriented wire encoding.

use crate::error::StoreError;
use crowdnet_json::{obj, Value};

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

    /// Encode as a single JSON line (the partition file format).
    pub fn encode(&self) -> String {
        obj! { "k" => self.key.as_str(), "b" => self.body.clone() }.to_compact()
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
    use crowdnet_json::arr;

    #[test]
    fn encode_decode_roundtrip() {
        let d = Document::new("company:7", obj! {"name" => "Acme", "tags" => arr![1, 2]});
        let line = d.encode();
        assert!(!line.contains('\n'));
        let back = Document::decode(&line, "ns", 0).unwrap();
        assert_eq!(back, d);
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
