//! The leg wire format: length-prefixed JSON frames inside HTTP bodies,
//! and — for the one bulk leg — sealed column runs behind them.
//!
//! Every [`ShardBackend`](crowdnet_shard::ShardBackend) leg crosses the
//! wire as one `POST /shard/<leg>` exchange. Both the request body and
//! the response body start with a **frame**: a 4-byte big-endian length
//! prefix followed by exactly that many bytes of UTF-8 JSON. The prefix
//! makes truncation detectable (a frame shorter than its header claims
//! is malformed, not silently partial) and leaves room to grow the
//! envelope without renegotiating HTTP framing.
//!
//! For the control legs (`epoch_meta`, `entity_docs`, the edge and top-k
//! legs, `shard_stats`, `submit`, `recover`) that frame is the whole
//! body. A successful `scan_partitions` reply continues after it: the
//! envelope's result lists one byte length per partition, and the rest
//! of the body is each partition's sealed runs as CRC-framed `.col`
//! bytes — [`encode_partition`]'s output, byte for byte what
//! `crowdnet_column::save` writes to `part-NNN.col` — which the client
//! decodes back into runs and hands to the router unmerged
//! ([`encode_scan_reply`] / [`decode_scan_reply`]). Documents are never
//! re-encoded as JSON for a scan, nor materialised on the client; a
//! failed scan is an ordinary error envelope with nothing after it.
//! ([`partitions_to_value`] / [`partitions_from_value`], the JSON
//! document payload this replaced, no longer have a caller on the
//! request path; they stay because the `perf-report` wire probes compile
//! against them.)
//!
//! Reply JSON is an envelope: `{"ok":true,"result":…}` on success,
//! `{"ok":false,"error":{"kind":…}}` on failure. Logical errors round-trip
//! with enough structure for the router's invariants — in particular
//! `namespace_not_found` must come back as
//! [`StoreError::NamespaceNotFound`] because the snapshot-lockstep rule
//! ("a namespace exists on every shard or none") detects absence through
//! that exact variant. Everything that fails *before* a well-formed
//! envelope arrives (TCP reset, timeout, short frame, bad JSON, bad
//! envelope shape) is a transport error, and so is a bulk payload whose
//! lengths, CRCs or runs do not check out: the client degrades the shard
//! and never surfaces a 5xx.
//!
//! Decoding is defensive end to end — arbitrary byte splits, truncations
//! and mutations of any frame must produce an error value, never a panic
//! (property-tested in `tests/proptest_wire.rs`).

use crowdnet_json::{obj, Value};
use crowdnet_shard::column::{decode_partition, encode_partition, ColumnRun};
use crowdnet_shard::{EpochMeta, ShardError, WriteAck, WriteOp};
use crowdnet_store::store::NamespaceStats;
use crowdnet_store::{Document, StoreError};
use std::sync::Arc;

/// Frame length prefix, bytes.
pub const FRAME_HEADER_BYTES: usize = 4;

/// Hard cap on one frame's JSON payload, and on the column bytes behind
/// a bulk reply's envelope. Scan legs ship a shard's slice of a
/// namespace, so this is generous; anything larger is a protocol
/// violation, not a bigger buffer.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Cap on an HTTP response head the client will buffer.
pub const MAX_RESPONSE_HEAD_BYTES: usize = 32 * 1024;

/// Encode a JSON value as one wire frame.
pub fn encode_frame(value: &Value) -> Vec<u8> {
    let json = value.to_compact().into_bytes();
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + json.len());
    out.extend_from_slice(&(json.len() as u32).to_be_bytes());
    out.extend_from_slice(&json);
    out
}

/// Decode one complete frame. The buffer must contain exactly the frame:
/// header, payload, nothing else. Every failure is a message, no panics.
pub fn decode_frame(bytes: &[u8]) -> Result<Value, String> {
    match split_frame(bytes)? {
        (value, []) => Ok(value),
        (_, tail) => Err(format!("{} byte(s) after the frame's declared payload", tail.len())),
    }
}

/// Decode the frame `bytes` starts with and return what follows it: the
/// read side of a bulk reply, whose payload sits behind its envelope.
pub fn split_frame(bytes: &[u8]) -> Result<(Value, &[u8]), String> {
    let header: [u8; FRAME_HEADER_BYTES] = bytes
        .get(..FRAME_HEADER_BYTES)
        .and_then(|h| h.try_into().ok())
        .ok_or_else(|| format!("frame shorter than its {FRAME_HEADER_BYTES}-byte header"))?;
    let declared = u32::from_be_bytes(header) as usize;
    if declared > MAX_FRAME_BYTES {
        return Err(format!("frame declares {declared} bytes (cap {MAX_FRAME_BYTES})"));
    }
    let rest = bytes.get(FRAME_HEADER_BYTES..).unwrap_or_default();
    let (payload, tail) = rest.split_at_checked(declared).ok_or_else(|| {
        format!("frame declares {declared} payload bytes but carries {}", rest.len())
    })?;
    let text = std::str::from_utf8(payload).map_err(|_| "frame payload is not utf-8".to_string())?;
    let value = Value::parse(text).map_err(|e| format!("frame payload is not json: {e}"))?;
    Ok((value, tail))
}

// ---- reply envelope ---------------------------------------------------

/// Wrap a successful leg result.
pub fn ok_envelope(result: Value) -> Value {
    obj! {"ok" => true, "result" => result}
}

/// Wrap a leg failure.
pub fn err_envelope(error: &ShardError) -> Value {
    obj! {"ok" => false, "error" => error_to_value(error)}
}

/// Unwrap a reply envelope into the leg's result or its logical error.
/// A malformed envelope is a *transport* failure ([`ShardError::Protocol`]).
pub fn open_envelope(envelope: Value) -> Result<Value, ShardError> {
    match envelope.get("ok").and_then(Value::as_bool) {
        Some(true) => match envelope.get("result") {
            Some(r) => Ok(r.clone()),
            None => Err(ShardError::Protocol("ok envelope without result".into())),
        },
        Some(false) => match envelope.get("error") {
            Some(e) => Err(error_from_value(e)),
            None => Err(ShardError::Protocol("error envelope without error".into())),
        },
        None => Err(ShardError::Protocol("envelope without ok flag".into())),
    }
}

/// Serialize a leg failure. Only the variants the router's merge logic
/// dispatches on keep structure; the rest collapse to their message.
fn error_to_value(e: &ShardError) -> Value {
    match e {
        ShardError::Store(StoreError::NamespaceNotFound(ns)) => {
            obj! {"kind" => "namespace_not_found", "namespace" => ns.as_str()}
        }
        ShardError::Store(StoreError::SnapshotNotFound { namespace, snapshot }) => {
            obj! {
                "kind" => "snapshot_not_found",
                "namespace" => namespace.as_str(),
                "snapshot" => u64::from(*snapshot),
            }
        }
        ShardError::Protocol(message) => {
            obj! {"kind" => "protocol", "message" => message.as_str()}
        }
        other => obj! {"kind" => "other", "message" => other.to_string()},
    }
}

/// Deserialize a leg failure. Unknown kinds come back as opaque
/// non-transport errors — a *logical* failure on the far side must stay
/// logical here, or the router would mask data errors as degradation.
fn error_from_value(v: &Value) -> ShardError {
    let kind = v.get("kind").and_then(Value::as_str).unwrap_or("other");
    match kind {
        "namespace_not_found" => {
            let ns = v
                .get("namespace")
                .and_then(Value::as_str)
                .unwrap_or_default();
            ShardError::Store(StoreError::NamespaceNotFound(ns.to_string()))
        }
        "snapshot_not_found" => ShardError::Store(StoreError::SnapshotNotFound {
            namespace: v
                .get("namespace")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            snapshot: v.get("snapshot").and_then(Value::as_u64).unwrap_or(0) as u32,
        }),
        // The far side rejected our *frame* — that is a transport fault
        // (degrade the shard), not a data error to surface to the client.
        "protocol" => ShardError::Protocol(
            v.get("message")
                .and_then(Value::as_str)
                .unwrap_or("remote protocol error")
                .to_string(),
        ),
        _ => {
            let message = v
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("unknown remote error");
            ShardError::Store(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::Other,
                format!("remote shard: {message}"),
            )))
        }
    }
}

// ---- leg payload codecs ----------------------------------------------

/// `{key, body}`.
pub fn document_to_value(doc: &Document) -> Value {
    obj! {"key" => doc.key.as_str(), "body" => doc.body.clone()}
}

/// Inverse of [`document_to_value`].
pub fn document_from_value(v: &Value) -> Result<Document, String> {
    let key = v
        .get("key")
        .and_then(Value::as_str)
        .ok_or("document without key")?;
    let body = v.get("body").ok_or("document without body")?;
    Ok(Document::new(key, body.clone()))
}

/// The whole body of a successful `scan_partitions` reply: an ok envelope
/// whose result lists each partition's byte length, then the partitions
/// themselves, each as [`encode_partition`] of its runs (an empty
/// partition is zero bytes). `parts` is `[partition][run]` in seal order.
pub fn encode_scan_reply(parts: &[Vec<Arc<ColumnRun>>]) -> Vec<u8> {
    let payloads: Vec<Vec<u8>> = parts.iter().map(|runs| encode_partition(runs)).collect();
    let lengths = Value::Arr(payloads.iter().map(|p| Value::from(p.len())).collect());
    let mut body = encode_frame(&ok_envelope(obj! {"partition_bytes" => lengths}));
    for payload in &payloads {
        body.extend_from_slice(payload);
    }
    body
}

/// Inverse of [`encode_scan_reply`], from the opened envelope's `result`
/// and the bytes that followed the envelope frame: slice the tail by the
/// declared lengths (which must account for every byte) and check each
/// partition's frames and runs. The runs come back as they were sealed,
/// `[partition][run]`; merging them is the router's business. Any
/// mismatch is a message for [`ShardError::Protocol`]; there is no
/// partial result.
pub fn decode_scan_reply(
    result: &Value,
    tail: &[u8],
) -> Result<Vec<Vec<Arc<ColumnRun>>>, String> {
    let lengths = result
        .get("partition_bytes")
        .and_then(Value::as_arr)
        .ok_or("scan reply without partition_bytes")?;
    let mut parts = Vec::with_capacity(lengths.len());
    let mut rest = tail;
    for (p, length) in lengths.iter().enumerate() {
        let length = length
            .as_u64()
            .ok_or_else(|| format!("partition {p} length is not a number"))?;
        let length = usize::try_from(length)
            .ok()
            .filter(|n| *n <= MAX_FRAME_BYTES)
            .ok_or_else(|| format!("partition {p} declares {length} bytes (cap {MAX_FRAME_BYTES})"))?;
        let (payload, after) = rest.split_at_checked(length).ok_or_else(|| {
            format!("partition {p} declares {length} bytes but {} remain", rest.len())
        })?;
        parts.push(decode_partition(payload).map_err(|e| format!("partition {p}: {e}"))?);
        rest = after;
    }
    if !rest.is_empty() {
        return Err(format!("{} byte(s) after the last declared partition", rest.len()));
    }
    Ok(parts)
}

/// Partition-ordered document slices → `[[doc, …], …]`.
pub fn partitions_to_value(parts: &[Vec<Document>]) -> Value {
    Value::Arr(
        parts
            .iter()
            .map(|docs| Value::Arr(docs.iter().map(document_to_value).collect()))
            .collect(),
    )
}

/// Inverse of [`partitions_to_value`].
pub fn partitions_from_value(v: &Value) -> Result<Vec<Vec<Document>>, String> {
    v.as_arr()
        .ok_or("partitions is not an array")?
        .iter()
        .map(|part| {
            part.as_arr()
                .ok_or_else(|| "partition is not an array".to_string())?
                .iter()
                .map(document_from_value)
                .collect()
        })
        .collect()
}

/// [`EpochMeta`] → flat object.
pub fn meta_to_value(m: &EpochMeta) -> Value {
    obj! {
        "index" => m.index,
        "version" => m.version,
        "partitions" => m.partitions,
        "investors" => m.investors,
        "companies" => m.companies,
        "entities" => m.entities,
    }
}

/// Inverse of [`meta_to_value`].
pub fn meta_from_value(v: &Value) -> Result<EpochMeta, String> {
    let field = |name: &str| -> Result<u64, String> {
        v.get(name)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("epoch meta missing {name}"))
    };
    Ok(EpochMeta {
        index: field("index")? as usize,
        version: field("version")?,
        partitions: field("partitions")? as usize,
        investors: field("investors")? as usize,
        companies: field("companies")? as usize,
        entities: field("entities")? as usize,
    })
}

/// Per-namespace stats → `[{namespace, documents, encoded_bytes, snapshots}, …]`.
pub fn stats_to_value(stats: &[NamespaceStats]) -> Value {
    Value::Arr(
        stats
            .iter()
            .map(|s| {
                obj! {
                    "namespace" => s.namespace.as_str(),
                    "documents" => s.documents,
                    "encoded_bytes" => s.encoded_bytes,
                    "snapshots" => s.snapshots,
                }
            })
            .collect(),
    )
}

/// Inverse of [`stats_to_value`].
pub fn stats_from_value(v: &Value) -> Result<Vec<NamespaceStats>, String> {
    v.as_arr()
        .ok_or("stats is not an array")?
        .iter()
        .map(|s| {
            let namespace = s
                .get("namespace")
                .and_then(Value::as_str)
                .ok_or("stats entry without namespace")?;
            let num = |name: &str| -> Result<usize, String> {
                s.get(name)
                    .and_then(Value::as_u64)
                    .map(|n| n as usize)
                    .ok_or_else(|| format!("stats entry missing {name}"))
            };
            Ok(NamespaceStats {
                namespace: namespace.to_string(),
                documents: num("documents")?,
                encoded_bytes: num("encoded_bytes")?,
                snapshots: num("snapshots")?,
            })
        })
        .collect()
}

/// [`WriteOp`] → tagged object.
pub fn write_op_to_value(op: &WriteOp) -> Value {
    match op {
        WriteOp::Put { ns, doc } => {
            obj! {"op" => "put", "ns" => ns.as_str(), "doc" => document_to_value(doc)}
        }
        WriteOp::NewSnapshot { ns } => obj! {"op" => "new_snapshot", "ns" => ns.as_str()},
        WriteOp::EnsureNamespace { ns } => obj! {"op" => "ensure_namespace", "ns" => ns.as_str()},
    }
}

/// Inverse of [`write_op_to_value`].
pub fn write_op_from_value(v: &Value) -> Result<WriteOp, String> {
    let op = v.get("op").and_then(Value::as_str).ok_or("write without op tag")?;
    let ns = v
        .get("ns")
        .and_then(Value::as_str)
        .ok_or("write without ns")?
        .to_string();
    match op {
        "put" => {
            let doc = document_from_value(v.get("doc").ok_or("put without doc")?)?;
            Ok(WriteOp::Put { ns, doc })
        }
        "new_snapshot" => Ok(WriteOp::NewSnapshot { ns }),
        "ensure_namespace" => Ok(WriteOp::EnsureNamespace { ns }),
        other => Err(format!("unknown write op: {other:?}")),
    }
}

/// [`WriteAck`] → `{snapshot, created}`.
pub fn ack_to_value(ack: &WriteAck) -> Value {
    obj! {"snapshot" => u64::from(ack.snapshot), "created" => ack.created}
}

/// Inverse of [`ack_to_value`].
pub fn ack_from_value(v: &Value) -> Result<WriteAck, String> {
    Ok(WriteAck {
        snapshot: v
            .get("snapshot")
            .and_then(Value::as_u64)
            .ok_or("ack without snapshot")? as u32,
        created: v
            .get("created")
            .and_then(Value::as_bool)
            .ok_or("ack without created")?,
    })
}

/// Shard-local degree ranking → `[[id, score], …]`.
pub fn ranked_to_value(ranked: &[(u32, f64)]) -> Value {
    Value::Arr(
        ranked
            .iter()
            .map(|&(id, score)| {
                Value::Arr(vec![Value::from(u64::from(id)), Value::from(score)])
            })
            .collect(),
    )
}

/// Inverse of [`ranked_to_value`].
pub fn ranked_from_value(v: &Value) -> Result<Vec<(u32, f64)>, String> {
    v.as_arr()
        .ok_or("ranking is not an array")?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().ok_or("ranking entry is not a pair")?;
            let id = pair
                .first()
                .and_then(Value::as_u64)
                .ok_or("ranking entry without id")?;
            let score = pair
                .get(1)
                .and_then(Value::as_f64)
                .ok_or("ranking entry without score")?;
            Ok((id as u32, score))
        })
        .collect()
}

/// Per-key lookup results → `[null | {"doc": body}, …]`. The wrapper
/// object keeps "key absent on this shard" (`null`) distinct from "key
/// present with a null body".
pub fn docs_to_value(docs: &[Option<Value>]) -> Value {
    Value::Arr(
        docs.iter()
            .map(|d| match d {
                None => Value::Null,
                Some(body) => obj! {"doc" => body.clone()},
            })
            .collect(),
    )
}

/// Inverse of [`docs_to_value`].
pub fn docs_from_value(v: &Value) -> Result<Vec<Option<Value>>, String> {
    v.as_arr()
        .ok_or("docs is not an array")?
        .iter()
        .map(|d| match d {
            Value::Null => Ok(None),
            _ => d
                .get("doc")
                .cloned()
                .map(Some)
                .ok_or_else(|| "doc entry without doc field".to_string()),
        })
        .collect()
}

/// Optional edge list → `null` (not on this shard) or `[id, …]`.
pub fn edges_to_value(edges: &Option<Vec<u32>>) -> Value {
    match edges {
        None => Value::Null,
        Some(ids) => Value::Arr(ids.iter().map(|&i| Value::from(u64::from(i))).collect()),
    }
}

/// Inverse of [`edges_to_value`].
pub fn edges_from_value(v: &Value) -> Result<Option<Vec<u32>>, String> {
    match v {
        Value::Null => Ok(None),
        _ => v
            .as_arr()
            .ok_or("edges is neither null nor an array".to_string())?
            .iter()
            .map(|id| {
                id.as_u64()
                    .map(|i| i as u32)
                    .ok_or_else(|| "edge id is not a number".to_string())
            })
            .collect::<Result<Vec<u32>, String>>()
            .map(Some),
    }
}

// ---- client-side HTTP response parsing --------------------------------

/// One parsed HTTP response off a leg connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResponse {
    /// Status code from the status line.
    pub status: u16,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
    /// Whether the server announced the connection stays open
    /// (`Connection: keep-alive`) — pool it only then.
    pub keep_alive: bool,
}

/// Incremental HTTP/1.1 *response* parser for the client side of a leg:
/// status line, headers, `Content-Length`-framed body. As defensive as
/// the serve crate's request parser — bounded head, bounded body, every
/// malformation an error value. Bytes beyond the first response stay
/// buffered (keep-alive reuse).
#[derive(Debug, Default)]
pub struct ResponseParser {
    buf: Vec<u8>,
}

impl ResponseParser {
    /// Fresh parser with an empty buffer.
    pub fn new() -> ResponseParser {
        ResponseParser::default()
    }

    /// Append newly-read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Try to parse one complete response from everything fed so far.
    /// `Ok(None)` means "incomplete — feed more"; errors are terminal for
    /// the connection.
    pub fn poll(&mut self) -> Result<Option<WireResponse>, String> {
        let head_end = match find_blank_line(&self.buf) {
            Some(e) => e,
            None if self.buf.len() > MAX_RESPONSE_HEAD_BYTES => {
                return Err("response head too large".into())
            }
            None => return Ok(None),
        };
        if head_end.head_len > MAX_RESPONSE_HEAD_BYTES {
            return Err("response head too large".into());
        }
        let head = std::str::from_utf8(self.buf.get(..head_end.head_len).unwrap_or_default())
            .map_err(|_| "response head is not utf-8".to_string())?;
        let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
        let status_line = lines.next().ok_or("empty response head")?;
        let status = parse_status_line(status_line)?;
        let mut content_length: Option<usize> = None;
        let mut keep_alive = false;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| format!("response header without colon: {line:?}"))?;
            if name.eq_ignore_ascii_case("content-length") {
                let n = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad content-length: {value:?}"))?;
                content_length = Some(n);
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value
                    .split(',')
                    .any(|t| t.trim().eq_ignore_ascii_case("keep-alive"));
            }
        }
        let content_length = content_length.ok_or("response without content-length")?;
        if content_length > MAX_FRAME_BYTES + FRAME_HEADER_BYTES {
            return Err(format!("response body of {content_length} bytes exceeds the frame cap"));
        }
        let total = head_end.body_start + content_length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self
            .buf
            .get(head_end.body_start..total)
            .unwrap_or_default()
            .to_vec();
        self.buf.drain(..total);
        Ok(Some(WireResponse {
            status,
            body,
            keep_alive,
        }))
    }
}

struct BlankLine {
    head_len: usize,
    body_start: usize,
}

/// Find the blank line ending the head; accepts `\r\n\r\n` and bare-`\n`
/// variants, mirroring the request parser.
fn find_blank_line(buf: &[u8]) -> Option<BlankLine> {
    let mut i = 0;
    while i < buf.len() {
        if buf.get(i) != Some(&b'\n') {
            i += 1;
            continue;
        }
        if buf.get(i + 1) == Some(&b'\n') {
            return Some(BlankLine {
                head_len: i,
                body_start: i + 2,
            });
        }
        if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
            return Some(BlankLine {
                head_len: i,
                body_start: i + 3,
            });
        }
        i += 1;
    }
    None
}

fn parse_status_line(line: &str) -> Result<u16, String> {
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let version = parts.next().ok_or("empty status line")?;
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(format!("unsupported response version: {version:?}"));
    }
    let code = parts
        .next()
        .ok_or_else(|| format!("status line without code: {line:?}"))?;
    code.parse::<u16>()
        .map_err(|_| format!("bad status code: {code:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let v = obj! {"ok" => true, "result" => obj! {"n" => 42u64}};
        let frame = encode_frame(&v);
        assert_eq!(decode_frame(&frame).unwrap(), v);
    }

    #[test]
    fn truncated_and_padded_frames_are_errors() {
        let frame = encode_frame(&obj! {"a" => 1u64});
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
        let mut padded = frame.clone();
        padded.push(b'x');
        assert!(decode_frame(&padded).is_err());
    }

    #[test]
    fn oversized_declared_length_is_rejected() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(u32::MAX).to_be_bytes());
        frame.extend_from_slice(b"{}");
        let e = decode_frame(&frame).unwrap_err();
        assert!(e.contains("cap"), "{e}");
    }

    #[test]
    fn envelope_round_trips_results_and_errors() {
        let ok = open_envelope(ok_envelope(Value::from(7u64))).unwrap();
        assert_eq!(ok, Value::from(7u64));
        let err = ShardError::Store(StoreError::NamespaceNotFound("ghost".into()));
        match open_envelope(err_envelope(&err)) {
            Err(ShardError::Store(StoreError::NamespaceNotFound(ns))) => assert_eq!(ns, "ghost"),
            other => panic!("lost the namespace_not_found structure: {other:?}"),
        }
        let opaque = ShardError::NoSuchShard(3);
        match open_envelope(err_envelope(&opaque)) {
            Err(e) => assert!(!e.is_transport(), "logical error became transport: {e}"),
            Ok(v) => panic!("error envelope decoded as ok: {v:?}"),
        }
    }

    #[test]
    fn write_ops_and_acks_round_trip() {
        for op in [
            WriteOp::Put {
                ns: "angellist/users".into(),
                doc: Document::new("user:7", obj! {"id" => 7u64}),
            },
            WriteOp::NewSnapshot { ns: "journal/daily".into() },
            WriteOp::EnsureNamespace { ns: "journal/daily".into() },
        ] {
            let rt = write_op_from_value(&write_op_to_value(&op)).unwrap();
            assert_eq!(rt, op);
        }
        let ack = WriteAck { snapshot: 3, created: true };
        assert_eq!(ack_from_value(&ack_to_value(&ack)).unwrap(), ack);
    }

    #[test]
    fn leg_payloads_round_trip() {
        let meta = EpochMeta {
            index: 2,
            version: 9,
            partitions: 4,
            investors: 10,
            companies: 5,
            entities: 15,
        };
        assert_eq!(meta_from_value(&meta_to_value(&meta)).unwrap(), meta);

        let parts = vec![
            vec![Document::new("a", obj! {"x" => 1u64})],
            vec![],
            vec![Document::new("b", Value::Null), Document::new("c", obj! {})],
        ];
        assert_eq!(partitions_from_value(&partitions_to_value(&parts)).unwrap(), parts);

        let stats = vec![NamespaceStats {
            namespace: "angellist/users".into(),
            documents: 12,
            encoded_bytes: 340,
            snapshots: 2,
        }];
        assert_eq!(stats_from_value(&stats_to_value(&stats)).unwrap(), stats);

        let ranked = vec![(7u32, 3.0f64), (2, 1.0)];
        assert_eq!(ranked_from_value(&ranked_to_value(&ranked)).unwrap(), ranked);

        for edges in [None, Some(vec![]), Some(vec![4u32, 1])] {
            assert_eq!(edges_from_value(&edges_to_value(&edges)).unwrap(), edges);
        }

        // A present-but-null body must not collapse into "absent".
        let docs = vec![None, Some(Value::Null), Some(obj! {"id" => 3u64})];
        assert_eq!(docs_from_value(&docs_to_value(&docs)).unwrap(), docs);
    }

    #[test]
    fn response_parser_handles_split_reads_and_reuse() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhelloHTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok";
        let mut p = ResponseParser::new();
        for chunk in wire.chunks(7) {
            p.feed(chunk);
        }
        let first = p.poll().unwrap().unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, b"hello");
        assert!(first.keep_alive);
        let second = p.poll().unwrap().unwrap();
        assert_eq!(second.body, b"ok");
        assert!(!second.keep_alive);
        assert_eq!(p.poll().unwrap(), None);
    }

    #[test]
    fn malformed_responses_are_errors_not_panics() {
        for wire in [
            &b"NOT HTTP\r\n\r\n"[..],
            b"HTTP/1.1\r\n\r\n",
            b"HTTP/1.1 abc OK\r\n\r\n",
            b"HTTP/2 200 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nno-colon\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: nope\r\n\r\n",
            b"HTTP/1.1 200 OK\r\n\r\n", // no content-length at all
        ] {
            let mut p = ResponseParser::new();
            p.feed(wire);
            assert!(p.poll().is_err(), "accepted: {:?}", String::from_utf8_lossy(wire));
        }
    }

    #[test]
    fn oversized_response_head_is_an_error() {
        let mut p = ResponseParser::new();
        p.feed(&vec![b'a'; MAX_RESPONSE_HEAD_BYTES + 10]);
        assert!(p.poll().is_err());
    }
}
