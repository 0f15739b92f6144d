//! Wire-protocol robustness properties: no byte sequence an adversarial
//! (or merely broken) peer can send may panic the frame codec, the
//! client-side response parser, or the shard server — and malformed
//! frames must be *counted*, never silently dropped.
//!
//! The properties deliberately feed three classes of garbage:
//! arbitrary bytes, truncations of valid frames, and single-byte
//! mutations of valid frames (which may still decode — the assertion is
//! "no panic and no misparse of the length discipline", not "always an
//! error").
//!
//! The bulk `scan_partitions` reply — an envelope frame followed by each
//! partition's CRC-framed column runs — gets the same treatment with a
//! stronger bar: the payload is checksummed, so a truncated or mutated
//! reply must be an error or decode to exactly the documents that were
//! sent, never to different ones.

use crowdnet_json::{obj, Value};
use crowdnet_serve::http::Request;
use crowdnet_serve::server::RequestHandler;
use crowdnet_shard::column::{merge_runs, ColumnRun};
use crowdnet_shard::LocalShard;
use crowdnet_shardnet::{wire, ShardServer};
use crowdnet_store::Document;
use crowdnet_telemetry::Telemetry;
use proptest::prelude::*;
use std::sync::Arc;

/// A small generator of structurally varied frame payloads.
fn payload_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(|n| Value::from(i64::from(n))),
        "[a-z0-9 ]{0,24}".prop_map(Value::from),
        proptest::collection::vec(any::<u8>().prop_map(|b| Value::from(u64::from(b))), 0..8)
            .prop_map(Value::Arr),
        ("[a-z]{1,8}", "[a-z0-9]{0,16}")
            .prop_map(|(k, v)| obj! {k.as_str() => v.as_str(), "n" => 7u64}),
    ]
}

/// One sealed run: a handful of documents over a small key pool (so runs
/// of one partition overlap in keys), in the canonical key order a seal
/// produces, duplicates within the run included.
fn run_strategy() -> impl Strategy<Value = Arc<ColumnRun>> {
    proptest::collection::vec((0u32..12, payload_strategy()), 1..8).prop_map(|rows| {
        let mut docs: Vec<Document> = rows
            .into_iter()
            .map(|(k, body)| Document::new(format!("user:{k:02}"), body))
            .collect();
        docs.sort_by(|a, b| a.key.cmp(&b.key));
        Arc::new(ColumnRun::from_docs(&docs, false))
    })
}

/// A scan leg's payload: `[partition][run]`, empty partitions included.
fn scan_strategy() -> impl Strategy<Value = Vec<Vec<Arc<ColumnRun>>>> {
    proptest::collection::vec(proptest::collection::vec(run_strategy(), 0..4), 0..5)
}

/// What the far side must reconstruct: each partition's runs merged.
fn merged(parts: &[Vec<Arc<ColumnRun>>]) -> Vec<Vec<Document>> {
    parts
        .iter()
        .map(|runs| merge_runs(runs).expect("sealed runs merge"))
        .collect()
}

/// The whole read of a bulk reply body: the client's decode into runs,
/// then the router's merge into documents.
fn decode_scan_body(body: &[u8]) -> Result<Vec<Vec<Document>>, String> {
    let (envelope, tail) = wire::split_frame(body)?;
    let result = wire::open_envelope(envelope).map_err(|e| e.to_string())?;
    wire::decode_scan_reply(&result, tail)?
        .iter()
        .map(|runs| merge_runs(runs).map_err(|e| e.to_string()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Runs survive the wire: what decodes is each partition's runs
    /// merged by `(key, run index)`, duplicates in append order.
    #[test]
    fn scan_replies_round_trip(parts in scan_strategy()) {
        let body = wire::encode_scan_reply(&parts);
        prop_assert_eq!(decode_scan_body(&body).expect("valid reply decodes"), merged(&parts));
    }

    /// Every strict truncation of a bulk reply is an error: the declared
    /// partition lengths and the run frames leave no cut that still
    /// parses, not even one that lands between two runs.
    #[test]
    fn scan_reply_truncations_are_errors(parts in scan_strategy()) {
        let body = wire::encode_scan_reply(&parts);
        for keep in 0..body.len() {
            prop_assert!(decode_scan_body(&body[..keep]).is_err(), "cut at {keep} decoded");
        }
    }

    /// A flipped byte anywhere in a bulk reply is caught (length
    /// discipline, envelope shape, frame header or CRC) or harmless —
    /// it never yields different documents.
    #[test]
    fn scan_reply_mutations_never_change_the_documents(
        parts in scan_strategy(),
        flip in 1u64..256,
    ) {
        let body = wire::encode_scan_reply(&parts);
        let want = merged(&parts);
        for pos in 0..body.len() {
            let mut mutated = body.clone();
            mutated[pos] ^= flip as u8;
            if let Ok(got) = decode_scan_body(&mutated) {
                prop_assert!(got == want, "flip at {pos} changed the documents");
            }
        }
    }

    /// A bulk reply reads the same off the socket however the bytes are
    /// split across reads.
    #[test]
    fn scan_reply_parsing_is_split_invariant(
        parts in scan_strategy(),
        chunk in 1usize..48,
    ) {
        let body = wire::encode_scan_reply(&parts);
        let mut stream = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        )
        .into_bytes();
        stream.extend_from_slice(&body);
        let mut parser = wire::ResponseParser::new();
        let mut parsed = None;
        for piece in stream.chunks(chunk) {
            parser.feed(piece);
            if let Some(r) = parser.poll().expect("parse") {
                parsed = Some(r);
                break;
            }
        }
        let parsed = parsed.expect("split parse completed");
        prop_assert_eq!(&parsed.body, &body);
        prop_assert_eq!(decode_scan_body(&parsed.body).expect("decodes"), merged(&parts));
    }

    /// Nothing past the frame cap is accepted: not as a declared
    /// partition length, not as a response body.
    #[test]
    fn oversized_bulk_replies_are_refused(over in 1usize..1 << 20, at in 0usize..4) {
        let mut lengths = vec![Value::from(0u64); 4];
        lengths[at] = Value::from(wire::MAX_FRAME_BYTES + over);
        let result = obj! {"partition_bytes" => Value::Arr(lengths)};
        let refused = wire::decode_scan_reply(&result, &[]).expect_err("oversized partition decoded");
        prop_assert!(refused.contains("cap"), "{refused}");

        let mut parser = wire::ResponseParser::new();
        parser.feed(
            format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
                wire::MAX_FRAME_BYTES + wire::FRAME_HEADER_BYTES + over
            )
            .as_bytes(),
        );
        prop_assert!(parser.poll().is_err(), "oversized body accepted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Frames survive the round trip, whatever the payload shape.
    #[test]
    fn frames_round_trip(payload in payload_strategy()) {
        let encoded = wire::encode_frame(&payload);
        let decoded = wire::decode_frame(&encoded).expect("valid frame decodes");
        prop_assert_eq!(decoded, payload);
    }

    /// Arbitrary bytes never panic the frame decoder.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = wire::decode_frame(&bytes);
    }

    /// Every strict truncation of a valid frame is an error — the length
    /// prefix makes a short read detectable, not a silent partial parse.
    #[test]
    fn truncations_are_errors_not_panics(
        payload in payload_strategy(),
        cut in 0.0f64..1.0,
    ) {
        let encoded = wire::encode_frame(&payload);
        let keep = ((encoded.len() as f64) * cut) as usize;
        prop_assume!(keep < encoded.len());
        prop_assert!(wire::decode_frame(&encoded[..keep]).is_err());
    }

    /// Flipping any single byte never panics; corrupting the header's
    /// length field specifically must be caught by the length discipline.
    #[test]
    fn single_byte_mutations_never_panic(
        payload in payload_strategy(),
        pos_unit in 0.0f64..1.0,
        flip in 1u64..256,
    ) {
        let mut encoded = wire::encode_frame(&payload);
        let pos = (((encoded.len() as f64) * pos_unit) as usize).min(encoded.len() - 1);
        encoded[pos] ^= flip as u8;
        let result = wire::decode_frame(&encoded);
        if pos < wire::FRAME_HEADER_BYTES {
            prop_assert!(result.is_err(), "corrupt length prefix decoded: {result:?}");
        }
    }

    /// The client's incremental HTTP response parser accepts any byte
    /// stream without panicking, in arbitrarily small feed chunks.
    #[test]
    fn response_parser_never_panics_on_arbitrary_streams(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        chunk in 1usize..64,
    ) {
        let mut parser = wire::ResponseParser::new();
        for piece in bytes.chunks(chunk) {
            parser.feed(piece);
            if parser.poll().is_err() {
                return Ok(()); // a detected protocol error ends the stream
            }
        }
    }

    /// A valid response parses identically no matter how the bytes are
    /// split across reads.
    #[test]
    fn response_parsing_is_split_invariant(
        payload in payload_strategy(),
        chunk in 1usize..48,
    ) {
        let body = wire::encode_frame(&payload);
        let mut stream = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        )
        .into_bytes();
        stream.extend_from_slice(&body);

        let mut whole = wire::ResponseParser::new();
        whole.feed(&stream);
        let reference = whole.poll().expect("parse").expect("complete");

        let mut split = wire::ResponseParser::new();
        let mut parsed = None;
        for piece in stream.chunks(chunk) {
            split.feed(piece);
            if let Some(r) = split.poll().expect("parse") {
                parsed = Some(r);
                break;
            }
        }
        let parsed = parsed.expect("split parse completed");
        prop_assert_eq!(parsed.status, reference.status);
        prop_assert_eq!(parsed.keep_alive, reference.keep_alive);
        prop_assert_eq!(parsed.body, reference.body);
    }

    /// The shard server answers arbitrary request bodies on every leg
    /// without panicking, and counts each malformed frame.
    #[test]
    fn shard_server_counts_malformed_frames_instead_of_panicking(
        body in proptest::collection::vec(any::<u8>(), 0..256),
        leg in prop_oneof![
            Just("epoch_meta"), Just("scan_partitions"), Just("entity_docs"),
            Just("investor_edges"), Just("company_edges"), Just("top_k_prefix"),
            Just("shard_stats"), Just("submit"), Just("recover"), Just("bogus"),
        ],
    ) {
        let telemetry = Telemetry::new();
        let shard = Arc::new(LocalShard::open_memory(0, 2, &telemetry).expect("shard"));
        let server = ShardServer::new(shard, &telemetry);

        let mut req = Request::get(&format!("/shard/{leg}"));
        req.method = "POST".into();
        req.body = body.clone();
        let response = server.handle(&req);
        prop_assert!(response.status == 200, "leg calls always answer 200, got {}", response.status);

        // The reply is itself a well-formed frame holding an envelope.
        let envelope = wire::decode_frame(&response.body).expect("reply frame");
        let opened = wire::open_envelope(envelope);
        if wire::decode_frame(&body).is_err() {
            let malformed = telemetry
                .registry()
                .counter_values()
                .into_iter()
                .find(|(name, _)| name == "shardnet.frames.malformed")
                .map(|(_, v)| v)
                .unwrap_or(0);
            prop_assert!(malformed >= 1, "malformed frame was not counted");
            prop_assert!(opened.is_err(), "malformed frame answered ok");
        }
    }
}
