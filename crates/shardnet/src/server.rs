//! The shard-server request handler: [`LocalShard`] legs exposed over
//! the crowdnet-serve front end.
//!
//! [`ShardServer`] plugs into [`Server::with_handler`] exactly like the
//! single-store `Service`, so the out-of-process tier inherits the front
//! end's admission control, deadlines, read timeouts and bounded
//! keep-alive for free. Every leg is `POST /shard/<leg>` with a wire
//! frame (see [`wire`](crate::wire)) in both directions; the bulk
//! `scan_partitions` reply carries the epoch's sealed column runs behind
//! its frame instead of documents inside it.
//!
//! Leg calls always answer HTTP 200 — logical failures travel inside the
//! `{"ok":false,…}` envelope so the client can tell "the shard ran the
//! leg and it failed" (propagate) from "the exchange itself broke"
//! (degrade). Only non-leg conditions use HTTP statuses: unknown paths
//! 404, wrong method 405. A malformed frame is counted
//! (`shardnet.frames.malformed`), never silently dropped, and answered
//! with a `protocol`-kind envelope that decodes as a transport fault on
//! the far side.

use std::sync::Arc;

use crowdnet_json::{obj, Value};
use crowdnet_serve::http::{Request, Response};
use crowdnet_serve::server::RequestHandler;
use crowdnet_shard::{LocalShard, ShardBackend, ShardError};
use crowdnet_store::SnapshotId;
use crowdnet_telemetry::{Counter, Telemetry};

use crate::wire;

/// Request handler serving one shard's legs over the wire protocol.
pub struct ShardServer {
    shard: Arc<LocalShard>,
    requests: Counter,
    errors: Counter,
    malformed: Counter,
}

impl ShardServer {
    /// Wrap a local shard for serving.
    pub fn new(shard: Arc<LocalShard>, telemetry: &Telemetry) -> ShardServer {
        ShardServer {
            shard,
            requests: telemetry.counter("shardnet.server.requests"),
            errors: telemetry.counter("shardnet.server.errors"),
            malformed: telemetry.counter("shardnet.frames.malformed"),
        }
    }

    /// The shard behind this server (tests use it to cross-check state).
    pub fn shard(&self) -> &Arc<LocalShard> {
        &self.shard
    }

    /// Decode the request frame, run the leg, build the reply body. All
    /// failure routes produce an envelope; nothing here may panic.
    fn run_leg(&self, leg: &str, body: &[u8]) -> Vec<u8> {
        let params = match wire::decode_frame(body) {
            Ok(v) => v,
            Err(e) => {
                self.malformed.inc();
                self.errors.inc();
                return wire::encode_frame(&wire::err_envelope(&ShardError::Protocol(format!(
                    "malformed request frame: {e}"
                ))));
            }
        };
        let reply = match leg {
            "scan_partitions" => self.scan_reply(&params),
            _ => self
                .dispatch(leg, &params)
                .map(|result| wire::encode_frame(&wire::ok_envelope(result))),
        };
        reply.unwrap_or_else(|e| {
            self.errors.inc();
            if matches!(e, ShardError::Protocol(_)) {
                self.malformed.inc();
            }
            wire::encode_frame(&wire::err_envelope(&e))
        })
    }

    /// The bulk leg: the current epoch's sealed runs for the snapshot,
    /// shipped as they are — no document is decoded on this side.
    fn scan_reply(&self, params: &Value) -> Result<Vec<u8>, ShardError> {
        let ns = str_param(params, "ns")?;
        let snapshot = u64_param(params, "snapshot")? as u32;
        let epoch = self.shard.epoch()?;
        Ok(wire::encode_scan_reply(epoch.columns.scan_runs(ns, SnapshotId(snapshot))?))
    }

    /// Route one control leg name to the backend call it names.
    fn dispatch(&self, leg: &str, params: &Value) -> Result<Value, ShardError> {
        let backend: &dyn ShardBackend = self.shard.as_ref();
        match leg {
            "epoch_meta" => Ok(wire::meta_to_value(&backend.epoch_meta()?)),
            "entity_docs" => {
                let keys = params
                    .get("keys")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| bad_params("entity_docs needs keys: [string]"))?
                    .iter()
                    .map(|k| {
                        k.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| bad_params("entity key is not a string"))
                    })
                    .collect::<Result<Vec<String>, ShardError>>()?;
                Ok(wire::docs_to_value(&backend.entity_docs(&keys)?))
            }
            "investor_edges" => {
                let id = u64_param(params, "id")? as u32;
                Ok(wire::edges_to_value(&backend.investor_edges(id)?))
            }
            "company_edges" => {
                let id = u64_param(params, "id")? as u32;
                Ok(wire::edges_to_value(&backend.company_edges(id)?))
            }
            "top_k_prefix" => {
                let k = u64_param(params, "k")? as usize;
                Ok(wire::ranked_to_value(&backend.top_k_prefix(k)?))
            }
            "shard_stats" => Ok(wire::stats_to_value(&backend.shard_stats()?)),
            "submit" => {
                let op = wire::write_op_from_value(params).map_err(|e| bad_params(&e))?;
                Ok(wire::ack_to_value(&backend.submit(&op)?))
            }
            "recover" => {
                backend.recover()?;
                Ok(Value::Null)
            }
            other => Err(bad_params(&format!("unknown leg: {other:?}"))),
        }
    }
}

/// A request that parsed as JSON but doesn't fit the leg's schema.
fn bad_params(msg: &str) -> ShardError {
    ShardError::Protocol(msg.to_string())
}

fn str_param<'a>(params: &'a Value, name: &str) -> Result<&'a str, ShardError> {
    params
        .get(name)
        .and_then(Value::as_str)
        .ok_or_else(|| bad_params(&format!("leg params missing string {name:?}")))
}

fn u64_param(params: &Value, name: &str) -> Result<u64, ShardError> {
    params
        .get(name)
        .and_then(Value::as_u64)
        .ok_or_else(|| bad_params(&format!("leg params missing number {name:?}")))
}

impl RequestHandler for ShardServer {
    fn handle(&self, req: &Request) -> Response {
        self.requests.inc();
        let leg = match req.path().strip_prefix("/shard/") {
            Some(leg) if !leg.is_empty() => leg,
            _ if req.path() == "/healthz" => {
                // Plain-JSON liveness probe for supervisors and humans;
                // leg traffic never uses it.
                return Response::json(200, &obj! {"ok" => true, "shard" => self.shard.index()});
            }
            _ => {
                self.errors.inc();
                return Response::error(404, "unknown path; legs live under /shard/<leg>");
            }
        };
        if req.method != "POST" {
            self.errors.inc();
            return Response::error(405, "legs are POST-only");
        }
        Response {
            status: 200,
            headers: Vec::new(),
            body: self.run_leg(leg, &req.body),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_shard::column::merge_runs;
    use crowdnet_shard::WriteOp;
    use crowdnet_store::Document;

    fn server() -> ShardServer {
        let telemetry = Telemetry::new();
        let shard = Arc::new(LocalShard::open_memory(1, 4, &telemetry).unwrap());
        let server = ShardServer::new(shard, &telemetry);
        server
            .shard()
            .submit(&WriteOp::Put {
                ns: "angellist/users".into(),
                doc: Document::new("user:7", obj! {"id" => 7u64}),
            })
            .unwrap();
        server
    }

    /// Raw reply body of one leg call.
    fn leg_body(server: &ShardServer, leg: &str, params: Value) -> Vec<u8> {
        let mut req = Request::get(&format!("/shard/{leg}"));
        req.method = "POST".into();
        req.body = wire::encode_frame(&params);
        let resp = server.handle(&req);
        assert_eq!(resp.status, 200, "leg {leg} answered {}", resp.status);
        resp.body
    }

    fn leg(server: &ShardServer, leg: &str, params: Value) -> Value {
        wire::decode_frame(&leg_body(server, leg, params)).unwrap()
    }

    #[test]
    fn legs_round_trip_through_http() {
        let s = server();
        let meta = wire::open_envelope(leg(&s, "epoch_meta", obj! {})).unwrap();
        let meta = wire::meta_from_value(&meta).unwrap();
        assert_eq!(meta.index, 1);

        // The bulk leg: envelope frame first, column runs behind it.
        let body = leg_body(
            &s,
            "scan_partitions",
            obj! {"ns" => "angellist/users", "snapshot" => 0u64},
        );
        let (envelope, tail) = wire::split_frame(&body).unwrap();
        assert!(!tail.is_empty(), "scan reply carries no column bytes");
        let parts: Vec<_> =
            wire::decode_scan_reply(&wire::open_envelope(envelope).unwrap(), tail)
                .unwrap()
                .iter()
                .map(|runs| merge_runs(runs).unwrap())
                .collect();
        assert_eq!(
            parts,
            s.shard().store().scan_partitions("angellist/users", SnapshotId(0)).unwrap()
        );

        let docs = wire::open_envelope(leg(
            &s,
            "entity_docs",
            obj! {"keys" => Value::Arr(vec![Value::from("user:7"), Value::from("user:8")])},
        ))
        .unwrap();
        let docs = wire::docs_from_value(&docs).unwrap();
        assert!(docs[0].is_some() && docs[1].is_none());
    }

    #[test]
    fn logical_errors_travel_in_the_envelope_not_http_status() {
        let s = server();
        let envelope = leg(&s, "scan_partitions", obj! {"ns" => "ghost", "snapshot" => 0u64});
        match wire::open_envelope(envelope) {
            Err(e) => assert!(!e.is_transport(), "namespace miss became transport: {e}"),
            Ok(v) => panic!("missing namespace answered ok: {v:?}"),
        }
    }

    #[test]
    fn scan_errors_keep_their_variant_and_empty_snapshots_answer_ok() {
        use crowdnet_store::StoreError;
        let s = server();
        let scan = |ns: &str, snapshot: u64| {
            let body = leg_body(&s, "scan_partitions", obj! {"ns" => ns, "snapshot" => snapshot});
            let (envelope, tail) = wire::split_frame(&body).unwrap();
            wire::open_envelope(envelope)
                .map(|result| wire::decode_scan_reply(&result, tail).unwrap())
        };
        match scan("ghost", 0) {
            Err(ShardError::Store(StoreError::NamespaceNotFound(ns))) => assert_eq!(ns, "ghost"),
            other => panic!("unknown namespace answered {other:?}"),
        }
        match scan("angellist/users", 3) {
            Err(ShardError::Store(StoreError::SnapshotNotFound { snapshot: 3, .. })) => {}
            other => panic!("unknown snapshot answered {other:?}"),
        }
        // Rolled but never written: present, empty, and not an error.
        s.shard()
            .submit(&WriteOp::NewSnapshot { ns: "angellist/users".into() })
            .unwrap();
        let empty = scan("angellist/users", 1).unwrap();
        assert_eq!(empty.len(), 4);
        assert!(empty.iter().all(Vec::is_empty), "{empty:?}");
    }

    #[test]
    fn malformed_frames_are_counted_and_answered_as_protocol_errors() {
        let telemetry = Telemetry::new();
        let shard = Arc::new(LocalShard::open_memory(0, 2, &telemetry).unwrap());
        let s = ShardServer::new(shard, &telemetry);

        let mut req = Request::get("/shard/epoch_meta");
        req.method = "POST".into();
        req.body = b"\x00\x00\x00\xffnot a frame".to_vec();
        let resp = s.handle(&req);
        assert_eq!(resp.status, 200);
        match wire::decode_frame(&resp.body).map(wire::open_envelope) {
            Ok(Err(e)) => assert!(e.is_transport(), "expected protocol fault, got {e}"),
            other => panic!("malformed frame answered {other:?}"),
        }
        let counters = telemetry.registry().counter_values();
        let count = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(count("shardnet.frames.malformed"), 1);
        assert_eq!(count("shardnet.server.errors"), 1);
    }

    #[test]
    fn unknown_paths_and_methods_use_http_statuses() {
        let s = server();
        assert_eq!(s.handle(&Request::get("/nope")).status, 404);
        assert_eq!(s.handle(&Request::get("/shard/epoch_meta")).status, 405);
        assert_eq!(s.handle(&Request::get("/healthz")).status, 200);
    }
}
