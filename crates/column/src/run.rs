//! A sealed, immutable column run: one batch of canonically key-sorted
//! documents from a single `(namespace, snapshot, partition)`, decomposed
//! into typed column streams.
//!
//! Runs are the projection's LSM-style unit of incrementality — the
//! bootstrap scan seals one run per partition, and every published ingest
//! epoch seals its pending appends as another. Readers k-way-merge a
//! partition's runs by `(key, run index)`, which reproduces exactly the
//! stable per-partition key sort [`crowdnet_store::Store::scan_partitions`]
//! performs, so decoded output is document-for-document identical to the
//! JSON path.
//!
//! ## Row model
//!
//! A document body that is a JSON object is split per top-level field:
//! each row records a **shape** (the interned sequence of its field names,
//! preserving insertion order), and each field's values land in that
//! field's [`FieldColumn`]. Non-object bodies go to a scalar column.
//! Inside a `FieldColumn` every occurrence carries a 1-byte type tag and
//! its payload lives in the matching typed stream — `i64`/`u64` varint
//! deltas, raw `f64` bits, dictionary ids for strings, flattened
//! delta-encoded `i64` lists for integer arrays, and a residual
//! compact-JSON dictionary id for anything else. The residual fallback is
//! what makes the projection total: *any* document round-trips exactly.

use crate::dict::Dict;
use crate::error::ColumnError;
use crate::varint::{get_i64, get_u64, put_i64, put_u64};
use crowdnet_json::{Number, Object, Value};
use crowdnet_store::Document;
use std::collections::HashMap;

/// Shape id marking "body is not an object; value is in the scalar column".
pub(crate) const SCALAR_SHAPE: u32 = u32::MAX;

/// Run header magic + format version (bumped on any layout change; a
/// mismatch is a rebuild, never a migration).
const MAGIC: &[u8; 4] = b"CWCR";
const FORMAT: u8 = 1;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_UINT: u8 = 4;
const TAG_FLOAT: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_JSON: u8 = 7;
const TAG_INTLIST: u8 = 8;

/// One field's typed streams. `tags` has one entry per occurrence (rows
/// whose shape includes the field), in row order; each typed stream holds
/// the payloads for its tag, also in row order.
#[derive(Debug, Default, Clone)]
pub(crate) struct FieldColumn {
    tags: Vec<u8>,
    ints: Vec<i64>,
    uints: Vec<u64>,
    floats: Vec<f64>,
    strs: Vec<u32>,
    jsons: Vec<u32>,
    list_lens: Vec<u32>,
    list_vals: Vec<i64>,
}

/// Sequential read position inside a [`FieldColumn`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Cursor {
    t: usize,
    i: usize,
    u: usize,
    f: usize,
    s: usize,
    j: usize,
    l: usize,
    lv: usize,
}

impl FieldColumn {
    /// Append one value, interning strings/residual JSON into `dict`.
    fn push_value(&mut self, v: &Value, dict: &mut Dict) {
        match v {
            Value::Null => self.tags.push(TAG_NULL),
            Value::Bool(false) => self.tags.push(TAG_FALSE),
            Value::Bool(true) => self.tags.push(TAG_TRUE),
            Value::Num(Number::Int(i)) => {
                self.tags.push(TAG_INT);
                self.ints.push(*i);
            }
            Value::Num(Number::UInt(u)) => {
                self.tags.push(TAG_UINT);
                self.uints.push(*u);
            }
            Value::Num(Number::Float(f)) => {
                self.tags.push(TAG_FLOAT);
                self.floats.push(*f);
            }
            Value::Str(s) => {
                self.tags.push(TAG_STR);
                self.strs.push(dict.intern(s));
            }
            Value::Arr(a) if a.iter().all(|e| matches!(e, Value::Num(Number::Int(_)))) => {
                self.tags.push(TAG_INTLIST);
                self.list_lens.push(a.len() as u32);
                for e in a {
                    if let Value::Num(Number::Int(i)) = e {
                        self.list_vals.push(*i);
                    }
                }
            }
            other => {
                self.tags.push(TAG_JSON);
                self.jsons.push(dict.intern(&other.to_compact()));
            }
        }
    }

    /// Decode the next occurrence at `cur`, advancing it.
    pub(crate) fn value_at(&self, cur: &mut Cursor, dict: &Dict) -> Result<Value, ColumnError> {
        let tag = *self.tags.get(cur.t).ok_or_else(|| corrupt("tag stream exhausted"))?;
        cur.t += 1;
        Ok(match tag {
            TAG_NULL => Value::Null,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_INT => {
                let v = *self.ints.get(cur.i).ok_or_else(|| corrupt("int stream exhausted"))?;
                cur.i += 1;
                Value::Num(Number::Int(v))
            }
            TAG_UINT => {
                let v = *self.uints.get(cur.u).ok_or_else(|| corrupt("uint stream exhausted"))?;
                cur.u += 1;
                Value::Num(Number::UInt(v))
            }
            TAG_FLOAT => {
                let v =
                    *self.floats.get(cur.f).ok_or_else(|| corrupt("float stream exhausted"))?;
                cur.f += 1;
                Value::Num(Number::Float(v))
            }
            TAG_STR => {
                let id = *self.strs.get(cur.s).ok_or_else(|| corrupt("str stream exhausted"))?;
                cur.s += 1;
                let s = dict.get(id).ok_or_else(|| corrupt("str dict id out of range"))?;
                Value::Str(s.to_string())
            }
            TAG_JSON => {
                let id = *self.jsons.get(cur.j).ok_or_else(|| corrupt("json stream exhausted"))?;
                cur.j += 1;
                let text = dict.get(id).ok_or_else(|| corrupt("json dict id out of range"))?;
                Value::parse(text).map_err(|e| corrupt(&format!("residual json: {e}")))?
            }
            TAG_INTLIST => {
                let len = *self
                    .list_lens
                    .get(cur.l)
                    .ok_or_else(|| corrupt("list-len stream exhausted"))? as usize;
                cur.l += 1;
                let end = cur.lv.checked_add(len).ok_or_else(|| corrupt("list length"))?;
                let vals = self
                    .list_vals
                    .get(cur.lv..end)
                    .ok_or_else(|| corrupt("list stream exhausted"))?;
                cur.lv = end;
                Value::Arr(vals.iter().map(|i| Value::Num(Number::Int(*i))).collect())
            }
            _ => return Err(corrupt("unknown value tag")),
        })
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.tags.len() as u64);
        buf.extend_from_slice(&self.tags);
        encode_i64_delta(buf, &self.ints);
        encode_u64_delta(buf, &self.uints);
        put_u64(buf, self.floats.len() as u64);
        for f in &self.floats {
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        encode_u32s(buf, &self.strs);
        encode_u32s(buf, &self.jsons);
        encode_u32s(buf, &self.list_lens);
        encode_i64_delta(buf, &self.list_vals);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<FieldColumn, ColumnError> {
        let n = get_u64(buf, pos).ok_or_else(|| corrupt("tags count"))? as usize;
        let end = pos.checked_add(n).ok_or_else(|| corrupt("tags count"))?;
        let tags = buf.get(*pos..end).ok_or_else(|| corrupt("tags bytes"))?.to_vec();
        *pos = end;
        let ints = decode_i64_delta(buf, pos)?;
        let uints = decode_u64_delta(buf, pos)?;
        let fn_ = get_u64(buf, pos).ok_or_else(|| corrupt("floats count"))? as usize;
        let mut floats = Vec::with_capacity(fn_.min(1 << 20));
        for _ in 0..fn_ {
            let end = pos.checked_add(8).ok_or_else(|| corrupt("float bytes"))?;
            let bytes = buf.get(*pos..end).ok_or_else(|| corrupt("float bytes"))?;
            let mut raw = [0u8; 8];
            raw.copy_from_slice(bytes);
            floats.push(f64::from_bits(u64::from_le_bytes(raw)));
            *pos = end;
        }
        let strs = decode_u32s(buf, pos)?;
        let jsons = decode_u32s(buf, pos)?;
        let list_lens = decode_u32s(buf, pos)?;
        let list_vals = decode_i64_delta(buf, pos)?;
        Ok(FieldColumn { tags, ints, uints, floats, strs, jsons, list_lens, list_vals })
    }
}

fn encode_i64_delta(buf: &mut Vec<u8>, vals: &[i64]) {
    put_u64(buf, vals.len() as u64);
    let mut prev = 0i64;
    for &v in vals {
        put_i64(buf, v.wrapping_sub(prev));
        prev = v;
    }
}

fn decode_i64_delta(buf: &[u8], pos: &mut usize) -> Result<Vec<i64>, ColumnError> {
    let n = get_u64(buf, pos).ok_or_else(|| corrupt("delta count"))? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    let mut prev = 0i64;
    for _ in 0..n {
        let d = get_i64(buf, pos).ok_or_else(|| corrupt("delta value"))?;
        prev = prev.wrapping_add(d);
        out.push(prev);
    }
    Ok(out)
}

fn encode_u64_delta(buf: &mut Vec<u8>, vals: &[u64]) {
    put_u64(buf, vals.len() as u64);
    let mut prev = 0u64;
    for &v in vals {
        put_i64(buf, v.wrapping_sub(prev) as i64);
        prev = v;
    }
}

fn decode_u64_delta(buf: &[u8], pos: &mut usize) -> Result<Vec<u64>, ColumnError> {
    let n = get_u64(buf, pos).ok_or_else(|| corrupt("delta count"))? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    let mut prev = 0u64;
    for _ in 0..n {
        let d = get_i64(buf, pos).ok_or_else(|| corrupt("delta value"))?;
        prev = prev.wrapping_add(d as u64);
        out.push(prev);
    }
    Ok(out)
}

fn encode_u32s(buf: &mut Vec<u8>, vals: &[u32]) {
    put_u64(buf, vals.len() as u64);
    for &v in vals {
        put_u64(buf, u64::from(v));
    }
}

fn decode_u32s(buf: &[u8], pos: &mut usize) -> Result<Vec<u32>, ColumnError> {
    let n = get_u64(buf, pos).ok_or_else(|| corrupt("u32 count"))? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let v = get_u64(buf, pos).ok_or_else(|| corrupt("u32 value"))?;
        out.push(u32::try_from(v).map_err(|_| corrupt("u32 overflow"))?);
    }
    Ok(out)
}

/// The investor-edge rule, defined once for every tier that derives the
/// investment graph: a user document with `role == "investor"` yields its
/// `id` (0 when absent) and the unsigned entries of its `investments`
/// array (none when absent); any other body is not an investor.
pub fn investor_edges(body: &Value) -> Option<(u32, impl Iterator<Item = u32> + '_)> {
    if body.get("role").and_then(Value::as_str) != Some("investor") {
        return None;
    }
    let id = body.get("id").and_then(Value::as_u64).unwrap_or(0) as u32;
    let companies = body
        .get("investments")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_u64)
        .map(|c| c as u32);
    Some((id, companies))
}

/// Investor→company edges extracted at seal time, row-aligned: `counts[r]`
/// pairs belong to row `r`. Kept per run so merged reads can emit edges in
/// canonical document order without decoding any document.
#[derive(Debug, Default, Clone)]
pub(crate) struct EdgeSegment {
    pub(crate) counts: Vec<u32>,
    pub(crate) pairs: Vec<(u32, u32)>,
}

/// One sealed batch of canonically sorted documents in columnar form.
#[derive(Debug, Clone)]
pub struct ColumnRun {
    rows: usize,
    keys: Vec<String>,
    /// Per-row shape id, or [`SCALAR_SHAPE`] for non-object bodies.
    shape_ids: Vec<u32>,
    /// Interned field-name-id sequences, insertion order preserved.
    shapes: Vec<Vec<u32>>,
    dict: Dict,
    /// `(field name id, column)`, sorted by name id.
    fields: Vec<(u32, FieldColumn)>,
    scalars: FieldColumn,
    edges: Option<EdgeSegment>,
    /// The run's serialized form, kept from the one encode at seal time
    /// (or from the bytes it was decoded from): what `.col` files and
    /// the shard wire both carry, CRC-framed.
    sealed: Vec<u8>,
}

impl ColumnRun {
    /// Seal `docs` (already in canonical per-partition order: key-sorted,
    /// stable) into a run. `build_edges` additionally extracts the
    /// bipartite investor→company edge segment using exactly the serving
    /// tier's extraction rules, so replays are structurally identical.
    pub fn from_docs(docs: &[Document], build_edges: bool) -> ColumnRun {
        debug_assert!(
            docs.windows(2).all(|w| w[0].key <= w[1].key),
            "ColumnRun::from_docs: input not in canonical key order"
        );
        let mut dict = Dict::new();
        let mut shapes: Vec<Vec<u32>> = Vec::new();
        let mut shape_index: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut keys = Vec::with_capacity(docs.len());
        let mut shape_ids = Vec::with_capacity(docs.len());
        let mut fields: Vec<(u32, FieldColumn)> = Vec::new();
        let mut scalars = FieldColumn::default();
        let mut edges = build_edges.then(EdgeSegment::default);

        for doc in docs {
            keys.push(doc.key.clone());
            match &doc.body {
                Value::Obj(obj) => {
                    let shape: Vec<u32> = obj.iter().map(|(k, _)| dict.intern(k)).collect();
                    let next = shapes.len() as u32;
                    let sid = *shape_index.entry(shape.clone()).or_insert_with(|| {
                        shapes.push(shape.clone());
                        next
                    });
                    shape_ids.push(sid);
                    for (name_id, (_, v)) in shape.iter().zip(obj.iter()) {
                        let idx = match fields.binary_search_by_key(name_id, |(id, _)| *id) {
                            Ok(i) => i,
                            Err(i) => {
                                fields.insert(i, (*name_id, FieldColumn::default()));
                                i
                            }
                        };
                        if let Some((_, col)) = fields.get_mut(idx) {
                            col.push_value(v, &mut dict);
                        }
                    }
                }
                other => {
                    shape_ids.push(SCALAR_SHAPE);
                    scalars.push_value(other, &mut dict);
                }
            }
            if let Some(seg) = &mut edges {
                let before = seg.pairs.len();
                if let Some((id, companies)) = investor_edges(&doc.body) {
                    seg.pairs.extend(companies.map(|c| (id, c)));
                }
                seg.counts.push((seg.pairs.len() - before) as u32);
            }
        }

        let mut run = ColumnRun {
            rows: docs.len(),
            keys,
            shape_ids,
            shapes,
            dict,
            fields,
            scalars,
            edges,
            sealed: Vec::new(),
        };
        run.sealed = run.encode();
        run
    }

    /// Documents in this run (no merging — single-run canonical order).
    pub fn decode_docs(&self) -> Result<Vec<Document>, ColumnError> {
        let mut cursors: Vec<Cursor> = vec![Cursor::default(); self.fields.len()];
        let mut scalar_cur = Cursor::default();
        let mut out = Vec::with_capacity(self.rows);
        for row in 0..self.rows {
            out.push(self.decode_row(row, &mut cursors, &mut scalar_cur)?);
        }
        Ok(out)
    }

    /// Decode row `row`, with cursors positioned at that row (sequential
    /// use only — cursors advance one occurrence per call).
    pub(crate) fn decode_row(
        &self,
        row: usize,
        cursors: &mut [Cursor],
        scalar_cur: &mut Cursor,
    ) -> Result<Document, ColumnError> {
        let key =
            self.keys.get(row).ok_or_else(|| corrupt("row index out of range"))?.clone();
        let sid = *self.shape_ids.get(row).ok_or_else(|| corrupt("shape id missing"))?;
        let body = if sid == SCALAR_SHAPE {
            self.scalars.value_at(scalar_cur, &self.dict)?
        } else {
            let shape = self
                .shapes
                .get(sid as usize)
                .ok_or_else(|| corrupt("shape id out of range"))?;
            let mut obj = Object::new();
            for name_id in shape {
                let idx = self
                    .fields
                    .binary_search_by_key(name_id, |(id, _)| *id)
                    .map_err(|_| corrupt("field column missing"))?;
                let (_, col) =
                    self.fields.get(idx).ok_or_else(|| corrupt("field column missing"))?;
                let cur =
                    cursors.get_mut(idx).ok_or_else(|| corrupt("field cursor missing"))?;
                let v = col.value_at(cur, &self.dict)?;
                let name =
                    self.dict.get(*name_id).ok_or_else(|| corrupt("field name id"))?;
                obj.insert(name, v);
            }
            Value::Obj(obj)
        };
        Ok(Document { key, body })
    }

    /// Fresh cursor set for [`ColumnRun::decode_row`].
    pub(crate) fn cursors(&self) -> (Vec<Cursor>, Cursor) {
        (vec![Cursor::default(); self.fields.len()], Cursor::default())
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Canonically sorted keys, one per row.
    pub fn keys(&self) -> &[String] {
        &self.keys
    }

    /// Interned dictionary entry count.
    pub fn dict_entries(&self) -> usize {
        self.dict.len()
    }

    /// Size of this run's wire encoding in bytes.
    pub fn encoded_len(&self) -> usize {
        self.sealed.len()
    }

    /// The sealed payload: [`ColumnRun::decode`] of these bytes yields
    /// this run. Callers frame it (see [`crate::disk::encode_partition`]).
    pub fn sealed_bytes(&self) -> &[u8] {
        &self.sealed
    }

    pub(crate) fn edge_segment(&self) -> Option<&EdgeSegment> {
        self.edges.as_ref()
    }

    /// Per-row presence of `field` plus a reader: returns `None` if the
    /// field name was never interned (no row has it).
    pub(crate) fn field_reader(&self, field: &str) -> Option<FieldReader<'_>> {
        let name_id = self.dict.lookup(field)?;
        let idx = self.fields.binary_search_by_key(&name_id, |(id, _)| *id).ok()?;
        let has: Vec<bool> = self
            .shapes
            .iter()
            .map(|shape| shape.contains(&name_id))
            .collect();
        Some(FieldReader { run: self, idx, shape_has: has, cur: Cursor::default() })
    }

    /// Serialize into one contiguous payload. Runs once per run, at seal
    /// time; everything after reads [`ColumnRun::sealed_bytes`].
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.rows * 8);
        buf.extend_from_slice(MAGIC);
        buf.push(FORMAT);
        put_u64(&mut buf, self.rows as u64);
        self.dict.encode(&mut buf);
        put_u64(&mut buf, self.shapes.len() as u64);
        for shape in &self.shapes {
            encode_u32s(&mut buf, shape);
        }
        // Keys: front-coded against the previous key (they are sorted, so
        // shared prefixes are long — "company:0000117" style keys collapse
        // to a couple of bytes each).
        let mut prev = "";
        for key in &self.keys {
            let shared = common_prefix(prev, key);
            put_u64(&mut buf, shared as u64);
            let suffix = &key.as_bytes()[shared..];
            put_u64(&mut buf, suffix.len() as u64);
            buf.extend_from_slice(suffix);
            prev = key;
        }
        encode_u32s(&mut buf, &self.shape_ids);
        self.scalars.encode(&mut buf);
        put_u64(&mut buf, self.fields.len() as u64);
        for (name_id, col) in &self.fields {
            put_u64(&mut buf, u64::from(*name_id));
            col.encode(&mut buf);
        }
        match &self.edges {
            None => buf.push(0),
            Some(seg) => {
                buf.push(1);
                encode_u32s(&mut buf, &seg.counts);
                put_u64(&mut buf, seg.pairs.len() as u64);
                let (mut pi, mut pc) = (0i64, 0i64);
                for &(inv, comp) in &seg.pairs {
                    put_i64(&mut buf, i64::from(inv) - pi);
                    put_i64(&mut buf, i64::from(comp) - pc);
                    pi = i64::from(inv);
                    pc = i64::from(comp);
                }
            }
        }
        buf
    }

    /// Inverse of [`ColumnRun::encode`]; any malformed byte is `Corrupt`.
    pub fn decode(buf: &[u8]) -> Result<ColumnRun, ColumnError> {
        let mut pos = 0usize;
        let magic = buf.get(..4).ok_or_else(|| corrupt("missing magic"))?;
        if magic != MAGIC {
            return Err(corrupt("bad magic"));
        }
        pos += 4;
        let format = *buf.get(pos).ok_or_else(|| corrupt("missing format"))?;
        if format != FORMAT {
            return Err(ColumnError::Stale(format!(
                "run format {format} != supported {FORMAT}"
            )));
        }
        pos += 1;
        let rows = get_u64(buf, &mut pos).ok_or_else(|| corrupt("row count"))? as usize;
        let dict = Dict::decode(buf, &mut pos)?;
        let ns = get_u64(buf, &mut pos).ok_or_else(|| corrupt("shape count"))? as usize;
        let mut shapes = Vec::with_capacity(ns.min(1 << 16));
        for _ in 0..ns {
            shapes.push(decode_u32s(buf, &mut pos)?);
        }
        let mut keys = Vec::with_capacity(rows.min(1 << 20));
        let mut prev = String::new();
        for _ in 0..rows {
            let shared =
                get_u64(buf, &mut pos).ok_or_else(|| corrupt("key prefix len"))? as usize;
            let slen = get_u64(buf, &mut pos).ok_or_else(|| corrupt("key suffix len"))? as usize;
            if shared > prev.len() {
                return Err(corrupt("key prefix exceeds previous key"));
            }
            let end = pos.checked_add(slen).ok_or_else(|| corrupt("key suffix len"))?;
            let suffix = buf.get(pos..end).ok_or_else(|| corrupt("key suffix bytes"))?;
            let mut key = String::with_capacity(shared + slen);
            key.push_str(prev.get(..shared).ok_or_else(|| corrupt("key prefix split"))?);
            key.push_str(
                std::str::from_utf8(suffix).map_err(|_| corrupt("key suffix utf8"))?,
            );
            pos = end;
            prev = key.clone();
            keys.push(key);
        }
        let shape_ids = decode_u32s(buf, &mut pos)?;
        let scalars = FieldColumn::decode(buf, &mut pos)?;
        let nf = get_u64(buf, &mut pos).ok_or_else(|| corrupt("field count"))? as usize;
        let mut fields = Vec::with_capacity(nf.min(1 << 16));
        let mut prev_id: Option<u32> = None;
        for _ in 0..nf {
            let id = get_u64(buf, &mut pos).ok_or_else(|| corrupt("field name id"))?;
            let id = u32::try_from(id).map_err(|_| corrupt("field name id overflow"))?;
            if prev_id.is_some_and(|p| p >= id) {
                return Err(corrupt("field ids not strictly sorted"));
            }
            prev_id = Some(id);
            fields.push((id, FieldColumn::decode(buf, &mut pos)?));
        }
        let edge_flag = *buf.get(pos).ok_or_else(|| corrupt("edge flag"))?;
        pos += 1;
        let edges = match edge_flag {
            0 => None,
            1 => {
                let counts = decode_u32s(buf, &mut pos)?;
                let np = get_u64(buf, &mut pos).ok_or_else(|| corrupt("pair count"))? as usize;
                let mut pairs = Vec::with_capacity(np.min(1 << 20));
                let (mut pi, mut pc) = (0i64, 0i64);
                for _ in 0..np {
                    let di = get_i64(buf, &mut pos).ok_or_else(|| corrupt("investor delta"))?;
                    let dc = get_i64(buf, &mut pos).ok_or_else(|| corrupt("company delta"))?;
                    pi = pi.checked_add(di).ok_or_else(|| corrupt("investor id range"))?;
                    pc = pc.checked_add(dc).ok_or_else(|| corrupt("company id range"))?;
                    let inv = u32::try_from(pi).map_err(|_| corrupt("investor id range"))?;
                    let comp = u32::try_from(pc).map_err(|_| corrupt("company id range"))?;
                    pairs.push((inv, comp));
                }
                if counts.iter().map(|&c| c as usize).sum::<usize>() != pairs.len() {
                    return Err(corrupt("edge counts disagree with pair stream"));
                }
                Some(EdgeSegment { counts, pairs })
            }
            _ => return Err(corrupt("bad edge flag")),
        };
        if pos != buf.len() {
            return Err(corrupt("trailing bytes after run"));
        }
        if keys.len() != rows || shape_ids.len() != rows {
            return Err(corrupt("row vectors disagree with row count"));
        }
        if let Some(seg) = &edges {
            if seg.counts.len() != rows {
                return Err(corrupt("edge counts disagree with row count"));
            }
        }
        Ok(ColumnRun {
            rows,
            keys,
            shape_ids,
            shapes,
            dict,
            fields,
            scalars,
            edges,
            sealed: buf.to_vec(),
        })
    }
}

/// Sequential typed reader over one field of one run. Call
/// [`FieldReader::next_value`] once per row, in row order.
pub(crate) struct FieldReader<'a> {
    run: &'a ColumnRun,
    idx: usize,
    shape_has: Vec<bool>,
    cur: Cursor,
}

impl FieldReader<'_> {
    /// The field's value at `row`, or `None` when the row's shape lacks
    /// it. Rows MUST be visited in order — the cursor only moves forward.
    pub(crate) fn next_value(&mut self, row: usize) -> Result<Option<Value>, ColumnError> {
        let sid = *self
            .run
            .shape_ids
            .get(row)
            .ok_or_else(|| corrupt("shape id missing"))?;
        if sid == SCALAR_SHAPE || !self.shape_has.get(sid as usize).copied().unwrap_or(false) {
            return Ok(None);
        }
        let (_, col) = self
            .run
            .fields
            .get(self.idx)
            .ok_or_else(|| corrupt("field column missing"))?;
        col.value_at(&mut self.cur, &self.run.dict).map(Some)
    }
}

fn common_prefix(a: &str, b: &str) -> usize {
    let mut n = a
        .as_bytes()
        .iter()
        .zip(b.as_bytes())
        .take_while(|(x, y)| x == y)
        .count();
    // Stay on a char boundary so prefix splicing is valid UTF-8.
    while n > 0 && !b.is_char_boundary(n) {
        n -= 1;
    }
    n
}

fn corrupt(what: &str) -> ColumnError {
    ColumnError::Corrupt(format!("run: {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_json::{arr, obj};

    fn doc(key: &str, body: Value) -> Document {
        Document { key: key.to_string(), body }
    }

    fn sample_docs() -> Vec<Document> {
        let mut docs = vec![
            doc("user:1", obj! {"id" => 1u64, "role" => "investor", "investments" => arr![3u64, 5u64, 9u64], "follow_count" => 12u64}.into()),
            doc("user:2", obj! {"id" => 2u64, "role" => "employee", "bio" => Value::Null}.into()),
            doc(
                "user:3",
                obj! {"id" => 3u64, "role" => "investor", "investments" => arr![5u64], "score" => 2.5f64, "tags" => arr!["a", "b"]}.into(),
            ),
            doc("user:4", Value::Str("not an object".into())),
            doc("user:5", obj! {"id" => 5i64, "neg" => -42i64, "big" => u64::MAX, "nested" => obj!{"x" => 1u64}}.into()),
        ];
        // Round-trip through the store envelope so every number takes the
        // variant a real scan would produce.
        docs.iter_mut().for_each(|d| {
            *d = Document::decode(&d.encode(), "ns", 0).unwrap();
        });
        docs.sort_by(|a, b| a.key.cmp(&b.key));
        docs
    }

    #[test]
    fn docs_round_trip_exactly() {
        let docs = sample_docs();
        let run = ColumnRun::from_docs(&docs, true);
        assert_eq!(run.decode_docs().unwrap(), docs);
        // And through the wire encoding.
        let bytes = run.sealed_bytes();
        let back = ColumnRun::decode(bytes).unwrap();
        assert_eq!(back.decode_docs().unwrap(), docs);
        assert_eq!(back.rows(), docs.len());
        assert_eq!(back.encoded_len(), bytes.len());
    }

    #[test]
    fn sealed_bytes_are_the_one_encoding() {
        for build_edges in [true, false] {
            let run = ColumnRun::from_docs(&sample_docs(), build_edges);
            assert_eq!(run.encoded_len(), run.sealed_bytes().len());
            // The bytes kept at seal time are what a fresh encode yields,
            // and a decoded run re-encodes to the bytes it came from —
            // so save and the wire can copy them instead of encoding.
            assert_eq!(run.encode(), run.sealed_bytes());
            let back = ColumnRun::decode(run.sealed_bytes()).unwrap();
            assert_eq!(back.sealed_bytes(), run.sealed_bytes());
            assert_eq!(back.encode(), run.sealed_bytes());
        }
    }

    #[test]
    fn edge_segment_matches_serve_extraction() {
        let docs = sample_docs();
        let run = ColumnRun::from_docs(&docs, true);
        let seg = run.edge_segment().unwrap();
        // Reference: the serving tier's extraction rules over the same docs.
        let mut want = Vec::new();
        for d in &docs {
            if d.body.get("role").and_then(Value::as_str) == Some("investor") {
                let id = d.body.get("id").and_then(Value::as_u64).unwrap_or(0) as u32;
                if let Some(arr) = d.body.get("investments").and_then(Value::as_arr) {
                    want.extend(arr.iter().filter_map(Value::as_u64).map(|c| (id, c as u32)));
                }
            }
        }
        assert_eq!(seg.pairs, want);
        assert_eq!(seg.counts.len(), docs.len());
    }

    #[test]
    fn truncated_run_is_corrupt_not_panic() {
        let docs = sample_docs();
        let bytes = ColumnRun::from_docs(&docs, true).sealed_bytes().to_vec();
        for cut in 0..bytes.len() {
            assert!(ColumnRun::decode(&bytes[..cut]).is_err());
        }
        // Flipping a payload byte must error (or decode to different docs),
        // never panic.
        let mut flipped = bytes.clone();
        if let Some(b) = flipped.get_mut(bytes.len() / 2) {
            *b ^= 0xff;
        }
        let _ = ColumnRun::decode(&flipped);
    }

    #[test]
    fn field_reader_walks_rows() {
        let docs = sample_docs();
        let run = ColumnRun::from_docs(&docs, false);
        let mut reader = run.field_reader("role").unwrap();
        let roles: Vec<Option<Value>> =
            (0..run.rows()).map(|r| reader.next_value(r).unwrap()).collect();
        let want: Vec<Option<Value>> =
            docs.iter().map(|d| d.body.get("role").cloned()).collect();
        assert_eq!(roles, want);
        assert!(run.field_reader("no_such_field").is_none());
    }
}
