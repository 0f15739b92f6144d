#!/usr/bin/env bash
# Full local gate: build, tests, lint. Run from anywhere in the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q --workspace"
cargo test -q --offline --workspace

echo "==> perfbench (the benchmark package is not a workspace member: build it and run its --tiny smoke against the crates/* public APIs)"
# perfbench/ compiles against crates/* but cannot be edited by the PRs it
# judges, so an API break must be caught here, not by the benchmark
# pipeline. A rewritten perfbench/Cargo.lock means a crates/* manifest
# changed its dependency set — that fails the gate too.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml
if [ -n "$(git status --porcelain -- perfbench/)" ]; then
  echo "perfbench: building or testing changed files under perfbench/:" >&2
  git status --porcelain -- perfbench/ >&2
  exit 1
fi

echo "==> crowdnet-lint --workspace (gate + JSON report -> results/lint-report.json)"
# Exit 1 covers both new violations and stale baseline entries (hardened
# ratchet). The machine-readable report lands next to the other artifacts;
# its round-trip through crowdnet-json is asserted by crates/lint/tests/cli.rs.
mkdir -p results
cargo run -q --offline -p crowdnet-lint -- --workspace --format json > results/lint-report.json
grep -q '"version": 1' results/lint-report.json
# Human-readable summary (also re-checks the gate, incl. suppressions).
cargo run -q --offline -p crowdnet-lint -- --workspace
# The golden-fixture corpus must match each rule's expected diagnostics
# exactly (already part of `cargo test --workspace`; re-run standalone so
# a fixture regression is named here rather than buried in the test sweep).
cargo test -q --offline -p crowdnet-lint --test golden >/dev/null

echo "==> JSON-scan gate (serve and shard answer from sealed column runs; the log is re-parsed only to rebuild them, and by the test oracle)"
# Outside #[cfg(test)] modules, crates/serve/src and crates/shard/src may
# scan the JSON log in exactly two functions: Service::rebuild_columns
# (the rebuild path: ColumnSet::build_from_store) and Artifacts::build
# (the oracle the column-derived artifacts are tested against, which
# perf-report also times). Anything else is a request re-parsing
# documents again.
json_scans="$(awk '
  FNR == 1 { in_test = 0; fn_name = "" }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
  in_test || /^[[:space:]]*\/\// { next }
  match($0, /fn [a-z_0-9]+/) { fn_name = substr($0, RSTART + 3, RLENGTH - 3) }
  /\.scan_partitions\(|scan_store\(|build_from_store\(|rebuild_from_store\(/ {
    allowed = (FILENAME == "crates/serve/src/artifacts.rs" && fn_name == "build") \
           || (FILENAME == "crates/serve/src/service.rs" && fn_name == "rebuild_columns")
    if (!allowed) print FILENAME ":" FNR ": in fn " fn_name ": " $0
  }
' crates/serve/src/*.rs crates/shard/src/*.rs)"
if [ -n "$json_scans" ]; then
  echo "JSON-scan gate: the log is scanned outside the rebuild path and the oracle:" >&2
  echo "$json_scans" >&2
  exit 1
fi

echo "==> feature-scan gate (every paper-suite scan goes through the one fused, partition-parallel helper)"
# Outside #[cfg(test)] modules, crates/core/src/features.rs and
# crates/core/src/experiments/ may not scan the store directly: every
# feature scan goes through features::scan, which decodes and extracts
# inside one pool task per store partition (scan_store_with) or reads the
# column catalog. A direct scan_store/scan_partitions keeps every parsed
# document alive until its operator runs.
feature_scans="$(awk '
  FNR == 1 { in_test = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
  in_test || /^[[:space:]]*\/\// { next }
  /\.scan_partitions\(|scan_store\(/ { print FILENAME ":" FNR ": " $0 }
' crates/core/src/features.rs crates/core/src/experiments/*.rs)"
if [ -n "$feature_scans" ]; then
  echo "feature-scan gate: a feature scan bypasses features::scan:" >&2
  echo "$feature_scans" >&2
  exit 1
fi

echo "==> one-fit gate (the paper suite fits CoDA once per outcome; Figures 4, 5 and 7 borrow that fit)"
# Outside #[cfg(test)] modules, crates/core/src may call Coda::fit only in
# the communities::fitted builder, which memoises the fit per store
# version (Store::derived), and fig4/fig5/fig7 may not call
# communities::run( or investor_graph::run(, which clone the memoised
# graph and fit out instead of borrowing them.
refits="$(awk '
  FNR == 1 { in_test = 0; fn_name = "" }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
  in_test || /^[[:space:]]*\/\// { next }
  match($0, /fn [a-z_0-9]+/) { fn_name = substr($0, RSTART + 3, RLENGTH - 3) }
  /Coda::fit/ && !(FILENAME == "crates/core/src/experiments/communities.rs" && fn_name == "fitted") {
    print FILENAME ":" FNR ": in fn " fn_name ": " $0
  }
  FILENAME ~ /experiments\/fig[457]\.rs$/ && /communities::run\(|investor_graph::run\(/ {
    print FILENAME ":" FNR ": " $0
  }
' $(find crates/core/src -name '*.rs' | sort))"
if [ -n "$refits" ]; then
  echo "one-fit gate: a CoDA fit or a cloned graph outside the memoised builder:" >&2
  echo "$refits" >&2
  exit 1
fi

echo "==> rebuild gate (the column rebuild takes frame lengths from the log, never from re-encoding documents)"
# Outside #[cfg(test)] modules, crates/column/src may not re-encode a
# document: a partition's staleness token is the framed bytes the store's
# frame walk accepted (PartitionScan::framed_bytes) and an applied
# append's is the length its ChangeEvent carries. The serial rebuild this
# replaced spent a sixth of its time re-encoding every document only to
# measure it; the tests keep that re-encode as the oracle.
reencodes="$(awk '
  FNR == 1 { in_test = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
  in_test || /^[[:space:]]*\/\// { next }
  /Document::encode|\.encode\(\)\.len\(\)/ { print FILENAME ":" FNR ": " $0 }
' crates/column/src/*.rs)"
if [ -n "$reencodes" ]; then
  echo "rebuild gate: the column crate re-encodes documents:" >&2
  echo "$reencodes" >&2
  exit 1
fi

echo "==> epoch hand-off gate (no push PageRank, no whole-map entity copies)"
# An epoch hand-off costs what changed: PageRank is one warm-started power
# iteration (crowdnet_graph::pagerank) and entity indexes are copy-on-write
# EntityIndex snapshots. Outside #[cfg(test)] modules, none of the names of
# the per-epoch whole-corpus copies they replaced may come back.
handoff="$(awk '
  FNR == 1 { in_test = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
  in_test || /^[[:space:]]*\/\// { next }
  index($0, "DynamicPageRank") || index($0, "clone_map") || index($0, "entities.clone()") {
    print FILENAME ":" FNR ": " $0
  }
' $(find crates/*/src -name '*.rs' | sort))"
if [ -n "$handoff" ]; then
  echo "epoch hand-off gate: a per-epoch whole-corpus copy is back:" >&2
  echo "$handoff" >&2
  exit 1
fi

echo "==> crawl-scan gate (the crawl reads angellist/companies once, into the link table)"
# CrunchBase augmentation and the Facebook and Twitter crawls used to scan
# and parse every crawled company profile each, three full reads of the
# namespace per crawl. Outside #[cfg(test)] modules, crates/crawl/src may
# name the companies namespace only to write it (.put), in
# links::company_links (the one read those three stages share), and in
# the BFS resume probe (bfs.rs fn scan: the keys an interrupted run
# already stored; the namespace is absent when a fresh crawl probes it).
company_reads="$(awk '
  FNR == 1 { in_test = 0; fn_name = "" }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
  in_test || /^[[:space:]]*\/\// { next }
  match($0, /fn [a-z_0-9]+/) { fn_name = substr($0, RSTART + 3, RLENGTH - 3) }
  /NS_COMPANIES|"angellist\/companies"/ {
    allowed = /pub const NS_COMPANIES: / || /^use / || /\.put\(NS_COMPANIES, / \
           || (FILENAME == "crates/crawl/src/links.rs" && fn_name == "company_links") \
           || (FILENAME == "crates/crawl/src/bfs.rs" && fn_name == "scan" \
               && /existing_keys\(store, NS_COMPANIES\)/)
    if (!allowed) print FILENAME ":" FNR ": in fn " fn_name ": " $0
  }
' crates/crawl/src/*.rs)"
if [ -n "$company_reads" ]; then
  echo "crawl-scan gate: angellist/companies is read outside the link table:" >&2
  echo "$company_reads" >&2
  exit 1
fi
if ! grep -q "store.scan_partition(" crates/crawl/src/links.rs; then
  echo "crawl-scan gate: links::company_links no longer reads the namespace" >&2
  exit 1
fi

echo "==> telemetry smoke (tiny pipeline -> report parses, mandatory counters present)"
smoke_dir="$(mktemp -d)"
# `|| true` keeps an empty pid list (the happy path: every server already
# reaped) from failing the trap under set -e and masking the real exit code.
trap 'kill -9 $(cat "$smoke_dir/shardnet/pids" 2>/dev/null) 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
cargo run -q --release --offline -p crowdnet-core --bin repro -- \
  --scale tiny --seed 7 --out "$smoke_dir" \
  --telemetry "$smoke_dir/telemetry/run.json" dataset-stats >/dev/null
# telemetry-report validates the JSON and the mandatory counter set, and
# exits non-zero on a malformed or incomplete report.
telemetry_summary="$(cargo run -q --release --offline -p crowdnet-core --bin repro -- \
  --out "$smoke_dir" telemetry-report)"
grep -q "crawl.angellist.attempts" <<< "$telemetry_summary"

echo "==> serve smoke (every endpoint answers in-process, serve.* counters recorded)"
serve_out="$(cargo run -q --release --offline -p crowdnet-core --bin repro -- \
  --scale tiny --seed 7 --out "$smoke_dir" \
  --telemetry "$smoke_dir/telemetry/serve.json" serve --smoke)"
grep -q "^  200 GET /stats" <<< "$serve_out"
if grep -q "^  [45]" <<< "$serve_out"; then
  echo "serve smoke: endpoint returned an error status" >&2
  exit 1
fi
# The serve run's report must validate AND carry the serving-tier counters
# alongside the mandatory pipeline set.
serve_summary="$(cargo run -q --release --offline -p crowdnet-core --bin repro -- \
  --telemetry "$smoke_dir/telemetry/serve.json" --out "$smoke_dir" telemetry-report)"
grep -q "serve.requests" <<< "$serve_summary"
grep -q "serve.cache." <<< "$serve_summary"

echo "==> ingest smoke (live epochs publish into a pinned service, ingest.* counters recorded)"
ingest_out="$(cargo run -q --release --offline -p crowdnet-core --bin repro -- \
  --scale tiny --seed 7 --out "$smoke_dir" \
  --telemetry "$smoke_dir/telemetry/ingest.json" ingest --smoke)"
grep -q "epoch 0 pinned" <<< "$ingest_out"
grep -q "^  200 GET /stats" <<< "$ingest_out"
if grep -q "^  [45]" <<< "$ingest_out"; then
  echo "ingest smoke: endpoint returned an error status" >&2
  exit 1
fi
# Mandatory ingest counters: the changefeed delivered events, documents
# and edges were applied, and epochs were published.
for counter in ingest.events ingest.docs ingest.edges ingest.epochs; do
  if ! grep -q "$counter=[1-9]" <<< "$ingest_out"; then
    echo "ingest smoke: mandatory counter $counter missing or zero" >&2
    exit 1
  fi
done
# The ingest run's telemetry report must validate and carry the
# ingest-tier counters alongside the mandatory pipeline set.
ingest_summary="$(cargo run -q --release --offline -p crowdnet-core --bin repro -- \
  --telemetry "$smoke_dir/telemetry/ingest.json" --out "$smoke_dir" telemetry-report)"
grep -q "ingest.events" <<< "$ingest_summary"
grep -q "ingest.epoch" <<< "$ingest_summary"

echo "==> shard smoke (scatter-gather router over 2 shards answers every endpoint)"
shard_out="$(cargo run -q --release --offline -p crowdnet-core --bin repro -- \
  --scale tiny --seed 7 --out "$smoke_dir" \
  --telemetry "$smoke_dir/telemetry/shard.json" serve --shards 2 --smoke)"
grep -q "^  200 GET /stats" <<< "$shard_out"
if grep -q "^  [45]" <<< "$shard_out"; then
  echo "shard smoke: endpoint returned an error status" >&2
  exit 1
fi
# Mandatory shard counters: shards opened, writes routed, requests fanned
# out through the router.
for counter in shard.set.opened shard.set.puts shard.router.requests shard.router.fanouts; do
  if ! grep -q "$counter=[1-9]" <<< "$shard_out"; then
    echo "shard smoke: mandatory counter $counter missing or zero" >&2
    exit 1
  fi
done

echo "==> shardnet smoke (out-of-process shards: wire import, SIGKILL one server, degraded partials, restart recovery)"
repro_bin="target/release/repro"
shardnet_dir="$smoke_dir/shardnet"
mkdir -p "$shardnet_dir"
# Spawn two real shard-server processes on ephemeral loopback ports; their
# pids go in a file the EXIT trap kills so a failed drill leaves no orphans.
"$repro_bin" shard-server --store "$shardnet_dir/shard-0" --index 0 --of 2 --port 0 \
  > "$shardnet_dir/s0.log" 2>/dev/null &
s0_pid=$!
"$repro_bin" shard-server --store "$shardnet_dir/shard-1" --index 1 --of 2 --port 0 \
  > "$shardnet_dir/s1.log" 2>/dev/null &
s1_pid=$!
echo "$s0_pid $s1_pid" > "$shardnet_dir/pids"
for _ in $(seq 1 50); do
  grep -q "^shard-server listening on " "$shardnet_dir/s0.log" 2>/dev/null \
    && grep -q "^shard-server listening on " "$shardnet_dir/s1.log" 2>/dev/null && break
  sleep 0.2
done
addr0="$(sed -n 's/^shard-server listening on //p' "$shardnet_dir/s0.log")"
addr1="$(sed -n 's/^shard-server listening on //p' "$shardnet_dir/s1.log")"
test -n "$addr0" && test -n "$addr1"
# Healthy fleet: the corpus is imported over the wire and every endpoint
# answers 200 through the remote scatter-gather path.
shardnet_out="$(cargo run -q --release --offline -p crowdnet-core --bin repro -- \
  --scale tiny --seed 7 --out "$smoke_dir" serve --remote "$addr0,$addr1" --smoke)"
grep -q "importing the corpus into the remote fleet" <<< "$shardnet_out"
grep -q "^  200 GET /stats" <<< "$shardnet_out"
if grep -q "^  [45]" <<< "$shardnet_out"; then
  echo "shardnet smoke: endpoint returned an error status over remote shards" >&2
  exit 1
fi
for counter in shardnet.legs shardnet.pool.reuse_hits; do
  if ! grep -q "$counter=[1-9]" <<< "$shardnet_out"; then
    echo "shardnet smoke: mandatory counter $counter missing or zero" >&2
    exit 1
  fi
done
# SIGKILL shard 1's process: the adopted fleet must answer degraded
# (partial=true) with zero 5xx, and the client must flip the shard down.
kill -9 "$s1_pid" 2>/dev/null
wait "$s1_pid" 2>/dev/null || true
degraded_out="$(cargo run -q --release --offline -p crowdnet-core --bin repro -- \
  --scale tiny --seed 7 --out "$smoke_dir" serve --remote "$addr0,$addr1" --smoke)"
grep -q "adopting populated remote shards" <<< "$degraded_out"
grep -q "partial=true" <<< "$degraded_out"
if grep -q "^  [45]" <<< "$degraded_out"; then
  echo "shardnet smoke: degraded fleet returned an error status (must degrade, never 5xx)" >&2
  exit 1
fi
grep -q "shardnet.degraded_flips=[1-9]" <<< "$degraded_out"
# Restart shard 1 from its durable store on a fresh port: recovery on
# open must restore byte-identical answers (digests compared on every
# endpoint except the version-bearing /stats and live /healthz).
"$repro_bin" shard-server --store "$shardnet_dir/shard-1" --index 1 --of 2 --port 0 \
  > "$shardnet_dir/s1b.log" 2>/dev/null &
s1_pid=$!
echo "$s0_pid $s1_pid" > "$shardnet_dir/pids"
for _ in $(seq 1 50); do
  grep -q "^shard-server listening on " "$shardnet_dir/s1b.log" 2>/dev/null && break
  sleep 0.2
done
addr1b="$(sed -n 's/^shard-server listening on //p' "$shardnet_dir/s1b.log")"
test -n "$addr1b"
restored_out="$(cargo run -q --release --offline -p crowdnet-core --bin repro -- \
  --scale tiny --seed 7 --out "$smoke_dir" serve --remote "$addr0,$addr1b" --smoke)"
if grep -q "^  [45]" <<< "$restored_out"; then
  echo "shardnet smoke: restored fleet returned an error status" >&2
  exit 1
fi
healthy_lines="$(grep '^  200 GET' <<< "$shardnet_out" | grep -v -e '/stats' -e '/healthz')"
restored_lines="$(grep '^  200 GET' <<< "$restored_out" | grep -v -e '/stats' -e '/healthz')"
if [ "$healthy_lines" != "$restored_lines" ]; then
  echo "shardnet smoke: restarted fleet diverged from the healthy run:" >&2
  diff <(echo "$healthy_lines") <(echo "$restored_lines") >&2 || true
  exit 1
fi
if grep -q "partial=true" <<< "$restored_lines"; then
  echo "shardnet smoke: restored fleet still flags partial responses" >&2
  exit 1
fi
kill -9 "$s0_pid" "$s1_pid" 2>/dev/null
wait "$s0_pid" "$s1_pid" 2>/dev/null || true
: > "$shardnet_dir/pids"

echo "==> chaos drills (scripted fault scenarios: zero 5xx, accurate partials, breaker recovery, seeded replay)"
# flaky-link: the victim's link resets and truncates on a seeded schedule;
# the drill's own invariants (zero 5xx, partial accuracy, re-equivalence
# after heal) are enforced inside the binary — PASS is the whole gate.
chaos_flaky="$("$repro_bin" --scenario flaky-link --seed 7 chaos)"
grep -q "chaos drill flaky-link: PASS" <<< "$chaos_flaky"
# The breaker must visibly open and close again, the injector must have
# actually fired, and the chaos.* tallies must be non-zero.
grep -q "counters\[heal\]: breaker state=closed opens=[1-9]" <<< "$chaos_flaky"
grep -Eq "injected\[heal\]: .* resets=[1-9]" <<< "$chaos_flaky"
grep -q "end: chaos.connects=[1-9]" <<< "$chaos_flaky"
grep -q "violations=0" <<< "$chaos_flaky"
# one-way-partition, twice at the same seed: the drill transcript must
# replay byte-identically — fault injection is deterministic, not flaky.
chaos_part_a="$("$repro_bin" --scenario one-way-partition --seed 7 chaos)"
chaos_part_b="$("$repro_bin" --scenario one-way-partition --seed 7 chaos)"
grep -q "chaos drill one-way-partition: PASS" <<< "$chaos_part_a"
grep -q "partial=true" <<< "$chaos_part_a"
grep -Eq "injected\[[a-z]*\]: .* partition_drops=[1-9]" <<< "$chaos_part_a"
if [ "$chaos_part_a" != "$chaos_part_b" ]; then
  echo "chaos drill: same-seed replay diverged:" >&2
  diff <(echo "$chaos_part_a") <(echo "$chaos_part_b") >&2 || true
  exit 1
fi

echo "==> recovery smoke (crash the durable crawl, resume, compare content hash)"
# Uninterrupted durable crawl at tiny scale: the reference content hash.
full_out="$(cargo run -q --release --offline -p crowdnet-core --bin repro -- \
  --scale tiny --seed 7 crawl --store "$smoke_dir/full-store")"
full_hash="$(sed -n 's/^store content hash: //p' <<< "$full_out")"
test -n "$full_hash"
# Kill the same crawl at a deterministic file-operation crash-point…
set +e
cargo run -q --release --offline -p crowdnet-core --bin repro -- \
  --scale tiny --seed 7 crawl --store "$smoke_dir/crash-store" \
  --fail-at-op 4000 --fault-seed 9 >/dev/null 2>&1
crash_rc=$?
set -e
if [ "$crash_rc" -ne 3 ]; then
  echo "recovery smoke: expected simulated-crash exit code 3, got $crash_rc" >&2
  exit 1
fi
# …then resume: recovery + checkpoint replay must land on the same bytes.
resume_out="$(cargo run -q --release --offline -p crowdnet-core --bin repro -- \
  --scale tiny --seed 7 crawl --store "$smoke_dir/crash-store" --resume)"
resume_hash="$(sed -n 's/^store content hash: //p' <<< "$resume_out")"
if [ "$resume_hash" != "$full_hash" ]; then
  echo "recovery smoke: resumed hash $resume_hash != uninterrupted hash $full_hash" >&2
  exit 1
fi
grep -q "store.recovery.scans=[1-9]" <<< "$resume_out"

echo "==> column smoke (projection rebuilds from the crawled log, reloads committed, column.* counters recorded)"
# First open of the crawled store finds no committed projection: it must
# rebuild from the JSON log, persist the runs and count the work.
column_out="$(cargo run -q --release --offline -p crowdnet-core --bin repro -- \
  --scale tiny --seed 7 column --store "$smoke_dir/full-store")"
grep -q "^rebuilt (absent, corrupt or stale)" <<< "$column_out"
for counter in column.rebuilds column.bytes column.dict.entries; do
  if ! grep -q "$counter=[1-9]" <<< "$column_out"; then
    echo "column smoke: mandatory counter $counter missing or zero" >&2
    exit 1
  fi
done
# Second open must load the committed projection instead of rescanning.
column_out2="$(cargo run -q --release --offline -p crowdnet-core --bin repro -- \
  --scale tiny --seed 7 column --store "$smoke_dir/full-store")"
grep -q "^loaded committed" <<< "$column_out2"
# Columnar analysis path: the same experiment answered through typed
# columns, with the scan decode counted.
columnar_out="$(cargo run -q --release --offline -p crowdnet-core --bin repro -- \
  --scale tiny --seed 7 --out "$smoke_dir" --columnar dataset-stats)"
grep -q "columnar projection attached" <<< "$columnar_out"
for counter in column.builds column.scan.docs; do
  if ! grep -q "$counter=[1-9]" <<< "$columnar_out"; then
    echo "column smoke: mandatory counter $counter missing or zero in --columnar run" >&2
    exit 1
  fi
done

echo "All checks passed."
