//! The rule registry. Each rule is a pure function over the whole
//! [`Analysis`](crate::Analysis), so per-file rules iterate files
//! internally and cross-file rules (lock ordering, panic reachability)
//! can see the complete workspace in one pass.

use crate::{Analysis, Diagnostic};

mod channels;
mod counters;
mod errors;
mod locks;
mod panicpath;
mod transportnet;
mod unwrap;
mod vfsio;
mod vfsproto;
mod wallclock;

/// One lint rule: a stable id, a one-line summary, a longer `--explain`
/// text and its checker.
pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
    pub explain: &'static str,
    pub check: fn(&Analysis) -> Vec<Diagnostic>,
}

/// Every rule, in the order diagnostics summarise them.
pub const ALL: &[Rule] = &[
    Rule {
        id: unwrap::ID,
        summary: "no unwrap()/expect() in library code",
        explain: "Library crates must surface failures as Result, not process aborts. \
                  .unwrap()/.expect() in non-test library code turns a recoverable error \
                  into a panic for every caller. Return an error instead; in truly \
                  infallible spots, restructure so the compiler sees it.",
        check: unwrap::check,
    },
    Rule {
        id: wallclock::ID,
        summary: "no wall-clock or ambient randomness outside the clock module",
        explain: "Determinism is load-bearing: simulations, golden tests and crash-recovery \
                  replays all assume time and randomness are injected. Instant::now(), \
                  SystemTime::now() and ad-hoc seeds outside crates/telemetry's clock \
                  module make runs unreproducible. Take a Clock (or seed) as input.",
        check: wallclock::check,
    },
    Rule {
        id: locks::ID,
        summary: "workspace lock order must be acyclic; no guard across blocking channel ops",
        explain: "Builds a workspace-wide lock-acquisition-order graph: edges from guards \
                  held while another lock is taken in the same function, and from guards \
                  held across calls (resolved through the call graph, including into other \
                  crates) into every lock the callee may transitively acquire. Lock \
                  identity is the receiver name qualified by impl type (Service.cache). \
                  Any edge on a cycle is an AB/BA deadlock candidate and is reported. \
                  Independently, holding a guard across a blocking channel .send()/.recv() \
                  is flagged: the peer may need that lock to drain the channel. try_send/\
                  try_recv are exempt. Suppress intentional sites with \
                  // lint:allow(lock-order-global): <reason>.",
        check: locks::check,
    },
    Rule {
        id: panicpath::ID,
        summary: "no panic site reachable from Service endpoints or Server::call",
        explain: "Sweeps the workspace call graph from every method of impl Service and \
                  from Server::call in crates/serve, every method of impl Router in \
                  crates/shard and of impl ShardServer / impl RemoteShard in \
                  crates/shardnet (trait impls such as impl DataSource for Service count), \
                  and flags .unwrap()/.expect()/panic!/todo!/unimplemented! in any \
                  transitively reachable function, plus direct indexing inside \
                  crates/serve, crates/shard and crates/shardnet themselves (the handler \
                  layers must use checked access on client-controlled ids; numeric kernels \
                  in graph/dataflow index dense arrays by construction and are exempt). \
                  The endpoint bodies are free functions generic over <S: DataSource> in \
                  serve::router, reached through router::respond; a call on a parameter \
                  typed by a bounded generic fans out to every impl of the bound, so both \
                  data sources are swept. unreachable! is allowed — it documents an \
                  invariant. Resolution is heuristic and under-approximate: treat this as \
                  a regression tripwire, not a proof.",
        check: panicpath::check,
    },
    Rule {
        id: channels::ID,
        summary: "no unbounded channels in crawl/dataflow hot paths",
        explain: "An unbounded channel turns backpressure into unbounded memory growth. \
                  Producer/consumer seams in crawl and dataflow must use bounded channels \
                  and handle the full/disconnected cases explicitly.",
        check: channels::check,
    },
    Rule {
        id: errors::ID,
        summary: "public *Error enums must implement Display and Error",
        explain: "Every public error enum is part of the crate's API contract: it must \
                  implement Display (human-readable) and std::error::Error (composable \
                  with ? and dyn Error) or callers cannot propagate it cleanly.",
        check: errors::check,
    },
    Rule {
        id: vfsio::ID,
        summary: "store file I/O must route through the Vfs seam",
        explain: "crates/store promises crash-safety via an injectable Vfs with fault \
                  injection. Direct std::fs calls bypass the failpoints and the fsync \
                  accounting, making crash tests silently vacuous. Route all file I/O \
                  through the Vfs trait (vfs.rs itself implements the seam and is exempt).",
        check: vfsio::check,
    },
    Rule {
        id: vfsproto::ID,
        summary: "store Vfs call sequences must follow the commit protocol",
        explain: "A per-function automaton over Vfs calls in crates/store enforces the \
                  crash-safety protocol: every rename (the atomic commit point) must be \
                  followed by sync_dir; a function that open_append()s and append()s must \
                  sync() before returning (sync-before-ack); and first occurrences must \
                  respect create_dir_all → write_file → rename → sync_dir. Only receivers \
                  that are recognisably the Vfs seam participate, so Vec::append never \
                  matches. vfs.rs and single-op delegation shims are exempt.",
        check: vfsproto::check,
    },
    Rule {
        id: transportnet::ID,
        summary: "outbound TCP must dial through the chaos Transport seam",
        explain: "The chaos harness injects network faults (refused connects, resets, \
                  partitions, slow drips) at the Transport trait in crates/chaos. A raw \
                  TcpStream::connect/connect_timeout anywhere else opens a connection the \
                  fault injector never sees, so partition drills pass while real traffic \
                  bypasses the faults. Dial through a chaos::Transport (RealTcp in \
                  production); transport.rs itself and test code are exempt.",
        check: transportnet::check,
    },
    Rule {
        id: counters::ID,
        summary: "metric name literals must be declared in the telemetry registry",
        explain: "The telemetry registry is create-on-first-use, so a typo'd counter name \
                  never errors — it just reads as zero forever. Every string literal \
                  passed to .counter()/.gauge()/.histogram()/.histogram_with() must appear \
                  in MANDATORY_COUNTERS or DECLARED_METRICS (crates/telemetry/src/report.rs). \
                  format!-built names are matched with * wildcards per dotted segment. \
                  Names passed through variables are not checked.",
        check: counters::check,
    },
];

#[cfg(test)]
pub(crate) mod testutil {
    use crate::source::SourceFile;
    use crate::Analysis;

    /// Build an in-memory analysis from `(path, source)` pairs.
    pub fn analysis(files: &[(&str, &str)]) -> Analysis {
        Analysis {
            files: files
                .iter()
                .map(|(p, s)| SourceFile::parse(p, s))
                .collect(),
        }
    }
}
