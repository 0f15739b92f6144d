//! Partition-parallel execution: the workspace's one worker pool.
//!
//! The unit of parallelism is the partition (as in Spark). A stage maps
//! every input partition through a function; partitions are handed to a
//! bounded set of scoped worker threads through a shared queue, so skewed
//! partitions don't serialize the stage. The pool lives beside the store
//! it reads so that everything above the store — the dataflow engine
//! (which re-exports it as `crowdnet_dataflow::pool`) and the column
//! rebuild — schedules its tasks the same way.

use crowdnet_telemetry::Telemetry;
use parking_lot::Mutex;

/// Execution context: how many worker threads a stage may use.
///
/// `ExecCtx` is `Copy` and carried by every `crowdnet_dataflow::Dataset`;
/// derived datasets inherit it. The store's own parallel work (the column
/// rebuild, one task per partition) runs on the same pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecCtx {
    threads: usize,
    default_partitions: usize,
}

impl ExecCtx {
    /// A context with `threads` workers and `2 × threads` default partitions
    /// (a mild over-partitioning that smooths skew, as Spark recommends).
    pub fn new(threads: usize) -> ExecCtx {
        let threads = threads.max(1);
        ExecCtx {
            threads,
            default_partitions: threads * 2,
        }
    }

    /// A context sized to the machine.
    pub fn auto() -> ExecCtx {
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        ExecCtx::new(n)
    }

    /// Single-threaded context.
    pub fn serial() -> ExecCtx {
        ExecCtx::new(1)
    }

    /// Worker threads per stage.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Partition count used when materializing unpartitioned input.
    pub fn default_partitions(&self) -> usize {
        self.default_partitions
    }
}

impl Default for ExecCtx {
    fn default() -> Self {
        ExecCtx::auto()
    }
}

/// Run `f` over every partition in parallel, preserving partition order.
pub fn run_stage<T, U, F>(ctx: ExecCtx, partitions: Vec<Vec<T>>, f: F) -> Vec<Vec<U>>
where
    T: Send,
    U: Send,
    F: Fn(usize, Vec<T>) -> Vec<U> + Sync,
{
    run_tasks(ctx, partitions, f)
}

/// [`run_stage`] wrapped in telemetry: a `dataflow.<op>` span, the
/// `dataflow.tasks` counter, the `dataflow.queue_depth` high-water gauge
/// and a `dataflow.task_rows` histogram of per-partition output sizes.
pub fn run_stage_metered<T, U, F>(
    ctx: ExecCtx,
    telemetry: Option<&Telemetry>,
    op: &str,
    partitions: Vec<Vec<T>>,
    f: F,
) -> Vec<Vec<U>>
where
    T: Send,
    U: Send,
    F: Fn(usize, Vec<T>) -> Vec<U> + Sync,
{
    let Some(t) = telemetry else {
        return run_stage(ctx, partitions, f);
    };
    let n = partitions.len() as u64;
    let _span = t.span(&format!("dataflow.{op}"));
    let queue_gauge = t.gauge("dataflow.queue_depth");
    queue_gauge.set_max(n);
    t.counter("dataflow.tasks").add(n);
    let out = run_stage(ctx, partitions, f);
    let rows = t.histogram("dataflow.task_rows");
    for p in &out {
        rows.record(p.len() as u64);
    }
    out
}

/// Run `f` over every item of `tasks` in parallel, preserving order: the
/// one scheduler under every stage. Workers pull the next task index from
/// a shared cursor, so a skewed task never serializes the rest, and each
/// worker hands its `(index, output)` pairs back through its join handle —
/// no shared result slots, nothing to unwrap. A worker that panicked
/// re-raises its panic here, exactly as an unjoined scoped thread would.
pub fn run_tasks<T, U, F>(ctx: ExecCtx, tasks: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = tasks.len();
    let workers = ctx.threads.min(n);
    if workers <= 1 {
        return tasks.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let queue = Mutex::new(tasks.into_iter().enumerate());
    let mut done: Vec<(usize, U)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let next = queue.lock().next();
                        let Some((i, task)) = next else { break };
                        out.push((i, f(i, task)));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(out) => done.extend(out),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // Every index was taken exactly once, so ordering the pairs by index
    // restores task order.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_defaults() {
        let ctx = ExecCtx::new(4);
        assert_eq!(ctx.threads(), 4);
        assert_eq!(ctx.default_partitions(), 8);
        assert_eq!(ExecCtx::new(0).threads(), 1);
        assert_eq!(ExecCtx::serial().threads(), 1);
    }

    #[test]
    fn stage_preserves_partition_order() {
        let parts: Vec<Vec<u32>> = (0..16).map(|i| vec![i]).collect();
        let out = run_stage(ExecCtx::new(4), parts, |idx, p| {
            vec![(idx as u32, p[0] * 10)]
        });
        for (i, p) in out.iter().enumerate() {
            assert_eq!(p[0], (i as u32, i as u32 * 10));
        }
    }

    #[test]
    fn stage_handles_empty_input() {
        let out: Vec<Vec<u32>> = run_stage(ExecCtx::new(4), Vec::<Vec<u32>>::new(), |_, p| p);
        assert!(out.is_empty());
    }

    #[test]
    fn stage_handles_empty_partitions() {
        let parts: Vec<Vec<u32>> = vec![vec![], vec![1], vec![]];
        let out = run_stage(ExecCtx::new(2), parts, |_, p| p);
        assert_eq!(out, vec![vec![], vec![1], vec![]]);
    }

    #[test]
    fn metered_stage_matches_plain_and_records() {
        let telemetry = Telemetry::new();
        let parts: Vec<Vec<u32>> = (0..6).map(|i| vec![i, i + 1]).collect();
        let plain = run_stage(ExecCtx::new(2), parts.clone(), |_, p| p);
        let metered = run_stage_metered(ExecCtx::new(2), Some(&telemetry), "map", parts, |_, p| p);
        assert_eq!(plain, metered);
        assert_eq!(telemetry.counter("dataflow.tasks").value(), 6);
        assert_eq!(telemetry.gauge("dataflow.queue_depth").value(), 6);
        assert_eq!(telemetry.histogram("dataflow.task_rows").count(), 6);
        let spans = telemetry.span_records();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "dataflow.map");
        assert!(spans[0].end_ms.is_some());
    }

    #[test]
    #[should_panic(expected = "task 5 failed")]
    fn a_worker_panic_reaches_the_caller() {
        run_tasks(ExecCtx::new(2), (0..8).collect::<Vec<u32>>(), |_, t| {
            if t == 5 {
                panic!("task 5 failed");
            }
            t
        });
    }

    #[test]
    fn parallel_equals_serial() {
        let parts: Vec<Vec<u64>> = (0..32).map(|i| (i * 100..(i + 1) * 100).collect()).collect();
        let f = |_: usize, p: Vec<u64>| p.into_iter().map(|x| x * 3 + 1).collect::<Vec<_>>();
        let serial = run_stage(ExecCtx::serial(), parts.clone(), f);
        let parallel = run_stage(ExecCtx::new(8), parts, f);
        assert_eq!(serial, parallel);
    }
}
