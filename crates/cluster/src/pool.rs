//! Persistent stepping workers for a [`crate::Cluster`].
//!
//! The [`WorkerPool`] keeps its stepping threads alive for the
//! lifetime of the cluster: in each slice with real quantum work,
//! machine shards are handed to the same workers over channels,
//! stepped in parallel, and handed back at the slice barrier (the main
//! thread blocks until every shard returns, so a slice never overlaps
//! the next dispatch round). Machines are fully independent state
//! machines, so the sharding — and therefore the thread count — cannot
//! change results: replays stay bit-identical from 1 thread to N.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::context::ServingContext;
use crate::error::ClusterError;
use crate::machine::Machine;
use crate::Result;

/// Which replay engine walks the trace. Both share one replay loop
/// and the same worker pool; they differ only in which slice boundary
/// the loop processes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SteppingMode {
    /// Slice stepping — the oracle and the default: every slice
    /// boundary is processed, whether or not anything happens there.
    /// Slices with real quantum work fan out across the persistent
    /// worker pool; quiet ones fast-forward every machine in O(1).
    #[default]
    Pooled,
    /// Event-driven replay: with elastic control (autoscaling or
    /// stealing) off, the driver jumps straight to the boundary that
    /// admits the next arrival and accounts the quiet slices before it
    /// in O(1). With elastic control on, every boundary is a decision
    /// round and the engine steps them all, like the oracle.
    /// Event-driven replays are bit-identical to slice stepping (full
    /// [`crate::ClusterReport`] and telemetry JSONL) at the same seed.
    EventDriven,
}

/// One shard of machines travelling to a worker and back. The `usize`
/// is each machine's position in the cluster's machine vector, so the
/// barrier can reassemble the vector in its original order.
struct Job {
    shard: Vec<(usize, Machine)>,
    target_ms: u64,
    ctx: Arc<ServingContext>,
}

struct Done {
    shard: Vec<(usize, Machine)>,
    outcome: Result<()>,
}

/// A pool of long-lived stepping threads, created once per cluster and
/// reused by every busy slice of every replay.
#[derive(Debug)]
pub(crate) struct WorkerPool {
    jobs: Vec<Sender<Job>>,
    done_rx: Receiver<Done>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` stepping threads (at least one).
    pub(crate) fn spawn(workers: usize) -> Self {
        let workers = workers.max(1);
        let (done_tx, done_rx) = channel::<Done>();
        let mut jobs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (job_tx, job_rx) = channel::<Job>();
            let done_tx = done_tx.clone();
            handles.push(std::thread::spawn(move || worker_loop(job_rx, done_tx)));
            jobs.push(job_tx);
        }
        WorkerPool {
            jobs,
            done_rx,
            handles,
        }
    }

    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.jobs.len()
    }

    /// Steps every machine to cluster time `target_ms`: shards the
    /// machine vector across the workers, waits for every shard at the
    /// slice barrier, and reassembles the vector in order.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::WorkerPanic`] if a worker panicked (the panic
    ///   is caught, so the machines — and the pool — survive);
    /// * the first stepping error any worker hit.
    pub(crate) fn step_all(
        &self,
        machines: &mut Vec<Machine>,
        target_ms: u64,
        ctx: &Arc<ServingContext>,
    ) -> Result<()> {
        let count = machines.len();
        if count == 0 {
            return Ok(());
        }
        let workers = self.workers().min(count);
        let chunk_len = count.div_ceil(workers);
        let mut drained = std::mem::take(machines).into_iter().enumerate();
        let mut sent = 0;
        for job_tx in &self.jobs[..workers] {
            let shard: Vec<(usize, Machine)> = drained.by_ref().take(chunk_len).collect();
            if shard.is_empty() {
                break;
            }
            job_tx
                .send(Job {
                    shard,
                    target_ms,
                    ctx: Arc::clone(ctx),
                })
                .map_err(|_| ClusterError::WorkerPanic("worker channel closed".into()))?;
            sent += 1;
        }

        let mut slots: Vec<Option<Machine>> = (0..count).map(|_| None).collect();
        let mut first_error = None;
        for _ in 0..sent {
            let done = self
                .done_rx
                .recv()
                .map_err(|_| ClusterError::WorkerPanic("worker pool disconnected".into()))?;
            for (idx, machine) in done.shard {
                slots[idx] = Some(machine);
            }
            if let Err(e) = done.outcome {
                first_error.get_or_insert(e);
            }
        }
        for slot in slots {
            machines.push(
                slot.ok_or_else(|| ClusterError::WorkerPanic("worker lost a machine".into()))?,
            );
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels ends every worker loop; joining
        // bounds the threads' lifetime to the cluster's.
        self.jobs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(jobs: Receiver<Job>, done: Sender<Done>) {
    while let Ok(job) = jobs.recv() {
        let Job {
            mut shard,
            target_ms,
            ctx,
        } = job;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for (_, machine) in shard.iter_mut() {
                machine.step_to(target_ms, &ctx)?;
            }
            Ok(())
        }))
        .unwrap_or_else(|panic| Err(ClusterError::WorkerPanic(panic_message(&panic))));
        // Release the context clone before signalling the barrier:
        // the main thread resumes the moment Done lands, and a lagging
        // Arc here would force Arc::make_mut in the next replay's
        // warm-up into a deep clone of the whole serving context.
        drop(ctx);
        // The shard travels back even after a panic: a poisoned replay
        // errors out, but the cluster keeps all its machines.
        if done.send(Done { shard, outcome }).is_err() {
            return;
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stepping_mode_defaults_to_pooled() {
        assert_eq!(SteppingMode::default(), SteppingMode::Pooled);
    }

    #[test]
    fn empty_pool_step_is_a_no_op() {
        let pool = WorkerPool::spawn(2);
        assert_eq!(pool.workers(), 2);
        // No ServingContext is needed when there are no machines, but
        // step_all still wants one; exercised end-to-end in the
        // integration tests instead. Here: dropping joins cleanly.
        drop(pool);
    }
}
