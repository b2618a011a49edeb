//! Persistent worker pool for trial execution.
//!
//! [`Simulation::run_parallel`] spins up a fresh `crossbeam` scope —
//! and fresh per-worker [`TrialScratch`] state — for every call. That
//! is fine for one big simulation, but a *sweep* (dozens to hundreds of
//! small `SimulationConfig` points, the shape behind every figure
//! family) pays the spawn/join and scratch-construction cost once per
//! point. This module keeps one long-lived pool per process instead:
//!
//! * workers are spawned once and live for the process; each owns a
//!   [`TrialScratch`] that is rebuilt in place across *scenarios*, not
//!   just across trials of one scenario;
//! * a run is a list of [`RangeJob`]s (one per sweep point); workers
//!   pull trial batches through a two-level discipline — scan jobs from
//!   a shared head cursor, claim the next batch from the first job that
//!   still has unclaimed trials — so batches from neighboring sweep
//!   points interleave and a small tail point never leaves workers
//!   idle;
//! * the *calling* thread participates as a full worker (with a
//!   pool-owned scratch of its own), so a 1-thread pool executes
//!   entirely inline with no cross-thread handoff at all.
//!
//! Determinism: the pool decides only *who* runs a trial, never *what*
//! the trial is. A job's batches are cut by the same [`TrialQueue`]
//! rule as `run_parallel`'s, run through the same batch body
//! (`Simulation::run_batch`), and merged in trial order — so a full-range
//! job's result, floats included, is byte-identical to
//! `run_parallel` at every thread count. The merge stays per-job: each
//! [`RangeJob`] collects its own batch [`Partial`]s, so sweep points
//! never mix.
//!
//! [`Simulation::run_parallel`]: crate::engine::Simulation::run_parallel

use crate::engine::{num_threads, Partial, Simulation, TrialQueue, TrialScratch};
use sos_observe::{telemetry, trace};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// One unit of pool work: run trials `start..end` of `sim` and merge
/// them into a single [`Partial`].
pub(crate) struct RangeJob {
    /// The simulation the trials belong to.
    pub sim: Arc<Simulation>,
    /// First trial index (inclusive).
    pub start: u64,
    /// Last trial index (exclusive); must be `> start`.
    pub end: u64,
    /// Whether completing this job counts as one sweep *point* for the
    /// live telemetry plane (true for sweep-executor jobs, false for
    /// the batch jobs of `run_until_precision`).
    pub point: bool,
}

/// Per-job execution state: the job's own work-stealing queue (over the
/// *local* index space `0..len`, offset by `base` at execution time)
/// and its private merge target.
struct JobSlot {
    sim: Arc<Simulation>,
    base: u64,
    queue: TrialQueue,
    /// `(batch_start, partial)` per executed batch, pushed in racy
    /// completion order and merged in start order at collection time.
    partial: Mutex<Vec<(u64, Partial)>>,
    /// Trials of this job not yet merged; hits zero exactly once, when
    /// the job completes (telemetry's per-point progress tick).
    remaining: AtomicU64,
    /// Total trials of the job (for the completion trace span).
    trials: u64,
    point: bool,
}

/// Completion state of one `run` call, updated under [`RunState::done`].
struct RunDone {
    /// Trials not yet merged into their job's partial.
    remaining: u64,
    /// Set when a worker thread panicked mid-run.
    poisoned: bool,
}

/// Shared state of one `run` call. Workers hold an `Arc` to it for the
/// duration of their participation, so a straggler can finish scanning
/// after the caller has already collected the results.
struct RunState {
    jobs: Vec<JobSlot>,
    /// Index of the first job that may still have unclaimed batches;
    /// monotonically advanced as job queues drain. A scan hint, not a
    /// claim: correctness only needs it to never skip an undrained job.
    head: AtomicUsize,
    /// Batches executed (for pool metrics).
    batches: AtomicU64,
    /// Set when request tracing was on at `run` entry: the anchor for
    /// per-point completion spans (reading a clock, never the RNG).
    trace_started: Option<Instant>,
    done: Mutex<RunDone>,
    done_cv: Condvar,
}

/// Pool-level coordination state, guarded by [`PoolShared::lock`].
struct PoolState {
    /// Bumped once per `run` call; workers use it to tell a new run
    /// from the one they just finished.
    epoch: u64,
    shutdown: bool,
    run: Option<Arc<RunState>>,
}

struct PoolShared {
    lock: Mutex<PoolState>,
    work_ready: Condvar,
}

/// Locks a std mutex, ignoring poisoning (the pool carries its own
/// panic flag; a poisoned coordination lock must not mask it).
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// A long-lived pool of trial workers; see the module docs.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Scratch for the calling thread's participation — owned by the
    /// pool so it, too, is reused across scenarios and across runs.
    caller_scratch: TrialScratch,
}

impl WorkerPool {
    /// Creates a pool with `threads` total workers: `threads - 1`
    /// background threads plus the calling thread, which participates
    /// in every [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub(crate) fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one pool thread");
        let shared = Arc::new(PoolShared {
            lock: Mutex::new(PoolState {
                epoch: 0,
                shutdown: false,
                run: None,
            }),
            work_ready: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            caller_scratch: TrialScratch::persistent(),
        }
    }

    /// Executes every job and returns `(partials, batches)`: one merged
    /// [`Partial`] per job, in job order, plus the number of trial
    /// batches executed (for queue metrics). Blocks until all trials
    /// are merged; the calling thread works the queues alongside the
    /// background workers.
    ///
    /// # Panics
    ///
    /// Panics if any `RangeJob` has an empty range, or if a worker
    /// thread panicked while executing a trial.
    pub(crate) fn run(&mut self, jobs: Vec<RangeJob>) -> (Vec<Partial>, u64) {
        if jobs.is_empty() {
            return (Vec::new(), 0);
        }
        let mut total = 0u64;
        let slots: Vec<JobSlot> = jobs
            .into_iter()
            .map(|job| {
                assert!(job.end > job.start, "empty trial range");
                let len = job.end - job.start;
                total += len;
                JobSlot {
                    queue: TrialQueue::new(len),
                    base: job.start,
                    sim: job.sim,
                    partial: Mutex::new(Vec::new()),
                    remaining: AtomicU64::new(len),
                    trials: len,
                    point: job.point,
                }
            })
            .collect();
        telemetry::add_expected_trials(total);
        let run = Arc::new(RunState {
            jobs: slots,
            head: AtomicUsize::new(0),
            batches: AtomicU64::new(0),
            trace_started: trace::enabled().then(Instant::now),
            done: Mutex::new(RunDone {
                remaining: total,
                poisoned: false,
            }),
            done_cv: Condvar::new(),
        });

        if !self.workers.is_empty() {
            let mut state = lock_ignore_poison(&self.shared.lock);
            state.epoch += 1;
            state.run = Some(run.clone());
            drop(state);
            self.shared.work_ready.notify_all();
        }

        // The caller is a full worker: with a 1-thread pool this is the
        // entire run, inline, with zero synchronization beyond the
        // uncontended per-job locks.
        drain(&run, &mut self.caller_scratch);

        // Wait for background stragglers to merge their last batches.
        let mut done = lock_ignore_poison(&run.done);
        while done.remaining > 0 && !done.poisoned {
            done = run
                .done_cv
                .wait(done)
                .unwrap_or_else(|e| e.into_inner());
        }
        let poisoned = done.poisoned;
        drop(done);
        if !self.workers.is_empty() {
            lock_ignore_poison(&self.shared.lock).run = None;
        }
        assert!(!poisoned, "simulation worker panicked");

        // All trials merged and no queue has unclaimed batches, so no
        // worker will touch a partial again — taking them is safe even
        // if a straggler still holds the Arc while scanning.
        let partials = run
            .jobs
            .iter()
            .map(|slot| {
                let batches = std::mem::take(&mut *lock_ignore_poison(&slot.partial));
                Partial::merged_in_order(batches)
            })
            .collect();
        (partials, run.batches.load(Ordering::Relaxed))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock_ignore_poison(&self.shared.lock).shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Marks the run poisoned if the worker unwinds mid-drain, so the
/// caller fails loudly instead of waiting forever on `remaining`.
struct PoisonGuard<'a> {
    run: &'a RunState,
    armed: bool,
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            lock_ignore_poison(&self.run.done).poisoned = true;
            self.run.done_cv.notify_all();
        }
    }
}

/// Works the run's job queues until no unclaimed batch remains
/// anywhere. Shared by background workers and the calling thread.
fn drain(run: &RunState, scratch: &mut TrialScratch) {
    loop {
        let head = run.head.load(Ordering::Acquire);
        let mut claimed = None;
        for (i, slot) in run.jobs.iter().enumerate().skip(head) {
            if let Some((start, end)) = slot.queue.next_batch() {
                claimed = Some((slot, start, end));
                break;
            }
            if i == head {
                // This job's queue is fully claimed; advance the scan
                // hint so later workers skip it. CAS failure just means
                // someone else advanced it first.
                let _ = run.head.compare_exchange(
                    i,
                    i + 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
        }
        let Some((slot, start, end)) = claimed else {
            return;
        };
        let mut batch_span = trace::start("pool-batch", trace::CAT_POOL);
        let partial = slot
            .sim
            .run_batch(slot.base + start, slot.base + end, scratch, None);
        if let Some(span) = batch_span.as_mut() {
            span.arg("trials", end - start);
        }
        drop(batch_span); // record the batch claim's span now
        lock_ignore_poison(&slot.partial).push((start, partial));
        run.batches.fetch_add(1, Ordering::Relaxed);
        // The last batch of a job completes a sweep point.
        let batch_len = end - start;
        if slot.remaining.fetch_sub(batch_len, Ordering::AcqRel) == batch_len && slot.point {
            telemetry::point_done();
            if let Some(t0) = run.trace_started {
                trace::record_since(
                    "sweep-point",
                    trace::CAT_EXEC,
                    t0,
                    &[("trials", slot.trials)],
                );
            }
        }
        let mut done = lock_ignore_poison(&run.done);
        done.remaining -= end - start;
        if done.remaining == 0 {
            run.done_cv.notify_all();
        }
    }
}

/// Background worker: wait for a new run epoch, participate, repeat.
/// The scratch lives for the thread's lifetime — overlay/ring/route
/// allocations are reused across every scenario the pool ever runs.
fn worker_loop(shared: &PoolShared) {
    let mut scratch = TrialScratch::persistent();
    let mut last_epoch = 0u64;
    loop {
        let run = {
            let mut state = lock_ignore_poison(&shared.lock);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != last_epoch {
                    if let Some(run) = &state.run {
                        last_epoch = state.epoch;
                        break run.clone();
                    }
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let mut guard = PoisonGuard {
            run: &run,
            armed: true,
        };
        drain(&run, &mut scratch);
        guard.armed = false;
    }
}

/// The process-wide pool used by the sweep executor and
/// [`Simulation::run_until_precision`], sized by
/// [`num_threads`](crate::engine::num_threads). Created on first use;
/// callers serialize on the mutex (runs are internally parallel, so
/// back-to-back runs beat interleaved ones).
///
/// [`Simulation::run_until_precision`]: crate::engine::Simulation::run_until_precision
pub(crate) fn global_pool() -> &'static Mutex<WorkerPool> {
    static POOL: OnceLock<Mutex<WorkerPool>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(WorkerPool::new(num_threads())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_core::{
        AttackBudget, AttackConfig, MappingDegree, Scenario, SystemParams,
    };
    use crate::engine::SimulationConfig;

    fn sim(seed: u64, trials: u64) -> Arc<Simulation> {
        let scenario = Scenario::builder()
            .system(SystemParams::new(500, 40, 0.5).unwrap())
            .layers(3)
            .mapping(MappingDegree::OneTo(2))
            .filters(10)
            .build()
            .unwrap();
        Arc::new(Simulation::new(
            SimulationConfig::new(
                scenario,
                AttackConfig::OneBurst {
                    budget: AttackBudget::new(20, 100),
                },
            )
            .trials(trials)
            .routes_per_trial(20)
            .seed(seed),
        ))
    }

    #[test]
    fn pool_matches_run_parallel_at_any_thread_count() {
        let sims: Vec<Arc<Simulation>> = (0..5).map(|s| sim(s, 12)).collect();
        let reference: Vec<_> = sims
            .iter()
            .map(|s| s.run_parallel(2))
            .collect();
        for threads in [1, 2, 4, 8] {
            let mut pool = WorkerPool::new(threads);
            let jobs = sims
                .iter()
                .map(|s| RangeJob {
                    sim: s.clone(),
                    start: 0,
                    end: 12,
                    point: true,
                })
                .collect();
            let (partials, batches) = pool.run(jobs);
            assert!(batches > 0);
            for ((partial, s), reference) in
                partials.into_iter().zip(&sims).zip(&reference)
            {
                let result = s.finish(partial);
                assert_eq!(&result, reference, "{threads} threads");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_runs() {
        let mut pool = WorkerPool::new(2);
        let s = sim(9, 8);
        let (first, _) = pool.run(vec![RangeJob { sim: s.clone(), start: 0, end: 8, point: true }]);
        let (second, _) = pool.run(vec![RangeJob { sim: s.clone(), start: 0, end: 8, point: true }]);
        let a = s.finish(first.into_iter().next().unwrap());
        let b = s.finish(second.into_iter().next().unwrap());
        assert_eq!(a.successes, b.successes);
        assert_eq!(a.attempts, b.attempts);
    }

    #[test]
    fn disjoint_ranges_of_one_simulation_sum_to_the_whole() {
        // run_until_precision's shape: the same simulation split into
        // consecutive ranges must reproduce the full run's counts.
        let s = sim(4, 30);
        let whole = s.run_parallel(1);
        let mut pool = WorkerPool::new(3);
        let (parts, _) = pool.run(vec![
            RangeJob { sim: s.clone(), start: 0, end: 10, point: false },
            RangeJob { sim: s.clone(), start: 10, end: 30, point: false },
        ]);
        let mut merged = Partial::default();
        for part in &parts {
            merged.merge(part);
        }
        let result = s.finish(merged);
        assert_eq!(result.successes, whole.successes);
        assert_eq!(result.attempts, whole.attempts);
        assert_eq!(result.failure_depths, whole.failure_depths);
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let mut pool = WorkerPool::new(2);
        let (partials, batches) = pool.run(Vec::new());
        assert!(partials.is_empty());
        assert_eq!(batches, 0);
    }
}
