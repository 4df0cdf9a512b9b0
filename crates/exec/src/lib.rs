//! # adaptraj-exec
//!
//! A worker-pool executor for data-parallel per-window work: training
//! forward/backward passes, inference sampling, and metric evaluation
//! are all embarrassingly parallel across trajectory windows, and this
//! crate provides the one primitive they share — a blocking,
//! order-preserving [`WorkerPool::map`] over a slice.
//!
//! Design constraints (see DESIGN.md, "Execution model"):
//!
//! - **Zero external dependencies.** `std::thread::scope` only (plus the
//!   workspace's own `adaptraj-obs` for instrumentation); the workspace
//!   stays registry-free.
//! - **One path for every worker count.** Each `map` opens one thread
//!   scope: the calling thread is worker 0, `min(workers, items) - 1`
//!   scoped threads are the others, and all of them run the same loop,
//!   claiming the next item index from a shared counter. With
//!   `workers <= 1` that loop runs on the caller alone and no thread is
//!   spawned.
//! - **Deterministic reduction.** `map` returns outputs in item order, so
//!   callers can fold results (gradients, losses, metrics) in exactly the
//!   order the sequential loop would have — bit-identical regardless of
//!   worker count. Randomness must be pre-split by the caller (per-item
//!   seeds), never drawn from a shared stream inside the closure.
//! - **Panic containment.** A panicking job is caught on its worker, the
//!   remaining items still run, and `map` reports the lowest-index panic
//!   as a clean [`ExecError`]. No state outlives the call, so the pool is
//!   immediately reusable.
//!
//! The pool is intentionally oblivious to tensors and tapes: callers own
//! per-item state (a fresh `Tape`, a seeded `Rng`) and the pool only
//! runs closures. The observability it owns is the span context around
//! each job: while the profiler is on, `map` captures the dispatcher's
//! [`SpanPath`] once and every job re-enters it, so ops run on a worker
//! attribute to the dispatcher's `obs::span` path with no code in the
//! closure; while `obs::timeline` capture is on, every item records a
//! `queue_wait` event (`map` start → job start) and a `job_run` event
//! (start → finish) on its worker's lane; and the pool publishes
//! `exec.queue_depth` / `exec.worker_utilization` gauges into the global
//! metrics registry. All of it is off-path: one relaxed atomic load per
//! `map` and per job when capture is off, and never any effect on
//! dispatch order or result order.

use adaptraj_obs::{health, metrics, timeline, SpanPath};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Error surfaced by [`WorkerPool::map`] when a job panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A job panicked; carries the item index and the panic payload
    /// rendered as text (when it was a `&str`/`String`).
    JobPanicked { index: usize, message: String },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::JobPanicked { index, message } => {
                write!(f, "worker job for item {index} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// A caught panic payload as text (when it was a `&str`/`String`).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// One item's outcome: the job's result (or its caught panic) and the
/// health incidents its worker buffered while running it.
type Slot<O> = Mutex<Option<(std::thread::Result<O>, Vec<health::Incident>)>>;

/// A worker count plus the load gauges it publishes. Threads live only
/// inside one [`map`](WorkerPool::map) call, so building a pool is cheap
/// and dropping one joins nothing.
pub struct WorkerPool {
    workers: usize,
    queue_depth: metrics::GaugeHandle,
    utilization: metrics::GaugeHandle,
}

impl WorkerPool {
    /// Builds a pool of `workers` workers (at least 1).
    pub fn new(workers: usize) -> Self {
        let queue_depth = metrics::global().gauge("exec.queue_depth");
        let utilization = metrics::global().gauge("exec.worker_utilization");
        queue_depth.set(0.0);
        utilization.set(0.0);
        Self {
            workers: workers.max(1),
            queue_depth,
            utilization,
        }
    }

    /// Number of worker slots, the calling thread included.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item, in parallel across the pool, and returns
    /// the outputs **in item order**.
    ///
    /// Blocks until every item has run. If any job panics, the first
    /// panic (by item index) is returned as an [`ExecError`] after the
    /// other items have run. Health incidents buffered during the jobs
    /// are absorbed in item order, so the global incident sequence does
    /// not depend on which worker ran what.
    pub fn map<I, O, F>(&self, items: &[I], f: F) -> Result<Vec<O>, ExecError>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        let path = SpanPath::current();
        let start_us = timeline::timeline_enabled().then(timeline::now_us);
        let next = AtomicUsize::new(0);
        let busy = AtomicUsize::new(0);
        let slots: Vec<Slot<O>> = items.iter().map(|_| Mutex::new(None)).collect();
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            self.queue_depth.set((items.len() - i - 1) as f64);
            let b = busy.fetch_add(1, Ordering::Relaxed) + 1;
            self.utilization.set(b as f64 / self.workers as f64);
            let arg = Some(("item", i as u64));
            let job_start_us = start_us.map(|t0| {
                timeline::record_span_since("queue_wait", t0, arg);
                timeline::now_us()
            });
            let r = {
                let _path = path.map(SpanPath::enter);
                catch_unwind(AssertUnwindSafe(|| f(i, item)))
            };
            if let Some(t0) = job_start_us {
                timeline::record_span_since("job_run", t0, arg);
            }
            let b = busy.fetch_sub(1, Ordering::Relaxed) - 1;
            self.utilization.set(b as f64 / self.workers as f64);
            // Empty (no allocation) while the health observatory is off.
            let incidents = health::take_thread_incidents();
            *slots[i].lock().expect("slot lock poisoned") = Some((r, incidents));
        };
        std::thread::scope(|s| {
            for w in 1..self.workers.min(items.len()) {
                std::thread::Builder::new()
                    .name(format!("adaptraj-exec-{w}"))
                    .spawn_scoped(s, work)
                    .expect("failed to spawn worker thread");
            }
            work();
        });
        // Every worker has joined: the pool is idle.
        self.queue_depth.set(0.0);
        self.utilization.set(0.0);

        let mut out = Vec::with_capacity(items.len());
        let mut first_panic = None;
        for (index, slot) in slots.into_iter().enumerate() {
            let (r, incidents) = slot
                .into_inner()
                .expect("slot lock poisoned")
                .expect("every item ran");
            health::absorb_incidents(incidents);
            match r {
                Ok(v) => out.push(v),
                Err(p) if first_panic.is_none() => {
                    let message = panic_message(p);
                    first_panic = Some(ExecError::JobPanicked { index, message });
                }
                Err(_) => {}
            }
        }
        first_panic.map_or(Ok(out), Err)
    }
}

/// SplitMix64-style seed mixer: derives an independent per-window RNG seed
/// from the run seed, the (global) epoch, and the window index. Workers
/// seed `Rng::seed_from(window_seed(..))` so every window's random draws
/// are reproducible and independent of both worker count and dispatch
/// order.
pub fn window_seed(run_seed: u64, epoch: u64, window: u64) -> u64 {
    let mut x = run_seed
        ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ window.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_item_order() {
        let _guard = capture_lock();
        for workers in [1, 4] {
            let pool = WorkerPool::new(workers);
            let items: Vec<usize> = (0..37).collect();
            let out = pool.map(&items, |i, &x| {
                // Jitter the finish order so ordering is actually exercised.
                if workers > 1 {
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((37 - i) % 5) as u64 * 100,
                    ));
                }
                x * 2
            });
            let expect: Vec<usize> = (0..37).map(|x| x * 2).collect();
            assert_eq!(out.unwrap(), expect, "workers={workers}");
        }
    }

    #[test]
    fn map_borrows_caller_state() {
        let _guard = capture_lock();
        let pool = WorkerPool::new(3);
        let base = [10usize, 20, 30, 40];
        let items: Vec<usize> = (0..4).collect();
        // The closure borrows `base` — scoped borrows must be accepted.
        let out = pool.map(&items, |_, &i| base[i] + 1).unwrap();
        assert_eq!(out, vec![11, 21, 31, 41]);
    }

    #[test]
    fn pool_is_reusable_across_maps() {
        let _guard = capture_lock();
        let pool = WorkerPool::new(2);
        for round in 0..5 {
            let items: Vec<u64> = (0..16).collect();
            let out = pool.map(&items, |_, &x| x + round).unwrap();
            assert_eq!(out[15], 15 + round);
        }
    }

    #[test]
    fn poisoned_worker_reports_clean_err_and_pool_survives() {
        let _guard = capture_lock();
        for workers in [1, 4] {
            let pool = WorkerPool::new(workers);
            let items: Vec<usize> = (0..20).collect();
            let completed = AtomicUsize::new(0);
            let err = pool
                .map(&items, |_, &x| {
                    if x == 7 {
                        panic!("boom at {x}");
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                    x
                })
                .unwrap_err();
            assert_eq!(
                err,
                ExecError::JobPanicked {
                    index: 7,
                    message: "boom at 7".into()
                },
                "workers={workers}"
            );
            // No deadlock and no poisoned queue: the same pool still works.
            let ok = pool.map(&items[..5], |_, &x| x * 3).unwrap();
            assert_eq!(ok, vec![0, 3, 6, 9, 12]);
        }
    }

    #[test]
    fn earliest_panic_index_wins() {
        let _guard = capture_lock();
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..8).collect();
        let err = pool
            .map(&items, |_, &x| {
                if x % 3 == 2 {
                    panic!("p{x}");
                }
                x
            })
            .unwrap_err();
        let ExecError::JobPanicked { index, .. } = err;
        assert_eq!(index, 2);
    }

    #[test]
    fn empty_input_is_a_noop() {
        let _guard = capture_lock();
        let pool = WorkerPool::new(4);
        let out: Vec<usize> = pool.map(&[] as &[usize], |_, &x: &usize| x).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn window_seed_is_stable_and_spread() {
        // Pinned values: the seed-splitting scheme is part of the
        // reproducibility contract (changing it changes training curves).
        assert_eq!(window_seed(1, 0, 0), window_seed(1, 0, 0));
        assert_ne!(window_seed(1, 0, 0), window_seed(1, 0, 1));
        assert_ne!(window_seed(1, 0, 0), window_seed(1, 1, 0));
        assert_ne!(window_seed(1, 0, 0), window_seed(2, 0, 0));
        // Neighboring indices must not produce correlated low bits.
        let a = window_seed(7, 3, 10);
        let b = window_seed(7, 3, 11);
        assert_ne!(a & 0xFFFF, b & 0xFFFF);
    }

    #[test]
    fn pool_load_counters_return_to_zero_after_map() {
        let _guard = capture_lock();
        for workers in [1, 4] {
            let pool = WorkerPool::new(workers);
            let items: Vec<usize> = (0..24).collect();
            let _ = pool.map(&items, |_, &x| x + 1).unwrap();
            // The lock keeps every other pool idle, and `map` publishes
            // an idle pool once its workers have joined.
            let snap = metrics::global().snapshot();
            assert_eq!(snap.gauge("exec.queue_depth"), Some(0.0));
            assert_eq!(snap.gauge("exec.worker_utilization"), Some(0.0));
        }
    }

    /// Blocks each arriving job until `n` jobs have arrived or 5 s have
    /// passed; returns whether all `n` arrived. Jobs that must overlap in
    /// time rendezvous here, so a `map` that ran them one after the other
    /// reads `false` instead of hanging.
    struct Rendezvous {
        arrived: Mutex<usize>,
        all: std::sync::Condvar,
        n: usize,
    }

    impl Rendezvous {
        fn new(n: usize) -> Self {
            Rendezvous {
                arrived: Mutex::new(0),
                all: std::sync::Condvar::new(),
                n,
            }
        }

        fn arrive(&self) -> bool {
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.all.notify_all();
            let timeout = std::time::Duration::from_secs(5);
            let (arrived, _) = self
                .all
                .wait_timeout_while(arrived, timeout, |a| *a < self.n)
                .unwrap();
            *arrived >= self.n
        }
    }

    #[test]
    fn workers_run_jobs_at_the_same_time() {
        let _guard = capture_lock();
        let pool = WorkerPool::new(2);
        let both_started = Rendezvous::new(2);
        let out = pool.map(&[0, 1], |_, _| both_started.arrive()).unwrap();
        assert!(out[0], "job 1 never started while job 0 was running");
    }

    #[test]
    fn map_uses_the_caller_and_at_most_one_thread_per_item() {
        let _guard = capture_lock();
        let pool = WorkerPool::new(8);
        // Three jobs that wait for each other occupy three threads at
        // once, so the caller has to run one of them.
        let all_started = Rendezvous::new(3);
        let ids = pool
            .map(&[0, 1, 2], |_, _| {
                all_started.arrive();
                std::thread::current().id()
            })
            .unwrap();
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert!(distinct.len() <= 3, "{ids:?}");
        assert!(ids.contains(&std::thread::current().id()), "{ids:?}");
    }

    /// The capture switches are process-global, and a job records its
    /// `queue_wait` when it starts and its `job_run` when it ends, so a
    /// capture test that turns the timeline off while another test's job
    /// is running sees an unpaired span. Every test that runs jobs
    /// therefore serializes on this lock.
    static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

    fn capture_lock() -> std::sync::MutexGuard<'static, ()> {
        CAPTURE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn jobs_attribute_their_ops_to_the_dispatchers_span() {
        use adaptraj_obs::profile::{self, Dir};
        let _guard = capture_lock();
        profile::set_enabled(true);
        for workers in [1, 4] {
            profile::reset();
            let pool = WorkerPool::new(workers);
            let items: Vec<usize> = (0..16).collect();
            {
                let _s = adaptraj_obs::span("exec_dispatch");
                // No re-entry code here: the pool carries the path.
                pool.map(&items, |_, _| {
                    profile::record_op("add", Dir::Forward, profile::op_timer(), 8)
                })
                .unwrap();
            }
            let snap = profile::snapshot();
            let calls =
                |s: &profile::ProfileSnapshot| -> u64 { s.entries.iter().map(|e| e.calls).sum() };
            assert_eq!(calls(&snap), 16, "workers={workers}: {snap:?}");
            assert_eq!(
                calls(&snap.under("exec_dispatch")),
                16,
                "workers={workers}: ops left the dispatcher's span: {snap:?}"
            );
        }
        profile::set_enabled(false);
        profile::reset();
    }

    #[test]
    fn map_records_queue_wait_and_job_run_spans_when_enabled() {
        let _guard = capture_lock();
        // No other job runs while the lock is held, so every span counted
        // here is one of this test's twelve jobs.
        timeline::set_enabled(true);
        timeline::reset();
        let items: Vec<usize> = (0..6).collect();
        for workers in [1, 3] {
            let pool = WorkerPool::new(workers);
            let _ = pool.map(&items, |_, &x| x * 2).unwrap();
        }
        timeline::set_enabled(false);
        let counts = timeline::snapshot().span_counts();
        timeline::reset();
        let job_run = counts.get("job_run").copied().unwrap_or(0);
        let queue_wait = counts.get("queue_wait").copied().unwrap_or(0);
        assert_eq!(job_run, 12, "job_run spans: {counts:?}");
        assert_eq!(job_run, queue_wait, "paired spans: {counts:?}");
    }

    #[test]
    fn repeated_maps_reuse_the_worker_lanes() {
        let _guard = capture_lock();
        timeline::set_enabled(true);
        timeline::reset();
        let pool = WorkerPool::new(3);
        let items: Vec<usize> = (0..6).collect();
        for _ in 0..20 {
            let _ = pool.map(&items, |_, &x| x).unwrap();
        }
        timeline::set_enabled(false);
        let snap = timeline::snapshot();
        timeline::reset();
        let lanes = snap
            .lanes
            .iter()
            .filter(|l| l.events.iter().any(|e| e.name == "job_run"))
            .count();
        assert!((1..=3).contains(&lanes), "{lanes} job_run lanes");
    }

    #[test]
    fn disabled_timeline_records_nothing_from_map() {
        let _guard = capture_lock();
        timeline::set_enabled(false);
        timeline::reset();
        let pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..8).collect();
        let _ = pool.map(&items, |_, &x| x).unwrap();
        let counts = timeline::snapshot().span_counts();
        assert_eq!(counts.get("job_run"), None, "{counts:?}");
    }
}
