//! # adaptraj-exec
//!
//! A fixed-size worker-pool executor for data-parallel per-window work:
//! training forward/backward passes, inference sampling, and metric
//! evaluation are all embarrassingly parallel across trajectory windows,
//! and this crate provides the one primitive they share — a blocking,
//! order-preserving [`WorkerPool::map`] over a slice.
//!
//! Design constraints (see DESIGN.md, "Execution model"):
//!
//! - **Zero external dependencies.** std threads + mpsc channels only
//!   (plus the workspace's own `adaptraj-obs` for instrumentation); the
//!   workspace stays registry-free.
//! - **Deterministic reduction.** `map` returns outputs in item order, so
//!   callers can fold results (gradients, losses, metrics) in exactly the
//!   order the sequential loop would have — bit-identical regardless of
//!   worker count. Randomness must be pre-split by the caller (per-item
//!   seeds), never drawn from a shared stream inside the closure.
//! - **Identical degenerate path.** A pool built with `workers <= 1` runs
//!   `map` inline on the calling thread with no channels at all, so
//!   `--workers 1` is structurally the sequential loop.
//! - **Panic containment.** A panicking job is caught on the worker,
//!   reported as a clean [`ExecError`], and the pool stays usable — no
//!   deadlock, no poisoned state, remaining jobs still drain.
//!
//! The pool is intentionally oblivious to tensors and tapes: callers own
//! per-item state (a fresh `Tape`, a seeded `Rng`) and the pool only
//! moves closures. The observability it owns is the span context around
//! each job: while the profiler is on, `map` captures the dispatcher's
//! [`SpanPath`] once and every job re-enters it, so ops run on a worker
//! attribute to the dispatcher's `obs::span` path with no code in the
//! closure; while `obs::timeline` capture is on, every item records a
//! `queue_wait` event (enqueue → start) and a `job_run` event (start →
//! finish) on its worker's lane; and the pool publishes
//! `exec.queue_depth` / `exec.worker_utilization` gauges into the global
//! metrics registry. All of it is off-path: one relaxed atomic load per
//! `map` and per job when capture is off, and never any effect on
//! dispatch order or result order.

use adaptraj_obs::{health, metrics, timeline, SpanPath};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// An erased job shipped to a worker thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

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

/// Runs one job on the calling thread inside the dispatcher's span path
/// (`path`), recording its `queue_wait` and `job_run` timeline events
/// when the job was enqueued with capture on (`enqueue_us`). A panic is
/// caught and returned.
fn run_job<O>(
    path: Option<SpanPath>,
    enqueue_us: Option<u64>,
    i: usize,
    job: impl FnOnce() -> O,
) -> std::thread::Result<O> {
    let item = Some(("item", i as u64));
    let start_us = enqueue_us.map(|t0| {
        timeline::record_span_since("queue_wait", t0, item);
        timeline::now_us()
    });
    let r = {
        let _path = path.map(SpanPath::enter);
        catch_unwind(AssertUnwindSafe(job))
    };
    if let Some(t0) = start_us {
        timeline::record_span_since("job_run", t0, item);
    }
    r
}

/// Pool-load bookkeeping published as global gauges. The raw counts are
/// per-pool atomics; the gauge handles point into the process-global
/// metrics registry, so `/metrics` scrapes see the live queue depth and
/// busy fraction of whichever pool is running.
struct PoolGauges {
    queued: AtomicI64,
    busy: AtomicI64,
    workers: f64,
    queue_depth: metrics::GaugeHandle,
    utilization: metrics::GaugeHandle,
}

impl PoolGauges {
    fn new(workers: usize) -> PoolGauges {
        let queue_depth = metrics::global().gauge("exec.queue_depth");
        let utilization = metrics::global().gauge("exec.worker_utilization");
        queue_depth.set(0.0);
        utilization.set(0.0);
        PoolGauges {
            queued: AtomicI64::new(0),
            busy: AtomicI64::new(0),
            workers: workers.max(1) as f64,
            queue_depth,
            utilization,
        }
    }

    fn enqueued(&self) {
        let q = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth.set(q.max(0) as f64);
    }

    fn started(&self) {
        let q = self.queued.fetch_sub(1, Ordering::Relaxed) - 1;
        self.queue_depth.set(q.max(0) as f64);
        let b = self.busy.fetch_add(1, Ordering::Relaxed) + 1;
        self.utilization.set(b.max(0) as f64 / self.workers);
    }

    fn finished(&self) {
        let b = self.busy.fetch_sub(1, Ordering::Relaxed) - 1;
        self.utilization.set(b.max(0) as f64 / self.workers);
    }
}

/// A fixed-size pool of persistent worker threads sharing one job queue.
///
/// Threads are spawned once at construction and live until the pool is
/// dropped; each [`map`](WorkerPool::map) call dispatches its items onto
/// the shared queue and blocks until every result is back.
pub struct WorkerPool {
    workers: usize,
    tx: Option<mpsc::Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    gauges: PoolGauges,
}

impl WorkerPool {
    /// Builds a pool with `workers` threads. `workers <= 1` spawns no
    /// threads at all: `map` then runs inline on the caller.
    pub fn new(workers: usize) -> Self {
        if workers <= 1 {
            return Self {
                workers: 1,
                tx: None,
                handles: Vec::new(),
                gauges: PoolGauges::new(1),
            };
        }
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("adaptraj-exec-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only while dequeuing, so
                        // workers pull jobs independently.
                        let job = match rx.lock() {
                            Ok(guard) => guard.recv(),
                            Err(poisoned) => poisoned.into_inner().recv(),
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // sender dropped: shut down
                        }
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self {
            workers,
            tx: Some(tx),
            handles,
            gauges: PoolGauges::new(workers),
        }
    }

    /// Number of worker slots (1 for the inline pool).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item, in parallel across the pool, and returns
    /// the outputs **in item order**.
    ///
    /// Blocks until every dispatched job has reported back, which is what
    /// makes the scoped borrows below sound. If any job panics, the first
    /// panic (by item index) is returned as an [`ExecError`] — after all
    /// other jobs have drained, so the pool is immediately reusable.
    pub fn map<I, O, F>(&self, items: &[I], f: F) -> Result<Vec<O>, ExecError>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        let path = SpanPath::current();
        // Inline path: no threads, no channels — structurally the
        // sequential loop (used for `--workers 1` determinism baselines).
        // It still records the same span *set* as the channel path (the
        // queue_wait spans just have ~zero duration), so a 1-worker trace
        // is comparable with a 4-worker one.
        let Some(tx) = &self.tx else {
            let mut out = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let enqueue_us = timeline::timeline_enabled().then(timeline::now_us);
                self.gauges.enqueued();
                self.gauges.started();
                let r = run_job(path, enqueue_us, i, || f(i, item));
                self.gauges.finished();
                // Inline jobs run in item order, so their health incidents
                // can be absorbed directly — same sequence the channel
                // path reconstructs from its per-item buffers.
                health::absorb_incidents(health::take_thread_incidents());
                match r {
                    Ok(v) => out.push(v),
                    Err(p) => {
                        return Err(ExecError::JobPanicked {
                            index: i,
                            message: panic_message(p),
                        })
                    }
                }
            }
            return Ok(out);
        };

        let (res_tx, res_rx) =
            mpsc::channel::<(usize, std::thread::Result<O>, Vec<health::Incident>)>();
        for (i, item) in items.iter().enumerate() {
            let res_tx = res_tx.clone();
            let f = &f;
            let gauges = &self.gauges;
            let enqueue_us = timeline::timeline_enabled().then(timeline::now_us);
            gauges.enqueued();
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                gauges.started();
                let r = run_job(path, enqueue_us, i, || f(i, item));
                gauges.finished();
                // Health incidents buffered on this worker thread during
                // the job travel back with the result, so the dispatcher
                // can absorb them in item order (deterministic for any
                // worker count). Empty (no allocation) while disabled.
                let incidents = health::take_thread_incidents();
                // The receiver outlives the dispatch loop; a send failure
                // is impossible while `map` is still draining.
                let _ = res_tx.send((i, r, incidents));
            });
            // SAFETY: the job borrows `items`, `f`, `gauges` (a field of
            // `self`), and `res_tx`, all of which outlive this call — `map`
            // does not return until one result per dispatched job has been
            // received below, and every job sends exactly one result (the
            // panic path included, via catch_unwind). Erasing the lifetime
            // to ship the closure through the 'static channel is therefore
            // sound.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            tx.send(job).expect("worker pool shut down mid-map");
        }
        drop(res_tx);

        let mut slots: Vec<Option<O>> = (0..items.len()).map(|_| None).collect();
        let mut incident_slots: Vec<Vec<health::Incident>> =
            (0..items.len()).map(|_| Vec::new()).collect();
        let mut first_panic: Option<(usize, String)> = None;
        for _ in 0..items.len() {
            let (i, r, incidents) = res_rx
                .recv()
                .expect("worker exited without reporting a result");
            incident_slots[i] = incidents;
            match r {
                Ok(v) => slots[i] = Some(v),
                Err(p) => {
                    let msg = panic_message(p);
                    if first_panic.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_panic = Some((i, msg));
                    }
                }
            }
        }
        // Flush worker health buffers in item order — the global
        // incident sequence is then independent of dispatch interleaving.
        for incidents in incident_slots {
            health::absorb_incidents(incidents);
        }
        if let Some((index, message)) = first_panic {
            return Err(ExecError::JobPanicked { index, message });
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every job reported exactly once"))
            .collect())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the sender drains the queue and lets workers exit.
        self.tx.take();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
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
    fn drop_joins_workers() {
        let _guard = capture_lock();
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..8).collect();
        let _ = pool.map(&items, |_, &x| x).unwrap();
        drop(pool); // must not hang
    }

    #[test]
    fn pool_load_counters_return_to_zero_after_map() {
        let _guard = capture_lock();
        for workers in [1, 4] {
            let pool = WorkerPool::new(workers);
            let items: Vec<usize> = (0..24).collect();
            let _ = pool.map(&items, |_, &x| x + 1).unwrap();
            // `map` blocks until every job has reported, and each job
            // decrements before reporting, so the pool is quiescent here.
            assert_eq!(pool.gauges.queued.load(Ordering::Relaxed), 0);
            assert_eq!(pool.gauges.busy.load(Ordering::Relaxed), 0);
            // The global gauges exist (values race with other tests'
            // pools, so only registration is asserted).
            let snap = metrics::global().snapshot();
            assert!(snap.gauge("exec.queue_depth").is_some());
            assert!(snap.gauge("exec.worker_utilization").is_some());
        }
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
