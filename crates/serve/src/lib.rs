//! # adaptraj-serve
//!
//! Production inference service: a zero-dependency HTTP/JSON server that
//! micro-batches in-flight predict requests onto the batched execution
//! path (`Predictor::sample` over [`WindowBatch`]es run on an
//! [`adaptraj_exec::WorkerPool`]).
//!
//! ## The serving contract
//!
//! A response for a given scene + checkpoint + seed is **bit-identical**
//! to the offline single-window eval path
//! (`Predictor::predict_k(&window, k, &mut Rng::seed_from(seed))`),
//! regardless of how many other requests were coalesced into the same
//! micro-batch. This holds because batched kernels are row-wise over
//! per-window rows with fixed accumulation order, pad slots contribute
//! exact zeros, and every window draws latents from its own rng stream
//! (`crates/check/tests/batch_equivalence.rs` pins the kernel-level
//! identity; `tests/serve.rs` pins it end-to-end through this server).
//!
//! Mixed `k` inside one batch is handled by one `sample` call that
//! encodes the batch once and runs `max(k)` batched sample passes, each
//! request keeping its first `k` modes — per-window rng streams make the
//! extra draws invisible to neighbors.
//!
//! ## Architecture
//!
//! ```text
//! accept threads ──decode──▶ bounded queue ──▶ batcher thread
//!      │ 400/413/408/503             │               │ coalesce ≤ batch window
//!      ▼                            ▼               ▼ chunk ≤ MAX_WINDOWS_PER_JOB
//!   error response            503 when full    WorkerPool::map(sample)
//!                                                   │
//!                                                   ▼ batcher writes responses
//! ```
//!
//! * **Admission**: the queue is bounded (`queue_cap`); a full queue
//!   answers `503` with a structured JSON error immediately — shed load
//!   at the door, never inside the model.
//! * **Micro-batching**: the batcher waits up to `batch_window_us` from
//!   the first queued request (flushing early once a full job of
//!   [`MAX_WINDOWS_PER_JOB`] windows is waiting), then drains everything
//!   and chunks it into jobs in arrival order.
//! * **Deadlines**: a request older than `deadline_ms` at batch-formation
//!   time gets `504` instead of occupying model capacity.
//! * **Hot reload**: the model lives behind `RwLock<Arc<ModelInner>>`;
//!   each batch cycle clones the inner `Arc` once, so a concurrent
//!   `POST /reload` swap can never expose a torn model — every response
//!   is computed entirely by one (checkpoint, version) pair.

pub mod codec;

use adaptraj_data::batch::{WindowBatch, MAX_WINDOWS_PER_JOB};
use adaptraj_data::trajectory::Point;
use adaptraj_exec::WorkerPool;
use adaptraj_models::predictor::Predictor;
use adaptraj_obs::http::{read_request, write_error, write_json_error, write_response, HttpLimits};
use adaptraj_obs::json::{Obj, Value};
use adaptraj_obs::metrics;
use adaptraj_obs::serve::render_prometheus;
use adaptraj_tensor::rng::Rng;
use codec::PredictRequest;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration; every knob has a CLI flag on `adaptraj serve`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port
    /// ([`PredictServer::local_addr`] reports it).
    pub addr: String,
    /// Concurrent accept/parse threads.
    pub accept_threads: usize,
    /// Worker threads for batched model execution.
    pub workers: usize,
    /// Coalescing window: how long the batcher waits after the first
    /// queued request for more requests to share the batch.
    pub batch_window_us: u64,
    /// Bounded admission queue; a full queue answers `503`.
    pub queue_cap: usize,
    /// Per-request deadline from admission; exceeded → `504`.
    pub deadline_ms: u64,
    /// Request body size cap (`413` beyond it).
    pub max_body_bytes: usize,
    /// Per-connection read deadline (`408` for stalled peers).
    pub read_deadline_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            accept_threads: 2,
            workers: 2,
            batch_window_us: 2000,
            queue_cap: 256,
            deadline_ms: 2000,
            max_body_bytes: 1024 * 1024,
            read_deadline_ms: 2000,
        }
    }
}

/// Reload hook: maps a checkpoint path to a freshly built predictor with
/// those parameters loaded. Supplied by the CLI (which knows the
/// backbone/method spec); absent in tests that don't exercise reload.
pub type Loader = Box<dyn Fn(&str) -> Result<Box<dyn Predictor>, String> + Send + Sync>;

/// The immutable unit of hot swap: one predictor at one version. Batch
/// cycles and probes clone the `Arc` once and use only that snapshot.
struct ModelInner {
    predictor: Box<dyn Predictor>,
    name: String,
    version: u64,
    checkpoint: Option<String>,
}

/// One admitted request parked in the queue with its reply stream.
struct Pending {
    request: PredictRequest,
    stream: TcpStream,
    enqueued: Instant,
    deadline: Instant,
}

struct Shared {
    cfg: ServeConfig,
    addr: SocketAddr,
    queue: Mutex<VecDeque<Pending>>,
    queue_cv: Condvar,
    stop: AtomicBool,
    model: RwLock<Arc<ModelInner>>,
    loader: Option<Loader>,
    next_id: AtomicU64,
}

impl Shared {
    fn trigger_stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue_cv.notify_all();
        // Wake every accept thread blocked in accept() with throwaway
        // connections (same pattern as TelemetryServer).
        for _ in 0..self.cfg.accept_threads {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// Handle to a running inference server. Dropping it (or calling
/// [`stop`](PredictServer::stop)) shuts everything down.
pub struct PredictServer {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl PredictServer {
    /// Binds `cfg.addr` and starts the accept threads, the batcher, and
    /// the execution pool. `predictor` is the initial model (version 1);
    /// `loader` enables `POST /reload`.
    pub fn start(
        cfg: ServeConfig,
        predictor: Box<dyn Predictor>,
        checkpoint: Option<String>,
        loader: Option<Loader>,
    ) -> std::io::Result<PredictServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let name = predictor.name();
        let shared = Arc::new(Shared {
            addr,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            model: RwLock::new(Arc::new(ModelInner {
                predictor,
                name,
                version: 1,
                checkpoint,
            })),
            loader,
            next_id: AtomicU64::new(1),
            cfg,
        });

        let mut handles = Vec::new();
        for i in 0..shared.cfg.accept_threads.max(1) {
            let listener = listener.try_clone()?;
            let sh = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-accept-{i}"))
                    .spawn(move || accept_loop(listener, &sh))?,
            );
        }
        let sh = Arc::clone(&shared);
        handles.push(
            std::thread::Builder::new()
                .name("serve-batcher".into())
                .spawn(move || batcher_loop(&sh))?,
        );

        Ok(PredictServer { shared, handles })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current model version (starts at 1, bumped by each reload).
    pub fn model_version(&self) -> u64 {
        self.shared.model.read().unwrap().version
    }

    /// Stops the server and joins all threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Blocks until the server stops (e.g. via `POST /shutdown`).
    pub fn wait(mut self) {
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    fn shutdown(&mut self) {
        self.shared.trigger_stop();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for PredictServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, sh: &Shared) {
    for conn in listener.incoming() {
        if sh.stop.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(stream) = conn {
            handle_conn(stream, sh);
        }
    }
}

/// Reads, routes, and either answers inline (probes, errors, admin) or
/// parks the request in the batch queue (`/v1/predict` — the batcher
/// answers those).
fn handle_conn(mut stream: TcpStream, sh: &Shared) {
    let limits = HttpLimits {
        max_body_bytes: sh.cfg.max_body_bytes,
        read_deadline: Duration::from_millis(sh.cfg.read_deadline_ms),
        ..HttpLimits::default()
    };
    let req = match read_request(&mut stream, &limits) {
        Ok(req) => req,
        Err(e) => {
            write_error(&mut stream, &e);
            return;
        }
    };

    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/predict") => handle_predict(stream, sh, &req.body),
        ("GET", "/healthz") => {
            let model = sh.model.read().unwrap().clone();
            let depth = sh.queue.lock().unwrap().len();
            let body = Obj::new()
                .str("status", "ok")
                .str("model", &model.name)
                .u64("version", model.version)
                .u64("queue_depth", depth as u64)
                .finish();
            write_response(
                &mut stream,
                "200 OK",
                "application/json; charset=utf-8",
                body.as_bytes(),
            );
        }
        ("GET", "/metrics") => {
            let body = render_prometheus(metrics::global());
            write_response(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                body.as_bytes(),
            );
        }
        ("POST", "/reload") => handle_reload(stream, sh, &req.body),
        ("POST", "/shutdown") => {
            write_response(
                &mut stream,
                "200 OK",
                "application/json; charset=utf-8",
                b"{\"ok\":true}",
            );
            sh.trigger_stop();
        }
        ("GET", "/") => {
            write_response(
                &mut stream,
                "200 OK",
                "text/plain; charset=utf-8",
                b"adaptraj serve\nroutes: POST /v1/predict | GET /healthz | GET /metrics | POST /reload | POST /shutdown\n",
            );
        }
        (_, "/v1/predict" | "/reload" | "/shutdown") => {
            write_json_error(
                &mut stream,
                "405 Method Not Allowed",
                "method_not_allowed",
                "use POST for this route",
            );
        }
        _ => {
            write_json_error(&mut stream, "404 Not Found", "not_found", "unknown route");
        }
    }
}

/// Decodes and admits one predict request; on success the stream moves
/// into the queue and the batcher owns the response.
fn handle_predict(mut stream: TcpStream, sh: &Shared, body: &[u8]) {
    metrics::global().counter("serve.requests_total").incr();
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => {
            write_json_error(
                &mut stream,
                "400 Bad Request",
                "invalid_json",
                "body is not UTF-8",
            );
            return;
        }
    };
    let request = match codec::decode_request(text) {
        Ok(r) => r,
        Err(e) => {
            metrics::global().counter("serve.bad_request_total").incr();
            write_json_error(&mut stream, "400 Bad Request", e.code, &e.message);
            return;
        }
    };

    let now = Instant::now();
    let pending = Pending {
        request,
        stream,
        enqueued: now,
        deadline: now + Duration::from_millis(sh.cfg.deadline_ms),
    };
    let mut q = sh.queue.lock().unwrap();
    if q.len() >= sh.cfg.queue_cap || sh.stop.load(Ordering::SeqCst) {
        drop(q);
        metrics::global().counter("serve.rejected_total").incr();
        let mut stream = pending.stream;
        write_json_error(
            &mut stream,
            "503 Service Unavailable",
            "overloaded",
            "admission queue is full, retry with backoff",
        );
        return;
    }
    q.push_back(pending);
    metrics::global()
        .gauge("serve.queue_depth")
        .set(q.len() as f64);
    drop(q);
    sh.queue_cv.notify_one();
}

fn handle_reload(mut stream: TcpStream, sh: &Shared, body: &[u8]) {
    let Some(loader) = &sh.loader else {
        write_json_error(
            &mut stream,
            "400 Bad Request",
            "reload_unavailable",
            "server was started without a checkpoint loader",
        );
        return;
    };
    // Optional body: {"checkpoint": "path"}; default re-reads the
    // current checkpoint path.
    let requested = std::str::from_utf8(body)
        .ok()
        .filter(|t| !t.trim().is_empty())
        .and_then(|t| Value::parse(t).ok())
        .and_then(|v| {
            v.get("checkpoint")
                .and_then(|c| c.as_str().map(String::from))
        });
    let checkpoint = match requested.or_else(|| sh.model.read().unwrap().checkpoint.clone()) {
        Some(c) => c,
        None => {
            write_json_error(
                &mut stream,
                "400 Bad Request",
                "invalid_request",
                "no checkpoint path: pass {\"checkpoint\": \"...\"} or start with --checkpoint",
            );
            return;
        }
    };
    match loader(&checkpoint) {
        Ok(predictor) => {
            let name = predictor.name();
            let mut slot = sh.model.write().unwrap();
            let version = slot.version + 1;
            *slot = Arc::new(ModelInner {
                predictor,
                name: name.clone(),
                version,
                checkpoint: Some(checkpoint.clone()),
            });
            drop(slot);
            metrics::global().counter("serve.reloads_total").incr();
            let body = Obj::new()
                .bool("ok", true)
                .str("model", &name)
                .u64("version", version)
                .str("checkpoint", &checkpoint)
                .finish();
            write_response(
                &mut stream,
                "200 OK",
                "application/json; charset=utf-8",
                body.as_bytes(),
            );
        }
        Err(msg) => {
            // The old model keeps serving; a bad checkpoint is a no-op.
            metrics::global()
                .counter("serve.reload_failed_total")
                .incr();
            write_json_error(&mut stream, "400 Bad Request", "reload_failed", &msg);
        }
    }
}

/// The coalescing loop: sleep until work arrives, give followers up to
/// `batch_window_us` to join (early-flush at a full job), then drain and
/// execute everything queued.
fn batcher_loop(sh: &Shared) {
    let pool = WorkerPool::new(sh.cfg.workers.max(1));
    loop {
        let mut q = sh.queue.lock().unwrap();
        while q.is_empty() && !sh.stop.load(Ordering::SeqCst) {
            q = sh.queue_cv.wait(q).unwrap();
        }
        if sh.stop.load(Ordering::SeqCst) && q.is_empty() {
            return;
        }

        // Coalescing window, anchored at the first request's arrival.
        let window_end = q.front().map(|p| p.enqueued).unwrap_or_else(Instant::now)
            + Duration::from_micros(sh.cfg.batch_window_us);
        while q.len() < MAX_WINDOWS_PER_JOB && !sh.stop.load(Ordering::SeqCst) {
            let Some(remaining) = window_end.checked_duration_since(Instant::now()) else {
                break;
            };
            let (guard, timeout) = sh.queue_cv.wait_timeout(q, remaining).unwrap();
            q = guard;
            if timeout.timed_out() {
                break;
            }
        }

        let pending: Vec<Pending> = q.drain(..).collect();
        metrics::global().gauge("serve.queue_depth").set(0.0);
        drop(q);
        execute_batch(sh, &pool, pending);

        if sh.stop.load(Ordering::SeqCst) {
            // Drain any stragglers admitted during the last cycle.
            let rest: Vec<Pending> = sh.queue.lock().unwrap().drain(..).collect();
            for mut p in rest {
                write_json_error(
                    &mut p.stream,
                    "503 Service Unavailable",
                    "shutting_down",
                    "server is shutting down",
                );
            }
            return;
        }
    }
}

/// Runs one drained batch: expire deadlines, chunk into jobs, execute on
/// the pool against a single model snapshot, write every response.
fn execute_batch(sh: &Shared, pool: &WorkerPool, pending: Vec<Pending>) {
    let now = Instant::now();
    let mut live: Vec<Pending> = Vec::with_capacity(pending.len());
    for mut p in pending {
        if now > p.deadline {
            metrics::global()
                .counter("serve.deadline_expired_total")
                .incr();
            write_json_error(
                &mut p.stream,
                "504 Gateway Timeout",
                "deadline_exceeded",
                "request exceeded its deadline before execution",
            );
        } else {
            live.push(p);
        }
    }
    if live.is_empty() {
        return;
    }

    // One snapshot per cycle: a concurrent /reload swap cannot tear a
    // batch — every window in it runs on this (version, params) pair.
    let model = sh.model.read().unwrap().clone();
    let jobs: Vec<Vec<Pending>> = chunk_jobs(live);
    let exec_start = Instant::now();
    let results = pool.map(&jobs, |_, chunk| {
        run_job(model.predictor.as_ref(), chunk, sh)
    });
    let exec_ms = exec_start.elapsed().as_secs_f64() * 1e3;
    metrics::global().histogram("serve.exec_ms").record(exec_ms);

    match results {
        Ok(per_job) => {
            for (mut chunk, modes_per_window) in jobs.into_iter().zip(per_job) {
                let batch_windows = chunk.len();
                metrics::global()
                    .histogram("serve.batch_windows")
                    .record(batch_windows as f64);
                for (p, modes) in chunk.iter_mut().zip(modes_per_window) {
                    let queue_ms = (exec_start - p.enqueued).as_secs_f64() * 1e3;
                    metrics::global()
                        .histogram("serve.queue_ms")
                        .record(queue_ms);
                    let body = codec::encode_response(
                        &model.name,
                        model.version,
                        p.request.seed,
                        &modes,
                        batch_windows,
                        queue_ms,
                        exec_ms,
                    );
                    metrics::global().counter("serve.responses_ok_total").incr();
                    write_response(
                        &mut p.stream,
                        "200 OK",
                        "application/json; charset=utf-8",
                        body.as_bytes(),
                    );
                }
            }
        }
        Err(e) => {
            // A panicked job fails the whole cycle loudly (it should be
            // impossible for validated input); every waiter gets a 500.
            metrics::global()
                .counter("serve.internal_error_total")
                .incr();
            let msg = format!("batched execution failed: {e}");
            for mut chunk in jobs {
                for p in chunk.iter_mut() {
                    write_json_error(&mut p.stream, "500 Internal Server Error", "internal", &msg);
                }
            }
        }
    }
}

/// Splits admitted requests into jobs of at most [`MAX_WINDOWS_PER_JOB`]
/// windows, preserving arrival order.
fn chunk_jobs(live: Vec<Pending>) -> Vec<Vec<Pending>> {
    let mut jobs: Vec<Vec<Pending>> = Vec::new();
    for p in live {
        match jobs.last_mut() {
            Some(job) if job.len() < MAX_WINDOWS_PER_JOB => job.push(p),
            _ => jobs.push(vec![p]),
        }
    }
    jobs
}

/// Executes one job: one [`Predictor::sample`] call that encodes the
/// chunk's windows once and runs `kmax` batched sample passes over them,
/// each request keeping its first `k` modes. Per-window rng streams
/// seeded from each request's seed make the result bit-identical to
/// `predict_k(window, k, Rng::seed_from(seed))` offline.
fn run_job(predictor: &dyn Predictor, chunk: &[Pending], sh: &Shared) -> Vec<Vec<Vec<Point>>> {
    let ids: Vec<u64> = chunk
        .iter()
        .map(|_| sh.next_id.fetch_add(1, Ordering::Relaxed))
        .collect();
    let windows: Vec<&adaptraj_data::trajectory::TrajWindow> =
        chunk.iter().map(|p| &p.request.window).collect();
    let batch = WindowBatch::new(windows, ids);
    let mut rngs: Vec<Rng> = chunk
        .iter()
        .map(|p| Rng::seed_from(p.request.seed))
        .collect();
    let kmax = chunk.iter().map(|p| p.request.k).max().unwrap_or(1);
    let mut modes = predictor.sample(&batch, &mut rngs, kmax);
    for (m, p) in modes.iter_mut().zip(chunk) {
        m.truncate(p.request.k);
    }
    modes
}
