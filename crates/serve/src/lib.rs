//! # adaptraj-serve
//!
//! Production inference service: a zero-dependency HTTP/JSON server that
//! runs in-flight predict requests on the batched execution path
//! (`Predictor::sample` over [`WindowBatch`]es) on a fixed set of exec
//! worker threads.
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
//! adaptraj_obs::http::Server (accept threads, route table, 400/413/408/404/405)
//!      │ POST /v1/predict: decode ──▶ bounded queue ──▶ exec workers (serve-exec-{i})
//!      │ 400 / 503                         │               │ take ≤ MAX_WINDOWS_PER_JOB
//!      ▼                                   ▼               ▼ from the front, run sample
//!   error response                  503 when full    worker answers each Responder
//! ```
//!
//! The server is `POST /v1/predict`, `GET /healthz`, `POST /reload` and
//! `POST /shutdown` mounted with the shared telemetry routes
//! ([`adaptraj_obs::serve::telemetry_routes`]) on the workspace's one
//! HTTP server, [`adaptraj_obs::http::Server`].
//!
//! * **Admission**: the queue is bounded (`queue_cap`); a full queue
//!   answers `503` with a structured JSON error immediately — shed load
//!   at the door, never inside the model.
//! * **Work-conserving batching**: an idle worker takes what is queued at
//!   once, up to [`MAX_WINDOWS_PER_JOB`] requests in arrival order, with
//!   no timed wait. Requests coalesce only while every worker is busy,
//!   and the next job forms while the current one executes.
//! * **Deadlines**: a request older than `deadline_ms` when a worker
//!   takes it gets `504` instead of occupying model capacity.
//! * **Failures**: a panicking job answers `500` to its own requests only.
//!   After `POST /shutdown` late arrivals get `503 shutting_down`; the
//!   workers still answer everything already queued.
//! * **Hot reload**: the model lives behind `RwLock<Arc<ModelInner>>`;
//!   each job clones the inner `Arc` once, so a concurrent
//!   `POST /reload` swap can never expose a torn model — every response
//!   is computed entirely by one (checkpoint, version) pair.
//! * **Request ids**: each response carries its `request_id`; a job runs
//!   inside a `serve_exec` span whose `request` argument is its first id.

pub mod codec;

use adaptraj_data::batch::{WindowBatch, MAX_WINDOWS_PER_JOB};
use adaptraj_data::trajectory::Point;
use adaptraj_models::predictor::Predictor;
use adaptraj_obs::http::{HttpLimits, Request, Responder, Routes, Server, StopHandle};
use adaptraj_obs::json::{Obj, Value};
use adaptraj_obs::metrics;
use adaptraj_obs::serve::telemetry_routes;
use adaptraj_tensor::rng::Rng;
use codec::PredictRequest;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration. Every knob but `read_deadline_ms` has a CLI
/// flag on `adaptraj serve`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port
    /// ([`PredictServer::local_addr`] reports it).
    pub addr: String,
    /// Concurrent accept/parse threads.
    pub accept_threads: usize,
    /// Exec worker threads; each runs one job of up to
    /// [`MAX_WINDOWS_PER_JOB`] queued requests at a time.
    pub workers: usize,
    /// Bounded admission queue; a full queue answers `503`.
    pub queue_cap: usize,
    /// Per-request deadline from admission; exceeded → `504`.
    pub deadline_ms: u64,
    /// Per-connection read deadline (`408` for stalled peers).
    pub read_deadline_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            accept_threads: 2,
            workers: 2,
            queue_cap: 256,
            deadline_ms: 2000,
            read_deadline_ms: 2000,
        }
    }
}

/// Reload hook: maps a checkpoint path to a freshly built predictor with
/// those parameters loaded. Supplied by the CLI (which knows the
/// backbone/method spec); absent in tests that don't exercise reload.
pub type Loader = Box<dyn Fn(&str) -> Result<Box<dyn Predictor>, String> + Send + Sync>;

/// The immutable unit of hot swap: one predictor at one version. Jobs
/// and probes clone the `Arc` once and use only that snapshot.
struct ModelInner {
    predictor: Box<dyn Predictor>,
    name: String,
    version: u64,
    checkpoint: Option<String>,
}

/// One admitted request parked in the queue with its reply.
struct Pending {
    request: PredictRequest,
    responder: Responder,
    enqueued: Instant,
    deadline: Instant,
}

struct Shared {
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Pending>>,
    queue_cv: Condvar,
    stop: StopHandle,
    model: RwLock<Arc<ModelInner>>,
    loader: Option<Loader>,
    next_id: AtomicU64,
}

impl Shared {
    /// Stops the accept threads and wakes the exec workers (under the
    /// queue lock, so a worker between its stop check and its wait cannot
    /// miss it).
    fn trigger_stop(&self) {
        self.stop.stop();
        drop(self.queue.lock().unwrap());
        self.queue_cv.notify_all();
    }
}

/// Handle to a running inference server. Dropping it (or calling
/// [`stop`](PredictServer::stop)) shuts everything down.
pub struct PredictServer {
    shared: Arc<Shared>,
    server: Server,
    workers: Vec<JoinHandle<()>>,
}

impl PredictServer {
    /// Binds `cfg.addr` and starts the accept threads and the exec
    /// workers. `predictor` is the initial model (version 1);
    /// `loader` enables `POST /reload`.
    pub fn start(
        cfg: ServeConfig,
        predictor: Box<dyn Predictor>,
        checkpoint: Option<String>,
        loader: Option<Loader>,
    ) -> std::io::Result<PredictServer> {
        let server = Server::bind(&cfg.addr)?;
        let limits = HttpLimits {
            read_deadline: Duration::from_millis(cfg.read_deadline_ms),
            ..HttpLimits::default()
        };
        let model = ModelInner {
            name: predictor.name(),
            predictor,
            version: 1,
            checkpoint,
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stop: server.stop_handle(),
            model: RwLock::new(Arc::new(model)),
            loader,
            next_id: AtomicU64::new(1),
            cfg,
        });
        let with = |handler: fn(&Shared, Request, Responder)| {
            let sh = Arc::clone(&shared);
            move |req, r| handler(&sh, req, r)
        };
        let routes = Routes::default()
            .route("POST", "/v1/predict", with(handle_predict))
            .route("GET", "/healthz", with(handle_healthz))
            .route("POST", "/reload", with(handle_reload))
            .route("POST", "/shutdown", with(handle_shutdown))
            .mount(telemetry_routes());
        let server = server.serve("serve-accept", shared.cfg.accept_threads, limits, routes)?;
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-exec-{i}"))
                    .spawn(move || exec_loop(&sh))
            })
            .collect::<std::io::Result<_>>()
            // Workers already started exit once they see the stop.
            .inspect_err(|_| shared.trigger_stop())?;
        Ok(PredictServer {
            shared,
            server,
            workers,
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The mounted routes, e.g. `POST /v1/predict, GET /healthz`.
    pub fn routes(&self) -> &str {
        self.server.routes()
    }

    /// Current model version (starts at 1, bumped by each reload).
    pub fn model_version(&self) -> u64 {
        self.shared.model.read().unwrap().version
    }

    /// Stops the server and joins all threads.
    pub fn stop(self) {}

    /// Blocks until the server stops (e.g. via `POST /shutdown`).
    pub fn wait(mut self) {
        self.server.wait();
    }
}

impl Drop for PredictServer {
    fn drop(&mut self) {
        self.shared.trigger_stop();
        self.server.wait();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn handle_healthz(sh: &Shared, _: Request, responder: Responder) {
    let model = sh.model.read().unwrap().clone();
    let depth = sh.queue.lock().unwrap().len();
    let body = Obj::new()
        .str("status", "ok")
        .str("model", &model.name)
        .u64("version", model.version)
        .u64("queue_depth", depth as u64);
    responder.json(&body.finish());
}

fn handle_shutdown(sh: &Shared, _: Request, responder: Responder) {
    responder.json("{\"ok\":true}");
    sh.trigger_stop();
}

const BAD_REQUEST: &str = "400 Bad Request";
const UNAVAILABLE: &str = "503 Service Unavailable";

/// Decodes and admits one predict request; on success the responder
/// moves into the queue and the exec worker that takes it answers.
fn handle_predict(sh: &Shared, req: Request, responder: Responder) {
    metrics::global().counter("serve.requests_total").incr();
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return responder.error(BAD_REQUEST, "invalid_json", "body is not UTF-8");
    };
    let request = match codec::decode_request(text) {
        Ok(r) => r,
        Err(e) => {
            metrics::global().counter("serve.bad_request_total").incr();
            return responder.error(BAD_REQUEST, e.code, &e.message);
        }
    };
    let mut q = sh.queue.lock().unwrap();
    // Checked under the queue lock: the workers drain the queue once
    // stopped, so nothing admitted here can be left unanswered.
    if sh.stop.is_stopped() {
        drop(q);
        return responder.error(UNAVAILABLE, "shutting_down", "server is shutting down");
    }
    if q.len() >= sh.cfg.queue_cap {
        drop(q);
        metrics::global().counter("serve.rejected_total").incr();
        let message = "admission queue is full, retry with backoff";
        return responder.error(UNAVAILABLE, "overloaded", message);
    }
    let now = Instant::now();
    q.push_back(Pending {
        request,
        responder,
        enqueued: now,
        deadline: now + Duration::from_millis(sh.cfg.deadline_ms),
    });
    metrics::global()
        .gauge("serve.queue_depth")
        .set(q.len() as f64);
    drop(q);
    sh.queue_cv.notify_one();
}

/// Swaps in the checkpoint named by the optional body `{"checkpoint":
/// "path"}` (default: the current one); a failed load changes nothing.
fn handle_reload(sh: &Shared, req: Request, responder: Responder) {
    let Some(loader) = &sh.loader else {
        let message = "server was started without a checkpoint loader";
        return responder.error(BAD_REQUEST, "reload_unavailable", message);
    };
    let requested = std::str::from_utf8(&req.body)
        .ok()
        .and_then(|t| Value::parse(t).ok())
        .and_then(|v| v.get("checkpoint")?.as_str().map(String::from));
    let Some(checkpoint) = requested.or_else(|| sh.model.read().unwrap().checkpoint.clone()) else {
        let message =
            "no checkpoint path: pass {\"checkpoint\": \"...\"} or start with --checkpoint";
        return responder.error(BAD_REQUEST, "invalid_request", message);
    };
    let predictor = match loader(&checkpoint) {
        Ok(predictor) => predictor,
        Err(msg) => {
            metrics::global()
                .counter("serve.reload_failed_total")
                .incr();
            return responder.error(BAD_REQUEST, "reload_failed", &msg);
        }
    };
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
        .str("checkpoint", &checkpoint);
    responder.json(&body.finish());
}

/// One exec worker: sleep until requests are queued, take a job from the
/// front, run it, repeat. Once stopped it keeps taking jobs until the
/// queue is empty, so every admitted request is answered.
fn exec_loop(sh: &Shared) {
    loop {
        let mut q = sh.queue.lock().unwrap();
        while q.is_empty() && !sh.stop.is_stopped() {
            q = sh.queue_cv.wait(q).unwrap();
        }
        if q.is_empty() {
            return;
        }
        let job = take_job(&mut q);
        metrics::global()
            .gauge("serve.queue_depth")
            .set(q.len() as f64);
        if !q.is_empty() {
            // Hand the rest to an idle worker, if there is one.
            sh.queue_cv.notify_one();
        }
        drop(q);
        // One snapshot per job: a concurrent /reload swap cannot tear a
        // job — every window in it runs on this (version, params) pair.
        let model = sh.model.read().unwrap().clone();
        execute_job(&model, &sh.next_id, job);
    }
}

/// Takes up to [`MAX_WINDOWS_PER_JOB`] requests from the front of the
/// queue, in arrival order. Requests coalesce only while they wait,
/// that is while every worker is busy.
fn take_job(q: &mut VecDeque<Pending>) -> Vec<Pending> {
    let n = q.len().min(MAX_WINDOWS_PER_JOB);
    q.drain(..n).collect()
}

/// Runs one job against `model` and answers every request in it: expired
/// requests get `504`, a job that panics answers `500` to all of its
/// requests, the rest get their modes.
fn execute_job(model: &ModelInner, next_id: &AtomicU64, job: Vec<Pending>) {
    let now = Instant::now();
    let (live, expired): (Vec<Pending>, Vec<Pending>) =
        job.into_iter().partition(|p| now <= p.deadline);
    for p in expired {
        metrics::global()
            .counter("serve.deadline_expired_total")
            .incr();
        let message = "request exceeded its deadline before execution";
        p.responder
            .error("504 Gateway Timeout", "deadline_exceeded", message);
    }
    if live.is_empty() {
        return;
    }

    let first_id = next_id.fetch_add(live.len() as u64, Ordering::Relaxed);
    let exec_start = Instant::now();
    let result = {
        let _span = adaptraj_obs::span("serve_exec").arg("request", first_id);
        run_job(model.predictor.as_ref(), &live, first_id)
    };
    let exec_ms = exec_start.elapsed().as_secs_f64() * 1e3;
    metrics::global().histogram("serve.exec_ms").record(exec_ms);

    let modes_per_window = match result {
        Ok(modes) => modes,
        Err(msg) => {
            metrics::global()
                .counter("serve.internal_error_total")
                .incr();
            let msg = format!("batched execution failed: {msg}");
            for p in live {
                p.responder
                    .error("500 Internal Server Error", "internal", &msg);
            }
            return;
        }
    };
    let batch_windows = live.len();
    metrics::global()
        .histogram("serve.batch_windows")
        .record(batch_windows as f64);
    for ((p, modes), id) in live.into_iter().zip(modes_per_window).zip(first_id..) {
        let queue_ms = (exec_start - p.enqueued).as_secs_f64() * 1e3;
        metrics::global()
            .histogram("serve.queue_ms")
            .record(queue_ms);
        let body = codec::encode_response_with_id(
            id,
            &model.name,
            model.version,
            p.request.seed,
            &modes,
            batch_windows,
            queue_ms,
            exec_ms,
        );
        metrics::global().counter("serve.responses_ok_total").incr();
        p.responder.json(&body);
    }
}

/// Executes one job: one [`Predictor::sample`] call that encodes the
/// job's windows once and runs `kmax` batched sample passes over them,
/// each request keeping its first `k` modes. Window `i` carries request
/// id `first_id + i`. Per-window rng streams seeded from each request's
/// seed make the result bit-identical to
/// `predict_k(window, k, Rng::seed_from(seed))` offline. A panic becomes
/// this job's `Err`.
fn run_job(
    predictor: &dyn Predictor,
    job: &[Pending],
    first_id: u64,
) -> Result<Vec<Vec<Vec<Point>>>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let ids: Vec<u64> = (first_id..).take(job.len()).collect();
        let windows: Vec<&adaptraj_data::trajectory::TrajWindow> =
            job.iter().map(|p| &p.request.window).collect();
        let batch = WindowBatch::new(windows, ids);
        let mut rngs: Vec<Rng> = job.iter().map(|p| Rng::seed_from(p.request.seed)).collect();
        let kmax = job.iter().map(|p| p.request.k).max().unwrap_or(1);
        let mut modes = predictor.sample(&batch, &mut rngs, kmax);
        for (m, p) in modes.iter_mut().zip(job) {
            m.truncate(p.request.k);
        }
        modes
    }))
    .map_err(adaptraj_exec::panic_message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptraj_data::dataset::{synthesize_domain, SynthesisConfig};
    use adaptraj_data::domain::DomainId;
    use adaptraj_data::trajectory::TrajWindow;
    use adaptraj_models::predictor::TrainReport;
    use adaptraj_models::{BackboneConfig, PecNet, TrainerConfig, Vanilla};
    use adaptraj_tensor::ParamStore;
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};

    /// A real predictor that panics on any batch holding a window whose
    /// origin is [`MARK`].
    struct PanicsOnMark(Vanilla<PecNet>);

    const MARK: Point = [-777.0, -777.0];

    impl Predictor for PanicsOnMark {
        fn name(&self) -> String {
            self.0.name()
        }
        fn fit(&mut self, _: &[TrajWindow]) -> TrainReport {
            unreachable!("serving never trains")
        }
        fn sample(
            &self,
            batch: &WindowBatch<'_>,
            rngs: &mut [Rng],
            k: usize,
        ) -> Vec<Vec<Vec<Point>>> {
            assert!(
                batch.windows().iter().all(|w| w.origin != MARK),
                "marked window"
            );
            self.0.sample(batch, rngs, k)
        }
        fn store(&self) -> &ParamStore {
            self.0.store()
        }
        fn store_mut(&mut self) -> &mut ParamStore {
            self.0.store_mut()
        }
    }

    fn bits(modes: &[Vec<Point>]) -> Vec<u32> {
        modes
            .iter()
            .flatten()
            .flat_map(|p| [p[0].to_bits(), p[1].to_bits()])
            .collect()
    }

    /// Nine queued requests form two jobs (8 + 1) through the workers'
    /// `take_job`; the one window of job 2 makes its job panic. Job 1
    /// still answers 200 with the offline bits, job 2 answers 500
    /// `internal`, and the failure counts once.
    #[test]
    fn a_panicking_job_fails_only_its_own_requests() {
        let mut windows: Vec<TrajWindow> =
            synthesize_domain(DomainId::EthUcy, &SynthesisConfig::smoke())
                .test
                .into_iter()
                .take(MAX_WINDOWS_PER_JOB + 1)
                .collect();
        assert_eq!(windows.len(), MAX_WINDOWS_PER_JOB + 1);
        windows[MAX_WINDOWS_PER_JOB].origin = MARK;
        let build = || {
            Vanilla::new(TrainerConfig::smoke(), |s, r| {
                PecNet::new(s, r, BackboneConfig::default())
            })
        };
        let model = ModelInner {
            predictor: Box::new(PanicsOnMark(build())),
            name: "test".into(),
            version: 1,
            checkpoint: None,
        };

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let now = Instant::now();
        let mut clients = Vec::new();
        let mut queue = VecDeque::new();
        for (i, window) in windows.iter().enumerate() {
            clients.push(TcpStream::connect(addr).unwrap());
            queue.push_back(Pending {
                request: PredictRequest {
                    window: window.clone(),
                    seed: 100 + i as u64,
                    k: 1 + i % 3,
                },
                responder: Responder::new(listener.accept().unwrap().0),
                enqueued: now,
                deadline: now + Duration::from_secs(60),
            });
        }

        let failed = metrics::global().counter("serve.internal_error_total");
        let failed_before = failed.get();
        let next_id = AtomicU64::new(1);
        while !queue.is_empty() {
            execute_job(&model, &next_id, take_job(&mut queue));
        }
        assert_eq!(failed.get(), failed_before + 1, "one failed job");

        let reference = build();
        for (i, mut client) in clients.into_iter().enumerate() {
            let mut response = String::new();
            client.read_to_string(&mut response).unwrap();
            let (head, body) = response.split_once("\r\n\r\n").unwrap();
            if i < MAX_WINDOWS_PER_JOB {
                assert!(
                    head.starts_with("HTTP/1.1 200 "),
                    "request {i}: {response:.200}"
                );
                let v = Value::parse(body).unwrap();
                let field = |k: &str| v.get(k).and_then(Value::as_u64);
                assert_eq!(field("batch_windows"), Some(MAX_WINDOWS_PER_JOB as u64));
                assert_eq!(field("request_id"), Some(1 + i as u64));
                let served = codec::decode_response_modes(body).expect("response modes");
                let expected = reference.predict_k(
                    &windows[i],
                    1 + i % 3,
                    &mut Rng::seed_from(100 + i as u64),
                );
                assert_eq!(
                    bits(&served),
                    bits(&expected),
                    "request {i}: served bits != offline"
                );
            } else {
                assert!(
                    head.starts_with("HTTP/1.1 500 "),
                    "request {i}: {response:.200}"
                );
                let code = Value::parse(body)
                    .ok()
                    .and_then(|v| v.get("error")?.get("code")?.as_str().map(String::from));
                assert_eq!(code.as_deref(), Some("internal"));
            }
        }
    }
}
