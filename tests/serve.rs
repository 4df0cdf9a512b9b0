//! Integration suite for the serving contract (`adaptraj-serve`): a
//! served prediction for a given scene + checkpoint + seed is
//! bit-identical to the offline eval path no matter how many other
//! requests were coalesced into the same micro-batch; coalescing
//! respects `MAX_WINDOWS_PER_JOB`; an idle exec worker is never held
//! back by a busy one; admission control answers a structured 503; a checkpoint hot-reload never serves a torn
//! model; and the failure paths — a wrong-architecture checkpoint on
//! reload, a client that hangs up mid-batch — leave the server healthy;
//! shutdown under load answers every client cleanly; the shared
//! telemetry routes are mounted on the predict port; and the `adaptraj
//! serve` binary serves a saved checkpoint as offline `predict_k` does.
//!
//! Every test starts its own server on an ephemeral port, so tests are
//! independent (the metrics registry is process-global but only ever
//! incremented, which no assertion here depends on). Tests that need
//! requests to wait in the queue park the exec workers inside `sample`
//! with a [`Gate`] instead of relying on timing.

use adaptraj::check::golden::{probe_modes, probe_window, PROBE_K, PROBE_SEED};
use adaptraj::data::batch::{WindowBatch, MAX_WINDOWS_PER_JOB};
use adaptraj::data::dataset::{synthesize_domain, SynthesisConfig};
use adaptraj::data::domain::DomainId;
use adaptraj::data::trajectory::{Point, TrajWindow};
use adaptraj::eval::{build_predictor, BackboneKind, CellSpec, MethodKind, RunnerConfig};
use adaptraj::models::{Predictor, TrainReport};
use adaptraj::obs::json::Value;
use adaptraj::serve::codec;
use adaptraj::serve::{PredictServer, ServeConfig};
use adaptraj::tensor::serialize::{load_params_from_file, save_params_to_file};
use adaptraj::tensor::{ParamStore, Rng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn spec() -> CellSpec {
    CellSpec {
        backbone: BackboneKind::PecNet,
        method: MethodKind::Vanilla,
        sources: vec![DomainId::EthUcy, DomainId::LCas],
        target: DomainId::Sdd,
    }
}

/// Deterministic predictor for a given init seed. No training: the
/// seeded init is deterministic, which is all bit-identity needs, and
/// it keeps the suite fast.
fn predictor_with_seed(seed: u64) -> Box<dyn Predictor> {
    let mut cfg = RunnerConfig::smoke();
    cfg.trainer.seed = seed;
    build_predictor(&spec(), &cfg)
}

/// The origin that marks a window for [`Gated`] to hold.
const MARK: Point = [-777.0, -777.0];

/// A gate the test opens: jobs holding a marked window wait at it inside
/// `sample`, which parks their exec worker for as long as the test
/// needs.
#[derive(Default)]
struct Gate {
    /// (jobs waiting at the gate, whether it is open)
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl Gate {
    /// Held jobs give up after this long, so a failing test cannot hang
    /// the server it drops.
    const HOLD_LIMIT: Duration = Duration::from_secs(20);

    fn hold(&self) {
        let mut s = self.state.lock().unwrap();
        s.0 += 1;
        self.cv.notify_all();
        let _ = self
            .cv
            .wait_timeout_while(s, Self::HOLD_LIMIT, |s| !s.1)
            .unwrap();
    }

    /// Waits until `n` jobs are held at the gate.
    fn await_held(&self, n: usize) {
        let s = self.state.lock().unwrap();
        let (s, timeout) = self
            .cv
            .wait_timeout_while(s, Duration::from_secs(10), |s| s.0 < n)
            .unwrap();
        assert!(!timeout.timed_out(), "{} of {n} jobs reached the gate", s.0);
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

/// A real predictor whose `sample` waits at the gate when its batch holds
/// a window with origin [`MARK`].
struct Gated {
    inner: Box<dyn Predictor>,
    gate: Arc<Gate>,
}

impl Predictor for Gated {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn fit(&mut self, _: &[TrajWindow]) -> TrainReport {
        unreachable!("serving never trains")
    }
    fn sample(&self, batch: &WindowBatch<'_>, rngs: &mut [Rng], k: usize) -> Vec<Vec<Vec<Point>>> {
        if batch.windows().iter().any(|w| w.origin == MARK) {
            self.gate.hold();
        }
        self.inner.sample(batch, rngs, k)
    }
    fn store(&self) -> &ParamStore {
        self.inner.store()
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        self.inner.store_mut()
    }
}

/// `predictor_with_seed(seed)` behind a closed gate.
fn gated_predictor(seed: u64) -> (Box<dyn Predictor>, Arc<Gate>) {
    let gate = Arc::new(Gate::default());
    let predictor = Gated {
        inner: predictor_with_seed(seed),
        gate: Arc::clone(&gate),
    };
    (Box::new(predictor), gate)
}

/// Parks `n` exec workers at the gate, one marked request each, and
/// returns the clients waiting for those requests' responses.
fn park_workers(addr: SocketAddr, gate: &Gate, n: usize) -> Vec<JoinHandle<(u16, String)>> {
    let mut scene = mixed_scenes().remove(0);
    scene.origin = MARK;
    let body = codec::encode_request(&scene, 1, 1);
    (1..=n)
        .map(|held| {
            let body = body.clone();
            let client = std::thread::spawn(move || http_post(addr, "/v1/predict", &body));
            gate.await_held(held);
            client
        })
        .collect()
}

/// Polls `/healthz` until the admission queue holds `depth` requests.
fn await_queue_depth(addr: SocketAddr, depth: u64) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(10) {
        let (_, health) = http_get(addr, "/healthz");
        let got = Value::parse(&health)
            .ok()
            .and_then(|v| v.get("queue_depth").and_then(Value::as_u64));
        if got == Some(depth) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// Mixed-domain probe scenes pulled from two synthesized test splits.
fn mixed_scenes() -> Vec<TrajWindow> {
    let synth = SynthesisConfig {
        scenes: 3,
        ..SynthesisConfig::smoke()
    };
    let mut scenes: Vec<TrajWindow> = Vec::new();
    for d in [DomainId::EthUcy, DomainId::Sdd] {
        scenes.extend(synthesize_domain(d, &synth).test.into_iter().take(6));
    }
    assert!(scenes.len() >= 8, "need at least 8 probe scenes");
    scenes
}

fn http_post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    http_post_within(addr, path, body, None)
}

/// [`http_post`] whose read fails the test once `timeout` passes.
fn http_post_within(
    addr: SocketAddr,
    path: &str,
    body: &str,
    timeout: Option<Duration>,
) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect serve endpoint");
    stream.set_read_timeout(timeout).unwrap();
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    let status: u16 = out
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {out:.120}"));
    let body = out.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect serve endpoint");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    let status: u16 = out
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {out:.120}"));
    let body = out.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

/// Exact f32 bit patterns of a mode set — the comparison currency for
/// the whole suite. Two prediction sets are "identical" only here.
fn bits(modes: &[Vec<Point>]) -> Vec<u32> {
    modes
        .iter()
        .flat_map(|m| m.iter().flat_map(|p| [p[0].to_bits(), p[1].to_bits()]))
        .collect()
}

/// The serving contract: responses under concurrent mixed-domain load
/// are bit-identical to the offline `predict_k` path, per request,
/// regardless of micro-batch composition.
#[test]
fn served_predictions_are_bit_identical_under_concurrent_load() {
    let scenes = Arc::new(mixed_scenes());
    let server = PredictServer::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 128,
            ..ServeConfig::default()
        },
        predictor_with_seed(41),
        None,
        None,
    )
    .expect("server start");
    let addr = server.local_addr();

    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 6;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let scenes = Arc::clone(&scenes);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut got = Vec::new();
                for i in 0..PER_CLIENT {
                    let scene_idx = (t * PER_CLIENT + i) % scenes.len();
                    let seed = 1000 + (t * 100 + i) as u64;
                    let k = 1 + i % 3;
                    let body = codec::encode_request(&scenes[scene_idx], seed, k);
                    let (status, resp) = http_post(addr, "/v1/predict", &body);
                    assert_eq!(status, 200, "client {t} req {i}: {resp:.200}");
                    let modes = codec::decode_response_modes(&resp).expect("response modes");
                    assert_eq!(modes.len(), k, "client {t} req {i} mode count");
                    got.push((scene_idx, seed, k, bits(&modes)));
                }
                got
            })
        })
        .collect();
    let responses: Vec<_> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    server.stop();

    // Offline reference: an identically-constructed predictor, one
    // fresh rng stream per request — the single-window eval path.
    let reference = predictor_with_seed(41);
    for (scene_idx, seed, k, served) in responses {
        let mut rng = Rng::seed_from(seed);
        let expected = reference.predict_k(&scenes[scene_idx], k, &mut rng);
        assert_eq!(
            served,
            bits(&expected),
            "scene {scene_idx} seed {seed} k {k}: served bits != offline bits"
        );
    }
}

fn batch_windows_of(resp: &str) -> u64 {
    Value::parse(resp)
        .expect("response json")
        .get("batch_windows")
        .and_then(|v| v.as_u64())
        .expect("batch_windows field")
}

/// The `error.code` of a structured error response.
fn error_code(resp: &str) -> Option<String> {
    let v = Value::parse(resp).ok()?;
    Some(v.get("error")?.get("code")?.as_str()?.to_string())
}

/// Coalescing behavior: an isolated request executes alone (B = 1); a
/// synchronized burst that queues behind a busy worker coalesces, and no
/// job ever exceeds `MAX_WINDOWS_PER_JOB`.
#[test]
fn lone_requests_run_alone_and_bursts_coalesce_within_the_job_cap() {
    let scenes = Arc::new(mixed_scenes());
    let (predictor, gate) = gated_predictor(42);
    let server = PredictServer::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_cap: 64,
            ..ServeConfig::default()
        },
        predictor,
        None,
        None,
    )
    .expect("server start");
    let addr = server.local_addr();

    let body = codec::encode_request(&scenes[0], 7, 1);
    let (status, resp) = http_post(addr, "/v1/predict", &body);
    assert_eq!(status, 200, "{resp:.200}");
    assert_eq!(batch_windows_of(&resp), 1, "lone request was batched");

    // The burst queues while the only worker is parked at the gate.
    let parked = park_workers(addr, &gate, 1);
    const BURST: usize = 8;
    let barrier = Arc::new(Barrier::new(BURST));
    let handles: Vec<_> = (0..BURST)
        .map(|t| {
            let scenes = Arc::clone(&scenes);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let body = codec::encode_request(&scenes[t % scenes.len()], 100 + t as u64, 1);
                barrier.wait();
                let (status, resp) = http_post(addr, "/v1/predict", &body);
                assert_eq!(status, 200, "{resp:.200}");
                batch_windows_of(&resp)
            })
        })
        .collect();
    let queued = await_queue_depth(addr, BURST as u64);
    gate.open();
    let sizes: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for client in parked {
        assert_eq!(client.join().unwrap().0, 200);
    }
    server.stop();
    assert!(queued, "the burst never queued behind the busy worker");

    assert!(
        sizes
            .iter()
            .all(|&b| b >= 1 && b <= MAX_WINDOWS_PER_JOB as u64),
        "job size out of bounds: {sizes:?}"
    );
    assert!(
        sizes.iter().any(|&b| b > 1),
        "a synchronized burst of {BURST} never coalesced: {sizes:?}"
    );
}

/// Work conservation: while request A holds one of two workers inside
/// `sample`, request B runs on the other at once and gets the offline
/// bits; A is answered after it is released, under a different id.
#[test]
fn an_idle_worker_is_never_held_back_by_a_busy_one() {
    let (predictor, gate) = gated_predictor(45);
    let server = PredictServer::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServeConfig::default()
        },
        predictor,
        None,
        None,
    )
    .expect("server start");
    let addr = server.local_addr();
    let mut parked = park_workers(addr, &gate, 1);

    let scene = mixed_scenes().remove(1);
    let body = codec::encode_request(&scene, 99, 2);
    let (status, resp) = http_post_within(addr, "/v1/predict", &body, Some(Duration::from_secs(5)));
    let a_still_held = !parked[0].is_finished();
    gate.open();
    let (a_status, a_resp) = parked.remove(0).join().unwrap();
    server.stop();

    assert_eq!(status, 200, "{resp:.200}");
    assert!(a_still_held, "B was answered only after A was released");
    let expected = predictor_with_seed(45).predict_k(&scene, 2, &mut Rng::seed_from(99));
    assert_eq!(
        bits(&codec::decode_response_modes(&resp).expect("response modes")),
        bits(&expected),
        "served bits != offline"
    );
    assert_eq!(a_status, 200, "{a_resp:.200}");
    let id = |r: &str| Value::parse(r).ok()?.get("request_id")?.as_u64();
    let (b_id, a_id) = (
        id(&resp).expect("B's request_id"),
        id(&a_resp).expect("A's request_id"),
    );
    assert_ne!(b_id, a_id, "two responses share a request id");
}

/// Admission control: once the bounded queue is full, further requests
/// get an immediate structured 503 while the admitted ones complete.
#[test]
fn queue_saturation_returns_a_structured_503() {
    let scenes = Arc::new(mixed_scenes());
    let (predictor, gate) = gated_predictor(43);
    let server = PredictServer::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_cap: 2,
            deadline_ms: 5000,
            ..ServeConfig::default()
        },
        predictor,
        None,
        None,
    )
    .expect("server start");
    let addr = server.local_addr();

    // With the only worker parked, admitted requests stay queued, so
    // every arrival past the second sees the queue full.
    let parked = park_workers(addr, &gate, 1);
    const CLIENTS: usize = 10;
    let answered = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let scenes = Arc::clone(&scenes);
            let barrier = Arc::clone(&barrier);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let body = codec::encode_request(&scenes[t % scenes.len()], t as u64, 1);
                barrier.wait();
                let response = http_post(addr, "/v1/predict", &body);
                answered.fetch_add(1, Ordering::Relaxed);
                response
            })
        })
        .collect();
    // Release the worker once every request but the two admitted ones
    // has its answer (or after 10 s; the assertions below say why).
    let t0 = Instant::now();
    while answered.load(Ordering::Relaxed) < CLIENTS - 2 && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
    gate.open();
    let responses: Vec<(u16, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for client in parked {
        assert_eq!(client.join().unwrap().0, 200);
    }
    server.stop();

    let ok = responses.iter().filter(|(s, _)| *s == 200).count();
    let rejected: Vec<&String> = responses
        .iter()
        .filter(|(s, _)| *s == 503)
        .map(|(_, b)| b)
        .collect();
    assert!(ok >= 1, "no request was admitted");
    assert!(
        !rejected.is_empty(),
        "queue_cap=2 with {CLIENTS} concurrent clients produced no 503"
    );
    assert_eq!(ok + rejected.len(), CLIENTS, "unexpected status mix");
    for body in rejected {
        assert_eq!(error_code(body).as_deref(), Some("overloaded"), "{body}");
    }
}

/// Serializes the in-process tests that move or read the process-global
/// `serve.reloads_total` counter.
static RELOADS: Mutex<()> = Mutex::new(());

/// Hot reload: while clients hammer the same scene + seed and the main
/// thread flips between two checkpoints, every single response matches
/// one checkpoint's predictions exactly — never a blend of both.
#[test]
fn hot_reload_never_serves_a_torn_model() {
    let _reloads = RELOADS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir();
    let ckpt_a = dir.join(format!("adaptraj_serve_a_{}.atps", std::process::id()));
    let ckpt_b = dir.join(format!("adaptraj_serve_b_{}.atps", std::process::id()));
    save_params_to_file(predictor_with_seed(7).store(), &ckpt_a).expect("write ckpt A");
    save_params_to_file(predictor_with_seed(8).store(), &ckpt_b).expect("write ckpt B");

    let scene = Arc::new(mixed_scenes().remove(0));
    const SEED: u64 = 555;
    const K: usize = 2;

    // Offline expectations for both checkpoints, via the eval path.
    let expected = |path: &std::path::Path| -> Vec<u32> {
        let mut p = predictor_with_seed(999); // seed irrelevant: overwritten by load
        load_params_from_file(p.store_mut(), path).expect("load ckpt");
        bits(&p.predict_k(&scene, K, &mut Rng::seed_from(SEED)))
    };
    let bits_a = expected(&ckpt_a);
    let bits_b = expected(&ckpt_b);
    assert_ne!(bits_a, bits_b, "checkpoints are indistinguishable");

    let mut initial = predictor_with_seed(999);
    load_params_from_file(initial.store_mut(), &ckpt_a).expect("load initial");
    let loader: adaptraj::serve::Loader = Box::new(move |path: &str| {
        let mut p = predictor_with_seed(999);
        load_params_from_file(p.store_mut(), path).map_err(|e| format!("{e:?}"))?;
        Ok(p)
    });
    let server = PredictServer::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 64,
            ..ServeConfig::default()
        },
        initial,
        Some(ckpt_a.to_string_lossy().into_owned()),
        Some(loader),
    )
    .expect("server start");
    let addr = server.local_addr();

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 20;
    let stop_flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let scene = Arc::clone(&scene);
            std::thread::spawn(move || {
                let body = codec::encode_request(&scene, SEED, K);
                let mut got = Vec::new();
                for _ in 0..PER_CLIENT {
                    let (status, resp) = http_post(addr, "/v1/predict", &body);
                    assert_eq!(status, 200, "{resp:.200}");
                    got.push(bits(
                        &codec::decode_response_modes(&resp).expect("response modes"),
                    ));
                }
                got
            })
        })
        .collect();

    // Flip checkpoints while the clients run.
    let reloader = {
        let stop_flag = Arc::clone(&stop_flag);
        let (a, b) = (
            ckpt_a.to_string_lossy().into_owned(),
            ckpt_b.to_string_lossy().into_owned(),
        );
        std::thread::spawn(move || {
            let mut flips = 0u64;
            while !stop_flag.load(std::sync::atomic::Ordering::Relaxed) {
                let target = if flips.is_multiple_of(2) { &b } else { &a };
                let (status, resp) =
                    http_post(addr, "/reload", &format!("{{\"checkpoint\":\"{target}\"}}"));
                assert_eq!(status, 200, "reload failed: {resp:.200}");
                flips += 1;
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            flips
        })
    };

    let responses: Vec<Vec<u32>> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    stop_flag.store(true, std::sync::atomic::Ordering::Relaxed);
    let flips = reloader.join().expect("reloader thread");
    let final_version = server.model_version();
    server.stop();
    std::fs::remove_file(&ckpt_a).ok();
    std::fs::remove_file(&ckpt_b).ok();

    assert!(flips >= 2, "reloader never exercised a flip");
    assert_eq!(final_version, 1 + flips, "each reload bumps the version");
    for (i, got) in responses.iter().enumerate() {
        assert!(
            *got == bits_a || *got == bits_b,
            "response {i} matches neither checkpoint — torn model \
             ({} responses total, {} flips)",
            responses.len(),
            flips
        );
    }
}

/// A checkpoint from another architecture (PECNet-AdapTraj parameters
/// offered to a PECNet-vanilla server) is refused with a structured 400,
/// counted, and changes nothing: same model version, same bits.
#[test]
fn reload_of_a_wrong_architecture_checkpoint_keeps_the_old_model() {
    let ckpt = std::env::temp_dir().join(format!(
        "adaptraj_serve_wrong_arch_{}.atps",
        std::process::id()
    ));
    let other = CellSpec {
        method: MethodKind::AdapTraj,
        ..spec()
    };
    save_params_to_file(
        build_predictor(&other, &RunnerConfig::smoke()).store(),
        &ckpt,
    )
    .expect("write wrong-architecture ckpt");
    let loader: adaptraj::serve::Loader = Box::new(|path: &str| {
        let mut p = predictor_with_seed(999);
        load_params_from_file(p.store_mut(), path).map_err(|e| format!("{e}"))?;
        Ok(p)
    });
    let server = PredictServer::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServeConfig::default()
        },
        predictor_with_seed(7),
        None,
        Some(loader),
    )
    .expect("server start");
    let addr = server.local_addr();
    let body = codec::encode_request(&mixed_scenes()[0], 555, 2);
    let predict = || {
        let (status, resp) = http_post(addr, "/v1/predict", &body);
        assert_eq!(status, 200, "{resp:.200}");
        bits(&codec::decode_response_modes(&resp).expect("response modes"))
    };

    let before = predict();
    let failed = adaptraj::obs::global().counter("serve.reload_failed_total");
    let failed_before = failed.get();
    let (status, resp) = http_post(
        addr,
        "/reload",
        &format!("{{\"checkpoint\":\"{}\"}}", ckpt.to_string_lossy()),
    );
    std::fs::remove_file(&ckpt).ok();
    assert_eq!(status, 400, "{resp:.200}");
    assert_eq!(
        error_code(&resp).as_deref(),
        Some("reload_failed"),
        "{resp:.200}"
    );
    assert_eq!(failed.get(), failed_before + 1);
    assert_eq!(
        server.model_version(),
        1,
        "a failed reload bumped the version"
    );
    assert_eq!(predict(), before, "a failed reload changed the served bits");
    server.stop();
}

/// A `/reload` body that is neither empty nor an object with a string
/// `checkpoint` is refused with `400 invalid_request`: it does not fall
/// back to the current checkpoint, bump the version or count a reload.
/// An empty body, or an object without the key, still reloads the
/// current checkpoint.
#[test]
fn reload_with_a_malformed_body_is_refused_and_keeps_the_model() {
    let _reloads = RELOADS.lock().unwrap_or_else(|e| e.into_inner());
    let ckpt = std::env::temp_dir().join(format!(
        "adaptraj_serve_bad_body_{}.atps",
        std::process::id()
    ));
    save_params_to_file(predictor_with_seed(7).store(), &ckpt).expect("write ckpt");
    let loader: adaptraj::serve::Loader = Box::new(|path: &str| {
        let mut p = predictor_with_seed(999);
        load_params_from_file(p.store_mut(), path).map_err(|e| format!("{e}"))?;
        Ok(p)
    });
    let server = PredictServer::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServeConfig::default()
        },
        predictor_with_seed(7),
        Some(ckpt.to_string_lossy().into_owned()),
        Some(loader),
    )
    .expect("server start");
    let addr = server.local_addr();
    let reloads = adaptraj::obs::global().counter("serve.reloads_total");
    let reloads_before = reloads.get();

    for body in [r#"{"checkpoint": 5}"#, r#"{"checkpoint": "x"#] {
        let (status, resp) = http_post(addr, "/reload", body);
        assert_eq!(status, 400, "{body}: {resp:.200}");
        assert_eq!(
            error_code(&resp).as_deref(),
            Some("invalid_request"),
            "{body}: {resp:.200}"
        );
        assert_eq!(server.model_version(), 1, "{body} bumped the version");
        assert_eq!(reloads.get(), reloads_before, "{body} counted a reload");
    }
    for (i, body) in ["", "{}"].into_iter().enumerate() {
        let (status, resp) = http_post(addr, "/reload", body);
        assert_eq!(status, 200, "{body:?}: {resp:.200}");
        assert_eq!(server.model_version(), 2 + i as u64);
    }
    assert_eq!(reloads.get(), reloads_before + 2);
    server.stop();
    std::fs::remove_file(&ckpt).ok();
}

/// A client that sends a predict request and hangs up while it waits in
/// the queue costs only its own reply: the next request is answered and
/// `/healthz` still says ok.
#[test]
fn a_client_that_drops_mid_batch_leaves_the_server_healthy() {
    let (predictor, gate) = gated_predictor(7);
    let server = PredictServer::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServeConfig::default()
        },
        predictor,
        None,
        None,
    )
    .expect("server start");
    let addr = server.local_addr();
    let body = codec::encode_request(&mixed_scenes()[0], 555, 1);
    // Both workers parked: the request below waits in the queue.
    let parked = park_workers(addr, &gate, 2);

    let mut stream = TcpStream::connect(addr).expect("connect serve endpoint");
    write!(
        stream,
        "POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    // Hang up only once the request sits in the batch queue.
    let queued = await_queue_depth(addr, 1);
    assert!(queued, "the request never reached the batch queue");
    stream.shutdown(std::net::Shutdown::Both).expect("hang up");
    drop(stream);
    gate.open();
    for client in parked {
        assert_eq!(client.join().unwrap().0, 200);
    }

    let (status, resp) = http_post(addr, "/v1/predict", &body);
    assert_eq!(status, 200, "{resp:.200}");
    let (status, health) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "{health}");
    assert_eq!(
        Value::parse(&health)
            .ok()
            .and_then(|v| v.get("status").and_then(Value::as_str).map(String::from))
            .as_deref(),
        Some("ok"),
        "{health}"
    );
    server.stop();
}

/// The predict port also serves the shared telemetry routes: `/timeline`
/// is the flight recorder's Chrome trace document, `/profile` the
/// profiler's JSON, and `GET /` lists every route. A predict request run
/// while the recorder is on shows up in `/timeline` as a `serve_exec`
/// span carrying the response's `request_id`.
#[test]
fn predict_server_serves_timeline_and_profile() {
    let server = PredictServer::start(ServeConfig::default(), predictor_with_seed(7), None, None)
        .expect("server start");
    let addr = server.local_addr();

    adaptraj::obs::timeline::set_enabled(true);
    let body = codec::encode_request(&mixed_scenes()[0], 5, 1);
    let (status, resp) = http_post(addr, "/v1/predict", &body);
    adaptraj::obs::timeline::set_enabled(false);
    assert_eq!(status, 200, "{resp:.200}");
    let id = Value::parse(&resp)
        .ok()
        .and_then(|v| v.get("request_id")?.as_u64())
        .expect("request_id");

    let (status, timeline) = http_get(addr, "/timeline");
    assert_eq!(status, 200, "{timeline:.200}");
    let doc = Value::parse(&timeline).expect("/timeline is JSON");
    assert!(
        doc.get("traceEvents").and_then(Value::as_array).is_some(),
        "/timeline has no traceEvents array: {timeline:.200}"
    );
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    let traced = events.iter().any(|e| {
        e.get("name").and_then(Value::as_str) == Some("serve_exec")
            && e.get("args").and_then(|a| a.get("request")?.as_u64()) == Some(id)
    });
    assert!(traced, "no serve_exec span for request {id}");

    let (status, profile) = http_get(addr, "/profile");
    assert_eq!(status, 200, "{profile:.200}");
    Value::parse(&profile).expect("/profile is JSON");

    let (status, index) = http_get(addr, "/");
    assert_eq!(status, 200);
    for route in [
        "/v1/predict",
        "/healthz",
        "/metrics",
        "/profile",
        "/timeline",
    ] {
        assert!(index.contains(route), "index misses {route}: {index}");
        assert!(server.routes().contains(route), "{}", server.routes());
    }
    server.stop();
}

/// How one request fared while the server shut down. Anything else (a
/// truncated response, another status, a hang) is a contract violation.
enum Outcome {
    /// A complete 200 and its mode bits.
    Served(Vec<u32>),
    /// A complete 503 `shutting_down`.
    ShuttingDown,
    /// Connect, write or read failed before any response byte arrived.
    NoResponse,
}

fn predict_during_shutdown(addr: SocketAddr, body: &str) -> Result<Outcome, String> {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return Ok(Outcome::NoResponse);
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let request = format!(
        "POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    if stream.write_all(request.as_bytes()).is_err() {
        return Ok(Outcome::NoResponse);
    }
    let mut raw = Vec::new();
    match stream.read_to_end(&mut raw) {
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            return Err(format!("no answer within 10 s ({} bytes)", raw.len()))
        }
        Err(e) if !raw.is_empty() => {
            return Err(format!("truncated after {} bytes: {e}", raw.len()))
        }
        _ if raw.is_empty() => return Ok(Outcome::NoResponse),
        _ => {}
    }
    let raw = String::from_utf8(raw).map_err(|e| e.to_string())?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("truncated head: {raw:.200}"))?;
    let declared: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no Content-Length: {head}"))?;
    if body.len() != declared {
        return Err(format!("body of {} bytes, declared {declared}", body.len()));
    }
    let error_code = || {
        Value::parse(body)
            .ok()
            .and_then(|v| v.get("error")?.get("code")?.as_str().map(String::from))
    };
    match head.split_whitespace().nth(1) {
        Some("200") => codec::decode_response_modes(body)
            .map(|m| Outcome::Served(bits(&m)))
            .map_err(|e| e.message),
        Some("503") if error_code().as_deref() == Some("shutting_down") => {
            Ok(Outcome::ShuttingDown)
        }
        _ => Err(format!("unexpected response: {raw:.200}")),
    }
}

/// `POST /shutdown` while 4 closed-loop clients run: every request ends
/// in a complete 200 with the offline bits, a complete 503
/// `shutting_down`, or a transport error before any response byte — no
/// truncated response, no hang — and `wait` returns within 5 s.
#[test]
fn shutdown_under_load_answers_every_client_cleanly() {
    let scenes = Arc::new(mixed_scenes());
    let server = PredictServer::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        predictor_with_seed(44),
        None,
        None,
    )
    .expect("server start");
    let addr = server.local_addr();

    const CLIENTS: usize = 4;
    let served = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let (scenes, served) = (Arc::clone(&scenes), Arc::clone(&served));
            std::thread::spawn(move || {
                let mut outcomes = Vec::new();
                for i in 0.. {
                    let scene_idx = (t + i) % scenes.len();
                    let seed = (t * 10_000 + i) as u64;
                    let body = codec::encode_request(&scenes[scene_idx], seed, 1);
                    let outcome = predict_during_shutdown(addr, &body);
                    let done = !matches!(outcome, Ok(Outcome::Served(_)));
                    if !done {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    outcomes.push((scene_idx, seed, outcome));
                    if done {
                        return outcomes;
                    }
                }
                unreachable!()
            })
        })
        .collect();

    // Shut down once the clients are demonstrably in flight.
    let t0 = std::time::Instant::now();
    while served.load(Ordering::Relaxed) < 4 * CLIENTS {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "clients stalled before shutdown"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let (status, resp) = http_post(addr, "/shutdown", "");
    assert_eq!(status, 200, "{resp:.200}");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.wait();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(5))
        .expect("PredictServer::wait did not return within 5 s of /shutdown");

    let reference = predictor_with_seed(44);
    let mut counts = [0usize; 3];
    for client in clients {
        for (scene_idx, seed, outcome) in client.join().expect("client thread") {
            match outcome {
                Ok(Outcome::Served(got)) => {
                    counts[0] += 1;
                    let expected =
                        reference.predict_k(&scenes[scene_idx], 1, &mut Rng::seed_from(seed));
                    assert_eq!(
                        got,
                        bits(&expected),
                        "scene {scene_idx} seed {seed}: served bits != offline"
                    );
                }
                Ok(Outcome::ShuttingDown) => counts[1] += 1,
                Ok(Outcome::NoResponse) => counts[2] += 1,
                Err(violation) => panic!("scene {scene_idx} seed {seed}: {violation}"),
            }
        }
    }
    assert!(
        counts[0] >= 4 * CLIENTS,
        "outcomes (served, 503, none): {counts:?}"
    );
}

/// The `adaptraj serve` process: killed on drop unless it already exited.
struct ServeProcess(Child);

impl Drop for ServeProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// The real `adaptraj serve` binary, end to end: it loads a checkpoint
/// saved as `run --out` saves one, serves the golden probe bit for bit as
/// offline `predict_k` from the same file, hot-reloads that file through
/// the CLI's `Loader`, mounts the serve counters on `/metrics`, and exits
/// 0 after `/shutdown`.
#[test]
fn cli_serve_matches_offline_predict_k_reloads_and_exits_cleanly() {
    let ckpt = std::env::temp_dir().join(format!("adaptraj_cli_serve_{}.atps", std::process::id()));
    // Not the trainer's default seed (1), whose init a server that
    // skipped the load would serve instead.
    save_params_to_file(predictor_with_seed(41).store(), &ckpt).expect("write checkpoint");
    let path = ckpt.to_string_lossy().into_owned();
    let mut offline = predictor_with_seed(999); // overwritten by the load
    load_params_from_file(offline.store_mut(), &ckpt).expect("load checkpoint");
    let expected = bits(&probe_modes(offline.as_ref()));

    let mut server = ServeProcess(
        Command::new(env!("CARGO_BIN_EXE_adaptraj"))
            .args(["serve", "--addr", "127.0.0.1:0", "--checkpoint", &path])
            .args(["--backbone", "pecnet", "--method", "vanilla"])
            .args([
                "--sources",
                "eth_ucy,l_cas",
                "--workers",
                "1",
                "--queue-cap",
                "1",
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn adaptraj serve"),
    );
    // Forward stdout line by line, so the pipe never fills and the bound
    // address can be awaited with a deadline.
    let (tx, lines) = std::sync::mpsc::channel();
    let stdout = server.0.stdout.take().unwrap();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            let _ = tx.send(line);
        }
    });
    let addr: SocketAddr = loop {
        let line = lines
            .recv_timeout(Duration::from_secs(30))
            .expect("adaptraj serve never reported its address");
        if let Some(rest) = line.strip_prefix("serving ") {
            let url = rest
                .split_once("http://")
                .expect("serving line has a URL")
                .1;
            break url.split_whitespace().next().unwrap().parse().unwrap();
        }
    };

    let body = codec::encode_request(&probe_window(), PROBE_SEED, PROBE_K);
    let predict = || {
        let (status, resp) = http_post(addr, "/v1/predict", &body);
        assert_eq!(status, 200, "{resp:.200}");
        let version = Value::parse(&resp)
            .ok()
            .and_then(|v| v.get("version")?.as_u64())
            .expect("response version");
        (
            codec::decode_response_modes(&resp).expect("response modes"),
            version,
        )
    };
    let (modes, version) = predict();
    assert_eq!(bits(&modes), expected, "served bits != offline predict_k");
    assert_eq!(version, 1);

    let (status, resp) = http_post(addr, "/reload", &format!("{{\"checkpoint\":\"{path}\"}}"));
    assert_eq!(status, 200, "reload failed: {resp:.200}");
    let (modes, version) = predict();
    assert_eq!(bits(&modes), expected, "reloaded bits != offline predict_k");
    assert_eq!(version, 2, "the reload did not swap the model");

    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    for counter in [
        "serve_requests_total",
        "serve_responses_ok_total",
        "serve_reloads_total",
    ] {
        assert!(metrics.contains(counter), "/metrics misses {counter}");
    }

    let (status, resp) = http_post(addr, "/shutdown", "");
    assert_eq!(status, 200, "{resp:.200}");
    let t0 = Instant::now();
    let exit = loop {
        if let Some(exit) = server.0.try_wait().expect("poll adaptraj serve") {
            break exit;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "adaptraj serve still running 10 s after /shutdown"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    std::fs::remove_file(&ckpt).ok();
    assert!(exit.success(), "adaptraj serve exited with {exit}");
}
