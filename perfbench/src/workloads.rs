//! Set-up and measurement of the three workloads.
//!
//! Every input is derived from the workload seed: the synthesized scenes
//! (ETH&UCY and L-CAS as sources, SDD as target), the training and
//! evaluation seeds, and the request seeds. The program under test only
//! ever sees those scenes and requests, through its public API.

use crate::client::{Client, Response};
use crate::stats::{median, supported_quantile, Tally};
use adaptraj_data::dataset::{synthesize_domain, DomainDataset, SynthesisConfig};
use adaptraj_data::domain::DomainId;
use adaptraj_data::trajectory::{Point, TrajWindow};
use adaptraj_eval::{
    best_of_k, build_predictor, evaluate, pooled_train, target_test, BackboneKind, CellSpec,
    EvalResult, MethodKind, RunnerConfig,
};
use adaptraj_exec::window_seed;
use adaptraj_models::{Predictor, TrainerConfig};
use adaptraj_serve::{codec, PredictServer, ServeConfig};
use adaptraj_tensor::Rng;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Scenes simulated per domain; the last fifth of them is the test split.
pub const SCENES: usize = 10;
/// Simulator steps per scene.
pub const STEPS_PER_SCENE: usize = 240;
/// Training epochs of one `fit`: two step-1 epochs, then one each of
/// steps 2 and 3 of the AdapTraj schedule.
pub const EPOCHS: usize = 4;
/// Training windows kept per source domain.
pub const TRAIN_WINDOWS_PER_DOMAIN: usize = 192;
/// Best-of-k samples per evaluated window, as in the paper's tables.
pub const EVAL_K: usize = 20;
/// Worker threads of the evaluation runner.
pub const EVAL_WORKERS: usize = 2;
/// SDD test windows one evaluation scores, stride-subsampled across the
/// whole split so that every seed evaluates the same amount of work.
pub const EVAL_WINDOWS: usize = 256;
/// Distinct scenes the serve clients cycle through.
pub const SERVE_SCENES: usize = 256;
/// Requests with k = 1 each serve phase needs at least, so that p99 has
/// ten samples beyond it.
pub const SERVE_MIN_REQUESTS: u64 = 1000;
/// Length of one block of a serve phase; the phases alternate.
pub const SERVE_BLOCK_S: f64 = 1.0;
/// Timed calls a run makes at least, so that its median has support.
pub const MIN_CALLS: usize = 5;
/// A run stops measuring after this long even if it has too few samples
/// (and then reports a problem), so that it ends well within 180 s.
pub const MAX_MEASURE_S: f64 = 100.0;
/// Set-ups per run; `setup_s` is their median. Synthesis alone takes
/// tens of milliseconds, so the training workload repeats it more often.
pub const SETUPS: usize = 3;
pub const SYNTHESIS_SETUPS: usize = 9;

fn spec() -> CellSpec {
    CellSpec {
        backbone: BackboneKind::PecNet,
        method: MethodKind::AdapTraj,
        sources: vec![DomainId::EthUcy, DomainId::LCas],
        target: DomainId::Sdd,
    }
}

fn runner(seed: u64) -> RunnerConfig {
    RunnerConfig {
        trainer: TrainerConfig {
            epochs: EPOCHS,
            max_train_windows: TRAIN_WINDOWS_PER_DOMAIN,
            seed,
            patience: 0,
            workers: 1,
            ..TrainerConfig::default()
        },
        ..RunnerConfig::default()
    }
}

/// Seed of the evaluation sample streams.
fn eval_seed(seed: u64) -> u64 {
    seed ^ 0x5EED_E7A1
}

/// Seed of serve request `i`. Seeds stay below 2^53, the integers a
/// JSON number carries exactly: the server reads numbers as `f64`, so a
/// larger seed reaches the model rounded.
pub fn request_seed(seed: u64, i: usize) -> u64 {
    window_seed(seed ^ 0x5E4E, 0, i as u64) >> 11
}

/// The synthesized domains of one workload seed.
pub struct Data {
    pub datasets: Vec<DomainDataset>,
    pub train: Vec<TrajWindow>,
    pub synthesize_s: f64,
}

impl Data {
    pub fn synthesize(seed: u64) -> Data {
        let cfg = SynthesisConfig {
            scenes: SCENES,
            steps_per_scene: STEPS_PER_SCENE,
            seed,
            ..SynthesisConfig::default()
        };
        let t0 = Instant::now();
        let datasets: Vec<DomainDataset> = [DomainId::EthUcy, DomainId::LCas, DomainId::Sdd]
            .iter()
            .map(|&d| synthesize_domain(d, &cfg))
            .collect();
        let synthesize_s = t0.elapsed().as_secs_f64();
        let train = pooled_train(&spec(), &datasets);
        Data {
            datasets,
            train,
            synthesize_s,
        }
    }

    /// The SDD test split, stride-subsampled to `cap` windows (0 = all).
    pub fn test(&self, cap: usize) -> Vec<&TrajWindow> {
        target_test(&spec(), &self.datasets, cap)
    }
}

/// One timed `Predictor::fit` of a fresh PECNet-AdapTraj model.
pub struct Fit {
    pub model: Box<dyn Predictor>,
    pub seconds: f64,
    pub windows: u64,
    pub loss: f32,
    /// Training windows whose loss was not finite.
    pub non_finite: u64,
    /// Wall time of schedule steps 1..=3 as the trainer reports them.
    pub step_seconds: [f64; 3],
}

pub fn fit(data: &Data, seed: u64) -> Fit {
    let mut model = build_predictor(&spec(), &runner(seed));
    let before = adaptraj_obs::global().snapshot();
    let t0 = Instant::now();
    let report = model.fit(&data.train);
    let seconds = t0.elapsed().as_secs_f64();
    let windows = adaptraj_obs::global()
        .snapshot()
        .since(&before)
        .counter("exec.windows_trained");
    let mut step_seconds = [0.0; 3];
    for p in &report.phases {
        if let Some(step) = p.phase.strip_prefix("train.step") {
            if let Ok(i @ 1..=3) = step.parse::<usize>() {
                step_seconds[i - 1] += p.duration_s;
            }
        }
    }
    Fit {
        model,
        seconds,
        windows,
        loss: report.final_loss().unwrap_or(f32::NAN),
        non_finite: report.non_finite_total(),
        step_seconds,
    }
}

/// Windows among `test` whose best-of-k ADE or FDE is not finite, scored
/// with the same per-window sample streams as `adaptraj_eval::evaluate`.
fn non_finite_windows(model: &dyn Predictor, test: &[&TrajWindow], k: usize, seed: u64) -> u64 {
    let mut bad = 0;
    for (i, w) in test.iter().enumerate() {
        let mut rng = Rng::seed_from(window_seed(seed, 0, i as u64));
        let samples: Vec<Vec<Point>> = (0..k).map(|_| model.predict(w, &mut rng)).collect();
        let (a, f) = best_of_k(&samples, &w.fut);
        bad += u64::from(!(a.is_finite() && f.is_finite()));
    }
    bad
}

/// One timed best-of-k evaluation.
pub struct Eval {
    pub result: EvalResult,
    pub seconds: f64,
    pub windows: u64,
    /// Windows whose ADE or FDE was not finite.
    pub non_finite: u64,
}

pub fn eval(model: &dyn Predictor, test: &[&TrajWindow], k: usize, seed: u64) -> Eval {
    let t0 = Instant::now();
    let (result, _) = evaluate(model, test, k, eval_seed(seed), EVAL_WORKERS);
    let seconds = t0.elapsed().as_secs_f64();
    let non_finite = if result.ade.is_finite() && result.fde.is_finite() {
        0
    } else {
        non_finite_windows(model, test, k, eval_seed(seed))
    };
    Eval {
        result,
        seconds,
        windows: test.len() as u64,
        non_finite,
    }
}

fn same_bits(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits()
}

pub fn same_modes(a: &[Vec<Point>], b: &[Vec<Point>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| same_bits(p[0], q[0]) && same_bits(p[1], q[1]))
        })
}

/// A named end-to-end or per-layer figure of a run.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempted and failed operations per phase.
    pub phases: Vec<(String, Tally)>,
    /// Metrics named in `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed alongside.
    pub detail: Vec<Metric>,
    /// Checks beyond per-operation failures (determinism, sample counts).
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.detail.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    pub fn total(&self) -> Tally {
        let mut t = Tally::default();
        for (_, p) in &self.phases {
            t.add(*p);
        }
        t
    }
}

fn keep_measuring(t0: Instant, seconds: f64, calls: usize) -> bool {
    let elapsed = t0.elapsed().as_secs_f64();
    elapsed < MAX_MEASURE_S && (elapsed < seconds || calls < MIN_CALLS)
}

fn check_calls(out: &mut Outcome, what: &str, calls: usize) {
    if calls < MIN_CALLS {
        out.problem(format!(
            "only {calls} timed {what} calls in {MAX_MEASURE_S} s"
        ));
    }
}

/// Runs `setup` `n` times and keeps the last result; returns it with the
/// median set-up time in seconds.
fn timed_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..n {
        // The previous set-up ends before the next one starts.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        median(&times).unwrap_or(f64::NAN),
    )
}

fn finish_e2e(out: &mut Outcome, setup_s: f64, throughput: f64, latency_ms: f64) {
    out.metric("setup_s", setup_s, "s");
    out.metric(
        "peak_rss_mb",
        crate::env::peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    );
    out.metric("throughput_per_s", throughput, "1/s");
    out.metric("latency_p50_ms", latency_ms, "ms");
}

/// `train_adaptraj`: repeated single-worker `fit` calls of a fresh
/// PECNet-AdapTraj model on ETH&UCY + L-CAS.
pub fn train(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (data, setup_s) = timed_setups(SYNTHESIS_SETUPS, || Data::synthesize(seed));
    // Warm-up fit; its loss is the reference every timed fit must repeat.
    let reference = fit(&data, seed).loss;
    let mut tally = Tally::default();
    let (mut rates, mut call_ms, mut windows_per_fit) = (Vec::new(), Vec::new(), 0);
    let t0 = Instant::now();
    while keep_measuring(t0, seconds, rates.len()) {
        let f = fit(&data, seed);
        let failed = if f.loss.is_finite() && same_bits(f.loss, reference) {
            f.non_finite
        } else {
            f.windows
        };
        tally.record(f.windows, failed);
        rates.push(f.windows as f64 / f.seconds);
        call_ms.push(f.seconds * 1e3);
        windows_per_fit = f.windows;
    }
    out.phases.push(("fit".into(), tally));
    let throughput = median(&rates).unwrap_or(f64::NAN);
    out.detail("train.windows_per_s", throughput, "1/s");
    out.detail("train.loss_final", f64::from(reference), "loss");
    out.detail("train.fits", rates.len() as f64, "count");
    check_calls(&mut out, "fit", rates.len());
    out.detail("train.windows_per_fit", windows_per_fit as f64, "count");
    finish_e2e(
        &mut out,
        setup_s,
        throughput,
        median(&call_ms).unwrap_or(f64::NAN),
    );
    out
}

/// The synthesized data and a model trained on it, as the eval and serve
/// workloads set them up.
pub struct Trained {
    pub data: Data,
    pub model: Box<dyn Predictor>,
}

pub fn trained(seed: u64) -> Trained {
    let data = Data::synthesize(seed);
    let model = fit(&data, seed).model;
    Trained { data, model }
}

/// `eval_best_of_20`: repeated best-of-20 scoring of [`EVAL_WINDOWS`] SDD
/// test windows with a model trained during set-up.
pub fn eval_best_of_20(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (t, setup_s) = timed_setups(SETUPS, || trained(seed));
    let test = t.data.test(EVAL_WINDOWS);
    // Warm-up evaluation; every timed one must repeat its ADE/FDE bits.
    let reference = eval(t.model.as_ref(), &test, EVAL_K, seed).result;
    let mut tally = Tally::default();
    let (mut rates, mut call_ms) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while keep_measuring(t0, seconds, rates.len()) {
        let e = eval(t.model.as_ref(), &test, EVAL_K, seed);
        let repeated =
            same_bits(e.result.ade, reference.ade) && same_bits(e.result.fde, reference.fde);
        tally.record(e.windows, if repeated { e.non_finite } else { e.windows });
        rates.push(e.windows as f64 / e.seconds);
        call_ms.push(e.seconds * 1e3);
    }
    out.phases.push(("evaluate".into(), tally));
    let throughput = median(&rates).unwrap_or(f64::NAN);
    out.detail("eval.windows_per_s", throughput, "1/s");
    out.detail("eval.ade", f64::from(reference.ade), "m");
    out.detail("eval.fde", f64::from(reference.fde), "m");
    out.detail("eval.windows", test.len() as f64, "count");
    out.detail("eval.calls", rates.len() as f64, "count");
    check_calls(&mut out, "evaluate", rates.len());
    finish_e2e(
        &mut out,
        setup_s,
        throughput,
        median(&call_ms).unwrap_or(f64::NAN),
    );
    out
}

/// A running server plus the requests it is sent and the modes offline
/// `predict_k` gives for them.
pub struct ServeSetup {
    pub server: PredictServer,
    pub bodies: Vec<String>,
    pub expected: Vec<Vec<Vec<Point>>>,
}

pub fn serve_setup(seed: u64) -> ServeSetup {
    let t = trained(seed);
    let windows: Vec<TrajWindow> = t.data.test(SERVE_SCENES).into_iter().cloned().collect();
    let bodies = windows
        .iter()
        .enumerate()
        .map(|(i, w)| codec::encode_request(w, request_seed(seed, i), 1))
        .collect();
    let expected = windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            t.model
                .predict_k(w, 1, &mut Rng::seed_from(request_seed(seed, i)))
        })
        .collect();
    let server = PredictServer::start(ServeConfig::default(), t.model, None, None)
        .expect("start the predict server on an ephemeral port");
    ServeSetup {
        server,
        bodies,
        expected,
    }
}

/// Whether a predict request succeeded: a 200 whose modes equal the
/// offline `predict_k` modes bit for bit.
pub fn served_as_expected(response: &std::io::Result<Response>, expected: &[Vec<Point>]) -> bool {
    match response {
        Ok(r) if r.status == 200 => {
            codec::decode_response_modes(&r.body).is_ok_and(|m| same_modes(&m, expected))
        }
        _ => false,
    }
}

/// What the clients of one closed-loop phase saw.
#[derive(Debug, Default)]
pub struct Phase {
    pub tally: Tally,
    /// Latency of every successful request.
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    pub connects: u64,
    /// Queue and execution time the server reported per response (only
    /// collected when asked for).
    pub queue_ms: Vec<f64>,
    pub exec_ms: Vec<f64>,
}

impl Phase {
    pub fn qps(&self) -> f64 {
        self.tally.succeeded() as f64 / self.wall_s
    }

    /// Adds another block of the same phase.
    pub fn absorb(&mut self, other: Phase) {
        self.tally.add(other.tally);
        self.latencies_ms.extend(other.latencies_ms);
        self.wall_s += other.wall_s;
        self.connects += other.connects;
        self.queue_ms.extend(other.queue_ms);
        self.exec_ms.extend(other.exec_ms);
    }

    pub fn connects_per_request(&self) -> f64 {
        self.connects as f64 / self.tally.attempted.max(1) as f64
    }
}

/// Sends requests from `clients` closed-loop clients until `seconds`
/// have passed and at least `min_requests` were sent. A request fails on
/// a transport error, a non-200 status, or modes that differ in any bit
/// from offline `predict_k`.
pub fn closed_loop(
    addr: SocketAddr,
    s: &ServeSetup,
    clients: usize,
    seconds: f64,
    min_requests: u64,
    stages: bool,
) -> Phase {
    let sent = AtomicU64::new(0);
    let t0 = Instant::now();
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let sent = &sent;
                scope.spawn(move || {
                    let mut p = Phase::default();
                    let mut client = Client::new(addr);
                    let mut i = c;
                    loop {
                        let elapsed = t0.elapsed().as_secs_f64();
                        let done =
                            elapsed >= seconds && sent.load(Ordering::Relaxed) >= min_requests;
                        if done || elapsed >= MAX_MEASURE_S {
                            break;
                        }
                        let idx = i % s.bodies.len();
                        i += clients;
                        sent.fetch_add(1, Ordering::Relaxed);
                        let start = Instant::now();
                        let response = client.post("/v1/predict", &s.bodies[idx]);
                        let ms = start.elapsed().as_secs_f64() * 1e3;
                        let ok = served_as_expected(&response, &s.expected[idx]);
                        p.tally.record(1, u64::from(!ok));
                        if ok {
                            p.latencies_ms.push(ms);
                            if stages {
                                let body = &response.as_ref().expect("ok response").body;
                                let v = adaptraj_obs::json::Value::parse(body).ok();
                                let field = |k: &str| v.as_ref().and_then(|v| v.get(k)?.as_f64());
                                p.queue_ms.extend(field("queue_ms"));
                                p.exec_ms.extend(field("exec_ms"));
                            }
                        }
                    }
                    p.connects = client.connects;
                    p
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    for p in parts {
        phase.absorb(p);
    }
    phase.wall_s = t0.elapsed().as_secs_f64();
    phase
}

/// `serve_closed_k1`: an in-process `PredictServer` with the default
/// configuration, driven over real sockets by one client (phase `c1`)
/// and by two (phase `c2`), every request with k = 1.
pub fn serve_closed_k1(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s) = timed_setups(SETUPS, || serve_setup(seed));
    let addr = s.server.local_addr();
    let warm = closed_loop(addr, &s, 1, 0.0, 64, false);
    out.phases.push(("warmup".into(), warm.tally));
    // The phases alternate in short blocks, so that both see the host
    // over the whole run rather than one half of it each.
    let (mut c1, mut c2) = (Phase::default(), Phase::default());
    let t0 = Instant::now();
    let short = |p: &Phase| p.tally.attempted < SERVE_MIN_REQUESTS;
    while t0.elapsed().as_secs_f64() < MAX_MEASURE_S
        && (t0.elapsed().as_secs_f64() < seconds || short(&c1) || short(&c2))
    {
        c1.absorb(closed_loop(addr, &s, 1, SERVE_BLOCK_S, 1, false));
        c2.absorb(closed_loop(addr, &s, 2, SERVE_BLOCK_S, 1, false));
    }
    s.server.stop();
    let mut p99 = |name: &str, phase: &Phase| match supported_quantile(&phase.latencies_ms, 0.99) {
        Some(v) => out.detail(name, v, "ms"),
        None => out.problem(format!(
            "{name}: {} samples cannot support p99",
            phase.latencies_ms.len()
        )),
    };
    p99("serve.c1.p99_ms", &c1);
    p99("serve.c2.p99_ms", &c2);
    let c1_p50 = median(&c1.latencies_ms).unwrap_or(f64::NAN);
    out.detail("serve.c1.p50_ms", c1_p50, "ms");
    out.detail("serve.c1.qps", c1.qps(), "1/s");
    out.detail(
        "serve.c2.p50_ms",
        median(&c2.latencies_ms).unwrap_or(f64::NAN),
        "ms",
    );
    out.detail("serve.c2.qps", c2.qps(), "1/s");
    out.detail("serve.c1.requests", c1.tally.attempted as f64, "count");
    out.detail("serve.c2.requests", c2.tally.attempted as f64, "count");
    out.detail(
        "serve.connects_per_request",
        (c1.connects + c2.connects) as f64
            / (c1.tally.attempted + c2.tally.attempted).max(1) as f64,
        "ratio",
    );
    out.phases.push(("c1".into(), c1.tally));
    out.phases.push(("c2".into(), c2.tally));
    finish_e2e(&mut out, setup_s, c2.qps(), c1_p50);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_request_fails_on_any_error_status_or_bit() {
        let modes = vec![vec![[0.5f32, -1.25]; 12]];
        let ok = |body: String| Ok(Response { status: 200, body });
        let body = codec::encode_response("m", 1, 7, &modes, 1, 0.5, 0.5);
        assert!(served_as_expected(&ok(body.clone()), &modes));

        let mut off = modes.clone();
        off[0][11][1] = f32::from_bits(off[0][11][1].to_bits() + 1);
        assert!(!served_as_expected(&ok(body.clone()), &off));
        assert!(!served_as_expected(&ok(body.clone()), &[]));
        assert!(!served_as_expected(&ok("{}".into()), &modes));
        let refused = Ok(Response {
            status: 503,
            body: body.clone(),
        });
        assert!(!served_as_expected(&refused, &modes));
        let broken = Err(std::io::Error::other("reset"));
        assert!(!served_as_expected(&broken, &modes));
    }

    #[test]
    fn a_different_seed_gives_different_inputs() {
        let (a, b) = (Data::synthesize(1), Data::synthesize(2));
        assert_ne!(a.train[0].obs, b.train[0].obs);
        assert_ne!(a.test(1)[0].obs, b.test(1)[0].obs);
        assert_eq!(a.test(EVAL_WINDOWS).len(), EVAL_WINDOWS);
        assert_ne!(request_seed(1, 0), request_seed(2, 0));
        assert_ne!(request_seed(1, 0), request_seed(1, 1));
        // Request seeds survive the JSON round trip exactly.
        assert!((0..1000).all(|i| request_seed(3, i) < 1 << 53));
    }

    /// The end-to-end metric names, in `BENCHMARK.json` order.
    fn declared_end_to_end() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            adaptraj_obs::json::Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        doc.get("end_to_end")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
            .collect()
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "trains real models; run with --release")]
    fn metric_names_do_not_depend_on_the_seed() {
        let declared = declared_end_to_end();
        let mut values = Vec::new();
        for seed in [1, 2] {
            let out = train(seed, 0.0);
            let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(names, declared, "seed {seed}");
            assert_eq!(out.total().failed, 0);
            values.push(
                out.detail
                    .iter()
                    .find(|m| m.name == "train.loss_final")
                    .unwrap()
                    .value,
            );
        }
        assert_ne!(values[0], values[1], "another seed trains on other data");
    }
}
