//! The traced run: per-layer figures of all three workloads.
//!
//! Each stage runs once with tracing off and once with the op profiler
//! on. The per-layer figures come from the traced pass: the profiler's op
//! and phase tables, deltas of the `adaptraj_obs` registry, the
//! trainer's per-step wall times, the queue and execution times the
//! server reports in each response, and timed calls into public
//! functions (`Predictor::predict`, `serve::codec`, `synthesize_domain`).
//! The two passes together give the tracing overhead.

use crate::stats::{median, remainder, Tally};
use crate::workloads::{self as wl, Outcome, EVAL_K, EVAL_WORKERS};
use adaptraj_obs::profile::{self, ProfileSnapshot};
use adaptraj_serve::codec;
use adaptraj_tensor::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Requests each serve pass sends with one client.
const SERVE_REQUESTS: u64 = 600;
/// Timed `Predictor::predict` calls.
const PREDICT_CALLS: usize = 400;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// GEMM-backed op kinds of the tape.
fn is_matmul(kind: &str) -> bool {
    matches!(kind, "matmul" | "matmul_nt" | "matmul_tn" | "fused_affine")
}

/// Forward op time (ms) under phases whose last path segment is `name`.
fn phase_fwd_ms(snap: &ProfileSnapshot, name: &str) -> f64 {
    let ns: u64 = snap
        .entries
        .iter()
        .filter(|e| e.phase.rsplit('/').next() == Some(name))
        .filter(|e| e.dir == profile::Dir::Forward)
        .map(|e| e.total_ns)
        .sum();
    ms(ns)
}

/// Mean of `exec.worker_utilization` sampled every 500 µs while `f` runs.
fn sampled_utilization<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let gauge = adaptraj_obs::global().gauge("exec.worker_utilization");
            let (mut sum, mut n) = (0.0, 0u64);
            while !stop.load(Ordering::Relaxed) {
                sum += gauge.get();
                n += 1;
                std::thread::sleep(Duration::from_micros(500));
            }
            sum / n.max(1) as f64
        });
        let r = f();
        stop.store(true, Ordering::Relaxed);
        (r, sampler.join().expect("utilization sampler panicked"))
    })
}

fn median_us(mut f: impl FnMut(usize), calls: usize) -> f64 {
    let times: Vec<f64> = (0..calls)
        .map(|i| {
            let t0 = Instant::now();
            f(i);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times).unwrap_or(f64::NAN)
}

fn tally(n: u64, failed: u64) -> Tally {
    let mut t = Tally::default();
    t.record(n, failed);
    t
}

pub fn run(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let synth: Vec<f64> = (0..wl::SYNTHESIS_SETUPS)
        .map(|_| wl::Data::synthesize(seed).synthesize_s)
        .collect();
    let data = wl::Data::synthesize(seed);
    let eval_model = wl::fit(&data, seed).model;
    let test = data.test(wl::EVAL_WINDOWS);
    let s = wl::serve_setup(seed);
    let addr = s.server.local_addr();
    let warm = wl::closed_loop(addr, &s, 1, 0.0, 64, false);

    // Untraced pass.
    profile::set_enabled(false);
    let fit_u = wl::fit(&data, seed);
    let eval_u = wl::eval(eval_model.as_ref(), &test, EVAL_K, seed);
    let serve_u = wl::closed_loop(addr, &s, 1, 0.0, SERVE_REQUESTS, false);
    let predict_us = median_us(
        |i| {
            let w = test[i % test.len()];
            std::hint::black_box(eval_model.predict(w, &mut Rng::seed_from(i as u64)));
        },
        PREDICT_CALLS,
    );
    let decode_us = median_us(
        |i| {
            let body = &s.bodies[i % s.bodies.len()];
            std::hint::black_box(codec::decode_request(body).is_ok());
        },
        s.bodies.len() * 2,
    );
    let encode_us = median_us(
        |i| {
            let modes = &s.expected[i % s.expected.len()];
            std::hint::black_box(codec::encode_response("m", 1, i as u64, modes, 1, 0.5, 0.5));
        },
        s.expected.len() * 2,
    );

    // Traced pass.
    profile::reset();
    profile::set_enabled(true);
    let before = adaptraj_obs::global().snapshot();
    let fit_t = wl::fit(&data, seed);
    let fit_delta = adaptraj_obs::global().snapshot().since(&before);
    let train_ops = profile::snapshot();
    profile::reset();
    let (eval_t, utilization) =
        sampled_utilization(|| wl::eval(eval_model.as_ref(), &test, EVAL_K, seed));
    let eval_ops = profile::snapshot();
    profile::reset();
    let before = adaptraj_obs::global().snapshot();
    let serve_t = wl::closed_loop(addr, &s, 1, 0.0, SERVE_REQUESTS, true);
    let serve_delta = adaptraj_obs::global().snapshot().since(&before);
    profile::set_enabled(false);
    profile::reset();
    s.server.stop();

    // Tracing only observes: the traced pass must repeat the untraced
    // results bit for bit.
    if fit_t.loss.to_bits() != fit_u.loss.to_bits() {
        out.problem(format!(
            "traced fit loss {} != untraced {}",
            fit_t.loss, fit_u.loss
        ));
    }
    if eval_t.result != eval_u.result {
        out.problem(format!(
            "traced ADE/FDE {} != untraced {}",
            eval_t.result, eval_u.result
        ));
    }
    let fit_failed = |f: &wl::Fit| {
        if f.loss.is_finite() {
            f.non_finite
        } else {
            f.windows
        }
    };
    out.phases = vec![
        (
            "fit".into(),
            tally(
                fit_u.windows + fit_t.windows,
                fit_failed(&fit_u) + fit_failed(&fit_t),
            ),
        ),
        (
            "evaluate".into(),
            tally(
                eval_u.windows + eval_t.windows,
                eval_u.non_finite + eval_t.non_finite,
            ),
        ),
        ("serve".into(), {
            let mut t = warm.tally;
            t.add(serve_u.tally);
            t.add(serve_t.tally);
            t
        }),
    ];

    // tensor: the traced fit (forward and backward).
    let (mut lstm, mut matmul, mut other) = ((0, 0), (0, 0), 0);
    for row in train_ops.by_op() {
        if row.kind == "lstm_cell" {
            lstm = (row.fwd_ns, row.bwd_ns);
        } else if is_matmul(row.kind) {
            matmul.0 += row.fwd_ns;
            matmul.1 += row.bwd_ns;
        } else {
            other += row.total_ns();
        }
    }
    let tape_nodes = fit_delta.counter("tensor.tape_nodes_total");
    out.metric("tensor.lstm_cell.fwd_ms", ms(lstm.0), "ms");
    out.metric("tensor.lstm_cell.bwd_ms", ms(lstm.1), "ms");
    out.metric("tensor.matmul.fwd_ms", ms(matmul.0), "ms");
    out.metric("tensor.matmul.bwd_ms", ms(matmul.1), "ms");
    out.metric("tensor.other_ops_ms", ms(other), "ms");
    out.metric("tensor.tape_nodes", tape_nodes as f64, "count");
    out.metric(
        "tensor.bytes_allocated",
        fit_delta.counter("tensor.bytes_allocated") as f64,
        "bytes",
    );
    out.metric(
        "tensor.backward_ns_per_node",
        fit_delta.hist_sum("tensor.backward_ms") * 1e6 / tape_nodes.max(1) as f64,
        "ns",
    );

    // core and models: the AdapTraj schedule inside the traced fit.
    let steps_ms = fit_t.step_seconds.map(|s| s * 1e3);
    out.metric("core.step1_ms", steps_ms[0], "ms");
    out.metric("core.step2_ms", steps_ms[1], "ms");
    out.metric("core.step3_ms", steps_ms[2], "ms");
    out.metric("models.fit_s", fit_t.seconds, "s");
    out.metric(
        "train.remainder_ms",
        remainder(fit_t.seconds * 1e3, &steps_ms),
        "ms",
    );

    // models, exec and eval: the traced best-of-20 evaluation.
    let encode_ms = phase_fwd_ms(&eval_ops, "encode");
    let generate_ms = phase_fwd_ms(&eval_ops, "generate");
    out.metric("models.encode_ms", encode_ms, "ms");
    out.metric("models.generate_ms", generate_ms, "ms");
    out.metric(
        "models.encode_share",
        encode_ms / (encode_ms + generate_ms),
        "ratio",
    );
    out.metric("models.predict_p50_us", predict_us, "us");
    out.metric("exec.worker_utilization", utilization, "ratio");
    out.metric("eval.evaluate_s", eval_t.seconds, "s");
    // Op time is summed over the workers; per worker it is the busy part
    // of the wall time.
    let busy_ms = ms(eval_ops.by_op().iter().map(|r| r.total_ns()).sum());
    out.metric(
        "eval.remainder_ms",
        remainder(eval_t.seconds * 1e3, &[busy_ms / EVAL_WORKERS as f64]),
        "ms",
    );

    // serve and codec: the traced one-client phase.
    let client_p50 = median(&serve_t.latencies_ms).unwrap_or(f64::NAN);
    let queue_p50 = median(&serve_t.queue_ms).unwrap_or(f64::NAN);
    let exec_p50 = median(&serve_t.exec_ms).unwrap_or(f64::NAN);
    out.metric("serve.queue_ms.p50", queue_p50, "ms");
    out.metric("serve.exec_ms.p50", exec_p50, "ms");
    out.metric(
        "serve.batch_windows.mean",
        serve_delta.hist_sum("serve.batch_windows")
            / serve_delta.hist_count("serve.batch_windows").max(1) as f64,
        "count",
    );
    out.metric(
        "serve.connects_per_request",
        serve_t.connects_per_request(),
        "ratio",
    );
    out.metric(
        "serve.client_remainder_ms",
        remainder(client_p50, &[queue_p50, exec_p50]),
        "ms",
    );
    out.metric("codec.decode_request_us", decode_us, "us");
    out.metric("codec.encode_response_us", encode_us, "us");

    out.metric("data.synthesize_s", median(&synth).unwrap_or(f64::NAN), "s");
    let untraced = fit_u.seconds + eval_u.seconds + serve_u.wall_s;
    let traced = fit_t.seconds + eval_t.seconds + serve_t.wall_s;
    out.metric(
        "obs.trace_overhead_pct",
        (traced / untraced - 1.0) * 100.0,
        "%",
    );

    out.detail(
        "trace.serve.requests",
        serve_t.tally.attempted as f64,
        "count",
    );
    out.detail("trace.serve.client_p50_ms", client_p50, "ms");
    out.detail("trace.eval.windows", test.len() as f64, "count");
    out
}
