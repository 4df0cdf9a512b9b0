//! CI gate for the inference service (see `scripts/ci.sh`): drives a
//! *running* `adaptraj serve` instance over real sockets and checks the
//! serving contract from the outside.
//!
//! ```text
//! serve_gate --addr 127.0.0.1:PORT --golden results/SERVE_golden.json
//! serve_gate --addr ... --golden ... --write-golden   # regenerate
//! serve_gate --addr ... --flood 64                    # expect >= 1 503
//! serve_gate --addr ... --shutdown                    # clean stop
//! ```
//!
//! The golden check POSTs a fixed synthetic scene with a fixed seed and
//! compares the returned mode trajectories against the committed golden
//! file **bit for bit** (f32 bit patterns, not tolerances): served
//! predictions must be exactly reproducible for a given checkpoint +
//! seed, per the serving contract. It also checks the routes mounted
//! beside predict: `/metrics`, `/timeline`, `/profile` and a JSON 405.

use adaptraj_data::domain::DomainId;
use adaptraj_data::trajectory::{Point, TrajWindow, T_OBS, T_PRED};
use adaptraj_obs::json::{Obj, Value};
use adaptraj_serve::codec;
use std::io::{Read, Write};
use std::net::TcpStream;

const USAGE: &str =
    "usage: serve_gate --addr HOST:PORT [--golden FILE [--write-golden]] [--flood N] [--shutdown]";

const GOLDEN_SEED: u64 = 20240108;
const GOLDEN_K: usize = 3;

fn fail(msg: &str) -> ! {
    eprintln!("serve_gate: FAIL: {msg}");
    std::process::exit(1);
}

/// The fixed probe scene: a focal agent walking +x with two neighbors,
/// deterministic coordinates, eth_ucy domain. Any change here invalidates
/// committed goldens — regenerate with `--write-golden`.
fn golden_window() -> TrajWindow {
    let obs: Vec<Point> = (0..T_OBS)
        .map(|t| [0.4 * t as f32 - 2.8, 0.05 * t as f32])
        .collect();
    let n1: Vec<Point> = (0..T_OBS).map(|t| [1.5 - 0.1 * t as f32, 0.8]).collect();
    let n2: Vec<Point> = (0..T_OBS).map(|t| [-1.0, -0.6 + 0.2 * t as f32]).collect();
    TrajWindow {
        obs,
        fut: vec![[0.0, 0.0]; T_PRED],
        neighbors: vec![n1, n2],
        domain: DomainId::EthUcy,
        origin: [4.0, 1.0],
    }
}

/// One `Connection: close` HTTP exchange; returns (status code, body).
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream =
        TcpStream::connect(addr).unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: gate\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(req.as_bytes())
        .unwrap_or_else(|e| fail(&format!("send {method} {path}: {e}")));
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .unwrap_or_else(|e| fail(&format!("read {method} {path}: {e}")));
    let status: u16 = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| {
            fail(&format!(
                "unparseable response to {method} {path}: {response:.120}"
            ))
        });
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn bits(modes: &[Vec<Point>]) -> Vec<u32> {
    modes
        .iter()
        .flatten()
        .flat_map(|p| [p[0].to_bits(), p[1].to_bits()])
        .collect()
}

fn check_golden(addr: &str, golden_path: &str, write: bool) {
    // Liveness first: /healthz must answer ok.
    let (status, health) = http(addr, "GET", "/healthz", "");
    if status != 200 {
        fail(&format!("/healthz returned {status}: {health}"));
    }
    let hv = Value::parse(&health).unwrap_or_else(|e| fail(&format!("healthz not JSON: {e}")));
    let model = hv
        .get("model")
        .and_then(|m| m.as_str())
        .unwrap_or_else(|| fail("healthz missing model"))
        .to_string();

    let request = codec::encode_request(&golden_window(), GOLDEN_SEED, GOLDEN_K);
    let (status, body) = http(addr, "POST", "/v1/predict", &request);
    if status != 200 {
        fail(&format!("/v1/predict returned {status}: {body}"));
    }
    let modes = codec::decode_response_modes(&body)
        .unwrap_or_else(|e| fail(&format!("bad predict response: {} ({})", e.message, e.code)));
    if modes.len() != GOLDEN_K {
        fail(&format!("expected {GOLDEN_K} modes, got {}", modes.len()));
    }

    if write {
        let doc = Obj::new()
            .str("schema", "adaptraj-serve-golden/v1")
            .str("model", &model)
            .u64("seed", GOLDEN_SEED)
            .u64("k", GOLDEN_K as u64)
            .raw("modes", &codec::encode_modes(&modes))
            .finish();
        std::fs::write(golden_path, format!("{doc}\n"))
            .unwrap_or_else(|e| fail(&format!("write {golden_path}: {e}")));
        println!("serve_gate: wrote golden {golden_path} (model {model})");
        return;
    }

    let golden_text = std::fs::read_to_string(golden_path).unwrap_or_else(|e| {
        fail(&format!(
            "read {golden_path}: {e} (regenerate with --write-golden)"
        ))
    });
    let gv = Value::parse(&golden_text)
        .unwrap_or_else(|e| fail(&format!("{golden_path} is not JSON: {e}")));
    if gv.get("schema").and_then(|s| s.as_str()) != Some("adaptraj-serve-golden/v1") {
        fail(&format!("{golden_path} has wrong schema"));
    }
    if let Some(gm) = gv.get("model").and_then(|m| m.as_str()) {
        if gm != model {
            fail(&format!("model mismatch: serving {model}, golden is {gm}"));
        }
    }
    let golden_modes = codec::decode_response_modes(&golden_text)
        .unwrap_or_else(|e| fail(&format!("bad golden modes: {}", e.message)));
    if bits(&modes) != bits(&golden_modes) {
        fail("served modes differ from golden (f32 bit mismatch) — model or kernels changed; regenerate with --write-golden if intentional");
    }

    // The serve counters and the shared telemetry routes are mounted on
    // the predict port, and a wrong method is a structured 405.
    let get = |path: &str| match http(addr, "GET", path, "") {
        (200, body) => body,
        (status, _) => fail(&format!("{path} returned {status}")),
    };
    let metrics = get("/metrics");
    for needle in [
        "serve_requests_total",
        "serve_responses_ok_total",
        "serve_batch_windows",
    ] {
        if !metrics.contains(needle) {
            fail(&format!("/metrics missing {needle}"));
        }
    }
    let json = |path: &str| {
        Value::parse(&get(path)).unwrap_or_else(|e| fail(&format!("{path} is not JSON: {e}")))
    };
    if json("/timeline")
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .is_none()
    {
        fail("/timeline has no traceEvents array");
    }
    json("/profile");
    let (status, body) = http(addr, "GET", "/v1/predict", "");
    if status != 405 || !body.contains("\"method_not_allowed\"") {
        fail(&format!(
            "GET /v1/predict: want 405 method_not_allowed, got {status} {body:.200}"
        ));
    }
    println!("serve_gate: golden OK ({model}, seed {GOLDEN_SEED}, k {GOLDEN_K}, bit-exact)");
}

/// Fires `n` concurrent predict requests at a server started with a tiny
/// queue; requires at least one 503 (backpressure works) and that every
/// response is either a valid 200 or a structured 503.
fn flood(addr: &str, n: usize) {
    let request = codec::encode_request(&golden_window(), 7, 1);
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let addr = addr.to_string();
            let request = request.clone();
            std::thread::spawn(move || http(&addr, "POST", "/v1/predict", &request))
        })
        .collect();
    let mut ok = 0usize;
    let mut rejected = 0usize;
    for h in handles {
        let (status, body) = h.join().expect("flood client panicked");
        match status {
            200 => {
                codec::decode_response_modes(&body)
                    .unwrap_or_else(|e| fail(&format!("flood 200 with bad body: {}", e.message)));
                ok += 1;
            }
            503 => {
                let v = Value::parse(&body)
                    .unwrap_or_else(|e| fail(&format!("503 body not JSON: {e}")));
                let code = v
                    .get("error")
                    .and_then(|o| o.get("code"))
                    .and_then(|c| c.as_str())
                    .unwrap_or_else(|| fail("503 body missing error.code"));
                if code != "overloaded" {
                    fail(&format!("503 with unexpected code {code}"));
                }
                rejected += 1;
            }
            other => fail(&format!("flood got unexpected status {other}: {body:.200}")),
        }
    }
    if rejected == 0 {
        fail(&format!(
            "flood of {n} produced no 503s — queue cap not enforced"
        ));
    }
    println!("serve_gate: flood OK ({ok} served, {rejected} rejected with structured 503)");
}

fn shutdown(addr: &str) {
    let (status, body) = http(addr, "POST", "/shutdown", "");
    if status != 200 {
        fail(&format!("/shutdown returned {status}: {body}"));
    }
    println!("serve_gate: shutdown accepted");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = None;
    let mut golden = None;
    let mut write_golden = false;
    let mut flood_n = None;
    let mut do_shutdown = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().cloned(),
            "--golden" => golden = it.next().cloned(),
            "--write-golden" => write_golden = true,
            "--flood" => {
                flood_n = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| fail("--flood takes a count")),
                )
            }
            "--shutdown" => do_shutdown = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let addr = addr.unwrap_or_else(|| fail(&format!("--addr is required\n{USAGE}")));
    if golden.is_none() && flood_n.is_none() && !do_shutdown {
        fail(&format!("nothing to do\n{USAGE}"));
    }
    if let Some(golden) = &golden {
        check_golden(&addr, golden, write_golden);
    }
    if let Some(n) = flood_n {
        flood(&addr, n);
    }
    if do_shutdown {
        shutdown(&addr);
    }
}
