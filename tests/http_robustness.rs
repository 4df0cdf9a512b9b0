//! Protocol-robustness suite shared by every HTTP listener in the
//! workspace: the telemetry endpoint (`adaptraj-obs`) and the inference
//! service (`adaptraj-serve`) sit on the same bounded reader
//! (`adaptraj_obs::http`), so both must answer hostile input the same
//! way — 413 for oversized payloads, 400 for malformed framing (with a
//! machine-parseable JSON error), 408 when a slow writer exceeds the
//! read deadline, a JSON 404 `not_found` for unknown paths and a JSON
//! 405 `method_not_allowed` for a known path with the wrong method. Each
//! check runs against both servers.

use adaptraj::data::domain::DomainId;
use adaptraj::eval::{build_predictor, BackboneKind, CellSpec, MethodKind, RunnerConfig};
use adaptraj::obs::json::Value;
use adaptraj::obs::serve::TelemetryServer;
use adaptraj::serve::{PredictServer, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Raw-socket exchange: send exactly `payload`, then read to EOF.
fn raw_exchange(addr: SocketAddr, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(payload).expect("send");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    out
}

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:.120}"))
}

/// The JSON `error.code` of a structured error response.
fn error_code(response: &str) -> String {
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
    Value::parse(body)
        .unwrap_or_else(|e| panic!("error body is not JSON ({e}): {body:.200}"))
        .get("error")
        .and_then(|er| er.get("code"))
        .and_then(|c| c.as_str())
        .expect("error.code field")
        .to_string()
}

/// Runs the listener-level checks common to both servers. `deadline` is
/// the server's configured read deadline (they differ), and
/// `known_path` must be a GET-only route.
fn assert_protocol_robustness(addr: SocketAddr, deadline: Duration, known_path: &str) {
    // 413: a Content-Length beyond the body limit is rejected before the
    // body is read — no need to actually ship megabytes.
    let oversized = raw_exchange(
        addr,
        b"POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: 99999999\r\n\r\n",
    );
    assert_eq!(status_of(&oversized), 413, "{oversized:.200}");
    assert_eq!(error_code(&oversized), "payload_too_large");

    // 400: garbage framing still gets a structured, parseable error.
    let malformed = raw_exchange(addr, b"NONSENSE\r\n\r\n");
    assert_eq!(status_of(&malformed), 400, "{malformed:.200}");
    assert_eq!(error_code(&malformed), "bad_request");

    // 408: a writer that stalls mid-header is cut off at the read
    // deadline instead of pinning the accept thread forever.
    let t0 = std::time::Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n")
        .expect("send partial");
    // ... never finish the header section.
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    assert_eq!(status_of(&out), 408, "{out:.200}");
    assert_eq!(error_code(&out), "deadline_exceeded");
    let waited = t0.elapsed();
    assert!(
        waited >= deadline && waited < deadline + Duration::from_secs(5),
        "slow-writer cutoff at {waited:?}, deadline {deadline:?}"
    );

    // 404 for unknown paths, while a known path still answers.
    let missing = raw_exchange(
        addr,
        b"GET /definitely/not/a/route HTTP/1.1\r\nHost: t\r\n\r\n",
    );
    assert_eq!(status_of(&missing), 404, "{missing:.200}");
    assert_eq!(error_code(&missing), "not_found");
    let known = raw_exchange(
        addr,
        format!("GET {known_path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    );
    assert_ne!(status_of(&known), 404, "{known_path} should exist");

    // A wrong method on a known route is 405, not 404.
    let wrong_method = raw_exchange(
        addr,
        format!("POST {known_path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    );
    assert_eq!(status_of(&wrong_method), 405, "{wrong_method:.200}");
    assert_eq!(error_code(&wrong_method), "method_not_allowed");
}

#[test]
fn telemetry_server_survives_hostile_input() {
    let server = TelemetryServer::start("127.0.0.1:0").expect("bind telemetry endpoint");
    assert_protocol_robustness(server.local_addr(), Duration::from_secs(2), "/healthz");
    server.stop();
}

#[test]
fn predict_server_survives_hostile_input() {
    let spec = CellSpec {
        backbone: BackboneKind::PecNet,
        method: MethodKind::Vanilla,
        sources: vec![DomainId::EthUcy],
        target: DomainId::Sdd,
    };
    let predictor = build_predictor(&spec, &RunnerConfig::smoke());
    let server = PredictServer::start(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            read_deadline_ms: 300,
            ..ServeConfig::default()
        },
        predictor,
        None,
        None,
    )
    .expect("server start");
    assert_protocol_robustness(server.local_addr(), Duration::from_millis(300), "/healthz");

    // Serve-specific: a well-framed request whose JSON body is garbage,
    // or whose seed is too large to survive the f64 parse (2^53 + 1),
    // still yields a structured 400, not a hang, a connection drop or a
    // prediction for a different seed.
    let addr = server.local_addr();
    let scene = r#"{"domain":"sdd","obs":[[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0]]}"#;
    let big_seed = format!(r#"{{"scene":{scene},"seed":9007199254740993}}"#);
    for body in ["{not json", big_seed.as_str()] {
        let resp = raw_exchange(
            addr,
            format!(
                "POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
        assert_eq!(status_of(&resp), 400, "{resp:.200}");
        assert!(!error_code(&resp).is_empty());
    }
    server.stop();
}
