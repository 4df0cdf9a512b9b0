//! Live telemetry: the shared observability routes, mounted on every
//! [`Server`] in the workspace, and the standalone endpoint that serves
//! them.
//!
//! * `GET /metrics` — Prometheus text exposition (version 0.0.4) of the
//!   global [`metrics`] registry: counters, gauges, and histograms as
//!   summaries with `quantile="0.5|0.9|0.99|0.999"` labels plus `_sum` /
//!   `_count`.
//! * `GET /profile` — the op/phase profiler's [`ProfileSnapshot`] as JSON
//!   (same document as `profile.json` in the `run --out DIR` record).
//! * `GET /timeline` — the execution flight recorder's current
//!   [`TimelineSnapshot`](crate::timeline::TimelineSnapshot) as Chrome
//!   trace-event JSON (same document as the record's `trace.json`), so a
//!   live run can be inspected in Perfetto before it finishes.
//!
//! [`TelemetryServer`] adds `GET /healthz` → `ok` and serves them on one
//! accept thread, so a human or a Prometheus scraper can watch a
//! training/bench run live.
//!
//! [`ProfileSnapshot`]: crate::profile::ProfileSnapshot

use crate::http::{HttpLimits, Routes, Server, TEXT};
use crate::metrics::{self, HistSnapshot, Registry};
use crate::{profile, timeline};
use std::net::SocketAddr;

/// `GET /metrics`, `/profile` and `/timeline`, for mounting on a
/// [`Server`].
pub fn telemetry_routes() -> Routes {
    Routes::default()
        .route("GET", "/metrics", |_, r| {
            let text = render_prometheus(metrics::global());
            r.send(
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                text.as_bytes(),
            )
        })
        .route("GET", "/profile", |_, r| {
            r.json(&format!("{}\n", profile::snapshot().to_json()))
        })
        .route("GET", "/timeline", |_, r| {
            r.json(&format!("{}\n", timeline::snapshot().to_chrome_trace()))
        })
}

/// The telemetry routes plus `GET /healthz` → `ok`, on one accept thread.
/// Dropping it (or calling [`stop`](TelemetryServer::stop)) shuts the
/// thread down.
pub struct TelemetryServer(Server);

impl TelemetryServer {
    /// Binds `addr` (e.g. `127.0.0.1:9898`, or `:0` for an ephemeral
    /// port) and starts serving on a background thread.
    pub fn start(addr: &str) -> std::io::Result<TelemetryServer> {
        let routes = Routes::default()
            .route("GET", "/healthz", |_, r| r.send("200 OK", TEXT, b"ok\n"))
            .mount(telemetry_routes());
        // No telemetry route takes a body; anything substantial is junk.
        let limits = HttpLimits {
            max_body_bytes: 64 * 1024,
            ..HttpLimits::default()
        };
        Server::bind(addr)?
            .serve("adaptraj-telemetry", 1, limits, routes)
            .map(TelemetryServer)
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// The mounted routes, e.g. `GET /healthz, GET /metrics`.
    pub fn routes(&self) -> &str {
        self.0.routes()
    }

    /// Stops the listener thread and waits for it to exit.
    pub fn stop(self) {}
}

/// Renders the registry as Prometheus text exposition format 0.0.4:
/// counters and gauges as single samples, histograms as summaries with
/// p50/p90/p99/p999 quantile labels.
pub fn render_prometheus(registry: &Registry) -> String {
    let snap = registry.snapshot();
    let mut out = String::new();
    for (name, value) in snap.counters() {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    for (name, value) in snap.gauges() {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", fmt_val(value)));
    }
    for (name, hist) in snap.histograms() {
        let name = sanitize(name);
        out.push_str(&format!("# TYPE {name} summary\n"));
        render_quantiles(&mut out, &name, hist);
    }
    out
}

fn render_quantiles(out: &mut String, name: &str, hist: &HistSnapshot) {
    for (q, v) in [
        ("0.5", hist.p50),
        ("0.9", hist.p90),
        ("0.99", hist.p99),
        ("0.999", hist.p999),
    ] {
        out.push_str(&format!("{name}{{quantile=\"{q}\"}} {}\n", fmt_val(v)));
    }
    out.push_str(&format!("{name}_sum {}\n", fmt_val(hist.sum)));
    out.push_str(&format!("{name}_count {}\n", hist.count));
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]` and must not start with
/// a digit; the registry uses dotted names (`exec.queue_depth`), which
/// map to underscores.
fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

/// Prometheus renders non-finite samples as the literals `NaN` / `+Inf` /
/// `-Inf`.
fn fmt_val(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize("exec.queue_depth"), "exec_queue_depth");
        assert_eq!(sanitize("tensor.backward_ms"), "tensor_backward_ms");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("a:b_c1"), "a:b_c1");
    }

    #[test]
    fn fmt_val_renders_non_finite_literals() {
        assert_eq!(fmt_val(f64::NAN), "NaN");
        assert_eq!(fmt_val(f64::INFINITY), "+Inf");
        assert_eq!(fmt_val(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_val(1.5), "1.5");
    }

    #[test]
    fn renders_all_metric_kinds_in_exposition_format() {
        let reg = Registry::new();
        reg.counter("serve.test_count").add(7);
        reg.gauge("serve.test_gauge").set(2.5);
        let h = reg.histogram("serve.test_ms");
        for i in 1..=100 {
            h.record(i as f64);
        }
        let text = render_prometheus(&reg);
        assert!(text.contains("# TYPE serve_test_count counter\nserve_test_count 7\n"));
        assert!(text.contains("# TYPE serve_test_gauge gauge\nserve_test_gauge 2.5\n"));
        assert!(text.contains("# TYPE serve_test_ms summary\n"));
        for q in ["0.5", "0.9", "0.99", "0.999"] {
            assert!(
                text.contains(&format!("serve_test_ms{{quantile=\"{q}\"}} ")),
                "missing quantile {q} in:\n{text}"
            );
        }
        assert!(text.contains("serve_test_ms_sum 5050\n"));
        assert!(text.contains("serve_test_ms_count 100\n"));
    }

    #[test]
    fn empty_histogram_quantiles_render_as_nan() {
        let reg = Registry::new();
        let _ = reg.histogram("serve.empty_ms");
        let text = render_prometheus(&reg);
        assert!(text.contains("serve_empty_ms{quantile=\"0.5\"} NaN\n"));
        assert!(text.contains("serve_empty_ms_count 0\n"));
    }

    #[test]
    fn server_serves_healthz_metrics_and_errors() {
        let server = TelemetryServer::start("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");

        // A metric recorded mid-run is visible on the next scrape.
        metrics::global().counter("serve.live_probe_total").add(3);
        let metrics_resp = get(addr, "/metrics");
        assert!(metrics_resp.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(
            metrics_resp.contains("text/plain; version=0.0.4"),
            "{metrics_resp}"
        );
        assert!(metrics_resp.contains("serve_live_probe_total"));

        let profile_resp = get(addr, "/profile");
        assert!(profile_resp.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(profile_resp.contains("application/json"));
        assert!(profile_resp.contains('{'), "{profile_resp}");

        // /timeline serves the flight recorder as a Chrome trace document
        // (a top-level traceEvents array).
        let timeline_resp = get(addr, "/timeline");
        assert!(timeline_resp.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(timeline_resp.contains("application/json"));
        assert!(timeline_resp.contains("\"traceEvents\""), "{timeline_resp}");

        let index = get(addr, "/");
        assert!(index.contains("/metrics"));
        assert_eq!(
            server.routes(),
            "GET /healthz, GET /metrics, GET /profile, GET /timeline"
        );

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(missing.contains("\"not_found\""), "{missing}");

        // Non-GET is rejected.
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405 "), "{response}");
        assert!(response.contains("\"method_not_allowed\""), "{response}");

        server.stop();
    }

    #[test]
    fn stop_does_not_hang_and_port_is_released() {
        let server = TelemetryServer::start("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        server.stop();
        // After stop, new requests are refused (or reset) — the thread is
        // gone and the listener closed.
        assert!(
            TcpStream::connect(addr).is_err() || get_safe(addr).is_none(),
            "listener still serving after stop"
        );
    }

    fn get_safe(addr: SocketAddr) -> Option<String> {
        let mut stream = TcpStream::connect(addr).ok()?;
        write!(stream, "GET /healthz HTTP/1.1\r\n\r\n").ok()?;
        let mut response = String::new();
        stream.read_to_string(&mut response).ok()?;
        if response.is_empty() {
            None
        } else {
            Some(response)
        }
    }
}
