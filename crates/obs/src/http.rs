//! The workspace's one HTTP/1.1 server: the telemetry endpoint and the
//! inference service are [`Routes`] on a [`Server`], which reads each
//! request under one [`HttpLimits`] and dispatches on `(method, path)`,
//! with JSON `404 not_found` / `405 method_not_allowed` answers and a
//! `GET /` index built from the table. A handler's [`Responder`] answers
//! once, possibly later from another thread.
//!
//! The workspace is registry-free, so the request reader is hand-rolled,
//! but *bounded*: every way an untrusted peer can misbehave maps to a
//! typed [`HttpError`] instead of a panic or an unbounded read:
//!
//! * header section or declared body over the configured limits →
//!   [`HttpError::PayloadTooLarge`] (`413`),
//! * malformed request line / headers / `Content-Length` →
//!   [`HttpError::BadRequest`] (`400`),
//! * a peer that stalls mid-request (slow-loris style) →
//!   [`HttpError::Timeout`] (`408`) once the per-request read deadline
//!   lapses,
//! * a peer that connects and closes without sending a full request →
//!   [`HttpError::Disconnected`] (no response owed).
//!
//! Responses are always `Connection: close`; one request per connection.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Obj;

/// `Content-Type`s of JSON and plain-text responses.
pub const JSON: &str = "application/json; charset=utf-8";
pub const TEXT: &str = "text/plain; charset=utf-8";

/// Per-request resource limits for [`read_request`].
#[derive(Debug, Clone)]
pub struct HttpLimits {
    /// Cap on the request line + header section, in bytes.
    pub max_head_bytes: usize,
    /// Cap on the declared (and read) request body, in bytes.
    pub max_body_bytes: usize,
    /// Wall-clock budget for reading the complete request; a peer that
    /// has not delivered a full request by then gets `408`.
    pub read_deadline: Duration,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
            read_deadline: Duration::from_secs(2),
        }
    }
}

/// One parsed request: method, path, and the (possibly empty) body.
/// Headers are consumed during parsing; only `Content-Length` affects
/// behavior, so they are not retained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
}

/// Everything that can go wrong reading a request, mapped to the status
/// code the caller should answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// `400` — syntactically broken request line, headers, or length.
    BadRequest(String),
    /// `413` — header section or declared body exceeds the limits.
    PayloadTooLarge,
    /// `408` — the read deadline lapsed before a complete request.
    Timeout,
    /// The peer closed (or reset) before sending a complete request; no
    /// response can be delivered, just drop the connection.
    Disconnected,
}

/// Reads from `stream` until `pred` says the buffer is complete, `cap`
/// bytes arrive, the deadline lapses, or the peer closes. Returns whether
/// the predicate was satisfied.
fn read_until(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    cap: usize,
    deadline: Instant,
    mut done: impl FnMut(&[u8]) -> bool,
) -> Result<(), HttpError> {
    let mut chunk = [0u8; 4096];
    loop {
        if done(buf) {
            return Ok(());
        }
        if buf.len() > cap {
            return Err(HttpError::PayloadTooLarge);
        }
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .ok_or(HttpError::Timeout)?;
        // A zero timeout would mean "block forever"; clamp up.
        let _ = stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))));
        match stream.read(&mut chunk) {
            // Peer closed: a wake-up or probe before any byte, or a
            // disconnect mid-request. Either way no response is owed.
            Ok(0) => return Err(HttpError::Disconnected),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(HttpError::Timeout)
            }
            Err(_) => return Err(HttpError::Disconnected),
        }
    }
}

/// Position one past the end of the `\r\n\r\n` header terminator, if
/// present.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Reads and parses one complete HTTP/1.1 request within `limits`.
pub fn read_request(stream: &mut TcpStream, limits: &HttpLimits) -> Result<Request, HttpError> {
    let bad = HttpError::BadRequest;
    let deadline = Instant::now() + limits.read_deadline;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    read_until(stream, &mut buf, limits.max_head_bytes, deadline, |b| {
        head_end(b).is_some()
    })?;
    let head_len = head_end(&buf).expect("read_until returned without terminator");
    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| bad("header section is not valid UTF-8".into()))?
        .to_string();

    let mut lines = head.split("\r\n");
    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(bad("malformed request line".into()));
    };
    if !version.starts_with("HTTP/") {
        return Err(bad(format!("bad HTTP version '{version}'")));
    }

    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(format!("malformed header '{line}'")));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| bad("bad Content-Length".into()))?;
        }
    }
    if content_length > limits.max_body_bytes {
        return Err(HttpError::PayloadTooLarge);
    }

    let want = head_len + content_length;
    read_until(stream, &mut buf, want, deadline, |b| b.len() >= want)?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body: buf[head_len..want].to_vec(),
    })
}

/// The one answer owed on an accepted connection; answering consumes
/// it, and dropping it unanswered closes the connection. Write errors are
/// swallowed: the peer may already be gone.
#[derive(Debug)]
pub struct Responder(TcpStream);

impl Responder {
    pub fn new(stream: TcpStream) -> Responder {
        Responder(stream)
    }

    /// Writes one `Connection: close` response.
    pub fn send(mut self, status: &str, content_type: &str, body: &[u8]) {
        let head = format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let _ = self.0.write_all(head.as_bytes());
        let _ = self.0.write_all(body);
        let _ = self.0.flush();
    }

    /// `200 OK` with a JSON body.
    pub fn json(self, body: &str) {
        self.send("200 OK", JSON, body.as_bytes());
    }

    /// A structured error: `{"error":{"code":"...","message":"..."}}`.
    pub fn error(self, status: &str, code: &str, message: &str) {
        let error = Obj::new().str("code", code).str("message", message);
        let body = Obj::new().raw("error", &error.finish()).finish();
        self.send(status, JSON, body.as_bytes());
    }

    /// Answers a failed read (no answer is owed to a disconnected peer).
    fn read_error(self, err: HttpError) {
        let (status, code, message) = match err {
            HttpError::BadRequest(msg) => ("400 Bad Request", "bad_request", msg),
            HttpError::PayloadTooLarge => (
                "413 Payload Too Large",
                "payload_too_large",
                "request exceeds configured size limits".into(),
            ),
            HttpError::Timeout => (
                "408 Request Timeout",
                "deadline_exceeded",
                "request not received within the read deadline".into(),
            ),
            HttpError::Disconnected => return,
        };
        self.error(status, code, &message);
    }
}

type Handler = Box<dyn Fn(Request, Responder) + Send + Sync>;

/// A route table: `(method, path)` → handler.
#[derive(Default)]
pub struct Routes(Vec<(&'static str, &'static str, Handler)>);

impl Routes {
    /// Adds one route; a duplicate `(method, path)` panics.
    pub fn route(
        mut self,
        method: &'static str,
        path: &'static str,
        handler: impl Fn(Request, Responder) + Send + Sync + 'static,
    ) -> Routes {
        let duplicate = self.0.iter().any(|(m, p, _)| (*m, *p) == (method, path));
        assert!(!duplicate, "duplicate route {method} {path}");
        self.0.push((method, path, Box::new(handler)));
        self
    }

    /// Adds every route of `other`.
    pub fn mount(mut self, other: Routes) -> Routes {
        for (method, path, handler) in other.0 {
            self = self.route(method, path, handler);
        }
        self
    }

    /// Answers with the route's handler, else `405` when another method
    /// owns the path, else `404`.
    fn dispatch(&self, req: Request, responder: Responder) {
        let on_path = || self.0.iter().filter(|(_, p, _)| *p == req.path);
        if let Some((_, _, handler)) = on_path().find(|(m, _, _)| *m == req.method) {
            return handler(req, responder);
        }
        let allowed: Vec<&str> = on_path().map(|(m, _, _)| *m).collect();
        if allowed.is_empty() {
            return responder.error("404 Not Found", "not_found", "unknown route");
        }
        let message = format!("use {} for {}", allowed.join(" or "), req.path);
        responder.error("405 Method Not Allowed", "method_not_allowed", &message);
    }
}

/// Stops a [`Server`]: sets the stop flag and wakes an accept thread
/// blocked in `accept` with a throwaway connection; each accept thread
/// wakes the next the same way as it exits. A handler may call it.
#[derive(Debug, Clone)]
pub struct StopHandle(Arc<(AtomicBool, SocketAddr)>);

impl StopHandle {
    pub fn stop(&self) {
        if !self.0 .0.swap(true, Ordering::SeqCst) {
            self.wake();
        }
    }

    pub fn is_stopped(&self) -> bool {
        self.0 .0.load(Ordering::SeqCst)
    }

    fn wake(&self) {
        let _ = TcpStream::connect(self.0 .1);
    }
}

/// The route-table server. [`bind`](Server::bind) claims the address, so
/// the port and the [`StopHandle`] exist before the routes that use them;
/// [`serve`](Server::serve) starts the accept threads. Dropping it stops
/// and joins them.
pub struct Server {
    listener: Option<TcpListener>,
    stop: StopHandle,
    routes: String,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port).
    pub fn bind(addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let stop = StopHandle(Arc::new((AtomicBool::new(false), listener.local_addr()?)));
        Ok(Server {
            listener: Some(listener),
            stop,
            routes: String::new(),
            threads: Vec::new(),
        })
    }

    /// Starts `accept_threads` threads named `{name}-{i}` that read each
    /// request under `limits` and dispatch it through `routes`, plus a
    /// `GET /` index that lists them.
    pub fn serve(
        mut self,
        name: &str,
        accept_threads: usize,
        limits: HttpLimits,
        routes: Routes,
    ) -> std::io::Result<Server> {
        let listener = self.listener.take().expect("a server is served once");
        let list: Vec<_> = routes
            .0
            .iter()
            .map(|(m, p, _)| format!("{m} {p}"))
            .collect();
        self.routes = list.join(", ");
        let index = format!("{name}\nroutes: {}\n", self.routes);
        let routes = routes.route("GET", "/", move |_, r| {
            r.send("200 OK", TEXT, index.as_bytes())
        });
        let shared = Arc::new((routes, limits));
        for i in 0..accept_threads.max(1) {
            let (listener, shared, stop) = (
                listener.try_clone()?,
                Arc::clone(&shared),
                self.stop.clone(),
            );
            let thread = std::thread::Builder::new().name(format!("{name}-{i}"));
            self.threads.push(thread.spawn(move || {
                while !stop.is_stopped() {
                    let Ok((mut stream, _)) = listener.accept() else {
                        continue;
                    };
                    if stop.is_stopped() {
                        break;
                    }
                    match read_request(&mut stream, &shared.1) {
                        Ok(req) => shared.0.dispatch(req, Responder(stream)),
                        Err(e) => Responder(stream).read_error(e),
                    }
                }
                stop.wake();
            })?);
        }
        Ok(self)
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.stop.0 .1
    }

    /// The mounted routes, e.g. `GET /healthz, GET /metrics`.
    pub fn routes(&self) -> &str {
        &self.routes
    }

    pub fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    /// Stops the accept threads and joins them.
    pub fn stop(self) {}

    /// Blocks until the accept threads exit after a [`StopHandle::stop`].
    pub fn wait(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.stop();
        self.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot echo server: accepts a single connection, reads a request
    /// under `limits`, and reports the outcome through the returned
    /// channel while answering the peer.
    fn serve_once(
        limits: HttpLimits,
    ) -> (
        std::net::SocketAddr,
        std::sync::mpsc::Receiver<Result<Request, HttpError>>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let res = read_request(&mut stream, &limits);
            let responder = Responder::new(stream);
            match &res {
                Ok(req) => responder.send("200 OK", "text/plain", &req.body),
                Err(e) => responder.read_error(e.clone()),
            }
            let _ = tx.send(res);
        });
        (addr, rx)
    }

    fn roundtrip(raw: &[u8], limits: HttpLimits) -> (Result<Request, HttpError>, String) {
        let (addr, rx) = serve_once(limits);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw).unwrap();
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        (rx.recv().unwrap(), response)
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello";
        let (res, response) = roundtrip(raw, HttpLimits::default());
        let req = res.unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/predict");
        assert_eq!(req.body, b"hello");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(response.ends_with("hello"));
    }

    #[test]
    fn parses_get_without_body() {
        let raw = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
        let (res, _) = roundtrip(raw, HttpLimits::default());
        let req = res.unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_declared_body_is_413_without_reading_it() {
        let raw = b"POST /v1/predict HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        let (res, response) = roundtrip(raw, HttpLimits::default());
        assert_eq!(res, Err(HttpError::PayloadTooLarge));
        assert!(response.starts_with("HTTP/1.1 413 "), "{response}");
        assert!(response.contains("payload_too_large"), "{response}");
    }

    #[test]
    fn oversized_header_section_is_413() {
        let mut raw = b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 64 * 1024));
        raw.extend_from_slice(b"\r\n\r\n");
        let limits = HttpLimits {
            max_head_bytes: 16 * 1024,
            ..HttpLimits::default()
        };
        let (res, response) = roundtrip(&raw, limits);
        assert_eq!(res, Err(HttpError::PayloadTooLarge));
        assert!(response.starts_with("HTTP/1.1 413 "), "{response}");
    }

    #[test]
    fn garbage_request_line_is_400() {
        let raw = b"garbage\r\n\r\n";
        let (res, response) = roundtrip(raw, HttpLimits::default());
        assert!(matches!(res, Err(HttpError::BadRequest(_))), "{res:?}");
        assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
        // The error body is parseable JSON with a code.
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        let v = crate::json::Value::parse(body).expect("error body parses");
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("bad_request")
        );
    }

    #[test]
    fn bad_content_length_is_400() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
        let (res, response) = roundtrip(raw, HttpLimits::default());
        assert!(matches!(res, Err(HttpError::BadRequest(_))), "{res:?}");
        assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    }

    #[test]
    fn stalled_partial_request_times_out_with_408() {
        let limits = HttpLimits {
            read_deadline: Duration::from_millis(120),
            ..HttpLimits::default()
        };
        let (addr, rx) = serve_once(limits);
        let mut stream = TcpStream::connect(addr).unwrap();
        // Half a request line, then silence: the server must answer 408
        // within the deadline rather than hang.
        stream.write_all(b"GET /slow").unwrap();
        let start = Instant::now();
        let res = rx.recv().unwrap();
        assert_eq!(res, Err(HttpError::Timeout));
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "deadline not enforced: {:?}",
            start.elapsed()
        );
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.1 408 "), "{response}");
    }

    #[test]
    fn stalled_body_times_out_with_408() {
        let limits = HttpLimits {
            read_deadline: Duration::from_millis(120),
            ..HttpLimits::default()
        };
        let (addr, rx) = serve_once(limits);
        let mut stream = TcpStream::connect(addr).unwrap();
        // Headers promise 10 bytes; only 3 ever arrive.
        stream
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
            .unwrap();
        assert_eq!(rx.recv().unwrap(), Err(HttpError::Timeout));
    }

    #[test]
    fn immediate_close_is_disconnected_and_gets_no_response() {
        let (addr, rx) = serve_once(HttpLimits::default());
        drop(TcpStream::connect(addr).unwrap());
        assert_eq!(rx.recv().unwrap(), Err(HttpError::Disconnected));
    }

    /// One `Connection: close` exchange against a running server;
    /// returns (status, body).
    fn exchange(addr: SocketAddr, method: &str, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        let status = response[9..12].parse().unwrap();
        let body = response.split_once("\r\n\r\n").unwrap().1.to_string();
        (status, body)
    }

    fn error_code(body: &str) -> String {
        let v = crate::json::Value::parse(body).expect("error body is JSON");
        v.get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    }

    #[test]
    fn server_dispatches_on_method_and_path_with_json_404_and_405() {
        let routes = Routes::default()
            .route("GET", "/a", |_, r| r.send("200 OK", TEXT, b"a"))
            .route("POST", "/a", |req, r| r.send("200 OK", TEXT, &req.body))
            .route("POST", "/b", |_, r| r.json("{}"));
        let server = Server::bind("127.0.0.1:0")
            .unwrap()
            .serve("test", 2, HttpLimits::default(), routes)
            .unwrap();
        let addr = server.local_addr();
        assert_eq!(exchange(addr, "GET", "/a"), (200, "a".to_string()));
        assert_eq!(exchange(addr, "POST", "/b"), (200, "{}".to_string()));

        let (status, body) = exchange(addr, "GET", "/b");
        assert_eq!(status, 405);
        assert_eq!(error_code(&body), "method_not_allowed");
        let (status, body) = exchange(addr, "GET", "/nope");
        assert_eq!(status, 404);
        assert_eq!(error_code(&body), "not_found");

        // The index is built from the table.
        assert_eq!(server.routes(), "GET /a, POST /a, POST /b");
        let (status, index) = exchange(addr, "GET", "/");
        assert_eq!(status, 200);
        assert_eq!(index, "test\nroutes: GET /a, POST /a, POST /b\n");
        drop(server);
    }

    #[test]
    #[should_panic(expected = "duplicate route GET /x")]
    fn duplicate_route_panics() {
        let _ = Routes::default()
            .route("GET", "/x", |_, r| r.json("{}"))
            .mount(Routes::default().route("GET", "/x", |_, r| r.json("{}")));
    }

    #[test]
    fn a_handler_can_stop_the_server() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let stop = server.stop_handle();
        let routes = Routes::default().route("POST", "/shutdown", move |_, r| {
            r.json("{}");
            stop.stop();
        });
        let mut server = server
            .serve("test", 3, HttpLimits::default(), routes)
            .unwrap();
        let addr = server.local_addr();
        assert_eq!(exchange(addr, "POST", "/shutdown").0, 200);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.wait();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("accept threads did not exit after a handler stopped the server");
    }
}
