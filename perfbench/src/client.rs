//! Closed-loop HTTP/1.1 load client that keeps a connection open while
//! the server does.
//!
//! Every request asks for keep-alive. A response that carries
//! `Connection: close` (or has no `Content-Length`) ends the connection
//! and the next request connects again; one that does not leaves the
//! connection open for the next request. A reused connection that the
//! server closed while idle fails before a single response byte arrives:
//! the request is then sent once more on a fresh connection. `connects`
//! counts every connection opened, so `connects / requests` shows
//! whether the server kept connections alive.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A hung server turns into a transport error after this long.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Status line code and body of one response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// Why a request got no response.
#[derive(Debug)]
enum Failure {
    /// The peer closed the connection before sending any response byte.
    ClosedBeforeResponse,
    Io(io::Error),
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Io(e)
    }
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    /// Bytes read past the end of the previous response.
    buf: Vec<u8>,
    /// Connections opened so far.
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            buf: Vec::new(),
            connects: 0,
        }
    }

    /// Sends one `POST` and waits for its response.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Response> {
        let reused = self.conn.is_some();
        match self.exchange(path, body) {
            Ok(r) => Ok(r),
            Err(Failure::ClosedBeforeResponse) if reused => {
                self.exchange(path, body).map_err(Failure::into_io)
            }
            Err(e) => Err(e.into_io()),
        }
    }

    fn exchange(&mut self, path: &str, body: &str) -> Result<Response, Failure> {
        let result = self.exchange_inner(path, body);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn exchange_inner(&mut self, path: &str, body: &str) -> Result<Response, Failure> {
        if self.conn.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            self.conn = Some(s);
            self.buf.clear();
            self.connects += 1;
        }
        let stream = self.conn.as_mut().expect("connected above");
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        match stream.write_all(request.as_bytes()) {
            Ok(()) => {}
            Err(e) if is_reset(&e) => return Err(Failure::ClosedBeforeResponse),
            Err(e) => return Err(e.into()),
        }

        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i;
            }
            if !fill(stream, &mut self.buf)? {
                return Err(if self.buf.is_empty() {
                    Failure::ClosedBeforeResponse
                } else {
                    bad("connection closed inside the response head")
                });
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        self.buf.drain(..head_end + 4);
        let (status, length, close) = parse_head(&head)?;

        let body = match length {
            Some(n) => {
                while self.buf.len() < n {
                    if !fill(stream, &mut self.buf)? {
                        return Err(bad("connection closed inside the response body"));
                    }
                }
                self.buf.drain(..n).collect::<Vec<u8>>()
            }
            // Without a length the body runs to the end of the stream.
            None => {
                while fill(stream, &mut self.buf)? {}
                std::mem::take(&mut self.buf)
            }
        };
        if close || length.is_none() {
            self.conn = None;
        }
        let body = String::from_utf8(body).map_err(|_| bad("response body is not UTF-8"))?;
        Ok(Response { status, body })
    }
}

impl Failure {
    fn into_io(self) -> io::Error {
        match self {
            Failure::ClosedBeforeResponse => io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            ),
            Failure::Io(e) => e,
        }
    }
}

fn bad(msg: &str) -> Failure {
    Failure::Io(io::Error::new(io::ErrorKind::InvalidData, msg.to_string()))
}

fn is_reset(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionAborted
    )
}

/// Reads what is available into `buf`; `false` at end of stream.
fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<bool, Failure> {
    let mut chunk = [0u8; 8192];
    match stream.read(&mut chunk) {
        Ok(0) => Ok(false),
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(true)
        }
        Err(e) if is_reset(&e) && buf.is_empty() => Ok(false),
        Err(e) => Err(e.into()),
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Status code, `Content-Length` and whether the server closes.
fn parse_head(head: &str) -> Result<(u16, Option<usize>, bool), Failure> {
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = None;
    let mut close = status_line.starts_with("HTTP/1.0");
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    Ok((status, length, close))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// Answers every request with `200 ok`; after `per_conn` responses on
    /// one connection (0 = never) it answers with `Connection: close`.
    /// Serves `conns` connections, then returns how many it saw.
    fn server(per_conn: usize, conns: usize) -> (SocketAddr, thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let mut seen = 0;
            for stream in listener.incoming().take(conns) {
                let mut s = stream.unwrap();
                seen += 1;
                let mut buf = Vec::new();
                let mut answered = 0;
                loop {
                    let Some(end) = find(&buf, b"\r\n\r\n") else {
                        let mut chunk = [0u8; 1024];
                        match s.read(&mut chunk) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        }
                        continue;
                    };
                    let head = String::from_utf8_lossy(&buf[..end]).into_owned();
                    let len: usize = head
                        .lines()
                        .find_map(|l| l.strip_prefix("Content-Length: "))
                        .map(|v| v.trim().parse().unwrap())
                        .unwrap_or(0);
                    while buf.len() < end + 4 + len {
                        let mut chunk = [0u8; 1024];
                        let n = s.read(&mut chunk).unwrap();
                        buf.extend_from_slice(&chunk[..n]);
                    }
                    buf.drain(..end + 4 + len);
                    answered += 1;
                    let last = per_conn == 0 || answered == per_conn;
                    let conn = if last { "close" } else { "keep-alive" };
                    let reply = format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: {conn}\r\n\r\nok"
                    );
                    s.write_all(reply.as_bytes()).unwrap();
                    if last {
                        break;
                    }
                }
            }
            seen
        });
        (addr, handle)
    }

    #[test]
    fn reuses_the_connection_while_the_server_keeps_it_alive() {
        let (addr, handle) = server(3, 2);
        let mut c = Client::new(addr);
        for _ in 0..6 {
            let r = c.post("/x", "{}").unwrap();
            assert_eq!((r.status, r.body.as_str()), (200, "ok"));
        }
        assert_eq!(c.connects, 2, "three requests per connection");
        drop(c);
        assert_eq!(handle.join().unwrap(), 2);
    }

    #[test]
    fn reconnects_for_every_request_when_the_server_closes() {
        let (addr, handle) = server(0, 4);
        let mut c = Client::new(addr);
        for _ in 0..4 {
            assert_eq!(c.post("/x", "{}").unwrap().status, 200);
        }
        assert_eq!(c.connects, 4);
        handle.join().unwrap();
    }

    #[test]
    fn resends_once_when_an_idle_connection_was_dropped() {
        // The first connection is closed without a `Connection: close`
        // header after one response, as a server does when it drops an
        // idle keep-alive connection.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (closed_tx, closed_rx) = std::sync::mpsc::channel();
        let handle = thread::spawn(move || {
            for (i, stream) in listener.incoming().take(2).enumerate() {
                let mut s = stream.unwrap();
                let mut buf = [0u8; 4096];
                let n = s.read(&mut buf).unwrap();
                assert!(n > 0);
                let body = if i == 0 { "a" } else { "b" };
                let reply = format!("HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n{body}");
                s.write_all(reply.as_bytes()).unwrap();
                drop(s);
                closed_tx.send(()).unwrap();
            }
        });
        let mut c = Client::new(addr);
        assert_eq!(c.post("/x", "{}").unwrap().body, "a");
        closed_rx.recv().unwrap();
        assert_eq!(c.post("/x", "{}").unwrap().body, "b");
        assert_eq!(c.connects, 2);
        handle.join().unwrap();
    }

    #[test]
    fn a_refused_connection_is_an_error_not_a_panic() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut c = Client::new(addr);
        assert!(c.post("/x", "{}").is_err());
    }
}
