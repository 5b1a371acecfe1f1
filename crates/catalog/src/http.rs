//! A hand-rolled HTTP/1.1 server on `std::net::TcpListener`.
//!
//! Nothing HTTP-shaped is vendored in this workspace, so the protocol
//! layer is written out: a fixed pool of worker threads all block in
//! `accept()` on one shared listener (the kernel wakes exactly one per
//! connection), each serving its connection to completion with
//! keep-alive. The surface is exactly what the catalog service needs —
//! `GET` with a query string, JSON bodies, typed error responses — and
//! nothing more.
//!
//! Robustness contract: a malformed request gets a `400` and the
//! connection is closed; a handler panic is caught and answered with a
//! `500`; oversized headers (> 16 KiB) and bodies (> 1 MiB) are
//! rejected; a client that stops sending a request for [`IO_TIMEOUT`],
//! takes longer than that to send a request head and body from its
//! first byte, or takes longer than that to accept one 64 KiB slice of
//! a response, loses its connection, so a stalled or trickling client
//! cannot pin a worker. The worker threads never unwind.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cap on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on a request body (read and discarded — all endpoints are GET).
const MAX_BODY_BYTES: u64 = 1024 * 1024;
/// Socket read and write timeout: a client that stops sending, or stops
/// reading a response, frees its worker after this long. It also bounds
/// the time from a request's first byte to the end of its body.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Response bodies are written in slices of this size, so a large
/// `.prv` export streams to the socket instead of requiring one giant
/// `write` syscall.
const WRITE_SLICE: usize = 64 * 1024;

/// One parsed request: method, percent-decoded path, and query
/// parameters in document order.
#[derive(Clone, Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub query: Vec<(String, String)>,
}

impl Request {
    /// First value of a query parameter.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A response: status, content type, body. The server adds framing
/// headers (`Content-Length`, `Connection`).
#[derive(Clone, Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
}

impl Response {
    pub fn json(body: Vec<u8>) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body,
        }
    }

    pub fn text(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// A typed JSON error: `{"status": N, "error": "..."}`.
    pub fn error(status: u16, msg: &str) -> Response {
        let doc = serde::Value::Map(vec![
            ("status".to_string(), serde::Value::U64(status as u64)),
            ("error".to_string(), serde::Value::Str(msg.to_string())),
        ]);
        Response {
            status,
            content_type: "application/json",
            body: serde_json::to_vec(&doc).expect("error doc serializes"),
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        410 => "Gone",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Error",
    }
}

pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// The listening server: `threads` workers sharing one listener.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// start the worker pool. If a worker fails to spawn, the workers
    /// already started are shut down and the spawn error returned.
    pub fn bind(addr: &str, threads: usize, handler: Handler) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let mut server = HttpServer {
            addr: listener.local_addr()?,
            shutdown: Arc::new(AtomicBool::new(false)),
            workers: Vec::with_capacity(threads.max(1)),
        };
        let listener = Arc::new(listener);
        for i in 0..threads.max(1) {
            let listener = Arc::clone(&listener);
            let shutdown = Arc::clone(&server.shutdown);
            let handler = Arc::clone(&handler);
            let spawned = std::thread::Builder::new()
                .name(format!("osn-http-{i}"))
                .spawn(move || worker_loop(&listener, &shutdown, &handler));
            match spawned {
                Ok(worker) => server.workers.push(worker),
                Err(e) => {
                    server.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(server)
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the server is shut down from another thread.
    pub fn join(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Stop accepting, wake blocked workers, and join them.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Each worker blocked in accept() needs one wake-up connection.
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(listener: &TcpListener, shutdown: &AtomicBool, handler: &Handler) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Per-connection errors (resets, timeouts, garbage) end the
        // connection, never the worker.
        let _ = serve_connection(stream, shutdown, handler);
    }
}

fn serve_connection(
    mut stream: TcpStream,
    shutdown: &AtomicBool,
    handler: &Handler,
) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true).ok();
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    while !shutdown.load(Ordering::SeqCst) {
        match read_request(&mut stream, &mut buf)? {
            ReadOutcome::Closed => return Ok(()),
            ReadOutcome::Bad(why) => {
                write_response(&mut stream, &Response::error(400, why), false)?;
                return Ok(());
            }
            ReadOutcome::Ready {
                request,
                keep_alive,
            } => {
                let response = catch_unwind(AssertUnwindSafe(|| handler(&request)))
                    .unwrap_or_else(|_| Response::error(500, "internal error: handler panicked"));
                write_response(&mut stream, &response, keep_alive)?;
                if !keep_alive {
                    return Ok(());
                }
            }
        }
    }
    Ok(())
}

enum ReadOutcome {
    /// Clean EOF before any request bytes.
    Closed,
    /// Parsed a full request head (body, if any, consumed).
    Ready { request: Request, keep_alive: bool },
    /// Malformed request: answer 400 and close.
    Bad(&'static str),
}

/// Read one request head (and discard its body). `buf` carries bytes
/// already read past the previous request (keep-alive pipelining).
///
/// An idle connection waits for the first byte under the socket's
/// per-read timeout; from that byte on, the whole head and body must
/// arrive within [`IO_TIMEOUT`], so a client trickling bytes cannot
/// hold the worker by restarting the per-read timeout.
fn read_request(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<ReadOutcome> {
    let mut deadline = (!buf.is_empty()).then(|| Instant::now() + IO_TIMEOUT);
    // Whether a read ran under a cut timeout that must be restored.
    let mut shortened = false;
    let head_end = loop {
        if let Some(pos) = find_head_end(buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Ok(ReadOutcome::Bad("request head too large"));
        }
        let mut chunk = [0u8; 4096];
        let n = match deadline {
            None => stream.read(&mut chunk)?,
            Some(deadline) => match read_before(stream, &mut chunk, deadline, &mut shortened)? {
                Some(n) => n,
                None => return Ok(ReadOutcome::Bad("request head not received in time")),
            },
        };
        if n == 0 {
            return Ok(if buf.is_empty() {
                ReadOutcome::Closed
            } else {
                ReadOutcome::Bad("connection closed mid-request")
            });
        }
        buf.extend_from_slice(&chunk[..n]);
        deadline.get_or_insert_with(|| Instant::now() + IO_TIMEOUT);
    };
    let deadline = deadline.expect("a head was read, so its first byte set the deadline");

    let head = buf[..head_end].to_vec();
    let body_already = buf.split_off(head_end + 4);
    buf.clear();
    let Ok(head) = std::str::from_utf8(&head) else {
        return Ok(ReadOutcome::Bad("request head is not UTF-8"));
    };

    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Ok(ReadOutcome::Bad("malformed request line"));
    };
    if parts.next().is_some() || method.is_empty() || target.is_empty() {
        return Ok(ReadOutcome::Bad("malformed request line"));
    }
    if !version.starts_with("HTTP/1.") {
        return Ok(ReadOutcome::Bad("unsupported HTTP version"));
    }
    let http11 = version == "HTTP/1.1";

    let mut connection = String::new();
    let mut content_length: u64 = 0;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Ok(ReadOutcome::Bad("malformed header line"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "connection" => connection = value.to_ascii_lowercase(),
            "content-length" => match value.parse() {
                Ok(n) => content_length = n,
                Err(_) => return Ok(ReadOutcome::Bad("malformed content-length")),
            },
            _ => {}
        }
    }
    let keep_alive = if http11 {
        connection != "close"
    } else {
        connection == "keep-alive"
    };

    // Consume (discard) the body so keep-alive framing stays aligned.
    if content_length > MAX_BODY_BYTES {
        return Ok(ReadOutcome::Bad("request body too large"));
    }
    let mut remaining = content_length.saturating_sub(body_already.len() as u64);
    if content_length < body_already.len() as u64 {
        // Pipelined extra bytes: carry them into the next request.
        buf.extend_from_slice(&body_already[content_length as usize..]);
        remaining = 0;
    }
    let mut sink = [0u8; 4096];
    while remaining > 0 {
        let want = remaining.min(sink.len() as u64) as usize;
        let n = match read_before(stream, &mut sink[..want], deadline, &mut shortened)? {
            Some(0) => return Ok(ReadOutcome::Bad("connection closed mid-body")),
            Some(n) => n,
            None => return Ok(ReadOutcome::Bad("request body not received in time")),
        };
        remaining -= n as u64;
    }
    if shortened {
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
    }

    let (path, query) = match parse_target(target) {
        Ok(t) => t,
        Err(why) => return Ok(ReadOutcome::Bad(why)),
    };
    Ok(ReadOutcome::Ready {
        request: Request {
            method: method.to_string(),
            path,
            query,
        },
        keep_alive,
    })
}

/// One read into `chunk` that gives up at `deadline`: the socket's read
/// timeout is cut to the time left and `shortened` set, for the caller
/// to restore it. `None` when the deadline passed first.
fn read_before(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    deadline: Instant,
    shortened: &mut bool,
) -> io::Result<Option<usize>> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Ok(None);
    }
    stream.set_read_timeout(Some(left))?;
    *shortened = true;
    match stream.read(chunk) {
        Ok(n) => Ok(Some(n)),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Decoded query parameters, in request order.
type QueryParams = Vec<(String, String)>;

/// Split `path?query`, percent-decoding both; `+` means space in the
/// query component only.
fn parse_target(target: &str) -> Result<(String, QueryParams), &'static str> {
    if !target.starts_with('/') {
        return Err("request target must be absolute");
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(path, false)?;
    let mut params = Vec::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        params.push((percent_decode(k, true)?, percent_decode(v, true)?));
    }
    Ok((path, params))
}

fn percent_decode(s: &str, plus_is_space: bool) -> Result<String, &'static str> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).ok_or("truncated percent escape")?;
                let hi = (hex[0] as char).to_digit(16).ok_or("bad percent escape")?;
                let lo = (hex[1] as char).to_digit(16).ok_or("bad percent escape")?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| "percent escape is not UTF-8")
}

fn write_response(stream: &mut TcpStream, response: &Response, keep_alive: bool) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    write_within(stream, head.as_bytes())?;
    for slice in response.body.chunks(WRITE_SLICE) {
        write_within(stream, slice)?;
    }
    stream.flush()
}

/// Write all of `bytes` within [`IO_TIMEOUT`]. The socket's write
/// timeout (always `IO_TIMEOUT` between calls) bounds one `write`; this
/// also bounds their sum, so a reader whose window lets a few bytes
/// trickle through now and then still frees the worker.
fn write_within(stream: &mut TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    let deadline = Instant::now() + IO_TIMEOUT;
    let mut shortened = false;
    let result = loop {
        match stream.write(bytes) {
            Ok(n) if n == bytes.len() => break Ok(()),
            Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break Err(io::ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        shortened = true;
    };
    if shortened {
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_parsing() {
        let (path, query) = parse_target("/runs/a-1/slice?t0=5&t1=9&class=page_fault").unwrap();
        assert_eq!(path, "/runs/a-1/slice");
        assert_eq!(
            query,
            vec![
                ("t0".to_string(), "5".to_string()),
                ("t1".to_string(), "9".to_string()),
                ("class".to_string(), "page_fault".to_string()),
            ]
        );
        let (path, query) = parse_target("/a%20b?x=1+2%3d").unwrap();
        assert_eq!(path, "/a b");
        assert_eq!(query, vec![("x".to_string(), "1 2=".to_string())]);
        assert!(parse_target("relative").is_err());
        assert!(parse_target("/a%zz").is_err());
        assert!(parse_target("/a%2").is_err());
    }

    #[test]
    fn error_body_is_typed_json() {
        let r = Response::error(404, "unknown run id \"x\"");
        assert_eq!(r.status, 404);
        let v: serde::Value = serde_json::from_slice(&r.body).unwrap();
        let map = v.as_map().unwrap();
        assert_eq!(map[0], ("status".to_string(), serde::Value::U64(404)));
        assert!(matches!(&map[1].1, serde::Value::Str(s) if s.contains("unknown run id")));
    }

    #[test]
    fn server_round_trip_and_malformed() {
        let handler: Handler = Arc::new(|req: &Request| {
            if req.path == "/hello" {
                Response::text(format!("hi {}", req.param("name").unwrap_or("?")))
            } else {
                Response::error(404, "nope")
            }
        });
        let server = HttpServer::bind("127.0.0.1:0", 2, handler).unwrap();
        let addr = server.addr();

        let mut client = crate::client::Client::connect(addr).unwrap();
        let (status, body) = client.get("/hello?name=osn").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"hi osn");
        // Keep-alive: same connection serves a second request.
        let (status, _) = client.get("/missing").unwrap();
        assert_eq!(status, 404);

        // Malformed request line → 400, never a panic.
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"NOT A REQUEST\r\n\r\n").unwrap();
        let mut resp = String::new();
        raw.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");

        // Release the keep-alive connection before shutdown, or its
        // worker sits in read() until the socket timeout.
        drop(client);
        server.shutdown();
    }

    /// A client that sends its request head one byte per second never
    /// lets a single read wait `IO_TIMEOUT`, yet gets a 400 or a closed
    /// connection within `IO_TIMEOUT` of its first byte (plus slack).
    #[test]
    fn trickled_request_head_times_out() {
        let handler: Handler = Arc::new(|_: &Request| Response::text("served".to_string()));
        let server = HttpServer::bind("127.0.0.1:0", 1, handler).unwrap();
        let mut slow = TcpStream::connect(server.addr()).unwrap();
        let mut reader = slow.try_clone().unwrap();
        let limit = IO_TIMEOUT + Duration::from_secs(3);
        reader.set_read_timeout(Some(limit)).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let trickle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let head = b"GET /x HTTP/1.1\r\nX-Slow: ".iter();
                for &byte in head.chain(std::iter::repeat(&b'a')) {
                    if stop.load(Ordering::SeqCst) || slow.write_all(&[byte]).is_err() {
                        return;
                    }
                    std::thread::sleep(Duration::from_secs(1));
                }
            })
        };
        let started = Instant::now();
        let mut answer = Vec::new();
        let outcome = reader.read_to_end(&mut answer);
        let elapsed = started.elapsed();
        stop.store(true, Ordering::SeqCst);
        trickle.join().unwrap();
        drop(reader);
        server.shutdown();
        assert!(elapsed <= limit, "answered after {elapsed:?}");
        match outcome {
            Ok(_) => assert!(
                answer.is_empty() || answer.starts_with(b"HTTP/1.1 400"),
                "{}",
                String::from_utf8_lossy(&answer)
            ),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionAborted
                ),
                "{e} after {elapsed:?}"
            ),
        }
    }

    /// A client that sends a whole head declaring a 1 MiB body, then
    /// trickles the body one byte per second, shares the head's
    /// deadline: it gets a 400 or a closed connection within
    /// `IO_TIMEOUT` of its first byte (plus slack), never a worker held
    /// for as long as it keeps trickling.
    #[test]
    fn trickled_request_body_times_out() {
        let handler: Handler = Arc::new(|_: &Request| Response::text("served".to_string()));
        let server = HttpServer::bind("127.0.0.1:0", 1, handler).unwrap();
        let mut slow = TcpStream::connect(server.addr()).unwrap();
        let mut reader = slow.try_clone().unwrap();
        let limit = IO_TIMEOUT + Duration::from_secs(3);
        reader.set_read_timeout(Some(limit)).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let trickle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let head = b"GET /x HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n";
                if slow.write_all(head).is_err() {
                    return;
                }
                while !stop.load(Ordering::SeqCst) && slow.write_all(b"a").is_ok() {
                    std::thread::sleep(Duration::from_secs(1));
                }
            })
        };
        let started = Instant::now();
        let mut answer = Vec::new();
        let outcome = reader.read_to_end(&mut answer);
        let elapsed = started.elapsed();
        stop.store(true, Ordering::SeqCst);
        trickle.join().unwrap();
        drop(reader);
        server.shutdown();
        assert!(elapsed <= limit, "answered after {elapsed:?}");
        match outcome {
            Ok(_) => assert!(
                answer.is_empty() || answer.starts_with(b"HTTP/1.1 400"),
                "{}",
                String::from_utf8_lossy(&answer)
            ),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionAborted
                ),
                "{e} after {elapsed:?}"
            ),
        }
    }
}
