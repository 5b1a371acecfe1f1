//! A minimal blocking HTTP/1.1 client: keep-alive `GET`s against one
//! server. Used by the in-process service tests, the
//! `catalog_throughput` bench, and the CI end-to-end smoke — it speaks
//! exactly the dialect [`crate::http`] serves (`Content-Length`-framed
//! responses).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection to a catalog service.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Whether `stream` already carried a whole response: only such a
    /// connection can have been closed by the server while idle.
    served: bool,
}

/// A failed attempt. `stale` marks the one failure after which the
/// request is sent again: the connection had already served a
/// request, and the write failed or the server closed or reset it
/// before any byte of the response arrived, so the request was never
/// answered.
struct Failed {
    error: io::Error,
    stale: bool,
}

impl From<io::Error> for Failed {
    fn from(error: io::Error) -> Failed {
        Failed {
            error,
            stale: false,
        }
    }
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let mut client = Client {
            addr,
            stream: None,
            served: false,
        };
        client.reconnect()?;
        Ok(client)
    }

    fn reconnect(&mut self) -> io::Result<()> {
        self.stream = None;
        self.served = false;
        let stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true).ok();
        self.stream = Some(stream);
        Ok(())
    }

    /// Issue `GET target` and return `(status, body)`. If the server
    /// closed our idle keep-alive connection before answering, reconnect
    /// and send the request once more. Any other failure — a timeout, a
    /// response cut short, an error on a fresh connection — is
    /// returned, never resent, and the connection is dropped (the next
    /// call opens a new one).
    pub fn get(&mut self, target: &str) -> io::Result<(u16, Vec<u8>)> {
        let result = match self.try_get(target) {
            Err(Failed { stale: true, .. }) => {
                self.reconnect()?;
                self.try_get(target)
            }
            result => result,
        };
        if result.is_err() {
            self.stream = None;
            self.served = false;
        }
        result.map_err(|failed| failed.error)
    }

    fn try_get(&mut self, target: &str) -> Result<(u16, Vec<u8>), Failed> {
        if self.stream.is_none() {
            self.reconnect()?;
        }
        let reused = self.served;
        let stream = self.stream.as_mut().expect("just connected");
        let request = format!("GET {target} HTTP/1.1\r\nHost: osn-catalog\r\n\r\n");
        stream
            .write_all(request.as_bytes())
            .and_then(|()| stream.flush())
            .map_err(|error| Failed {
                error,
                stale: reused,
            })?;

        // Read the response head.
        let mut buf: Vec<u8> = Vec::with_capacity(1024);
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let mut chunk = [0u8; 4096];
            let n = match stream.read(&mut chunk) {
                Ok(n) => n,
                Err(error) => {
                    let closed = matches!(
                        error.kind(),
                        io::ErrorKind::ConnectionReset
                            | io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::BrokenPipe
                    );
                    return Err(Failed {
                        error,
                        stale: reused && closed && buf.is_empty(),
                    });
                }
            };
            if n == 0 {
                return Err(Failed {
                    error: io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before response head",
                    ),
                    stale: reused && buf.is_empty(),
                });
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed status line: {status_line:?}"),
                )
            })?;
        let mut content_length: Option<usize> = None;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => content_length = value.trim().parse().ok(),
                "connection" => close = value.trim().eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let len = content_length.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "response without content-length",
            )
        })?;

        // Read the body (part of it may already be buffered).
        let mut body = buf.split_off(head_end + 4);
        while body.len() < len {
            let mut chunk = [0u8; 16 * 1024];
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                )
                .into());
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(len);
        if close {
            self.stream = None;
            self.served = false;
        } else {
            self.served = true;
        }
        Ok((status, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::thread;

    /// Read one request head from `conn`; false if it closed first.
    fn read_head(conn: &mut TcpStream) -> bool {
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            match conn.read(&mut byte) {
                Ok(1) => head.push(byte[0]),
                _ => return false,
            }
        }
        true
    }

    /// A server that closes a keep-alive connection after answering
    /// (an idle timeout) costs one reconnect: the next `get` succeeds,
    /// and each request reached the server once.
    #[test]
    fn resends_once_on_a_connection_closed_after_serving() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (closed_tx, closed_rx) = mpsc::channel();
        let stub = thread::spawn(move || {
            let mut requests = 0;
            for _ in 0..2 {
                let (mut conn, _) = listener.accept().unwrap();
                requests += read_head(&mut conn) as usize;
                conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .unwrap();
                drop(conn);
                closed_tx.send(()).unwrap();
            }
            requests
        });
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.get("/a").unwrap(), (200, b"ok".to_vec()));
        closed_rx.recv().unwrap();
        assert_eq!(client.get("/b").unwrap(), (200, b"ok".to_vec()));
        assert_eq!(stub.join().unwrap(), 2);
    }

    /// A response cut off mid-head on a fresh connection is an error,
    /// and the request is not sent again.
    #[test]
    fn partial_head_is_returned_not_resent() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stub = thread::spawn(move || {
            let mut requests = 0;
            loop {
                let (mut conn, _) = listener.accept().unwrap();
                if !read_head(&mut conn) {
                    return requests; // the test's wake-up connection
                }
                requests += 1;
                conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Le").unwrap();
            }
        });
        let mut client = Client::connect(addr).unwrap();
        let err = client.get("/a").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        drop(TcpStream::connect(addr).unwrap());
        assert_eq!(stub.join().unwrap(), 1);
    }
}
