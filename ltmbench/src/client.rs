//! The benchmark's own load generator: a minimal HTTP/1.1 client that
//! keeps one connection alive and sends requests rendered ahead of time.
//! It shares no code with the program's HTTP layer, so a change to the
//! program's client cannot move a number.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A request rendered to its wire bytes during set-up.
#[derive(Debug, Clone)]
pub struct Request(Vec<u8>);

impl Request {
    /// Renders `method path` with a JSON body (empty for GET).
    pub fn new(method: &str, path: &str, body: &str) -> Self {
        let mut bytes = format!(
            "{method} {path} HTTP/1.1\r\nHost: ltmbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        bytes.extend_from_slice(body.as_bytes());
        Request(bytes)
    }
}

/// A response: status code and body text.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body text.
    pub body: String,
}

/// One keep-alive connection, driven as a closed loop (one request in
/// flight at a time).
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off and a generous read timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends one request and reads its whole response. Fails if the
    /// server closes the connection, which a keep-alive loop never expects.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        self.stream.write_all(&request.0)?;
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let mut length = None;
        let mut close = false;
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length.ok_or_else(|| bad("no Content-Length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = String::from_utf8(self.buf[head_end..head_end + length].to_vec())
            .map_err(|_| bad("response body is not UTF-8"))?;
        self.buf.drain(..head_end + length);
        if close {
            return Err(bad("server closed a keep-alive connection"));
        }
        Ok(Response { status, body })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}
