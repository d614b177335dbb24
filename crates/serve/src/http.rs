//! A minimal HTTP/1.1 layer on `std::net` — incremental request
//! parsing, response rendering, and clients (one-shot and keep-alive).
//!
//! Implemented in-repo rather than pulling in a web framework, consistent
//! with the offline vendored-dependency policy (DESIGN.md §8): the
//! serving layer needs exactly `Content-Length`-delimited JSON bodies,
//! and nothing more. Chunked encoding and TLS are out of scope; HTTP/1.1
//! **keep-alive and pipelining** are supported by the event-driven front
//! end (see [`crate::event_loop`]), whose per-connection state machine
//! feeds bytes through `parse_request` here (crate-internal).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Maximum accepted request-head (request line + headers) size.
pub(crate) const MAX_HEAD: usize = 16 * 1024;
/// Maximum accepted body size.
pub(crate) const MAX_BODY: usize = 16 * 1024 * 1024;

/// A parsed request: method, path, and UTF-8 body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased by the client, verbatim from peers).
    pub method: String,
    /// The request target, e.g. `/facts/3`.
    pub path: String,
    /// The body (empty when no `Content-Length` was sent).
    pub body: String,
}

/// A routed response: status code, content type, and body. What the
/// request handlers hand back to the event loop to frame and write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value (`application/json` for every route
    /// except the Prometheus text of `GET /metrics`).
    pub content_type: &'static str,
    /// The response body.
    pub body: String,
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Why a byte stream failed to parse as a request. [`ParseError::status`]
/// picks the response status the event loop answers with before closing
/// the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParseError {
    /// The head or declared body exceeds the accepted bound → 413.
    TooLarge(&'static str),
    /// Anything else unparseable → 400.
    Malformed(&'static str),
}

impl ParseError {
    /// The response status for this rejection.
    pub(crate) fn status(self) -> u16 {
        match self {
            ParseError::TooLarge(_) => 413,
            ParseError::Malformed(_) => 400,
        }
    }

    /// The human-readable reason.
    pub(crate) fn message(self) -> &'static str {
        match self {
            ParseError::TooLarge(m) | ParseError::Malformed(m) => m,
        }
    }
}

/// The parsed head fields the framing layer needs.
struct HeadFields {
    method: String,
    path: String,
    content_length: usize,
    close_after: bool,
}

/// Parses a request head (everything before the `\r\n\r\n`): request
/// line, `Content-Length`, and the keep-alive decision — HTTP/1.1
/// defaults to keep-alive unless `Connection: close`; HTTP/1.0 defaults
/// to close unless `Connection: keep-alive`.
fn parse_head_fields(head_bytes: &[u8]) -> Result<HeadFields, ParseError> {
    let head_text =
        std::str::from_utf8(head_bytes).map_err(|_| ParseError::Malformed("non-UTF-8 head"))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().ok_or(ParseError::Malformed("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(ParseError::Malformed("missing method"))?;
    let path = parts.next().ok_or(ParseError::Malformed("missing path"))?;
    let version = parts.next().unwrap_or("HTTP/1.1");

    let mut content_length = 0usize;
    let mut connection: Option<String> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ParseError::Malformed("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                connection = Some(value.trim().to_ascii_lowercase());
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(ParseError::TooLarge("body too large"));
    }
    let close_after = match connection.as_deref() {
        Some("close") => true,
        Some(c) if c.contains("keep-alive") => false,
        _ => version == "HTTP/1.0",
    };
    Ok(HeadFields {
        method: method.to_owned(),
        path: path.to_owned(),
        content_length,
        close_after,
    })
}

/// Outcome of [`parse_request`] on a (possibly still growing) buffer.
#[derive(Debug)]
pub(crate) enum Parsed {
    /// One complete request: how many buffer bytes it consumed (the
    /// remainder is the start of the next pipelined request) and whether
    /// the peer asked to close after the response.
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer this request occupied.
        consumed: usize,
        /// `Connection: close` semantics for the response.
        close_after: bool,
    },
    /// The buffer holds a prefix of a request; read more bytes.
    Partial,
}

/// Incremental request parsing over an accumulation buffer: the
/// event-loop front end appends whatever the socket yields and calls
/// this until it returns [`Parsed::Complete`] (possibly several times
/// per readable wakeup, for pipelined peers).
///
/// The head bound is enforced as soon as the buffer outgrows
/// [`MAX_HEAD`] with no terminator in sight, and the body bound from
/// the declared `Content-Length` — so a peer can never make the server
/// buffer more than one bounded request ahead of dispatch.
pub(crate) fn parse_request(buf: &[u8]) -> Result<Parsed, ParseError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD {
            return Err(ParseError::TooLarge("request head too large"));
        }
        return Ok(Parsed::Partial);
    };
    if head_end > MAX_HEAD {
        return Err(ParseError::TooLarge("request head too large"));
    }
    // analyzer: allow(panic-index) -- find_head_end returned head_end, so buf has >= head_end + 4 bytes
    let fields = parse_head_fields(&buf[..head_end])?;
    let body_start = head_end + 4;
    let body_end = body_start + fields.content_length;
    if buf.len() < body_end {
        return Ok(Parsed::Partial);
    }
    // analyzer: allow(panic-index) -- buf.len() >= body_end was checked above
    let body = String::from_utf8(buf[body_start..body_end].to_vec())
        .map_err(|_| ParseError::Malformed("non-UTF-8 body"))?;
    Ok(Parsed::Complete {
        request: Request {
            method: fields.method,
            path: fields.path,
            body,
        },
        consumed: body_end,
        close_after: fields.close_after,
    })
}

/// Position of the `\r\n\r\n` head terminator, if present.
fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The reason phrase for the statuses this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Renders one response to wire bytes. `keep_alive` picks the
/// `Connection` header: the event loop keeps connections open unless the
/// request (or a parse error) demands otherwise.
pub(crate) fn render_response(
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> Vec<u8> {
    format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
    .into_bytes()
}

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

/// A one-shot HTTP client call: `Connection: close`, optional JSON body.
/// Returns `(status, body)`. For repeated calls against one server,
/// prefer [`HttpClient`], which reuses its connection.
pub fn http_call<A: ToSocketAddrs>(
    addr: A,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: ltm\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response"))?;
    let (head, response_body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "truncated response"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, response_body.to_owned()))
}

/// A reusable keep-alive HTTP/1.1 client: one TCP connection across
/// calls, `Content-Length`-framed response parsing (no read-to-EOF), and
/// [`HttpClient::pipeline`] for writing several requests before reading
/// any response. The benchmark harness and e2e tests drive the
/// event-loop front end through this client.
///
/// A dropped connection (server restart, idle reaping) is repaired by a
/// single transparent reconnect when the failure happens before any
/// response bytes arrived — a request that died mid-response surfaces
/// the error instead, since the server may have executed it.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Bytes read past the end of the previous response (the next
    /// pipelined response's prefix).
    carry: Vec<u8>,
    read_timeout: Duration,
}

impl HttpClient {
    /// A client for `addr`. Resolution happens here; the connection is
    /// opened lazily on the first call.
    pub fn new<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
        })?;
        Ok(Self {
            addr,
            stream: None,
            carry: Vec::new(),
            read_timeout: Duration::from_secs(60),
        })
    }

    /// Overrides the per-read socket timeout (default 60 s).
    pub fn set_read_timeout(&mut self, timeout: Duration) {
        self.read_timeout = timeout;
    }

    /// Whether the previous call left a live connection to reuse.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    fn connect(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.read_timeout))?;
            stream.set_nodelay(true)?;
            self.carry.clear();
            self.stream = Some(stream);
        }
        // analyzer: allow(panic-expect) -- the branch above just filled the Option
        Ok(self.stream.as_mut().expect("stream just connected"))
    }

    fn render_request(method: &str, path: &str, body: Option<&str>) -> Vec<u8> {
        let body = body.unwrap_or("");
        format!(
            "{method} {path} HTTP/1.1\r\nHost: ltm\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// One keep-alive request/response round trip.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let wire = Self::render_request(method, path, body);
        let reused = self.stream.is_some();
        match self.try_round_trip(&wire) {
            Ok(result) => Ok(result),
            // A reused connection may have been reaped between calls
            // (idle deadline, server restart): retry once on a fresh
            // connection. Fresh-connection failures are real errors.
            Err(_) if reused => {
                self.stream = None;
                self.try_round_trip(&wire)
            }
            Err(e) => Err(e),
        }
    }

    /// Writes every request, then reads the responses **in request
    /// order** — the pipelining contract the event-loop front end
    /// guarantees. No transparent retry: a mid-pipeline failure is
    /// surfaced, since the server may have executed a prefix.
    pub fn pipeline(
        &mut self,
        requests: &[(&str, &str, Option<&str>)],
    ) -> io::Result<Vec<(u16, String)>> {
        let stream = self.connect()?;
        let mut wire = Vec::new();
        for (method, path, body) in requests {
            wire.extend_from_slice(&Self::render_request(method, path, *body));
        }
        if let Err(e) = stream.write_all(&wire).and_then(|()| stream.flush()) {
            self.stream = None;
            return Err(e);
        }
        let mut responses = Vec::with_capacity(requests.len());
        for _ in requests {
            match self.read_response() {
                Ok(r) => responses.push(r),
                Err(e) => {
                    self.stream = None;
                    return Err(e);
                }
            }
        }
        Ok(responses)
    }

    fn try_round_trip(&mut self, wire: &[u8]) -> io::Result<(u16, String)> {
        let stream = self.connect()?;
        if let Err(e) = stream.write_all(wire).and_then(|()| stream.flush()) {
            self.stream = None;
            return Err(e);
        }
        match self.read_response() {
            Ok(r) => Ok(r),
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    /// Reads one `Content-Length`-framed response off the connection,
    /// honouring a server-sent `Connection: close`.
    fn read_response(&mut self) -> io::Result<(u16, String)> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
        let Some(stream) = self.stream.as_mut() else {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "not connected"));
        };
        let mut buf = std::mem::take(&mut self.carry);
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = find_head_end(&buf) {
                break pos;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-response-head"));
            }
            // analyzer: allow(panic-index) -- read() returns n <= chunk.len()
            buf.extend_from_slice(&chunk[..n]);
        };
        // analyzer: allow(panic-index) -- find_head_end found the terminator at head_end
        let head_text = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| bad("non-UTF-8 response head"))?
            .to_owned();
        let status: u16 = head_text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut content_length = 0usize;
        let mut close_after = false;
        for line in head_text.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                } else if name.eq_ignore_ascii_case("connection")
                    && value.trim().eq_ignore_ascii_case("close")
                {
                    close_after = true;
                }
            }
        }
        let body_start = head_end + 4;
        while buf.len() < body_start + content_length {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("connection closed mid-response-body"));
            }
            // analyzer: allow(panic-index) -- read() returns n <= chunk.len()
            buf.extend_from_slice(&chunk[..n]);
        }
        // analyzer: allow(panic-index) -- the loop above read until buf covers body_start + content_length
        let body = String::from_utf8(buf[body_start..body_start + content_length].to_vec())
            .map_err(|_| bad("non-UTF-8 response body"))?;
        if close_after {
            self.stream = None;
        } else {
            // analyzer: allow(panic-index) -- body_start + content_length <= buf.len() per the loop above
            self.carry = buf[body_start + content_length..].to_vec();
        }
        Ok((status, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    /// Reads from `stream` until `parse_request` yields one whole request.
    fn read_one(stream: &mut TcpStream) -> Request {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            if let Parsed::Complete { request, .. } = parse_request(&buf).unwrap() {
                return request;
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "peer closed mid-request");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Spins up a listener whose single accepted connection is parsed and
    /// echoed back as a `Connection: close` response.
    fn echo_server() -> (std::net::SocketAddr, JoinHandle<Request>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_one(&mut stream);
            let body = format!("{{\"echo\":{}}}", req.body.len());
            stream
                .write_all(&render_response(200, "application/json", &body, false))
                .unwrap();
            req
        });
        (addr, handle)
    }

    #[test]
    fn request_response_round_trip() {
        let (addr, server) = echo_server();
        let (status, body) = http_call(addr, "POST", "/claims", Some("{\"x\":1}")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"echo\":7}");
        let req = server.join().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/claims");
        assert_eq!(req.body, "{\"x\":1}");
    }

    #[test]
    fn get_without_body_parses() {
        let (addr, server) = echo_server();
        let (status, _) = http_call(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        let req = server.join().unwrap();
        assert_eq!((req.method.as_str(), req.body.as_str()), ("GET", ""));
    }

    #[test]
    fn incremental_parser_handles_split_and_pipelined_requests() {
        // Byte-at-a-time: Partial until the last body byte arrives.
        let wire = b"POST /q HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        for cut in 0..wire.len() {
            assert!(
                matches!(parse_request(&wire[..cut]), Ok(Parsed::Partial)),
                "cut at {cut} must be partial"
            );
        }
        let Ok(Parsed::Complete {
            request,
            consumed,
            close_after,
        }) = parse_request(wire)
        else {
            panic!("complete request must parse");
        };
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/q");
        assert_eq!(request.body, "abcd");
        assert_eq!(consumed, wire.len());
        assert!(!close_after, "HTTP/1.1 defaults to keep-alive");

        // Two pipelined requests in one buffer parse back to back.
        let mut two = wire.to_vec();
        two.extend_from_slice(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        let Ok(Parsed::Complete { consumed, .. }) = parse_request(&two) else {
            panic!("first pipelined request must parse");
        };
        let Ok(Parsed::Complete {
            request,
            close_after,
            ..
        }) = parse_request(&two[consumed..])
        else {
            panic!("second pipelined request must parse");
        };
        assert_eq!(request.path, "/healthz");
        assert!(close_after, "Connection: close must be honoured");
    }

    #[test]
    fn incremental_parser_enforces_bounds_with_the_right_statuses() {
        // Head overflow → 413 as soon as the buffer outgrows the bound.
        let mut oversized = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        oversized.resize(MAX_HEAD + 1, b'a');
        let err = match parse_request(&oversized) {
            Err(e) => e,
            other => panic!("oversized head must be rejected, got {other:?}"),
        };
        assert_eq!(err.status(), 413);

        // Declared body overflow → 413 before a single body byte arrives.
        let huge = format!(
            "POST /q HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = match parse_request(huge.as_bytes()) {
            Err(e) => e,
            other => panic!("oversized body must be rejected, got {other:?}"),
        };
        assert_eq!(err.status(), 413);

        // Garbage content-length → 400.
        let garbage = b"POST /q HTTP/1.1\r\nContent-Length: ponies\r\n\r\n";
        let err = match parse_request(garbage) {
            Err(e) => e,
            other => panic!("bad content-length must be rejected, got {other:?}"),
        };
        assert_eq!(err.status(), 400);

        // A head whose terminator ends exactly at MAX_HEAD parses, and
        // body bytes in the same buffer are kept even though they push
        // the buffer past the bound.
        let body = "0123456789";
        let mut exact = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\nX-Pad: ",
            body.len()
        )
        .into_bytes();
        exact.resize(MAX_HEAD - 4, b'a');
        exact.extend_from_slice(b"\r\n\r\n");
        assert_eq!(exact.len(), MAX_HEAD);
        exact.extend_from_slice(body.as_bytes());
        let Ok(Parsed::Complete {
            request, consumed, ..
        }) = parse_request(&exact)
        else {
            panic!("a head ending exactly at MAX_HEAD must parse");
        };
        assert_eq!(request.path, "/x");
        assert_eq!(request.body, body);
        assert_eq!(consumed, exact.len());
    }

    #[test]
    fn http10_defaults_to_close() {
        let wire = b"GET / HTTP/1.0\r\n\r\n";
        let Ok(Parsed::Complete { close_after, .. }) = parse_request(wire) else {
            panic!("HTTP/1.0 request must parse");
        };
        assert!(close_after);
        let wire = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        let Ok(Parsed::Complete { close_after, .. }) = parse_request(wire) else {
            panic!("HTTP/1.0 keep-alive request must parse");
        };
        assert!(!close_after);
    }

    #[test]
    fn keep_alive_client_reuses_one_connection() {
        // A tiny keep-alive server: accepts ONE connection and answers
        // every request on it, so a client that reconnects would hang on
        // accept — passing proves the connection was reused.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut served = 0u32;
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                match parse_request(&buf) {
                    Ok(Parsed::Complete {
                        request, consumed, ..
                    }) => {
                        buf.drain(..consumed);
                        let body = format!("{{\"path\":\"{}\"}}", request.path);
                        stream
                            .write_all(&render_response(200, "application/json", &body, true))
                            .unwrap();
                        served += 1;
                        if served == 3 {
                            return served;
                        }
                    }
                    Ok(Parsed::Partial) => {
                        let n = stream.read(&mut chunk).unwrap();
                        if n == 0 {
                            return served;
                        }
                        buf.extend_from_slice(&chunk[..n]);
                    }
                    Err(e) => panic!("client sent garbage: {e:?}"),
                }
            }
        });
        let mut client = HttpClient::new(addr).unwrap();
        for i in 0..2 {
            let (status, body) = client.call("GET", &format!("/r{i}"), None).unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, format!("{{\"path\":\"/r{i}\"}}"));
            assert!(client.is_connected());
        }
        // Pipelined tail: one write burst, responses in order.
        let responses = client.pipeline(&[("GET", "/p", None)]).unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].1, "{\"path\":\"/p\"}");
        assert_eq!(server.join().unwrap(), 3);
    }

    #[test]
    fn keep_alive_client_survives_a_reaped_connection() {
        // Server answers one request per connection then closes WITHOUT
        // a Connection: close header (simulating an idle reap between
        // calls); the client must transparently reconnect.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let req = read_one(&mut stream);
                let body = format!("{{\"path\":\"{}\"}}", req.path);
                stream
                    .write_all(&render_response(200, "application/json", &body, true))
                    .unwrap();
                drop(stream); // surprise close
            }
        });
        let mut client = HttpClient::new(addr).unwrap();
        let (status, _) = client.call("GET", "/a", None).unwrap();
        assert_eq!(status, 200);
        // The server closed the socket after responding; this call hits
        // the dead connection and must retry on a fresh one.
        let (status, body) = client.call("GET", "/b", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"path\":\"/b\"}");
        server.join().unwrap();
    }
}
