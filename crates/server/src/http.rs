//! A minimal, std-only HTTP/1.1 layer.
//!
//! The container this system builds in is offline, so no external HTTP
//! stack is available — and none is needed: the control plane speaks a
//! deliberately small subset of HTTP/1.1. One request per connection
//! (`Connection: close`), bodies framed by `Content-Length`, no chunked
//! transfer, no keep-alive, no TLS. Every limit is explicit so a
//! misbehaving peer costs a bounded amount of memory and time, never an
//! unbounded buffer or a hung worker.

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest accepted request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest accepted request body. The largest body any test, example or
/// benchmark workload sends is a checkpoint import of 1 225 bytes (specs
/// stay under 800), so 64 KiB leaves over 50× headroom.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// Socket read/write timeout: a stalled peer frees its worker.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A parse- or framing-level HTTP failure (maps to 400, never a panic).
#[derive(Debug)]
pub struct HttpError(pub String);

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError(format!("io: {e}"))
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path without the query string (`/v1/campaigns/3`).
    pub path: String,
    /// Query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Request body (empty without `Content-Length`).
    pub body: String,
}

impl Request {
    /// First value of query parameter `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The path split into non-empty segments
    /// (`/v1/campaigns/3` → `["v1", "campaigns", "3"]`).
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Reads one head line, never more than what is left of the
/// [`MAX_HEAD_BYTES`] budget, and charges it to `head`.
fn read_head_line(reader: &mut impl BufRead, head: &mut usize) -> Result<String, HttpError> {
    let mut line = String::new();
    let left = MAX_HEAD_BYTES - *head;
    reader.take(left as u64).read_line(&mut line)?;
    *head += line.len();
    if line.len() == left && !line.ends_with('\n') {
        return Err(HttpError("request head too large".to_owned()));
    }
    Ok(line)
}

/// Reads and parses one request from `stream`. Enforces [`MAX_HEAD_BYTES`]
/// and [`MAX_BODY_BYTES`] before buffering: no read asks for more than is
/// left of the head budget or than `Content-Length` announced, so a peer
/// costs at most those bytes plus one `BufReader` buffer. Anything over
/// budget, short or malformed is a clean [`HttpError`].
pub fn read_request(stream: impl Read) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);

    let mut head = 0usize;
    let line = read_head_line(&mut reader, &mut head)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError("empty request line".to_owned()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError("request line missing target".to_owned()))?
        .to_owned();
    let version = parts
        .next()
        .ok_or_else(|| HttpError("request line missing version".to_owned()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError(format!("unsupported version {version}")));
    }

    let mut content_length = 0usize;
    loop {
        let header = read_head_line(&mut reader, &mut head)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| HttpError("unreadable content-length".to_owned()))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }

    let mut body = Vec::new();
    reader.take(content_length as u64).read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(HttpError(format!(
            "body ended after {} of {content_length} bytes",
            body.len()
        )));
    }
    let body = String::from_utf8(body).map_err(|_| HttpError("body is not utf-8".to_owned()))?;

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q),
        None => (target.clone(), ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (kv.to_owned(), String::new()),
        })
        .collect();

    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// One response about to be written.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        let value = taopt_ui_model::json::Value::Object(vec![(
            "error".to_owned(),
            taopt_ui_model::json::Value::Str(message.to_owned()),
        )]);
        Response::json(status, value.to_json_string())
    }
}

/// The reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes `response` to `stream` and flushes. Connection: close always —
/// one request per connection keeps the worker pool's accounting exact.
pub fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    if response.status == 503 || response.status == 429 {
        head.push_str("Retry-After: 1\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts the bytes `read_request` pulls from its source.
    struct Counting<R> {
        inner: R,
        read: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    /// `std::io::BufReader`'s default capacity.
    const BUF_READER_CAPACITY: usize = 8 * 1024;

    #[test]
    fn endless_head_is_cut_off_at_the_head_budget() {
        // One request line that never ends, then one header that never
        // ends: neither may buffer past the head budget.
        let request_line = std::io::repeat(b'a');
        let header = (&b"GET / HTTP/1.1\r\nX: "[..]).chain(std::io::repeat(b'a'));
        for source in [Box::new(request_line) as Box<dyn Read>, Box::new(header)] {
            let mut source = Counting {
                inner: source,
                read: 0,
            };
            let err = read_request(&mut source).expect_err("an endless head is refused");
            assert_eq!(err.0, "request head too large");
            assert!(
                source.read <= MAX_HEAD_BYTES + BUF_READER_CAPACITY,
                "read {} bytes",
                source.read
            );
        }
    }

    #[test]
    fn body_shorter_than_content_length_is_refused() {
        let bytes = b"POST /v1/campaigns HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}";
        let err = read_request(&bytes[..]).expect_err("a short body is refused");
        assert_eq!(err.0, "body ended after 2 of 10 bytes");
    }

    #[test]
    fn well_formed_request_parses_from_bytes() {
        let bytes = b"post /v1/campaigns?wait=1&x HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        let request = read_request(&bytes[..]).unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.segments(), ["v1", "campaigns"]);
        assert_eq!(request.query_param("wait"), Some("1"));
        assert_eq!(request.query_param("x"), Some(""));
        assert_eq!(request.body, "{}");
    }

    #[test]
    fn body_announced_over_the_bound_is_refused_unread() {
        let request =
            |len: usize| format!("POST /v1/campaigns HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
        let mut body = Counting {
            inner: std::io::repeat(b'a'),
            read: 0,
        };
        let over = MAX_BODY_BYTES + 1;
        let err = read_request(request(over).as_bytes().chain(&mut body))
            .expect_err("an oversized body is refused");
        assert_eq!(
            err.0,
            format!("body of {over} bytes exceeds the {MAX_BODY_BYTES}-byte limit")
        );
        assert_eq!(body.read, 0, "body bytes were read before the refusal");
        let at = read_request(request(MAX_BODY_BYTES).as_bytes().chain(&mut body))
            .expect("a body of exactly the bound is accepted");
        assert_eq!(at.body.len(), MAX_BODY_BYTES);
    }

    #[test]
    fn head_of_exactly_the_budget_is_accepted() {
        let start = "GET / HTTP/1.1\r\nX: ";
        let pad = MAX_HEAD_BYTES - start.len() - "\r\n\r\n".len();
        let head = format!("{start}{}\r\n\r\n", "a".repeat(pad));
        assert_eq!(head.len(), MAX_HEAD_BYTES);
        assert!(read_request(head.as_bytes()).is_ok());
        let over = format!("{start}{}\r\n\r\n", "a".repeat(pad + 1));
        assert_eq!(
            read_request(over.as_bytes()).unwrap_err().0,
            "request head too large"
        );
    }
}
