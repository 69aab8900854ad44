//! Hand-rolled HTTP/1.1 request parsing and response writing over
//! `std::net::TcpStream` — no frameworks, matching the workspace's
//! zero-dependency constraint.
//!
//! The parser is deliberately strict and bounded: request line and
//! headers are capped, bodies require `Content-Length` and are capped,
//! and every malformation maps to a 4xx [`HttpError`] — never a panic
//! (the robustness tests fire truncated and oversized requests at a live
//! server). Every response closes the connection (`Connection: close`);
//! the server is request-per-connection by design, because that keeps the
//! drain a scope join: a worker lives for one request, so no idle
//! keep-alive connection can hold shutdown open. A warm `/v1/predict`
//! round trip over loopback takes about 0.2 ms, 65–80 µs of it
//! handling (perfbench's `serve` workload on a 2-vCPU x86-64 VM);
//! keep-alive waits until that workload's ledger shows connection set-up
//! dominating.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest accepted request line (method + target + version).
const MAX_REQUEST_LINE: usize = 4 * 1024;
/// Cap on the combined size of all header lines.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Cap on a request body (`413` beyond this).
pub const MAX_BODY_BYTES: usize = 256 * 1024;
/// Per-connection read/write timeout: a stalled peer must not pin a
/// worker forever.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// The request target path (query string included, if any).
    pub target: String,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// A header value by (case-insensitive) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A request that could not be served, mapped straight to a status line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpError {
    /// HTTP status code (4xx/5xx).
    pub status: u16,
    /// Human-readable cause, echoed in the JSON error body.
    pub message: String,
}

impl HttpError {
    /// Builds an error response value.
    #[must_use]
    pub fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }

    /// `400 Bad Request`.
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, message)
    }

    /// `404 Not Found`.
    #[must_use]
    pub fn not_found(message: impl Into<String>) -> Self {
        Self::new(404, message)
    }
}

/// Reads and validates one request from a connection.
///
/// # Errors
///
/// [`HttpError`] with the right 4xx status for oversized lines/headers/
/// bodies, truncation, a missing or unparsable `Content-Length`, or
/// I/O failure mid-request.
pub fn read_request(stream: &TcpStream) -> Result<Request, HttpError> {
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| HttpError::new(500, format!("socket setup: {e}")))?;
    let mut reader = BufReader::new(stream);

    let line = read_line(&mut reader, MAX_REQUEST_LINE, "request line")?;
    let mut parts = line.split_ascii_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::bad_request("malformed request line"));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad_request("malformed request line"));
    }

    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let line = read_line(&mut reader, MAX_HEADER_BYTES, "header line")?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(HttpError::new(431, "headers too large"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::bad_request("malformed header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::new(501, "transfer-encoding not supported"));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::bad_request("unparsable content-length"))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::new(413, "request body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|_| HttpError::bad_request("request body shorter than content-length"))?;

    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body,
    })
}

/// Reads one CRLF- (or LF-) terminated line, capped at `max` bytes.
fn read_line(
    reader: &mut BufReader<&TcpStream>,
    max: usize,
    what: &str,
) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => return Err(HttpError::bad_request(format!("truncated {what}"))),
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > max {
                    let status = if what == "request line" { 414 } else { 431 };
                    return Err(HttpError::new(status, format!("{what} too long")));
                }
            }
            Err(e) => return Err(HttpError::bad_request(format!("reading {what}: {e}"))),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::bad_request(format!("non-UTF-8 {what}")))
}

/// One response, written whole (the bodies here are small).
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (e.g. `X-Cache`, `Retry-After`).
    pub headers: Vec<(&'static str, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// An HTML response.
    #[must_use]
    pub fn html(body: String) -> Self {
        Self {
            status: 200,
            content_type: "text/html; charset=utf-8",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// This response with one extra header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// The error-body response for an [`HttpError`].
    #[must_use]
    pub fn from_error(err: &HttpError) -> Self {
        let mut resp = Self::json(
            err.status,
            format!("{{\"error\": \"{}\"}}\n", sim::json::escape(&err.message)),
        );
        if err.status == 503 {
            resp = resp.with_header("Retry-After", "1");
        }
        resp
    }

    /// Serializes and writes the response; errors are returned for the
    /// caller to log (the client may simply have gone away).
    ///
    /// # Errors
    ///
    /// I/O errors writing to the stream.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
        );
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// The standard reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_phrases_cover_the_emitted_codes() {
        for code in [200, 400, 404, 405, 413, 414, 431, 500, 501, 503] {
            assert_ne!(reason(code), "Response", "{code}");
        }
        assert_eq!(reason(418), "Response");
    }

    #[test]
    fn error_responses_carry_escaped_bodies() {
        let resp = Response::from_error(&HttpError::bad_request("a \"quoted\" cause"));
        assert_eq!(resp.status, 400);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\\\"quoted\\\""), "{body}");
        let shed = Response::from_error(&HttpError::new(503, "at capacity"));
        assert!(shed.headers.iter().any(|(k, _)| *k == "Retry-After"));
    }
}
