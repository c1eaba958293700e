//! Incremental HTTP/1.1 message parsing over buffered blocking streams.

use super::message::{HttpRequest, HttpResponse, Method, StatusCode};
use janus_types::{JanusError, Result};
use std::io::BufRead;

/// Defensive limits for parsing messages from untrusted peers.
#[derive(Debug, Clone)]
pub struct ParseLimits {
    /// Maximum bytes in the request/status line or any header line.
    pub max_line: usize,
    /// Maximum number of headers.
    pub max_headers: usize,
    /// Maximum declared `Content-Length`.
    pub max_body: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_line: 8 * 1024,
            max_headers: 64,
            max_body: 1024 * 1024,
        }
    }
}

/// Read one CRLF- (or LF-) terminated line, enforcing the length limit.
/// Returns `None` on clean EOF before any byte.
fn read_line<R: BufRead>(reader: &mut R, limits: &ParseLimits) -> Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte)? {
            0 => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(JanusError::http("connection closed mid-line"));
            }
            _ => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let s = String::from_utf8(line)
                        .map_err(|_| JanusError::http("non-UTF-8 header line"))?;
                    return Ok(Some(s));
                }
                line.push(byte[0]);
                if line.len() > limits.max_line {
                    return Err(JanusError::http("header line too long"));
                }
            }
        }
    }
}

fn read_headers<R: BufRead>(reader: &mut R, limits: &ParseLimits) -> Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, limits)?.ok_or_else(|| JanusError::http("EOF in headers"))?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= limits.max_headers {
            return Err(JanusError::http("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| JanusError::http(format!("malformed header: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

fn content_length(headers: &[(String, String)], limits: &ParseLimits) -> Result<usize> {
    match headers.iter().find(|(n, _)| n == "content-length") {
        None => Ok(0),
        Some((_, v)) => {
            let len: usize = v
                .parse()
                .map_err(|_| JanusError::http(format!("bad content-length: {v:?}")))?;
            if len > limits.max_body {
                return Err(JanusError::http(format!("body of {len} bytes too large")));
            }
            Ok(len)
        }
    }
}

fn read_body<R: BufRead>(reader: &mut R, len: usize) -> Result<Vec<u8>> {
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Read one request from the stream. `Ok(None)` means the peer closed the
/// connection cleanly between requests (normal keep-alive shutdown).
pub fn read_request<R: BufRead>(
    reader: &mut R,
    limits: &ParseLimits,
) -> Result<Option<HttpRequest>> {
    let line = match read_line(reader, limits)? {
        None => return Ok(None),
        Some(line) => line,
    };
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or_else(|| JanusError::http(format!("bad method in {line:?}")))?;
    let target = parts
        .next()
        .ok_or_else(|| JanusError::http("missing request target"))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| JanusError::http("missing HTTP version"))?;
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(JanusError::http(format!("unsupported version {version}")));
    }
    if target.is_empty() || !target.starts_with('/') {
        return Err(JanusError::http(format!("bad target {target:?}")));
    }
    let headers = read_headers(reader, limits)?;
    let len = content_length(&headers, limits)?;
    let body = read_body(reader, len)?;
    Ok(Some(HttpRequest {
        method,
        target,
        headers,
        body,
    }))
}

/// Read one response from the stream.
pub fn read_response<R: BufRead>(reader: &mut R, limits: &ParseLimits) -> Result<HttpResponse> {
    let line =
        read_line(reader, limits)?.ok_or_else(|| JanusError::http("EOF before status line"))?;
    let mut parts = line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(JanusError::http(format!("bad status line {line:?}")));
    }
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| JanusError::http(format!("bad status code in {line:?}")))?;
    let headers = read_headers(reader, limits)?;
    let len = content_length(&headers, limits)?;
    let body = read_body(reader, len)?;
    Ok(HttpResponse {
        status: StatusCode(code),
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::io::Cursor;

    fn parse_request(wire: &str) -> Result<Option<HttpRequest>> {
        let mut reader = BufReader::new(Cursor::new(wire.as_bytes().to_vec()));
        read_request(&mut reader, &ParseLimits::default())
    }

    fn parse_response(wire: &str) -> Result<HttpResponse> {
        let mut reader = BufReader::new(Cursor::new(wire.as_bytes().to_vec()));
        read_response(&mut reader, &ParseLimits::default())
    }

    #[test]
    fn parses_simple_get() {
        let req = parse_request("GET /qos?key=alice HTTP/1.1\r\nhost: janus\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.target, "/qos?key=alice");
        assert_eq!(req.header("host"), Some("janus"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_request("POST /rules HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn bare_lf_lines_accepted() {
        let req = parse_request("GET / HTTP/1.1\nhost: x\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn clean_eof_returns_none() {
        assert!(parse_request("").unwrap().is_none());
    }

    #[test]
    fn eof_mid_request_errors() {
        assert!(parse_request("GET / HT").is_err());
        assert!(parse_request("GET / HTTP/1.1\r\nhost: x\r\n").is_err());
    }

    #[test]
    fn rejects_bad_method() {
        assert!(parse_request("BREW /pot HTTP/1.1\r\n\r\n").is_err());
    }

    #[test]
    fn rejects_bad_version() {
        assert!(parse_request("GET / HTTP/2.0\r\n\r\n").is_err());
        assert!(parse_request("GET /\r\n\r\n").is_err());
    }

    #[test]
    fn rejects_relative_target() {
        assert!(parse_request("GET index.html HTTP/1.1\r\n\r\n").is_err());
    }

    #[test]
    fn rejects_oversized_header_line() {
        let long = "x".repeat(10_000);
        let wire = format!("GET /{long} HTTP/1.1\r\n\r\n");
        assert!(parse_request(&wire).is_err());
    }

    #[test]
    fn rejects_too_many_headers() {
        let mut wire = String::from("GET / HTTP/1.1\r\n");
        for i in 0..100 {
            wire.push_str(&format!("h{i}: v\r\n"));
        }
        wire.push_str("\r\n");
        assert!(parse_request(&wire).is_err());
    }

    #[test]
    fn rejects_oversized_body() {
        let wire = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 10_000_000);
        assert!(parse_request(&wire).is_err());
    }

    #[test]
    fn rejects_malformed_content_length() {
        let wire = "POST / HTTP/1.1\r\ncontent-length: ten\r\n\r\n";
        assert!(parse_request(wire).is_err());
    }

    #[test]
    fn rejects_header_without_colon() {
        assert!(parse_request("GET / HTTP/1.1\r\nbroken header\r\n\r\n").is_err());
    }

    #[test]
    fn keep_alive_reads_back_to_back_requests() {
        let wire = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(Cursor::new(wire.as_bytes().to_vec()));
        let limits = ParseLimits::default();
        let a = read_request(&mut reader, &limits).unwrap().unwrap();
        let b = read_request(&mut reader, &limits).unwrap().unwrap();
        let end = read_request(&mut reader, &limits).unwrap();
        assert_eq!(a.target, "/a");
        assert_eq!(b.target, "/b");
        assert!(end.is_none());
    }

    #[test]
    fn parses_response() {
        let resp = parse_response("HTTP/1.1 200 OK\r\ncontent-length: 4\r\n\r\nTRUE").unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.body, b"TRUE");
    }

    #[test]
    fn parses_response_with_long_reason() {
        let resp = parse_response("HTTP/1.1 500 Internal Server Error\r\n\r\n").unwrap();
        assert_eq!(resp.status, StatusCode::INTERNAL_SERVER_ERROR);
        assert!(resp.body.is_empty());
    }

    #[test]
    fn response_roundtrips_through_serializer() {
        let original = HttpResponse::ok("hello").with_header("x-test", "1");
        let wire = String::from_utf8(original.to_bytes()).unwrap();
        let parsed = parse_response(&wire).unwrap();
        assert_eq!(parsed.status, original.status);
        assert_eq!(parsed.body, original.body);
        assert_eq!(parsed.header("x-test"), Some("1"));
    }

    #[test]
    fn request_roundtrips_through_serializer() {
        let original = HttpRequest::post("/rules?op=add", "payload").with_header("x-a", "b");
        let wire = String::from_utf8(original.to_bytes()).unwrap();
        let parsed = parse_request(&wire).unwrap().unwrap();
        assert_eq!(parsed.method, original.method);
        assert_eq!(parsed.target, original.target);
        assert_eq!(parsed.body, original.body);
        assert_eq!(parsed.header("x-a"), Some("b"));
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::http::{HttpRequest, Method};
    use janus_hash::rng::Rng;
    use std::io::Cursor;

    fn parse(bytes: Vec<u8>) -> Result<Option<HttpRequest>> {
        read_request(&mut Cursor::new(bytes), &ParseLimits::default())
    }

    /// `min..=max` characters drawn from `alphabet`.
    fn string_of(rng: &mut Rng, alphabet: &str, min: u64, max: u64) -> String {
        let alphabet = alphabet.as_bytes();
        (0..rng.gen_range_inclusive(min, max))
            .map(|_| alphabet[rng.gen_range(alphabet.len() as u64) as usize] as char)
            .collect()
    }

    const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
    const ALNUM: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

    /// Any serialized request parses back to itself (64 seeded cases).
    #[test]
    fn serialized_requests_roundtrip() {
        let printable: String = (b' '..=b'~').map(char::from).collect();
        let mut rng = Rng::seed_from_u64(0x4877_0001);
        for _ in 0..64 {
            let method =
                [Method::Get, Method::Post, Method::Put, Method::Delete][rng.gen_range(4) as usize];
            let mut target = format!("/{}", string_of(&mut rng, &format!("{ALNUM}/_.-"), 0, 40));
            if rng.gen_bool(0.5) {
                target.push('?');
                target.push_str(&string_of(&mut rng, &format!("{ALNUM}=&%._-"), 1, 40));
            }
            let body = (0..rng.gen_range(200))
                .map(|_| rng.next_u64() as u8)
                .collect();
            let mut request = HttpRequest {
                method,
                target,
                headers: Vec::new(),
                body,
            };
            for i in 0..rng.gen_range(6) {
                // `x{i}-` keeps names unique and off the auto-set
                // content-length.
                let name = format!(
                    "{}{i}-{}",
                    string_of(&mut rng, LOWER, 1, 1),
                    string_of(&mut rng, &format!("{LOWER}0123456789-"), 0, 16)
                );
                let value = string_of(&mut rng, &printable, 0, 40);
                request = request.with_header(&name, value.trim());
            }
            let parsed = parse(request.to_bytes()).unwrap().unwrap();
            assert_eq!(parsed.method, request.method);
            assert_eq!(parsed.target, request.target);
            assert_eq!(parsed.body, request.body);
            for (name, value) in &request.headers {
                assert_eq!(parsed.header(name), Some(value.as_str()));
            }
        }
    }

    /// The parser rejects or accepts arbitrary bytes — pure noise, and a
    /// valid request with bytes flipped — without panicking.
    #[test]
    fn parser_never_panics_on_fuzz() {
        let mut rng = Rng::seed_from_u64(0x4877_0002);
        let valid = HttpRequest::post("/upload?x=1", vec![7u8; 20])
            .with_header("x-tag", "v")
            .to_bytes();
        for _ in 0..64 {
            let noise = (0..rng.gen_range(400))
                .map(|_| rng.next_u64() as u8)
                .collect();
            let _ = parse(noise);
            let mut mutated = valid.clone();
            for _ in 0..rng.gen_range_inclusive(1, 4) {
                let at = rng.gen_range(mutated.len() as u64) as usize;
                mutated[at] = rng.next_u64() as u8;
            }
            let _ = parse(mutated);
        }
    }

    /// Prefix truncation of a valid request is never silently accepted as
    /// a complete request: content-length demands the full body.
    #[test]
    fn truncated_requests_do_not_parse_as_complete() {
        let wire = HttpRequest::post("/upload?x=1", vec![7u8; 20])
            .with_header("x-tag", "v")
            .to_bytes();
        for cut in 1..wire.len() {
            if let Ok(Some(req)) = parse(wire[..cut].to_vec()) {
                panic!("accepted request truncated at {cut}: {req:?}");
            }
        }
    }
}
