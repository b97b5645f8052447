//! The load generator's HTTP client: one request per connection, as the
//! gateway serves them, with a span around each socket step.

use crate::spans::Spans;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A socket that stays silent this long is a failed operation, not a stall
/// to wait out.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Status code and body of a raw HTTP/1.x response.
pub fn parse_response(raw: &str) -> Option<(u16, &str)> {
    let (head, body) = raw.split_once("\r\n\r\n")?;
    let mut status_line = head.lines().next()?.split_whitespace();
    if !status_line.next()?.starts_with("HTTP/1.") {
        return None;
    }
    Some((status_line.next()?.parse().ok()?, body))
}

/// The value of a top-level scalar field in one of the gateway's canonical
/// JSON bodies, quotes trimmed. Not a JSON parser: the bodies read with it
/// are flat objects of strings, numbers and booleans.
pub fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

/// One exchange on a fresh connection, recorded as `connect`, `write` and
/// `read` spans under `parent`.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    spans: &Spans,
    parent: Option<u32>,
    request: u64,
) -> io::Result<(u16, String)> {
    let mut stream = spans.within("connect", parent, request, || {
        TcpStream::connect_timeout(&addr, IO_TIMEOUT)
    })?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: perf-ledger\r\n");
    if let Some(b) = body {
        req.push_str(&format!("Content-Length: {}\r\n", b.len()));
    }
    req.push_str("\r\n");
    req.push_str(body.unwrap_or(""));
    spans.within("write", parent, request, || {
        stream.write_all(req.as_bytes())
    })?;
    let mut raw = String::new();
    spans.within("read", parent, request, || stream.read_to_string(&mut raw))?;
    let (status, payload) = parse_response(&raw)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))?;
    Ok((status, payload.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body() {
        let raw =
            "HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\n\r\n{\"id\":\"sub.00007\"}";
        assert_eq!(parse_response(raw), Some((202, "{\"id\":\"sub.00007\"}")));
        assert_eq!(parse_response("HTTP/1.0 200 OK\r\n\r\n"), Some((200, "")));
    }

    #[test]
    fn rejects_malformed_responses() {
        assert_eq!(parse_response(""), None);
        assert_eq!(parse_response("HTTP/1.1 200 OK\r\nno blank line"), None);
        assert_eq!(parse_response("garbage\r\n\r\n"), None);
        assert_eq!(parse_response("HTTP/1.1 abc\r\n\r\n"), None);
    }

    #[test]
    fn reads_flat_json_fields() {
        let body =
            "{\"id\":\"sub.00042\",\"state\":\"done\",\"success\":true,\"tasks_done\":8,\"recovered\":false}";
        assert_eq!(json_field(body, "id"), Some("sub.00042"));
        assert_eq!(json_field(body, "state"), Some("done"));
        assert_eq!(json_field(body, "tasks_done"), Some("8"));
        assert_eq!(json_field(body, "recovered"), Some("false"));
        assert_eq!(json_field(body, "missing"), None);
    }
}
