//! Minimal keep-alive HTTP/1.1 client for the load generator:
//! `Content-Length` framing, honours `Connection: close`, counts dials.
//! Every connection is dialled through `crowdnet_chaos::RealTcp`, the
//! workspace's one sanctioned dial site.

use crowdnet_chaos::{Conn, RealTcp, Transport};
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// A stalled exchange fails the request instead of hanging the run.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(30);

pub struct HttpClient {
    addr: SocketAddr,
    conn: Option<Box<dyn Conn>>,
    /// Bytes read but not yet consumed, then the last response.
    buf: Vec<u8>,
    request: Vec<u8>,
    /// Connections opened, the first included.
    pub dials: u64,
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// Byte-substring search (response bodies are not guaranteed UTF-8).
pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Status, body length and whether the server will close, from a
/// response head (status line and header lines, no trailing blank line).
fn parse_head(head: &[u8]) -> io::Result<(u16, usize, bool)> {
    let text = std::str::from_utf8(head).map_err(|_| bad("response head is not utf-8"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| bad("response without Content-Length"))?;
    Ok((status, length, close))
}

impl HttpClient {
    /// A client for `addr`; the first request dials.
    pub fn new(addr: SocketAddr) -> HttpClient {
        HttpClient {
            addr,
            conn: None,
            buf: Vec::with_capacity(16 * 1024),
            request: Vec::new(),
            dials: 0,
        }
    }

    /// Connections opened after the first: each one is a keep-alive
    /// connection the server closed.
    pub fn reconnects(&self) -> u64 {
        self.dials.saturating_sub(1)
    }

    fn dial(&mut self) -> io::Result<Box<dyn Conn>> {
        let mut conn = RealTcp.connect(self.addr, CONNECT_TIMEOUT)?;
        conn.set_read_timeout(Some(EXCHANGE_TIMEOUT))?;
        conn.set_write_timeout(Some(EXCHANGE_TIMEOUT))?;
        self.dials += 1;
        Ok(conn)
    }

    /// One exchange on `conn`: returns status, body range in `self.buf`
    /// and whether the connection stays open.
    fn exchange(&mut self, conn: &mut Box<dyn Conn>) -> io::Result<(u16, usize, bool)> {
        conn.write_all(&self.request)?;
        conn.flush()?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let (head_end, status, length, close) = loop {
            if let Some(head_end) = find(&self.buf, b"\r\n\r\n") {
                let (status, length, close) = parse_head(&self.buf[..head_end])?;
                break (head_end + 4, status, length, close);
            }
            match conn.read(&mut chunk)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "closed before response head",
                    ))
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        while self.buf.len() < head_end + length {
            match conn.read(&mut chunk)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "closed mid-body",
                    ))
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
        self.buf.truncate(head_end + length);
        Ok((status, head_end, !close))
    }

    /// `GET target`, reusing the connection when the server left it open.
    /// Returns the status and the body (borrowed until the next call). A
    /// reused connection that turns out dead is redialled once — a GET is
    /// safe to repeat.
    pub fn get(&mut self, target: &str) -> io::Result<(u16, &[u8])> {
        self.request.clear();
        self.request.extend_from_slice(b"GET ");
        self.request.extend_from_slice(target.as_bytes());
        self.request
            .extend_from_slice(b" HTTP/1.1\r\nHost: localhost\r\nConnection: keep-alive\r\n\r\n");
        let mut reused = self.conn.is_some();
        loop {
            let mut conn = match self.conn.take() {
                Some(conn) => conn,
                None => self.dial()?,
            };
            match self.exchange(&mut conn) {
                Ok((status, body_start, keep)) => {
                    if keep {
                        self.conn = Some(conn);
                    }
                    return Ok((status, &self.buf[body_start..]));
                }
                Err(_) if reused => reused = false,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdnet_json::obj;
    use crowdnet_serve::{bind, Request, Server, ServerConfig, Service, ServiceConfig};
    use crowdnet_store::{Document, Store};
    use crowdnet_telemetry::Telemetry;
    use std::sync::Arc;

    fn service() -> Arc<Service> {
        let store = Arc::new(Store::memory(2));
        for id in 0..20u32 {
            store
                .put(
                    "angellist/companies",
                    Document::new(
                        format!("company:{id}"),
                        obj! {"id" => u64::from(id), "name" => format!("c{id}")},
                    ),
                )
                .unwrap();
        }
        Arc::new(Service::new(
            store,
            ServiceConfig::default(),
            Telemetry::new(),
        ))
    }

    #[test]
    fn keep_alive_client_matches_in_process_answers_and_counts_reconnects() {
        let service = service();
        let server = Arc::new(Server::new(
            Arc::clone(&service),
            ServerConfig {
                workers: 2,
                max_requests_per_connection: 8,
                ..ServerConfig::default()
            },
        ));
        let handle = bind(server, 0).unwrap();
        let mut client = HttpClient::new(handle.addr());
        for round in 0..20u32 {
            let target = format!("/entity/company/{}", round % 20);
            let want = service.handle(&Request::get(&target));
            let (status, body) = client.get(&target).unwrap();
            assert_eq!(status, want.status);
            assert_eq!(body, &want.body[..], "GET {target}");
        }
        // The server closes after every 8th request: 20 requests need
        // three connections.
        assert_eq!(client.dials, 3);
        assert_eq!(client.reconnects(), 2);
        // Error statuses come through with their bodies, framing intact.
        let (status, body) = client.get("/entity/company/999").unwrap();
        assert_eq!(status, 404);
        assert!(std::str::from_utf8(body)
            .unwrap()
            .contains("\"status\":404"));
        let (status, _) = client.get("/stats").unwrap();
        assert_eq!(status, 200);
        // An idle keep-alive connection holds a server worker until its
        // idle timeout; close ours before asking the server to drain.
        drop(client);
        handle.shutdown();
    }

    #[test]
    fn head_parser_reads_length_and_close() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 12\r\nConnection: close";
        assert_eq!(parse_head(head).unwrap(), (200, 12, true));
        let head = b"HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\nConnection: keep-alive";
        assert_eq!(parse_head(head).unwrap(), (404, 0, false));
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nConnection: close").is_err());
    }
}
