//! The benchmark's open-loop load generator: one thread sending
//! `POST /v1/evaluate` requests at their scheduled due times over at most
//! `connections` keep-alive connections, whatever the server's progress.
//!
//! A request waits in the generator only when every connection is busy;
//! its latency is timed from its due time, so that wait (and any lateness
//! of the generator itself, reported as lag) is charged to it.

use bitwave_serve::poller::{Event, Interest, Poller};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    /// Due time, seconds after the schedule starts.
    pub due_s: f64,
    /// JSON body of the `POST /v1/evaluate`.
    pub body: String,
}

/// A complete response.
#[derive(Debug, Clone)]
pub struct Answer {
    /// HTTP status.
    pub status: u16,
    /// `X-Bitwave-Cache` value.
    pub cache: String,
    /// `X-Bitwave-Batch` value (0 when absent).
    pub batch: usize,
    /// Response body.
    pub body: Vec<u8>,
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// When it was due.
    pub due: Instant,
    /// When the generator noticed it was due; the gap to `due` is the
    /// generator's own lateness.
    pub noticed: Instant,
    /// When its first byte was written (later than `noticed` while every
    /// connection was busy).
    pub sent: Instant,
    /// When its response was complete (or it failed).
    pub done: Instant,
    /// The response, or why there is none.
    pub answer: Result<Answer, String>,
}

/// A finished open-loop run.
#[derive(Debug)]
pub struct Run {
    /// The schedule's time zero.
    pub start: Instant,
    /// When the last response completed.
    pub end: Instant,
    /// One entry per scheduled request, in schedule order.
    pub completions: Vec<Completion>,
}

/// Give up on a request after this long without a complete response.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);
/// Below this distance to the next due time the generator stops sleeping in
/// the poller (whose timeout has millisecond granularity) and yields
/// instead, so requests leave on time.
const SPIN_WINDOW: Duration = Duration::from_micros(1500);

struct Connection {
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// `(request index, noticed, sent)` of the request in flight.
    inflight: Option<(usize, Instant, Instant)>,
}

/// Parses one complete response off the front of `buf`, returning it and
/// the bytes it used; `None` while incomplete.
///
/// # Errors
///
/// Returns a message for a malformed head.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Answer, bool, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head".to_string())?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in `{head}`"))?;
    let (mut length, mut cache, mut batch, mut close) = (0usize, String::new(), 0usize, false);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                length = value
                    .parse()
                    .map_err(|_| format!("bad content-length `{value}`"))?;
            }
            "x-bitwave-cache" => cache = value.to_string(),
            "x-bitwave-batch" => batch = value.parse().unwrap_or(0),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    let answer = Answer {
        status,
        cache,
        batch,
        body: buf[head_end + 4..total].to_vec(),
    };
    Ok(Some((answer, close, total)))
}

fn request_bytes(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/evaluate HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Runs `schedule` open-loop against `addr` and waits for every response.
///
/// # Errors
///
/// Returns a message when the poller cannot be created; per-request
/// failures are recorded in the completions instead.
pub fn run(addr: SocketAddr, schedule: &[Scheduled], connections: usize) -> Result<Run, String> {
    let mut poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    let mut conns: Vec<Connection> = (0..connections.max(1))
        .map(|_| Connection {
            stream: None,
            buf: Vec::new(),
            inflight: None,
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(schedule[i].due_s);
    let mut completions: Vec<Option<Completion>> = vec![None; schedule.len()];
    let mut waiting: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut next = 0usize;
    let mut finished = 0usize;
    let mut events: Vec<Event> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];

    // However the server behaves, the run ends this long after the last
    // request was due; whatever is unanswered by then has failed.
    let deadline = schedule.last().map_or(start, |last| {
        start + Duration::from_secs_f64(last.due_s) + REQUEST_TIMEOUT
    });
    while finished < schedule.len() && Instant::now() < deadline {
        let now = Instant::now();
        while next < schedule.len() && due(next) <= now {
            waiting.push_back((next, now));
            next += 1;
        }
        // Hand due requests to idle connections.
        for (token, conn) in conns.iter_mut().enumerate() {
            if conn.inflight.is_some() {
                continue;
            }
            let Some((index, noticed)) = waiting.pop_front() else {
                break;
            };
            let sent = Instant::now();
            match send(&mut poller, token, conn, addr, &schedule[index].body) {
                Ok(()) => conn.inflight = Some((index, noticed, sent)),
                Err(e) => {
                    completions[index] = Some(Completion {
                        due: due(index),
                        noticed,
                        sent,
                        done: Instant::now(),
                        answer: Err(e),
                    });
                    finished += 1;
                    drop_connection(&mut poller, conn);
                }
            }
        }
        // Wait for responses, or until the next request is due.
        let pending = next < schedule.len();
        let timeout = if pending {
            due(next).saturating_duration_since(Instant::now())
        } else {
            Duration::from_millis(50)
        };
        let spinning = pending && timeout < SPIN_WINDOW;
        let wait = if spinning {
            Duration::ZERO
        } else {
            timeout.saturating_sub(Duration::from_millis(1))
        };
        poller
            .wait(&mut events, Some(wait))
            .map_err(|e| format!("poll: {e}"))?;
        if spinning && events.is_empty() {
            std::thread::yield_now();
        }
        for event in &events {
            let conn = &mut conns[event.token];
            let Some((index, noticed, sent)) = conn.inflight else {
                // An idle connection turned readable: the server closed it.
                drop_connection(&mut poller, conn);
                continue;
            };
            let outcome = receive(conn, &mut chunk);
            let done = Instant::now();
            let answer = match outcome {
                Ok(None) => continue,
                Ok(Some((answer, close))) => {
                    if close {
                        drop_connection(&mut poller, conn);
                    }
                    Ok(answer)
                }
                Err(e) => {
                    drop_connection(&mut poller, conn);
                    Err(e)
                }
            };
            conn.inflight = None;
            completions[index] = Some(Completion {
                due: due(index),
                noticed,
                sent,
                done,
                answer,
            });
            finished += 1;
        }
        // Time out requests that never complete.
        let now = Instant::now();
        for conn in &mut conns {
            if let Some((index, noticed, sent)) = conn.inflight {
                if now.duration_since(sent) > REQUEST_TIMEOUT {
                    drop_connection(&mut poller, conn);
                    conn.inflight = None;
                    completions[index] = Some(Completion {
                        due: due(index),
                        noticed,
                        sent,
                        done: now,
                        answer: Err("timed out".to_string()),
                    });
                    finished += 1;
                }
            }
        }
    }
    for conn in &mut conns {
        drop_connection(&mut poller, conn);
    }
    let now = Instant::now();
    let completions: Vec<Completion> = completions
        .into_iter()
        .enumerate()
        .map(|(index, c)| {
            c.unwrap_or_else(|| Completion {
                due: due(index),
                noticed: now,
                sent: now,
                done: now,
                answer: Err("unanswered at the generator's deadline".to_string()),
            })
        })
        .collect();
    let end = completions.iter().map(|c| c.done).max().unwrap_or(start);
    Ok(Run {
        start,
        end,
        completions,
    })
}

fn drop_connection(poller: &mut Poller, conn: &mut Connection) {
    if let Some(stream) = conn.stream.take() {
        poller.deregister(stream.as_raw_fd());
    }
    conn.buf.clear();
}

fn send(
    poller: &mut Poller,
    token: usize,
    conn: &mut Connection,
    addr: SocketAddr,
    body: &str,
) -> Result<(), String> {
    if conn.stream.is_none() {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_nonblocking(true))
            .map_err(|e| format!("socket options: {e}"))?;
        poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .map_err(|e| format!("register: {e}"))?;
        conn.stream = Some(stream);
    }
    let stream = conn.stream.as_mut().expect("connection just ensured");
    let bytes = request_bytes(body);
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => return Err("connection closed while sending".to_string()),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("send: {e}")),
        }
    }
    Ok(())
}

/// Reads what is available; `Some` once a whole response has arrived.
fn receive(conn: &mut Connection, chunk: &mut [u8]) -> Result<Option<(Answer, bool)>, String> {
    let stream = conn.stream.as_mut().ok_or("no connection")?;
    loop {
        match stream.read(chunk) {
            Ok(0) => return Err("server closed the connection".to_string()),
            Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
    match parse_response(&conn.buf)? {
        None => Ok(None),
        Some((answer, close, used)) => {
            conn.buf.drain(..used);
            Ok(Some((answer, close)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response_once_complete() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Bitwave-Cache: hit\r\n\
                     x-bitwave-batch: 2\r\n\r\nhello";
        assert!(parse_response(&wire[..20]).unwrap().is_none());
        assert!(parse_response(&wire[..wire.len() - 1]).unwrap().is_none());
        let (answer, close, used) = parse_response(wire).unwrap().unwrap();
        assert_eq!(answer.status, 200);
        assert_eq!(answer.cache, "hit");
        assert_eq!(answer.batch, 2);
        assert_eq!(answer.body, b"hello");
        assert!(!close);
        assert_eq!(used, wire.len());
    }

    #[test]
    fn notices_connection_close_and_bad_heads() {
        let wire =
            b"HTTP/1.1 503 Service Unavailable\r\nconnection: close\r\ncontent-length: 0\r\n\r\n";
        let (answer, close, _) = parse_response(wire).unwrap().unwrap();
        assert_eq!(answer.status, 503);
        assert!(close);
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn request_bytes_frame_the_body() {
        let bytes = String::from_utf8(request_bytes("{}")).unwrap();
        assert!(bytes.starts_with("POST /v1/evaluate HTTP/1.1\r\n"));
        assert!(bytes.contains("content-length: 2\r\n"));
        assert!(bytes.ends_with("\r\n\r\n{}"));
    }
}
