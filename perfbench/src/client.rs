//! The benchmark's own HTTP load client: an open loop that sends on a
//! fixed schedule and times each request from when it was due, and a
//! closed loop whose clients send back to back. Both use at most the
//! thread count they are given, one connection per thread at a time,
//! check every served label, and count each failure by its cause.

use crate::stats::{due_time, latency_from_due, lateness, ms};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// How long past its scheduled end an open loop may run before the
/// requests it has not sent yet are counted as failed.
const OPEN_LOOP_GRACE: Duration = Duration::from_secs(5);

/// One `POST /classify` body and the labels the in-process model gives
/// its series, in order.
pub struct Body {
    pub text: String,
    pub expected: Vec<usize>,
}

/// Why an operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cause {
    Connect,
    Io,
    Timeout,
    Http400,
    Http429,
    Http504,
    Http5xx,
    HttpOther,
    LabelMismatch,
    /// An open-loop request the generator never got to send.
    Unsent,
    /// A training run or model check outside the HTTP path.
    Check,
}

impl Cause {
    pub fn name(self) -> &'static str {
        match self {
            Self::Connect => "connect",
            Self::Io => "reset_or_io",
            Self::Timeout => "timeout",
            Self::Http400 => "http_400",
            Self::Http429 => "http_429",
            Self::Http504 => "http_504",
            Self::Http5xx => "http_other_5xx",
            Self::HttpOther => "http_other",
            Self::LabelMismatch => "label_mismatch",
            Self::Unsent => "unsent",
            Self::Check => "check",
        }
    }

    fn from_io(e: &std::io::Error) -> Self {
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => Self::Timeout,
            _ => Self::Io,
        }
    }
}

/// Operations attempted and failures by cause.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: BTreeMap<Cause, u64>,
}

impl Tally {
    pub fn record(&mut self, result: Result<(), Cause>) {
        self.attempted += 1;
        if let Err(cause) = result {
            *self.failures.entry(cause).or_insert(0) += 1;
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        for (&cause, &n) in &other.failures {
            *self.failures.entry(cause).or_insert(0) += n;
        }
    }

    /// `connect=0 timeout=2 …` over the causes seen (or `none`).
    pub fn render(&self) -> String {
        if self.failures.is_empty() {
            return "none".to_string();
        }
        let parts: Vec<String> = self
            .failures
            .iter()
            .map(|(c, n)| format!("{}={n}", c.name()))
            .collect();
        parts.join(" ")
    }
}

/// Sends one raw HTTP/1.0 request over a fresh connection and reads the
/// response to EOF. Returns the status, the body and the connect time.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> Result<(u16, String, Duration), Cause> {
    let begun = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).map_err(|e| {
        if Cause::from_io(&e) == Cause::Timeout {
            Cause::Timeout
        } else {
            Cause::Connect
        }
    })?;
    let connect = begun.elapsed();
    let io = |e: std::io::Error| Cause::from_io(&e);
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream.write_all(request).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(Cause::Io)?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body, connect))
}

/// `GET path` → `(status, body)`.
pub fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), Cause> {
    let request = format!("GET {path} HTTP/1.0\r\n\r\n");
    exchange(addr, request.as_bytes()).map(|(status, body, _)| (status, body))
}

/// Labels in a `/classify` response body, one `{"label":N}` per line.
pub fn parse_labels(body: &str) -> Option<Vec<usize>> {
    body.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let rest = &l[l.find("\"label\":")? + "\"label\":".len()..];
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .collect()
}

/// One checked `POST /classify`: succeeds only on `200` with exactly
/// the expected labels. Returns the connect time on success.
pub fn classify(addr: SocketAddr, body: &Body) -> Result<Duration, Cause> {
    let request = format!(
        "POST /classify HTTP/1.0\r\nContent-Length: {}\r\n\r\n{}",
        body.text.len(),
        body.text
    );
    let (status, text, connect) = exchange(addr, request.as_bytes())?;
    match status {
        200 if parse_labels(&text).as_deref() == Some(&body.expected[..]) => Ok(connect),
        200 => Err(Cause::LabelMismatch),
        400 => Err(Cause::Http400),
        429 => Err(Cause::Http429),
        504 => Err(Cause::Http504),
        500..=599 => Err(Cause::Http5xx),
        _ => Err(Cause::HttpOther),
    }
}

/// What an open-loop phase observed.
#[derive(Default)]
pub struct OpenLoop {
    /// Index and latency from due time (ms) of each successful request.
    pub latency_ms: Vec<(usize, f64)>,
    /// Generator lateness (send minus due) of each sent request, ms.
    pub late_ms: Vec<f64>,
    /// Connect time of each successful request, ms.
    pub connect_ms: Vec<f64>,
    pub tally: Tally,
}

impl OpenLoop {
    pub fn merge(&mut self, other: OpenLoop) {
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.connect_ms.extend(other.connect_ms);
        self.tally.merge(&other.tally);
    }
}

/// Offers `rate` requests per second for `duration`, request `k` due at
/// `start + k / rate` and carrying `bodies[k % len]`. `threads` senders
/// take the next due request as they come free, so one slow response
/// does not hold back the schedule while another sender is idle.
pub fn open_loop(
    addr: SocketAddr,
    rate: f64,
    duration: Duration,
    threads: usize,
    bodies: &[Body],
) -> OpenLoop {
    let total = ((rate * duration.as_secs_f64()).round() as usize).max(1);
    let next = AtomicUsize::new(0);
    // A short runway so every sender is up before request 0 is due.
    let start = Instant::now() + Duration::from_millis(5);
    let give_up = start + duration + OPEN_LOOP_GRACE;
    let mut out = OpenLoop::default();
    std::thread::scope(|scope| {
        let senders: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = OpenLoop::default();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= total {
                            break;
                        }
                        let due = due_time(start, k, rate);
                        let now = Instant::now();
                        if now >= give_up {
                            local.tally.record(Err(Cause::Unsent));
                            continue;
                        }
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        local.late_ms.push(ms(lateness(due, sent)));
                        let result = classify(addr, &bodies[k % bodies.len()]);
                        let done = Instant::now();
                        if let Ok(connect) = result {
                            local.latency_ms.push((k, ms(latency_from_due(due, done))));
                            local.connect_ms.push(ms(connect));
                        }
                        local.tally.record(result.map(|_| ()));
                    }
                    local
                })
            })
            .collect();
        for sender in senders {
            out.merge(sender.join().expect("open-loop sender panicked"));
        }
    });
    out
}

/// What a closed-loop phase observed.
#[derive(Default)]
pub struct ClosedLoop {
    /// Series classified correctly.
    pub series: u64,
    pub seconds: f64,
    /// Each correct response: seconds since the loop began, and the
    /// series it classified.
    pub done: Vec<(f64, f64)>,
    pub tally: Tally,
}

/// `threads` clients each send the next body as soon as the previous
/// response arrives, until `duration` has passed.
pub fn closed_loop(
    addr: SocketAddr,
    duration: Duration,
    threads: usize,
    bodies: &[Body],
) -> ClosedLoop {
    let next = AtomicUsize::new(0);
    let begun = Instant::now();
    let stop = begun + duration;
    let mut out = ClosedLoop::default();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = ClosedLoop::default();
                    while Instant::now() < stop {
                        let body = &bodies[next.fetch_add(1, Ordering::Relaxed) % bodies.len()];
                        let result = classify(addr, body);
                        if result.is_ok() {
                            let series = body.expected.len();
                            local.series += series as u64;
                            local
                                .done
                                .push((begun.elapsed().as_secs_f64(), series as f64));
                        }
                        local.tally.record(result.map(|_| ()));
                    }
                    local
                })
            })
            .collect();
        for client in clients {
            let local = client.join().expect("closed-loop client panicked");
            out.series += local.series;
            out.done.extend(local.done);
            out.tally.merge(&local.tally);
        }
    });
    out.seconds = begun.elapsed().as_secs_f64();
    out.done.sort_by(|a, b| a.0.total_cmp(&b.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_parse_line_by_line() {
        assert_eq!(
            parse_labels("{\"label\":2}\n{\"label\":10}\n"),
            Some(vec![2, 10])
        );
        assert_eq!(parse_labels("{\"id\":\"a\",\"label\":0}"), Some(vec![0]));
        assert_eq!(parse_labels("{\"error\":\"overloaded\"}\n"), None);
    }

    #[test]
    fn tally_counts_failures_by_cause() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err(Cause::Http429));
        t.record(Err(Cause::Http429));
        let mut u = Tally::default();
        u.record(Err(Cause::Timeout));
        t.merge(&u);
        assert_eq!((t.attempted, t.failed()), (4, 3));
        assert_eq!(t.render(), "timeout=1 http_429=2");
        assert_eq!(Tally::default().render(), "none");
    }
}
