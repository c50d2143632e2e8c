//! The load generator: a closed `/answer` loop and a closed streamed-batch
//! loop, each on one keep-alive connection per thread, plus the admin-side
//! reloads, counter reads and probes. Every response is
//! checked against the oracle as it arrives.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use serde::de::DeserializeOwned;

use crate::client::{get, post, Conn, Response};
use crate::inputs::{Inputs, BATCH_SIZE};
use crate::oracle::{BatchMatcher, Oracle};
use crate::setup::ADMIN_TOKEN;

/// A request whose response has not arrived within this long has failed.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

/// What the load generator sends and checks against.
pub struct Ctx<'a> {
    /// The generated inputs.
    pub inputs: &'a Inputs,
    /// Expected bodies.
    pub oracle: &'a Oracle,
    /// The server.
    pub addr: SocketAddr,
    /// Per pool question: its `{"question":…}` JSON object.
    pub bodies: Vec<Vec<u8>>,
    /// Per pool question: the whole `POST /answer` request.
    pub answer_requests: Vec<Vec<u8>>,
}

impl<'a> Ctx<'a> {
    /// Render every pool question's request once, before any timing.
    pub fn new(inputs: &'a Inputs, oracle: &'a Oracle, addr: SocketAddr) -> Self {
        let bodies: Vec<Vec<u8>> = inputs
            .pool
            .iter()
            .map(|q| {
                let question = serde_json::to_string(&q.question).expect("a string serializes");
                format!("{{\"question\":{question}}}").into_bytes()
            })
            .collect();
        let answer_requests = bodies.iter().map(|b| post("/answer", b, "")).collect();
        Self {
            inputs,
            oracle,
            addr,
            bodies,
            answer_requests,
        }
    }

    /// The streamed `POST /batch` request for pool questions `items`.
    pub fn batch_request(&self, items: &[u32]) -> Vec<u8> {
        let mut body = Vec::with_capacity(items.len() * 96);
        body.push(b'[');
        for (n, &i) in items.iter().enumerate() {
            if n > 0 {
                body.push(b',');
            }
            body.extend_from_slice(&self.bodies[i as usize]);
        }
        body.push(b']');
        post("/batch?stream=1", &body, "")
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Everything one load thread saw.
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed: non-200 (429 included), a body that differs
    /// from the oracle's, a timeout or a connection error.
    pub failed: u64,
    /// Failures by cause.
    pub failures: BTreeMap<&'static str, u64>,
    /// Answers received and verified.
    pub answers: u64,
    /// Per answer: from its request's send time to the answer's arrival, µs.
    pub latency_us: Vec<f64>,
    /// Per answer: its request's send time.
    pub latency_from: Vec<Instant>,
    /// Per request: from send to its first complete answer, ms.
    pub first_answer_ms: Vec<f64>,
    /// Per request: its send time.
    pub sent_at: Vec<Instant>,
    /// Per request: from send to its last byte, µs.
    pub rtt_us: Vec<f64>,
    /// Pool questions answered correctly at least once.
    pub served: Vec<bool>,
    /// Streamed responses: chunks and de-chunked bytes.
    pub chunks: u64,
    /// See `chunks`.
    pub stream_bytes: u64,
}

impl Tally {
    /// An empty tally over a pool of `pool` questions.
    pub fn new(pool: usize) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            failures: BTreeMap::new(),
            answers: 0,
            latency_us: Vec::new(),
            latency_from: Vec::new(),
            first_answer_ms: Vec::new(),
            sent_at: Vec::new(),
            rtt_us: Vec::new(),
            served: vec![false; pool],
            chunks: 0,
            stream_bytes: 0,
        }
    }

    /// Fold another thread's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (cause, n) in other.failures {
            *self.failures.entry(cause).or_default() += n;
        }
        self.answers += other.answers;
        self.latency_us.extend(other.latency_us);
        self.latency_from.extend(other.latency_from);
        self.first_answer_ms.extend(other.first_answer_ms);
        self.sent_at.extend(other.sent_at);
        self.rtt_us.extend(other.rtt_us);
        for (mine, theirs) in self.served.iter_mut().zip(other.served) {
            *mine |= theirs;
        }
        self.chunks += other.chunks;
        self.stream_bytes += other.stream_bytes;
    }

    /// Count one failed request.
    pub fn fail(&mut self, cause: &'static str) {
        self.failed += 1;
        *self.failures.entry(cause).or_default() += 1;
    }

    fn status_failure(&mut self, status: u16) {
        self.fail(if status == 429 {
            "429 shed"
        } else {
            "non-200 status"
        });
    }

    /// Check one `/answer` response for pool question `idx`.
    fn answer(&mut self, oracle: &Oracle, idx: u32, response: &Response, sent: Instant) {
        let done = Instant::now();
        if response.status != 200 {
            self.status_failure(response.status);
            return;
        }
        if !oracle.expected(idx).matches(&response.body) {
            self.fail("body differs from the oracle");
            return;
        }
        self.answers += 1;
        self.latency_us.push(us(done - sent));
        self.latency_from.push(sent);
        self.rtt_us.push(us(done - sent));
        self.first_answer_ms.push((done - sent).as_secs_f64() * 1e3);
        self.sent_at.push(sent);
        self.served[idx as usize] = true;
    }
}

/// Closed loop on one connection: send `POST /answer`, wait for its answer,
/// send the next, until `end` or the traffic runs out.
pub fn closed_loop(ctx: &Ctx, traffic: &mut impl Iterator<Item = u32>, end: Instant) -> Tally {
    let mut tally = Tally::new(ctx.inputs.pool.len());
    let mut conn: Option<Conn> = None;
    while Instant::now() < end {
        let Some(idx) = traffic.next() else { break };
        if conn.is_none() {
            conn = Conn::connect(ctx.addr).ok();
        }
        tally.attempted += 1;
        let Some(c) = conn.as_mut() else {
            tally.fail("connection error");
            continue;
        };
        let sent = Instant::now();
        if c.send(&ctx.answer_requests[idx as usize]).is_err() {
            tally.fail("connection error");
            conn = None;
            continue;
        }
        match c.read_response(sent + RESPONSE_TIMEOUT) {
            Ok(response) => {
                tally.answer(ctx.oracle, idx, &response, sent);
                if response.close {
                    conn = None;
                }
            }
            Err(e) => {
                tally.fail(if e.kind() == io::ErrorKind::TimedOut {
                    "timeout"
                } else {
                    "connection error"
                });
                conn = None;
            }
        }
    }
    tally
}

/// Closed loop of streamed batches on one connection: send `POST
/// /batch?stream=1` with the next [`BATCH_SIZE`] questions, de-chunk and
/// check the answers as they arrive, send the next, until `end` or the
/// traffic runs out.
pub fn batch_loop(ctx: &Ctx, traffic: &mut impl Iterator<Item = u32>, end: Instant) -> Tally {
    let mut tally = Tally::new(ctx.inputs.pool.len());
    let mut conn: Option<Conn> = None;
    while Instant::now() < end {
        let items: Vec<u32> = traffic.by_ref().take(BATCH_SIZE).collect();
        if items.is_empty() {
            break;
        }
        let request = ctx.batch_request(&items);
        if conn.is_none() {
            conn = Conn::connect(ctx.addr).ok();
        }
        tally.attempted += 1;
        let Some(c) = conn.as_mut() else {
            tally.fail("connection error");
            continue;
        };
        let sent = Instant::now();
        if c.send(&request).is_err() {
            tally.fail("connection error");
            conn = None;
            continue;
        }
        let mut matcher = BatchMatcher::new(ctx.oracle, &items);
        match c.read_streamed(sent + RESPONSE_TIMEOUT, |bytes, at| matcher.feed(bytes, at)) {
            Ok(summary) => {
                let done = Instant::now();
                if summary.close {
                    conn = None;
                }
                if summary.status != 200 {
                    tally.status_failure(summary.status);
                    continue;
                }
                if !matcher.matched() {
                    tally.fail("body differs from the oracle");
                    continue;
                }
                tally.answers += items.len() as u64;
                tally
                    .latency_us
                    .extend(matcher.completed_at.iter().map(|&t| us(t - sent)));
                tally
                    .latency_from
                    .extend(std::iter::repeat_n(sent, items.len()));
                tally
                    .first_answer_ms
                    .push((matcher.completed_at[0] - sent).as_secs_f64() * 1e3);
                tally.sent_at.push(sent);
                tally.rtt_us.push(us(done - sent));
                for &i in &items {
                    tally.served[i as usize] = true;
                }
                tally.chunks += summary.chunks;
                tally.stream_bytes += summary.bytes;
            }
            Err(e) => {
                tally.fail(if e.kind() == io::ErrorKind::TimedOut {
                    "timeout"
                } else {
                    "connection error"
                });
                conn = None;
            }
        }
    }
    tally
}

/// `POST /admin/reload?mode=bundle` at `count` evenly spaced instants inside
/// `[start, start + window)`. Returns each reload's wall time in ms, or
/// `None` for a reload that failed.
pub fn reloads(addr: SocketAddr, start: Instant, window: Duration, count: u32) -> Vec<Option<f64>> {
    let request = post(
        "/admin/reload?mode=bundle",
        b"",
        &format!("X-Admin-Token: {ADMIN_TOKEN}\r\n"),
    );
    (1..=count)
        .map(|k| {
            let at = start + window * k / (count + 1);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            let t = Instant::now();
            let response = Conn::connect(addr).and_then(|mut conn| {
                conn.send(&request)?;
                conn.read_response(Instant::now() + Duration::from_secs(60))
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match response {
                Ok(r) if r.status == 200 && contains(&r.body, b"\"reloaded\":true") => Some(ms),
                _ => None,
            }
        })
        .collect()
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// `GET path`, decoded from JSON.
pub fn fetch<T: DeserializeOwned>(addr: SocketAddr, path: &str) -> io::Result<T> {
    let mut conn = Conn::connect(addr)?;
    conn.send(&get(path))?;
    let response = conn.read_response(Instant::now() + RESPONSE_TIMEOUT)?;
    if response.status != 200 {
        return Err(io::Error::other(format!(
            "GET {path}: status {}",
            response.status
        )));
    }
    let text = String::from_utf8(response.body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
    serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Round trips of `n` sequential `GET /healthz` on one connection, µs.
pub fn healthz_rtts(addr: SocketAddr, n: usize) -> io::Result<Vec<f64>> {
    let request = get("/healthz");
    let mut conn = Conn::connect(addr)?;
    let mut rtts = Vec::with_capacity(n);
    for _ in 0..n {
        let sent = Instant::now();
        conn.send(&request)?;
        let response = conn.read_response(sent + RESPONSE_TIMEOUT)?;
        rtts.push(us(sent.elapsed()));
        if response.status != 200 {
            return Err(io::Error::other(format!(
                "healthz status {}",
                response.status
            )));
        }
        if response.close {
            conn = Conn::connect(addr)?;
        }
    }
    Ok(rtts)
}
