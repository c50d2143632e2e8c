//! End-to-end tests for the HTTP serving layer: wire-format round-trips
//! against the in-process service, cache behaviour observable through
//! `/cache/stats`, metrics, keep-alive, protocol errors, concurrency, and
//! graceful shutdown.
//!
//! Each test starts its own server (on an ephemeral port) over a shared,
//! lazily-built service fixture, so cache and metrics state never leak
//! between tests.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};

use kbqa_core::decompose::PatternIndex;
use kbqa_core::learner::{Learner, LearnerConfig};
use kbqa_core::service::{KbqaService, QaRequest, QaResponse};
use kbqa_corpus::{CorpusConfig, QaCorpus, World, WorldConfig};
use kbqa_nlp::GazetteerNer;
use kbqa_server::{serve, CacheStats, MetricsSnapshot, ServerConfig, ServerHandle};

struct Fixture {
    service: KbqaService,
    /// Questions the engine demonstrably answers (distinct entities).
    questions: Vec<String>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let world = World::generate(WorldConfig::tiny(42));
        let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 600));
        let ner = Arc::new(GazetteerNer::from_store(&world.store));
        let learner = Learner::new(
            &world.store,
            &world.conceptualizer,
            &ner,
            &world.predicate_classes,
        );
        let pairs: Vec<(&str, &str)> = corpus
            .pairs
            .iter()
            .map(|p| (p.question.as_str(), p.answer.as_str()))
            .collect();
        let (model, _) = learner.learn(&pairs, &LearnerConfig::default());
        let index = PatternIndex::build(corpus.pairs.iter().map(|p| p.question.as_str()), &ner);
        let service = KbqaService::builder(
            Arc::clone(&world.store),
            Arc::clone(&world.conceptualizer),
            Arc::new(model),
        )
        .ner(ner)
        .pattern_index(Arc::new(index))
        .build();

        let intent = world.intent_by_name("city_population").expect("intent");
        let questions: Vec<String> = world
            .subjects_of(intent)
            .iter()
            .copied()
            .filter(|&c| {
                !world.gold_values(intent, c).is_empty()
                    && world.store.entities_named(&world.store.surface(c)).len() == 1
            })
            .take(6)
            .map(|c| format!("what is the population of {}", world.store.surface(c)))
            .collect();
        assert!(
            questions.len() >= 3,
            "fixture world must offer several answerable questions"
        );
        // The engine must actually answer these — otherwise the cache tests
        // would only ever exercise refusals.
        assert!(service.answer_text(&questions[0]).answered());
        Fixture { service, questions }
    })
}

fn start_server() -> ServerHandle {
    serve(
        fixture().service.clone(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind ephemeral port")
}

// ---------------------------------------------------------------------------
// A tiny test-side HTTP client
// ---------------------------------------------------------------------------

fn send_request(stream: &mut TcpStream, method: &str, path: &str, body: &str, close: bool) {
    let connection = if close { "close" } else { "keep-alive" };
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
}

/// Read one response head: the status code and the raw header block.
fn read_head(stream: &mut TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => raw.push(byte[0]),
            _ => panic!(
                "connection closed mid-header: {:?}",
                String::from_utf8_lossy(&raw)
            ),
        }
    }
    let head = String::from_utf8(raw).expect("utf8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, head)
}

/// Read one response (keep-alive safe: stops after `Content-Length` bytes).
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let (status, head) = read_head(stream);
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length header");
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read body");
    (status, String::from_utf8(body).expect("utf8 body"))
}

/// One-shot request on a fresh connection.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_request(&mut stream, method, path, body, true);
    read_response(&mut stream)
}

fn cache_stats(addr: SocketAddr) -> CacheStats {
    let (status, body) = http(addr, "GET", "/cache/stats", "");
    assert_eq!(status, 200);
    serde_json::from_str(&body).expect("cache stats JSON")
}

fn metrics(addr: SocketAddr) -> MetricsSnapshot {
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    serde_json::from_str(&body).expect("metrics JSON")
}

// ---------------------------------------------------------------------------
// The acceptance path: /answer equals in-process, repeat hits the cache
// ---------------------------------------------------------------------------

#[test]
fn answer_matches_in_process_and_repeat_is_served_from_cache() {
    let f = fixture();
    let server = start_server();
    let addr = server.local_addr();

    let request = QaRequest::new(&f.questions[0]);
    let expected = serde_json::to_string(&f.service.answer(&request)).unwrap();
    let body = serde_json::to_string(&request).unwrap();

    let (status, first) = http(addr, "POST", "/answer", &body);
    assert_eq!(status, 200);
    assert_eq!(
        first, expected,
        "wire response must equal in-process answer"
    );

    let before = cache_stats(addr);
    assert_eq!(before.misses, 1);
    assert_eq!(before.entries, 1);

    let (status, second) = http(addr, "POST", "/answer", &body);
    assert_eq!(status, 200);
    assert_eq!(second, first, "cached response must be byte-identical");

    let after = cache_stats(addr);
    assert_eq!(
        after.hits,
        before.hits + 1,
        "second POST must hit the cache"
    );
    assert_eq!(after.misses, before.misses, "second POST must not miss");

    server.shutdown();
}

#[test]
fn every_answer_is_looked_up_once_and_hits_never_reach_the_worker_pool() {
    let f = fixture();
    let server = start_server();
    let addr = server.local_addr();

    // K distinct cold questions, then the same K again.
    let bodies: Vec<String> = f
        .questions
        .iter()
        .map(|q| serde_json::to_string(&QaRequest::new(q)).unwrap())
        .collect();
    let k = bodies.len() as u64;
    let mut cold_answers = Vec::new();
    for body in &bodies {
        let (status, answer) = http(addr, "POST", "/answer", body);
        assert_eq!(status, 200, "{answer}");
        cold_answers.push(answer);
    }
    let after_cold = metrics(addr);
    for (body, cold) in bodies.iter().zip(&cold_answers) {
        let (status, answer) = http(addr, "POST", "/answer", body);
        assert_eq!(status, 200);
        assert_eq!(&answer, cold, "a hit is byte-identical to its miss");
    }
    let after_hot = metrics(addr);

    // One lookup per request: no miss is looked up again on the worker.
    let stats = cache_stats(addr);
    assert_eq!((stats.misses, stats.hits), (k, k), "{stats:?}");
    // The loop path and the worker path count alike. Each `/metrics`
    // scrape counts itself as a request (its response is recorded after
    // the snapshot), so the second scrape sees the first scrape's 2xx.
    assert_eq!(after_hot.answer_requests, 2 * k);
    assert_eq!(after_hot.requests_total, 2 * k + 2);
    assert_eq!(after_hot.responses_2xx, 2 * k + 1);
    assert_eq!(after_hot.answered + after_hot.refused, 2 * k);
    assert_eq!(after_hot.answer_latency.count, 2 * k);
    // Every miss crossed the pool; no hit did. The scrapes themselves are
    // routed through the pool and count one dispatch each.
    assert_eq!(after_cold.worker_dispatches, k + 1);
    assert_eq!(
        after_hot.worker_dispatches - after_cold.worker_dispatches,
        1,
        "the hit pass adds no dispatch beyond its own scrape"
    );

    server.shutdown();
}

#[test]
fn requests_with_different_overrides_do_not_share_cache_entries() {
    let f = fixture();
    let server = start_server();
    let addr = server.local_addr();

    let plain = serde_json::to_string(&QaRequest::new(&f.questions[0])).unwrap();
    let strict = serde_json::to_string(
        &QaRequest::new(&f.questions[0])
            .with_top_k(1)
            .with_min_theta(0.9),
    )
    .unwrap();
    http(addr, "POST", "/answer", &plain);
    http(addr, "POST", "/answer", &strict);
    let stats = cache_stats(addr);
    assert_eq!(
        stats.misses, 2,
        "distinct configs must key distinct entries"
    );
    assert_eq!(stats.entries, 2);

    server.shutdown();
}

// ---------------------------------------------------------------------------
// /batch
// ---------------------------------------------------------------------------

#[test]
fn batch_matches_in_process_and_seeds_the_cache() {
    let f = fixture();
    let server = start_server();
    let addr = server.local_addr();

    // Mixed batch: answerable questions, a duplicate, and a refusal.
    let requests: Vec<QaRequest> = [
        f.questions[0].as_str(),
        f.questions[1].as_str(),
        "why is the sky blue",
        f.questions[0].as_str(),
    ]
    .into_iter()
    .map(QaRequest::new)
    .collect();
    let expected = serde_json::to_string(&f.service.answer_batch(&requests)).unwrap();
    let body = serde_json::to_string(&requests).unwrap();

    let (status, wire) = http(addr, "POST", "/batch", &body);
    assert_eq!(status, 200);
    assert_eq!(wire, expected, "batch over the wire must equal in-process");

    // The duplicate shares one cache entry; the batch seeded the cache for
    // subsequent /answer calls.
    let stats = cache_stats(addr);
    assert_eq!(stats.entries, 3);

    let single = serde_json::to_string(&QaRequest::new(&f.questions[1])).unwrap();
    let (status, answer) = http(addr, "POST", "/answer", &single);
    assert_eq!(status, 200);
    assert_eq!(
        answer,
        serde_json::to_string(&f.service.answer(&requests[1])).unwrap()
    );
    let after = cache_stats(addr);
    assert_eq!(
        after.hits,
        stats.hits + 1,
        "/answer must reuse the batch's entry"
    );

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Observability routes
// ---------------------------------------------------------------------------

#[test]
fn healthz_and_metrics_report_traffic() {
    let f = fixture();
    let server = start_server();
    let addr = server.local_addr();

    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(
        body.starts_with("{\"status\":\"ok\",\"model_epoch\":0"),
        "{body}"
    );
    assert!(body.contains("\"store_triples\":"), "{body}");
    assert!(body.contains("\"store_backend\":\"in_memory\""), "{body}");

    let answerable = serde_json::to_string(&QaRequest::new(&f.questions[0])).unwrap();
    let refusal = serde_json::to_string(&QaRequest::new("why is the sky blue")).unwrap();
    http(addr, "POST", "/answer", &answerable);
    http(addr, "POST", "/answer", &refusal);
    http(addr, "POST", "/batch", &format!("[{answerable}]"));

    let snap = metrics(addr);
    assert!(snap.uptime_secs >= 0.0);
    // healthz + 2 answers + 1 batch + this /metrics is in flight or later.
    assert!(snap.requests_total >= 4);
    assert_eq!(snap.answer_requests, 2);
    assert_eq!(snap.batch_requests, 1);
    assert_eq!(snap.batch_questions, 1);
    assert_eq!(snap.answered, 2, "answerable question + its batch repeat");
    assert_eq!(snap.refused, 1);
    assert_eq!(snap.answer_latency.count, 2);
    assert_eq!(snap.batch_latency.count, 1);
    assert!(snap.responses_2xx >= 4);

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Protocol behaviour
// ---------------------------------------------------------------------------

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let f = fixture();
    let server = start_server();
    let addr = server.local_addr();

    let body = serde_json::to_string(&QaRequest::new(&f.questions[0])).unwrap();
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_request(&mut stream, "POST", "/answer", &body, false);
    let (status_a, first) = read_response(&mut stream);
    send_request(&mut stream, "GET", "/cache/stats", "", false);
    let (status_b, stats) = read_response(&mut stream);
    send_request(&mut stream, "POST", "/answer", &body, true);
    let (status_c, second) = read_response(&mut stream);
    assert_eq!((status_a, status_b, status_c), (200, 200, 200));
    assert_eq!(first, second);
    let stats: CacheStats = serde_json::from_str(&stats).unwrap();
    assert_eq!(stats.misses, 1);

    server.shutdown();
}

#[test]
fn protocol_and_payload_errors_are_reported_not_fatal() {
    let server = start_server();
    let addr = server.local_addr();

    let (status, body) = http(addr, "GET", "/no/such/route", "");
    assert_eq!(status, 404);
    assert!(body.contains("error"));

    let (status, _) = http(addr, "GET", "/answer", "");
    assert_eq!(status, 405);

    let (status, body) = http(addr, "POST", "/answer", "{not json");
    assert_eq!(status, 400);
    assert!(body.contains("error"));

    // Valid JSON, wrong shape.
    let (status, _) = http(addr, "POST", "/answer", "[1,2,3]");
    assert_eq!(status, 400);

    // A body larger than the server's limit is refused before being read.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /answer HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        2 << 20
    )
    .unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 413);

    // A garbage request line gets a 400, not a hang.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"garbage\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 400);

    // Chunked bodies are not implemented; ignoring the header would desync
    // keep-alive framing (request smuggling), so they are refused loudly.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /answer HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n")
        .unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 501);

    // So are conflicting Content-Length headers.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /answer HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}x")
        .unwrap();
    let (status, _) = read_response(&mut stream);
    assert_eq!(status, 400);

    // The server is still healthy afterwards.
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    server.shutdown();
}

#[test]
fn top_k_zero_is_a_bad_request_on_answer() {
    let f = fixture();
    let server = start_server();
    let addr = server.local_addr();

    // An answerable question: the kernel would reach its top-k stage, which
    // needs room for at least one answer.
    let zero = serde_json::to_string(&QaRequest::new(&f.questions[0]).with_top_k(0)).unwrap();
    let (status, body) = http(addr, "POST", "/answer", &zero);
    assert_eq!(status, 400, "top_k 0 is the client's error: {body}");
    assert!(body.contains("top_k"), "the error names the field: {body}");

    // The server is unharmed, and the same question with a usable top_k
    // answers.
    let one = serde_json::to_string(&QaRequest::new(&f.questions[0]).with_top_k(1)).unwrap();
    let (status, body) = http(addr, "POST", "/answer", &one);
    assert_eq!(status, 200);
    let answered: QaResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(answered.answers.len(), 1);

    let m = metrics(addr);
    assert_eq!(m.responses_5xx, 0);
    assert_eq!(m.responses_4xx, 1);
    server.shutdown();
}

#[test]
fn a_top_k_zero_member_rejects_the_whole_batch_buffered_or_streamed() {
    let f = fixture();
    let server = start_server();
    let addr = server.local_addr();

    let requests = vec![
        QaRequest::new(&f.questions[0]),
        QaRequest::new(&f.questions[1]).with_top_k(0),
    ];
    let body = serde_json::to_string(&requests).unwrap();

    let (status, reply) = http(addr, "POST", "/batch", &body);
    assert_eq!(status, 400, "buffered batch: {reply}");
    assert!(
        reply.contains("top_k"),
        "the error names the field: {reply}"
    );

    // Streamed: rejected before the stream head, as a plain buffered 400.
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_request(&mut stream, "POST", "/batch?stream=1", &body, true);
    let (status, head) = read_head(&mut stream);
    assert_eq!(status, 400, "streamed batch head: {head}");
    assert!(
        !head.to_ascii_lowercase().contains("transfer-encoding"),
        "no stream head may go out: {head}"
    );

    // Nothing was computed or cached for the rejected batches.
    assert_eq!(cache_stats(addr).entries, 0);
    let m = metrics(addr);
    assert_eq!(m.responses_5xx, 0);
    assert_eq!(m.responses_4xx, 2);
    assert_eq!(m.batch_stream_requests, 0);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Concurrency + shutdown
// ---------------------------------------------------------------------------

#[test]
fn smoke_32_concurrent_connections_answer_and_batch() {
    let f = fixture();
    let server = start_server();
    let addr = server.local_addr();
    let connections = 32;

    std::thread::scope(|scope| {
        for i in 0..connections {
            let question = &f.questions[i % f.questions.len()];
            let other = &f.questions[(i + 1) % f.questions.len()];
            scope.spawn(move || {
                let single = serde_json::to_string(&QaRequest::new(question)).unwrap();
                let (status, body) = http(addr, "POST", "/answer", &single);
                assert_eq!(status, 200);
                let parsed: QaResponse = serde_json::from_str(&body).expect("QaResponse");
                assert!(parsed.answered());

                let batch =
                    serde_json::to_string(&[QaRequest::new(question), QaRequest::new(other)])
                        .unwrap();
                let (status, body) = http(addr, "POST", "/batch", &batch);
                assert_eq!(status, 200);
                let parsed: Vec<QaResponse> = serde_json::from_str(&body).expect("batch");
                assert_eq!(parsed.len(), 2);
            });
        }
    });

    let snap = metrics(addr);
    assert_eq!(snap.answer_requests, connections as u64);
    assert_eq!(snap.batch_requests, connections as u64);
    assert_eq!(snap.batch_questions, 2 * connections as u64);
    assert_eq!(snap.responses_4xx + snap.responses_5xx, 0);

    // Every distinct question was computed at most a handful of times (the
    // racy first wave) — after it, everything hits.
    let stats = cache_stats(addr);
    assert!(stats.hits > 0, "concurrent repeats must hit the cache");
    assert_eq!(stats.entries, f.questions.len());

    server.shutdown();
}

#[test]
fn graceful_shutdown_stops_accepting_and_joins() {
    let server = start_server();
    let addr = server.local_addr();
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    server.shutdown();

    // The listener is gone: either the connect fails outright, or a raced
    // connection is closed without a response.
    if let Ok(mut stream) = TcpStream::connect(addr) {
        send_request(&mut stream, "GET", "/healthz", "", true);
        let mut buf = Vec::new();
        let n = stream.read_to_end(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "post-shutdown connection must not be served");
    }
}
