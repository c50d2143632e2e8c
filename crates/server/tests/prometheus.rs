//! End-to-end observability tests: Prometheus text exposition at
//! `GET /metrics?format=prometheus` (validated by the line-format checker
//! the obs crate ships), stage timings on `explain` responses, and the
//! token-gated slow-query log at `GET /debug/slow`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use kbqa_core::learner::{Learner, LearnerConfig};
use kbqa_core::service::KbqaService;
use kbqa_corpus::{CorpusConfig, QaCorpus, World, WorldConfig};
use kbqa_nlp::GazetteerNer;
use kbqa_server::{serve, validate_exposition, MetricsSnapshot, ServerConfig, SlowQuery};

/// A real learned service plus a question it demonstrably answers.
fn learned_service() -> (KbqaService, String) {
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 400));
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
    let service = KbqaService::builder(
        Arc::clone(&world.store),
        Arc::clone(&world.conceptualizer),
        Arc::new(model),
    )
    .ner(ner)
    .build();

    let intent = world.intent_by_name("city_population").expect("intent");
    let city = world
        .subjects_of(intent)
        .iter()
        .copied()
        .find(|&c| {
            !world.gold_values(intent, c).is_empty()
                && world.store.entities_named(&world.store.surface(c)).len() == 1
        })
        .expect("answerable city");
    let question = format!("what is the population of {}", world.store.surface(city));
    assert!(service.answer_text(&question).answered());
    (service, question)
}

fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &str,
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n{headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
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
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length header");
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read body");
    (status, head, String::from_utf8(body).expect("utf8 body"))
}

fn answer(addr: SocketAddr, question: &str, explain: bool) -> (u16, String) {
    let body = format!("{{\"question\":{question:?},\"explain\":{explain}}}");
    let (status, _, body) = http(addr, "POST", "/answer", "", &body);
    (status, body)
}

#[test]
fn prometheus_exposition_is_valid_and_carries_stage_and_cause_families() {
    let (service, question) = learned_service();
    let config = ServerConfig {
        trace_sample_every: 1, // trace everything: stage families must fill
        ..ServerConfig::default()
    };
    let server = serve(service, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    // One answered (cold), the same again (cache hit), one refusal.
    assert_eq!(answer(addr, &question, false).0, 200);
    assert_eq!(answer(addr, &question, false).0, 200);
    let (status, refused) = answer(addr, "what is the population of zzzxyzzy", false);
    assert_eq!(status, 200);
    assert!(refused.contains("refusal"));

    // Query-string negotiation.
    let (status, head, text) = http(addr, "GET", "/metrics?format=prometheus", "", "");
    assert_eq!(status, 200);
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "exposition content type, got head:\n{head}"
    );
    validate_exposition(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    for needle in [
        "# TYPE kbqa_stage_latency_seconds histogram",
        "kbqa_stage_latency_seconds_bucket{stage=\"ner_grounding\",le=\"+Inf\"}",
        "kbqa_stage_latency_seconds_bucket{stage=\"serialize\",le=\"+Inf\"}",
        "kbqa_refusals_total{cause=\"no_entity_grounded\"} 1",
        "kbqa_outcomes_total{outcome=\"answered\"} 2",
        "kbqa_cache_events_total{event=\"hit\"} 1",
        "kbqa_cache_events_total{event=\"miss\"} 2",
        "kbqa_request_latency_seconds_bucket{route=\"answer\"",
        "kbqa_store_info{backend=",
        "kbqa_model_epoch 0",
        // The two misses and this scrape crossed the worker pool; the hit
        // was answered on the event loop.
        "kbqa_worker_dispatches_total 3",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }

    // Accept-header negotiation reaches the same exposition.
    let (status, _, via_accept) = http(addr, "GET", "/metrics", "Accept: text/plain\r\n", "");
    assert_eq!(status, 200);
    assert!(via_accept.starts_with("# HELP"));

    // The default JSON view still parses — now with cache and store
    // context inline.
    let (status, _, json) = http(addr, "GET", "/metrics", "", "");
    assert_eq!(status, 200);
    let snapshot: MetricsSnapshot = serde_json::from_str(&json).expect("metrics JSON");
    assert_eq!(snapshot.refused_no_entity, 1);
    assert_eq!(snapshot.cache.hits, 1);
    assert!(snapshot.store_triples > 0);
    assert!(!snapshot.store_backend.is_empty());
    assert!(snapshot.stage.traced_requests >= 2);

    server.shutdown();
}

#[test]
fn explain_responses_carry_stage_timings_and_cached_replays_match() {
    let (service, question) = learned_service();
    let server = serve(service, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let (status, cold) = answer(addr, &question, true);
    assert_eq!(status, 200);
    assert!(
        cold.contains("\"parse_us\""),
        "explain response must carry stage_us, got: {cold}"
    );
    // The cache hit replays the computing run's response byte-identically,
    // stage timings included.
    let (status, hit) = answer(addr, &question, true);
    assert_eq!(status, 200);
    assert_eq!(cold, hit);

    // Without explain the body stays clean of timings.
    let (_, plain) = answer(addr, &question, false);
    assert!(plain.contains("\"stage_us\":null"));

    server.shutdown();
}

#[test]
fn debug_slow_is_token_gated_and_returns_slowest_first() {
    let (service, question) = learned_service();
    let config = ServerConfig {
        admin_token: Some("swordfish".into()),
        trace_sample_every: 1,
        slow_log_capacity: 4,
        ..ServerConfig::default()
    };
    let server = serve(service, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    assert_eq!(answer(addr, &question, false).0, 200);
    assert_eq!(answer(addr, &question, false).0, 200); // cache hit
    assert_eq!(
        answer(addr, "what is the population of zzzxyzzy", false).0,
        200
    );

    let (status, _, _) = http(addr, "GET", "/debug/slow", "", "");
    assert_eq!(status, 401, "missing credential");
    let (status, _, _) = http(addr, "GET", "/debug/slow", "X-Admin-Token: wrong\r\n", "");
    assert_eq!(status, 401, "wrong credential");

    let (status, _, body) = http(
        addr,
        "GET",
        "/debug/slow",
        "X-Admin-Token: swordfish\r\n",
        "",
    );
    assert_eq!(status, 200);
    let slow: Vec<SlowQuery> = serde_json::from_str(&body).expect("slow log JSON");
    assert!(!slow.is_empty());
    assert!(
        slow.windows(2).all(|w| w[0].total_us >= w[1].total_us),
        "slowest first: {slow:?}"
    );
    for record in &slow {
        assert!(record.request_id > 0, "server-assigned IDs start at 1");
        assert!(!record.question.is_empty());
        assert!(!record.store_backend.is_empty());
    }
    assert!(slow.iter().any(|r| r.question == question));

    server.shutdown();
}

#[test]
fn debug_slow_is_disabled_without_an_admin_token() {
    let (service, _) = learned_service();
    let server = serve(service, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let (status, _, _) = http(server.local_addr(), "GET", "/debug/slow", "", "");
    assert_eq!(status, 403);
    server.shutdown();
}
