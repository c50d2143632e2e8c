//! Failure injection: the pipeline must degrade, not panic, under
//! adversarial corpora, pathological graphs, and hostile question strings.
//!
//! PR 8 adds shard faults: a shard failing mid-query must degrade that
//! question to a typed [`Refusal::ShardUnavailable`] while the service — and
//! the HTTP server above it, `/healthz` included — keeps serving everything
//! that doesn't route to the poisoned shard. The shards are worker lanes
//! (`support::fleet`); a poisoned lane fails fast without reaching its
//! worker, exactly as when the supervisor parks a dead one.

mod support;

use std::sync::Arc;

use kbqa::core::decompose::PatternIndex;
use kbqa::core::expansion::{expand, ExpansionConfig};
use kbqa::prelude::*;

fn service_for(world: &World, model: LearnedModel) -> KbqaService {
    KbqaService::new(
        Arc::clone(&world.store),
        Arc::clone(&world.conceptualizer),
        Arc::new(model),
    )
}

fn learn_with(world: &World, pairs: Vec<(String, String)>) -> LearnedModel {
    let ner = GazetteerNer::from_store(&world.store);
    let learner = Learner::new(
        &world.store,
        &world.conceptualizer,
        &ner,
        &world.predicate_classes,
    );
    let refs: Vec<(&str, &str)> = pairs
        .iter()
        .map(|(q, a)| (q.as_str(), a.as_str()))
        .collect();
    let (model, _) = learner.learn(&refs, &LearnerConfig::default());
    model
}

#[test]
fn empty_corpus_learns_empty_model_and_engine_refuses() {
    let world = World::generate(WorldConfig::tiny(42));
    let model = learn_with(&world, vec![]);
    assert_eq!(model.stats.observations, 0);
    assert_eq!(model.templates.len(), 0);
    let service = service_for(&world, model);
    let response = service.answer_text("what is the population of anywhere");
    assert!(!response.answered());
    assert!(response.refusal.is_some());
}

#[test]
fn all_chatter_corpus_produces_no_observations() {
    let world = World::generate(WorldConfig::tiny(42));
    let pairs: Vec<(String, String)> = (0..200)
        .map(|i| {
            (
                format!("what should i cook tonight number {i}"),
                "pasta never fails".to_owned(),
            )
        })
        .collect();
    let model = learn_with(&world, pairs);
    assert_eq!(model.stats.observations, 0);
}

#[test]
fn fully_wrong_answers_still_terminate_and_stay_safe() {
    // Every reply names a value of a DIFFERENT entity: extraction finds no
    // KB connection for most pairs, EM sees thin noise, nothing panics.
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &{
        let mut c = CorpusConfig::with_pairs(5, 400);
        c.wrong_answer_rate = 1.0;
        c
    });
    let pairs: Vec<(String, String)> = corpus
        .pairs
        .iter()
        .map(|p| (p.question.clone(), p.answer.clone()))
        .collect();
    let model = learn_with(&world, pairs);
    // Far fewer observations than a clean corpus of the same size.
    let clean = QaCorpus::generate(&world, &CorpusConfig::clean(5, 400));
    let clean_pairs: Vec<(String, String)> = clean
        .pairs
        .iter()
        .map(|p| (p.question.clone(), p.answer.clone()))
        .collect();
    let clean_model = learn_with(&world, clean_pairs);
    assert!(
        model.stats.observations * 2 < clean_model.stats.observations,
        "wrong-answer corpus produced {} observations vs clean {}",
        model.stats.observations,
        clean_model.stats.observations
    );
}

#[test]
fn cyclic_graph_expansion_terminates() {
    let mut b = GraphBuilder::new();
    let a = b.resource("a");
    let c = b.resource("c");
    b.name(a, "Node A");
    b.name(c, "Node C");
    // Tight cycle plus self-loop.
    b.link(a, "next", c);
    b.link(c, "next", a);
    b.link(a, "next", a);
    let store = b.build();
    let sources: kbqa::common::hash::FxHashSet<_> = [a, c].into_iter().collect();
    let config = ExpansionConfig {
        max_len: 3,
        require_name_terminal: false,
        max_emitted: 0,
    };
    let result = expand(&store, &sources, &config);
    // Terminates, dedupes, and never emits self-loops.
    for (&s, entries) in &result.by_subject {
        for &(_, o) in entries {
            assert_ne!(s, o, "self-loop emitted");
        }
    }
    assert!(result.emitted() > 0);
}

#[test]
fn hostile_question_strings_do_not_panic() {
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(5, 300));
    let pairs: Vec<(String, String)> = corpus
        .pairs
        .iter()
        .map(|p| (p.question.clone(), p.answer.clone()))
        .collect();
    let model = learn_with(&world, pairs);
    let ner = Arc::new(GazetteerNer::from_store(&world.store));
    let index = PatternIndex::build(corpus.pairs.iter().map(|p| p.question.as_str()), &ner);
    let service = KbqaService::builder(
        Arc::clone(&world.store),
        Arc::clone(&world.conceptualizer),
        Arc::new(model),
    )
    .ner(ner)
    .pattern_index(Arc::new(index))
    .build();

    let long = "why ".repeat(500);
    let hostile = [
        "",
        " ",
        "????!!!",
        "\u{0000}\u{FFFD}",
        "'s 's 's",
        long.as_str(),
        "日本の首都はどこですか",
        "what is the population of",
        "$city $person $e",
    ];
    for q in hostile {
        // Must not panic; refusal is fine.
        let _ = service.answer_text(q);
        let _ = service.question_statistics(q);
    }
}

#[test]
fn entity_named_like_stopword_is_survivable() {
    let mut b = GraphBuilder::new();
    let weird = b.resource("weird");
    b.name(weird, "The");
    b.fact_int(weird, "population", 1);
    let store = b.build();
    let ner = GazetteerNer::from_store(&store);
    let tokens = tokenize("what is the population of the");
    // Grounds (twice: "the" appears twice) without panicking.
    let mentions = ner.find_all_mentions(&tokens);
    assert!(!mentions.is_empty());
}

#[test]
fn pattern_index_handles_duplicates_and_short_questions() {
    let world = World::generate(WorldConfig::tiny(42));
    let ner = GazetteerNer::from_store(&world.store);
    let questions = ["hi", "hi", "one two", "one two", "x", ""];
    let index = PatternIndex::build(questions.iter().copied(), &ner);
    // Single-token and empty questions are skipped; duplicates accumulate.
    assert_eq!(index.questions_indexed(), 2);
    let (fo, _) = index.counts(&["one", "$e"]);
    assert_eq!(fo, 2);
}

/// A learned service over the tiny world, scatter-gathering through
/// `shards` workers, plus questions it demonstrably answers through them.
fn sharded_fixture(shards: usize) -> (KbqaService, Arc<ShardRouter>, Vec<String>) {
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(5, 400));
    let pairs: Vec<(String, String)> = corpus
        .pairs
        .iter()
        .map(|p| (p.question.clone(), p.answer.clone()))
        .collect();
    let model = learn_with(&world, pairs);
    let service = support::fleet::serve_over_workers(&service_for(&world, model), shards);
    let router = Arc::clone(service.shard_router().expect("router installed"));
    let mut seen = std::collections::HashSet::new();
    let answerable: Vec<String> = corpus
        .pairs
        .iter()
        .map(|p| p.question.clone())
        .filter(|q| seen.insert(q.clone()))
        .filter(|q| service.answer_text(q).answered())
        .take(40)
        .collect();
    assert!(
        answerable.len() >= 10,
        "fixture must answer enough questions"
    );
    (service, router, answerable)
}

#[test]
fn poisoned_shard_is_a_typed_refusal_and_other_shards_keep_answering() {
    let (service, router, answerable) = sharded_fixture(4);
    let mut refusals = 0usize;
    let mut survivals = 0usize;
    for question in &answerable {
        for shard in 0..router.shard_count() {
            router.inject_fault(shard);
            let response = service.answer_text(question);
            if response.answered() {
                // This question never routed to the poisoned shard —
                // the fault stayed isolated.
                survivals += 1;
            } else {
                assert_eq!(
                    response.refusal,
                    Some(Refusal::ShardUnavailable),
                    "a shard fault must surface as the typed refusal, got {:?} for {question:?}",
                    response.refusal
                );
                refusals += 1;
            }
            router.heal(shard);
        }
        // Healed, the question answers again.
        assert!(service.answer_text(question).answered());
    }
    assert!(refusals > 0, "no question ever routed to a poisoned shard");
    assert!(
        survivals > 0,
        "every question refused under every single-shard fault — faults are not isolated"
    );
    assert_eq!(
        router.obs().total_failures(),
        refusals as u64,
        "every typed refusal must be counted on a shard lane, and nothing else"
    );
}

#[test]
fn poisoned_shard_never_wedges_answer_batch() {
    let (service, router, answerable) = sharded_fixture(4);
    let requests: Vec<QaRequest> = answerable.iter().map(QaRequest::new).collect();
    let healthy = service.answer_batch(&requests);
    let healthy_answered = healthy.iter().filter(|r| r.answered()).count();
    assert_eq!(healthy_answered, requests.len());

    router.inject_fault(2);
    // The batch returns — in order, full length — rather than wedging on
    // the poisoned lane. (The scoped workers join unconditionally; a hang
    // here is this test timing out.)
    let degraded = service.answer_batch(&requests);
    assert_eq!(degraded.len(), requests.len());
    let unavailable = degraded
        .iter()
        .filter(|r| r.refusal == Some(Refusal::ShardUnavailable))
        .count();
    for (request, response) in requests.iter().zip(&degraded) {
        assert!(
            response.answered() || response.refusal == Some(Refusal::ShardUnavailable),
            "under a shard fault every response is an answer or the typed refusal; \
             {:?} got {:?}",
            request.question,
            response.refusal
        );
    }
    assert!(
        unavailable > 0,
        "no batch question routed to the poisoned shard"
    );
    assert!(
        degraded.iter().any(|r| r.answered()),
        "the whole batch refused — the fault leaked past its shard"
    );

    router.heal(2);
    let healed = service.answer_batch(&requests);
    assert_eq!(
        healed.iter().filter(|r| r.answered()).count(),
        healthy_answered,
        "healing the shard must restore the full answer set"
    );
}

#[test]
fn shard_fault_keeps_the_http_server_and_healthz_up() {
    use std::io::{Read, Write};

    let (service, router, answerable) = sharded_fixture(3);
    let server = kbqa_server::serve(service, "127.0.0.1:0", kbqa_server::ServerConfig::default())
        .expect("bind ephemeral port");
    let addr = server.local_addr();

    let http = |method: &str, path: &str, body: &str| -> (u16, String) {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write request");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read response");
        let text = String::from_utf8_lossy(&raw).to_string();
        let status = text
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_owned())
            .unwrap_or_default();
        (status, body)
    };
    let ask = |question: &str| {
        let quoted = serde_json::to_string(question).expect("quote question");
        http("POST", "/answer", &format!("{{\"question\":{quoted}}}"))
    };

    let (status, body) = ask(&answerable[0]);
    assert_eq!(status, 200);
    assert!(body.contains("\"answers\""), "healthy answer: {body}");

    // Poison EVERY shard: all routed questions degrade, nothing crashes.
    // (A FRESH question each phase — the server's answer cache would
    // otherwise replay the healthy response and never touch the router.)
    for shard in 0..router.shard_count() {
        router.inject_fault(shard);
    }
    let (status, body) = ask(&answerable[1]);
    assert_eq!(status, 200, "a shard fault is a refusal, not a 5xx: {body}");
    assert!(
        body.contains("ShardUnavailable"),
        "typed refusal must reach the wire: {body}"
    );
    let (status, _) = http("GET", "/healthz", "");
    assert_eq!(status, 200, "/healthz must stay serving under shard faults");

    // The refusal cause and the shard failure are visible in metrics.
    let (status, metrics) = http("GET", "/metrics", "");
    assert_eq!(status, 200);
    let snapshot: kbqa_server::MetricsSnapshot =
        serde_json::from_str(&metrics).expect("metrics JSON");
    assert!(
        snapshot.refused_shard_unavailable >= 1,
        "refusal cause not counted: {snapshot:?}"
    );
    let shards = snapshot
        .shards
        .as_ref()
        .unwrap_or_else(|| panic!("sharded metrics section missing in: {metrics}"));
    assert!(
        shards.lanes.iter().map(|l| l.failures).sum::<u64>() >= 1,
        "shard failure not counted on a lane: {shards:?}"
    );

    // Healed, a fresh question answers through the same server.
    for shard in 0..router.shard_count() {
        router.heal(shard);
    }
    let (status, body) = ask(&answerable[2]);
    assert_eq!(status, 200);
    assert!(body.contains("\"answers\""), "healed answer: {body}");
    server.shutdown();
}

#[test]
fn truncated_expansion_is_flagged_not_silent() {
    let world = World::generate(WorldConfig::tiny(42));
    let sources: kbqa::common::hash::FxHashSet<_> = world
        .store
        .dict()
        .nodes()
        .filter(|&n| world.store.dict().node_term(n).is_resource())
        .collect();
    let config = ExpansionConfig {
        max_emitted: 10,
        ..Default::default()
    };
    let result = expand(&world.store, &sources, &config);
    assert!(result.truncated, "cap was not reported");
}
