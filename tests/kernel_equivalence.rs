//! Equivalence suite for the optimized BFQ kernel (PR 4).
//!
//! `QaEngine::bfq_kernel_reference` retains the naive Eq (7) enumeration —
//! fresh allocations everywhere, template strings formatted and hashed per
//! concept, no caches, no pruning. The optimized kernel must be
//! **byte-identical** to it over the full generated benchmark question set:
//! same answers, same score bits, same provenance strings, same refusal
//! causes. One scratch is reused across every question, so the suite also
//! pins that scratch reuse never leaks state between requests.

use std::sync::Arc;

use kbqa::corpus::benchmark;
use kbqa::prelude::*;

struct Fixture {
    world: World,
    corpus: QaCorpus,
    model: Arc<LearnedModel>,
}

fn fixture() -> Fixture {
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 800));
    let ner = GazetteerNer::from_store(&world.store);
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
    Fixture {
        world,
        corpus,
        model: Arc::new(model),
    }
}

/// The full generated question set: every corpus question, a QALD-like and a
/// WebQuestions-like benchmark (factoid, hard-paraphrase and non-BFQ mixes),
/// the complex-question suite, and handcrafted probes for each refusal
/// variant.
fn question_set(f: &Fixture) -> Vec<String> {
    let mut questions: Vec<String> = f.corpus.pairs.iter().map(|p| p.question.clone()).collect();
    let qald = benchmark::qald_like(&f.world, "equiv-qald", 120, 90, 0.3, 7);
    questions.extend(qald.questions.into_iter().map(|q| q.question));
    let webq = benchmark::webquestions_like(&f.world, 120, 11);
    questions.extend(webq.questions.into_iter().map(|q| q.question));
    for complex in benchmark::complex_suite(&f.world) {
        questions.push(complex.question);
    }
    // Refusal probes, one per pipeline stage (plus degenerate input).
    questions.extend(
        [
            "",
            "why is the sky blue", // NoEntityGrounded
            "please enumerate the inhabitant count of somewhere", // NoTemplateMatched
            "what is the meaning of life",
        ]
        .into_iter()
        .map(str::to_owned),
    );
    // A template probe against a real entity so the later stages exercise.
    let pop = f.world.intent_by_name("city_population").unwrap();
    let city = f.world.subjects_of(pop)[0];
    let name = f.world.store.surface(city);
    questions.push(format!("please enumerate the inhabitant count of {name}"));
    questions.push(format!("what is the population of {name}"));
    questions
}

/// Byte-level comparison: `assert_eq!` covers structure and strings; scores
/// are re-checked bit-for-bit because `f64` equality would accept `-0.0`.
fn assert_identical(
    optimized: &Result<Vec<Answer>, Refusal>,
    reference: &Result<Vec<Answer>, Refusal>,
    question: &str,
    config: &str,
) {
    assert_eq!(optimized, reference, "question {question:?} under {config}");
    if let (Ok(a), Ok(b)) = (optimized, reference) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "score bits differ for {question:?} under {config}"
            );
        }
    }
}

fn sweep(f: &Fixture, config: EngineConfig, label: &str) -> u64 {
    let ner = GazetteerNer::from_store(&f.world.store);
    let engine = QaEngine::with_shared(&f.world.store, &f.world.conceptualizer, &f.model, &ner)
        .with_config(config);
    let mut scratch = ScratchSpace::new();
    for question in question_set(f) {
        let tokens = tokenize(&question);
        let reference = engine.bfq_kernel_reference(&tokens);
        // Both optimized entry points: the question level (tokenizes into
        // the scratch) and the pre-tokenized kernel the benchmarks time.
        let optimized = engine.answer_bfq_explained_with(&question, &mut scratch);
        assert_identical(&optimized, &reference, &question, label);
        let kernel = engine.bfq_kernel(&tokens, &mut scratch);
        assert_identical(&kernel, &reference, &question, label);
    }
    scratch.pruned_events()
}

#[test]
fn optimized_kernel_is_byte_identical_under_default_config() {
    let f = fixture();
    sweep(&f, EngineConfig::default(), "default config");
}

#[test]
fn optimized_kernel_is_byte_identical_under_stressed_configs() {
    let f = fixture();
    // Small k with a permissive θ floor, wide concept fan-out, and a strict
    // large-k config: byte-identity must hold under every exact-mode shape.
    for (config, label) in [
        (
            EngineConfig {
                top_k: 1,
                min_theta: 0.01,
                ..EngineConfig::default()
            },
            "top_k=1 min_theta=0.01",
        ),
        (
            EngineConfig {
                top_k: 2,
                min_theta: 0.0,
                max_concepts: 8,
                ..EngineConfig::default()
            },
            "top_k=2 min_theta=0 max_concepts=8",
        ),
        (
            EngineConfig {
                top_k: 50,
                min_theta: 0.5,
                ..EngineConfig::default()
            },
            "top_k=50 min_theta=0.5",
        ),
    ] {
        sweep(&f, config, label);
    }
}

/// The opt-in floor pruning (`EngineConfig::floor_prune`) never drops a
/// top-k answer: at every rank, the **true** (exact-kernel) score of the
/// value the pruned kernel picked equals the true score of the value the
/// exact kernel picked. Bit-identically tied values may swap ranks — either
/// is a valid top-k under a tie — but choosing a strictly worse value at
/// any rank fails. The sweep must also actually prune, or it proves
/// nothing.
#[test]
fn floor_pruning_never_drops_a_top_k_answer() {
    let f = fixture();
    let ner = GazetteerNer::from_store(&f.world.store);
    let mut pruned_total = 0;
    for top_k in 1..=3usize {
        let engine = QaEngine::with_shared(&f.world.store, &f.world.conceptualizer, &f.model, &ner)
            .with_config(EngineConfig {
                top_k,
                min_theta: 0.0,
                floor_prune: true,
                ..EngineConfig::default()
            });
        // The exact ranking, deep enough to hold true scores for anything
        // the pruned kernel could plausibly surface.
        let deep = QaEngine::with_shared(&f.world.store, &f.world.conceptualizer, &f.model, &ner)
            .with_config(EngineConfig {
                top_k: 64,
                min_theta: 0.0,
                ..EngineConfig::default()
            });
        let mut scratch = ScratchSpace::new();
        for question in question_set(&f) {
            let tokens = tokenize(&question);
            let reference = deep.bfq_kernel_reference(&tokens);
            let optimized = engine.answer_bfq_explained_with(&question, &mut scratch);
            assert_eq!(
                optimized.is_ok(),
                reference.is_ok(),
                "answerability changed for {question:?}"
            );
            assert_eq!(
                optimized.as_ref().err(),
                reference.as_ref().err(),
                "refusal cause changed for {question:?}"
            );
            let (Ok(optimized), Ok(reference)) = (&optimized, &reference) else {
                continue;
            };
            let true_score = |value: &str| {
                reference
                    .iter()
                    .find(|a| a.value == value)
                    .map(|a| a.score)
                    .unwrap_or_else(|| panic!("{value:?} not in deep ranking for {question:?}"))
            };
            assert_eq!(
                optimized.len(),
                reference.len().min(top_k),
                "answer count changed for {question:?}"
            );
            for (rank, (opt, exact)) in optimized.iter().zip(reference).enumerate() {
                assert_eq!(
                    true_score(&opt.value).to_bits(),
                    exact.score.to_bits(),
                    "rank {rank} of {question:?}: pruned kernel chose {:?} (true score \
                     {}) over {:?} (true score {})",
                    opt.value,
                    true_score(&opt.value),
                    exact.value,
                    exact.score,
                );
            }
        }
        pruned_total += scratch.pruned_events();
    }
    assert!(
        pruned_total > 0,
        "floor pruning never fired — the sweep proves nothing"
    );
}
