//! Theorem 2 / Algorithm 2 exactness: the DP's optimum must equal a
//! brute-force maximization of Eq (28) over all decompositions.

use kbqa_core::decompose::{decompose_with, PatternIndex};
use kbqa_core::engine::{QaEngine, ScratchSpace};
use kbqa_core::learner::{Learner, LearnerConfig};
use kbqa_corpus::{CorpusConfig, QaCorpus, World, WorldConfig};
use kbqa_nlp::{tokenize, GazetteerNer};

/// Brute-force Eq (28): P*(q) = max(δ(q), max over proper substrings s of
/// P(r(q, s)) · P*(s)), evaluated recursively without memoization.
fn brute_force(engine: &QaEngine<'_>, index: &PatternIndex, words: &[&str]) -> f64 {
    if words.is_empty() {
        return 0.0;
    }
    let text = tokenize(&words.join(" "));
    let mut best = if engine.score_bfq(&text, &mut ScratchSpace::new()).is_ok() {
        1.0
    } else {
        0.0
    };
    let n = words.len();
    for c in 0..n {
        for d in (c + 1)..=n {
            if c == 0 && d == n {
                continue;
            }
            let inner = brute_force(engine, index, &words[c..d]);
            if inner <= 0.0 {
                continue;
            }
            let mut pattern: Vec<&str> = Vec::new();
            pattern.extend_from_slice(&words[..c]);
            pattern.push("$e");
            pattern.extend_from_slice(&words[d..]);
            let p = index.probability(&pattern) * inner;
            if p > best {
                best = p;
            }
        }
    }
    best
}

#[test]
fn dp_matches_brute_force_on_short_questions() {
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 700));
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
    let index = PatternIndex::build(corpus.pairs.iter().map(|p| p.question.as_str()), &ner);
    let engine = QaEngine::new(&world.store, &world.conceptualizer, &model);

    // A mix of primitive, complex and unanswerable short questions drawn
    // from the world itself (brute force is exponential — keep them short).
    let mut questions: Vec<String> = Vec::new();
    let cap = world.intent_by_name("country_capital").unwrap();
    if let Some(&country) = world
        .subjects_of(cap)
        .iter()
        .find(|&&c| !world.gold_values(cap, c).is_empty())
    {
        let name = world.store.surface(country);
        questions.push(format!("capital of {name}"));
        questions.push(format!("how large is the capital of {name}"));
    }
    let pop = world.intent_by_name("city_population").unwrap();
    if let Some(&city) = world
        .subjects_of(pop)
        .iter()
        .find(|&&c| !world.gold_values(pop, c).is_empty())
    {
        let name = world.store.surface(city);
        questions.push(format!("population of {name}"));
    }
    questions.push("why is the sky blue".to_owned());

    for q in &questions {
        let tokens = tokenize(q);
        let words = tokens.words();
        if words.len() > 9 {
            continue; // brute force blows up beyond this
        }
        let expected = brute_force(&engine, &index, &words);
        match decompose_with(&engine, &index, q, &mut ScratchSpace::new()) {
            Some(d) => {
                assert!(
                    (d.probability - expected).abs() < 1e-9,
                    "DP {} vs brute force {} on {q:?}",
                    d.probability,
                    expected
                );
            }
            None => {
                assert!(
                    expected <= 0.0,
                    "DP found nothing but brute force found {expected} on {q:?}"
                );
            }
        }
    }
}
