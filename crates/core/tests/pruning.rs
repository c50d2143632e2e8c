//! Model pruning: the long tail of rare templates can be dropped without
//! invalidating ids, and high-support answering survives.

use kbqa_core::engine::{QaEngine, ScratchSpace};
use kbqa_core::learner::{Learner, LearnerConfig};
use kbqa_core::service::Refusal;
use kbqa_corpus::{CorpusConfig, QaCorpus, World, WorldConfig};
use kbqa_nlp::GazetteerNer;

#[test]
fn pruning_drops_rare_templates_but_keeps_answers() {
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

    let pruned = model.pruned(3);
    assert!(
        pruned.stats.distinct_templates < model.stats.distinct_templates,
        "pruning removed nothing: {} vs {}",
        pruned.stats.distinct_templates,
        model.stats.distinct_templates
    );
    // Ids stable: catalogs untouched.
    assert_eq!(pruned.templates.len(), model.templates.len());
    assert_eq!(pruned.predicates.len(), model.predicates.len());

    // A high-support question still answers identically.
    let engine_full = QaEngine::new(&world.store, &world.conceptualizer, &model);
    let engine_pruned = QaEngine::new(&world.store, &world.conceptualizer, &pruned);
    let pop = world.intent_by_name("city_population").unwrap();
    let city = world
        .subjects_of(pop)
        .iter()
        .copied()
        .find(|&c| !world.gold_values(pop, c).is_empty())
        .unwrap();
    let q = format!("what is the population of {}", world.store.surface(city));
    let mut scratch = ScratchSpace::new();
    let a_full = engine_full
        .answer_bfq_explained_with(&q, &mut scratch)
        .expect("full model answers");
    let a_pruned = engine_pruned
        .answer_bfq_explained_with(&q, &mut scratch)
        .expect("pruned model lost a common template");
    assert_eq!(a_full[0].value, a_pruned[0].value);
}

#[test]
fn pruning_everything_yields_refusals() {
    let world = World::generate(WorldConfig::tiny(42));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 300));
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
    let emptied = model.pruned(u32::MAX);
    assert_eq!(emptied.stats.distinct_templates, 0);
    let engine = QaEngine::new(&world.store, &world.conceptualizer, &emptied);
    let pop = world.intent_by_name("city_population").unwrap();
    let city = world.subjects_of(pop)[0];
    let q = format!("what is the population of {}", world.store.surface(city));
    // The entity grounds and the template is still in the (id-stable)
    // catalog, but pruning emptied its predicate row.
    assert_eq!(
        engine.answer_bfq_explained_with(&q, &mut ScratchSpace::new()),
        Err(Refusal::NoPredicateAboveTheta)
    );
}
