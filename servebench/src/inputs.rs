//! Seeded inputs: the world, the training corpus, the served question pool
//! and each workload's request stream. Everything derives from `--seed`;
//! the serving stack only ever receives what is generated here.

use std::collections::HashSet;

use kbqa_common::rng::{substream, DetRng};
use kbqa_corpus::benchmark::qald_like;
use kbqa_corpus::{CorpusConfig, QaCorpus, World, WorldConfig};
use rand::seq::SliceRandom;
use rand::Rng;

/// QA pairs the model learns from.
const CORPUS_PAIRS: usize = 20_000;
/// Factoid questions drawn for the served pool; duplicates are dropped.
const POOL_BFQS: usize = 27_000;
/// Ranking, comparison, listing and descriptive questions in the pool. Few
/// of them are distinct, and each ranking or listing question sorts every
/// city of the world while it is generated.
const POOL_NON_BFQS: usize = 400;
/// Share of factoid questions phrased with a paraphrase no corpus pair uses:
/// the long tail the direct path refuses and decomposition retries.
const HARD_RATE: f64 = 0.12;
/// Distinct questions in the `answer-hot` pool: below the server's
/// 4096-entry answer cache, so the pool fits it.
const HOT_POOL: usize = 2_900;
/// Zipf exponent of the `answer-hot` popularity skew.
const HOT_ZIPF: f64 = 1.1;
/// Questions per streamed `/batch` request.
pub const BATCH_SIZE: usize = 512;

/// The three traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop `POST /answer`, Zipf over the hot pool, with reloads.
    AnswerHot,
    /// Closed-loop `POST /answer`, uniform over the whole pool.
    AnswerCold,
    /// Closed-loop `POST /batch?stream=1`, cycling through the whole pool.
    BatchStream,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "answer-hot" => Some(Self::AnswerHot),
            "answer-cold" => Some(Self::AnswerCold),
            "batch-stream" => Some(Self::BatchStream),
            _ => None,
        }
    }

    /// The workload's name as `BENCHMARK.json` lists it.
    pub fn name(self) -> &'static str {
        match self {
            Self::AnswerHot => "answer-hot",
            Self::AnswerCold => "answer-cold",
            Self::BatchStream => "batch-stream",
        }
    }
}

/// One distinct served question with its gold answers.
pub struct PoolQuestion {
    /// The question text.
    pub question: String,
    /// Acceptable answers (empty: no factoid answer exists).
    pub gold: Vec<String>,
    /// Whether the paper counts it as a BFQ (drives `R_BFQ`).
    pub is_bfq: bool,
}

/// Everything one run serves, generated from one seed.
pub struct Inputs {
    /// The knowledge base and taxonomy.
    pub world: World,
    /// The training corpus.
    pub corpus: QaCorpus,
    /// Distinct served questions.
    pub pool: Vec<PoolQuestion>,
    /// Pool indices of the `answer-hot` questions, most popular first.
    pub hot: Vec<u32>,
    /// Cumulative Zipf weights over `hot`.
    hot_cdf: Vec<f64>,
    /// A seeded permutation of the pool: the `batch-stream` cycle.
    batch_order: Vec<u32>,
    seed: u64,
}

impl Inputs {
    /// Generate the world, corpus and pools for `seed`.
    pub fn generate(seed: u64) -> Self {
        let world = World::generate(WorldConfig::large_1m(seed));
        let corpus = QaCorpus::generate(
            &world,
            &CorpusConfig::with_pairs(seed.wrapping_add(17), CORPUS_PAIRS),
        );
        let bfqs = qald_like(
            &world,
            "served",
            POOL_BFQS,
            POOL_BFQS,
            HARD_RATE,
            seed ^ 0xB0,
        );
        let others = qald_like(&world, "served", POOL_NON_BFQS, 0, 0.0, seed ^ 0xB1);
        let mut seen = HashSet::new();
        let pool: Vec<PoolQuestion> = bfqs
            .questions
            .into_iter()
            .chain(others.questions)
            .filter(|q| seen.insert(q.question.clone()))
            .map(|q| PoolQuestion {
                is_bfq: q.kind.is_bfq(),
                question: q.question,
                gold: q.gold_answers,
            })
            .collect();

        let mut rng = substream(seed, "servebench/pools");
        let mut order: Vec<u32> = (0..pool.len() as u32).collect();
        order.shuffle(&mut rng);
        let hot = order[..HOT_POOL.min(order.len())].to_vec();
        let mut total = 0.0;
        let hot_cdf = (1..=hot.len())
            .map(|rank| {
                total += (rank as f64).powf(-HOT_ZIPF);
                total
            })
            .collect();
        order.shuffle(&mut rng);
        Self {
            world,
            corpus,
            pool,
            hot,
            hot_cdf,
            batch_order: order,
            seed,
        }
    }

    /// The pool indices `workload` requests, in order, for request stream
    /// `stream` (one stream per connection). The same seed, workload and
    /// stream always give the same sequence.
    pub fn traffic(&self, workload: Workload, stream: u64) -> Traffic<'_> {
        let label = format!("servebench/traffic/{}/{stream}", workload.name());
        Traffic {
            inputs: self,
            workload,
            rng: substream(self.seed, &label),
            cursor: stream as usize * BATCH_SIZE,
        }
    }

    /// Distinct pool indices `workload` can request.
    pub fn distinct(&self, workload: Workload) -> usize {
        match workload {
            Workload::AnswerHot => self.hot.len(),
            _ => self.pool.len(),
        }
    }
}

/// An endless, seeded stream of pool indices.
pub struct Traffic<'a> {
    inputs: &'a Inputs,
    workload: Workload,
    rng: DetRng,
    cursor: usize,
}

impl Iterator for Traffic<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let inputs = self.inputs;
        Some(match self.workload {
            Workload::AnswerHot => {
                let total = *inputs.hot_cdf.last().expect("hot pool is not empty");
                let point = self.rng.gen::<f64>() * total;
                let rank = inputs.hot_cdf.partition_point(|&c| c <= point);
                inputs.hot[rank.min(inputs.hot.len() - 1)]
            }
            Workload::AnswerCold => self.rng.gen_range(0..inputs.pool.len()) as u32,
            Workload::BatchStream => {
                let i = inputs.batch_order[self.cursor % inputs.batch_order.len()];
                self.cursor += 1;
                i
            }
        })
    }
}
