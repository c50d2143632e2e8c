//! The traced pass: every layer timed from outside, by calling its public
//! functions in process over the same inputs the workload sent, one span per
//! call. Spans stay in memory and are written out when the run ends. The
//! end-to-end window runs with no tracing at all.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use kbqa_core::decompose::answer_complex_with;
use kbqa_core::model::{conceptualize_mention, resolve_template_ids};
use kbqa_core::service::{KbqaService, QaRequest, QaResponse, Refusal};
use kbqa_core::{ScratchSpace, SlotTable};
use kbqa_nlp::{tokenize, tokenize_into, MentionBuffer, TokenizedText};
use kbqa_rdf::path::{objects_via_path_into, PathWorkspace};
use kbqa_rdf::{NodeId, Snapshot, TripleStore};
use kbqa_server::{AnswerCache, CacheConfig};

use crate::inputs::{Inputs, Workload, BATCH_SIZE};
use crate::stats::{median, quantile};

/// Questions the per-question sweeps time.
const TRACED_QUESTIONS: usize = 6_000;
/// Questions the cache is fed untraced first, so the traced calls see the
/// steady state the server's cache is in during the window.
const CACHE_WARM_KEYS: usize = 8_192;
/// Batches the batch sweeps time.
const TRACED_BATCHES: usize = 8;
/// Questions per streamed lane on the server's `/batch` path.
const STREAM_LANE: usize = 16;
/// Alternating disarmed/armed kernel sweeps behind the trace overhead.
const TRACE_OVERHEAD_ROUNDS: usize = 7;
/// Questions per trace-overhead sweep.
const TRACE_OVERHEAD_QUESTIONS: usize = 2_000;

const NO_PARENT: u32 = u32::MAX;

/// One timed call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    qid: u32,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 18),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    fn open(&mut self, name: &'static str, parent: u32, qid: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            qid,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        let end = self.now();
        self.spans[span as usize].end_ns = end;
    }

    /// Time `f` as one span.
    fn span<T>(&mut self, name: &'static str, parent: u32, qid: u32, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, parent, qid);
        let out = std::hint::black_box(f());
        self.close(span);
        out
    }

    /// Durations of every span named `name`, ns.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per question `0..questions`: the summed duration of its `name`
    /// spans (0 for a question with none), ns.
    fn per_question(&self, name: &str, questions: usize) -> Vec<f64> {
        let mut sums = vec![0.0; questions];
        for s in self.spans.iter().filter(|s| s.name == name) {
            sums[s.qid as usize] += (s.end_ns - s.start_ns) as f64;
        }
        sums
    }

    /// Write every span as one JSON object per line.
    fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"qid\":{}}}",
                s.name, s.start_ns, s.end_ns, s.qid
            )?;
        }
        out.flush()
    }
}

/// Per-layer figures from the traced pass, by metric name, plus the
/// in-process cost of the request path the workload sends.
pub struct LayerReport {
    /// `per_layer` metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Median in-process cost of one request of this workload: `/answer`
    /// route steps for the answer workloads, the streamed `/batch` route
    /// steps for `batch-stream`, µs.
    pub path_p50_us: f64,
    /// Layer medians for the reconciliation table, µs, in path order.
    pub rows: Vec<(&'static str, f64)>,
}

fn refusal_metric(refusal: Refusal) -> &'static str {
    match refusal {
        Refusal::NoEntityGrounded => "engine.refused.no_entity",
        Refusal::NoTemplateMatched => "engine.refused.no_template",
        Refusal::NoPredicateAboveTheta => "engine.refused.no_predicate",
        Refusal::EmptyValueSet => "engine.refused.empty_values",
        Refusal::ShardUnavailable => "engine.refused.shard_unavailable",
    }
}

/// Run every traced sweep for `workload`, write the spans to `spans_path`,
/// and summarize.
pub fn traced_pass(
    inputs: &Inputs,
    service: &KbqaService,
    workload: Workload,
    bodies: &[Vec<u8>],
    bundle_dir: &Path,
    spans_path: &Path,
) -> io::Result<LayerReport> {
    let mut tracer = Tracer::new();
    let mut metrics = BTreeMap::new();
    let questions: Vec<u32> = inputs.traffic(workload, 0).take(TRACED_QUESTIONS).collect();
    let text = |i: u32| inputs.pool[i as usize].question.as_str();
    let n = questions.len();
    let snapshot = service.snapshot();

    // --- The /answer route, step by step, against a benchmark-owned cache.
    let cache = AnswerCache::new(CacheConfig::default());
    for i in inputs.traffic(workload, 1).take(CACHE_WARM_KEYS) {
        let request = QaRequest::new(text(i));
        let key = snapshot.cache_key(&request);
        if cache.get(&key).is_none() {
            cache.insert(key, Arc::new(snapshot.answer(&request)));
        }
    }
    let mut out = Vec::with_capacity(4096);
    let mut bytes = Vec::with_capacity(n);
    for (qid, &i) in questions.iter().enumerate() {
        let qid = qid as u32;
        let root = tracer.open("http.answer_route", NO_PARENT, qid);
        let body = std::str::from_utf8(&bodies[i as usize]).expect("bodies are UTF-8");
        let request: QaRequest = tracer.span("http.parse_body", root, qid, || {
            serde_json::from_str(body).expect("a rendered request parses")
        });
        let snap = tracer.span("service.snapshot", root, qid, || service.snapshot());
        let key = tracer.span("service.cache_key", root, qid, || snap.cache_key(&request));
        let cached = tracer.span("cache.get", root, qid, || cache.get(&key));
        let response = match cached {
            Some(response) => response,
            None => {
                let response: Arc<QaResponse> =
                    Arc::new(
                        tracer.span("service.answer.miss", root, qid, || snap.answer(&request)),
                    );
                tracer.span("cache.insert", root, qid, || {
                    cache.insert(key, Arc::clone(&response))
                });
                response
            }
        };
        out.clear();
        tracer.span("serialize", root, qid, || response.serialize_into(&mut out));
        bytes.push(out.len() as f64);
        tracer.close(root);
    }

    // --- The service and the engine, question by question.
    let engine = snapshot.engine();
    let model = snapshot.model();
    let store = service.store();
    let conceptualizer = service.conceptualizer();
    let ner = engine.ner();
    let index = service.pattern_index();
    let config = engine.config().clone();
    let mut scratch = ScratchSpace::new();
    let mut tokens = TokenizedText::default();
    let mut mentions = MentionBuffer::new();
    let mut concepts = Vec::new();
    let mut templates = Vec::new();
    let mut slots = SlotTable::new();
    let mut form_buf = String::new();
    let mut ws = PathWorkspace::new();
    let mut values: Vec<NodeId> = Vec::new();
    let mut refusals: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut refused_qids = Vec::new();
    for (qid, &i) in questions.iter().enumerate() {
        let qid = qid as u32;
        let q = text(i);
        let request = QaRequest::new(q);
        let root = tracer.open("question", NO_PARENT, qid);
        tracer.span("service.answer", root, qid, || snapshot.answer(&request));
        let direct = tracer.span("engine.kernel", root, qid, || {
            engine.answer_bfq_explained_with(q, &mut scratch)
        });
        let _ = tracer.span("engine.cold_scratch", root, qid, || {
            engine.answer_bfq_explained_with(q, &mut ScratchSpace::new())
        });
        let owned_tokens = tokenize(q);
        let _ = tracer.span("engine.reference", root, qid, || {
            engine.bfq_kernel_reference(&owned_tokens)
        });

        // The kernel's sub-layers, each through its own public function.
        tracer.span("nlp.tokenize_into", root, qid, || {
            tokenize_into(q, &mut tokens)
        });
        tracer.span("nlp.find_all_mentions_into", root, qid, || {
            ner.find_all_mentions_into(&tokens, &mut mentions)
        });
        // Widest mention per grounded node, as the engine selects them.
        let mut best: BTreeMap<NodeId, usize> = BTreeMap::new();
        for (span_idx, span) in mentions.spans().iter().enumerate() {
            for &node in mentions.nodes(span) {
                let wider = best
                    .get(&node)
                    .is_none_or(|&prev| span.len() > mentions.spans()[prev].len());
                if wider {
                    best.insert(node, span_idx);
                }
            }
        }
        let mut lookups: Vec<(NodeId, kbqa_core::PredId)> = Vec::new();
        for (&entity, &span_idx) in &best {
            let span = mentions.spans()[span_idx];
            let context = tokens
                .tokens
                .iter()
                .enumerate()
                .filter(|(t, _)| *t < span.start || *t >= span.end)
                .map(|(_, t)| t.text.as_str());
            tracer.span("taxonomy.conceptualize_into", root, qid, || {
                conceptualizer.conceptualize_into(entity, context, &mut concepts)
            });
            // Which (entity, predicate) value sets the kernel enumerates.
            let form = conceptualize_mention(
                &tokens,
                span.start,
                span.end,
                entity,
                conceptualizer,
                &model.templates,
                &mut form_buf,
                &mut concepts,
            );
            templates.clear();
            if let Some(form) = form {
                resolve_template_ids(
                    form,
                    config.max_concepts,
                    &model.templates,
                    conceptualizer,
                    &mut slots,
                    &concepts,
                    &mut templates,
                );
            }
            for &(template, _) in &templates {
                for &(pred, theta) in model.theta.predicates_for(template) {
                    if theta < config.min_theta {
                        break;
                    }
                    if !lookups.contains(&(entity, pred)) {
                        lookups.push((entity, pred));
                    }
                }
            }
        }
        for &(entity, pred) in &lookups {
            let path = model.predicates.resolve(pred);
            values.clear();
            tracer.span("rdf.objects_via_path_into", root, qid, || {
                objects_via_path_into(store, entity, path, &mut ws, &mut values)
            });
        }
        if let Err(refusal) = direct {
            *refusals.entry(refusal_metric(refusal)).or_default() += 1.0;
            refused_qids.push(qid);
            if let Some(index) = index {
                tracer.span("decompose.answer_complex_with", root, qid, || {
                    answer_complex_with(&engine, index, q, &mut scratch)
                });
            }
        }
        tracer.close(root);
    }

    // --- Batches: fan-out against sequential answering, the batch cache
    // probe, and the streamed /batch route step by step.
    let batches: Vec<&[u32]> = questions.chunks(BATCH_SIZE).take(TRACED_BATCHES).collect();
    let (mut batch_ns, mut sequential_ns, mut batch_questions) = (0.0, 0.0, 0.0);
    for (b, items) in batches.iter().enumerate() {
        let b = b as u32;
        let requests: Vec<QaRequest> = items.iter().map(|&i| QaRequest::new(text(i))).collect();
        let t = tracer.now();
        tracer.span("service.answer_batch", NO_PARENT, b, || {
            snapshot.answer_batch(&requests)
        });
        batch_ns += (tracer.now() - t) as f64;
        let t = tracer.now();
        tracer.span("service.answer_sequential", NO_PARENT, b, || {
            requests
                .iter()
                .map(|r| snapshot.answer(r))
                .collect::<Vec<_>>()
        });
        sequential_ns += (tracer.now() - t) as f64;
        batch_questions += requests.len() as f64;
        let keys: Vec<String> = requests.iter().map(|r| snapshot.cache_key(r)).collect();
        tracer.span("cache.get_batch", NO_PARENT, b, || cache.get_batch(&keys));

        let mut body = vec![b'['];
        for (n, &i) in items.iter().enumerate() {
            if n > 0 {
                body.push(b',');
            }
            body.extend_from_slice(&bodies[i as usize]);
        }
        body.push(b']');
        let body = String::from_utf8(body).expect("bodies are UTF-8");
        let root = tracer.open("http.batch_route", NO_PARENT, b);
        let parsed: Vec<QaRequest> = tracer.span("http.parse_body", root, b, || {
            serde_json::from_str(&body).expect("a rendered batch parses")
        });
        let snap = tracer.span("service.snapshot", root, b, || service.snapshot());
        let keys: Vec<String> = tracer.span("service.cache_key", root, b, || {
            parsed.iter().map(|r| snap.cache_key(r)).collect()
        });
        let mut slots: Vec<Option<Arc<QaResponse>>> =
            tracer.span("cache.get_batch", root, b, || cache.get_batch(&keys));
        let mut streamed = Vec::with_capacity(items.len() * 320);
        for lane in (0..parsed.len()).step_by(STREAM_LANE) {
            let lane = lane..(lane + STREAM_LANE).min(parsed.len());
            let misses: Vec<usize> = lane.clone().filter(|&k| slots[k].is_none()).collect();
            if !misses.is_empty() {
                let requests: Vec<QaRequest> = misses.iter().map(|&k| parsed[k].clone()).collect();
                let computed = tracer.span("service.answer_batch.lane", root, b, || {
                    snap.answer_batch(&requests)
                });
                let fills: Vec<(String, Arc<QaResponse>)> = misses
                    .iter()
                    .zip(computed)
                    .map(|(&k, response)| {
                        let response = Arc::new(response);
                        slots[k] = Some(Arc::clone(&response));
                        (keys[k].clone(), response)
                    })
                    .collect();
                tracer.span("cache.insert_batch", root, b, || cache.insert_batch(fills));
            }
            tracer.span("serialize.lane", root, b, || {
                for k in lane {
                    streamed.push(if k == 0 { b'[' } else { b',' });
                    slots[k]
                        .as_ref()
                        .expect("every slot filled")
                        .serialize_into(&mut streamed);
                }
            });
        }
        streamed.push(b']');
        tracer.close(root);
    }

    // --- Stage-trace overhead: the kernel with the tracer armed against
    // disarmed, in alternating whole sweeps.
    let sweep: Vec<&str> = questions
        .iter()
        .take(TRACE_OVERHEAD_QUESTIONS)
        .map(|&i| text(i))
        .collect();
    let (mut disarmed, mut armed) = (Vec::new(), Vec::new());
    for round in 0..TRACE_OVERHEAD_ROUNDS as u32 {
        for arm in [false, true] {
            let name = if arm {
                "obs.sweep_armed"
            } else {
                "obs.sweep_disarmed"
            };
            let t = tracer.now();
            tracer.span(name, NO_PARENT, round, || {
                for q in &sweep {
                    scratch.trace.begin(arm);
                    let _ = std::hint::black_box(engine.answer_bfq_explained_with(q, &mut scratch));
                    let _ = scratch.trace.take();
                }
            });
            let took = (tracer.now() - t) as f64;
            if arm {
                armed.push(took)
            } else {
                disarmed.push(took)
            }
        }
    }

    // --- Snapshot open and bundle size.
    let snap_path = bundle_dir.join("store.snap");
    let mut opens = Vec::new();
    for round in 0..3 {
        let t = tracer.now();
        let store = tracer.span("rdf.snapshot_open", NO_PARENT, round, || {
            Snapshot::open(&snap_path).map(TripleStore::from_snapshot)
        });
        store.map_err(|e| io::Error::other(format!("snapshot open: {e}")))?;
        opens.push((tracer.now() - t) as f64 / 1e6);
    }
    let mut bundle_bytes = 0u64;
    for entry in std::fs::read_dir(bundle_dir)? {
        bundle_bytes += entry?.metadata()?.len();
    }

    // Clock cost of one span (two reads of the monotonic clock).
    let mut clock: Vec<f64> = (0..1000)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(Instant::now());
            t.elapsed().as_nanos() as f64
        })
        .collect();

    // --- Summaries.
    let med = |tracer: &Tracer, name| median(&mut tracer.durations(name));
    let mut kernel = tracer.durations("engine.kernel");
    let kernel_p50 = median(&mut kernel);
    let sub_layers = [
        (
            "nlp.tokenize_ns",
            median(&mut tracer.per_question("nlp.tokenize_into", n)),
        ),
        (
            "nlp.ner_ns",
            median(&mut tracer.per_question("nlp.find_all_mentions_into", n)),
        ),
        (
            "taxonomy.conceptualize_ns",
            median(&mut tracer.per_question("taxonomy.conceptualize_into", n)),
        ),
        (
            "rdf.value_lookup_ns",
            median(&mut tracer.per_question("rdf.objects_via_path_into", n)),
        ),
    ];
    let mut service_answer = tracer.durations("service.answer");
    let mut refused_kernel: Vec<f64> = {
        let per_q = tracer.per_question("engine.kernel", n);
        refused_qids.iter().map(|&q| per_q[q as usize]).collect()
    };
    let sequential_rate = batch_questions / (sequential_ns / 1e9);
    let batch_qps = batch_questions / (batch_ns / 1e9);
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    // `answer_batch` fans out over min(cores, batch, 16) threads.
    let lanes = BATCH_SIZE.min(16);

    metrics.insert("cache.get_ns", med(&tracer, "cache.get"));
    metrics.insert("cache.insert_ns", med(&tracer, "cache.insert"));
    metrics.insert("cache.get_batch_ns", med(&tracer, "cache.get_batch"));
    metrics.insert("service.cache_key_ns", med(&tracer, "service.cache_key"));
    metrics.insert("service.answer_ns.p50", quantile(&mut service_answer, 0.5));
    metrics.insert("service.answer_ns.p99", quantile(&mut service_answer, 0.99));
    metrics.insert("service.batch_qps", batch_qps);
    metrics.insert(
        "service.batch_efficiency",
        batch_qps / (sequential_rate * cores.min(lanes) as f64),
    );
    metrics.insert("engine.kernel_ns.p50", kernel_p50);
    metrics.insert("engine.kernel_ns.p99", quantile(&mut kernel, 0.99));
    metrics.insert(
        "engine.cold_scratch_ns",
        med(&tracer, "engine.cold_scratch"),
    );
    metrics.insert("engine.refused_ns", median(&mut refused_kernel));
    metrics.insert(
        "engine.answered_pct",
        100.0 * (n - refused_qids.len()) as f64 / n as f64,
    );
    for cause in [
        Refusal::NoEntityGrounded,
        Refusal::NoTemplateMatched,
        Refusal::NoPredicateAboveTheta,
        Refusal::EmptyValueSet,
    ] {
        let name = refusal_metric(cause);
        metrics.insert(name, refusals.get(name).copied().unwrap_or(0.0));
    }
    metrics.insert("engine.reference_ns", med(&tracer, "engine.reference"));
    let mut explained = 0.0;
    for (name, value) in sub_layers {
        metrics.insert(name, value);
        explained += value;
    }
    metrics.insert("engine.coverage_pct", 100.0 * explained / kernel_p50);
    metrics.insert(
        "decompose.attempt_pct",
        100.0 * refused_qids.len() as f64 / n as f64,
    );
    metrics.insert(
        "decompose.ns",
        med(&tracer, "decompose.answer_complex_with"),
    );
    metrics.insert("serialize.ns", med(&tracer, "serialize"));
    metrics.insert("serialize.bytes", median(&mut bytes));
    metrics.insert(
        "obs.trace_armed_overhead_pct",
        100.0 * (median(&mut armed) / median(&mut disarmed) - 1.0),
    );
    metrics.insert("rdf.snapshot_open_ms", median(&mut opens));
    metrics.insert("persist.bundle_bytes", bundle_bytes as f64);
    metrics.insert("trace.clock_ns", median(&mut clock));

    let answer_path = median(&mut tracer.durations("http.answer_route")) / 1e3;
    let batch_path = median(&mut tracer.durations("http.batch_route")) / 1e3;
    let path_p50_us = if workload == Workload::BatchStream {
        batch_path
    } else {
        answer_path
    };
    let rows = vec![
        (
            "http.parse_body (one question)",
            med(&tracer, "http.parse_body") / 1e3,
        ),
        ("service.snapshot", med(&tracer, "service.snapshot") / 1e3),
        ("service.cache_key", metrics["service.cache_key_ns"] / 1e3),
        ("cache.get", metrics["cache.get_ns"] / 1e3),
        (
            "service.answer (cache misses)",
            med(&tracer, "service.answer.miss") / 1e3,
        ),
        ("cache.insert", metrics["cache.insert_ns"] / 1e3),
        ("serialize", metrics["serialize.ns"] / 1e3),
        ("in-process /answer route", answer_path),
        ("in-process streamed /batch route", batch_path),
        (
            "service.answer (all)",
            metrics["service.answer_ns.p50"] / 1e3,
        ),
        ("engine.kernel", kernel_p50 / 1e3),
        ("  nlp.tokenize", metrics["nlp.tokenize_ns"] / 1e3),
        ("  nlp.ner", metrics["nlp.ner_ns"] / 1e3),
        (
            "  taxonomy.conceptualize",
            metrics["taxonomy.conceptualize_ns"] / 1e3,
        ),
        ("  rdf.value_lookup", metrics["rdf.value_lookup_ns"] / 1e3),
        (
            "decompose (refused questions)",
            metrics["decompose.ns"] / 1e3,
        ),
    ];
    tracer.write(spans_path)?;
    Ok(LayerReport {
        metrics,
        path_p50_us,
        rows,
    })
}
