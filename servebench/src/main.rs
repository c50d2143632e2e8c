//! `servebench` — the layered benchmark of served KBQA.
//!
//! ```text
//! servebench --workload answer-hot|answer-cold|batch-stream --seed N
//!            --seconds S --trace 0|1
//! ```
//!
//! One run generates a seeded `WorldConfig::large_1m` world, corpus and
//! question pool, sets the server up several times (learning, indexes,
//! bundle save and load, bind), drives one workload over loopback for `S`
//! seconds while checking every response against the in-process oracle,
//! and prints a report. The last line of standard output is one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! from the traced in-process pass with `--trace 1`. See `README.md`.

mod client;
mod inputs;
mod layers;
mod oracle;
mod setup;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use kbqa_server::{CacheStats, MetricsSnapshot};

use inputs::{Inputs, Traffic, Workload};
use oracle::Oracle;
use setup::{set_up, SetupTimes};
use stats::{median, median_rate, quantile, Slices};
use workloads::{batch_loop, closed_loop, fetch, Ctx, Tally};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// `POST /admin/reload?mode=bundle` requests inside the `answer-hot`
/// window, evenly spaced: the writes beside the reads.
const HOT_RELOADS: u32 = 3;
/// Reloads of the idle server after the window; `reload_ms` is their
/// median.
const IDLE_RELOADS: u32 = 7;
/// Untimed traffic before the window.
const WARMUP: Duration = Duration::from_millis(1_000);
/// Premise limits on the window's answer-cache hit rate.
const HOT_MIN_HIT_PCT: f64 = 95.0;
const COLD_MAX_HIT_PCT: f64 = 25.0;
/// `answer-cold` and `batch-stream` draw from at least this many times the
/// cache capacity in distinct questions.
const COLD_POOL_OVER_CAPACITY: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be a positive integer")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "servebench: {e}\nusage: servebench --workload answer-hot|answer-cold|batch-stream \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    }
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// One workload premise: what was measured against what it must satisfy.
struct Premise {
    what: String,
    holds: bool,
}

fn premise(holds: bool, what: String) -> Premise {
    Premise { what, holds }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Drive `workload` from every traffic stream until `end`; the calling
/// thread sends `reloads` reloads meanwhile. Returns the merged tally and
/// each reload's time (None: failed).
fn drive(
    ctx: &Ctx,
    workload: Workload,
    streams: &mut [Traffic],
    start: Instant,
    end: Instant,
    reloads: u32,
) -> (Tally, Vec<Option<f64>>) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|traffic| {
                scope.spawn(move || {
                    std::thread::sleep(start.saturating_duration_since(Instant::now()));
                    if workload == Workload::BatchStream {
                        batch_loop(ctx, traffic, end)
                    } else {
                        closed_loop(ctx, traffic, end)
                    }
                })
            })
            .collect();
        let reload_ms = workloads::reloads(ctx.addr, start, end - start, reloads);
        let mut tally = Tally::new(ctx.inputs.pool.len());
        for handle in handles {
            tally.merge(handle.join().expect("load thread panicked"));
        }
        (tally, reload_ms)
    })
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    let t = Instant::now();
    let inputs = Inputs::generate(args.seed);
    eprintln!(
        "[servebench] {}: world {} triples, corpus {} pairs, pool {} distinct ({} hot) in {:.1}s",
        workload.name(),
        inputs.world.store.len(),
        inputs.corpus.pairs.len(),
        inputs.pool.len(),
        inputs.hot.len(),
        t.elapsed().as_secs_f64()
    );

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = ScratchDir(out_dir.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("create {:?}: {e}", scratch.0))?;
    let bundle_dir = scratch.0.join("bundle");

    // Set up several times; keep the last server.
    let mut times: Vec<SetupTimes> = Vec::new();
    let mut served: Option<setup::Served> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = served.take() {
            previous.server.shutdown();
        }
        let (s, t) = set_up(&inputs, &bundle_dir).map_err(|e| format!("set-up: {e}"))?;
        times.push(t);
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    let addr = served.server.local_addr();
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&mut times.iter().map(f).collect::<Vec<_>>());
    eprintln!(
        "[servebench] set-up {:.2}s (median of {SETUP_REPS}), server at {addr}",
        setup_median(|t| t.total_s)
    );

    let oracle = Oracle::build(&served.service.snapshot(), &inputs.pool);
    let ctx = Ctx::new(&inputs, &oracle, addr);

    // Warm-up: the hot pool enters the cache once, then every workload
    // runs its own traffic untimed. The window continues the same streams,
    // so `batch-stream` never revisits a question the cache still holds.
    let connections = if workload == Workload::BatchStream {
        1
    } else {
        2
    };
    let mut streams: Vec<Traffic> = (0..connections)
        .map(|k| inputs.traffic(workload, k))
        .collect();
    if workload == Workload::AnswerHot {
        closed_loop(
            &ctx,
            &mut inputs.hot.iter().copied(),
            Instant::now() + Duration::from_secs(60),
        );
    }
    let start = Instant::now();
    drive(&ctx, workload, &mut streams, start, start + WARMUP, 0);

    // Reload transients come and go during the window; the figure is the
    // high-water mark of serving a warm server.
    let rss_mb = peak_rss_mb();
    let cache_before: CacheStats = fetch(addr, "/cache/stats").map_err(|e| e.to_string())?;
    let metrics_before: MetricsSnapshot = fetch(addr, "/metrics").map_err(|e| e.to_string())?;
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now() + Duration::from_millis(5);
    let reloads = if workload == Workload::AnswerHot {
        HOT_RELOADS
    } else {
        0
    };
    let (tally, window_reloads) =
        drive(&ctx, workload, &mut streams, start, start + window, reloads);
    let cache_after: CacheStats = fetch(addr, "/cache/stats").map_err(|e| e.to_string())?;
    let metrics_after: MetricsSnapshot = fetch(addr, "/metrics").map_err(|e| e.to_string())?;
    let idle_reloads = workloads::reloads(addr, Instant::now(), Duration::ZERO, IDLE_RELOADS);

    // --- Correctness and premises.
    let reloads: Vec<Option<f64>> = window_reloads
        .iter()
        .chain(&idle_reloads)
        .copied()
        .collect();
    let reload_failures = reloads.iter().filter(|r| r.is_none()).count() as u64;
    let attempted = tally.attempted + reloads.len() as u64;
    let failed = tally.failed + reload_failures;
    let hits = cache_after.hits - cache_before.hits;
    let lookups = hits + cache_after.misses - cache_before.misses;
    let hit_pct = 100.0 * hits as f64 / lookups.max(1) as f64;
    let capacity = cache_after.capacity;
    let distinct = inputs.distinct(workload);
    let mut premises = vec![match workload {
        Workload::AnswerHot => premise(
            hit_pct >= HOT_MIN_HIT_PCT,
            format!("cache hit rate {hit_pct:.2}% >= {HOT_MIN_HIT_PCT}%"),
        ),
        Workload::AnswerCold => premise(
            hit_pct <= COLD_MAX_HIT_PCT,
            format!("cache hit rate {hit_pct:.2}% <= {COLD_MAX_HIT_PCT}%"),
        ),
        Workload::BatchStream => premise(hits == 0, format!("cache hits {hits} == 0")),
    }];
    premises.push(if workload == Workload::AnswerHot {
        premise(
            distinct <= capacity,
            format!("distinct questions {distinct} <= cache capacity {capacity}"),
        )
    } else {
        premise(
            distinct >= COLD_POOL_OVER_CAPACITY * capacity,
            format!(
                "distinct questions {distinct} >= {COLD_POOL_OVER_CAPACITY} x cache capacity {capacity}"
            ),
        )
    });
    premises.push(premise(
        tally.answers > 0,
        format!("answers verified {} > 0", tally.answers),
    ));
    let correct = failed == 0 && premises.iter().all(|p| p.holds);

    // --- End-to-end metrics, per one-second slice of the window where the
    // figure is a rate or a latency: the median over the slices keeps one
    // disturbed second (a reload, a host stall) from moving the run.
    let (precision, recall_bfq) = oracle.quality(&tally.served);
    let mut slices = Slices::new(
        start,
        args.seconds as usize,
        tally
            .latency_from
            .iter()
            .copied()
            .zip(tally.latency_us.iter().copied()),
    );
    let arrivals = tally
        .latency_from
        .iter()
        .zip(&tally.latency_us)
        .map(|(&from, &us)| from + Duration::from_nanos((us * 1e3) as u64));
    let answer_qps = median_rate(start, args.seconds as usize, arrivals);
    let mut first = Slices::new(
        start,
        args.seconds as usize,
        tally
            .sent_at
            .iter()
            .copied()
            .zip(tally.first_answer_ms.iter().copied()),
    );
    let mut idle_ms: Vec<f64> = idle_reloads.iter().flatten().copied().collect();
    let end_to_end = vec![
        Metric {
            name: "setup_s",
            value: setup_median(|t| t.total_s),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: rss_mb,
            unit: "MB",
        },
        Metric {
            name: "answer_p50_us",
            value: slices.median_of(0.5),
            unit: "us",
        },
        Metric {
            name: "reload_ms",
            value: median(&mut idle_ms),
            unit: "ms",
        },
        Metric {
            name: "qald_precision",
            value: precision,
            unit: "ratio",
        },
        Metric {
            name: "qald_recall_bfq",
            value: recall_bfq,
            unit: "ratio",
        },
    ];

    let mut report = String::new();
    let _ = writeln!(
        report,
        "workload {} seed {} window {}s",
        workload.name(),
        args.seed,
        args.seconds
    );
    let _ = writeln!(
        report,
        "requests sent {attempted}, succeeded {}, failed {failed} (reloads: {} in the window, \
         {} idle, {reload_failures} failed)",
        attempted - failed,
        window_reloads.len(),
        idle_reloads.len(),
    );
    for (cause, n) in &tally.failures {
        let _ = writeln!(report, "  failed: {cause}: {n}");
    }
    let _ = writeln!(report, "answers verified {}", tally.answers);
    for p in &premises {
        let _ = writeln!(
            report,
            "premise {}: {}",
            if p.holds { "ok  " } else { "FAIL" },
            p.what
        );
    }
    let mut latency = tally.latency_us.clone();
    let ms = |r: &[Option<f64>]| {
        r.iter()
            .map(|v| v.map_or(-1, |v| v.round() as i64))
            .collect::<Vec<_>>()
    };
    let _ = writeln!(
        report,
        "window: {} latency samples; p90 {:.1} us, p99 {:.1} us run-wide, {:.1} us and {:.1} us \
         as slice medians; reloads under load {:?} ms, idle {:?} ms",
        latency.len(),
        quantile(&mut latency, 0.9),
        quantile(&mut latency, 0.99),
        slices.median_of(0.9),
        slices.median_of(0.99),
        ms(&window_reloads),
        ms(&idle_reloads),
    );
    let _ = writeln!(
        report,
        "throughput {answer_qps:.1} answers/s: median over slices of the rate within each"
    );
    let _ = writeln!(
        report,
        "first answer {:.4} ms: median over slices of the time from a request's send to its \
         first complete answer (a streamed batch's first answer on `batch-stream`)",
        first.median_of(0.5),
    );
    let _ = writeln!(
        report,
        "per-second p99 us: {:?}",
        slices
            .each(0.99)
            .iter()
            .map(|v| v.round() as i64)
            .collect::<Vec<_>>()
    );
    let _ = writeln!(
        report,
        "set-up medians: learn {:.3}s, ner build {:.1}ms, pattern index {:.1}ms, bundle save {:.1}ms, \
         bundle load {:.1}ms, bind {:.2}ms",
        setup_median(|t| t.learn_s),
        setup_median(|t| t.ner_build_ms),
        setup_median(|t| t.index_build_ms),
        setup_median(|t| t.bundle_save_ms),
        setup_median(|t| t.bundle_load_ms),
        setup_median(|t| t.bind_ms),
    );
    for m in &end_to_end {
        let _ = writeln!(report, "{:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }

    let reported = if args.trace {
        per_layer_metrics(
            &ctx,
            &served,
            workload,
            &times,
            &tally,
            (&cache_before, &cache_after),
            (&metrics_before, &metrics_after),
            &out_dir,
            &mut report,
        )?
    } else {
        end_to_end
    };
    served.server.shutdown();
    drop(scratch);

    print!("{report}");
    let mut json = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (k, m) in reported.iter().enumerate() {
        if k > 0 {
            json.push(',');
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// The `--trace 1` metrics: server counters over the window, probes
/// against the live server, and the traced in-process pass.
#[allow(clippy::too_many_arguments)]
fn per_layer_metrics(
    ctx: &Ctx,
    served: &setup::Served,
    workload: Workload,
    times: &[SetupTimes],
    tally: &Tally,
    cache: (&CacheStats, &CacheStats),
    counters: (&MetricsSnapshot, &MetricsSnapshot),
    out_dir: &Path,
    report: &mut String,
) -> Result<Vec<Metric>, String> {
    let addr = ctx.addr;
    let (c0, c1) = cache;
    let (m0, m1) = counters;
    let requests = (m1.answer_requests - m0.answer_requests + m1.batch_questions
        - m0.batch_questions)
        .max(1) as f64;
    let lookups = (c1.hits - c0.hits + c1.misses - c0.misses).max(1) as f64;

    let mut healthz =
        workloads::healthz_rtts(addr, 2_000).map_err(|e| format!("healthz probe: {e}"))?;
    // Streamed-batch framing, from a short probe on every workload.
    let mut probe_traffic = ctx.inputs.traffic(workload, 7).take(4 * inputs::BATCH_SIZE);
    let probe = batch_loop(
        ctx,
        &mut probe_traffic,
        Instant::now() + Duration::from_secs(60),
    );
    if probe.failed > 0 {
        return Err(format!(
            "streamed-batch probe: {} of {} failed",
            probe.failed, probe.attempted
        ));
    }

    let spans_path = out_dir.join(format!("spans-{}.jsonl", workload.name()));
    let layers = layers::traced_pass(
        ctx.inputs,
        &served.service,
        workload,
        &ctx.bodies,
        &served.bundle_dir,
        &spans_path,
    )
    .map_err(|e| format!("traced pass: {e}"))?;

    // The client-side cost of the same request path the traced pass timed.
    let mut client = tally.rtt_us.clone();
    let client_p50 = median(&mut client);
    let edge_self = client_p50 - layers.path_p50_us;
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&mut times.iter().map(f).collect::<Vec<_>>());

    let mut values: BTreeMap<&'static str, f64> = layers.metrics.clone();
    values.insert("http.healthz_rtt_us", median(&mut healthz));
    values.insert("http.edge_self_us", edge_self);
    values.insert(
        "http.epoll_wakeups_per_req",
        (m1.epoll_wakeups - m0.epoll_wakeups) as f64 / requests,
    );
    values.insert(
        "http.shed",
        (m1.requests_shed - m0.requests_shed + m1.requests_shed_by_route
            - m0.requests_shed_by_route) as f64,
    );
    values.insert(
        "http.stream_chunks_per_batch",
        probe.chunks as f64 / probe.attempted as f64,
    );
    values.insert(
        "http.stream_chunk_bytes",
        probe.stream_bytes as f64 / probe.chunks.max(1) as f64,
    );
    values.insert(
        "cache.hit_pct",
        100.0 * (c1.hits - c0.hits) as f64 / lookups,
    );
    values.insert(
        "cache.evictions_per_req",
        (c1.evictions - c0.evictions) as f64 / requests,
    );
    values.insert("persist.bundle_save_ms", setup_median(|t| t.bundle_save_ms));
    values.insert("persist.bundle_load_ms", setup_median(|t| t.bundle_load_ms));
    values.insert("learner.learn_s", setup_median(|t| t.learn_s));
    values.insert("nlp.ner_build_ms", setup_median(|t| t.ner_build_ms));
    values.insert(
        "decompose.index_build_ms",
        setup_median(|t| t.index_build_ms),
    );
    values.insert("http.bind_ms", setup_median(|t| t.bind_ms));

    // The reconciliation table: layer medians beside the end-to-end median.
    let _ = writeln!(
        report,
        "\nreconciliation ({}; medians, us)",
        workload.name()
    );
    let _ = writeln!(
        report,
        "  {:<40} {:>12.3}",
        "client round trip (end to end)", client_p50
    );
    for (row, value) in &layers.rows {
        let _ = writeln!(report, "  {row:<40} {value:>12.3}");
    }
    let _ = writeln!(
        report,
        "  {:<40} {:>12.3}",
        "http.edge_self (derived)", edge_self
    );
    let _ = writeln!(
        report,
        "  {:<40} {:>11.1}%",
        "engine.coverage (derived)", values["engine.coverage_pct"]
    );
    let _ = writeln!(report, "spans written to {}", spans_path.display());

    let names = per_layer_units();
    let mut metrics = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        let _ = writeln!(report, "{name:<36} {value:>16.4} {unit}");
        metrics.push(Metric { name, value, unit });
    }
    Ok(metrics)
}

/// Every per-layer metric `BENCHMARK.json` lists, with its unit.
fn per_layer_units() -> Vec<(&'static str, &'static str)> {
    vec![
        ("http.healthz_rtt_us", "us"),
        ("http.edge_self_us", "us"),
        ("http.epoll_wakeups_per_req", "1/req"),
        ("http.shed", "count"),
        ("http.stream_chunks_per_batch", "count"),
        ("http.stream_chunk_bytes", "B"),
        ("cache.hit_pct", "%"),
        ("cache.evictions_per_req", "1/req"),
        ("cache.get_ns", "ns"),
        ("cache.insert_ns", "ns"),
        ("cache.get_batch_ns", "ns"),
        ("service.cache_key_ns", "ns"),
        ("service.answer_ns.p50", "ns"),
        ("service.answer_ns.p99", "ns"),
        ("service.batch_qps", "1/s"),
        ("service.batch_efficiency", "ratio"),
        ("engine.kernel_ns.p50", "ns"),
        ("engine.kernel_ns.p99", "ns"),
        ("engine.cold_scratch_ns", "ns"),
        ("engine.refused_ns", "ns"),
        ("engine.answered_pct", "%"),
        ("engine.refused.no_entity", "count"),
        ("engine.refused.no_template", "count"),
        ("engine.refused.no_predicate", "count"),
        ("engine.refused.empty_values", "count"),
        ("engine.reference_ns", "ns"),
        ("nlp.tokenize_ns", "ns"),
        ("nlp.ner_ns", "ns"),
        ("taxonomy.conceptualize_ns", "ns"),
        ("rdf.value_lookup_ns", "ns"),
        ("engine.coverage_pct", "%"),
        ("decompose.attempt_pct", "%"),
        ("decompose.ns", "ns"),
        ("serialize.ns", "ns"),
        ("serialize.bytes", "B"),
        ("obs.trace_armed_overhead_pct", "%"),
        ("persist.bundle_save_ms", "ms"),
        ("persist.bundle_load_ms", "ms"),
        ("rdf.snapshot_open_ms", "ms"),
        ("persist.bundle_bytes", "B"),
        ("learner.learn_s", "s"),
        ("nlp.ner_build_ms", "ms"),
        ("decompose.index_build_ms", "ms"),
        ("http.bind_ms", "ms"),
        ("trace.clock_ns", "ns"),
    ]
}
