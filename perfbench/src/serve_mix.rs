//! `serve-mix`: open-loop Poisson `POST /v1/evaluate` traffic against an
//! in-process `bitwave_serve::start` (memory-only store, batching on).
//!
//! About 90 % of requests replay a hot set primed during set-up (7
//! accelerators × {resnet18, cnn-lstm} at the workload seed): the hit path.
//! About 10 % are first-time lossless ResNet18 requests with a derived seed,
//! issued in pairs (Dense + HUAA) that share one weight set so batching can
//! gather them: weight generation, compress, profile build, map and
//! simulate.  No bit-flip runs here.

use crate::loadgen::{self, Scheduled};
use crate::paper_eval::{traced_prepare, traced_simulate, FlipCounts};
use crate::stats::{self, SplitMix64};
use crate::trace::Tracer;
use crate::{env, summarize_trace, Metric, Options, Outcome};
use bitwave::dnn::weights::NetworkWeights;
use bitwave::pipeline::{ModelReport, Pipeline};
use bitwave_serve::api::NormalizedRequest;
use bitwave_serve::client::Client;
use bitwave_serve::{start, EvaluateRequest, ServeConfig, ServerHandle};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

/// Offered load in requests per second.
const RATE: f64 = 100.0;
/// One arrival in this many is a first-time pair (2 requests of every ~20:
/// 10 % of requests).
const PAIR_EVERY: usize = 19;
/// Latency limit for goodput.
const LIMIT_MS: f64 = 200.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const HOT_MODELS: [&str; 2] = ["resnet18", "cnn-lstm"];
const HOT_ACCELERATORS: [&str; 7] = [
    "bitwave",
    "bitwave-df",
    "bitwave-df-sm",
    "scnn",
    "stripes",
    "pragmatic",
    "bitlet",
];
const MISS_MODEL: &str = "resnet18";
const MISS_ACCELERATORS: [&str; 2] = ["dense", "huaa"];
/// Derived-seed streams of the untraced and traced traffic phases.
const TIMED_STREAM: u64 = 1;
const TRACED_STREAM: u64 = 2;

/// What a scheduled request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A replay of hot-set entry `n`.
    Hot(usize),
    /// Member of first-time pair `n`.
    First(usize),
}

/// A generated traffic phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The schedule, in due order.
    pub requests: Vec<Scheduled>,
    /// What each scheduled request is.
    pub kinds: Vec<Kind>,
}

fn body(model: &str, accelerator: &str, seed: u64) -> String {
    format!(r#"{{"model":"{model}","accelerator":"{accelerator}","seed":{seed}}}"#)
}

/// The hot set: every hot model on every hot accelerator at the workload
/// seed.
pub fn hot_set(seed: u64) -> Vec<String> {
    HOT_MODELS
        .iter()
        .flat_map(|m| HOT_ACCELERATORS.iter().map(move |a| body(m, a, seed)))
        .collect()
}

/// Generates one traffic phase from the workload seed: Poisson arrivals at
/// `RATE · 19/20` per second, of which every 19th is a first-time pair and
/// the rest are uniform hot-set replays.
pub fn plan(seed: u64, stream: u64, seconds: f64) -> Plan {
    let mut rng = SplitMix64::new(stats::derive_seed(seed, stream));
    let hot = hot_set(seed);
    let arrivals = stats::poisson_schedule(
        &mut rng,
        RATE * PAIR_EVERY as f64 / (PAIR_EVERY + 1) as f64,
        seconds,
    );
    // Every 19th arrival, from a random phase, is a pair: the first-time
    // stream keeps a steady spacing, so how often pairs collide (and block
    // the client's connections) varies little from seed to seed.
    let phase = rng.below(PAIR_EVERY);
    let is_pair = |i: usize| i % PAIR_EVERY == phase;
    let mut plan = Plan {
        requests: Vec::new(),
        kinds: Vec::new(),
    };
    let mut pair = 0usize;
    for (i, &due_s) in arrivals.iter().enumerate() {
        if is_pair(i) {
            // Seeds stay below 2^32 so they survive any JSON number path.
            let pair_seed = stats::derive_seed(seed, (stream << 32) | pair as u64) & 0xFFFF_FFFF;
            for accelerator in MISS_ACCELERATORS {
                plan.requests.push(Scheduled {
                    due_s,
                    body: body(MISS_MODEL, accelerator, pair_seed),
                });
                plan.kinds.push(Kind::First(pair));
            }
            pair += 1;
        } else {
            let n = rng.below(hot.len());
            plan.requests.push(Scheduled {
                due_s,
                body: hot[n].clone(),
            });
            plan.kinds.push(Kind::Hot(n));
        }
    }
    plan
}

fn server_config() -> ServeConfig {
    ServeConfig {
        workers: env::nproc(),
        // Room for every response of a run, so no hot entry is evicted.
        cache_capacity: 4096,
        batching: true,
        store_root: None,
        ..ServeConfig::default()
    }
}

/// Starts a server and primes the hot set; returns the server and each hot
/// entry's first (miss) body.
fn start_and_prime(seed: u64) -> Result<(ServerHandle, Vec<Vec<u8>>), String> {
    let handle = start(server_config()).map_err(|e| format!("start: {e}"))?;
    let mut client = Client::new(handle.local_addr());
    let mut bodies = Vec::new();
    for body in hot_set(seed) {
        let response = client
            .post_json("/v1/evaluate", &body)
            .map_err(|e| format!("priming {body}: {e}"))?;
        if response.status != 200 || response.header("x-bitwave-cache") != Some("miss") {
            return Err(format!(
                "priming {body}: status {} cache {:?}",
                response.status,
                response.header("x-bitwave-cache")
            ));
        }
        bodies.push(response.body);
    }
    Ok((handle, bodies))
}

/// `/metrics` counters without labels.
fn metrics(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let response = Client::new(addr)
        .get("/metrics")
        .map_err(|e| format!("/metrics: {e}"))?;
    let text = response.text().map_err(|e| e.to_string())?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(name, value)| Some((name.to_string(), value.trim().parse().ok()?)))
        .collect())
}

/// The in-process answer to one request: parse, normalise, digest,
/// evaluate, envelope — the computation the server runs on a miss.
struct Expected {
    normalized: NormalizedRequest,
    report: ModelReport,
    envelope: String,
}

fn normalize(body: &str) -> Result<NormalizedRequest, String> {
    EvaluateRequest::from_json(body.as_bytes())
        .and_then(|r| r.normalize())
        .map_err(|e| e.to_string())
}

fn weights_for(normalized: &NormalizedRequest) -> NetworkWeights {
    normalized.key.knobs.to_context().weights(&normalized.spec)
}

fn evaluate(normalized: NormalizedRequest, weights: &NetworkWeights) -> Result<Expected, String> {
    let digest = normalized.key.digest().map_err(|e| e.to_string())?;
    let report = normalized.evaluate(weights).map_err(|e| e.to_string())?;
    let envelope = normalized
        .envelope(&digest, &report)
        .map_err(|e| e.to_string())?;
    Ok(Expected {
        normalized,
        report,
        envelope,
    })
}

/// Expected envelopes of `groups` of bodies sharing one weight set each,
/// spread over `threads` threads.
fn expected_envelopes(groups: &[Vec<String>], threads: usize) -> Vec<Result<String, String>> {
    let per_thread = groups.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .chunks(per_thread)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for group in chunk {
                        let mut weights: Option<NetworkWeights> = None;
                        for body in group {
                            out.push(normalize(body).and_then(|normalized| {
                                let weights =
                                    weights.get_or_insert_with(|| weights_for(&normalized));
                                evaluate(normalized, weights).map(|e| e.envelope)
                            }));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    })
}

/// First-time bodies of a plan grouped by pair, in pair order, with the
/// request indices of each member.
fn pairs(plan: &Plan) -> Vec<(Vec<String>, Vec<usize>)> {
    let mut groups: BTreeMap<usize, (Vec<String>, Vec<usize>)> = BTreeMap::new();
    for (i, kind) in plan.kinds.iter().enumerate() {
        if let Kind::First(pair) = kind {
            let entry = groups.entry(*pair).or_default();
            entry.0.push(plan.requests[i].body.clone());
            entry.1.push(i);
        }
    }
    groups.into_values().collect()
}

/// Latency figures of one finished traffic phase.
struct Traffic {
    hit_ms: Vec<f64>,
    /// Hits during which no first-time request was in flight.
    quiet_hit_ms: Vec<f64>,
    first_ms: Vec<f64>,
    pair_ms: Vec<f64>,
    all_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    conn_wait_ms: Vec<f64>,
    goodput: f64,
    wall_s: f64,
}

/// Summarises a phase and checks every answer's status and every hot-set
/// body against its primed (first miss) body.
fn analyse(plan: &Plan, run: &loadgen::Run, primed: &[Vec<u8>], outcome: &mut Outcome) -> Traffic {
    let mut t = Traffic {
        hit_ms: Vec::new(),
        quiet_hit_ms: Vec::new(),
        first_ms: Vec::new(),
        pair_ms: Vec::new(),
        all_ms: Vec::new(),
        lag_ms: Vec::new(),
        conn_wait_ms: Vec::new(),
        goodput: 0.0,
        wall_s: run.end.duration_since(run.start).as_secs_f64(),
    };
    let mut good = Vec::with_capacity(run.completions.len());
    let mut pair_latency: BTreeMap<usize, f64> = BTreeMap::new();
    let first_time: Vec<(Instant, Instant)> = run
        .completions
        .iter()
        .zip(&plan.kinds)
        .filter(|(_, kind)| matches!(kind, Kind::First(_)))
        .map(|(c, _)| (c.due, c.done))
        .collect();
    outcome.attempted += run.completions.len() as u64;
    for (i, c) in run.completions.iter().enumerate() {
        let latency = stats::latency_from_due_ms(c.due, c.done);
        t.lag_ms.push(stats::latency_from_due_ms(c.due, c.noticed));
        t.conn_wait_ms
            .push(stats::latency_from_due_ms(c.noticed, c.sent));
        match &c.answer {
            Ok(answer) if answer.status == 200 => {
                good.push(Some(latency));
                t.all_ms.push(latency);
                match plan.kinds[i] {
                    Kind::Hot(n) => {
                        if answer.body != primed[n] {
                            outcome
                                .fail(format!("hot request {i}: body differs from its first miss"));
                        }
                        if answer.cache == "hit" {
                            t.hit_ms.push(latency);
                            if stats::clear_of(&first_time, c.due, c.done) {
                                t.quiet_hit_ms.push(latency);
                            }
                        }
                    }
                    Kind::First(pair) => {
                        t.first_ms.push(latency);
                        let slot = pair_latency.entry(pair).or_insert(0.0);
                        *slot = slot.max(latency);
                    }
                }
            }
            Ok(answer) => {
                good.push(None);
                t.all_ms.push(stats::FAILED_LATENCY_MS);
                outcome.fail(format!("request {i}: status {}", answer.status));
            }
            Err(e) => {
                good.push(None);
                t.all_ms.push(stats::FAILED_LATENCY_MS);
                outcome.fail(format!("request {i}: {e}"));
            }
        }
    }
    t.pair_ms = pair_latency.into_values().collect();
    t.goodput = stats::goodput(&good, LIMIT_MS, t.wall_s);
    t
}

/// Checks every first-time 200 body against the in-process computation.
fn check_first_time(plan: &Plan, run: &loadgen::Run, outcome: &mut Outcome) {
    let groups = pairs(plan);
    let bodies: Vec<Vec<String>> = groups.iter().map(|(b, _)| b.clone()).collect();
    let expected = expected_envelopes(&bodies, env::nproc());
    let indices = groups.iter().flat_map(|(_, idx)| idx.iter().copied());
    for (index, expected) in indices.zip(expected) {
        let Ok(answer) = &run.completions[index].answer else {
            continue;
        };
        if answer.status != 200 {
            continue;
        }
        match expected {
            Ok(envelope) if envelope.as_bytes() == answer.body.as_slice() => {}
            Ok(_) => outcome.fail(format!(
                "request {index}: body differs from NormalizedRequest::evaluate"
            )),
            Err(e) => outcome.fail(format!(
                "request {index}: in-process evaluation failed: {e}"
            )),
        }
    }
}

/// The traced in-process decomposition of every first-time request of a
/// traced phase: parse, weights (once per pair), evaluate, envelope, then
/// the same evaluation one pipeline stage at a time.  Returns each
/// request's own compute time in ms, by request index.
fn traced_compute(
    tracer: &Tracer,
    root: u64,
    plan: &Plan,
    run: &loadgen::Run,
    outcome: &mut Outcome,
) -> BTreeMap<usize, f64> {
    let mut compute_ms = BTreeMap::new();
    let counts = FlipCounts::default();
    for (bodies, indices) in pairs(plan) {
        let mut weights: Option<NetworkWeights> = None;
        for (body, &index) in bodies.iter().zip(&indices) {
            let rid = index as u64 + 1;
            let t = Instant::now();
            let result = (|| -> Result<Expected, String> {
                let (normalized, digest) = tracer.span("serve.parse", Some(root), rid, |_| {
                    let normalized = normalize(body)?;
                    let digest = normalized.key.digest().map_err(|e| e.to_string())?;
                    Ok::<_, String>((normalized, digest))
                })?;
                let weights = weights.get_or_insert_with(|| {
                    tracer.span("dnn.weights", Some(root), rid, |_| weights_for(&normalized))
                });
                let report = tracer
                    .span("serve.evaluate", Some(root), rid, |_| {
                        normalized.evaluate(weights)
                    })
                    .map_err(|e| e.to_string())?;
                let envelope = tracer
                    .span("serve.envelope", Some(root), rid, |_| {
                        normalized.envelope(&digest, &report)
                    })
                    .map_err(|e| e.to_string())?;
                Ok(Expected {
                    normalized,
                    report,
                    envelope,
                })
            })();
            compute_ms.insert(index, t.elapsed().as_secs_f64() * 1e3);
            let expected = match result {
                Ok(expected) => expected,
                Err(e) => {
                    outcome.fail(format!("traced request {index}: {e}"));
                    continue;
                }
            };
            if let Ok(answer) = &run.completions[index].answer {
                if answer.status == 200 && answer.body != expected.envelope.as_bytes() {
                    outcome.fail(format!(
                        "traced request {index}: body differs from evaluate"
                    ));
                }
            }
            // The same evaluation, one public stage call at a time.
            let normalized = &expected.normalized;
            let ctx = normalized.key.knobs.to_context();
            let pipeline =
                Pipeline::new(ctx.clone()).with_accelerator(normalized.accelerator.clone());
            let weights = weights.as_ref().expect("weights generated above");
            let staged = traced_prepare(
                tracer,
                root,
                rid,
                &pipeline,
                &normalized.spec,
                weights,
                &counts,
            )
            .and_then(|prepared| {
                traced_simulate(
                    tracer,
                    root,
                    rid,
                    &ctx,
                    &normalized.spec,
                    &normalized.accelerator,
                    &prepared,
                )
            });
            let digests = staged.and_then(|(_, report)| {
                let staged = report.content_digest().map_err(|e| e.to_string())?;
                let direct = expected
                    .report
                    .content_digest()
                    .map_err(|e| e.to_string())?;
                Ok(staged == direct)
            });
            match digests {
                Ok(true) => {}
                Ok(false) => outcome.fail(format!(
                    "traced request {index}: stage-by-stage report differs from evaluate"
                )),
                Err(e) => outcome.fail(format!("traced request {index}: {e}")),
            }
        }
    }
    compute_ms
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when the server cannot start or be primed; failed
/// requests and checks are counted in the outcome instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let connections = env::nproc();
    let seconds = opts.seconds.as_secs_f64();

    // Set-up: server start + hot-set priming, repeated on fresh servers;
    // the last one serves the timed phase.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut server: Option<(ServerHandle, Vec<Vec<u8>>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((handle, _)) = server.take() {
            handle.shutdown();
        }
        let t = Instant::now();
        server = Some(start_and_prime(opts.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (handle, primed) = server.expect("set-up ran");
    let addr = handle.local_addr();
    let result = measure(
        opts,
        addr,
        connections,
        seconds,
        &primed,
        &setup_s,
        &mut outcome,
    );
    handle.shutdown();
    result?;
    Ok(outcome)
}

fn measure(
    opts: &Options,
    addr: SocketAddr,
    connections: usize,
    seconds: f64,
    primed: &[Vec<u8>],
    setup_s: &[f64],
    outcome: &mut Outcome,
) -> Result<(), String> {
    // Timed phase.
    let timed = plan(opts.seed, TIMED_STREAM, seconds);
    let run = loadgen::run(addr, &timed.requests, connections)?;
    let traffic = analyse(&timed, &run, primed, outcome);

    // Untimed checks: the primed bodies and every first-time body equal
    // the in-process evaluation of the same request.
    let hot: Vec<Vec<String>> = HOT_MODELS
        .iter()
        .map(|m| {
            HOT_ACCELERATORS
                .iter()
                .map(|a| body(m, a, opts.seed))
                .collect()
        })
        .collect();
    let hot_expected = expected_envelopes(&hot, env::nproc());
    outcome.attempted += hot_expected.len() as u64;
    for (n, expected) in hot_expected.into_iter().enumerate() {
        match expected {
            Ok(envelope) if envelope.as_bytes() == primed[n].as_slice() => {}
            Ok(_) => outcome.fail(format!("hot entry {n}: primed body differs from evaluate")),
            Err(e) => outcome.fail(format!("hot entry {n}: {e}")),
        }
    }
    check_first_time(&timed, &run, outcome);

    let (tail_label, tail) = stats::tail(&traffic.all_ms);
    outcome.e2e(
        Metric::timing("setup_s", setup_s, 1.0, "s")
            .with_note("median of 3 x (server start + 14 hot-set primes)"),
    );
    outcome.e2e(
        Metric::timing("heavy_p50_ms", &traffic.pair_ms, 1.0, "ms")
            .with_note("first-time pair, due time to its last response"),
    );
    outcome.e2e(
        Metric::timing("light_p50_ms", &traffic.quiet_hit_ms, 1.0, "ms")
            .with_note("cache-hit request from due time, no first-time request in flight"),
    );
    outcome.e2e(
        Metric::new("tail_ms", tail, "ms", traffic.all_ms.len()).with_note(format!(
            "{tail_label} of every request; failures count as misses"
        )),
    );
    outcome.e2e(
        Metric::new("work_per_s", traffic.goodput, "1/s", traffic.all_ms.len())
            .with_note(format!("200s within {LIMIT_MS} ms per second of schedule")),
    );
    outcome.named.push(Metric::timing(
        "serve_hit_p50_ms",
        &traffic.hit_ms,
        1.0,
        "ms",
    ));
    outcome.named.push(Metric::timing(
        "serve_miss_p50_ms",
        &traffic.first_ms,
        1.0,
        "ms",
    ));
    outcome.named.push(Metric::timing(
        "serve_pair_p50_ms",
        &traffic.pair_ms,
        1.0,
        "ms",
    ));
    outcome
        .named
        .push(Metric::new("serve_p99_ms", tail, "ms", traffic.all_ms.len()).with_note(tail_label));
    outcome.named.push(Metric::new(
        "serve_goodput_rps",
        traffic.goodput,
        "1/s",
        traffic.all_ms.len(),
    ));
    outcome.named.push(
        Metric::timing("loadgen_lag_ms", &traffic.lag_ms, 1.0, "ms")
            .with_note(format!("{connections} connections, {RATE} req/s offered")),
    );
    outcome.named.push(
        Metric::timing("loadgen_conn_wait_ms", &traffic.conn_wait_ms, 1.0, "ms")
            .with_note("due request waiting for a free connection"),
    );

    if opts.trace {
        trace_phase(
            opts,
            addr,
            connections,
            seconds,
            primed,
            traffic.wall_s,
            outcome,
        )?;
    }
    Ok(())
}

fn trace_phase(
    opts: &Options,
    addr: SocketAddr,
    connections: usize,
    seconds: f64,
    primed: &[Vec<u8>],
    untraced_wall_s: f64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let traced = plan(opts.seed, TRACED_STREAM, seconds);
    let tracer = Tracer::new();
    let before = metrics(addr)?;
    let (run, compute_ms) = tracer.span("traced", None, 0, |root| {
        let run = tracer.span("loadgen.run", Some(root), 0, |run_span| {
            let run = loadgen::run(addr, &traced.requests, connections)?;
            for (i, c) in run.completions.iter().enumerate() {
                tracer.record(
                    "loadgen.request",
                    Some(run_span),
                    i as u64 + 1,
                    c.due,
                    c.done,
                );
            }
            Ok::<_, String>(run)
        })?;
        let compute_ms = traced_compute(&tracer, root, &traced, &run, outcome);
        Ok::<_, String>((run, compute_ms))
    })?;
    let after = metrics(addr)?;
    let traffic = analyse(&traced, &run, primed, outcome);

    let spans = tracer.spans();
    let root = spans
        .iter()
        .find(|s| s.parent.is_none())
        .cloned()
        .expect("the traced root span");
    summarize_trace(outcome, &spans, root.start, root.end);

    let mut wait_ms = Vec::new();
    let (mut hits, mut misses, mut coalesced, mut rejected) = (0, 0, 0, 0);
    let mut batches = Vec::new();
    for (i, c) in run.completions.iter().enumerate() {
        let Ok(answer) = &c.answer else { continue };
        match answer.status {
            429 | 503 => rejected += 1,
            _ => {}
        }
        match answer.cache.as_str() {
            "hit" => hits += 1,
            "miss" => misses += 1,
            "coalesced" => coalesced += 1,
            _ => {}
        }
        if answer.batch > 0 {
            batches.push(answer.batch as f64);
        }
        if let (Kind::First(_), Some(own)) = (traced.kinds[i], compute_ms.get(&i)) {
            wait_ms.push((stats::latency_from_due_ms(c.due, c.done) - own).max(0.0));
        }
    }
    outcome.layer("serve.wait_ms", stats::median(&wait_ms), wait_ms.len());
    outcome.layer("serve.hits", f64::from(hits), run.completions.len());
    outcome.layer("serve.misses", f64::from(misses), run.completions.len());
    outcome.layer(
        "serve.coalesced",
        f64::from(coalesced),
        run.completions.len(),
    );
    outcome.layer("serve.rejected", f64::from(rejected), run.completions.len());
    let batch_mean = if batches.is_empty() {
        0.0
    } else {
        batches.iter().sum::<f64>() / batches.len() as f64
    };
    outcome.layer("serve.batch_mean", batch_mean, batches.len());
    let (lag_label, lag) = stats::tail(&traffic.lag_ms);
    outcome.layer("loadgen.lag_p99_ms", lag, traffic.lag_ms.len());
    outcome
        .lines
        .push(format!("loadgen lag tail is the {lag_label}"));
    let delta = |name: &str| after.get(name).unwrap_or(&0.0) - before.get(name).unwrap_or(&0.0);
    for (metric, counter) in [
        ("serve.m.http_requests", "bitwave_serve_http_requests_total"),
        ("serve.m.evaluations", "bitwave_serve_evaluations_total"),
        (
            "serve.m.batch_dispatches",
            "bitwave_serve_batch_dispatches_total",
        ),
        (
            "serve.m.batch_requests",
            "bitwave_serve_batch_requests_total",
        ),
        (
            "serve.m.weight_generations",
            "bitwave_serve_weight_generations_total",
        ),
        ("serve.m.deep_copies", "bitwave_tensor_deep_copies_total"),
    ] {
        outcome.layer(metric, delta(counter), 1);
    }
    let loadgen_wall = spans
        .iter()
        .find(|s| s.name == "loadgen.run")
        .map_or(0.0, |s| s.seconds());
    outcome.layer("trace.overhead_share", loadgen_wall / untraced_wall_s, 1);
    let path = opts
        .out
        .join(format!("trace-serve-mix-seed{}.jsonl", opts.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    outcome
        .lines
        .push(format!("spans written to {}", path.display()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_traffic() {
        assert_eq!(plan(5, TIMED_STREAM, 10.0), plan(5, TIMED_STREAM, 10.0));
        assert_ne!(plan(5, TIMED_STREAM, 10.0), plan(6, TIMED_STREAM, 10.0));
        assert_ne!(plan(5, TIMED_STREAM, 10.0), plan(5, TRACED_STREAM, 10.0));
    }

    #[test]
    fn about_ten_percent_of_requests_are_first_time_pairs() {
        let p = plan(9, TIMED_STREAM, 20.0);
        let first = p
            .kinds
            .iter()
            .filter(|k| matches!(k, Kind::First(_)))
            .count();
        let share = first as f64 / p.kinds.len() as f64;
        assert!((share - 0.10).abs() < 0.01, "first-time share {share}");
        let rate = p.requests.len() as f64 / 20.0;
        assert!((rate - RATE).abs() < 2.0, "offered rate {rate}");
        // Pair members share a due time and a seed, differ in accelerator.
        for (bodies, indices) in pairs(&p) {
            assert_eq!(indices.len(), 2);
            assert_eq!(p.requests[indices[0]].due_s, p.requests[indices[1]].due_s);
            assert_ne!(bodies[0], bodies[1]);
            let seed = |b: &str| b.rsplit_once(':').map(|(_, s)| s.to_string());
            assert_eq!(seed(&bodies[0]), seed(&bodies[1]));
        }
    }

    #[test]
    fn first_time_requests_never_repeat_or_touch_the_hot_set() {
        let hot = hot_set(3);
        let mut seen = std::collections::BTreeSet::new();
        for stream in [TIMED_STREAM, TRACED_STREAM] {
            let p = plan(3, stream, 10.0);
            for (request, kind) in p.requests.iter().zip(&p.kinds) {
                if matches!(kind, Kind::First(_)) {
                    assert!(!hot.contains(&request.body));
                    assert!(
                        seen.insert(request.body.clone()),
                        "repeated {}",
                        request.body
                    );
                }
            }
        }
    }

    #[test]
    fn bodies_parse_and_normalize() {
        for b in hot_set(1)
            .iter()
            .chain(plan(1, TIMED_STREAM, 2.0).requests.iter().map(|r| &r.body))
        {
            normalize(b).unwrap();
        }
    }
}
