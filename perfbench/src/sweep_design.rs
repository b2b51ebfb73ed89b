//! `sweep-design`: cold hardware design sweeps around the paper's Table I,
//! each on a fresh on-disk ledger root, each followed by a warm replay from
//! that root.
//!
//! Successive sweeps use distinct derived seeds, so the content caches
//! (portfolio profiles, factored groups, published results) stay cold.  The
//! traced run repeats one cold sweep sequentially, one public ledger,
//! portfolio and evaluation call at a time, and must assemble the same
//! front as the threaded sweep and its replay.

use crate::trace::Tracer;
use crate::{env, stats, summarize_trace, Metric, Options, Outcome};
use bitwave::dse::memo::global_cache;
use bitwave::dse::space_reuse_total;
use bitwave_sweep::{
    assemble_report, build_portfolio, enumerate, evaluate_point_factored, profile_reuse_total,
    run_with_progress_opts, EvalMode, EvalOptions, FrontReport, MenuKind, SweepConfig, SweepLedger,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Stream indices for derived seeds: timed sweeps count up from 0.
const SETUP_STREAM: u64 = 1_000;
const TRACE_STREAM: u64 = 3_000;

/// The 216-point space around Table I over a three-model portfolio.
pub fn config(seed: u64) -> SweepConfig {
    let mut config = SweepConfig::small();
    config.lanes = vec![2048, 4096, 8192];
    config.sync_lanes = vec![4, 8, 16];
    config.weight_sram_kb = vec![128, 256, 512];
    config.activation_sram_kb = vec![128, 256];
    config.dram_bandwidth_bits = vec![32, 64];
    config.menus = vec![MenuKind::TableI, MenuKind::BitSim];
    config.portfolio = vec![
        "resnet18".to_string(),
        "mobilenet-v2".to_string(),
        "cnn-lstm".to_string(),
    ];
    config.sample_cap = 20_000;
    config.seed = seed;
    config
}

fn front_json(report: &FrontReport) -> Result<String, String> {
    serde_json::to_string(report).map_err(|e| e.to_string())
}

/// A fresh ledger root under the output directory.
fn fresh_root(out: &Path, tag: &str) -> Result<PathBuf, String> {
    let root = out.join(format!("sweep-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    Ok(root)
}

fn sweep(
    config: &SweepConfig,
    root: &Path,
    threads: usize,
) -> Result<(FrontReport, usize), String> {
    let opts = EvalOptions {
        threads,
        mode: EvalMode::Factored,
    };
    run_with_progress_opts(config, Some(root), opts, |_| {})
        .map(|(report, stats)| (report, stats.evaluated))
        .map_err(|e| format!("sweep {}: {e}", config.seed))
}

/// The traced cold sweep: `run_loop`'s sequential path, one public call per
/// span (result lookup, claim, evaluation, publish), then assembly.
fn traced_cold(
    tracer: &Tracer,
    parent: u64,
    config: &SweepConfig,
    root: &Path,
    point_ms: &mut Vec<f64>,
) -> Result<FrontReport, String> {
    tracer.span("sweep.cold", Some(parent), 0, |cold| {
        let ledger = tracer
            .span("store.open", Some(cold), 0, |_| {
                SweepLedger::open(config, Some(root))
            })
            .map_err(|e| e.to_string())?;
        let points = tracer.span("sweep.enumerate", Some(cold), 0, |_| enumerate(config));
        let portfolio = tracer.span("sweep.portfolio", Some(cold), 0, |_| {
            build_portfolio(config)
        })?;
        for point in &points {
            let rid = point.index as u64 + 1;
            if tracer
                .span("store.result", Some(cold), rid, |_| {
                    ledger.result(point.index)
                })
                .is_some()
            {
                return Err(format!(
                    "point {} already published on a fresh root",
                    point.index
                ));
            }
            let claim = tracer
                .span("store.claim", Some(cold), rid, |_| {
                    ledger.claim(point.index)
                })
                .map_err(|e| e.to_string())?;
            if !claim.owned() {
                return Err(format!("point {} claimed by another worker", point.index));
            }
            let t = Instant::now();
            let result = tracer.span("sweep.eval", Some(cold), rid, |_| {
                evaluate_point_factored(point, config, &portfolio)
            });
            point_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tracer.span("store.publish", Some(cold), rid, |_| {
                ledger.publish(point.index, result)
            });
        }
        tracer
            .span("sweep.assemble", Some(cold), 0, |_| {
                assemble_report(config, &ledger)
            })
            .ok_or_else(|| "traced sweep completed but results are missing".to_string())
    })
}

/// The traced warm replay: every point answered by the ledger, none
/// evaluated.
fn traced_replay(
    tracer: &Tracer,
    parent: u64,
    config: &SweepConfig,
    root: &Path,
) -> Result<FrontReport, String> {
    tracer.span("sweep.replay", Some(parent), 0, |replay| {
        let ledger = tracer
            .span("store.open", Some(replay), 0, |_| {
                SweepLedger::open(config, Some(root))
            })
            .map_err(|e| e.to_string())?;
        for index in 0..config.total_points() {
            tracer
                .span("store.result", Some(replay), index as u64 + 1, |_| {
                    ledger.result(index)
                })
                .ok_or_else(|| format!("replay: point {index} missing"))?;
        }
        tracer
            .span("sweep.assemble", Some(replay), 0, |_| {
                assemble_report(config, &ledger)
            })
            .ok_or_else(|| "replay: results are missing".to_string())
    })
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when set-up or the ledger itself fails; failed checks
/// are counted in the outcome instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let threads = env::nproc();
    let points = config(0).total_points();

    // Set-up: build a cold portfolio (weight generation + profiling, the
    // fixed cost every sweep pays before evaluating points), repeated.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for i in 0..SETUP_REPS {
        let cfg = config(stats::derive_seed(opts.seed, SETUP_STREAM + i as u64));
        let t = Instant::now();
        build_portfolio(&cfg)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // Timed phase: cold threaded sweep, then its warm replay, until the
    // time is up.
    let mut cold_ms = Vec::new();
    let mut replay_ms = Vec::new();
    let mut last: Option<(SweepConfig, String)> = None;
    let phase = Instant::now();
    let mut i = 0u64;
    while i == 0 || phase.elapsed() < opts.seconds {
        let cfg = config(stats::derive_seed(opts.seed, i));
        i += 1;
        let root = fresh_root(&opts.out, &format!("{i}"))?;
        outcome.attempted += 2;
        let t0 = Instant::now();
        let cold = sweep(&cfg, &root, threads);
        let t1 = Instant::now();
        let replay = sweep(&cfg, &root, threads);
        let t2 = Instant::now();
        let _ = std::fs::remove_dir_all(&root);
        let ((cold, evaluated), (replay, replay_evaluated)) = match (cold, replay) {
            (Ok(cold), Ok(replay)) => (cold, replay),
            (Err(e), _) | (_, Err(e)) => {
                outcome.fail(e);
                continue;
            }
        };
        cold_ms.push((t1 - t0).as_secs_f64() * 1e3);
        replay_ms.push((t2 - t1).as_secs_f64() * 1e3);
        if evaluated != points {
            outcome.fail(format!(
                "cold sweep evaluated {evaluated} of {points} points"
            ));
        }
        if replay_evaluated != 0 {
            outcome.fail(format!("replay evaluated {replay_evaluated} points"));
        }
        let cold_json = front_json(&cold)?;
        if front_json(&replay)? != cold_json {
            outcome.fail(format!(
                "seed {}: replay front differs from the cold front",
                cfg.seed
            ));
        }
        last = Some((cfg, cold_json));
    }

    // Untimed check: a sequential in-memory sweep of the last seed
    // assembles the same front as the threaded one.
    if let Some((cfg, threaded)) = &last {
        outcome.attempted += 1;
        let (sequential, _) = run_with_progress_opts(cfg, None, EvalOptions::default(), |_| {})
            .map_err(|e| e.to_string())?;
        if front_json(&sequential)? != *threaded {
            outcome.fail("sequential in-memory front differs from the threaded front");
        }
        outcome.lines.push(format!(
            "front seed {}: {} of {} points feasible, {} on the front, digest {}",
            cfg.seed,
            sequential.feasible_points,
            sequential.total_points,
            sequential.front.len(),
            bitwave::core::digest::Digest::of_bytes(threaded.as_bytes()).to_hex()
        ));
        if let Some(best) = sequential
            .front
            .iter()
            .min_by(|a, b| a.edp.total_cmp(&b.edp))
        {
            outcome.lines.push(format!(
                "headline lowest-EDP point {} edp {:e}",
                best.label, best.edp
            ));
        }
    }

    let cold_total_s: f64 = cold_ms.iter().sum::<f64>() / 1e3;
    let (tail_label, tail) = stats::tail(&cold_ms);
    outcome.e2e(
        Metric::timing("setup_s", &setup_s, 1.0, "s")
            .with_note("median of 3 cold portfolio builds"),
    );
    outcome.e2e(
        Metric::timing("heavy_p50_ms", &cold_ms, 1.0, "ms")
            .with_note(format!("one cold {points}-point sweep, {threads} threads")),
    );
    outcome.e2e(
        Metric::timing("light_p50_ms", &replay_ms, 1.0, "ms")
            .with_note("warm replay from the cold sweep's root"),
    );
    outcome.e2e(
        Metric::new("tail_ms", tail, "ms", cold_ms.len()).with_note(format!(
            "{tail_label} of cold sweep time (median when under 20 sweeps)"
        )),
    );
    outcome.e2e(
        Metric::new(
            "work_per_s",
            (points * cold_ms.len()) as f64 / cold_total_s,
            "1/s",
            cold_ms.len(),
        )
        .with_note("candidate points per second of cold sweep"),
    );
    let per_s: Vec<f64> = cold_ms.iter().map(|ms| points as f64 / ms * 1e3).collect();
    outcome.named.push(
        Metric::new(
            "sweep_points_per_s",
            stats::median(&per_s),
            "1/s",
            per_s.len(),
        )
        .with_note("median over cold sweeps"),
    );
    outcome
        .named
        .push(Metric::timing("sweep_replay_s", &replay_ms, 1e-3, "s"));

    if opts.trace {
        let cfg = config(stats::derive_seed(opts.seed, TRACE_STREAM));
        let root = fresh_root(&opts.out, "traced")?;
        let memo = global_cache().stats();
        let (memo_hits, memo_misses) = (memo.hits(), memo.misses());
        let (space_before, profile_before) = (space_reuse_total(), profile_reuse_total());
        let tracer = Tracer::new();
        let mut point_ms = Vec::new();
        let traced = tracer.span("traced", None, 0, |top| {
            let cold = traced_cold(&tracer, top, &cfg, &root, &mut point_ms)?;
            let replay = traced_replay(&tracer, top, &cfg, &root)?;
            Ok::<_, String>((cold, replay))
        });
        let memo = global_cache().stats();
        let memo_lookups = (memo.hits() - memo_hits) + (memo.misses() - memo_misses);
        let memo_ratio = if memo_lookups > 0 {
            (memo.hits() - memo_hits) as f64 / memo_lookups as f64
        } else {
            0.0
        };
        let space_reuse = space_reuse_total() - space_before;
        let profile_reuse = profile_reuse_total() - profile_before;
        let _ = std::fs::remove_dir_all(&root);
        outcome.attempted += 2;
        match traced {
            Ok((cold, replay)) => {
                // The threaded front of the same seed, on its own fresh root.
                let threaded_root = fresh_root(&opts.out, "threaded")?;
                let threaded = sweep(&cfg, &threaded_root, threads);
                let _ = std::fs::remove_dir_all(&threaded_root);
                let cold_json = front_json(&cold)?;
                match threaded {
                    Ok((threaded, _)) if front_json(&threaded)? == cold_json => {}
                    Ok(_) => {
                        outcome.fail("traced sequential front differs from the threaded front")
                    }
                    Err(e) => outcome.fail(e),
                }
                if front_json(&replay)? != cold_json {
                    outcome.fail("traced replay front differs from the traced cold front");
                }
            }
            Err(e) => outcome.fail(format!("traced sweep: {e}")),
        }
        let spans = tracer.spans();
        let root_span = spans
            .iter()
            .find(|s| s.parent.is_none())
            .cloned()
            .expect("the traced root span");
        summarize_trace(&mut outcome, &spans, root_span.start, root_span.end);
        let cold_span = spans
            .iter()
            .find(|s| s.name == "sweep.cold")
            .map_or(0.0, |s| s.seconds());
        outcome.layer(
            "trace.overhead_share",
            cold_span * 1e3 / stats::median(&cold_ms),
            1,
        );
        outcome.layer(
            "sweep.point_p50_ms",
            stats::median(&point_ms),
            point_ms.len(),
        );
        outcome.layer("dse.memo_hit_ratio", memo_ratio, memo_lookups as usize);
        outcome.layer("dse.space_reuse", space_reuse as f64, 1);
        outcome.layer("sweep.profile_reuse", profile_reuse as f64, 1);
        let path = opts
            .out
            .join(format!("trace-sweep-design-seed{}.jsonl", opts.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        outcome
            .lines
            .push(format!("spans written to {}", path.display()));
    }
    Ok(outcome)
}
