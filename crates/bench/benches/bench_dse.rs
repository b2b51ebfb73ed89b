//! Harness for the `bitwave-dse` dataflow design-space exploration engine.
//!
//! Two invariants are **asserted** (not just timed) before the criterion
//! loops, so `cargo bench --bench bench_dse` doubles as the CI gate:
//!
//! 1. the searched mapping policy beats (or at worst ties) the Fig. 9
//!    heuristic on end-to-end EDP for the ResNet-style model on the BitWave
//!    accelerator — measured on full pipeline reports, not the search's own
//!    cost estimates;
//! 2. a memoized re-search of an already-seen network is ≥ 10× faster than
//!    the cold search that populated the cache, and returns exactly the
//!    same result;
//! 3. the linear-pass Pareto selection (`pareto_front_indices`) returns the
//!    same indices as the all-pairs loop it replaced on every ResNet18
//!    layer's ≈1 000 candidate objective rows, and is ≥ 5× faster.

use bitwave::context::ExperimentContext;
use bitwave::dataflow::mapping::MappingPolicy;
use bitwave::dse::DseEngine;
use bitwave::pipeline::{ModelReport, Pipeline};
use bitwave_accel::spec::{AcceleratorSpec, BitwaveOptimizations};
use bitwave_accel::LayerSparsityProfile;
use bitwave_bench::{min_sample_seconds, print_header, write_bench_json};
use bitwave_core::pareto::{pareto_front_indices, Direction};
use bitwave_dnn::models::resnet18;
use bitwave_dse::cost::evaluate_candidate;
use bitwave_sweep::SweepConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

const SAMPLE_CAP: usize = 4_000;
/// Selection gate: linear pass vs the all-pairs reference.
const SELECT_SPEEDUP_GATE: f64 = 5.0;
/// Timed runs per side of the selection gate; the minimum is kept.
const SELECT_SAMPLES: usize = 10;
/// The DSE pruning objectives: minimise cycles, energy, EDP; maximise
/// utilisation.
const OBJECTIVES: [Direction; 4] = [
    Direction::Minimize,
    Direction::Minimize,
    Direction::Minimize,
    Direction::Maximize,
];

/// The `BENCH_dse.json` trajectory record, matching the
/// `BENCH_serve.json`/`BENCH_sparsity.json` convention.
#[derive(Serialize)]
struct DseBenchReport {
    sample_cap: usize,
    heuristic_edp: f64,
    searched_edp: f64,
    searched_over_heuristic_gain: f64,
    memo_cold_ms: f64,
    memo_warm_ms: f64,
    memo_speedup: f64,
    memo_speedup_gate: f64,
    /// Process-wide mapping-space enumerations answered by the shared
    /// space cache during this harness run.
    space_reuse_total: u64,
    select_sets: usize,
    select_mean_rows: f64,
    select_mean_front: f64,
    select_linear_ms: f64,
    select_quadratic_ms: f64,
    select_speedup: f64,
    select_speedup_gate: f64,
    /// Every gate compares runs on the same thread count, so all hold on
    /// any core count.
    gate_enforced: bool,
    available_cores: usize,
}

fn ctx() -> ExperimentContext {
    ExperimentContext::default().with_sample_cap(SAMPLE_CAP)
}

fn edp(report: &ModelReport) -> f64 {
    report.total_cycles * report.energy.total_pj()
}

/// Per-layer sparsity profiles of ResNet18 on `accel`, from the pipeline's
/// shared analysis.
fn resnet18_profiles(accel: &AcceleratorSpec) -> Vec<LayerSparsityProfile> {
    let context = ctx();
    let net = resnet18();
    let weights = context.weights(&net);
    Pipeline::new(context)
        .prepare_with_weights(&net, &weights)
        .expect("prepared layers")
        .iter()
        .map(|layer| *layer.analysis.profile_for(accel))
        .collect()
}

/// Gate 1: `MappingPolicy::Searched` must not lose to the heuristic on EDP
/// for ResNet18 on the fully optimised BitWave configuration.  Returns
/// `(heuristic_edp, searched_edp)` for the trajectory record.
fn assert_searched_beats_heuristic_edp() -> (f64, f64) {
    print_header(
        "dse_edp",
        "searched vs heuristic mapping EDP on ResNet18/BitWave (gate: searched <= heuristic)",
    );
    let net = resnet18();
    let heuristic = Pipeline::new(ctx()).run_model(&net).expect("heuristic run");
    let searched = Pipeline::new(ctx().with_mapping_policy(MappingPolicy::Searched))
        .run_model(&net)
        .expect("searched run");
    let (h, s) = (edp(&heuristic), edp(&searched));
    println!(
        "heuristic EDP: {h:.4e}   searched EDP: {s:.4e}   gain: {:.3}x   \
         (cycles {:.4e} -> {:.4e}, energy {:.4e} -> {:.4e} pJ)",
        h / s,
        heuristic.total_cycles,
        searched.total_cycles,
        heuristic.energy.total_pj(),
        searched.energy.total_pj(),
    );
    assert!(
        s <= h,
        "searched EDP {s:.4e} must not exceed heuristic EDP {h:.4e}"
    );
    (h, s)
}

/// Gate 2: re-searching an already-seen network must be ≥ 10× faster than
/// the cold search, with bit-identical results.  Returns
/// `(cold_ms, warm_ms, target)` for the trajectory record.
fn assert_memoized_research_speedup() -> (f64, f64, f64) {
    const TARGET: f64 = 10.0;
    print_header(
        "dse_memo",
        "cold vs memoized network search (gate: warm >= 10x faster, identical results)",
    );
    let context = ctx();
    let net = resnet18();
    let accel = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
    let profiles = resnet18_profiles(&accel);

    // A private cache so the cold path is genuinely cold.
    let engine = DseEngine::new(context.memory, context.energy);
    let t0 = Instant::now();
    let cold = engine
        .search_network(&accel, &net, &profiles)
        .expect("cold search");
    let cold_time = t0.elapsed();
    let t1 = Instant::now();
    let warm = engine
        .search_network(&accel, &net, &profiles)
        .expect("warm search");
    let warm_time = t1.elapsed();
    assert_eq!(cold, warm, "memoized results must equal cold results");

    let ratio = cold_time.as_secs_f64() / warm_time.as_secs_f64().max(f64::MIN_POSITIVE);
    let stats = engine.cache().stats();
    println!(
        "cold: {:.1} ms   warm: {:.3} ms   speedup: {ratio:.1}x   \
         (target: >={TARGET}x; memo hits {} misses {})",
        cold_time.as_secs_f64() * 1e3,
        warm_time.as_secs_f64() * 1e3,
        stats.hits(),
        stats.misses(),
    );
    assert!(
        stats.hits() >= net.layers.len() as u64,
        "the warm sweep must hit the memo for every layer (hits: {})",
        stats.hits()
    );
    assert!(
        ratio >= TARGET,
        "memoized re-search speedup {ratio:.1}x is below the {TARGET}x gate"
    );
    (
        cold_time.as_secs_f64() * 1e3,
        warm_time.as_secs_f64() * 1e3,
        TARGET,
    )
}

/// The all-pairs reference the linear pass replaced, loop for loop: a row
/// survives unless another row is at least as good on every objective and
/// strictly better on one.
fn all_pairs_front(rows: &[[f64; 4]]) -> Vec<usize> {
    let dominates = |a: &[f64; 4], b: &[f64; 4]| {
        let ge = OBJECTIVES
            .iter()
            .zip(a.iter().zip(b))
            .all(|(d, (x, y))| match d {
                Direction::Minimize => x <= y,
                Direction::Maximize => x >= y,
            });
        let gt = OBJECTIVES
            .iter()
            .zip(a.iter().zip(b))
            .any(|(d, (x, y))| match d {
                Direction::Minimize => x < y,
                Direction::Maximize => x > y,
            });
        ge && gt
    };
    (0..rows.len())
        .filter(|&i| !rows.iter().any(|other| dominates(other, &rows[i])))
        .collect()
}

/// Result of gate 3.
struct SelectionGate {
    selections: usize,
    mean_rows: f64,
    mean_front: f64,
    linear_ms: f64,
    quadratic_ms: f64,
    speedup: f64,
}

/// Gate 3: on every ResNet18 layer's candidate set in the hardware sweep's
/// mapping space (`[cycles, energy, EDP = cycles × energy, utilisation]`
/// rows, ≈1 000 per layer), `pareto_front_indices` must return the
/// all-pairs reference's indices and the whole set of selections must run
/// [`SELECT_SPEEDUP_GATE`]× faster, single-threaded.
fn assert_selection_speedup() -> SelectionGate {
    print_header(
        "dse_select",
        "linear-pass vs all-pairs Pareto selection (gate: >=5x faster, identical indices)",
    );
    let context = ctx();
    let net = resnet18();
    let accel = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
    let space = SweepConfig::small().space;
    let sets: Vec<Vec<[f64; 4]>> = net
        .layers
        .iter()
        .zip(resnet18_profiles(&accel))
        .map(|(layer, profile)| {
            space
                .enumerate(&accel, layer)
                .iter()
                .map(|c| {
                    evaluate_candidate(&accel, layer, &profile, &context.memory, &context.energy, c)
                        .objectives()
                })
                .collect()
        })
        .collect();
    let mut front_members = 0;
    for rows in &sets {
        let front = pareto_front_indices(rows, &OBJECTIVES);
        assert_eq!(
            front,
            all_pairs_front(rows),
            "linear-pass selection diverges from the all-pairs reference"
        );
        front_members += front.len();
    }
    let linear_ms = 1e3
        * min_sample_seconds(SELECT_SAMPLES, || {
            for rows in &sets {
                black_box(pareto_front_indices(black_box(rows), &OBJECTIVES));
            }
        });
    let quadratic_ms = 1e3
        * min_sample_seconds(SELECT_SAMPLES, || {
            for rows in &sets {
                black_box(all_pairs_front(black_box(rows)));
            }
        });
    let speedup = quadratic_ms / linear_ms.max(f64::MIN_POSITIVE);
    let gate = SelectionGate {
        selections: sets.len(),
        mean_rows: sets.iter().map(Vec::len).sum::<usize>() as f64 / sets.len() as f64,
        mean_front: front_members as f64 / sets.len() as f64,
        linear_ms,
        quadratic_ms,
        speedup,
    };
    println!(
        "{} selections (mean {:.0} candidates, mean front {:.1}): linear {linear_ms:.2} ms   \
         all-pairs {quadratic_ms:.2} ms   speedup {speedup:.1}x (gate {SELECT_SPEEDUP_GATE}x)",
        gate.selections, gate.mean_rows, gate.mean_front,
    );
    assert!(
        speedup >= SELECT_SPEEDUP_GATE,
        "Pareto selection speedup {speedup:.1}x is below the {SELECT_SPEEDUP_GATE}x gate"
    );
    gate
}

fn bench(c: &mut Criterion) {
    let (heuristic_edp, searched_edp) = assert_searched_beats_heuristic_edp();
    let (memo_cold_ms, memo_warm_ms, memo_speedup_gate) = assert_memoized_research_speedup();
    let select = assert_selection_speedup();
    write_bench_json(
        "BENCH_dse.json",
        &DseBenchReport {
            sample_cap: SAMPLE_CAP,
            heuristic_edp,
            searched_edp,
            searched_over_heuristic_gain: heuristic_edp / searched_edp.max(f64::MIN_POSITIVE),
            memo_cold_ms,
            memo_warm_ms,
            memo_speedup: memo_cold_ms / memo_warm_ms.max(f64::MIN_POSITIVE),
            memo_speedup_gate,
            space_reuse_total: bitwave::dse::space_reuse_total(),
            select_sets: select.selections,
            select_mean_rows: select.mean_rows,
            select_mean_front: select.mean_front,
            select_linear_ms: select.linear_ms,
            select_quadratic_ms: select.quadratic_ms,
            select_speedup: select.speedup,
            select_speedup_gate: SELECT_SPEEDUP_GATE,
            gate_enforced: true,
            available_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
    );

    // Steady-state criterion loops.
    let context = ctx();
    let net = resnet18();
    let accel = AcceleratorSpec::bitwave(BitwaveOptimizations::all());
    let profiles = resnet18_profiles(&accel);

    let cold_engine_layer = net.layers[10].clone();
    c.bench_function("dse/search_one_layer_cold", |b| {
        b.iter(|| {
            // A fresh private cache per iteration keeps this the cold path.
            let engine = DseEngine::new(context.memory, context.energy);
            black_box(
                engine
                    .search_layer(
                        black_box(&accel),
                        black_box(&cold_engine_layer),
                        black_box(&profiles[10]),
                    )
                    .expect("search"),
            )
        })
    });

    let warm_engine = DseEngine::new(context.memory, context.energy);
    warm_engine
        .search_network(&accel, &net, &profiles)
        .expect("warm-up");
    c.bench_function("dse/search_resnet18_memoized", |b| {
        b.iter(|| {
            black_box(
                warm_engine
                    .search_network(black_box(&accel), black_box(&net), black_box(&profiles))
                    .expect("memoized search"),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
