//! `paper-eval`: what a reproducer runs — the Figs. 14/15/17 SotA comparison
//! (4 networks × 9 accelerator configurations) plus the Section V-B
//! model-vs-simulator validation, at the default context and the workload
//! seed.
//!
//! The traced pass repeats the same evaluation one public stage call at a
//! time (weights → compress → bit-flip or profile → map → simulate →
//! digest), with the same network and accelerator fan-out, and must produce
//! byte-identical reports.

use crate::trace::Tracer;
use crate::{stats, summarize_trace, Metric, Options, Outcome};
use bitwave::accel::spec::{AcceleratorSpec, BitwaveOptimizations};
use bitwave::context::ExperimentContext;
use bitwave::dnn::models::{all_networks, NetworkSpec};
use bitwave::dnn::weights::NetworkWeights;
use bitwave::experiments::evaluation::{
    evaluate_all_accelerators, fig14_15_17_sota_comparison, validation_model_vs_simulator,
    SotaComparisonRow,
};
use bitwave::pipeline::{
    BitFlipStage, CompressStage, FlippedLayer, LayerReport, MapStage, ModelReport, Pipeline,
    PipelineStage, SimulateStage,
};
use bitwave::sim::validate::ValidationReport;
use bitwave::tensor::bits::Encoding;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Sample cap of the set-up warm-up pass (the timed passes use the default
/// 60 000).
const SETUP_CAP: usize = 2_000;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Network × accelerator evaluations in one pass.
const EVALUATIONS_PER_PASS: f64 = 36.0;

/// Labels the SotA figures plot, as `fig14_15_17_sota_comparison` filters
/// them.
const SOTA_LABELS: [&str; 6] = [
    "SCNN",
    "Stripes",
    "Pragmatic",
    "Bitlet",
    "HUAA",
    "BitWave+DF+SM+BF",
];

/// One network's `(accelerator label, report)` pairs.
type NetworkReports = (String, Vec<(String, ModelReport)>);

/// The nine configurations of `evaluate_all_accelerators`, in its order;
/// `true` marks the one that runs on the bit-flipped weights.
fn configurations() -> Vec<(AcceleratorSpec, bool)> {
    vec![
        (AcceleratorSpec::dense(), false),
        (
            AcceleratorSpec::bitwave(BitwaveOptimizations::dataflow_only()),
            false,
        ),
        (
            AcceleratorSpec::bitwave(BitwaveOptimizations::dataflow_sm()),
            false,
        ),
        (AcceleratorSpec::bitwave(BitwaveOptimizations::all()), true),
        (AcceleratorSpec::scnn(), false),
        (AcceleratorSpec::stripes(), false),
        (AcceleratorSpec::pragmatic(), false),
        (AcceleratorSpec::bitlet(), false),
        (AcceleratorSpec::huaa(), false),
    ]
}

/// The SotA rows of one network, normalised the way
/// `fig14_15_17_sota_comparison` normalises them.
fn sota_rows(
    network: &str,
    results: &[(String, ModelReport)],
) -> Result<Vec<SotaComparisonRow>, String> {
    let find = |label: &str| {
        results
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, r)| r)
            .ok_or_else(|| format!("{network}: no {label} report"))
    };
    let scnn = find("SCNN")?;
    let bitwave = find("BitWave+DF+SM+BF")?;
    Ok(results
        .iter()
        .filter(|(label, _)| SOTA_LABELS.contains(&label.as_str()))
        .map(|(label, result)| SotaComparisonRow {
            network: network.to_string(),
            accelerator: label.clone(),
            speedup_vs_scnn: result.speedup_over(scnn),
            energy_vs_bitwave: result.relative_energy(bitwave),
            efficiency_vs_scnn: result.efficiency_over(scnn),
            dram_energy_fraction: result.energy.dram_fraction(),
        })
        .collect())
}

fn rows_json(rows: &[SotaComparisonRow]) -> Result<String, String> {
    serde_json::to_string(&rows.to_vec()).map_err(|e| e.to_string())
}

fn all_rows(reports: &[NetworkReports]) -> Result<Vec<SotaComparisonRow>, String> {
    let mut rows = Vec::new();
    for (network, results) in reports {
        rows.extend(sota_rows(network, results)?);
    }
    Ok(rows)
}

/// One untimed pass through the public `evaluate_all_accelerators`, the
/// reference the timed rows and the traced reports are checked against.
fn reference_reports(ctx: &ExperimentContext) -> Result<Vec<NetworkReports>, String> {
    all_networks()
        .par_iter()
        .map(|spec| {
            evaluate_all_accelerators(ctx, spec)
                .map(|results| (spec.name.clone(), results))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Bit-flip work counted during the traced pass.
#[derive(Default)]
pub(crate) struct FlipCounts {
    groups: AtomicU64,
    modified: AtomicU64,
}

/// The compress → bit-flip prefix of one pipeline, one stage call per span.
/// Targeted layers time as `pipeline.bitflip`; untargeted ones only build
/// the accelerator profile and time as `pipeline.profile`.
pub(crate) fn traced_prepare(
    tracer: &Tracer,
    parent: u64,
    rid: u64,
    pipeline: &Pipeline,
    spec: &NetworkSpec,
    weights: &NetworkWeights,
    counts: &FlipCounts,
) -> Result<Vec<FlippedLayer>, String> {
    let compress = CompressStage::new(Encoding::SignMagnitude);
    let flip = BitFlipStage::new(Encoding::SignMagnitude);
    let jobs = pipeline
        .jobs_with_weights(spec, weights)
        .map_err(|e| e.to_string())?;
    jobs.into_iter()
        .map(|job| {
            let compressed = tracer
                .span("pipeline.compress", Some(parent), rid, |_| {
                    compress.run(job)
                })
                .map_err(|e| e.to_string())?;
            let name = if compressed.job.zero_column_target > 0 {
                "pipeline.bitflip"
            } else {
                "pipeline.profile"
            };
            let flipped = tracer
                .span(name, Some(parent), rid, |_| flip.run(compressed))
                .map_err(|e| e.to_string())?;
            if let Some(summary) = &flipped.bitflip {
                counts
                    .groups
                    .fetch_add(summary.groups as u64, Ordering::Relaxed);
                counts
                    .modified
                    .fetch_add(summary.groups_modified as u64, Ordering::Relaxed);
            }
            Ok(flipped)
        })
        .collect()
}

/// The map → simulate suffix for one accelerator, plus the report digest.
pub(crate) fn traced_simulate(
    tracer: &Tracer,
    parent: u64,
    rid: u64,
    ctx: &ExperimentContext,
    spec: &NetworkSpec,
    accel: &AcceleratorSpec,
    prepared: &[FlippedLayer],
) -> Result<(String, ModelReport), String> {
    let map = MapStage::new(accel.clone())
        .with_policy(ctx.mapping_policy)
        .with_cost_tables(ctx.memory, ctx.energy);
    let simulate = SimulateStage::new(accel.clone(), ctx.memory, ctx.energy);
    let layers: Vec<LayerReport> = prepared
        .iter()
        .map(|layer| {
            // The value-codec half of the profile is lazy; forcing it here
            // keeps its cost out of the map span.
            let profile = *tracer.span("pipeline.profile", Some(parent), rid, |_| {
                layer.analysis.profile_for(accel)
            });
            let decision = tracer
                .span("pipeline.map", Some(parent), rid, |_| {
                    map.decide_with_profile(&layer.job.layer, &profile)
                })
                .map_err(|e| e.to_string())?;
            Ok(tracer.span("pipeline.simulate", Some(parent), rid, |_| {
                simulate.evaluate(layer, &decision)
            }))
        })
        .collect::<Result<_, String>>()?;
    let report = ModelReport::from_layers(spec.name.clone(), accel.label.clone(), layers);
    tracer
        .span("report.digest", Some(parent), rid, |_| {
            report.content_digest()
        })
        .map_err(|e| e.to_string())?;
    Ok((accel.label.clone(), report))
}

/// The traced pass: the networks fan out as in the untimed pass, each
/// network's nine accelerators fan out as in `evaluate_all_accelerators`.
fn traced_pass(
    tracer: &Tracer,
    root: u64,
    ctx: &ExperimentContext,
    counts: &FlipCounts,
) -> Result<(Vec<NetworkReports>, ValidationReport), String> {
    let networks = all_networks();
    let indices: Vec<usize> = (0..networks.len()).collect();
    let reports = indices
        .par_iter()
        .map(|&i| {
            let spec = &networks[i];
            let rid = i as u64 + 1;
            tracer.span("eval.network", Some(root), rid, |net| {
                let weights = tracer.span("dnn.weights", Some(net), rid, |_| ctx.weights(spec));
                let baseline = traced_prepare(
                    tracer,
                    net,
                    rid,
                    &Pipeline::new(ctx.clone()),
                    spec,
                    &weights,
                    counts,
                )?;
                let flipped = traced_prepare(
                    tracer,
                    net,
                    rid,
                    &Pipeline::new(ctx.clone()).with_default_bitflip(spec),
                    spec,
                    &weights,
                    counts,
                )?;
                let results = configurations()
                    .par_iter()
                    .map(|(accel, use_bitflip)| {
                        let prepared = if *use_bitflip { &flipped } else { &baseline };
                        traced_simulate(tracer, net, rid, ctx, spec, accel, prepared)
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok((spec.name.clone(), results))
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let validation = tracer
        .span("sim.validate", Some(root), 0, |_| {
            validation_model_vs_simulator(ctx)
        })
        .map_err(|e| e.to_string())?;
    Ok((reports, validation))
}

fn digests(reports: &[NetworkReports]) -> Result<Vec<(String, String, String)>, String> {
    let mut out = Vec::new();
    for (network, results) in reports {
        for (label, report) in results {
            let digest = report.content_digest().map_err(|e| e.to_string())?;
            out.push((network.clone(), label.clone(), digest.to_hex()));
        }
    }
    Ok(out)
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a message when set-up itself fails; failed checks are counted in
/// the outcome instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();

    // Set-up: a warm-up pass at a small sample cap, repeated; the median
    // is `setup_s`.
    let warm_ctx = ExperimentContext::default()
        .with_seed(opts.seed)
        .with_sample_cap(SETUP_CAP);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        fig14_15_17_sota_comparison(&warm_ctx).map_err(|e| format!("set-up pass: {e}"))?;
        validation_model_vs_simulator(&warm_ctx).map_err(|e| format!("set-up pass: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // Timed phase: whole passes until the time is up.
    let ctx = ExperimentContext::default().with_seed(opts.seed);
    let mut pass_ms = Vec::new();
    let mut validate_ms = Vec::new();
    let mut first_rows: Option<String> = None;
    let phase = Instant::now();
    while outcome.attempted == 0 || phase.elapsed() < opts.seconds {
        outcome.attempted += 1;
        let t0 = Instant::now();
        let rows = fig14_15_17_sota_comparison(&ctx);
        let t1 = Instant::now();
        let validation = validation_model_vs_simulator(&ctx);
        let t2 = Instant::now();
        let (rows, validation) = match (rows, validation) {
            (Ok(rows), Ok(validation)) => (rows, validation),
            (Err(e), _) | (_, Err(e)) => {
                outcome.fail(format!("pass failed: {e}"));
                continue;
            }
        };
        pass_ms.push((t2 - t0).as_secs_f64() * 1e3);
        validate_ms.push((t2 - t1).as_secs_f64() * 1e3);
        if !validation.within_paper_bound() {
            outcome.fail(format!(
                "validation deviation {:.4} exceeds the paper's 6 % bound",
                validation.deviation
            ));
        }
        let json = rows_json(&rows)?;
        match &first_rows {
            None => first_rows = Some(json),
            Some(first) if *first != json => outcome.fail("a pass produced different rows"),
            Some(_) => {}
        }
    }
    let first_rows = first_rows.unwrap_or_default();

    // Untimed check: the rows equal the composition of the public
    // per-network evaluation; print headline values and digests.
    let reference = reference_reports(&ctx)?;
    let reference_rows = all_rows(&reference)?;
    if rows_json(&reference_rows)? != first_rows {
        outcome.fail("fig14_15_17 rows differ from evaluate_all_accelerators reports");
    }
    for row in reference_rows {
        if row.accelerator == "BitWave+DF+SM+BF" {
            outcome.lines.push(format!(
                "headline {}: BitWave over SCNN speedup {:.6}, efficiency {:.6}",
                row.network, row.speedup_vs_scnn, row.efficiency_vs_scnn
            ));
        }
    }
    if let Some((_, resnet)) = reference.iter().find(|(n, _)| n == "ResNet18") {
        let find = |label: &str| resnet.iter().find(|(l, _)| l == label).map(|(_, r)| r);
        if let (Some(bf), Some(dense)) = (find("BitWave+DF+SM+BF"), find("Dense")) {
            outcome.lines.push(format!(
                "headline ResNet18: DF+SM+BF over Dense speedup {:.6}",
                bf.speedup_over(dense)
            ));
        }
    }
    let reference_digests = digests(&reference)?;
    for (network, label, digest) in &reference_digests {
        outcome
            .lines
            .push(format!("digest {network} {label} {digest}"));
    }

    let evaluations = EVALUATIONS_PER_PASS * pass_ms.len() as f64;
    let pass_total_s: f64 = pass_ms.iter().sum::<f64>() / 1e3;
    let (tail_label, tail) = stats::tail(&pass_ms);
    let e2e = [
        Metric::timing("setup_s", &setup_s, 1.0, "s")
            .with_note("median of 3 warm-up passes at sample cap 2000"),
        Metric::timing("heavy_p50_ms", &pass_ms, 1.0, "ms")
            .with_note("one full pass (fig14_15_17 + validation)"),
        Metric::timing("light_p50_ms", &validate_ms, 1.0, "ms")
            .with_note("validation_model_vs_simulator within each pass"),
        Metric::new("tail_ms", tail, "ms", pass_ms.len()).with_note(format!(
            "{tail_label} of pass time (median when under 20 passes)"
        )),
        Metric::new(
            "work_per_s",
            evaluations / pass_total_s,
            "1/s",
            pass_ms.len(),
        )
        .with_note("network x accelerator evaluations per second of pass time"),
    ];
    for metric in e2e {
        outcome.e2e(metric);
    }
    outcome
        .named
        .push(Metric::timing("eval_pass_s", &pass_ms, 1e-3, "s"));
    outcome
        .named
        .push(Metric::timing("sim_validate_ms", &validate_ms, 1.0, "ms"));

    if opts.trace {
        let tracer = Tracer::new();
        let counts = FlipCounts::default();
        let result = tracer.span("traced", None, 0, |root| {
            traced_pass(&tracer, root, &ctx, &counts)
        });
        let (traced, validation) = result?;
        let spans = tracer.spans();
        let root = spans
            .iter()
            .find(|s| s.parent.is_none())
            .cloned()
            .expect("the traced root span");
        if !validation.within_paper_bound() {
            outcome.fail("traced validation exceeds the paper's 6 % bound");
        }
        if digests(&traced)? != reference_digests {
            outcome.fail("traced stage-by-stage reports differ from the untraced ones");
        }
        if rows_json(&all_rows(&traced)?)? != first_rows {
            outcome.fail("traced rows differ from the untraced rows");
        }
        outcome.attempted += 1;
        summarize_trace(&mut outcome, &spans, root.start, root.end);
        let slowest = spans
            .iter()
            .filter(|s| s.name == "eval.network")
            .map(|s| s.end - s.start)
            .max()
            .unwrap_or(0);
        let wall = (root.end - root.start) as f64;
        outcome.layer("eval.critical_path_share", slowest as f64 / wall, 4);
        outcome.layer(
            "trace.overhead_share",
            root.seconds() * 1e3 / stats::median(&pass_ms),
            1,
        );
        let groups = counts.groups.load(Ordering::Relaxed) as f64;
        let modified = counts.modified.load(Ordering::Relaxed) as f64;
        outcome.layer("pipeline.bitflip_groups", groups, 1);
        outcome.layer("pipeline.bitflip_groups_modified", modified, 1);
        outcome.layer(
            "pipeline.bitflip_modified_ratio",
            if groups > 0.0 { modified / groups } else { 0.0 },
            1,
        );
        let path = opts
            .out
            .join(format!("trace-paper-eval-seed{}.jsonl", opts.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        outcome
            .lines
            .push(format!("spans written to {}", path.display()));
    }
    Ok(outcome)
}
