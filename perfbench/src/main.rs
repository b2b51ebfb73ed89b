//! End-to-end benchmark of the BitWave reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-eval --seed 1 --seconds 10 --trace 0 [--out DIR]
//! ```
//!
//! Workloads (see `perfbench/README.md`): `paper-eval`, `serve-mix` and
//! `sweep-design`.  Each drives the program from outside through its public
//! functions and measures host time.  `--trace 0` reports the end-to-end
//! metrics; `--trace 1` additionally runs the workload one public call at a
//! time under spans and reports the per-layer metrics.  The last line of
//! standard output is the JSON result; the run exits non-zero when any
//! output check fails.

mod env;
mod loadgen;
mod paper_eval;
mod serve_mix;
mod stats;
mod sweep_design;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Whether to run the traced per-layer pass.
    pub trace: bool,
    /// Where result and trace files go.
    pub out: PathBuf,
}

/// Directory for result files when neither `--out` nor `PERFBENCH_OUT`
/// names one; relative to the working directory.
const DEFAULT_OUT: &str = "perfbench-out";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = std::env::var_os("PERFBENCH_OUT").map(PathBuf::from);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace,
        out: out.unwrap_or_else(|| PathBuf::from(DEFAULT_OUT)),
    })
}

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["paper-eval", "serve-mix", "sweep-design"];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
    /// Extra context for the human-readable table (tail, definition).
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    /// The same metric with `note` attached.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// A timing summary: the median, noted with the tail percentile.
    pub fn timing(name: &str, samples_ms: &[f64], unit_scale: f64, unit: &'static str) -> Self {
        let note = match stats::tail(samples_ms) {
            ("median", _) => "median; too few samples for a tail".to_string(),
            (label, tail) => format!("median; {label} {:.4} {unit}", tail * unit_scale),
        };
        Self::new(
            name,
            stats::median(samples_ms) * unit_scale,
            unit,
            samples_ms.len(),
        )
        .with_note(note)
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (passes, requests, sweeps, replays).
    pub attempted: u64,
    /// Operations failed, including every output-check mismatch.
    pub failed: u64,
    /// The `BENCHMARK.json` end-to-end metrics, by name.
    pub end_to_end: BTreeMap<&'static str, Metric>,
    /// Per-layer metrics from the traced run, by name.
    pub per_layer: BTreeMap<&'static str, Metric>,
    /// The workload's own named metrics (human table and result
    /// file only).
    pub named: Vec<Metric>,
    /// Free-form lines: headline values, digests, check failures.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.lines.push(format!("CHECK FAILED: {}", what.into()));
    }

    /// Records an end-to-end metric; the name and unit must be one of
    /// [`END_TO_END`].
    pub fn e2e(&mut self, metric: Metric) {
        let (name, unit) = END_TO_END
            .iter()
            .find(|(n, _)| *n == metric.name)
            .copied()
            .unwrap_or_else(|| panic!("end-to-end metric `{}` is not declared", metric.name));
        assert_eq!(unit, metric.unit, "unit of `{name}`");
        self.end_to_end.insert(name, metric);
    }

    /// Records a per-layer metric; the name must be one of
    /// [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("per-layer metric `{name}` is not declared"));
        self.per_layer
            .insert(name, Metric::new(name, value, unit, samples));
    }
}

/// End-to-end metrics (the `end_to_end` list of `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("heavy_p50_ms", "ms"),
    ("light_p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics (the `per_layer` list of `BENCHMARK.json`).  Every
/// traced run reports all of them; a layer a workload does not exercise
/// reads zero.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("dnn.weights_s", "s"),
    ("pipeline.compress_s", "s"),
    ("pipeline.bitflip_s", "s"),
    ("pipeline.bitflip_groups", "count"),
    ("pipeline.bitflip_groups_modified", "count"),
    ("pipeline.bitflip_modified_ratio", "ratio"),
    ("pipeline.profile_s", "s"),
    ("pipeline.map_s", "s"),
    ("pipeline.simulate_s", "s"),
    ("report.digest_s", "s"),
    ("sim.validate_s", "s"),
    ("eval.critical_path_share", "ratio"),
    ("serve.parse_s", "s"),
    ("serve.evaluate_s", "s"),
    ("serve.envelope_s", "s"),
    ("serve.wait_ms", "ms"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.coalesced", "count"),
    ("serve.batch_mean", "count"),
    ("serve.rejected", "count"),
    ("serve.m.http_requests", "count"),
    ("serve.m.evaluations", "count"),
    ("serve.m.batch_dispatches", "count"),
    ("serve.m.batch_requests", "count"),
    ("serve.m.weight_generations", "count"),
    ("serve.m.deep_copies", "count"),
    ("loadgen.lag_p99_ms", "ms"),
    ("sweep.portfolio_s", "s"),
    ("sweep.eval_s", "s"),
    ("sweep.point_p50_ms", "ms"),
    ("sweep.assemble_s", "s"),
    ("store.claim_s", "s"),
    ("store.publish_s", "s"),
    ("store.result_s", "s"),
    ("dse.memo_hit_ratio", "ratio"),
    ("dse.space_reuse", "count"),
    ("sweep.profile_reuse", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.coverage_share", "ratio"),
    ("trace.spans", "count"),
];

/// Span-name prefixes of the layers whose spans count towards trace
/// coverage: the repository's modules plus the benchmark's load generator.
/// Grouping spans (`eval.network`, the traced-phase root) do not count.
pub const LAYERS: [&str; 9] = [
    "dnn", "pipeline", "report", "sim", "serve", "store", "sweep", "dse", "loadgen",
];

/// Summarises a finished trace into `outcome`: per-name self times for the
/// `_s` metrics, span count and coverage of `[lo, hi]` (ns on the tracer's
/// clock) by layer spans.
pub fn summarize_trace(outcome: &mut Outcome, spans: &[trace::Span], lo: u64, hi: u64) {
    let self_s = trace::self_seconds(spans);
    for (name, _) in PER_LAYER {
        if let Some(base) = name.strip_suffix("_s") {
            if let Some(&seconds) = self_s.get(base) {
                outcome.layer(
                    name,
                    seconds,
                    spans.iter().filter(|s| s.name == base).count(),
                );
            }
        }
    }
    let layer_spans: Vec<trace::Span> = spans
        .iter()
        .filter(|s| {
            let prefix = s.name.split('.').next().unwrap_or_default();
            LAYERS.contains(&prefix) && s.parent.is_some()
        })
        .cloned()
        .collect();
    outcome.layer(
        "trace.coverage_share",
        trace::coverage(&layer_spans, lo, hi),
        layer_spans.len(),
    );
    outcome.layer("trace.spans", spans.len() as f64, spans.len());
    // The largest self times, for reading the prediction off the table.
    let mut ranked: Vec<(&str, f64)> = self_s.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: Vec<String> = ranked
        .iter()
        .take(6)
        .map(|(n, s)| format!("{n}={s:.4}s"))
        .collect();
    outcome
        .lines
        .push(format!("largest self times: {}", top.join(", ")));
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn json_string(value: &str) -> String {
    serde_json::to_string(&value.to_string()).unwrap_or_else(|_| "\"\"".to_string())
}

fn metrics_json(metrics: &[&Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn write_result_file(
    opts: &Options,
    environment: &env::Environment,
    outcome: &Outcome,
) -> std::io::Result<PathBuf> {
    let path = opts.out.join(format!(
        "result-{}-seed{}-trace{}.json",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    ));
    let detail = |m: &Metric| {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"note\": {}}}",
            json_string(&m.name),
            json_number(m.value),
            json_string(m.unit),
            m.samples,
            json_string(&m.note)
        )
    };
    let section = |metrics: Vec<&Metric>| {
        let fields: Vec<String> = metrics.into_iter().map(detail).collect();
        format!("{{{}}}", fields.join(", "))
    };
    let lines: Vec<String> = outcome.lines.iter().map(|l| json_string(l)).collect();
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"environment\": {}, \
         \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"named\": {}, \"per_layer\": {}, \
         \"lines\": [{}]}}\n",
        json_string(&opts.workload),
        opts.seed,
        opts.seconds.as_secs_f64(),
        opts.trace,
        environment.to_json(),
        outcome.attempted,
        outcome.failed,
        section(outcome.end_to_end.values().collect()),
        section(outcome.named.iter().collect()),
        section(outcome.per_layer.values().collect()),
        lines.join(", ")
    );
    std::fs::write(&path, body)?;
    Ok(path)
}

fn print_table(title: &str, metrics: &[&Metric]) {
    println!("## {title}");
    for m in metrics {
        println!(
            "  {:<34} {:>16.6} {:<6} n={:<6} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
}

fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("create {}: {e}", opts.out.display()))?;
    let mut outcome = match opts.workload.as_str() {
        "paper-eval" => paper_eval::run(opts)?,
        "serve-mix" => serve_mix::run(opts)?,
        "sweep-design" => sweep_design::run(opts)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let peak = env::peak_rss_mb();
    outcome
        .e2e(Metric::new("peak_rss_mb", peak, "MB", 1).with_note("VmHWM of the benchmark process"));
    if opts.trace {
        for (name, _) in PER_LAYER {
            if !outcome.per_layer.contains_key(name) {
                outcome.layer(name, 0.0, 0);
            }
        }
    }
    Ok(outcome)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-eval|serve-mix|sweep-design> --seed <n> \
                 --seconds <s> --trace <0|1> [--out <dir>]"
            );
            std::process::exit(2);
        }
    };
    let environment = env::Environment::capture();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} {}",
        opts.workload,
        opts.seed,
        opts.seconds.as_secs_f64(),
        u8::from(opts.trace),
        environment.summary()
    );
    let ticks = env::cpu_ticks();
    let mut outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    outcome.lines.push(format!(
        "cpu steal share during the run: {:.4}",
        env::steal_share(ticks, env::cpu_ticks())
    ));
    for (name, _) in END_TO_END {
        assert!(
            outcome.end_to_end.contains_key(name),
            "workload did not report end-to-end metric `{name}`"
        );
    }
    for line in &outcome.lines {
        println!("# {line}");
    }
    println!(
        "# simulated values come from the analytical model and the cycle-level engine; \
         they are not validated against hardware"
    );
    print_table(
        "end-to-end (BENCHMARK.json)",
        &outcome.end_to_end.values().collect::<Vec<_>>(),
    );
    print_table(
        &format!("{} metrics", opts.workload),
        &outcome.named.iter().collect::<Vec<_>>(),
    );
    if opts.trace {
        print_table(
            "per-layer (traced run)",
            &outcome.per_layer.values().collect::<Vec<_>>(),
        );
    }
    match write_result_file(&opts, &environment, &outcome) {
        Ok(path) => println!("# result written to {}", path.display()),
        Err(e) => eprintln!("perfbench: writing the result file: {e}"),
    }
    println!(
        "# operations attempted={} failed={}",
        outcome.attempted, outcome.failed
    );
    let metrics: Vec<&Metric> = if opts.trace {
        PER_LAYER
            .iter()
            .map(|(name, _)| &outcome.per_layer[name])
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, _)| &outcome.end_to_end[name])
            .collect()
    };
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let opts = parse_args(&args(&[
            "--workload",
            "serve-mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
            "--out",
            "somewhere",
        ]))
        .unwrap();
        assert_eq!(opts.workload, "serve-mix");
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.seconds, Duration::from_secs(10));
        assert!(opts.trace);
        assert_eq!(opts.out, PathBuf::from("somewhere"));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse_args(&args(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&args(&["--workload", "serve-mix"])).is_err());
        assert!(parse_args(&args(&["--workload", "serve-mix", "--seed", "x"])).is_err());
        assert!(parse_args(&args(&[
            "--workload",
            "serve-mix",
            "--seed",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
    }

    #[test]
    fn metric_names_fit_the_benchmark_contract() {
        let valid = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid(name), "{name}");
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(unit.len() <= 16, "{unit}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!(r#"{{"name": "{name}", "unit": "{unit}""#);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches(r#""unit": "#).count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn non_finite_values_never_reach_the_json() {
        let m = Metric::new("x", f64::INFINITY, "ms", 1);
        assert_eq!(
            metrics_json(&[&m]),
            r#"{"x": {"value": null, "unit": "ms"}}"#
        );
    }
}
