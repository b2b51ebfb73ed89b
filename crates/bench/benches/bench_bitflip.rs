//! Regenerates Fig. 6: the layer-wise Bit-Flip sensitivity curves (a–d) and
//! the compression-ratio vs quality trade-offs with Pareto fronts (e–h),
//! then benchmarks the Bit-Flip kernel itself.
//!
//! Before the criterion loop, the target **gates** the table-driven kernel:
//! `flip_slice` over a ResNet18 layer sample (36 864 weights under a 40k
//! cap; z = 5, G16) must return exactly the bytes of a `flip_group_scalar`
//! loop over the same groups and be at least 5× faster than it (minimum of
//! several single-threaded runs each).  The result is written to
//! `BENCH_bitflip.json`.

use bitwave::experiments::bitflip::{fig06_layer_sensitivity, fig06_pareto, fig06_tradeoff};
use bitwave_bench::{bench_context, min_sample_seconds, print_header, write_bench_json};
use bitwave_core::bitflip::{flip_group_scalar, flip_slice};
use bitwave_core::group::GroupSize;
use bitwave_dnn::models::all_networks;
use bitwave_dnn::weights::generate_layer_sample;
use bitwave_tensor::bits::Encoding;
use bitwave_tensor::QuantTensor;
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use std::hint::black_box;

/// Required speedup of `flip_slice` over the scalar reference search.
const SPEEDUP_GATE: f64 = 5.0;
/// Timed runs per side; the minimum is kept.
const SAMPLES: usize = 10;
const LAYER: &str = "layer4.1.conv1";
const TARGET_ZERO_COLUMNS: u32 = 5;
const GROUP: GroupSize = GroupSize::G16;

#[derive(Serialize)]
struct BitflipBenchReport {
    network: &'static str,
    layer: &'static str,
    weights: usize,
    group_size: usize,
    target_zero_columns: u32,
    samples: usize,
    kernel_secs: f64,
    scalar_secs: f64,
    speedup: f64,
    speedup_gate: f64,
    /// Both sides run on one thread, so the gate holds on any core count.
    gate_enforced: bool,
    available_cores: usize,
}

/// The scalar reference: `flip_group_scalar` over every group of `weights`.
fn flip_slice_scalar(weights: &[i8]) -> Vec<i8> {
    weights
        .chunks(GROUP.len())
        .flat_map(|group| {
            flip_group_scalar(group, TARGET_ZERO_COLUMNS, Encoding::SignMagnitude)
                .expect("valid group")
                .flipped
        })
        .collect()
}

fn flip_slice_kernel(weights: &[i8]) -> Vec<i8> {
    flip_slice(weights, GROUP, TARGET_ZERO_COLUMNS, Encoding::SignMagnitude)
        .expect("valid groups")
        .0
}

/// Asserts the kernel is byte-identical to and [`SPEEDUP_GATE`]× faster
/// than the scalar search, and records the ratio.
fn gate_kernel(weights: &QuantTensor) {
    print_header(
        "bitflip_kernel_gate",
        "table-driven Bit-Flip vs scalar reference search (>=5x, byte-identical)",
    );
    let data = weights.data();
    assert_eq!(
        flip_slice_kernel(data),
        flip_slice_scalar(data),
        "flip_slice diverges from the scalar reference"
    );
    let kernel_secs = min_sample_seconds(SAMPLES, || {
        black_box(flip_slice_kernel(black_box(data)));
    });
    let scalar_secs = min_sample_seconds(SAMPLES, || {
        black_box(flip_slice_scalar(black_box(data)));
    });
    let speedup = scalar_secs / kernel_secs.max(f64::MIN_POSITIVE);
    println!(
        "{LAYER} ({} weights, z={TARGET_ZERO_COLUMNS}, G{}): kernel {:.2} ms   scalar {:.2} ms   \
         speedup {speedup:.2}x (gate {SPEEDUP_GATE}x)",
        data.len(),
        GROUP.len(),
        kernel_secs * 1e3,
        scalar_secs * 1e3,
    );
    write_bench_json(
        "BENCH_bitflip.json",
        &BitflipBenchReport {
            network: "ResNet18",
            layer: LAYER,
            weights: data.len(),
            group_size: GROUP.len(),
            target_zero_columns: TARGET_ZERO_COLUMNS,
            samples: SAMPLES,
            kernel_secs,
            scalar_secs,
            speedup,
            speedup_gate: SPEEDUP_GATE,
            gate_enforced: true,
            available_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
    );
    assert!(
        speedup >= SPEEDUP_GATE,
        "Bit-Flip kernel speedup {speedup:.2}x is below the {SPEEDUP_GATE}x gate"
    );
}

fn print_figures() {
    let ctx = bench_context();

    print_header(
        "fig06_bitflip_sensitivity",
        "Fig. 6(a-d) layer-wise flipping sensitivity",
    );
    for net in all_networks() {
        // A representative probe set: the most sensitive early layer, a middle
        // layer and the heaviest layer of each network.
        let mut probes: Vec<String> = vec![net.layers.first().unwrap().name.clone()];
        probes.push(net.layers[net.layers.len() / 2].name.clone());
        probes.push(net.weight_heavy_layers(0.2)[0].name.clone());
        probes.dedup();
        for row in fig06_layer_sensitivity(&ctx, &net, &probes, 7).expect("fig06 runs") {
            if row.zero_columns % 2 == 0 {
                println!(
                    "{:<12} {:<34} z={}  quality {:>7.2}  (drop {:>5.2})",
                    row.network, row.layer, row.zero_columns, row.quality, row.quality_drop
                );
            }
        }
    }

    print_header(
        "fig06_pareto",
        "Fig. 6(e-h) CR vs accuracy: PTQ vs SM vs SM+Bit-Flip",
    );
    for net in all_networks() {
        let rows = fig06_tradeoff(&ctx, &net).expect("fig06 tradeoff runs");
        for row in &rows {
            println!(
                "{:<12} {:<16} {:<26} CR {:>5.2}x  quality {:>7.2}",
                row.network, row.method, row.configuration, row.compression_ratio, row.quality
            );
        }
        let front = fig06_pareto(&rows);
        println!("{:<12} Pareto-optimal points: {}", net.name, front.len());
    }
}

fn bench(c: &mut Criterion) {
    print_figures();

    let net = bitwave_dnn::models::resnet18();
    let layer = net.layer(LAYER).unwrap();
    let weights = generate_layer_sample(layer, 7, 40_000);
    gate_kernel(&weights);

    c.bench_function("kernel/bitflip_40k_weights_z5_g16", |b| {
        b.iter(|| black_box(flip_slice_kernel(black_box(weights.data()))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
