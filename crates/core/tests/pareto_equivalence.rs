//! Linear-pass ≡ all-pairs Pareto selection.
//!
//! `pareto_front_indices` runs one `FrontAccumulator` pass.  This suite
//! keeps the all-pairs loop it replaced as the oracle and demands the exact
//! same index set on tie-heavy inputs: small-integer metrics, exact
//! duplicate rows, `-0.0`/`0.0` and NaN entries, mixed directions, and
//! lengths 0..=256.

use bitwave_core::pareto::{
    pareto_front_indices, pareto_front_n, Direction, FrontAccumulator, ParetoPointN,
};
use proptest::prelude::*;

/// The all-pairs oracle: a row survives unless another row is at least as
/// good on every axis and strictly better on one.  NaN compares false both
/// ways, so a NaN row neither dominates nor is dominated.
fn all_pairs_front<const N: usize>(rows: &[[f64; N]], dirs: &[Direction; N]) -> Vec<usize> {
    let dominates = |a: &[f64; N], b: &[f64; N]| {
        let ge = (0..N).all(|k| match dirs[k] {
            Direction::Maximize => a[k] >= b[k],
            Direction::Minimize => a[k] <= b[k],
        });
        let gt = (0..N).any(|k| match dirs[k] {
            Direction::Maximize => a[k] > b[k],
            Direction::Minimize => a[k] < b[k],
        });
        ge && gt
    };
    (0..rows.len())
        .filter(|&i| !rows.iter().any(|other| dominates(other, &rows[i])))
        .collect()
}

/// One metric from one byte: mostly the integers 0..=3 (ties), plus `-0.0`
/// and NaN.
fn value(code: u8) -> f64 {
    match code % 16 {
        0 => -0.0,
        1 => f64::NAN,
        c => f64::from(c % 4),
    }
}

/// Rows from raw draws: a quarter repeat an earlier row exactly, the rest
/// take one metric per low byte of the draw.
fn rows<const N: usize>(raw: &[u64]) -> Vec<[f64; N]> {
    let mut out: Vec<[f64; N]> = Vec::with_capacity(raw.len());
    for &r in raw {
        if r & 3 == 0 && !out.is_empty() {
            let src = (r >> 2) as usize % out.len();
            out.push(out[src]);
        } else {
            out.push(std::array::from_fn(|k| value((r >> (2 + 8 * k)) as u8)));
        }
    }
    out
}

fn directions<const N: usize>(bits: u8) -> [Direction; N] {
    std::array::from_fn(|k| {
        if bits >> k & 1 == 0 {
            Direction::Minimize
        } else {
            Direction::Maximize
        }
    })
}

/// Fisher–Yates shuffle of `0..n` driven by a splitmix64 stream.
fn shuffled(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        order.swap(i, (z ^ (z >> 31)) as usize % (i + 1));
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn two_objective_front_matches_all_pairs(
        raw in proptest::collection::vec(any::<u64>(), 0..=256),
        dir_bits in any::<u8>(),
    ) {
        let dirs = directions::<2>(dir_bits);
        let rows = rows::<2>(&raw);
        prop_assert_eq!(pareto_front_indices(&rows, &dirs), all_pairs_front(&rows, &dirs));
    }

    #[test]
    fn four_objective_front_matches_all_pairs(
        raw in proptest::collection::vec(any::<u64>(), 0..=256),
        dir_bits in any::<u8>(),
    ) {
        let dirs = directions::<4>(dir_bits);
        let rows = rows::<4>(&raw);
        prop_assert_eq!(pareto_front_indices(&rows, &dirs), all_pairs_front(&rows, &dirs));
    }

    #[test]
    fn accumulator_matches_all_pairs_in_shuffled_order(
        raw in proptest::collection::vec(any::<u64>(), 0..=256),
        dir_bits in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let dirs = directions::<4>(dir_bits);
        let rows = rows::<4>(&raw);
        let mut acc = FrontAccumulator::new(dirs);
        for i in shuffled(rows.len(), seed) {
            acc.insert(rows[i], i);
        }
        prop_assert_eq!(acc.indices(), all_pairs_front(&rows, &dirs));
    }
}

#[test]
fn signed_zeros_tie_and_nan_rows_always_survive() {
    let dirs = [Direction::Minimize, Direction::Maximize];
    let rows = [
        [0.0, 1.0],
        [-0.0, 1.0],
        [f64::NAN, 9.0],
        [1.0, 0.0],
        [0.0, f64::NAN],
    ];
    // The signed zeros tie (both survive) and dominate [1, 0]; the NaN rows
    // are incomparable with everything.
    assert_eq!(pareto_front_indices(&rows, &dirs), vec![0, 1, 2, 4]);
    assert_eq!(
        pareto_front_indices(&rows, &dirs),
        all_pairs_front(&rows, &dirs)
    );
}

#[test]
fn long_front_with_nan_rows_sorts_deterministically() {
    // 24 trade-offs on two minimised axes (all on the front) plus NaN rows,
    // which are never dominated: past the insertion-sort threshold the
    // first-metric sort must still be a total order.
    let dirs = [Direction::Minimize, Direction::Minimize];
    let mut points: Vec<ParetoPointN<2>> = (0..24u32)
        .map(|i| {
            let first = f64::from((i * 7) % 24);
            ParetoPointN::new([first, 24.0 - first], format!("p{i}"))
        })
        .collect();
    points.insert(5, ParetoPointN::new([f64::NAN, 3.0], "nan-a"));
    points.insert(19, ParetoPointN::new([f64::NAN, 1.0], "nan-b"));
    let front = pareto_front_n(&points, &dirs);
    let firsts: Vec<f64> = front.iter().take(24).map(|p| p.metrics[0]).collect();
    let ascending: Vec<f64> = (0..24u32).map(f64::from).collect();
    assert_eq!(firsts, ascending);
    let tail: Vec<&str> = front[24..].iter().map(|p| p.label.as_str()).collect();
    assert_eq!(
        tail,
        vec!["nan-a", "nan-b"],
        "NaN rows last, in input order"
    );
}
