//! The Bit-Flip weight perturbation (Section III-D, Fig. 4c).
//!
//! Bit-Flip is a *one-shot, training-free* optimisation: it rewrites each
//! weight group so that at least a target number of bit columns become zero,
//! choosing per group the replacement vector **closest in Euclidean distance
//! to the original** (the paper's example: `-3 → -4` at distance 1 frees a
//! bit column).  Because the constraint is "at most `8 - target` non-zero
//! columns", the search space per group is the set of 8-bit column masks of
//! bounded population count; for every candidate mask the best replacement of
//! each weight is the nearest value whose sign-magnitude encoding uses only
//! allowed columns.

use crate::error::CoreError;
use crate::group::{extract_groups, reassemble_tensor, GroupSize};
use bitwave_tensor::bitplane::GroupPlanes;
use bitwave_tensor::bits::{zero_column_count, Encoding, WORD_BITS};
use bitwave_tensor::metrics::euclidean_distance_i8;
use bitwave_tensor::QuantTensor;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Result of flipping one weight group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlipOutcome {
    /// The flipped weight group.
    pub flipped: Vec<i8>,
    /// Euclidean distance between the original and the flipped group.
    pub distance: f64,
    /// Zero-column count of the flipped group (always ≥ the requested
    /// target).
    pub achieved_zero_columns: u32,
}

/// Aggregate statistics of flipping a whole weight slice or tensor.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FlipStats {
    /// Number of groups processed.
    pub groups: usize,
    /// Number of groups that had to be modified.
    pub groups_modified: usize,
    /// Root-mean-square perturbation over all weights.
    pub rms_perturbation: f64,
    /// Mean number of zero columns per group after flipping.
    pub mean_zero_columns: f64,
}

/// Flips a single group so that it has at least `target_zero_columns` zero
/// bit-columns under `encoding`, minimising the Euclidean distance to the
/// original group.
///
/// `target_zero_columns` is clamped to `0..=8`.  A target of 8 forces the
/// whole group to zero.
///
/// The search runs on the group's packed bitplanes and a per-encoding
/// projection table.  For each candidate column mask, the OR of the
/// *disallowed* planes flags exactly the elements a projection must modify
/// (every flagged element moves by at least 1, every clean element projects
/// to itself), so `popcount(dirty)` is a free lower bound on the mask's
/// cost.  The mask with the lowest bound is priced first to seed a tight
/// budget; the rest are then scanned in ascending order, skipped when their
/// bound cannot beat the incumbent, and priced as a sum of squared-delta
/// table lookups over their flagged elements that stops once the budget is
/// exceeded.  Only the winning mask's group is materialized.
///
/// The result is identical to the exhaustive scalar search
/// ([`flip_group_scalar`]): both select the mask with the lexicographically
/// smallest `(cost, mask)` pair over exact integer costs, which is what an
/// ascending scan replacing the incumbent only on strictly smaller cost
/// picks.
///
/// # Errors
///
/// Returns [`CoreError::InvalidGroupLength`] if `group` is empty or longer
/// than 64 elements (the hardware group sizes are 8/16/32).
pub fn flip_group(
    group: &[i8],
    target_zero_columns: u32,
    encoding: Encoding,
) -> Result<FlipOutcome, CoreError> {
    let mut flipped = group.to_vec();
    let (cost, achieved) = flip_in_place(&mut flipped, target_zero_columns, encoding)?;
    Ok(FlipOutcome {
        flipped,
        // Squared distances are sums of at most 64 squares of |d| <= 255,
        // far below 2^53: the integer cost converts to f64 exactly.
        distance: f64::from(cost).sqrt(),
        achieved_zero_columns: achieved,
    })
}

/// [`flip_group`] on a mutable group: rewrites it in place and returns the
/// squared Euclidean distance moved and the achieved zero-column count.
fn flip_in_place(
    group: &mut [i8],
    target_zero_columns: u32,
    encoding: Encoding,
) -> Result<(u32, u32), CoreError> {
    if group.is_empty() || group.len() > 64 {
        return Err(CoreError::InvalidGroupLength(group.len()));
    }
    let target = target_zero_columns.min(WORD_BITS as u32);
    let planes = GroupPlanes::pack(group, encoding);
    let current = (!planes.nonzero_column_mask()).count_ones();
    if current >= target {
        return Ok((0, current));
    }

    // Larger allowed sets dominate smaller ones, so only the masks with
    // exactly `8 - target` allowed columns need to be searched.
    let masks = masks_with_popcount(WORD_BITS as u32 - target);
    let mut dirty = [0u64; MAX_CANDIDATE_MASKS];
    let mut bounds = [0u32; MAX_CANDIDATE_MASKS];
    for ((word, bound), &mask) in dirty.iter_mut().zip(&mut bounds).zip(masks) {
        *word = planes.outside_mask(mask);
        *bound = word.count_ones();
    }
    let (dirty, bounds) = (&dirty[..masks.len()], &bounds[..masks.len()]);
    let table = ProjectionTable::get(encoding);

    // `best` is `(cost, index)`; indices follow ascending mask order, so
    // comparing indices compares masks.
    let seed = (0..masks.len())
        .min_by_key(|&k| bounds[k])
        .expect("at least one mask with the requested popcount always exists");
    let seed_cost = price(
        group,
        dirty[seed],
        &table.squared_delta[usize::from(masks[seed])],
        u32::MAX,
    );
    let mut best = (seed_cost, seed);
    for k in 0..masks.len() {
        // The largest cost at which mask `k` still wins on `(cost, mask)`.
        let limit = if k < best.1 {
            best.0
        } else if k > best.1 && best.0 > 0 {
            best.0 - 1
        } else {
            continue;
        };
        if bounds[k] > limit {
            continue;
        }
        let cost = price(
            group,
            dirty[k],
            &table.squared_delta[usize::from(masks[k])],
            limit,
        );
        if cost <= limit {
            best = (cost, k);
        }
    }

    let (cost, k) = best;
    let nearest = &table.nearest[usize::from(masks[k])];
    let mut remaining = dirty[k];
    while remaining != 0 {
        let i = remaining.trailing_zeros() as usize;
        remaining &= remaining - 1;
        group[i] = nearest[usize::from(group[i] as u8)];
    }
    let achieved = zero_column_count(group, encoding);
    debug_assert!(achieved >= target);
    Ok((cost, achieved))
}

/// Sum of the squared deltas of the `dirty` elements of `group` under one
/// mask's table row, stopping as soon as the sum exceeds `limit`.
#[inline]
fn price(group: &[i8], dirty: u64, squared_delta: &[u16; 256], limit: u32) -> u32 {
    let mut cost = 0u32;
    let mut remaining = dirty;
    while remaining != 0 {
        let i = remaining.trailing_zeros() as usize;
        remaining &= remaining - 1;
        cost += u32::from(squared_delta[usize::from(group[i] as u8)]);
        if cost > limit {
            break;
        }
    }
    cost
}

/// Most masks sharing one population count: `C(8, 4)`.
const MAX_CANDIDATE_MASKS: usize = 70;

/// Every 8-bit column mask ordered by population count, ascending within a
/// count, plus the start offset of each count (count `n` spans
/// `offsets[n]..offsets[n + 1]`).
const MASKS_BY_POPCOUNT: ([u8; 256], [usize; 10]) = {
    let mut masks = [0u8; 256];
    let mut offsets = [0usize; 10];
    let mut next = 0;
    let mut popcount = 0;
    while popcount <= 8 {
        offsets[popcount] = next;
        let mut mask = 0usize;
        while mask < 256 {
            if (mask as u8).count_ones() as usize == popcount {
                masks[next] = mask as u8;
                next += 1;
            }
            mask += 1;
        }
        popcount += 1;
    }
    offsets[9] = next;
    (masks, offsets)
};

/// The masks with exactly `popcount` allowed columns, in ascending order.
fn masks_with_popcount(popcount: u32) -> &'static [u8] {
    let (masks, offsets) = &MASKS_BY_POPCOUNT;
    let n = popcount as usize;
    &masks[offsets[n]..offsets[n + 1]]
}

/// Per-encoding projection table: for every column mask and every `i8`
/// (indexed by its byte), the nearest value whose encoding uses only the
/// allowed columns and its squared distance.  Built once from the scalar
/// reference projection ([`project_group`]), so it is correct by
/// construction.
struct ProjectionTable {
    nearest: Box<[[i8; 256]; 256]>,
    squared_delta: Box<[[u16; 256]; 256]>,
}

impl ProjectionTable {
    fn get(encoding: Encoding) -> &'static Self {
        static SIGN_MAGNITUDE: OnceLock<ProjectionTable> = OnceLock::new();
        static TWOS_COMPLEMENT: OnceLock<ProjectionTable> = OnceLock::new();
        let cell = match encoding {
            Encoding::SignMagnitude => &SIGN_MAGNITUDE,
            Encoding::TwosComplement => &TWOS_COMPLEMENT,
        };
        cell.get_or_init(|| Self::build(encoding))
    }

    fn build(encoding: Encoding) -> Self {
        let values: Vec<i8> = (0..=255u8).map(|byte| byte as i8).collect();
        let mut nearest = vec![[0i8; 256]; 256];
        let mut squared_delta = vec![[0u16; 256]; 256];
        for (mask, (nearest_row, squared_row)) in
            nearest.iter_mut().zip(squared_delta.iter_mut()).enumerate()
        {
            let projected = project_group(&values, mask as u8, encoding);
            for ((&value, &replacement), (slot, squared)) in values
                .iter()
                .zip(&projected)
                .zip(nearest_row.iter_mut().zip(squared_row.iter_mut()))
            {
                let d = i32::from(value).abs_diff(i32::from(replacement));
                *slot = replacement;
                *squared = u16::try_from(d * d).expect("|d| <= 255 squares into u16");
            }
        }
        Self {
            nearest: nearest.into_boxed_slice().try_into().expect("256 rows"),
            squared_delta: squared_delta
                .into_boxed_slice()
                .try_into()
                .expect("256 rows"),
        }
    }
}

/// The pre-bitplane exhaustive search, kept as the reference implementation
/// for the scalar≡bitplane equivalence tests and the `bench_bitflip`
/// comparison; behaviourally identical to [`flip_group`].
///
/// # Errors
///
/// Returns [`CoreError::InvalidGroupLength`] if `group` is empty or longer
/// than 64 elements.
pub fn flip_group_scalar(
    group: &[i8],
    target_zero_columns: u32,
    encoding: Encoding,
) -> Result<FlipOutcome, CoreError> {
    if group.is_empty() || group.len() > 64 {
        return Err(CoreError::InvalidGroupLength(group.len()));
    }
    let target = target_zero_columns.min(WORD_BITS as u32);
    let current = zero_column_count(group, encoding);
    if current >= target {
        return Ok(FlipOutcome {
            flipped: group.to_vec(),
            distance: 0.0,
            achieved_zero_columns: current,
        });
    }

    let allowed_nonzero = WORD_BITS as u32 - target;
    let mut best: Option<(Vec<i8>, f64)> = None;
    for mask in 0u16..=0xFF {
        let mask = mask as u8;
        if mask.count_ones() != allowed_nonzero {
            continue;
        }
        let candidate = project_group(group, mask, encoding);
        let cost = squared_distance(group, &candidate);
        match &best {
            Some((_, best_cost)) if *best_cost <= cost => {}
            _ => best = Some((candidate, cost)),
        }
    }
    let (flipped, cost) =
        best.expect("at least one mask with the requested popcount always exists");
    let achieved = zero_column_count(&flipped, encoding);
    debug_assert!(achieved >= target);
    Ok(FlipOutcome {
        distance: cost.sqrt(),
        achieved_zero_columns: achieved,
        flipped,
    })
}

/// Projects every weight of `group` onto the nearest value whose encoding
/// uses only the columns allowed by `mask`.
fn project_group(group: &[i8], mask: u8, encoding: Encoding) -> Vec<i8> {
    match encoding {
        Encoding::SignMagnitude => {
            let magnitudes = representable_magnitudes(mask & 0x7F);
            let sign_allowed = mask & 0x80 != 0;
            group
                .iter()
                .map(|&w| nearest_sign_magnitude(w, &magnitudes, sign_allowed))
                .collect()
        }
        Encoding::TwosComplement => {
            let values = representable_twos_complement(mask);
            group.iter().map(|&w| nearest_value(w, &values)).collect()
        }
    }
}

/// All magnitudes expressible using only the allowed magnitude bits, sorted
/// ascending.
fn representable_magnitudes(allowed: u8) -> Vec<u8> {
    let mut out = Vec::new();
    // Iterate over all submasks of `allowed` (including 0).
    let mut sub = allowed;
    loop {
        out.push(sub);
        if sub == 0 {
            break;
        }
        sub = (sub - 1) & allowed;
    }
    out.sort_unstable();
    out
}

/// All two's-complement byte values whose set bits are within `allowed`,
/// decoded to `i8` and sorted.
fn representable_twos_complement(allowed: u8) -> Vec<i8> {
    let mut out = Vec::new();
    let mut sub = allowed;
    loop {
        out.push(sub as i8);
        if sub == 0 {
            break;
        }
        sub = (sub - 1) & allowed;
    }
    out.sort_unstable();
    out
}

fn nearest_sign_magnitude(value: i8, magnitudes: &[u8], sign_allowed: bool) -> i8 {
    let target_magnitude = i16::from(value).unsigned_abs() as u8;
    let nearest_mag = nearest_in_sorted_u8(target_magnitude, magnitudes);
    if value >= 0 {
        nearest_mag as i8
    } else if sign_allowed {
        -(i16::from(nearest_mag)) as i8
    } else {
        // Sign column must stay zero: the best non-negative replacement of a
        // negative value is the smallest representable magnitude (including 0).
        magnitudes[0] as i8
    }
}

fn nearest_in_sorted_u8(target: u8, sorted: &[u8]) -> u8 {
    debug_assert!(!sorted.is_empty());
    let mut best = sorted[0];
    let mut best_dist = i16::from(best).abs_diff(i16::from(target));
    for &m in sorted {
        let d = i16::from(m).abs_diff(i16::from(target));
        if d < best_dist {
            best = m;
            best_dist = d;
        }
    }
    best
}

fn nearest_value(value: i8, sorted: &[i8]) -> i8 {
    debug_assert!(!sorted.is_empty());
    let mut best = sorted[0];
    let mut best_dist = (i16::from(best) - i16::from(value)).unsigned_abs();
    for &v in sorted {
        let d = (i16::from(v) - i16::from(value)).unsigned_abs();
        if d < best_dist {
            best = v;
            best_dist = d;
        }
    }
    best
}

fn squared_distance(a: &[i8], b: &[i8]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum()
}

/// Flips every group of a flat weight slice.  Returns the flipped weights and
/// aggregate statistics.
///
/// # Errors
///
/// Returns [`CoreError::InvalidGroupLength`] for group sizes outside `1..=64`.
pub fn flip_slice(
    weights: &[i8],
    group_size: GroupSize,
    target_zero_columns: u32,
    encoding: Encoding,
) -> Result<(Vec<i8>, FlipStats), CoreError> {
    let mut out = weights.to_vec();
    let mut stats = FlipStats::default();
    let mut squared_sum = 0.0f64;
    let mut zero_cols = 0u64;
    for chunk in out.chunks_mut(group_size.len()) {
        let (cost, achieved) = flip_in_place(chunk, target_zero_columns, encoding)?;
        stats.groups += 1;
        if cost > 0 {
            stats.groups_modified += 1;
        }
        // Squaring the rounded distance, as summing `FlipOutcome`s does.
        let distance = f64::from(cost).sqrt();
        squared_sum += distance * distance;
        zero_cols += u64::from(achieved);
    }
    if stats.groups > 0 && !weights.is_empty() {
        stats.rms_perturbation = (squared_sum / weights.len() as f64).sqrt();
        stats.mean_zero_columns = zero_cols as f64 / stats.groups as f64;
    }
    Ok((out, stats))
}

/// Flips a whole weight tensor, grouping along the input-channel axis exactly
/// as [`extract_groups`] does, and returns the flipped tensor plus stats.
///
/// # Errors
///
/// Returns [`CoreError::UnsupportedRank`] for ungroupable tensors and
/// [`CoreError::InvalidGroupLength`] for group sizes outside `1..=64`.
pub fn flip_tensor(
    tensor: &QuantTensor,
    group_size: GroupSize,
    target_zero_columns: u32,
    encoding: Encoding,
) -> Result<(QuantTensor, FlipStats), CoreError> {
    let mut groups = extract_groups(tensor, group_size)?;
    let mut stats = FlipStats::default();
    let mut zero_cols = 0u64;
    for group in groups.iter_mut() {
        let (cost, achieved) = flip_in_place(group, target_zero_columns, encoding)?;
        stats.groups += 1;
        if cost > 0 {
            stats.groups_modified += 1;
        }
        zero_cols += u64::from(achieved);
    }
    let flipped = reassemble_tensor(tensor, &groups)?;
    if stats.groups > 0 {
        stats.mean_zero_columns = zero_cols as f64 / stats.groups as f64;
    }
    let exact_distance = euclidean_distance_i8(tensor.data(), flipped.data());
    stats.rms_perturbation = exact_distance / (tensor.data().len().max(1) as f64).sqrt();
    Ok((flipped, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwave_tensor::prelude::*;
    use bitwave_tensor::quant::QuantParams;
    use proptest::prelude::*;

    #[test]
    fn already_sparse_group_is_untouched() {
        let group = [0i8, 1, 0, 1];
        let out = flip_group(&group, 4, Encoding::SignMagnitude).unwrap();
        assert_eq!(out.flipped, group);
        assert_eq!(out.distance, 0.0);
    }

    #[test]
    fn paper_example_minus_three_flips_to_minus_four() {
        // Fig. 4(c): targeting five zero columns tunes -3 to -4 at distance 1.
        // Build a group whose other elements already only use bit 2 and the sign.
        let group = [-3i8, 4, -4, 4];
        let out = flip_group(&group, 6, Encoding::SignMagnitude).unwrap();
        assert_eq!(out.flipped, vec![-4, 4, -4, 4]);
        assert_eq!(out.distance, 1.0);
        assert!(out.achieved_zero_columns >= 6);
    }

    #[test]
    fn target_eight_zero_columns_forces_all_zero() {
        let group = [13i8, -77, 3, 120];
        let out = flip_group(&group, 8, Encoding::SignMagnitude).unwrap();
        assert!(out.flipped.iter().all(|&v| v == 0));
        assert_eq!(out.achieved_zero_columns, 8);
    }

    #[test]
    fn target_zero_never_changes_anything() {
        let group = [13i8, -77, 3, 120];
        let out = flip_group(&group, 0, Encoding::SignMagnitude).unwrap();
        assert_eq!(out.flipped, group);
    }

    #[test]
    fn twos_complement_flipping_also_satisfies_constraint() {
        let group = [-3i8, 5, -7, 2, 9, -1, 0, 4];
        for target in 1..=6u32 {
            let out = flip_group(&group, target, Encoding::TwosComplement).unwrap();
            assert!(
                out.achieved_zero_columns >= target,
                "target {target} not met: {:?}",
                out.flipped
            );
        }
    }

    #[test]
    fn distance_grows_monotonically_with_target() {
        let group = [33i8, -75, 14, -2, 91, -60, 7, 8];
        let mut last = 0.0;
        for target in 0..=8u32 {
            let out = flip_group(&group, target, Encoding::SignMagnitude).unwrap();
            assert!(
                out.distance >= last - 1e-9,
                "distance should not decrease with a stricter target"
            );
            last = out.distance;
        }
    }

    #[test]
    fn flip_slice_statistics() {
        let weights: Vec<i8> = (0..64).map(|i| ((i * 7) % 23 - 11) as i8).collect();
        let (flipped, stats) =
            flip_slice(&weights, GroupSize::G8, 5, Encoding::SignMagnitude).unwrap();
        assert_eq!(flipped.len(), weights.len());
        assert_eq!(stats.groups, 8);
        assert!(stats.mean_zero_columns >= 5.0);
        assert!(stats.rms_perturbation > 0.0);
        assert!(stats.groups_modified > 0);
    }

    #[test]
    fn flip_tensor_respects_grouping_axis() {
        let gen = WeightGenerator::new(WeightDistribution::Gaussian { std: 0.05 }, 9);
        let w = gen.generate(Shape::conv_weight(4, 16, 3, 3));
        let q = quantize_per_tensor(&w, 8).unwrap();
        let (flipped, stats) = flip_tensor(&q, GroupSize::G16, 4, Encoding::SignMagnitude).unwrap();
        assert_eq!(flipped.shape(), q.shape());
        assert!(stats.mean_zero_columns >= 4.0);
        // The flipped tensor must reach the column-sparsity target for every group.
        let groups = extract_groups(&flipped, GroupSize::G16).unwrap();
        for g in groups.iter() {
            assert!(zero_column_count(g, Encoding::SignMagnitude) >= 4);
        }
    }

    #[test]
    fn flipping_preserves_quant_params_and_shape() {
        let q = QuantTensor::new(
            Shape::d2(2, 8),
            (0..16).map(|i| (i as i8) - 8).collect(),
            QuantParams::symmetric(0.02, 8),
        )
        .unwrap();
        let (flipped, _) = flip_tensor(&q, GroupSize::G8, 3, Encoding::SignMagnitude).unwrap();
        assert_eq!(flipped.params(), q.params());
        assert_eq!(flipped.shape(), q.shape());
    }

    #[test]
    fn projection_table_matches_scalar_nearest_exhaustively() {
        for encoding in [Encoding::SignMagnitude, Encoding::TwosComplement] {
            let table = ProjectionTable::get(encoding);
            for mask in 0..=255u8 {
                let magnitudes = representable_magnitudes(mask & 0x7F);
                let values = representable_twos_complement(mask);
                for byte in 0..=255u8 {
                    let value = byte as i8;
                    let expected = match encoding {
                        Encoding::SignMagnitude => {
                            nearest_sign_magnitude(value, &magnitudes, mask & 0x80 != 0)
                        }
                        Encoding::TwosComplement => nearest_value(value, &values),
                    };
                    let d = i64::from(value) - i64::from(expected);
                    assert_eq!(
                        table.nearest[usize::from(mask)][usize::from(byte)],
                        expected
                    );
                    assert_eq!(
                        i64::from(table.squared_delta[usize::from(mask)][usize::from(byte)]),
                        d * d,
                        "{encoding:?} mask {mask:#010b} value {value}"
                    );
                }
            }
        }
    }

    #[test]
    fn masks_are_grouped_by_popcount_in_ascending_order() {
        for popcount in 0..=8u32 {
            let expected: Vec<u8> = (0..=255u8).filter(|m| m.count_ones() == popcount).collect();
            assert_eq!(masks_with_popcount(popcount), expected.as_slice());
            assert!(expected.len() <= MAX_CANDIDATE_MASKS);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn constraint_always_satisfied(
            group in proptest::collection::vec(-127i8..=127, 1..=32),
            target in 0u32..=8,
        ) {
            let out = flip_group(&group, target, Encoding::SignMagnitude).unwrap();
            prop_assert!(out.achieved_zero_columns >= target.min(8));
            prop_assert_eq!(out.flipped.len(), group.len());
        }

        #[test]
        fn flip_is_idempotent(
            group in proptest::collection::vec(-127i8..=127, 1..=16),
            target in 0u32..=7,
        ) {
            let once = flip_group(&group, target, Encoding::SignMagnitude).unwrap();
            let twice = flip_group(&once.flipped, target, Encoding::SignMagnitude).unwrap();
            prop_assert_eq!(&twice.flipped, &once.flipped);
            prop_assert_eq!(twice.distance, 0.0);
        }

        #[test]
        fn distance_bounded_by_zeroing_everything(
            group in proptest::collection::vec(-127i8..=127, 1..=16),
            target in 0u32..=8,
        ) {
            // Zeroing the whole group always satisfies any target, so the optimal
            // distance can never exceed the norm of the group.
            let out = flip_group(&group, target, Encoding::SignMagnitude).unwrap();
            let norm = group.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>().sqrt();
            prop_assert!(out.distance <= norm + 1e-9);
        }

        #[test]
        fn bitplane_flip_equals_scalar(
            group in proptest::collection::vec(-127i8..=127, 1..=32),
            target in 0u32..=8,
        ) {
            // The word-parallel search must reproduce the exhaustive scalar
            // search bit for bit: same flipped values, same (exact) distance.
            for encoding in [Encoding::TwosComplement, Encoding::SignMagnitude] {
                let fast = flip_group(&group, target, encoding).unwrap();
                let scalar = flip_group_scalar(&group, target, encoding).unwrap();
                prop_assert_eq!(&fast.flipped, &scalar.flipped);
                prop_assert_eq!(fast.distance, scalar.distance);
                prop_assert_eq!(fast.achieved_zero_columns, scalar.achieved_zero_columns);
            }
        }
    }
}
