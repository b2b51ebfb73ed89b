//! One experiment driver per table and figure of the paper's evaluation.
//!
//! Every driver takes an [`crate::context::ExperimentContext`] and returns a
//! vector of serialisable rows; the benchmark harness prints them as the
//! tables/series the paper reports.  The reproduction table in the
//! README maps each paper result to its driver.

pub mod bitflip;
pub mod evaluation;
pub mod hardware;
pub mod sparsity;

/// Renders a slice of serialisable rows as a pretty-printed JSON array —
/// the common output format of the benchmark harness.
pub fn rows_to_json<T: serde::Serialize>(rows: &[T]) -> String {
    serde_json::to_string_pretty(rows).expect("experiment rows serialise")
}
