//! The two fairness indices every report states: Jain's index and the Gini
//! coefficient. They live here, below both the fairness ledger
//! (`gfair-obs`) and the metrics crate (`gfair-metrics`, which re-exports
//! them), so both compute them with the same arithmetic.

/// Jain's fairness index of a set of non-negative values.
///
/// `(sum x)^2 / (n * sum x^2)`; 1.0 means perfectly equal, `1/n` means one
/// value holds everything. Returns 1.0 for empty or all-zero input (nothing
/// is unfair about nothing).
///
/// # Examples
///
/// ```
/// use gfair_types::fairness::jain_index;
///
/// assert_eq!(jain_index(&[1.0, 1.0, 1.0]), 1.0);
/// assert!((jain_index(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
/// ```
pub fn jain_index(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (values.len() as f64 * sum_sq)
}

/// Gini coefficient of a set of non-negative values.
///
/// 0.0 means perfectly equal, approaching 1.0 means one value holds
/// everything. Returns 0.0 for inputs with fewer than two values or a
/// non-positive sum (nothing is unequal about nothing).
///
/// # Examples
///
/// ```
/// use gfair_types::fairness::gini;
///
/// assert_eq!(gini(&[5.0, 5.0, 5.0]), 0.0);
/// assert!((gini(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
/// ```
pub fn gini(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let sum: f64 = values.iter().sum();
    if sum <= 0.0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let nf = n as f64;
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, v)| (i as f64 + 1.0) * v)
        .sum();
    (2.0 * weighted) / (nf * sum) - (nf + 1.0) / nf
}
