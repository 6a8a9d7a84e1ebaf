//! Fairness indices.
//!
//! Fairness in Gandiva_fair is judged on *entitlement-normalized service*:
//! each user's received GPU time divided by what their tickets entitle them
//! to. A perfectly fair scheduler gives every active user the same
//! normalized service, yielding a Jain index of 1.0 and a max-min ratio of
//! 1.0.

pub use gfair_types::fairness::{gini, jain_index};

/// Ratio of the minimum to the maximum value (1.0 = perfectly balanced,
/// 0.0 = someone got nothing). Returns 1.0 for empty input.
pub fn max_min_ratio(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if max <= 0.0 {
        1.0
    } else {
        (min / max).max(0.0)
    }
}

/// Divides each received amount by its entitlement, yielding the normalized
/// service vector fairness indices are computed over.
///
/// Entries with zero entitlement are skipped (an entitled share of zero
/// cannot be violated).
///
/// # Panics
///
/// Panics if the two slices have different lengths.
pub fn normalized_shares(received: &[f64], entitled: &[f64]) -> Vec<f64> {
    assert_eq!(
        received.len(),
        entitled.len(),
        "received and entitled must align"
    );
    received
        .iter()
        .zip(entitled)
        .filter(|(_, &e)| e > 0.0)
        .map(|(&r, &e)| r / e)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_of_equal_values_is_one() {
        assert!((jain_index(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_of_monopoly_is_one_over_n() {
        let j = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_degenerate_inputs() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_index(&[3.0]), 1.0);
    }

    #[test]
    fn gini_known_values() {
        assert_eq!(gini(&[5.0, 5.0, 5.0]), 0.0);
        // Monopoly among n users: (n - 1) / n.
        assert!((gini(&[0.0, 0.0, 0.0, 12.0]) - 0.75).abs() < 1e-12);
        // Order-independent.
        assert!((gini(&[1.0, 2.0, 3.0]) - gini(&[3.0, 1.0, 2.0])).abs() < 1e-12);
    }

    #[test]
    fn gini_degenerate_inputs() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[7.0]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn max_min_basic() {
        assert!((max_min_ratio(&[1.0, 2.0, 4.0]) - 0.25).abs() < 1e-12);
        assert_eq!(max_min_ratio(&[2.0, 2.0]), 1.0);
        assert_eq!(max_min_ratio(&[]), 1.0);
        assert_eq!(max_min_ratio(&[0.0, 0.0]), 1.0);
        assert_eq!(max_min_ratio(&[0.0, 1.0]), 0.0);
    }

    #[test]
    fn normalized_shares_divides_by_entitlement() {
        let norm = normalized_shares(&[50.0, 100.0], &[100.0, 100.0]);
        assert_eq!(norm, vec![0.5, 1.0]);
    }

    #[test]
    fn normalized_shares_skips_zero_entitlement() {
        let norm = normalized_shares(&[50.0, 10.0], &[100.0, 0.0]);
        assert_eq!(norm, vec![0.5]);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn normalized_shares_length_mismatch_panics() {
        let _ = normalized_shares(&[1.0], &[1.0, 2.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Jain index is always in (0, 1].
        #[test]
        fn jain_in_unit_interval(values in proptest::collection::vec(0.0f64..100.0, 1..20)) {
            let j = jain_index(&values);
            prop_assert!(j > 0.0 && j <= 1.0 + 1e-12, "jain {j}");
        }
    }
}
