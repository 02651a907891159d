//! Order statistics and the `recommend` list comparator.

use std::collections::{HashMap, HashSet};

/// Fewest samples a percentile must leave above it before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (0–100) of `samples`, by linear interpolation
/// between closest ranks.
///
/// # Errors
///
/// When fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond the
/// percentile: such a figure is one or two outliers, not a tail.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    let beyond = n as f64 * (1.0 - p / 100.0);
    if n == 0 || beyond < MIN_TAIL_SAMPLES as f64 {
        return Err(format!(
            "p{p} of {n} samples leaves {beyond:.1} beyond it, fewer than {MIN_TAIL_SAMPLES}"
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Ok(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// Median (0 for no samples). Unlike [`percentile`] this never refuses:
/// half the samples always lie beyond it.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Largest sample (0 for no samples).
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

fn same_score(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Whether a proxied recommendation list matches the reference by score.
///
/// `reference` is the reference engine's top-k as `(item, score)`, best
/// first; `scores` holds the reference score of every item the reference
/// engine could recommend to that user. The proxied list `got` passes
/// when it has the same length, repeats no item, and its `i`-th item has
/// the reference's `i`-th score. So items of equal score may trade places
/// anywhere, also across the top-k cut, but an item scored lower than the
/// one it displaced fails.
pub fn matches_by_score(
    got: &[String],
    reference: &[(String, f64)],
    scores: &HashMap<String, f64>,
) -> bool {
    if got.len() != reference.len() {
        return false;
    }
    let mut seen = HashSet::new();
    got.iter().zip(reference).all(|(item, (_, want))| {
        seen.insert(item.as_str())
            && scores
                .get(item)
                .is_some_and(|&score| same_score(score, *want))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        // 999 samples leave 9.99 beyond p99: refused.
        assert!(percentile(&v, 99.0).is_err());
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((percentile(&v, 99.0).unwrap() - 989.01).abs() < 1e-9);
        let v: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(percentile(&v, 95.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn median_and_percentile_agree() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&v), 51.0);
        assert_eq!(percentile(&v, 50.0).unwrap(), 51.0);
    }

    fn fixture() -> (Vec<(String, f64)>, HashMap<String, f64>) {
        let all = [("a", 9.0), ("b", 7.0), ("c", 5.0), ("d", 5.0), ("e", 1.0)];
        let scores = all.iter().map(|(i, s)| (i.to_string(), *s)).collect();
        let reference = all[..3].iter().map(|(i, s)| (i.to_string(), *s)).collect();
        (reference, scores)
    }

    fn list(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn comparator_accepts_equal_scores_swapped_at_the_cut() {
        let (reference, scores) = fixture();
        assert!(matches_by_score(
            &list(&["a", "b", "c"]),
            &reference,
            &scores
        ));
        // "d" ties "c" at the cut: either may close the list.
        assert!(matches_by_score(
            &list(&["a", "b", "d"]),
            &reference,
            &scores
        ));
    }

    #[test]
    fn comparator_rejects_a_lower_score_in_a_higher_place() {
        let (reference, scores) = fixture();
        assert!(!matches_by_score(
            &list(&["a", "b", "e"]),
            &reference,
            &scores
        ));
        assert!(!matches_by_score(
            &list(&["a", "c", "b"]),
            &reference,
            &scores
        ));
        assert!(!matches_by_score(&list(&["a", "b"]), &reference, &scores));
        assert!(!matches_by_score(
            &list(&["a", "b", "zz"]),
            &reference,
            &scores
        ));
        assert!(!matches_by_score(
            &list(&["c", "b", "c"]),
            &reference,
            &scores
        ));
    }
}
