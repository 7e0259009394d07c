//! Order statistics over the samples a run collects.

/// Nearest-rank percentile of `samples` for `q` in `[0, 1]`: the
/// smallest sample with at least `q` of the samples at or below it.
/// Sorts in place; `None` when there are no samples.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize).max(1);
    Some(samples[rank - 1])
}

/// Median (lower middle for an even count, as nearest-rank gives it).
pub fn median(samples: &mut [f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_worked_values() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.99), Some(99.0));
        assert_eq!(percentile(&mut v, 0.5), Some(50.0));
        assert_eq!(percentile(&mut v, 1.0), Some(100.0));
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut []), None);
    }
}
