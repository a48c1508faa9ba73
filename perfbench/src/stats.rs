//! Order statistics over timing samples.

/// The `q`-quantile of `samples` by nearest rank (`q` in `[0, 1]`), or 0
/// for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest rank, lower middle for even counts).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q`-quantile, or an error when fewer than ten samples lie beyond
/// it — a tail percentile needs that many to mean anything.
pub fn tail(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    let beyond = samples.len() as f64 * (1.0 - q);
    if beyond < 10.0 {
        return Err(format!(
            "{what}: {} samples leave {beyond:.1} beyond the {q} quantile, need 10",
            samples.len()
        ));
    }
    Ok(quantile(samples, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&s), 50.0);
        assert_eq!(quantile(&s, 0.95), 95.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        let s: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(tail(&s, 0.95, "x").is_err());
        let s: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(tail(&s, 0.95, "x").is_ok());
    }
}
