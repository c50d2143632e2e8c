//! Order statistics over raw samples.

use std::time::Instant;

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by nearest rank, after sorting
/// them in place. `0.0` for an empty slice.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples grouped into the one-second slices of a window by the instant
/// they belong to (a request's send time).
pub struct Slices(Vec<Vec<f64>>);

impl Slices {
    /// Slice `samples` over the `seconds` seconds from `start`; samples past
    /// the window's end fall into its last slice.
    pub fn new(
        start: Instant,
        seconds: usize,
        samples: impl Iterator<Item = (Instant, f64)>,
    ) -> Self {
        let mut slices = vec![Vec::new(); seconds.max(1)];
        let last = slices.len() - 1;
        for (at, value) in samples {
            let slice = at.saturating_duration_since(start).as_secs() as usize;
            slices[slice.min(last)].push(value);
        }
        Self(slices)
    }

    /// Each non-empty slice's `q`-quantile.
    pub fn each(&mut self, q: f64) -> Vec<f64> {
        self.0
            .iter_mut()
            .filter(|s| !s.is_empty())
            .map(|s| quantile(s, q))
            .collect()
    }

    /// The median over the slices of each slice's `q`-quantile.
    pub fn median_of(&mut self, q: f64) -> f64 {
        median(&mut self.each(q))
    }
}

/// The median over the one-second slices of the `seconds` from `start` of
/// the rate at which `arrivals` came within each slice: the arrivals after
/// its first, over the time from its first to its last. Arrivals past the
/// window's end fall into its last slice.
pub fn median_rate(start: Instant, seconds: usize, arrivals: impl Iterator<Item = Instant>) -> f64 {
    let mut spans: Vec<Option<(Instant, Instant, u64)>> = vec![None; seconds.max(1)];
    let last = spans.len() - 1;
    for at in arrivals {
        let slice = at.saturating_duration_since(start).as_secs() as usize;
        let span = &mut spans[slice.min(last)];
        *span = Some(match *span {
            None => (at, at, 1),
            Some((first, latest, n)) => (first.min(at), latest.max(at), n + 1),
        });
    }
    let mut rates: Vec<f64> = spans
        .into_iter()
        .flatten()
        .filter(|&(first, latest, n)| n > 1 && latest > first)
        .map(|(first, latest, n)| (n - 1) as f64 / (latest - first).as_secs_f64())
        .collect();
    median(&mut rates)
}
