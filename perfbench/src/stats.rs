//! Order statistics over benchmark samples: medians, quartiles in the
//! convention the acceptance check uses, and tail percentiles that only
//! claim what the sample count supports.

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`: the middle value, or the mean of the two middle
/// values for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three cut points `[q1, q2, q3]` exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method)
/// computes them, so spreads printed here match the acceptance check.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let data = sorted(values);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let n = 4usize;
    let m = ld + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..n).zip(cuts.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *cut = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    cuts
}

/// Distance between the first and third quartile as a share of the
/// median (0 when the median is 0).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside (0, 100].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest tail percentile that has at least [`TAIL_SUPPORT`]
/// samples beyond it among `n` samples, or `None` when even p75 lacks
/// that support.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        n >= rank + TAIL_SUPPORT
    })
}

/// A latency summary: median, the highest supported tail, and the
/// sample count both rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median sample.
    pub p50: f64,
    /// The percentile reported as the tail.
    pub tail_pct: f64,
    /// The sample at `tail_pct`.
    pub tail: f64,
    /// Number of samples.
    pub n: usize,
}

/// Summarizes `values` as a median plus the highest tail they support.
/// Returns `None` when there are too few samples for any tail.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let tail_pct = tail_percentile(values.len())?;
    Some(Tail {
        p50: median(values),
        tail_pct,
        tail: percentile(values, tail_pct),
        n: values.len(),
    })
}

/// One ticket of an open-loop run: when it was due, when the generator
/// actually sent it, and when its verdicts came back, all in ns since
/// the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopSample {
    /// Scheduled send time.
    pub due_ns: u64,
    /// Actual send time (the generator may run late).
    pub sent_ns: u64,
    /// Time the verdicts were redeemed.
    pub done_ns: u64,
}

impl OpenLoopSample {
    /// How late the generator sent this ticket.
    pub fn lateness_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }

    /// Latency as a user sees it: from when the ticket was due, so a
    /// generator stall is charged to every ticket it delayed.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }
}

/// Due time of ticket `k` at a fixed offered rate of one ticket every
/// `period_ns`.
pub fn due_ns(k: u64, period_ns: u64) -> u64 {
    k * period_ns
}

/// Which measurement intervals to keep, given the CPU time the
/// hypervisor stole during each: those that lost no more than the
/// median interval did. On a shared virtual machine a neighbour's burst
/// can halve the speed of every thread for seconds at a time; dropping
/// the worse-hit half of the intervals keeps that out of the figures,
/// and keeps every interval when none was hit harder than the others.
pub fn least_stolen(steal: &[u64]) -> Vec<bool> {
    if steal.is_empty() {
        return Vec::new();
    }
    let mut sorted = steal.to_vec();
    sorted.sort_unstable();
    let cut = sorted[(sorted.len() - 1) / 2];
    steal.iter().map(|&s| s <= cut).collect()
}
