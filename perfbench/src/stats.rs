//! The benchmark's own arithmetic: percentiles, seeded arrival schedules,
//! generator lateness and the `max_rps` ladder rule.
//!
//! Everything here is pure and deterministic so it can be unit-tested
//! without running a workload (`cargo test --manifest-path
//! perfbench/Cargo.toml`).

/// Samples a percentile needs strictly beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it (so p99 needs at least 1000
/// samples, the median at least 20).
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The highest of `candidates` (ascending quantiles) that [`percentile`]
/// can report for `n` samples.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates.iter().rev().copied().find(|&q| {
        let rank = ((q * n as f64).ceil() as usize).max(1);
        n > 0 && rank <= n && n - rank >= MIN_BEYOND
    })
}

/// Median of unsorted values (mean of the middle pair for even lengths);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

/// Completions closer together than this belong to one completion event
/// (the replies of one batch fan out within microseconds).
pub const EVENT_GAP_S: f64 = 2e-4;

/// Rate of ascending completion times: completions after the first event
/// divided by the time from the first event to the last. Counting from an
/// event rather than from a window edge keeps batched completions, which
/// arrive in lumps, from quantizing the rate. `None` with fewer than two
/// events.
pub fn event_rate(times_s: &[f64]) -> Option<f64> {
    let (&first, &last) = (times_s.first()?, times_s.last()?);
    if last - first <= EVENT_GAP_S {
        return None;
    }
    let first_event = times_s
        .iter()
        .take_while(|&&t| t - first <= EVENT_GAP_S)
        .count();
    Some((times_s.len() - first_event) as f64 / (last - first))
}

/// The [`event_rate`] of each full `window_s` window of a phase lasting
/// `span_s` that holds two completion events; `times_s` are ascending
/// completion times from the phase start. Their median is the phase's
/// rate: a stall on a shared host then moves a few windows, not the
/// result.
pub fn window_rates(times_s: &[f64], span_s: f64, window_s: f64) -> Vec<f64> {
    let windows = (span_s / window_s).floor() as usize;
    (0..windows)
        .filter_map(|w| {
            let (lo, hi) = (w as f64 * window_s, (w + 1) as f64 * window_s);
            let from = times_s.partition_point(|&t| t < lo);
            let to = times_s.partition_point(|&t| t < hi);
            event_rate(&times_s[from..to])
        })
        .collect()
}

/// SplitMix64: the benchmark's own seeded generator, independent of the
/// program's RNGs so a program change cannot alter the workload.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Due times, in seconds from the schedule start, of a Poisson arrival
/// process at `rate` per second over `duration_s`: exponential gaps drawn
/// from the seeded generator, so one seed always gives one schedule.
pub fn poisson_schedule(rate: f64, duration_s: f64, seed: u64, stream: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed, stream);
    let mut due = Vec::with_capacity((rate * duration_s * 1.2) as usize + 8);
    let mut t = 0.0;
    loop {
        // 1 − U lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= duration_s {
            return due;
        }
        due.push(t);
    }
}

/// How late an open-loop generator ran: for each job, the gap between its
/// due time and the moment it was actually sent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Lateness {
    /// Jobs accounted.
    pub count: u64,
    /// Sum of lateness, ms.
    pub total_ms: f64,
    /// Largest lateness seen, ms.
    pub max_ms: f64,
}

impl Lateness {
    /// Accounts one send at `sent_s` of a job due at `due_s` (seconds on
    /// one clock); a send ahead of its due time counts as on time.
    pub fn record(&mut self, due_s: f64, sent_s: f64) {
        let late_ms = ((sent_s - due_s) * 1e3).max(0.0);
        self.count += 1;
        self.total_ms += late_ms;
        self.max_ms = self.max_ms.max(late_ms);
    }

    /// Folds another account into this one.
    pub fn merge(&mut self, other: &Lateness) {
        self.count += other.count;
        self.total_ms += other.total_ms;
        self.max_ms = self.max_ms.max(other.max_ms);
    }

    /// Mean lateness, ms (0 when nothing was sent).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ms / self.count as f64
        }
    }
}

/// What one rung of the rate ladder observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests due on the rung (sent or not).
    pub due: usize,
    /// Requests answered within the latency limit.
    pub within_limit: usize,
    /// Requests answered, or still outstanding, past the limit.
    pub over_limit: usize,
    /// Requests refused by the system (queue full).
    pub shed: usize,
    /// Requests that failed outright.
    pub failed: usize,
    /// Latencies, ms from due time, in due order (answered requests only).
    pub latencies_ms: Vec<f64>,
}

/// Share of a rung's requests allowed to miss the limit: the rule is
/// "p99 under the limit", and a refused or failed request counts as a miss.
pub const MISS_SHARE: f64 = 0.01;

/// Misses a rung of `due` requests may have and still pass.
pub fn miss_budget(due: usize) -> usize {
    (due as f64 * MISS_SHARE).floor() as usize
}

/// Misses after which a rung is abandoned as clearly failed: five times
/// the budget, so one early stall on a shared host does not decide it.
pub fn abandon_after(due: usize) -> usize {
    5 * miss_budget(due) + 5
}

/// Whether latency kept rising through the rung: the median of its last
/// quarter exceeds twice the median of its first quarter by more than a
/// tenth of the limit. A queue that the system cannot drain shows up here
/// before it breaches the limit.
pub fn backlog_growing(latencies_ms: &[f64], limit_ms: f64) -> bool {
    let quarter = latencies_ms.len() / 4;
    if quarter < 5 {
        return false;
    }
    let first = median(&latencies_ms[..quarter]).unwrap_or(0.0);
    let last = median(&latencies_ms[latencies_ms.len() - quarter..]).unwrap_or(0.0);
    last > 2.0 * first + 0.1 * limit_ms
}

/// The ladder rule: a rung passes when nothing was shed, at most
/// [`miss_budget`] requests missed the limit (p99 under the limit) and the
/// backlog did not grow.
pub fn rung_passes(rung: &Rung, limit_ms: f64) -> bool {
    rung.due > 0
        && rung.shed == 0
        && rung.over_limit + rung.failed <= miss_budget(rung.due)
        && !backlog_growing(&rung.latencies_ms, limit_ms)
}

/// A fixed geometric ladder of rates from `lo` up to at most `hi`, each
/// rung `step` times the one below.
pub fn ladder(lo: f64, hi: f64, step: f64) -> Vec<f64> {
    let mut rates = Vec::new();
    let mut r = lo;
    while r <= hi * (1.0 + 1e-9) {
        rates.push(r);
        r *= step;
    }
    rates
}

/// The highest ladder rate that passes, found by bisection (the rule is
/// monotone in the rate up to noise), probing each chosen rung with
/// `probe`. A rung that fails is probed once more and passes if the retry
/// does, so one stall on a shared host cannot halve the result. Returns
/// the rate (`None` if even the lowest rung fails) and every rung probed,
/// in probe order.
pub fn max_passing_rate(
    rates: &[f64],
    limit_ms: f64,
    mut probe: impl FnMut(f64) -> Rung,
) -> (Option<f64>, Vec<Rung>) {
    // Invariant: every index <= `pass` passed (or is the virtual -1), and
    // every index >= `fail` failed (or is the virtual len).
    let mut pass: isize = -1;
    let mut fail: isize = rates.len() as isize;
    let mut probed = Vec::new();
    while fail - pass > 1 {
        let mid = pass + (fail - pass) / 2;
        let rate = rates[mid as usize];
        let mut passed = false;
        for _ in 0..2 {
            let rung = probe(rate);
            passed = rung_passes(&rung, limit_ms);
            probed.push(rung);
            if passed {
                break;
            }
        }
        if passed {
            pass = mid;
        } else {
            fail = mid;
        }
    }
    let best = (pass >= 0).then(|| rates[pass as usize]);
    (best, probed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples: rank 990, exactly 10 beyond.
        assert_eq!(percentile(&ascending(1000), 0.99), Some(990.0));
        // 999 samples: rank 990, only 9 beyond.
        assert_eq!(percentile(&ascending(999), 0.99), None);
        // The median needs 20 samples: rank 10 of 20 has 10 beyond.
        assert_eq!(percentile(&ascending(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ascending(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&ascending(100), 1.0), None);
    }

    #[test]
    fn highest_supported_percentile_follows_sample_count() {
        let qs = [0.5, 0.9, 0.99, 0.999];
        assert_eq!(highest_supported(10, &qs), None);
        assert_eq!(highest_supported(100, &qs), Some(0.9));
        assert_eq!(highest_supported(1000, &qs), Some(0.99));
        assert_eq!(highest_supported(10_000, &qs), Some(0.999));
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn event_rate_ignores_how_completions_are_lumped() {
        // Batches of 4 every 10 ms: 400/s, whatever the lumping.
        let lumped: Vec<f64> = (0..10)
            .flat_map(|b| (0..4).map(move |j| b as f64 * 0.01 + j as f64 * 1e-6))
            .collect();
        let rate = event_rate(&lumped).expect("ten events");
        assert!((rate - 400.0).abs() < 1.0, "lumped rate {rate}");
        let even: Vec<f64> = (0..40).map(|i| i as f64 * 0.0025).collect();
        assert!((event_rate(&even).expect("40 events") - 400.0).abs() < 1e-6);
        assert_eq!(event_rate(&[0.1, 0.1]), None, "one event has no rate");
        assert_eq!(event_rate(&[]), None);
    }

    #[test]
    fn window_rates_skip_idle_and_partial_windows() {
        // One completion per 10 ms, except a 100 ms stall at 0.4–0.5 s.
        let mut times: Vec<f64> = (0..40).map(|i| 0.005 + i as f64 * 0.01).collect();
        times.extend((0..10).map(|i| 0.505 + i as f64 * 0.01));
        let rates = window_rates(&times, 0.65, 0.1);
        assert_eq!(
            rates.len(),
            5,
            "the stalled and the partial window drop out"
        );
        let rate = median(&rates).expect("five busy windows");
        assert!((rate - 100.0).abs() < 1e-6, "stall ignored: {rate}");
        assert!(window_rates(&times, 0.05, 0.1).is_empty());
    }

    #[test]
    fn poisson_schedule_is_reproducible_from_the_seed() {
        let a = poisson_schedule(200.0, 5.0, 7, 1);
        let b = poisson_schedule(200.0, 5.0, 7, 1);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(200.0, 5.0, 8, 1), "seed changes it");
        assert_ne!(a, poisson_schedule(200.0, 5.0, 7, 2), "stream changes it");
        // Ascending, inside the window, and close to rate × duration
        // (1000 expected; 5 standard deviations is about ±160).
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..5.0).contains(&t)));
        assert!((840..=1160).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn lateness_counts_only_late_sends() {
        let mut late = Lateness::default();
        late.record(1.0, 0.999); // early: on time
        late.record(2.0, 2.004); // 4 ms late
        late.record(3.0, 3.001); // 1 ms late
        assert_eq!(late.count, 3);
        assert!((late.max_ms - 4.0).abs() < 1e-9);
        assert!((late.mean_ms() - 5.0 / 3.0).abs() < 1e-9);
        let mut other = Lateness::default();
        other.record(0.0, 0.010);
        late.merge(&other);
        assert_eq!(late.count, 4);
        assert!((late.max_ms - 10.0).abs() < 1e-9);
        assert_eq!(Lateness::default().mean_ms(), 0.0);
    }

    fn rung(due: usize, over: usize, shed: usize, failed: usize) -> Rung {
        Rung {
            rate: 100.0,
            due,
            within_limit: due - over - shed - failed,
            over_limit: over,
            shed,
            failed,
            latencies_ms: vec![1.0; due - shed - failed],
        }
    }

    #[test]
    fn ladder_rule_allows_one_percent_misses_and_no_shedding() {
        assert!(rung_passes(&rung(500, 5, 0, 0), 10.0));
        assert!(!rung_passes(&rung(500, 6, 0, 0), 10.0));
        assert!(rung_passes(&rung(500, 3, 0, 2), 10.0));
        assert!(!rung_passes(&rung(500, 3, 0, 3), 10.0));
        assert!(!rung_passes(&rung(500, 0, 1, 0), 10.0), "any shed fails");
        assert!(!rung_passes(&rung(0, 0, 0, 0), 10.0), "an empty rung fails");
    }

    #[test]
    fn ladder_rule_rejects_a_growing_backlog() {
        let mut growing = rung(400, 0, 0, 0);
        growing.latencies_ms = (0..400).map(|i| 1.0 + i as f64 * 0.02).collect();
        assert!(backlog_growing(&growing.latencies_ms, 10.0));
        assert!(!rung_passes(&growing, 10.0));
        let mut flat = rung(400, 0, 0, 0);
        flat.latencies_ms = (0..400).map(|i| 2.0 + (i % 7) as f64 * 0.1).collect();
        assert!(!backlog_growing(&flat.latencies_ms, 10.0));
        assert!(rung_passes(&flat, 10.0));
    }

    #[test]
    fn ladder_is_geometric_and_bounded() {
        let rates = ladder(100.0, 200.0, 1.25);
        assert_eq!(rates.len(), 4);
        assert!((rates[3] - 195.3125).abs() < 1e-9);
    }

    #[test]
    fn bisection_finds_the_highest_passing_rung() {
        let rates = ladder(10.0, 10_000.0, 1.1);
        let capacity = 777.0;
        let probe = |rate: f64| {
            let mut r = rung(1000, if rate <= capacity { 0 } else { 50 }, 0, 0);
            r.rate = rate;
            r
        };
        let (best, probed) = max_passing_rate(&rates, 10.0, probe);
        let best = best.expect("low rungs pass");
        assert!(best <= capacity && best * 1.1 > capacity, "best {best}");
        assert!(
            probed.len() <= 16,
            "bisection probes log2(n) rungs, failures twice"
        );
        let (none, _) = max_passing_rate(&rates, 10.0, |_| rung(100, 100, 0, 0));
        assert_eq!(none, None);
    }

    #[test]
    fn one_stalled_probe_does_not_decide_a_rung() {
        let rates = ladder(10.0, 10_000.0, 1.1);
        let capacity = 777.0;
        let mut first = true;
        let (best, probed) = max_passing_rate(&rates, 10.0, |rate| {
            // The very first probe hits a stall; its retry runs clean.
            let stalled = std::mem::take(&mut first);
            let mut r = rung(1000, if stalled || rate > capacity { 50 } else { 0 }, 0, 0);
            r.rate = rate;
            r
        });
        let best = best.expect("low rungs pass");
        assert!(best * 1.1 > capacity, "best {best}: the stall was retried");
        assert_eq!(
            probed[0].rate, probed[1].rate,
            "the failed rung was probed again"
        );
    }
}
