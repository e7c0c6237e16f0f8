//! Load generators: closed-loop lanes, paced (open-loop schedule) lanes for
//! the rate ladder, and the open-loop generator + reply collector that
//! submits straight to the batcher.
//!
//! Every generator checks each reply against the offline prediction for the
//! same observation and counts a mismatch separately from a failure.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fingerprint::FingerprintObservation;
use serve::batcher::{BatcherClient, Job};
use serve::{JobFailure, SubmitError};

use crate::stats::{self, Lateness, Rung, SplitMix64};

/// What one request came back as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with the expected prediction.
    Ok,
    /// Answered with a different prediction than the offline reference.
    Mismatch,
    /// Refused because the queue was full.
    Shed,
    /// Any other failure.
    Failed,
}

/// Tallies and latencies of one load phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Requests issued.
    pub attempted: usize,
    /// Requests answered correctly.
    pub ok: usize,
    /// Answered with a wrong prediction.
    pub mismatched: usize,
    /// Refused (queue full).
    pub shed: usize,
    /// Failed otherwise.
    pub failed: usize,
    /// Latencies of correct answers, ms, ascending.
    pub latencies_ms: Vec<f64>,
    /// `(sent, replied)` instants of correct answers, for the trace.
    pub intervals: Vec<(Instant, Instant)>,
    /// Wall time of the phase, s.
    pub elapsed_s: f64,
    /// Generator lateness (open-loop phases only).
    pub lateness: Lateness,
    /// Completion rates of the 500 ms windows of closed-loop phases (see
    /// [`stats::window_rates`]).
    pub window_rates: Vec<f64>,
}

impl PhaseStats {
    fn add(&mut self, outcome: Outcome, sent: Instant, replied: Instant, latency_ms: f64) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {
                self.ok += 1;
                self.latencies_ms.push(latency_ms);
                self.intervals.push((sent, replied));
            }
            Outcome::Mismatch => self.mismatched += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    /// Folds in another phase (or another slice of the same phase).
    pub fn merge(&mut self, other: PhaseStats) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.mismatched += other.mismatched;
        self.shed += other.shed;
        self.failed += other.failed;
        self.latencies_ms.extend(other.latencies_ms);
        self.latencies_ms.sort_by(f64::total_cmp);
        self.intervals.extend(other.intervals);
        self.elapsed_s += other.elapsed_s;
        self.lateness.merge(&other.lateness);
        self.window_rates.extend(other.window_rates);
    }

    fn finish(&mut self, elapsed_s: f64) {
        self.latencies_ms.sort_by(f64::total_cmp);
        self.elapsed_s = elapsed_s;
    }

    /// Records the window rates of a closed-loop phase that began at
    /// `started`.
    fn measure_windows(&mut self, started: Instant) {
        let mut times: Vec<f64> = self
            .intervals
            .iter()
            .map(|(_, replied)| replied.saturating_duration_since(started).as_secs_f64())
            .collect();
        times.sort_by(f64::total_cmp);
        self.window_rates = stats::window_rates(&times, self.elapsed_s, 0.5);
    }

    /// Correct answers per second: the median window rate of closed-loop
    /// phases, else the plain mean.
    pub fn rps(&self) -> f64 {
        stats::median(&self.window_rates)
            .unwrap_or_else(|| self.ok as f64 / self.elapsed_s.max(1e-9))
    }

    /// Percentile of the latencies (see [`stats::percentile`]).
    pub fn latency_ms(&self, q: f64) -> Option<f64> {
        stats::percentile(&self.latencies_ms, q)
    }

    /// Requests that were refused, failed or wrong.
    pub fn bad(&self) -> usize {
        self.mismatched + self.shed + self.failed
    }
}

/// Sleeps, then spins, until `t`.
// Pacing a load generator is what the sleep is for; it never runs on a
// request-handling thread.
#[allow(clippy::disallowed_methods)]
pub fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(80) {
            std::thread::sleep(left - Duration::from_micros(50));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A request sender owned by one lane (for example one keep-alive
/// connection): sends request `i` of the lane's sequence and reports how
/// it came back.
pub trait Lane: Send {
    /// Sends one request and waits for its answer.
    fn send(&mut self, i: usize) -> Outcome;
}

/// Runs `lanes` closed-loop senders for `duration`: each sends its next
/// request as soon as the previous one is answered.
pub fn closed_loop<L: Lane>(lanes: Vec<L>, duration: Duration) -> PhaseStats {
    let start = Instant::now();
    let stop_at = start + duration;
    let parts: Vec<PhaseStats> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|mut lane| {
                s.spawn(move || {
                    let mut st = PhaseStats::default();
                    let mut i = 0;
                    while Instant::now() < stop_at {
                        let sent = Instant::now();
                        let outcome = lane.send(i);
                        let replied = Instant::now();
                        st.add(outcome, sent, replied, (replied - sent).as_secs_f64() * 1e3);
                        i += 1;
                    }
                    st
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop lane panicked"))
            .collect()
    });
    let mut total = PhaseStats::default();
    for p in parts {
        total.merge(p);
    }
    total.finish(start.elapsed().as_secs_f64());
    total.measure_windows(start);
    total
}

/// `(due time s, latency ms)` of answered requests.
type Timed = Vec<(f64, f64)>;

/// One rung of the ladder over blocking lanes: each lane follows its own
/// seeded Poisson schedule at `rate / lanes`, sends each request at its due
/// time (or at once when behind) and times it from the due time, so a
/// stall is charged to every request it delays. Lanes stop early once the
/// rung has clearly failed (see [`stats::abandon_after`]).
pub fn paced_rung<L: Lane>(
    lanes: Vec<L>,
    rate: f64,
    duration: Duration,
    seed: u64,
    limit_ms: f64,
) -> (Rung, PhaseStats) {
    let n_lanes = lanes.len().max(1);
    let misses = AtomicUsize::new(0);
    let schedules: Vec<Vec<f64>> = (0..n_lanes)
        .map(|lane| {
            stats::poisson_schedule(
                rate / n_lanes as f64,
                duration.as_secs_f64(),
                seed,
                rate.to_bits() ^ lane as u64,
            )
        })
        .collect();
    let due_total: usize = schedules.iter().map(Vec::len).sum();
    let abandon = stats::abandon_after(due_total);
    let start = Instant::now() + Duration::from_millis(2);
    let parts: Vec<(PhaseStats, Timed, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .zip(&schedules)
            .map(|(mut lane, schedule)| {
                let misses = &misses;
                s.spawn(move || {
                    let mut st = PhaseStats::default();
                    let mut timed = Vec::with_capacity(schedule.len());
                    let mut skipped = 0;
                    for (i, &due_s) in schedule.iter().enumerate() {
                        if misses.load(Ordering::Relaxed) > abandon {
                            skipped = schedule.len() - i;
                            break;
                        }
                        let due = start + Duration::from_secs_f64(due_s);
                        wait_until(due);
                        let sent = Instant::now();
                        st.lateness.record(due_s, (sent - start).as_secs_f64());
                        let outcome = lane.send(i);
                        let replied = Instant::now();
                        let latency_ms = (replied - due).as_secs_f64() * 1e3;
                        if outcome != Outcome::Ok || latency_ms > limit_ms {
                            misses.fetch_add(1, Ordering::Relaxed);
                        }
                        if outcome == Outcome::Ok {
                            timed.push((due_s, latency_ms));
                        }
                        st.add(outcome, sent, replied, latency_ms);
                    }
                    (st, timed, skipped)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("paced lane panicked"))
            .collect()
    });
    let mut total = PhaseStats::default();
    let mut timed = Vec::new();
    let mut skipped = 0;
    for (st, t, sk) in parts {
        total.merge(st);
        timed.extend(t);
        skipped += sk;
    }
    total.finish(duration.as_secs_f64());
    timed.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rung = rung_from(rate, due_total, skipped, &total, timed, limit_ms);
    (rung, total)
}

fn rung_from(
    rate: f64,
    due: usize,
    not_sent: usize,
    st: &PhaseStats,
    timed: Timed,
    limit_ms: f64,
) -> Rung {
    let over = timed.iter().filter(|(_, l)| *l > limit_ms).count();
    Rung {
        rate,
        due,
        within_limit: timed.len() - over,
        // Requests never sent on an abandoned rung count as misses.
        over_limit: over + not_sent,
        shed: st.shed,
        failed: st.failed + st.mismatched,
        latencies_ms: timed.into_iter().map(|(_, l)| l).collect(),
    }
}

/// The observations an open-loop run submits and the offline predictions
/// each reply must equal.
pub struct Pool<'a> {
    /// Served model name.
    pub model: &'a str,
    /// Observations to draw from.
    pub observations: &'a [FingerprintObservation],
    /// Offline `localize_batch` prediction of each observation.
    pub expected: &'a [usize],
}

type Reply = Result<Vec<usize>, JobFailure>;

impl Pool<'_> {
    /// A job carrying observation `idx`, admitted now, and the receiver
    /// its reply arrives on.
    pub fn job(&self, idx: usize) -> (Job, mpsc::Receiver<Reply>) {
        let (reply, rx) = mpsc::sync_channel(1);
        let job = Job {
            model: self.model.to_string(),
            observations: vec![self.observations[idx].clone()],
            admitted: Instant::now(),
            deadline: None,
            reply,
        };
        (job, rx)
    }

    /// How a reply to a job carrying observation `idx` came back.
    pub fn outcome(&self, idx: usize, reply: Option<Reply>) -> Outcome {
        match reply {
            Some(Ok(p)) if p == [self.expected[idx]] => Outcome::Ok,
            Some(Ok(_)) => Outcome::Mismatch,
            _ => Outcome::Failed,
        }
    }
}

struct Outstanding {
    due: Instant,
    sent: Instant,
    due_s: f64,
    idx: usize,
    rx: mpsc::Receiver<Reply>,
    counted_late: bool,
}

/// Submits single-observation jobs to the batcher on a seeded Poisson
/// schedule from one generator thread, while one collector thread times
/// each reply from its due time. With `abort_after_misses`, the generator
/// stops once that many jobs missed `limit_ms` (a ladder rung that has
/// failed); unsent jobs then count as misses.
pub fn open_loop(
    client: &BatcherClient,
    pool: &Pool<'_>,
    schedule: &[f64],
    seed: u64,
    limit_ms: f64,
    abort_after_misses: Option<usize>,
) -> (PhaseStats, Rung) {
    let misses = AtomicUsize::new(0);
    let (tx, rx) = mpsc::sync_channel::<Outstanding>(schedule.len().max(1));
    let mut order = SplitMix64::new(seed, 0xA11);
    let picks: Vec<usize> = schedule
        .iter()
        .map(|_| order.below(pool.observations.len()))
        .collect();
    let start = Instant::now() + Duration::from_millis(2);
    let (gen_stats, not_sent, (mut st, timed)) = std::thread::scope(|s| {
        let misses = &misses;
        let generator = s.spawn(move || {
            let mut st = PhaseStats::default();
            let mut not_sent = 0;
            for (k, (&due_s, &idx)) in schedule.iter().zip(&picks).enumerate() {
                if abort_after_misses.is_some_and(|cap| misses.load(Ordering::Relaxed) > cap) {
                    not_sent = schedule.len() - k;
                    break;
                }
                let due = start + Duration::from_secs_f64(due_s);
                wait_until(due);
                let (job, reply_rx) = pool.job(idx);
                let sent = job.admitted;
                st.lateness.record(due_s, (sent - start).as_secs_f64());
                match client.submit(job) {
                    Ok(()) => tx
                        .send(Outstanding {
                            due,
                            sent,
                            due_s,
                            idx,
                            rx: reply_rx,
                            counted_late: false,
                        })
                        .expect("collector alive while the generator runs"),
                    Err(SubmitError::Busy) => {
                        misses.fetch_add(1, Ordering::Relaxed);
                        st.add(Outcome::Shed, sent, sent, 0.0);
                    }
                    Err(SubmitError::Closed) => {
                        misses.fetch_add(1, Ordering::Relaxed);
                        st.add(Outcome::Failed, sent, sent, 0.0);
                    }
                }
            }
            drop(tx);
            (st, not_sent)
        });
        let collector = s.spawn(move || collect(rx, pool, misses, limit_ms));
        let (gen_stats, not_sent) = generator.join().expect("generator panicked");
        let collected = collector.join().expect("collector panicked");
        (gen_stats, not_sent, collected)
    });
    st.merge(gen_stats);
    let elapsed = schedule.last().copied().unwrap_or(0.0);
    st.finish(elapsed.max(1e-3));
    let rung = rung_from(0.0, schedule.len(), not_sent, &st, timed, limit_ms);
    (st, rung)
}

fn collect(
    rx: mpsc::Receiver<Outstanding>,
    pool: &Pool<'_>,
    misses: &AtomicUsize,
    limit_ms: f64,
) -> (PhaseStats, Timed) {
    let mut st = PhaseStats::default();
    let mut timed = Vec::new();
    let mut outstanding: Vec<Outstanding> = Vec::new();
    let mut generator_open = true;
    let limit = Duration::from_secs_f64(limit_ms / 1e3);
    while generator_open || !outstanding.is_empty() {
        // Take newly submitted jobs; block briefly only when idle.
        loop {
            let next = if outstanding.is_empty() && generator_open {
                rx.recv_timeout(Duration::from_millis(1))
                    .map_err(|e| e == mpsc::RecvTimeoutError::Disconnected)
            } else {
                rx.try_recv()
                    .map_err(|e| e == mpsc::TryRecvError::Disconnected)
            };
            match next {
                Ok(job) => outstanding.push(job),
                Err(disconnected) => {
                    if disconnected {
                        generator_open = false;
                    }
                    break;
                }
            }
        }
        if outstanding.is_empty() {
            continue;
        }
        // Wait on the oldest job (replies mostly arrive in order), then
        // sweep the rest without blocking.
        let mut i = 0;
        while i < outstanding.len() {
            let reply = if i == 0 {
                outstanding[0]
                    .rx
                    .recv_timeout(Duration::from_micros(200))
                    .ok()
            } else {
                outstanding[i].rx.try_recv().ok()
            };
            let now = Instant::now();
            match reply {
                Some(reply) => {
                    let job = outstanding.swap_remove(i);
                    let latency_ms = (now - job.due).as_secs_f64() * 1e3;
                    let outcome = pool.outcome(job.idx, Some(reply));
                    if (outcome != Outcome::Ok || latency_ms > limit_ms) && !job.counted_late {
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                    if outcome == Outcome::Ok {
                        timed.push((job.due_s, latency_ms));
                    }
                    st.add(outcome, job.sent, now, latency_ms);
                    // swap_remove moved the last job to `i`; keep the
                    // oldest-first order for the blocking wait.
                    if i == 0 && !outstanding.is_empty() {
                        outstanding.sort_by_key(|job| job.due);
                    }
                }
                None => {
                    let job = &mut outstanding[i];
                    if !job.counted_late && now - job.due > limit {
                        // Count an overdue job at once so a failing rung
                        // is abandoned without waiting for its reply.
                        job.counted_late = true;
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 1;
                }
            }
        }
    }
    timed.sort_by(|a, b| a.0.total_cmp(&b.0));
    (st, timed)
}

/// Keeps `window` single-observation jobs in flight for `duration` from
/// one thread (submit, then wait for the oldest reply): the batcher's
/// throughput when it never waits for work.
pub fn saturate(
    client: &BatcherClient,
    pool: &Pool<'_>,
    window: usize,
    duration: Duration,
    seed: u64,
) -> PhaseStats {
    let mut order = SplitMix64::new(seed, 0x5A7);
    let mut st = PhaseStats::default();
    let mut in_flight: std::collections::VecDeque<(Instant, usize, mpsc::Receiver<Reply>)> =
        std::collections::VecDeque::with_capacity(window);
    let start = Instant::now();
    let stop_at = start + duration;
    loop {
        let now = Instant::now();
        while now < stop_at && in_flight.len() < window {
            let idx = order.below(pool.observations.len());
            let (job, reply_rx) = pool.job(idx);
            let sent = job.admitted;
            let refused = match client.submit(job) {
                Ok(()) => {
                    in_flight.push_back((sent, idx, reply_rx));
                    continue;
                }
                Err(SubmitError::Busy) => Outcome::Shed,
                Err(SubmitError::Closed) => Outcome::Failed,
            };
            // Refused: wait for a reply before submitting again.
            st.add(refused, sent, sent, 0.0);
            break;
        }
        let Some((sent, idx, rx)) = in_flight.pop_front() else {
            break;
        };
        let outcome = pool.outcome(idx, rx.recv().ok());
        let replied = Instant::now();
        st.add(outcome, sent, replied, (replied - sent).as_secs_f64() * 1e3);
    }
    st.finish(start.elapsed().as_secs_f64());
    st.measure_windows(start);
    st
}
