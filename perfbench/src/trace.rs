//! Tracing built from the benchmark's own files: spans kept in memory and
//! written at exit, and a timing [`Localizer`] wrapper that records every
//! `localize_batch` call the serving stack makes.
//!
//! Spans are recorded around calls into each layer's public functions;
//! nothing inside the program is instrumented. Untraced runs never build a
//! [`Tracer`], so they pay nothing.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fingerprint::{FingerprintDataset, FingerprintObservation};
use vital::Localizer;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u64,
    /// The span that caused this one, or 0.
    pub parent: u64,
    /// Layer boundary, e.g. `vital.localize_batch`.
    pub name: &'static str,
    /// Request, job or batch id the span belongs to (0 when none).
    pub key: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Work done in the span (observations, bytes, …), 0 when unused.
    pub items: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder shared by every traced thread.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }
}

impl Tracer {
    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        key: u64,
        start: Instant,
        end: Instant,
        items: u64,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            name,
            key,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            items,
        };
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .push(span);
        id
    }

    /// A copy of every span named `name`.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .len()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// File creation and write failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking recorder");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns, s.items
            )?;
        }
        out.flush()
    }
}

/// A [`Localizer`] that forwards to the wrapped model and records one
/// span (with the batch's observation count) per `localize_batch` call.
/// Served through `Registry::from_models`, it shows what batches the
/// batcher actually formed and how long each took.
pub struct TimedLocalizer {
    inner: Box<dyn Localizer>,
    tracer: Arc<Tracer>,
    span: &'static str,
    batch_ids: AtomicU64,
}

impl TimedLocalizer {
    /// Wraps `inner`, recording `span` spans into `tracer`.
    pub fn new(inner: Box<dyn Localizer>, tracer: Arc<Tracer>, span: &'static str) -> Self {
        TimedLocalizer {
            inner,
            tracer,
            span,
            batch_ids: AtomicU64::new(1),
        }
    }
}

impl Localizer for TimedLocalizer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fit(&mut self, train: &FingerprintDataset) -> vital::Result<()> {
        self.inner.fit(train)
    }

    fn predict(&self, observation: &FingerprintObservation) -> vital::Result<usize> {
        self.inner.predict(observation)
    }

    fn localize_batch(&self, observations: &[FingerprintObservation]) -> vital::Result<Vec<usize>> {
        let start = Instant::now();
        let out = self.inner.localize_batch(observations);
        let end = Instant::now();
        let key = self.batch_ids.fetch_add(1, Ordering::Relaxed);
        self.tracer
            .record(self.span, 0, key, start, end, observations.len() as u64);
        out
    }
}

/// For each request `(start, end)` interval, the duration of the
/// `localize_batch` span it most plausibly rode in: the latest-ending span
/// that started after the request was sent and ended before its reply
/// arrived (0 when none matches). `batches` must be sorted by `end_ns`.
pub fn batch_time_for(batches: &[Span], sent_ns: u64, replied_ns: u64) -> f64 {
    let upto = batches.partition_point(|b| b.end_ns <= replied_ns);
    batches[..upto]
        .iter()
        .rev()
        .take(8)
        .find(|b| b.start_ns >= sent_ns)
        .map_or(0.0, Span::ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span {
            id: 0,
            parent: 0,
            name: "vital.localize_batch",
            key: 0,
            start_ns,
            end_ns,
            items: 1,
        }
    }

    #[test]
    fn request_matches_the_batch_inside_its_interval() {
        let batches = vec![
            span(0, 1_000_000),
            span(2_000_000, 5_000_000),
            span(6_000_000, 7_000_000),
        ];
        // Sent at 1.5 ms, replied at 5.2 ms: the 3 ms batch.
        assert!((batch_time_for(&batches, 1_500_000, 5_200_000) - 3.0).abs() < 1e-9);
        // Sent after every batch started: no match.
        assert_eq!(batch_time_for(&batches, 6_500_000, 9_000_000), 0.0);
    }

    #[test]
    fn tracer_records_and_filters_spans() {
        let tracer = Tracer::default();
        let t0 = Instant::now();
        let id = tracer.record("a", 0, 7, t0, t0, 3);
        tracer.record("b", id, 7, t0, t0, 0);
        assert_eq!(tracer.len(), 2);
        let b = tracer.named("b");
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].parent, id);
    }
}
