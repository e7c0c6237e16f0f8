//! The three workloads: `scan-fast`, `arrivals-paper` and `reproduce-b1`.
//!
//! Each one generates its inputs from the seed (dataset collection, the
//! split, training, request order and arrival times), hands the program
//! only those inputs, measures every end-to-end metric, and checks every
//! output against an offline reference.
//!
//! The host may be shared, so every timed figure is a median of repeated
//! samples taken at several points of the run: set-up and training are
//! repeated, offline evaluation is sampled between the load phases, and
//! rates are medians over windows.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{Framework, Scale};
use fingerprint::{FingerprintDataset, FingerprintObservation};
use serve::batcher::{self, BatcherClient};
use serve::http::{self, Conn, Method};
use serve::{codec, BatcherConfig, Metrics, Registry, Server, ServerConfig};
use sim_radio::Building;
use tensor::rng::SeededRng;
use vital::{Localizer, VitalConfig, VitalModel};

use crate::layers;
use crate::load::{self, Lane, Outcome, PhaseStats, Pool};
use crate::report::Report;
use crate::stats::{self, SplitMix64};
use crate::trace::{self, TimedLocalizer, Tracer};

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Seed for every generated input.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory for this run's checkpoints, removed at exit.
    pub run_dir: PathBuf,
    /// Directory the trace files are written to.
    pub traces: PathBuf,
}

impl Settings {
    fn budget(&self, share: f64, floor_s: f64) -> Duration {
        Duration::from_secs_f64((self.seconds * share).max(floor_s))
    }
}

/// Length of a ladder rung at `rate`: long enough for about `requests`
/// requests, within `[lo_s, hi_s]`.
fn rung_time(rate: f64, requests: f64, lo_s: f64, hi_s: f64) -> Duration {
    Duration::from_secs_f64((requests / rate).clamp(lo_s, hi_s))
}

/// Compute threads per `localize_batch` in the served workloads, as in the
/// `vital-serve` defaults: with one dispatch worker per core, workers ×
/// threads stays within nproc. The reproduction's single-observation
/// queries run at this count too, as a served query would.
pub const SERVER_THREADS: usize = 1;

/// Compute threads of every timed training. This departs from the fig-8
/// runner, which trains at `parallel::num_threads()`: on a shared 2-vCPU
/// host, two-thread training timed `fit_s` with a spread across seeds of
/// 0.21–0.22, near the bound, because each parallel region forks a thread
/// that may wait for a stolen vCPU. Offline evaluation runs at the default
/// thread count, so the fork-join path is still measured.
pub const TRAIN_THREADS: usize = 1;

/// `model.fit(train)` at [`TRAIN_THREADS`], with its wall seconds.
fn timed_fit<M: Localizer + ?Sized>(
    model: &mut M,
    train: &FingerprintDataset,
) -> (Result<(), vital::VitalError>, f64) {
    time_s(|| parallel::with_threads(TRAIN_THREADS, || model.fit(train)))
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// Retrainings after each load slice of a serving workload. With the first
/// training, `fit_s` is the mean of seven (see [`mean_or_zero`]).
const REFITS_PER_BREAK: usize = 2;

type Error = String;

fn err(e: impl std::fmt::Display) -> Error {
    e.to_string()
}

/// The seed's dataset: building 1, the base devices, quick scale, split
/// 80/20 with the same seed (one fig-8 cell's inputs).
struct Inputs {
    building: Building,
    train: FingerprintDataset,
    test: FingerprintDataset,
}

fn inputs(seed: u64) -> Inputs {
    let building = sim_radio::building_1();
    let dataset = bench::runner::collect_base_dataset(&building, Scale::Quick, seed);
    let split = dataset.split(0.8, seed);
    Inputs {
        building,
        train: split.train,
        test: split.test,
    }
}

/// Dispatch workers and threads per `localize_batch`, sized like the
/// `vital-serve` defaults so workers × threads ≤ nproc.
pub fn server_sizing() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (nproc, SERVER_THREADS)
}

fn batcher_config() -> BatcherConfig {
    let (workers, threads) = server_sizing();
    BatcherConfig {
        workers,
        threads: Some(threads),
        ..BatcherConfig::default()
    }
}

/// Measured phases are split into this many slices spread through the run,
/// so a slow spell on a shared host touches only part of them.
const SLICES: usize = 3;

/// `graph::stats` counters: a reading, or deltas summed over slices.
#[derive(Debug, Clone, Copy, Default)]
struct GraphCounts {
    built: u64,
    hits: u64,
    reuses: u64,
}

impl GraphCounts {
    fn now() -> Self {
        GraphCounts {
            built: graph::stats::plans_built(),
            hits: graph::stats::plan_hits(),
            reuses: graph::stats::arena_reuses(),
        }
    }

    /// Adds the counts accrued since the reading `before`.
    fn add_since(&mut self, before: GraphCounts) {
        let now = GraphCounts::now();
        self.built += now.built - before.built;
        self.hits += now.hits - before.hits;
        self.reuses += now.reuses - before.reuses;
    }

    /// Records the `graph.*` metrics of the accrued counts.
    fn report(&self, report: &mut Report, phase: &str) {
        let runs = (self.built + self.hits).max(1) as f64;
        report.layer("graph.plan_hit_ratio", self.hits as f64 / runs);
        report.layer("graph.plans_built", self.built as f64);
        report.layer("graph.arena_reuse_ratio", self.reuses as f64 / runs);
        report.note(format!(
            "graph during {phase}: {} plans built, {} plan hits, {} arena reuses",
            self.built, self.hits, self.reuses
        ));
    }
}

fn time_s<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn median_or_zero(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// The mean of `values`, 0 when empty. Used over repeated trainings and
/// model copies: each allocates its weights afresh, and on a shared host
/// its speed lands in one of two clusters up to about 1.7 times apart. The
/// median of a run's draws jumps between the clusters; the mean moves less.
fn mean_or_zero(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Records `p50_ms` (and `p99_ms` when the sample supports it) of a
/// closed-loop phase.
fn report_latency(report: &mut Report, st: &PhaseStats, phase: &str) {
    if let Some(p50) = st.latency_ms(0.5) {
        report.e2e("p50_ms", p50);
    }
    match st.latency_ms(0.99) {
        Some(p99) => report.e2e("p99_ms", p99),
        None => report.note(format!(
            "p99_ms not reported for {phase}: {} samples, p99 needs 1000",
            st.latencies_ms.len()
        )),
    }
    report.note(format!(
        "{phase}: {} ok of {} attempted, {} latency samples, highest supported percentile {:?}",
        st.ok,
        st.attempted,
        st.latencies_ms.len(),
        stats::highest_supported(st.latencies_ms.len(), &[0.5, 0.9, 0.99, 0.999]),
    ));
}

fn record_phase(report: &mut Report, name: &str, st: &PhaseStats) {
    report.phase(name, st.attempted, st.ok, st.bad());
    report.check(
        &format!("{name} replies"),
        st.mismatched == 0 && st.failed == 0,
        format!(
            "{} mismatched, {} failed, {} shed of {}",
            st.mismatched, st.failed, st.shed, st.attempted
        ),
    );
}

/// Records a phase span and, under it, one span per answered request.
fn trace_phase(tracer: Option<&Arc<Tracer>>, name: &'static str, st: &PhaseStats) {
    let Some(tracer) = tracer else {
        return;
    };
    let (Some(first), Some(last)) = (
        st.intervals.iter().map(|i| i.0).min(),
        st.intervals.iter().map(|i| i.1).max(),
    ) else {
        return;
    };
    let phase = tracer.record(name, 0, 0, first, last, st.attempted as u64);
    for (i, &(sent, replied)) in st.intervals.iter().enumerate() {
        tracer.record("request", phase, i as u64 + 1, sent, replied, 1);
    }
}

/// Runs the fixed ladder and records `max_rps` plus its rungs.
fn run_ladder(
    report: &mut Report,
    rates: &[f64],
    limit_ms: f64,
    mut probe: impl FnMut(f64) -> (stats::Rung, PhaseStats),
) -> PhaseStats {
    let mut all = PhaseStats::default();
    let (best, rungs) = stats::max_passing_rate(rates, limit_ms, |rate| {
        let (mut rung, st) = probe(rate);
        rung.rate = rate;
        all.attempted += st.attempted;
        all.ok += st.ok;
        all.mismatched += st.mismatched;
        all.failed += st.failed;
        all.shed += st.shed;
        all.lateness.merge(&st.lateness);
        rung
    });
    for r in &rungs {
        report.note(format!(
            "ladder rung {:.1}/s: {} due, {} within {limit_ms} ms, {} over, {} shed, {} failed, growing backlog {} -> {}",
            r.rate,
            r.due,
            r.within_limit,
            r.over_limit,
            r.shed,
            r.failed,
            stats::backlog_growing(&r.latencies_ms, limit_ms),
            if stats::rung_passes(r, limit_ms) { "pass" } else { "fail" }
        ));
    }
    // A refusal on a rung above capacity fails that rung; it is how the
    // ladder finds the limit, so it counts against the phase, not the
    // output checks.
    report.phase("ladder", all.attempted, all.ok, all.bad());
    report.check(
        "ladder replies",
        all.mismatched == 0 && all.failed == 0,
        format!("{} mismatched, {} failed", all.mismatched, all.failed),
    );
    report.e2e("max_rps", best.unwrap_or(0.0));
    report.note(format!(
        "max_rps: highest of {} ladder rates ({:.0}..{:.0}/s) with p99 under {limit_ms} ms, nothing shed and no growing backlog; {} rungs probed",
        rates.len(),
        rates.first().copied().unwrap_or(0.0),
        rates.last().copied().unwrap_or(0.0),
        rungs.len()
    ));
    all
}

/// `vital.localize_batch` spans inside any of `windows` (every span when
/// `windows` is empty), by end time.
fn batch_spans_in(tracer: &Tracer, windows: &[(Instant, Instant)]) -> Vec<trace::Span> {
    let windows: Vec<(u64, u64)> = windows
        .iter()
        .map(|&(a, b)| (tracer.ns(a), tracer.ns(b)))
        .collect();
    let mut spans: Vec<trace::Span> = tracer
        .named("vital.localize_batch")
        .into_iter()
        .filter(|s| {
            windows.is_empty()
                || windows
                    .iter()
                    .any(|&(a, b)| s.start_ns >= a && s.end_ns <= b)
        })
        .collect();
    spans.sort_by_key(|s| s.end_ns);
    spans
}

/// Batch size → number of `localize_batch` calls of that size.
fn histogram(spans: &[trace::Span]) -> BTreeMap<usize, u64> {
    let mut h = BTreeMap::new();
    for s in spans {
        *h.entry(s.items as usize).or_insert(0) += 1;
    }
    h
}

fn mean_batch(spans: &[trace::Span]) -> usize {
    let obs: u64 = spans.iter().map(|s| s.items).sum();
    ((obs as f64 / spans.len().max(1) as f64).round() as usize).max(1)
}

/// `batcher.*` and `vital.localize_batch_ms` from the batches of a phase
/// and its requests' `(sent, replied)` intervals.
fn report_batcher(
    report: &mut Report,
    tracer: &Tracer,
    spans: &[trace::Span],
    intervals: &[(Instant, Instant)],
    wall_s: f64,
) {
    let (workers, _) = server_sizing();
    let calls = spans.len().max(1) as f64;
    let busy_ms: f64 = spans.iter().map(trace::Span::ms).sum();
    let obs: u64 = spans.iter().map(|s| s.items).sum();
    let wait_sum: f64 = intervals
        .iter()
        .map(|&(sent, replied)| {
            let turnaround = (replied - sent).as_secs_f64() * 1e3;
            turnaround - trace::batch_time_for(spans, tracer.ns(sent), tracer.ns(replied))
        })
        .sum();
    report.layer("batcher.wait_ms", wait_sum / intervals.len().max(1) as f64);
    report.layer("batcher.batch_obs", obs as f64 / calls);
    report.layer(
        "batcher.busy_share",
        busy_ms / 1e3 / (wall_s * workers as f64).max(1e-9),
    );
    report.layer("vital.localize_batch_ms", busy_ms / calls);
    report.note(format!(
        "batches: {} calls, sizes {:?}",
        spans.len(),
        histogram(spans)
    ));
}

/// Repeated serving set-ups: registry load, start, first answer.
#[derive(Default)]
struct SetupTimes {
    setups_s: Vec<f64>,
    loads_ms: Vec<f64>,
    answered: usize,
}

impl SetupTimes {
    /// Records a set-up that started at `start`, had its registry loaded
    /// at `loaded` and has just answered its first request.
    fn record(&mut self, tracer: Option<&Arc<Tracer>>, start: Instant, loaded: Instant, ok: bool) {
        let done = Instant::now();
        self.setups_s.push((done - start).as_secs_f64());
        self.loads_ms.push((loaded - start).as_secs_f64() * 1e3);
        self.answered += usize::from(ok);
        if let Some(tracer) = tracer {
            let k = self.setups_s.len() as u64;
            let id = tracer.record("setup", 0, k, start, done, 0);
            tracer.record("registry.load", id, k, start, loaded, 0);
        }
    }

    fn report(&self, report: &mut Report) {
        let n = self.setups_s.len();
        report.phase("setup", n, self.answered, n - self.answered);
        report.check(
            "set-up first fix",
            self.answered == n,
            format!("{} of {n} set-ups answered correctly", self.answered),
        );
        report.e2e("setup_s", median_or_zero(&self.setups_s));
        report.note(format!("set-ups: {:.5?} s", self.setups_s));
        report.layer("registry.load_ms", median_or_zero(&self.loads_ms));
    }
}

/// A registry serving the checkpoint at `path` under `name`: loaded from
/// its directory as production does, or, when traced, wrapped in the
/// timing localizer.
fn registry_for(path: &Path, name: &str, tracer: Option<&Arc<Tracer>>) -> Result<Registry, Error> {
    match tracer {
        None => Registry::from_checkpoint_dir(path.parent().expect("checkpoint has a directory")),
        Some(tracer) => {
            let model = VitalModel::load(path).map_err(err)?;
            let timed =
                TimedLocalizer::new(Box::new(model), Arc::clone(tracer), "vital.localize_batch");
            Ok(Registry::from_models(vec![(
                name.to_string(),
                Box::new(timed) as Box<dyn Localizer>,
            )]))
        }
    }
}

/// The served VITAL of a serving workload: trained from the seed, written
/// as a checkpoint, retrained at points through the run for `fit_s`, and
/// sampled offline between load phases for `eval_obs_per_s`.
struct ServedVital<'a> {
    config: VitalConfig,
    train: FingerprintDataset,
    pool: &'a [FingerprintObservation],
    /// Offline predictions of the served checkpoint on `pool`.
    expected: Vec<usize>,
    served: VitalModel,
    path: PathBuf,
    fits: Vec<f64>,
    refits_match: bool,
    pass_rates: Vec<f64>,
    passes_match: bool,
}

impl<'a> ServedVital<'a> {
    fn train(
        report: &mut Report,
        config: VitalConfig,
        train: FingerprintDataset,
        inputs: &'a Inputs,
        dir: &Path,
        name: &str,
    ) -> Result<Self, Error> {
        let mut model = VitalModel::new(config.clone()).map_err(err)?;
        let (fitted, fit_s) = timed_fit(&mut model, &train);
        fitted.map_err(err)?;
        std::fs::create_dir_all(dir).map_err(err)?;
        let path = dir.join(format!("{name}.{}", serve::registry::CHECKPOINT_EXT));
        model.save(&path).map_err(err)?;
        let served = VitalModel::load(&path).map_err(err)?;
        let pool = inputs.test.observations();
        let expected = served.localize_batch(pool).map_err(err)?;
        report.check(
            "checkpoint round trip",
            expected == model.localize_batch(pool).map_err(err)?,
            "the served checkpoint predicts as the trained model",
        );
        let quality =
            vital::evaluate_localizer(&served, &inputs.test, &inputs.building).map_err(err)?;
        let error_m = f64::from(quality.mean_error_m());
        report.e2e("mean_error_m", error_m);
        report.layer("mean_error_m.VITAL", error_m);
        Ok(ServedVital {
            config,
            train,
            pool,
            expected,
            served,
            path,
            fits: vec![fit_s],
            refits_match: true,
            pass_rates: Vec::new(),
            passes_match: true,
        })
    }

    /// Trains fresh models again, [`REFITS_PER_BREAK`] times, and checks
    /// each predicts as the first.
    fn refit(&mut self) -> Result<(), Error> {
        for _ in 0..REFITS_PER_BREAK {
            let mut model = VitalModel::new(self.config.clone()).map_err(err)?;
            let (fitted, fit_s) = timed_fit(&mut model, &self.train);
            fitted.map_err(err)?;
            self.fits.push(fit_s);
            self.refits_match &= model.localize_batch(self.pool).map_err(err)? == self.expected;
        }
        Ok(())
    }

    /// Offline `localize_batch` passes over the pool for about `budget`.
    /// Each sample loads the checkpoint afresh, so the passes cover several
    /// sets of weight allocations rather than one, and warms its plans
    /// with one untimed pass.
    fn sample_eval(&mut self, budget: Duration) -> Result<(), Error> {
        let model = VitalModel::load(&self.path).map_err(err)?;
        self.passes_match &= model.localize_batch(self.pool).map_err(err)? == self.expected;
        let start = Instant::now();
        let mut passes = 0;
        while passes < 2 || start.elapsed() < budget {
            let (got, s) = time_s(|| model.localize_batch(self.pool));
            self.passes_match &= got.map_err(err)? == self.expected;
            self.pass_rates.push(self.pool.len() as f64 / s);
            passes += 1;
        }
        Ok(())
    }

    fn report(&self, report: &mut Report) {
        let fit_s = mean_or_zero(&self.fits);
        report.e2e("fit_s", fit_s);
        report.layer("fit_s.VITAL", fit_s);
        report.note(format!("fits: {:?} s", self.fits));
        let n = self.fits.len();
        report.phase(
            "fit",
            n,
            if self.refits_match { n } else { 0 },
            if self.refits_match { 0 } else { n },
        );
        report.check(
            "retraining is deterministic",
            self.refits_match,
            format!("{n} fits"),
        );
        let rate = median_or_zero(&self.pass_rates);
        report.e2e("eval_obs_per_s", rate);
        report.layer("eval.VITAL.obs_per_s", rate);
        let p = self.pass_rates.len();
        report.phase(
            "offline_eval",
            p,
            if self.passes_match { p } else { 0 },
            if self.passes_match { 0 } else { p },
        );
        report.check(
            "offline passes repeat",
            self.passes_match,
            format!("{p} passes of {} observations", self.pool.len()),
        );
    }
}

/// Traced-run layer figures of a served VITAL: stage timings at the batch
/// sizes the run formed, HTTP/codec on the run's bytes, and the kernel
/// ledger at this model's shapes (and at `other`'s in the report lines).
fn served_layers(
    report: &mut Report,
    vital: &ServedVital<'_>,
    spans: &[trace::Span],
    name: &str,
    other: (&str, VitalConfig),
) -> Result<(), Error> {
    let fresh = VitalModel::load(&vital.path).map_err(err)?;
    layers::vital_stages(report, &vital.served, &fresh, vital.pool, &histogram(spans));
    let bodies: Vec<Vec<u8>> = vital.pool.iter().map(layers::request_body).collect();
    layers::http_and_codec(report, name, &bodies, &vital.expected);
    layers::kernel_ledger(report, vital.served.config(), mean_batch(spans), &[other]);
    Ok(())
}

fn write_trace(tracer: &Tracer, settings: &Settings, workload: &str) -> Result<(), Error> {
    let path = settings
        .traces
        .join(format!("trace-{workload}-{}.jsonl", settings.seed));
    tracer.write_jsonl(&path).map_err(err)?;
    println!(
        "trace: {} spans written to {}",
        tracer.len(),
        path.display()
    );
    Ok(())
}

// ---------------------------------------------------------------- scan-fast

/// Latency limit of the `scan-fast` ladder.
const SCAN_LIMIT_MS: f64 = 50.0;

/// One keep-alive connection sending single-observation
/// `POST /v1/localize` requests in a seeded order.
struct HttpLane<'a> {
    stream: TcpStream,
    conn: Conn<TcpStream>,
    host: String,
    bodies: &'a [Vec<u8>],
    expected: &'a [usize],
    order: SplitMix64,
}

impl<'a> HttpLane<'a> {
    fn connect(
        addr: SocketAddr,
        bodies: &'a [Vec<u8>],
        expected: &'a [usize],
        order: SplitMix64,
    ) -> Result<Self, Error> {
        let stream = TcpStream::connect(addr).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(err)?;
        let conn = Conn::new(stream.try_clone().map_err(err)?);
        Ok(HttpLane {
            stream,
            conn,
            host: addr.to_string(),
            bodies,
            expected,
            order,
        })
    }
}

impl Lane for HttpLane<'_> {
    fn send(&mut self, _i: usize) -> Outcome {
        let idx = self.order.below(self.bodies.len());
        let headers = [
            ("host", self.host.as_str()),
            ("content-type", "application/json"),
        ];
        let sent = http::write_request(
            &mut (&self.stream),
            Method::Post,
            "/v1/localize",
            &headers,
            &self.bodies[idx],
        );
        if sent.is_err() {
            return Outcome::Failed;
        }
        match self.conn.read_response() {
            Ok(resp) if resp.status == 200 => match codec::parse_predictions(&resp.body) {
                Ok(p) if p == [self.expected[idx]] => Outcome::Ok,
                _ => Outcome::Mismatch,
            },
            Ok(resp) if resp.status == 503 => Outcome::Shed,
            _ => Outcome::Failed,
        }
    }
}

/// Two seeded keep-alive connections to the server at `addr`.
struct Client<'a> {
    addr: SocketAddr,
    bodies: &'a [Vec<u8>],
    expected: &'a [usize],
    seed: u64,
}

impl<'a> Client<'a> {
    const LANES: usize = 2;

    fn lanes(&self, salt: u64) -> Result<Vec<HttpLane<'a>>, Error> {
        (0..Self::LANES)
            .map(|i| {
                let order = SplitMix64::new(self.seed, salt * 16 + i as u64);
                HttpLane::connect(self.addr, self.bodies, self.expected, order)
            })
            .collect()
    }

    fn closed_loop(&self, salt: u64, duration: Duration) -> Result<PhaseStats, Error> {
        Ok(load::closed_loop(self.lanes(salt)?, duration))
    }
}

fn start_server(registry: Registry) -> Result<Server, Error> {
    Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            batcher: batcher_config(),
            default_deadline: None,
        },
        registry,
    )
}

/// `scan-fast`: two keep-alive connections in a closed loop, each
/// `POST /v1/localize` carrying one observation, against an in-process
/// server hosting a fast-config VITAL checkpoint trained from the seed.
pub fn scan_fast(settings: &Settings, report: &mut Report) -> Result<(), Error> {
    const NAME: &str = "vital-fast";
    let seed = settings.seed;
    let tracer = settings.trace.then(|| Arc::new(Tracer::default()));
    let inputs = inputs(seed);
    let mut config = VitalConfig::fast(
        inputs.building.access_points().len(),
        inputs.building.reference_points().len(),
    );
    config.train.seed = seed;
    let dir = settings.run_dir.join("scan-fast");
    let mut vital = ServedVital::train(report, config, inputs.train.clone(), &inputs, &dir, NAME)?;
    let eval_slice = settings.budget(0.05, 0.3);
    vital.sample_eval(eval_slice)?;
    let bodies: Vec<Vec<u8>> = vital.pool.iter().map(layers::request_body).collect();
    let expected = vital.expected.clone();

    // Set-up: load the registry, start the server, answer a first fix.
    let mut setups = SetupTimes::default();
    for k in 0..SETUP_REPEATS {
        let start = Instant::now();
        let registry = Registry::from_checkpoint_dir(&dir)?;
        let loaded = Instant::now();
        let mut server = start_server(registry)?;
        let order = SplitMix64::new(seed, 900 + k as u64);
        let first = HttpLane::connect(server.addr(), &bodies, &expected, order)?.send(0);
        setups.record(tracer.as_ref(), start, loaded, first == Outcome::Ok);
        server.drain(Duration::from_secs(10));
    }
    setups.report(report);

    let mut server = start_server(registry_for(&vital.path, NAME, tracer.as_ref())?)?;
    let client = Client {
        addr: server.addr(),
        bodies: &bodies,
        expected: &expected,
        seed,
    };
    // Warm the batch-of-two plan before timing.
    client.closed_loop(1, Duration::from_millis(300))?;
    let metrics = server.metrics();
    let rates = stats::ladder(20.0, 5000.0, 1.06);
    let slice_time = settings.budget(0.15, 0.7);

    // Three closed-loop slices spread through the run, with evaluation,
    // retraining and the ladder between them.
    let mut closed = PhaseStats::default();
    let mut windows = Vec::new();
    let mut graph = GraphCounts::default();
    let (mut requests, mut batches) = (0, 0);
    let mut ladder = PhaseStats::default();
    for slice in 0..SLICES {
        let before = (
            GraphCounts::now(),
            metrics.requests_total.load(Ordering::Relaxed),
            metrics.total_batches(),
        );
        let t0 = Instant::now();
        closed.merge(client.closed_loop(2 + slice as u64, slice_time)?);
        windows.push((t0, Instant::now()));
        graph.add_since(before.0);
        requests += metrics.requests_total.load(Ordering::Relaxed) - before.1;
        batches += metrics.total_batches() - before.2;
        vital.sample_eval(eval_slice)?;
        vital.refit()?;
        if slice == 1 {
            ladder = run_ladder(report, &rates, SCAN_LIMIT_MS, |rate| {
                let rung_time = rung_time(rate, 300.0, 0.4, 1.5);
                match client.lanes(100) {
                    Ok(lanes) => load::paced_rung(lanes, rate, rung_time, seed, SCAN_LIMIT_MS),
                    Err(e) => {
                        eprintln!("perfbench: cannot connect for a ladder rung: {e}");
                        let failed = PhaseStats {
                            attempted: 1,
                            failed: 1,
                            ..PhaseStats::default()
                        };
                        (stats::Rung::default(), failed)
                    }
                }
            });
        }
    }
    record_phase(report, "closed_loop", &closed);
    report_latency(report, &closed, "closed loop, 2 connections");
    report.e2e("rps", closed.rps());
    report.note(format!(
        "/metrics during the closed loop: {requests} requests, {batches} batches"
    ));
    graph.report(report, "closed loop");
    trace_phase(tracer.as_ref(), "phase.closed_loop", &closed);
    report.layer("gen.late_ms_max", ladder.lateness.max_ms);
    report.layer(
        "batcher.shed_share",
        (closed.shed + ladder.shed) as f64 / (closed.attempted + ladder.attempted).max(1) as f64,
    );
    vital.report(report);

    if let Some(tracer) = &tracer {
        let spans = batch_spans_in(tracer, &windows);
        report_batcher(report, tracer, &spans, &closed.intervals, closed.elapsed_s);
        let paper = VitalConfig::paper(vital.config.num_aps, vital.config.num_classes);
        served_layers(report, &vital, &spans, NAME, ("paper", paper))?;
        // Tracing overhead: the same closed loop on an untraced server.
        let mut plain = start_server(Registry::from_checkpoint_dir(&dir)?)?;
        let plain_client = Client {
            addr: plain.addr(),
            ..client
        };
        plain_client.closed_loop(1, Duration::from_millis(300))?;
        let untraced = plain_client.closed_loop(2, settings.budget(0.45, 2.0))?;
        plain.drain(Duration::from_secs(10));
        report.layer(
            "trace.overhead_share",
            1.0 - closed.rps() / untraced.rps().max(1e-9),
        );
        write_trace(tracer, settings, "scan-fast")?;
    }
    server.drain(Duration::from_secs(10));
    Ok(())
}

// ----------------------------------------------------------- arrivals-paper

/// Offered rate of the open-loop reference phase.
const REFERENCE_RATE: f64 = 100.0;
/// Latency limit of the `arrivals-paper` ladder.
const ARRIVALS_LIMIT_MS: f64 = 100.0;

/// A batcher started on a registry, with its metrics and threads.
struct RunningBatcher {
    client: BatcherClient,
    handles: Vec<std::thread::JoinHandle<()>>,
    metrics: Arc<Metrics>,
}

impl RunningBatcher {
    fn start(registry: Registry) -> Result<Self, Error> {
        let config = batcher_config();
        let metrics = Arc::new(Metrics::with_workers(config.workers));
        let (client, handles) = batcher::start(Arc::new(registry), config, Arc::clone(&metrics))?;
        Ok(RunningBatcher {
            client,
            handles,
            metrics,
        })
    }

    /// Drains the queue and joins every batcher thread.
    fn stop(self) {
        self.client.drain();
        self.client.await_drained(Duration::from_secs(30));
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Submits one job and reports whether it was answered correctly.
fn one_job(client: &BatcherClient, pool: &Pool<'_>) -> Result<bool, Error> {
    let (job, rx) = pool.job(0);
    client.submit(job).map_err(|e| format!("{e:?}"))?;
    Ok(pool.outcome(0, rx.recv().ok()) == Outcome::Ok)
}

/// A seeded 64-observation subset of the training split.
fn training_subset(train: &FingerprintDataset, seed: u64) -> FingerprintDataset {
    let mut rng = SplitMix64::new(seed, 0x7A1);
    let mut picks: Vec<usize> = (0..train.len()).collect();
    for i in (1..picks.len()).rev() {
        picks.swap(i, rng.below(i + 1));
    }
    let subset = picks
        .iter()
        .take(64)
        .map(|&i| train.observations()[i].clone())
        .collect();
    FingerprintDataset::from_observations(
        train.building(),
        train.num_aps(),
        train.num_rps(),
        subset,
    )
}

/// `arrivals-paper`: an open-loop Poisson schedule of single-observation
/// jobs submitted straight to the batcher serving a paper-config VITAL.
pub fn arrivals_paper(settings: &Settings, report: &mut Report) -> Result<(), Error> {
    const NAME: &str = "vital-paper";
    let seed = settings.seed;
    let tracer = settings.trace.then(|| Arc::new(Tracer::default()));
    let inputs = inputs(seed);
    let mut config = VitalConfig::paper(
        inputs.building.access_points().len(),
        inputs.building.reference_points().len(),
    );
    // One epoch on a seeded 64-observation subset: paper-shaped weights
    // quickly; serving cost does not depend on how well it was trained.
    config.train.epochs = 1;
    config.train.seed = seed;
    let train = training_subset(&inputs.train, seed);
    let dir = settings.run_dir.join("arrivals-paper");
    let mut vital = ServedVital::train(report, config, train, &inputs, &dir, NAME)?;
    let eval_slice = settings.budget(0.06, 0.5);
    vital.sample_eval(eval_slice)?;
    let expected = vital.expected.clone();
    let pool = Pool {
        model: NAME,
        observations: vital.pool,
        expected: &expected,
    };

    let mut setups = SetupTimes::default();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let registry = Registry::from_checkpoint_dir(&dir)?;
        let loaded = Instant::now();
        let running = RunningBatcher::start(registry)?;
        let ok = one_job(&running.client, &pool)?;
        setups.record(tracer.as_ref(), start, loaded, ok);
        running.stop();
    }
    setups.report(report);

    let running = RunningBatcher::start(registry_for(&vital.path, NAME, tracer.as_ref())?)?;
    let window = 2 * BatcherConfig::default().max_batch;
    let ref_time = settings.budget(0.4, 1.0).as_secs_f64() / SLICES as f64;
    let sat_time = settings.budget(0.25, 0.5);
    let rates = stats::ladder(10.0, 2000.0, 1.06);

    // Three slices of the reference rate and of saturation spread through
    // the run, with evaluation, retraining and the ladder between them.
    // `p50_ms` comes from saturation, where compute sets the latency; at
    // the reference rate it follows how fast an idle thread wakes up.
    let mut fixed = PhaseStats::default();
    let mut saturated = PhaseStats::default();
    let mut ladder = PhaseStats::default();
    let mut windows = Vec::new();
    let mut graph = GraphCounts::default();
    let mut batches = 0;
    for slice in 0..SLICES {
        let before = (GraphCounts::now(), running.metrics.total_batches());
        let stream = 1 + slice as u64;
        let schedule = stats::poisson_schedule(REFERENCE_RATE, ref_time, seed, stream);
        let (st, _) = load::open_loop(
            &running.client,
            &pool,
            &schedule,
            seed ^ stream,
            ARRIVALS_LIMIT_MS,
            None,
        );
        fixed.merge(st);
        batches += running.metrics.total_batches() - before.1;
        let t0 = Instant::now();
        saturated.merge(load::saturate(
            &running.client,
            &pool,
            window,
            sat_time,
            seed ^ stream,
        ));
        windows.push((t0, Instant::now()));
        graph.add_since(before.0);
        vital.sample_eval(eval_slice)?;
        vital.refit()?;
        if slice == 1 {
            ladder = run_ladder(report, &rates, ARRIVALS_LIMIT_MS, |rate| {
                let rung_s = rung_time(rate, 300.0, 0.4, 1.5).as_secs_f64();
                let schedule = stats::poisson_schedule(rate, rung_s, seed, rate.to_bits());
                let abandon = stats::abandon_after(schedule.len());
                let (st, rung) = load::open_loop(
                    &running.client,
                    &pool,
                    &schedule,
                    seed ^ rate.to_bits(),
                    ARRIVALS_LIMIT_MS,
                    Some(abandon),
                );
                (rung, st)
            });
        }
    }
    record_phase(report, "reference_rate", &fixed);
    report.note(format!(
        "open loop at {REFERENCE_RATE}/s: {} ok of {} attempted, p50 {:?} ms, p90 {:?} ms, generator lateness mean {:.3} ms max {:.3} ms, {batches} batches in /metrics",
        fixed.ok,
        fixed.attempted,
        fixed.latency_ms(0.5),
        fixed.latency_ms(0.9),
        fixed.lateness.mean_ms(),
        fixed.lateness.max_ms
    ));
    graph.report(report, "reference rate and saturation");
    trace_phase(tracer.as_ref(), "phase.reference_rate", &fixed);
    trace_phase(tracer.as_ref(), "phase.saturation", &saturated);
    record_phase(report, "saturation", &saturated);
    report_latency(
        report,
        &saturated,
        &format!("saturation, {window} jobs in flight"),
    );
    report.e2e("rps", saturated.rps());
    let mut late = fixed.lateness.clone();
    late.merge(&ladder.lateness);
    report.layer("gen.late_ms_max", late.max_ms);
    let submitted = fixed.attempted + saturated.attempted + ladder.attempted;
    let shed = fixed.shed + saturated.shed + ladder.shed;
    report.layer("batcher.shed_share", shed as f64 / submitted.max(1) as f64);
    vital.report(report);

    if let Some(tracer) = &tracer {
        let spans = batch_spans_in(tracer, &windows);
        report_batcher(
            report,
            tracer,
            &spans,
            &saturated.intervals,
            saturated.elapsed_s,
        );
        let all_spans = batch_spans_in(tracer, &[]);
        let fast = VitalConfig::fast(vital.config.num_aps, vital.config.num_classes);
        served_layers(report, &vital, &all_spans, NAME, ("fast", fast))?;
        running.stop();
        // Tracing overhead: the same saturation on an untraced batcher.
        let plain = RunningBatcher::start(Registry::from_checkpoint_dir(&dir)?)?;
        let untraced = load::saturate(&plain.client, &pool, window, sat_time, seed);
        plain.stop();
        report.layer(
            "trace.overhead_share",
            1.0 - saturated.rps() / untraced.rps().max(1e-9),
        );
        write_trace(tracer, settings, "arrivals-paper")?;
    } else {
        running.stop();
    }
    Ok(())
}

// ------------------------------------------------------------- reproduce-b1

/// Latency limit of the `reproduce-b1` query ladder.
const SUITE_LIMIT_MS: f64 = 20.0;

/// Fresh copies of the suite loaded per load slice of `reproduce-b1`.
const QUERY_COPIES_PER_SLICE: usize = 5;

/// Single-observation `localize_batch` calls cycling over `models` (one
/// framework, or the whole suite on the ladder): the suite's online phase,
/// one phone query at a time.
struct SuiteLane<'a> {
    models: &'a [Box<dyn Localizer>],
    observations: &'a [FingerprintObservation],
    expected: &'a [Vec<usize>],
    order: SplitMix64,
}

impl<'a> SuiteLane<'a> {
    /// A lane over `models[range]`, checked against `expected[range]`.
    fn new(
        models: &'a [Box<dyn Localizer>],
        expected: &'a [Vec<usize>],
        observations: &'a [FingerprintObservation],
        range: std::ops::Range<usize>,
        order: SplitMix64,
    ) -> Self {
        SuiteLane {
            models: &models[range.clone()],
            observations,
            expected: &expected[range],
            order,
        }
    }
}

impl Lane for SuiteLane<'_> {
    fn send(&mut self, i: usize) -> Outcome {
        let f = i % self.models.len();
        let idx = self.order.below(self.observations.len());
        let query = std::slice::from_ref(&self.observations[idx]);
        match parallel::with_threads(SERVER_THREADS, || self.models[f].localize_batch(query)) {
            Ok(p) if p == [self.expected[f][idx]] => Outcome::Ok,
            Ok(_) => Outcome::Mismatch,
            Err(_) => Outcome::Failed,
        }
    }
}

/// The five frameworks of one fig-8 cell, untrained.
fn build_suite(inputs: &Inputs, seed: u64) -> Result<Vec<Box<dyn Localizer>>, Error> {
    Framework::all()
        .iter()
        .map(|&f| bench::build_framework(f, &inputs.building, Scale::Quick, true, seed))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)
}

/// Fresh copies of the fitted frameworks, loaded from their checkpoints
/// (timed when traced) and warmed by one untimed pass over `test`; with
/// whether every warm pass predicted `expected`.
fn load_suite(
    ckpts: &[(Framework, PathBuf)],
    tracer: Option<&Arc<Tracer>>,
    test: &[FingerprintObservation],
    expected: &[Vec<usize>],
) -> Result<(Vec<Box<dyn Localizer>>, bool), Error> {
    let mut suite = Vec::with_capacity(ckpts.len());
    let mut matched = true;
    for ((fw, path), want) in ckpts.iter().zip(expected) {
        let model = baselines::load_localizer(path).map_err(err)?;
        matched &= model.localize_batch(test).map_err(err)? == *want;
        suite.push(match tracer {
            None => model,
            Some(tracer) => {
                let span = if *fw == Framework::Vital {
                    "vital.localize_batch"
                } else {
                    "baselines.localize_batch"
                };
                Box::new(TimedLocalizer::new(model, Arc::clone(tracer), span)) as Box<dyn Localizer>
            }
        });
    }
    Ok((suite, matched))
}

/// Fits every framework, returning each fit's seconds.
fn fit_suite(
    models: &mut [Box<dyn Localizer>],
    train: &FingerprintDataset,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Vec<f64>, Error> {
    let mut secs = Vec::with_capacity(models.len());
    for model in models.iter_mut() {
        let start = Instant::now();
        let (fitted, s) = timed_fit(model.as_mut(), train);
        fitted.map_err(err)?;
        if let Some(tracer) = tracer {
            tracer.record("fit", 0, 0, start, Instant::now(), train.len() as u64);
        }
        secs.push(s);
    }
    Ok(secs)
}

/// Offline evaluation passes of the whole suite, sampled through the run.
#[derive(Default)]
struct SuiteEval {
    /// Per framework, the seconds of each pass over the test set.
    secs: Vec<Vec<f64>>,
    passes: usize,
    matched: bool,
}

impl SuiteEval {
    fn sample(
        &mut self,
        models: &[Box<dyn Localizer>],
        test: &[FingerprintObservation],
        expected: &[Vec<usize>],
        budget: Duration,
    ) -> Result<(), Error> {
        if self.secs.is_empty() {
            self.secs = vec![Vec::new(); models.len()];
            self.matched = true;
        }
        let start = Instant::now();
        let mut passes = 0;
        while passes < 2 || start.elapsed() < budget {
            for (f, model) in models.iter().enumerate() {
                let (got, s) = time_s(|| model.localize_batch(test));
                self.matched &= got.map_err(err)? == expected[f];
                self.secs[f].push(s);
            }
            passes += 1;
        }
        self.passes += passes;
        Ok(())
    }

    /// Per-framework obs/s of its median pass, and the suite's obs/s: the
    /// observations of one pass of every framework over the sum of their
    /// median pass times.
    fn rates(&self, n_obs: usize) -> (Vec<f64>, f64) {
        let medians: Vec<f64> = self.secs.iter().map(|s| median_or_zero(s)).collect();
        let per_fw = medians.iter().map(|s| n_obs as f64 / s).collect();
        let total = (n_obs * medians.len()) as f64 / medians.iter().sum::<f64>();
        (per_fw, total)
    }
}

/// `reproduce-b1`: one fig-8 cell in-process — building 1, base devices,
/// quick scale, DAM on — fitting and evaluating all five frameworks.
pub fn reproduce_b1(settings: &Settings, report: &mut Report) -> Result<(), Error> {
    let seed = settings.seed;
    let tracer = settings.trace.then(|| Arc::new(Tracer::default()));
    let frameworks = Framework::all();

    // Set-up: collect the dataset, split it and build the five untrained
    // frameworks.
    let mut setups = Vec::new();
    let mut built = None;
    for k in 0..SETUP_REPEATS {
        let start = Instant::now();
        let made = inputs(seed);
        let models = build_suite(&made, seed)?;
        let done = Instant::now();
        if let Some(tracer) = &tracer {
            tracer.record("setup", 0, k as u64 + 1, start, done, 0);
        }
        built = Some((made, models));
        setups.push((done - start).as_secs_f64());
    }
    let (inputs, mut models) = built.expect("at least one set-up");
    report.phase("setup", SETUP_REPEATS, setups.len(), 0);
    report.e2e("setup_s", median_or_zero(&setups));
    report.note(format!("set-ups: {setups:.5?} s"));

    let mut fits = vec![fit_suite(&mut models, &inputs.train, tracer.as_ref())?];
    let test = inputs.test.observations();
    let mut expected = Vec::new();
    let mut errors = Vec::new();
    for (model, fw) in models.iter().zip(frameworks) {
        let q = vital::evaluate_localizer(model.as_ref(), &inputs.test, &inputs.building)
            .map_err(err)?;
        let e = f64::from(q.mean_error_m());
        errors.push(e);
        report.layer_owned(format!("mean_error_m.{}", fw.name()), e);
        report.note(format!("mean_error_m {} = {e:.4} m", fw.name()));
        expected.push(model.localize_batch(test).map_err(err)?);
    }
    report.e2e("mean_error_m", errors[0]);
    report.check(
        "mean error of all five frameworks",
        errors.iter().all(|e| e.is_finite()),
        format!("{errors:?}"),
    );
    // A generous quality ceiling: VITAL lands at 0.3–1.6 m on this cell
    // across seeds; an untrained model errs by about 10 m.
    report.check(
        "VITAL quality",
        errors[0] < 3.0,
        format!("{:.4} m < 3 m", errors[0]),
    );

    // Compiled plan ≡ eager tape on the test set, on the checkpointed model.
    let dir = settings.run_dir.join("reproduce-b1");
    std::fs::create_dir_all(&dir).map_err(err)?;
    let ckpt =
        |fw: Framework| dir.join(format!("{}.{}", fw.name(), serve::registry::CHECKPOINT_EXT));
    for (model, &fw) in models.iter().zip(&frameworks) {
        model.save(&ckpt(fw)).map_err(err)?;
    }
    let vital_model = VitalModel::load(&ckpt(Framework::Vital)).map_err(err)?;
    let patches: Vec<tensor::Tensor> = test
        .iter()
        .map(|o| vital_model.prepare_patches(o, false, &mut SeededRng::new(0)))
        .collect::<Result<_, _>>()
        .map_err(err)?;
    let compiled = vital_model
        .transformer()
        .predict_batch(&patches)
        .map_err(err)?;
    let eager = vital_model
        .transformer()
        .predict_batch_eager(&patches)
        .map_err(err)?;
    report.check(
        "VITAL compiled == eager",
        compiled == eager && compiled == expected[0],
        format!("{} test observations", test.len()),
    );

    let ckpts: Vec<(Framework, PathBuf)> = frameworks.iter().map(|&f| (f, ckpt(f))).collect();
    drop(models);

    // Evaluation passes sampled between the phases; retraining between
    // them too.
    let eval_slice = settings.budget(0.08, 0.4);
    let mut eval = SuiteEval::default();
    let mut graph = GraphCounts::default();
    let refit = |fits: &mut Vec<Vec<f64>>| -> Result<bool, Error> {
        let mut fresh = build_suite(&inputs, seed)?;
        fits.push(fit_suite(&mut fresh, &inputs.train, tracer.as_ref())?);
        let mut same = true;
        for (model, want) in fresh.iter().zip(&expected) {
            same &= model.localize_batch(test).map_err(err)? == *want;
        }
        Ok(same)
    };
    let mut refits_match = true;

    // The suite's online phase — one query at a time to each framework in
    // turn — in three slices spread through the run, with evaluation
    // passes, retraining and the ladder between them. Each slice serves
    // fresh copies loaded from the checkpoints, so the figures average over
    // several weight allocations (see `mean_or_zero`).
    let rates = stats::ladder(100.0, 200_000.0, 1.06);
    let query_time = settings.budget(
        0.2 / (frameworks.len() * QUERY_COPIES_PER_SLICE) as f64,
        0.05,
    );
    let mut queries = vec![PhaseStats::default(); frameworks.len()];
    let mut copy_p50s = vec![Vec::new(); frameworks.len()];
    let mut copies_match = true;
    let mut ladder = PhaseStats::default();
    for slice in 0..SLICES {
        for copy in 0..QUERY_COPIES_PER_SLICE {
            let (suite, matched) = load_suite(&ckpts, tracer.as_ref(), test, &expected)?;
            copies_match &= matched;
            if copy == 0 {
                let before = GraphCounts::now();
                eval.sample(&suite, test, &expected, eval_slice)?;
                graph.add_since(before);
            }
            for (f, st) in queries.iter_mut().enumerate() {
                let draw = (slice * QUERY_COPIES_PER_SLICE + copy) * frameworks.len() + f;
                let order = SplitMix64::new(seed, 1 + draw as u64);
                let lane = SuiteLane::new(&suite, &expected, test, f..f + 1, order);
                let part = load::closed_loop(vec![lane], query_time);
                copy_p50s[f].extend(part.latency_ms(0.5));
                st.merge(part);
            }
            if slice == 1 && copy == 0 {
                ladder = run_ladder(report, &rates, SUITE_LIMIT_MS, |rate| {
                    let rung_time = rung_time(rate, 1000.0, 0.25, 0.8);
                    let order = SplitMix64::new(seed, rate.to_bits());
                    let lane = SuiteLane::new(&suite, &expected, test, 0..suite.len(), order);
                    load::paced_rung(vec![lane], rate, rung_time, seed, SUITE_LIMIT_MS)
                });
            }
        }
        if slice < 2 {
            refits_match &= refit(&mut fits)?;
        }
    }
    graph.report(report, "evaluation");
    report.check(
        "reloaded copies predict as trained",
        copies_match,
        format!("{} copies of the suite", SLICES * QUERY_COPIES_PER_SLICE),
    );
    // `p50_ms` is the latency of one query to each framework: the sum over
    // frameworks of their median single-query latency, so every framework
    // moves it. Each framework's median is the mean of its copies'
    // medians. `p99_ms` sums the frameworks' p99s over all their queries.
    let mut all_queries = PhaseStats::default();
    let (mut p50_sum, mut p99_sum) = (0.0, Some(0.0));
    for ((st, p50s), fw) in queries.into_iter().zip(&copy_p50s).zip(frameworks) {
        let p50 = mean_or_zero(p50s);
        let p99 = st.latency_ms(0.99);
        report.layer_owned(format!("query.{}.p50_ms", fw.name()), p50);
        report.note(format!(
            "queries to {}: {} ok of {} attempted, p99 {p99:?} ms, p50 per copy {p50s:.4?} ms",
            fw.name(),
            st.ok,
            st.attempted
        ));
        p50_sum += p50;
        p99_sum = p99_sum.zip(p99).map(|(a, b)| a + b);
        all_queries.merge(st);
    }
    record_phase(report, "queries", &all_queries);
    report.e2e("p50_ms", p50_sum);
    match p99_sum {
        Some(p99) => report.e2e("p99_ms", p99),
        None => report.note("p99_ms not reported: a framework had under 1000 query samples"),
    }
    report.e2e(
        "rps",
        all_queries.ok as f64 / all_queries.elapsed_s.max(1e-9),
    );
    report.layer("gen.late_ms_max", ladder.lateness.max_ms);

    let mut fit_total = 0.0;
    for (f, fw) in frameworks.iter().enumerate() {
        let per: Vec<f64> = fits.iter().map(|run| run[f]).collect();
        let s = mean_or_zero(&per);
        fit_total += s;
        report.layer_owned(format!("fit_s.{}", fw.name()), s);
    }
    report.e2e("fit_s", fit_total);
    let n = fits.len() * frameworks.len();
    report.phase(
        "fit",
        n,
        if refits_match { n } else { 0 },
        if refits_match { 0 } else { n },
    );
    report.check(
        "retraining is deterministic",
        refits_match,
        format!("{} suite fits", fits.len()),
    );
    let (per_fw, eval_rate) = eval.rates(test.len());
    report.e2e("eval_obs_per_s", eval_rate);
    for (fw, rate) in frameworks.iter().zip(&per_fw) {
        report.layer_owned(format!("eval.{}.obs_per_s", fw.name()), *rate);
    }
    let p = eval.passes;
    report.phase(
        "eval",
        p,
        if eval.matched { p } else { 0 },
        if eval.matched { 0 } else { p },
    );
    report.check(
        "evaluation passes match",
        eval.matched,
        format!("{p} passes"),
    );

    if let Some(tracer) = &tracer {
        let (r, s) = time_s(|| Registry::from_checkpoint_dir(&dir));
        r?;
        report.layer("registry.load_ms", s * 1e3);
        let spans = batch_spans_in(tracer, &[]);
        let calls = spans.len().max(1) as f64;
        report.layer(
            "vital.localize_batch_ms",
            spans.iter().map(trace::Span::ms).sum::<f64>() / calls,
        );
        let fresh = VitalModel::load(&ckpt(Framework::Vital)).map_err(err)?;
        layers::vital_stages(report, &vital_model, &fresh, test, &histogram(&spans));
        let bodies: Vec<Vec<u8>> = test.iter().map(layers::request_body).collect();
        layers::http_and_codec(report, "VITAL", &bodies, &expected[0]);
        let config = vital_model.config();
        let paper = VitalConfig::paper(config.num_aps, config.num_classes);
        layers::kernel_ledger(report, config, test.len(), &[("paper", paper)]);
        // Tracing overhead: the same passes through unwrapped copies.
        let plain: Vec<Box<dyn Localizer>> = frameworks
            .iter()
            .map(|&f| baselines::load_localizer(&ckpt(f)).map_err(err))
            .collect::<Result<_, _>>()?;
        let mut untraced = SuiteEval::default();
        untraced.sample(&plain, test, &expected, eval_slice * 2)?;
        let (_, plain_rate) = untraced.rates(test.len());
        report.layer("trace.overhead_share", 1.0 - eval_rate / plain_rate);
        write_trace(tracer, settings, "reproduce-b1")?;
    }
    Ok(())
}
