//! Metric catalogs, the run report and its output: human-readable lines
//! first, then the one-line JSON result the contract asks for.

use jsonio::Json;

/// `(name, unit)` of every end-to-end metric. Every workload reports all of
/// them (see README.md for what each means on each workload).
pub const END_TO_END: &[(&str, &str)] = &[("p50_ms", "ms"), ("fit_s", "s"), ("setup_s", "s")];

/// End-to-end figures printed in the report but left out of the gated
/// set (see README.md for the measured reasons).
pub const REPORTED_ONLY: &[(&str, &str)] = &[
    ("rps", "1/s"),
    ("eval_obs_per_s", "obs/s"),
    ("max_rps", "1/s"),
    ("p99_ms", "ms"),
    ("mean_error_m", "m"),
    ("failed_share", "share"),
];

/// Frameworks of the reproduction suite, in the paper's order.
pub const FRAMEWORKS: [&str; 5] = ["VITAL", "ANVIL", "SHERPA", "CNNLoc", "WiDeep"];

/// GEMM sites the kernel ledger reports as metrics.
pub const GEMM_SITES: [&str; 9] = [
    "patch_embed",
    "qkv",
    "scores",
    "context",
    "attn_out",
    "mlp1",
    "mlp2",
    "head1",
    "head2",
];

/// `(name, unit)` of every per-layer metric, in report order. A traced run
/// prints all of them; a layer the workload never calls reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("http.parse_us", "us"),
        ("http.write_us", "us"),
        ("codec.decode_us", "us"),
        ("codec.encode_us", "us"),
        ("batcher.wait_ms", "ms"),
        ("batcher.batch_obs", "obs"),
        ("batcher.busy_share", "share"),
        ("batcher.shed_share", "share"),
        ("registry.load_ms", "ms"),
        ("vital.localize_batch_ms", "ms"),
        ("vital.prepare_ms_per_obs", "ms"),
        ("vital.vit_ms_per_obs", "ms"),
        ("vital.prepare_train_ms_per_obs", "ms"),
        ("graph.plan_hit_ratio", "share"),
        ("graph.plans_built", "count"),
        ("graph.arena_reuse_ratio", "share"),
        ("graph.cold_plan_ms", "ms"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for site in GEMM_SITES {
        v.push((format!("matmul.{site}.gflops"), "GFLOP/s"));
        v.push((format!("matmul.{site}.b1.gflops"), "GFLOP/s"));
    }
    v.push(("matmul.small_path_flop_share".into(), "share"));
    for k in ["softmax", "layer_norm", "gelu"] {
        v.push((format!("simd.{k}_gbps"), "GB/s"));
    }
    for f in FRAMEWORKS {
        v.push((format!("fit_s.{f}"), "s"));
    }
    for f in FRAMEWORKS {
        v.push((format!("eval.{f}.obs_per_s"), "obs/s"));
    }
    for f in FRAMEWORKS {
        v.push((format!("query.{f}.p50_ms"), "ms"));
    }
    for f in FRAMEWORKS {
        v.push((format!("mean_error_m.{f}"), "m"));
    }
    v.push(("gen.late_ms_max".into(), "ms"));
    v.push(("trace.overhead_share".into(), "share"));
    v
}

/// Attempted / succeeded / failed counts of one phase of a run.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name.
    pub name: String,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that succeeded.
    pub succeeded: usize,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: usize,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    e2e: Vec<(String, f64)>,
    layers: Vec<(String, f64)>,
    phases: Vec<Phase>,
    checks: Vec<(String, bool, String)>,
    notes: Vec<String>,
}

impl Report {
    /// Records an end-to-end figure (gated or reported-only).
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.push((name.to_string(), value));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }

    /// Records a per-layer metric with a computed name.
    pub fn layer_owned(&mut self, name: String, value: f64) {
        self.layers.push((name, value));
    }

    /// Records a phase's counts.
    pub fn phase(&mut self, name: &str, attempted: usize, succeeded: usize, failed: usize) {
        self.phases.push(Phase {
            name: name.to_string(),
            attempted,
            succeeded,
            failed,
        });
    }

    /// Records an output check; any failed check makes the run incorrect.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }

    /// Adds a free-form report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    fn value(list: &[(String, f64)], name: &str) -> Option<f64> {
        list.iter().rev().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// A recorded end-to-end figure.
    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        Self::value(&self.e2e, name)
    }

    /// Operations attempted and failed over every phase.
    pub fn totals(&self) -> (usize, usize) {
        self.phases
            .iter()
            .fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed))
    }

    /// Prints the human-readable report, then the JSON result as the last
    /// line: end-to-end metrics untraced, per-layer metrics traced. Metrics
    /// a run could not measure are reported as missing in the check list,
    /// which makes the run incorrect.
    pub fn print(&mut self, traced: bool, stamp: &[(&str, String)]) {
        let (attempted, failed) = self.totals();
        let failed_share = failed as f64 / attempted.max(1) as f64;
        if self.e2e_value("failed_share").is_none() {
            self.e2e("failed_share", failed_share);
        }
        let mut metrics = Vec::new();
        if traced {
            for (name, unit) in per_layer() {
                let value = Self::value(&self.layers, &name).unwrap_or(0.0);
                metrics.push((name, value, unit));
            }
        } else {
            for (name, unit) in END_TO_END {
                match self.e2e_value(name) {
                    Some(v) if v.is_finite() && v > 0.0 => {
                        metrics.push((name.to_string(), v, *unit))
                    }
                    other => self.checks.push((
                        format!("metric {name}"),
                        false,
                        format!("not measured (got {other:?})"),
                    )),
                }
            }
        }
        for (k, v) in stamp {
            println!("stamp {k}: {v}");
        }
        for p in &self.phases {
            println!(
                "phase {}: attempted {} succeeded {} failed {}",
                p.name, p.attempted, p.succeeded, p.failed
            );
        }
        for line in &self.notes {
            println!("{line}");
        }
        for (name, value) in &self.e2e {
            let unit = END_TO_END
                .iter()
                .chain(REPORTED_ONLY)
                .find(|(n, _)| n == name)
                .map_or("", |(_, u)| *u);
            println!("e2e {name} = {value} {unit}");
        }
        for (name, value) in &self.layers {
            println!("layer {name} = {value}");
        }
        for (name, ok, detail) in &self.checks {
            println!(
                "check {name}: {} {detail}",
                if *ok { "ok" } else { "FAILED" }
            );
        }
        let correct = self.correct();
        let doc = Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::from(attempted.max(1))),
            ("failed", Json::from(failed)),
            (
                "metrics",
                Json::Obj(
                    metrics
                        .into_iter()
                        .map(|(name, value, unit)| {
                            let value = if value.is_finite() { value } else { 0.0 };
                            (
                                name,
                                Json::obj([
                                    ("value", Json::Num(value)),
                                    ("unit", Json::from(unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{}", doc.to_json_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogs here and `BENCHMARK.json` must name the same metrics.
    #[test]
    fn catalogs_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = jsonio::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Json::as_str)
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn layer_names_are_unique_and_within_limits() {
        let layers = per_layer();
        let mut names: Vec<&str> = layers.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), layers.len());
        assert!(layers.len() <= 128);
        assert!(names.iter().all(|n| n.len() <= 64));
    }
}
