//! Per-layer measurements made from the benchmark's own files: calls into
//! each layer's public functions, timed at the shapes and batch sizes the
//! workload actually ran, plus the kernel ledger at model shapes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fingerprint::FingerprintObservation;
use serve::codec;
use serve::http::{self, Method, Response};
use tensor::rng::SeededRng;
use tensor::{MatmulSpec, Tensor};
use vital::{VitalConfig, VitalModel};

use crate::report::Report;
use crate::stats::{self, SplitMix64};

/// `tensor::matmul` sends every product with `k · n` at or below this down
/// its unpacked, single-threaded loop (the constant is private to the
/// tensor crate; the ledger labels each GEMM site with its side of it).
pub const SMALL_KN: usize = 4096;

/// Median seconds per call of `f`, timed in blocks of `block` calls for
/// about `budget` in total.
pub fn time_per_call(block: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    f(); // warm
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || (start.elapsed() < budget && samples.len() < 200) {
        let t = Instant::now();
        for _ in 0..block {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / block as f64);
    }
    stats::median(&samples).unwrap_or(0.0)
}

/// A single-observation `/v1/localize` request body, as a phone sends it.
pub fn request_body(observation: &FingerprintObservation) -> Vec<u8> {
    jsonio::Json::obj([("observation", codec::observation_to_json(observation))])
        .to_json_string()
        .into_bytes()
}

/// The raw bytes of a `POST /v1/localize` request carrying `body`.
pub fn raw_request(body: &[u8]) -> Vec<u8> {
    let mut raw = Vec::with_capacity(body.len() + 128);
    http::write_request(
        &mut raw,
        Method::Post,
        "/v1/localize",
        &[("host", "127.0.0.1"), ("content-type", "application/json")],
        body,
    )
    .expect("writing to a Vec cannot fail");
    raw
}

/// Times the HTTP and codec layers on the run's own request bodies and
/// predictions: `http.parse_us`, `http.write_us`, `codec.decode_us` and
/// `codec.encode_us`.
pub fn http_and_codec(report: &mut Report, model: &str, bodies: &[Vec<u8>], predictions: &[usize]) {
    let raws: Vec<Vec<u8>> = bodies.iter().map(|b| raw_request(b)).collect();
    let budget = Duration::from_millis(60);
    let mut i = 0;
    let parse = time_per_call(64, budget, || {
        i = (i + 1) % raws.len();
        let parsed = http::parse_request(std::hint::black_box(&raws[i]));
        std::hint::black_box(parsed.is_ok());
    });
    let mut i = 0;
    let decode = time_per_call(64, budget, || {
        i = (i + 1) % bodies.len();
        let decoded = codec::parse_localize_request(std::hint::black_box(&bodies[i]));
        std::hint::black_box(decoded.is_ok());
    });
    let mut i = 0;
    let encode = time_per_call(256, budget, || {
        i = (i + 1) % predictions.len();
        let body = codec::predictions_response(model, &predictions[i..=i], false)
            .to_json_string()
            .into_bytes();
        std::hint::black_box(body);
    });
    let responses: Vec<Response> = predictions
        .iter()
        .map(|&p| {
            Response::new(
                200,
                codec::predictions_response(model, &[p], false)
                    .to_json_string()
                    .into_bytes(),
            )
        })
        .collect();
    let mut out = Vec::with_capacity(256);
    let mut i = 0;
    let write = time_per_call(256, budget, || {
        i = (i + 1) % responses.len();
        out.clear();
        http::write_response(&mut out, &responses[i], true).expect("Vec write");
        std::hint::black_box(&out);
    });
    report.layer("http.parse_us", parse * 1e6);
    report.layer("http.write_us", write * 1e6);
    report.layer("codec.decode_us", decode * 1e6);
    report.layer("codec.encode_us", encode * 1e6);
}

/// Inference-mode patches of each observation, exactly as
/// `localize_batch` prepares them (fixed seed 0 per observation).
fn patches(model: &VitalModel, observations: &[&FingerprintObservation]) -> Vec<Tensor> {
    observations
        .iter()
        .map(|o| {
            model
                .prepare_patches(o, false, &mut SeededRng::new(0))
                .expect("pool observations are valid")
        })
        .collect()
}

/// Times VITAL's stages at the batch sizes the run formed (`batches`:
/// batch size → count): `vital.prepare_ms_per_obs`,
/// `vital.prepare_train_ms_per_obs`, `vital.vit_ms_per_obs` (weighted by
/// the observations each size carried) and `graph.cold_plan_ms` (a fresh
/// copy of the model's first `predict_batch` at the mean batch minus a
/// warm call).
pub fn vital_stages(
    report: &mut Report,
    model: &VitalModel,
    fresh: &VitalModel,
    pool: &[FingerprintObservation],
    batches: &BTreeMap<usize, u64>,
) {
    let budget = Duration::from_millis(40);
    let mut i = 0;
    let prepare = time_per_call(8, budget, || {
        i = (i + 1) % pool.len();
        let p = model.prepare_patches(&pool[i], false, &mut SeededRng::new(0));
        std::hint::black_box(p.is_ok());
    });
    let mut rng = SeededRng::new(11);
    let mut i = 0;
    let prepare_train = time_per_call(8, budget, || {
        i = (i + 1) % pool.len();
        let p = model.prepare_patches(&pool[i], true, &mut rng);
        std::hint::black_box(p.is_ok());
    });
    let mut weighted = 0.0;
    let mut obs_total = 0.0;
    for (&size, &count) in batches {
        let picked: Vec<&FingerprintObservation> =
            (0..size).map(|k| &pool[k % pool.len()]).collect();
        let batch = patches(model, &picked);
        let per_call = time_per_call(1, budget, || {
            let p = model.transformer().predict_batch(&batch);
            std::hint::black_box(p.is_ok());
        });
        let obs = (size as u64 * count) as f64;
        weighted += per_call / size as f64 * obs;
        obs_total += obs;
    }
    let mean_batch = if obs_total > 0.0 {
        let calls: u64 = batches.values().sum();
        (obs_total / calls as f64).round().max(1.0) as usize
    } else {
        1
    };
    let picked: Vec<&FingerprintObservation> =
        (0..mean_batch).map(|k| &pool[k % pool.len()]).collect();
    let batch = patches(fresh, &picked);
    let t = Instant::now();
    let cold = fresh.transformer().predict_batch(&batch);
    let cold_s = t.elapsed().as_secs_f64();
    std::hint::black_box(cold.is_ok());
    let warm_s = time_per_call(1, budget, || {
        let p = fresh.transformer().predict_batch(&batch);
        std::hint::black_box(p.is_ok());
    });
    report.layer("vital.prepare_ms_per_obs", prepare * 1e3);
    report.layer("vital.prepare_train_ms_per_obs", prepare_train * 1e3);
    if obs_total > 0.0 {
        report.layer("vital.vit_ms_per_obs", weighted / obs_total * 1e3);
    }
    report.layer("graph.cold_plan_ms", (cold_s - warm_s) * 1e3);
}

/// One GEMM site of the ViT forward pass at a batch size.
#[derive(Debug, Clone)]
pub struct GemmSite {
    /// Site name (`patch_embed`, `qkv`, …).
    pub name: &'static str,
    /// Rows of `op(A)`.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of `op(B)`.
    pub n: usize,
    /// Calls per forward pass.
    pub calls: usize,
    /// Operand transposes.
    pub spec: MatmulSpec,
}

impl GemmSite {
    /// FLOPs of one call.
    pub fn flops(&self) -> f64 {
        2.0 * (self.m * self.k * self.n) as f64
    }

    /// Whether the product takes tensor's unpacked small path.
    pub fn small(&self) -> bool {
        self.k * self.n <= SMALL_KN
    }
}

/// Every GEMM of one compiled ViT forward pass over `batch` images, read
/// off the configuration (one encoder block per `encoder_blocks`; the last
/// block concatenates its MLP output, earlier ones add it back).
pub fn gemm_sites(config: &VitalConfig, batch: usize) -> Vec<GemmSite> {
    let n_patches = config.num_patches();
    let rows = batch * n_patches;
    let d = config.d_model;
    let heads = config.msa_heads;
    let dh = d / heads;
    let blocks = config.encoder_blocks;
    let site = |name, m, k, n, calls, spec| GemmSite {
        name,
        m,
        k,
        n,
        calls,
        spec,
    };
    let mut sites = vec![
        site(
            "patch_embed",
            rows,
            config.patch_dim(),
            d,
            1,
            MatmulSpec::NN,
        ),
        site("qkv", rows, d, d, 3 * blocks, MatmulSpec::NN),
        site(
            "scores",
            n_patches,
            dh,
            n_patches,
            batch * heads * blocks,
            MatmulSpec::NT,
        ),
        site(
            "context",
            n_patches,
            n_patches,
            dh,
            batch * heads * blocks,
            MatmulSpec::NN,
        ),
        site("attn_out", rows, d, d, blocks, MatmulSpec::NN),
    ];
    let hidden = &config.encoder_mlp_hidden;
    let mut widths = vec![d];
    widths.extend_from_slice(hidden);
    let names = ["mlp1", "mlp2", "mlp3", "mlp4"];
    for (i, w) in widths.windows(2).enumerate().take(names.len()) {
        sites.push(site(names[i], rows, w[0], w[1], blocks, MatmulSpec::NN));
    }
    if blocks > 1 {
        // Residual blocks project the MLP back to d_model.
        let last = *widths.last().expect("widths non-empty");
        sites.push(site("mlp_out", rows, last, d, blocks - 1, MatmulSpec::NN));
    }
    let encoder_out = d + widths.last().copied().unwrap_or(d);
    let mut head = vec![encoder_out];
    head.extend_from_slice(&config.head_hidden);
    head.push(config.num_classes);
    let head_names = ["head1", "head2", "head3", "head4"];
    for (i, w) in head.windows(2).enumerate().take(head_names.len()) {
        sites.push(site(head_names[i], batch, w[0], w[1], 1, MatmulSpec::NN));
    }
    sites
}

/// Share of a forward pass's GEMM FLOPs that take the small path.
pub fn small_path_flop_share(sites: &[GemmSite]) -> f64 {
    let total: f64 = sites.iter().map(|s| s.flops() * s.calls as f64).sum();
    let small: f64 = sites
        .iter()
        .filter(|s| s.small())
        .map(|s| s.flops() * s.calls as f64)
        .sum();
    small / total.max(1.0)
}

fn random(len: usize, rng: &mut SplitMix64) -> Vec<f32> {
    (0..len).map(|_| rng.next_f64() as f32 - 0.5).collect()
}

/// GFLOP/s of `tensor::gemm_ex_into` at one site's shape.
pub fn gemm_gflops(site: &GemmSite) -> f64 {
    let mut rng = SplitMix64::new(5, (site.m * 31 + site.k * 7 + site.n) as u64);
    let a = random(site.m * site.k, &mut rng);
    let b = random(site.k * site.n, &mut rng);
    let mut out = vec![0.0f32; site.m * site.n];
    let block = (2e6 / site.flops()).ceil().clamp(1.0, 4096.0) as usize;
    let s = time_per_call(block, Duration::from_millis(15), || {
        tensor::gemm_ex_into(site.m, site.k, site.n, &a, &b, site.spec, &mut out);
        std::hint::black_box(&out);
    });
    site.flops() / s / 1e9
}

/// GB/s of one row-wise SIMD kernel pass, with the bytes computed from
/// tensor sizes: every element read and written once (layer norm also
/// reads γ and β).
pub fn simd_gbps(kernel: &str, rows: usize, cols: usize) -> f64 {
    let mut rng = SplitMix64::new(9, (rows * cols) as u64);
    let src = random(rows * cols, &mut rng);
    let mut data = src.clone();
    let gamma = vec![1.0f32; cols];
    let beta = vec![0.0f32; cols];
    let elems = rows * cols;
    let block = (200_000 / elems.max(1)).clamp(1, 4096);
    let s = time_per_call(block, Duration::from_millis(15), || {
        data.copy_from_slice(&src);
        match kernel {
            "softmax" => simd::softmax_rows(&mut data, cols),
            "layer_norm" => simd::layer_norm_rows(&mut data, cols, &gamma, &beta, 1e-5),
            _ => simd::apply_act(simd::Act::Gelu, &mut data),
        }
        std::hint::black_box(&data);
    });
    let mut bytes = 8.0 * elems as f64;
    if kernel == "layer_norm" {
        bytes += 8.0 * cols as f64;
    }
    bytes / s / 1e9
}

/// The kernel ledger: GFLOP/s of every ViT GEMM site at batch 1 and at
/// `mean_batch`, its side of [`SMALL_KN`], the small-path FLOP share, and
/// the three SIMD kernels at model row widths. Metrics come from the
/// workload's own `config`; `also` (for example the other model config)
/// is ledgered in the report lines only.
pub fn kernel_ledger(
    report: &mut Report,
    config: &VitalConfig,
    mean_batch: usize,
    also: &[(&str, VitalConfig)],
) {
    let mean_batch = mean_batch.max(1);
    let mut configs = vec![("workload", config.clone())];
    configs.extend(also.iter().map(|(n, c)| (*n, c.clone())));
    for (label, cfg) in &configs {
        let is_workload = *label == "workload";
        for (batch, tag) in [(1, "b1"), (mean_batch, "bmean")] {
            let sites = gemm_sites(cfg, batch);
            for site in &sites {
                let gflops = gemm_gflops(site);
                report.note(format!(
                    "ledger {label} img{} p{} batch {batch}: {} m={} k={} n={} x{} {} {:.2} GFLOP/s {:.0} flop {:.0} bytes",
                    cfg.image_size,
                    cfg.patch_size,
                    site.name,
                    site.m,
                    site.k,
                    site.n,
                    site.calls,
                    if site.small() { "small" } else { "packed" },
                    gflops,
                    site.flops(),
                    4.0 * (site.m * site.k + site.k * site.n + site.m * site.n) as f64,
                ));
                if is_workload {
                    let name = if tag == "b1" {
                        format!("matmul.{}.b1.gflops", site.name)
                    } else {
                        format!("matmul.{}.gflops", site.name)
                    };
                    report.layer_owned(name, gflops);
                }
            }
            if is_workload && tag == "bmean" {
                report.layer(
                    "matmul.small_path_flop_share",
                    small_path_flop_share(&sites),
                );
            }
        }
        let rows = mean_batch * cfg.num_patches();
        let hidden = cfg
            .encoder_mlp_hidden
            .first()
            .copied()
            .unwrap_or(cfg.d_model);
        for (kernel, r, c) in [
            (
                "softmax",
                mean_batch * cfg.msa_heads * cfg.num_patches(),
                cfg.num_patches(),
            ),
            ("layer_norm", rows, cfg.d_model),
            ("gelu", rows, hidden),
        ] {
            let gbps = simd_gbps(kernel, r, c);
            report.note(format!(
                "ledger {label} img{} p{} batch {mean_batch}: simd.{kernel} rows={r} cols={c} {gbps:.2} GB/s (bytes computed from tensor sizes)",
                cfg.image_size, cfg.patch_size
            ));
            if is_workload {
                report.layer_owned(format!("simd.{kernel}_gbps"), gbps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sites_match_the_model_shapes() {
        let config = VitalConfig::paper(20, 76);
        let sites = gemm_sites(&config, 2);
        let get = |n: &str| sites.iter().find(|s| s.name == n).expect(n);
        let embed = get("patch_embed");
        assert_eq!((embed.m, embed.k, embed.n), (200, 1200, 80));
        assert!(!embed.small());
        let scores = get("scores");
        assert_eq!(
            (scores.m, scores.k, scores.n, scores.calls),
            (100, 16, 100, 10)
        );
        assert!(scores.small());
        let head1 = get("head1");
        assert_eq!((head1.m, head1.k, head1.n), (2, 80 + 64, 128));
        assert_eq!(get("head2").n, 76);
    }

    #[test]
    fn fast_config_runs_on_the_small_path_but_the_class_head() {
        let config = VitalConfig::fast(20, 76);
        let sites = gemm_sites(&config, 4);
        for site in &sites {
            assert_eq!(site.small(), site.name != "head2", "{}", site.name);
        }
        let share = small_path_flop_share(&sites);
        assert!(share > 0.95 && share < 1.0, "share {share}");
        let paper = small_path_flop_share(&gemm_sites(&VitalConfig::paper(20, 76), 4));
        assert!(paper > 0.0 && paper < 0.5, "paper share {paper}");
    }
}
