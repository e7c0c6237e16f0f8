//! WiDeep (paper ref. \[22\]): a denoising stacked autoencoder feeding a
//! Gaussian-process classifier.
//!
//! A full Gaussian-process classifier is replaced by a Gaussian
//! (RBF) kernel classifier over the autoencoder codes — a Nadaraya–Watson
//! estimator of the class posterior, which is the GP predictive mean under a
//! fixed kernel and i.i.d. class labels. This keeps the baseline faithful to
//! its published structure (denoising SAE → Gaussian kernel inference) while
//! remaining tractable inside the reproduction; the substitution is recorded
//! in `DESIGN.md`.

use std::path::Path;

use fingerprint::{FingerprintDataset, FingerprintObservation};
use graph::{ExprId, Graph, GraphError, PlanCache};
use nn::{Layer, StackedAutoencoder};
use tensor::rng::SeededRng;
use tensor::Tensor;
use vital::{Checkpoint, CheckpointError, DamConfig, Localizer, ModelKind, Result, VitalError};

use crate::features::{rows_to_tensor, tensor_to_rows};
use crate::{FeatureExtractor, FeatureMode};

/// The WiDeep localizer: denoising SAE + Gaussian-kernel classification.
#[derive(Debug)]
pub struct WiDeepLocalizer {
    seed: u64,
    extractor: FeatureExtractor,
    pretrain_epochs: usize,
    /// Corruption noise used during denoising pre-training.
    corruption_std: f32,
    /// RBF kernel length scale in code space.
    length_scale: f32,
    autoencoder: Option<StackedAutoencoder>,
    codes: Vec<Vec<f32>>,
    labels: Vec<usize>,
    num_classes: usize,
    /// Compiled SAE-encoder plans, keyed by `(batch, weight stamp)`.
    plan_cache: PlanCache,
}

impl WiDeepLocalizer {
    /// Creates an untrained WiDeep instance.
    pub fn new(seed: u64) -> Self {
        WiDeepLocalizer {
            seed,
            extractor: FeatureExtractor::new(FeatureMode::MeanChannel),
            pretrain_epochs: 60,
            corruption_std: 0.08,
            length_scale: 0.6,
            autoencoder: None,
            codes: Vec::new(),
            labels: Vec::new(),
            num_classes: 0,
            plan_cache: PlanCache::new(),
        }
    }

    /// Bolts the VITAL DAM onto the input pipeline (paper §VI.D).
    ///
    /// The paper observes WiDeep tends to *overfit* when DAM is added
    /// (its own denoising SAE already aggressively perturbs the input); that
    /// behaviour emerges naturally here because DAM noise is applied on top
    /// of the SAE corruption noise.
    pub fn with_dam(mut self, dam: Option<DamConfig>) -> Self {
        self.extractor = FeatureExtractor::new(FeatureMode::MeanChannel).with_dam(dam);
        self
    }

    /// Overrides the SAE pre-training epochs (default 60).
    pub fn with_pretrain_epochs(mut self, epochs: usize) -> Self {
        self.pretrain_epochs = epochs.max(1);
        self
    }

    /// Builds the denoising SAE for a feature width — shared by training
    /// and checkpoint restoration so both construct identical
    /// architectures (any drift would silently break the bit-identical
    /// reload contract).
    fn build_autoencoder(seed: u64, width: usize) -> StackedAutoencoder {
        let mut init_rng = SeededRng::new(seed.wrapping_add(1));
        StackedAutoencoder::new(&mut init_rng, width, &[width.max(16), (width / 2).max(8)])
    }

    /// Serializes the denoising autoencoder and the kernel classifier's
    /// code memory into a [`Checkpoint`].
    ///
    /// # Errors
    /// Returns [`VitalError::NotFitted`] before [`Localizer::fit`].
    pub fn to_checkpoint(&self) -> Result<Checkpoint> {
        let ae = self.autoencoder.as_ref().ok_or(VitalError::NotFitted)?;
        let code_width = self.codes.first().map(Vec::len).unwrap_or(0);
        let mut ckpt = Checkpoint::new(ModelKind::WiDeep);
        ckpt.set_dam_config(self.extractor.dam_config());
        ckpt.push_ints("seed", vec![self.seed]);
        ckpt.push_ints(
            "dims",
            vec![
                self.pretrain_epochs as u64,
                self.num_classes as u64,
                ae.input_dim() as u64,
            ],
        );
        ckpt.push_scalar("corruption_std", f64::from(self.corruption_std));
        ckpt.push_scalar("length_scale", f64::from(self.length_scale));
        ckpt.push_state("autoencoder", ae.state_dict());
        ckpt.push_tensor("codes", rows_to_tensor(&self.codes, code_width)?);
        ckpt.push_ints("labels", self.labels.iter().map(|&l| l as u64).collect());
        Ok(ckpt)
    }

    /// Restores a fitted WiDeep instance from a [`Checkpoint`]; kernel
    /// inference over the restored codes is bit-identical to the saved
    /// instance's.
    ///
    /// # Errors
    /// Returns typed checkpoint errors on kind mismatch, missing entries or
    /// weight-shape drift.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self> {
        ckpt.expect_kind(ModelKind::WiDeep)?;
        let seed = ckpt.ints("seed")?.first().copied().unwrap_or(0);
        let dims = ckpt.usizes("dims")?;
        let [pretrain_epochs, num_classes, width] = dims[..] else {
            return Err(CheckpointError::Corrupt(format!(
                "expected 3 dimension entries, found {}",
                dims.len()
            ))
            .into());
        };
        let mut wideep = WiDeepLocalizer::new(seed)
            .with_dam(ckpt.dam_config().copied())
            .with_pretrain_epochs(pretrain_epochs);
        wideep.num_classes = num_classes;
        wideep.corruption_std = ckpt.scalar("corruption_std")? as f32;
        wideep.length_scale = ckpt.scalar("length_scale")? as f32;

        // Rebuild the SAE exactly as `fit` does, then restore its weights.
        let autoencoder = Self::build_autoencoder(seed, width);
        autoencoder.load_state(ckpt.state("autoencoder")?)?;
        wideep.autoencoder = Some(autoencoder);

        wideep.codes = tensor_to_rows(ckpt.tensor("codes")?)?;
        wideep.labels = ckpt.usizes("labels")?;
        if wideep.codes.len() != wideep.labels.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} stored codes but {} labels",
                wideep.codes.len(),
                wideep.labels.len()
            ))
            .into());
        }
        Ok(wideep)
    }

    /// The SAE-encoder graph over a `[rows, cols]` feature stack.
    fn graph(
        ae: &StackedAutoencoder,
        rows: usize,
        cols: usize,
    ) -> std::result::Result<(Graph, ExprId), GraphError> {
        let mut g = Graph::new();
        let x = g.input(rows, cols);
        let code = ae.encode_push_graph(&mut g, x)?;
        Ok((g, code))
    }

    /// Encodes a `[batch, width]` feature stack through the cached compiled
    /// SAE-encoder plan.
    fn encode_matrix(&self, features: &Tensor) -> Result<Tensor> {
        let ae = self.autoencoder.as_ref().ok_or(VitalError::NotFitted)?;
        let (rows, cols) = features.shape().as_matrix()?;
        let entry = self
            .plan_cache
            .get_or_build(rows, nn::weight_stamp(&ae.params()), || {
                Self::graph(ae, rows, cols)
            })?;
        Ok(entry.execute(&[features])?)
    }

    /// Number of compiled encoder plans currently cached (one per batch
    /// shape served since the last weight change).
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.len()
    }

    /// Gaussian-kernel classification of a stack of encoded queries; the
    /// scoring only touches Sync state, so queries fan out across threads.
    fn classify_codes(&self, codes: &Tensor) -> Result<Vec<usize>> {
        let code_width = codes.cols()?;
        let queries: Vec<&[f32]> = codes.as_slice().chunks_exact(code_width).collect();
        let scored = parallel::parallel_map(&queries, |query| self.classify_code(query));
        scored.into_iter().map(|s| Ok(s?)).collect()
    }

    /// Gaussian-kernel posterior argmax for one encoded query.
    fn classify_code(&self, query: &[f32]) -> tensor::Result<usize> {
        let gamma = 1.0 / (2.0 * self.length_scale * self.length_scale);
        let mut posterior = vec![0.0f32; self.num_classes];
        for (code, &label) in self.codes.iter().zip(&self.labels) {
            let d2: f32 = code.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum();
            posterior[label] += (-gamma * d2).exp();
        }
        Tensor::from_vec(posterior, &[self.num_classes])?.argmax()
    }

    /// [`Localizer::localize_batch`] with the SAE-encoder graph replayed op
    /// by op on a tape — the uncompiled reference the parity tests compare
    /// against.
    ///
    /// # Errors
    /// Returns [`VitalError::NotFitted`] before [`Localizer::fit`].
    pub fn localize_batch_eager(
        &self,
        observations: &[FingerprintObservation],
    ) -> Result<Vec<usize>> {
        self.localize_with(observations, |features| {
            let ae = self.autoencoder.as_ref().ok_or(VitalError::NotFitted)?;
            let (rows, cols) = features.shape().as_matrix()?;
            let (g, code) = Self::graph(ae, rows, cols)?;
            Ok(nn::interpret_eval(&g, &[features], code)?)
        })
    }

    /// Encodes each chunk of clean query features with `encode`, then
    /// kernel-scores the codes.
    fn localize_with(
        &self,
        observations: &[FingerprintObservation],
        encode: impl Fn(&Tensor) -> Result<Tensor>,
    ) -> Result<Vec<usize>> {
        if self.codes.is_empty() {
            return Err(VitalError::NotFitted);
        }
        let mut predictions = Vec::with_capacity(observations.len());
        for chunk in observations.chunks(crate::features::INFERENCE_CHUNK) {
            let features = self.extractor.extract_clean_batch(chunk);
            let codes = encode(&crate::features::stack_rows(&features)?)?;
            predictions.extend(self.classify_codes(&codes)?);
        }
        Ok(predictions)
    }
}

impl Localizer for WiDeepLocalizer {
    fn name(&self) -> &str {
        "WiDeep"
    }

    fn fit(&mut self, train: &FingerprintDataset) -> Result<()> {
        if train.is_empty() {
            return Err(VitalError::InvalidDataset("empty training set".into()));
        }
        self.num_classes = train.num_rps();
        let mut rng = SeededRng::new(self.seed);
        let (features, _) = self.extractor.extract_matrix(train, true, 1, &mut rng);
        let width = features.cols()?;

        // Denoising SAE pre-training (aggressive corruption, per the paper's
        // description of WiDeep's behaviour).
        let autoencoder = Self::build_autoencoder(self.seed, width);
        autoencoder
            .pretrain(
                &features,
                self.pretrain_epochs,
                5e-3,
                self.corruption_std,
                self.seed,
            )
            .map_err(VitalError::from)?;
        self.autoencoder = Some(autoencoder);

        // Store the codes of the clean fingerprints for kernel inference,
        // each encoded through the cached single-query plan `predict`
        // serves from. extract_matrix may have produced augmented copies;
        // keep labels of the clean observations only.
        self.codes = train
            .observations()
            .iter()
            .map(|o| {
                let features = self.extractor.extract_clean_batch(std::slice::from_ref(o));
                Ok(self
                    .encode_matrix(&crate::features::stack_rows(&features)?)?
                    .into_vec())
            })
            .collect::<Result<Vec<_>>>()?;
        self.labels = train.labels();
        Ok(())
    }

    fn predict(&self, observation: &FingerprintObservation) -> Result<usize> {
        Ok(self.localize_batch(std::slice::from_ref(observation))?[0])
    }

    fn localize_batch(&self, observations: &[FingerprintObservation]) -> Result<Vec<usize>> {
        // Encode each chunk through the compiled SAE-encoder plan in one
        // stacked pass, then kernel-score the codes.
        self.localize_with(observations, |features| self.encode_matrix(features))
    }

    fn save(&self, path: &Path) -> Result<()> {
        self.to_checkpoint()?.write_to(path)
    }

    fn load(path: &Path) -> Result<Self> {
        WiDeepLocalizer::from_checkpoint(&Checkpoint::read_from(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingerprint::{base_devices, DatasetConfig};
    use sim_radio::building_1;
    use vital::evaluate_localizer;

    /// Step, fused-op and slot counts of the compiled plans at batch 1 and
    /// 32 (20 features, 10 classes), recorded at the commit before the
    /// forward pass became graph-only: dropout nodes and param bindings
    /// must leave the served plans unchanged.
    #[test]
    fn compiled_plan_sizes_are_pinned() {
        let ae = WiDeepLocalizer::build_autoencoder(1, 20);
        for batch in [1, 32] {
            let (g, code) = WiDeepLocalizer::graph(&ae, batch, 20).unwrap();
            let plan = graph::Compiler::new().compile(&g, code).unwrap();
            let got = (plan.step_count(), plan.fused_op_count(), plan.slot_count());
            assert_eq!(got, (2, 3, 2), "batch {batch}");
        }
    }

    #[test]
    fn interpreted_graph_reaches_every_param() {
        // WiDeep trains only by SAE reconstruction.
        let ae = WiDeepLocalizer::build_autoencoder(1, 20);
        let mut g = Graph::new();
        let x = g.input(3, 20);
        let recon = ae.reconstruct_push_graph(&mut g, x).unwrap();
        let data = SeededRng::new(2).uniform_tensor(&[3, 20], 0.0, 1.0);
        let tape = autograd::Tape::new();
        let session = nn::Session::new(&tape, true, 3);
        let recon = nn::interpret(&session, &g, &[&data], recon).unwrap();
        session.backward(recon.mse_loss(&data).unwrap()).unwrap();
        for p in ae.params() {
            assert!(p.grad().is_some(), "no gradient for {}", p.name());
        }
    }

    #[test]
    fn unfitted_errors_and_name() {
        let wideep = WiDeepLocalizer::new(0);
        assert_eq!(wideep.name(), "WiDeep");
        let building = building_1();
        let ds = FingerprintDataset::collect(
            &building,
            &base_devices()[..1],
            &DatasetConfig {
                captures_per_rp: 1,
                samples_per_capture: 2,
                seed: 0,
            },
        );
        assert!(wideep.predict(&ds.observations()[0]).is_err());
        let mut unfit = WiDeepLocalizer::new(0);
        assert!(unfit.fit(&ds.filter_devices(&["NONE"])).is_err());
    }

    #[test]
    fn trains_and_localizes_better_than_chance() {
        let building = building_1();
        let ds = FingerprintDataset::collect(
            &building,
            &base_devices()[..2],
            &DatasetConfig {
                captures_per_rp: 2,
                samples_per_capture: 3,
                seed: 1,
            },
        );
        let split = ds.split(0.8, 11);
        let mut wideep = WiDeepLocalizer::new(5).with_pretrain_epochs(15);
        wideep.fit(&split.train).unwrap();
        let report = evaluate_localizer(&wideep, &split.test, &building).unwrap();
        assert!(
            report.mean_error_m() < 15.0,
            "WiDeep mean error {} m",
            report.mean_error_m()
        );
    }

    #[test]
    fn dam_variant_trains() {
        let building = building_1();
        let ds = FingerprintDataset::collect(
            &building,
            &base_devices()[..1],
            &DatasetConfig {
                captures_per_rp: 1,
                samples_per_capture: 2,
                seed: 3,
            },
        );
        let mut wideep = WiDeepLocalizer::new(1)
            .with_dam(Some(DamConfig::default()))
            .with_pretrain_epochs(3);
        wideep.fit(&ds).unwrap();
        assert!(wideep.predict(&ds.observations()[0]).unwrap() < ds.num_rps());
    }
}
