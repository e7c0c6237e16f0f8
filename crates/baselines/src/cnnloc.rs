//! CNNLoc (paper ref. \[21\]): stacked-autoencoder pre-training followed by a
//! 1-D convolutional neural network classifier over the RSSI fingerprint.

use std::path::Path;

use autograd::Tape;
use fingerprint::{FingerprintDataset, FingerprintObservation};
use graph::{ExprId, Graph, GraphError, PlanCache};
use nn::optim::{zero_grads, Adam, Optimizer};
use nn::{Activation, Conv1d, Layer, Mlp, Param, Session, StackedAutoencoder};
use tensor::rng::SeededRng;
use tensor::Tensor;
use vital::{Checkpoint, CheckpointError, DamConfig, Localizer, ModelKind, Result, VitalError};

use crate::{FeatureExtractor, FeatureMode};

/// The three fitted CNNLoc stages: SAE, 1-D CNN, classifier.
type Stages<'a> = (&'a StackedAutoencoder, &'a Conv1d, &'a Mlp);

/// The CNNLoc localizer: SAE encoder + 1-D CNN + MLP classifier.
#[derive(Debug)]
pub struct CnnLocLocalizer {
    seed: u64,
    extractor: FeatureExtractor,
    pretrain_epochs: usize,
    epochs: usize,
    autoencoder: Option<StackedAutoencoder>,
    conv: Option<Conv1d>,
    classifier: Option<Mlp>,
    num_classes: usize,
    /// Compiled SAE→conv→classifier plans, keyed by `(batch, weight stamp)`.
    plan_cache: PlanCache,
}

impl CnnLocLocalizer {
    /// Creates an untrained CNNLoc instance.
    pub fn new(seed: u64) -> Self {
        CnnLocLocalizer {
            seed,
            extractor: FeatureExtractor::new(FeatureMode::MeanChannel),
            pretrain_epochs: 40,
            epochs: 35,
            autoencoder: None,
            conv: None,
            classifier: None,
            num_classes: 0,
            plan_cache: PlanCache::new(),
        }
    }

    /// Bolts the VITAL DAM onto the input pipeline (paper §VI.D).
    pub fn with_dam(mut self, dam: Option<DamConfig>) -> Self {
        self.extractor = FeatureExtractor::new(FeatureMode::MeanChannel).with_dam(dam);
        self
    }

    /// Overrides the classifier training epochs (default 35).
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// Overrides the SAE pre-training epochs (default 40).
    pub fn with_pretrain_epochs(mut self, epochs: usize) -> Self {
        self.pretrain_epochs = epochs.max(1);
        self
    }

    /// Builds the three network stages for a training-feature width,
    /// mirroring the architecture decisions made in `fit` — shared by
    /// training and checkpoint restoration so both construct identical
    /// shapes.
    fn build_stages(
        init_rng: &mut SeededRng,
        width: usize,
        num_classes: usize,
    ) -> Result<(StackedAutoencoder, Conv1d, Mlp)> {
        let code_dim = (width / 2).max(8);
        let autoencoder = StackedAutoencoder::new(init_rng, width, &[width.max(16), code_dim]);
        let conv = Conv1d::new(init_rng, 3.min(code_dim), 8, 1)?;
        let conv_width = conv.out_width_for(code_dim)?;
        let classifier =
            Mlp::new(init_rng, &[conv_width, 128, num_classes], Activation::Relu).with_dropout(0.1);
        Ok((autoencoder, conv, classifier))
    }

    /// Serializes all three CNNLoc stages (SAE, 1-D CNN, classifier) into a
    /// [`Checkpoint`].
    ///
    /// # Errors
    /// Returns [`VitalError::NotFitted`] before [`Localizer::fit`].
    pub fn to_checkpoint(&self) -> Result<Checkpoint> {
        let (ae, conv, clf) = self.stages()?;
        let mut ckpt = Checkpoint::new(ModelKind::CnnLoc);
        ckpt.set_dam_config(self.extractor.dam_config());
        ckpt.push_ints("seed", vec![self.seed]);
        ckpt.push_ints(
            "dims",
            vec![
                self.pretrain_epochs as u64,
                self.epochs as u64,
                self.num_classes as u64,
                ae.input_dim() as u64,
            ],
        );
        ckpt.push_state("autoencoder", ae.state_dict());
        ckpt.push_state("conv", conv.state_dict());
        ckpt.push_state("classifier", clf.state_dict());
        Ok(ckpt)
    }

    /// Restores a fitted CNNLoc instance from a [`Checkpoint`], rebuilding
    /// the stage architectures from the stored dimensions and restoring
    /// every weight bit-exactly.
    ///
    /// # Errors
    /// Returns typed checkpoint errors on kind mismatch, missing entries or
    /// weight-shape drift.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self> {
        ckpt.expect_kind(ModelKind::CnnLoc)?;
        let seed = ckpt.ints("seed")?.first().copied().unwrap_or(0);
        let dims = ckpt.usizes("dims")?;
        let [pretrain_epochs, epochs, num_classes, width] = dims[..] else {
            return Err(CheckpointError::Corrupt(format!(
                "expected 4 dimension entries, found {}",
                dims.len()
            ))
            .into());
        };
        let mut cnnloc = CnnLocLocalizer::new(seed)
            .with_dam(ckpt.dam_config().copied())
            .with_epochs(epochs)
            .with_pretrain_epochs(pretrain_epochs);
        cnnloc.num_classes = num_classes;

        let mut init_rng = SeededRng::new(seed.wrapping_add(1));
        let (autoencoder, conv, classifier) =
            Self::build_stages(&mut init_rng, width, num_classes)?;
        autoencoder.load_state(ckpt.state("autoencoder")?)?;
        conv.load_state(ckpt.state("conv")?)?;
        classifier.load_state(ckpt.state("classifier")?)?;
        cnnloc.autoencoder = Some(autoencoder);
        cnnloc.conv = Some(conv);
        cnnloc.classifier = Some(classifier);
        Ok(cnnloc)
    }

    fn params(&self) -> Vec<Param> {
        let mut params = Vec::new();
        if let Some(ae) = &self.autoencoder {
            params.extend(ae.params());
        }
        if let Some(conv) = &self.conv {
            params.extend(conv.params());
        }
        if let Some(clf) = &self.classifier {
            params.extend(clf.params());
        }
        params
    }

    /// The fitted stages, or [`VitalError::NotFitted`].
    fn stages(&self) -> Result<Stages<'_>> {
        match (&self.autoencoder, &self.conv, &self.classifier) {
            (Some(a), Some(c), Some(m)) => Ok((a, c, m)),
            _ => Err(VitalError::NotFitted),
        }
    }

    /// The classifier graph over a `[rows, cols]` feature stack: SAE
    /// encoder → 1-D conv (window slices over one shared dense kernel) →
    /// ReLU → classifier MLP, producing class logits.
    fn graph(
        (ae, conv, classifier): Stages<'_>,
        rows: usize,
        cols: usize,
    ) -> std::result::Result<(Graph, ExprId), GraphError> {
        let mut g = Graph::new();
        let x = g.input(rows, cols);
        let code = ae.encode_push_graph(&mut g, x)?;
        let conv_out = conv.push_graph(&mut g, code)?;
        let activated = g.unary(conv_out, tensor::UnaryOp::Relu)?;
        let logits = classifier.push_graph(&mut g, activated)?;
        Ok((g, logits))
    }

    /// Class logits for a `[batch, width]` query stack through the cached
    /// compiled plan, all stages fused into one arena execution.
    fn forward_logits(&self, features: &Tensor) -> Result<Tensor> {
        let stages = self.stages()?;
        let (rows, cols) = features.shape().as_matrix()?;
        let entry = self
            .plan_cache
            .get_or_build(rows, nn::weight_stamp(&self.params()), || {
                Self::graph(stages, rows, cols)
            })?;
        Ok(entry.execute(&[features])?)
    }

    /// Number of compiled forward plans currently cached (one per batch
    /// shape served since the last weight change).
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.len()
    }

    /// [`Localizer::localize_batch`] with the classifier graph replayed op
    /// by op on a tape — the uncompiled reference the parity tests compare
    /// against.
    ///
    /// # Errors
    /// Returns [`VitalError::NotFitted`] before [`Localizer::fit`].
    pub fn localize_batch_eager(
        &self,
        observations: &[FingerprintObservation],
    ) -> Result<Vec<usize>> {
        let mut predictions = Vec::with_capacity(observations.len());
        for chunk in observations.chunks(crate::features::INFERENCE_CHUNK) {
            let x = crate::features::stack_rows(&self.extractor.extract_clean_batch(chunk))?;
            let (g, logits) = Self::graph(self.stages()?, chunk.len(), x.cols()?)?;
            predictions.extend(nn::interpret_eval(&g, &[&x], logits)?.argmax_rows()?);
        }
        Ok(predictions)
    }
}

impl Localizer for CnnLocLocalizer {
    fn name(&self) -> &str {
        "CNNLoc"
    }

    fn fit(&mut self, train: &FingerprintDataset) -> Result<()> {
        if train.is_empty() {
            return Err(VitalError::InvalidDataset("empty training set".into()));
        }
        self.num_classes = train.num_rps();
        let mut rng = SeededRng::new(self.seed);
        let (features, labels) = self.extractor.extract_matrix(train, true, 1, &mut rng);
        let width = features.cols()?;

        // Stage architectures (shared with checkpoint restoration), then
        // stacked-autoencoder pre-training on the fingerprints.
        let mut init_rng = SeededRng::new(self.seed.wrapping_add(1));
        let (autoencoder, conv, classifier) =
            Self::build_stages(&mut init_rng, width, self.num_classes)?;
        autoencoder
            .pretrain(&features, self.pretrain_epochs, 5e-3, 0.02, self.seed)
            .map_err(VitalError::from)?;

        self.autoencoder = Some(autoencoder);
        self.conv = Some(conv);
        self.classifier = Some(classifier);
        let params = self.params();
        let mut optimizer = Adam::new(1.5e-3);

        let n = features.rows()?;
        let mut order: Vec<usize> = (0..n).collect();
        let batch = 32;
        for epoch in 0..self.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(batch) {
                let rows: Vec<Tensor> = chunk
                    .iter()
                    .map(|&i| features.slice_rows(i, i + 1))
                    .collect::<std::result::Result<_, _>>()?;
                let refs: Vec<&Tensor> = rows.iter().collect();
                let x_batch = Tensor::concat_rows(&refs)?;
                let y_batch: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();

                let (g, logits) = Self::graph(self.stages()?, chunk.len(), width)?;
                let tape = Tape::new();
                let session = Session::new(&tape, true, self.seed.wrapping_add(epoch as u64));
                let logits = nn::interpret(&session, &g, &[&x_batch], logits)?;
                let loss = logits.softmax_cross_entropy(&y_batch)?;
                session.backward(loss)?;
                optimizer.step(&params);
                zero_grads(&params);
            }
        }
        Ok(())
    }

    fn predict(&self, observation: &FingerprintObservation) -> Result<usize> {
        let mut rng = SeededRng::new(0);
        let features = self.extractor.extract(observation, false, &mut rng);
        let x = Tensor::from_vec(features.clone(), &[1, features.len()])?;
        let logits = self.forward_logits(&x)?;
        Ok(logits.row(0)?.argmax()?)
    }

    fn localize_batch(&self, observations: &[FingerprintObservation]) -> Result<Vec<usize>> {
        // The SAE encoder, 1-D conv and classifier are all row-wise, so a
        // whole chunk of queries shares one stacked forward pass.
        let mut predictions = Vec::with_capacity(observations.len());
        for chunk in observations.chunks(crate::features::INFERENCE_CHUNK) {
            let queries = self.extractor.extract_clean_batch(chunk);
            let logits = self.forward_logits(&crate::features::stack_rows(&queries)?)?;
            predictions.extend(logits.argmax_rows()?);
        }
        Ok(predictions)
    }

    fn save(&self, path: &Path) -> Result<()> {
        self.to_checkpoint()?.write_to(path)
    }

    fn load(path: &Path) -> Result<Self> {
        CnnLocLocalizer::from_checkpoint(&Checkpoint::read_from(path)?)
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
        let (ae, conv, clf) =
            CnnLocLocalizer::build_stages(&mut SeededRng::new(1), 20, 10).unwrap();
        for batch in [1, 32] {
            let (g, logits) = CnnLocLocalizer::graph((&ae, &conv, &clf), batch, 20).unwrap();
            let plan = graph::Compiler::new().compile(&g, logits).unwrap();
            let got = (plan.step_count(), plan.fused_op_count(), plan.slot_count());
            assert_eq!(got, (21, 15, 13), "batch {batch}");
        }
    }

    #[test]
    fn interpreted_graph_reaches_every_param() {
        let (ae, conv, clf) =
            CnnLocLocalizer::build_stages(&mut SeededRng::new(1), 20, 10).unwrap();
        let (g, logits) = CnnLocLocalizer::graph((&ae, &conv, &clf), 4, 20).unwrap();
        let x = SeededRng::new(2).uniform_tensor(&[4, 20], 0.0, 1.0);
        let tape = Tape::new();
        let session = Session::new(&tape, true, 3);
        let logits = nn::interpret(&session, &g, &[&x], logits).unwrap();
        // The SAE's decoder is trained by pre-training, not by this loss.
        session
            .backward(logits.softmax_cross_entropy(&[0, 1, 2, 3]).unwrap())
            .unwrap();
        let trained = [ae.params()[..4].to_vec(), conv.params(), clf.params()].concat();
        for p in trained {
            assert!(p.grad().is_some(), "no gradient for {}", p.name());
        }
    }

    #[test]
    fn unfitted_errors_and_name() {
        let cnnloc = CnnLocLocalizer::new(0);
        assert_eq!(cnnloc.name(), "CNNLoc");
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
        assert!(cnnloc.predict(&ds.observations()[0]).is_err());
        let mut unfit = CnnLocLocalizer::new(0);
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
        let split = ds.split(0.8, 9);
        let mut cnnloc = CnnLocLocalizer::new(4)
            .with_epochs(12)
            .with_pretrain_epochs(10);
        cnnloc.fit(&split.train).unwrap();
        let report = evaluate_localizer(&cnnloc, &split.test, &building).unwrap();
        assert!(
            report.mean_error_m() < 12.0,
            "CNNLoc mean error {} m",
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
                seed: 5,
            },
        );
        let mut cnnloc = CnnLocLocalizer::new(2)
            .with_dam(Some(DamConfig::default()))
            .with_epochs(2)
            .with_pretrain_epochs(2);
        cnnloc.fit(&ds).unwrap();
        assert!(cnnloc.predict(&ds.observations()[0]).unwrap() < ds.num_rps());
    }
}
