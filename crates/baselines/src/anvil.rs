//! ANVIL (paper ref. \[19\]): a multi-head attention neural network with a
//! Euclidean-distance matching stage for smartphone-invariant localization.
//!
//! The reproduction follows the published architecture at a functional level:
//! the normalised fingerprint is linearly embedded into a short token
//! sequence, a multi-head self-attention block extracts device-invariant
//! features, and a projection head produces an embedding. Training minimises
//! classification loss; at inference the framework matches the query
//! embedding to per-RP centroids by Euclidean distance (the "matching"
//! stage), falling back to the classifier logits when centroids are missing.

use std::path::Path;

use autograd::Tape;
use fingerprint::{FingerprintDataset, FingerprintObservation};
use graph::{ExprId, Graph, GraphError, PlanCache};
use nn::optim::{zero_grads, Adam, Optimizer};
use nn::{Activation, Dense, Init, Layer, LayerNorm, Mlp, MultiHeadSelfAttention, Param, Session};
use tensor::rng::SeededRng;
use tensor::Tensor;
use vital::{Checkpoint, CheckpointError, DamConfig, Localizer, ModelKind, Result, VitalError};

use crate::features::{rows_to_tensor, tensor_to_rows};
use crate::{FeatureExtractor, FeatureMode};

/// Number of tokens the fingerprint is folded into before attention.
const TOKENS: usize = 8;

/// The attention-based embedding network shared by training and inference.
#[derive(Debug)]
struct AnvilNetwork {
    token_embed: Dense,
    norm: LayerNorm,
    attention: MultiHeadSelfAttention,
    head: Mlp,
    embed_head: Mlp,
    token_width: usize,
}

impl AnvilNetwork {
    fn new(rng: &mut SeededRng, feature_width: usize, num_classes: usize) -> Result<Self> {
        let token_width = feature_width.div_ceil(TOKENS);
        let d_model = 32;
        Ok(AnvilNetwork {
            token_embed: Dense::new(rng, token_width, d_model, Init::Xavier),
            norm: LayerNorm::new(d_model),
            attention: MultiHeadSelfAttention::new(rng, d_model, 4)?,
            head: Mlp::new(rng, &[d_model, 64, num_classes], Activation::Relu),
            embed_head: Mlp::new(rng, &[d_model, 32], Activation::Relu),
            token_width,
        })
    }

    /// Folds a flat feature vector into `TOKENS` equal-width tokens (zero
    /// padded) for the attention block.
    fn tokenize(&self, features: &[f32]) -> Result<Tensor> {
        let mut padded = features.to_vec();
        padded.resize(self.token_width * TOKENS, 0.0);
        Ok(Tensor::from_vec(padded, &[TOKENS, self.token_width])?)
    }

    /// Appends one sample's forward pass to an expression graph: token
    /// embedding, layer-normed self-attention plus residual, mean pooling
    /// over the tokens, then the embedding and classifier heads. Returns
    /// `(embedding, class_logits)`.
    fn push_graph(
        &self,
        g: &mut Graph,
        tokens: ExprId,
    ) -> std::result::Result<(ExprId, ExprId), GraphError> {
        let embedded = self.token_embed.push_graph(g, tokens)?;
        let normed = self.norm.push_graph(g, embedded)?;
        let attn = self.attention.push_graph(g, normed, 1)?;
        let attended = g.binary(attn, embedded, tensor::BinaryOp::Add)?;
        let pooled = g.mean_row_blocks(attended, TOKENS)?;
        let embedding = self.embed_head.push_graph(g, pooled)?;
        let logits = self.head.push_graph(g, pooled)?;
        Ok((embedding, logits))
    }

    /// The inference graph over `samples` stacked token matrices: one
    /// `[embedding ‖ logits]` row per sample.
    ///
    /// Attention couples each sample's tokens, so the graph unrolls one
    /// forward per sample over row slices of the stacked token input (the
    /// same stacking the compiled ViT uses); the shared weight constants
    /// dedup across the unroll.
    fn graph(&self, samples: usize) -> std::result::Result<(Graph, ExprId), GraphError> {
        let mut g = Graph::new();
        let input = g.input(samples * TOKENS, self.token_width);
        let mut rows = Vec::with_capacity(samples);
        for s in 0..samples {
            let tokens = if samples == 1 {
                input
            } else {
                g.slice_rows(input, s * TOKENS, (s + 1) * TOKENS)?
            };
            let (embedding, logits) = self.push_graph(&mut g, tokens)?;
            rows.push(g.concat_cols(&[embedding, logits])?);
        }
        let out = if samples == 1 {
            rows[0]
        } else {
            g.concat_rows(&rows)?
        };
        Ok((g, out))
    }

    /// Tokenizes and stacks a batch of feature vectors into the
    /// `[samples * TOKENS, token_width]` input of [`AnvilNetwork::graph`].
    fn stack_tokens(&self, features: &[Vec<f32>]) -> Result<Tensor> {
        let mut stacked = Vec::with_capacity(features.len() * TOKENS * self.token_width);
        for f in features {
            stacked.extend(self.tokenize(f)?.into_vec());
        }
        Ok(Tensor::from_vec(
            stacked,
            &[features.len() * TOKENS, self.token_width],
        )?)
    }
}

impl Layer for AnvilNetwork {
    fn params(&self) -> Vec<Param> {
        let mut params = self.token_embed.params();
        params.extend(self.norm.params());
        params.extend(self.attention.params());
        params.extend(self.head.params());
        params.extend(self.embed_head.params());
        params
    }
}

/// The ANVIL localizer.
#[derive(Debug)]
pub struct AnvilLocalizer {
    seed: u64,
    extractor: FeatureExtractor,
    epochs: usize,
    network: Option<AnvilNetwork>,
    centroids: Vec<Option<Vec<f32>>>,
    num_classes: usize,
    /// Compiled attention-network plans, keyed by `(batch, weight stamp)`.
    plan_cache: PlanCache,
}

impl AnvilLocalizer {
    /// Creates an untrained ANVIL instance.
    pub fn new(seed: u64) -> Self {
        AnvilLocalizer {
            seed,
            extractor: FeatureExtractor::new(FeatureMode::MeanChannel),
            epochs: 30,
            network: None,
            centroids: Vec::new(),
            num_classes: 0,
            plan_cache: PlanCache::new(),
        }
    }

    /// Bolts the VITAL DAM onto the input pipeline (paper §VI.D).
    pub fn with_dam(mut self, dam: Option<DamConfig>) -> Self {
        self.extractor = FeatureExtractor::new(FeatureMode::MeanChannel).with_dam(dam);
        self
    }

    /// Overrides the number of training epochs (default 30).
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// Serializes the attention network and the per-RP embedding centroids
    /// into a [`Checkpoint`].
    ///
    /// # Errors
    /// Returns [`VitalError::NotFitted`] before [`Localizer::fit`].
    pub fn to_checkpoint(&self) -> Result<Checkpoint> {
        let network = self.network.as_ref().ok_or(VitalError::NotFitted)?;
        let present: Vec<&Vec<f32>> = self.centroids.iter().flatten().collect();
        let embed_width = present.first().map(|c| c.len()).unwrap_or(0);
        let present_rows: Vec<Vec<f32>> = present.into_iter().cloned().collect();

        let mut ckpt = Checkpoint::new(ModelKind::Anvil);
        ckpt.set_dam_config(self.extractor.dam_config());
        ckpt.push_ints("seed", vec![self.seed]);
        // The tokenizer zero-pads features to `token_width × TOKENS`, so
        // the padded width reconstructs an identical network geometry.
        ckpt.push_ints(
            "dims",
            vec![
                self.epochs as u64,
                self.num_classes as u64,
                (network.token_width * TOKENS) as u64,
                embed_width as u64,
            ],
        );
        ckpt.push_state("network", network.state_dict());
        ckpt.push_ints(
            "centroid_mask",
            self.centroids
                .iter()
                .map(|c| u64::from(c.is_some()))
                .collect(),
        );
        ckpt.push_tensor("centroids", rows_to_tensor(&present_rows, embed_width)?);
        Ok(ckpt)
    }

    /// Restores a fitted ANVIL instance from a [`Checkpoint`]: the
    /// attention network is rebuilt with the stored token geometry and its
    /// weights restored, so embedding matching is bit-identical to the
    /// saved instance's.
    ///
    /// # Errors
    /// Returns typed checkpoint errors on kind mismatch, missing entries or
    /// weight-shape drift.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self> {
        ckpt.expect_kind(ModelKind::Anvil)?;
        let seed = ckpt.ints("seed")?.first().copied().unwrap_or(0);
        let dims = ckpt.usizes("dims")?;
        let [epochs, num_classes, padded_width, _embed_width] = dims[..] else {
            return Err(CheckpointError::Corrupt(format!(
                "expected 4 dimension entries, found {}",
                dims.len()
            ))
            .into());
        };
        let mut anvil = AnvilLocalizer::new(seed)
            .with_dam(ckpt.dam_config().copied())
            .with_epochs(epochs);
        anvil.num_classes = num_classes;

        let mut init_rng = SeededRng::new(seed.wrapping_add(1));
        let network = AnvilNetwork::new(&mut init_rng, padded_width, num_classes)?;
        network.load_state(ckpt.state("network")?)?;
        anvil.network = Some(network);

        let mask = ckpt.usizes("centroid_mask")?;
        if mask.len() != num_classes {
            return Err(CheckpointError::Corrupt(format!(
                "centroid mask covers {} classes, model has {num_classes}",
                mask.len()
            ))
            .into());
        }
        let mut rows = tensor_to_rows(ckpt.tensor("centroids")?)?.into_iter();
        anvil.centroids = mask
            .iter()
            .map(|&present| {
                if present != 0 {
                    rows.next()
                        .ok_or_else(|| {
                            VitalError::from(CheckpointError::Corrupt(
                                "fewer centroid rows than mask entries".into(),
                            ))
                        })
                        .map(Some)
                } else {
                    Ok(None)
                }
            })
            .collect::<Result<Vec<_>>>()?;
        if rows.next().is_some() {
            return Err(
                CheckpointError::Corrupt("more centroid rows than mask entries".into()).into(),
            );
        }
        Ok(anvil)
    }

    /// Embeddings and logits for a batch of feature vectors through the
    /// cached compiled plan: one `[embedding ‖ logits]` row per sample.
    fn embed_matrix(&self, features: &[Vec<f32>]) -> Result<Tensor> {
        let network = self.network.as_ref().ok_or(VitalError::NotFitted)?;
        let samples = features.len();
        let x = network.stack_tokens(features)?;
        let entry =
            self.plan_cache
                .get_or_build(samples, nn::weight_stamp(&network.params()), || {
                    network.graph(samples)
                })?;
        Ok(entry.execute(&[&x])?)
    }

    /// Splits packed `[embedding ‖ logits]` rows and matches each.
    fn match_rows(&self, packed: &Tensor) -> Result<Vec<usize>> {
        let network = self.network.as_ref().ok_or(VitalError::NotFitted)?;
        let embed_width = network.embed_head.out_features();
        let row_width = packed.cols()?;
        let mut predictions = Vec::with_capacity(packed.rows()?);
        for row in packed.as_slice().chunks_exact(row_width) {
            let (embedding, logits) = row.split_at(embed_width);
            predictions.push(self.match_embedding(embedding, logits)?);
        }
        Ok(predictions)
    }

    /// Number of compiled network plans currently cached (one per batch
    /// shape served since the last weight change).
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.len()
    }

    /// [`Localizer::localize_batch`] with the network graph replayed op
    /// by op on a tape — the uncompiled reference the parity tests compare
    /// against.
    ///
    /// # Errors
    /// Returns [`VitalError::NotFitted`] before [`Localizer::fit`].
    pub fn localize_batch_eager(
        &self,
        observations: &[FingerprintObservation],
    ) -> Result<Vec<usize>> {
        let network = self.network.as_ref().ok_or(VitalError::NotFitted)?;
        let mut predictions = Vec::with_capacity(observations.len());
        for chunk in observations.chunks(crate::features::INFERENCE_CHUNK) {
            let x = network.stack_tokens(&self.extractor.extract_clean_batch(chunk))?;
            let (g, out) = network.graph(chunk.len())?;
            predictions.extend(self.match_rows(&nn::interpret_eval(&g, &[&x], out)?)?);
        }
        Ok(predictions)
    }

    /// Euclidean matching of one query embedding against the per-RP
    /// centroids, falling back to the classifier argmax when no centroids
    /// exist (degenerate training set).
    fn match_embedding(&self, embedding: &[f32], logits: &[f32]) -> Result<usize> {
        let mut best: Option<(usize, f32)> = None;
        for (label, centroid) in self.centroids.iter().enumerate() {
            let Some(centroid) = centroid else { continue };
            let d: f32 = centroid
                .iter()
                .zip(embedding)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((label, d));
            }
        }
        match best {
            Some((label, _)) => Ok(label),
            None => {
                let logits = Tensor::from_vec(logits.to_vec(), &[logits.len()])?;
                Ok(logits.argmax()?)
            }
        }
    }
}

impl Localizer for AnvilLocalizer {
    fn name(&self) -> &str {
        "ANVIL"
    }

    fn fit(&mut self, train: &FingerprintDataset) -> Result<()> {
        if train.is_empty() {
            return Err(VitalError::InvalidDataset("empty training set".into()));
        }
        self.num_classes = train.num_rps();
        let mut rng = SeededRng::new(self.seed);
        let mut init_rng = SeededRng::new(self.seed.wrapping_add(1));
        let feature_width = self.extractor.feature_width(train.num_aps());
        let network = AnvilNetwork::new(&mut init_rng, feature_width, self.num_classes)?;
        let params = network.params();
        let mut optimizer = Adam::new(2e-3);

        let observations = train.observations();
        let mut order: Vec<usize> = (0..observations.len()).collect();
        let batch = 16;
        for epoch in 0..self.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(batch) {
                let mut g = Graph::new();
                let mut tokens = Vec::with_capacity(chunk.len());
                let mut logits = Vec::with_capacity(chunk.len());
                let mut labels = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    let features = self.extractor.extract(&observations[i], true, &mut rng);
                    tokens.push(network.tokenize(&features)?);
                    let input = g.input(TOKENS, network.token_width);
                    logits.push(network.push_graph(&mut g, input)?.1);
                    labels.push(observations[i].rp_label);
                }
                let stacked = g.concat_rows(&logits)?;
                let tape = Tape::new();
                let session = Session::new(&tape, true, self.seed.wrapping_add(epoch as u64));
                let inputs: Vec<&Tensor> = tokens.iter().collect();
                let stacked = nn::interpret(&session, &g, &inputs, stacked)?;
                let loss = stacked.softmax_cross_entropy(&labels)?;
                session.backward(loss)?;
                optimizer.step(&params);
                zero_grads(&params);
            }
        }
        let embed_width = network.embed_head.out_features();
        self.network = Some(network);

        // Euclidean-matching stage: per-RP embedding centroids over the clean
        // training fingerprints, each embedded through the cached
        // single-query plan `predict` serves from.
        let mut sums: Vec<(Vec<f32>, usize)> = vec![(Vec::new(), 0); self.num_classes];
        for observation in observations {
            let features = self
                .extractor
                .extract_clean_batch(std::slice::from_ref(observation));
            let packed = self.embed_matrix(&features)?;
            let embedding = &packed.as_slice()[..embed_width];
            let slot = &mut sums[observation.rp_label];
            if slot.0.is_empty() {
                slot.0 = vec![0.0; embedding.len()];
            }
            for (s, e) in slot.0.iter_mut().zip(embedding) {
                *s += e;
            }
            slot.1 += 1;
        }
        self.centroids = sums
            .into_iter()
            .map(|(sum, count)| {
                if count == 0 {
                    None
                } else {
                    Some(sum.into_iter().map(|v| v / count as f32).collect())
                }
            })
            .collect();
        Ok(())
    }

    fn predict(&self, observation: &FingerprintObservation) -> Result<usize> {
        Ok(self.localize_batch(std::slice::from_ref(observation))?[0])
    }

    fn localize_batch(&self, observations: &[FingerprintObservation]) -> Result<Vec<usize>> {
        let mut predictions = Vec::with_capacity(observations.len());
        for chunk in observations.chunks(crate::features::INFERENCE_CHUNK) {
            // One compiled execution per chunk: each output row packs the
            // sample's `[embedding ‖ logits]`, split for Euclidean matching.
            let packed = self.embed_matrix(&self.extractor.extract_clean_batch(chunk))?;
            predictions.extend(self.match_rows(&packed)?);
        }
        Ok(predictions)
    }

    fn save(&self, path: &Path) -> Result<()> {
        self.to_checkpoint()?.write_to(path)
    }

    fn load(path: &Path) -> Result<Self> {
        AnvilLocalizer::from_checkpoint(&Checkpoint::read_from(path)?)
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
        let network = AnvilNetwork::new(&mut SeededRng::new(1), 20, 10).unwrap();
        for (batch, counts) in [(1, (38, 14, 15)), (32, (1249, 448, 48))] {
            let (g, out) = network.graph(batch).unwrap();
            let plan = graph::Compiler::new().compile(&g, out).unwrap();
            let got = (plan.step_count(), plan.fused_op_count(), plan.slot_count());
            assert_eq!(got, counts, "batch {batch}");
        }
    }

    #[test]
    fn interpreted_graph_reaches_every_param() {
        // Classification loss plus the embedding head's sum, so both heads
        // are differentiated.
        let network = AnvilNetwork::new(&mut SeededRng::new(1), 20, 10).unwrap();
        let mut g = Graph::new();
        let tokens = g.input(TOKENS, network.token_width);
        let (embedding, logits) = network.push_graph(&mut g, tokens).unwrap();
        let both = g.concat_cols(&[embedding, logits]).unwrap();
        let x = network.tokenize(&[0.5; 20]).unwrap();
        let tape = Tape::new();
        let session = Session::new(&tape, true, 0);
        let out = nn::interpret(&session, &g, &[&x], both).unwrap();
        session.backward(out.sum_all().unwrap()).unwrap();
        for p in network.params() {
            assert!(p.grad().is_some(), "no gradient for {}", p.name());
        }
    }

    #[test]
    fn unfitted_errors_and_name() {
        let anvil = AnvilLocalizer::new(0);
        assert_eq!(anvil.name(), "ANVIL");
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
        assert!(anvil.predict(&ds.observations()[0]).is_err());
        let mut unfit = AnvilLocalizer::new(0);
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
                seed: 2,
            },
        );
        let split = ds.split(0.8, 5);
        let mut anvil = AnvilLocalizer::new(3).with_epochs(12);
        anvil.fit(&split.train).unwrap();
        let report = evaluate_localizer(&anvil, &split.test, &building).unwrap();
        assert!(
            report.mean_error_m() < 10.0,
            "ANVIL mean error {} m",
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
                seed: 6,
            },
        );
        let mut anvil = AnvilLocalizer::new(1)
            .with_dam(Some(DamConfig::default()))
            .with_epochs(3);
        anvil.fit(&ds).unwrap();
        assert!(anvil.predict(&ds.observations()[0]).unwrap() < ds.num_rps());
    }
}
