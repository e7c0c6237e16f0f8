use tensor::rng::SeededRng;
use tensor::TensorError;

use crate::{Dense, Init, Layer, Param, Result};

/// Multi-head self-attention (MSA) over a sequence of embedded patches.
///
/// This is the attention sub-block of the VITAL transformer encoder
/// (paper §V.B, eqs. (1)–(4)): the input sequence `X ∈ ℝ^{N×D}` is projected
/// into queries, keys and values per head, scaled dot-product attention is
/// computed per head, the head outputs are concatenated and projected back to
/// the model dimension with `W_o`.
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    query: Dense,
    key: Dense,
    value: Dense,
    output: Dense,
    heads: usize,
    d_model: usize,
    head_dim: usize,
}

impl MultiHeadSelfAttention {
    /// Creates an MSA block with `heads` attention heads over a model
    /// dimension of `d_model`.
    ///
    /// # Errors
    /// Returns an error if `d_model` is not divisible by `heads` or either is
    /// zero.
    pub fn new(rng: &mut SeededRng, d_model: usize, heads: usize) -> Result<Self> {
        if heads == 0 || d_model == 0 || !d_model.is_multiple_of(heads) {
            return Err(TensorError::ShapeMismatch {
                op: "msa.new",
                lhs: vec![d_model],
                rhs: vec![heads],
            });
        }
        Ok(MultiHeadSelfAttention {
            query: Dense::new(rng, d_model, d_model, Init::Xavier),
            key: Dense::new(rng, d_model, d_model, Init::Xavier),
            value: Dense::new(rng, d_model, d_model, Init::Xavier),
            output: Dense::new(rng, d_model, d_model, Init::Xavier),
            heads,
            d_model,
            head_dim: d_model / heads,
        })
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Model (embedding) dimension.
    pub fn d_model(&self) -> usize {
        self.d_model
    }

    /// Appends self-attention over `samples` sequences stacked as a
    /// `[samples * seq_len, d_model]` matrix to an expression graph.
    ///
    /// The Q/K/V and output projections run once over the whole stack (one
    /// large GEMM each). Each `(sample, head)` block computes
    /// `Q·Kᵀ · 1/√d` (eq. 2) as a transposed-B GEMM with the scale fused
    /// into its output pass, and all score blocks are row-concatenated so
    /// the attention weighting (eq. 1) is **one** batched softmax sweep.
    /// Softmax is row-wise, so the result is bit-identical to attending
    /// each sample alone. The per-head `attn · V` blocks are concatenated
    /// per sample (eq. 4) before the shared `W_o` projection.
    ///
    /// # Errors
    /// Returns a [`graph::GraphError`] on operand-shape mismatch or if the
    /// stacked row count does not divide into `samples`.
    pub fn push_graph(
        &self,
        g: &mut graph::Graph,
        x: graph::ExprId,
        samples: usize,
    ) -> std::result::Result<graph::ExprId, graph::GraphError> {
        let (rows, cols) = g.dims(x)?;
        if samples == 0 || !rows.is_multiple_of(samples) {
            return Err(graph::GraphError::Tensor(TensorError::ShapeMismatch {
                op: "msa.push_graph",
                lhs: vec![rows, cols],
                rhs: vec![samples],
            }));
        }
        let seq_len = rows / samples;
        let q = self.query.push_graph(g, x)?;
        let k = self.key.push_graph(g, x)?;
        let v = self.value.push_graph(g, x)?;
        let scale = 1.0 / (self.head_dim as f32).sqrt();

        let mut scores = Vec::with_capacity(samples * self.heads);
        for s in 0..samples {
            let (qs, ks) = if samples == 1 {
                (q, k)
            } else {
                (
                    g.slice_rows(q, s * seq_len, (s + 1) * seq_len)?,
                    g.slice_rows(k, s * seq_len, (s + 1) * seq_len)?,
                )
            };
            for h in 0..self.heads {
                let start = h * self.head_dim;
                let end = start + self.head_dim;
                let qh = g.slice_cols(qs, start, end)?;
                let kh = g.slice_cols(ks, start, end)?;
                let block = g.matmul(qh, kh, tensor::MatmulSpec::NT)?;
                scores.push(g.unary(block, tensor::UnaryOp::MulScalar(scale))?);
            }
        }
        let stacked_scores = if scores.len() == 1 {
            scores[0]
        } else {
            g.concat_rows(&scores)?
        };
        let attn_all = g.softmax_rows(stacked_scores)?;

        let mut sample_outputs = Vec::with_capacity(samples);
        for s in 0..samples {
            let vs = if samples == 1 {
                v
            } else {
                g.slice_rows(v, s * seq_len, (s + 1) * seq_len)?
            };
            let mut head_outputs = Vec::with_capacity(self.heads);
            for h in 0..self.heads {
                let block = (s * self.heads + h) * seq_len;
                let attn = if samples * self.heads == 1 {
                    attn_all
                } else {
                    g.slice_rows(attn_all, block, block + seq_len)?
                };
                let start = h * self.head_dim;
                let vh = g.slice_cols(vs, start, start + self.head_dim)?;
                head_outputs.push(g.matmul(attn, vh, tensor::MatmulSpec::NN)?);
            }
            sample_outputs.push(g.concat_cols(&head_outputs)?);
        }
        let concat = if samples == 1 {
            sample_outputs[0]
        } else {
            g.concat_rows(&sample_outputs)?
        };
        self.output.push_graph(g, concat)
    }
}

impl Layer for MultiHeadSelfAttention {
    fn params(&self) -> Vec<Param> {
        let mut params = self.query.params();
        params.extend(self.key.params());
        params.extend(self.value.params());
        params.extend(self.output.params());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{interpret, interpret_eval, Session};
    use autograd::Tape;
    use graph::Graph;
    use tensor::Tensor;

    fn graph_of(msa: &MultiHeadSelfAttention, rows: usize) -> (Graph, graph::ExprId) {
        let mut g = Graph::new();
        let x = g.input(rows, msa.d_model());
        let y = msa.push_graph(&mut g, x, 1).unwrap();
        (g, y)
    }

    #[test]
    fn rejects_invalid_configuration() {
        let mut rng = SeededRng::new(0);
        assert!(MultiHeadSelfAttention::new(&mut rng, 10, 3).is_err());
        assert!(MultiHeadSelfAttention::new(&mut rng, 0, 1).is_err());
        assert!(MultiHeadSelfAttention::new(&mut rng, 8, 0).is_err());
    }

    #[test]
    fn output_shape_matches_input() {
        let mut rng = SeededRng::new(1);
        let msa = MultiHeadSelfAttention::new(&mut rng, 16, 4).unwrap();
        assert_eq!(msa.heads(), 4);
        assert_eq!(msa.d_model(), 16);
        let (g, y) = graph_of(&msa, 6);
        let x = SeededRng::new(2).uniform_tensor(&[6, 16], -1.0, 1.0);
        let y = interpret_eval(&g, &[&x], y).unwrap();
        assert_eq!(y.shape().dims(), &[6, 16]);
        assert!(y.all_finite());
    }

    #[test]
    fn param_count_is_four_projections() {
        let mut rng = SeededRng::new(3);
        let d = 12;
        let msa = MultiHeadSelfAttention::new(&mut rng, d, 3).unwrap();
        // 4 dense layers, each d*d weights + d biases.
        assert_eq!(msa.param_count(), 4 * (d * d + d));
    }

    #[test]
    fn gradients_reach_all_projections() {
        let mut rng = SeededRng::new(4);
        let msa = MultiHeadSelfAttention::new(&mut rng, 8, 2).unwrap();
        let tape = Tape::new();
        let session = Session::new(&tape, true, 0);
        let (g, y) = graph_of(&msa, 4);
        let x = SeededRng::new(5).uniform_tensor(&[4, 8], -1.0, 1.0);
        let out = interpret(&session, &g, &[&x], y).unwrap();
        let loss = out.mean_pool_row_blocks(4).unwrap().sum_all().unwrap();
        session.backward(loss).unwrap();
        let with_grad = msa.params().iter().filter(|p| p.grad().is_some()).count();
        assert_eq!(with_grad, msa.params().len());
    }

    #[test]
    fn attention_of_identical_tokens_is_uniform_mixture() {
        // If every token is identical, attention output rows must be equal.
        let mut rng = SeededRng::new(6);
        let msa = MultiHeadSelfAttention::new(&mut rng, 8, 2).unwrap();
        let (g, y) = graph_of(&msa, 5);
        let row = SeededRng::new(7).uniform_tensor(&[8], -1.0, 1.0);
        let y = interpret_eval(&g, &[&row.tile_rows(5).unwrap()], y).unwrap();
        let first = y.row(0).unwrap();
        for i in 1..5 {
            let other = y.row(i).unwrap();
            assert!(first.distance(&other).unwrap() < 1e-4);
        }
        let _ = Tensor::zeros(&[1]);
    }
}
