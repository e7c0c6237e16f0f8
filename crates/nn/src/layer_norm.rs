use tensor::Tensor;

use crate::{Layer, Param};

/// Layer normalisation with learnable per-feature scale and shift.
///
/// Applied before every MSA and MLP sub-block in the VITAL transformer
/// encoder ("we used layer normalization before each MSA and MLP sub-block",
/// paper §V.B).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    eps: f32,
    features: usize,
}

impl LayerNorm {
    /// Creates a layer-norm over `features`-wide rows with ε = 1e-5.
    pub fn new(features: usize) -> Self {
        LayerNorm::with_eps(features, 1e-5)
    }

    /// Creates a layer-norm with an explicit ε.
    pub fn with_eps(features: usize, eps: f32) -> Self {
        LayerNorm {
            gamma: Param::new(format!("ln.gamma[{features}]"), Tensor::ones(&[features])),
            beta: Param::new(format!("ln.beta[{features}]"), Tensor::zeros(&[features])),
            eps,
            features,
        }
    }

    /// Feature width this layer normalises over.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Appends this normalisation to an expression graph, binding γ/β to
    /// their params. Compiles to the fused one-pass layer-norm kernel,
    /// which evaluates the same per-element arithmetic as the tape's
    /// standardise → scale → shift sequence.
    ///
    /// # Errors
    /// Returns a [`graph::GraphError`] if the input's column count differs
    /// from `features`.
    pub fn push_graph(
        &self,
        g: &mut graph::Graph,
        x: graph::ExprId,
    ) -> std::result::Result<graph::ExprId, graph::GraphError> {
        let gamma = self.gamma.push_graph(g)?;
        let beta = self.beta.push_graph(g)?;
        g.layer_norm(x, gamma, beta, self.eps)
    }
}

impl Layer for LayerNorm {
    fn params(&self) -> Vec<Param> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{interpret, interpret_eval, Session};
    use autograd::Tape;
    use graph::Graph;
    use tensor::rng::SeededRng;

    fn graph_of(ln: &LayerNorm, rows: usize) -> (Graph, graph::ExprId) {
        let mut g = Graph::new();
        let x = g.input(rows, ln.features());
        let y = ln.push_graph(&mut g, x).unwrap();
        (g, y)
    }

    #[test]
    fn normalises_rows() {
        let ln = LayerNorm::new(8);
        assert_eq!(ln.features(), 8);
        assert_eq!(ln.param_count(), 16);
        let (g, y) = graph_of(&ln, 4);
        let x = SeededRng::new(0).uniform_tensor(&[4, 8], -50.0, 10.0);
        let y = interpret_eval(&g, &[&x], y).unwrap();
        for i in 0..4 {
            let row = y.row(i).unwrap();
            assert!(row.mean().abs() < 1e-4);
            assert!((row.variance() - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn gradients_reach_gamma_beta() {
        let ln = LayerNorm::new(3);
        let tape = Tape::new();
        let session = Session::new(&tape, true, 0);
        let (g, y) = graph_of(&ln, 2);
        let x = SeededRng::new(1).uniform_tensor(&[2, 3], -1.0, 1.0);
        let loss = interpret(&session, &g, &[&x], y)
            .unwrap()
            .softmax_cross_entropy(&[0, 2])
            .unwrap();
        session.backward(loss).unwrap();
        for p in ln.params() {
            assert!(p.grad().is_some());
        }
    }

    #[test]
    fn feature_mismatch_errors() {
        let ln = LayerNorm::new(4);
        let mut g = Graph::new();
        let x = g.input(2, 3);
        assert!(ln.push_graph(&mut g, x).is_err());
    }
}
