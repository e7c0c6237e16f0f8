use tensor::rng::SeededRng;
use tensor::Tensor;

use crate::{Init, Layer, Param};

/// A fully-connected affine layer: `y = x W + b`.
///
/// Input is a `[batch, in_features]` matrix; output is
/// `[batch, out_features]`.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// Creates a dense layer with the given initialisation for the weight
    /// (the bias always starts at zero).
    pub fn new(rng: &mut SeededRng, in_features: usize, out_features: usize, init: Init) -> Self {
        Dense {
            weight: Param::new(
                format!("dense.w[{in_features}x{out_features}]"),
                init.weight(rng, in_features, out_features),
            ),
            bias: Param::new(
                format!("dense.b[{out_features}]"),
                Tensor::zeros(&[out_features]),
            ),
            in_features,
            out_features,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Appends this layer's affine map to an expression graph, binding the
    /// weight and bias constants to their params. The bias add fuses into
    /// the GEMM's output pass at compile time.
    ///
    /// # Errors
    /// Returns a [`graph::GraphError`] if the input's column count differs
    /// from `in_features`.
    pub fn push_graph(
        &self,
        g: &mut graph::Graph,
        x: graph::ExprId,
    ) -> std::result::Result<graph::ExprId, graph::GraphError> {
        let w = self.weight.push_graph(g)?;
        let b = self.bias.push_graph(g)?;
        let mm = g.matmul(x, w, tensor::MatmulSpec::NN)?;
        g.add_row_broadcast(mm, b)
    }
}

impl Layer for Dense {
    fn params(&self) -> Vec<Param> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{interpret, interpret_eval, Session};
    use autograd::Tape;
    use graph::{Compiler, Graph};

    fn graph_of(layer: &Dense, rows: usize) -> (Graph, graph::ExprId) {
        let mut g = Graph::new();
        let x = g.input(rows, layer.in_features());
        let y = layer.push_graph(&mut g, x).unwrap();
        (g, y)
    }

    #[test]
    fn forward_shape_and_param_count() {
        let mut rng = SeededRng::new(0);
        let layer = Dense::new(&mut rng, 4, 3, Init::Xavier);
        assert_eq!(layer.param_count(), 4 * 3 + 3);
        assert_eq!(layer.in_features(), 4);
        assert_eq!(layer.out_features(), 3);

        let (g, y) = graph_of(&layer, 2);
        let y = interpret_eval(&g, &[&Tensor::ones(&[2, 4])], y).unwrap();
        assert_eq!(y.shape().dims(), &[2, 3]);
    }

    /// The inference forward is the compiled plan; it must equal the
    /// graph replayed onto a tape bit for bit.
    #[test]
    fn forward_inference_matches_tape_forward() {
        let mut rng = SeededRng::new(1);
        let layer = Dense::new(&mut rng, 5, 2, Init::He);
        let x = SeededRng::new(2).uniform_tensor(&[3, 5], -1.0, 1.0);
        let (g, y) = graph_of(&layer, 3);
        let y_tape = interpret_eval(&g, &[&x], y).unwrap();
        let plan = Compiler::new().compile(&g, y).unwrap();
        let y_direct = plan.execute(&mut plan.new_arena(), &[&x]).unwrap();
        assert_eq!(y_tape, y_direct);
    }

    #[test]
    fn gradients_reach_weight_and_bias() {
        let mut rng = SeededRng::new(3);
        let layer = Dense::new(&mut rng, 2, 2, Init::Xavier);
        let tape = Tape::new();
        let session = Session::new(&tape, true, 0);
        let (g, y) = graph_of(&layer, 4);
        let loss = interpret(&session, &g, &[&Tensor::ones(&[4, 2])], y)
            .unwrap()
            .softmax_cross_entropy(&[0, 1, 0, 1])
            .unwrap();
        session.backward(loss).unwrap();
        for p in layer.params() {
            assert!(p.grad().is_some(), "missing grad for {}", p.name());
        }
    }

    #[test]
    fn wrong_input_width_errors() {
        let mut rng = SeededRng::new(4);
        let layer = Dense::new(&mut rng, 3, 2, Init::Xavier);
        let mut g = Graph::new();
        let x = g.input(1, 5);
        assert!(layer.push_graph(&mut g, x).is_err());
    }
}
