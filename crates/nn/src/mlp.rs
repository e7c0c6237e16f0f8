use tensor::rng::SeededRng;

use crate::{Dense, Init, Layer, Param};

/// Non-linearity applied between the hidden layers of an [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Gaussian error linear unit — used by the transformer encoder MLP and
    /// classification head in the paper.
    #[default]
    Gelu,
    /// Rectified linear unit — used by several comparison baselines.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid — used by the stacked-autoencoder baselines.
    Sigmoid,
    /// No activation (linear layer stack).
    Identity,
}

impl Activation {
    /// The named elementwise op this activation evaluates, or `None` for
    /// [`Activation::Identity`].
    pub fn unary_op(self) -> Option<tensor::UnaryOp> {
        match self {
            Activation::Gelu => Some(tensor::UnaryOp::Gelu),
            Activation::Relu => Some(tensor::UnaryOp::Relu),
            Activation::Tanh => Some(tensor::UnaryOp::Tanh),
            Activation::Sigmoid => Some(tensor::UnaryOp::Sigmoid),
            Activation::Identity => None,
        }
    }
}

/// A multi-layer perceptron: a stack of [`Dense`] layers with a shared
/// activation between them (no activation after the final layer).
///
/// The paper uses two-layer GELU MLPs both inside the transformer encoder
/// (128 → 64 units) and as the fine-tuning classification head
/// (128 → `num_classes`).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    activation: Activation,
    dropout: f32,
}

impl Mlp {
    /// Creates an MLP whose layer widths are `sizes` (e.g. `[64, 128, 10]`
    /// builds two dense layers `64→128` and `128→10`).
    ///
    /// # Panics
    /// Panics if fewer than two sizes are supplied.
    pub fn new(rng: &mut SeededRng, sizes: &[usize], activation: Activation) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least an input and an output width"
        );
        let init = match activation {
            Activation::Relu => Init::He,
            _ => Init::Xavier,
        };
        let layers = sizes
            .windows(2)
            .map(|w| Dense::new(rng, w[0], w[1], init))
            .collect();
        Mlp {
            layers,
            activation,
            dropout: 0.0,
        }
    }

    /// Enables dropout (applied after each hidden activation) and returns the
    /// modified MLP, builder-style.
    pub fn with_dropout(mut self, rate: f32) -> Self {
        self.dropout = rate;
        self
    }

    /// Number of dense layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Output width of the final layer.
    pub fn out_features(&self) -> usize {
        self.layers
            .last()
            .map(Dense::out_features)
            .unwrap_or_default()
    }

    /// Appends the MLP to an expression graph: dense layers with the
    /// activation between them (none after the last), each hidden
    /// activation followed by a dropout node when dropout is enabled (the
    /// compiler folds those away for inference).
    ///
    /// # Errors
    /// Returns a [`graph::GraphError`] on operand-shape mismatch.
    pub fn push_graph(
        &self,
        g: &mut graph::Graph,
        x: graph::ExprId,
    ) -> std::result::Result<graph::ExprId, graph::GraphError> {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.push_graph(g, h)?;
            if i != last {
                if let Some(op) = self.activation.unary_op() {
                    h = g.unary(h, op)?;
                }
                if self.dropout > 0.0 {
                    h = g.dropout(h, self.dropout)?;
                }
            }
        }
        Ok(h)
    }
}

impl Layer for Mlp {
    fn params(&self) -> Vec<Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{interpret, Session};
    use autograd::{Tape, Var};
    use graph::Graph;
    use tensor::Tensor;

    /// Replays `mlp` over `x` onto `session`.
    fn replay<'t>(mlp: &Mlp, session: &Session<'t>, x: &Tensor) -> Var<'t> {
        let (rows, cols) = x.shape().as_matrix().unwrap();
        let mut g = Graph::new();
        let input = g.input(rows, cols);
        let y = mlp.push_graph(&mut g, input).unwrap();
        interpret(session, &g, &[x], y).unwrap()
    }

    #[test]
    fn builds_correct_layer_stack() {
        let mut rng = SeededRng::new(0);
        let mlp = Mlp::new(&mut rng, &[6, 128, 64], Activation::Gelu);
        assert_eq!(mlp.depth(), 2);
        assert_eq!(mlp.out_features(), 64);
        assert_eq!(mlp.param_count(), 6 * 128 + 128 + 128 * 64 + 64);
    }

    #[test]
    #[should_panic(expected = "at least an input and an output width")]
    fn rejects_single_size() {
        let mut rng = SeededRng::new(0);
        let _ = Mlp::new(&mut rng, &[4], Activation::Relu);
    }

    #[test]
    fn forward_shapes_for_each_activation() {
        for act in [
            Activation::Gelu,
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ] {
            let mut rng = SeededRng::new(1);
            let mlp = Mlp::new(&mut rng, &[5, 8, 3], act);
            let tape = Tape::new();
            let session = Session::new(&tape, false, 0);
            let y = replay(&mlp, &session, &Tensor::ones(&[4, 5]));
            assert_eq!(y.value().shape().dims(), &[4, 3]);
            assert!(y.value().all_finite());
        }
    }

    #[test]
    fn dropout_only_affects_training_mode() {
        let mut rng = SeededRng::new(2);
        let mlp = Mlp::new(&mut rng, &[4, 16, 2], Activation::Relu).with_dropout(0.5);
        let x = Tensor::ones(&[1, 4]);

        let tape_eval = Tape::new();
        let s_eval = Session::new(&tape_eval, false, 9);
        let y_eval_a = replay(&mlp, &s_eval, &x).value();
        let tape_eval2 = Tape::new();
        let s_eval2 = Session::new(&tape_eval2, false, 10);
        let y_eval_b = replay(&mlp, &s_eval2, &x).value();
        // Eval mode is deterministic regardless of seed.
        assert_eq!(y_eval_a, y_eval_b);

        let tape_train = Tape::new();
        let s_train = Session::new(&tape_train, true, 11);
        let y_train = replay(&mlp, &s_train, &x).value();
        // Training output will almost surely differ due to dropout.
        assert_ne!(y_eval_a, y_train);
    }

    #[test]
    fn learns_xor() {
        // Small end-to-end training sanity check for the full layer stack.
        use crate::optim::{Adam, Optimizer};
        let mut rng = SeededRng::new(3);
        let mlp = Mlp::new(&mut rng, &[2, 16, 2], Activation::Tanh);
        let mut adam = Adam::new(0.02);
        let inputs =
            Tensor::from_vec(vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0], &[4, 2]).unwrap();
        let targets = [0usize, 1, 1, 0];
        let mut last_loss = f32::MAX;
        for step in 0..300 {
            let tape = Tape::new();
            let session = Session::new(&tape, true, step);
            let logits = replay(&mlp, &session, &inputs);
            let loss = logits.softmax_cross_entropy(&targets).unwrap();
            last_loss = loss.value().item().unwrap();
            session.backward(loss).unwrap();
            adam.step(&mlp.params());
            for p in mlp.params() {
                p.zero_grad();
            }
        }
        assert!(last_loss < 0.1, "XOR did not converge: loss {last_loss}");
        // Check predictions.
        let tape = Tape::new();
        let session = Session::new(&tape, false, 0);
        let logits = replay(&mlp, &session, &inputs).value();
        assert_eq!(logits.argmax_rows().unwrap(), vec![0, 1, 1, 0]);
    }
}
