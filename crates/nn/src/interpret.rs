//! The op-by-op reference interpreter: replays an expression [`Graph`] onto
//! a [`Session`]'s tape.
//!
//! Every layer and model defines its forward pass once, as a `push_graph`
//! builder. Compiled plans serve inference from that graph; this
//! interpreter replays the same graph onto the autograd tape for training
//! and as the bit-exactness oracle the compiled plans are checked against.
//!
//! Nodes are replayed in insertion order, each as the `Var` op a
//! hand-written tape forward would record: an NT matmul is
//! `a.matmul(b.transpose())`, `MulScalar` is `scale`, a constant bound to
//! a [`Param`] registers that param on the session (once per pushed node),
//! and a dropout node is [`Session::dropout`]. Training therefore records
//! the same tape, draws the same dropout masks and accumulates gradients
//! in the same order as a forward written out by hand.

use autograd::{Tape, Var};
use graph::{ExprId, Graph, GraphError, Op, ReduceOp};
use tensor::{BinaryOp, Tensor, UnaryOp};

use crate::{Param, Session};

/// Replays `graph` up to `output` onto `session` and returns the output's
/// tape variable. `inputs` bind the graph's [`Graph::input`]s in order.
///
/// # Errors
/// Returns [`GraphError::UnknownExpr`] for a foreign `output`,
/// [`GraphError::InputArity`] / [`GraphError::InputShape`] if `inputs` do
/// not match the graph's inputs, [`GraphError::Unsupported`] for an op
/// with no tape counterpart, and [`GraphError::Tensor`] if a tape op
/// fails.
pub fn interpret<'t>(
    session: &Session<'t>,
    graph: &Graph,
    inputs: &[&Tensor],
    output: ExprId,
) -> Result<Var<'t>, GraphError> {
    graph.dims(output)?;
    let declared = graph
        .nodes()
        .filter(|(_, op)| matches!(op, Op::Input { .. }))
        .count();
    if inputs.len() != declared {
        return Err(GraphError::InputArity {
            expected: declared,
            provided: inputs.len(),
        });
    }
    let mut vars: Vec<Var<'t>> = Vec::with_capacity(output.index() + 1);
    for (id, op) in graph.nodes().take(output.index() + 1) {
        let v = |x: &ExprId| vars[x.index()];
        let var = match op {
            Op::Input { index } => {
                let t = inputs[*index];
                let dims = graph.dims(id)?;
                if t.shape().as_matrix().ok() != Some(dims) {
                    return Err(GraphError::InputShape {
                        index: *index,
                        expected: dims,
                        provided: t.shape().dims().to_vec(),
                    });
                }
                session.constant(t.clone())
            }
            Op::Constant { index } => match graph.binding::<Param>(id) {
                Some(param) => session.param(param),
                None => session.constant(graph.constant_value(*index).cloned().ok_or(
                    GraphError::UnknownExpr {
                        id: id.index(),
                        nodes: graph.len(),
                    },
                )?),
            },
            Op::Matmul { a, b, spec } => {
                let a = if spec.trans_a {
                    v(a).transpose()?
                } else {
                    v(a)
                };
                let b = if spec.trans_b {
                    v(b).transpose()?
                } else {
                    v(b)
                };
                a.matmul(b)?
            }
            Op::Unary { x, op } => match op {
                UnaryOp::Relu => v(x).relu(),
                UnaryOp::Gelu => v(x).gelu(),
                UnaryOp::Tanh => v(x).tanh(),
                UnaryOp::Sigmoid => v(x).sigmoid(),
                UnaryOp::MulScalar(c) => v(x).scale(*c),
                UnaryOp::AddScalar(c) => v(x).add_scalar(*c),
                UnaryOp::Exp | UnaryOp::Ln | UnaryOp::Sqrt | UnaryOp::Abs => {
                    return Err(GraphError::Unsupported {
                        op: "unary exp/ln/sqrt/abs",
                    })
                }
            },
            Op::Binary { a, b, op } => match op {
                BinaryOp::Add => v(a).add(v(b))?,
                BinaryOp::Sub => v(a).sub(v(b))?,
                BinaryOp::Mul => v(a).mul(v(b))?,
                BinaryOp::Div => return Err(GraphError::Unsupported { op: "binary div" }),
            },
            Op::Reduce { x, op } => match op {
                ReduceOp::SoftmaxRows => v(x).softmax_rows()?,
                ReduceOp::MeanRowBlocks { block_rows } => v(x).mean_pool_row_blocks(*block_rows)?,
            },
            Op::AddRowBroadcast { x, row } => v(x).add_row_broadcast(v(row))?,
            Op::MulRowBroadcast { x, row } => v(x).mul_row_broadcast(v(row))?,
            Op::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            } => v(x).layer_norm(v(gamma), v(beta), *eps)?,
            Op::AddTileRows { x, tile, reps } => v(x).add_tile_rows(v(tile), *reps)?,
            Op::ConcatRows { parts } => Var::concat_rows(&parts.iter().map(v).collect::<Vec<_>>())?,
            Op::ConcatCols { parts } => Var::concat_cols(&parts.iter().map(v).collect::<Vec<_>>())?,
            Op::SliceRows { x, start, end } => v(x).slice_rows(*start, *end)?,
            Op::SliceCols { x, start, end } => v(x).slice_cols(*start, *end)?,
            Op::Reshape { x, rows, cols } => v(x).reshape(&[*rows, *cols])?,
            Op::Dropout { x, rate } => session.dropout(v(x), *rate)?,
        };
        vars.push(var);
    }
    Ok(vars[output.index()])
}

/// Evaluates `graph` at `output` on a fresh eval-mode tape: the reference
/// value every compiled plan must match bit for bit.
///
/// # Errors
/// As [`interpret`].
pub fn interpret_eval(
    graph: &Graph,
    inputs: &[&Tensor],
    output: ExprId,
) -> Result<Tensor, GraphError> {
    let tape = Tape::new();
    let session = Session::new(&tape, false, 0);
    Ok(interpret(&session, graph, inputs, output)?.value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::Compiler;
    use tensor::rng::SeededRng;
    use tensor::MatmulSpec;

    fn rand(seed: u64, rows: usize, cols: usize) -> Tensor {
        SeededRng::new(seed).uniform_tensor(&[rows, cols], -1.0, 1.0)
    }

    fn assert_bits(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn dropout_node_replays_session_dropout_mask() {
        let x = Tensor::ones(&[12, 9]);
        let mut g = Graph::new();
        let input = g.input(12, 9);
        let dropped = g.dropout(input, 0.3).unwrap();

        let tape = Tape::new();
        let session = Session::new(&tape, true, 17);
        let replayed = interpret(&session, &g, &[&x], dropped).unwrap().value();

        let tape = Tape::new();
        let session = Session::new(&tape, true, 17);
        let direct = session.dropout(session.constant(x.clone()), 0.3).unwrap();
        assert_bits(&replayed, &direct.value());
        assert!(replayed.as_slice().contains(&0.0), "training drops");
        assert_bits(&interpret_eval(&g, &[&x], dropped).unwrap(), &x);
    }

    #[test]
    fn bound_constants_register_their_param_once_per_node() {
        let p = Param::new("w", rand(1, 3, 3));
        let mut g = Graph::new();
        let x = g.input(2, 3);
        let w1 = p.push_graph(&mut g).unwrap();
        let h = g.matmul(x, w1, MatmulSpec::NN).unwrap();
        let w2 = p.push_graph(&mut g).unwrap();
        let out = g.matmul(h, w2, MatmulSpec::NN).unwrap();
        let tape = Tape::new();
        let session = Session::new(&tape, true, 0);
        let y = interpret(&session, &g, &[&rand(2, 2, 3)], out).unwrap();
        assert_eq!(session.registered_len(), 2);
        session.backward(y.sum_all().unwrap()).unwrap();
        assert!(p.grad().is_some());
    }

    #[test]
    fn input_mismatches_are_typed() {
        let mut g = Graph::new();
        let x = g.input(2, 3);
        assert!(matches!(
            interpret_eval(&g, &[], x),
            Err(GraphError::InputArity { expected: 1, .. })
        ));
        assert!(matches!(
            interpret_eval(&g, &[&Tensor::ones(&[3, 2])], x),
            Err(GraphError::InputShape { index: 0, .. })
        ));
        let exp = g.unary(x, UnaryOp::Exp).unwrap();
        assert!(matches!(
            interpret_eval(&g, &[&Tensor::ones(&[2, 3])], exp),
            Err(GraphError::Unsupported { .. })
        ));
    }

    /// Every op kind the interpreter replays, interpreted in eval mode,
    /// equals the compiled plan's output bit for bit.
    #[test]
    fn every_op_kind_matches_the_compiled_plan() {
        let a = rand(1, 4, 6);
        let b = rand(2, 4, 6);
        let mut g = Graph::new();
        let x = g.input(4, 6);
        let y = g.input(4, 6);
        let row = g.constant(rand(3, 1, 6)).unwrap();
        let gamma = Param::new("gamma", rand(4, 1, 6))
            .push_graph(&mut g)
            .unwrap();
        let beta = g.constant(Tensor::zeros(&[6])).unwrap();
        let tile = g.constant(rand(5, 2, 6)).unwrap();
        let r = g.reshape(x, 6, 4).unwrap();
        let mut outs = vec![
            g.matmul(x, y, MatmulSpec::NT).unwrap(),
            g.matmul(x, y, MatmulSpec::TN).unwrap(),
            g.matmul(x, r, MatmulSpec::TT).unwrap(),
            g.binary(x, y, BinaryOp::Add).unwrap(),
            g.binary(x, y, BinaryOp::Sub).unwrap(),
            g.binary(x, y, BinaryOp::Mul).unwrap(),
            g.softmax_rows(x).unwrap(),
            g.mean_row_blocks(x, 2).unwrap(),
            g.add_row_broadcast(x, row).unwrap(),
            g.mul_row_broadcast(x, row).unwrap(),
            g.layer_norm(x, gamma, beta, 1e-5).unwrap(),
            g.add_tile_rows(x, tile, 2).unwrap(),
            g.concat_rows(&[x, y]).unwrap(),
            g.concat_cols(&[x, y]).unwrap(),
            g.slice_rows(x, 1, 3).unwrap(),
            g.slice_cols(x, 2, 5).unwrap(),
            g.reshape(x, 6, 4).unwrap(),
            g.dropout(x, 0.5).unwrap(),
        ];
        for op in [
            UnaryOp::Relu,
            UnaryOp::Gelu,
            UnaryOp::Tanh,
            UnaryOp::Sigmoid,
            UnaryOp::MulScalar(0.25),
            UnaryOp::AddScalar(-1.5),
        ] {
            outs.push(g.unary(x, op).unwrap());
        }
        let nn = g.input(6, 5);
        outs.push(g.matmul(x, nn, MatmulSpec::NN).unwrap());
        let w = rand(6, 6, 5);
        for out in outs {
            let plan = Compiler::new().compile(&g, out).unwrap();
            let compiled = plan.execute(&mut plan.new_arena(), &[&a, &b, &w]).unwrap();
            let replayed = interpret_eval(&g, &[&a, &b, &w], out).unwrap();
            assert_eq!(replayed.len(), compiled.len(), "node {}", out.index());
            for (r, c) in replayed.as_slice().iter().zip(compiled.as_slice()) {
                assert_eq!(r.to_bits(), c.to_bits(), "node {}", out.index());
            }
        }
    }
}
