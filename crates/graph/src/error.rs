//! Typed errors for graph construction, compilation, and execution.

use std::fmt;

use tensor::TensorError;

/// Everything that can go wrong building or running an expression graph.
///
/// Shape problems are caught at *node-insertion* time (the builder methods
/// on [`crate::Graph`] infer shapes eagerly), so a plan that compiles can
/// only fail at execution time through input-arity/shape mismatches or an
/// underlying tensor error.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// Two operand shapes are incompatible for the named operation.
    ShapeMismatch {
        /// The graph operation being built.
        op: &'static str,
        /// Left/primary operand dims as `(rows, cols)`.
        lhs: (usize, usize),
        /// Right/secondary operand dims as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A slice range is empty, inverted, or out of bounds.
    InvalidSlice {
        /// The graph operation being built.
        op: &'static str,
        /// Dims of the operand being sliced.
        dims: (usize, usize),
        /// Requested start index.
        start: usize,
        /// Requested (exclusive) end index.
        end: usize,
    },
    /// A row-block reduction whose block size does not divide the rows.
    InvalidBlocks {
        /// Row count of the operand.
        rows: usize,
        /// Requested rows per block.
        block_rows: usize,
    },
    /// A concat over zero parts.
    EmptyConcat {
        /// The graph operation being built.
        op: &'static str,
    },
    /// An [`crate::ExprId`] that does not belong to this graph.
    UnknownExpr {
        /// The offending id.
        id: usize,
        /// Number of nodes currently in the graph.
        nodes: usize,
    },
    /// A constant tensor of unsupported rank (only rank ≤ 2 is allowed).
    BadConstant {
        /// The constant's dims as declared.
        dims: Vec<usize>,
    },
    /// Executing a plan with the wrong number of inputs.
    InputArity {
        /// Inputs the plan was compiled for.
        expected: usize,
        /// Inputs provided at execution.
        provided: usize,
    },
    /// An execution input whose dims differ from the compiled placeholder.
    InputShape {
        /// Index of the offending input.
        index: usize,
        /// Dims the plan was compiled for.
        expected: (usize, usize),
        /// Dims provided at execution.
        provided: Vec<usize>,
    },
    /// An op the evaluating backend has no implementation for (the
    /// training interpreter replays only ops with a tape counterpart).
    Unsupported {
        /// The op, as named in the IR.
        op: &'static str,
    },
    /// An underlying tensor operation failed.
    Tensor(TensorError),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: shape mismatch {lhs:?} vs {rhs:?}")
            }
            GraphError::InvalidSlice {
                op,
                dims,
                start,
                end,
            } => write!(f, "{op}: invalid range [{start}, {end}) on dims {dims:?}"),
            GraphError::InvalidBlocks { rows, block_rows } => write!(
                f,
                "mean_row_blocks: block of {block_rows} rows does not divide {rows} rows"
            ),
            GraphError::EmptyConcat { op } => write!(f, "{op}: no parts to concatenate"),
            GraphError::UnknownExpr { id, nodes } => {
                write!(f, "expression id {id} is not in this graph ({nodes} nodes)")
            }
            GraphError::BadConstant { dims } => {
                write!(f, "constants must be rank ≤ 2, got dims {dims:?}")
            }
            GraphError::InputArity { expected, provided } => {
                write!(f, "plan expects {expected} inputs, got {provided}")
            }
            GraphError::InputShape {
                index,
                expected,
                provided,
            } => write!(
                f,
                "input {index}: plan compiled for dims {expected:?}, got {provided:?}"
            ),
            GraphError::Unsupported { op } => write!(f, "{op}: not supported here"),
            GraphError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for GraphError {
    fn from(e: TensorError) -> Self {
        GraphError::Tensor(e)
    }
}
