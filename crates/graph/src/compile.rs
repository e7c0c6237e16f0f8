//! The CPU compiler: expression graph → fused, arena-planned [`CompiledPlan`].
//!
//! Compilation is two deterministic passes over the (already
//! shape-checked) graph:
//!
//! 1. **Kernel selection + fusion.** Nodes are walked in insertion order
//!    (which is a topological order — builders can only reference earlier
//!    ids). Structural and reduction ops each emit a [`Kernel`] step.
//!    An *elementwise* node (unary, binary, row broadcast) whose chain
//!    operand is the immediately preceding step's output **and** has no
//!    other consumer folds into that step's post-op chain instead of
//!    emitting a step: the step's single output pass then evaluates the
//!    whole chain per element. This is what turns `matmul → +bias → GELU`
//!    into one GEMM step with a two-op post chain, and keeps the stable
//!    softmax and layer-norm as single SIMD-kernel steps. The executor
//!    applies a post chain as one full-buffer pass per fused op, each
//!    pass running *the same kernel* (vectorized transcendental or exact
//!    elementwise loop) as the eager path, so fused results are
//!    bit-identical to eager at every dispatch level — the plan latches
//!    [`simd::active_level`] at build time ([`CompiledPlan::level`]) and
//!    pins every step to it, GEMM included: matmul steps run through
//!    `tensor::gemm_ex_into_at` at the latched level, so a plan built
//!    under AVX2 keeps its 6×16 packed tiles (and its bits) for life.
//!    A dropout node emits nothing: it aliases its operand, and its
//!    consumers count as the operand's for the fusion precondition.
//! 2. **Liveness-based slot planning.** Each step's output is a virtual
//!    register; its last use is the last step that reads it. Walking steps
//!    in order, the output slot is drawn from a free list of
//!    exactly-matching buffer sizes *before* the step's operands are
//!    released (so an output never aliases an operand it still reads),
//!    and operands whose last use is this step are returned to the free
//!    list after. Steady state, a plan executes entirely inside the
//!    resulting fixed set of arena slots: zero buffer allocations.

use tensor::{BinaryOp, MatmulSpec, Tensor, UnaryOp};

use crate::error::GraphError;
use crate::ir::{ExprId, Graph, Op, ReduceOp};

/// Where a step operand's data lives at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ref {
    /// The i-th runtime input tensor.
    Input(usize),
    /// The i-th compile-time constant.
    Const(usize),
    /// An arena slot (a virtual register index during pass 1, a physical
    /// slot index in the finished plan).
    Slot(usize),
}

/// One fused elementwise operation applied per element of a step's output.
#[derive(Debug, Clone)]
pub(crate) enum PostOp {
    /// Apply a named unary op to the chain value.
    Unary(UnaryOp),
    /// `chain + row[j]` for the element's column `j`.
    AddRow(Ref),
    /// `chain · row[j]` for the element's column `j`.
    MulRow(Ref),
    /// `chain OP other[idx]` (chain is the left operand).
    BinaryLhs {
        /// The operation.
        op: BinaryOp,
        /// Elementwise right operand.
        rhs: Ref,
    },
    /// `other[idx] OP chain` (chain is the right operand).
    BinaryRhs {
        /// The operation.
        op: BinaryOp,
        /// Elementwise left operand.
        lhs: Ref,
    },
}

/// The structural/reduction core of one step.
#[derive(Debug, Clone)]
pub(crate) enum Kernel {
    /// Copy the source buffer (standalone elementwise chains, reshape).
    Copy { src: Ref },
    /// `op(a) · op(b)` via the packed GEMM, written straight into the slot.
    Gemm {
        a: Ref,
        b: Ref,
        spec: MatmulSpec,
        m: usize,
        k: usize,
        n: usize,
    },
    /// Three-pass numerically stable softmax over each row.
    SoftmaxRows { src: Ref },
    /// Per-row standardise, then `· γ + β` per feature, in one pass.
    LayerNorm {
        src: Ref,
        gamma: Ref,
        beta: Ref,
        eps: f32,
    },
    /// Mean over consecutive `block_rows`-row blocks.
    MeanRowBlocks { src: Ref, block_rows: usize },
    /// `src + tile`, the tile repeating vertically.
    AddTileRows {
        src: Ref,
        tile: Ref,
        tile_rows: usize,
    },
    /// Vertical concat; parts carry their element counts.
    ConcatRows { parts: Vec<(Ref, usize)> },
    /// Horizontal concat; parts carry `(rows, cols)`.
    ConcatCols { parts: Vec<(Ref, usize, usize)> },
    /// Contiguous row window starting at element `offset`.
    SliceRows { src: Ref, offset: usize },
    /// Column window `[start, start + out_cols)` of a `src_cols`-wide source.
    SliceCols {
        src: Ref,
        src_cols: usize,
        start: usize,
    },
}

/// One executable step: a kernel writing an arena slot, then a fused
/// post-op chain applied to that slot in a single pass.
#[derive(Debug, Clone)]
pub(crate) struct Step {
    pub(crate) kernel: Kernel,
    pub(crate) post: Vec<PostOp>,
    pub(crate) out_slot: usize,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
}

/// A compiled, immutable execution plan for one graph output.
///
/// Build once per (model, batch shape) via [`Compiler::compile`], execute
/// many times via [`CompiledPlan::execute`] /
/// [`CompiledPlan::execute_argmax`] with a reusable
/// [`Arena`](crate::Arena). Plans are `Send + Sync` (share behind an
/// `Arc`); all mutable state lives in the per-call arena.
#[derive(Debug)]
pub struct CompiledPlan {
    pub(crate) steps: Vec<Step>,
    pub(crate) consts: Vec<Tensor>,
    pub(crate) input_dims: Vec<(usize, usize)>,
    pub(crate) slot_sizes: Vec<usize>,
    pub(crate) out_slot: usize,
    pub(crate) out_rows: usize,
    pub(crate) out_cols: usize,
    pub(crate) level: simd::Level,
}

impl CompiledPlan {
    /// Number of executable steps (after fusion).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// The SIMD dispatch level latched when this plan was built; every
    /// GEMM / softmax / layer-norm / activation step executes at this
    /// level.
    pub fn level(&self) -> simd::Level {
        self.level
    }

    /// Number of fused post-ops across all steps — elementwise nodes that
    /// did *not* cost a pass or a buffer of their own.
    pub fn fused_op_count(&self) -> usize {
        self.steps.iter().map(|s| s.post.len()).sum()
    }

    /// Number of arena buffer slots the plan executes in.
    pub fn slot_count(&self) -> usize {
        self.slot_sizes.len()
    }

    /// The output's `(rows, cols)`.
    pub fn output_dims(&self) -> (usize, usize) {
        (self.out_rows, self.out_cols)
    }
}

/// The CPU compiler. Stateless; [`Compiler::compile`] is a pure function
/// of the graph. (Kept as a struct so future backends can hang
/// configuration or a backend choice off it, mirroring the Compiler
/// pattern the ROADMAP references.)
#[derive(Debug, Default, Clone, Copy)]
pub struct Compiler;

impl Compiler {
    /// Creates a compiler.
    pub fn new() -> Self {
        Compiler
    }

    /// Compiles `graph` down to a fused, slot-planned plan producing
    /// `output`.
    ///
    /// # Errors
    /// Returns [`GraphError::UnknownExpr`] if `output` is not a node of
    /// `graph`.
    pub fn compile(&self, graph: &Graph, output: ExprId) -> Result<CompiledPlan, GraphError> {
        if output.0 >= graph.nodes.len() {
            return Err(GraphError::UnknownExpr {
                id: output.0,
                nodes: graph.nodes.len(),
            });
        }

        // Reachability + per-use consumer counts from the output.
        let n = graph.nodes.len();
        let mut reachable = vec![false; n];
        let mut consumers = vec![0usize; n];
        let mut stack = vec![output.0];
        while let Some(id) = stack.pop() {
            if reachable[id] {
                continue;
            }
            reachable[id] = true;
            for_each_operand(&graph.nodes[id].op, |op_id| stack.push(op_id.0));
        }
        // A dropout node is the identity at inference: it aliases its
        // operand's value, so its consumers count against that operand.
        let mut source: Vec<usize> = (0..n).collect();
        for (id, node) in graph.nodes.iter().enumerate() {
            if let Op::Dropout { x, .. } = node.op {
                source[id] = source[x.0];
            }
        }
        for (id, _) in reachable.iter().enumerate().filter(|(_, &live)| live) {
            if !matches!(graph.nodes[id].op, Op::Dropout { .. }) {
                for_each_operand(&graph.nodes[id].op, |op_id| {
                    consumers[source[op_id.0]] += 1;
                });
            }
        }

        // Pass 1: kernel selection + fusion. `loc[id]` is where the node's
        // value lives; `Ref::Slot` indices are virtual (= step index).
        let mut loc: Vec<Option<Ref>> = vec![None; n];
        let mut steps: Vec<Step> = Vec::new();
        for id in 0..n {
            if !reachable[id] {
                continue;
            }
            let node = &graph.nodes[id];
            let (rows, cols) = (node.rows, node.cols);
            let r = |x: ExprId, loc: &[Option<Ref>]| loc[x.0].expect("operand precedes use");
            // True iff `x` is the previous step's output and nothing else
            // will ever read it — the fusion precondition (the post chain
            // rewrites that buffer in place).
            let fusable = |x: ExprId, loc: &[Option<Ref>], steps: &[Step]| {
                !steps.is_empty()
                    && loc[x.0] == Some(Ref::Slot(steps.len() - 1))
                    && consumers[source[x.0]] == 1
            };
            match &node.op {
                Op::Input { index } => loc[id] = Some(Ref::Input(*index)),
                Op::Constant { index } => loc[id] = Some(Ref::Const(*index)),
                Op::Dropout { x, .. } => loc[id] = loc[x.0],
                Op::Unary { x, op } => {
                    if fusable(*x, &loc, &steps) {
                        let step = steps.last_mut().expect("fusable implies a step");
                        step.post.push(PostOp::Unary(*op));
                        loc[id] = Some(Ref::Slot(steps.len() - 1));
                    } else {
                        let src = r(*x, &loc);
                        steps.push(Step {
                            kernel: Kernel::Copy { src },
                            post: vec![PostOp::Unary(*op)],
                            out_slot: 0,
                            rows,
                            cols,
                        });
                        loc[id] = Some(Ref::Slot(steps.len() - 1));
                    }
                }
                Op::Binary { a, b, op } => {
                    if fusable(*a, &loc, &steps) {
                        let rhs = r(*b, &loc);
                        let step = steps.last_mut().expect("fusable implies a step");
                        step.post.push(PostOp::BinaryLhs { op: *op, rhs });
                        loc[id] = Some(Ref::Slot(steps.len() - 1));
                    } else if fusable(*b, &loc, &steps) {
                        let lhs = r(*a, &loc);
                        let step = steps.last_mut().expect("fusable implies a step");
                        step.post.push(PostOp::BinaryRhs { op: *op, lhs });
                        loc[id] = Some(Ref::Slot(steps.len() - 1));
                    } else {
                        let src = r(*a, &loc);
                        let rhs = r(*b, &loc);
                        steps.push(Step {
                            kernel: Kernel::Copy { src },
                            post: vec![PostOp::BinaryLhs { op: *op, rhs }],
                            out_slot: 0,
                            rows,
                            cols,
                        });
                        loc[id] = Some(Ref::Slot(steps.len() - 1));
                    }
                }
                Op::AddRowBroadcast { x, row } | Op::MulRowBroadcast { x, row } => {
                    let mk = |rref: Ref| match &node.op {
                        Op::AddRowBroadcast { .. } => PostOp::AddRow(rref),
                        _ => PostOp::MulRow(rref),
                    };
                    let rref = r(*row, &loc);
                    if fusable(*x, &loc, &steps) {
                        let step = steps.last_mut().expect("fusable implies a step");
                        step.post.push(mk(rref));
                        loc[id] = Some(Ref::Slot(steps.len() - 1));
                    } else {
                        let src = r(*x, &loc);
                        steps.push(Step {
                            kernel: Kernel::Copy { src },
                            post: vec![mk(rref)],
                            out_slot: 0,
                            rows,
                            cols,
                        });
                        loc[id] = Some(Ref::Slot(steps.len() - 1));
                    }
                }
                Op::Matmul { a, b, spec } => {
                    let (ar, ac) = (graph.nodes[a.0].rows, graph.nodes[a.0].cols);
                    let k = if spec.trans_a { ar } else { ac };
                    steps.push(Step {
                        kernel: Kernel::Gemm {
                            a: r(*a, &loc),
                            b: r(*b, &loc),
                            spec: *spec,
                            m: rows,
                            k,
                            n: cols,
                        },
                        post: Vec::new(),
                        out_slot: 0,
                        rows,
                        cols,
                    });
                    loc[id] = Some(Ref::Slot(steps.len() - 1));
                }
                Op::Reduce { x, op } => {
                    let src = r(*x, &loc);
                    let kernel = match op {
                        ReduceOp::SoftmaxRows => Kernel::SoftmaxRows { src },
                        ReduceOp::MeanRowBlocks { block_rows } => Kernel::MeanRowBlocks {
                            src,
                            block_rows: *block_rows,
                        },
                    };
                    steps.push(Step {
                        kernel,
                        post: Vec::new(),
                        out_slot: 0,
                        rows,
                        cols,
                    });
                    loc[id] = Some(Ref::Slot(steps.len() - 1));
                }
                Op::LayerNorm {
                    x,
                    gamma,
                    beta,
                    eps,
                } => {
                    steps.push(Step {
                        kernel: Kernel::LayerNorm {
                            src: r(*x, &loc),
                            gamma: r(*gamma, &loc),
                            beta: r(*beta, &loc),
                            eps: *eps,
                        },
                        post: Vec::new(),
                        out_slot: 0,
                        rows,
                        cols,
                    });
                    loc[id] = Some(Ref::Slot(steps.len() - 1));
                }
                Op::AddTileRows { x, tile, .. } => {
                    let tile_rows = graph.nodes[tile.0].rows;
                    steps.push(Step {
                        kernel: Kernel::AddTileRows {
                            src: r(*x, &loc),
                            tile: r(*tile, &loc),
                            tile_rows,
                        },
                        post: Vec::new(),
                        out_slot: 0,
                        rows,
                        cols,
                    });
                    loc[id] = Some(Ref::Slot(steps.len() - 1));
                }
                Op::ConcatRows { parts } => {
                    let parts = parts
                        .iter()
                        .map(|p| {
                            let pn = &graph.nodes[p.0];
                            (r(*p, &loc), pn.rows * pn.cols)
                        })
                        .collect();
                    steps.push(Step {
                        kernel: Kernel::ConcatRows { parts },
                        post: Vec::new(),
                        out_slot: 0,
                        rows,
                        cols,
                    });
                    loc[id] = Some(Ref::Slot(steps.len() - 1));
                }
                Op::ConcatCols { parts } => {
                    let parts = parts
                        .iter()
                        .map(|p| {
                            let pn = &graph.nodes[p.0];
                            (r(*p, &loc), pn.rows, pn.cols)
                        })
                        .collect();
                    steps.push(Step {
                        kernel: Kernel::ConcatCols { parts },
                        post: Vec::new(),
                        out_slot: 0,
                        rows,
                        cols,
                    });
                    loc[id] = Some(Ref::Slot(steps.len() - 1));
                }
                Op::SliceRows { x, start, .. } => {
                    let src_cols = graph.nodes[x.0].cols;
                    steps.push(Step {
                        kernel: Kernel::SliceRows {
                            src: r(*x, &loc),
                            offset: start * src_cols,
                        },
                        post: Vec::new(),
                        out_slot: 0,
                        rows,
                        cols,
                    });
                    loc[id] = Some(Ref::Slot(steps.len() - 1));
                }
                Op::SliceCols { x, start, .. } => {
                    let src_cols = graph.nodes[x.0].cols;
                    steps.push(Step {
                        kernel: Kernel::SliceCols {
                            src: r(*x, &loc),
                            src_cols,
                            start: *start,
                        },
                        post: Vec::new(),
                        out_slot: 0,
                        rows,
                        cols,
                    });
                    loc[id] = Some(Ref::Slot(steps.len() - 1));
                }
                Op::Reshape { x, .. } => {
                    steps.push(Step {
                        kernel: Kernel::Copy { src: r(*x, &loc) },
                        post: Vec::new(),
                        out_slot: 0,
                        rows,
                        cols,
                    });
                    loc[id] = Some(Ref::Slot(steps.len() - 1));
                }
            }
        }

        // Degenerate graphs (output is an input/constant) still need a step.
        let out_ref = loc[output.0].expect("output is reachable");
        let (out_rows, out_cols) = (graph.nodes[output.0].rows, graph.nodes[output.0].cols);
        let output_virtual = match out_ref {
            Ref::Slot(v) => v,
            src => {
                steps.push(Step {
                    kernel: Kernel::Copy { src },
                    post: Vec::new(),
                    out_slot: 0,
                    rows: out_rows,
                    cols: out_cols,
                });
                steps.len() - 1
            }
        };

        // Pass 2: liveness-based physical slot assignment over the virtual
        // registers (one per step).
        let mut last_use = vec![0usize; steps.len()];
        for (idx, step) in steps.iter().enumerate() {
            for_each_ref(step, |r| {
                if let Ref::Slot(v) = r {
                    last_use[v] = last_use[v].max(idx);
                }
            });
        }
        last_use[output_virtual] = usize::MAX;

        let mut slot_sizes: Vec<usize> = Vec::new();
        // Free physical slots, grouped as (size, slot) pairs.
        let mut free: Vec<(usize, usize)> = Vec::new();
        let mut slot_of = vec![0usize; steps.len()];
        for idx in 0..steps.len() {
            let size = steps[idx].rows * steps[idx].cols;
            // Allocate the output slot BEFORE releasing this step's
            // operands so the output never aliases a buffer the kernel
            // still reads from.
            let slot = match free.iter().position(|&(s, _)| s == size) {
                Some(pos) => free.swap_remove(pos).1,
                None => {
                    slot_sizes.push(size);
                    slot_sizes.len() - 1
                }
            };
            slot_of[idx] = slot;
            let mut released: Vec<usize> = Vec::new();
            for_each_ref(&steps[idx], |r| {
                if let Ref::Slot(v) = r {
                    if last_use[v] == idx && !released.contains(&v) {
                        released.push(v);
                    }
                }
            });
            for v in released {
                free.push((slot_sizes[slot_of[v]], slot_of[v]));
            }
        }

        // Rewrite virtual refs to physical slots.
        for idx in 0..steps.len() {
            let step = &mut steps[idx];
            step.out_slot = slot_of[idx];
            map_refs(step, |r| match r {
                Ref::Slot(v) => Ref::Slot(slot_of[v]),
                other => other,
            });
        }

        Ok(CompiledPlan {
            steps,
            consts: graph.consts.clone(),
            input_dims: graph.input_dims.clone(),
            slot_sizes,
            out_slot: slot_of[output_virtual],
            out_rows,
            out_cols,
            // Latch the dispatch level at build time so every execution of
            // this plan uses the same kernels the eager path dispatches to.
            level: simd::active_level(),
        })
    }
}

/// Visits every operand [`ExprId`] of one op.
fn for_each_operand(op: &Op, mut f: impl FnMut(ExprId)) {
    match op {
        Op::Input { .. } | Op::Constant { .. } => {}
        Op::Unary { x, .. } => f(*x),
        Op::Matmul { a, b, .. } | Op::Binary { a, b, .. } => {
            f(*a);
            f(*b);
        }
        Op::Reduce { x, .. } => f(*x),
        Op::AddRowBroadcast { x, row } | Op::MulRowBroadcast { x, row } => {
            f(*x);
            f(*row);
        }
        Op::LayerNorm { x, gamma, beta, .. } => {
            f(*x);
            f(*gamma);
            f(*beta);
        }
        Op::AddTileRows { x, tile, .. } => {
            f(*x);
            f(*tile);
        }
        Op::ConcatRows { parts } | Op::ConcatCols { parts } => {
            for p in parts {
                f(*p);
            }
        }
        Op::SliceRows { x, .. }
        | Op::SliceCols { x, .. }
        | Op::Reshape { x, .. }
        | Op::Dropout { x, .. } => f(*x),
    }
}

/// Visits every [`Ref`] a step reads (kernel sources and post-op operands).
fn for_each_ref(step: &Step, mut f: impl FnMut(Ref)) {
    match &step.kernel {
        Kernel::Copy { src }
        | Kernel::SoftmaxRows { src }
        | Kernel::MeanRowBlocks { src, .. }
        | Kernel::SliceRows { src, .. }
        | Kernel::SliceCols { src, .. } => f(*src),
        Kernel::Gemm { a, b, .. } => {
            f(*a);
            f(*b);
        }
        Kernel::LayerNorm {
            src, gamma, beta, ..
        } => {
            f(*src);
            f(*gamma);
            f(*beta);
        }
        Kernel::AddTileRows { src, tile, .. } => {
            f(*src);
            f(*tile);
        }
        Kernel::ConcatRows { parts } => {
            for (p, _) in parts {
                f(*p);
            }
        }
        Kernel::ConcatCols { parts } => {
            for (p, _, _) in parts {
                f(*p);
            }
        }
    }
    for post in &step.post {
        match post {
            PostOp::Unary(_) => {}
            PostOp::AddRow(r) | PostOp::MulRow(r) => f(*r),
            PostOp::BinaryLhs { rhs, .. } => f(*rhs),
            PostOp::BinaryRhs { lhs, .. } => f(*lhs),
        }
    }
}

/// Rewrites every [`Ref`] a step reads.
fn map_refs(step: &mut Step, f: impl Fn(Ref) -> Ref) {
    match &mut step.kernel {
        Kernel::Copy { src }
        | Kernel::SoftmaxRows { src }
        | Kernel::MeanRowBlocks { src, .. }
        | Kernel::SliceRows { src, .. }
        | Kernel::SliceCols { src, .. } => *src = f(*src),
        Kernel::Gemm { a, b, .. } => {
            *a = f(*a);
            *b = f(*b);
        }
        Kernel::LayerNorm {
            src, gamma, beta, ..
        } => {
            *src = f(*src);
            *gamma = f(*gamma);
            *beta = f(*beta);
        }
        Kernel::AddTileRows { src, tile, .. } => {
            *src = f(*src);
            *tile = f(*tile);
        }
        Kernel::ConcatRows { parts } => {
            for (p, _) in parts {
                *p = f(*p);
            }
        }
        Kernel::ConcatCols { parts } => {
            for (p, _, _) in parts {
                *p = f(*p);
            }
        }
    }
    for post in &mut step.post {
        match post {
            PostOp::Unary(_) => {}
            PostOp::AddRow(r) | PostOp::MulRow(r) => *r = f(*r),
            PostOp::BinaryLhs { rhs, .. } => *rhs = f(*rhs),
            PostOp::BinaryRhs { lhs, .. } => *lhs = f(*lhs),
        }
    }
}
