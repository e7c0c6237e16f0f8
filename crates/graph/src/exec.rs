//! Plan execution inside a reusable buffer arena.
//!
//! An [`Arena`] owns one raw `f32` buffer per plan slot, sized at plan
//! compile time. Executing a plan walks its steps: each kernel writes its
//! slot (taken out of the arena for the duration via `mem::take`, so other
//! slots stay readable), then the step's fused post-op chain is applied to
//! that buffer as **one full-buffer pass per fused op**. Each pass runs
//! the same kernel the eager path dispatches to — the runtime-selected
//! SIMD activation sweep for transcendental unaries, exact elementwise
//! loops for the rest — at the dispatch level the plan latched when it
//! was built ([`CompiledPlan::level`]). Because eager and compiled
//! execution share those kernels, their outputs are bit-identical at
//! every dispatch level, including the ULP-divergent opt-in FMA level.
//!
//! Steady state — an arena reused across requests of the same batch shape
//! — a plan executes with **zero** buffer allocations except the one
//! output tensor ([`CompiledPlan::execute`]), or none at all when the
//! caller only needs per-row argmaxes ([`CompiledPlan::execute_argmax`],
//! the serve hot path). Matmul steps write straight into their slots and
//! pack their operands into the executing thread's reused pack buffers,
//! so on one thread (how a serving worker runs) they make no heap
//! allocations either once the buffers have grown to the plan's shapes.

use tensor::{gemm_ex_into_at, Tensor};

use crate::compile::{CompiledPlan, Kernel, PostOp, Ref, Step};
use crate::error::GraphError;
use crate::stats;

/// The reusable execution buffers for one plan's batch shape.
///
/// Not `Sync` — each concurrent execution needs its own arena (pool them
/// with [`crate::ArenaPool`]). The allocation counters are cumulative and
/// monotonic; tests diff them around an execute to assert slot reuse.
#[derive(Debug, Default)]
pub struct Arena {
    slots: Vec<Vec<f32>>,
    /// Buffer slots allocated by this arena over its lifetime.
    allocs: u64,
    /// Executions that ran entirely on already-allocated slots.
    reuses: u64,
}

impl Arena {
    /// Creates an empty arena; slots materialise on first execute.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Buffer slots this arena has allocated over its lifetime.
    pub fn slot_allocs(&self) -> u64 {
        self.allocs
    }

    /// Executions served without allocating any slot.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Makes the arena's slots match the plan's sizes, allocating only
    /// what is missing. Returns `true` if every slot was already in place
    /// (a fully reused execution).
    fn ensure(&mut self, sizes: &[usize]) -> bool {
        let mut reused = true;
        if self.slots.len() < sizes.len() {
            self.slots.resize_with(sizes.len(), Vec::new);
        }
        for (slot, &size) in self.slots.iter_mut().zip(sizes) {
            if slot.len() != size {
                *slot = vec![0.0f32; size];
                self.allocs += 1;
                reused = false;
            }
        }
        if reused {
            self.reuses += 1;
        } else {
            stats::record_slot_allocs(self.allocs);
        }
        reused
    }
}

impl CompiledPlan {
    /// Creates an arena with every slot pre-allocated for this plan.
    pub fn new_arena(&self) -> Arena {
        let mut arena = Arena::new();
        arena.ensure(&self.slot_sizes);
        arena
    }

    /// Runs the plan, returning the output as a tensor (one buffer
    /// allocation for the output copy).
    ///
    /// # Errors
    /// Returns [`GraphError::InputArity`] / [`GraphError::InputShape`] if
    /// `inputs` do not match the compiled placeholders.
    pub fn execute(&self, arena: &mut Arena, inputs: &[&Tensor]) -> Result<Tensor, GraphError> {
        self.run(arena, inputs)?;
        let out = arena.slots[self.out_slot].clone();
        Tensor::from_vec(out, &[self.out_rows, self.out_cols]).map_err(GraphError::Tensor)
    }

    /// Runs the plan and reduces the output to per-row argmax indices —
    /// the serve hot path's shape, with **zero** buffer allocations on a
    /// warm arena (beyond the index vector itself).
    ///
    /// Ties resolve to the first maximum, exactly like the eager
    /// `argmax_rows`.
    ///
    /// # Errors
    /// Returns [`GraphError::InputArity`] / [`GraphError::InputShape`] if
    /// `inputs` do not match the compiled placeholders.
    pub fn execute_argmax(
        &self,
        arena: &mut Arena,
        inputs: &[&Tensor],
    ) -> Result<Vec<usize>, GraphError> {
        self.run(arena, inputs)?;
        let data = &arena.slots[self.out_slot];
        let c = self.out_cols;
        let mut out = Vec::with_capacity(self.out_rows);
        for row in data.chunks_exact(c) {
            let mut best = 0;
            for (j, v) in row.iter().enumerate() {
                if *v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    fn run(&self, arena: &mut Arena, inputs: &[&Tensor]) -> Result<(), GraphError> {
        if inputs.len() != self.input_dims.len() {
            return Err(GraphError::InputArity {
                expected: self.input_dims.len(),
                provided: inputs.len(),
            });
        }
        for (index, (input, &expected)) in inputs.iter().zip(&self.input_dims).enumerate() {
            let ok = match input.shape().dims() {
                [r, c] => (*r, *c) == expected,
                [n] => (1, *n) == expected,
                _ => false,
            };
            if !ok {
                return Err(GraphError::InputShape {
                    index,
                    expected,
                    provided: input.shape().dims().to_vec(),
                });
            }
        }
        arena.ensure(&self.slot_sizes);
        for step in &self.steps {
            // Take the output buffer out of the arena so every other slot
            // stays readable; the slot planner guarantees the output never
            // aliases an operand of the same step.
            let mut out = std::mem::take(&mut arena.slots[step.out_slot]);
            self.run_kernel(step, &mut out, arena, inputs);
            self.run_post(step, &mut out, arena, inputs);
            arena.slots[step.out_slot] = out;
        }
        Ok(())
    }

    /// Resolves a ref to its backing slice.
    fn resolve<'a>(&'a self, r: Ref, arena: &'a Arena, inputs: &'a [&Tensor]) -> &'a [f32] {
        match r {
            Ref::Input(i) => inputs[i].as_slice(),
            Ref::Const(i) => self.consts[i].as_slice(),
            Ref::Slot(s) => &arena.slots[s],
        }
    }

    fn run_kernel(&self, step: &Step, out: &mut [f32], arena: &Arena, inputs: &[&Tensor]) {
        let res = |r: Ref| self.resolve(r, arena, inputs);
        let (rows, cols) = (step.rows, step.cols);
        match &step.kernel {
            Kernel::Copy { src } => out.copy_from_slice(res(*src)),
            Kernel::Gemm {
                a,
                b,
                spec,
                m,
                k,
                n,
            } => gemm_ex_into_at(self.level, *m, *k, *n, res(*a), res(*b), *spec, out),
            Kernel::SoftmaxRows { src } => {
                // The same three-pass SIMD kernel the eager `softmax_rows`
                // dispatches to, pinned at the plan's latched level.
                out.copy_from_slice(res(*src));
                simd::softmax_rows_at(self.level, out, cols);
            }
            Kernel::LayerNorm {
                src,
                gamma,
                beta,
                eps,
            } => {
                // The same single-sweep SIMD kernel as the eager
                // `layer_norm_rows`, pinned at the plan's latched level.
                out.copy_from_slice(res(*src));
                simd::layer_norm_rows_at(self.level, out, cols, res(*gamma), res(*beta), *eps);
            }
            Kernel::MeanRowBlocks { src, block_rows } => {
                // Mirrors the eager `mean_row_blocks`: accumulate each
                // block's rows in order, then scale once.
                let src = res(*src);
                let scale = 1.0 / *block_rows as f32;
                out.fill(0.0);
                for (acc, block) in out
                    .chunks_exact_mut(cols)
                    .zip(src.chunks_exact(block_rows * cols))
                {
                    for row in block.chunks_exact(cols) {
                        for (a, &v) in acc.iter_mut().zip(row) {
                            *a += v;
                        }
                    }
                    for a in acc.iter_mut() {
                        *a *= scale;
                    }
                }
            }
            Kernel::AddTileRows {
                src,
                tile,
                tile_rows,
            } => {
                let src = res(*src);
                let tile = res(*tile);
                for (r, (o_row, s_row)) in out
                    .chunks_exact_mut(cols)
                    .zip(src.chunks_exact(cols))
                    .enumerate()
                {
                    let t_row = &tile[(r % tile_rows) * cols..(r % tile_rows + 1) * cols];
                    for ((o, &s), &t) in o_row.iter_mut().zip(s_row).zip(t_row) {
                        *o = s + t;
                    }
                }
            }
            Kernel::ConcatRows { parts } => {
                let mut offset = 0;
                for (p, len) in parts {
                    out[offset..offset + len].copy_from_slice(res(*p));
                    offset += len;
                }
            }
            Kernel::ConcatCols { parts } => {
                for r in 0..rows {
                    let mut offset = r * cols;
                    for (p, _, pc) in parts {
                        let src = res(*p);
                        out[offset..offset + pc].copy_from_slice(&src[r * pc..(r + 1) * pc]);
                        offset += pc;
                    }
                }
            }
            Kernel::SliceRows { src, offset } => {
                let src = res(*src);
                out.copy_from_slice(&src[*offset..*offset + rows * cols]);
            }
            Kernel::SliceCols {
                src,
                src_cols,
                start,
            } => {
                let src = res(*src);
                for (r, o_row) in out.chunks_exact_mut(cols).enumerate() {
                    o_row.copy_from_slice(&src[r * src_cols + start..r * src_cols + start + cols]);
                }
            }
        }
    }

    /// Applies the step's fused elementwise chain as one full-buffer pass
    /// per op over the freshly written output buffer.
    ///
    /// A chained op is either a transcendental unary — which runs the
    /// runtime-dispatched SIMD sweep at the plan's latched level, exactly
    /// like the eager `Tensor::apply` — or an exact single-operation
    /// elementwise loop, whose per-element result is independent of pass
    /// structure. Both ways, compiled output stays bit-identical to the
    /// eager path at the same level.
    fn run_post(&self, step: &Step, out: &mut [f32], arena: &Arena, inputs: &[&Tensor]) {
        let cols = step.cols;
        for post in &step.post {
            match post {
                PostOp::Unary(op) => {
                    if let Some(act) = op.vector_act() {
                        simd::apply_act_at(self.level, act, out);
                    } else {
                        for v in out.iter_mut() {
                            *v = op.eval(*v);
                        }
                    }
                }
                PostOp::AddRow(r) => {
                    let row = self.resolve(*r, arena, inputs);
                    for o_row in out.chunks_exact_mut(cols) {
                        for (o, &t) in o_row.iter_mut().zip(row) {
                            *o += t;
                        }
                    }
                }
                PostOp::MulRow(r) => {
                    let row = self.resolve(*r, arena, inputs);
                    for o_row in out.chunks_exact_mut(cols) {
                        for (o, &t) in o_row.iter_mut().zip(row) {
                            *o *= t;
                        }
                    }
                }
                PostOp::BinaryLhs { op, rhs } => {
                    let rhs = self.resolve(*rhs, arena, inputs);
                    for (o, &t) in out.iter_mut().zip(rhs) {
                        *o = op.eval(*o, t);
                    }
                }
                PostOp::BinaryRhs { op, lhs } => {
                    let lhs = self.resolve(*lhs, arena, inputs);
                    for (o, &t) in out.iter_mut().zip(lhs) {
                        *o = op.eval(t, *o);
                    }
                }
            }
        }
    }
}
