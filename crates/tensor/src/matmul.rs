//! Packed, register-tiled, data-parallel, runtime-dispatched matrix
//! multiplication.
//!
//! Every matmul funnels into one GEMM path through a single entry point,
//! [`Tensor::matmul_ex`], whose [`MatmulSpec`] selects which operands are
//! read transposed (`A·B`, `Aᵀ·B`, `A·Bᵀ`, `Aᵀ·Bᵀ`); the legacy
//! `matmul`/`matmul_tn`/`matmul_nt` methods are thin wrappers over it,
//! and the autograd tape and compiled graph plans call the same path.
//! There is no separate small-product loop: a one-row query, a 16-wide
//! attention head and a batched patch embedding all run the same
//! register-tiled band kernel from [`simd::gemm`]. A is packed into
//! `MR`-row panels (absorbing its transpose); a row-major B is read in
//! place and a transposed B is packed into `NR`-column panels, so the
//! kernel always streams unit-stride panel rows. The tile dims come **at
//! runtime** from the active dispatch level (`simd::gemm::tile_dims` —
//! portable 4 × 8 scalar tile, explicit-intrinsic 6 × 16 AVX2 tile,
//! opt-in 6 × 16 FMA tile), so the one portable binary runs the wide tile
//! wherever the CPU supports it — no `-C target-cpu=native` rebuild.
//!
//! Pack buffers are thread-local and reused, so a warm product allocates
//! nothing on the calling thread. Products of at least
//! [`PARALLEL_MIN_MACS`] multiply-adds spread their row panels across
//! threads via the `parallel` crate; smaller ones, where spawning would
//! cost more than it saves, run on the calling thread.
//!
//! # Determinism
//!
//! Every output element is accumulated by one sequential `k`-loop inside
//! one band-kernel invocation, starting from `+0.0` with an unfused
//! multiply-then-add per step, and panel boundaries depend only on the
//! operand shapes — never on the thread count or the split cutoff.
//! Results are therefore byte-identical under `VITAL_THREADS=1` and
//! `VITAL_THREADS=N` (the property tests in `tests/proptest_gemm.rs`
//! enforce this). Across dispatch levels the GEMM inherits the simd
//! crate's contract: the scalar and AVX2 tiles run the identical chain
//! per output element, so `VITAL_SIMD=scalar` and `=avx2` are
//! **bit-identical on every input** (`tests/proptest_gemm_dispatch.rs`),
//! while the opt-in FMA tile is only ULP-bounded.

use std::cell::Cell;
use std::thread::LocalKey;

use simd::gemm::{gemm_band_at, PanelsB};

use crate::{Result, Tensor, TensorError};

/// Which operands a matmul reads transposed, without materialising the
/// transpose.
///
/// This is the single entry point's configuration: `matmul_ex(b, spec)`
/// computes `op(A) · op(B)` where `op` transposes the operand iff the
/// corresponding flag is set. The legacy `matmul` / `matmul_tn` /
/// `matmul_nt` methods are thin wrappers over the four spec values, and
/// the graph compiler lowers every matmul node to this spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MatmulSpec {
    /// Read the left operand transposed (`Aᵀ`).
    pub trans_a: bool,
    /// Read the right operand transposed (`Bᵀ`).
    pub trans_b: bool,
}

impl MatmulSpec {
    /// `A · B` — neither operand transposed.
    pub const NN: MatmulSpec = MatmulSpec {
        trans_a: false,
        trans_b: false,
    };
    /// `Aᵀ · B`.
    pub const TN: MatmulSpec = MatmulSpec {
        trans_a: true,
        trans_b: false,
    };
    /// `A · Bᵀ`.
    pub const NT: MatmulSpec = MatmulSpec {
        trans_a: false,
        trans_b: true,
    };
    /// `Aᵀ · Bᵀ`.
    pub const TT: MatmulSpec = MatmulSpec {
        trans_a: true,
        trans_b: true,
    };
}

/// How a stored rank-2 operand is read by the GEMM.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `op(X) = X`: element `(r, c)` is `data[r * stride + c]`.
    Normal,
    /// `op(X) = Xᵀ`: element `(r, c)` is `data[c * stride + r]`.
    Transposed,
}

thread_local! {
    /// This thread's packed-B buffer, reused across products.
    static PACKED_B: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// This thread's packed A-panel buffer, reused across panels and
    /// products.
    static PACKED_A: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on the first `len` elements of a thread-local pack buffer,
/// growing it on first use and handing it back afterwards, so a warm
/// product on this thread packs without touching the heap. The contents
/// are stale on entry: the pack routines overwrite every element the band
/// kernel reads.
fn with_pack_buffer<R>(
    key: &'static LocalKey<Cell<Vec<f32>>>,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    let mut buf = key.take();
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    let result = f(&mut buf[..len]);
    key.set(buf);
    result
}

/// Packs rows `[row0, row0 + rows)` (`rows ≤ mr`) of the `m × k` operand
/// `op(A)` into one `mr`-row panel: `k` groups of `mr` consecutive row
/// values, zero-padded past `rows`, so the band kernel reads A with unit
/// stride. `mr` comes from the active dispatch level's tile dims at
/// runtime; `dst` holds exactly `k · mr` values.
fn pack_a_panel(
    data: &[f32],
    layout: Layout,
    stride: usize,
    row0: usize,
    rows: usize,
    mr: usize,
    dst: &mut [f32],
) {
    if rows < mr {
        dst.fill(0.0);
    }
    let k = dst.len() / mr;
    match layout {
        // Row `i` of `op(A)` is contiguous: scatter it down lane `i`.
        Layout::Normal => {
            for i in 0..rows {
                let src = &data[(row0 + i) * stride..(row0 + i) * stride + k];
                for (group, &v) in dst.chunks_exact_mut(mr).zip(src) {
                    group[i] = v;
                }
            }
        }
        Layout::Transposed => {
            for (p, group) in dst.chunks_exact_mut(mr).enumerate() {
                group[..rows].copy_from_slice(&data[p * stride + row0..p * stride + row0 + rows]);
            }
        }
    }
}

/// Packs `op(B) = Bᵀ` (`k × n`, stored as `n × k` with row stride
/// `stride`) into panel order: one panel per `nr` columns, each storing `k`
/// groups of `nr` consecutive column values. Column `j` of `op(B)` is a
/// contiguous stored row, scattered down lane `j`. The ragged last panel's
/// lanes past `n` are left as they are: the band kernel never reads them.
/// `dst` holds exactly `⌈n / nr⌉ · k · nr` values.
fn pack_b_transposed(data: &[f32], stride: usize, k: usize, n: usize, nr: usize, dst: &mut [f32]) {
    for (panel, dst_panel) in dst.chunks_exact_mut(k * nr).enumerate() {
        let base_col = panel * nr;
        for j in 0..nr.min(n - base_col) {
            let src = &data[(base_col + j) * stride..(base_col + j) * stride + k];
            for (group, &v) in dst_panel.chunks_exact_mut(nr).zip(src) {
                group[j] = v;
            }
        }
    }
}

/// Products of fewer multiply-adds (`m · k · n`) than this run their row
/// panels on the calling thread; larger ones split them across threads.
/// Exported so tests can pick shapes on both sides of it.
///
/// `parallel::parallel_chunks_mut` spawns and joins OS threads for every
/// region: 50–75 µs per two-thread region, measured on a 2-vCPU x86-64
/// VM. One thread of the AVX2 band kernel retires 20–27 G multiply-adds/s
/// at model shapes (40–55 GFLOP/s), so a region costs as much as 1–2 M
/// multiply-adds of work. Splitting over two threads saves at most half
/// the product, so it can only pay once half the product exceeds the
/// region: 2–4 M multiply-adds. Measured on the same VM (`m × 80 × 80`
/// products), the split lost or broke even at 2²¹ (0.76–1.04×) and first
/// won consistently at 2²² (1.39–1.44×), so the cutoff sits there. Below
/// it every split loses: VITAL's attention products, its classification
/// head and every single-observation query are far below; the batched
/// patch embedding and projections still split. The cutoff only chooses
/// *where* panels run, never how they are cut, so results are
/// bit-identical on both sides of it.
pub const PARALLEL_MIN_MACS: usize = 1 << 22;

/// Packed GEMM over raw row-major buffers: `out = op(A) · op(B)` with
/// `op(A)` of shape `m × k` and `op(B)` of shape `k × n`.
fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a: (&[f32], Layout, usize),
    b: (&[f32], Layout, usize),
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    gemm_into(simd::active_level(), m, k, n, a, b, &mut out);
    out
}

/// The packed GEMM writing into a caller-provided `m · n` buffer — the
/// one GEMM path that [`gemm`], the autograd tape and the graph
/// executor's arena-slot steps all share. The buffer is fully
/// overwritten, so stale contents never leak through.
///
/// The output is split into MR-row panels; each panel packs its band of A
/// into the pack buffer of the thread that runs it and multiplies it by every
/// NR-column panel of B. A row-major B is read in place: its panel rows
/// are already contiguous, and at model shapes the strided reads cost no
/// more than a packing copy would (a single-observation product reads B
/// only once, so there packing would double the traffic). A transposed
/// B is packed once into this thread's pack buffer and shared read-only.
/// Panel boundaries depend only on the shape, and products below
/// [`PARALLEL_MIN_MACS`] run every panel on the calling thread.
///
/// `level` selects the band microkernel (and with it the packing tile
/// dims) at runtime; requests above the CPU's capability clamp down
/// identically on both sides of the seam (see `simd::gemm::tile_dims`).
fn gemm_into(
    level: simd::Level,
    m: usize,
    k: usize,
    n: usize,
    a: (&[f32], Layout, usize),
    b: (&[f32], Layout, usize),
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), m * n, "gemm output buffer size");
    if m == 0 || n == 0 || k == 0 {
        out.fill(0.0);
        return;
    }
    let (a_data, a_layout, a_stride) = a;
    let (b_data, b_layout, b_stride) = b;
    let (mr, nr) = simd::gemm::tile_dims(level);
    let mut run = |b_panels: PanelsB<'_>| {
        let band = |panel_idx: usize, out_band: &mut [f32]| {
            let rows = out_band.len() / n;
            with_pack_buffer(&PACKED_A, k * mr, |a_panel| {
                pack_a_panel(
                    a_data,
                    a_layout,
                    a_stride,
                    panel_idx * mr,
                    rows,
                    mr,
                    a_panel,
                );
                gemm_band_at(level, a_panel, b_panels, n, rows, out_band);
            });
        };
        if m * k * n < PARALLEL_MIN_MACS {
            for (panel_idx, out_band) in out.chunks_mut(mr * n).enumerate() {
                band(panel_idx, out_band);
            }
        } else {
            parallel::parallel_chunks_mut(out, mr * n, band);
        }
    };
    match b_layout {
        Layout::Normal => run(PanelsB::row_major(level, b_data, b_stride)),
        Layout::Transposed => with_pack_buffer(&PACKED_B, n.div_ceil(nr) * k * nr, |packed_b| {
            pack_b_transposed(b_data, b_stride, k, n, nr, packed_b);
            run(PanelsB::packed(level, packed_b, k));
        }),
    }
}

/// Packed GEMM over raw row-major slices into a caller-provided buffer:
/// `out = op(A) · op(B)` with `op(A)` of shape `m × k` and `op(B)` of shape
/// `k × n` per `spec`.
///
/// This is the graph executor's entry point: it lets a compiled plan run
/// matmuls directly between arena slots while accumulating in exactly the
/// order the [`Tensor::matmul_ex`] family does, preserving bit-identical
/// results. Products below [`PARALLEL_MIN_MACS`] (or at one thread) make
/// zero heap allocations once the calling thread's pack buffers have
/// grown to the shape (`tests/gemm_alloc.rs` pins this).
///
/// Operand slices are stored row-major *before* the transpose is applied:
/// with `trans_a` set, `a` holds a `k × m` matrix; with `trans_b` set, `b`
/// holds an `n × k` matrix.
///
/// # Panics
/// Panics if a slice length does not match its stated dimensions — callers
/// (the plan compiler) establish shapes statically, so a mismatch is a
/// programming error rather than a data error.
pub fn gemm_ex_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    spec: MatmulSpec,
    out: &mut [f32],
) {
    gemm_ex_into_at(simd::active_level(), m, k, n, a, b, spec, out);
}

/// [`gemm_ex_into`] pinned at an explicit SIMD dispatch level (clamped at
/// hardware support).
///
/// This is what lets a compiled graph plan latch `simd::active_level()`
/// at build time and execute every GEMM step at that level for the life
/// of the plan — the same eager ≡ compiled guarantee the transcendental
/// kernels already carry — and what the dispatch-parity tests and
/// forced-scalar benchmark sweeps use to compare levels inside one
/// process.
///
/// # Panics
/// Panics if a slice length does not match its stated dimensions (see
/// [`gemm_ex_into`]).
#[allow(clippy::too_many_arguments)] // mirrors gemm_ex_into plus the level pin
pub fn gemm_ex_into_at(
    level: simd::Level,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    spec: MatmulSpec,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm_ex_into: A length vs m × k");
    assert_eq!(b.len(), k * n, "gemm_ex_into: B length vs k × n");
    assert_eq!(out.len(), m * n, "gemm_ex_into: out length vs m × n");
    let (a_layout, a_stride) = if spec.trans_a {
        (Layout::Transposed, m)
    } else {
        (Layout::Normal, k)
    };
    let (b_layout, b_stride) = if spec.trans_b {
        (Layout::Transposed, k)
    } else {
        (Layout::Normal, n)
    };
    gemm_into(
        level,
        m,
        k,
        n,
        (a, a_layout, a_stride),
        (b, b_layout, b_stride),
        out,
    );
}

/// Interprets an operand as a matrix for a matmul-family op.
///
/// Rank-1 shapes are viewed as a single row; rank-0 and rank > 2 operands
/// are rejected with a [`TensorError::ShapeMismatch`] that names both operand
/// shapes (rather than a bare rank error), since the fix — reshaping the
/// offending operand — depends on how the two shapes were meant to line up.
fn matmul_operand_dims(
    op: &'static str,
    operand: &Tensor,
    lhs: &Tensor,
    rhs: &Tensor,
) -> Result<(usize, usize)> {
    match operand.shape().dims() {
        [n] => Ok((1, *n)),
        [r, c] => Ok((*r, *c)),
        _ => Err(TensorError::ShapeMismatch {
            op,
            lhs: lhs.shape().dims().to_vec(),
            rhs: rhs.shape().dims().to_vec(),
        }),
    }
}

impl Tensor {
    /// Matrix product `op(self) · op(other)` — the single matmul entry
    /// point, with per-operand transposes selected by [`MatmulSpec`] and
    /// never materialised.
    ///
    /// Rank-1 operands are promoted to matrices: a rank-1 operand is read
    /// as a single row before its transpose flag applies, and — for an
    /// untransposed right operand only — a rank-1 right operand whose
    /// length matches the inner dimension is a `k × 1` column (no explicit
    /// reshape needed; the result is then `m × 1`). Rank > 2 operands are
    /// rejected.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the inner dimensions
    /// differ or either operand is not rank 1/2.
    pub fn matmul_ex(&self, other: &Tensor, spec: MatmulSpec) -> Result<Tensor> {
        const OP: &str = "matmul_ex (operands must be rank 1 or 2)";
        let (m, k) = if spec.trans_a {
            let (k, m) = matmul_operand_dims(OP, self, self, other)?;
            (m, k)
        } else {
            matmul_operand_dims(OP, self, self, other)?
        };
        let (k2, n) = if spec.trans_b {
            let (n, k2) = matmul_operand_dims(OP, other, self, other)?;
            (k2, n)
        } else {
            match other.shape().dims() {
                // A rank-1 right operand is a row when the inner dimension
                // is 1 (the historical interpretation), otherwise a k×1
                // column when its length matches the inner dimension.
                [len] if k != 1 && *len == k => (k, 1),
                _ => matmul_operand_dims(OP, other, self, other)?,
            }
        };
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_ex",
                lhs: self.shape().dims().to_vec(),
                rhs: other.shape().dims().to_vec(),
            });
        }
        let (a_layout, a_stride) = if spec.trans_a {
            (Layout::Transposed, m)
        } else {
            (Layout::Normal, k)
        };
        let (b_layout, b_stride) = if spec.trans_b {
            (Layout::Transposed, k)
        } else {
            (Layout::Normal, n)
        };
        let out = gemm(
            m,
            k,
            n,
            (self.as_slice(), a_layout, a_stride),
            (other.as_slice(), b_layout, b_stride),
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix product `self · other`.
    ///
    /// Thin wrapper over [`Tensor::matmul_ex`] with [`MatmulSpec::NN`];
    /// prefer `matmul_ex` in new code — the three fixed-spec methods are
    /// kept for incremental migration and will eventually be retired.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ
    /// or either operand is not rank 1/2.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_ex(other, MatmulSpec::NN)
    }

    /// `selfᵀ · other` without materialising the transpose.
    ///
    /// Thin wrapper over [`Tensor::matmul_ex`] with [`MatmulSpec::TN`];
    /// prefer `matmul_ex` in new code — the three fixed-spec methods are
    /// kept for incremental migration and will eventually be retired.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the row counts differ or
    /// either operand is not rank 1/2.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_ex(other, MatmulSpec::TN)
    }

    /// `self · otherᵀ` without materialising the transpose.
    ///
    /// Thin wrapper over [`Tensor::matmul_ex`] with [`MatmulSpec::NT`];
    /// prefer `matmul_ex` in new code — the three fixed-spec methods are
    /// kept for incremental migration and will eventually be retired.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the column counts differ or
    /// either operand is not rank 1/2.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_ex(other, MatmulSpec::NT)
    }

    /// Dot product of two rank-1 tensors.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if lengths differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.shape().dims().to_vec(),
                rhs: other.shape().dims().to_vec(),
            });
        }
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a * b)
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), dims).unwrap()
    }

    #[test]
    fn small_matmul() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_matmul() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn inner_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn vector_times_matrix() {
        let v = t(&[1.0, 2.0], &[2]);
        let m = t(&[1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let r = v.matmul(&m).unwrap();
        assert_eq!(r.shape().dims(), &[1, 2]);
        assert_eq!(r.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn matrix_times_rank1_column() {
        // A rank-1 RHS whose length matches the inner dimension acts as a
        // k × 1 column without an explicit reshape.
        let m = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let v = t(&[1.0, 0.0, -1.0], &[3]);
        let r = m.matmul(&v).unwrap();
        assert_eq!(r.shape().dims(), &[2, 1]);
        assert_eq!(r.as_slice(), &[-2.0, -2.0]);
        // ...and matches the explicit reshape it used to require.
        let reshaped = m.matmul(&v.reshape(&[3, 1]).unwrap()).unwrap();
        assert_eq!(r, reshaped);
    }

    #[test]
    fn rank1_rhs_with_unit_inner_dim_stays_a_row() {
        // Historical interpretation: with k == 1 a rank-1 RHS is a 1 × n row.
        let col = t(&[2.0, 3.0], &[2, 1]);
        let v = t(&[1.0, 10.0, 100.0], &[3]);
        let r = col.matmul(&v).unwrap();
        assert_eq!(r.shape().dims(), &[2, 3]);
        assert_eq!(r.as_slice(), &[2.0, 20.0, 200.0, 3.0, 30.0, 300.0]);
    }

    #[test]
    fn mismatched_rank1_rhs_errors() {
        let m = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert!(m.matmul(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn rank3_operands_report_shape_mismatch() {
        let cube = Tensor::zeros(&[2, 2, 2]);
        let mat = Tensor::zeros(&[2, 2]);
        for err in [
            mat.matmul(&cube).unwrap_err(),
            cube.matmul(&mat).unwrap_err(),
            cube.matmul_tn(&mat).unwrap_err(),
            mat.matmul_nt(&cube).unwrap_err(),
        ] {
            match err {
                TensorError::ShapeMismatch { op, lhs, rhs } => {
                    assert!(op.contains("rank 1 or 2"), "op: {op}");
                    assert!(lhs == vec![2, 2, 2] || rhs == vec![2, 2, 2]);
                }
                other => panic!("expected ShapeMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn transposed_variants_match_naive() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[1.0, -1.0, 0.5, 2.0, 3.0, -2.0], &[2, 3]);
        // a^T (3x2) * b (2x3) = 3x3
        let tn = a.matmul_tn(&b).unwrap();
        let naive = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(tn, naive);
        // a (2x3) * b^T (3x2) = 2x2
        let nt = a.matmul_nt(&b).unwrap();
        let naive2 = a.matmul(&b.transpose().unwrap()).unwrap();
        assert_eq!(nt, naive2);
    }

    #[test]
    fn packed_kernel_matches_naive_across_panel_boundaries() {
        // Sizes straddle the MR/NR panel edges and the single-row-panel
        // boundary at both tile heights (7 > 6 > 4), and the last one
        // crosses PARALLEL_MIN_MACS into the threaded split.
        let tall = PARALLEL_MIN_MACS.div_ceil(64 * 65);
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 8, 8),
            (5, 3, 9),
            (7, 17, 23),
            (13, 17, 23),
            (70, 65, 33),
            (70, 65, 70),
            (33, 130, 65),
            (tall, 64, 65),
        ] {
            let a_data: Vec<f32> = (0..m * k).map(|i| ((i % 13) as f32) - 6.0).collect();
            let b_data: Vec<f32> = (0..k * n).map(|i| ((i % 7) as f32) * 0.5 - 1.5).collect();
            let a = t(&a_data, &[m, k]);
            let b = t(&b_data, &[k, n]);
            let c = a.matmul(&b).unwrap();
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for p in 0..k {
                        acc += a_data[i * k + p] * b_data[p * n + j];
                    }
                    let got = c.at(i, j).unwrap();
                    assert!(
                        (got - acc).abs() < 1e-3,
                        "({m}x{k}x{n}) ({i},{j}): {got} vs {acc}"
                    );
                }
            }
        }
    }

    #[test]
    fn thread_counts_are_byte_identical() {
        // One product far below PARALLEL_MIN_MACS and two one row apart
        // across it, so the serial panel loop AND the threaded split are
        // each held to the bit-identity contract.
        let tall = PARALLEL_MIN_MACS.div_ceil(67 * 96);
        for (m, k, n) in [(37, 29, 31), (tall - 1, 67, 96), (tall, 67, 96)] {
            let a = crate::rng::SeededRng::new(1).uniform_tensor(&[m, k], -1.0, 1.0);
            let b = crate::rng::SeededRng::new(2).uniform_tensor(&[k, n], -1.0, 1.0);
            let single = parallel::with_threads(1, || a.matmul(&b).unwrap());
            for threads in [2, 3, 8] {
                let multi = parallel::with_threads(threads, || a.matmul(&b).unwrap());
                assert_eq!(single, multi, "threads={threads} ({m}x{k}x{n})");
            }
        }
    }

    /// `op(A) · op(B)` as one `acc += a·b` chain per element in f32,
    /// sequential in `k` from `+0.0`: the exact sequence of IEEE roundings
    /// the band kernels promise at the scalar and AVX2 levels.
    fn sequential_chain(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        spec: MatmulSpec,
    ) -> Vec<f32> {
        let a_at = |i: usize, p: usize| {
            if spec.trans_a {
                a[p * m + i]
            } else {
                a[i * k + p]
            }
        };
        let b_at = |p: usize, j: usize| {
            if spec.trans_b {
                b[j * k + p]
            } else {
                b[p * n + j]
            }
        };
        (0..m * n)
            .map(|idx| {
                let (i, j) = (idx / n, idx % n);
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a_at(i, p) * b_at(p, j);
                }
                acc
            })
            .collect()
    }

    /// Seeded operand values with `-0.0` and subnormal-scale entries mixed
    /// in, so signed zeros and gradual underflow go through every chain.
    fn chain_operand(len: usize, seed: u64) -> Vec<f32> {
        let mut values = crate::rng::SeededRng::new(seed)
            .uniform_tensor(&[len], -2.0, 2.0)
            .into_vec();
        for (idx, v) in values.iter_mut().enumerate() {
            if idx % 7 == 3 {
                *v = -0.0;
            } else if idx % 11 == 5 {
                *v *= 1e-39;
            }
        }
        values
    }

    #[test]
    fn every_spec_matches_the_sequential_f32_chain_bit_for_bit() {
        let specs = [
            MatmulSpec::NN,
            MatmulSpec::TN,
            MatmulSpec::NT,
            MatmulSpec::TT,
        ];
        for level in [simd::Level::Scalar, simd::Level::Avx2] {
            let mr = simd::gemm::tile_dims(level).0;
            let mut shapes = Vec::new();
            for m in [1, mr - 1, mr, mr + 1] {
                for k in [1, 16, 100] {
                    for n in [1, 15, 16, 17, 63, 100] {
                        shapes.push((m, k, n));
                    }
                }
            }
            // One row apart across the split cutoff at k = n = 100.
            let tall = PARALLEL_MIN_MACS.div_ceil(100 * 100);
            shapes.extend([(tall - 1, 100, 100), (tall, 100, 100)]);
            for (m, k, n) in shapes {
                let a = chain_operand(m * k, (m * 1_000 + k) as u64);
                let b = chain_operand(k * n, (n * 1_000 + k + 7) as u64);
                for spec in specs {
                    let want = sequential_chain(m, k, n, &a, &b, spec);
                    for threads in [1, 2, 8] {
                        let mut got = vec![f32::NAN; m * n];
                        parallel::with_threads(threads, || {
                            gemm_ex_into_at(level, m, k, n, &a, &b, spec, &mut got);
                        });
                        for (idx, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert!(
                                g.to_bits() == w.to_bits(),
                                "{} {spec:?} {m}x{k}x{n} threads={threads} [{idx}]: \
                                 {g:?} vs chain {w:?}",
                                level.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_ex_covers_all_four_specs() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[1.0, -1.0, 0.5, 2.0, 3.0, -2.0], &[2, 3]);
        // NN/TN/NT agree with the legacy wrappers byte-for-byte.
        assert_eq!(
            a.matmul_ex(&b.transpose().unwrap(), MatmulSpec::NN)
                .unwrap(),
            a.matmul(&b.transpose().unwrap()).unwrap()
        );
        assert_eq!(
            a.matmul_ex(&b, MatmulSpec::TN).unwrap(),
            a.matmul_tn(&b).unwrap()
        );
        assert_eq!(
            a.matmul_ex(&b, MatmulSpec::NT).unwrap(),
            a.matmul_nt(&b).unwrap()
        );
        // TT matches the naive materialised double transpose:
        // Aᵀ (3×2) · Bᵀ (2×4) = 3×4.
        let b_tt = t(&[1.0, -1.0, 2.0, 0.5, -0.25, 3.0, 1.5, -2.0], &[4, 2]);
        let tt = a.matmul_ex(&b_tt, MatmulSpec::TT).unwrap();
        let naive = a
            .transpose()
            .unwrap()
            .matmul(&b_tt.transpose().unwrap())
            .unwrap();
        assert_eq!(tt.shape().dims(), &[3, 4]);
        assert_eq!(tt, naive);
    }

    #[test]
    fn gemm_ex_into_matches_matmul_ex() {
        let (m, k, n) = (5, 7, 3);
        let a_nn: Vec<f32> = (0..m * k).map(|i| (i as f32) * 0.25 - 2.0).collect();
        let b_nn: Vec<f32> = (0..k * n).map(|i| 1.5 - (i as f32) * 0.5).collect();
        for spec in [
            MatmulSpec::NN,
            MatmulSpec::TN,
            MatmulSpec::NT,
            MatmulSpec::TT,
        ] {
            let a_dims = if spec.trans_a { [k, m] } else { [m, k] };
            let b_dims = if spec.trans_b { [n, k] } else { [k, n] };
            let a = t(&a_nn, &a_dims);
            let b = t(&b_nn, &b_dims);
            let expected = a.matmul_ex(&b, spec).unwrap();
            let mut out = vec![f32::NAN; m * n];
            gemm_ex_into(m, k, n, a.as_slice(), b.as_slice(), spec, &mut out);
            assert_eq!(out.as_slice(), expected.as_slice(), "{spec:?}");
        }
    }

    #[test]
    fn dot_product() {
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert!(a.dot(&Tensor::zeros(&[2])).is_err());
    }
}
