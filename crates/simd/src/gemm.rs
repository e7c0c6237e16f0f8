//! Runtime-dispatched packed-GEMM microkernels.
//!
//! The packing, parallel row-panel split and shape logic of the GEMM
//! live in `tensor::matmul`; this module owns only the register-tiled
//! core that multiplies one packed `MR`-row panel of A against every
//! `NR`-column panel of B, because that core is where the dispatch levels
//! differ:
//!
//! | [`Level`]  | tile (`MR × NR`) | kernel                                       |
//! |------------|------------------|----------------------------------------------|
//! | `Scalar`   | 4 × 8            | portable `[f32; 8]` rows, auto-vectorized    |
//! | `Avx2`     | 6 × 16           | 2×`__m256`/row, unfused `vmulps`+`vaddps`    |
//! | `Fma`      | 6 × 16           | 2×`__m256`/row, fused `vfmadd231ps`          |
//!
//! The vector tiles use twelve `__m256` accumulators (two per A row) plus
//! two B registers and one broadcast — 15 of the 16 ymm registers — so
//! each `vbroadcastss` and each loop iteration is amortized over 96
//! output elements.
//!
//! # Determinism
//!
//! Every output element is one independent accumulation chain
//! `c(i,j) = Σ_p a(i,p)·b(p,j)`, evaluated sequentially in `p` inside a
//! single band-kernel invocation. The scalar and AVX2 tiles perform the
//! same unfused multiply-then-add per step, so — although their tile
//! *shapes* differ — each element's chain is the identical sequence of
//! IEEE-754 two-operand operations and the two levels are
//! **bit-identical on every input** (tile shape only changes which
//! elements share a register block, never the order within a chain).
//! The FMA tile contracts each step into a single rounding and is
//! therefore only ULP-bounded; like the transcendental kernels it is
//! opt-in via `VITAL_SIMD=fma`.
//!
//! # Operand contract
//!
//! Callers pack at the tile dims of the *clamped* level ([`tile_dims`]
//! applies the hardware clamp, so packing and kernel always agree):
//! `a_panel` holds `k` groups of `MR` consecutive row values (zero-padded
//! past the live rows). B is read through [`PanelsB`]: either packed —
//! `⌈n / NR⌉` panels of `k` groups of `NR` consecutive column values —
//! or straight out of a row-major matrix. Either way the kernels read
//! only the live columns of the ragged last panel (masked loads at the
//! vector levels), so nothing past column `n` is ever touched and packed
//! panels need no padding.

use crate::{clamp_supported, Level};

/// Microkernel tile dims `(MR, NR)` for a dispatch level, after clamping
/// the request at what the CPU supports.
///
/// Callers must pack with the dims of the same level they pass to
/// [`gemm_band_at`]; both apply the identical clamp, so a request the
/// hardware cannot honor degrades consistently on both sides.
pub fn tile_dims(level: Level) -> (usize, usize) {
    match clamp_supported(level) {
        Level::Scalar => (4, 8),
        Level::Avx2 | Level::Fma => (6, 16),
    }
}

/// Where the band kernel reads B: a sequence of `NR`-column panels, each
/// `k` rows deep, with row `p` of panel `jp` starting at
/// `jp · panel_stride + p · row_stride` and holding the panel's live
/// columns (`NR`, or fewer in the ragged last panel).
#[derive(Debug, Clone, Copy)]
pub struct PanelsB<'a> {
    data: &'a [f32],
    row_stride: usize,
    panel_stride: usize,
}

impl<'a> PanelsB<'a> {
    /// Panels packed back to back at `level`'s tile width: `k` groups of
    /// `NR` values each (see the module's operand contract).
    pub fn packed(level: Level, data: &'a [f32], k: usize) -> Self {
        let nr = tile_dims(level).1;
        PanelsB {
            data,
            row_stride: nr,
            panel_stride: k * nr,
        }
    }

    /// A row-major B with row stride `ld`, read in place: panel `jp` is
    /// columns `jp · NR ..` of every row, already contiguous, so no
    /// packing copy is needed.
    pub fn row_major(level: Level, data: &'a [f32], ld: usize) -> Self {
        PanelsB {
            data,
            row_stride: ld,
            panel_stride: tile_dims(level).1,
        }
    }

    /// The rows of panel `jp`, each holding at least the panel's live
    /// columns.
    fn panel(&self, jp: usize) -> std::slice::Chunks<'a, f32> {
        self.data[jp * self.panel_stride..].chunks(self.row_stride)
    }
}

/// Multiplies one packed A panel by every B panel at the given level
/// (clamped at hardware support), writing the `rows × n` result band.
///
/// * `a_panel`: exactly `k × MR` packed values for this band's rows; its
///   length sets the product's inner dimension `k`.
/// * `b`: `⌈n / NR⌉` panels of `k × NR` values.
/// * `rows`: live output rows in this band (`1..=MR`).
/// * `out`: row-major `rows × n` destination, fully overwritten.
///
/// # Panics
/// Panics (via slice indexing) if the operands were packed with tile
/// dims other than `tile_dims(level)` or `out` is shorter than
/// `rows * n`.
pub fn gemm_band_at(
    level: Level,
    a_panel: &[f32],
    b: PanelsB<'_>,
    n: usize,
    rows: usize,
    out: &mut [f32],
) {
    match clamp_supported(level) {
        Level::Scalar => gemm_band_scalar(a_panel, b, n, rows, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_supported` only returns Avx2 when the avx2
        // `is_x86_feature_detected!` check passed.
        Level::Avx2 => unsafe { x86::gemm_band_avx2(a_panel, b, n, rows, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above; Fma additionally implies the fma feature.
        Level::Fma => unsafe { x86::gemm_band_fma(a_panel, b, n, rows, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => gemm_band_scalar(a_panel, b, n, rows, out),
    }
}

/// Portable 4 × 8 band kernel — the `Scalar` dispatch level.
///
/// The fixed-bound loops over `[f32; 8]` accumulator rows are the
/// auto-vectorization target; there is deliberately no zero-skipping
/// branch (a data-dependent shortcut would defeat vectorization and make
/// runtime input-dependent).
fn gemm_band_scalar(a_panel: &[f32], b: PanelsB<'_>, n: usize, rows: usize, out: &mut [f32]) {
    const MR: usize = 4;
    const NR: usize = 8;
    for jp in 0..n.div_ceil(NR) {
        let j0 = jp * NR;
        let cols = NR.min(n - j0);
        let mut acc = [[0.0f32; NR]; MR];
        // Fixed-size array references make every index below
        // bounds-check free, which lets LLVM keep the tile in registers.
        for (a, b_row) in a_panel.chunks_exact(MR).zip(b.panel(jp)) {
            let a: &[f32; MR] = a.try_into().expect("A panel chunk is MR wide");
            // The ragged last panel reads only its live columns.
            let mut edge = [0.0f32; NR];
            let b_row: &[f32; NR] = if cols == NR {
                b_row[..NR].try_into().expect("B panel row is NR wide")
            } else {
                edge[..cols].copy_from_slice(&b_row[..cols]);
                &edge
            };
            for (acc_row, &ai) in acc.iter_mut().zip(a) {
                for (c, &bv) in acc_row.iter_mut().zip(b_row) {
                    *c += ai * bv;
                }
            }
        }
        for (i, acc_row) in acc.iter().enumerate().take(rows) {
            out[i * n + j0..i * n + j0 + cols].copy_from_slice(&acc_row[..cols]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Explicit-intrinsic band kernels behind `#[target_feature]` gates.

    use core::arch::x86_64::*;

    use super::PanelsB;

    /// Tile height of the vector kernels (both halves of the 6 × 16 tile).
    const MR: usize = 6;
    /// Tile width of the vector kernels — two `__m256` lanes per row.
    const NR: usize = 16;

    /// AVX2 6 × 16 band kernel with **unfused** multiply–add — two
    /// `__m256` accumulators per A row, one `vbroadcastss` per A value,
    /// `vmulps` + `vaddps` per step so every accumulation chain is the
    /// same two-operand IEEE sequence as the scalar tile.
    ///
    /// # Safety
    /// The running CPU must support AVX2 (guard with
    /// `is_x86_feature_detected!("avx2")`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_band_avx2(
        a_panel: &[f32],
        b: PanelsB<'_>,
        n: usize,
        rows: usize,
        out: &mut [f32],
    ) {
        // SAFETY: AVX2 is available per this function's contract, which
        // is all `band_avx2` requires.
        unsafe {
            match rows {
                1 => band_avx2::<1>(a_panel, b, n, out),
                2 => band_avx2::<2>(a_panel, b, n, out),
                3 => band_avx2::<3>(a_panel, b, n, out),
                4 => band_avx2::<4>(a_panel, b, n, out),
                5 => band_avx2::<5>(a_panel, b, n, out),
                _ => band_avx2::<MR>(a_panel, b, n, out),
            }
        }
    }

    /// [`gemm_band_avx2`] for a band of exactly `R` live rows: only the
    /// live rows are accumulated, so a short band (a single-observation
    /// product, the last panel of a tall one) does not pay for the full
    /// 6-row tile. Each element's chain is unchanged.
    ///
    /// # Safety
    /// The running CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn band_avx2<const R: usize>(
        a_panel: &[f32],
        b: PanelsB<'_>,
        n: usize,
        out: &mut [f32],
    ) {
        for jp in 0..n.div_ceil(NR) {
            let j0 = jp * NR;
            let cols = NR.min(n - j0);
            // SAFETY: AVX2 is available per this function's contract;
            // `load_b_row` reads and `store_band` writes only the `cols`
            // live values of each row.
            unsafe {
                let mask = lane_mask(cols);
                let mut lo = [_mm256_setzero_ps(); R];
                let mut hi = [_mm256_setzero_ps(); R];
                for (a, b_row) in a_panel.chunks_exact(MR).zip(b.panel(jp)) {
                    let (b_lo, b_hi) = load_b_row(b_row, cols, mask);
                    for ((cl, ch), &ai) in lo.iter_mut().zip(hi.iter_mut()).zip(a) {
                        let av = _mm256_set1_ps(ai);
                        // Unfused on purpose: two roundings, exactly like
                        // the scalar tile, so the levels stay bit-identical.
                        *cl = _mm256_add_ps(_mm256_mul_ps(av, b_lo), *cl);
                        *ch = _mm256_add_ps(_mm256_mul_ps(av, b_hi), *ch);
                    }
                }
                store_band(&lo, &hi, cols, mask, j0, n, out);
            }
        }
    }

    /// AVX2+FMA 6 × 16 band kernel: identical structure to
    /// [`gemm_band_avx2`] but with each step contracted into a
    /// single-rounding `vfmadd231ps` — ULP-bounded, not bit-identical,
    /// hence opt-in.
    ///
    /// # Safety
    /// The running CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_band_fma(
        a_panel: &[f32],
        b: PanelsB<'_>,
        n: usize,
        rows: usize,
        out: &mut [f32],
    ) {
        // SAFETY: AVX2+FMA are available per this function's contract,
        // which is all `band_fma` requires.
        unsafe {
            match rows {
                1 => band_fma::<1>(a_panel, b, n, out),
                2 => band_fma::<2>(a_panel, b, n, out),
                3 => band_fma::<3>(a_panel, b, n, out),
                4 => band_fma::<4>(a_panel, b, n, out),
                5 => band_fma::<5>(a_panel, b, n, out),
                _ => band_fma::<MR>(a_panel, b, n, out),
            }
        }
    }

    /// [`gemm_band_fma`] for a band of exactly `R` live rows (see
    /// [`band_avx2`]).
    ///
    /// # Safety
    /// The running CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn band_fma<const R: usize>(a_panel: &[f32], b: PanelsB<'_>, n: usize, out: &mut [f32]) {
        for jp in 0..n.div_ceil(NR) {
            let j0 = jp * NR;
            let cols = NR.min(n - j0);
            // SAFETY: AVX2+FMA are available per this function's
            // contract; `load_b_row` reads and `store_band` writes only
            // the `cols` live values of each row.
            unsafe {
                let mask = lane_mask(cols);
                let mut lo = [_mm256_setzero_ps(); R];
                let mut hi = [_mm256_setzero_ps(); R];
                for (a, b_row) in a_panel.chunks_exact(MR).zip(b.panel(jp)) {
                    let (b_lo, b_hi) = load_b_row(b_row, cols, mask);
                    for ((cl, ch), &ai) in lo.iter_mut().zip(hi.iter_mut()).zip(a) {
                        let av = _mm256_set1_ps(ai);
                        *cl = _mm256_fmadd_ps(av, b_lo, *cl);
                        *ch = _mm256_fmadd_ps(av, b_hi, *ch);
                    }
                }
                store_band(&lo, &hi, cols, mask, j0, n, out);
            }
        }
    }

    /// `-1` for sixteen lanes, then `0`: eight lanes read from
    /// `LANE_MASK[16 - cols + h..]` enable exactly the lanes of half `h`
    /// (0 or 8) that fall below `cols`.
    static LANE_MASK: [i32; 32] = [
        -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, //
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ];

    /// Load/store masks of the two 8-lane halves of a panel row with
    /// `cols` (`1..=NR`) live columns.
    ///
    /// # Safety
    /// The caller must have AVX2 enabled (every caller is
    /// `#[target_feature]` gated).
    #[inline(always)]
    unsafe fn lane_mask(cols: usize) -> [__m256i; 2] {
        let lo = &LANE_MASK[NR - cols..NR - cols + 8];
        let hi = &LANE_MASK[NR + 8 - cols..NR + 16 - cols];
        // SAFETY: AVX2 is enabled per this function's contract; both
        // slices are exactly 8 `i32`s and `loadu` has no alignment
        // requirement.
        unsafe {
            [
                _mm256_loadu_si256(lo.as_ptr().cast()),
                _mm256_loadu_si256(hi.as_ptr().cast()),
            ]
        }
    }

    /// Loads the first `cols` values of a B panel row as two 8-lane
    /// halves. Lanes at or past `cols` read as zero and their memory is
    /// never touched, so a ragged last panel can be read in place.
    ///
    /// # Safety
    /// The caller must have AVX2 enabled (both callers are
    /// `#[target_feature]` gated) and `mask` must be `lane_mask(cols)`.
    #[inline(always)]
    unsafe fn load_b_row(row: &[f32], cols: usize, mask: [__m256i; 2]) -> (__m256, __m256) {
        let row = &row[..cols];
        let p = row.as_ptr();
        // SAFETY: `row` holds `cols` floats. Full rows load 16 of them;
        // otherwise only the lanes below `cols` are enabled in the masked
        // loads, and a half with no live lane is not loaded at all.
        unsafe {
            if cols == NR {
                (_mm256_loadu_ps(p), _mm256_loadu_ps(p.add(8)))
            } else if cols > 8 {
                (_mm256_loadu_ps(p), _mm256_maskload_ps(p.add(8), mask[1]))
            } else {
                (_mm256_maskload_ps(p, mask[0]), _mm256_setzero_ps())
            }
        }
    }

    /// Writes an `R × cols` accumulator tile (`lo` = columns 0–7, `hi` =
    /// columns 8–15) into the output band at column offset `j0`; a ragged
    /// edge panel stores only its live lanes, under `mask`.
    ///
    /// # Safety
    /// The caller must have AVX2 enabled (both callers are
    /// `#[target_feature]` gated) and `mask` must be `lane_mask(cols)`:
    /// the masked stores trust it to enable no lane past `cols`. The
    /// destination range itself is bounds-checked by slicing.
    #[inline(always)]
    unsafe fn store_band<const R: usize>(
        lo: &[__m256; R],
        hi: &[__m256; R],
        cols: usize,
        mask: [__m256i; 2],
        j0: usize,
        n: usize,
        out: &mut [f32],
    ) {
        for (i, (row_lo, row_hi)) in lo.iter().zip(hi).enumerate() {
            let dst = &mut out[i * n + j0..i * n + j0 + cols];
            let p = dst.as_mut_ptr();
            // SAFETY: `dst` holds `cols` floats. Full rows store 16 of
            // them; otherwise only the lanes below `cols` are enabled in
            // the masked stores, and a half with no live lane is not
            // stored at all.
            unsafe {
                if cols == NR {
                    _mm256_storeu_ps(p, *row_lo);
                    _mm256_storeu_ps(p.add(8), *row_hi);
                } else if cols > 8 {
                    _mm256_storeu_ps(p, *row_lo);
                    _mm256_maskstore_ps(p.add(8), mask[1], *row_hi);
                } else {
                    _mm256_maskstore_ps(p, mask[0], *row_lo);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packs rows `[0, rows)` of a row-major `rows_total × k` matrix into
    /// one MR-padded panel (test-local mirror of the tensor crate's
    /// packing).
    fn pack_a(data: &[f32], k: usize, rows: usize, mr: usize) -> Vec<f32> {
        let mut packed = vec![0.0f32; k * mr];
        for p in 0..k {
            for i in 0..rows {
                packed[p * mr + i] = data[i * k + p];
            }
        }
        packed
    }

    /// Packs a row-major `k × n` matrix into NR-padded panel order.
    fn pack_b(data: &[f32], k: usize, n: usize, nr: usize) -> Vec<f32> {
        let panels = n.div_ceil(nr);
        let mut packed = vec![0.0f32; panels * k * nr];
        for panel in 0..panels {
            let base = panel * nr;
            let live = nr.min(n - base);
            for p in 0..k {
                for j in 0..live {
                    packed[panel * k * nr + p * nr + j] = data[p * n + base + j];
                }
            }
        }
        packed
    }

    fn band_at(level: Level, a: &[f32], b: &[f32], k: usize, n: usize, rows: usize) -> Vec<f32> {
        let (mr, nr) = tile_dims(level);
        assert!(rows <= mr, "test band must fit one panel");
        let a_panel = pack_a(a, k, rows, mr);
        let packed_b = pack_b(b, k, n, nr);
        let mut out = vec![f32::NAN; rows * n];
        gemm_band_at(
            level,
            &a_panel,
            PanelsB::packed(level, &packed_b, k),
            n,
            rows,
            &mut out,
        );
        out
    }

    #[test]
    fn tile_dims_are_wide_where_supported() {
        assert_eq!(tile_dims(Level::Scalar), (4, 8));
        let (mr, nr) = tile_dims(crate::detected_level());
        assert!(mr >= 4 && nr >= 8);
    }

    #[test]
    fn every_level_matches_the_naive_product() {
        let (k, n) = (17, 21); // off the NR edge → partial edge panel
        let a: Vec<f32> = (0..4 * k).map(|i| ((i % 13) as f32) * 0.5 - 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i % 7) as f32) * 0.25 - 0.75).collect();
        for level in [Level::Scalar, Level::Avx2, Level::Fma] {
            let rows = tile_dims(level).0.min(4);
            let got = band_at(level, &a, &b, k, n, rows);
            for i in 0..rows {
                for j in 0..n {
                    let naive: f32 = (0..k).map(|p| a[i * k + p] * b[p * n + j]).sum();
                    let g = got[i * n + j];
                    assert!(
                        (g - naive).abs() <= 1e-4 * naive.abs().max(1.0),
                        "{level:?} ({i},{j}): {g} vs {naive}"
                    );
                }
            }
        }
    }

    #[test]
    fn scalar_and_avx2_bands_are_bit_identical() {
        let (k, n) = (33, 19);
        let a: Vec<f32> = (0..4 * k)
            .map(|i| (((i * 31) % 101) as f32) * 0.173 - 8.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| (((i * 17) % 89) as f32) * 0.211 - 9.0)
            .collect();
        let scalar = band_at(Level::Scalar, &a, &b, k, n, 4);
        let avx2 = band_at(Level::Avx2, &a, &b, k, n, 4);
        let sb: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
        let ab: Vec<u32> = avx2.iter().map(|v| v.to_bits()).collect();
        assert_eq!(sb, ab, "scalar vs avx2 band bits");
    }

    #[test]
    fn row_major_b_in_place_matches_packed_b_bit_for_bit() {
        // Widths below, on and past one panel of either tile, ragged last
        // panels included; the in-place read stops at each row's live
        // columns, so `b` holds exactly `k × n` values.
        let k = 9;
        for n in [1, 5, 8, 15, 16, 17, 40] {
            let a: Vec<f32> = (0..4 * k).map(|i| ((i % 11) as f32) * 0.3 - 1.4).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i % 13) as f32) * 0.2 - 1.1).collect();
            for level in [Level::Scalar, Level::Avx2, Level::Fma] {
                let (mr, nr) = tile_dims(level);
                for rows in 1..=mr.min(4) {
                    let a_panel = pack_a(&a, k, rows, mr);
                    let packed_b = pack_b(&b, k, n, nr);
                    let mut packed = vec![f32::NAN; rows * n];
                    let b_packed = PanelsB::packed(level, &packed_b, k);
                    gemm_band_at(level, &a_panel, b_packed, n, rows, &mut packed);
                    let mut in_place = vec![f32::NAN; rows * n];
                    let b_in_place = PanelsB::row_major(level, &b, n);
                    gemm_band_at(level, &a_panel, b_in_place, n, rows, &mut in_place);
                    let pb: Vec<u32> = packed.iter().map(|v| v.to_bits()).collect();
                    let ib: Vec<u32> = in_place.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(pb, ib, "{level:?} n={n} rows={rows}");
                    assert!(packed.iter().all(|v| v.is_finite()), "{level:?} n={n}");
                }
            }
        }
    }
}
