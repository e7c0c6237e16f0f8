//! Property-based checks of the packed, data-parallel GEMM: every transpose
//! variant, at 1, 2 and N worker threads, over sizes that straddle the
//! MR/NR panel boundaries, the single-row-panel boundary and the
//! threaded-split cutoff (`tensor::PARALLEL_MIN_MACS`), must match a naive
//! triple-loop reference to 1e-4 and never change bits with the thread
//! count.

use proptest::prelude::*;
use tensor::rng::SeededRng;
use tensor::Tensor;

/// Naive reference: `op(A) (m×k) · op(B) (k×n)` with explicit index math.
fn naive_gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &Tensor,
    a_trans: bool,
    b: &Tensor,
    b_trans: bool,
) -> Vec<f32> {
    let ad = a.as_slice();
    let bd = b.as_slice();
    let mut out = vec![0.0f64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                let av = if a_trans {
                    ad[p * m + i]
                } else {
                    ad[i * k + p]
                };
                let bv = if b_trans {
                    bd[j * k + p]
                } else {
                    bd[p * n + j]
                };
                acc += f64::from(av) * f64::from(bv);
            }
            out[i * n + j] = acc;
        }
    }
    out.into_iter().map(|v| v as f32).collect()
}

fn assert_matches_naive(
    got: &Tensor,
    m: usize,
    n: usize,
    expect: &[f32],
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(
        got.shape().dims() == [m, n],
        "{label} shape {:?}",
        got.shape().dims()
    );
    for (idx, (g, e)) in got.as_slice().iter().zip(expect).enumerate() {
        prop_assert!(
            (g - e).abs() < 1e-4 * e.abs().max(1.0),
            "{label}[{idx}]: {g} vs naive {e}"
        );
    }
    Ok(())
}

/// Small sizes straddling the microkernel panel boundaries, one-panel and
/// multi-panel alike; at most 39³ ≈ 59k multiply-adds, far below the split
/// cutoff, so every panel runs on the calling thread.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..40, 1usize..40, 1usize..40)
}

/// Heights from one row to four panels, straddling the single-row-panel
/// boundary (`m ≤ MR`) at both tile heights (4 and 6), against a B that is
/// several `NR` panels wide with a ragged last panel.
fn dims_packed() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..24, 48usize..80, 48usize..128)
}

/// Sizes within a few rows of the split cutoff, from both sides: the
/// serial panel loop and the threaded split must produce the same bits.
fn dims_split() -> impl Strategy<Value = (usize, usize, usize)> {
    (48usize..80, 48usize..128, 0usize..8).prop_map(|(k, n, off)| {
        let m = tensor::PARALLEL_MIN_MACS / (k * n) + off - 3;
        (m, k, n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_gemm_matches_naive_for_all_variants_and_thread_counts(
        (m, k, n) in dims(),
        seed in 0u64..10_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = rng.uniform_tensor(&[m, k], -2.0, 2.0);
        let b = rng.uniform_tensor(&[k, n], -2.0, 2.0);
        let a_t = rng.uniform_tensor(&[k, m], -2.0, 2.0);
        let b_t = rng.uniform_tensor(&[n, k], -2.0, 2.0);

        let nn = naive_gemm(m, k, n, &a, false, &b, false);
        let tn = naive_gemm(m, k, n, &a_t, true, &b, false);
        let nt = naive_gemm(m, k, n, &a, false, &b_t, true);

        for threads in [1usize, 2, 5] {
            let (got_nn, got_tn, got_nt) = parallel::with_threads(threads, || {
                (
                    a.matmul(&b).unwrap(),
                    a_t.matmul_tn(&b).unwrap(),
                    a.matmul_nt(&b_t).unwrap(),
                )
            });
            assert_matches_naive(&got_nn, m, n, &nn, "matmul")?;
            assert_matches_naive(&got_tn, m, n, &tn, "matmul_tn")?;
            assert_matches_naive(&got_nt, m, n, &nt, "matmul_nt")?;
        }
    }

    #[test]
    fn packed_kernel_matches_naive_for_all_variants_and_thread_counts(
        (m, k, n) in dims_packed(),
        seed in 0u64..10_000,
    ) {
        let mut rng = SeededRng::new(seed.wrapping_add(50_000));
        let a = rng.uniform_tensor(&[m, k], -2.0, 2.0);
        let b = rng.uniform_tensor(&[k, n], -2.0, 2.0);
        let a_t = rng.uniform_tensor(&[k, m], -2.0, 2.0);
        let b_t = rng.uniform_tensor(&[n, k], -2.0, 2.0);

        let nn = naive_gemm(m, k, n, &a, false, &b, false);
        let tn = naive_gemm(m, k, n, &a_t, true, &b, false);
        let nt = naive_gemm(m, k, n, &a, false, &b_t, true);

        for threads in [1usize, 2, 5] {
            let (got_nn, got_tn, got_nt) = parallel::with_threads(threads, || {
                (
                    a.matmul(&b).unwrap(),
                    a_t.matmul_tn(&b).unwrap(),
                    a.matmul_nt(&b_t).unwrap(),
                )
            });
            assert_matches_naive(&got_nn, m, n, &nn, "matmul")?;
            assert_matches_naive(&got_tn, m, n, &tn, "matmul_tn")?;
            assert_matches_naive(&got_nt, m, n, &nt, "matmul_nt")?;
        }
    }

    #[test]
    fn thread_count_never_changes_the_bits(
        (m, k, n) in dims_split(),
        seed in 0u64..10_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = rng.uniform_tensor(&[m, k], -2.0, 2.0);
        let b = rng.uniform_tensor(&[k, n], -2.0, 2.0);
        let single = parallel::with_threads(1, || a.matmul(&b).unwrap());
        for threads in [2usize, 3, 8] {
            let multi = parallel::with_threads(threads, || a.matmul(&b).unwrap());
            prop_assert!(single == multi, "threads={threads}");
        }
    }

    #[test]
    fn rank1_column_rule_matches_explicit_reshape(
        m in 1usize..20,
        k in 2usize..20,
        seed in 0u64..10_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = rng.uniform_tensor(&[m, k], -2.0, 2.0);
        let v = rng.uniform_tensor(&[k], -2.0, 2.0);
        let implicit = a.matmul(&v).unwrap();
        let explicit = a.matmul(&v.reshape(&[k, 1]).unwrap()).unwrap();
        prop_assert_eq!(implicit, explicit);
    }
}

/// Sizes chosen to land exactly on, one short of, and one past the panel
/// edges for every tile configuration the kernel ships with (MR 4 and 6,
/// NR 8 and 16), including one-row products and B widths below one
/// panel.
#[test]
fn exhaustive_panel_boundary_sweep() {
    for &m in &[1, 3, 4, 5, 6, 7, 8, 12, 13, 16, 17] {
        for &k in &[1, 2, 64, 65] {
            for &n in &[1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 65, 128, 129] {
                let mut rng = SeededRng::new((m * 10_000 + k * 100 + n) as u64);
                let a = rng.uniform_tensor(&[m, k], -1.0, 1.0);
                let b = rng.uniform_tensor(&[k, n], -1.0, 1.0);
                let got = a.matmul(&b).unwrap();
                let expect = naive_gemm(m, k, n, &a, false, &b, false);
                for (idx, (g, e)) in got.as_slice().iter().zip(&expect).enumerate() {
                    assert!(
                        (g - e).abs() < 1e-4 * e.abs().max(1.0),
                        "({m}x{k}x{n})[{idx}]: {g} vs {e}"
                    );
                }
            }
        }
    }
}
