//! Kernel-dispatch equivalence: the default SIMD GEMM path must agree
//! **bitwise** with the scalar path on every shape and sparsity pattern —
//! the contract that lets PR 10 ship explicit AVX2 microkernels without
//! touching a single golden baseline (see `crates/tensor/src/kernels.rs`
//! module docs for the IEEE lane-wise argument).
//!
//! Randomized through the offline `adaptraj_check::prop` harness; degenerate
//! shapes (k=0, m=0, single row, all-zero `a`) get dedicated deterministic
//! cases on top because a uniform draw visits them rarely.
//!
//! These tests force kernels per call via `matmul_with` — the process-wide
//! dispatch is never flipped, so they are safe to run concurrently with
//! every other test in this binary.

use adaptraj_check::prop::{check, Gen};
use adaptraj_tensor::{kernels, Kernel, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A tensor where roughly `zero_pct`% of entries are exactly 0.0, so the
/// zero-skip branch (skip k-terms whose left factor is zero) is exercised
/// at every density from dense to empty.
fn sparse_tensor(g: &mut Gen, rows: usize, cols: usize, zero_pct: usize) -> Tensor {
    let mut t = g.tensor(rows, cols);
    for v in t.data_mut() {
        if g.rng().below(100) < zero_pct {
            *v = 0.0;
        }
    }
    t
}

fn check_all_products(a: &Tensor, b: &Tensor, label: &str) -> Result<(), String> {
    let (n, k) = a.shape();
    let m = b.shape().1;
    let nn_s = a.matmul_with(b, Kernel::Scalar);
    let nn_v = a.matmul_with(b, Kernel::Simd);
    if bits(&nn_s) != bits(&nn_v) {
        return Err(format!("{label}: NN scalar/simd diverge ({n},{k},{m})"));
    }
    let at = a.transpose();
    let tn_s = at.matmul_tn_with(b, Kernel::Scalar);
    let tn_v = at.matmul_tn_with(b, Kernel::Simd);
    if bits(&tn_s) != bits(&tn_v) {
        return Err(format!("{label}: TN scalar/simd diverge ({n},{k},{m})"));
    }
    if bits(&nn_s) != bits(&tn_s) {
        return Err(format!(
            "{label}: TN composition drifted from NN ({n},{k},{m})"
        ));
    }
    let bt = b.transpose();
    let nt_s = a.matmul_nt_with(&bt, Kernel::Scalar);
    let nt_v = a.matmul_nt_with(&bt, Kernel::Simd);
    if bits(&nt_s) != bits(&nt_v) {
        return Err(format!("{label}: NT scalar/simd diverge ({n},{k},{m})"));
    }
    if bits(&nn_s) != bits(&nt_s) {
        return Err(format!(
            "{label}: NT composition drifted from NN ({n},{k},{m})"
        ));
    }
    Ok(())
}

#[test]
fn scalar_and_simd_agree_bitwise_on_random_shapes() {
    if !kernels::simd_available() {
        eprintln!("skipping: AVX2 unavailable on this host");
        return;
    }
    check("kernel-equivalence-random", 150, |g| {
        // Dimensions up to 5×MAX_SIZE so the 16-column register panels,
        // the 8-wide tail, and the scalar tail all get hit; 0 included.
        let n = g.int_in(0, 5 * g.size);
        let k = g.int_in(0, 5 * g.size);
        let m = g.int_in(0, 5 * g.size);
        let zero_pct = g.int_in(0, 100);
        let a = sparse_tensor(g, n, k, zero_pct);
        let b = g.tensor(k, m);
        check_all_products(&a, &b, "random")
    });
}

#[test]
fn scalar_and_simd_agree_bitwise_on_degenerate_shapes() {
    if !kernels::simd_available() {
        eprintln!("skipping: AVX2 unavailable on this host");
        return;
    }
    check("kernel-equivalence-degenerate", 40, |g| {
        // k=0 (empty inner dim: output must stay exactly zero), m=0
        // (empty output rows), n=1 (single-row path), n=0, and an a that
        // is entirely zeros (every k-term skipped).
        let d = 1 + 3 * g.size;
        for (n, k, m, zero_pct) in [
            (d, 0, d, 0),
            (0, d, d, 0),
            (d, d, 0, 0),
            (1, d, d, 30),
            (d, 1, 1, 0),
            (d, d, d, 100),
        ] {
            let a = sparse_tensor(g, n, k, zero_pct);
            let b = g.tensor(k, m);
            check_all_products(&a, &b, "degenerate")?;
        }
        Ok(())
    });
}

#[test]
fn active_kernel_resolves_and_is_stable() {
    // Whatever the environment selected, repeated reads must agree (the
    // dispatch is cached) and the choice must be runnable on this host.
    let k = kernels::active_kernel();
    assert_eq!(k, kernels::active_kernel());
    match k {
        Kernel::Scalar => {}
        Kernel::Simd => assert!(kernels::simd_available()),
    }
}
