//! Kernel-dispatch equivalence: the default SIMD GEMM and activation
//! paths must agree **bitwise** with the scalar path on every shape,
//! sparsity pattern and row length — the contract that lets
//! `ADAPTRAJ_FORCE_SCALAR=1` reproduce the goldens (see
//! `crates/tensor/src/kernels.rs` module docs for the IEEE lane-wise
//! argument and the activations' scalar twins).
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

/// `C = A₁·B₁; C += A₂·B₂` over a K split at `k1` — the accumulate-into-
/// `out` entry `Tape::lstm_cell` uses for `[x | h]·W` — against one
/// `A·B` call, on `kernel`.
fn split_k_matches_full_product(
    kernel: Kernel,
    a: &Tensor,
    b: &Tensor,
    k1: usize,
) -> Result<(), String> {
    let (n, k) = a.shape();
    let m = b.shape().1;
    let full = a.matmul_with(b, kernel);
    let (a1, a2) = (a.slice_cols(0, k1), a.slice_cols(k1, k));
    let (b1, b2) = b.data().split_at(k1 * m);
    let mut out = vec![0.0; n * m];
    kernels::gemm_nn(kernel, a1.data(), b1, &mut out, n, k1, m);
    kernels::gemm_nn(kernel, a2.data(), b2, &mut out, n, k - k1, m);
    let split: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
    if split != bits(&full) {
        return Err(format!(
            "{}: split-K at {k1} drifted from A·B ({n},{k},{m})",
            kernel.name()
        ));
    }
    Ok(())
}

#[test]
fn split_k_accumulation_matches_one_product_bitwise() {
    let mut kernels_here = vec![Kernel::Scalar];
    if kernels::simd_available() {
        kernels_here.push(Kernel::Simd);
    }
    check("kernel-equivalence-split-k", 150, |g| {
        let n = g.int_in(0, 5 * g.size);
        let k = g.int_in(0, 5 * g.size);
        let m = g.int_in(0, 5 * g.size);
        let k1 = g.int_in(0, k);
        let zero_pct = g.int_in(0, 100);
        let a = sparse_tensor(g, n, k, zero_pct);
        let b = g.tensor(k, m);
        for &kernel in &kernels_here {
            split_k_matches_full_product(kernel, &a, &b, k1)?;
        }
        Ok(())
    });
}

/// A row of `len` inputs spanning every branch of the activation
/// kernels: the tanh polynomial (|x| ≤ 0.625), its exp form, exp's clamp
/// (beyond ±100) and signed zeros.
fn activation_inputs(g: &mut Gen, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match g.rng().below(4) {
            0 => g.rng().uniform(-0.7, 0.7),
            1 => g.rng().uniform(-120.0, 120.0),
            2 => g.value(),
            _ => [0.0, -0.0][g.rng().below(2)],
        })
        .collect()
}

#[test]
fn activation_kernels_agree_bitwise_at_every_row_length() {
    if !kernels::simd_available() {
        eprintln!("skipping: AVX2 unavailable on this host");
        return;
    }
    type RowKernel = fn(Kernel, &mut [f32]);
    let activations: [(&str, RowKernel); 3] = [
        ("exp", kernels::exp),
        ("sigmoid", kernels::sigmoid),
        ("tanh", kernels::tanh),
    ];
    check("kernel-equivalence-activations", 200, |g| {
        // Up to 40 lanes: empty rows, rows shorter than 8, and 8-lane
        // bodies with every tail length.
        let len = g.int_in(0, 5 * g.size);
        let xs = activation_inputs(g, len);
        for (name, f) in activations {
            let (mut s, mut v) = (xs.clone(), xs.clone());
            f(Kernel::Scalar, &mut s);
            f(Kernel::Simd, &mut v);
            let sb: Vec<u32> = s.iter().map(|v| v.to_bits()).collect();
            let vb: Vec<u32> = v.iter().map(|v| v.to_bits()).collect();
            if sb != vb {
                return Err(format!("{name}: scalar/simd diverge at len {len}: {xs:?}"));
            }
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
