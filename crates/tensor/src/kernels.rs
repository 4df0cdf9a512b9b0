//! GEMM microkernels and runtime dispatch for the three matmul kernels.
//!
//! Every forward/backward in the workspace bottoms out in the three
//! ikj/axpy kernels (`matmul` NN, `matmul_nt`, `matmul_tn` — see
//! [`crate::tensor::Tensor`]). Until PR 10 they relied entirely on LLVM's
//! autovectorizer at the x86-64 baseline feature level (SSE2). This module
//! adds an explicit `std::arch` AVX2 microkernel with runtime dispatch.
//!
//! # The accumulation-order contract
//!
//! Both kernels in this module honor the contract pinned by the
//! golden-regression gate: *each output element accumulates its k-terms in
//! ascending order, skipping terms whose left-operand factor is exactly
//! zero, with separate mul and add roundings*. The SIMD path vectorizes
//! across the m (output-column) axis only — 8 output elements advance
//! through the same ascending-k sequence in lockstep, and IEEE-754
//! `vmulps`/`vaddps` are lane-wise identical to scalar `*`/`+` — so its
//! results are **bit-identical** to the scalar kernel for every input,
//! including non-finite values. Register blocking (4 output rows × up to 32
//! output columns held in ymm accumulators across the whole k loop) changes
//! only *when* partial sums touch memory, never the per-element operation
//! sequence.
//!
//! # Dispatch
//!
//! The kernel is chosen once per process (cached in an atomic):
//! `ADAPTRAJ_FORCE_SCALAR=1` forces the scalar path (tier-1 CI runs a full
//! forced-scalar pass to pin scalar/SIMD agreement end to end); otherwise
//! AVX2 detected → `simd`, else `scalar`.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which microkernel family services the matmul entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The PR-5 autovectorized loops, bit-for-bit the historical kernels.
    Scalar,
    /// Explicit AVX2, mul+add (separate roundings) — bit-identical to
    /// `Scalar` by the lane-wise IEEE argument above.
    Simd,
}

impl Kernel {
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Simd => "simd",
        }
    }
}

const KERNEL_UNSET: u8 = u8::MAX;
static ACTIVE_KERNEL: AtomicU8 = AtomicU8::new(KERNEL_UNSET);

fn kernel_from_u8(v: u8) -> Kernel {
    match v {
        0 => Kernel::Scalar,
        _ => Kernel::Simd,
    }
}

fn kernel_to_u8(k: Kernel) -> u8 {
    match k {
        Kernel::Scalar => 0,
        Kernel::Simd => 1,
    }
}

/// True when this build/CPU can run the AVX2 paths.
pub fn simd_available() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    {
        false
    }
}

/// Resolves `ADAPTRAJ_FORCE_SCALAR` against CPU capabilities. Pure so the
/// selection rule is unit-testable.
pub fn resolve_kernel(force_scalar: bool, simd_ok: bool) -> Kernel {
    if simd_ok && !force_scalar {
        Kernel::Simd
    } else {
        Kernel::Scalar
    }
}

fn init_kernel_from_env() -> Kernel {
    let force_scalar = std::env::var("ADAPTRAJ_FORCE_SCALAR")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false);
    let k = resolve_kernel(force_scalar, simd_available());
    ACTIVE_KERNEL.store(kernel_to_u8(k), Ordering::Relaxed);
    k
}

/// The kernel servicing `Tensor::matmul` / `matmul_nt` / `matmul_tn`.
/// Resolved from the environment + CPU on first use and cached.
pub fn active_kernel() -> Kernel {
    match ACTIVE_KERNEL.load(Ordering::Relaxed) {
        KERNEL_UNSET => init_kernel_from_env(),
        v => kernel_from_u8(v),
    }
}

// ---- kernel entry points -------------------------------------------------

/// `out[n,m] += a[n,k] · b[k,m]` with `out` zero-initialized by the
/// caller. Row-major everywhere.
pub fn gemm_nn(
    kernel: Kernel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    debug_assert_eq!(a.len(), n * k);
    debug_assert_eq!(b.len(), k * m);
    debug_assert_eq!(out.len(), n * m);
    run_rows(kernel, a, k, 1, b, out, n, k, m);
}

/// `out[n,m] += a[k,n]ᵀ · b[k,m]` — the TN product, a read with stride `n`
/// down `a`'s columns. Same contract as [`gemm_nn`].
pub fn gemm_tn(
    kernel: Kernel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    n: usize,
    m: usize,
) {
    debug_assert_eq!(a.len(), k * n);
    debug_assert_eq!(b.len(), k * m);
    debug_assert_eq!(out.len(), n * m);
    run_rows(kernel, a, 1, n, b, out, n, k, m);
}

/// Computes all `n` output rows into `out`. `a` is addressed as
/// `a[i*as0 + p*as1]`: `(k, 1)` for the NN product, `(1, n)` for TN — the
/// only difference between the two.
#[allow(clippy::too_many_arguments)]
fn run_rows(
    kernel: Kernel,
    a: &[f32],
    as0: usize,
    as1: usize,
    b: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if kernel == Kernel::Simd {
        // SAFETY: dispatch only selects `Simd` when AVX2 was detected.
        return unsafe { simd_impls::gemm_rows_avx2(a, as0, as1, b, out, n, k, m) };
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    let _ = kernel;
    if as1 == 1 {
        scalar_rows_nn(a, b, out, n, k, m);
    } else {
        scalar_rows_tn(a, as1, b, out, k, m);
    }
}

/// The historical ikj loop (`Tensor::matmul` pre-PR-10). Per output
/// element: k ascending, skip on `a == 0.0`, separate mul+add into the
/// memory accumulator — the reference the SIMD path must match bit for
/// bit.
fn scalar_rows_nn(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    for i in 0..n {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * m..(i + 1) * m];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * m..(p + 1) * m];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// The historical p-outer TN loop (`Tensor::matmul_tn` pre-PR-10): both
/// `a` row `p` and `b` row `p` stream contiguously; each of the `n`
/// output rows accumulates an axpy of `b`'s row. Identical per-element
/// term order to [`scalar_rows_nn`] (k ascending, zero-skip, separate
/// mul+add), just a different loop nest.
fn scalar_rows_tn(a: &[f32], n: usize, b: &[f32], out: &mut [f32], k: usize, m: usize) {
    for p in 0..k {
        let a_row = &a[p * n..(p + 1) * n];
        let b_row = &b[p * m..(p + 1) * m];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = &mut out[i * m..(i + 1) * m];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod simd_impls {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// The AVX2 microkernel, separate mul+add (bit-identical to scalar).
    /// Structure:
    ///
    /// - 4 output rows × 2 ymm (16 columns) register block in the main loop:
    ///   accumulators live in registers across the entire ascending-k sweep,
    ///   b-row loads are shared by the 4 rows, and the zero-skip is applied
    ///   per (row, k) exactly like the scalar kernel;
    /// - 1 row × up to 4 ymm (32 columns) for leftover rows;
    /// - 8-wide then scalar column tails, each with a private accumulator that
    ///   performs the same op sequence as the scalar loop.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `a` must hold every `a[i*as0 + p*as1]`
    /// for `i < n`, `p < k`, and `b`/`out` must hold `k*m`/`n*m` elements.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn gemm_rows_avx2(
        a: &[f32],
        as0: usize,
        as1: usize,
        b: &[f32],
        out: &mut [f32],
        n: usize,
        k: usize,
        m: usize,
    ) {
        // madd(acc, a, b): acc ⊕ a·b with separate roundings.
        let madd = |acc, a, b| _mm256_add_ps(acc, _mm256_mul_ps(a, b));

        let bp = b.as_ptr();
        let ap = a.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        // ---- 4-row register block over 16-column panels ----
        while i + 4 <= n {
            let arow = |r: usize, p: usize| *ap.add((i + r) * as0 + p * as1);
            let orow = |r: usize| op.add((i + r) * m);
            let mut j = 0;
            while j + 16 <= m {
                let mut c00 = _mm256_setzero_ps();
                let mut c01 = _mm256_setzero_ps();
                let mut c10 = _mm256_setzero_ps();
                let mut c11 = _mm256_setzero_ps();
                let mut c20 = _mm256_setzero_ps();
                let mut c21 = _mm256_setzero_ps();
                let mut c30 = _mm256_setzero_ps();
                let mut c31 = _mm256_setzero_ps();
                for p in 0..k {
                    let b0 = _mm256_loadu_ps(bp.add(p * m + j));
                    let b1 = _mm256_loadu_ps(bp.add(p * m + j + 8));
                    let a0 = arow(0, p);
                    if a0 != 0.0 {
                        let v = _mm256_set1_ps(a0);
                        c00 = madd(c00, v, b0);
                        c01 = madd(c01, v, b1);
                    }
                    let a1 = arow(1, p);
                    if a1 != 0.0 {
                        let v = _mm256_set1_ps(a1);
                        c10 = madd(c10, v, b0);
                        c11 = madd(c11, v, b1);
                    }
                    let a2 = arow(2, p);
                    if a2 != 0.0 {
                        let v = _mm256_set1_ps(a2);
                        c20 = madd(c20, v, b0);
                        c21 = madd(c21, v, b1);
                    }
                    let a3 = arow(3, p);
                    if a3 != 0.0 {
                        let v = _mm256_set1_ps(a3);
                        c30 = madd(c30, v, b0);
                        c31 = madd(c31, v, b1);
                    }
                }
                _mm256_storeu_ps(orow(0).add(j), c00);
                _mm256_storeu_ps(orow(0).add(j + 8), c01);
                _mm256_storeu_ps(orow(1).add(j), c10);
                _mm256_storeu_ps(orow(1).add(j + 8), c11);
                _mm256_storeu_ps(orow(2).add(j), c20);
                _mm256_storeu_ps(orow(2).add(j + 8), c21);
                _mm256_storeu_ps(orow(3).add(j), c30);
                _mm256_storeu_ps(orow(3).add(j + 8), c31);
                j += 16;
            }
            // 8-wide panel shared by the 4 rows.
            while j + 8 <= m {
                let mut c0 = _mm256_setzero_ps();
                let mut c1 = _mm256_setzero_ps();
                let mut c2 = _mm256_setzero_ps();
                let mut c3 = _mm256_setzero_ps();
                for p in 0..k {
                    let b0 = _mm256_loadu_ps(bp.add(p * m + j));
                    let a0 = arow(0, p);
                    if a0 != 0.0 {
                        c0 = madd(c0, _mm256_set1_ps(a0), b0);
                    }
                    let a1 = arow(1, p);
                    if a1 != 0.0 {
                        c1 = madd(c1, _mm256_set1_ps(a1), b0);
                    }
                    let a2 = arow(2, p);
                    if a2 != 0.0 {
                        c2 = madd(c2, _mm256_set1_ps(a2), b0);
                    }
                    let a3 = arow(3, p);
                    if a3 != 0.0 {
                        c3 = madd(c3, _mm256_set1_ps(a3), b0);
                    }
                }
                _mm256_storeu_ps(orow(0).add(j), c0);
                _mm256_storeu_ps(orow(1).add(j), c1);
                _mm256_storeu_ps(orow(2).add(j), c2);
                _mm256_storeu_ps(orow(3).add(j), c3);
                j += 8;
            }
            // Scalar column tail, 4 rows.
            while j < m {
                for r in 0..4 {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        let av = arow(r, p);
                        if av == 0.0 {
                            continue;
                        }
                        acc += av * *bp.add(p * m + j);
                    }
                    *orow(r).add(j) = acc;
                }
                j += 1;
            }
            i += 4;
        }
        // ---- leftover rows, one at a time ----
        while i < n {
            let aval = |p: usize| *ap.add(i * as0 + p * as1);
            let out_row = op.add(i * m);
            let mut j = 0;
            while j + 32 <= m {
                let mut c0 = _mm256_setzero_ps();
                let mut c1 = _mm256_setzero_ps();
                let mut c2 = _mm256_setzero_ps();
                let mut c3 = _mm256_setzero_ps();
                for p in 0..k {
                    let av = aval(p);
                    if av == 0.0 {
                        continue;
                    }
                    let v = _mm256_set1_ps(av);
                    let bj = bp.add(p * m + j);
                    c0 = madd(c0, v, _mm256_loadu_ps(bj));
                    c1 = madd(c1, v, _mm256_loadu_ps(bj.add(8)));
                    c2 = madd(c2, v, _mm256_loadu_ps(bj.add(16)));
                    c3 = madd(c3, v, _mm256_loadu_ps(bj.add(24)));
                }
                _mm256_storeu_ps(out_row.add(j), c0);
                _mm256_storeu_ps(out_row.add(j + 8), c1);
                _mm256_storeu_ps(out_row.add(j + 16), c2);
                _mm256_storeu_ps(out_row.add(j + 24), c3);
                j += 32;
            }
            while j + 8 <= m {
                let mut c0 = _mm256_setzero_ps();
                for p in 0..k {
                    let av = aval(p);
                    if av == 0.0 {
                        continue;
                    }
                    c0 = madd(c0, _mm256_set1_ps(av), _mm256_loadu_ps(bp.add(p * m + j)));
                }
                _mm256_storeu_ps(out_row.add(j), c0);
                j += 8;
            }
            while j < m {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let av = aval(p);
                    if av == 0.0 {
                        continue;
                    }
                    acc += av * *bp.add(p * m + j);
                }
                *out_row.add(j) = acc;
                j += 1;
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::tensor::Tensor;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn resolve_kernel_env_matrix() {
        use Kernel::*;
        assert_eq!(resolve_kernel(true, true), Scalar);
        assert_eq!(resolve_kernel(false, true), Simd);
        assert_eq!(resolve_kernel(false, false), Scalar);
        assert_eq!(resolve_kernel(true, false), Scalar);
    }

    #[test]
    fn simd_paths_match_scalar_bitwise_on_awkward_shapes() {
        if !simd_available() {
            return;
        }
        let mut rng = Rng::seed_from(99);
        // Shapes chosen to hit every panel: 4-row blocks, leftover rows,
        // 32/16/8-wide column panels, scalar tails, k=0, m=0, n=1.
        for &(n, k, m) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 3),
            (4, 16, 16),
            (5, 48, 128),
            (9, 80, 33),
            (3, 2, 70),
            (6, 5, 8),
            (2, 0, 4),
            (0, 3, 4),
            (4, 3, 0),
            (13, 31, 37),
        ] {
            let mut a = Tensor::randn(n, k, 0.0, 1.0, &mut rng);
            let b = Tensor::randn(k, m, 0.0, 1.0, &mut rng);
            // Plant exact zeros so the zero-skip contract is exercised.
            for (idx, v) in a.data_mut().iter_mut().enumerate() {
                if idx % 3 == 0 {
                    *v = 0.0;
                }
            }
            let scalar_nn = a.matmul_with(&b, Kernel::Scalar);
            let simd_nn = a.matmul_with(&b, Kernel::Simd);
            assert_eq!(bits(&scalar_nn), bits(&simd_nn), "NN ({n},{k},{m})");

            let at = a.transpose();
            let scalar_tn = at.matmul_tn_with(&b, Kernel::Scalar);
            let simd_tn = at.matmul_tn_with(&b, Kernel::Simd);
            assert_eq!(bits(&scalar_tn), bits(&simd_tn), "TN ({n},{k},{m})");
            assert_eq!(bits(&scalar_nn), bits(&scalar_tn), "NN vs TN ({n},{k},{m})");

            let bt = b.transpose();
            let scalar_nt = a.matmul_nt_with(&bt, Kernel::Scalar);
            let simd_nt = a.matmul_nt_with(&bt, Kernel::Simd);
            assert_eq!(bits(&scalar_nt), bits(&simd_nt), "NT ({n},{k},{m})");
        }
    }
}
