//! GEMM microkernels, activation row kernels, and the runtime dispatch
//! they share.
//!
//! Every forward/backward in the workspace bottoms out in the three
//! ikj/axpy kernels (`matmul` NN, `matmul_nt`, `matmul_tn` — see
//! [`crate::tensor::Tensor`]), and every `exp`, `tanh` and sigmoid the tape
//! computes (the standalone ops, `fused_affine`'s tanh, `lstm_cell`'s gates
//! and cell, `softmax_rows`) runs through [`exp`], [`tanh`] or
//! [`sigmoid`] here. Each has a scalar body and an explicit `std::arch`
//! AVX2 body, picked by one runtime dispatch.
//!
//! # The accumulation-order contract
//!
//! Both GEMM kernels honor the contract pinned by the golden-regression
//! gate: *each output element accumulates its k-terms in ascending order,
//! starting from its value in `out`, skipping terms whose left-operand
//! factor is exactly zero, with separate mul and add roundings*. The SIMD
//! path vectorizes across the m (output-column) axis only — 8 output
//! elements advance through the same ascending-k sequence in lockstep, and
//! IEEE-754 `vmulps`/`vaddps` are lane-wise identical to scalar `*`/`+` —
//! so its results are **bit-identical** to the scalar kernel for every
//! input, including non-finite values. Register blocking (4 output rows ×
//! up to 32 output columns held in ymm accumulators across the whole k
//! loop) changes only *when* partial sums touch memory, never the
//! per-element operation sequence.
//!
//! # The activations' scalar twins
//!
//! The activations are polynomial, not libm: exp is Cody–Waite range
//! reduction to `|r| ≤ ln2/2` and a degree-7 polynomial; sigmoid is
//! `1/(1 + e⁻ˣ)` on it; tanh is an odd polynomial below `|x| = 0.625` and
//! `1 − 2/(e²ˣ + 1)` above. Each AVX2 body is the 8-lane form of a scalar
//! twin (`exp1`, `sigmoid1`, `tanh1`): the same constants, the same
//! IEEE operations in the same order (mul and add separate, no FMA), the
//! same round-to-nearest-even trick, and the same clamp and branch, taken
//! per lane by a compare and blend. So the two are bit-identical by the
//! same lane-wise argument as the GEMMs, and the scalar twin also finishes
//! every row's `len % 8` tail. The tests print the max-ulp table against
//! f64 (about 1 ulp for exp and tanh, 2 for sigmoid).
//!
//! # Dispatch
//!
//! The kernel is chosen once per process (cached in an atomic):
//! `ADAPTRAJ_FORCE_SCALAR=1` forces the scalar path for GEMMs and
//! activations alike (tier-1 CI runs a full forced-scalar pass to pin
//! scalar/SIMD agreement end to end); otherwise AVX2 detected → `simd`,
//! else `scalar`.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which microkernel family services the GEMM and activation entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The scalar loops: the historical autovectorized GEMMs and the
    /// activations' scalar twins.
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

/// The kernel servicing the matmuls and the tape's activations.
/// Resolved from the environment + CPU on first use and cached.
pub fn active_kernel() -> Kernel {
    match ACTIVE_KERNEL.load(Ordering::Relaxed) {
        KERNEL_UNSET => init_kernel_from_env(),
        v => kernel_from_u8(v),
    }
}

// ---- kernel entry points -------------------------------------------------

/// `out[n,m] += a[n,k] · b[k,m]`, row-major everywhere. Each output
/// element continues from its value in `out`, so a zero-initialized `out`
/// gives the plain product, and splitting K —
/// `out = a[.., ..k₁]·b[..k₁]; out += a[.., k₁..]·b[k₁..]` — gives the
/// same bits as one call over all of K (the terms are still added in
/// ascending k).
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

/// Writes `b[rows, cols]`ᵀ into `dst[cols, rows]`, the pack that turns
/// an NT product `a · bᵀ` into an NN one over the same k-terms.
pub fn pack_transposed(b: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    debug_assert_eq!(b.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    if cols == 0 {
        return;
    }
    for (j, b_row) in b.chunks_exact(cols).enumerate() {
        for (p, &v) in b_row.iter().enumerate() {
            dst[p * rows + j] = v;
        }
    }
}

/// Accumulates all `n` output rows into `out`. `a` is addressed as
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

// ---- activation row kernels ----------------------------------------------

/// `x ↦ eˣ` over `xs`, in place.
pub fn exp(kernel: Kernel, xs: &mut [f32]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if kernel == Kernel::Simd {
        // SAFETY: dispatch only selects `Simd` when AVX2 was detected.
        return unsafe { simd_impls::exp_avx2(xs) };
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    let _ = kernel;
    for v in xs {
        *v = exp1(*v);
    }
}

/// `x ↦ 1 / (1 + e⁻ˣ)` over `xs`, in place.
pub fn sigmoid(kernel: Kernel, xs: &mut [f32]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if kernel == Kernel::Simd {
        // SAFETY: as in `exp`.
        return unsafe { simd_impls::sigmoid_avx2(xs) };
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    let _ = kernel;
    for v in xs {
        *v = sigmoid1(*v);
    }
}

/// `x ↦ tanh x` over `xs`, in place.
pub fn tanh(kernel: Kernel, xs: &mut [f32]) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if kernel == Kernel::Simd {
        // SAFETY: as in `exp`.
        return unsafe { simd_impls::tanh_avx2(xs) };
    }
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    let _ = kernel;
    for v in xs {
        *v = tanh1(*v);
    }
}

// The scalar twins below are the reference for the AVX2 bodies in
// `simd_impls`: each line there is the 8-lane form of the same line here
// (separate mul and add, the same constants, the same clamp and branch),
// so the two agree bit for bit on every input that is not NaN, and both
// return NaN for NaN.

/// Inputs are clamped to `[EXP_LO, EXP_HI]`: below it eˣ rounds to 0.0,
/// above it to +∞, and inside it `round(x·log₂e)` fits the two-factor
/// scale of [`exp1`].
const EXP_LO: f32 = -104.0;
const EXP_HI: f32 = 89.0;
/// `1.5·2²³`: adding and subtracting it rounds `|t| < 2²²` to the nearest
/// integer, ties to even.
const ROUND_SHIFTER: f32 = 12_582_912.0;
/// ln 2 split Cody–Waite style: `n·LN2_HI` is exact for `|n| ≤ 2⁸`.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Cephes `expf` minimax coefficients for `(eʳ − 1 − r)/r²`, highest
/// degree first, on `|r| ≤ ln2/2`.
const EXP_P: [f32; 6] = [
    1.987_569_1e-4,
    1.398_2e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    5e-1,
];
/// Below this `|x|` tanh uses its odd polynomial; above, `1 − 2/(e²ˣ+1)`.
const TANH_SMALL: f32 = 0.625;
/// Cephes `tanhf` coefficients for `(tanh x − x)/x³` in `z = x²`, highest
/// degree first.
const TANH_P: [f32; 5] = [
    -5.704_988_7e-3,
    2.063_909e-2,
    -5.373_971_6e-2,
    1.333_144_2e-1,
    -3.333_328e-1,
];
const SIGN: u32 = 0x8000_0000;

/// `_mm256_max_ps(a, b)` lane for lane: `a` if `a > b`, else `b` — so a
/// NaN `b` comes back out.
#[inline(always)]
fn max_ps(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// `_mm256_min_ps(a, b)` lane for lane: `a` if `a < b`, else `b`.
#[inline(always)]
fn min_ps(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// `2ᵉ` for `-126 ≤ e ≤ 127`, straight into the exponent field.
#[inline(always)]
fn pow2(e: i32) -> f32 {
    f32::from_bits(((e + 127) as u32) << 23)
}

/// eˣ: `x = n·ln2 + r` with `n = round(x·log₂e)`, a degree-7 polynomial
/// for `eʳ`, then `·2ⁿ` as two factors `2^⌊n/2⌋·2^(n−⌊n/2⌋)`, so the
/// scale never leaves the normal range and a subnormal result rounds
/// once, at the last multiply.
#[inline(always)]
fn exp1(x: f32) -> f32 {
    let x = min_ps(EXP_HI, max_ps(EXP_LO, x));
    let n = (x * std::f32::consts::LOG2_E + ROUND_SHIFTER) - ROUND_SHIFTER;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut p = EXP_P[0];
    for c in &EXP_P[1..] {
        p = p * r + c;
    }
    let y = (p * (r * r) + r) + 1.0;
    let n = n as i32;
    let n1 = n >> 1;
    y * pow2(n1) * pow2(n - n1)
}

#[inline(always)]
fn sigmoid1(x: f32) -> f32 {
    1.0 / (1.0 + exp1(-x))
}

/// `tanh |x|` by [`TANH_SMALL`]'s two branches, then `x`'s sign bit ORed
/// back in, which keeps `tanh(-0.0) = -0.0`. NaN takes the polynomial
/// branch (`NaN > 0.625` is false) and stays NaN.
#[inline(always)]
fn tanh1(x: f32) -> f32 {
    let ax = f32::from_bits(x.to_bits() & !SIGN);
    let t = if ax > TANH_SMALL {
        1.0 - 2.0 / (exp1(ax + ax) + 1.0)
    } else {
        let z = ax * ax;
        let mut p = TANH_P[0];
        for c in &TANH_P[1..] {
            p = p * z + c;
        }
        ax + ax * (z * p)
    };
    f32::from_bits(t.to_bits() | (x.to_bits() & SIGN))
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod simd_impls {
    use super::{EXP_HI, EXP_LO, EXP_P, LN2_HI, LN2_LO, ROUND_SHIFTER, SIGN, TANH_P, TANH_SMALL};
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
    /// Every accumulator starts from the value in `out`, as the scalar
    /// loops' memory accumulators do.
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
                let mut c00 = _mm256_loadu_ps(orow(0).add(j));
                let mut c01 = _mm256_loadu_ps(orow(0).add(j + 8));
                let mut c10 = _mm256_loadu_ps(orow(1).add(j));
                let mut c11 = _mm256_loadu_ps(orow(1).add(j + 8));
                let mut c20 = _mm256_loadu_ps(orow(2).add(j));
                let mut c21 = _mm256_loadu_ps(orow(2).add(j + 8));
                let mut c30 = _mm256_loadu_ps(orow(3).add(j));
                let mut c31 = _mm256_loadu_ps(orow(3).add(j + 8));
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
                let mut c0 = _mm256_loadu_ps(orow(0).add(j));
                let mut c1 = _mm256_loadu_ps(orow(1).add(j));
                let mut c2 = _mm256_loadu_ps(orow(2).add(j));
                let mut c3 = _mm256_loadu_ps(orow(3).add(j));
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
                    let mut acc = *orow(r).add(j);
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
                let mut c0 = _mm256_loadu_ps(out_row.add(j));
                let mut c1 = _mm256_loadu_ps(out_row.add(j + 8));
                let mut c2 = _mm256_loadu_ps(out_row.add(j + 16));
                let mut c3 = _mm256_loadu_ps(out_row.add(j + 24));
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
                let mut c0 = _mm256_loadu_ps(out_row.add(j));
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
                let mut acc = *out_row.add(j);
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

    // The 8-lane forms of `exp1`, `sigmoid1` and `tanh1`, line for line.

    #[inline(always)]
    unsafe fn splat(v: f32) -> __m256 {
        _mm256_set1_ps(v)
    }

    /// `super::exp1` on 8 lanes. `x` is the second operand of the clamp's
    /// max/min, so a NaN lane passes through.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn exp8(x: __m256) -> __m256 {
        let x = _mm256_min_ps(splat(EXP_HI), _mm256_max_ps(splat(EXP_LO), x));
        let t = _mm256_add_ps(
            _mm256_mul_ps(x, splat(std::f32::consts::LOG2_E)),
            splat(ROUND_SHIFTER),
        );
        let n = _mm256_sub_ps(t, splat(ROUND_SHIFTER));
        let r = _mm256_sub_ps(
            _mm256_sub_ps(x, _mm256_mul_ps(n, splat(LN2_HI))),
            _mm256_mul_ps(n, splat(LN2_LO)),
        );
        let mut p = splat(EXP_P[0]);
        for &c in &EXP_P[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), splat(c));
        }
        let y = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
            splat(1.0),
        );
        let n = _mm256_cvttps_epi32(n);
        let n1 = _mm256_srai_epi32::<1>(n);
        let pow2 = |e| {
            _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
                e,
                _mm256_set1_epi32(127),
            )))
        };
        _mm256_mul_ps(_mm256_mul_ps(y, pow2(n1)), pow2(_mm256_sub_epi32(n, n1)))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sigmoid8(x: __m256) -> __m256 {
        let neg = _mm256_xor_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(SIGN as i32)));
        _mm256_div_ps(splat(1.0), _mm256_add_ps(splat(1.0), exp8(neg)))
    }

    /// `super::tanh1` on 8 lanes: both branches are evaluated and the
    /// ordered `|x| > TANH_SMALL` compare (false for NaN) picks one.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tanh8(x: __m256) -> __m256 {
        let sign = _mm256_castsi256_ps(_mm256_set1_epi32(SIGN as i32));
        let ax = _mm256_andnot_ps(sign, x);
        let large = _mm256_sub_ps(
            splat(1.0),
            _mm256_div_ps(
                splat(2.0),
                _mm256_add_ps(exp8(_mm256_add_ps(ax, ax)), splat(1.0)),
            ),
        );
        let z = _mm256_mul_ps(ax, ax);
        let mut p = splat(TANH_P[0]);
        for &c in &TANH_P[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, z), splat(c));
        }
        let small = _mm256_add_ps(ax, _mm256_mul_ps(ax, _mm256_mul_ps(z, p)));
        let pick_large = _mm256_cmp_ps::<_CMP_GT_OQ>(ax, splat(TANH_SMALL));
        let t = _mm256_blendv_ps(small, large, pick_large);
        _mm256_or_ps(t, _mm256_and_ps(sign, x))
    }

    /// One row kernel per activation: 8-lane body, then the scalar twin
    /// for the `len % 8` tail.
    macro_rules! row_kernel {
        ($name:ident, $lanes:ident, $one:path) => {
            /// # Safety
            ///
            /// The CPU must support AVX2.
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name(xs: &mut [f32]) {
                let mut chunks = xs.chunks_exact_mut(8);
                for c in &mut chunks {
                    let p = c.as_mut_ptr();
                    _mm256_storeu_ps(p, $lanes(_mm256_loadu_ps(p)));
                }
                for v in chunks.into_remainder() {
                    *v = $one(*v);
                }
            }
        };
    }
    row_kernel!(exp_avx2, exp8, super::exp1);
    row_kernel!(sigmoid_avx2, sigmoid8, super::sigmoid1);
    row_kernel!(tanh_avx2, tanh8, super::tanh1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::tensor::Tensor;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Distance from `y` to the f64 reference `want`, in units of the f32
    /// spacing at `want` (the subnormal spacing below `f32::MIN_POSITIVE`).
    fn ulps(y: f32, want: f64) -> f64 {
        let w = want as f32;
        if w.is_infinite() || y.is_infinite() {
            return if y == w { 0.0 } else { f64::INFINITY };
        }
        let mag = (want.abs() as f32).max(f32::MIN_POSITIVE);
        let spacing = f32::from_bits(mag.to_bits() + 1) - mag;
        (f64::from(y) - want).abs() / f64::from(spacing)
    }

    /// Every 1009th f32 of each sign: dense near zero, logarithmic out to
    /// ±∞, about 4.2M inputs.
    fn sweep() -> Vec<f32> {
        (0..0x7f80_0000u32)
            .step_by(1009)
            .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
            .collect()
    }

    type Row = (&'static str, fn(Kernel, &mut [f32]), fn(f64) -> f64, f64);

    /// The activations, their f64 references and the largest error in
    /// ulps the sweep may find where the reference is a normal f32
    /// (DESIGN.md, "Kernel & memory model").
    const ACTIVATIONS: [Row; 3] = [
        ("exp", exp, f64::exp, 1.0),
        ("sigmoid", sigmoid, |x| 1.0 / (1.0 + (-x).exp()), 2.5),
        ("tanh", tanh, f64::tanh, 1.5),
    ];

    /// Prints the max-ulp table (`--nocapture`): normal results, and
    /// subnormal ones apart. exp rounds a subnormal result once, so it
    /// stays within one subnormal spacing; sigmoid's `1/(1+e⁻ˣ)` returns
    /// 0.0 once `e⁻ˣ` overflows (x < −88.72), as the libm form did.
    #[test]
    fn activation_max_ulp_table() {
        let xs = sweep();
        println!("| kernel  | inputs  | max ulp (normal) | at x          | max ulp (subnormal) |");
        for (name, f, reference, bound) in ACTIVATIONS {
            let mut ys = xs.clone();
            f(Kernel::Scalar, &mut ys);
            if simd_available() {
                let mut simd = xs.clone();
                f(Kernel::Simd, &mut simd);
                let differ = ys
                    .iter()
                    .zip(&simd)
                    .filter(|(a, b)| a.to_bits() != b.to_bits());
                assert_eq!(differ.count(), 0, "{name}: scalar and simd differ");
            }
            let (mut normal, mut at, mut subnormal) = (0.0f64, 0.0f32, 0.0f64);
            for (&x, &y) in xs.iter().zip(&ys) {
                let want = reference(f64::from(x));
                let e = ulps(y, want);
                if want != 0.0 && want.abs() < f64::from(f32::MIN_POSITIVE) {
                    subnormal = subnormal.max(e);
                } else if e > normal {
                    (normal, at) = (e, x);
                }
            }
            println!(
                "| {name:<7} | {:<7} | {normal:<16.3} | {at:<13e} | {subnormal:<19.3e} |",
                xs.len()
            );
            assert!(normal <= bound, "{name}: {normal} ulp at x = {at:e}");
            if name == "exp" {
                assert!(subnormal <= 1.0, "exp: {subnormal} subnormal ulp");
            }
        }
    }

    #[test]
    fn activations_agree_across_kernels_and_keep_special_values() {
        let kernels: &[Kernel] = if simd_available() {
            &[Kernel::Scalar, Kernel::Simd]
        } else {
            &[Kernel::Scalar]
        };
        // Lengths 8 and 3 send each value through the 8-lane body and the
        // scalar tail. -1e5 is the models' `PAD_BIAS`: padded softmax
        // slots rely on its exp being exactly 0.0.
        let cases: [(f32, f32, f32, f32); 9] = [
            (f32::NAN, f32::NAN, f32::NAN, f32::NAN),
            (f32::INFINITY, f32::INFINITY, 1.0, 1.0),
            (f32::NEG_INFINITY, 0.0, 0.0, -1.0),
            (0.0, 1.0, 0.5, 0.0),
            (-0.0, 1.0, 0.5, -0.0),
            (-1e5, 0.0, 0.0, -1.0),
            (1e5, f32::INFINITY, 1.0, 1.0),
            (-104.5, 0.0, 0.0, -1.0),
            (89.5, f32::INFINITY, 1.0, 1.0),
        ];
        for &kernel in kernels {
            for len in [8, 3] {
                for &(x, e, s, t) in &cases {
                    for (f, want, name) in [
                        (exp as fn(Kernel, &mut [f32]), e, "exp"),
                        (sigmoid, s, "sigmoid"),
                        (tanh, t, "tanh"),
                    ] {
                        let mut xs = vec![x; len];
                        f(kernel, &mut xs);
                        for &y in &xs {
                            let ok = if want.is_nan() {
                                y.is_nan()
                            } else {
                                y.to_bits() == want.to_bits()
                            };
                            assert!(ok, "{}: {name}({x}) = {y}, want {want}", kernel.name());
                        }
                    }
                }
            }
        }
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
