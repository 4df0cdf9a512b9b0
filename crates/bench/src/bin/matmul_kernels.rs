//! Micro-benchmark for the three matmul kernels (`matmul`, `matmul_nt`,
//! `matmul_tn`) on the shapes the batched (PR-8) hot path actually runs,
//! reported per dispatch path:
//!
//! - `scalar` — the autovectorized fallback loops (`ADAPTRAJ_FORCE_SCALAR=1`)
//! - `simd` — the explicit AVX2 microkernels (default where supported)
//!
//! Shapes (NN, with the NT/TN backward pairs derived from each):
//!
//! - encoder LSTM gate projection `xh·W`: `[n,48]·[48,128]` (embed 16 +
//!   hidden 32 in, 4·32 gates out)
//! - decoder LSTM gate projection: `[n,80]·[80,128]` (embed 16 + context
//!   64 in)
//! - pooling projection `h·Wᵥ`: `[n,32]·[32,32]`
//! - time-major rollout embed: `[n·12,2]·[2,16]` — the PR-8 batched
//!   decoder feeds all `T_PRED·batch` steps through one skinny GEMM
//!
//! Every scalar NT/TN case is asserted bit-identical to the
//! `transpose()+matmul` composition, and every SIMD case bit-identical to
//! scalar — the same contracts the tape backward and the golden gate rely
//! on. The `nt_dot` rows time the *dot-product formulation* of NT (row of
//! `a` · row of `b`, no pack) against the shipping pack+NN kernel; the
//! accumulation-order contract forbids reassociating the k-reduction, so
//! the dot form cannot vectorize — these rows are the measured source for
//! the slowdown factor quoted in the `matmul_nt` doc comment.
//!
//! ```text
//! matmul_kernels [--iters N] [--batch N,N,...] [--out PATH]
//! ```

use adaptraj_tensor::{kernels, Kernel, Rng, Tensor};
use std::time::Instant;

fn gflops(flops: f64, ns: f64) -> f64 {
    flops / ns
}

/// Median-of-runs timer: returns ns per call for `f`, after one warmup.
fn time_ns<F: FnMut() -> Tensor>(iters: usize, mut f: F) -> f64 {
    let mut sink = 0.0f32;
    sink += f().data().iter().sum::<f32>(); // warmup
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = f();
        samples.push(t0.elapsed().as_nanos() as f64);
        sink += out.data().first().copied().unwrap_or(0.0);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    // Keep the optimizer honest about `sink` without polluting stdout.
    if sink.is_nan() {
        eprintln!("unexpected NaN in benchmark output");
    }
    samples[samples.len() / 2]
}

/// The unshipped dot-product formulation of NT, kept here as the measured
/// baseline for the doc-comment claim: same accumulation order (ascending
/// k, zero-skip on `a`), no pack, serial k-reduction per output element.
fn matmul_nt_dot(a: &Tensor, b: &Tensor) -> Tensor {
    let (n, k) = a.shape();
    let m = b.shape().0;
    let a_data = a.data();
    let b_data = b.data();
    let mut out = vec![0.0f32; n * m];
    for i in 0..n {
        let a_row = &a_data[i * k..(i + 1) * k];
        for j in 0..m {
            let b_row = &b_data[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                if av == 0.0 {
                    continue;
                }
                acc += av * bv;
            }
            out[i * m + j] = acc;
        }
    }
    Tensor::from_vec(n, m, out)
}

struct Case {
    name: &'static str,
    /// `[m,k]·[k,n]` for NN; the NT/TN operand shapes derive from it.
    m: usize,
    k: usize,
    n: usize,
}

struct Report {
    lines: Vec<String>,
}

impl Report {
    fn emit(&mut self, line: String) {
        println!("{line}");
        self.lines.push(line);
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iters = 200usize;
    let mut batches = vec![8usize, 64];
    let mut out_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--iters" => {
                iters = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--batch" => {
                batches = args
                    .get(i + 1)
                    .map(|s| {
                        s.split(',')
                            .map(|p| p.parse().unwrap_or_else(|_| usage()))
                            .collect()
                    })
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--out" => {
                out_path = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            _ => usage(),
        }
    }

    // Dispatch paths available on this host, in report order.
    let mut paths = vec![("scalar", Kernel::Scalar)];
    if kernels::simd_available() {
        paths.push(("simd", Kernel::Simd));
    }

    let mut report = Report { lines: Vec::new() };
    report.emit(format!(
        "matmul_kernels: iters={iters} batches={batches:?} (avx2={})",
        kernels::simd_available()
    ));
    report.emit(format!(
        "{:<36} {:<16} {:<14} {:>12} {:>9}",
        "case", "kernel", "path", "ns/call", "GFLOP/s"
    ));

    let mut rng = Rng::seed_from(42);
    for &n_batch in &batches {
        let cases = [
            Case {
                name: "encoder gates [n,48]x[48,128]",
                m: n_batch,
                k: 48,
                n: 128,
            },
            Case {
                name: "decoder gates [n,80]x[80,128]",
                m: n_batch,
                k: 80,
                n: 128,
            },
            Case {
                name: "pool proj [n,32]x[32,32]",
                m: n_batch,
                k: 32,
                n: 32,
            },
            Case {
                name: "rollout embed [12n,2]x[2,16]",
                m: 12 * n_batch,
                k: 2,
                n: 16,
            },
        ];
        for c in cases {
            let flops = 2.0 * c.m as f64 * c.k as f64 * c.n as f64;
            let a = Tensor::randn(c.m, c.k, 0.0, 1.0, &mut rng); // [m,k]
            let b = Tensor::randn(c.k, c.n, 0.0, 1.0, &mut rng); // [k,n]
            let g = Tensor::randn(c.m, c.n, 0.0, 1.0, &mut rng); // [m,n] upstream grad
            let label = format!("{} n={}", c.name, c.m);

            // Contract checks once per case: fused-vs-composed and
            // simd-vs-scalar bit-identity.
            assert_eq!(
                bits(&g.matmul_nt_with(&b, Kernel::Scalar)),
                bits(&g.matmul_with(&b.transpose(), Kernel::Scalar)),
                "NT kernel drifted from transpose+matmul"
            );
            assert_eq!(
                bits(&a.matmul_tn_with(&g, Kernel::Scalar)),
                bits(&a.transpose().matmul_with(&g, Kernel::Scalar)),
                "TN kernel drifted from transpose+matmul"
            );
            assert_eq!(
                bits(&matmul_nt_dot(&g, &b)),
                bits(&g.matmul_nt_with(&b, Kernel::Scalar)),
                "dot-formulation NT drifted from pack+NN"
            );
            if kernels::simd_available() {
                assert_eq!(
                    bits(&a.matmul_with(&b, Kernel::Simd)),
                    bits(&a.matmul_with(&b, Kernel::Scalar)),
                    "SIMD NN drifted from scalar"
                );
                assert_eq!(
                    bits(&g.matmul_nt_with(&b, Kernel::Simd)),
                    bits(&g.matmul_nt_with(&b, Kernel::Scalar)),
                    "SIMD NT drifted from scalar"
                );
                assert_eq!(
                    bits(&a.matmul_tn_with(&g, Kernel::Simd)),
                    bits(&a.matmul_tn_with(&g, Kernel::Scalar)),
                    "SIMD TN drifted from scalar"
                );
            }

            for &(path, kernel) in &paths {
                let t_nn = time_ns(iters, || a.matmul_with(&b, kernel));
                let t_nt = time_ns(iters, || g.matmul_nt_with(&b, kernel));
                let t_tn = time_ns(iters, || a.matmul_tn_with(&g, kernel));
                for (op, t) in [
                    ("matmul (NN)", t_nn),
                    ("matmul_nt", t_nt),
                    ("matmul_tn", t_tn),
                ] {
                    report.emit(format!(
                        "{label:<36} {op:<16} {path:<14} {t:>12.0} {:>9.2}",
                        gflops(flops, t)
                    ));
                }
            }

            // Doc-comment evidence: dot-formulation NT vs shipping NT.
            let t_nt_pack = time_ns(iters, || g.matmul_nt_with(&b, Kernel::Scalar));
            let t_nt_dot = time_ns(iters, || matmul_nt_dot(&g, &b));
            report.emit(format!(
                "{label:<36} {:<16} {:<14} {t_nt_dot:>12.0} {:>9.2}  ({:.1}x slower than pack+NN scalar)",
                "nt_dot",
                "reference",
                gflops(flops, t_nt_dot),
                t_nt_dot / t_nt_pack
            ));
        }
    }

    if let Some(path) = out_path {
        let mut text = report.lines.join("\n");
        text.push('\n');
        std::fs::write(&path, text).expect("write --out");
        println!("table written to {path}");
    }
}

fn usage() -> ! {
    eprintln!("usage: matmul_kernels [--iters N] [--batch N,N,...] [--out PATH]");
    std::process::exit(2);
}
