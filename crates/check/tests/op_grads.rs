//! Per-op finite-difference fixtures: every one of the 27 tape `Op`
//! kinds, plus the LSTM and MLP layers, must match central differences at
//! rel-err ≤ 1e-2. Coverage is machine-checked through the op profiler —
//! a new tape op that lands without a fixture here fails the coverage
//! assertion, not a human review.

use adaptraj_check::gradcheck::{grad_check, grad_check_input, GradCheckConfig, OP_KINDS};
use adaptraj_obs::profile;
use adaptraj_tensor::nn::{Activation, LstmCell, Mlp};
use adaptraj_tensor::{GroupId, ParamStore, Rng, Tape, Tensor};

fn cfg() -> GradCheckConfig {
    GradCheckConfig::default() // eps 1e-2, tol 1e-2, exhaustive
}

/// Random values pushed at least 0.15 away from zero, so a ±eps FD
/// perturbation cannot cross the relu kink.
fn kink_free(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    Tensor::randn(rows, cols, 0.0, 1.0, &mut rng)
        .map(|v| if v >= 0.0 { v + 0.15 } else { v - 0.15 })
}

fn randn(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    Tensor::randn(rows, cols, 0.0, 1.0, &mut rng)
}

/// A named gradient-check fixture for one op.
type Fixture = (&'static str, Box<dyn Fn()>);

/// The fixture list. Each entry checks one op's backward rule (a few
/// exercise more than one incidentally); together they must light up
/// every kind in [`OP_KINDS`] in both directions.
fn fixtures() -> Vec<Fixture> {
    let mut out: Vec<Fixture> = Vec::new();
    let mut fixture = |name: &'static str, f: Box<dyn Fn()>| out.push((name, f));

    fixture(
        "add",
        Box::new(|| {
            let c = randn(2, 3, 100);
            grad_check_input(
                &randn(2, 3, 1),
                move |t, x| {
                    let cv = t.constant(c.clone());
                    let y = t.add(x, cv);
                    let sq = t.mul(y, y);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("add");
        }),
    );
    fixture(
        "sub",
        Box::new(|| {
            let c = randn(2, 3, 101);
            grad_check_input(
                &randn(2, 3, 2),
                move |t, x| {
                    let cv = t.constant(c.clone());
                    let y = t.sub(cv, x);
                    let sq = t.mul(y, y);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("sub");
        }),
    );
    fixture(
        "mul",
        Box::new(|| {
            grad_check_input(
                &randn(2, 3, 3),
                |t, x| {
                    // x ⊙ x exercises both operand slots of one node.
                    let y = t.mul(x, x);
                    t.sum_all(y)
                },
                &cfg(),
            )
            .assert_ok("mul");
        }),
    );
    fixture(
        "scale",
        Box::new(|| {
            grad_check_input(
                &randn(2, 3, 5),
                |t, x| {
                    let y = t.scale(x, -1.7);
                    let sq = t.mul(y, y);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("scale");
        }),
    );
    fixture(
        "add_scalar",
        Box::new(|| {
            grad_check_input(
                &randn(2, 3, 6),
                |t, x| {
                    let y = t.add_scalar(x, 0.37);
                    let sq = t.mul(y, y);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("add_scalar");
        }),
    );
    fixture(
        "matmul",
        Box::new(|| {
            let right = randn(3, 2, 103);
            let left = randn(4, 2, 104);
            grad_check_input(
                &randn(2, 3, 7),
                move |t, x| {
                    // Both operand slots: x·R (dA path) and L·x (dB path).
                    let rv = t.constant(right.clone());
                    let lv = t.constant(left.clone());
                    let a = t.matmul(x, rv);
                    let b = t.matmul(lv, a);
                    let sq = t.mul(b, b);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("matmul");
        }),
    );
    fixture(
        "add_row_broadcast(matrix)",
        Box::new(|| {
            let bias = randn(1, 3, 106);
            grad_check_input(
                &randn(4, 3, 9),
                move |t, x| {
                    let bv = t.constant(bias.clone());
                    let y = t.add_row_broadcast(x, bv);
                    let sq = t.mul(y, y);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("add_row_broadcast(matrix)");
        }),
    );
    fixture(
        "add_row_broadcast(bias)",
        Box::new(|| {
            let m = randn(4, 3, 107);
            grad_check_input(
                &randn(1, 3, 10),
                move |t, x| {
                    // Gradient sums over the broadcast rows.
                    let mv = t.constant(m.clone());
                    let y = t.add_row_broadcast(mv, x);
                    let sq = t.mul(y, y);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("add_row_broadcast(bias)");
        }),
    );
    fixture(
        "relu",
        Box::new(|| {
            let c = randn(2, 4, 108);
            grad_check_input(
                &kink_free(2, 4, 11),
                move |t, x| {
                    let y = t.relu(x);
                    let cv = t.constant(c.clone());
                    let w = t.mul(y, cv);
                    t.sum_all(w)
                },
                &cfg(),
            )
            .assert_ok("relu");
        }),
    );
    fixture(
        "tanh",
        Box::new(|| {
            grad_check_input(
                &randn(2, 4, 13),
                |t, x| {
                    let y = t.tanh(x);
                    let sq = t.mul(y, y);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("tanh");
        }),
    );
    fixture(
        "sigmoid",
        Box::new(|| {
            grad_check_input(
                &randn(2, 4, 14),
                |t, x| {
                    let y = t.sigmoid(x);
                    let sq = t.mul(y, y);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("sigmoid");
        }),
    );
    fixture(
        "exp",
        Box::new(|| {
            grad_check_input(
                &randn(2, 4, 15).scale(0.5),
                |t, x| {
                    let y = t.exp(x);
                    t.sum_all(y)
                },
                &cfg(),
            )
            .assert_ok("exp");
        }),
    );
    fixture(
        "softmax_rows",
        Box::new(|| {
            let c = randn(3, 4, 110);
            grad_check_input(
                &randn(3, 4, 16),
                move |t, x| {
                    // Weighted by a constant so off-diagonal Jacobian terms
                    // matter (a plain sum has gradient 0 by normalization).
                    let p = t.softmax_rows(x);
                    let cv = t.constant(c.clone());
                    let y = t.mul(p, cv);
                    t.sum_all(y)
                },
                &cfg(),
            )
            .assert_ok("softmax_rows");
        }),
    );
    fixture(
        "concat_cols",
        Box::new(|| {
            let c = randn(2, 2, 111);
            let w = randn(2, 5, 112);
            grad_check_input(
                &randn(2, 3, 17),
                move |t, x| {
                    let cv = t.constant(c.clone());
                    let y = t.concat_cols(&[x, cv]);
                    let wv = t.constant(w.clone());
                    let z = t.mul(y, wv);
                    t.sum_all(z)
                },
                &cfg(),
            )
            .assert_ok("concat_cols");
        }),
    );
    fixture(
        "concat_rows",
        Box::new(|| {
            let c = randn(2, 3, 113);
            let w = randn(4, 3, 114);
            grad_check_input(
                &randn(2, 3, 18),
                move |t, x| {
                    let cv = t.constant(c.clone());
                    let y = t.concat_rows(&[cv, x]);
                    let wv = t.constant(w.clone());
                    let z = t.mul(y, wv);
                    t.sum_all(z)
                },
                &cfg(),
            )
            .assert_ok("concat_rows");
        }),
    );
    fixture(
        "slice_cols",
        Box::new(|| {
            let w = randn(2, 2, 115);
            grad_check_input(
                &randn(2, 5, 19),
                move |t, x| {
                    // Un-sliced columns must get exactly zero gradient.
                    let y = t.slice_cols(x, 1, 3);
                    let wv = t.constant(w.clone());
                    let z = t.mul(y, wv);
                    t.sum_all(z)
                },
                &cfg(),
            )
            .assert_ok("slice_cols");
        }),
    );
    fixture(
        "gather_rows",
        Box::new(|| {
            let w = randn(4, 3, 116);
            grad_check_input(
                &randn(3, 3, 20),
                move |t, x| {
                    // Row 2 gathered twice: its gradient must accumulate.
                    let y = t.gather_rows(x, &[0, 2, 1, 2]);
                    let wv = t.constant(w.clone());
                    let z = t.mul(y, wv);
                    t.sum_all(z)
                },
                &cfg(),
            )
            .assert_ok("gather_rows");
        }),
    );
    fixture(
        "mean_rows",
        Box::new(|| {
            let w = randn(1, 3, 118);
            grad_check_input(
                &randn(4, 3, 22),
                move |t, x| {
                    let y = t.mean_rows(x);
                    let wv = t.constant(w.clone());
                    let z = t.mul(y, wv);
                    t.sum_all(z)
                },
                &cfg(),
            )
            .assert_ok("mean_rows");
        }),
    );
    fixture(
        "mean_all",
        Box::new(|| {
            grad_check_input(
                &randn(3, 4, 24),
                |t, x| {
                    let sq = t.mul(x, x);
                    t.mean_all(sq)
                },
                &cfg(),
            )
            .assert_ok("mean_all");
        }),
    );
    fixture(
        "sum_all",
        Box::new(|| {
            grad_check_input(
                &randn(3, 4, 25),
                |t, x| {
                    let sq = t.mul(x, x);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("sum_all");
        }),
    );
    fixture(
        "hadamard_const",
        Box::new(|| {
            let mask = randn(3, 4, 120).map(|v| if v > 0.0 { 1.0 } else { 0.25 });
            grad_check_input(
                &randn(3, 4, 26),
                move |t, x| {
                    let y = t.hadamard_const(x, mask.clone());
                    let sq = t.mul(y, y);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("hadamard_const");
        }),
    );
    fixture(
        "reshape",
        Box::new(|| {
            let c = randn(3, 2, 122);
            grad_check_input(
                &randn(2, 3, 55),
                move |t, x| {
                    let r = t.reshape(x, 3, 2);
                    let cv = t.constant(c.clone());
                    let y = t.mul(r, cv);
                    let sq = t.mul(y, y);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("reshape");
        }),
    );
    fixture(
        "sum_row_groups",
        Box::new(|| {
            let c = randn(2, 3, 123);
            grad_check_input(
                &randn(6, 3, 56),
                move |t, x| {
                    // Each gradient element repeats over its k-row group.
                    let s = t.sum_row_groups(x, 3);
                    let cv = t.constant(c.clone());
                    let y = t.mul(s, cv);
                    let sq = t.mul(y, y);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("sum_row_groups");
        }),
    );
    fixture(
        "softmax_cross_entropy",
        Box::new(|| {
            grad_check_input(
                &randn(3, 4, 27),
                |t, x| t.softmax_cross_entropy(x, &[1, 0, 3]),
                &cfg(),
            )
            .assert_ok("softmax_cross_entropy");
        }),
    );
    fixture(
        "grad_reverse",
        Box::new(|| {
            let c = randn(2, 3, 121);
            grad_check_input(
                &randn(2, 3, 28),
                move |t, x| {
                    // A double reversal with λ₁·λ₂ = 1 restores the true
                    // gradient, so FD applies while both the forward and
                    // the (−λ)-scaling backward of each node execute. The
                    // single-reversal semantics are pinned by
                    // `grad_reverse_negates_the_upstream_gradient` below.
                    let r1 = t.grad_reverse(x, 2.0);
                    let r2 = t.grad_reverse(r1, 0.5);
                    let cv = t.constant(c.clone());
                    let y = t.mul(r2, cv);
                    t.sum_all(y)
                },
                &cfg(),
            )
            .assert_ok("grad_reverse");
        }),
    );
    fixture(
        "fused_affine(data)",
        Box::new(|| {
            let w = randn(3, 4, 150);
            let b = randn(1, 4, 151);
            grad_check_input(
                &randn(2, 3, 49),
                move |t, x| {
                    // Smooth activation so FD is exact everywhere; the
                    // relu variant is pinned bit-for-bit against the
                    // unfused composition in the tape's unit tests.
                    let wv = t.constant(w.clone());
                    let bv = t.constant(b.clone());
                    let y = t.fused_affine(x, wv, bv, Activation::Tanh);
                    let sq = t.mul(y, y);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("fused_affine(data)");
        }),
    );
    fixture(
        "fused_affine(weight)",
        Box::new(|| {
            let d = randn(4, 2, 152);
            let b = randn(1, 3, 153);
            grad_check_input(
                &randn(2, 3, 50),
                move |t, x| {
                    let dv = t.constant(d.clone());
                    let bv = t.constant(b.clone());
                    let y = t.fused_affine(dv, x, bv, Activation::Tanh);
                    let sq = t.mul(y, y);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("fused_affine(weight)");
        }),
    );
    fixture(
        "fused_affine(bias)",
        Box::new(|| {
            let d = randn(4, 2, 154);
            let w = randn(2, 3, 155);
            grad_check_input(
                &randn(1, 3, 51),
                move |t, x| {
                    // Gradient sums over the broadcast rows.
                    let dv = t.constant(d.clone());
                    let wv = t.constant(w.clone());
                    let y = t.fused_affine(dv, wv, x, Activation::Tanh);
                    let sq = t.mul(y, y);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("fused_affine(bias)");
        }),
    );
    fixture(
        "lstm_cell(input)",
        Box::new(|| {
            let w = randn(5, 12, 156).scale(0.5);
            let b = randn(1, 12, 157).scale(0.1);
            let h0 = randn(2, 3, 158).scale(0.5);
            let c0 = randn(2, 3, 159).scale(0.5);
            grad_check_input(
                &randn(2, 2, 52),
                move |t, x| {
                    let wv = t.constant(w.clone());
                    let bv = t.constant(b.clone());
                    let hv = t.constant(h0.clone());
                    let cv = t.constant(c0.clone());
                    // Loss over [h' | c'] so both output halves carry
                    // upstream gradient into the cell backward.
                    let hc = t.lstm_cell(x, hv, cv, wv, bv);
                    let sq = t.mul(hc, hc);
                    t.sum_all(sq)
                },
                &cfg(),
            )
            .assert_ok("lstm_cell(input)");
        }),
    );
    fixture(
        "lstm_cell(state)",
        Box::new(|| {
            let w = randn(5, 12, 160).scale(0.5);
            let b = randn(1, 12, 161).scale(0.1);
            let x0 = randn(2, 2, 162);
            let other = randn(2, 3, 163).scale(0.5);
            // h-slot and c-slot gradients, each against central FD.
            for h_slot in [true, false] {
                let (w, b, x0, other) = (w.clone(), b.clone(), x0.clone(), other.clone());
                grad_check_input(
                    &randn(2, 3, if h_slot { 53 } else { 54 }),
                    move |t, x| {
                        let wv = t.constant(w.clone());
                        let bv = t.constant(b.clone());
                        let xv = t.constant(x0.clone());
                        let ov = t.constant(other.clone());
                        let (hv, cv) = if h_slot { (x, ov) } else { (ov, x) };
                        let hc = t.lstm_cell(xv, hv, cv, wv, bv);
                        let sq = t.mul(hc, hc);
                        t.sum_all(sq)
                    },
                    &cfg(),
                )
                .assert_ok(if h_slot {
                    "lstm_cell(h)"
                } else {
                    "lstm_cell(c)"
                });
            }
        }),
    );
    // "leaf" is exercised by every fixture above: inputs and constants are
    // leaves, and input leaves on the gradient path get backward visits.
    // The w/b slots of lstm_cell are exercised parameter-side by
    // `lstm_params_match_finite_differences`.
    out
}

#[test]
fn every_op_kind_passes_fd_and_coverage_is_machine_checked() {
    profile::set_enabled(true);
    let snapshot = {
        let _p = adaptraj_obs::span("op_grads_coverage");
        for (_, f) in fixtures() {
            f();
        }
        lstm_params_match_finite_differences();
        mlp_params_match_finite_differences();
        profile::snapshot().under("op_grads_coverage")
    };
    profile::set_enabled(false);

    let ops = snapshot.by_op();
    let mut uncovered = Vec::new();
    for kind in OP_KINDS {
        match ops.iter().find(|r| r.kind == kind) {
            None => uncovered.push(format!("{kind} (never executed)")),
            Some(r) if r.fwd_calls == 0 => uncovered.push(format!("{kind} (no forward)")),
            Some(r) if r.bwd_calls == 0 => uncovered.push(format!("{kind} (no backward)")),
            Some(_) => {}
        }
    }
    assert!(
        uncovered.is_empty(),
        "op kinds without both-direction fixture coverage: {uncovered:?}"
    );
    // The reverse: the kind list itself must stay exhaustive. A 28th op
    // would show up here before anyone remembers to extend OP_KINDS.
    for r in &ops {
        assert!(
            OP_KINDS.contains(&r.kind),
            "op kind '{}' executed but missing from OP_KINDS — extend the fixture list",
            r.kind
        );
    }
}

#[test]
fn grad_reverse_negates_the_upstream_gradient() {
    // The one op whose backward *intentionally* disagrees with FD:
    // forward identity, backward −λ·g. Check analytic == −λ·numeric.
    let lambda = 1.6f64;
    let x = randn(2, 3, 29);
    let report = grad_check_input(
        &x,
        |t, x| {
            let r = t.grad_reverse(x, 1.6);
            let sq = t.mul(r, r);
            t.sum_all(sq)
        },
        &cfg(),
    );
    assert!(!report.records.is_empty());
    for rec in &report.records {
        let expected = -lambda * rec.numeric;
        assert!(
            (rec.analytic - expected).abs() <= 1e-2 * (1.0 + expected.abs()),
            "element {}: analytic {} vs −λ·numeric {}",
            rec.index,
            rec.analytic,
            expected
        );
    }
}

fn lstm_params_match_finite_differences() {
    // Full parameter-side check through a 3-step unroll: the fused gate
    // matmul, all four gate nonlinearities, and BPTT accumulation.
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(30);
    let cell = LstmCell::new(&mut store, &mut rng, "lstm", 3, 4, GroupId::DEFAULT);
    let steps: Vec<Tensor> = (0..3)
        .map(|_| Tensor::randn(2, 3, 0.0, 1.0, &mut rng))
        .collect();
    let report = grad_check(
        &mut store,
        |s| {
            let mut tape = Tape::new();
            let mut state = cell.zero_state(&mut tape, 2);
            for x in &steps {
                let xv = tape.constant(x.clone());
                state = cell.step(s, &mut tape, xv, state);
            }
            let sq = tape.mul(state.h, state.h);
            let loss = tape.sum_all(sq);
            let v = tape.value(loss).item() as f64;
            let g = tape.backward(loss);
            (v, tape.param_grads(&g))
        },
        &cfg(),
    );
    report.assert_ok("lstm parameters");
}

fn mlp_params_match_finite_differences() {
    // Two-hidden-layer MLP, tanh (smooth, so every parameter is FD-exact;
    // the relu kink itself is covered kink-free by the relu fixture).
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(31);
    let mlp = Mlp::new(
        &mut store,
        &mut rng,
        "mlp",
        &[3, 6, 5, 2],
        Activation::Tanh,
        GroupId::DEFAULT,
    );
    let x = Tensor::randn(2, 3, 0.0, 1.0, &mut rng);
    let target = Tensor::randn(2, 2, 0.0, 1.0, &mut rng);
    let report = grad_check(
        &mut store,
        |s| {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = mlp.forward(s, &mut tape, xv);
            let loss = tape.mse_to(y, &target);
            let v = tape.value(loss).item() as f64;
            let g = tape.backward(loss);
            (v, tape.param_grads(&g))
        },
        &cfg(),
    );
    report.assert_ok("mlp parameters");
}

#[test]
fn lstm_fd_runs_standalone() {
    lstm_params_match_finite_differences();
}

#[test]
fn mlp_fd_runs_standalone() {
    mlp_params_match_finite_differences();
}
