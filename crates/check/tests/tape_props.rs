//! Randomized tape invariants and algebraic identities, run through the
//! offline `adaptraj_check::prop` harness so they execute in the default
//! `cargo test`.
//!
//! Three structural invariants of the autodiff engine, then the key
//! algebraic properties of the tape ops.

use adaptraj_check::prop::{assert_close, check, Gen};
use adaptraj_tensor::{Tape, Tensor, Var};

/// Grows a random same-shape expression DAG over one input leaf and a few
/// constants, reusing earlier nodes so the graph has real fan-out.
fn random_dag(g: &mut Gen, tape: &mut Tape) -> (Var, Vec<Var>) {
    let (rows, cols) = (g.dim(), g.dim());
    let mut vars = vec![tape.input(g.tensor(rows, cols))];
    let steps = g.int_in(2, 8);
    for _ in 0..steps {
        let a = vars[g.rng().below(vars.len())];
        let b = vars[g.rng().below(vars.len())];
        let v = match g.int_in(0, 6) {
            0 => tape.add(a, b),
            1 => tape.mul(a, b),
            2 => tape.sub(a, b),
            3 => tape.tanh(a),
            4 => tape.scale(a, -1.0),
            5 => tape.scale(a, 0.5),
            _ => {
                let c = tape.constant(g.tensor(rows, cols));
                vars.push(c);
                tape.add(a, c)
            }
        };
        vars.push(v);
    }
    let last = *vars.last().expect("non-empty");
    let root = tape.sum_all(last);
    vars.push(root);
    (root, vars)
}

#[test]
fn node_order_is_topological() {
    // The whole backward pass relies on it: `backward` visits nodes in
    // reverse index order and assumes every parent has a smaller index.
    check("topological-order", 60, |g| {
        let mut tape = Tape::new();
        let (_, vars) = random_dag(g, &mut tape);
        for &v in &vars {
            for p in tape.parents(v) {
                if p.index() >= v.index() {
                    return Err(format!(
                        "node {} ({}) has parent {} ({}) with index >= its own",
                        v.index(),
                        tape.op_kind(v),
                        p.index(),
                        tape.op_kind(p)
                    ));
                }
            }
        }
        Ok(())
    });
}

#[test]
fn gradient_accumulation_is_linear() {
    // ∇(α·L₁ + β·L₂) = α·∇L₁ + β·∇L₂ — the accumulation in `add_grad`
    // must be a plain sum, with no path-order or fan-out dependence.
    check("grad-linearity", 60, |g| {
        let mut tape = Tape::new();
        let (rows, cols) = (g.dim(), g.dim());
        let x = tape.input(g.tensor(rows, cols));
        let c = tape.constant(g.tensor(rows, cols));
        let t = tape.tanh(x);
        let m = tape.mul(t, c);
        let l1 = tape.sum_all(m);
        let sq = tape.mul(x, x);
        let l2 = tape.sum_all(sq);
        let (alpha, beta) = (0.75f32, -1.25f32);
        let s1 = tape.scale(l1, alpha);
        let s2 = tape.scale(l2, beta);
        let combined = tape.add(s1, s2);

        let g1 = tape.backward(l1).get(x).cloned().ok_or("no grad for L1")?;
        let g2 = tape.backward(l2).get(x).cloned().ok_or("no grad for L2")?;
        let gc = tape
            .backward(combined)
            .get(x)
            .cloned()
            .ok_or("no grad for combined loss")?;
        let expected = g1.zip_map(&g2, |a, b| alpha * a + beta * b);
        assert_close(&gc, &expected, 1e-4, "combined gradient")
    });
}

#[test]
fn constants_and_dead_branches_get_no_gradient() {
    check("no-grad-leaves", 60, |g| {
        let mut tape = Tape::new();
        let (rows, cols) = (g.dim(), g.dim());
        let x = tape.input(g.tensor(rows, cols));
        let c = tape.constant(g.tensor(rows, cols));
        // A live branch through both, and a dead branch off to the side.
        let dead = tape.input(g.tensor(rows, cols));
        let _unused = tape.tanh(dead);
        let m = tape.mul(x, c);
        let root = tape.sum_all(m);
        let grads = tape.backward(root);
        if grads.get(c).is_some() {
            return Err("constant received a gradient".into());
        }
        if grads.get(dead).is_some() {
            return Err("leaf outside the root's ancestry received a gradient".into());
        }
        let gx = grads.get(x).ok_or("live input has no gradient")?;
        // dΣ(x⊙c)/dx = c exactly.
        assert_close(gx, tape.value(c), 1e-6, "live gradient")
    });
}

#[test]
fn add_commutes_bitwise() {
    check("add-commutes", 80, |g| {
        let (rows, cols) = (g.dim(), g.dim());
        let a = g.tensor(rows, cols);
        let b = g.tensor(rows, cols);
        if a.add(&b).data() == b.add(&a).data() {
            Ok(())
        } else {
            Err("a + b != b + a".into())
        }
    });
}

#[test]
fn matmul_distributes_over_add() {
    check("matmul-distributes", 60, |g| {
        let (m, k, n) = (g.dim(), g.dim(), g.dim());
        let a = g.tensor(m, k);
        let b = g.tensor(k, n);
        let c = g.tensor(k, n);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        assert_close(&lhs, &rhs, 1e-4, "A(B+C) vs AB+AC")
    });
}

#[test]
fn transpose_is_involution_and_reverses_matmul() {
    check("transpose-identities", 60, |g| {
        let (m, k, n) = (g.dim(), g.dim(), g.dim());
        let a = g.tensor(m, k);
        let b = g.tensor(k, n);
        if a.transpose().transpose().data() != a.data() {
            return Err("(Aᵀ)ᵀ != A".into());
        }
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        assert_close(&lhs, &rhs, 1e-4, "(AB)ᵀ vs BᵀAᵀ")
    });
}

#[test]
fn softmax_rows_are_distributions() {
    check("softmax-rows", 80, |g| {
        let (rows, cols) = (g.dim(), g.dim());
        let s = g.tensor(rows, cols).softmax_rows();
        for r in 0..rows {
            let row = s.row_slice(r);
            if !row.iter().all(|&p| (0.0..=1.0).contains(&p)) {
                return Err(format!("row {r} has an entry outside [0, 1]"));
            }
            let sum: f32 = row.iter().sum();
            if (sum - 1.0).abs() > 1e-4 {
                return Err(format!("row {r} sums to {sum}"));
            }
        }
        Ok(())
    });
}

#[test]
fn concat_slice_round_trip() {
    check("concat-slice", 60, |g| {
        let rows = g.dim();
        let (wa, wb) = (g.dim(), g.dim());
        let a = g.tensor(rows, wa);
        let b = g.tensor(rows, wb);
        let c = Tensor::concat_cols(&[&a, &b]);
        if c.slice_cols(0, wa).data() != a.data() {
            return Err("first slice != a".into());
        }
        if c.slice_cols(wa, wa + wb).data() != b.data() {
            return Err("second slice != b".into());
        }
        Ok(())
    });
}

#[test]
fn gather_rows_copies_the_indexed_rows() {
    check("gather-rows", 60, |g| {
        let (rows, cols) = (g.dim(), g.dim());
        let x = g.tensor(rows, cols);
        let n = g.int_in(1, 6);
        let idx = g.row_indices(n, rows);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let gathered = tape.gather_rows(xv, &idx);
        let got = tape.value(gathered);
        for (out_r, &src_r) in idx.iter().enumerate() {
            if got.row_slice(out_r) != x.row_slice(src_r) {
                return Err(format!("output row {out_r} != source row {src_r}"));
            }
        }
        Ok(())
    });
}

#[test]
fn grad_reverse_is_identity_forward_and_negation_backward() {
    check("grad-reverse", 60, |g| {
        let (rows, cols) = (g.dim(), g.dim());
        let x = g.tensor(rows, cols);
        let lambda = 0.25 + g.rng().unit() * 2.0;
        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let r = tape.grad_reverse(xv, lambda);
        if tape.value(r).data() != x.data() {
            return Err("grad_reverse changed the forward value".into());
        }
        let c = tape.constant(g.tensor(rows, cols));
        let m = tape.mul(r, c);
        let root = tape.sum_all(m);
        let grads = tape.backward(root);
        let gx = grads.get(xv).ok_or("no gradient through grad_reverse")?;
        // dΣ(gr(x)⊙c)/dx = −λ·c.
        let expected = tape.value(c).scale(-lambda);
        assert_close(gx, &expected, 1e-5, "reversed gradient")
    });
}
