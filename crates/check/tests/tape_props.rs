//! Randomized tape invariants and algebraic identities, run through the
//! offline `adaptraj_check::prop` harness so they execute in the default
//! `cargo test`.
//!
//! Three structural invariants of the autodiff engine, then the key
//! algebraic properties of the tape ops.

use adaptraj_check::prop::{assert_close, check, Gen};
use adaptraj_tensor::{pool, with_pooled, BufferPool, Tape, Tensor, Var};

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
            4 => tape.neg(a),
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

#[test]
fn buffer_pool_retains_capacity_and_zeroes_reused_buffers() {
    // The pool must never leak one window's data into the next: a
    // `take_zeroed` that is served from the free list has to come back
    // fully zeroed regardless of what the retired buffer held, and the
    // retired capacity has to actually be retained (that is the whole
    // point of pooling).
    check("pool-reuse", 60, |g| {
        let mut pool = BufferPool::new();
        let len = g.int_in(1, 2048);
        let garbage: Vec<f32> = (0..len).map(|i| 1.0 + i as f32).collect();
        let cap = garbage.capacity();
        pool.give(garbage);
        if pool.free_buffers() != 1 {
            return Err("retired buffer was not retained".into());
        }
        let take = g.int_in(1, len);
        let buf = pool.take_zeroed(take);
        if buf.len() != take {
            return Err(format!("take_zeroed({take}) returned len {}", buf.len()));
        }
        if buf.capacity() < cap.min(take) {
            return Err("reused buffer lost its retired capacity".into());
        }
        if buf.iter().any(|&v| v != 0.0) {
            return Err("reused buffer carries stale data".into());
        }
        let stats = pool.stats();
        if stats.reuse_hits != 1 {
            return Err(format!("expected 1 reuse hit, got {}", stats.reuse_hits));
        }
        if stats.bytes_reused != 4 * take as u64 {
            return Err(format!(
                "expected {} bytes reused, got {}",
                4 * take,
                stats.bytes_reused
            ));
        }
        // Retire it again: the free list grows back and the capacity
        // survives a second round trip.
        pool.give(buf);
        let again = pool.take_empty(take);
        if again.capacity() < take {
            return Err("second reuse lost capacity".into());
        }
        Ok(())
    });
}

#[test]
fn tape_reset_reuses_buffers_without_stale_gradients() {
    // `Tape::reset` retires every node buffer into the thread pool; the
    // next window is then served from those recycled buffers. Rebuilding
    // the identical graph after a reset must give bit-identical values
    // and gradients — any deviation means a pooled buffer leaked state.
    check("reset-no-stale-grads", 40, |g| {
        let (rows, cols) = (g.dim(), g.dim());
        let x = g.tensor(rows, cols);
        let c = g.tensor(rows, cols);
        let build = |tape: &mut Tape| {
            let xv = tape.input(x.clone());
            let cv = tape.constant(c.clone());
            let t = tape.tanh(xv);
            let m = tape.mul(t, cv);
            let s = tape.softmax_rows(m);
            let root = tape.sum_all(s);
            (xv, root)
        };
        let mut tape = Tape::new();
        let (xv, root) = build(&mut tape);
        let val1 = tape.value(root).item();
        let grads = tape.backward(root);
        let g1 = grads.get(xv).cloned().ok_or("no grad before reset")?;
        grads.recycle();
        tape.reset();

        let (xv2, root2) = build(&mut tape);
        let val2 = tape.value(root2).item();
        if val1.to_bits() != val2.to_bits() {
            return Err(format!("value drifted across reset: {val1} vs {val2}"));
        }
        let g2 = tape
            .backward(root2)
            .get(xv2)
            .cloned()
            .ok_or("no grad after reset")?;
        if g1.data() != g2.data() {
            return Err("gradient drifted across reset (stale pooled buffer)".into());
        }
        Ok(())
    });
}

#[test]
fn pooled_tape_serves_repeat_windows_from_the_free_list() {
    // Steady-state contract of `with_pooled`: after the first window has
    // retired its buffers, later identical windows are served from the
    // pool (reuse hits climb) and still produce bit-identical outputs.
    let x = Tensor::from_vec(4, 6, (0..24).map(|i| (i as f32 * 0.37).sin()).collect());
    let w = Tensor::from_vec(6, 3, (0..18).map(|i| (i as f32 * 0.11).cos()).collect());
    let run = || {
        with_pooled(|tape| {
            let xv = tape.input(x.clone());
            let wv = tape.constant(w.clone());
            let h = tape.matmul(xv, wv);
            let t = tape.tanh(h);
            let root = tape.sum_all(t);
            let val = tape.value(root).item();
            let grads = tape.backward(root);
            let gx = grads.expect(xv).clone();
            grads.recycle();
            (val, gx)
        })
    };
    let (v1, g1) = run();
    let before = pool::thread_stats();
    let (v2, g2) = run();
    let after = pool::thread_stats();
    assert_eq!(v1.to_bits(), v2.to_bits(), "value must not drift");
    assert_eq!(g1, g2, "gradient must not drift");
    assert!(
        after.reuse_hits > before.reuse_hits,
        "second window should reuse retired buffers ({before:?} -> {after:?})"
    );
}
