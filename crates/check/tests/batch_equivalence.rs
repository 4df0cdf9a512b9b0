//! Mask correctness and batched-vs-per-window equivalence for the batched
//! `WindowBatch` execution path.
//!
//! Two layers of evidence back the batched redesign:
//!
//! * **Mechanism properties** (through `adaptraj_check::prop`): the padded
//!   slot grid's two masking devices — the `PAD_BIAS` additive softmax
//!   bias of the attention path and the 0/1 multiplicative mask of the
//!   mean-pool path — produce *exactly* zero weight and *exactly* zero
//!   gradient at every pad slot, not merely small values. This is the
//!   "padding provably contributes zero gradient" claim of the layout
//!   contract (`crates/data/src/batch.rs`).
//! * **Configuration equivalence**: for each backbone under vanilla
//!   training (pecnet/lbebm), pecnet under CausalMotion's per-environment
//!   risk and pecnet under AdapTraj's three-step objective, the batched
//!   loss over a ragged multi-window
//!   batch equals the mean of the batch-of-one losses up to float
//!   re-association — the equivalence demonstrated before the goldens
//!   were regenerated.
//!
//! Ragged batches here always include a 1-agent (zero-neighbor) window so
//! the maximally padded case is exercised everywhere.

use adaptraj_check::gradcheck::{grad_check, GradCheckConfig};
use adaptraj_check::prop::{check, Gen};
use adaptraj_core::{AdapTraj, AdapTrajConfig};
use adaptraj_data::batch::keyed_jobs;
use adaptraj_data::domain::DomainId;
use adaptraj_data::trajectory::{Point, TrajWindow, T_OBS, T_TOTAL};
use adaptraj_data::WindowBatch;
use adaptraj_models::backbone::{InteractionKind, SceneEncoder, PAD_BIAS};
use adaptraj_models::config::TrainerConfig;
use adaptraj_models::{
    Backbone, BackboneConfig, CausalMotion, Counter, ForwardCtx, Lbebm, PecNet, Predictor, Vanilla,
};
use adaptraj_tensor::{ParamId, ParamStore, Rng, Tape, Tensor};

// ---------------------------------------------------------------------------
// Mechanism properties: pad slots are exact zeros in value and gradient.
// ---------------------------------------------------------------------------

/// Random `[B, A_max]` validity grid with slot 0 of every window valid
/// (the focal agent always occupies the first slot) and at least one pad
/// slot overall; `None` when the draw comes out fully packed.
fn random_validity(g: &mut Gen, b: usize, a_max: usize) -> Option<Vec<bool>> {
    let mut valid = Vec::with_capacity(b * a_max);
    for _ in 0..b {
        // Slot 0 (focal) is always valid.
        valid.push(true);
        valid.extend((1..a_max).map(|_| g.rng().below(2) == 0));
    }
    if valid.iter().all(|&ok| ok) {
        None
    } else {
        Some(valid)
    }
}

#[test]
fn padded_slot_attention_weight_and_gradient_are_exactly_zero() {
    // The attention path's masked softmax, extracted verbatim from
    // `SceneEncoder::encode`: scores + PAD_BIAS → softmax → broadcast →
    // weighted slot values → per-window reduction. After the row-max
    // subtraction inside softmax, exp(PAD_BIAS) underflows to exactly 0.0
    // in f32, so pad weights are exact zeros and the softmax backward
    // `y ⊙ (g − y·g)` as well as the value-side product gradient are
    // exact zeros too.
    check("pad-attention-exact-zero", 80, |g| {
        let b = g.dim();
        let a_max = g.int_in(2, g.size + 1);
        let d = g.dim();
        let valid = match random_validity(g, b, a_max) {
            Some(v) => v,
            None => return Ok(()),
        };
        let mut tape = Tape::new();
        let scores = tape.input(g.tensor(b, a_max));
        let values = tape.input(g.tensor(b * a_max, d));
        let bias: Vec<f32> = valid
            .iter()
            .map(|&ok| if ok { 0.0 } else { PAD_BIAS })
            .collect();
        let bt = tape.constant(Tensor::from_vec(b, a_max, bias));
        let biased = tape.add(scores, bt);
        let attn = tape.softmax_rows(biased);
        let attn_col = tape.reshape(attn, b * a_max, 1);
        let ones_row = tape.constant(Tensor::ones(1, d));
        let attn_b = tape.matmul(attn_col, ones_row);
        let weighted = tape.mul(attn_b, values);
        let pooled = tape.sum_row_groups(weighted, a_max);
        let root = tape.sum_all(pooled);

        let attn_v = tape.value(attn).clone();
        let grads = tape.backward(root);
        let g_values = grads.expect(values);
        let g_scores = grads.expect(scores);
        for (slot, &ok) in valid.iter().enumerate() {
            if ok {
                continue;
            }
            let (r, c) = (slot / a_max, slot % a_max);
            if attn_v.at(r, c) != 0.0 {
                return Err(format!(
                    "pad weight ({r},{c}) = {} — not exactly zero",
                    attn_v.at(r, c)
                ));
            }
            if g_scores.at(r, c) != 0.0 {
                return Err(format!(
                    "score gradient at pad slot ({r},{c}) = {} — not exactly zero",
                    g_scores.at(r, c)
                ));
            }
            for k in 0..d {
                if g_values.at(slot, k) != 0.0 {
                    return Err(format!(
                        "value gradient at pad slot {slot} col {k} = {} — not exactly zero",
                        g_values.at(slot, k)
                    ));
                }
            }
        }
        Ok(())
    });
}

#[test]
fn padded_slot_meanpool_mask_gradient_is_exactly_zero() {
    // The mean-pool path's multiplicative mask: a 0/1 Hadamard constant
    // before the per-window slot reduction. The backward of a constant
    // Hadamard is the same mask, so gradients at pad slots are exact
    // zeros regardless of the downstream scaling.
    check("pad-meanpool-exact-zero", 80, |g| {
        let b = g.dim();
        let a_max = g.int_in(2, g.size + 1);
        let d = g.dim();
        let valid = match random_validity(g, b, a_max) {
            Some(v) => v,
            None => return Ok(()),
        };
        let mut tape = Tape::new();
        let slots = tape.input(g.tensor(b * a_max, d));
        let mut mask = Vec::with_capacity(b * a_max * d);
        for &ok in &valid {
            let m = if ok { 1.0 } else { 0.0 };
            mask.extend(std::iter::repeat_n(m, d));
        }
        let masked = tape.hadamard_const(slots, Tensor::from_vec(b * a_max, d, mask));
        let pooled = tape.sum_row_groups(masked, a_max);
        // Downstream per-window 1/agents scaling, as in the encoder.
        let scaled = tape.scale(pooled, 0.25);
        let root = tape.sum_all(scaled);

        let pooled_v = tape.value(masked).clone();
        let grads = tape.backward(root);
        let g_slots = grads.expect(slots);
        for (slot, &ok) in valid.iter().enumerate() {
            if ok {
                continue;
            }
            for k in 0..d {
                if pooled_v.at(slot, k) != 0.0 {
                    return Err(format!(
                        "masked value at pad slot {slot} col {k} = {} — not exactly zero",
                        pooled_v.at(slot, k)
                    ));
                }
                if g_slots.at(slot, k) != 0.0 {
                    return Err(format!(
                        "gradient at pad slot {slot} col {k} = {} — not exactly zero",
                        g_slots.at(slot, k)
                    ));
                }
            }
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// Ragged-batch FD check of the real encoder.
// ---------------------------------------------------------------------------

/// Deterministic window with `neighbors` neighbors; `neighbors == 0`
/// yields a 1-agent window (focal only), the maximally padded case.
fn window(v: f32, neighbors: usize, domain: DomainId) -> TrajWindow {
    let focal: Vec<Point> = (0..T_TOTAL)
        .map(|t| [v * t as f32, 0.1 * (t as f32).sin()])
        .collect();
    let nb: Vec<Vec<Point>> = (0..neighbors)
        .map(|k| {
            (0..T_OBS)
                .map(|t| {
                    [
                        0.5 + 0.8 * v * t as f32,
                        0.4 * (k + 1) as f32 - 0.05 * t as f32,
                    ]
                })
                .collect()
        })
        .collect();
    TrajWindow::from_world(&focal, &nb, domain)
}

/// Ragged three-window batch: 2 neighbors, none (1-agent), 3 neighbors.
fn ragged_windows(domain: DomainId) -> Vec<TrajWindow> {
    vec![
        window(0.30, 2, domain),
        window(0.45, 0, domain),
        window(0.25, 3, domain),
    ]
}

#[test]
fn ragged_batch_encode_gradients_match_fd() {
    // Central finite differences through the full encoder on a ragged
    // batch (including a 1-agent window), for both interaction kinds: the
    // gather/reshape/sum-row-groups plumbing and the pad masking must be
    // differentiated exactly.
    let cfg = GradCheckConfig {
        eps: 2e-3,
        tol: 2e-2,
        max_per_param: 4,
    };
    for kind in [InteractionKind::Attention, InteractionKind::MeanPool] {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(31);
        let bcfg = BackboneConfig {
            embed_dim: 4,
            hidden_dim: 6,
            inter_dim: 6,
            ..BackboneConfig::default()
        };
        let enc = SceneEncoder::new(&mut store, &mut rng, "rb", &bcfg, kind);
        // Move relu preactivations off the kink (see model_grads.rs).
        let ids: Vec<ParamId> = store.ids().collect();
        let mut jrng = Rng::seed_from(133);
        for id in ids {
            for v in store.value_mut(id).data_mut() {
                *v += jrng.uniform(-0.08, 0.08);
            }
        }
        let ws = ragged_windows(DomainId::EthUcy);
        grad_check(
            &mut store,
            |s| {
                let batch = WindowBatch::new(ws.iter().collect(), vec![0, 1, 2]);
                let mut tape = Tape::new();
                let scene = enc.encode(s, &mut tape, &batch);
                let sp = tape.sum_all(scene.p_i);
                let sh = tape.sum_all(scene.h_focal);
                let loss = tape.add(sp, sh);
                let v = tape.value(loss).item() as f64;
                let g = tape.backward(loss);
                (v, tape.param_grads(&g))
            },
            &cfg,
        )
        .assert_ok(&format!("ragged encode ({kind:?})"));
    }
}

// ---------------------------------------------------------------------------
// Batched-vs-per-window equivalence, one test per golden configuration.
// ---------------------------------------------------------------------------

/// Per-window rng seed: must match between the batched pass (rng `b`
/// seeded for window `b`) and that window's batch-of-one pass.
fn wseed(i: usize) -> u64 {
    900 + i as u64
}

fn batched_loss<B: Backbone>(
    model: &B,
    store: &ParamStore,
    ws: &[&TrajWindow],
    ids: &[u64],
) -> f32 {
    let batch = WindowBatch::new(ws.to_vec(), ids.to_vec());
    let mut rngs: Vec<Rng> = ids
        .iter()
        .map(|&id| Rng::seed_from(wseed(id as usize)))
        .collect();
    let mut tape = Tape::new();
    let mut ctx = ForwardCtx::train(store, &mut tape, &mut rngs);
    let (_, loss) = model.train_forward(&mut ctx, &batch, None);
    tape.value(loss).item()
}

fn single_loss<B: Backbone>(model: &B, store: &ParamStore, w: &TrajWindow, i: usize) -> f32 {
    let batch = WindowBatch::single(w, i as u64);
    let mut rng = Rng::seed_from(wseed(i));
    let mut tape = Tape::new();
    let mut ctx = ForwardCtx::train(store, &mut tape, std::slice::from_mut(&mut rng));
    let (_, loss) = model.train_forward(&mut ctx, &batch, None);
    tape.value(loss).item()
}

/// `|batched − mean(singles)| ≤ tol·(1 + |mean|)` — float re-association
/// across the batched GEMMs is the only permitted difference.
fn assert_equiv(label: &str, batched: f32, singles: &[f32]) {
    let mean = singles.iter().sum::<f32>() / singles.len() as f32;
    assert!(
        (batched - mean).abs() <= 1e-4 * (1.0 + mean.abs()),
        "{label}: batched loss {batched} vs per-window mean {mean} (singles {singles:?})"
    );
}

fn vanilla_equivalence<B: Backbone>(label: &str, model: &B, store: &ParamStore) {
    let ws = ragged_windows(DomainId::EthUcy);
    let refs: Vec<&TrajWindow> = ws.iter().collect();
    let batched = batched_loss(model, store, &refs, &[0, 1, 2]);
    let singles: Vec<f32> = ws
        .iter()
        .enumerate()
        .map(|(i, w)| single_loss(model, store, w, i))
        .collect();
    assert_equiv(label, batched, &singles);
}

#[test]
fn pecnet_vanilla_batched_loss_matches_per_window_mean() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(11);
    let model = PecNet::new(&mut store, &mut rng, BackboneConfig::default());
    vanilla_equivalence("pecnet-vanilla", &model, &store);
}

#[test]
fn lbebm_vanilla_batched_loss_matches_per_window_mean() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(12);
    let model = Lbebm::new(&mut store, &mut rng, BackboneConfig::default());
    vanilla_equivalence("lbebm-vanilla", &model, &store);
}

#[test]
fn pecnet_causalmotion_risk_reduction_matches_per_window_mean() {
    // CausalMotion's per-environment risk: windows split into
    // domain-homogeneous jobs via `keyed_jobs`, each job's batched loss
    // reduced with weight |job|/n. The job-weighted sum must equal the
    // per-window mean — the identity the V-REx risks rely on.
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(14);
    let model = PecNet::new(&mut store, &mut rng, BackboneConfig::default());
    // Mixed domains, interleaved, ragged — and a cap of 2 to force
    // several jobs per domain group.
    let ws = [
        window(0.30, 2, DomainId::EthUcy),
        window(0.45, 0, DomainId::LCas),
        window(0.25, 3, DomainId::EthUcy),
        window(0.35, 1, DomainId::LCas),
        window(0.40, 0, DomainId::EthUcy),
    ];
    let keys: Vec<DomainId> = ws.iter().map(|w| w.domain).collect();
    let mut weighted = 0.0f32;
    for pos in keyed_jobs(&keys, 2) {
        let job: Vec<&TrajWindow> = pos.iter().map(|&p| &ws[p]).collect();
        let ids: Vec<u64> = pos.iter().map(|&p| p as u64).collect();
        let loss = batched_loss(&model, &store, &job, &ids);
        weighted += loss * pos.len() as f32 / ws.len() as f32;
    }
    let singles: Vec<f32> = ws
        .iter()
        .enumerate()
        .map(|(i, w)| single_loss(&model, &store, w, i))
        .collect();
    assert_equiv("pecnet-causalmotion risk", weighted, &singles);
}

#[test]
fn pecnet_adaptraj_batched_training_loss_matches_per_window_mean() {
    // The full three-step objective on both loss surfaces the schedule
    // optimizes: the expert path at δ and the masked path at δ′
    // (model.rs::fit). Batches must be domain-homogeneous, so all
    // windows share a domain.
    let mut cfg = AdapTrajConfig::smoke();
    cfg.feat_dim = 4;
    cfg.fused_dim = 4;
    let delta = cfg.delta;
    let delta_prime = cfg.delta_prime;
    let model = AdapTraj::new(cfg, &[DomainId::EthUcy, DomainId::LCas], |s, r, extra| {
        PecNet::new(
            s,
            r,
            BackboneConfig {
                embed_dim: 4,
                hidden_dim: 6,
                inter_dim: 6,
                dec_hidden: 6,
                z_dim: 3,
                ..BackboneConfig::default()
            }
            .with_extra(extra),
        )
    });
    let ws = ragged_windows(DomainId::LCas);
    for (label, masked, d) in [
        ("adaptraj expert path", false, delta),
        ("adaptraj masked path", true, delta_prime),
    ] {
        let eval = |subset: Vec<&TrajWindow>, ids: Vec<u64>| -> f32 {
            let batch = WindowBatch::new(subset, ids.clone());
            let mut rngs: Vec<Rng> = ids
                .iter()
                .map(|&id| Rng::seed_from(wseed(id as usize)))
                .collect();
            let mut tape = Tape::new();
            let mut ctx = ForwardCtx::train(model.store(), &mut tape, &mut rngs);
            let loss = model.batch_training_loss(&mut ctx, &batch, masked, d);
            tape.value(loss).item()
        };
        let batched = eval(ws.iter().collect(), vec![0, 1, 2]);
        let singles: Vec<f32> = ws
            .iter()
            .enumerate()
            .map(|(i, w)| eval(vec![w], vec![i as u64]))
            .collect();
        assert_equiv(label, batched, &singles);
    }
}

// ---------------------------------------------------------------------------
// Batched inference bit-identity: the serving contract.
// ---------------------------------------------------------------------------
//
// `Predictor::sample` over a coalesced batch must reproduce the
// per-window `predict` calls *bit for bit* — this is what lets
// `adaptraj-serve` micro-batch concurrent requests into one tape pass
// while honoring the offline-eval bit-identity contract. Unlike the loss
// equivalence above (batch-mean reductions re-associate), predictions are
// per-window rows with no cross-window reduction, so exact equality is
// required, not tolerance.

/// Ragged, mixed-domain windows: 1-agent (maximally padded), and domains
/// interleaved so a coalesced batch is domain-heterogeneous.
fn serving_windows() -> Vec<TrajWindow> {
    vec![
        window(0.30, 2, DomainId::EthUcy),
        window(0.45, 0, DomainId::LCas),
        window(0.25, 3, DomainId::EthUcy),
        window(0.35, 1, DomainId::Sdd),
        window(0.40, 4, DomainId::LCas),
    ]
}

fn assert_same_track(label: &str, got: &[Point], want: &[Point]) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (t, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g[0].to_bits() == w[0].to_bits() && g[1].to_bits() == w[1].to_bits(),
            "{label} step {t}: batched {g:?} != single {w:?}"
        );
    }
}

/// One-sample batched calls over the five ragged windows equal
/// per-window `predict` calls, and consecutive calls continue the
/// per-window streams.
fn assert_sample_bit_identical(label: &str, model: &dyn Predictor) {
    let ws = serving_windows();
    let batch = WindowBatch::new(ws.iter().collect(), (0..ws.len() as u64).collect());
    let mut batch_rngs: Vec<Rng> = (0..ws.len()).map(|i| Rng::seed_from(wseed(i))).collect();
    // Two consecutive batched samples: streams must continue exactly as
    // per-window `predict` continues them.
    let mut one_sample = || -> Vec<Vec<Point>> {
        model
            .sample(&batch, &mut batch_rngs, 1)
            .into_iter()
            .map(|mut s| s.remove(0))
            .collect()
    };
    let got0 = one_sample();
    let got1 = one_sample();
    for (i, w) in ws.iter().enumerate() {
        let mut rng = Rng::seed_from(wseed(i));
        let want0 = model.predict(w, &mut rng);
        let want1 = model.predict(w, &mut rng);
        for (s, (got, want)) in [(&got0[i], &want0), (&got1[i], &want1)]
            .into_iter()
            .enumerate()
        {
            assert_same_track(&format!("{label}: window {i} sample {s}"), got, want);
        }
    }
}

#[test]
fn sample_bit_identical_vanilla_pecnet() {
    assert_sample_bit_identical("pecnet-vanilla", &vanilla_pecnet());
}

#[test]
fn sample_bit_identical_vanilla_lbebm() {
    assert_sample_bit_identical("lbebm-vanilla", &vanilla_lbebm());
}

#[test]
fn sample_bit_identical_counter() {
    assert_sample_bit_identical("pecnet-counter", &counter_pecnet());
}

#[test]
fn sample_bit_identical_causalmotion() {
    assert_sample_bit_identical("pecnet-causalmotion", &causalmotion_pecnet());
}

#[test]
fn sample_bit_identical_adaptraj() {
    assert_sample_bit_identical("pecnet-adaptraj", &adaptraj_pecnet());
}

fn vanilla_pecnet() -> Vanilla<PecNet> {
    Vanilla::new(TrainerConfig::smoke(), |s, r| {
        PecNet::new(s, r, BackboneConfig::default())
    })
}

fn vanilla_lbebm() -> Vanilla<Lbebm> {
    Vanilla::new(TrainerConfig::smoke(), |s, r| {
        Lbebm::new(s, r, BackboneConfig::default())
    })
}

fn counter_pecnet() -> Counter<PecNet> {
    Counter::new(TrainerConfig::smoke(), |s, r| {
        PecNet::new(s, r, BackboneConfig::default())
    })
}

fn causalmotion_pecnet() -> CausalMotion<PecNet> {
    CausalMotion::new(TrainerConfig::smoke(), |s, r| {
        PecNet::new(s, r, BackboneConfig::default())
    })
}

fn adaptraj_pecnet() -> AdapTraj<PecNet> {
    AdapTraj::new(
        AdapTrajConfig::smoke(),
        &[DomainId::EthUcy, DomainId::LCas],
        |s, r, extra| PecNet::new(s, r, BackboneConfig::default().with_extra(extra)),
    )
}

fn adaptraj_lbebm() -> AdapTraj<Lbebm> {
    AdapTraj::new(
        AdapTrajConfig::smoke(),
        &[DomainId::EthUcy, DomainId::LCas],
        |s, r, extra| Lbebm::new(s, r, BackboneConfig::default().with_extra(extra)),
    )
}

fn counter_lbebm() -> Counter<Lbebm> {
    Counter::new(TrainerConfig::smoke(), |s, r| {
        Lbebm::new(s, r, BackboneConfig::default())
    })
}

// ---------------------------------------------------------------------------
// Encode once, sample k: `sample(batch, rngs, k)`, one stacked pass of
// k·B rows, is k successive `predict` calls per window.
// ---------------------------------------------------------------------------

/// For a lone window and for the five ragged mixed-domain windows, and
/// for k ∈ {0, 1, 3, 20}: window `b`'s `k` samples equal `k` successive
/// `predict` calls on its rng bit for bit, and every rng ends in the same
/// state (its next draw agrees).
fn assert_sample_k_matches_repeated_predict(label: &str, model: &dyn Predictor) {
    let ws = serving_windows();
    for b in [1, ws.len()] {
        let batch = WindowBatch::new(ws[..b].iter().collect(), (0..b as u64).collect());
        for k in [0, 1, 3, 20] {
            let mut rngs: Vec<Rng> = (0..b).map(|i| Rng::seed_from(wseed(i))).collect();
            let got = model.sample(&batch, &mut rngs, k);
            assert_eq!(got.len(), b, "{label}: B={b} k={k}: one entry per window");
            for (i, w) in ws[..b].iter().enumerate() {
                let mut rng = Rng::seed_from(wseed(i));
                assert_eq!(
                    got[i].len(),
                    k,
                    "{label}: B={b} k={k} window {i}: sample count"
                );
                for (j, track) in got[i].iter().enumerate() {
                    let want = model.predict(w, &mut rng);
                    assert_same_track(
                        &format!("{label}: B={b} k={k} window {i} sample {j}"),
                        track,
                        &want,
                    );
                }
                // Same end state: the next raw draw and the next normal
                // deviate (which exposes a cached Box–Muller spare) agree.
                assert_eq!(
                    rngs[i].next_u64(),
                    rng.next_u64(),
                    "{label}: B={b} k={k} window {i}: rng end state"
                );
                assert_eq!(
                    rngs[i].standard_normal().to_bits(),
                    rng.standard_normal().to_bits(),
                    "{label}: B={b} k={k} window {i}: rng spare normal"
                );
            }
        }
    }
}

#[test]
fn sample_k_matches_repeated_predict_all_configurations() {
    assert_sample_k_matches_repeated_predict("pecnet-vanilla", &vanilla_pecnet());
    assert_sample_k_matches_repeated_predict("lbebm-vanilla", &vanilla_lbebm());
    assert_sample_k_matches_repeated_predict("pecnet-counter", &counter_pecnet());
    assert_sample_k_matches_repeated_predict("pecnet-causalmotion", &causalmotion_pecnet());
    assert_sample_k_matches_repeated_predict("pecnet-adaptraj", &adaptraj_pecnet());
    assert_sample_k_matches_repeated_predict("lbebm-adaptraj", &adaptraj_lbebm());
    assert_sample_k_matches_repeated_predict("lbebm-counter", &counter_lbebm());
}
