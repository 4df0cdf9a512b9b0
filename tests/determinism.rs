//! Determinism suite for the data-parallel executor: training and
//! evaluation must be *bit-identical* for every `--workers` count.
//!
//! The contract (see DESIGN.md, "Execution model"): all stochastic
//! decisions are either drawn on the main thread in batch order (shuffles,
//! masking flags) or from per-window RNGs seeded by
//! `adaptraj_exec::window_seed`, and gradients are reduced in batch
//! position order — so the worker count only changes wall-clock, never a
//! single bit of the result.

use adaptraj::core::{AdapTraj, AdapTrajConfig};
use adaptraj::data::dataset::{synthesize_domain, SynthesisConfig};
use adaptraj::data::domain::DomainId;
use adaptraj::data::trajectory::TrajWindow;
use adaptraj::eval::{evaluate, EvalResult, WindowScore};
use adaptraj::exec::{ExecError, WorkerPool};
use adaptraj::models::{BackboneConfig, CausalMotion, PecNet, Predictor};
use adaptraj::obs::RegistryDelta;

const SOURCES: [DomainId; 2] = [DomainId::EthUcy, DomainId::LCas];

/// Serializes the tests that touch process-global state: the metrics
/// registry (`adaptraj::obs::global()`), whose counter deltas
/// `workers_1_and_4_are_bit_identical` compares and which every training
/// run advances. Every test here that trains or reads the registry holds
/// this lock for its whole body. A poisoned lock (a failed holder) is
/// taken anyway, so one failure does not cascade.
static PROCESS_GLOBALS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock_process_globals() -> std::sync::MutexGuard<'static, ()> {
    PROCESS_GLOBALS.lock().unwrap_or_else(|e| e.into_inner())
}

/// The methods whose training the bit-identity test pins: AdapTraj runs
/// the shared loop's batch-mean update through its three-step schedule,
/// CausalMotion its V-REx risk-variance update.
#[derive(Debug, Clone, Copy)]
enum Method {
    AdapTraj,
    CausalMotion,
}

/// Everything one smoke workload run produces: per-epoch losses, the
/// tensor-op counter deltas of the fit, and the mean and per-window
/// scores of a small evaluation pass.
type Workload = (Vec<f32>, RegistryDelta, EvalResult, Vec<WindowScore>);

/// Trains the PECNet smoke workload of `method` with the given worker
/// count and evaluates it with the same worker count.
fn run_smoke_workload(method: Method, workers: usize) -> Workload {
    let synth = SynthesisConfig::smoke();
    let mut train = Vec::new();
    for &s in &SOURCES {
        train.extend(synthesize_domain(s, &synth).train);
    }
    let target = synthesize_domain(DomainId::Sdd, &synth);

    let mut cfg = AdapTrajConfig::smoke();
    cfg.trainer.epochs = 3;
    cfg.trainer.max_train_windows = 24;
    cfg.trainer.workers = workers;
    let mut model: Box<dyn Predictor> = match method {
        Method::AdapTraj => Box::new(AdapTraj::new(cfg, &SOURCES, |s, r, extra| {
            PecNet::new(s, r, BackboneConfig::default().with_extra(extra))
        })),
        Method::CausalMotion => Box::new(CausalMotion::new(cfg.trainer, |s, r| {
            PecNet::new(s, r, BackboneConfig::default())
        })),
    };

    let before = adaptraj::obs::global().snapshot();
    let report = model.fit(&train);
    let delta = adaptraj::obs::global().snapshot().since(&before);

    let test: Vec<&TrajWindow> = target.test.iter().take(10).collect();
    let (eval, windows) = evaluate(model.as_ref(), &test, 2, 99, workers);
    (report.epoch_losses, delta, eval, windows)
}

#[test]
fn workers_1_and_4_are_bit_identical() {
    let _guard = lock_process_globals();
    for method in [Method::AdapTraj, Method::CausalMotion] {
        let (losses_1, delta_1, eval_1, windows_1) = run_smoke_workload(method, 1);
        let (losses_4, delta_4, eval_4, windows_4) = run_smoke_workload(method, 4);

        // Per-epoch training losses, down to the last bit.
        assert_eq!(losses_1.len(), losses_4.len(), "{method:?}");
        for (e, (a, b)) in losses_1.iter().zip(&losses_4).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{method:?} epoch {e} loss differs: workers=1 -> {a}, workers=4 -> {b}"
            );
        }

        // The same tape work happened: identical backward passes (one per
        // batched job), identical node counts, and identical windows
        // dispatched (the counter bench throughput derives from).
        // Histogram *counts* must match too; sums are wall-clock and may
        // not.
        for counter in [
            "tensor.backward_calls",
            "tensor.tape_nodes_total",
            "exec.windows_trained",
        ] {
            assert_eq!(
                delta_1.counter(counter),
                delta_4.counter(counter),
                "{method:?}: counter {counter} differs across worker counts"
            );
        }
        assert_eq!(
            delta_1.hist_count("tensor.backward_ms"),
            delta_4.hist_count("tensor.backward_ms"),
            "{method:?}: backward histogram count differs across worker counts"
        );

        // Evaluation: parallel ADE/FDE reduce to the same bits.
        assert_eq!(
            eval_1.ade.to_bits(),
            eval_4.ade.to_bits(),
            "{method:?}: ADE differs"
        );
        assert_eq!(
            eval_1.fde.to_bits(),
            eval_4.fde.to_bits(),
            "{method:?}: FDE differs"
        );
        // And so does every window's score, first sample included.
        let bits = |w: &[WindowScore]| -> Vec<([u32; 4], bool, bool)> {
            w.iter()
                .map(|s| {
                    let errors = [s.best_ade, s.best_fde, s.ade, s.fde].map(f32::to_bits);
                    (errors, s.collides, s.misses)
                })
                .collect()
        };
        assert_eq!(
            bits(&windows_1),
            bits(&windows_4),
            "{method:?}: per-window scores differ"
        );
    }
}

#[test]
fn poisoned_worker_reports_clean_error_and_pool_shuts_down() {
    let pool = WorkerPool::new(4);
    let items: Vec<usize> = (0..16).collect();

    // A panicking job must surface as a clean Err (not a deadlock, not a
    // poisoned mutex), identifying the first failing item by index.
    let err = pool
        .map(&items, |_, &i| {
            if i == 7 {
                panic!("poisoned window {i}");
            }
            i * 2
        })
        .unwrap_err();
    let ExecError::JobPanicked { index, message } = err;
    assert_eq!(index, 7);
    assert!(message.contains("poisoned window 7"), "message: {message}");

    // The pool survives the panic and keeps serving jobs.
    let ok = pool.map(&items, |_, &i| i + 1).expect("pool still usable");
    assert_eq!(ok, (1..=16).collect::<Vec<usize>>());

    // Dropping joins all workers; returning from this test proves the
    // shutdown path does not hang.
    drop(pool);
}
