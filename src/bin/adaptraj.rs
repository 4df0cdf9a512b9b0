//! The `adaptraj` command-line tool: synthesize datasets, inspect domain
//! statistics, train/evaluate experiment cells, and render predictions.
//!
//! ```sh
//! cargo run --release --bin adaptraj -- help
//! cargo run --release --bin adaptraj -- run --backbone pecnet --method adaptraj \
//!     --sources eth_ucy,l_cas,syi --target sdd
//! ```

use adaptraj::check::{compare, load_baselines, run_all_goldens, write_doc};
use adaptraj::cli::{parse, Command, USAGE};
use adaptraj::data::dataset::{synthesize_all, synthesize_domain, SynthesisConfig};
use adaptraj::data::domain::DomainId;
use adaptraj::data::io::write_csv;
use adaptraj::data::stats::table_one;
use adaptraj::doctor::{run_doctor, DoctorArgs};
use adaptraj::eval::viz::{render_window, VizOptions};
use adaptraj::eval::{run_cell, CellSpec, RunnerConfig, TextTable};
use adaptraj::models::predictor::TrainReport;
use adaptraj::models::{BackboneConfig, PecNet, Predictor, TrainerConfig, Vanilla};
use adaptraj::obs::serve::TelemetryServer;
use adaptraj::obs::{health, profile, timeline};
use adaptraj::obs::{EvalSummary, JsonlSink, RunTelemetry, StderrSink};
use adaptraj::tensor::serialize::{load_params_from_file, save_params_to_file};
use adaptraj::tensor::Rng;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(cmd) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--update-golden` overwrites committed baselines, so it refuses to run
/// on a dirty tree: an accidental rewrite mixed into unrelated edits would
/// launder real drift into the baseline. `ADAPTRAJ_UPDATE_GOLDEN_ALLOW_DIRTY=1`
/// overrides (needed once, to bootstrap the first baselines). If `git` is
/// unavailable the update proceeds — the gate is advisory, not load-bearing.
fn ensure_clean_tree_for_golden_update() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::var_os("ADAPTRAJ_UPDATE_GOLDEN_ALLOW_DIRTY").is_some_and(|v| v == "1") {
        eprintln!("warning: updating golden baselines with a dirty working tree (override set)");
        return Ok(());
    }
    let Ok(out) = std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
    else {
        return Ok(());
    };
    if out.status.success() && !out.stdout.is_empty() {
        return Err(
            "refusing --update-golden: the working tree has uncommitted changes \
             (commit or stash them first, or set ADAPTRAJ_UPDATE_GOLDEN_ALLOW_DIRTY=1)"
                .into(),
        );
    }
    Ok(())
}

/// Binds the live telemetry endpoint when `--telemetry-addr` was given.
/// The returned server keeps serving until dropped.
fn start_telemetry(
    addr: &Option<String>,
) -> Result<Option<TelemetryServer>, Box<dyn std::error::Error>> {
    let Some(addr) = addr else { return Ok(None) };
    let server =
        TelemetryServer::start(addr).map_err(|e| format!("--telemetry-addr {addr}: {e}"))?;
    println!(
        "telemetry endpoint on http://{} (GET /metrics /healthz /profile)",
        server.local_addr()
    );
    Ok(Some(server))
}

/// Writes the flight-recorder capture: Chrome trace JSON at `path` plus
/// profiler-derived folded stacks at `path.folded`.
fn write_trace(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let snap = timeline::snapshot();
    std::fs::write(path, snap.to_chrome_trace())?;
    let folded_path = format!("{path}.folded");
    std::fs::write(&folded_path, timeline::folded_stacks(&profile::snapshot()))?;
    println!(
        "flight-recorder trace written to {path} ({} spans across {} lanes; \
         folded stacks in {folded_path})",
        snap.len(),
        snap.lanes.len()
    );
    Ok(())
}

fn run(cmd: Command) -> Result<(), Box<dyn std::error::Error>> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
        }
        Command::Synthesize {
            domain,
            scenes,
            out,
        } => {
            let cfg = SynthesisConfig {
                scenes,
                ..SynthesisConfig::default()
            };
            let ds = synthesize_domain(domain, &cfg);
            println!(
                "{}: train {} / val {} / test {} windows",
                domain.name(),
                ds.train.len(),
                ds.val.len(),
                ds.test.len()
            );
            if let Some(path) = out {
                let mut f = std::fs::File::create(&path)?;
                write_csv(&ds.train, &mut f)?;
                println!("training split exported to {path}");
            }
        }
        Command::Stats { scenes } => {
            let cfg = SynthesisConfig {
                scenes,
                ..SynthesisConfig::default()
            };
            let mut table =
                TextTable::new(&["Dataset", "#seq", "num", "v(x)", "v(y)", "a(x)", "a(y)"]);
            for d in DomainId::ALL {
                let ds = synthesize_domain(d, &cfg);
                let windows: Vec<_> = ds.all_windows().cloned().collect();
                let s = table_one(&windows);
                table.push_row(vec![
                    d.name().into(),
                    s.sequences.to_string(),
                    s.num.to_string(),
                    s.vx.to_string(),
                    s.vy.to_string(),
                    s.ax.to_string(),
                    s.ay.to_string(),
                ]);
            }
            println!("{table}");
        }
        Command::Run {
            backbone,
            method,
            sources,
            target,
            epochs,
            workers,
            ckpt,
            seed,
            log_level,
            metrics_out,
            manifest,
            profile_out,
            trace_out,
            telemetry_addr,
            health_out,
            health_policy,
            health_dump,
        } => {
            if let Some(level) = log_level {
                adaptraj::obs::set_max_level(level);
                adaptraj::obs::add_sink(Arc::new(StderrSink));
            }
            // Held for the duration of the arm; dropping it stops the
            // listener thread.
            let _telemetry_server = start_telemetry(&telemetry_addr)?;
            let health_armed =
                health_out.is_some() || health_policy.is_some() || health_dump.is_some();
            // The timeline's folded-stacks export derives from the phase
            // profiler, so --trace-out implies profiling too; incident
            // phase attribution needs it as well, so arming the health
            // observatory arms the profiler.
            if profile_out.is_some() || trace_out.is_some() || health_armed {
                profile::reset();
                profile::set_enabled(true);
            }
            if health_armed {
                health::reset();
                health::set_enabled(true);
                health::set_policy(health_policy.unwrap_or_default());
            }
            if trace_out.is_some() {
                timeline::reset();
                timeline::set_enabled(true);
            }
            let metrics_sink = match &metrics_out {
                Some(path) => {
                    let sink = Arc::new(JsonlSink::create(path)?);
                    adaptraj::obs::add_sink(sink.clone());
                    Some(sink)
                }
                None => None,
            };

            let datasets = synthesize_all(&SynthesisConfig::default());
            let spec = CellSpec {
                backbone,
                method,
                sources: sources.clone(),
                target,
            };
            let mut cfg = RunnerConfig {
                trainer: TrainerConfig {
                    epochs,
                    workers,
                    ..TrainerConfig::default()
                },
                eval_cap: 0, // full test split
                ..RunnerConfig::default()
            };
            if let Some(s) = seed {
                cfg.trainer.seed = s;
            }

            let mut telemetry = RunTelemetry::new();
            telemetry.config("backbone", format!("{backbone:?}"));
            telemetry.config("method", format!("{method:?}"));
            telemetry.config(
                "sources",
                sources
                    .iter()
                    .map(|d| d.name())
                    .collect::<Vec<_>>()
                    .join(","),
            );
            telemetry.config("target", target.name());
            telemetry.config("epochs", epochs);
            telemetry.config("workers", workers);
            telemetry.config("batch_size", cfg.trainer.batch_size);
            telemetry.config("seed", cfg.trainer.seed);

            println!("training {} ...", spec.label());
            let report: TrainReport;
            let summary: EvalSummary;
            if let Some(path) = ckpt {
                // Train once here so the fitted parameters can be saved.
                let train = adaptraj::eval::runner::pooled_train(&spec, &datasets);
                let test = adaptraj::eval::runner::target_test(&spec, &datasets, 0);
                let mut predictor = adaptraj::eval::build_predictor(&spec, &cfg);
                let t0 = std::time::Instant::now();
                report = predictor.fit(&train);
                let train_time = t0.elapsed().as_secs_f64();
                let (eval, infer) =
                    adaptraj::eval::evaluate(predictor.as_ref(), &test, 3, cfg.eval_seed, workers);
                println!(
                    "ADE/FDE {eval}   train {train_time:.1}s   inference {:.2} ms/trajectory",
                    infer * 1e3
                );
                save_params_to_file(predictor.store(), &path)?;
                println!("checkpoint saved to {path}");
                summary = EvalSummary {
                    ade: eval.ade as f64,
                    fde: eval.fde as f64,
                    infer_time_s: infer,
                    num_windows: test.len() as u64,
                };
            } else {
                let num_windows =
                    adaptraj::eval::runner::target_test(&spec, &datasets, cfg.eval_cap).len();
                let res = run_cell(&spec, &datasets, &cfg);
                println!(
                    "ADE/FDE {}   train {:.1}s   inference {:.2} ms/trajectory",
                    res.eval,
                    res.train_time_s,
                    res.infer_time_s * 1e3
                );
                summary = EvalSummary {
                    ade: res.eval.ade as f64,
                    fde: res.eval.fde as f64,
                    infer_time_s: res.infer_time_s,
                    num_windows: num_windows as u64,
                };
                report = res.report;
            }

            for rec in report.epochs {
                telemetry.push_epoch(rec);
            }
            for p in report.phases {
                telemetry.push_phase(&p.phase, p.duration_s);
            }
            telemetry.eval = Some(summary);

            if let Some(path) = manifest {
                telemetry.write_to_file(std::path::Path::new(&path))?;
                println!("run manifest written to {path}");
            }
            if let Some(path) = trace_out {
                timeline::set_enabled(false);
                write_trace(&path)?;
            }
            if let Some(path) = profile_out {
                profile::set_enabled(false);
                let snap = profile::snapshot();
                std::fs::write(&path, snap.to_json())?;
                println!("op-level profile written to {path}");
                print!("{}", snap.render_table());
            }
            if let Some(sink) = metrics_sink {
                // Append the final metric snapshots after the trace events.
                for line in adaptraj::obs::global().dump_jsonl() {
                    sink.write_raw_line(&line);
                }
            }
            if let Some(path) = &health_out {
                health::write_jsonl(std::path::Path::new(path))?;
                println!(
                    "health stream written to {path} ({} record(s), {} incident(s))",
                    health::records().len(),
                    health::incident_count()
                );
            }
            adaptraj::obs::flush_sinks();
            if health_armed && health::halt_requested() {
                let dir = health_dump.unwrap_or_else(|| "health_dump".into());
                health::write_bundle(std::path::Path::new(&dir), Some(&telemetry.to_json()), 200)?;
                return Err(format!(
                    "training halted by health tripwire (policy halt-and-dump); \
                     diagnostic bundle written to {dir}"
                )
                .into());
            }
        }
        Command::Serve {
            addr,
            workers,
            accept_threads,
            batch_window_us,
            queue_cap,
            deadline_ms,
            checkpoint,
            backbone,
            method,
            sources,
        } => {
            // The cell's target only selects an eval split, which serving
            // never touches; any domain outside the source set works.
            let target = DomainId::ALL
                .iter()
                .copied()
                .find(|d| !sources.contains(d))
                .unwrap_or(DomainId::Sdd);
            let spec = CellSpec {
                backbone,
                method,
                sources,
                target,
            };
            let runner = RunnerConfig::default();
            let mut predictor = adaptraj::eval::build_predictor(&spec, &runner);
            if let Some(path) = &checkpoint {
                load_params_from_file(predictor.store_mut(), path)
                    .map_err(|e| format!("checkpoint '{path}': {e:?}"))?;
                println!("loaded checkpoint {path} into {}", spec.label());
            } else {
                println!(
                    "warning: no --checkpoint; serving {} with untrained init weights",
                    spec.label()
                );
            }
            // /reload rebuilds the same cell and loads the requested
            // checkpoint into it; the spec must match the file's shapes.
            let loader_spec = spec.clone();
            let loader: adaptraj::serve::Loader = Box::new(move |path: &str| {
                let mut p = adaptraj::eval::build_predictor(&loader_spec, &RunnerConfig::default());
                load_params_from_file(p.store_mut(), path)
                    .map_err(|e| format!("checkpoint '{path}': {e:?}"))?;
                Ok(p)
            });
            let server = adaptraj::serve::PredictServer::start(
                adaptraj::serve::ServeConfig {
                    addr,
                    workers,
                    accept_threads,
                    batch_window_us,
                    queue_cap,
                    deadline_ms,
                    ..adaptraj::serve::ServeConfig::default()
                },
                predictor,
                checkpoint,
                Some(loader),
            )?;
            println!(
                "serving {} on http://{} (POST /v1/predict, GET /healthz /metrics, \
                 POST /reload /shutdown)",
                spec.label(),
                server.local_addr()
            );
            server.wait();
            println!("server stopped");
        }
        Command::Check {
            golden_dir,
            out_dir,
            metric_tol_pct,
            update_golden,
        } => {
            let golden_dir = std::path::PathBuf::from(golden_dir);
            if update_golden {
                ensure_clean_tree_for_golden_update()?;
                println!(
                    "re-running {} golden micro-runs ...",
                    adaptraj::check::GOLDEN_NAMES.len()
                );
                for doc in run_all_goldens() {
                    let path = write_doc(&golden_dir, &doc)?;
                    println!("wrote {}", path.display());
                }
                println!(
                    "golden baselines updated in {} — commit them with the change \
                     that motivated the drift",
                    golden_dir.display()
                );
                return Ok(());
            }
            let baselines = load_baselines(&golden_dir)?;
            println!("re-running {} golden micro-runs ...", baselines.len());
            let candidates = run_all_goldens();
            if let Some(dir) = out_dir {
                let dir = std::path::PathBuf::from(dir);
                for doc in &candidates {
                    let path = write_doc(&dir, doc)?;
                    println!("candidate written to {}", path.display());
                }
            }
            let cmp = compare(&baselines, &candidates, metric_tol_pct);
            print!("{}", cmp.render_text());
            if !cmp.ok() {
                return Err(format!(
                    "golden drift: {} divergence(s), {} missing run(s) — if the change \
                     is intentional, regenerate with `adaptraj check --update-golden`",
                    cmp.diffs.len(),
                    cmp.missing.len()
                )
                .into());
            }
        }
        Command::Doctor {
            manifest,
            health,
            bench_baseline,
            bench_candidate,
            golden_dir,
            golden_candidate,
            json,
        } => {
            let diag = run_doctor(&DoctorArgs {
                manifest,
                health,
                bench_baseline,
                bench_candidate,
                golden_dir,
                golden_candidate,
            })?;
            if json {
                println!("{}", diag.to_json());
            } else {
                print!("{}", diag.render_text());
            }
            if diag.fatal() {
                return Err("doctor: run is UNHEALTHY (see findings above)".into());
            }
        }
        Command::Visualize { target, out, count } => {
            let ds = synthesize_domain(target, &SynthesisConfig::default());
            let mut model = Vanilla::new(
                TrainerConfig {
                    epochs: 10,
                    max_train_windows: 200,
                    ..TrainerConfig::default()
                },
                |s, r| PecNet::new(s, r, BackboneConfig::default()),
            );
            println!("training a quick {} on {} ...", model.name(), target.name());
            model.fit(&ds.train);
            std::fs::create_dir_all(&out)?;
            let mut rng = Rng::seed_from(7);
            for (i, w) in ds
                .test
                .iter()
                .filter(|w| !w.neighbors.is_empty())
                .take(count)
                .enumerate()
            {
                let samples = model.predict_k(w, 3, &mut rng);
                let svg = render_window(w, &samples, &VizOptions::default());
                let path = format!("{out}/window_{i}.svg");
                std::fs::write(&path, svg)?;
                println!("rendered {path}");
            }
        }
    }
    Ok(())
}
