//! The `adaptraj` command-line tool: synthesize datasets, train/evaluate
//! experiment cells, reproduce the paper's tables, and render predictions.
//!
//! ```sh
//! cargo run --release --bin adaptraj -- help
//! cargo run --release --bin adaptraj -- run --backbone pecnet --method adaptraj \
//!     --sources eth_ucy,l_cas,syi --target sdd
//! cargo run --release --bin adaptraj -- tables table4 --scale smoke --seeds 2
//! ```

use adaptraj::check::{compare, load_baselines, run_all_goldens, write_doc};
use adaptraj::cli::{parse, Command, USAGE};
use adaptraj::data::dataset::{synthesize_all, synthesize_domain, SynthesisConfig};
use adaptraj::data::domain::DomainId;
use adaptraj::data::io::write_csv;
use adaptraj::doctor::{run_doctor, DoctorArgs};
use adaptraj::eval::tables::{banner, build_datasets, render};
use adaptraj::eval::viz::{render_window, VizOptions};
use adaptraj::eval::{
    build_predictor, run_cell_avg, train_cell, BackboneKind, CellSpec, MethodKind, RunnerConfig,
};
use adaptraj::models::TrainerConfig;
use adaptraj::obs::serve::TelemetryServer;
use adaptraj::obs::{health, profile, timeline};
use adaptraj::obs::{EvalSummary, RunTelemetry};
use adaptraj::run_dir;
use adaptraj::tensor::serialize::{load_params_from_file, save_params_to_file};
use adaptraj::tensor::Rng;
use std::path::PathBuf;
use std::process::ExitCode;

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
        "telemetry endpoint on http://{} ({})",
        server.local_addr(),
        server.routes()
    );
    Ok(Some(server))
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
        Command::Run {
            backbone,
            method,
            sources,
            target,
            epochs,
            workers,
            seed,
            telemetry_addr,
            out,
            halt_on_fault,
        } => {
            // Held for the duration of the arm; dropping it stops the
            // listener thread.
            let _telemetry_server = start_telemetry(&telemetry_addr)?;
            // `--out` arms the health observatory, the phase profiler
            // (incident phase attribution and the folded stacks both come
            // from it) and the flight-recorder timeline.
            let record = out.map(PathBuf::from);
            if let Some(dir) = &record {
                std::fs::create_dir_all(dir)?;
                profile::reset();
                profile::set_enabled(true);
                health::reset();
                health::set_enabled(true);
                health::set_halt_on_fault(halt_on_fault);
                timeline::reset();
                timeline::set_enabled(true);
            }

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

            println!("training {} ...", spec.label());
            let (res, predictor) = train_cell(&spec, &datasets, &cfg);
            println!(
                "ADE/FDE {}   train {:.1}s   inference {:.2} ms/trajectory",
                res.eval,
                res.train_time_s,
                res.latency.median_s * 1e3
            );
            if let Some(line) = res.report.warning(health::halt_requested()) {
                eprintln!("{line}");
            }
            let Some(dir) = record else {
                return Ok(());
            };
            profile::set_enabled(false);
            timeline::set_enabled(false);

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
            telemetry.epochs = res.report.epochs;
            for p in res.report.phases {
                telemetry.push_phase(&p.phase, p.duration_s);
            }
            telemetry.eval = Some(EvalSummary {
                ade: res.eval.ade as f64,
                fde: res.eval.fde as f64,
                infer_time_s: res.latency.median_s,
                num_windows: res.windows.len() as u64,
            });
            telemetry.incidents = health::incidents();
            telemetry.halted = health::halt_requested();
            telemetry.metrics = adaptraj::obs::global().dump_jsonl();
            telemetry.write_to_file(&dir.join(run_dir::MANIFEST))?;
            let prof = profile::snapshot();
            std::fs::write(dir.join(run_dir::PROFILE), prof.to_json())?;
            std::fs::write(
                dir.join(run_dir::TRACE),
                timeline::snapshot().to_chrome_trace(),
            )?;
            std::fs::write(dir.join(run_dir::FOLDED), timeline::folded_stacks(&prof))?;
            save_params_to_file(predictor.store(), dir.join(run_dir::CHECKPOINT))?;
            println!(
                "run record written to {} ({}; {} incident(s))",
                dir.display(),
                run_dir::FILES.join(", "),
                telemetry.incidents.len()
            );
            if telemetry.halted {
                return Err(format!(
                    "training halted by health tripwire (--halt-on-fault); \
                     run record written to {}",
                    dir.display()
                )
                .into());
            }
        }
        Command::Serve {
            addr,
            workers,
            accept_threads,
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
            // Startup and /reload both rebuild the cell and load a
            // checkpoint into it; the spec must match the file's shapes.
            let loader_spec = spec.clone();
            let loader: adaptraj::serve::Loader = Box::new(move |path: &str| {
                let mut p = build_predictor(&loader_spec, &RunnerConfig::default());
                load_params_from_file(p.store_mut(), path)
                    .map_err(|e| format!("checkpoint '{path}': {e:?}"))?;
                Ok(p)
            });
            let predictor = if let Some(path) = &checkpoint {
                let predictor = loader(path)?;
                println!("loaded checkpoint {path} into {}", spec.label());
                predictor
            } else {
                println!(
                    "warning: no --checkpoint; serving {} with untrained init weights",
                    spec.label()
                );
                build_predictor(&spec, &RunnerConfig::default())
            };
            let server = adaptraj::serve::PredictServer::start(
                adaptraj::serve::ServeConfig {
                    addr,
                    workers,
                    accept_threads,
                    queue_cap,
                    deadline_ms,
                    ..adaptraj::serve::ServeConfig::default()
                },
                predictor,
                checkpoint,
                Some(loader),
            )?;
            println!(
                "serving {} on http://{} ({})",
                spec.label(),
                server.local_addr(),
                server.routes()
            );
            server.wait();
            println!("server stopped");
        }
        Command::Tables {
            table,
            scale,
            seeds,
        } => {
            // The table goes to stdout, progress to stderr.
            let seeds: Vec<u64> = (1..=seeds).collect();
            banner(table.title, scale);
            if seeds.len() > 1 {
                println!("(averaging over {} training seeds per cell)\n", seeds.len());
            }
            let datasets = build_datasets(scale);
            print!(
                "{}",
                render(&table, &datasets, |cell, cfg| {
                    run_cell_avg(cell, &datasets, cfg, &seeds)
                })
            );
        }
        Command::Check {
            golden_dir,
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
            let baselines = load_baselines(&golden_dir)
                .map_err(|e| format!("{}: {e}", golden_dir.display()))?;
            println!("re-running {} golden micro-runs ...", baselines.len());
            let candidates = run_all_goldens();
            let cmp = compare(&baselines, &candidates);
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
            run,
            bench_baseline,
            bench_candidate,
            json,
        } => {
            let diag = run_doctor(&DoctorArgs {
                run,
                bench_baseline,
                bench_candidate,
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
            let spec = CellSpec {
                backbone: BackboneKind::PecNet,
                method: MethodKind::Vanilla,
                sources: vec![target],
                target,
            };
            let cfg = RunnerConfig {
                trainer: TrainerConfig {
                    epochs: 10,
                    max_train_windows: 200,
                    ..TrainerConfig::default()
                },
                ..RunnerConfig::default()
            };
            let mut model = build_predictor(&spec, &cfg);
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
