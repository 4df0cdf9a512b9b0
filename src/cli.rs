//! Argument parsing for the `adaptraj` command-line tool.
//!
//! Hand-rolled (no external parser dependency): subcommand + `--key value`
//! flags. See [`Command`] for the surface.

use adaptraj_data::domain::DomainId;
use adaptraj_eval::tables::{self, Scale, TableSpec};
use adaptraj_eval::{BackboneKind, MethodKind};
use std::collections::HashMap;

/// Parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `synthesize --domain <d> [--scenes N] [--out FILE]` — generate a
    /// domain dataset and export its training split as CSV.
    Synthesize {
        domain: DomainId,
        scenes: usize,
        out: Option<String>,
    },
    /// `run --backbone <b> --method <m> --sources a,b,c --target <d>
    ///  [--epochs N] [--workers N] [--seed S] [--telemetry-addr HOST:PORT]
    ///  [--out DIR [--halt-on-fault]]` —
    /// train one experiment cell and report ADE/FDE; with `--out`, write
    /// the run record (see [`crate::run_dir`]) to `DIR`, and with
    /// `--halt-on-fault` stop training at the first health tripwire.
    Run {
        backbone: BackboneKind,
        method: MethodKind,
        sources: Vec<DomainId>,
        target: DomainId,
        epochs: usize,
        workers: usize,
        seed: Option<u64>,
        telemetry_addr: Option<String>,
        out: Option<String>,
        halt_on_fault: bool,
    },
    /// `serve --checkpoint FILE.atps [--addr HOST:PORT] [--workers N]
    ///  [--accept-threads N] [--queue-cap N] [--deadline-ms N] [--backbone B] [--method M] [--sources a,b,c]`
    /// — run the HTTP/JSON inference service (adaptraj-serve) for the
    /// given model spec, loading parameters from the checkpoint.
    Serve {
        addr: String,
        workers: usize,
        accept_threads: usize,
        queue_cap: usize,
        deadline_ms: u64,
        checkpoint: Option<String>,
        backbone: BackboneKind,
        method: MethodKind,
        sources: Vec<DomainId>,
    },
    /// `visualize --target <d> [--out DIR] [--count N]` — train a quick
    /// model and render SVG predictions.
    Visualize {
        target: DomainId,
        out: String,
        count: usize,
    },
    /// `tables <name> [--scale smoke|paper] [--seeds N]` — train, score
    /// and print one of the paper's tables or figures (see
    /// [`adaptraj_eval::tables`]), each cell averaged over training seeds
    /// `1..=seeds`.
    Tables {
        table: TableSpec,
        scale: Scale,
        seeds: u64,
    },
    /// `check [--golden-dir DIR] [--update-golden]` — re-run the
    /// fixed-seed golden micro-runs and gate them against the committed
    /// `results/GOLDEN_*.json` baselines (bit-exact losses and probe
    /// futures, ADE/FDE within `check::golden::METRIC_TOL_PCT`). With
    /// `--update-golden`, rewrite the baselines instead (requires a clean
    /// working tree).
    Check {
        golden_dir: String,
        update_golden: bool,
    },
    /// `doctor [--run DIR] [--bench-baseline FILE --bench-candidate FILE]
    ///  [--json]` — diagnose a finished run from its run record (first
    /// unhealthy op, domain-conflict ranking, loss plateau/divergence)
    /// and a bench regression between two `perfbench` outputs. Either
    /// input may be given alone. Exits nonzero on any fatal finding.
    Doctor {
        run: Option<String>,
        bench_baseline: Option<String>,
        bench_candidate: Option<String>,
        json: bool,
    },
    /// `help`
    Help,
}

/// Parse error with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// Parses a domain tag (`eth_ucy | l_cas | syi | sdd`, case-insensitive).
pub fn parse_domain(tag: &str) -> Result<DomainId, ParseError> {
    DomainId::from_tag(tag).ok_or_else(|| {
        err(format!(
            "unknown domain '{}' (expected eth_ucy | l_cas | syi | sdd)",
            tag.to_ascii_lowercase()
        ))
    })
}

/// Parses a comma-separated source-domain list. Each domain may appear
/// once: aliases of one domain (`l_cas`, `lcas`) count as the same.
fn parse_sources(list: &str) -> Result<Vec<DomainId>, ParseError> {
    let sources = list
        .split(',')
        .map(parse_domain)
        .collect::<Result<Vec<_>, _>>()?;
    for (i, d) in sources.iter().enumerate() {
        if sources[..i].contains(d) {
            return Err(err(format!(
                "--sources lists '{}' more than once; each source domain may \
                 appear only once",
                d.name()
            )));
        }
    }
    Ok(sources)
}

fn parse_backbone(tag: &str) -> Result<BackboneKind, ParseError> {
    match tag.to_ascii_lowercase().as_str() {
        "pecnet" => Ok(BackboneKind::PecNet),
        "lbebm" => Ok(BackboneKind::Lbebm),
        other => Err(err(format!(
            "unknown backbone '{other}' (expected pecnet | lbebm)"
        ))),
    }
}

fn parse_method(tag: &str) -> Result<MethodKind, ParseError> {
    match tag.to_ascii_lowercase().as_str() {
        "vanilla" => Ok(MethodKind::Vanilla),
        "counter" => Ok(MethodKind::Counter),
        "causalmotion" | "causal_motion" => Ok(MethodKind::CausalMotion),
        "adaptraj" => Ok(MethodKind::AdapTraj),
        other => Err(err(format!(
            "unknown method '{other}' (expected vanilla | counter | causalmotion | adaptraj)"
        ))),
    }
}

/// Splits `--key value` pairs; rejects unknown or duplicated keys.
/// `switches` are the command's valueless flags, which [`take_switch`]
/// has already removed from `args`; an unknown flag's message lists them
/// with the `allowed` keys.
fn parse_flags<'a>(
    args: &'a [String],
    allowed: &[&str],
    switches: &[&str],
) -> Result<HashMap<&'a str, &'a str>, ParseError> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| err(format!("expected --flag, got '{}'", args[i])))?;
        if !allowed.contains(&key) {
            return Err(err(format!(
                "unknown flag --{key} (allowed: {})",
                allowed
                    .iter()
                    .chain(switches)
                    .map(|a| format!("--{a}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| err(format!("--{key} needs a value")))?;
        if flags.insert(key, value.as_str()).is_some() {
            return Err(err(format!("--{key} given twice")));
        }
        i += 2;
    }
    Ok(flags)
}

fn parse_usize(
    flags: &HashMap<&str, &str>,
    key: &str,
    default: usize,
) -> Result<usize, ParseError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| err(format!("--{key} expects an integer, got '{v}'"))),
    }
}

fn parse_scale(tag: Option<&str>) -> Result<Scale, ParseError> {
    match tag {
        None | Some("smoke") => Ok(Scale::Smoke),
        Some("paper") => Ok(Scale::Paper),
        Some(other) => Err(err(format!(
            "unknown --scale '{other}' (expected smoke|paper)"
        ))),
    }
}

fn parse_seed(flags: &HashMap<&str, &str>) -> Result<Option<u64>, ParseError> {
    match flags.get("seed") {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| err(format!("--seed expects an unsigned integer, got '{v}'"))),
    }
}

/// Removes every occurrence of a valueless `--flag` from `args`, returning
/// whether it was present. `parse_flags` only understands `--key value`
/// pairs, so boolean switches are peeled off before it runs.
fn take_switch(args: &mut Vec<String>, name: &str) -> Result<bool, ParseError> {
    let flag = format!("--{name}");
    let before = args.len();
    args.retain(|a| *a != flag);
    match before - args.len() {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(err(format!("--{name} given twice"))),
    }
}

/// Parses the full argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "synthesize" => {
            let flags = parse_flags(rest, &["domain", "scenes", "out"], &[])?;
            let domain = parse_domain(
                flags
                    .get("domain")
                    .ok_or_else(|| err("--domain required"))?,
            )?;
            Ok(Command::Synthesize {
                domain,
                scenes: parse_usize(&flags, "scenes", 24)?,
                out: flags.get("out").map(|s| s.to_string()),
            })
        }
        "run" => {
            let mut rest = rest.to_vec();
            let halt_on_fault = take_switch(&mut rest, "halt-on-fault")?;
            let flags = parse_flags(
                &rest,
                &[
                    "backbone",
                    "method",
                    "sources",
                    "target",
                    "epochs",
                    "workers",
                    "seed",
                    "telemetry-addr",
                    "out",
                ],
                &["halt-on-fault"],
            )?;
            let backbone = parse_backbone(
                flags
                    .get("backbone")
                    .ok_or_else(|| err("--backbone required"))?,
            )?;
            let method = parse_method(
                flags
                    .get("method")
                    .ok_or_else(|| err("--method required"))?,
            )?;
            let sources = parse_sources(
                flags
                    .get("sources")
                    .ok_or_else(|| err("--sources required (comma-separated)"))?,
            )?;
            let target = parse_domain(
                flags
                    .get("target")
                    .ok_or_else(|| err("--target required"))?,
            )?;
            let out = flags.get("out").map(|s| s.to_string());
            if halt_on_fault && out.is_none() {
                return Err(err(
                    "--halt-on-fault needs --out DIR, where the halted run's record goes",
                ));
            }
            Ok(Command::Run {
                backbone,
                method,
                sources,
                target,
                epochs: parse_usize(&flags, "epochs", 20)?,
                workers: parse_usize(&flags, "workers", 1)?,
                seed: parse_seed(&flags)?,
                telemetry_addr: flags.get("telemetry-addr").map(|s| s.to_string()),
                out,
                halt_on_fault,
            })
        }
        "serve" => {
            let flags = parse_flags(
                rest,
                &[
                    "addr",
                    "workers",
                    "accept-threads",
                    "queue-cap",
                    "deadline-ms",
                    "checkpoint",
                    "backbone",
                    "method",
                    "sources",
                ],
                &[],
            )?;
            let backbone = parse_backbone(flags.get("backbone").unwrap_or(&"pecnet"))?;
            let method = parse_method(flags.get("method").unwrap_or(&"vanilla"))?;
            let sources = parse_sources(flags.get("sources").unwrap_or(&"eth_ucy,l_cas"))?;
            let deadline_ms: u64 = flags
                .get("deadline-ms")
                .map(|v| {
                    v.parse()
                        .map_err(|_| err(format!("--deadline-ms expects an integer, got '{v}'")))
                })
                .transpose()?
                .unwrap_or(2000);
            Ok(Command::Serve {
                addr: flags.get("addr").unwrap_or(&"127.0.0.1:8080").to_string(),
                workers: parse_usize(&flags, "workers", 2)?,
                accept_threads: parse_usize(&flags, "accept-threads", 2)?,
                queue_cap: parse_usize(&flags, "queue-cap", 256)?,
                deadline_ms,
                checkpoint: flags.get("checkpoint").map(|s| s.to_string()),
                backbone,
                method,
                sources,
            })
        }
        "visualize" => {
            let flags = parse_flags(rest, &["target", "out", "count"], &[])?;
            let target = parse_domain(
                flags
                    .get("target")
                    .ok_or_else(|| err("--target required"))?,
            )?;
            Ok(Command::Visualize {
                target,
                out: flags.get("out").unwrap_or(&"viz_out").to_string(),
                count: parse_usize(&flags, "count", 4)?,
            })
        }
        "tables" => {
            let Some((name, rest)) = rest.split_first().filter(|(n, _)| !n.starts_with("--"))
            else {
                return Err(err("missing table name (try: adaptraj help)"));
            };
            let flags = parse_flags(rest, &["scale", "seeds"], &[])?;
            let scale = parse_scale(flags.get("scale").copied())?;
            let seeds = parse_usize(&flags, "seeds", 1)
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| {
                    err(format!(
                        "--seeds expects a positive integer, got '{}'",
                        flags["seeds"]
                    ))
                })?;
            let table = tables::spec(name, scale)
                .ok_or_else(|| err(format!("unknown table '{name}' (try: adaptraj help)")))?;
            Ok(Command::Tables {
                table,
                scale,
                seeds: seeds as u64,
            })
        }
        "check" => {
            let mut rest = rest.to_vec();
            let update_golden = take_switch(&mut rest, "update-golden")?;
            let flags = parse_flags(&rest, &["golden-dir"], &["update-golden"])?;
            Ok(Command::Check {
                golden_dir: flags.get("golden-dir").unwrap_or(&"results").to_string(),
                update_golden,
            })
        }
        "doctor" => {
            let mut rest = rest.to_vec();
            let json = take_switch(&mut rest, "json")?;
            let flags = parse_flags(
                &rest,
                &["run", "bench-baseline", "bench-candidate"],
                &["json"],
            )?;
            if flags.is_empty() {
                return Err(err(crate::doctor::NO_INPUT));
            }
            if flags.contains_key("bench-baseline") != flags.contains_key("bench-candidate") {
                return Err(err(
                    "--bench-baseline and --bench-candidate must be given together",
                ));
            }
            Ok(Command::Doctor {
                run: flags.get("run").map(|s| s.to_string()),
                bench_baseline: flags.get("bench-baseline").map(|s| s.to_string()),
                bench_candidate: flags.get("bench-candidate").map(|s| s.to_string()),
                json,
            })
        }
        other => Err(err(format!(
            "unknown command '{other}' (try: adaptraj help)"
        ))),
    }
}

/// The `help` text.
pub const USAGE: &str = "\
adaptraj — multi-source domain generalization for trajectory prediction

USAGE:
  adaptraj synthesize --domain <d> [--scenes N] [--out FILE.csv]
  adaptraj run --backbone <pecnet|lbebm> --method <vanilla|counter|causalmotion|adaptraj>
               --sources d1,d2,... --target <d> [--epochs N] [--workers N]
               [--seed S] [--telemetry-addr HOST:PORT]
               [--out DIR [--halt-on-fault]]
  adaptraj serve --checkpoint FILE.atps [--addr HOST:PORT] [--workers N]
                 [--accept-threads N] [--queue-cap N] [--deadline-ms N]
                 [--backbone B] [--method M] [--sources d1,d2,...]
  adaptraj visualize --target <d> [--out DIR] [--count N]
  adaptraj tables <table1|table2|table3|table4|table5|table6|table7|table8|
                   fig3|fig4|social|compare> [--scale smoke|paper] [--seeds N]
  adaptraj check [--golden-dir DIR] [--update-golden]
  adaptraj doctor [--run DIR] [--bench-baseline FILE --bench-candidate FILE]
                  [--json]
  adaptraj help

DOMAINS: eth_ucy | l_cas | syi | sdd

EXECUTION:
  --workers N         worker threads for the data-parallel executor
                      (adaptraj-exec); results are bit-identical for every
                      worker count, 1 runs inline (default 1)

OBSERVABILITY (run):
  --seed S            seed training RNG (recorded in the manifest)
  --telemetry-addr A  serve live telemetry over HTTP while the command runs:
                      GET /metrics (Prometheus text, p50/p90/p99/p999),
                      /healthz, /profile, /timeline (Chrome trace JSON);
                      A is HOST:PORT (port 0 = ephemeral). Only --out
                      arms the profiler and the timeline: without it
                      /profile and /timeline serve empty documents
  --out DIR           arm the op profiler, the flight-recorder timeline and
                      the training-health observatory (observation-only:
                      results stay bit-identical for every worker count)
                      and write the run record to DIR:
                        manifest.json   adaptraj-run-manifest/v2: config,
                                        per-epoch losses, gradient norms,
                                        per-source-domain gradient norms,
                                        pairwise cosines, update ratios,
                                        phase timings, eval, incidents,
                                        halted, and the final metrics
                                        registry (counters, gauges,
                                        histograms)
                        profile.json    per-op/per-phase breakdown
                                        (adaptraj-profile/v1)
                        trace.json      Chrome trace-event JSON (Perfetto)
                        trace.folded    flamegraph folded stacks keyed by
                                        span path (step1;epoch;encode;...)
                        checkpoint.atps the trained parameters (serve
                                        --checkpoint)
  --halt-on-fault     stop training at the first health tripwire (needs
                      --out); the run writes its record and exits nonzero.
                      Without it a tripwire is recorded and training goes
                      on. A run that skipped non-finite windows or halted
                      says so in one stderr warning line

SERVE:
  serves POST /v1/predict (scene JSON in, best-of-k trajectories out),
  GET /healthz, POST /reload (hot checkpoint swap), POST /shutdown, and
  the telemetry routes GET /metrics (Prometheus), GET /profile (op
  profiler JSON) and GET /timeline (Chrome trace JSON) on the same port;
  GET / lists the routes. --workers exec threads take queued requests at
  once, up to 8 per WindowBatch pass in arrival order; requests share a
  pass only while every worker is busy, never by waiting. Responses
  are bit-identical to offline predict_k for the same scene + checkpoint
  + seed. A full admission queue (--queue-cap) answers 503; requests
  older than --deadline-ms answer 504. --backbone/--method/--sources
  must match the spec the checkpoint was trained with.

TABLES:
  prints one of the paper's tables or figures to stdout (progress goes to
  stderr): table1 is Table I's dataset statistics and trains nothing;
  every other name trains and scores its cells (minutes each at --scale
  smoke, the default; paper runs the full protocol) and prints the
  paper's expected shape under the table. --seeds N averages each cell
  over training seeds 1..=N (default 1).

CHECK:
  re-runs the six fixed-seed golden micro-runs (adaptraj-golden/v1) and
  compares them against the committed baselines in --golden-dir (default
  results/): per-epoch losses, decomposed components and the trained
  model's sampled futures for a fixed probe scene must match
  bit-for-bit; ADE/FDE within 0.1 percent. Each DRIFT line names the
  field, the expected value and the actual one. --update-golden
  rewrites the baselines instead of comparing; it refuses to run with a
  dirty working tree (set ADAPTRAJ_UPDATE_GOLDEN_ALLOW_DIRTY=1 to
  override, e.g. when bootstrapping the very first baselines).

DOCTOR:
  diagnoses a finished run from the record `run --out DIR` wrote
  (--run DIR): the first unhealthy op (earliest tripwire incident with
  op kind + phase path), a ranking of source-domain pairs by mean
  pairwise gradient cosine (negative values signal conflicting domains)
  and loss plateau/divergence detection over the per-epoch records.
  --bench-baseline/--bench-candidate take two saved outputs of the
  repository benchmark (perfbench) for the same
  --workload and --trace: an end-to-end metric worse than its bound in
  BENCHMARK.json, or a run that says \"correct\":false, is fatal; on
  --trace 1 outputs the per-layer metric that moved most in its worse
  direction is named. Either input may be given alone. --json prints an
  adaptraj-doctor/v1 document instead of text. Exits nonzero on any
  fatal finding (incidents, loss divergence, bench regression,
  incorrect bench run).
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&args("help")).unwrap(), Command::Help);
        assert_eq!(parse(&args("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn synthesize_parses_with_defaults() {
        let cmd = parse(&args("synthesize --domain sdd")).unwrap();
        assert_eq!(
            cmd,
            Command::Synthesize {
                domain: DomainId::Sdd,
                scenes: 24,
                out: None
            }
        );
    }

    #[test]
    fn run_parses_full_invocation() {
        let cmd = parse(&args(
            "run --backbone lbebm --method adaptraj --sources eth_ucy,l_cas,syi \
             --target sdd --epochs 30 --workers 4 --seed 42 \
             --telemetry-addr 127.0.0.1:9898 \
             --halt-on-fault --out run_dir",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                backbone: BackboneKind::Lbebm,
                method: MethodKind::AdapTraj,
                sources: vec![DomainId::EthUcy, DomainId::LCas, DomainId::Syi],
                target: DomainId::Sdd,
                epochs: 30,
                workers: 4,
                seed: Some(42),
                telemetry_addr: Some("127.0.0.1:9898".into()),
                out: Some("run_dir".into()),
                halt_on_fault: true,
            }
        );
    }

    #[test]
    fn serve_defaults_and_full_invocation() {
        assert_eq!(
            parse(&args("serve")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:8080".into(),
                workers: 2,
                accept_threads: 2,
                queue_cap: 256,
                deadline_ms: 2000,
                checkpoint: None,
                backbone: BackboneKind::PecNet,
                method: MethodKind::Vanilla,
                sources: vec![DomainId::EthUcy, DomainId::LCas],
            }
        );
        assert_eq!(
            parse(&args(
                "serve --addr 0.0.0.0:9000 --workers 8 --accept-threads 4 \
                 --queue-cap 32 --deadline-ms 250 \
                 --checkpoint m.atps --backbone lbebm --method adaptraj \
                 --sources eth_ucy,l_cas,syi"
            ))
            .unwrap(),
            Command::Serve {
                addr: "0.0.0.0:9000".into(),
                workers: 8,
                accept_threads: 4,
                queue_cap: 32,
                deadline_ms: 250,
                checkpoint: Some("m.atps".into()),
                backbone: BackboneKind::Lbebm,
                method: MethodKind::AdapTraj,
                sources: vec![DomainId::EthUcy, DomainId::LCas, DomainId::Syi],
            }
        );
    }

    #[test]
    fn serve_rejects_bad_values() {
        let e = parse(&args("serve --deadline-ms soon")).unwrap_err();
        assert!(e.0.contains("integer"), "{e}");
        let e = parse(&args("serve --batch-window-us 500")).unwrap_err();
        assert!(e.0.contains("unknown flag"), "{e}");
        let e = parse(&args("serve --backbone resnet")).unwrap_err();
        assert!(e.0.contains("unknown backbone"), "{e}");
        let e = parse(&args("serve --epochs 3")).unwrap_err();
        assert!(e.0.contains("unknown flag"), "{e}");
        let e = parse(&args("serve --method adaptraj --sources eth_ucy,eth_ucy")).unwrap_err();
        assert!(
            e.0.contains("--sources lists 'ETH&UCY' more than once"),
            "{e}"
        );
    }

    #[test]
    fn run_observability_flags_default_to_off() {
        let cmd = parse(&args(
            "run --backbone pecnet --method vanilla --sources sdd --target syi",
        ))
        .unwrap();
        let Command::Run {
            workers,
            seed,
            telemetry_addr,
            out,
            halt_on_fault,
            ..
        } = cmd
        else {
            panic!("expected Run, got {cmd:?}");
        };
        assert_eq!(workers, 1);
        assert_eq!(seed, None);
        assert_eq!(telemetry_addr, None);
        assert_eq!(out, None);
        assert!(!halt_on_fault);
    }

    #[test]
    fn run_flight_recorder_flags_parse() {
        let cmd = parse(&args(
            "run --backbone pecnet --method vanilla --sources sdd --target syi \
             --out rec --telemetry-addr 127.0.0.1:0",
        ))
        .unwrap();
        let Command::Run {
            out,
            telemetry_addr,
            ..
        } = cmd
        else {
            panic!("expected Run, got {cmd:?}");
        };
        assert_eq!(out, Some("rec".into()));
        assert_eq!(telemetry_addr, Some("127.0.0.1:0".into()));
    }

    #[test]
    fn removed_artifact_flags_are_unknown() {
        let run = "run --backbone pecnet --method vanilla --sources sdd --target syi";
        for flag in [
            "manifest",
            "metrics-out",
            "profile-out",
            "trace-out",
            "health-out",
            "health-dump",
            "ckpt",
            "log-level",
        ] {
            let e = parse(&args(&format!("{run} --{flag} x"))).unwrap_err();
            assert!(e.0.contains(&format!("unknown flag --{flag}")), "{e}");
        }
        for flag in ["manifest", "health", "golden-dir"] {
            let e = parse(&args(&format!("doctor --{flag} x"))).unwrap_err();
            assert!(e.0.contains(&format!("unknown flag --{flag}")), "{e}");
        }
    }

    #[test]
    fn health_policy_parses_and_rejects_unknown() {
        // The response is the `--halt-on-fault` switch; the old
        // `--health-policy` flag is unknown whatever value it carries.
        let run = "run --backbone pecnet --method vanilla --sources sdd --target syi";
        let cmd = parse(&args(&format!("{run} --halt-on-fault --out d"))).unwrap();
        let Command::Run { halt_on_fault, .. } = cmd else {
            panic!("expected Run, got {cmd:?}");
        };
        assert!(halt_on_fault);

        for value in ["warn", "skip-window", "halt-and-dump", "explode"] {
            let e = parse(&args(&format!("{run} --health-policy {value}"))).unwrap_err();
            assert!(e.0.contains("unknown flag --health-policy"), "{e}");
        }
    }

    #[test]
    fn halt_and_dump_needs_an_out_dir() {
        let run = "run --backbone pecnet --method vanilla --sources sdd --target syi";
        let e = parse(&args(&format!("{run} --halt-on-fault"))).unwrap_err();
        assert!(e.0.contains("--halt-on-fault needs --out DIR"), "{e}");
        assert!(parse(&args(&format!("{run} --halt-on-fault --out d"))).is_ok());
        let e = parse(&args(&format!(
            "{run} --halt-on-fault --out d --halt-on-fault"
        )))
        .unwrap_err();
        assert!(e.0.contains("twice"), "{e}");
    }

    #[test]
    fn duplicate_source_domains_are_rejected() {
        let e = parse(&args(
            "run --backbone pecnet --method adaptraj --sources sdd,sdd --target syi",
        ))
        .unwrap_err();
        assert!(e.0.contains("more than once"), "{e}");
        assert!(e.0.contains("SDD"), "{e}");

        // Aliases of the same domain count as duplicates too.
        let e = parse(&args(
            "run --backbone pecnet --method adaptraj --sources l_cas,lcas --target syi",
        ))
        .unwrap_err();
        assert!(e.0.contains("more than once"), "{e}");
    }

    #[test]
    fn bad_seed_and_log_level_are_reported() {
        let e = parse(&args(
            "run --backbone pecnet --method vanilla --sources sdd --target syi --seed lots",
        ))
        .unwrap_err();
        assert!(e.0.contains("--seed expects"), "{e}");

        let e = parse(&args(
            "run --backbone pecnet --method vanilla --sources sdd --target syi --log-level loud",
        ))
        .unwrap_err();
        assert!(e.0.contains("unknown flag --log-level"), "{e}");
    }

    #[test]
    fn domain_aliases() {
        assert_eq!(parse_domain("L-CAS").unwrap(), DomainId::LCas);
        assert_eq!(parse_domain("ETHUCY").unwrap(), DomainId::EthUcy);
        assert!(parse_domain("mars").is_err());
    }

    #[test]
    fn missing_required_flag_is_reported() {
        let e = parse(&args("run --backbone pecnet")).unwrap_err();
        assert!(e.0.contains("--method required"), "{e}");
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let e = parse(&args("synthesize --domain sdd --bogus 3")).unwrap_err();
        assert!(e.0.contains("unknown flag"), "{e}");
        // The allowed list names the valueless switches too.
        let e = parse(&args(
            "run --backbone pecnet --method vanilla --sources sdd --target syi \
             --health-policy warn",
        ))
        .unwrap_err();
        assert!(e.0.contains("unknown flag --health-policy"), "{e}");
        assert!(e.0.contains("--halt-on-fault"), "{e}");
        assert!(e.0.contains("--out"), "{e}");
        let e = parse(&args("check --epochs 3")).unwrap_err();
        assert!(e.0.contains("--update-golden"), "{e}");
        let e = parse(&args("doctor --golden-dir x")).unwrap_err();
        assert!(e.0.contains("--json"), "{e}");
    }

    #[test]
    fn duplicate_flag_is_rejected() {
        let e = parse(&args("synthesize --domain sdd --scenes 3 --scenes 4")).unwrap_err();
        assert!(e.0.contains("twice"), "{e}");
    }

    #[test]
    fn bad_integer_is_reported() {
        let e = parse(&args("synthesize --domain sdd --scenes many")).unwrap_err();
        assert!(e.0.contains("integer"), "{e}");
    }

    #[test]
    fn unknown_command_is_reported() {
        for cmd in ["launch", "bench", "stats"] {
            let e = parse(&args(cmd)).unwrap_err();
            assert!(e.0.contains("unknown command"), "{e}");
        }
    }

    #[test]
    fn check_defaults_and_full_invocation() {
        assert_eq!(
            parse(&args("check")).unwrap(),
            Command::Check {
                golden_dir: "results".into(),
                update_golden: false,
            }
        );
        // The boolean switch parses in any position among key-value flags.
        for invocation in [
            "check --golden-dir base --update-golden",
            "check --update-golden --golden-dir base",
        ] {
            assert_eq!(
                parse(&args(invocation)).unwrap(),
                Command::Check {
                    golden_dir: "base".into(),
                    update_golden: true,
                }
            );
        }
    }

    #[test]
    fn check_rejects_bad_flags() {
        let e = parse(&args("check --golden-dir")).unwrap_err();
        assert!(e.0.contains("needs a value"), "{e}");
        // Candidates are never written: the DRIFT lines carry the values.
        let e = parse(&args("check --out-dir cand")).unwrap_err();
        assert!(e.0.contains("unknown flag --out-dir"), "{e}");
        let e = parse(&args("check --update-golden --update-golden")).unwrap_err();
        assert!(e.0.contains("twice"), "{e}");
        let e = parse(&args("check --epochs 3")).unwrap_err();
        assert!(e.0.contains("unknown flag"), "{e}");
    }

    #[test]
    fn doctor_parses_and_validates() {
        assert_eq!(
            parse(&args("doctor --run rec --json")).unwrap(),
            Command::Doctor {
                run: Some("rec".into()),
                bench_baseline: None,
                bench_candidate: None,
                json: true,
            }
        );
        let e = parse(&args("doctor --json")).unwrap_err();
        assert!(e.0.contains("at least one"), "{e}");
        assert!(e.0.contains("--run DIR"), "{e}");
        // A bench pair alone is enough.
        let cmd = parse(&args(
            "doctor --bench-baseline a.txt --bench-candidate b.txt",
        ))
        .unwrap();
        let Command::Doctor {
            bench_baseline,
            bench_candidate,
            run: None,
            ..
        } = cmd
        else {
            panic!("expected a bench-only Doctor, got {cmd:?}");
        };
        assert_eq!(bench_baseline.as_deref(), Some("a.txt"));
        assert_eq!(bench_candidate.as_deref(), Some("b.txt"));
        let e = parse(&args("doctor --run rec --bench-baseline b.json")).unwrap_err();
        assert!(e.0.contains("given together"), "{e}");
        let e = parse(&args("doctor --bench-candidate b.json")).unwrap_err();
        assert!(e.0.contains("given together"), "{e}");
    }

    #[test]
    fn tables_defaults_and_full_invocation() {
        assert_eq!(
            parse(&args("tables table4")).unwrap(),
            Command::Tables {
                table: tables::spec("table4", Scale::Smoke).unwrap(),
                scale: Scale::Smoke,
                seeds: 1,
            }
        );
        let cmd = parse(&args("tables compare --seeds 3 --scale paper")).unwrap();
        let Command::Tables {
            table,
            scale,
            seeds,
        } = cmd
        else {
            panic!("expected Tables, got {cmd:?}");
        };
        assert_eq!(
            (table.body, scale, seeds),
            (tables::Body::Paired, Scale::Paper, 3)
        );
    }

    #[test]
    fn help_lists_every_table() {
        let list = USAGE.split("adaptraj tables <").nth(1).unwrap();
        let names: Vec<&str> = list.split('>').next().unwrap().split('|').collect();
        assert_eq!(names.len(), 12, "{names:?}");
        for name in names {
            let name = name.trim();
            assert!(parse(&args(&format!("tables {name}"))).is_ok(), "{name}");
        }
    }

    #[test]
    fn tables_rejects_bad_input() {
        for (line, needle) in [
            ("tables", "missing table name"),
            ("tables --scale smoke", "missing table name"),
            ("tables table9", "unknown table 'table9'"),
            ("tables table1 --bogus 3", "unknown flag --bogus"),
            ("tables table1 --scale papr", "unknown --scale 'papr'"),
            ("tables table1 --scale", "--scale needs a value"),
            (
                "tables table1 --seeds abc",
                "--seeds expects a positive integer",
            ),
            (
                "tables table1 --seeds 0",
                "--seeds expects a positive integer",
            ),
            ("tables table1 --seeds 1 --seeds 2", "--seeds given twice"),
            (
                "tables table1 --scale smoke --scale smoke",
                "--scale given twice",
            ),
            ("tables compare --target eth_ucy", "unknown flag --target"),
        ] {
            let e = parse(&args(line)).unwrap_err();
            assert!(e.0.contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn visualize_defaults() {
        let cmd = parse(&args("visualize --target syi")).unwrap();
        assert_eq!(
            cmd,
            Command::Visualize {
                target: DomainId::Syi,
                out: "viz_out".into(),
                count: 4
            }
        );
    }
}
