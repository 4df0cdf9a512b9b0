//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_adaptraj|eval_best_of_20|serve_closed_k1> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric, then a JSON line with the run
//! environment, per-phase operation counts and every figure, and last a
//! JSON line with `correct`, `attempted`, `failed` and the metrics named
//! in `BENCHMARK.json`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of all three workloads with `--trace 1`.
//! `perfbench/README.md` says what each metric measures and what it
//! should move.

mod client;
mod env;
mod stats;
mod trace;
mod workloads;

use adaptraj_obs::json::{Arr, Obj};
use workloads::{Metric, Outcome};

const WORKLOADS: [&str; 3] = ["train_adaptraj", "eval_best_of_20", "serve_closed_k1"];

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut obj = Obj::new();
    for m in metrics {
        obj = obj.raw(
            &m.name,
            &Obj::new()
                .f64("value", m.value)
                .str("unit", m.unit)
                .finish(),
        );
    }
    obj.finish()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let secs = args.seconds as f64;
    let out: Outcome = match (args.trace, args.workload.as_str()) {
        (true, _) => trace::run(args.seed),
        (false, "train_adaptraj") => workloads::train(args.seed, secs),
        (false, "eval_best_of_20") => workloads::eval_best_of_20(args.seed, secs),
        (false, _) => workloads::serve_closed_k1(args.seed, secs),
    };

    let total = out.total();
    let mut problems = out.problems.clone();
    for m in &out.metrics {
        if !m.value.is_finite() {
            problems.push(format!("{} is not a finite number", m.name));
        }
    }
    let correct = total.failed == 0 && problems.is_empty();

    for m in out.metrics.iter().chain(&out.detail) {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (name, t) in &out.phases {
        println!(
            "phase {name:<26} attempted {} succeeded {} failed {}",
            t.attempted,
            t.succeeded(),
            t.failed
        );
    }
    for p in &problems {
        println!("problem: {p}");
    }
    let mut phases = Arr::new();
    for (name, t) in &out.phases {
        phases = phases.push_raw(
            &Obj::new()
                .str("phase", name)
                .u64("attempted", t.attempted)
                .u64("succeeded", t.succeeded())
                .u64("failed", t.failed)
                .finish(),
        );
    }
    let mut all = out.metrics.clone();
    all.extend(out.detail.iter().cloned());
    println!(
        "{}",
        Obj::new()
            .str("schema", "adaptraj-perfbench/v1")
            .raw(
                "env",
                &env::to_json(&args.workload, args.seed, args.seconds, args.trace)
            )
            .raw("phases", &phases.finish())
            .raw("figures", &metrics_json(&all))
            .finish()
    );
    println!(
        "{}",
        Obj::new()
            .bool("correct", correct)
            .u64("attempted", total.attempted)
            .u64("failed", total.failed)
            .raw("metrics", &metrics_json(&out.metrics))
            .finish()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&args(
            "--workload serve_closed_k1 --seed 3 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve_closed_k1".into(),
                seed: 3,
                seconds: 12,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1",
            "--workload train_adaptraj",
            "--seed 1",
            "--workload train_adaptraj --seed x",
            "--workload train_adaptraj --seed 1 --trace 2",
            "--workload train_adaptraj --seed 1 --bogus 1",
            "--workload train_adaptraj --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
