//! Runs one table or figure of the paper's evaluation (see the
//! `adaptraj_bench` crate docs for the list) and prints it to stdout;
//! progress goes to stderr.
//!
//! ```sh
//! cargo run --release -p adaptraj-bench --bin tables -- table4 --scale smoke --seeds 2
//! ```
//!
//! A malformed invocation prints one `error:` line and the usage to
//! stderr and exits 2.

use adaptraj_bench::tables::render;
use adaptraj_bench::{banner, build_datasets, Args, USAGE};
use adaptraj_eval::run_cell_avg;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seeds: Vec<u64> = (1..=args.seeds).collect();
    banner(args.table.title, args.scale);
    if seeds.len() > 1 {
        println!("(averaging over {} training seeds per cell)\n", seeds.len());
    }
    let datasets = build_datasets(args.scale);
    print!(
        "{}",
        render(&args.table, &datasets, &seeds, |cell, cfg| {
            run_cell_avg(cell, &datasets, cfg, &seeds)
        })
    );
    ExitCode::SUCCESS
}
