//! Every table spec renders without training: a fake runner stands in for
//! `run_cell_avg`, and the tests pin each table's ordered cell list (label
//! plus the `RunnerConfig` fields that vary between tables), its header,
//! its row count, its `Average` column, and the social and paired columns
//! computed from the fake's per-window scores.

use adaptraj_bench::tables::{render, spec, Body, Cell, CellFormat, TableSpec};
use adaptraj_bench::Scale;
use adaptraj_eval::{
    paired_bootstrap, CellResult, CellSpec, EvalAccumulator, EvalResult, RunnerConfig, WindowScore,
};
use adaptraj_models::predictor::TrainReport;

/// Per-window scores in each fake result.
const FAKE_WINDOWS: usize = 40;

/// A deterministic result derived from the cell's label and settings.
fn fake(spec: &CellSpec, cfg: &RunnerConfig) -> CellResult {
    let n = spec.label().len();
    let k = n as f32 + cfg.adaptraj.delta + cfg.adaptraj.sigma + cfg.adaptraj.e_end_frac;
    let windows = (0..FAKE_WINDOWS)
        .map(|i| {
            let x = ((n * 7 + i * 13) % 17) as f32 / 10.0;
            WindowScore {
                best_ade: x,
                best_fde: 2.0 * x,
                ade: x + 0.25,
                fde: 2.0 * x + 0.5,
                collides: (n + i).is_multiple_of(3),
                misses: (n + 2 * i).is_multiple_of(5),
            }
        })
        .collect();
    CellResult {
        spec: spec.clone(),
        eval: EvalResult {
            ade: k / 97.0,
            fde: k / 31.0,
        },
        infer_time_s: f64::from(k) / 1e4,
        train_time_s: 0.0,
        final_train_loss: None,
        report: TrainReport::default(),
        windows,
    }
}

/// Renders a table through the fake runner; returns the output and the
/// cells in the order they were run.
fn render_fake(t: &TableSpec) -> (String, Vec<(CellSpec, RunnerConfig)>) {
    let mut calls = Vec::new();
    let out = render(t, &[], |s, c| {
        calls.push((s.clone(), c.clone()));
        fake(s, c)
    });
    (out, calls)
}

const NAMES: [&str; 12] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "fig3", "fig4",
    "social", "compare",
];

/// Every cell of `t`, in run order.
fn cells(t: &TableSpec) -> impl Iterator<Item = &Cell> {
    t.sections
        .iter()
        .flat_map(|s| &s.rows)
        .flat_map(|r| &r.cells)
}

fn smoke(name: &str) -> TableSpec {
    spec(name, Scale::Smoke).unwrap_or_else(|| panic!("no spec for {name}"))
}

/// The rendered `| ... |` lines of each section, header first.
fn table_lines(out: &str) -> Vec<Vec<&str>> {
    let mut sections = vec![];
    let mut current: Vec<&str> = vec![];
    for line in out.lines() {
        if line.starts_with("| ") {
            current.push(line);
        } else if !line.starts_with("|-") && !current.is_empty() {
            sections.push(std::mem::take(&mut current));
        }
    }
    sections
}

fn cells_of(line: &str) -> Vec<&str> {
    line.trim_matches('|').split(" | ").map(str::trim).collect()
}

/// `leave_one_out` source lists, keyed by target, in the paper's order.
const LOO: [(&str, &str); 4] = [
    ("SDD", "ETH&UCY+L-CAS+SYI"),
    ("ETH&UCY", "L-CAS+SYI+SDD"),
    ("L-CAS", "ETH&UCY+SYI+SDD"),
    ("SYI", "ETH&UCY+L-CAS+SDD"),
];
const METHODS: [&str; 4] = ["vanilla", "Counter", "CausalMotion", "AdapTraj"];

/// `backbone-method tail` for every backbone × method × tail.
fn grid(methods: &[&str], tails: &[String]) -> Vec<String> {
    let mut v = vec![];
    for b in ["PECNet", "LBEBM"] {
        for m in methods {
            for t in tails {
                v.push(format!("{b}-{m} {t}"));
            }
        }
    }
    v
}

fn labels(cells: &[(CellSpec, RunnerConfig)]) -> Vec<String> {
    cells.iter().map(|(s, _)| s.label()).collect()
}

/// `(epochs, max_train_windows, samples_k, eval_cap)`.
fn budget(c: &RunnerConfig) -> (usize, usize, usize, usize) {
    (
        c.trainer.epochs,
        c.trainer.max_train_windows,
        c.samples_k,
        c.eval_cap,
    )
}

/// `(delta, sigma, f_low, f_high, e_start_frac, e_end_frac)`.
fn knobs(c: &RunnerConfig) -> [f32; 6] {
    [
        c.adaptraj.delta,
        c.adaptraj.sigma,
        c.adaptraj.f_low,
        c.adaptraj.f_high,
        c.adaptraj.e_start_frac,
        c.adaptraj.e_end_frac,
    ]
}

const SMOKE_BUDGET: (usize, usize, usize, usize) = (36, 200, 3, 150);
const DEFAULT_KNOBS: [f32; 6] = [0.5, 0.7, 0.5, 2.0, 0.6, 0.8];

/// Renders `name` with the fake runner and checks its cell labels, header
/// and row count, and that every cell runs `cell_budget` with the default
/// knobs.
fn check(
    name: &str,
    expected: &[String],
    header: &str,
    rows: usize,
    cell_budget: (usize, usize, usize, usize),
) -> String {
    let t = smoke(name);
    let (out, calls) = render_fake(&t);
    assert_eq!(labels(&calls), expected, "{name} cell list");
    for (s, c) in &calls {
        assert_eq!(budget(c), cell_budget, "{name} {}", s.label());
        assert_eq!(knobs(c), DEFAULT_KNOBS, "{name} {}", s.label());
    }
    let sections = table_lines(&out);
    assert_eq!(sections.len(), 1, "{name}: {out}");
    assert_eq!(sections[0][0], header, "{name} header");
    assert_eq!(sections[0].len() - 1, rows, "{name} rows: {out}");
    assert!(out.ends_with(&format!("{}\n", t.shape)), "{name}: {out}");
    out
}

fn s(v: &[&str]) -> Vec<String> {
    v.iter().map(|x| x.to_string()).collect()
}

#[test]
fn every_name_has_a_spec_and_unknown_names_have_none() {
    for name in NAMES {
        assert!(spec(name, Scale::Smoke).is_some(), "{name}");
    }
    assert!(spec("table9", Scale::Smoke).is_none());
}

#[test]
fn table1_prints_statistics_then_the_paper_values() {
    let t = smoke("table1");
    assert_eq!(t.body, Body::Stats);
    assert_eq!(cells(&t).count(), 0);
    let (out, calls) = render_fake(&t);
    assert!(calls.is_empty());
    let sections = table_lines(&out);
    assert_eq!(sections.len(), 2, "{out}");
    assert!(sections[0][0].starts_with("| Dataset | # sequences | Avg/Std num |"));
    let paper: Vec<&str> = sections[1][1..].iter().map(|l| cells_of(l)[0]).collect();
    assert_eq!(paper, ["ETH&UCY", "L-CAS", "SYI", "SDD"]);
    assert!(out.contains("Paper values (recorded datasets, for shape comparison):\n"));
}

#[test]
fn table2_cells() {
    let tails: Vec<String> = ["SDD", "ETH&UCY"]
        .iter()
        .flat_map(|src| {
            [
                "LBEBM-vanilla",
                "PECNet-vanilla",
                "PECNet-Counter",
                "PECNet-CausalMotion",
            ]
            .map(|c| format!("{c} [{src} -> SDD]"))
        })
        .collect();
    check(
        "table2",
        &tails,
        "| Source Domain | LBEBM       | PECNet      | Counter     | CausalMotion |",
        2,
        SMOKE_BUDGET,
    );
}

#[test]
fn table3_cells() {
    let expected: Vec<String> = ["ETH&UCY", "ETH&UCY+L-CAS", "ETH&UCY+L-CAS+SYI"]
        .iter()
        .flat_map(|src| ["Counter", "CausalMotion"].map(|m| format!("PECNet-{m} [{src} -> SDD]")))
        .collect();
    let out = check(
        "table3",
        &expected,
        "| Source Domains      | Counter     | CausalMotion |",
        3,
        SMOKE_BUDGET,
    );
    assert!(out.contains("| ETH&UCY, L-CAS, SYI |"), "{out}");
}

#[test]
fn table4_cells_and_average() {
    let tails: Vec<String> = LOO.iter().map(|(t, s)| format!("[{s} -> {t}]")).collect();
    let out = check(
        "table4",
        &grid(&METHODS, &tails),
        "| Backbone | Method       | SDD         | ETH&UCY     | L-CAS       | SYI         | Average     |",
        8,
        SMOKE_BUDGET,
    );
    assert_average_is_row_mean(&smoke("table4"), &out);
}

#[test]
fn table5_cells_and_average() {
    let tails = s(&["[ETH&UCY -> SDD]", "[L-CAS -> SDD]", "[SYI -> SDD]"]);
    let out = check(
        "table5",
        &grid(&METHODS, &tails),
        "| Backbone | Method       | ETH&UCY     | L-CAS       | SYI         | Average     |",
        8,
        SMOKE_BUDGET,
    );
    assert_average_is_row_mean(&smoke("table5"), &out);
}

/// The last column of every row is the mean ADE/FDE of the row's cells.
fn assert_average_is_row_mean(t: &TableSpec, out: &str) {
    let lines = &table_lines(out)[0][1..];
    let rows = &t.sections[0].rows;
    assert_eq!(lines.len(), rows.len());
    for (line, row) in lines.iter().zip(rows) {
        let results: Vec<EvalResult> = row
            .cells
            .iter()
            .map(|c| fake(&c.spec, &c.cfg).eval)
            .collect();
        let n = results.len() as f32;
        let ade = results.iter().map(|r| r.ade).sum::<f32>() / n;
        let fde = results.iter().map(|r| r.fde).sum::<f32>() / n;
        let cells = cells_of(line);
        assert_eq!(cells.len(), 2 + results.len() + 1, "{line}");
        for (cell, r) in cells[2..].iter().zip(&results) {
            assert_eq!(*cell, r.to_string(), "{line}");
        }
        assert_eq!(
            *cells.last().unwrap(),
            format!("{ade:.3}/{fde:.3}"),
            "{line}"
        );
    }
}

#[test]
fn table6_cells() {
    let mut expected = vec![];
    for m in ["vanilla", "AdapTraj"] {
        for src in ["SDD", "ETH&UCY", "ETH&UCY+L-CAS"] {
            expected.push(format!("PECNet-{m} [{src} -> SDD]"));
        }
    }
    let out = check(
        "table6",
        &expected,
        "| Method          | Source Domains | ADE   | FDE   |",
        6,
        SMOKE_BUDGET,
    );
    let first: Vec<&str> = table_lines(&out)[0][1..]
        .iter()
        .map(|l| cells_of(l)[0])
        .collect();
    assert_eq!(first[0], "PECNet");
    assert_eq!(first[5], "PECNet-AdapTraj");
}

#[test]
fn table7_cells() {
    let tails = s(&["[ETH&UCY+L-CAS+SYI -> SDD]"]);
    let out = check(
        "table7",
        &grid(&["w/o specific", "w/o invariant", "AdapTraj"], &tails),
        "| Backbone | Variant       | ADE   | FDE   |",
        6,
        SMOKE_BUDGET,
    );
    let variants: Vec<&str> = table_lines(&out)[0][1..4]
        .iter()
        .map(|l| cells_of(l)[1])
        .collect();
    assert_eq!(variants, ["w/o specific", "w/o invariant", "ours"]);
}

#[test]
fn table8_cells_use_the_short_training_budget() {
    let tails = s(&["[ETH&UCY+L-CAS+SYI -> SDD]"]);
    let out = check(
        "table8",
        &grid(&METHODS, &tails),
        "| Backbone | Method       | Median inference time (s) |",
        8,
        (2, 60, 1, 60),
    );
    let first = &smoke("table8").sections[0].rows[0].cells[0];
    let seconds = fake(&first.spec, &first.cfg).infer_time_s;
    assert!(
        out.contains(&format!("| PECNet   | vanilla      | {seconds:.4} ")),
        "{out}"
    );
    let paper = spec("table8", Scale::Paper).unwrap();
    for c in cells(&paper) {
        assert_eq!(budget(&c.cfg), (2, 60, 1, 200));
    }
}

#[test]
fn fig3_cells() {
    let mut expected = vec![];
    for src in ["ETH&UCY", "ETH&UCY+L-CAS", "ETH&UCY+L-CAS+SYI"] {
        for b in ["PECNet", "LBEBM"] {
            expected.push(format!("{b}-AdapTraj [{src} -> SDD]"));
        }
    }
    check(
        "fig3",
        &expected,
        "| #Sources | PECNet-AdapTraj | LBEBM-AdapTraj |",
        3,
        SMOKE_BUDGET,
    );
}

#[test]
fn fig4_sweeps_one_knob_per_section() {
    let t = smoke("fig4");
    let (out, calls) = render_fake(&t);
    for (s, c) in &calls {
        assert_eq!(s.label(), "PECNet-AdapTraj [ETH&UCY+L-CAS -> SDD]");
        assert_eq!(budget(c), SMOKE_BUDGET);
    }
    // (row label, [delta, sigma, f_low, f_high, e_start_frac, e_end_frac]).
    let expected: [&[(&str, [f32; 6])]; 6] = [
        &[
            ("0.05", [0.05, 0.7, 0.5, 2.0, 0.6, 0.8]),
            ("0.5", [0.5, 0.7, 0.5, 2.0, 0.6, 0.8]),
            ("1", [1.0, 0.7, 0.5, 2.0, 0.6, 0.8]),
            ("2", [2.0, 0.7, 0.5, 2.0, 0.6, 0.8]),
        ],
        &[
            ("0", [0.5, 0.7, 0.5, 2.0, 0.0, 0.8]),
            ("7", [0.5, 0.7, 0.5, 2.0, 0.2, 0.8]),
            ("14", [0.5, 0.7, 0.5, 2.0, 0.4, 0.8]),
            ("22", [0.5, 0.7, 0.5, 2.0, 0.6, 0.8]),
        ],
        &[
            ("18", [0.5, 0.7, 0.5, 2.0, 0.5, 0.5]),
            ("25", [0.5, 0.7, 0.5, 2.0, 0.6, 0.7]),
            ("32", [0.5, 0.7, 0.5, 2.0, 0.6, 0.9]),
            ("36", [0.5, 0.7, 0.5, 2.0, 0.6, 1.0]),
        ],
        &[
            ("0", [0.5, 0.0, 0.5, 2.0, 0.6, 0.8]),
            ("0.25", [0.5, 0.25, 0.5, 2.0, 0.6, 0.8]),
            ("0.5", [0.5, 0.5, 0.5, 2.0, 0.6, 0.8]),
            ("0.75", [0.5, 0.75, 0.5, 2.0, 0.6, 0.8]),
            ("1", [0.5, 1.0, 0.5, 2.0, 0.6, 0.8]),
        ],
        &[
            ("0.01", [0.5, 0.7, 0.01, 2.0, 0.6, 0.8]),
            ("0.1", [0.5, 0.7, 0.1, 2.0, 0.6, 0.8]),
            ("0.5", [0.5, 0.7, 0.5, 2.0, 0.6, 0.8]),
            ("1", [0.5, 0.7, 1.0, 2.0, 0.6, 0.8]),
        ],
        &[
            ("0.5", [0.5, 0.7, 0.5, 0.5, 0.6, 0.8]),
            ("1", [0.5, 0.7, 0.5, 1.0, 0.6, 0.8]),
            ("2", [0.5, 0.7, 0.5, 2.0, 0.6, 0.8]),
            ("4", [0.5, 0.7, 0.5, 4.0, 0.6, 0.8]),
        ],
    ];
    let want_knobs: Vec<[f32; 6]> = expected
        .iter()
        .flat_map(|s| s.iter().map(|p| p.1))
        .collect();
    let got_knobs: Vec<[f32; 6]> = calls.iter().map(|(_, c)| knobs(c)).collect();
    assert_eq!(got_knobs, want_knobs);

    let sections = table_lines(&out);
    let params = ["delta", "e_start", "e_end", "sigma", "f_low", "f_high"];
    assert_eq!(sections.len(), 6, "{out}");
    for ((lines, want), param) in sections.iter().zip(expected).zip(params) {
        assert_eq!(cells_of(lines[0]), [param, "ADE/FDE"]);
        let rows: Vec<&str> = lines[1..].iter().map(|l| cells_of(l)[0]).collect();
        let want_rows: Vec<&str> = want.iter().map(|p| p.0).collect();
        assert_eq!(rows, want_rows, "{param}");
    }
    for caption in [
        "(a) domain weight delta\n| delta ",
        "(b) aggregator start epoch\n| e_start ",
        "(c) aggregator end epoch\n| e_end ",
        "(d) aggregator ratio sigma\n| sigma ",
        "(e) low lr fraction\n| f_low ",
        "(f) high lr fraction\n| f_high ",
    ] {
        assert!(out.contains(caption), "{caption}: {out}");
    }
}

/// Fig. 4's epoch panels label each row with the epoch the cell trains
/// at: where step 2 starts for `e_start` and where step 3 starts for
/// `e_end`. A label computed apart from the schedule (36 × 0.6 truncated
/// to 21, trained at 22) would misplace the point on the figure.
#[test]
fn fig4_epoch_labels_are_the_trained_step_boundaries() {
    for scale in [Scale::Smoke, Scale::Paper] {
        let t = spec("fig4", scale).unwrap();
        let (out, _) = render_fake(&t);
        let sections = table_lines(&out);
        for (section, step) in [(1, 2), (2, 3)] {
            let printed: Vec<&str> = sections[section][1..]
                .iter()
                .map(|l| cells_of(l)[0])
                .collect();
            let trained: Vec<String> = t.sections[section]
                .rows
                .iter()
                .map(|r| {
                    let c = &r.cells[0].cfg;
                    let start = c.adaptraj.step_epochs(step, c.trainer.epochs).start;
                    start.to_string()
                })
                .collect();
            assert_eq!(printed, trained, "{} step {step}", scale.name());
        }
    }
}

#[test]
fn social_cells() {
    let t = smoke("social");
    assert_eq!(
        t.body,
        Body::Grid {
            format: CellFormat::Social,
            average: false
        }
    );
    let tails = s(&["[ETH&UCY+L-CAS+SYI -> SDD]"]);
    let out = check(
        "social",
        &grid(&METHODS, &tails),
        "| Backbone | Method       | ADE/FDE     | Collision rate | Miss rate @2m |",
        8,
        SMOKE_BUDGET,
    );
    let lines = &table_lines(&out)[0][1..];
    let mut colliding = vec![];
    for (line, row) in lines.iter().zip(&t.sections[0].rows) {
        let c = &row.cells[0];
        let windows = fake(&c.spec, &c.cfg).windows;
        let mut first = EvalAccumulator::new();
        for w in &windows {
            first.push(w.ade, w.fde);
        }
        let n = windows.len() as f32;
        let collisions = windows.iter().filter(|w| w.collides).count();
        let misses = windows.iter().filter(|w| w.misses).count();
        colliding.push(collisions);
        assert_eq!(
            cells_of(line)[2..],
            [
                first.result().to_string(),
                format!("{:.3}", collisions as f32 / n),
                format!("{:.3}", misses as f32 / n),
            ],
            "{line}"
        );
    }
    // The fake's rates vary by cell, so a column mix-up would show.
    assert!(
        colliding.iter().any(|&c| c != colliding[0]),
        "{colliding:?}"
    );
}

#[test]
fn compare_pairs_vanilla_with_adaptraj_on_sdd_and_syi() {
    let t = smoke("compare");
    assert_eq!(t.body, Body::Paired);
    let rows = &t.sections[0].rows;
    let got: Vec<(Vec<String>, Vec<String>)> = rows
        .iter()
        .map(|r| {
            (
                r.labels.clone(),
                r.cells.iter().map(|c| c.spec.label()).collect(),
            )
        })
        .collect();
    let mut want = vec![];
    for (target, sources) in [LOO[0], LOO[3]] {
        for b in ["PECNet", "LBEBM"] {
            want.push((
                s(&[b, target]),
                ["vanilla", "AdapTraj"]
                    .map(|m| format!("{b}-{m} [{sources} -> {target}]"))
                    .to_vec(),
            ));
        }
    }
    assert_eq!(got, want);
    let run_order: Vec<String> = want.into_iter().flat_map(|(_, cells)| cells).collect();
    let out = check(
        "compare",
        &run_order,
        "| Backbone | Target | mean ADE diff (AdapTraj − vanilla)   | 95% CI             | resolved?         |",
        4,
        SMOKE_BUDGET,
    );
    // Each row is a paired bootstrap of AdapTraj's per-window best-of-k
    // ADE against vanilla's.
    let best_ade = |c: &Cell| -> Vec<f32> {
        let windows = fake(&c.spec, &c.cfg).windows;
        windows.iter().map(|w| w.best_ade).collect()
    };
    for (line, row) in table_lines(&out)[0][1..].iter().zip(rows) {
        let r = paired_bootstrap(
            &best_ade(&row.cells[1]),
            &best_ade(&row.cells[0]),
            2000,
            0.95,
            99,
        );
        let resolved = if r.significant() {
            "yes"
        } else {
            "no (within noise)"
        };
        assert_eq!(
            cells_of(line)[2..],
            [
                format!("{:+.4}", r.mean_diff),
                format!("[{:+.4}, {:+.4}]", r.ci_low, r.ci_high),
                resolved.to_string(),
            ],
            "{line}"
        );
    }
}

#[test]
fn paper_scale_runs_the_full_budget() {
    for name in NAMES.iter().filter(|n| **n != "table8") {
        let t = spec(name, Scale::Paper).unwrap();
        for c in cells(&t) {
            assert_eq!(
                (c.cfg.trainer.epochs, c.cfg.trainer.max_train_windows),
                (80, 800),
                "{name}"
            );
            assert_eq!((c.cfg.samples_k, c.cfg.eval_cap), (20, 300), "{name}");
        }
    }
}
