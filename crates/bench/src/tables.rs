//! The paper's tables and figures as data.
//!
//! Each table is a [`TableSpec`]: a title, the paper's expected shape, and
//! one or more [`Section`]s of rows, where a row is some label cells plus
//! the `(CellSpec, RunnerConfig)` cells to train and score. [`render`]
//! trains and scores nothing itself: it runs the cells in order through a
//! caller-supplied runner and lays out the [`CellResult`]s, means and
//! per-window scores alike, so the `tables` binary passes `run_cell_avg`
//! and a test passes a fake that trains nothing.

use crate::Scale;
use adaptraj_data::dataset::DomainDataset;
use adaptraj_data::domain::DomainId::{self, EthUcy, LCas, Sdd, Syi};
use adaptraj_data::stats::table_one;
use adaptraj_data::trajectory::TrajWindow;
use adaptraj_eval::{
    leave_one_out, paired_bootstrap, BackboneKind, CellResult, CellSpec, EvalAccumulator,
    MethodKind, RunnerConfig, TextTable,
};
use adaptraj_models::TrainerConfig;

/// How a table's body is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body {
    /// Dataset statistics next to the paper's values (Table I); no cells.
    Stats,
    /// One column per cell from the runner's [`CellResult`], plus an
    /// `Average` column of the row's ADE and FDE if `average`.
    Grid { format: CellFormat, average: bool },
    /// Each row's second cell against its first by a paired bootstrap over
    /// the two cells' per-window best-of-k ADE, paired by (seed, window).
    Paired,
}

/// How a [`Body::Grid`] cell is printed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellFormat {
    /// One `ADE/FDE` column.
    AdeFde,
    /// Two columns, `ADE | FDE`.
    Split,
    /// Median inference seconds per trajectory (Table VIII).
    InferSeconds,
    /// Three columns from the cell's per-window scores: first-sample
    /// `ADE/FDE`, collision rate and miss rate.
    Social,
}

/// One experiment cell and the settings it runs with.
#[derive(Debug, Clone)]
pub struct Cell {
    pub spec: CellSpec,
    pub cfg: RunnerConfig,
}

/// Leading label cells, then the cells to run.
#[derive(Debug, Clone)]
pub struct Row {
    pub labels: Vec<String>,
    pub cells: Vec<Cell>,
}

/// One printed table; Fig. 4 has one per swept hyperparameter.
#[derive(Debug, Clone)]
pub struct Section {
    pub caption: Option<&'static str>,
    pub header: Vec<&'static str>,
    pub rows: Vec<Row>,
}

/// A table or figure of the evaluation.
#[derive(Debug, Clone)]
pub struct TableSpec {
    pub title: &'static str,
    /// The paper's expected shape, printed under the table.
    pub shape: &'static str,
    pub body: Body,
    pub sections: Vec<Section>,
}

fn cell(
    backbone: BackboneKind,
    method: MethodKind,
    sources: &[DomainId],
    target: DomainId,
    cfg: &RunnerConfig,
) -> Cell {
    Cell {
        spec: CellSpec {
            backbone,
            method,
            sources: sources.to_vec(),
            target,
        },
        cfg: cfg.clone(),
    }
}

fn joined(sources: &[DomainId]) -> String {
    let names: Vec<&str> = sources.iter().map(|d| d.name()).collect();
    names.join(", ")
}

fn single(header: &[&'static str], rows: Vec<Row>) -> Vec<Section> {
    vec![Section {
        caption: None,
        header: header.to_vec(),
        rows,
    }]
}

/// One row per backbone × method, labelled `[backbone, name(method)]`.
fn backbone_rows(
    methods: &[MethodKind],
    name: impl Fn(MethodKind) -> &'static str,
    cells: impl Fn(BackboneKind, MethodKind) -> Vec<Cell>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for backbone in BackboneKind::ALL {
        for &method in methods {
            rows.push(Row {
                labels: vec![backbone.name().to_string(), name(method).to_string()],
                cells: cells(backbone, method),
            });
        }
    }
    rows
}

/// One Fig. 4 panel: caption, swept parameter, for a schedule fraction the
/// Alg. 1 step whose first trained epoch labels the row, the values, and
/// how a value is applied to the base config.
type Sweep = (
    &'static str,
    &'static str,
    Option<usize>,
    &'static [f32],
    fn(&mut RunnerConfig, f32),
);

/// Fig. 4's six panels. The aggregator epochs each stay on their side of
/// the other.
const FIG4: [Sweep; 6] = [
    (
        "(a) domain weight delta",
        "delta",
        None,
        &[0.05, 0.5, 1.0, 2.0],
        |c, v| c.adaptraj.delta = v,
    ),
    (
        "(b) aggregator start epoch",
        "e_start",
        Some(2),
        &[0.0, 0.2, 0.4, 0.6],
        |c, v| {
            c.adaptraj.e_start_frac = v;
            c.adaptraj.e_end_frac = c.adaptraj.e_end_frac.max(v);
        },
    ),
    (
        "(c) aggregator end epoch",
        "e_end",
        Some(3),
        &[0.5, 0.7, 0.9, 1.0],
        |c, v| {
            c.adaptraj.e_end_frac = v;
            c.adaptraj.e_start_frac = c.adaptraj.e_start_frac.min(v);
        },
    ),
    (
        "(d) aggregator ratio sigma",
        "sigma",
        None,
        &[0.0, 0.25, 0.5, 0.75, 1.0],
        |c, v| c.adaptraj.sigma = v,
    ),
    (
        "(e) low lr fraction",
        "f_low",
        None,
        &[0.01, 0.1, 0.5, 1.0],
        |c, v| c.adaptraj.f_low = v,
    ),
    (
        "(f) high lr fraction",
        "f_high",
        None,
        &[0.5, 1.0, 2.0, 4.0],
        |c, v| c.adaptraj.f_high = v,
    ),
];

/// The spec of table `name` at `scale`; `None` for an unknown name.
pub fn spec(name: &str, scale: Scale) -> Option<TableSpec> {
    use MethodKind::{AdapTraj, CausalMotion, Counter, Vanilla};
    let cfg = scale.runner();
    let sdd_sources = leave_one_out(Sdd);
    let ade_fde = Body::Grid {
        format: CellFormat::AdeFde,
        average: false,
    };
    let spec = match name {
        "table1" => TableSpec {
            title: "Table I: dataset statistics",
            shape: "Shape checks: SYI is densest and fastest with vertical-dominant flow;\n\
                    L-CAS is slowest/sparsest; SDD has the broadest speed spread; \n\
                    ETH&UCY flows horizontally at moderate speed.",
            body: Body::Stats,
            sections: Vec::new(),
        },
        "table2" => {
            // LBEBM and PECNet vanilla, then Counter and CausalMotion on the
            // PECNet backbone, as in their adaptations.
            let columns = [
                (BackboneKind::Lbebm, Vanilla),
                (BackboneKind::PecNet, Vanilla),
                (BackboneKind::PecNet, Counter),
                (BackboneKind::PecNet, CausalMotion),
            ];
            let rows = [Sdd, EthUcy]
                .into_iter()
                .map(|source| Row {
                    labels: vec![source.name().to_string()],
                    cells: columns
                        .iter()
                        .map(|&(b, m)| cell(b, m, &[source], Sdd, &cfg))
                        .collect(),
                })
                .collect();
            TableSpec {
                title: "Table II: cross-domain performance decline (target SDD)",
                shape: "Expected shape (paper Tab. II): every method degrades when trained on\n\
                        ETH&UCY instead of SDD; Counter/CausalMotion degrade the most.",
                body: ade_fde,
                sections: single(
                    &[
                        "Source Domain",
                        "LBEBM",
                        "PECNet",
                        "Counter",
                        "CausalMotion",
                    ],
                    rows,
                ),
            }
        }
        "table3" => {
            let rows = (1..=3)
                .map(|n| Row {
                    labels: vec![joined(&sdd_sources[..n])],
                    cells: [Counter, CausalMotion]
                        .into_iter()
                        .map(|m| cell(BackboneKind::PecNet, m, &sdd_sources[..n], Sdd, &cfg))
                        .collect(),
                })
                .collect();
            TableSpec {
                title: "Table III: negative transfer (target SDD)",
                shape: "Expected shape (paper Tab. III): errors *increase* down each column —\n\
                        more source domains hurt these methods (negative transfer).",
                body: ade_fde,
                sections: single(&["Source Domains", "Counter", "CausalMotion"], rows),
            }
        }
        "table4" => TableSpec {
            title: "Table IV: multi-source domain generalization (leave-one-out)",
            shape: "Expected shape (paper Tab. IV): AdapTraj beats vanilla on average;\n\
                    Counter and CausalMotion fall below vanilla (negative transfer +\n\
                    discarded neighbor information).",
            body: Body::Grid {
                format: CellFormat::AdeFde,
                average: true,
            },
            sections: single(
                &[
                    "Backbone", "Method", "SDD", "ETH&UCY", "L-CAS", "SYI", "Average",
                ],
                backbone_rows(&MethodKind::COMPARED, MethodKind::name, |b, m| {
                    [Sdd, EthUcy, LCas, Syi]
                        .into_iter()
                        .map(|t| cell(b, m, &leave_one_out(t), t, &cfg))
                        .collect()
                }),
            ),
        },
        "table5" => TableSpec {
            title: "Table V: single-source domain generalization (target SDD)",
            shape: "Expected shape (paper Tab. V): AdapTraj has the best averages even\n\
                    in the single-source setting.",
            body: Body::Grid {
                format: CellFormat::AdeFde,
                average: true,
            },
            sections: single(
                &["Backbone", "Method", "ETH&UCY", "L-CAS", "SYI", "Average"],
                backbone_rows(&MethodKind::COMPARED, MethodKind::name, |b, m| {
                    sdd_sources
                        .iter()
                        .map(|&s| cell(b, m, &[s], Sdd, &cfg))
                        .collect()
                }),
            ),
        },
        "table6" => {
            let mut rows = Vec::new();
            for (method, label) in [(Vanilla, "PECNet"), (AdapTraj, "PECNet-AdapTraj")] {
                for sources in [&[Sdd][..], &[EthUcy], &[EthUcy, LCas]] {
                    rows.push(Row {
                        labels: vec![label.to_string(), joined(sources)],
                        cells: vec![cell(BackboneKind::PecNet, method, sources, Sdd, &cfg)],
                    });
                }
            }
            TableSpec {
                title: "Table VI: varied source domains (target SDD)",
                shape: "Expected shape (paper Tab. VI): AdapTraj ~matches vanilla in the\n\
                        i.i.d. setting and pulls ahead as distribution shift grows.",
                body: Body::Grid {
                    format: CellFormat::Split,
                    average: false,
                },
                sections: single(&["Method", "Source Domains", "ADE", "FDE"], rows),
            }
        }
        "table7" => TableSpec {
            title: "Table VII: ablation (sources ETH&UCY+L-CAS+SYI, target SDD)",
            shape: "Expected shape (paper Tab. VII): the full framework ('ours') beats\n\
                    both ablations on both backbones.",
            body: Body::Grid {
                format: CellFormat::Split,
                average: false,
            },
            sections: single(
                &["Backbone", "Variant", "ADE", "FDE"],
                backbone_rows(
                    &[
                        MethodKind::AdapTrajNoSpecific,
                        MethodKind::AdapTrajNoInvariant,
                        AdapTraj,
                    ],
                    |m| if m == AdapTraj { "ours" } else { m.name() },
                    |b, m| vec![cell(b, m, &sdd_sources, Sdd, &cfg)],
                ),
            ),
        },
        "table8" => {
            // Inference latency depends on the architecture and method, not
            // on how long the weights were trained: minimal training, a
            // generous eval set for stable timing.
            let cfg = RunnerConfig {
                trainer: TrainerConfig {
                    epochs: 2,
                    max_train_windows: 60,
                    ..TrainerConfig::default()
                },
                samples_k: 1,
                eval_cap: if scale == Scale::Paper { 200 } else { 60 },
                ..cfg
            };
            TableSpec {
                title: "Table VIII: inference time (target SDD)",
                shape: "Expected shape (paper Tab. VIII): LBEBM slower than PECNet (Langevin\n\
                        sampling); Counter slightly slower than vanilla (extra counterfactual\n\
                        pass); CausalMotion ~= vanilla; AdapTraj slightly slower than vanilla\n\
                        (extractor + aggregator forwards). All within one order of magnitude.",
                body: Body::Grid {
                    format: CellFormat::InferSeconds,
                    average: false,
                },
                sections: single(
                    &["Backbone", "Method", "Median inference time (s)"],
                    backbone_rows(&MethodKind::COMPARED, MethodKind::name, |b, m| {
                        vec![cell(b, m, &sdd_sources, Sdd, &cfg)]
                    }),
                ),
            }
        }
        "fig3" => {
            let rows = (1..=3)
                .map(|n| Row {
                    labels: vec![n.to_string()],
                    cells: BackboneKind::ALL
                        .into_iter()
                        .map(|b| cell(b, AdapTraj, &sdd_sources[..n], Sdd, &cfg))
                        .collect(),
                })
                .collect();
            TableSpec {
                title: "Fig. 3: AdapTraj vs number of source domains (target SDD)",
                shape: "Expected shape (paper Fig. 3): errors *decrease* (or hold) as sources\n\
                        are added — AdapTraj turns extra domains into signal, not noise.",
                body: ade_fde,
                sections: single(&["#Sources", "PECNet-AdapTraj", "LBEBM-AdapTraj"], rows),
            }
        }
        "fig4" => TableSpec {
            title: "Fig. 4: hyperparameter sensitivity (PECNet-AdapTraj, target SDD)",
            shape: "Expected shapes (paper Fig. 4): moderate delta best; later e_start\n\
                    helps then saturates; larger e_end helps then saturates; sigma helps\n\
                    up to ~0.5; extreme f_low hurts; larger f_high helps.",
            body: ade_fde,
            sections: FIG4
                .iter()
                .map(|&(caption, param, step, values, set)| Section {
                    caption: Some(caption),
                    header: vec![param, "ADE/FDE"],
                    rows: values
                        .iter()
                        .map(|&v| {
                            let mut swept = cfg.clone();
                            set(&mut swept, v);
                            let label = match step {
                                Some(step) => swept
                                    .adaptraj
                                    .step_epochs(step, swept.trainer.epochs)
                                    .start
                                    .to_string(),
                                None => v.to_string(),
                            };
                            Row {
                                labels: vec![label],
                                cells: vec![cell(
                                    BackboneKind::PecNet,
                                    AdapTraj,
                                    &[EthUcy, LCas],
                                    Sdd,
                                    &swept,
                                )],
                            }
                        })
                        .collect(),
                })
                .collect(),
        },
        "social" => TableSpec {
            title: "Social metrics (supplementary; target SDD)",
            shape: "Reading: collision rate is the share of test windows whose first\n\
                    sample comes within 0.6 m of a neighbor extrapolated at constant\n\
                    velocity; miss rate @2m is the share whose first sample ends more\n\
                    than 2 m from the ground truth. Lower is better for both.",
            body: Body::Grid {
                format: CellFormat::Social,
                average: false,
            },
            sections: single(
                &[
                    "Backbone",
                    "Method",
                    "ADE/FDE",
                    "Collision rate",
                    "Miss rate @2m",
                ],
                backbone_rows(&MethodKind::COMPARED, MethodKind::name, |b, m| {
                    vec![cell(b, m, &sdd_sources, Sdd, &cfg)]
                }),
            ),
        },
        "compare" => {
            // The two leave-one-out targets with committed outputs.
            let mut rows = Vec::new();
            for target in [Sdd, Syi] {
                for backbone in BackboneKind::ALL {
                    rows.push(Row {
                        labels: vec![backbone.name().to_string(), target.name().to_string()],
                        cells: [Vanilla, AdapTraj]
                            .into_iter()
                            .map(|m| cell(backbone, m, &leave_one_out(target), target, &cfg))
                            .collect(),
                    });
                }
            }
            TableSpec {
                title: "Paired comparison: vanilla vs AdapTraj (leave-one-out targets SDD, SYI)",
                shape: "Negative mean favors AdapTraj. 'Resolved' means the 95% bootstrap\n\
                        interval over paired per-window differences excludes zero.",
                body: Body::Paired,
                sections: single(
                    &[
                        "Backbone",
                        "Target",
                        "mean ADE diff (AdapTraj − vanilla)",
                        "95% CI",
                        "resolved?",
                    ],
                    rows,
                ),
            }
        }
        _ => return None,
    };
    Some(spec)
}

/// Runs every cell of `spec` through `run` (the binary passes
/// [`adaptraj_eval::run_cell_avg`]) and lays the table out: the sections,
/// then the expected-shape text. Every number printed comes from the
/// returned [`CellResult`]s.
pub fn render(
    spec: &TableSpec,
    datasets: &[DomainDataset],
    mut run: impl FnMut(&CellSpec, &RunnerConfig) -> CellResult,
) -> String {
    let mut out = match spec.body {
        Body::Stats => stats(datasets),
        _ => String::new(),
    };
    for section in &spec.sections {
        let mut table = TextTable::new(&section.header);
        for row in &section.rows {
            let mut line = row.labels.clone();
            let results: Vec<CellResult> = row
                .cells
                .iter()
                .map(|c| {
                    eprintln!("[run] {}", c.spec.label());
                    run(&c.spec, &c.cfg)
                })
                .collect();
            match spec.body {
                Body::Stats => {}
                Body::Grid { format, average } => {
                    for res in &results {
                        match format {
                            CellFormat::AdeFde => line.push(res.eval.to_string()),
                            CellFormat::Split => {
                                line.push(format!("{:.3}", res.eval.ade));
                                line.push(format!("{:.3}", res.eval.fde));
                            }
                            CellFormat::InferSeconds => {
                                line.push(format!("{:.4}", res.infer_time_s))
                            }
                            CellFormat::Social => line.extend(social(res)),
                        }
                    }
                    if average {
                        let n = results.len() as f32;
                        let ade = results.iter().map(|r| r.eval.ade).sum::<f32>() / n;
                        let fde = results.iter().map(|r| r.eval.fde).sum::<f32>() / n;
                        line.push(format!("{ade:.3}/{fde:.3}"));
                    }
                }
                Body::Paired => line.extend(paired(&results[0], &results[1])),
            }
            table.push_row(line);
        }
        if let Some(caption) = section.caption {
            out.push_str(caption);
            out.push('\n');
        }
        out.push_str(&format!("{table}\n"));
    }
    out.push_str(spec.shape);
    out.push('\n');
    out
}

/// Table I of the paper, for the side-by-side comparison: dataset,
/// # sequences, then mean/std of agents per scene, v(x), v(y), a(x), a(y).
const PAPER_STATS: [&str; 4] = [
    "ETH&UCY 3856  9.09/10.01  0.279/0.170 0.090/0.070 0.027/0.027 0.027/0.024",
    "L-CAS   2499  7.88/3.23   0.104/0.078 0.041/0.024 0.044/0.028 0.044/0.025",
    "SYI     5152  35.17/20.81 0.306/0.063 1.087/0.185 0.082/0.018 0.339/0.062",
    "SDD     35634 17.82/15.12 0.295/0.204 0.187/0.156 0.057/0.042 0.064/0.053",
];

/// Table I: sequence counts, per-scene agent counts, and per-axis
/// velocity / acceleration magnitudes (mean/std, meters per 0.4 s frame)
/// of each synthesized domain, then the paper's values.
fn stats(datasets: &[DomainDataset]) -> String {
    let header = [
        "Dataset",
        "# sequences",
        "Avg/Std num",
        "Avg/Std v(x)",
        "Avg/Std v(y)",
        "Avg/Std a(x)",
        "Avg/Std a(y)",
    ];
    let mut ours = TextTable::new(&header);
    for ds in datasets {
        let windows: Vec<TrajWindow> = ds.all_windows().cloned().collect();
        let s = table_one(&windows);
        ours.push_row(vec![
            ds.domain.name().to_string(),
            s.sequences.to_string(),
            s.num.to_string(),
            s.vx.to_string(),
            s.vy.to_string(),
            s.ax.to_string(),
            s.ay.to_string(),
        ]);
    }
    let mut paper = TextTable::new(&header);
    for row in PAPER_STATS {
        paper.push_row(row.split_whitespace().map(String::from).collect());
    }
    format!("{ours}\nPaper values (recorded datasets, for shape comparison):\n{paper}\n")
}

/// `[first-sample ADE/FDE, collision rate, miss rate]` over every
/// window of `res`, pooled across its seeds.
fn social(res: &CellResult) -> [String; 3] {
    let mut err = EvalAccumulator::new();
    for w in &res.windows {
        err.push(w.ade, w.fde);
    }
    let n = res.windows.len().max(1) as f32;
    let rate = |hits: usize| format!("{:.3}", hits as f32 / n);
    [
        err.result().to_string(),
        rate(res.windows.iter().filter(|w| w.collides).count()),
        rate(res.windows.iter().filter(|w| w.misses).count()),
    ]
}

/// Paired bootstrap of `b` against `a` over their per-window best-of-k
/// ADE. Both cells run the same seeds on the same test windows, so their
/// vectors pair by (seed, window). `[mean diff, 95% CI, resolved?]`.
fn paired(a: &CellResult, b: &CellResult) -> [String; 3] {
    let best_ade = |r: &CellResult| -> Vec<f32> { r.windows.iter().map(|w| w.best_ade).collect() };
    let r = paired_bootstrap(&best_ade(b), &best_ade(a), 2000, 0.95, 99);
    [
        format!("{:+.4}", r.mean_diff),
        format!("[{:+.4}, {:+.4}]", r.ci_low, r.ci_high),
        if r.significant() {
            "yes"
        } else {
            "no (within noise)"
        }
        .to_string(),
    ]
}
