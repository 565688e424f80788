//! `figures` — regenerate the paper's tables and figures.
//!
//! ```text
//! figures <experiment> [--scale S] [--seeds N] [--json PATH] [--points K]
//!
//! experiments:
//!   table1 table2 fig8 fig9 fig10 fig11 fig12 fig13 fig12_13 fig14 fig15
//!   fig16 fig17 fig18 fig19 rules-abtbuy ext-ensemble-nn ext-lsh ext-iwal
//!   ext-voting extensions fault-sweep latency-breakdown ablation-tau
//!   ablation-batch ablation-features ablations all
//! ```
//!
//! `--scale` sets the synthetic corpus scale (default 0.25; 1.0 ≈ paper
//! sizes). `--json` additionally dumps the raw series for EXPERIMENTS.md.

use alem_bench::experiments::{self, ExpConfig};
use alem_core::report::{Figure, TableReport};
use serde::Serialize;
use std::time::Instant;

#[derive(Default, Serialize)]
struct Dump {
    figures: Vec<Figure>,
    tables: Vec<TableReport>,
    listings: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: figures <experiment> [--scale S] [--seeds N] [--json PATH] [--points K]\n\
         experiments: table1 table2 fig8 fig9 fig10 fig11 fig12 fig13 fig12_13 fig14\n\
         \x20           fig15 fig16 fig17 fig18 fig19 rules-abtbuy ext-ensemble-nn ext-lsh\n\
         \x20           ext-iwal ext-voting extensions fault-sweep latency-breakdown\n\
         \x20           ablation-tau ablation-batch ablation-features ablations all"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let experiment = args[0].clone();
    let mut cfg = ExpConfig::default();
    let mut json_path: Option<String> = None;
    let mut points = 12usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                cfg.scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--seeds" => {
                cfg.noise_seeds = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--json" => {
                json_path = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
                i += 2;
            }
            "--points" => {
                points = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            _ => usage(),
        }
    }

    let mut dump = Dump::default();
    let t0 = Instant::now();
    run_experiment(&experiment, cfg, &mut dump, points);
    eprintln!("[figures] {experiment} done in {:?}", t0.elapsed());

    if let Some(path) = json_path {
        let js = serde_json::to_string_pretty(&dump).expect("serialize dump");
        std::fs::write(&path, js).expect("write json dump");
        eprintln!("[figures] raw series written to {path}");
    }
}

/// Write a table as CSV (for downstream plotting of robustness sweeps).
fn write_csv(path: &str, t: &TableReport) {
    let mut out = String::new();
    out.push_str(&t.header.join(","));
    out.push('\n');
    for row in &t.rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, out) {
        Ok(()) => eprintln!("[figures] csv rows written to {path}"),
        Err(e) => eprintln!("[figures] failed to write {path}: {e}"),
    }
}

fn emit_figures(figs: Vec<Figure>, dump: &mut Dump, points: usize) {
    for f in figs {
        println!("{}", f.to_text(points));
        dump.figures.push(f);
    }
}

fn emit_table(t: TableReport, dump: &mut Dump) {
    println!("{}", t.to_text());
    dump.tables.push(t);
}

fn run_experiment(name: &str, cfg: ExpConfig, dump: &mut Dump, points: usize) {
    match name {
        "table1" => emit_table(experiments::table1(cfg), dump),
        "table2" => emit_table(experiments::table2(cfg), dump),
        "fig8" => emit_figures(experiments::fig8(cfg), dump, points),
        "fig9" => emit_figures(experiments::fig9(cfg), dump, points),
        "fig10" => emit_figures(experiments::fig10(cfg), dump, points),
        "fig11" => emit_figures(experiments::fig11(cfg), dump, points),
        "fig12" | "fig13" => {
            let (f12, f13) = experiments::fig12_13(cfg);
            if name == "fig12" {
                emit_figures(f12, dump, points);
            } else {
                emit_figures(f13, dump, points);
            }
        }
        "fig12_13" => {
            let (f12, f13) = experiments::fig12_13(cfg);
            emit_figures(f12, dump, points);
            emit_figures(f13, dump, points);
        }
        "fig14" => emit_figures(experiments::fig14(cfg), dump, points),
        "fig15" => emit_figures(experiments::fig15(cfg), dump, points),
        "fig16" => emit_figures(experiments::fig16(cfg), dump, points),
        "fig17" => emit_figures(experiments::fig17(cfg), dump, points),
        "fig18" => emit_figures(experiments::fig18(cfg), dump, points),
        "fig19" => emit_table(experiments::fig19(cfg), dump),
        "ext-ensemble-nn" => emit_figures(experiments::ext_ensemble_nn(cfg), dump, points),
        "ext-lsh" => emit_figures(experiments::ext_lsh(cfg), dump, points),
        "ext-iwal" => emit_figures(experiments::ext_iwal(cfg), dump, points),
        "ext-voting" => emit_figures(vec![experiments::ext_voting(cfg)], dump, points),
        "extensions" => {
            emit_figures(experiments::ext_ensemble_nn(cfg), dump, points);
            emit_figures(experiments::ext_lsh(cfg), dump, points);
            emit_figures(experiments::ext_iwal(cfg), dump, points);
            emit_figures(vec![experiments::ext_voting(cfg)], dump, points);
        }
        "fault-sweep" => {
            let t = experiments::fault_sweep(cfg);
            write_csv("results/fault_sweep.csv", &t);
            emit_table(t, dump);
        }
        "latency-breakdown" => {
            let t = experiments::latency_breakdown(cfg);
            write_csv("results/latency_breakdown.csv", &t);
            emit_table(t, dump);
        }
        "ablation-tau" => emit_table(experiments::ablation_tau(cfg), dump),
        "ablation-batch" => emit_table(experiments::ablation_batch(cfg), dump),
        "ablation-features" => emit_table(experiments::ablation_feature_subset(cfg), dump),
        "ablations" => {
            emit_table(experiments::ablation_tau(cfg), dump);
            emit_table(experiments::ablation_batch(cfg), dump);
            emit_table(experiments::ablation_feature_subset(cfg), dump);
        }
        "rules-abtbuy" => {
            let listing = experiments::rules_listing(cfg);
            println!("{listing}");
            dump.listings.push(listing);
        }
        "all" => {
            for exp in [
                "table1",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "fig12_13",
                "table2",
                "fig14",
                "fig15",
                "fig16",
                "fig17",
                "fig18",
                "rules-abtbuy",
                "fig19",
                "fault-sweep",
            ] {
                let t = Instant::now();
                run_experiment(exp, cfg, dump, points);
                eprintln!("[figures] {exp} finished in {:?}", t.elapsed());
            }
        }
        _ => usage(),
    }
}
