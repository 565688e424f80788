//! CLI subcommand implementations: CSV tables → alem pipeline.

use crate::csv::{render, CsvTable};
use crate::Args;
use alem_core::blocking::{stats, BlockingConfig};
use alem_core::corpus::Corpus;
use alem_core::ensemble::ActiveEnsembleStrategy;
use alem_core::learner::{DnfTrainer, NnTrainer, SvmTrainer};
use alem_core::loop_::{ActiveLearner, LoopParams};
use alem_core::oracle::Oracle;
use alem_core::schema::{AttrKind, EmDataset, Record, Schema, Table};
use alem_core::session::{Checkpoint, SessionConfig};
use alem_core::strategy::{
    LfpLfnStrategy, MarginNnStrategy, MarginSvmStrategy, QbcStrategy, Strategy, TreeQbcStrategy,
};
use alem_obs::Registry;
use alem_par::Parallelism;
use datagen::PaperDataset;
use std::collections::BTreeSet;
use std::error::Error;
use std::io::Write as _;
use std::path::{Path, PathBuf};

type CliResult = Result<(), Box<dyn Error>>;

/// Load a CSV file restricted to `columns` (or all shared columns when
/// empty) as an alem table.
fn load_table(
    path: &str,
    name: &str,
    columns: &[String],
) -> Result<(CsvTable, Vec<String>), Box<dyn Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let table = CsvTable::parse(&text).map_err(|e| format!("{name}: {e}"))?;
    let cols: Vec<String> = if columns.is_empty() {
        table.header.clone()
    } else {
        for c in columns {
            if table.column(c).is_none() {
                return Err(format!("{name}: column {c:?} not found").into());
            }
        }
        columns.to_vec()
    };
    Ok((table, cols))
}

/// Project a parsed CSV onto the aligned schema columns.
fn to_alem_table(csv: &CsvTable, cols: &[String], name: &str) -> Table {
    let schema = Schema::new(cols.iter().map(|c| (c.as_str(), AttrKind::Text)).collect());
    // Columns were validated against the header in `load_table`.
    let idx: Vec<usize> = cols
        .iter()
        .map(|c| {
            csv.column(c)
                .unwrap_or_else(|| unreachable!("column {c:?} validated in load_table"))
        })
        .collect();
    let records = csv
        .rows
        .iter()
        .map(|row| {
            Record::new(
                idx.iter()
                    .map(|&i| {
                        let v = row[i].trim();
                        if v.is_empty() {
                            None
                        } else {
                            Some(v.to_owned())
                        }
                    })
                    .collect(),
            )
        })
        .collect();
    Table::new(name, schema, records)
}

fn shared_columns(left: &CsvTable, right: &CsvTable) -> Vec<String> {
    left.header
        .iter()
        .filter(|h| right.column(h).is_some())
        .cloned()
        .collect()
}

fn parse_columns(args: &Args) -> Vec<String> {
    args.get("columns")
        .map(|s| s.split(',').map(|c| c.trim().to_owned()).collect())
        .unwrap_or_default()
}

fn build_dataset(args: &Args) -> Result<EmDataset, Box<dyn Error>> {
    let left_path = args.require("left");
    let right_path = args.require("right");
    let mut columns = parse_columns(args);
    let (lcsv, _) = load_table(left_path, "left", &columns)?;
    let (rcsv, _) = load_table(right_path, "right", &columns)?;
    if columns.is_empty() {
        columns = shared_columns(&lcsv, &rcsv);
        if columns.is_empty() {
            return Err("tables share no columns; pass --columns".into());
        }
    } else if columns.iter().any(|c| rcsv.column(c).is_none()) {
        return Err("right table is missing one of --columns".into());
    }
    let left = to_alem_table(&lcsv, &columns, "left");
    let right = to_alem_table(&rcsv, &columns, "right");
    let truth = match args.get("truth") {
        Some(path) => load_truth(path)?,
        None => BTreeSet::new(),
    };
    Ok(EmDataset {
        left,
        right,
        matches: truth,
        name: "cli".into(),
    })
}

/// A truth file is a headerless (or `left,right`-headed) CSV of 0-based
/// row-index pairs.
fn load_truth(path: &str) -> Result<BTreeSet<(u32, u32)>, Box<dyn Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let rows = crate::csv::parse(&text)?;
    let mut out = BTreeSet::new();
    for (i, row) in rows.iter().enumerate() {
        if row.len() < 2 {
            return Err(format!("truth row {} needs two columns", i + 1).into());
        }
        if i == 0 && row[0].parse::<u32>().is_err() {
            continue; // header
        }
        let l: u32 = row[0]
            .trim()
            .parse()
            .map_err(|_| format!("bad left id at row {}", i + 1))?;
        let r: u32 = row[1]
            .trim()
            .parse()
            .map_err(|_| format!("bad right id at row {}", i + 1))?;
        out.insert((l, r));
    }
    Ok(out)
}

fn blocking_threshold(args: &Args) -> Result<f64, Box<dyn Error>> {
    match args.get("threshold") {
        Some(s) => Ok(s.parse::<f64>().map_err(|_| "bad --threshold")?),
        None => Ok(0.1875),
    }
}

/// Hot-path tuning knobs shared by `alem match` and the benches:
/// `--lazy-topk K` (two-phase lazy selection + warm-started Pegasos on
/// the margin strategies) and `--refresh-frac F` (partial forest refresh
/// on the tree strategies).
#[derive(Debug, Clone, Copy, Default)]
pub struct StrategyTuning {
    /// Phase-1 dimension count for lazy margin selection; also enables
    /// warm-started SVM training.
    pub lazy_topk: Option<usize>,
    /// Fraction of forest members retrained per warm round.
    pub refresh_frac: Option<f64>,
}

impl StrategyTuning {
    fn parse(args: &Args) -> Result<Self, Box<dyn Error>> {
        let lazy_topk = args
            .get("lazy-topk")
            .map(|s| s.parse::<usize>().map_err(|_| "bad --lazy-topk"))
            .transpose()?;
        if lazy_topk == Some(0) {
            return Err("--lazy-topk must be at least 1".into());
        }
        let refresh_frac = args
            .get("refresh-frac")
            .map(|s| s.parse::<f64>().map_err(|_| "bad --refresh-frac"))
            .transpose()?;
        if let Some(f) = refresh_frac {
            if !(f > 0.0 && f <= 1.0) {
                return Err("--refresh-frac must be in (0, 1]".into());
            }
        }
        Ok(StrategyTuning {
            lazy_topk,
            refresh_frac,
        })
    }
}

fn build_strategy(
    name: &str,
    tuning: StrategyTuning,
) -> Result<Box<dyn Strategy + Send>, Box<dyn Error>> {
    let trees = |n: usize| -> Box<dyn Strategy + Send> {
        let mut b = TreeQbcStrategy::builder().trees(n);
        if let Some(f) = tuning.refresh_frac {
            b = b.refresh_frac(f);
        }
        Box::new(b.build())
    };
    let margin = || -> Box<dyn Strategy + Send> {
        let mut b = MarginSvmStrategy::builder().trainer(SvmTrainer::default());
        if let Some(k) = tuning.lazy_topk {
            b = b.lazy_topk(k).warm_start();
        }
        Box::new(b.build())
    };
    let s: Box<dyn Strategy + Send> = match name {
        "trees20" => trees(20),
        "trees10" => trees(10),
        "margin" => margin(),
        "margin1dim" => Box::new(MarginSvmStrategy::builder().blocking_dims(1).build()),
        "qbc10" => Box::new(QbcStrategy::new(SvmTrainer::default(), 10)),
        "ensemble" => Box::new(ActiveEnsembleStrategy::new(SvmTrainer::default(), 0.85)),
        "rules" => Box::new(LfpLfnStrategy::new(DnfTrainer::default(), 0.85)),
        "nn" => Box::new(MarginNnStrategy::new(NnTrainer::default())),
        other => return Err(format!("unknown strategy {other:?}").into()),
    };
    if tuning.lazy_topk.is_some() && !matches!(name, "margin") {
        eprintln!("[alem] note: --lazy-topk only affects the 'margin' strategy (ignored)");
    }
    if tuning.refresh_frac.is_some() && !matches!(name, "trees10" | "trees20") {
        eprintln!("[alem] note: --refresh-frac only affects the tree strategies (ignored)");
    }
    Ok(s)
}

/// `alem block`: report blocking statistics.
pub fn cmd_block(args: &Args) -> CliResult {
    let ds = build_dataset(args)?;
    let threshold = blocking_threshold(args)?;
    let pairs = BlockingConfig {
        jaccard_threshold: threshold,
    }
    .block(&ds);
    let s = stats(&ds, &pairs);
    println!(
        "left records:        {}\nright records:       {}\ncartesian pairs:     {}",
        ds.left.len(),
        ds.right.len(),
        s.total_pairs
    );
    println!(
        "post-blocking pairs: {} (threshold {threshold})",
        s.post_blocking_pairs
    );
    if !ds.matches.is_empty() {
        println!(
            "truth matches kept:  {}/{} (class skew {:.3})",
            s.matches_retained, s.matches_total, s.class_skew
        );
    }
    Ok(())
}

/// `alem match`: run active learning and emit predicted matches.
pub fn cmd_match(args: &Args) -> CliResult {
    let interactive = args.has("interactive");
    if !interactive && args.get("truth").is_none() {
        return Err("pass --truth T.csv or --interactive".into());
    }
    // Telemetry sinks (--metrics-out FILE.jsonl / --trace-out FILE.json).
    // Either flag enables the registry; both sinks read the same events.
    let metrics_out = args.get("metrics-out").map(PathBuf::from);
    let trace_out = args.get("trace-out").map(PathBuf::from);
    let obs = if metrics_out.is_some() || trace_out.is_some() {
        Registry::enabled()
    } else {
        Registry::disabled()
    };
    // `--trace-id ID` stamps every event this run emits, so a CLI run can
    // be correlated with server-side traces (or across a batch of runs)
    // in the JSONL/Chrome sinks. Purely observational: the guard holds
    // the id for the duration of the pipeline and never touches results.
    let _trace = alem_obs::trace_scope(args.get("trace-id"));

    // Thread-count policy for featurization, committee training, and pool
    // scoring. Results are byte-identical for any value; `--threads 1`
    // reproduces the sequential path exactly.
    let parallelism = match args.get("threads") {
        Some(s) => Parallelism::fixed(s.parse().map_err(|_| "bad --threads")?),
        None => Parallelism::default(),
    };

    let ds = build_dataset(args)?;
    let threshold = blocking_threshold(args)?;
    let blocking = BlockingConfig {
        jaccard_threshold: threshold,
    };
    let blocking_span = obs.span("blocking");
    let pairs = blocking.block(&ds);
    blocking_span.finish();
    if pairs.is_empty() {
        return Err("blocking produced no candidate pairs; lower --threshold".into());
    }
    eprintln!("[alem] {} candidate pairs after blocking", pairs.len());
    let featurize_span = obs.span("featurize");
    let (corpus, _fx) = Corpus::from_candidates_with(&ds, &blocking, &parallelism)?;
    featurize_span.finish();

    let budget: usize = args
        .get("budget")
        .map(|s| s.parse().map_err(|_| "bad --budget"))
        .transpose()?
        .unwrap_or(300);
    let seed: u64 = args
        .get("seed")
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(42);
    let strategy_name = args.get("strategy").unwrap_or("trees20");
    let strategy = build_strategy(strategy_name, StrategyTuning::parse(args)?)?;
    obs.set_run_id(&format!("alem-match-{strategy_name}-seed{seed}"));

    let oracle = if interactive {
        let prompts: Vec<String> = (0..corpus.len())
            .map(|i| {
                let (l, r) = corpus.pair(i);
                format!(
                    "  left[{l}]:  {}\n  right[{r}]: {}",
                    describe(&ds.left, l as usize),
                    describe(&ds.right, r as usize)
                )
            })
            .collect();
        Oracle::from_fn(corpus.len(), move |i| ask_human(&prompts[i]))
    } else {
        Oracle::perfect(corpus.truths().to_vec())
    };

    let params = LoopParams {
        max_labels: budget,
        stop_at_f1: if interactive { None } else { Some(0.99) },
        ..LoopParams::default()
    };

    // Checkpoint/resume plumbing.
    let checkpoint_every: Option<usize> = args
        .get("checkpoint-every")
        .map(|s| s.parse().map_err(|_| "bad --checkpoint-every"))
        .transpose()?;
    let resume = args.get("resume");
    let checkpoint_path: Option<PathBuf> = args
        .get("checkpoint")
        .or(resume)
        .map(PathBuf::from)
        .or_else(|| checkpoint_every.map(|_| PathBuf::from("alem-checkpoint.json")));
    let config = SessionConfig {
        checkpoint_every,
        checkpoint_path,
        obs: obs.clone(),
        parallelism,
        ..SessionConfig::default()
    };

    let mut al = ActiveLearner::new(strategy, params);
    let outcome = match resume {
        Some(path) => {
            let ckpt = Checkpoint::load(Path::new(path))?;
            eprintln!(
                "[alem] resuming from {path}: iteration {}, {} labels so far",
                ckpt.iter_no,
                ckpt.labeled.len()
            );
            al.resume_session(&corpus, &oracle, ckpt, &config)?
        }
        None => al.run_session(&corpus, &oracle, seed, &config)?,
    };
    let run = outcome
        .run_result()
        .ok_or("session halted before completing")?;
    let strategy = al.into_strategy();

    if !ds.matches.is_empty() {
        eprintln!(
            "[alem] {}: best F1 {:.3} after {} labels",
            run.strategy,
            run.best_f1(),
            run.total_labels()
        );
    } else {
        eprintln!(
            "[alem] {}: trained on {} human labels",
            run.strategy,
            run.total_labels()
        );
    }

    // Flush telemetry sinks and show the phase summary.
    if let Some(path) = &metrics_out {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        obs.write_jsonl(&mut f)?;
        f.flush()?;
        eprintln!("[alem] telemetry events written to {}", path.display());
    }
    if let Some(path) = &trace_out {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        obs.write_chrome_trace(&mut f)?;
        f.flush()?;
        eprintln!(
            "[alem] chrome://tracing trace written to {}",
            path.display()
        );
    }
    if obs.is_enabled() {
        eprint!("{}", obs.summary());
    }

    // Persist the reusable model, if requested (§2: the point of learning
    // an EM model is not paying for labels again next time).
    if let Some(path) = args.get("save-model") {
        match strategy.saved_model() {
            Some(model) => {
                let js = serde_json::to_string(&model)?;
                std::fs::write(path, js)?;
                eprintln!("[alem] {} model saved to {path}", model.kind());
            }
            None => eprintln!("[alem] this strategy's model type is not persistable"),
        }
    }

    // Emit predicted matches.
    let mut out_rows = vec![vec!["left_row".to_owned(), "right_row".to_owned()]];
    for i in 0..corpus.len() {
        if strategy.predict(&corpus, i) {
            let (l, r) = corpus.pair(i);
            out_rows.push(vec![l.to_string(), r.to_string()]);
        }
    }
    let text = render(&out_rows);
    match args.get("output") {
        Some(path) => {
            std::fs::write(path, text)?;
            eprintln!(
                "[alem] {} predicted matches written to {path}",
                out_rows.len() - 1
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `alem predict`: apply a saved model to new tables — no labels needed.
pub fn cmd_predict(args: &Args) -> CliResult {
    let model_path = args.require("model");
    let js = std::fs::read_to_string(model_path)
        .map_err(|e| format!("cannot read {model_path}: {e}"))?;
    let model: alem_core::model_io::SavedModel = serde_json::from_str(&js)
        .map_err(|e| format!("{model_path}: not a saved alem model: {e}"))?;

    let ds = build_dataset(args)?;
    let threshold = blocking_threshold(args)?;
    let blocking = BlockingConfig {
        jaccard_threshold: threshold,
    };
    let pairs = blocking.block(&ds);
    eprintln!(
        "[alem] applying saved {} model to {} candidate pairs",
        model.kind(),
        pairs.len()
    );
    let (corpus, _fx) = Corpus::from_candidates(&ds, &blocking)?;

    let mut out_rows = vec![vec!["left_row".to_owned(), "right_row".to_owned()]];
    for i in 0..corpus.len() {
        let x: &[f64] = if model.wants_bool_features() {
            &corpus
                .bool_features()
                .ok_or("corpus has no Boolean features for a rule model")?[i]
        } else {
            corpus.x(i)
        };
        if model.predict(x) {
            let (l, r) = corpus.pair(i);
            out_rows.push(vec![l.to_string(), r.to_string()]);
        }
    }
    if !ds.matches.is_empty() {
        // Ground truth supplied: report quality too.
        let mut confusion = mlcore::metrics::Confusion::default();
        for i in 0..corpus.len() {
            let x: &[f64] = if model.wants_bool_features() {
                &corpus
                    .bool_features()
                    .ok_or("corpus has no Boolean features for a rule model")?[i]
            } else {
                corpus.x(i)
            };
            confusion.record(model.predict(x), corpus.truth(i));
        }
        eprintln!(
            "[alem] P {:.3} / R {:.3} / F1 {:.3} against the supplied truth",
            confusion.precision(),
            confusion.recall(),
            confusion.f1()
        );
    }
    let text = render(&out_rows);
    match args.get("output") {
        Some(path) => {
            std::fs::write(path, text)?;
            eprintln!(
                "[alem] {} predicted matches written to {path}",
                out_rows.len() - 1
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn describe(table: &Table, row: usize) -> String {
    table
        .schema()
        .attributes()
        .iter()
        .enumerate()
        .map(|(a, def)| format!("{}={}", def.name, table.record(row).value(a).unwrap_or("∅")))
        .collect::<Vec<_>>()
        .join(" | ")
}

fn ask_human(prompt: &str) -> bool {
    loop {
        eprintln!("\nDo these records match?\n{prompt}");
        eprint!("  [y/n] > ");
        let _ = std::io::stderr().flush();
        let mut line = String::new();
        if std::io::stdin().read_line(&mut line).is_err() {
            return false;
        }
        match line.trim().to_ascii_lowercase().as_str() {
            "y" | "yes" => return true,
            "n" | "no" => return false,
            _ => eprintln!("  please answer y or n"),
        }
    }
}

/// `alem generate`: write a synthetic benchmark dataset as CSVs.
pub fn cmd_generate(args: &Args) -> CliResult {
    let dataset = match args.require("dataset") {
        "abt-buy" => PaperDataset::AbtBuy,
        "amazon-google" => PaperDataset::AmazonGoogle,
        "dblp-acm" => PaperDataset::DblpAcm,
        "dblp-scholar" => PaperDataset::DblpScholar,
        "cora" => PaperDataset::Cora,
        "walmart-amazon" => PaperDataset::WalmartAmazon,
        "amazon-bestbuy" => PaperDataset::AmazonBestBuy,
        "beer" => PaperDataset::Beer,
        "baby" => PaperDataset::BabyProducts,
        other => return Err(format!("unknown dataset {other:?}").into()),
    };
    let scale: f64 = args
        .get("scale")
        .map(|s| s.parse().map_err(|_| "bad --scale"))
        .transpose()?
        .unwrap_or(0.25);
    let seed: u64 = args
        .get("seed")
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(42);
    let out_dir = args.get("out-dir").unwrap_or(".");
    std::fs::create_dir_all(out_dir)?;

    let cfg = dataset.config(scale);
    let ds = datagen::generate(&cfg, seed);

    let table_csv = |t: &Table| -> String {
        let mut rows = vec![t
            .schema()
            .attributes()
            .iter()
            .map(|a| a.name.clone())
            .collect::<Vec<_>>()];
        for i in 0..t.len() {
            rows.push(
                (0..t.schema().len())
                    .map(|a| t.record(i).value(a).unwrap_or("").to_owned())
                    .collect(),
            );
        }
        render(&rows)
    };
    std::fs::write(format!("{out_dir}/left.csv"), table_csv(&ds.left))?;
    std::fs::write(format!("{out_dir}/right.csv"), table_csv(&ds.right))?;
    let mut truth_rows = vec![vec!["left".to_owned(), "right".to_owned()]];
    let mut matches: Vec<_> = ds.matches.iter().copied().collect();
    matches.sort_unstable();
    for (l, r) in matches {
        truth_rows.push(vec![l.to_string(), r.to_string()]);
    }
    std::fs::write(format!("{out_dir}/truth.csv"), render(&truth_rows))?;
    eprintln!(
        "[alem] wrote {out_dir}/left.csv ({} rows), right.csv ({} rows), truth.csv ({} matches); blocking threshold {}",
        ds.left.len(),
        ds.right.len(),
        ds.matches.len(),
        cfg.blocking_threshold
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Match-based success accessor: the CLI crate bans panicking
    /// accessors so that any remaining site is intentional and visible.
    fn ok<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn strategy_names_resolve() {
        for n in [
            "trees20",
            "trees10",
            "margin",
            "margin1dim",
            "qbc10",
            "ensemble",
            "rules",
            "nn",
        ] {
            assert!(build_strategy(n, StrategyTuning::default()).is_ok(), "{n}");
        }
        assert!(build_strategy("bogus", StrategyTuning::default()).is_err());
    }

    #[test]
    fn tuning_flags_apply_without_renaming_strategies() {
        // Lazy/warm tuning must not change strategy names: fingerprints
        // embed the name, and lazy-vs-eager runs must stay comparable.
        let tuned = StrategyTuning {
            lazy_topk: Some(6),
            refresh_frac: Some(0.25),
        };
        let m = ok(build_strategy("margin", tuned));
        assert_eq!(m.name(), "Linear-Margin");
        let t = ok(build_strategy("trees20", tuned));
        assert_eq!(t.name(), "Trees(20)");
    }

    #[test]
    fn truth_parser_accepts_header_and_bare() {
        let dir = std::env::temp_dir().join("alem_cli_test_truth");
        ok(std::fs::create_dir_all(&dir));
        let p = dir.join("t.csv");
        ok(std::fs::write(&p, "left,right\n0,1\n2,3\n"));
        let t = ok(load_truth(&p.to_string_lossy()));
        assert!(t.contains(&(0, 1)) && t.contains(&(2, 3)));
        ok(std::fs::write(&p, "5,6\n"));
        let t = ok(load_truth(&p.to_string_lossy()));
        assert!(t.contains(&(5, 6)));
    }

    #[test]
    fn describe_formats_missing_values() {
        let schema = Schema::new(vec![("name", AttrKind::Text), ("price", AttrKind::Text)]);
        let t = Table::new(
            "t",
            schema,
            vec![Record::new(vec![Some("ipod".into()), None])],
        );
        assert_eq!(describe(&t, 0), "name=ipod | price=∅");
    }
}
