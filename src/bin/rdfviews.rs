//! `rdfviews` — command-line view selection for RDF databases.
//!
//! ```text
//! rdfviews <data.nt> <workload.rq> [options]
//! rdfviews query <data.nt> <workload.rq> [options] [--query "<q>"]...
//! rdfviews save <data.nt> <workload.rq> <dir> [options]
//! rdfviews load <dir> [--query "<q>"]... [--policy ...]
//! rdfviews recover <dir> [--query "<q>"]... [--policy ...]
//!
//! The `query` subcommand tunes on the workload, deploys the recommended
//! views, pins one snapshot generation of the deployment, then answers
//! **ad-hoc** queries from it — from repeated `--query` arguments, or one
//! query per stdin line when none is given — printing the pinned store
//! version, each chosen plan (view scans vs base scans) and its answers.
//!
//! The durability subcommands: `save` tunes and persists the deployment
//! into `<dir>` (snapshot bundle + write-ahead log), printing its content
//! hash; `load` reopens the snapshot (ignoring the log) and can answer
//! ad-hoc queries against it; `recover` additionally replays the
//! write-ahead log through the maintenance path, reporting replayed /
//! skipped records and any dropped torn tail.
//!
//! options:
//!   --query <q>                      (query mode) an ad-hoc query to
//!                                    answer; repeatable
//!   --policy views|hybrid|base       (query mode) answer policy for atoms
//!                                    no view covers (default: hybrid)
//!   --stats                          (query mode) print per-branch
//!                                    evaluation statistics (rows
//!                                    visited, index probes, atoms
//!                                    settled, seeks) per query
//!   --mode plain|saturate|pre|post   entailment handling (default: plain;
//!                                    all but plain extract the RDFS from
//!                                    the data triples)
//!   --strategy dfs|gstr|exnaive|exstr|pruning|greedy|heuristic
//!   --budget <seconds>               search time budget (default: 10)
//!   --max-states <n>                 state budget (default: 1000000)
//!   --strict-budget                  fail instead of returning a partial
//!                                    result when the budget runs out
//!   --partition                      search independent workload groups
//!                                    separately (one shared session);
//!                                    they run concurrently only when
//!                                    --threads is not 1
//!   --threads <n>                    thread budget (default: 1; 0 = one
//!                                    per core): explorer threads per
//!                                    search, or with --partition the
//!                                    group pool times its explorers
//!   --materialize                    also deploy and report view sizes
//! ```
//!
//! `data.nt` holds one triple per line (`<s> <p> <o> .`); schema statements
//! (`rdfs:subClassOf`, `rdfs:subPropertyOf`, `rdfs:domain`, `rdfs:range`)
//! are read from the same file. `workload.rq` holds one conjunctive query
//! per line: `q1(X, Z) :- t(X, <p>, Y), t(Y, <q>, Z)`.

use std::process::ExitCode;
use std::time::Duration;

use rdfviews::core::display::state_to_string;
use rdfviews::prelude::*;

struct Args {
    data: String,
    workload: String,
    /// The `save` subcommand's deployment directory.
    save_dir: Option<String>,
    mode: ReasoningMode,
    strategy: StrategyKind,
    budget: Duration,
    max_states: usize,
    strict_budget: bool,
    partition: bool,
    materialize: bool,
    threads: usize,
    /// The `query` subcommand: deploy, then answer ad-hoc queries.
    query_mode: bool,
    /// Ad-hoc queries from `--query` (stdin when empty in query mode).
    adhoc: Vec<String>,
    policy: AnswerPolicy,
    /// Query mode: print per-branch evaluation statistics.
    stats: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rdfviews [query] <data.nt> <workload.rq> [--mode plain|saturate|pre|post] \
         [--strategy dfs|gstr|exnaive|exstr|pruning|greedy|heuristic] \
         [--budget SECONDS] [--max-states N] [--strict-budget] [--partition] [--threads N] \
         [--materialize] [--query QUERY]... [--policy views|hybrid|base] [--stats]\n\
         \x20      rdfviews save <data.nt> <workload.rq> <dir> [tuning options]\n\
         \x20      rdfviews load <dir> [--query QUERY]... [--policy views|hybrid|base]\n\
         \x20      rdfviews recover <dir> [--query QUERY]... [--policy views|hybrid|base]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut positional: Vec<String> = Vec::new();
    let mut args = Args {
        data: String::new(),
        workload: String::new(),
        save_dir: None,
        mode: ReasoningMode::Plain,
        strategy: StrategyKind::Dfs,
        budget: Duration::from_secs(10),
        max_states: 1_000_000,
        strict_budget: false,
        partition: false,
        materialize: false,
        threads: 1,
        query_mode: false,
        adhoc: Vec::new(),
        policy: AnswerPolicy::Hybrid,
        stats: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    let mut save_mode = false;
    match it.peek().map(String::as_str) {
        Some("query") => {
            args.query_mode = true;
            it.next();
        }
        Some("save") => {
            save_mode = true;
            it.next();
        }
        _ => {}
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--query" => {
                args.adhoc.push(it.next().ok_or_else(usage)?);
            }
            "--policy" => {
                args.policy = match it.next().as_deref() {
                    Some("views") => AnswerPolicy::ViewsOnly,
                    Some("hybrid") => AnswerPolicy::Hybrid,
                    Some("base") => AnswerPolicy::BaseFallback,
                    _ => return Err(usage()),
                }
            }
            "--mode" => {
                args.mode = match it.next().as_deref() {
                    Some("plain") => ReasoningMode::Plain,
                    Some("saturate") => ReasoningMode::Saturation,
                    Some("pre") => ReasoningMode::PreReformulation,
                    Some("post") => ReasoningMode::PostReformulation,
                    _ => return Err(usage()),
                }
            }
            "--strategy" => {
                args.strategy = match it.next().as_deref() {
                    Some("dfs") => StrategyKind::Dfs,
                    Some("gstr") => StrategyKind::Gstr,
                    Some("exnaive") => StrategyKind::ExNaive,
                    Some("exstr") => StrategyKind::ExStr,
                    Some("pruning") => StrategyKind::Pruning,
                    Some("greedy") => StrategyKind::Greedy,
                    Some("heuristic") => StrategyKind::Heuristic,
                    _ => return Err(usage()),
                }
            }
            "--budget" => {
                let secs: u64 = it.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?;
                args.budget = Duration::from_secs(secs);
            }
            "--max-states" => {
                args.max_states = it.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?;
            }
            "--threads" => {
                args.threads = it.next().and_then(|v| v.parse().ok()).ok_or_else(usage)?;
            }
            "--strict-budget" => args.strict_budget = true,
            "--partition" => args.partition = true,
            "--materialize" => args.materialize = true,
            "--stats" => args.stats = true,
            "--help" | "-h" => return Err(usage()),
            other => positional.push(other.to_string()),
        }
    }
    if positional.len() != if save_mode { 3 } else { 2 } {
        return Err(usage());
    }
    args.data = positional.remove(0);
    args.workload = positional.remove(0);
    if save_mode {
        args.save_dir = Some(positional.remove(0));
    }
    Ok(args)
}

/// The `load` / `recover` subcommands: reopen a persisted deployment
/// directory (replaying the write-ahead log when `replay_wal`) and answer
/// any ad-hoc queries against it.
fn run_open(replay_wal: bool) -> ExitCode {
    let mut dir = None;
    let mut adhoc: Vec<String> = Vec::new();
    let mut policy = AnswerPolicy::Hybrid;
    let mut it = std::env::args().skip(2);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--query" => match it.next() {
                Some(q) => adhoc.push(q),
                None => return usage(),
            },
            "--policy" => {
                policy = match it.next().as_deref() {
                    Some("views") => AnswerPolicy::ViewsOnly,
                    Some("hybrid") => AnswerPolicy::Hybrid,
                    Some("base") => AnswerPolicy::BaseFallback,
                    _ => return usage(),
                }
            }
            "--help" | "-h" => return usage(),
            other if dir.is_none() => dir = Some(other.to_string()),
            _ => return usage(),
        }
    }
    let Some(dir) = dir else { return usage() };
    let dir = std::path::Path::new(&dir);

    let (deployment, mut dict) = if replay_wal {
        match Deployment::recover(dir) {
            Ok((dep, dict, report)) => {
                println!(
                    "# recovered: {} wal records replayed, {} skipped (absorbed by snapshot)",
                    report.records_replayed, report.records_skipped
                );
                if let Some(offset) = report.torn_tail {
                    println!("# dropped torn tail record at byte {offset}");
                }
                println!("# state hash   : {:032x}", report.state_hash);
                (dep, dict)
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match Deployment::open(dir) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    println!(
        "# loaded deployment {:#x}: {} views over {} triples (store version {})",
        deployment.lineage(),
        deployment.view_count(),
        deployment.store().len(),
        deployment.store().version(),
    );
    if !replay_wal {
        match deployment.content_hash(&dict) {
            Ok(hash) => println!("# state hash   : {hash:032x}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let snapshot = deployment.snapshot();
    for text in &adhoc {
        println!("#\n# query: {text}");
        let q = match parse_query(text, &mut dict) {
            Ok(p) => p.query,
            Err(e) => {
                eprintln!("error: ad-hoc query `{text}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        let plan = match snapshot.plan_with(&q, policy) {
            Ok(p) => p,
            Err(e) => {
                println!("#   no plan: {e}");
                continue;
            }
        };
        print!("{}", plan.describe(&dict));
        match snapshot.answer_query(&plan) {
            Ok(answers) => println!("# answers: {}", answers.len()),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("load") => return run_open(false),
        Some("recover") => return run_open(true),
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };

    // -- Load data. -------------------------------------------------------
    let text = match std::fs::read_to_string(&args.data) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args.data);
            return ExitCode::FAILURE;
        }
    };
    let mut db = match rdfviews::model::ntriples::parse_dataset(&text) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("error: {}: {e}", args.data);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("loaded {} triples from {}", db.len(), args.data);

    // -- Load workload (parse failures surface as SelectionError). --------
    let wtext = match std::fs::read_to_string(&args.workload) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let workload = match parse_workload_queries(&wtext, db.dict_mut()) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("parsed {} workload queries", workload.len());

    // -- Ad-hoc queries (query mode): --query args, or stdin lines. -------
    let mut adhoc_texts = args.adhoc.clone();
    if args.query_mode && adhoc_texts.is_empty() {
        use std::io::Read;
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_ok() {
            adhoc_texts.extend(
                buf.lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty() && !l.starts_with('#'))
                    .map(String::from),
            );
        }
    }
    let mut adhoc_queries = Vec::new();
    for text in &adhoc_texts {
        match parse_query(text, db.dict_mut()) {
            Ok(p) => adhoc_queries.push((text.clone(), p.query)),
            Err(e) => {
                eprintln!("error: ad-hoc query `{text}`: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.query_mode && adhoc_queries.is_empty() {
        eprintln!("error: query mode needs at least one ad-hoc query (--query or stdin)");
        return ExitCode::FAILURE;
    }

    // -- Schema (extracted from data when reasoning is requested). --------
    // Intern the RDFS vocabulary first: extraction looks the vocabulary up
    // in the dictionary, and a data file need not mention every RDFS URI.
    let vocab = VocabIds::intern(db.dict_mut());
    let schema = Schema::from_dataset(&db);

    // -- Open the advisor session and recommend. ---------------------------
    let mut builder = Advisor::builder(&db)
        .reasoning(args.mode)
        .strategy(args.strategy)
        .budget(args.budget)
        .max_states(args.max_states)
        .parallelism(args.threads)
        .strict_budget(args.strict_budget);
    if args.mode.needs_schema() {
        eprintln!("schema: {} RDFS statements", schema.len());
        builder = builder.schema(&schema, &vocab);
    }
    let mut advisor = match builder.build() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.partition {
        advisor.recommend_partitioned(&workload)
    } else {
        advisor.recommend(&workload)
    };
    let rec = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("# initial cost : {:.4e}", rec.outcome.initial_cost);
    println!("# best cost    : {:.4e}", rec.outcome.best_cost);
    println!("# rcr          : {:.4}", rec.rcr());
    println!(
        "# states       : {} created / {} duplicates / {} discarded",
        rec.outcome.stats.created, rec.outcome.stats.duplicates, rec.outcome.stats.discarded
    );
    if rec.outcome.stats.out_of_budget {
        println!("# WARNING: state budget exhausted; recommendation may be improvable");
    }
    println!("#\n# recommended views and rewritings:");
    print!("{}", state_to_string(&rec.outcome.best_state, db.dict()));
    if args.mode == ReasoningMode::PostReformulation {
        println!("#\n# materialization definitions (reformulated):");
        for (v, u) in rec.views.iter().zip(rec.materialization.iter()) {
            println!(
                "{}",
                rdfviews::query::display::ucq_to_string(&v.id.to_string(), u, db.dict())
            );
        }
    }

    if let Some(dir) = &args.save_dir {
        let dir = std::path::Path::new(dir);
        let durable = match advisor.deploy_durable(rec, dir) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let hash = match durable.deployment().content_hash(durable.dict()) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let snapshot_bytes = std::fs::metadata(dir.join(rdfviews::exec::SNAPSHOT_FILE))
            .map(|m| m.len())
            .unwrap_or(0);
        println!(
            "#\n# saved deployment {:#x} to {}: {} views, snapshot {} bytes, wal {} bytes",
            durable.deployment().lineage(),
            dir.display(),
            durable.deployment().view_count(),
            snapshot_bytes,
            durable.wal_size(),
        );
        println!("# state hash   : {hash:032x}");
        return ExitCode::SUCCESS;
    }

    if args.query_mode {
        let deployment = advisor.deploy(rec);
        println!(
            "#\n# deployed {} views; answering {} ad-hoc queries (policy: {:?})",
            deployment.view_count(),
            adhoc_queries.len(),
            args.policy
        );
        // Every query is answered from one generation pinned up front; the
        // deployment could keep absorbing maintenance batches while these
        // reads run, without perturbing the pinned answers.
        let snapshot = deployment.snapshot();
        println!("# pinned generation: store version {}", snapshot.version());
        for (text, q) in &adhoc_queries {
            println!("#\n# query: {text}");
            let plan = match snapshot.plan_with(q, args.policy) {
                Ok(p) => p,
                Err(e) => {
                    println!("#   no plan: {e}");
                    continue;
                }
            };
            print!("{}", plan.describe(db.dict()));
            match snapshot.answer_query_stats(&plan) {
                Ok((answers, stats)) => {
                    println!("# answers: {}", answers.len());
                    for row in answers.rows().take(5) {
                        let rendered: Vec<String> = row
                            .iter()
                            .map(|&id| {
                                rdfviews::query::display::term_to_string(
                                    &rdfviews::query::QTerm::Const(id),
                                    db.dict(),
                                )
                            })
                            .collect();
                        println!("#   ({})", rendered.join(", "));
                    }
                    if answers.len() > 5 {
                        println!("#   … {} more", answers.len() - 5);
                    }
                    if args.stats {
                        for (i, s) in stats.iter().enumerate() {
                            println!(
                                "#   branch {i}: {} rows visited, {} index probes, {} atoms settled, {} seeks",
                                s.rows_visited, s.probes, s.checks, s.seeks
                            );
                        }
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    if args.materialize {
        let deployment = advisor.deploy(rec);
        let snapshot = deployment.snapshot();
        let (rows, cells) = (
            snapshot.tables().total_rows(),
            snapshot.tables().total_cells(),
        );
        println!(
            "#\n# deployed: {} views, {} rows, {} cells ({:.1}% of the triple table)",
            deployment.view_count(),
            rows,
            cells,
            100.0 * cells as f64 / (db.len() * 3).max(1) as f64
        );
    }
    ExitCode::SUCCESS
}
