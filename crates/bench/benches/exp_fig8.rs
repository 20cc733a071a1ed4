//! **Figure 8** — execution times for queries with RDFS reasoning.
//!
//! Paper setup: the 5 queries of Q1 evaluated against six configurations —
//! (a) views from pre-reformulation, (b) views from post-reformulation,
//! (c) the saturated triple table, (d) a restricted triple table with only
//! the triples needed by Q1, (e) RDF-3X over the saturated data, (f) the
//! initial state (materialized query results).
//!
//! Substitutions: PostgreSQL's clustered triple table → `oracle::evaluate`,
//! nested loops over full scans of the triple list (the `sat-tt` and
//! `restr-tt` columns); RDF-3X → the indexed default `evaluate` on the
//! fully (sextuple-)indexed saturated store (the `reference` column).
//!
//! Paper findings to reproduce: views beat the triple table by an order of
//! magnitude or more; pre- and post-reformulation views perform in the
//! same range as the reference engine; the initial state (a single scan)
//! is fastest.

use std::time::{Duration, Instant};

use rdfviews::core::{
    try_select_views, ReasoningMode, SearchConfig, SelectionError, SelectionOptions,
};
use rdfviews::engine::{evaluate, oracle};
use rdfviews::exec::Deployment;
use rdfviews::model::{StorePattern, TripleStore};
use rdfviews::schema::saturated_copy;
use rdfviews_bench::{env_secs, env_usize, reform_bench_selective, Table};

/// Median-of-N wall-clock measurement.
fn time_it(mut f: impl FnMut()) -> Duration {
    let runs = 5;
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed());
    }
    samples.sort();
    samples[runs / 2]
}

fn main() -> Result<(), SelectionError> {
    let budget = env_secs("RDFVIEWS_BUDGET_SECS", 4);
    let triples = env_usize("RDFVIEWS_FIG8_TRIPLES", 40_000);
    let rb = reform_bench_selective(triples / 10, triples);
    println!(
        "== Figure 8: execution times with RDFS (dataset {} triples) ==\n",
        rb.data.db.len()
    );

    let saturated = saturated_copy(rb.data.db.store(), &rb.data.schema, &rb.data.vocab);
    println!(
        "saturated store: {} triples (+{:.1}%)",
        saturated.len(),
        100.0 * (saturated.len() - rb.data.db.len()) as f64 / rb.data.db.len() as f64
    );

    // Restricted triple table: only the triples matched by some Q1 atom
    // (constants only), on the saturated store.
    let mut restricted = TripleStore::new();
    for q in &rb.q1 {
        for atom in &q.atoms {
            let [s, p, o] = atom.terms();
            let pat = StorePattern::new(s.as_const(), p.as_const(), o.as_const());
            saturated.for_each_match(&pat, |t| {
                restricted.insert(t);
            });
        }
    }
    println!("restricted store: {} triples", restricted.len());

    // Recommendations + materialized views for both reformulation modes.
    let opts = |mode| SelectionOptions {
        reasoning: mode,
        calibrate_cm: true,
        search: SearchConfig {
            time_budget: Some(budget),
            ..SearchConfig::default()
        },
        ..Default::default()
    };
    let t0 = Instant::now();
    let rec_post = try_select_views(
        rb.data.db.store(),
        rb.data.db.dict(),
        Some((&rb.data.schema, &rb.data.vocab)),
        &rb.q1,
        &opts(ReasoningMode::PostReformulation),
    )?;
    let post = Deployment::new(rb.data.db.store(), rec_post).snapshot();
    let mv_post = post.tables();
    println!(
        "post-reformulation: {} views / {} cells materialized in {:.2}s ({:.1}% of base)",
        mv_post.len(),
        mv_post.total_cells(),
        t0.elapsed().as_secs_f64(),
        100.0 * mv_post.total_cells() as f64 / (rb.data.db.len() * 3) as f64
    );
    let t0 = Instant::now();
    let rec_pre = try_select_views(
        rb.data.db.store(),
        rb.data.db.dict(),
        Some((&rb.data.schema, &rb.data.vocab)),
        &rb.q1,
        &opts(ReasoningMode::PreReformulation),
    )?;
    let pre = Deployment::new(rb.data.db.store(), rec_pre).snapshot();
    let mv_pre = pre.tables();
    println!(
        "pre-reformulation : {} views / {} cells materialized in {:.2}s ({:.1}% of base)",
        mv_pre.len(),
        mv_pre.total_cells(),
        t0.elapsed().as_secs_f64(),
        100.0 * mv_pre.total_cells() as f64 / (rb.data.db.len() * 3) as f64
    );

    // Initial state: materialize the (reformulated) query results
    // themselves — a plain scan at query time.
    let rec_init = try_select_views(
        rb.data.db.store(),
        rb.data.db.dict(),
        Some((&rb.data.schema, &rb.data.vocab)),
        &rb.q1,
        &SelectionOptions {
            reasoning: ReasoningMode::PostReformulation,
            calibrate_cm: true,
            search: SearchConfig {
                time_budget: Some(Duration::from_secs(0)), // keep S0
                ..SearchConfig::default()
            },
            ..Default::default()
        },
    )?;
    let init = Deployment::new(rb.data.db.store(), rec_init).snapshot();

    println!();
    let table = Table::new(
        &[
            "query",
            "pre-views",
            "post-views",
            "sat-tt",
            "restr-tt",
            "reference",
            "initial",
        ],
        &[6, 11, 11, 11, 11, 11, 11],
    );
    for (qi, q) in rb.q1.iter().enumerate() {
        let nq = q.normalized();
        // Correctness first: all configurations agree.
        let truth = evaluate(&saturated, &nq);
        assert_eq!(post.answer(qi)?, truth);
        assert_eq!(pre.answer(qi)?, truth);
        assert_eq!(init.answer(qi)?, truth);
        assert_eq!(evaluate(&restricted, &nq), truth);
        assert_eq!(oracle::evaluate(&restricted, &nq), truth);

        let t_pre = time_it(|| {
            let _ = pre.answer(qi);
        });
        let t_post = time_it(|| {
            let _ = post.answer(qi);
        });
        let t_sat = time_it(|| {
            oracle::evaluate(&saturated, &nq);
        });
        let t_restr = time_it(|| {
            oracle::evaluate(&restricted, &nq);
        });
        let t_ref = time_it(|| {
            evaluate(&saturated, &nq);
        });
        let t_init = time_it(|| {
            let _ = init.answer(qi);
        });
        table.row(&[
            &format!("Q1.{}", qi + 1),
            &format!("{t_pre:.1?}"),
            &format!("{t_post:.1?}"),
            &format!("{t_sat:.1?}"),
            &format!("{t_restr:.1?}"),
            &format!("{t_ref:.1?}"),
            &format!("{t_init:.1?}"),
        ]);
    }
    println!(
        "\nexpected shape: views ≫ faster than the scanned triple table (even restricted);\n\
         views in the same range as the index-backed reference; initial state fastest."
    );
    Ok(())
}
