//! **Figure 7** — search for view sets using reformulation: best cost
//! found over time, pre-reformulation vs post-reformulation, workloads Q1
//! (5 queries) and Q2 (10 queries, Q1 ⊆ Q2).
//!
//! Paper findings to reproduce: the pre-reformulated workload's initial
//! state costs more; post-reformulation's best cost decreases much faster
//! (smaller workload ⇒ smaller space) and ends lower (paper: 2.7× for Q1,
//! 22× for Q2); the gap widens with workload size.

use rdfviews::core::{
    try_select_views, ReasoningMode, SearchConfig, SelectionError, SelectionOptions,
};
use rdfviews_bench::{env_secs, env_usize, reform_bench, Table};

fn main() -> Result<(), SelectionError> {
    let budget = env_secs("RDFVIEWS_BUDGET_SECS", 4);
    let triples = env_usize("RDFVIEWS_FIG8_TRIPLES", 40_000);
    let rb = reform_bench(triples / 10, triples);
    println!("== Figure 7: pre- vs post-reformulation search (budget {budget:?}) ==\n");

    for (name, queries) in [("Q1", &rb.q1), ("Q2", &rb.q2)] {
        println!("--- workload {name} ({} queries) ---", queries.len());
        let table = Table::new(
            &[
                "mode",
                "|workload|",
                "initial cost",
                "best cost",
                "t(best) s",
                "improvements",
            ],
            &[8, 10, 14, 14, 10, 12],
        );
        let mut finals: Vec<f64> = Vec::new();
        for (mode_name, mode) in [
            ("pre", ReasoningMode::PreReformulation),
            ("post", ReasoningMode::PostReformulation),
        ] {
            let rec = try_select_views(
                rb.data.db.store(),
                rb.data.db.dict(),
                Some((&rb.data.schema, &rb.data.vocab)),
                queries,
                &SelectionOptions {
                    reasoning: mode,
                    calibrate_cm: true,
                    search: SearchConfig {
                        time_budget: Some(budget),
                        ..SearchConfig::default()
                    },
                    ..Default::default()
                },
            )?;
            let trace = &rec.outcome.stats.best_cost_trace;
            let t_best = trace.last().map_or(0.0, |p| p.0);
            table.row(&[
                mode_name,
                &rec.workload.len().to_string(),
                &format!("{:.3e}", rec.outcome.initial_cost),
                &format!("{:.3e}", rec.outcome.best_cost),
                &format!("{t_best:.2}"),
                &(trace.len() - 1).to_string(),
            ]);
            finals.push(rec.outcome.best_cost);
            // Print the cost-over-time series (the figure's curve).
            let pts: Vec<String> = trace
                .iter()
                .map(|(t, c)| format!("({t:.2}s, {c:.3e})"))
                .collect();
            println!("  {mode_name} trace: {}", pts.join(" "));
        }
        if finals.len() == 2 && finals[1] > 0.0 {
            println!(
                "  best-cost ratio pre/post: {:.2}  (paper: 2.7 for Q1, 22 for Q2)\n",
                finals[0] / finals[1]
            );
        }
    }
    println!("expected shape: post ≤ pre everywhere; the gap grows with the workload.");
    Ok(())
}
