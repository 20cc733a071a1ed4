//! **Ablation** (beyond the paper's figures): sensitivity of the search to
//! the View Break overlap limit.
//!
//! Full VB enumeration is `3^n` per view (every pair of connected,
//! incomparable node covers). `TransitionConfig::vb_overlap_limit` caps
//! the cover overlap at that many nodes (default 1, matching the paper's
//! Figure 1 example which overlaps on a single node). This bench quantifies what
//! the cap costs: best cost found and states created at limits 0 / 1 / 2
//! under the same time budget.

use rdfviews::core::{search, CostModel, CostWeights, SearchConfig, State, StrategyKind};
use rdfviews::stats::collect_stats;
use rdfviews::workload::{Commonality, Shape};
use rdfviews_bench::{env_secs, free_workload, Table};

fn main() {
    let budget = env_secs("RDFVIEWS_BUDGET_SECS", 3);
    println!("== VB ablation: overlap limit vs search quality (DFS-AVF-STV, {budget:?}) ==\n");

    for (shape, comm) in [
        (Shape::Chain, Commonality::High),
        (Shape::Star, Commonality::Low),
    ] {
        println!(
            "--- {} / {:?} (3 queries × 6 atoms) ---",
            shape.name(),
            comm
        );
        let bench = free_workload(shape, comm, 3, 6, 11, 0.1, 6_000);
        let cat = collect_stats(bench.db.store(), bench.db.dict(), &bench.workload);
        let mut model = CostModel::new(&cat, CostWeights::default());
        model.calibrate_cm(&State::initial(&bench.workload));
        let table = Table::new(
            &["overlap", "rcr", "best cost", "created", "explored"],
            &[8, 8, 14, 10, 10],
        );
        for limit in [0usize, 1, 2] {
            let out = search(
                State::initial(&bench.workload),
                &model,
                &SearchConfig {
                    strategy: StrategyKind::Dfs,
                    vb_overlap_limit: limit,
                    time_budget: Some(budget),
                    ..SearchConfig::default()
                },
            );
            table.row(&[
                &limit.to_string(),
                &format!("{:.3}", out.rcr()),
                &format!("{:.3e}", out.best_cost),
                &out.stats.created.to_string(),
                &out.stats.explored.to_string(),
            ]);
        }
        println!();
    }
    println!(
        "expected shape: limit 1 ≈ limit 2 in quality (overlapping breaks are rarely\n\
         the only path to a good state) while limit 0 can miss factorizations that\n\
         need a shared middle atom."
    );
}
