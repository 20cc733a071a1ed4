//! **Figure 6** — relative cost reduction on large workloads.
//!
//! Paper setup: workloads of 5–200 queries × 10 atoms; shapes chain,
//! random-sparse, random-dense, star, mixed; high and low commonality;
//! DFS-AVF-STV and GSTR-AVF-STV with a 3-hour `stop_time` (we default to
//! seconds — the strategies are anytime).
//!
//! Paper findings to reproduce: rcr is high overall (often ≈ 0.99 for the
//! easy shapes); chains and sparse graphs are "easier" (fewer edges ⇒
//! smaller space ⇒ higher rcr); stars and dense graphs are harder; high
//! commonality beats low commonality; GSTR's rcr trails DFS's.
//!
//! Scale via `RDFVIEWS_FIG6_SIZES` (default `5,10,20,50`) and
//! `RDFVIEWS_BUDGET_SECS` (default 2 s per search).

use rdfviews::core::StrategyKind;
use rdfviews::workload::{Commonality, Shape};
use rdfviews_bench::{env_secs, env_usize, env_usize_list, free_workload, run_strategy, Table};

fn main() {
    let budget = env_secs("RDFVIEWS_BUDGET_SECS", 2);
    let max_states = env_usize("RDFVIEWS_MAX_STATES", 300_000);
    let sizes = env_usize_list("RDFVIEWS_FIG6_SIZES", &[5, 10, 20, 50]);
    println!("== Figure 6: rcr on large workloads (10 atoms/query, budget {budget:?}) ==\n");

    let shapes = [
        Shape::Chain,
        Shape::RandomSparse,
        Shape::RandomDense,
        Shape::Star,
        Shape::Mixed,
    ];
    for (strat_name, strat) in [
        ("DFS-AVF-STV", StrategyKind::Dfs),
        ("GSTR-AVF-STV", StrategyKind::Gstr),
    ] {
        println!("--- {strat_name} ---");
        let mut headers: Vec<String> = vec!["workload".into()];
        headers.extend(sizes.iter().map(|s| format!("{s}q")));
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut widths = vec![26usize];
        widths.extend(std::iter::repeat_n(8usize, sizes.len()));
        let table = Table::new(&header_refs, &widths);
        for comm in [Commonality::High, Commonality::Low] {
            for shape in shapes {
                let mut cells: Vec<String> = vec![format!(
                    "{} {}",
                    shape.name(),
                    match comm {
                        Commonality::High => "high",
                        Commonality::Low => "low",
                    }
                )];
                for &n in &sizes {
                    // Average over 3 seeded variants, as in the paper; data
                    // scaled with the property pool (capped).
                    let pool = match comm {
                        Commonality::High => 20,
                        Commonality::Low => n * 10,
                    };
                    let mut rcr_sum = 0.0;
                    let runs = 3;
                    for seed in 0..runs {
                        let bench = free_workload(
                            shape,
                            comm,
                            n,
                            10,
                            100 + seed,
                            0.0,
                            (400 * pool).clamp(6_000, 40_000),
                        );
                        let out = run_strategy(&bench, strat, true, true, budget, max_states);
                        rcr_sum += out.rcr();
                    }
                    cells.push(format!("{:.3}", rcr_sum / runs as f64));
                }
                let refs: Vec<&str> = cells.iter().map(|s| s.as_str()).collect();
                table.row(&refs);
            }
        }
        println!();
    }
    println!("expected shape: chains/sparse ≥ dense/star; high commonality ≥ low; DFS ≥ GSTR.");
}
