//! Parallel search core: explorer threads on a **single sharing group**.
//!
//! `try_select_views_partitioned` already parallelizes *across* groups, but a
//! Barton-style workload routinely collapses into one big group that used
//! to pin a single core. Two sections:
//!
//! 1. **Parity** — a fusion-heavy workload (≥ 8 queries, one sharing
//!    group) sized so exhaustive DFS *completes*: every thread count must
//!    report the identical best cost and a balanced counter ledger. This
//!    is the determinism contract of the parallel core.
//! 2. **Throughput** (skipped in smoke mode) — a generator workload under
//!    a state budget: wall-clock per thread count. Truncated runs stop at
//!    order-dependent frontiers, so best costs are reported, not
//!    asserted.
//!
//! Smoke mode (`RDFVIEWS_SMOKE=1` or `--smoke`) shrinks section 1 to a
//! fraction of a second for CI; the parity assertions still run. On a
//! single-core machine the explorer threads timeshare, so speedups only
//! show on real hardware.

use std::time::Instant;

use rdfviews::core::{
    partition_workload, search, CostModel, CostWeights, SearchConfig, SearchOutcome, State,
    StrategyKind,
};
use rdfviews::model::{Dataset, Term};
use rdfviews::prelude::parse_query;
use rdfviews::query::ConjunctiveQuery;
use rdfviews::stats::collect_stats;
use rdfviews::workload::{Commonality, Shape};
use rdfviews_bench::{env_usize, free_workload, Table};

/// A property-chain workload whose queries all share the `t(X, <p>, Y)`
/// atom shape — one sharing group by construction — with enough View
/// Fusion / View Break structure to be non-trivial yet complete.
fn parity_workload(
    scans: usize,
    chains2: usize,
    chains3: usize,
) -> (Dataset, Vec<ConjunctiveQuery>) {
    let mut db = Dataset::new();
    for i in 0..3000u32 {
        let s = format!("s{i}");
        db.insert_terms(
            Term::uri(s.as_str()),
            Term::uri("p"),
            Term::uri(format!("m{}", i % 50)),
        );
        db.insert_terms(
            Term::uri(format!("m{}", i % 50)),
            Term::uri("q"),
            Term::uri(format!("o{}", i % 7)),
        );
        db.insert_terms(
            Term::uri(format!("o{}", i % 7)),
            Term::uri("r"),
            Term::uri(format!("w{}", i % 4)),
        );
    }
    let mut workload = Vec::new();
    for i in 0..scans {
        workload.push(
            parse_query(&format!("qa{i}(X, Y) :- t(X, <p>, Y)"), db.dict_mut())
                .unwrap()
                .query,
        );
    }
    for i in 0..chains2 {
        workload.push(
            parse_query(
                &format!("qb{i}(X, Z) :- t(X, <p>, Y), t(Y, <q>, Z)"),
                db.dict_mut(),
            )
            .unwrap()
            .query,
        );
    }
    for i in 0..chains3 {
        workload.push(
            parse_query(
                &format!("qc{i}(X, W) :- t(X, <p>, Y), t(Y, <q>, Z), t(Z, <r>, W)"),
                db.dict_mut(),
            )
            .unwrap()
            .query,
        );
    }
    (db, workload)
}

fn run_at(
    workload: &[ConjunctiveQuery],
    model: &CostModel<'_>,
    threads: usize,
    max_states: usize,
) -> (SearchOutcome, f64) {
    let cfg = SearchConfig {
        strategy: StrategyKind::Dfs,
        parallelism: threads,
        max_states: Some(max_states),
        ..SearchConfig::default()
    };
    let t0 = Instant::now();
    let out = search(State::initial(workload), model, &cfg);
    let wall = t0.elapsed().as_secs_f64();
    (out, wall)
}

fn ledger_balances(out: &SearchOutcome) -> bool {
    out.stats.created + out.stats.reexpansions
        == out.stats.duplicates
            + out.stats.discarded
            + out.stats.explored
            + out.stats.frontier_remaining
}

fn main() {
    let smoke = std::env::var("RDFVIEWS_SMOKE").is_ok() || std::env::args().any(|a| a == "--smoke");
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);

    // -- Section 1: parity on a completing single-group workload. --------
    let (scans, chains2, chains3) = if smoke { (6, 2, 0) } else { (6, 8, 4) };
    let (db, workload) = parity_workload(scans, chains2, chains3);
    let groups = partition_workload(&workload);
    println!(
        "# parity: {} queries in {} sharing group(s){}",
        workload.len(),
        groups.len(),
        if smoke { " [smoke]" } else { "" },
    );
    assert_eq!(
        groups.len(),
        1,
        "parity workload must form one sharing group"
    );
    assert!(workload.len() >= 8);
    let cat = collect_stats(db.store(), db.dict(), &workload);
    let mut model = CostModel::new(&cat, CostWeights::default());
    model.calibrate_cm(&State::initial(&workload));

    let table = Table::new(
        &[
            "threads",
            "wall (s)",
            "created",
            "explored",
            "best cost",
            "speedup",
        ],
        &[7, 9, 10, 10, 14, 7],
    );
    let mut baseline: Option<(f64, f64)> = None; // (wall, best cost)
    let mut summary: Vec<(String, f64)> = Vec::new();
    for threads in [1usize, 2, 4] {
        let (out, wall) = run_at(&workload, &model, threads, 3_000_000);
        assert!(!out.stats.out_of_budget, "parity workload must complete");
        assert!(ledger_balances(&out), "counter ledger at {threads} threads");
        summary.push((format!("parity_wall_{threads}t_s"), wall));
        summary.push((
            format!("parity_states_per_s_{threads}t"),
            out.stats.created as f64 / wall.max(1e-9),
        ));
        if threads == 1 {
            summary.push(("parity_best_cost".to_string(), out.best_cost));
            summary.push(("parity_created".to_string(), out.stats.created as f64));
        }
        let speedup = match &baseline {
            None => {
                baseline = Some((wall, out.best_cost));
                1.0
            }
            Some((base_wall, base_cost)) => {
                assert!(
                    (out.best_cost - base_cost).abs() <= 1e-9 * base_cost.abs().max(1.0),
                    "best cost diverged at {threads} threads: {} vs {base_cost}",
                    out.best_cost
                );
                base_wall / wall
            }
        };
        table.row(&[
            &threads.to_string(),
            &format!("{wall:.3}"),
            &out.stats.created.to_string(),
            &out.stats.explored.to_string(),
            &format!("{:.4e}", out.best_cost),
            &format!("{speedup:.2}x"),
        ]);
    }
    let metrics: Vec<(&str, f64)> = summary.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    rdfviews_bench::emit_bench_json("parallel_search", &metrics);

    // -- Section 2: throughput under a state budget. ----------------------
    if !smoke {
        let queries = env_usize("RDFVIEWS_PAR_QUERIES", 14);
        let atoms = env_usize("RDFVIEWS_PAR_ATOMS", 3);
        let triples = env_usize("RDFVIEWS_PAR_TRIPLES", 4000);
        let max_states = env_usize("RDFVIEWS_MAX_STATES", 1_200_000);
        let bench = free_workload(
            Shape::Chain,
            Commonality::High,
            queries,
            atoms,
            0x5eed,
            0.2,
            triples,
        );
        let groups = partition_workload(&bench.workload);
        let largest = groups.iter().max_by_key(|g| g.len()).expect("workload");
        let workload: Vec<_> = largest.iter().map(|&i| bench.workload[i].clone()).collect();
        println!(
            "\n# throughput: largest sharing group has {} of {} generator queries, \
             budget {max_states} states (truncated frontiers are order-dependent; \
             best costs reported, not asserted)",
            workload.len(),
            bench.workload.len(),
        );
        let cat = collect_stats(bench.db.store(), bench.db.dict(), &workload);
        let mut model = CostModel::new(&cat, CostWeights::default());
        model.calibrate_cm(&State::initial(&workload));
        let table = Table::new(
            &["threads", "wall (s)", "states/s", "best cost", "speedup"],
            &[7, 9, 10, 14, 7],
        );
        let mut base_wall: Option<f64> = None;
        for threads in [1usize, 2, 4] {
            let (out, wall) = run_at(&workload, &model, threads, max_states);
            assert!(ledger_balances(&out), "counter ledger at {threads} threads");
            let speedup = match &base_wall {
                None => {
                    base_wall = Some(wall);
                    1.0
                }
                Some(b) => b / wall,
            };
            table.row(&[
                &threads.to_string(),
                &format!("{wall:.3}"),
                &format!("{:.0}", out.stats.created as f64 / wall.max(1e-9)),
                &format!("{:.4e}", out.best_cost),
                &format!("{speedup:.2}x"),
            ]);
        }
    }
    if cores < 2 {
        println!(
            "# NOTE: this machine exposes {cores} core(s) — explorer threads \
             timeshare it, so no wall-clock speedup is observable here."
        );
    }
}
