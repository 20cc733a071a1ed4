//! Parallel search core: result determinism across explorer-thread
//! counts, the cross-thread counter invariant, the bounded group
//! scheduler's thread budget, and warm-started incremental search.
//!
//! The contract under test: exploration *order* changes with the thread
//! count, but the reachable state set of a completed run does not — so
//! sequential and parallel runs of the same strategy report the same best
//! cost (and, thanks to signature tie-breaking, the same best state), and
//! the counters always satisfy
//! `created + reexpansions == duplicates + discarded + explored +
//! frontier_remaining`.

use proptest::prelude::*;

use rdfviews::core::{
    search, select_views_partitioned_session, try_select_views_partitioned, CostModel, CostWeights,
    Preparation, ReasoningMode, SearchConfig, SearchOutcome, SearchStats, SelectionError,
    SelectionOptions, State, StrategyKind,
};
use rdfviews::model::Dataset;
use rdfviews::prelude::parse_query;
use rdfviews::query::ConjunctiveQuery;
use rdfviews::stats::collect_stats;
use rdfviews::workload::{
    generate_matching_data, generate_workload, Commonality, Shape, WorkloadSpec,
};

fn setup(
    seed: u64,
    shape: Shape,
    commonality: Commonality,
    queries: usize,
    atoms: usize,
    triples: usize,
) -> (Dataset, Vec<ConjunctiveQuery>) {
    let mut db = Dataset::new();
    let spec = WorkloadSpec::new(queries, atoms, shape, commonality).with_seed(seed);
    let workload = generate_workload(&spec, db.dict_mut());
    let (mut dict, mut store) = db.into_parts();
    generate_matching_data(&spec, &mut dict, &mut store, triples);
    (Dataset::from_parts(dict, store), workload)
}

fn cfg(strategy: StrategyKind, parallelism: usize) -> SearchConfig {
    SearchConfig {
        strategy,
        parallelism,
        max_states: Some(200_000),
        ..SearchConfig::default()
    }
}

/// `created + reexpansions == duplicates + discarded + explored +
/// frontier_remaining` — the ledger every explorer thread writes into must
/// balance whether or not the run was truncated.
fn assert_counter_invariant(stats: &SearchStats, label: &str) {
    assert_eq!(
        stats.created + stats.reexpansions,
        stats.duplicates + stats.discarded + stats.explored + stats.frontier_remaining,
        "{label}: {stats:?}"
    );
}

fn run(
    workload: &[ConjunctiveQuery],
    model: &CostModel<'_>,
    strategy: StrategyKind,
    parallelism: usize,
) -> SearchOutcome {
    search(State::initial(workload), model, &cfg(strategy, parallelism))
}

#[test]
fn parallel_runs_match_sequential_across_strategies() {
    // A high-commonality chain workload keeps all queries in one sharing
    // group — the regime the parallel core exists for.
    let (db, workload) = setup(11, Shape::Chain, Commonality::High, 3, 3, 600);
    let cat = collect_stats(db.store(), db.dict(), &workload);
    let model = CostModel::new(&cat, CostWeights::default());
    for strategy in [StrategyKind::Dfs, StrategyKind::ExStr, StrategyKind::Gstr] {
        let seq = run(&workload, &model, strategy, 1);
        assert!(!seq.stats.out_of_budget, "{strategy:?} must complete");
        assert_counter_invariant(&seq.stats, "sequential");
        for threads in [2, 4] {
            let par = run(&workload, &model, strategy, threads);
            assert!(!par.stats.out_of_budget);
            assert_eq!(
                par.best_cost, seq.best_cost,
                "{strategy:?} with {threads} explorers"
            );
            assert_counter_invariant(&par.stats, "parallel");
            assert_eq!(par.stats.frontier_remaining, 0, "completed run");
        }
    }
}

#[test]
fn parallel_exhaustive_reaches_the_same_distinct_states() {
    let (db, workload) = setup(5, Shape::Star, Commonality::High, 3, 2, 400);
    let cat = collect_stats(db.store(), db.dict(), &workload);
    let model = CostModel::new(&cat, CostWeights::default());
    let seq = run(&workload, &model, StrategyKind::Dfs, 1);
    let par = run(&workload, &model, StrategyKind::Dfs, 4);
    assert!(!seq.stats.out_of_budget && !par.stats.out_of_budget);
    // Orders differ, so created/duplicate totals may differ, but the
    // distinct reachable set (and hence the best state) is identical.
    assert_eq!(
        seq.stats.created - seq.stats.duplicates - seq.stats.discarded,
        par.stats.created - par.stats.duplicates - par.stats.discarded
    );
    assert_eq!(seq.best_cost, par.best_cost);
    assert_eq!(seq.best_state.signature(), par.best_state.signature());
}

#[test]
fn truncated_parallel_run_keeps_the_ledger_balanced() {
    let (db, workload) = setup(7, Shape::Mixed, Commonality::High, 4, 4, 500);
    let cat = collect_stats(db.store(), db.dict(), &workload);
    let model = CostModel::new(&cat, CostWeights::default());
    let mut c = cfg(StrategyKind::Dfs, 4);
    c.max_states = Some(50);
    let out = search(State::initial(&workload), &model, &c);
    assert!(out.stats.out_of_budget);
    assert!(out.stats.frontier_remaining > 0);
    assert_counter_invariant(&out.stats, "truncated");
    // Best-effort result still exists.
    assert!(out.best_cost <= out.initial_cost);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random workloads: a 3-explorer run of every frontier strategy
    /// reports the sequential best cost and balances the counter ledger.
    #[test]
    fn parallel_determinism_over_random_workloads(
        seed in 0u64..500,
        queries in 2usize..5,
        atoms in 2usize..4,
        star in any::<bool>(),
        strat_pick in 0usize..3,
    ) {
        let shape = if star { Shape::Star } else { Shape::Chain };
        let strategy = [StrategyKind::Dfs, StrategyKind::ExStr, StrategyKind::Gstr][strat_pick];
        let (db, workload) = setup(seed, shape, Commonality::High, queries, atoms, 300);
        let cat = collect_stats(db.store(), db.dict(), &workload);
        let model = CostModel::new(&cat, CostWeights::default());
        let seq = run(&workload, &model, strategy, 1);
        let par = run(&workload, &model, strategy, 3);
        assert_counter_invariant(&seq.stats, "sequential");
        assert_counter_invariant(&par.stats, "parallel");
        // Equality of the optimum requires both runs to have completed.
        if !seq.stats.out_of_budget && !par.stats.out_of_budget {
            prop_assert_eq!(seq.best_cost, par.best_cost, "{:?}", strategy);
        }
    }
}

// ---------------------------------------------------------------------
// Group scheduler
// ---------------------------------------------------------------------

fn multi_group_db() -> (Dataset, Vec<ConjunctiveQuery>) {
    let mut db = Dataset::new();
    for i in 0..40 {
        let s = format!("s{i}");
        for p in 0..4 {
            db.insert_terms(
                rdfviews::model::Term::uri(s.as_str()),
                rdfviews::model::Term::uri(format!("p{p}")),
                rdfviews::model::Term::uri(format!("o{}", i % 5)),
            );
        }
    }
    // Four independent sharing groups (distinct predicates).
    let queries = (0..4)
        .map(|p| {
            parse_query(&format!("q{p}(X, Y) :- t(X, <p{p}>, Y)"), db.dict_mut())
                .unwrap()
                .query
        })
        .collect();
    (db, queries)
}

#[test]
fn bounded_scheduler_matches_unbounded_results() {
    let (db, queries) = multi_group_db();
    let mut opts = SelectionOptions::recommended();
    let sequential =
        try_select_views_partitioned(db.store(), db.dict(), None, &queries, &opts).unwrap();
    // A 2-thread budget over 4 groups: pool of 2, largest-first.
    opts.search.parallelism = 2;
    let bounded =
        try_select_views_partitioned(db.store(), db.dict(), None, &queries, &opts).unwrap();
    assert_eq!(sequential.outcome.best_cost, bounded.outcome.best_cost);
    assert_eq!(sequential.branch_of, bounded.branch_of);
    assert_eq!(sequential.views.len(), bounded.views.len());
}

#[test]
fn cartesian_group_is_rejected_before_the_search() {
    // A Cartesian-product query is refused as `UnsupportedQuery` before
    // any group search starts, at every thread budget. (That a group
    // search which does panic is captured per group, the other groups
    // finishing, is tested on the scheduler in `partition.rs`.)
    let (mut db, mut queries) = multi_group_db();
    queries.push(
        parse_query("qbad(X, A) :- t(X, <u1>, Y), t(A, <u2>, B)", db.dict_mut())
            .unwrap()
            .query,
    );
    for parallelism in [1, 2] {
        let mut opts = SelectionOptions::recommended();
        opts.search.parallelism = parallelism;
        let mut prep = Preparation::new(db.store(), db.dict(), None, ReasoningMode::Plain).unwrap();
        let err = select_views_partitioned_session(&mut prep, &queries, &opts).unwrap_err();
        match err {
            SelectionError::UnsupportedQuery { reason } => {
                assert!(reason.contains("Cartesian"), "reason: {reason}");
            }
            other => panic!("expected UnsupportedQuery, got {other:?}"),
        }
    }
}
