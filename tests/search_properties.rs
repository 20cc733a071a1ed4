//! Search-level properties: exhaustive strategies agree, heuristics trade
//! completeness for speed as the paper describes, and large-workload
//! behavior matches Section 6 qualitatively.

use std::time::Duration;

use rdfviews::core::{search, CostModel, CostWeights, SearchConfig, State, StrategyKind};
use rdfviews::model::Dataset;
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

fn exhaustive(strategy: StrategyKind) -> SearchConfig {
    SearchConfig {
        strategy,
        avf: false,
        stop_var: false,
        stop_tt: false,
        time_budget: None,
        max_states: Some(400_000),
        vb_overlap_limit: 1,
        parallelism: 1,
    }
}

#[test]
fn exhaustive_strategies_find_the_same_optimum() {
    let (db, workload) = setup(3, Shape::Chain, Commonality::Low, 2, 3, 400);
    let cat = collect_stats(db.store(), db.dict(), &workload);
    let model = CostModel::new(&cat, CostWeights::default());
    let mut costs = Vec::new();
    for strat in [
        StrategyKind::ExNaive,
        StrategyKind::ExStr,
        StrategyKind::Dfs,
    ] {
        let out = search(State::initial(&workload), &model, &exhaustive(strat));
        assert!(!out.stats.out_of_budget, "{strat:?} must finish");
        costs.push((strat, out.best_cost));
    }
    for (strat, c) in &costs {
        assert!(
            (c - costs[0].1).abs() <= 1e-6 * costs[0].1.abs().max(1.0),
            "{strat:?} found {c}, expected {}",
            costs[0].1
        );
    }
}

#[test]
fn avf_and_stop_var_preserve_exhaustive_optimum_here() {
    // AVF preserves optimality (Section 5.2); STV may lose it in theory but
    // not on this workload — matching the paper's observation that
    // AVF-STV "reduces the search space while preserving view set quality".
    let (db, workload) = setup(11, Shape::Chain, Commonality::High, 2, 3, 400);
    let cat = collect_stats(db.store(), db.dict(), &workload);
    let model = CostModel::new(&cat, CostWeights::default());
    let plain = search(
        State::initial(&workload),
        &model,
        &exhaustive(StrategyKind::Dfs),
    );
    let avf = search(
        State::initial(&workload),
        &model,
        &SearchConfig {
            avf: true,
            ..exhaustive(StrategyKind::Dfs)
        },
    );
    assert!((avf.best_cost - plain.best_cost).abs() <= 1e-6 * plain.best_cost.max(1.0));
    assert!(avf.stats.created <= plain.stats.created);
    let stv = search(
        State::initial(&workload),
        &model,
        &SearchConfig {
            avf: true,
            stop_var: true,
            ..exhaustive(StrategyKind::Dfs)
        },
    );
    assert!(stv.stats.created <= avf.stats.created);
    assert!((stv.best_cost - plain.best_cost).abs() <= 1e-6 * plain.best_cost.max(1.0));
}

#[test]
fn ten_atom_queries_get_large_reductions() {
    // The headline effect (Figure 6): on unselective 10-atom queries the
    // initial state (materializing whole query results, whose multi-join
    // cardinality estimates grow with the atom count) is far costlier than
    // a factorized view set.
    let mut db = Dataset::new();
    let mut spec = WorkloadSpec::new(3, 10, Shape::Star, Commonality::High).with_seed(21);
    spec.object_const_prob = 0.0; // all atoms unselective, as in Barton-scale queries
    let workload = generate_workload(&spec, db.dict_mut());
    let (mut dict, mut store) = db.into_parts();
    generate_matching_data(&spec, &mut dict, &mut store, 3_000);
    let db = Dataset::from_parts(dict, store);
    let cat = collect_stats(db.store(), db.dict(), &workload);
    let mut model = CostModel::new(&cat, CostWeights::default());
    let s0 = State::initial(&workload);
    model.calibrate_cm(&s0);
    let out = search(
        s0,
        &model,
        &SearchConfig {
            time_budget: Some(Duration::from_secs(5)),
            ..SearchConfig::default()
        },
    );
    assert!(
        out.rcr() > 0.5,
        "expected a large relative cost reduction, got {:.3}",
        out.rcr()
    );
}

#[test]
fn gstr_explores_fewer_states_than_dfs() {
    let (db, workload) = setup(5, Shape::Star, Commonality::Low, 2, 5, 800);
    let cat = collect_stats(db.store(), db.dict(), &workload);
    let model = CostModel::new(&cat, CostWeights::default());
    let budget = SearchConfig {
        time_budget: Some(Duration::from_secs(4)),
        ..SearchConfig::default()
    };
    let dfs = search(State::initial(&workload), &model, &budget);
    let gstr = search(
        State::initial(&workload),
        &model,
        &SearchConfig {
            strategy: StrategyKind::Gstr,
            ..budget
        },
    );
    assert!(gstr.stats.created <= dfs.stats.created);
    // Both are anytime algorithms: under a wall-clock budget either may be
    // ahead (GSTR races to low-cost states, DFS covers more of the space),
    // but neither can be worse than the initial state.
    assert!(gstr.best_cost <= gstr.initial_cost);
    assert!(dfs.best_cost <= dfs.initial_cost);
}

#[test]
fn competitors_fail_on_ten_atom_queries() {
    // Figure 4's right panel: the relational strategies outgrow memory on
    // 10-atom queries before producing any full-workload state, while DFS
    // keeps running.
    let (db, workload) = setup(9, Shape::Star, Commonality::Low, 5, 10, 3_000);
    let cat = collect_stats(db.store(), db.dict(), &workload);
    let model = CostModel::new(&cat, CostWeights::default());
    let budget = 50_000;
    for strat in [
        StrategyKind::Pruning,
        StrategyKind::Greedy,
        StrategyKind::Heuristic,
    ] {
        let out = search(
            State::initial(&workload),
            &model,
            &SearchConfig {
                strategy: strat,
                max_states: Some(budget),
                ..SearchConfig::default()
            },
        );
        assert!(
            out.stats.out_of_budget,
            "{strat:?} should exhaust the state budget"
        );
        assert_eq!(
            out.best_cost, out.initial_cost,
            "{strat:?} found no solution"
        );
    }
    // DFS with the same budget still achieves a reduction.
    let dfs = search(
        State::initial(&workload),
        &model,
        &SearchConfig {
            max_states: Some(budget),
            ..SearchConfig::default()
        },
    );
    assert!(dfs.rcr() > 0.0, "DFS must improve within the same budget");
}

#[test]
fn best_cost_trace_is_monotone() {
    let (db, workload) = setup(13, Shape::Mixed, Commonality::High, 3, 6, 1_000);
    let cat = collect_stats(db.store(), db.dict(), &workload);
    let model = CostModel::new(&cat, CostWeights::default());
    let out = search(
        State::initial(&workload),
        &model,
        &SearchConfig {
            time_budget: Some(Duration::from_secs(3)),
            ..SearchConfig::default()
        },
    );
    let trace = &out.stats.best_cost_trace;
    assert!(!trace.is_empty());
    for w in trace.windows(2) {
        assert!(w[1].1 <= w[0].1, "cost trace must decrease");
        assert!(w[1].0 >= w[0].0, "time must increase");
    }
    assert_eq!(trace.last().unwrap().1, out.best_cost);
}

#[test]
fn recommended_state_counts_match_figure5_shape() {
    // Figure 5's qualitative claims: duplicates are plentiful without
    // heuristics; AVF and STV shrink every counter. (The workload is
    // sized so all four exhaustive runs complete: the ⟨V,R⟩-precise state
    // signature explores a richer space than the old view-set-only one.)
    let (db, workload) = setup(17, Shape::Chain, Commonality::Low, 2, 3, 800);
    let cat = collect_stats(db.store(), db.dict(), &workload);
    let model = CostModel::new(&cat, CostWeights::default());
    let run = |avf: bool, stv: bool| {
        search(
            State::initial(&workload),
            &model,
            &SearchConfig {
                avf,
                stop_var: stv,
                ..exhaustive(StrategyKind::Dfs)
            },
        )
    };
    let none = run(false, false);
    let avf = run(true, false);
    let stv = run(false, true);
    let both = run(true, true);
    assert!(none.stats.duplicates > 0);
    assert!(avf.stats.created <= none.stats.created);
    assert!(stv.stats.created <= none.stats.created);
    assert!(both.stats.created <= stv.stats.created.max(avf.stats.created));
    assert!(stv.stats.discarded > 0);
}

/// One pinned sequential run: `(created, duplicates, discarded, explored,
/// transitions, reexpansions, best_cost bits, best_state signature)`.
type Golden = (u64, u64, u64, u64, u64, u64, u64, u128);

#[test]
fn sequential_search_outcomes_are_pinned() {
    // Exact outcomes of single-explorer runs on two fixed workloads. A
    // change to transition enumeration order, successor construction or
    // the counters shows up here as a diff of these constants.
    let workloads = [
        setup(7, Shape::Star, Commonality::High, 4, 3, 300),
        setup(7, Shape::Chain, Commonality::High, 4, 3, 300),
    ];
    let mut got: Vec<Golden> = Vec::new();
    for (db, workload) in &workloads {
        let cat = collect_stats(db.store(), db.dict(), workload);
        let model = CostModel::new(&cat, CostWeights::default());
        for strategy in [
            StrategyKind::ExStr,
            StrategyKind::Dfs,
            StrategyKind::Gstr,
            StrategyKind::Pruning,
            StrategyKind::Greedy,
            StrategyKind::Heuristic,
        ] {
            for avf in [false, true] {
                let out = search(
                    State::initial(workload),
                    &model,
                    &SearchConfig {
                        strategy,
                        avf,
                        stop_var: false,
                        stop_tt: false,
                        time_budget: None,
                        max_states: Some(1_000),
                        vb_overlap_limit: 1,
                        parallelism: 1,
                    },
                );
                let s = &out.stats;
                got.push((
                    s.created,
                    s.duplicates,
                    s.discarded,
                    s.explored,
                    s.transitions,
                    s.reexpansions,
                    out.best_cost.to_bits(),
                    out.best_state.signature(),
                ));
            }
        }
    }
    assert_eq!(got, GOLDEN);
}

/// Recorded from the search at the point these outcomes were first
/// pinned; rows are Star then Chain, each ExStr, Dfs, Gstr, Pruning,
/// Greedy, Heuristic with AVF off then on. The three competitors spend
/// the whole budget in their per-query phase (which starts from the
/// unfolded workload), so their rows agree with one another.
#[rustfmt::skip]
const GOLDEN: [Golden; 24] = [
    (1000, 124, 0, 0, 999, 0, 4662159679998248732, 73562072253385547065044422131552417869),
    (1000, 203, 7, 0, 1094, 0, 4661113880923119882, 127346949009671746785620635808874887651),
    (1000, 881, 0, 88, 999, 0, 4664168500898744877, 211481342876985825070613879727135494936),
    (1000, 559, 113, 317, 1478, 0, 4663111481166491543, 296062172256290983650887770192648924371),
    (1000, 576, 0, 420, 999, 0, 4662159679998248732, 73562072253385547065044422131552417869),
    (1000, 416, 75, 506, 1305, 0, 4661046113416707760, 336852388182227466404741678597799711753),
    (1000, 616, 0, 380, 999, 0, 4666510264727297166, 157630496566024439186582720486626447577),
    (1000, 647, 20, 330, 1233, 0, 4666510264727297166, 157630496566024439186582720486626447577),
    (1000, 616, 0, 380, 999, 0, 4666510264727297166, 157630496566024439186582720486626447577),
    (1000, 647, 20, 330, 1233, 0, 4666510264727297166, 157630496566024439186582720486626447577),
    (1000, 616, 0, 380, 999, 0, 4666510264727297166, 157630496566024439186582720486626447577),
    (1000, 647, 20, 330, 1233, 0, 4666510264727297166, 157630496566024439186582720486626447577),
    (1000, 283, 0, 0, 999, 0, 4661928668113231132, 205618997235542243580121422411070289139),
    (1000, 298, 21, 0, 1206, 0, 4660387037108634809, 82450016310020780943882633185579527870),
    (1000, 883, 0, 91, 999, 0, 4661928668113231132, 205618997235542243580121422411070289139),
    (1000, 578, 121, 295, 1503, 0, 4660602328928201293, 133323165565587291412555319451123838144),
    (1000, 661, 0, 330, 998, 1, 4661928668113231132, 205618997235542243580121422411070289139),
    (503, 276, 48, 181, 624, 2, 4660387037108634809, 82450016310020780943882633185579527870),
    (1000, 589, 0, 410, 999, 0, 4661928668113231132, 205618997235542243580121422411070289139),
    (1000, 601, 64, 334, 1315, 0, 4661928668113231132, 205618997235542243580121422411070289139),
    (1000, 589, 0, 410, 999, 0, 4661928668113231132, 205618997235542243580121422411070289139),
    (1000, 601, 64, 334, 1315, 0, 4661928668113231132, 205618997235542243580121422411070289139),
    (1000, 589, 0, 410, 999, 0, 4661928668113231132, 205618997235542243580121422411070289139),
    (1000, 601, 64, 334, 1315, 0, 4661928668113231132, 205618997235542243580121422411070289139),
];
