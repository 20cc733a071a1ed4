//! The relational view-selection strategies of Theodoratos, Ligoudistianos
//! & Sellis (DKE 39(3), 2001) — the paper's competitors (Section 6.1).
//!
//! All three follow a divide-and-conquer scheme:
//!
//! 1. break the workload into 1-query states and exhaustively apply all
//!    possible transitions to each, producing per-query state sets `Pᵢ`;
//! 2. recombine: add up one state per query (and fuse views when possible),
//!    so any combination of partial states yields a valid full state.
//!
//! "Since any combination of partial states leads to a valid state, the
//! number of states thus created explodes." The variants differ in how
//! they fight the explosion:
//!
//! * **Pruning** discards dominated partial combinations (no cost/space
//!   budget is supplied, as in the paper's comparison — pruning falls back
//!   to pairwise dominance on estimated cost and view count);
//! * **Greedy** keeps only the single best combined state per step;
//! * **Heuristic** keeps, per query, the minimal-cost state plus any state
//!   offering a view-fusion opportunity with other queries' states.
//!
//! The per-query exhaustive phase is exactly what breaks on RDF workloads:
//! 10-atom queries explode before any full-workload state exists
//! (Figure 4's "failed to produce any solution"). The state budget
//! ([`super::SearchConfig::max_states`]) reproduces that failure mode
//! deterministically.
//!
//! Phase 1's per-query explorations are independent, so with
//! [`super::SearchConfig::parallelism`] `> 1` they run on explorer
//! threads against the one shared [`SearchCore`] (budget and counters
//! stay global); each exploration drives a stack [`Frontier`] with a
//! query-local duplicate set.

use rdf_model::FxHashSet;
use rdf_query::canonical::{canonical_form, HeadMode};

use crate::cost::CostModel;
use crate::state::State;
use crate::transitions::TransitionKind;
use crate::unfold::unfold;

use super::engine::SearchCore;
use super::frontier::{Cursor, Frontier, FrontierPolicy, Node};
use super::StrategyKind;

/// Runs one of the competitor strategies against the shared core; the
/// caller packages the outcome with [`SearchCore::finish`].
pub(crate) fn run(core: &SearchCore<'_, '_, '_>, s0: &State) {
    let cfg = core.cfg;
    let model = core.model;
    let n = s0.rewritings().len();
    let queries: Vec<rdf_query::ConjunctiveQuery> = (0..n).map(|i| unfold(s0, i)).collect();
    let (_, _) = core.admit_seed(s0, TransitionKind::Vb as u8);

    // Phase 1: exhaustive per-query exploration, on the core's explorer
    // threads when it has more than one. Every query weighs the same, so
    // queries are taken in workload order.
    let mut per_query: Vec<Vec<State>> = crate::sync::ordered_map(
        queries,
        core.workers(),
        |_| 0,
        |q| {
            if core.check_halted() {
                return Vec::new();
            }
            explore_all(core, State::initial(std::slice::from_ref(&q)))
        },
    );
    if core.check_halted() {
        return;
    }

    // Pruning and Heuristic prune the per-query sets before recombination
    // ("their pruning is mostly based on comparing two states and
    // discarding the less interesting one", Section 6.1): dominated
    // partial states are dropped. Greedy keeps everything and prunes only
    // at combination time.
    if matches!(
        cfg.strategy,
        StrategyKind::Pruning | StrategyKind::Heuristic
    ) {
        for states in &mut per_query {
            let pruned = pareto_prune(model, std::mem::take(states));
            *states = pruned;
        }
    }

    // Heuristic: keep the min-cost state per query, plus fusion
    // opportunities against the other queries' views.
    if cfg.strategy == StrategyKind::Heuristic {
        let pools: Vec<FxHashSet<Vec<rdf_query::canonical::CTok>>> = per_query
            .iter()
            .map(|states| {
                states
                    .iter()
                    .flat_map(|s| {
                        s.views()
                            .map(|v| canonical_form(&v.as_query(), HeadMode::Ignore).key)
                    })
                    .collect()
            })
            .collect();
        for (qi, states) in per_query.iter_mut().enumerate() {
            let min_idx = arg_min_cost(model, states);
            let keep: Vec<State> = states
                .iter()
                .enumerate()
                .filter(|(i, s)| {
                    *i == min_idx
                        || s.views().any(|v| {
                            let key = canonical_form(&v.as_query(), HeadMode::Ignore).key;
                            pools
                                .iter()
                                .enumerate()
                                .any(|(qj, pool)| qj != qi && pool.contains(&key))
                        })
                })
                .map(|(_, s)| s.clone())
                .collect();
            *states = keep;
        }
    }

    if per_query.iter().any(|s| s.is_empty()) {
        return; // a halted phase 1 left a query without partial states
    }

    // Phase 2: recombination, one query at a time. Greedy keeps a single
    // best state for every query prefix (including the first).
    let mut combined: Vec<State> = if cfg.strategy == StrategyKind::Greedy {
        let best = arg_min_cost(model, &per_query[0]);
        vec![per_query[0][best].clone()]
    } else {
        per_query[0].clone()
    };
    for states in per_query.iter().skip(1) {
        if core.check_halted() {
            return;
        }
        let mut next: Vec<State> = Vec::new();
        for base in &combined {
            for add in states {
                if core.check_halted() {
                    return;
                }
                core.count_created(1);
                let merged = core.avf_fixpoint(base.merge_with(add));
                next.push(merged);
            }
        }
        combined = match cfg.strategy {
            StrategyKind::Greedy => {
                let best = arg_min_cost(model, &next);
                vec![next.swap_remove(best)]
            }
            _ => pareto_prune(model, next),
        };
    }

    // Every surviving combination covers the full workload: admit them so
    // the best tracker sees them.
    for s in combined {
        if core.check_halted() {
            break;
        }
        let _ = core.admit(&s, TransitionKind::Vf as u8);
    }
}

/// Exhaustive stratified DFS from `start` over a stack [`Frontier`],
/// returning every distinct state (including `start`). Uses a query-local
/// duplicate set so identical workload queries do not starve each other,
/// while global counters and budgets still apply.
fn explore_all(core: &SearchCore<'_, '_, '_>, start: State) -> Vec<State> {
    let mut seen: FxHashSet<u128> = FxHashSet::default();
    seen.insert(start.signature());
    let mut out = vec![start.clone()];
    let mut frontier = Frontier::new(FrontierPolicy::Lifo);
    frontier.push(Node::new(
        std::sync::Arc::new(start),
        Cursor::stratified(TransitionKind::Vb),
    ));
    while let Some(mut node) = frontier.pop() {
        if core.check_halted() {
            break;
        }
        match node.cursor.next(&node.state, &core.tcfg) {
            Some(t) => {
                let next = core.step(&node.state, &t);
                core.count_created(1);
                if core.rejected(&next) {
                    core.count_discarded(1);
                    frontier.push(node);
                } else if seen.insert(next.signature()) {
                    out.push(next.clone());
                    let child = Node::new(std::sync::Arc::new(next), Cursor::stratified(t.kind()));
                    frontier.requeue(node, child);
                } else {
                    core.count_duplicates(1);
                    frontier.push(node);
                }
            }
            None => {
                core.count_explored(1);
            }
        }
    }
    out
}

fn arg_min_cost(model: &CostModel<'_>, states: &[State]) -> usize {
    let mut best = 0;
    let mut best_cost = f64::INFINITY;
    for (i, s) in states.iter().enumerate() {
        let c = model.cost(s);
        if c < best_cost {
            best_cost = c;
            best = i;
        }
    }
    best
}

/// Keeps the Pareto front over (estimated cost, view count): a state
/// survives unless another one is at least as good on both axes and
/// strictly better on one.
fn pareto_prune(model: &CostModel<'_>, states: Vec<State>) -> Vec<State> {
    let scored: Vec<(f64, usize, State)> = states
        .into_iter()
        .map(|s| (model.cost(&s), s.view_count(), s))
        .collect();
    let mut keep = Vec::new();
    'outer: for (i, (ci, vi, s)) in scored.iter().enumerate() {
        for (j, (cj, vj, _)) in scored.iter().enumerate() {
            if i != j {
                let dominated =
                    (cj < ci && vj <= vi) || (cj <= ci && vj < vi) || (cj < ci && vj < vi);
                // Tie-break exact duplicates by index to keep one copy.
                let tied = cj == ci && vj == vi && j < i;
                if dominated || tied {
                    continue 'outer;
                }
            }
        }
        keep.push(s.clone());
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostWeights;
    use crate::search::{search, SearchConfig};
    use rdf_model::{Dataset, Term};
    use rdf_query::parser::parse_query;
    use rdf_stats::collect_stats;

    fn db() -> Dataset {
        let mut db = Dataset::new();
        for i in 0..30 {
            let s = format!("s{i}");
            db.insert_terms(
                Term::uri(s.as_str()),
                Term::uri("p"),
                Term::uri(format!("a{}", i % 3)),
            );
            db.insert_terms(Term::uri(s.as_str()), Term::uri("q"), Term::uri("b"));
        }
        db
    }

    fn workload(db: &mut Dataset) -> Vec<rdf_query::ConjunctiveQuery> {
        vec![
            parse_query("q1(X) :- t(X, <p>, <a1>), t(X, <q>, <b>)", db.dict_mut())
                .unwrap()
                .query,
            parse_query("q2(Y) :- t(Y, <p>, <a2>)", db.dict_mut())
                .unwrap()
                .query,
        ]
    }

    #[test]
    fn competitors_produce_solutions_on_small_workloads() {
        let mut db = db();
        let queries = workload(&mut db);
        let cat = collect_stats(db.store(), db.dict(), &queries);
        let model = CostModel::new(&cat, CostWeights::default());
        for strat in [
            StrategyKind::Greedy,
            StrategyKind::Pruning,
            StrategyKind::Heuristic,
        ] {
            let out = search(
                State::initial(&queries),
                &model,
                &SearchConfig {
                    strategy: strat,
                    avf: false,
                    stop_var: true,
                    max_states: Some(200_000),
                    ..SearchConfig::default()
                },
            );
            assert!(!out.stats.out_of_budget, "{strat:?} should finish");
            assert!(out.best_cost <= out.initial_cost, "{strat:?}");
            out.best_state.check_invariants().unwrap();
            assert_eq!(out.best_state.rewritings().len(), 2, "{strat:?}");
        }
    }

    #[test]
    fn competitors_oom_on_tight_budget() {
        let mut db = db();
        let queries = workload(&mut db);
        let cat = collect_stats(db.store(), db.dict(), &queries);
        let model = CostModel::new(&cat, CostWeights::default());
        let out = search(
            State::initial(&queries),
            &model,
            &SearchConfig {
                strategy: StrategyKind::Pruning,
                max_states: Some(5),
                ..SearchConfig::default()
            },
        );
        assert!(out.stats.out_of_budget);
        // No better state was reached before the budget died.
        assert_eq!(out.best_cost, out.initial_cost);
    }

    #[test]
    fn duplicate_queries_still_combine() {
        let mut db = db();
        let q = parse_query("q1(X) :- t(X, <p>, <a1>)", db.dict_mut())
            .unwrap()
            .query;
        let queries = vec![q.clone(), q];
        let cat = collect_stats(db.store(), db.dict(), &queries);
        let model = CostModel::new(&cat, CostWeights::default());
        let out = search(
            State::initial(&queries),
            &model,
            &SearchConfig {
                strategy: StrategyKind::Greedy,
                ..SearchConfig::default()
            },
        );
        assert_eq!(out.best_state.rewritings().len(), 2);
        out.best_state.check_invariants().unwrap();
    }

    #[test]
    fn parallel_competitor_phase1_matches_sequential() {
        let mut db = db();
        let queries = workload(&mut db);
        let cat = collect_stats(db.store(), db.dict(), &queries);
        let model = CostModel::new(&cat, CostWeights::default());
        let base = SearchConfig {
            strategy: StrategyKind::Pruning,
            avf: false,
            stop_var: true,
            max_states: Some(200_000),
            ..SearchConfig::default()
        };
        let seq = search(State::initial(&queries), &model, &base);
        let par = search(
            State::initial(&queries),
            &model,
            &SearchConfig {
                parallelism: 4,
                ..base
            },
        );
        assert_eq!(seq.best_cost, par.best_cost);
    }
}
