//! Search strategies over the space of candidate view sets (Section 5).
//!
//! All strategies share one bookkeeping core (`engine::SearchCore`): a
//! signature-based duplicate detector, the Figure 5 counters (created /
//! duplicate / discarded / explored states), a best-state tracker with a
//! cost-over-time trace (Figure 7), stop conditions (Section 5.2) and a
//! state budget standing in for the memory limit that makes the relational
//! competitor strategies fail on large workloads (Section 6.2).
//!
//! Strategies:
//!
//! * [`StrategyKind::ExNaive`] — Algorithm 2, breadth-flavored exhaustive;
//! * [`StrategyKind::ExStr`] — stratified exhaustive (EXSTR): each state
//!   only receives transitions respecting the VB\* SC\* JC\* VF\* order of
//!   its path (Theorem 5.3 guarantees this is still exhaustive);
//! * [`StrategyKind::Dfs`] — stratified depth-first search: fully explores
//!   each branch before backtracking, keeping the candidate set small;
//! * [`StrategyKind::Gstr`] — greedy stratified: keeps only the best state
//!   between transition phases;
//! * [`StrategyKind::Pruning`] / [`StrategyKind::Greedy`] /
//!   [`StrategyKind::Heuristic`] — the divide-and-conquer strategies of
//!   Theodoratos et al. \[21\], reimplemented for comparison (Section 6.1).
//!
//! The **AVF** optimization (aggressive view fusion) collapses every newly
//! created state to its VF-fixpoint, discarding the intermediate states —
//! safe because VF never increases the cost (Section 3.3).
//!
//! # Search internals: frontiers, explorers and the shared core
//!
//! The search is layered so every strategy is the composition of three
//! reusable pieces:
//!
//! 1. **Frontier** (`frontier`) — the exploration-order layer. A
//!    `Frontier` owns pending nodes (state + lazy transition `Cursor`)
//!    under a policy: *queue* (EXNAIVE/EXSTR, Algorithm 2's candidate
//!    set), *stack* (DFS), or
//!    *best-only* between GSTR phases. Nodes hold their state behind an
//!    `Arc`, so moving one between explorers is a pointer copy.
//! 2. **Shared core** (`engine`) — one `SearchCore` per run: a sharded,
//!    lock-striped signature table for duplicate detection, relaxed-atomic
//!    Figure 5 counters with the shared `max_states` budget folded into
//!    the `created` increment, and a gated best tracker whose exact-cost
//!    ties break on the state signature (so the winner is
//!    order-independent).
//! 3. **Explorers** — [`SearchConfig::parallelism`] threads per search
//!    (default 1). Each explorer drains a private frontier and donates its
//!    shallowest node to a shared injector whenever siblings might starve;
//!    idle explorers steal from the injector and stop when the global
//!    pending count reaches zero. Exploration *order* differs across
//!    thread counts, but the reachable state set — and therefore the best
//!    cost of a completed run — does not.
//!
//! For the frontier strategies (EXNAIVE / EXSTR / DFS / GSTR) the
//! counters keep one cross-thread invariant that tests (and the bench
//! harness) check: `created + reexpansions == duplicates + discarded +
//! explored + frontier_remaining`, where
//! [`SearchStats::frontier_remaining`] is the scheduled-but-unexplored
//! remainder of a budget-truncated run. The competitor strategies
//! reproduce the paper's divide-and-conquer accounting instead (partial
//! states are created and recombined, never scheduled on a frontier), so
//! their ledger intentionally does not balance this way.

pub mod competitors;
pub(crate) mod engine;
pub(crate) mod frontier;

use std::sync::Arc;
use std::time::Duration;

use crate::cost::CostModel;
use crate::state::State;
use crate::transitions::TransitionKind;

use engine::{BestCell, SearchCore};
#[cfg(test)]
use frontier::Cursor;
use frontier::{CursorMode, FrontierPolicy};

/// Which strategy drives the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Algorithm 2: naive exhaustive.
    ExNaive,
    /// Stratified exhaustive.
    ExStr,
    /// Stratified depth-first (the paper's best scaling strategy).
    Dfs,
    /// Greedy stratified.
    Gstr,
    /// Theodoratos et al. Pruning (competitor).
    Pruning,
    /// Theodoratos et al. Greedy (competitor).
    Greedy,
    /// Theodoratos et al. Heuristic (competitor).
    Heuristic,
}

impl StrategyKind {
    /// Short display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::ExNaive => "EXNAIVE",
            StrategyKind::ExStr => "EXSTR",
            StrategyKind::Dfs => "DFS",
            StrategyKind::Gstr => "GSTR",
            StrategyKind::Pruning => "Pruning",
            StrategyKind::Greedy => "Greedy",
            StrategyKind::Heuristic => "Heuristic",
        }
    }
}

/// Search configuration (strategy + heuristics + budgets).
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// The driving strategy.
    pub strategy: StrategyKind,
    /// Aggressive view fusion (the `-AVF` suffix of Section 6).
    pub avf: bool,
    /// The `stop_var` condition: discard states with an all-variable view.
    pub stop_var: bool,
    /// The `stop_tt` condition: discard states containing the full triple
    /// table as a view.
    pub stop_tt: bool,
    /// The `stop_time` condition: wall-clock budget.
    pub time_budget: Option<Duration>,
    /// Maximum number of created states — the stand-in for the JVM heap
    /// limit of the paper's experiments; exceeding it sets
    /// [`SearchStats::out_of_budget`].
    pub max_states: Option<usize>,
    /// View Break overlap limit (see
    /// [`TransitionConfig::vb_overlap_limit`]).
    ///
    /// [`TransitionConfig::vb_overlap_limit`]:
    /// crate::transitions::TransitionConfig::vb_overlap_limit
    pub vb_overlap_limit: usize,
    /// Explorer threads expanding one search's state space concurrently.
    /// `1` (the default) runs the classic sequential loop inline; `0`
    /// means "one per available core". Parallel runs visit states in a
    /// different order but complete to the same reachable set, so a
    /// non-truncated run reports the same best cost at any thread count.
    /// Partitioned selection splits the same budget between concurrent
    /// sharing groups and their explorers ([`crate::partition`]).
    pub parallelism: usize,
}

impl SearchConfig {
    /// Resolves [`SearchConfig::parallelism`]: `0` becomes the number of
    /// available cores.
    pub fn effective_parallelism(&self) -> usize {
        match self.parallelism {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            strategy: StrategyKind::Dfs,
            avf: true,
            stop_var: true,
            stop_tt: false,
            time_budget: None,
            max_states: Some(500_000),
            vb_overlap_limit: 1,
            parallelism: 1,
        }
    }
}

/// Counters and traces of one search run (Figures 5 and 7 plot these).
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// States reached by the search (including duplicates and discarded).
    pub created: u64,
    /// States already attained through a different path.
    pub duplicates: u64,
    /// States excluded by stop conditions (or dropped by AVF collapsing).
    pub discarded: u64,
    /// States whose outgoing transitions were all tried.
    pub explored: u64,
    /// Transitions applied.
    pub transitions: u64,
    /// Known states scheduled for another expansion: re-reached at a
    /// strictly lower stratification phase (Theorem 5.3's completeness
    /// repair) or force-re-seeded by a GSTR phase. Each is also counted in
    /// [`SearchStats::duplicates`].
    pub reexpansions: u64,
    /// States still scheduled when the run stopped (0 for a completed
    /// run). For the frontier strategies (EXNAIVE / EXSTR / DFS / GSTR)
    /// the counters satisfy `created + reexpansions ==
    /// duplicates + discarded + explored + frontier_remaining`; the
    /// competitor strategies use the paper's divide-and-conquer
    /// accounting, which does not schedule states on a frontier.
    pub frontier_remaining: u64,
    /// `(seconds since start, best cost)` — appended whenever the best
    /// improves.
    pub best_cost_trace: Vec<(f64, f64)>,
    /// Whether the state budget was exhausted (the simulated OOM).
    pub out_of_budget: bool,
    /// Whether the time budget expired.
    pub timed_out: bool,
    /// Total wall-clock time.
    pub elapsed: Duration,
}

/// The result of a search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best state found (`Sb`).
    pub best_state: State,
    /// Its estimated cost.
    pub best_cost: f64,
    /// The initial state's cost.
    pub initial_cost: f64,
    /// Counters and traces.
    pub stats: SearchStats,
}

impl SearchOutcome {
    /// The paper's *relative cost reduction*:
    /// `(cǫ(S0) − cǫ(Sb)) / cǫ(S0)` (Section 6.1).
    pub fn rcr(&self) -> f64 {
        if self.initial_cost == 0.0 {
            0.0
        } else {
            (self.initial_cost - self.best_cost) / self.initial_cost
        }
    }
}

/// Runs the configured strategy from `s0`.
pub fn search(s0: State, model: &CostModel<'_>, cfg: &SearchConfig) -> SearchOutcome {
    search_seeded(s0, None, model, cfg)
}

/// Runs the configured strategy from `s0`, optionally **warm-started**:
/// when `warm` holds a seed state (a previous recommendation's surviving
/// views re-assembled for the current workload), the frontier starts at
/// that seed instead of `s0` and the search explores its transition
/// closure — a local search around the previous optimum that typically
/// creates far fewer states than a cold run. `s0` still fixes the
/// initial-cost baseline and remains the fallback best state, so the
/// outcome is never worse than no materialization. The competitor
/// strategies ignore the seed (their divide-and-conquer scheme has no
/// frontier to seed).
pub fn search_seeded(
    s0: State,
    warm: Option<State>,
    model: &CostModel<'_>,
    cfg: &SearchConfig,
) -> SearchOutcome {
    let core = SearchCore::new(&s0, model, cfg);
    match cfg.strategy {
        StrategyKind::ExNaive => {
            core.explore(
                vec![warm.unwrap_or(s0)],
                FrontierPolicy::Fifo,
                CursorMode::All,
                None,
            );
            core.finish()
        }
        StrategyKind::ExStr => {
            core.explore(
                vec![warm.unwrap_or(s0)],
                FrontierPolicy::Fifo,
                CursorMode::Stratified,
                None,
            );
            core.finish()
        }
        StrategyKind::Dfs => {
            core.explore(
                vec![warm.unwrap_or(s0)],
                FrontierPolicy::Lifo,
                CursorMode::Stratified,
                None,
            );
            core.finish()
        }
        StrategyKind::Gstr => run_gstr(core, warm.unwrap_or(s0)),
        StrategyKind::Pruning | StrategyKind::Greedy | StrategyKind::Heuristic => {
            competitors::run(&core, &s0);
            core.finish()
        }
    }
}

// ---------------------------------------------------------------------
// GSTR (greedy stratified)
// ---------------------------------------------------------------------

/// GSTR: for each transition kind in stratified order, explore the closure
/// of the current state under that kind alone and keep only the closure's
/// best state for the next phase (the frontier collapses to *best-only*
/// between phases).
fn run_gstr(core: SearchCore<'_, '_, '_>, start: State) -> SearchOutcome {
    let mut current = Arc::new(start);
    for kind in TransitionKind::ALL {
        if core.check_halted() {
            break;
        }
        if core.cfg.avf && kind == TransitionKind::Vf {
            continue; // AVF keeps every state fusion-saturated already
        }
        // Any offer beats the phase's start, and its seed is offered.
        let phase_best = BestCell::new(
            f64::INFINITY,
            u128::MAX,
            Arc::clone(&current),
            std::time::Instant::now(),
        );
        core.explore(
            vec![(*current).clone()],
            FrontierPolicy::BestOnly,
            CursorMode::Single(kind),
            Some(&phase_best),
        );
        current = phase_best.into_best().state;
    }
    core.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostWeights;
    use crate::transitions::TransitionConfig;
    use rdf_model::{Dataset, Term};
    use rdf_query::parser::parse_query;
    use rdf_stats::collect_stats;

    fn two_const_db() -> Dataset {
        let mut db = Dataset::new();
        for i in 0..40 {
            let s = format!("s{i}");
            db.insert_terms(
                Term::uri(s.as_str()),
                Term::uri(format!("p{}", i % 4)),
                Term::uri("c1"),
            );
            db.insert_terms(
                Term::uri(s.as_str()),
                Term::uri(format!("r{}", i % 2)),
                Term::uri("c2"),
            );
        }
        db
    }

    /// The Figure 3 workload: q(Y, Z) :- t(X, Y, c1), t(X, Z, c2).
    fn figure3_state(db: &mut Dataset) -> (Vec<rdf_query::ConjunctiveQuery>, State) {
        let q = parse_query("q(Y, Z) :- t(X, Y, <c1>), t(X, Z, <c2>)", db.dict_mut())
            .unwrap()
            .query;
        let queries = vec![q];
        let s0 = State::initial(&queries);
        (queries, s0)
    }

    fn exhaustive_cfg(strategy: StrategyKind) -> SearchConfig {
        SearchConfig {
            strategy,
            avf: false,
            stop_var: false,
            stop_tt: false,
            time_budget: None,
            max_states: Some(100_000),
            vb_overlap_limit: 1,
            parallelism: 1,
        }
    }

    #[test]
    fn figure3_state_lattice_exnaive() {
        // The paper's Figure 3 lattice has exactly 9 states S0–S8.
        let mut db = two_const_db();
        let (_qs, s0) = figure3_state(&mut db);
        let cat = collect_stats(db.store(), db.dict(), &[]);
        let model = CostModel::new(&cat, CostWeights::default());
        let out = search(s0, &model, &exhaustive_cfg(StrategyKind::ExNaive));
        let distinct = out.stats.created - out.stats.duplicates - out.stats.discarded;
        assert_eq!(distinct, 9, "stats: {:?}", out.stats);
        assert!(!out.stats.out_of_budget);
    }

    #[test]
    fn figure3_all_exhaustive_strategies_agree() {
        let mut db = two_const_db();
        let cat = {
            let (qs, _) = figure3_state(&mut db);
            collect_stats(db.store(), db.dict(), &qs)
        };
        let model = CostModel::new(&cat, CostWeights::default());
        let mut costs = Vec::new();
        let mut explored_counts = Vec::new();
        for strat in [
            StrategyKind::ExNaive,
            StrategyKind::ExStr,
            StrategyKind::Dfs,
        ] {
            let (_, s0) = figure3_state(&mut db);
            let out = search(s0, &model, &exhaustive_cfg(strat));
            costs.push(out.best_cost);
            explored_counts.push(out.stats.explored);
            let distinct = out.stats.created - out.stats.duplicates - out.stats.discarded;
            assert_eq!(distinct, 9, "{strat:?}");
        }
        assert!(costs.iter().all(|&c| (c - costs[0]).abs() < 1e-6));
    }

    #[test]
    fn stratified_has_fewer_transitions_than_naive() {
        // Theorem 5.3(ii): EXSTR applies at most as many transitions.
        let mut db = two_const_db();
        let cat = {
            let (qs, _) = figure3_state(&mut db);
            collect_stats(db.store(), db.dict(), &qs)
        };
        let model = CostModel::new(&cat, CostWeights::default());
        let (_, s0a) = figure3_state(&mut db);
        let naive = search(s0a, &model, &exhaustive_cfg(StrategyKind::ExNaive));
        let (_, s0b) = figure3_state(&mut db);
        let strat = search(s0b, &model, &exhaustive_cfg(StrategyKind::ExStr));
        assert!(strat.stats.transitions <= naive.stats.transitions);
    }

    #[test]
    fn gstr_improves_or_matches_initial() {
        let mut db = two_const_db();
        let q = parse_query("q(X) :- t(X, <p0>, <c1>), t(X, <r0>, <c2>)", db.dict_mut())
            .unwrap()
            .query;
        let queries = vec![q];
        let cat = collect_stats(db.store(), db.dict(), &queries);
        let model = CostModel::new(&cat, CostWeights::default());
        let out = search(
            State::initial(&queries),
            &model,
            &SearchConfig {
                strategy: StrategyKind::Gstr,
                ..SearchConfig::default()
            },
        );
        assert!(out.best_cost <= out.initial_cost);
        assert!(out.rcr() >= 0.0);
    }

    #[test]
    fn avf_reduces_created_states() {
        let mut db = two_const_db();
        let qa = parse_query("qa(X) :- t(X, <p0>, Y), t(X, <p1>, Z)", db.dict_mut())
            .unwrap()
            .query;
        let qb = parse_query("qb(A) :- t(A, <p0>, B), t(A, <p1>, C)", db.dict_mut())
            .unwrap()
            .query;
        let queries = vec![qa, qb];
        let cat = collect_stats(db.store(), db.dict(), &queries);
        let model = CostModel::new(&cat, CostWeights::default());
        let base = SearchConfig {
            strategy: StrategyKind::Dfs,
            avf: false,
            stop_var: true,
            ..SearchConfig::default()
        };
        let no_avf = search(State::initial(&queries), &model, &base);
        let with_avf = search(
            State::initial(&queries),
            &model,
            &SearchConfig { avf: true, ..base },
        );
        assert!(
            with_avf.stats.created <= no_avf.stats.created,
            "AVF: {} vs {}",
            with_avf.stats.created,
            no_avf.stats.created
        );
        // AVF preserves the best cost (it only skips dominated states).
        assert!((with_avf.best_cost - no_avf.best_cost).abs() <= 1e-6 * no_avf.best_cost.abs());
    }

    #[test]
    fn stop_var_discards_states() {
        let mut db = two_const_db();
        let (_qs, s0) = figure3_state(&mut db);
        let cat = collect_stats(db.store(), db.dict(), &[]);
        let model = CostModel::new(&cat, CostWeights::default());
        let mut cfg = exhaustive_cfg(StrategyKind::Dfs);
        cfg.stop_var = true;
        let out = search(s0, &model, &cfg);
        assert!(out.stats.discarded > 0);
        let distinct = out.stats.created - out.stats.duplicates - out.stats.discarded;
        assert!(distinct < 9);
    }

    #[test]
    fn state_budget_flags_oom() {
        let mut db = two_const_db();
        let (_qs, s0) = figure3_state(&mut db);
        let cat = collect_stats(db.store(), db.dict(), &[]);
        let model = CostModel::new(&cat, CostWeights::default());
        let mut cfg = exhaustive_cfg(StrategyKind::Dfs);
        cfg.max_states = Some(3);
        let out = search(s0, &model, &cfg);
        assert!(out.stats.out_of_budget);
    }

    #[test]
    fn cursor_visits_phases_in_stratified_order() {
        let mut db = two_const_db();
        let q = parse_query(
            "q(X) :- t(X, <p0>, <c1>), t(X, <p1>, <c2>), t(X, <r0>, Y)",
            db.dict_mut(),
        )
        .unwrap()
        .query;
        let s0 = State::initial(&[q]);
        let tcfg = TransitionConfig::default();
        let mut cursor = Cursor::stratified(TransitionKind::Vb);
        let mut kinds = Vec::new();
        while let Some(t) = cursor.next(&s0, &tcfg) {
            kinds.push(t.kind());
        }
        // Non-decreasing phase order: VB* SC* JC* VF*.
        for w in kinds.windows(2) {
            assert!(w[0] <= w[1], "{kinds:?}");
        }
        assert!(kinds.contains(&TransitionKind::Vb));
        assert!(kinds.contains(&TransitionKind::Sc));
        assert!(kinds.contains(&TransitionKind::Jc));

        // Starting at SC must not emit any VB.
        let mut cursor = Cursor::stratified(TransitionKind::Sc);
        while let Some(t) = cursor.next(&s0, &tcfg) {
            assert_ne!(t.kind(), TransitionKind::Vb);
        }

        // Single-kind cursors emit only their kind.
        let mut cursor = Cursor::single(TransitionKind::Jc);
        while let Some(t) = cursor.next(&s0, &tcfg) {
            assert_eq!(t.kind(), TransitionKind::Jc);
        }
    }

    #[test]
    fn search_stats_add_up() {
        // created + reexpansions =
        //   duplicates + discarded + explored + frontier_remaining,
        // and distinct = created - duplicates - discarded, for a completed
        // exhaustive run.
        let mut db = two_const_db();
        let (_qs, s0) = figure3_state(&mut db);
        let cat = collect_stats(db.store(), db.dict(), &[]);
        let model = CostModel::new(&cat, CostWeights::default());
        let out = search(s0, &model, &exhaustive_cfg(StrategyKind::Dfs));
        let distinct = out.stats.created - out.stats.duplicates - out.stats.discarded;
        assert_eq!(distinct, 9);
        assert_eq!(out.stats.frontier_remaining, 0);
        assert_eq!(
            out.stats.created + out.stats.reexpansions,
            out.stats.duplicates + out.stats.discarded + out.stats.explored
        );
        // Every distinct state was fully explored (complete run).
        assert_eq!(out.stats.explored - out.stats.reexpansions, distinct);
        assert!(!out.stats.timed_out);
    }

    #[test]
    fn time_budget_halts() {
        let mut db = two_const_db();
        let (_qs, s0) = figure3_state(&mut db);
        let cat = collect_stats(db.store(), db.dict(), &[]);
        let model = CostModel::new(&cat, CostWeights::default());
        let mut cfg = exhaustive_cfg(StrategyKind::Dfs);
        cfg.time_budget = Some(Duration::from_secs(0));
        let out = search(s0, &model, &cfg);
        assert!(out.stats.timed_out);
        // The initial state is always available as a recommendation.
        assert!(out.best_cost <= out.initial_cost);
    }

    #[test]
    fn parallel_dfs_matches_sequential_on_figure3() {
        let mut db = two_const_db();
        let cat = {
            let (qs, _) = figure3_state(&mut db);
            collect_stats(db.store(), db.dict(), &qs)
        };
        let model = CostModel::new(&cat, CostWeights::default());
        let (_, s0a) = figure3_state(&mut db);
        let seq = search(s0a, &model, &exhaustive_cfg(StrategyKind::Dfs));
        let (_, s0b) = figure3_state(&mut db);
        let mut cfg = exhaustive_cfg(StrategyKind::Dfs);
        cfg.parallelism = 4;
        let par = search(s0b, &model, &cfg);
        assert_eq!(par.best_cost, seq.best_cost);
        assert_eq!(
            par.stats.created - par.stats.duplicates - par.stats.discarded,
            9
        );
        assert_eq!(par.stats.frontier_remaining, 0);
        assert_eq!(
            par.stats.created + par.stats.reexpansions,
            par.stats.duplicates + par.stats.discarded + par.stats.explored
        );
        // Equal-cost ties break on signature, so even the best *state*
        // agrees across thread counts.
        assert_eq!(par.best_state.signature(), seq.best_state.signature());
    }
}
