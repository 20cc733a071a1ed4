//! # rdfviews-core
//!
//! The primary contribution of *View Selection in Semantic Web Databases*
//! (Goasdoué, Karanasos, Leblay, Manolescu — VLDB 2011): given a workload
//! of conjunctive RDF queries, recommend a set of views to materialize such
//! that **every** workload query is answerable from the views alone, while
//! minimizing a weighted combination of query-rewriting evaluation cost,
//! view storage space and view maintenance cost.
//!
//! The crate mirrors the paper's structure:
//!
//! * [`state`] — candidate view sets as **states** ⟨V, R⟩ (Definition 2.3):
//!   views plus exactly one rewriting per workload query (Section 3.1);
//! * [`transitions`] — the four state transitions Selection Cut, Join Cut,
//!   View Break and View Fusion (Definitions 3.2–3.5), complete for the
//!   whole state space (Theorem 5.1);
//! * [`cost`] — the cost estimation `cǫ = cs·VSO + cr·REC + cm·VMC`
//!   (Section 3.3), backed by `rdf-stats`;
//! * [`search`] — the strategies: EXNAIVE (Algorithm 2), stratified EXSTR,
//!   DFS, greedy GSTR, the Aggressive View Fusion optimization, the
//!   stop conditions, and reimplementations of the relational competitor
//!   strategies of Theodoratos et al. (Pruning / Greedy / Heuristic,
//!   Section 6.1). All strategies drive a shared frontier/explorer core
//!   ([`SearchConfig::parallelism`] explorer threads with work stealing,
//!   sharded signature dedup, atomic counters — see the module docs'
//!   "search internals" section);
//! * [`pipeline`] — end-to-end view selection including the three RDF
//!   entailment scenarios of Section 4.3: saturation, pre-reformulation and
//!   the paper's novel **post-reformulation**;
//! * [`unfold`] — rewriting unfolding, the semantic check behind every
//!   transition's correctness tests;
//! * [`rewrite`] — bucket/MiniCon-style rewriting of **ad-hoc** queries
//!   over an already-selected view set (views-only covers verified by
//!   unfolding equivalence, plus hybrid view/base plans), the engine
//!   behind the facade's `DeploymentSnapshot::plan` / `answer_query`.
//!
//! ```
//! use rdf_model::Dataset;
//! use rdf_query::parser::parse_query;
//! use rdf_stats::collect_stats;
//! use rdfviews_core::cost::{CostModel, CostWeights};
//! use rdfviews_core::search::{search, SearchConfig, StrategyKind};
//! use rdfviews_core::state::State;
//!
//! let mut db = Dataset::new();
//! # use rdf_model::Term;
//! # for i in 0..8 {
//! #     db.insert_terms(Term::uri(format!("s{i}")), Term::uri("p"), Term::uri(format!("o{}", i % 3)));
//! #     db.insert_terms(Term::uri(format!("s{i}")), Term::uri("q"), Term::uri("c"));
//! # }
//! let q = parse_query("q(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)", db.dict_mut()).unwrap();
//! let workload = vec![q.query];
//!
//! let cat = collect_stats(db.store(), db.dict(), &workload);
//! let model = CostModel::new(&cat, CostWeights::default());
//! let outcome = search(
//!     State::initial(&workload),
//!     &model,
//!     &SearchConfig { strategy: StrategyKind::Dfs, ..SearchConfig::default() },
//! );
//! assert!(outcome.best_cost <= outcome.initial_cost);
//! ```

pub mod cost;
pub mod display;
pub mod error;
pub mod partition;
pub mod pipeline;
pub mod rewrite;
pub mod search;
pub mod state;
pub mod sync;
pub mod transitions;
pub mod unfold;

pub use cost::{CostBreakdown, CostModel, CostWeights};
pub use error::SelectionError;
pub use partition::{
    partition_workload, select_views_partitioned_session, try_select_views_partitioned,
};
pub use pipeline::{
    select_views_session, try_select_views, Preparation, PreparedReasoning, ReasoningMode,
    Recommendation, SelectionOptions,
};
pub use rewrite::{base_plan, rewrite_best, unfold_plan, PlanAtom, RewritePlan};
pub use search::{search, SearchConfig, SearchOutcome, SearchStats, StrategyKind};
pub use state::{RewAtom, Rewriting, State, View, ViewId};
pub use transitions::Transition;
