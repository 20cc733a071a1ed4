//! The advisor session API — the crate's primary entry point.
//!
//! RDFViewS (Goasdoué et al., 2010) wraps the view-selection engine as a
//! long-lived tuning advisor; this module is that deployment story as an
//! API. An [`Advisor`] is built once per database via [`Advisor::builder`]
//! and prepares the expensive per-database artifacts — the saturated copy
//! of the store and the statistics catalog — exactly once. Every
//! [`Advisor::recommend`] call after that reuses them, only counting atom
//! shapes the catalog has never seen.
//!
//! ```
//! use rdfviews::prelude::*;
//! # use rdfviews::model::Term;
//!
//! let mut db = Dataset::new();
//! # for i in 0..20 {
//! #   db.insert_terms(Term::uri(format!("s{i}")), Term::uri("p"), Term::uri(format!("o{}", i % 4)));
//! #   db.insert_terms(Term::uri(format!("s{i}")), Term::uri("q"), Term::uri("c"));
//! # }
//! let q = parse_query("q(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)", db.dict_mut()).unwrap();
//!
//! let mut advisor = Advisor::builder(&db).build().unwrap();
//! let rec = advisor.recommend(&[q.query]).unwrap();
//! let deployment = advisor.deploy(rec);
//! let answers = deployment.snapshot().answer(0).unwrap();
//! assert_eq!(answers, rdfviews::engine::evaluate(db.store(), &deployment.recommendation().workload[0]));
//! ```

use std::time::Duration;

use rdf_model::{Dataset, Dictionary};
use rdf_query::parser::parse_workload;
use rdf_query::ConjunctiveQuery;
use rdf_schema::{Schema, VocabIds};
use rdfviews_core::{
    select_views_partitioned_session, select_views_session, CostWeights, Preparation,
    ReasoningMode, Recommendation, SelectionError, SelectionOptions, StrategyKind,
};

use crate::exec::{Deployment, DurableDeployment};

/// Configures and validates an [`Advisor`]. Created by
/// [`Advisor::builder`]; every setter is chainable and [`build`]
/// (`AdvisorBuilder::build`) performs the one-time per-database
/// preparation.
///
/// [`build`]: AdvisorBuilder::build
#[derive(Debug, Clone)]
pub struct AdvisorBuilder<'a> {
    db: &'a Dataset,
    schema: Option<(&'a Schema, &'a VocabIds)>,
    options: SelectionOptions,
}

impl<'a> AdvisorBuilder<'a> {
    /// Attaches the RDF Schema (required for every reasoning mode except
    /// [`ReasoningMode::Plain`]).
    pub fn schema(mut self, schema: &'a Schema, vocab: &'a VocabIds) -> Self {
        self.schema = Some((schema, vocab));
        self
    }

    /// Sets how implicit triples participate (default:
    /// [`ReasoningMode::Plain`]).
    pub fn reasoning(mut self, mode: ReasoningMode) -> Self {
        self.options.reasoning = mode;
        self
    }

    /// Auto-scales `cm` against the initial state (default: on, as the
    /// paper recommends).
    pub fn calibrate_cm(mut self, on: bool) -> Self {
        self.options.calibrate_cm = on;
        self
    }

    /// Sets the wall-clock budget per search.
    pub fn budget(mut self, budget: Duration) -> Self {
        self.options.search.time_budget = Some(budget);
        self
    }

    /// Caps the number of created states per search.
    pub fn max_states(mut self, n: usize) -> Self {
        self.options.search.max_states = Some(n);
        self
    }

    /// Sets the search strategy (default: DFS, the paper's best scaling
    /// strategy).
    pub fn strategy(mut self, strategy: StrategyKind) -> Self {
        self.options.search.strategy = strategy;
        self
    }

    /// Sets the thread budget (default: 1, the sequential loop; 0 means
    /// one per available core). A search expands its state space on that
    /// many explorer threads; parallel searches visit states in a
    /// different order but complete to the same reachable set, so a
    /// non-truncated run reports the same best cost at any setting. Under
    /// [`Advisor::recommend_partitioned`] the same budget sizes the group
    /// worker pool, split between concurrent groups and per-group
    /// explorers.
    pub fn parallelism(mut self, threads: usize) -> Self {
        self.options.search.parallelism = threads;
        self
    }

    /// Makes an exhausted search budget an error
    /// ([`SelectionError::BudgetExhausted`]) instead of a best-effort
    /// result (default: best-effort).
    pub fn strict_budget(mut self, on: bool) -> Self {
        self.options.fail_on_exhausted_budget = on;
        self
    }

    /// Replaces the whole option set (escape hatch for settings without a
    /// dedicated builder method).
    pub fn options(mut self, options: SelectionOptions) -> Self {
        self.options = options;
        self
    }

    /// Validates the configuration and runs the one-time per-database
    /// preparation: saturating the store (saturation mode) or deriving the
    /// saturated statistics (post-reformulation), plus the store-level
    /// catalog.
    ///
    /// Returns [`SelectionError::SchemaRequired`] when the reasoning mode
    /// needs a schema and none was attached.
    pub fn build(self) -> Result<Advisor<'a>, SelectionError> {
        let prep = Preparation::new(
            self.db.store(),
            self.db.dict(),
            self.schema,
            self.options.reasoning,
        )?;
        Ok(Advisor {
            db: self.db,
            options: self.options,
            prep,
            workload: Vec::new(),
        })
    }
}

/// An incremental change to an [`Advisor`]'s session workload, applied by
/// [`Advisor::recommend_incremental`].
#[derive(Debug, Clone)]
pub enum WorkloadChange {
    /// Appends a query to the session workload.
    Add(ConjunctiveQuery),
    /// Removes the query at this index from the session workload.
    Remove(usize),
}

/// A long-lived view-selection session over one database.
///
/// Building the advisor prepares the per-database artifacts once — the
/// reasoning with its own copy of the schema, the saturated store under
/// saturation, the statistics catalog; every recommendation after that
/// reuses them instead of recomputing them per invocation (the counters
/// [`Advisor::stats_collections`] / [`Advisor::saturation_runs`] make
/// the reuse observable). The session borrows its dataset, so the data
/// cannot change underneath the preparation. All fallible paths return
/// [`SelectionError`] — nothing in the session API panics on
/// misconfiguration or on a workload query it cannot tune (an unsafe or
/// Cartesian-product query is [`SelectionError::UnsupportedQuery`]).
#[derive(Debug, Clone)]
pub struct Advisor<'a> {
    db: &'a Dataset,
    options: SelectionOptions,
    prep: Preparation<'a>,
    workload: Vec<ConjunctiveQuery>,
}

impl<'a> Advisor<'a> {
    /// Starts configuring an advisor for `db`.
    pub fn builder(db: &'a Dataset) -> AdvisorBuilder<'a> {
        AdvisorBuilder {
            db,
            schema: None,
            options: SelectionOptions::recommended(),
        }
    }

    /// The reasoning mode the session was prepared for.
    pub fn reasoning(&self) -> ReasoningMode {
        self.prep.reasoning()
    }

    /// The effective selection options.
    pub fn options(&self) -> &SelectionOptions {
        &self.options
    }

    /// Changes the cost weights for subsequent recommendations. Weights
    /// only affect the cost model, never the cached statistics, so a
    /// weight sweep reuses the whole preparation.
    pub fn set_weights(&mut self, weights: CostWeights) {
        self.options.weights = weights;
    }

    /// Cumulative number of atom shapes counted against the store. Flat
    /// across calls whose workloads are already covered — the observable
    /// proof that the session skips statistics re-collection.
    pub fn stats_collections(&self) -> usize {
        self.prep.stats_collections()
    }

    /// How many times the store was saturated (at most once, at build
    /// time).
    pub fn saturation_runs(&self) -> usize {
        self.prep.saturation_runs()
    }

    /// Recommends views for `workload`, reusing the session's cached
    /// artifacts.
    pub fn recommend(
        &mut self,
        workload: &[ConjunctiveQuery],
    ) -> Result<Recommendation, SelectionError> {
        select_views_session(&mut self.prep, workload, &self.options)
    }

    /// Recommends views per sharing group of `workload` (Section 8's
    /// parallelization direction), still through the session's shared
    /// catalog. The thread budget ([`AdvisorBuilder::parallelism`]) sizes
    /// the group worker pool: groups run concurrently only when it is not
    /// 1, and the budget left over per group becomes that group's
    /// explorers.
    pub fn recommend_partitioned(
        &mut self,
        workload: &[ConjunctiveQuery],
    ) -> Result<Recommendation, SelectionError> {
        select_views_partitioned_session(&mut self.prep, workload, &self.options)
    }

    /// The session workload maintained by
    /// [`Advisor::recommend_incremental`].
    pub fn workload(&self) -> &[ConjunctiveQuery] {
        &self.workload
    }

    /// Applies one workload change and recommends for the updated session
    /// workload. The statistics of unchanged queries are already in the
    /// catalog, so only a genuinely new query costs collection work — and
    /// when the session has already searched (any earlier `recommend` /
    /// `recommend_incremental` call), the search itself **warm-starts**:
    /// the frontier is seeded from the previous best state's surviving
    /// views (plus the added query's initial view), so the ±1-delta
    /// search explores a small neighborhood of the previous optimum
    /// instead of the whole space and reports far fewer created states in
    /// its [`rdfviews_core::SearchStats`].
    ///
    /// The change only commits when the recommendation succeeds: after an
    /// `Err` the session workload is exactly what it was before, so a
    /// retry does not duplicate the added query.
    pub fn recommend_incremental(
        &mut self,
        change: WorkloadChange,
    ) -> Result<Recommendation, SelectionError> {
        let mut workload = self.workload.clone();
        match change {
            WorkloadChange::Add(q) => workload.push(q),
            WorkloadChange::Remove(idx) => {
                if idx >= workload.len() {
                    return Err(SelectionError::UnknownQuery {
                        index: idx,
                        len: workload.len(),
                    });
                }
                workload.remove(idx);
            }
        }
        let mut options = self.options.clone();
        options.warm_start = true;
        let rec = select_views_session(&mut self.prep, &workload, &options)?;
        self.workload = workload;
        Ok(rec)
    }

    /// Bundles a recommendation with its materialized views and a
    /// maintenance base copy of the store under the session's prepared
    /// reasoning — see [`Deployment::new`].
    ///
    /// In [`ReasoningMode::Saturation`] the views materialize over the
    /// session's cached saturated copy and the deployment carries the
    /// schema, keeping `insert`/`delete` entailment-aware; the
    /// reformulation modes materialize over the original store, which
    /// Theorem 4.2 makes equivalent.
    pub fn deploy(&self, rec: Recommendation) -> Deployment {
        Deployment::new(self.db.store(), rec, self.prep.prepared())
    }

    /// [`Advisor::deploy`] plus durability: the deployment is persisted
    /// into `dir` (snapshot bundle + empty write-ahead log) together with
    /// a clone of the session dictionary, and returned as a
    /// [`DurableDeployment`] whose `insert_batch`/`delete_batch` are
    /// write-ahead logged. Reopen later with
    /// [`DurableDeployment::recover`].
    pub fn deploy_durable(
        &self,
        rec: Recommendation,
        dir: &std::path::Path,
    ) -> Result<DurableDeployment, SelectionError> {
        DurableDeployment::create(dir, self.deploy(rec), self.db.dict().clone())
    }
}

/// Parses a newline-separated workload (the CLI/file format: one
/// `q(X) :- t(X, <p>, Y)` query per line) into conjunctive queries,
/// reporting failures as [`SelectionError::Parse`].
pub fn parse_workload_queries(
    text: &str,
    dict: &mut Dictionary,
) -> Result<Vec<ConjunctiveQuery>, SelectionError> {
    let parsed = parse_workload(text, dict)?;
    Ok(parsed.into_iter().map(|p| p.query).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Term;
    use rdf_query::parser::parse_query;

    fn db() -> Dataset {
        let mut db = Dataset::new();
        for i in 0..24 {
            let s = format!("s{i}");
            db.insert_terms(
                Term::uri(s.as_str()),
                Term::uri("p"),
                Term::uri(format!("o{}", i % 3)),
            );
            db.insert_terms(Term::uri(s.as_str()), Term::uri("q"), Term::uri("c"));
        }
        db
    }

    #[test]
    fn builder_rejects_missing_schema() {
        let db = db();
        let err = Advisor::builder(&db)
            .reasoning(ReasoningMode::Saturation)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SelectionError::SchemaRequired(ReasoningMode::Saturation)
        );
    }

    #[test]
    fn empty_workload_is_rejected() {
        let db = db();
        let mut advisor = Advisor::builder(&db).build().unwrap();
        assert_eq!(
            advisor.recommend(&[]).unwrap_err(),
            SelectionError::EmptyWorkload
        );
    }

    #[test]
    fn incremental_add_and_remove() {
        let mut db = db();
        let q0 = parse_query("q0(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)", db.dict_mut())
            .unwrap()
            .query;
        let q1 = parse_query("q1(X, Y) :- t(X, <p>, Y)", db.dict_mut())
            .unwrap()
            .query;
        let mut advisor = Advisor::builder(&db).build().unwrap();
        let r0 = advisor
            .recommend_incremental(WorkloadChange::Add(q0.clone()))
            .unwrap();
        assert_eq!(r0.original_query_count(), 1);
        let r01 = advisor
            .recommend_incremental(WorkloadChange::Add(q1))
            .unwrap();
        assert_eq!(r01.original_query_count(), 2);
        let after_adds = advisor.stats_collections();
        // Removing q1 shrinks the workload; its stats stay cached, so no
        // new collection happens.
        let r0_again = advisor
            .recommend_incremental(WorkloadChange::Remove(1))
            .unwrap();
        assert_eq!(r0_again.original_query_count(), 1);
        assert_eq!(advisor.stats_collections(), after_adds);
        assert_eq!(r0_again.outcome.best_cost, r0.outcome.best_cost);
        // Out-of-range removal is an error and leaves the workload alone.
        assert_eq!(
            advisor
                .recommend_incremental(WorkloadChange::Remove(5))
                .unwrap_err(),
            SelectionError::UnknownQuery { index: 5, len: 1 }
        );
        assert_eq!(advisor.workload().len(), 1);
    }

    #[test]
    fn parse_workload_queries_reports_errors() {
        let mut dict = Dictionary::new();
        let ok = parse_workload_queries("q(X) :- t(X, <p>, Y)\n", &mut dict).unwrap();
        assert_eq!(ok.len(), 1);
        let err = parse_workload_queries("not a query", &mut dict).unwrap_err();
        assert!(matches!(err, SelectionError::Parse(_)));
    }
}
