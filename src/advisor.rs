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
//! let deployment = advisor.deploy(rec).unwrap();
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

/// The advisor's dataset: borrowed for the classic read-only session, or
/// owned for the **writable-store mode** where the session itself holds
/// the data and hands out mutable access ([`Advisor::dataset_mut`]).
#[derive(Debug, Clone)]
enum AdvisorData<'a> {
    Borrowed(&'a Dataset),
    Owned(Box<Dataset>),
}

impl AdvisorData<'_> {
    fn get(&self) -> &Dataset {
        match self {
            AdvisorData::Borrowed(db) => db,
            AdvisorData::Owned(db) => db,
        }
    }
}

/// Configures and validates an [`Advisor`]. Created by
/// [`Advisor::builder`] (borrowed dataset) or [`Advisor::builder_owned`]
/// (writable-store mode); every setter is chainable and [`build`]
/// (`AdvisorBuilder::build`) performs the one-time per-database
/// preparation.
///
/// [`build`]: AdvisorBuilder::build
#[derive(Debug, Clone)]
pub struct AdvisorBuilder<'a> {
    db: AdvisorData<'a>,
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

    /// Sets the cost weights (`cs`, `cr`, `cm`, `c1`, `c2`, `f`).
    pub fn weights(mut self, weights: CostWeights) -> Self {
        self.options.weights = weights;
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

    /// Sets the number of explorer threads expanding one search's state
    /// space concurrently (default: 1, the sequential loop; 0 means one
    /// per available core). Parallel searches visit states in a different
    /// order but complete to the same reachable set, so a non-truncated
    /// run reports the same best cost at any setting. Under
    /// [`Advisor::recommend_partitioned`] the same budget also bounds the
    /// group scheduler's worker pool, split between concurrent groups and
    /// per-group explorers.
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
            self.db.get().store(),
            self.db.get().dict(),
            self.schema,
            self.options.reasoning,
        )?;
        Ok(Advisor {
            db: self.db,
            schema: self.schema,
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
/// Building the advisor prepares the per-database artifacts once; every
/// recommendation after that reuses the cached saturated store and
/// statistics catalog instead of recomputing them per invocation (the
/// counters [`Advisor::stats_collections`] / [`Advisor::saturation_runs`]
/// make the reuse observable). All fallible paths return
/// [`SelectionError`] — nothing in the session API panics on
/// misconfiguration.
#[derive(Debug, Clone)]
pub struct Advisor<'a> {
    db: AdvisorData<'a>,
    schema: Option<(&'a Schema, &'a VocabIds)>,
    options: SelectionOptions,
    prep: Preparation,
    workload: Vec<ConjunctiveQuery>,
}

impl<'a> Advisor<'a> {
    /// Starts configuring an advisor for a borrowed `db` (the classic
    /// read-only session — the borrow itself guarantees the data cannot
    /// change underneath the preparation).
    pub fn builder(db: &'a Dataset) -> AdvisorBuilder<'a> {
        AdvisorBuilder {
            db: AdvisorData::Borrowed(db),
            schema: None,
            options: SelectionOptions::recommended(),
        }
    }

    /// Starts configuring an advisor that **owns** its dataset — the
    /// writable-store mode. The session hands out mutable access through
    /// [`Advisor::dataset_mut`]; once the store's version stamp moves past
    /// the prepared one, every recommendation entry point returns
    /// [`SelectionError::StaleSession`] (instead of silently computing on
    /// stale statistics) until [`Advisor::refresh`] re-prepares.
    pub fn builder_owned(db: Dataset) -> AdvisorBuilder<'a> {
        AdvisorBuilder {
            db: AdvisorData::Owned(Box::new(db)),
            schema: None,
            options: SelectionOptions::recommended(),
        }
    }

    /// The database this session advises.
    pub fn dataset(&self) -> &Dataset {
        self.db.get()
    }

    /// Mutable access to the session's dataset — the writable-store mode
    /// entry point, available only for advisors built with
    /// [`Advisor::builder_owned`] (`None` for borrowed sessions). Mutating
    /// the store makes the session stale: subsequent `recommend*` /
    /// `deploy` calls fail with [`SelectionError::StaleSession`] until
    /// [`Advisor::refresh`] runs.
    pub fn dataset_mut(&mut self) -> Option<&mut Dataset> {
        match &mut self.db {
            AdvisorData::Borrowed(_) => None,
            AdvisorData::Owned(db) => Some(db),
        }
    }

    /// Whether the store has changed since the session's preparation (the
    /// condition under which `recommend*` / `deploy` refuse to run).
    pub fn is_stale(&self) -> bool {
        self.prep.ensure_fresh(self.db.get().store()).is_err()
    }

    /// Re-runs the per-database preparation against the store's current
    /// contents — the recovery path from [`SelectionError::StaleSession`]
    /// after writable-store mutations. Saturation (or saturated
    /// statistics) is redone once; the warm-start cache is dropped, since
    /// its best state was optimized for data that changed.
    pub fn refresh(&mut self) -> Result<(), SelectionError> {
        let db = self.db.get();
        self.prep.refresh(db.store(), db.dict(), self.schema)
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

    /// Changes the `cm` auto-calibration for subsequent recommendations.
    pub fn set_calibrate_cm(&mut self, on: bool) {
        self.options.calibrate_cm = on;
    }

    /// Changes the search strategy for subsequent recommendations.
    pub fn set_strategy(&mut self, strategy: StrategyKind) {
        self.options.search.strategy = strategy;
    }

    /// Changes the explorer-thread count for subsequent recommendations
    /// (see [`AdvisorBuilder::parallelism`]).
    pub fn set_parallelism(&mut self, threads: usize) {
        self.options.search.parallelism = threads;
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
        select_views_session(
            &mut self.prep,
            self.db.get().store(),
            self.schema,
            workload,
            &self.options,
        )
    }

    /// Recommends views per sharing group of `workload` (Section 8's
    /// parallelization direction), optionally on threads, still through
    /// the session's shared catalog.
    pub fn recommend_partitioned(
        &mut self,
        workload: &[ConjunctiveQuery],
        parallel: bool,
    ) -> Result<Recommendation, SelectionError> {
        select_views_partitioned_session(
            &mut self.prep,
            self.db.get().store(),
            self.schema,
            workload,
            &self.options,
            parallel,
        )
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
        let rec = select_views_session(
            &mut self.prep,
            self.db.get().store(),
            self.schema,
            &workload,
            &options,
        )?;
        self.workload = workload;
        Ok(rec)
    }

    /// Bundles a recommendation with its materialized views and a
    /// maintenance base copy of the store — see [`Deployment`].
    ///
    /// In [`ReasoningMode::Saturation`] the views materialize over the
    /// session's cached saturated copy and the deployment carries the
    /// schema, keeping `insert`/`delete` entailment-aware; the
    /// reformulation modes materialize over the original store, which
    /// Theorem 4.2 makes equivalent.
    ///
    /// Fails with [`SelectionError::StaleSession`] when the store changed
    /// since preparation (writable-store mode) — a deployment built then
    /// would mix current data with a stale saturated copy and a
    /// recommendation tuned for data that no longer exists; call
    /// [`Advisor::refresh`] and re-recommend instead.
    pub fn deploy(&self, rec: Recommendation) -> Result<Deployment, SelectionError> {
        let db = self.db.get();
        self.prep.ensure_fresh(db.store())?;
        Ok(match (self.prep.saturated_store(), self.schema) {
            (Some(saturated), Some((schema, vocab))) => {
                Deployment::with_entailment(db.store(), saturated, rec, schema.clone(), *vocab)
            }
            (None, Some((schema, vocab))) if self.prep.reasoning().needs_schema() => {
                // Pre/post-reformulation: the base store is the original
                // (unsaturated) one, so ad-hoc hybrid plans must
                // reformulate before scanning it (Theorem 4.1).
                Deployment::new(db.store(), rec).with_query_reformulation(schema.clone(), *vocab)
            }
            _ => Deployment::new(db.store(), rec),
        })
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
        let dep = self.deploy(rec)?;
        DurableDeployment::create(dir, dep, self.db.get().dict().clone())
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
    fn borrowed_sessions_have_no_writable_store() {
        let db = db();
        let mut advisor = Advisor::builder(&db).build().unwrap();
        assert!(advisor.dataset_mut().is_none());
        assert!(!advisor.is_stale());
    }

    #[test]
    fn writable_store_stales_every_entry_point_until_refresh() {
        let mut db = db();
        let q = parse_query("q(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)", db.dict_mut())
            .unwrap()
            .query;
        let mut advisor = Advisor::builder_owned(db).build().unwrap();
        let rec = advisor.recommend(std::slice::from_ref(&q)).unwrap();
        assert!(!advisor.is_stale());

        // Writable-store mode: mutate the owned dataset.
        let writable = advisor.dataset_mut().expect("owned session is writable");
        let s = writable.dict_mut().intern_uri("late");
        let p = writable.dict().lookup_uri("p").unwrap();
        let o1 = writable.dict().lookup_uri("o1").unwrap();
        writable.store_mut().insert([s, p, o1]);
        assert!(advisor.is_stale());

        let stale = |e: &SelectionError| matches!(e, SelectionError::StaleSession { .. });
        assert!(stale(
            &advisor.recommend(std::slice::from_ref(&q)).unwrap_err()
        ));
        assert!(stale(
            &advisor
                .recommend_partitioned(std::slice::from_ref(&q), false)
                .unwrap_err()
        ));
        assert!(stale(
            &advisor
                .recommend_incremental(WorkloadChange::Add(q.clone()))
                .unwrap_err()
        ));
        assert!(
            advisor.workload().is_empty(),
            "failed incremental change must roll back"
        );
        assert!(stale(&advisor.deploy(rec).unwrap_err()));

        // refresh() re-prepares against the mutated store; everything
        // works again and sees the new triple.
        advisor.refresh().unwrap();
        assert!(!advisor.is_stale());
        let rec = advisor.recommend(std::slice::from_ref(&q)).unwrap();
        let deployment = advisor.deploy(rec).unwrap();
        let direct = rdf_engine::evaluate(
            advisor.dataset().store(),
            &deployment.recommendation().workload[0],
        );
        assert_eq!(deployment.snapshot().answer(0).unwrap(), direct);
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
