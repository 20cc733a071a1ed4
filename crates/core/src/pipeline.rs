//! End-to-end view selection, including the RDF entailment scenarios of
//! Section 4.3.
//!
//! The pipeline is split in two so that a long-lived advisor session can
//! cache the expensive per-database work and share it across searches:
//!
//! 1. [`Preparation`] — built once per database/mode pair: the saturated
//!    copy of the store (saturation mode), the store-level statistics, and
//!    an incrementally-growing [`StatsCatalog`]. Re-running a workload
//!    whose atom shapes are already recorded touches the store **zero**
//!    times.
//! 2. [`select_views_session`] — minimizes the workload, expands
//!    reformulation branches where applicable, tops up the catalog, runs
//!    the configured search and packages a [`Recommendation`].
//!
//! The one-shot entry point remains: [`try_select_views`] builds a
//! throwaway [`Preparation`] and runs once.
//!
//! Reasoning modes ([`ReasoningMode`], Section 4.3):
//!
//! * [`ReasoningMode::Plain`] — ignore entailment;
//! * [`ReasoningMode::Saturation`] — statistics from a saturated copy
//!   of the store;
//! * [`ReasoningMode::PreReformulation`] — reformulate every workload
//!   query and search over all branches (the paper's baseline, whose
//!   search space explodes with `|Qr|`);
//! * [`ReasoningMode::PostReformulation`] — the paper's contribution:
//!   per-atom reformulated statistics, search over the *original*
//!   workload, and reformulation of the recommended views afterwards
//!   (Theorem 4.2 makes materializing the reformulated views over the
//!   original store equivalent to materializing the plain views over
//!   the saturated store).

use std::sync::Arc;

use rdf_model::{Dictionary, TripleStore};
use rdf_query::{minimize, ConjunctiveQuery, UnionQuery};
use rdf_schema::{saturated_copy, Schema, VocabIds};
use rdf_stats::StatsCatalog;

use crate::cost::{CostModel, CostWeights};
use crate::error::SelectionError;
use crate::search::{search_seeded, SearchConfig, SearchOutcome};
use crate::state::{ReseedSource, State, View};

/// How implicit triples participate in view selection (Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReasoningMode {
    /// No entailment: only explicit triples count.
    #[default]
    Plain,
    /// Statistics against a saturated database.
    Saturation,
    /// Reformulate the workload before the search.
    PreReformulation,
    /// Reformulate statistics before and views after the search.
    PostReformulation,
}

impl ReasoningMode {
    /// Whether this mode needs an RDF Schema.
    pub fn needs_schema(self) -> bool {
        !matches!(self, ReasoningMode::Plain)
    }
}

/// Options for [`try_select_views`] / [`select_views_session`].
#[derive(Debug, Clone, Default)]
pub struct SelectionOptions {
    /// Cost weights (`cs`, `cr`, `cm`, `c1`, `c2`, `f`).
    pub weights: CostWeights,
    /// Auto-scale `cm` against the initial state as the paper does.
    pub calibrate_cm: bool,
    /// Search strategy and heuristics.
    pub search: SearchConfig,
    /// Entailment handling.
    pub reasoning: ReasoningMode,
    /// Treat an exhausted state/time budget as an error
    /// ([`SelectionError::BudgetExhausted`]) instead of returning the best
    /// state found so far.
    pub fail_on_exhausted_budget: bool,
    /// Seed the search frontier from the session's previous best state
    /// when the workload differs by at most one query (±1 delta). The
    /// warm-started search explores the transition closure of that seed —
    /// a local search around the previous optimum that creates far fewer
    /// states than a cold run. `Advisor::recommend_incremental` turns this
    /// on; plain `recommend` keeps the cold, exhaustive behavior.
    pub warm_start: bool,
}

impl SelectionOptions {
    /// The paper's preferred configuration: DFS-AVF-STV with calibrated
    /// `cm`.
    pub fn recommended() -> Self {
        Self {
            calibrate_cm: true,
            ..Default::default()
        }
    }
}

/// The reasoning a session was prepared for, holding what that mode
/// needs: the RDF Schema and its vocabulary ids for every mode but
/// [`ReasoningMode::Plain`], and the saturated copy of the store under
/// [`ReasoningMode::Saturation`]. [`Preparation::new`] builds it, so a
/// prepared session can never lack its schema.
#[derive(Debug, Clone)]
pub enum PreparedReasoning {
    /// No entailment.
    Plain,
    /// Statistics (and deployments) over the saturated store: schema,
    /// vocabulary, saturated copy — listed in `Spo` order
    /// ([`TripleStore::spo_listed`]), so it holds one copy of its triples.
    Saturation(Schema, VocabIds, TripleStore),
    /// The workload is reformulated before the search.
    PreReformulation(Schema, VocabIds),
    /// Statistics are reformulated before, and views after, the search.
    PostReformulation(Schema, VocabIds),
}

impl PreparedReasoning {
    /// The mode this reasoning was prepared for.
    pub fn mode(&self) -> ReasoningMode {
        match self {
            PreparedReasoning::Plain => ReasoningMode::Plain,
            PreparedReasoning::Saturation(..) => ReasoningMode::Saturation,
            PreparedReasoning::PreReformulation(..) => ReasoningMode::PreReformulation,
            PreparedReasoning::PostReformulation(..) => ReasoningMode::PostReformulation,
        }
    }
}

/// The cached per-database artifacts of a view-selection session: the
/// prepared reasoning (with the saturated copy of the store when the mode
/// needs one) and the statistics catalog, grown incrementally as
/// workloads arrive.
///
/// Building one runs the expensive store-level work exactly once;
/// [`Preparation::extend`] then only counts atom shapes the catalog has
/// not seen yet, so repeated searches over similar workloads skip the
/// store entirely. The counters ([`Preparation::stats_collections`],
/// [`Preparation::saturation_runs`]) exist so callers — and tests — can
/// verify that reuse actually happens.
///
/// A preparation borrows the store it was prepared from for its whole
/// life. The borrow rules out the two ways its cached statistics could
/// go stale: the store cannot change while the session exists, and no
/// session call can count atoms against a different store.
#[derive(Debug, Clone)]
pub struct Preparation<'s> {
    store: &'s TripleStore,
    reasoning: PreparedReasoning,
    // Shared copy-on-write with the `Recommendation`s handed out:
    // `extend` only deep-clones when a recommendation still holds the
    // previous snapshot.
    catalog: Arc<StatsCatalog>,
    stats_collections: usize,
    // The last session search's effective workload and best state — the
    // warm-start cache consumed by `SelectionOptions::warm_start` searches
    // over ±1-query workload deltas.
    warm: Option<Arc<WarmStart>>,
}

/// The warm-start cache entry: the effective (minimized) workload of the
/// session's last search and its best state.
#[derive(Debug)]
struct WarmStart {
    workload: Vec<ConjunctiveQuery>,
    best: State,
}

impl<'s> Preparation<'s> {
    /// Runs the per-database preparation for `mode`: saturates the store
    /// (saturation mode), derives the saturated statistics without
    /// saturating (post-reformulation), or records plain store-level
    /// statistics. The session keeps its own copy of `schema`.
    ///
    /// Returns [`SelectionError::SchemaRequired`] when `mode` needs a
    /// schema and none is given — the only place that check is made.
    pub fn new(
        store: &'s TripleStore,
        dict: &Dictionary,
        schema: Option<(&Schema, &VocabIds)>,
        mode: ReasoningMode,
    ) -> Result<Self, SelectionError> {
        let owned = || {
            schema
                .map(|(schema, vocab)| (schema.clone(), *vocab))
                .ok_or(SelectionError::SchemaRequired(mode))
        };
        let (reasoning, catalog) = match mode {
            ReasoningMode::Plain => (
                PreparedReasoning::Plain,
                StatsCatalog::store_level(store, dict),
            ),
            ReasoningMode::Saturation => {
                let (schema, vocab) = owned()?;
                // The session's own copy: no caller reads its order.
                let saturated = saturated_copy(store, &schema, &vocab).spo_listed();
                let cat = StatsCatalog::store_level(&saturated, dict);
                (PreparedReasoning::Saturation(schema, vocab, saturated), cat)
            }
            ReasoningMode::PreReformulation => {
                let (schema, vocab) = owned()?;
                let cat = StatsCatalog::store_level(store, dict);
                (PreparedReasoning::PreReformulation(schema, vocab), cat)
            }
            ReasoningMode::PostReformulation => {
                let (schema, vocab) = owned()?;
                let triples = rdf_stats::postreform::saturated_triples(store, &schema, &vocab);
                let cat = StatsCatalog::store_level_from_triples(triples.into_iter(), dict);
                (PreparedReasoning::PostReformulation(schema, vocab), cat)
            }
        };
        Ok(Self {
            store,
            reasoning,
            catalog: Arc::new(catalog),
            stats_collections: 0,
            warm: None,
        })
    }

    /// The reasoning mode this session was prepared for.
    pub fn reasoning(&self) -> ReasoningMode {
        self.reasoning.mode()
    }

    /// The prepared reasoning: the mode with its schema and, under
    /// saturation, the cached saturated copy of the store.
    pub fn prepared(&self) -> &PreparedReasoning {
        &self.reasoning
    }

    /// The statistics catalog accumulated so far.
    pub fn catalog(&self) -> &StatsCatalog {
        &self.catalog
    }

    /// Cumulative number of atom shapes counted against the store. Stays
    /// flat across [`Preparation::extend`] calls whose workload shapes are
    /// already recorded — the observable proof that a session skips
    /// re-collection.
    pub fn stats_collections(&self) -> usize {
        self.stats_collections
    }

    /// How many times the store was saturated: once, when a saturation
    /// session is prepared, and never per call.
    pub fn saturation_runs(&self) -> usize {
        usize::from(matches!(self.reasoning, PreparedReasoning::Saturation(..)))
    }

    /// Tops up the catalog with the counts for `queries` that it does not
    /// record yet, counted against the prepared store (or its saturated
    /// copy); returns how many atom shapes were newly counted.
    pub fn extend(&mut self, queries: &[ConjunctiveQuery]) -> usize {
        // Check coverage first: the common warm-session case must not
        // deep-clone a catalog that recommendations still share.
        if rdf_stats::stats_cover(&self.catalog, queries) {
            return 0;
        }
        let catalog = Arc::make_mut(&mut self.catalog);
        let added = match &self.reasoning {
            PreparedReasoning::Plain | PreparedReasoning::PreReformulation(..) => {
                rdf_stats::extend_stats(catalog, self.store, queries)
            }
            PreparedReasoning::Saturation(_, _, saturated) => {
                rdf_stats::extend_stats(catalog, saturated, queries)
            }
            PreparedReasoning::PostReformulation(schema, vocab) => {
                rdf_stats::extend_stats_post_reform(catalog, self.store, queries, schema, vocab)
            }
        };
        self.stats_collections += added;
        added
    }

    /// Records a finished session search as the warm-start cache entry.
    pub(crate) fn note_warm_start(&mut self, effective: &[ConjunctiveQuery], best: &State) {
        self.warm = Some(Arc::new(WarmStart {
            workload: effective.to_vec(),
            best: best.clone(),
        }));
    }

    /// Builds a warm-start seed for `effective` from the cached previous
    /// best state, if the two workloads differ by at most one query in
    /// each direction (±1 delta). Matched queries transplant their
    /// previous rewriting; an added query starts from its initial
    /// single-scan view; views no surviving rewriting uses are dropped.
    /// Returns `None` (cold start) when no cache entry exists or the delta
    /// is larger.
    pub(crate) fn warm_seed(&self, effective: &[ConjunctiveQuery]) -> Option<State> {
        let warm = self.warm.as_deref()?;
        let mut used = vec![false; warm.workload.len()];
        let mut sources: Vec<ReseedSource> = Vec::with_capacity(effective.len());
        let mut fresh = 0usize;
        for q in effective {
            let mut source = ReseedSource::Fresh;
            for (j, old) in warm.workload.iter().enumerate() {
                if !used[j] && old == q {
                    used[j] = true;
                    source = ReseedSource::Carry(j);
                    break;
                }
            }
            if source == ReseedSource::Fresh {
                fresh += 1;
            }
            sources.push(source);
        }
        let removed = used.iter().filter(|u| !**u).count();
        if fresh > 1 || removed > 1 {
            return None;
        }
        Some(State::reseed(&warm.best, &sources, effective))
    }
}

/// The output of view selection.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The effective workload the search ran on (minimized; reformulation
    /// branches expanded in pre-reformulation mode).
    pub workload: Vec<ConjunctiveQuery>,
    /// For each effective workload entry, the index of the original query
    /// it answers (identity except in pre-reformulation).
    pub branch_of: Vec<usize>,
    /// The search result; `outcome.best_state` holds views + rewritings.
    pub outcome: SearchOutcome,
    /// The recommended views (from the best state), in id order.
    pub views: Vec<View>,
    /// What to actually materialize for each recommended view: the view
    /// itself, or its reformulation in post-reformulation mode.
    pub materialization: Vec<UnionQuery>,
    /// The statistics catalog used (exposed for inspection/tests; shared
    /// copy-on-write with the advisor session that produced it).
    pub catalog: Arc<StatsCatalog>,
}

impl Recommendation {
    /// Relative cost reduction achieved by the search.
    pub fn rcr(&self) -> f64 {
        self.outcome.rcr()
    }

    /// Number of original workload queries this recommendation answers.
    pub fn original_query_count(&self) -> usize {
        self.branch_of.iter().copied().max().map_or(0, |m| m + 1)
    }
}

/// Minimizes the `(original index, query)` pairs of a workload and expands
/// reformulation branches where the prepared reasoning calls for it.
/// Returns the effective workload plus the original query index of each
/// effective entry.
///
/// Every effective query must be safe and connected (Definition 2.1): a
/// query whose minimized form, or one of whose reformulation branches, is
/// not returns [`SelectionError::UnsupportedQuery`], naming its original
/// index, before any search starts.
pub(crate) fn effective_workload<'q>(
    reasoning: &PreparedReasoning,
    workload: impl IntoIterator<Item = (usize, &'q ConjunctiveQuery)>,
) -> Result<(Vec<ConjunctiveQuery>, Vec<usize>), SelectionError> {
    let mut effective = Vec::new();
    let mut branch_of = Vec::new();
    for (qi, q) in workload {
        // Definition 2.1: queries are assumed minimal.
        let minimized = minimize(q).normalized();
        if let PreparedReasoning::PreReformulation(schema, vocab) = reasoning {
            for branch in rdf_reform::reformulate(&minimized, schema, vocab) {
                let branch = branch.normalized();
                check_supported(&branch, "a reformulation of workload query", qi)?;
                effective.push(branch);
                branch_of.push(qi);
            }
        } else {
            check_supported(&minimized, "workload query", qi)?;
            effective.push(minimized);
            branch_of.push(qi);
        }
    }
    Ok((effective, branch_of))
}

/// Rejects a query the search cannot start from: an unsafe head, or a
/// body whose join graph is not connected (a Cartesian product). The
/// reason names the query as `{what} {qi}`.
fn check_supported(q: &ConjunctiveQuery, what: &str, qi: usize) -> Result<(), SelectionError> {
    let reason = if !q.is_safe() {
        "has a head variable its body does not bind"
    } else if !rdf_query::graph::JoinGraph::new(&q.atoms).is_connected() {
        "contains a Cartesian product; split it into connected queries"
    } else {
        return Ok(());
    };
    Err(SelectionError::UnsupportedQuery {
        reason: format!("{what} {qi} {reason}"),
    })
}

/// Runs the search over an already-prepared session and packages the
/// result. Read-only on the [`Preparation`], so partitioned selection can
/// run group searches in parallel against one shared session.
pub(crate) fn search_session(
    prep: &Preparation<'_>,
    effective: Vec<ConjunctiveQuery>,
    branch_of: Vec<usize>,
    options: &SelectionOptions,
) -> Result<Recommendation, SelectionError> {
    let s0 = State::initial(&effective);
    let mut model = CostModel::new(prep.catalog(), options.weights);
    if options.calibrate_cm {
        model.calibrate_cm(&s0);
    }
    let warm = if options.warm_start {
        prep.warm_seed(&effective)
    } else {
        None
    };
    let outcome = search_seeded(s0, warm, &model, &options.search);
    if options.fail_on_exhausted_budget && (outcome.stats.out_of_budget || outcome.stats.timed_out)
    {
        return Err(SelectionError::BudgetExhausted {
            created: outcome.stats.created,
        });
    }

    let views: Vec<View> = outcome.best_state.views().cloned().collect();
    let materialization: Vec<UnionQuery> = match &prep.reasoning {
        PreparedReasoning::PostReformulation(schema, vocab) => views
            .iter()
            .map(|v| rdf_reform::reformulate(&v.as_query(), schema, vocab))
            .collect(),
        _ => views
            .iter()
            .map(|v| UnionQuery::singleton(v.as_query()))
            .collect(),
    };

    Ok(Recommendation {
        workload: effective,
        branch_of,
        outcome,
        views,
        materialization,
        catalog: Arc::clone(&prep.catalog),
    })
}

/// Checks that a session call may run: a non-empty workload and the mode
/// the session was prepared for.
pub(crate) fn check_session(
    prep: &Preparation<'_>,
    workload: &[ConjunctiveQuery],
    options: &SelectionOptions,
) -> Result<(), SelectionError> {
    if workload.is_empty() {
        return Err(SelectionError::EmptyWorkload);
    }
    if options.reasoning != prep.reasoning() {
        return Err(SelectionError::ModeMismatch {
            prepared: prep.reasoning(),
            requested: options.reasoning,
        });
    }
    Ok(())
}

/// Runs view selection through a prepared session, reusing its cached
/// saturated store and statistics catalog.
pub fn select_views_session(
    prep: &mut Preparation<'_>,
    workload: &[ConjunctiveQuery],
    options: &SelectionOptions,
) -> Result<Recommendation, SelectionError> {
    check_session(prep, workload, options)?;
    let (effective, branch_of) = effective_workload(&prep.reasoning, workload.iter().enumerate())?;
    prep.extend(&effective);
    let rec = search_session(prep, effective, branch_of, options)?;
    // Prime the warm-start cache: the next ±1-delta workload can seed its
    // frontier from this best state instead of searching cold.
    prep.note_warm_start(&rec.workload, &rec.outcome.best_state);
    Ok(rec)
}

/// Runs view selection over a store and workload, returning every failure
/// as a [`SelectionError`].
///
/// `schema` is required for every mode except [`ReasoningMode::Plain`].
/// For repeated selections over the same database, build a
/// [`Preparation`] once (or use the facade crate's `Advisor`) and call
/// [`select_views_session`] instead — this entry point redoes the
/// per-database preparation on every call.
pub fn try_select_views(
    store: &TripleStore,
    dict: &Dictionary,
    schema: Option<(&Schema, &VocabIds)>,
    workload: &[ConjunctiveQuery],
    options: &SelectionOptions,
) -> Result<Recommendation, SelectionError> {
    let mut prep = Preparation::new(store, dict, schema, options.reasoning)?;
    select_views_session(&mut prep, workload, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Dataset;
    use rdf_query::parser::parse_query;
    use rdf_schema::SchemaStatement;

    fn museum_db() -> (Dataset, Schema, VocabIds) {
        let mut db = Dataset::new();
        let vocab = VocabIds::intern(db.dict_mut());
        let painting = db.dict_mut().intern_uri("painting");
        let picture = db.dict_mut().intern_uri("picture");
        let is_exp_in = db.dict_mut().intern_uri("isExpIn");
        let is_locat_in = db.dict_mut().intern_uri("isLocatIn");
        let mut schema = Schema::new();
        schema.add(SchemaStatement::SubClassOf(painting, picture));
        schema.add(SchemaStatement::SubPropertyOf(is_exp_in, is_locat_in));
        for i in 0..12 {
            let x = db.dict_mut().intern_uri(&format!("item{i}"));
            let class = if i % 2 == 0 { painting } else { picture };
            db.store_mut().insert([x, vocab.rdf_type, class]);
            let museum = db.dict_mut().intern_uri(&format!("museum{}", i % 4));
            let prop = if i % 3 == 0 { is_exp_in } else { is_locat_in };
            db.store_mut().insert([x, prop, museum]);
        }
        (db, schema, vocab)
    }

    fn workload(db: &mut Dataset) -> Vec<ConjunctiveQuery> {
        vec![
            parse_query(
                "q(X1, X2) :- t(X1, rdf:type, picture), t(X1, isLocatIn, X2)",
                db.dict_mut(),
            )
            .unwrap()
            .query,
        ]
    }

    #[test]
    fn plain_selection_runs() {
        let (mut db, _schema, _vocab) = museum_db();
        let queries = workload(&mut db);
        let rec = try_select_views(
            db.store(),
            db.dict(),
            None,
            &queries,
            &SelectionOptions::recommended(),
        )
        .unwrap();
        assert!(!rec.views.is_empty());
        assert_eq!(rec.branch_of, vec![0]);
        assert!(rec.rcr() >= 0.0);
        assert_eq!(rec.views.len(), rec.materialization.len());
    }

    #[test]
    fn post_reformulation_reformulates_views() {
        let (mut db, schema, vocab) = museum_db();
        let queries = workload(&mut db);
        let rec = try_select_views(
            db.store(),
            db.dict(),
            Some((&schema, &vocab)),
            &queries,
            &SelectionOptions {
                reasoning: ReasoningMode::PostReformulation,
                calibrate_cm: true,
                ..Default::default()
            },
        )
        .unwrap();
        // At least one materialization union must have multiple branches
        // (the workload touches both the class and the property hierarchy).
        assert!(rec.materialization.iter().any(|u| u.len() > 1));
    }

    #[test]
    fn pre_reformulation_expands_workload() {
        let (mut db, schema, vocab) = museum_db();
        let queries = workload(&mut db);
        let rec = try_select_views(
            db.store(),
            db.dict(),
            Some((&schema, &vocab)),
            &queries,
            &SelectionOptions {
                reasoning: ReasoningMode::PreReformulation,
                calibrate_cm: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(rec.workload.len() > 1, "reformulation adds branches");
        assert!(rec.branch_of.iter().all(|&b| b == 0));
        // Every branch keeps a rewriting in the best state.
        assert_eq!(
            rec.outcome.best_state.rewritings().len(),
            rec.workload.len()
        );
    }

    #[test]
    fn saturation_and_post_reformulation_agree_on_best_cost() {
        // Section 4.3: "we perform the search using the same initial state
        // and statistics, and get the same best state as in the database
        // saturation approach".
        let (mut db, schema, vocab) = museum_db();
        let queries = workload(&mut db);
        let mk = |mode| SelectionOptions {
            reasoning: mode,
            calibrate_cm: false,
            ..Default::default()
        };
        let sat = try_select_views(
            db.store(),
            db.dict(),
            Some((&schema, &vocab)),
            &queries,
            &mk(ReasoningMode::Saturation),
        )
        .unwrap();
        let post = try_select_views(
            db.store(),
            db.dict(),
            Some((&schema, &vocab)),
            &queries,
            &mk(ReasoningMode::PostReformulation),
        )
        .unwrap();
        let rel = (sat.outcome.best_cost - post.outcome.best_cost).abs()
            / sat.outcome.best_cost.max(1e-9);
        assert!(
            rel < 1e-6,
            "sat {} vs post {}",
            sat.outcome.best_cost,
            post.outcome.best_cost
        );
        assert_eq!(
            sat.outcome.best_state.signature(),
            post.outcome.best_state.signature()
        );
    }

    #[test]
    fn missing_schema_is_an_error_not_a_panic() {
        let (mut db, _schema, _vocab) = museum_db();
        let queries = workload(&mut db);
        for mode in [
            ReasoningMode::Saturation,
            ReasoningMode::PreReformulation,
            ReasoningMode::PostReformulation,
        ] {
            let err = try_select_views(
                db.store(),
                db.dict(),
                None,
                &queries,
                &SelectionOptions {
                    reasoning: mode,
                    ..Default::default()
                },
            )
            .unwrap_err();
            assert_eq!(err, SelectionError::SchemaRequired(mode));
        }
    }

    #[test]
    fn empty_workload_is_an_error() {
        let (db, _schema, _vocab) = museum_db();
        let err = try_select_views(
            db.store(),
            db.dict(),
            None,
            &[],
            &SelectionOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, SelectionError::EmptyWorkload);
    }

    #[test]
    fn session_reuse_skips_stats_recollection() {
        let (mut db, schema, vocab) = museum_db();
        let queries = workload(&mut db);
        let options = SelectionOptions {
            reasoning: ReasoningMode::Saturation,
            calibrate_cm: true,
            ..Default::default()
        };
        let mut prep = Preparation::new(
            db.store(),
            db.dict(),
            Some((&schema, &vocab)),
            ReasoningMode::Saturation,
        )
        .unwrap();
        assert_eq!(prep.saturation_runs(), 1);
        let first = select_views_session(&mut prep, &queries, &options).unwrap();
        let collected = prep.stats_collections();
        assert!(collected > 0, "first run must count atoms");
        let second = select_views_session(&mut prep, &queries, &options).unwrap();
        assert_eq!(
            prep.stats_collections(),
            collected,
            "second run over the same workload must not touch the store"
        );
        assert_eq!(prep.saturation_runs(), 1, "never re-saturates");
        assert_eq!(first.outcome.best_cost, second.outcome.best_cost);
        assert_eq!(
            first.outcome.best_state.signature(),
            second.outcome.best_state.signature()
        );
    }

    #[test]
    fn extend_counts_against_the_prepared_store() {
        // A new atom shape is counted once, against the store the session
        // borrows: its explicit triples under plain and pre-reformulation,
        // its saturated ones under saturation and post-reformulation.
        let (mut db, schema, vocab) = museum_db();
        let pictures = workload(&mut db)[0].clone();
        let picture = db.dict().lookup_uri("picture").unwrap();
        let count = |store: &TripleStore| {
            let typed = |t: &&[rdf_model::Id; 3]| t[1] == vocab.rdf_type && t[2] == picture;
            store.triples().iter().filter(typed).count() as u64
        };
        let explicit = count(db.store());
        let implicit = count(&saturated_copy(db.store(), &schema, &vocab));
        assert!(explicit < implicit);
        for (mode, want) in [
            (ReasoningMode::Plain, explicit),
            (ReasoningMode::Saturation, implicit),
            (ReasoningMode::PreReformulation, explicit),
            (ReasoningMode::PostReformulation, implicit),
        ] {
            let mut prep =
                Preparation::new(db.store(), db.dict(), Some((&schema, &vocab)), mode).unwrap();
            let added = prep.extend(std::slice::from_ref(&pictures));
            assert!(added > 0, "{mode:?}");
            let typed_pictures = &pictures.atoms[0];
            assert_eq!(
                prep.catalog().atom_count(typed_pictures),
                Some(want),
                "{mode:?}"
            );
            assert_eq!(prep.extend(std::slice::from_ref(&pictures)), 0, "{mode:?}");
            assert_eq!(prep.stats_collections(), added, "{mode:?}");
        }
    }

    #[test]
    fn session_mode_mismatch_is_rejected() {
        let (mut db, _schema, _vocab) = museum_db();
        let queries = workload(&mut db);
        let mut prep = Preparation::new(db.store(), db.dict(), None, ReasoningMode::Plain).unwrap();
        let err = select_views_session(
            &mut prep,
            &queries,
            &SelectionOptions {
                reasoning: ReasoningMode::Saturation,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SelectionError::ModeMismatch { .. }));
    }

    #[test]
    fn strict_budget_surfaces_exhaustion() {
        let (mut db, _schema, _vocab) = museum_db();
        let queries = workload(&mut db);
        let err = try_select_views(
            db.store(),
            db.dict(),
            None,
            &queries,
            &SelectionOptions {
                fail_on_exhausted_budget: true,
                search: SearchConfig {
                    max_states: Some(1),
                    ..SearchConfig::default()
                },
                ..Default::default()
            },
        );
        match err {
            Err(SelectionError::BudgetExhausted { created }) => assert!(created >= 1),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }
}
