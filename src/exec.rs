//! Executing a recommendation: materialize the chosen views and answer the
//! workload from them alone — the paper's deployment story ("if the views
//! are stored at the client, no connection is needed and the application
//! can run off-line", Section 1).
//!
//! Two handles split the work. [`Deployment`] is the writer: a
//! self-contained bundle of a [`Recommendation`], its materialized views
//! and a maintenance base copy of the store, which keeps the views
//! consistent under triple insertions and deletions
//! ([`Deployment::insert_batch`] / [`Deployment::delete_batch`]) via the
//! incremental deltas of `rdf_engine::maintain`. [`DeploymentSnapshot`]
//! is the reader: every plan and every answer comes from a pinned,
//! immutable generation ([`Deployment::snapshot`] /
//! [`Deployment::reader`]), so reads never wait on or observe a batch in
//! flight. The free functions below materialize and answer search states
//! directly, without a deployment.

use std::sync::{Arc, OnceLock, RwLock};

use rdf_engine::{
    evaluate_mixed, materialize_union, Answers, DeleteDelta, DeltaSet, EvalStats, MaintainedView,
    MaintenanceStats, MixedAtom, ViewAtom, ViewTable,
};
use rdf_model::sync::{read_unpoisoned, write_unpoisoned};
use rdf_model::{Dictionary, FxHashMap, StoreSnapshot, Triple, TripleStore};
use rdf_query::minimize;
use rdf_query::ConjunctiveQuery;
use rdf_reform::{reformulate_with_limit, ReformLimit};
use rdf_schema::{entailed_delta, retracted_delta, Schema, VocabIds};
use rdf_stats::{estimate_conjunction, CardinalityEstimator, RelAtom, RelStats};
use rdfviews_core::rewrite::{self, PlanAtom, RewritePlan};
use rdfviews_core::{PreparedReasoning, Recommendation, SelectionError, State, ViewId};

#[path = "exec_persist.rs"]
mod persist;
pub use persist::{DurableDeployment, RecoveryReport, SNAPSHOT_FILE, WAL_FILE};

/// The materialized views of a recommendation (or state), keyed by view id.
///
/// Tables are held behind `Arc`s so a deployment generation can be
/// published by cloning the map (one `Arc` bump per view): unchanged
/// tables — and their resident hash / sorted index caches — are shared
/// across generations, and only tables replaced by maintenance get fresh
/// `Arc`s.
#[derive(Debug, Clone, Default)]
pub struct MaterializedViews {
    tables: FxHashMap<ViewId, Arc<ViewTable>>,
}

impl MaterializedViews {
    /// The table of one view.
    pub fn table(&self, id: ViewId) -> &ViewTable {
        &self.tables[&id]
    }

    /// Number of materialized views.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether no views are materialized.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total number of cells (rows × columns) across all views — the
    /// measured counterpart of the VSO estimate.
    pub fn total_cells(&self) -> usize {
        self.tables.values().map(|t| t.cell_count()).sum()
    }

    /// Total number of rows across all views.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    /// Total hash-index builds across all view tables. Each table builds
    /// one index per probed bound-column mask and keeps it for its
    /// lifetime, so a served workload (repeated `answer_query` over the
    /// same plans) holds this steady after warm-up — the deployment-level
    /// view of [`ViewTable::index_builds`].
    pub fn index_builds(&self) -> usize {
        self.tables.values().map(|t| t.index_builds()).sum()
    }
}

/// Materializes every view of a state directly (no reformulation).
pub fn materialize_state(store: &TripleStore, state: &State) -> MaterializedViews {
    let mut tables = FxHashMap::default();
    for v in state.views() {
        tables.insert(
            v.id,
            Arc::new(rdf_engine::materialize(store, &v.as_query())),
        );
    }
    MaterializedViews { tables }
}

/// Materializes a recommendation using its *materialization definitions* —
/// plain views, or reformulated unions in post-reformulation mode
/// (Theorem 4.2 guarantees the reformulated views on the original store
/// equal the plain views on the saturated store).
pub fn materialize_recommendation(store: &TripleStore, rec: &Recommendation) -> MaterializedViews {
    let mut tables = FxHashMap::default();
    for (view, def) in rec.views.iter().zip(rec.materialization.iter()) {
        tables.insert(view.id, Arc::new(materialize_union(store, def)));
    }
    MaterializedViews { tables }
}

/// Answers one (effective) workload query from the views alone, by
/// executing its rewriting.
pub fn answer_query(state: &State, mv: &MaterializedViews, query_idx: usize) -> Answers {
    let r = &state.rewritings()[query_idx];
    let atoms: Vec<MixedAtom<'_>> = r
        .atoms
        .iter()
        .map(|a| {
            MixedAtom::View(ViewAtom {
                table: mv.table(a.view),
                args: &a.args,
            })
        })
        .collect();
    // A rewriting over views alone reads nothing of the store.
    evaluate_mixed(&TripleStore::new(), &atoms, &r.head).0
}

/// How [`DeploymentSnapshot::plan_with`] treats query atoms the deployed
/// views cannot cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnswerPolicy {
    /// Fail with [`SelectionError::NoViewsOnlyPlan`] unless the whole
    /// query is answerable from the views alone — never a base-store scan
    /// (the paper's offline-client setting, where no base store exists).
    ViewsOnly,
    /// Cover what the views can; scan the base store for the rest (the
    /// default).
    #[default]
    Hybrid,
    /// Use the views only when they cover the whole query; otherwise
    /// evaluate the whole query on the base store.
    BaseFallback,
}

/// One executable branch of a [`QueryPlan`]: for plain and saturation
/// deployments the single plan; for reformulation-mode deployments with
/// residual base atoms, one plan per reformulation branch (base-store
/// scans are entailment-complete only through reformulation — view scans
/// need none, their tables already hold the saturated extensions).
#[derive(Debug, Clone)]
pub struct PlannedBranch {
    /// The branch query (the minimized input itself when no reformulation
    /// applies).
    pub query: ConjunctiveQuery,
    /// The plan: view scans and base-store scans.
    pub plan: RewritePlan,
    /// Estimated evaluation cost from the recommendation's statistics
    /// catalog: scanned cardinality plus estimated join output.
    pub estimated_cost: f64,
}

/// An inspectable, executable plan for one ad-hoc conjunctive query over a
/// [`Deployment`] — which views cover which atoms, which atoms fall back
/// to base-store scans, and what evaluation is estimated to cost.
///
/// Produced by [`DeploymentSnapshot::plan`] /
/// [`DeploymentSnapshot::plan_with`] /
/// [`DeploymentSnapshot::plan_workload`], executed by
/// [`DeploymentSnapshot::answer_query`]. Plan *structure* is
/// generation-independent (stored rewritings plus the recommendation's
/// static statistics catalog), so a plan made on one snapshot executes on
/// any other snapshot of the **same** deployment. A plan from a different
/// deployment lineage is refused ([`SelectionError::ForeignPlan`]).
#[derive(Debug, Clone)]
pub struct QueryPlan {
    query: ConjunctiveQuery,
    branches: Vec<PlannedBranch>,
    policy: AnswerPolicy,
    /// The deployment lineage that produced the plan — plans bind view
    /// ids of their own deployment and are refused elsewhere
    /// ([`SelectionError::ForeignPlan`]).
    deployment: u64,
}

impl QueryPlan {
    /// The minimized query this plan answers.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The executable branches.
    pub fn branches(&self) -> &[PlannedBranch] {
        &self.branches
    }

    /// The policy the plan was made under.
    pub fn policy(&self) -> AnswerPolicy {
        self.policy
    }

    /// Whether every branch answers from the views alone.
    pub fn is_views_only(&self) -> bool {
        self.branches.iter().all(|b| b.plan.is_views_only())
    }

    /// Total base-store atoms across branches (0 for a views-only plan).
    pub fn residual_atoms(&self) -> usize {
        self.branches.iter().map(|b| b.plan.residual_atoms()).sum()
    }

    /// The distinct views scanned, in id order.
    pub fn views_used(&self) -> Vec<ViewId> {
        let mut ids: Vec<ViewId> = self
            .branches
            .iter()
            .flat_map(|b| b.plan.views_used())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Total estimated evaluation cost across branches.
    pub fn estimated_cost(&self) -> f64 {
        self.branches.iter().map(|b| b.estimated_cost).sum()
    }

    /// A human-readable rendering of the plan, one line per branch.
    pub fn describe(&self, dict: &Dictionary) -> String {
        use rdf_query::display::{atom_to_string, term_to_string};
        let mut out = String::new();
        for (bi, b) in self.branches.iter().enumerate() {
            let atoms: Vec<String> = b
                .plan
                .atoms
                .iter()
                .map(|pa| match pa {
                    PlanAtom::View(ra) => {
                        let args: Vec<String> =
                            ra.args.iter().map(|t| term_to_string(t, dict)).collect();
                        format!("{}({})", ra.view, args.join(", "))
                    }
                    PlanAtom::Base(a) => format!("base {}", atom_to_string(a, dict)),
                })
                .collect();
            out.push_str(&format!(
                "branch {bi} [{}] cost≈{:.3e}: {}\n",
                if b.plan.is_views_only() {
                    "views-only".to_string()
                } else {
                    format!("hybrid, {} base atom(s)", b.plan.residual_atoms())
                },
                b.estimated_cost,
                atoms.join(" ⋈ ")
            ));
        }
        out
    }
}

/// One materialized view kept incrementally consistent: a maintained
/// instance per materialization branch (one for plain views, several for
/// reformulated unions). A one-branch view's table *is* its branch's:
/// generations publish the branch's `Arc`, so the rows are held once and a
/// publish copies none of them.
#[derive(Debug, Clone)]
struct DeployedView {
    id: ViewId,
    arity: usize,
    branches: Vec<MaintainedView>,
}

impl DeployedView {
    /// The table a generation publishes: the branch's own for one branch;
    /// for several, their union — concatenated, sorted and deduplicated
    /// once.
    fn table(&self) -> Arc<ViewTable> {
        match &self.branches[..] {
            [branch] => Arc::clone(branch.table()),
            branches => {
                let runs = branches.iter().map(|b| b.answers().clone());
                Arc::new(ViewTable::from_answers(Answers::union_all(
                    self.arity, runs,
                )))
            }
        }
    }
}

/// A deployed recommendation — the writer handle: the views materialized,
/// a maintenance base copy of the store, and the machinery to keep the
/// views consistent while absorbing updates.
///
/// This is the paper's three-tier / offline client bundle: once built, it
/// no longer needs the advisor or the original database. Triple ids keep
/// referring to the dictionary the recommendation was built with.
///
/// Updates flow through [`Deployment::insert_batch`] /
/// [`Deployment::delete_batch`] — the only ways to change a deployment:
/// one set-at-a-time delta join per view per batch keeps the views
/// exactly consistent, and each batch that changes the store atomically
/// **publishes** a new read generation — an immutable [`StoreSnapshot`]
/// plus `Arc`-shared view tables — swapped under a light `RwLock`. Every
/// read goes through a pinned generation ([`Deployment::snapshot`] /
/// [`Deployment::reader`]), which runs wait-free and answers as-of its
/// generation forever.
///
/// Under saturation reasoning the deployment also carries the schema and
/// the explicit store, so updates stay entailment-aware: an inserted
/// triple brings its RDFS consequences into the views, and a deleted
/// explicit triple retracts exactly the entailments that lose their last
/// derivation. (The schema itself is assumed fixed for the deployment's
/// lifetime — schema-statement updates require re-deploying.)
///
/// The deployment's stores — the maintenance base and, under saturation,
/// the explicit store — list their triples in `Spo` order
/// ([`TripleStore::spo_listed`]), whether built, reopened or recovered:
/// each holds its triples once, 12 B per triple in its `Spo` run plus
/// 12 B for every other run a read or a delta join has built, and a write
/// splices the runs without copying a list, even while a generation pins
/// the old ones. Nothing reads a deployment store's order: the bundle, the
/// state hash and every answer are set-based.
#[derive(Debug)]
pub struct Deployment {
    /// The shared planning context (recommendation, reformulation schema,
    /// lineage ids): everything planning needs and maintenance never
    /// touches, `Arc`-shared with every snapshot and reader so plans can
    /// be produced off any pinned generation without the deployment.
    ctx: Arc<PlanCtx>,
    maintained: Maintained,
    /// The published read generation, swapped whole under a light
    /// `RwLock`: readers clone the `Arc` (one read-lock acquisition per
    /// pin) and then run wait-free; the writer publishes by one
    /// assignment. Shared with every [`SnapshotReader`].
    current: Arc<RwLock<Arc<Generation>>>,
}

impl Clone for Deployment {
    fn clone(&self) -> Self {
        Self {
            // Sharing the context keeps the clone's lineage: plans made by
            // either deployment execute on both (their stores, views and
            // view ids are identical at the point of cloning).
            ctx: Arc::clone(&self.ctx),
            maintained: self.maintained.clone(),
            // A fresh generation slot: the two deployments diverge from
            // here, so the clone must publish to its own readers only.
            current: Arc::new(RwLock::new(self.current_generation())),
        }
    }
}

/// What a deployment keeps consistent under writes: the maintenance base
/// store, the deployed views and, under saturation, what keeps them
/// entailment-aware.
/// [`Maintained::insert_batch`] and [`Maintained::delete_batch`] are the
/// one maintenance core: each applies a batch and returns the indexes of
/// the views whose rows changed. A live [`Deployment`] then publishes
/// those tables; recovery replays its log into a decoded `Maintained`
/// before any generation exists, so nothing pins what a record replaces
/// and a replaced table is freed at once.
#[derive(Debug, Clone)]
struct Maintained {
    store: TripleStore,
    views: Vec<DeployedView>,
    /// Under saturation, the schema and the explicit (unsaturated) triples
    /// from which `store` is re-derivable, so writes stay
    /// entailment-aware. (Under pre/post reformulation the schema belongs
    /// to planning: [`PlanCtx`] holds it.)
    entailment: Option<(Schema, VocabIds, TripleStore)>,
}

/// The immutable planning context of a deployment, `Arc`-shared between
/// the live [`Deployment`], every [`DeploymentSnapshot`] and every
/// [`SnapshotReader`]: planning reads only view definitions and the
/// recommendation's static statistics catalog, so one context serves all
/// generations.
#[derive(Debug)]
struct PlanCtx {
    rec: Recommendation,
    /// The schema for ad-hoc query reformulation, under pre/post
    /// reformulation, whose base
    /// store is the *original* (unsaturated) one: hybrid plans reformulate
    /// the query so that base-store scans stay entailment-complete
    /// (Theorem 4.1).
    /// Saturation-mode deployments need none (their base store is
    /// saturated); neither do views-only plans in any mode (the view
    /// tables already hold the saturated extensions, Theorem 4.2).
    reform: Option<(Schema, VocabIds)>,
    /// Each deployed view's statistics from the recommendation's catalog,
    /// sorted by view id: computed once here, read by every plan estimate.
    view_stats: Vec<(ViewId, RelStats)>,
    /// Process-unique lineage id stamped into every [`QueryPlan`], so a
    /// plan from one deployment cannot silently execute on another whose
    /// store happens to share a version number (clones keep the id: their
    /// stores, views and view ids are identical at the point of cloning).
    deployment_id: u64,
    /// The durable lineage id: persisted into snapshot bundles and
    /// restored by [`Deployment::open`], unlike `deployment_id` (which is
    /// process-scoped and regenerated on every open so stale in-memory
    /// plans can never execute against a reloaded deployment). Initially
    /// equal to `deployment_id`.
    lineage: u64,
    /// The plan of each original workload query, assembled (and its cost
    /// estimated) the first time any generation reads it: one write-once
    /// slot per query index. Plan structure does not depend on the
    /// generation — stored rewritings plus the recommendation's static
    /// catalog — so every snapshot executes these by reference.
    workload_plans: Vec<OnceLock<Option<QueryPlan>>>,
}

/// One published read generation: an immutable pinned store plus the
/// `Arc`-shared view tables consistent with it. Swapped whole in the
/// deployment's generation slot; readers holding an older `Arc` keep
/// their entire generation alive until they drop it.
#[derive(Debug)]
struct Generation {
    store: StoreSnapshot,
    tables: Arc<MaterializedViews>,
}

impl Generation {
    fn version(&self) -> u64 {
        self.store.version()
    }
}

/// Allocator for [`Deployment`] lineage ids.
static DEPLOYMENT_IDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A pinned, immutable read generation of a [`Deployment`]: the paper's
/// serving story under concurrent maintenance. Produced by
/// [`Deployment::snapshot`] / [`SnapshotReader::snapshot`]; every method
/// takes `&self`, so a snapshot can be shared across threads and answers
/// wait-free — no locks are taken after the pin, and writer batches
/// publishing new generations never touch this one. Answers are as-of
/// [`DeploymentSnapshot::version`] forever. This is the one way to plan
/// and answer on a deployment.
///
/// Memory: a retained snapshot keeps its whole generation alive — the
/// pinned store (its built index runs; its list is its `Spo` run) and
/// every view table of its generation — though all of it is `Arc`-shared
/// with the live deployment until maintenance diverges them. Drop the
/// snapshot (and any clones) to release the pin.
#[derive(Debug, Clone)]
pub struct DeploymentSnapshot {
    ctx: Arc<PlanCtx>,
    generation: Arc<Generation>,
}

impl DeploymentSnapshot {
    /// The pinned generation's store version — the snapshot identity.
    pub fn version(&self) -> u64 {
        self.generation.version()
    }

    /// The durable lineage id of the deployment this snapshot pins.
    pub fn lineage(&self) -> u64 {
        self.ctx.lineage
    }

    /// The pinned base store generation.
    pub fn store(&self) -> &TripleStore {
        &self.generation.store
    }

    /// The pinned view tables.
    pub fn tables(&self) -> &MaterializedViews {
        &self.generation.tables
    }

    /// Plans original workload query `query_idx` from its **stored**
    /// rewriting(s) — no cover search needed: the recommendation already
    /// carries one views-only rewriting per effective query (several
    /// branches in pre-reformulation mode). The resulting plan is always
    /// views-only, and a copy of the one the deployment keeps.
    pub fn plan_workload(&self, query_idx: usize) -> Result<QueryPlan, SelectionError> {
        self.ctx.workload_plan(query_idx).cloned()
    }

    /// Plans an **ad-hoc** conjunctive query — any query, registered in
    /// the tuned workload or not — under the default
    /// ([`AnswerPolicy::Hybrid`]) policy. See
    /// [`DeploymentSnapshot::plan_with`].
    pub fn plan(&self, q: &ConjunctiveQuery) -> Result<QueryPlan, SelectionError> {
        self.plan_with(q, AnswerPolicy::default())
    }

    /// Plans an ad-hoc conjunctive query under `policy`.
    ///
    /// The query is minimized, then the bucket/MiniCon-style cover search
    /// of `rdfviews_core::rewrite` looks for a **complete views-only
    /// rewriting** (verified equivalent through its unfolding). Such a
    /// plan answers the query in every reasoning mode without
    /// reformulation — the view tables already hold the saturated
    /// extensions (Theorem 4.2). When atoms stay uncovered:
    ///
    /// * [`AnswerPolicy::ViewsOnly`] fails with
    ///   [`SelectionError::NoViewsOnlyPlan`];
    /// * [`AnswerPolicy::Hybrid`] mixes view scans with base-store scans;
    /// * [`AnswerPolicy::BaseFallback`] evaluates the whole query on the
    ///   base store.
    ///
    /// On deployments of pre/post-reformulation recommendations the base
    /// store is the *original* (unsaturated) one, so plans with base
    /// atoms first split the query into its reformulation branches
    /// (Theorem 4.1) — one [`PlannedBranch`] each — keeping base scans
    /// entailment-complete; branch answers union at execution.
    pub fn plan_with(
        &self,
        q: &ConjunctiveQuery,
        policy: AnswerPolicy,
    ) -> Result<QueryPlan, SelectionError> {
        self.ctx.plan_with(q, policy)
    }

    /// Executes a plan against the pinned generation: every branch runs
    /// through the shared join pipeline (`evaluate_mixed` — view
    /// scans probe the materialized tables through resident indexes, base
    /// atoms the store's permutation indexes), and branch answers union
    /// set-wise. Plans from any generation of the same deployment are
    /// accepted (plan structure is generation-independent); a plan from a
    /// different deployment fails with [`SelectionError::ForeignPlan`] —
    /// view ids only mean something within their own lineage.
    pub fn answer_query(&self, plan: &QueryPlan) -> Result<Answers, SelectionError> {
        Ok(self.answer_query_stats(plan)?.0)
    }

    /// Like [`DeploymentSnapshot::answer_query`], also returning the
    /// per-branch evaluation statistics: for each union branch, the rows
    /// the join core visited, its index probes, the atoms it settled and
    /// the galloping seeks of its intersect nodes — which a cyclic branch
    /// shape, whose last atoms meet on one variable, makes and a chain or
    /// a star with open arms does not.
    pub fn answer_query_stats(
        &self,
        plan: &QueryPlan,
    ) -> Result<(Answers, Vec<EvalStats>), SelectionError> {
        if plan.deployment != self.ctx.deployment_id {
            return Err(SelectionError::ForeignPlan);
        }
        Ok(execute_plan(
            &self.generation.store,
            &self.generation.tables,
            plan,
        ))
    }

    /// Answers original workload query `query_idx` from the pinned
    /// generation, by the plan the deployment keeps for it.
    pub fn answer(&self, query_idx: usize) -> Result<Answers, SelectionError> {
        let plan = self.ctx.workload_plan(query_idx)?;
        let generation = &self.generation;
        Ok(execute_plan(&generation.store, &generation.tables, plan).0)
    }

    /// Plans and answers an ad-hoc query against the pinned generation
    /// under the default ([`AnswerPolicy::Hybrid`]) policy.
    pub fn answer_adhoc(&self, q: &ConjunctiveQuery) -> Result<Answers, SelectionError> {
        self.answer_adhoc_with(q, AnswerPolicy::default())
    }

    /// Plans and answers an ad-hoc query against the pinned generation
    /// under `policy`.
    pub fn answer_adhoc_with(
        &self,
        q: &ConjunctiveQuery,
        policy: AnswerPolicy,
    ) -> Result<Answers, SelectionError> {
        let plan = self.plan_with(q, policy)?;
        self.answer_query(&plan)
    }
}

/// A cheap, thread-safe handle onto a deployment's published-generation
/// slot: [`SnapshotReader::snapshot`] pins whatever generation the writer
/// most recently published (one read-lock acquisition, then wait-free).
/// Clone one per reader thread; the writer keeps mutating the
/// [`Deployment`] concurrently, and each pin observes a complete,
/// consistent generation — never a torn one.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    ctx: Arc<PlanCtx>,
    current: Arc<RwLock<Arc<Generation>>>,
}

impl SnapshotReader {
    /// Pins the most recently published generation.
    pub fn snapshot(&self) -> DeploymentSnapshot {
        DeploymentSnapshot {
            ctx: Arc::clone(&self.ctx),
            generation: Arc::clone(&read_unpoisoned(&self.current)),
        }
    }

    /// The durable lineage id of the deployment this reader serves.
    pub fn lineage(&self) -> u64 {
        self.ctx.lineage
    }
}

/// Executes every branch of a plan against one generation (a pinned
/// store + its view tables) and unions the branch answers set-wise — a
/// one-branch plan's answers, already distinct and sorted, pass through
/// untouched. The execution core of [`DeploymentSnapshot::answer`] and
/// [`DeploymentSnapshot::answer_query_stats`].
fn execute_plan(
    store: &TripleStore,
    tables: &MaterializedViews,
    plan: &QueryPlan,
) -> (Answers, Vec<EvalStats>) {
    let mut stats = Vec::with_capacity(plan.branches.len());
    let runs = plan.branches.iter().map(|b| {
        let atoms: Vec<MixedAtom<'_>> = b
            .plan
            .atoms
            .iter()
            .map(|pa| match pa {
                PlanAtom::View(ra) => MixedAtom::View(ViewAtom {
                    table: tables.table(ra.view),
                    args: &ra.args,
                }),
                PlanAtom::Base(a) => MixedAtom::Store(*a),
            })
            .collect();
        let (answers, branch_stats) = evaluate_mixed(store, &atoms, &b.plan.head);
        stats.push(branch_stats);
        answers
    });
    let answers = Answers::union_all(plan.query.head.len(), runs);
    (answers, stats)
}

impl Deployment {
    /// Materializes `rec`'s views under the reasoning of the session that
    /// recommended them, with `store` the data it was prepared from (the
    /// facade's `Advisor::deploy` calls this):
    ///
    /// * [`PreparedReasoning::Plain`] materializes over `store` and keeps a
    ///   copy of it as the maintenance base;
    /// * [`PreparedReasoning::Saturation`] materializes over the session's
    ///   saturated copy, which becomes the maintenance base, and keeps
    ///   `store` as the explicit triples, so `insert`/`delete` stay
    ///   entailment-aware;
    /// * [`PreparedReasoning::PreReformulation`] and
    ///   [`PreparedReasoning::PostReformulation`] materialize over `store`
    ///   (Theorem 4.2 makes that equivalent) and reformulate ad-hoc
    ///   queries, so hybrid plans' base-store scans stay
    ///   entailment-complete (Theorem 4.1).
    ///
    /// This is the only constructor, and it takes the reasoning as one
    /// value: a deployment that both maintains entailments and
    /// reformulates queries cannot be built.
    pub fn new(store: &TripleStore, rec: Recommendation, reasoning: &PreparedReasoning) -> Self {
        let (store, entailment, reform) = match reasoning {
            PreparedReasoning::Saturation(schema, vocab, saturated) => (
                saturated.spo_listed(),
                Some((schema.clone(), *vocab, store.spo_listed())),
                None,
            ),
            PreparedReasoning::PreReformulation(schema, vocab)
            | PreparedReasoning::PostReformulation(schema, vocab) => {
                (store.spo_listed(), None, Some((schema.clone(), *vocab)))
            }
            PreparedReasoning::Plain => (store.spo_listed(), None, None),
        };
        let views = rec
            .views
            .iter()
            .zip(rec.materialization.iter())
            .map(|(view, def)| DeployedView {
                id: view.id,
                arity: view.head.len(),
                branches: def
                    .branches()
                    .iter()
                    .map(|b| MaintainedView::new(&store, b.clone()))
                    .collect(),
            })
            .collect();
        let id = DEPLOYMENT_IDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let ctx = PlanCtx::new(rec, reform, id, id);
        Self::assemble(
            ctx,
            Maintained {
                store,
                views,
                entailment,
            },
        )
    }

    /// A deployment serving `maintained` as its first generation, every
    /// table its view's ([`DeployedView::table`]): how a built, reopened or
    /// recovered deployment gets its generation slot.
    fn assemble(ctx: PlanCtx, maintained: Maintained) -> Self {
        let tables = maintained
            .views
            .iter()
            .map(|dv| (dv.id, dv.table()))
            .collect();
        let generation = Generation {
            store: maintained.store.snapshot(),
            tables: Arc::new(MaterializedViews { tables }),
        };
        Self {
            ctx: Arc::new(ctx),
            maintained,
            current: Arc::new(RwLock::new(Arc::new(generation))),
        }
    }

    /// The durable lineage id: stable across [`Deployment::persist`] /
    /// [`Deployment::open`] round-trips, so a recovered deployment can be
    /// traced back to the tuning session that produced it.
    pub fn lineage(&self) -> u64 {
        self.ctx.lineage
    }

    /// The recommendation this deployment serves.
    pub fn recommendation(&self) -> &Recommendation {
        &self.ctx.rec
    }

    /// Pins the current published generation as an immutable
    /// [`DeploymentSnapshot`]: answers stay as-of this generation no
    /// matter what maintenance applies afterwards. O(1) — one read-lock
    /// acquisition, `Arc` bumps only.
    pub fn snapshot(&self) -> DeploymentSnapshot {
        DeploymentSnapshot {
            ctx: Arc::clone(&self.ctx),
            generation: self.current_generation(),
        }
    }

    /// A cheap `Send + Sync` handle for reader threads: each
    /// [`SnapshotReader::snapshot`] call pins the generation most recently
    /// published by this deployment's maintenance batches.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader {
            ctx: Arc::clone(&self.ctx),
            current: Arc::clone(&self.current),
        }
    }

    /// The published read generation (always complete and consistent).
    fn current_generation(&self) -> Arc<Generation> {
        Arc::clone(&read_unpoisoned(&self.current))
    }

    /// Publishes the current store as the new read generation, with the
    /// views at indexes `changed` serving their new tables — a one-branch
    /// view's is its branch's, no copy: pinned readers keep their old
    /// `Arc`s, new pins get this one. Every other table is
    /// the previous generation's `Arc` (one bump per view), so unchanged
    /// tables — with their warm index caches — are shared across
    /// generations. Called once at the end of every batch that changed the
    /// store, when the views are maintained to it, so every published
    /// generation is consistent.
    fn publish(&mut self, changed: &[usize]) {
        let mut tables = MaterializedViews::clone(&self.current_generation().tables);
        for &i in changed {
            let dv = &self.maintained.views[i];
            tables.tables.insert(dv.id, dv.table());
        }
        let generation = Arc::new(Generation {
            store: self.maintained.store.snapshot(),
            tables: Arc::new(tables),
        });
        *write_unpoisoned(&self.current) = generation;
    }

    /// The maintenance base store (reflects all applied updates).
    pub fn store(&self) -> &TripleStore {
        &self.maintained.store
    }

    /// Number of deployed views.
    pub fn view_count(&self) -> usize {
        self.maintained.views.len()
    }

    /// Total hash-index builds across the published generation's view
    /// tables. Rewriting execution builds each `(table, bound-column
    /// mask)` index on first probe and then reuses it, so repeatedly
    /// answering the same plans leaves this constant; maintenance that
    /// rebuilds a table starts that table's count afresh (new version,
    /// new cache).
    pub fn view_index_builds(&self) -> usize {
        self.current_generation().tables.index_builds()
    }
}

impl PlanCtx {
    fn new(
        rec: Recommendation,
        reform: Option<(Schema, VocabIds)>,
        deployment_id: u64,
        lineage: u64,
    ) -> Self {
        let workload_plans = vec![OnceLock::new(); rec.original_query_count()];
        let est = CardinalityEstimator::new(&rec.catalog);
        let mut view_stats: Vec<(ViewId, RelStats)> = rec
            .views
            .iter()
            .map(|v| (v.id, est.view_stats(&v.as_query())))
            .collect();
        view_stats.sort_unstable_by_key(|(id, _)| *id);
        Self {
            rec,
            reform,
            view_stats,
            deployment_id,
            lineage,
            workload_plans,
        }
    }

    /// The kept plan of original workload query `query_idx`, assembled
    /// from its stored rewriting(s) on first use.
    fn workload_plan(&self, query_idx: usize) -> Result<&QueryPlan, SelectionError> {
        self.workload_plans
            .get(query_idx)
            .and_then(|slot| {
                slot.get_or_init(|| self.build_workload_plan(query_idx))
                    .as_ref()
            })
            .ok_or(SelectionError::UnknownQuery {
                index: query_idx,
                len: self.workload_plans.len(),
            })
    }

    /// One views-only branch per stored rewriting of `query_idx`; `None`
    /// when the recommendation has none.
    fn build_workload_plan(&self, query_idx: usize) -> Option<QueryPlan> {
        let state = &self.rec.outcome.best_state;
        let mut branches = Vec::new();
        for (eff, &orig) in self.rec.branch_of.iter().enumerate() {
            if orig != query_idx {
                continue;
            }
            let r = &state.rewritings()[eff];
            let plan = RewritePlan {
                head: r.head.clone(),
                atoms: r.atoms.iter().map(|a| PlanAtom::View(a.clone())).collect(),
            };
            branches.push(self.branch_of_plan(self.rec.workload[eff].clone(), plan));
        }
        Some(QueryPlan {
            query: branches.first()?.query.clone(),
            branches,
            policy: AnswerPolicy::ViewsOnly,
            deployment: self.deployment_id,
        })
    }

    /// [`DeploymentSnapshot::plan_with`]: planning reads only the view
    /// definitions and the static catalog, never a generation.
    fn plan_with(
        &self,
        q: &ConjunctiveQuery,
        policy: AnswerPolicy,
    ) -> Result<QueryPlan, SelectionError> {
        if q.atoms.is_empty() {
            return Err(SelectionError::UnsupportedQuery {
                reason: "the query body is empty".into(),
            });
        }
        if !q.is_safe() {
            return Err(SelectionError::UnsupportedQuery {
                reason: "a head variable does not occur in the body".into(),
            });
        }
        if q.atoms.len() > rewrite::MAX_QUERY_ATOMS {
            return Err(SelectionError::UnsupportedQuery {
                reason: format!(
                    "the query has {} atoms; the planner caps at {}",
                    q.atoms.len(),
                    rewrite::MAX_QUERY_ATOMS
                ),
            });
        }
        let minimized = minimize(q).normalized();
        let views = &self.rec.views;
        // One planner pass: a complete views-only cover when it exists,
        // the best hybrid otherwise.
        let best = rewrite::rewrite_best(&minimized, views);
        if best.is_views_only() {
            let branch = self.branch_of_plan(minimized.clone(), best);
            return Ok(QueryPlan {
                query: minimized,
                branches: vec![branch],
                policy,
                deployment: self.deployment_id,
            });
        }
        if policy == AnswerPolicy::ViewsOnly {
            // (No reformulation detour can save the views-only policy:
            // the original query is always its own first reformulation
            // branch, so an uncoverable query has an uncoverable branch.)
            return Err(SelectionError::NoViewsOnlyPlan {
                residual_atoms: best.residual_atoms(),
            });
        }
        let branches: Vec<PlannedBranch> = match self.reformulation_branches(&minimized)? {
            Some(branch_queries) => branch_queries
                .into_iter()
                .map(|b| {
                    // Branch 0 is the original query: reuse its search.
                    let best_b = if b == minimized {
                        best.clone()
                    } else {
                        rewrite::rewrite_best(&b, views)
                    };
                    let plan = match policy {
                        AnswerPolicy::Hybrid => best_b,
                        _ if best_b.is_views_only() => best_b,
                        _ => rewrite::base_plan(&b),
                    };
                    self.branch_of_plan(b, plan)
                })
                .collect(),
            None => {
                let plan = match policy {
                    AnswerPolicy::Hybrid => best,
                    _ => rewrite::base_plan(&minimized),
                };
                vec![self.branch_of_plan(minimized.clone(), plan)]
            }
        };
        Ok(QueryPlan {
            query: minimized,
            branches,
            policy,
            deployment: self.deployment_id,
        })
    }

    /// The reformulation branches of a (minimized) ad-hoc query, for
    /// deployments carrying a reformulation schema: `Ok(None)` when the
    /// deployment needs no reformulation (plain / saturation),
    /// `Err(UnsupportedQuery)` when the expansion exceeds the branch cap.
    fn reformulation_branches(
        &self,
        minimized: &ConjunctiveQuery,
    ) -> Result<Option<Vec<ConjunctiveQuery>>, SelectionError> {
        let Some((schema, vocab)) = &self.reform else {
            return Ok(None);
        };
        let limit = ReformLimit { max_queries: 256 };
        let ucq = reformulate_with_limit(minimized, schema, vocab, limit).map_err(|partial| {
            SelectionError::UnsupportedQuery {
                reason: format!(
                    "reformulation exceeds {} branches; answer it views-only or re-deploy \
                     under saturation",
                    partial.len()
                ),
            }
        })?;
        Ok(Some(
            ucq.branches()
                .iter()
                .map(|b| minimize(b).normalized())
                .collect(),
        ))
    }

    fn branch_of_plan(&self, query: ConjunctiveQuery, plan: RewritePlan) -> PlannedBranch {
        let estimated_cost = self.estimate_plan(&plan);
        PlannedBranch {
            query,
            plan,
            estimated_cost,
        }
    }

    /// Estimated evaluation cost of one plan from the recommendation's
    /// statistics catalog (the same System-R estimator the search used):
    /// total scanned cardinality plus the estimated join output. Plans are
    /// built over this deployment's views only; one that scans any other
    /// view has no estimate, and costs infinity.
    fn estimate_plan(&self, plan: &RewritePlan) -> f64 {
        let est = CardinalityEstimator::new(&self.rec.catalog);
        let rel_atoms: Option<Vec<RelAtom>> = plan
            .atoms
            .iter()
            .map(|pa| match pa {
                PlanAtom::View(ra) => {
                    let i = self
                        .view_stats
                        .binary_search_by_key(&ra.view, |(id, _)| *id)
                        .ok()?;
                    Some(RelAtom {
                        stats: self.view_stats[i].1.clone(),
                        args: ra.args.clone(),
                        baked: false,
                    })
                }
                PlanAtom::Base(a) => Some(RelAtom {
                    stats: est.atom_stats(a),
                    args: a.terms().to_vec(),
                    baked: true,
                }),
            })
            .collect();
        let Some(rel_atoms) = rel_atoms else {
            return f64::INFINITY;
        };
        let io: f64 = rel_atoms.iter().map(|a| a.stats.card).sum();
        io + estimate_conjunction(&rel_atoms)
    }
}

impl Deployment {
    /// Applies a triple insertion: updates the base store and every view
    /// via its incremental delta. Under saturation reasoning the RDFS
    /// consequences of the new triple are derived and maintained too.
    /// Returns the merged maintenance counters; a duplicate triple is a
    /// no-op.
    pub fn insert(&mut self, t: Triple) -> MaintenanceStats {
        self.insert_batch(std::slice::from_ref(&t))
    }

    /// Applies a triple deletion (delete-and-rederive): candidate rows are
    /// collected while the triple is still present, then re-derived
    /// against the shrunken store. Under saturation reasoning the triple
    /// must be explicit; the entailments that lose their last derivation
    /// are retracted along with it (an implicit or absent triple is a
    /// no-op, as is a missing one in plain deployments).
    pub fn delete(&mut self, t: Triple) -> MaintenanceStats {
        self.delete_batch(std::slice::from_ref(&t))
    }

    /// Applies a batch of deletions, set-at-a-time. Under saturation
    /// reasoning the entailment-loss set is computed **once** for the
    /// whole batch, by delete-and-rederive over the delta
    /// ([`rdf_schema::retracted_delta`]: only the forward closure of the
    /// removed explicit triples is examined, each candidate by a backward
    /// walk to the explicit triples that could still derive it); either
    /// way every view runs **one** two-phase delta pass — candidates
    /// collected with each atom position bound to the whole doomed set,
    /// then one re-derivation sweep against the shrunken store — so
    /// retraction feeds should prefer this over per-triple
    /// [`Deployment::delete`]. `stats.batches` counts 1 per call that
    /// reached the delta joins.
    pub fn delete_batch(&mut self, batch: &[Triple]) -> MaintenanceStats {
        let (total, changed) = self.maintained.delete_batch(batch);
        if let Some(changed) = changed {
            self.publish(&changed);
        }
        total
    }

    /// Applies a batch of insertions, set-at-a-time. Under saturation
    /// reasoning the batch's consequences are derived from the batch
    /// alone ([`rdf_schema::entailed_delta`] — each RDFS rule has one
    /// instance premise, so no other triple of the database takes part)
    /// and enter the base store together with it, as one write; then every
    /// view runs **one** delta-set join per atom position —
    /// Δv = ⋃ᵢ π_head(a₁ ⋈ … ⋈ Δaᵢ ⋈ … ⋈ aₙ) with Δ the whole batch,
    /// hash-indexed — instead of |Δ| per-triple passes. `stats.batches`
    /// counts 1 per call that reached the delta joins; a fully-duplicate
    /// batch is a no-op.
    pub fn insert_batch(&mut self, batch: &[Triple]) -> MaintenanceStats {
        let (total, changed) = self.maintained.insert_batch(batch);
        if let Some(changed) = changed {
            self.publish(&changed);
        }
        total
    }
}

impl Maintained {
    /// The maintenance core of [`Deployment::delete_batch`]: the merged
    /// counters, and the indexes of the views whose rows shrank — `None`
    /// when the store did not change.
    fn delete_batch(&mut self, batch: &[Triple]) -> (MaintenanceStats, Option<Vec<usize>>) {
        let mut total = MaintenanceStats::default();
        let doomed: Vec<Triple> = match &mut self.entailment {
            Some((schema, vocab, explicit)) => {
                let removed = explicit.remove_batch(batch);
                retracted_delta(explicit, &self.store, &removed, schema, vocab)
            }
            None => {
                let mut present = batch.to_vec();
                present.sort_unstable();
                present.dedup();
                self.store.retain_by_membership(&mut present, true);
                present
            }
        };
        if doomed.is_empty() {
            return (total, None);
        }
        total.batches = 1;
        // Phase 1: one shared delta set, one prepare per view branch,
        // while the doomed triples are still in the store.
        let delta_set = DeltaSet::new(&doomed);
        let deltas: Vec<Vec<DeleteDelta>> = self
            .views
            .iter()
            .map(|dv| {
                dv.branches
                    .iter()
                    .map(|b| b.prepare_delete_delta(&self.store, &delta_set))
                    .collect()
            })
            .collect();
        self.store.remove_batch(&doomed);
        // Phase 2: one re-derivation sweep per branch over the candidates.
        let mut changed = Vec::new();
        for (i, (dv, branch_deltas)) in self.views.iter_mut().zip(deltas).enumerate() {
            let mut shrank = false;
            for (b, delta) in dv.branches.iter_mut().zip(branch_deltas) {
                let s = b.commit_delete_batch(&self.store, &delta);
                shrank |= s.removed > 0;
                total.merge(s);
            }
            if shrank {
                changed.push(i);
            }
        }
        (total, Some(changed))
    }

    /// The maintenance core of [`Deployment::insert_batch`]: the merged
    /// counters, and the indexes of the views whose rows grew — `None`
    /// when the store did not change.
    fn insert_batch(&mut self, batch: &[Triple]) -> (MaintenanceStats, Option<Vec<usize>>) {
        let mut total = MaintenanceStats::default();
        let added: Vec<Triple> = match &mut self.entailment {
            Some((schema, vocab, explicit)) => {
                // What the base store gains: the newly explicit triples it
                // did not already entail, and what follows from those. The
                // store is saturated, so the consequences of a newly
                // explicit triple it already held are in it too, and the
                // one merge of `insert_batch` drops all of them.
                let mut gained = explicit.insert_batch(batch);
                let entailed = entailed_delta(&self.store, &gained, schema, vocab);
                gained.extend(entailed);
                self.store.insert_batch(&gained)
            }
            None => self.store.insert_batch(batch),
        };
        if added.is_empty() {
            // Newly-explicit triples that were already entailed: the base
            // store (and the views) did not change.
            return (total, None);
        }
        total.batches = 1;
        // One shared delta set, one join pass per view branch against the
        // fully-updated base store.
        let delta_set = DeltaSet::new(&added);
        let mut changed = Vec::new();
        for (i, dv) in self.views.iter_mut().enumerate() {
            let mut grew = false;
            for b in &mut dv.branches {
                let s = b.apply_insert_delta(&self.store, &delta_set);
                grew |= s.added > 0;
                total.merge(s);
            }
            if grew {
                changed.push(i);
            }
        }
        (total, Some(changed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{Dataset, Term};
    use rdf_query::parser::parse_query;
    use rdfviews_core::{try_select_views, SelectionOptions};

    fn db() -> Dataset {
        let mut db = Dataset::new();
        for i in 0..30 {
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

    fn recommend(db: &mut Dataset) -> Recommendation {
        recommend_queries(db, &["q(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)"])
    }

    fn recommend_queries(db: &mut Dataset, queries: &[&str]) -> Recommendation {
        let workload: Vec<ConjunctiveQuery> = queries
            .iter()
            .map(|q| parse_query(q, db.dict_mut()).unwrap().query)
            .collect();
        try_select_views(
            db.store(),
            db.dict(),
            None,
            &workload,
            &SelectionOptions::recommended(),
        )
        .unwrap()
    }

    #[test]
    fn answers_from_views_match_direct_evaluation() {
        let mut db = db();
        let rec = recommend(&mut db);
        let mv = materialize_recommendation(db.store(), &rec);
        assert_eq!(mv.len(), rec.views.len());
        let direct = rdf_engine::evaluate(db.store(), &rec.workload[0]);
        let from_views = Deployment::new(db.store(), rec, &PreparedReasoning::Plain)
            .snapshot()
            .answer(0)
            .unwrap();
        assert_eq!(from_views, direct);
        assert_eq!(from_views.len(), 10); // s1, s4, …, s28
    }

    #[test]
    fn materialize_state_covers_all_views() {
        let mut db = db();
        let q = parse_query("q(X, Y) :- t(X, <p>, Y)", db.dict_mut())
            .unwrap()
            .query;
        let workload = vec![q];
        let state = State::initial(&workload);
        let mv = materialize_state(db.store(), &state);
        assert_eq!(mv.len(), 1);
        assert_eq!(mv.total_rows(), 30);
        assert_eq!(mv.total_cells(), 60);
    }

    #[test]
    fn unknown_query_index_is_an_error() {
        let mut db = db();
        let rec = recommend(&mut db);
        let snap = Deployment::new(db.store(), rec, &PreparedReasoning::Plain).snapshot();
        let err = snap.answer(7).unwrap_err();
        assert_eq!(err, SelectionError::UnknownQuery { index: 7, len: 1 });
        assert_eq!(snap.plan_workload(7).unwrap_err(), err);
    }

    #[test]
    fn deployment_answers_and_maintains() {
        let mut db = db();
        let rec = recommend(&mut db);
        let mut dep = Deployment::new(db.store(), rec, &PreparedReasoning::Plain);
        let direct = rdf_engine::evaluate(db.store(), &dep.recommendation().workload[0]);
        assert_eq!(dep.snapshot().answer(0).unwrap(), direct);
        assert_eq!(
            dep.snapshot().answer(3).unwrap_err(),
            SelectionError::UnknownQuery { index: 3, len: 1 }
        );

        // Insert a fresh qualifying subject: answers must grow.
        let before = dep.snapshot().answer(0).unwrap().len();
        let s = db.dict_mut().intern_uri("fresh");
        let p = db.dict().lookup_uri("p").unwrap();
        let q = db.dict().lookup_uri("q").unwrap();
        let o1 = db.dict().lookup_uri("o1").unwrap();
        let c = db.dict().lookup_uri("c").unwrap();
        dep.insert([s, p, o1]);
        dep.insert([s, q, c]);
        let after = dep.snapshot().answer(0).unwrap();
        assert_eq!(after.len(), before + 1);
        assert!(after.contains(&[s]));

        // Delete one of its triples: the subject disappears again.
        dep.delete([s, q, c]);
        let reverted = dep.snapshot().answer(0).unwrap();
        assert_eq!(reverted.len(), before);
        assert!(!reverted.contains(&[s]));

        // The deployment's answers always match evaluation over its own
        // (maintained) base store.
        let fresh = rdf_engine::evaluate(dep.store(), &dep.recommendation().workload[0]);
        assert_eq!(dep.snapshot().answer(0).unwrap(), fresh);
    }

    #[test]
    fn served_plans_reuse_view_indexes() {
        // A served workload answers the same plan over and over; every
        // probed (table, mask) hash index must be built exactly once and
        // reused, so the build count is flat after the first call.
        let mut db = db();
        let rec = recommend(&mut db);
        let dep = Deployment::new(db.store(), rec, &PreparedReasoning::Plain);
        let snap = dep.snapshot();
        let plan = snap.plan_workload(0).unwrap();
        let first = snap.answer_query(&plan).unwrap();
        let builds = dep.view_index_builds();
        for _ in 0..5 {
            assert_eq!(dep.snapshot().answer_query(&plan).unwrap(), first);
        }
        assert_eq!(
            dep.view_index_builds(),
            builds,
            "repeated answer_query must not rebuild view indexes"
        );
    }

    /// A one-branch view's published table is its maintained branch's own,
    /// and a cloned deployment shares both: it serves its first generation
    /// warm — every index the original built serves it, and probing a plan
    /// on it builds none — and a write to either replaces its own tables
    /// only.
    #[test]
    fn clones_share_tables_and_serve_warm() {
        let mut db = db();
        let rec = recommend_queries(&mut db, &["q(X, Y) :- t(X, <p>, Y), t(X, <q>, <c>)"]);
        let dep = Deployment::new(db.store(), rec, &PreparedReasoning::Plain);
        let published = |dep: &Deployment| -> Vec<Arc<ViewTable>> {
            let snap = dep.snapshot();
            dep.maintained
                .views
                .iter()
                .map(|dv| Arc::clone(&snap.generation.tables.tables[&dv.id]))
                .collect()
        };
        let branch =
            |dep: &Deployment, i: usize| Arc::clone(dep.maintained.views[i].branches[0].table());
        for (i, table) in published(&dep).iter().enumerate() {
            assert!(
                Arc::ptr_eq(table, &branch(&dep, i)),
                "view {i} is held once"
            );
        }
        let adhoc = parse_query("q(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)", db.dict_mut())
            .unwrap()
            .query;
        let plan = dep.snapshot().plan(&adhoc).unwrap();
        assert!(plan.is_views_only());
        let first = dep.snapshot().answer_query(&plan).unwrap();
        let builds = dep.view_index_builds();
        assert!(builds > 0, "the plan probes a view index");

        let mut fork = dep.clone();
        assert_eq!(fork.view_index_builds(), builds);
        assert_eq!(fork.snapshot().answer_query(&plan).unwrap(), first);
        assert_eq!(
            fork.view_index_builds(),
            builds,
            "a warm clone builds nothing"
        );
        for (mine, theirs) in published(&dep).iter().zip(&published(&fork)) {
            assert!(Arc::ptr_eq(mine, theirs));
        }

        let [p, o1, q, c] = ["p", "o1", "q", "c"].map(|u| db.dict().lookup_uri(u).unwrap());
        let fresh = db.dict_mut().intern_uri("fresh");
        fork.insert_batch(&[[fresh, p, o1], [fresh, q, c]]);
        assert_eq!(
            fork.snapshot().answer_query(&plan).unwrap().len(),
            first.len() + 1
        );
        assert_eq!(dep.snapshot().answer_query(&plan).unwrap(), first);
        assert_eq!(
            dep.view_index_builds(),
            builds,
            "the original stays as it was"
        );
    }

    #[test]
    fn intersect_seeks_surface_per_branch() {
        let mut db = db();
        // A directed triangle among fresh nodes so a cyclic ad-hoc query
        // has answers to find.
        let (a, b, c) = (
            db.dict_mut().intern_uri("ta"),
            db.dict_mut().intern_uri("tb"),
            db.dict_mut().intern_uri("tc"),
        );
        let p = db.dict().lookup_uri("p").unwrap();
        db.store_mut().insert([a, p, b]);
        db.store_mut().insert([b, p, c]);
        db.store_mut().insert([c, p, a]);
        let rec = recommend(&mut db);
        let snap = Deployment::new(db.store(), rec, &PreparedReasoning::Plain).snapshot();

        // Base-fallback keeps the whole query on the store, so the branch
        // shape is the query shape: the triangle's last two edges meet by
        // seeks...
        let tri = parse_query(
            "q(X, Y, Z) :- t(X, <p>, Y), t(Y, <p>, Z), t(Z, <p>, X)",
            db.dict_mut(),
        )
        .unwrap()
        .query;
        let plan = snap.plan_with(&tri, AnswerPolicy::BaseFallback).unwrap();
        let (got, stats) = snap.answer_query_stats(&plan).unwrap();
        assert_eq!(got, rdf_engine::evaluate(snap.store(), &tri));
        assert!(got.contains(&[a, b, c]));
        assert_eq!(stats.len(), 1);
        assert!(stats[0].seeks > 0);

        // ...while a chain's atoms never leave one variable open together.
        let chain = parse_query("q(X, Z) :- t(X, <p>, Y), t(Y, <p>, Z)", db.dict_mut())
            .unwrap()
            .query;
        let plan = snap.plan_with(&chain, AnswerPolicy::BaseFallback).unwrap();
        let (got, stats) = snap.answer_query_stats(&plan).unwrap();
        assert_eq!(got, rdf_engine::evaluate(snap.store(), &chain));
        assert!(!stats.is_empty());
        assert!(stats.iter().all(|s| s.seeks == 0));
    }

    #[test]
    fn deployment_totals_track_updates() {
        let mut db = db();
        let rec = recommend(&mut db);
        let mv = materialize_recommendation(db.store(), &rec);
        let mut dep = Deployment::new(db.store(), rec, &PreparedReasoning::Plain);
        assert_eq!(dep.view_count(), mv.len());
        assert_eq!(dep.snapshot().tables().total_rows(), mv.total_rows());
        assert_eq!(dep.snapshot().tables().total_cells(), mv.total_cells());
        let s = db.dict_mut().intern_uri("extra");
        let p = db.dict().lookup_uri("p").unwrap();
        let o1 = db.dict().lookup_uri("o1").unwrap();
        let stats = dep.insert([s, p, o1]);
        if stats.added > 0 {
            assert!(dep.snapshot().tables().total_rows() > mv.total_rows());
        }
        // Rematerializing over the maintained store agrees with the
        // incremental tables.
        let remat = materialize_recommendation(dep.store(), dep.recommendation());
        let snap = dep.snapshot();
        assert_eq!(snap.tables().total_rows(), remat.total_rows());
        assert_eq!(snap.tables().total_cells(), remat.total_cells());
    }

    /// One chunk = one maintenance pass: the `batches` counter makes the
    /// one-fixpoint-per-batch contract observable. Fed in chunks of any
    /// size — one triple, an intermediate size, the whole batch — a feed
    /// of insertions and then deletions ends at the per-triple rule's
    /// tables and answers to every workload query, with no more delta
    /// tuples than it derives.
    #[test]
    fn batched_feed_runs_one_pass_and_matches_per_triple() {
        let mut db = db();
        let rec = recommend_queries(
            &mut db,
            &[
                "q(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)",
                "r(X, Y) :- t(X, <p>, Y)",
            ],
        );
        let p = db.dict().lookup_uri("p").unwrap();
        let qq = db.dict().lookup_uri("q").unwrap();
        let o1 = db.dict().lookup_uri("o1").unwrap();
        let c = db.dict().lookup_uri("c").unwrap();
        let mut feed = Vec::new();
        for i in 0..20 {
            let s = db.dict_mut().intern_uri(&format!("fresh{i}"));
            feed.push([s, p, o1]);
            feed.push([s, qq, c]);
        }
        let doomed: Vec<Triple> = feed.iter().copied().step_by(3).collect();
        // Every workload answer and the tables' size.
        let state = |snap: DeploymentSnapshot| {
            let answers: Vec<Answers> = (0..rec.workload.len())
                .map(|qi| snap.answer(qi).unwrap())
                .collect();
            (
                answers,
                snap.tables().total_rows(),
                snap.tables().total_cells(),
            )
        };

        let mut per_triple = Deployment::new(db.store(), rec.clone(), &PreparedReasoning::Plain);
        let mut pins = MaintenanceStats::default();
        for &t in &feed {
            pins.merge(per_triple.insert(t));
        }
        assert_eq!(pins.batches, feed.len(), "one pass per triple");
        let inserted = state(per_triple.snapshot());
        let mut pdel = MaintenanceStats::default();
        for &t in &doomed {
            pdel.merge(per_triple.delete(t));
        }
        assert_eq!(pdel.batches, doomed.len());
        let deleted = state(per_triple.snapshot());
        for size in [1, 7, feed.len()] {
            let mut batched = Deployment::new(db.store(), rec.clone(), &PreparedReasoning::Plain);
            let mut bins = MaintenanceStats::default();
            for chunk in feed.chunks(size) {
                bins.merge(batched.insert_batch(chunk));
            }
            assert_eq!(
                bins.batches,
                feed.len().div_ceil(size),
                "one pass per chunk of {size}"
            );
            assert_eq!(bins.added, pins.added);
            assert!(bins.delta_tuples <= pins.delta_tuples, "insert Δ at {size}");
            assert_eq!(state(batched.snapshot()), inserted, "inserted by {size}");

            let mut bdel = MaintenanceStats::default();
            for chunk in doomed.chunks(size) {
                bdel.merge(batched.delete_batch(chunk));
            }
            assert_eq!(
                bdel.batches,
                doomed.len().div_ceil(size),
                "one pass per chunk of {size}"
            );
            assert_eq!(bdel.removed, pdel.removed);
            assert!(bdel.delta_tuples <= pdel.delta_tuples, "delete Δ at {size}");
            assert_eq!(state(batched.snapshot()), deleted, "deleted by {size}");
        }
        // A fully-duplicate batch is a no-op with no pass (feed[0] was
        // retracted above; feed[1..3] are still present).
        assert_eq!(per_triple.insert_batch(&feed[1..3]).batches, 0);
    }

    /// Snapshots pin a generation: maintenance batches applied afterwards
    /// are invisible to the pin, while new pins see them.
    #[test]
    fn snapshots_pin_generations_across_batches() {
        let mut db = db();
        let rec = recommend(&mut db);
        let mut dep = Deployment::new(db.store(), rec, &PreparedReasoning::Plain);
        let pinned = dep.snapshot();
        let baseline = pinned.answer(0).unwrap();
        assert_eq!(pinned.version(), dep.store().version());
        assert_eq!(pinned.lineage(), dep.lineage());

        let s = db.dict_mut().intern_uri("batched");
        let p = db.dict().lookup_uri("p").unwrap();
        let qq = db.dict().lookup_uri("q").unwrap();
        let o1 = db.dict().lookup_uri("o1").unwrap();
        let c = db.dict().lookup_uri("c").unwrap();
        dep.insert_batch(&[[s, p, o1], [s, qq, c]]);

        // The pin answers as-of its generation — repeatedly.
        for _ in 0..2 {
            let as_of = pinned.answer(0).unwrap();
            assert_eq!(as_of, baseline);
            assert!(!as_of.contains(&[s]));
        }
        // A fresh pin sees the batch.
        let repinned = dep.snapshot();
        assert!(repinned.version() > pinned.version());
        assert_eq!(repinned.version(), dep.store().version());
        let now = repinned.answer(0).unwrap();
        assert_eq!(now.len(), baseline.len() + 1);
        // Ad-hoc planning works against the pin too.
        let adhoc = pinned
            .answer_adhoc(&dep.recommendation().workload[0])
            .unwrap();
        assert_eq!(adhoc, baseline);
    }

    /// Plan structure is generation-independent: a plan made before a
    /// maintenance batch executes against the new generation.
    #[test]
    fn old_plans_execute_on_new_generations() {
        let mut db = db();
        let rec = recommend(&mut db);
        let mut dep = Deployment::new(db.store(), rec, &PreparedReasoning::Plain);
        let plan = dep.snapshot().plan_workload(0).unwrap();
        let before = dep.snapshot().answer_query(&plan).unwrap();

        let s = db.dict_mut().intern_uri("later");
        let p = db.dict().lookup_uri("p").unwrap();
        let qq = db.dict().lookup_uri("q").unwrap();
        let o1 = db.dict().lookup_uri("o1").unwrap();
        let c = db.dict().lookup_uri("c").unwrap();
        dep.insert_batch(&[[s, p, o1], [s, qq, c]]);

        let after = dep.snapshot().answer_query(&plan).unwrap();
        assert_eq!(after.len(), before.len() + 1);
        assert!(after.contains(&[s]));
    }

    /// Every write is a maintained batch, so no read can be stale: after
    /// each kind of write — single or batched, insert or delete, effective
    /// or not — a fresh pin is at the writer's store version and answers
    /// exactly as evaluation and rematerialization over that store do.
    #[test]
    fn every_write_publishes_a_current_generation() {
        let mut db = db();
        let rec = recommend(&mut db);
        let mut dep = Deployment::new(db.store(), rec, &PreparedReasoning::Plain);
        let s = db.dict_mut().intern_uri("written");
        let p = db.dict().lookup_uri("p").unwrap();
        let qq = db.dict().lookup_uri("q").unwrap();
        let o1 = db.dict().lookup_uri("o1").unwrap();
        let c = db.dict().lookup_uri("c").unwrap();
        // Checks the invariant; returns whether the fresh subject answers.
        let current = |dep: &Deployment, step: &str| {
            let snap = dep.snapshot();
            assert_eq!(snap.version(), dep.store().version(), "{step}");
            let truth = rdf_engine::evaluate(dep.store(), &dep.recommendation().workload[0]);
            let answers = snap.answer(0).unwrap();
            assert_eq!(answers, truth, "{step}");
            let remat = materialize_recommendation(dep.store(), dep.recommendation());
            assert_eq!(snap.tables().total_rows(), remat.total_rows(), "{step}");
            assert_eq!(snap.tables().total_cells(), remat.total_cells(), "{step}");
            answers.contains(&[s])
        };
        assert!(!current(&dep, "deployed"));
        dep.insert([s, p, o1]);
        assert!(!current(&dep, "insert"));
        dep.insert_batch(&[[s, qq, c]]);
        assert!(current(&dep, "insert_batch"));
        let version = dep.store().version();
        dep.insert_batch(&[[s, qq, c]]);
        assert_eq!(
            dep.store().version(),
            version,
            "a duplicate batch writes nothing"
        );
        assert!(current(&dep, "duplicate insert_batch"));
        dep.delete([s, p, o1]);
        assert!(!current(&dep, "delete"));
        dep.delete_batch(&[[s, qq, c], [s, p, o1]]);
        assert!(!current(&dep, "delete_batch"));
    }

    /// A clone is a second writer: it keeps the lineage, so plans cross
    /// over, but it publishes to its own generation slot — a batch on one
    /// is invisible to the other's readers.
    #[test]
    fn clones_publish_to_their_own_readers() {
        let mut db = db();
        let rec = recommend(&mut db);
        let mut dep = Deployment::new(db.store(), rec, &PreparedReasoning::Plain);
        let mut fork = dep.clone();
        assert_eq!(fork.lineage(), dep.lineage());
        let (reader, fork_reader) = (dep.reader(), fork.reader());
        let baseline = dep.snapshot().answer(0).unwrap();
        let plan = fork.snapshot().plan_workload(0).unwrap();

        let p = db.dict().lookup_uri("p").unwrap();
        let qq = db.dict().lookup_uri("q").unwrap();
        let o1 = db.dict().lookup_uri("o1").unwrap();
        let c = db.dict().lookup_uri("c").unwrap();
        let mine = db.dict_mut().intern_uri("mine");
        let theirs = db.dict_mut().intern_uri("theirs");
        dep.insert_batch(&[[mine, p, o1], [mine, qq, c]]);
        fork.insert_batch(&[[theirs, p, o1], [theirs, qq, c]]);

        let here = reader.snapshot().answer_query(&plan).unwrap();
        assert_eq!(here.len(), baseline.len() + 1);
        assert!(here.contains(&[mine]) && !here.contains(&[theirs]));
        let there = fork_reader.snapshot().answer_query(&plan).unwrap();
        assert_eq!(there.len(), baseline.len() + 1);
        assert!(there.contains(&[theirs]) && !there.contains(&[mine]));
    }

    /// Reader handles follow the writer's publishes: each pin observes
    /// the most recent complete generation.
    #[test]
    fn reader_handles_track_published_generations() {
        let mut db = db();
        let rec = recommend(&mut db);
        let mut dep = Deployment::new(db.store(), rec, &PreparedReasoning::Plain);
        let reader = dep.reader();
        let first = reader.snapshot();
        assert_eq!(reader.lineage(), dep.lineage());
        let baseline = first.answer(0).unwrap();

        let s = db.dict_mut().intern_uri("published");
        let p = db.dict().lookup_uri("p").unwrap();
        let qq = db.dict().lookup_uri("q").unwrap();
        let o1 = db.dict().lookup_uri("o1").unwrap();
        let c = db.dict().lookup_uri("c").unwrap();
        dep.insert_batch(&[[s, p, o1], [s, qq, c]]);

        let second = reader.snapshot();
        assert!(second.version() > first.version());
        assert_eq!(second.answer(0).unwrap().len(), baseline.len() + 1);
        // The older pin still answers as-of its own generation.
        assert_eq!(first.answer(0).unwrap(), baseline);
    }

    /// Snapshots enforce lineage like the deployment does.
    #[test]
    fn snapshots_refuse_foreign_plans() {
        let mut db = db();
        let rec = recommend(&mut db);
        let dep = Deployment::new(db.store(), rec.clone(), &PreparedReasoning::Plain);
        let other = Deployment::new(db.store(), rec, &PreparedReasoning::Plain);
        let foreign = other.snapshot().plan_workload(0).unwrap();
        assert_eq!(
            dep.snapshot().answer_query(&foreign).unwrap_err(),
            SelectionError::ForeignPlan
        );
    }

    /// The kept workload plans belong to the deployment, not to a
    /// generation: every snapshot, before and after a swap, executes the
    /// one plan object, and the copies handed out execute on any of them.
    #[test]
    fn workload_plan_cache_survives_generation_swaps() {
        let mut db = db();
        let rec = recommend(&mut db);
        let mut dep = Deployment::new(db.store(), rec, &PreparedReasoning::Plain);
        assert!(dep.ctx.workload_plans[0].get().is_none(), "built on demand");
        dep.snapshot().answer(0).unwrap();
        let kept = dep.ctx.workload_plan(0).unwrap() as *const QueryPlan;
        let p = db.dict().lookup_uri("p").unwrap();
        let qq = db.dict().lookup_uri("q").unwrap();
        let o1 = db.dict().lookup_uri("o1").unwrap();
        let c = db.dict().lookup_uri("c").unwrap();
        for i in 0..3 {
            let s = db.dict_mut().intern_uri(&format!("swap{i}"));
            dep.insert_batch(&[[s, p, o1], [s, qq, c]]);
            let snap = dep.snapshot();
            assert_eq!(snap.version(), dep.store().version());
            assert!(snap.answer(0).unwrap().contains(&[s]));
            assert!(std::ptr::eq(snap.ctx.workload_plan(0).unwrap(), kept));
            let copy = snap.plan_workload(0).unwrap();
            assert!(snap.answer_query(&copy).unwrap().contains(&[s]));
        }
        assert_eq!(
            dep.ctx.workload_plan(1).unwrap_err(),
            SelectionError::UnknownQuery { index: 1, len: 1 }
        );
    }

    /// The reader handle is shareable across threads by construction.
    #[test]
    fn reader_and_snapshot_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<SnapshotReader>();
        assert_send_sync::<DeploymentSnapshot>();
    }
}
