//! # rdfviews
//!
//! **View selection for Semantic Web databases** — a from-scratch Rust
//! reproduction of Goasdoué, Karanasos, Leblay & Manolescu, *View Selection
//! in Semantic Web Databases*, PVLDB 5(2) / VLDB 2012 (arXiv:1110.6648).
//!
//! Given an RDF database (triples + optional RDF Schema) and a workload of
//! conjunctive queries, the library recommends a set of materialized views
//! and one equivalent rewriting per query, such that **every workload query
//! can be answered from the views alone** — enabling three-tier or offline
//! deployments where clients never touch the database — while minimizing a
//! weighted combination of rewriting evaluation cost, view storage space
//! and view maintenance cost.
//!
//! ## Quickstart: the advisor session lifecycle
//!
//! The public API is organized around two long-lived objects:
//!
//! * [`Advisor`](advisor::Advisor) — a view-selection **session** over one
//!   database. Building it prepares the expensive per-database artifacts
//!   (saturated store copy, statistics catalog) **once**; every
//!   `recommend` call after that reuses them and only collects statistics
//!   for atom shapes it has never seen. All fallible paths return
//!   [`SelectionError`](core::SelectionError) instead of panicking.
//! * [`Deployment`](exec::Deployment) — a deployed recommendation: the
//!   views materialized, bundled with a maintenance base copy of the
//!   store. It is the writer: it absorbs triple insertions/deletions
//!   through incremental view maintenance. Every read — workload answers,
//!   ad-hoc plans, view tables — goes through a pinned
//!   [`DeploymentSnapshot`](exec::DeploymentSnapshot) of it.
//!
//! ```
//! use rdfviews::prelude::*;
//!
//! // 1. Load data.
//! let mut db = Dataset::new();
//! # use rdfviews::model::Term;
//! # for i in 0..20 {
//! #   db.insert_terms(Term::uri(format!("s{i}")), Term::uri("p"), Term::uri(format!("o{}", i % 4)));
//! #   db.insert_terms(Term::uri(format!("s{i}")), Term::uri("q"), Term::uri("c"));
//! # }
//!
//! // 2. Declare a workload.
//! let q = parse_query("q(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)", db.dict_mut()).unwrap();
//! let workload = vec![q.query];
//!
//! // 3. Open an advisor session and recommend views. The session caches
//! //    the statistics catalog: a second `recommend` over the same
//! //    workload does zero store work.
//! let mut advisor = Advisor::builder(&db).build()?;
//! let rec = advisor.recommend(&workload)?;
//!
//! // 4. Deploy: materialize the views and answer the workload from them
//! //    alone — no connection to the database needed.
//! let deployment = advisor.deploy(rec);
//! let from_views = deployment.snapshot().answer(0)?;
//! let direct = rdfviews::engine::evaluate(db.store(), &deployment.recommendation().workload[0]);
//! assert_eq!(from_views, direct);
//! # Ok::<(), rdfviews::core::SelectionError>(())
//! ```
//!
//! ## Ad-hoc querying: rewrite arbitrary queries over the deployed views
//!
//! `answer(query_idx)` serves the tuned workload by index — but a real
//! front end must answer queries that arrive **after** tuning. Any
//! conjunctive query goes through the deployment's planner:
//! [`DeploymentSnapshot::plan`](exec::DeploymentSnapshot::plan) computes a
//! bucket/MiniCon-style rewriting over the deployed views (verified
//! equivalent through its unfolding, the same Definition-2.2 yardstick the
//! selection search uses) and returns an inspectable
//! [`QueryPlan`](exec::QueryPlan) — which views cover which atoms, the
//! residual base-store atoms, the estimated cost — executed by
//! [`DeploymentSnapshot::answer_query`](exec::DeploymentSnapshot::answer_query)
//! (or `answer_query_stats`, which also returns the per-branch
//! [`EvalStats`](engine::EvalStats)). The
//! [`AnswerPolicy`](exec::AnswerPolicy) decides what happens when the
//! views cannot cover the whole query: `ViewsOnly` fails with the typed
//! [`SelectionError::NoViewsOnlyPlan`](core::SelectionError::NoViewsOnlyPlan)
//! (never wrong or silently empty answers), `Hybrid` — the default —
//! mixes view scans with base-store scans, and `BaseFallback` evaluates
//! the whole query on the base store. Index-based `answer(idx)` executes
//! the stored workload rewriting through the same path.
//!
//! ```
//! use rdfviews::prelude::*;
//! # use rdfviews::model::Term;
//! let mut db = Dataset::new();
//! # for i in 0..20 {
//! #   db.insert_terms(Term::uri(format!("s{i}")), Term::uri("p"), Term::uri(format!("o{}", i % 4)));
//! #   db.insert_terms(Term::uri(format!("s{i}")), Term::uri("q"), Term::uri("c"));
//! # }
//! let q = parse_query("q(X, Y) :- t(X, <p>, Y)", db.dict_mut()).unwrap();
//! let mut advisor = Advisor::builder(&db).build()?;
//! let rec = advisor.recommend(&[q.query])?;
//! let mut deployment = advisor.deploy(rec);
//!
//! // An ad-hoc query the workload never mentioned: a selection over the
//! // tuned predicate. The planner covers it from the views alone.
//! let adhoc = parse_query("a(X) :- t(X, <p>, <o1>)", db.dict_mut()).unwrap().query;
//! let plan = deployment.snapshot().plan(&adhoc)?;
//! assert!(plan.is_views_only());
//! let answers = deployment.snapshot().answer_query(&plan)?;
//! assert_eq!(answers, rdfviews::engine::evaluate(db.store(), &adhoc));
//!
//! // Maintenance between planning and execution? The plan still runs:
//! // plan *structure* (which views cover which atoms) is
//! // generation-independent, so it executes against the newly published
//! // generation and sees the insert.
//! # let s2 = db.dict().lookup_uri("s2").unwrap();
//! # let p = db.dict().lookup_uri("p").unwrap();
//! # let o1 = db.dict().lookup_uri("o1").unwrap();
//! let before = answers.len();
//! deployment.insert([s2, p, o1]);
//! assert_eq!(deployment.snapshot().answer_query(&plan)?.len(), before + 1);
//! # Ok::<(), rdfviews::core::SelectionError>(())
//! ```
//!
//! Under RDFS reasoning the planner stays entailment-complete: views-only
//! plans need no reformulation (the view tables hold the saturated
//! extensions, Theorem 4.2), saturation-mode deployments scan a saturated
//! base store, and pre/post-reformulation deployments reformulate a
//! hybrid plan's query per Theorem 4.1 — one plan branch per
//! reformulation branch — before letting it touch their original
//! (unsaturated) base store.
//!
//! ## Snapshot-isolated reads: pinned copy-on-write generations
//!
//! Every maintenance batch **publishes a generation**: an immutable
//! `Arc`'d pair of (base-store snapshot, view tables) swapped into place
//! in one atomic assignment. Readers pin a generation with
//! [`Deployment::snapshot`](exec::Deployment::snapshot) and keep
//! answering from it — wait-free, no locks held — while writers apply
//! batches and publish newer generations around them:
//!
//! ```
//! use rdfviews::prelude::*;
//! # use rdfviews::model::Term;
//! let mut db = Dataset::new();
//! # for i in 0..20 {
//! #   db.insert_terms(Term::uri(format!("s{i}")), Term::uri("p"), Term::uri(format!("o{}", i % 4)));
//! #   db.insert_terms(Term::uri(format!("s{i}")), Term::uri("q"), Term::uri("c"));
//! # }
//! let q = parse_query("q(X, Y) :- t(X, <p>, Y)", db.dict_mut()).unwrap();
//! let mut advisor = Advisor::builder(&db).build()?;
//! let rec = advisor.recommend(&[q.query])?;
//! let mut deployment = advisor.deploy(rec);
//! # let s2 = db.dict().lookup_uri("s2").unwrap();
//! # let p = db.dict().lookup_uri("p").unwrap();
//! # let o1 = db.dict().lookup_uri("o1").unwrap();
//! let adhoc = parse_query("a(X) :- t(X, <p>, <o1>)", db.dict_mut()).unwrap().query;
//!
//! // Pin the current generation: O(1) — one read-lock acquisition,
//! // `Arc` bumps only.
//! let pinned = deployment.snapshot();
//! let before = pinned.answer_adhoc(&adhoc)?;
//!
//! // A maintenance batch publishes a NEW generation; the pin is untouched.
//! deployment.insert_batch(&[[s2, p, o1]]);
//! assert_eq!(pinned.answer_adhoc(&adhoc)?, before); // pinned: as-of answers
//! assert_eq!(deployment.snapshot().answer_adhoc(&adhoc)?.len(), before.len() + 1); // re-pinned
//! assert!(pinned.version() < deployment.snapshot().version());
//!
//! // `SnapshotReader` is the `Send + Sync` handle to hand worker
//! // threads: each `snapshot()` call re-pins whatever generation the
//! // writer published most recently, without blocking it.
//! let reader = deployment.reader();
//! assert_eq!(reader.snapshot().version(), deployment.snapshot().version());
//! # Ok::<(), rdfviews::core::SelectionError>(())
//! ```
//!
//! The mechanics worth knowing:
//!
//! * **Copy-on-write, not copy.** A generation shares everything the
//!   batch did not touch with its predecessor: sorted index runs are
//!   advanced by merging the delta into `Arc`-shared runs, and unchanged
//!   view tables are the *same* `Arc<ViewTable>` objects — so their warm
//!   hash/sorted index caches keep accruing across generations. Memory
//!   per retained generation is proportional to the batch delta, not the
//!   database.
//! * **Pin release.** A generation stays alive exactly as long as some
//!   [`DeploymentSnapshot`](exec::DeploymentSnapshot) (or clone of one)
//!   holds it; dropping the last pin frees whatever that generation did
//!   not share with its neighbors. Long-lived pins are the one way to
//!   accumulate memory — re-pin via [`SnapshotReader`](exec::SnapshotReader)
//!   when you want the latest data.
//!
//! ## Maintenance quickstart: batched updates
//!
//! Update feeds go through
//! [`Deployment::insert_batch`](exec::Deployment::insert_batch) /
//! [`Deployment::delete_batch`](exec::Deployment::delete_batch): the whole batch
//! derives its RDFS consequences **once, from the batch alone** (each rule
//! has a single instance premise, so an insertion adds the forward closure
//! of its triples and a deletion re-checks only that closure), writes the
//! base store **once**, and runs **one** set-at-a-time delta join per view
//! — Δv = ⋃ᵢ π_head(a₁ ⋈ … ⋈ Δaᵢ ⋈ … ⋈ aₙ), the Δ set hash-indexed —
//! instead of one pass per triple. The returned
//! [`MaintenanceStats`](engine::MaintenanceStats) stamps `batches` so the
//! one-pass contract is observable; per-triple `insert`/`delete` are thin
//! delegates over singleton batches.
//!
//! The advisor session borrows its dataset, so the data cannot change
//! underneath its preparation; the deployment owns its own copy of the
//! store and is what absorbs the updates:
//!
//! ```
//! use rdfviews::prelude::*;
//! # use rdfviews::model::Term;
//! let mut db = Dataset::new();
//! # for i in 0..20 {
//! #   db.insert_terms(Term::uri(format!("s{i}")), Term::uri("p"), Term::uri(format!("o{}", i % 4)));
//! #   db.insert_terms(Term::uri(format!("s{i}")), Term::uri("q"), Term::uri("c"));
//! # }
//! let q = parse_query("q(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)", db.dict_mut()).unwrap();
//! let s = db.dict_mut().intern_uri("fresh");
//! let p = db.dict().lookup_uri("p").unwrap();
//! let qq = db.dict().lookup_uri("q").unwrap();
//! let o1 = db.dict().lookup_uri("o1").unwrap();
//! let c = db.dict().lookup_uri("c").unwrap();
//!
//! let mut advisor = Advisor::builder(&db).build()?;
//! let rec = advisor.recommend(&[q.query])?;
//! let mut deployment = advisor.deploy(rec);
//!
//! // A 2-triple feed: one maintenance pass, not two.
//! let stats = deployment.insert_batch(&[[s, p, o1], [s, qq, c]]);
//! assert_eq!(stats.batches, 1);
//! assert_eq!(deployment.snapshot().answer(0)?.len(), 6);
//! # Ok::<(), rdfviews::core::SelectionError>(())
//! ```
//!
//! With reasoning, the builder carries the schema and mode; `build`
//! saturates (or derives saturated statistics) once for the whole session.
//! `.parallelism(n)` is the session's one thread budget (`0` = one per
//! core): `recommend` runs each search with `n` explorer threads (work
//! stealing over a shared frontier), and `recommend_partitioned` runs
//! `min(n, groups)` sharing groups at once, each with the budget left
//! over per group as its explorers. Parallel runs visit states in a
//! different order but report the same best cost:
//!
//! ```no_run
//! # use rdfviews::prelude::*;
//! # let mut db = Dataset::new();
//! # let schema = Schema::new();
//! # let vocab = VocabIds::intern(db.dict_mut());
//! # let workload: Vec<ConjunctiveQuery> = vec![];
//! let mut advisor = Advisor::builder(&db)
//!     .schema(&schema, &vocab)
//!     .reasoning(ReasoningMode::PostReformulation)
//!     .strategy(StrategyKind::Dfs)
//!     .parallelism(4)
//!     .budget(std::time::Duration::from_secs(10))
//!     .build()?;
//! let rec = advisor.recommend(&workload)?;
//! let per_group = advisor.recommend_partitioned(&workload)?;
//! # Ok::<(), rdfviews::core::SelectionError>(())
//! ```
//!
//! Evolving workloads should go through
//! [`Advisor::recommend_incremental`](advisor::Advisor::recommend_incremental):
//! a ±1-query delta **warm-starts** the search from the previous best
//! state's surviving views, exploring a small neighborhood of the
//! previous optimum instead of the whole space (observable as far fewer
//! `created` states in the returned `SearchStats`).
//!
//! ## Durability quickstart: persist, open, recover
//!
//! A deployment can outlive its process.
//! [`Advisor::deploy_durable`](advisor::Advisor::deploy_durable) (or
//! [`Deployment::persist`](exec::Deployment::persist) on an existing
//! deployment) writes a **snapshot bundle** — a versioned, per-section
//! checksummed, content-hashed byte format holding the dictionary, base
//! store, recommendation, and materialized view tables — into a
//! directory, alongside a **write-ahead log**: every
//! [`DurableDeployment::insert_batch`](exec::DurableDeployment::insert_batch)
//! / `delete_batch` is CRC-framed and fsync'd *before* it is applied in
//! memory. After a crash,
//! [`DurableDeployment::recover`](exec::DurableDeployment::recover)
//! reloads the snapshot and replays the log suffix through the ordinary
//! maintenance path, reproducing the pre-crash state exactly — provable
//! via [`Deployment::content_hash`](exec::Deployment::content_hash). Torn
//! tail records (a crash mid-append) are dropped gracefully, and the log
//! is compacted into a fresh snapshot once it grows past a threshold.
//!
//! ```
//! use rdfviews::prelude::*;
//! # use rdfviews::model::Term;
//! # let dir = std::env::temp_dir().join(format!("rdfviews-doc-{}", std::process::id()));
//! let mut db = Dataset::new();
//! # for i in 0..20 {
//! #   db.insert_terms(Term::uri(format!("s{i}")), Term::uri("p"), Term::uri(format!("o{}", i % 4)));
//! #   db.insert_terms(Term::uri(format!("s{i}")), Term::uri("q"), Term::uri("c"));
//! # }
//! let q = parse_query("q(X) :- t(X, <p>, <o1>)", db.dict_mut()).unwrap();
//! let mut advisor = Advisor::builder(&db).build()?;
//! let rec = advisor.recommend(&[q.query])?;
//!
//! // Deploy durably: snapshot + write-ahead log in `dir`.
//! let mut durable = advisor.deploy_durable(rec, &dir)?;
//! let s = durable.dict_mut().intern(Term::uri("fresh"));
//! let p = durable.dict().lookup_uri("p").unwrap();
//! let o1 = durable.dict().lookup_uri("o1").unwrap();
//! durable.insert_batch(&[[s, p, o1]])?; // logged, fsync'd, then applied
//! let live_hash = durable.deployment().content_hash(durable.dict())?;
//! drop(durable); // simulate the process dying
//!
//! // Recover: snapshot + WAL replay ≡ the pre-crash deployment.
//! let (recovered, report) = DurableDeployment::recover(&dir)?;
//! assert_eq!(report.records_replayed, 1);
//! assert_eq!(report.state_hash, live_hash);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), rdfviews::core::SelectionError>(())
//! ```
//!
//! Bundles carry a format version (currently 2): a bundle written by a
//! different format version — or any flipped bit, anywhere in the file —
//! is refused at load time with the typed
//! [`SelectionError::CorruptBundle`](core::SelectionError::CorruptBundle),
//! never a wrong answer at query time. A bundle records the state and not
//! the history: triples and view rows are written sorted, as varint
//! differences, so the file is about a quarter of its in-memory size and
//! deployments that hold the same data hash equal however they got there. All filesystem failures surface as
//! [`SelectionError::Io`](core::SelectionError::Io); a strict WAL check
//! ([`Deployment::verify_wal`](exec::Deployment::verify_wal)) reports a
//! torn tail as
//! [`SelectionError::WalTornTail`](core::SelectionError::WalTornTail).
//!
//! The workspace crates map to the paper's components:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`model`] (`rdf-model`) | dictionary-encoded triple store, six permutation indexes |
//! | [`schema`] (`rdf-schema`) | RDFS statements, closure, database saturation |
//! | [`query`] (`rdf-query`) | conjunctive queries, containment, minimization, canonical forms |
//! | [`reform`] (`rdf-reform`) | query reformulation — Algorithm 1 / Theorems 4.1–4.2 |
//! | [`stats`] (`rdf-stats`) | workload statistics, cardinality estimation, post-reformulation statistics |
//! | [`engine`] (`rdf-engine`) | SPJ evaluation, view materialization, incremental maintenance |
//! | [`core`] (`rdfviews-core`) | states, transitions SC/JC/VB/VF, cost model, search strategies, prepared pipeline |
//! | [`workload`] (`rdfviews-workload`) | Barton-like dataset, star/chain/cycle/random/mixed workload generators |
//! | [`durability`] (`rdfviews-durability`) | snapshot bundle format, CRC-framed write-ahead log, content hashing |
//!
//! ## Code discipline: the `xlint` gate
//!
//! The workspace carries its own static analysis pass (`crates/xlint`, no
//! external dependencies) that machine-checks the invariants this tree
//! depends on. CI runs it as a required gate; run it locally with:
//!
//! ```text
//! cargo run -p xlint -- --deny-all
//! ```
//!
//! The rules, briefly (see `crates/xlint/src/rules.rs` for the catalog):
//!
//! | rule | checks |
//! |------|--------|
//! | X001 | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!` on non-test library paths — return [`SelectionError`](core::SelectionError) |
//! | X002 | every atomic op names an explicit `Ordering`; `SeqCst` needs a justification |
//! | X003 | `.lock()` / RwLock `.read()`/`.write()` results handle poisoning (no bare `.unwrap()`); one stripe lock per expression |
//! | X004 | no `HashMap`/`HashSet`/`SystemTime`/`Instant` in the byte-deterministic persistence codec |
//! | X005 | wire/section tag constants stay unique per namespace |
//! | X006 | every `unsafe` block carries a `// SAFETY:` comment |
//! | X007 | bench JSON fields validated by CI appear as literals in the bench source |
//!
//! Genuine exceptions are suppressed inline — the reason is mandatory and
//! the pragma covers its own line plus the next one:
//!
//! ```text
//! // xlint: allow(X001, reason = "slot index handed to exactly one worker")
//! ```

pub use rdf_engine as engine;
pub use rdf_model as model;
pub use rdf_query as query;
pub use rdf_reform as reform;
pub use rdf_schema as schema;
pub use rdf_stats as stats;
pub use rdfviews_core as core;
pub use rdfviews_durability as durability;
pub use rdfviews_workload as workload;

pub mod advisor;
pub mod exec;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::advisor::{parse_workload_queries, Advisor, AdvisorBuilder, WorkloadChange};
    pub use crate::core::{
        try_select_views, CostModel, CostWeights, Preparation, ReasoningMode, Recommendation,
        SearchConfig, SearchOutcome, SelectionError, SelectionOptions, State, StrategyKind,
    };
    pub use crate::engine::{
        evaluate, evaluate_union, materialize, Answers, MaintainedView, MaintenanceStats, ViewTable,
    };
    pub use crate::exec::{
        answer_query, materialize_recommendation, AnswerPolicy, Deployment, DeploymentSnapshot,
        DurableDeployment, MaterializedViews, PlannedBranch, QueryPlan, RecoveryReport,
        SnapshotReader,
    };
    pub use crate::model::{Dataset, Dictionary, Term, Triple, TripleStore};
    pub use crate::query::parser::parse_query;
    pub use crate::query::{ConjunctiveQuery, UnionQuery};
    pub use crate::reform::reformulate;
    pub use crate::schema::{saturate, Schema, SchemaStatement, VocabIds};
    pub use crate::stats::collect_stats;
    pub use crate::workload::{
        generate_barton, generate_satisfiable, generate_workload, BartonSpec, Commonality,
        SatisfiableSpec, Shape, WorkloadSpec,
    };
}
