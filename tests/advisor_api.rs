//! Integration tests for the advisor session API: session reuse must be
//! observable (and agree with one-shot selection), every misconfiguration
//! must surface as a `SelectionError`, and deployments must answer and
//! maintain correctly.

use rdfviews::core::try_select_views_partitioned;
use rdfviews::model::Id;
use rdfviews::prelude::*;

fn painter_db() -> Dataset {
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

/// Two `recommend` calls on one session agree with two fresh
/// `try_select_views` calls, and the second call does zero statistics work.
#[test]
fn session_reuse_agrees_with_one_shot_selection() {
    let mut db = painter_db();
    let q = parse_query("q(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)", db.dict_mut())
        .unwrap()
        .query;
    let workload = vec![q];

    let mut advisor = Advisor::builder(&db).build().unwrap();
    let first = advisor.recommend(&workload).unwrap();
    let collected = advisor.stats_collections();
    assert!(collected > 0);
    let second = advisor.recommend(&workload).unwrap();
    assert_eq!(
        advisor.stats_collections(),
        collected,
        "second recommend must skip stats collection entirely"
    );

    let fresh1 = try_select_views(
        db.store(),
        db.dict(),
        None,
        &workload,
        &SelectionOptions::recommended(),
    )
    .unwrap();
    let fresh2 = try_select_views(
        db.store(),
        db.dict(),
        None,
        &workload,
        &SelectionOptions::recommended(),
    )
    .unwrap();
    for (session, fresh) in [(&first, &fresh1), (&second, &fresh2)] {
        assert_eq!(session.outcome.best_cost, fresh.outcome.best_cost);
        assert_eq!(
            session.outcome.best_state.signature(),
            fresh.outcome.best_state.signature()
        );
        assert_eq!(session.views.len(), fresh.views.len());
    }
}

/// Saturation happens once at build time, never per recommendation.
#[test]
fn saturation_cached_across_recommendations() {
    let (mut db, schema, vocab) = museum_db();
    let q = parse_query(
        "q(X1, X2) :- t(X1, rdf:type, picture), t(X1, isLocatIn, X2)",
        db.dict_mut(),
    )
    .unwrap()
    .query;
    let q2 = parse_query("q2(X) :- t(X, rdf:type, painting)", db.dict_mut())
        .unwrap()
        .query;
    let mut advisor = Advisor::builder(&db)
        .schema(&schema, &vocab)
        .reasoning(ReasoningMode::Saturation)
        .build()
        .unwrap();
    assert_eq!(advisor.saturation_runs(), 1);
    advisor.recommend(std::slice::from_ref(&q)).unwrap();
    let after_first = advisor.stats_collections();
    // A new query extends the catalog; the already-known one stays free.
    advisor.recommend(&[q.clone(), q2]).unwrap();
    assert!(advisor.stats_collections() > after_first);
    let after_second = advisor.stats_collections();
    advisor.recommend(std::slice::from_ref(&q)).unwrap();
    assert_eq!(advisor.stats_collections(), after_second);
    assert_eq!(advisor.saturation_runs(), 1, "saturation ran exactly once");
}

#[test]
fn missing_schema_is_err_not_panic() {
    let db = painter_db();
    for mode in [
        ReasoningMode::Saturation,
        ReasoningMode::PreReformulation,
        ReasoningMode::PostReformulation,
    ] {
        let err = Advisor::builder(&db).reasoning(mode).build().unwrap_err();
        assert_eq!(err, SelectionError::SchemaRequired(mode));
    }
}

#[test]
fn empty_workload_is_err() {
    let db = painter_db();
    let mut advisor = Advisor::builder(&db).build().unwrap();
    assert_eq!(
        advisor.recommend(&[]).unwrap_err(),
        SelectionError::EmptyWorkload
    );
    assert_eq!(
        advisor.recommend_partitioned(&[]).unwrap_err(),
        SelectionError::EmptyWorkload
    );
}

#[test]
fn strict_budget_is_err() {
    let mut db = painter_db();
    let q = parse_query("q(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)", db.dict_mut())
        .unwrap()
        .query;
    let mut advisor = Advisor::builder(&db)
        .strict_budget(true)
        .max_states(1)
        .build()
        .unwrap();
    assert!(matches!(
        advisor.recommend(&[q]).unwrap_err(),
        SelectionError::BudgetExhausted { .. }
    ));
}

fn query(db: &mut Dataset, text: &str) -> ConjunctiveQuery {
    parse_query(text, db.dict_mut()).unwrap().query
}

fn assert_unsupported(err: SelectionError, needle: &str) {
    match err {
        SelectionError::UnsupportedQuery { reason } => {
            assert!(reason.contains(needle), "reason: {reason}");
        }
        other => panic!("expected UnsupportedQuery, got {other:?}"),
    }
}

/// A workload query with a Cartesian product is refused as
/// `UnsupportedQuery` by every entry point before any search starts,
/// instead of panicking inside it; a query that minimization makes
/// connected is still tuned.
#[test]
fn cartesian_query_is_unsupported_not_a_panic() {
    let mut db = painter_db();
    let good = query(&mut db, "q(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)");
    let bad = query(&mut db, "qbad(X, A) :- t(X, <u1>, Y), t(A, <u2>, B)");
    // Y folds onto X under minimization: connected.
    let folds = query(&mut db, "qf(X) :- t(X, <p>, <o1>), t(Y, <p>, <o1>)");
    let workload = vec![good.clone(), bad.clone()];
    let opts = SelectionOptions::recommended();
    let cartesian = "workload query 1 contains a Cartesian product";

    let mut advisor = Advisor::builder(&db).build().unwrap();
    assert_unsupported(advisor.recommend(&workload).unwrap_err(), cartesian);
    assert_unsupported(
        advisor.recommend_partitioned(&workload).unwrap_err(),
        cartesian,
    );
    advisor
        .recommend_incremental(WorkloadChange::Add(good))
        .unwrap();
    let err = advisor
        .recommend_incremental(WorkloadChange::Add(bad))
        .unwrap_err();
    assert_unsupported(err, cartesian);
    assert_eq!(advisor.workload().len(), 1, "the failed change rolls back");
    let err = try_select_views(db.store(), db.dict(), None, &workload, &opts).unwrap_err();
    assert_unsupported(err, cartesian);
    let rec = advisor.recommend(&[folds]).unwrap();
    assert_eq!(rec.workload[0].atoms.len(), 1);

    // Under pre-reformulation every branch is checked.
    let (mut db, schema, vocab) = museum_db();
    let bad = query(
        &mut db,
        "qb(X, A) :- t(X, rdf:type, picture), t(A, isLocatIn, B)",
    );
    let mut advisor = Advisor::builder(&db)
        .schema(&schema, &vocab)
        .reasoning(ReasoningMode::PreReformulation)
        .build()
        .unwrap();
    let err = advisor.recommend(&[bad]).unwrap_err();
    assert_unsupported(err, "a reformulation of workload query 0");
}

/// Partitioned recommendation through the session answers the whole
/// workload and matches the one-shot partitioned entry point.
#[test]
fn partitioned_through_session() {
    let mut db = Dataset::new();
    for i in 0..40 {
        let s = format!("s{i}");
        db.insert_terms(
            Term::uri(s.as_str()),
            Term::uri(format!("p{}", i % 4)),
            Term::uri(format!("o{}", i % 5)),
        );
    }
    let queries = vec![
        parse_query("q0(X) :- t(X, <p0>, Y)", db.dict_mut())
            .unwrap()
            .query,
        parse_query("q1(X) :- t(X, <p1>, <o1>)", db.dict_mut())
            .unwrap()
            .query,
        parse_query("q2(X, Y) :- t(X, <p2>, Y)", db.dict_mut())
            .unwrap()
            .query,
    ];
    for parallelism in [1, 2] {
        let mut advisor = Advisor::builder(&db)
            .calibrate_cm(false)
            .parallelism(parallelism)
            .build()
            .unwrap();
        let rec = advisor.recommend_partitioned(&queries).unwrap();
        assert_eq!(rec.branch_of.len(), 3);
        let mut opts = SelectionOptions {
            calibrate_cm: false,
            ..Default::default()
        };
        opts.search.parallelism = parallelism;
        let joint =
            try_select_views_partitioned(db.store(), db.dict(), None, &queries, &opts).unwrap();
        assert_eq!(rec.outcome.best_cost, joint.outcome.best_cost);
        // Second run: catalog fully warm.
        let collected = advisor.stats_collections();
        advisor.recommend_partitioned(&queries).unwrap();
        assert_eq!(advisor.stats_collections(), collected);
    }
}

/// Deployments answer from the views alone and absorb inserts + deletes.
#[test]
fn deployment_lifecycle() {
    let mut db = painter_db();
    let q = parse_query("q(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)", db.dict_mut())
        .unwrap()
        .query;
    let mut advisor = Advisor::builder(&db).build().unwrap();
    let rec = advisor.recommend(std::slice::from_ref(&q)).unwrap();
    let mut deployment = advisor.deploy(rec);

    let direct = evaluate(db.store(), &deployment.recommendation().workload[0]);
    assert_eq!(deployment.snapshot().answer(0).unwrap(), direct);
    assert!(matches!(
        deployment.snapshot().answer(9).unwrap_err(),
        SelectionError::UnknownQuery { index: 9, len: 1 }
    ));

    // Feed an insert + delete cycle; the deployment stays consistent with
    // evaluation over its own maintained base store.
    let s = db.dict_mut().intern_uri("newbie");
    let p = db.dict().lookup_uri("p").unwrap();
    let qq = db.dict().lookup_uri("q").unwrap();
    let o1 = db.dict().lookup_uri("o1").unwrap();
    let c = db.dict().lookup_uri("c").unwrap();
    let before = deployment.snapshot().answer(0).unwrap().len();
    deployment.insert([s, p, o1]);
    deployment.insert([s, qq, c]);
    assert_eq!(deployment.snapshot().answer(0).unwrap().len(), before + 1);
    deployment.delete([s, p, o1]);
    assert_eq!(deployment.snapshot().answer(0).unwrap().len(), before);
    let fresh = evaluate(deployment.store(), &deployment.recommendation().workload[0]);
    assert_eq!(deployment.snapshot().answer(0).unwrap(), fresh);
}

/// Under saturation reasoning the deployment materializes over the
/// session's cached saturated copy, so implicit answers are preserved.
#[test]
fn deployment_under_saturation_keeps_implicit_answers() {
    let (mut db, schema, vocab) = museum_db();
    let q = parse_query(
        "q(X1, X2) :- t(X1, rdf:type, picture), t(X1, isLocatIn, X2)",
        db.dict_mut(),
    )
    .unwrap()
    .query;
    let saturated = rdfviews::schema::saturated_copy(db.store(), &schema, &vocab);
    let truth = evaluate(&saturated, &q);
    assert!(truth.len() > evaluate(db.store(), &q).len());
    for mode in [ReasoningMode::Saturation, ReasoningMode::PostReformulation] {
        let mut advisor = Advisor::builder(&db)
            .schema(&schema, &vocab)
            .reasoning(mode)
            .build()
            .unwrap();
        let rec = advisor.recommend(std::slice::from_ref(&q)).unwrap();
        let deployment = advisor.deploy(rec);
        assert_eq!(
            deployment.snapshot().answer(0).unwrap(),
            truth,
            "{mode:?} deployment must include implicit answers"
        );
    }
}

/// `deploy` follows the prepared reasoning: an ad-hoc query no view
/// covers reads the saturated base store under saturation, is
/// reformulated over the original store under either reformulation mode,
/// and sees only explicit triples in plain mode.
#[test]
fn adhoc_answers_follow_the_prepared_reasoning() {
    let (mut db, schema, vocab) = museum_db();
    let tuned = query(&mut db, "q(X) :- t(X, isLocatIn, museum0)");
    let adhoc = query(&mut db, "a(X) :- t(X, rdf:type, picture)");
    let saturated = rdfviews::schema::saturated_copy(db.store(), &schema, &vocab);
    let (implicit, explicit) = (evaluate(&saturated, &adhoc), evaluate(db.store(), &adhoc));
    assert!(implicit.len() > explicit.len());
    for mode in [
        ReasoningMode::Plain,
        ReasoningMode::Saturation,
        ReasoningMode::PreReformulation,
        ReasoningMode::PostReformulation,
    ] {
        let mut advisor = Advisor::builder(&db)
            .schema(&schema, &vocab)
            .reasoning(mode)
            .build()
            .unwrap();
        let rec = advisor.recommend(std::slice::from_ref(&tuned)).unwrap();
        let snapshot = advisor.deploy(rec).snapshot();
        assert!(!snapshot.plan(&adhoc).unwrap().is_views_only(), "{mode:?}");
        let want = if mode == ReasoningMode::Plain {
            &explicit
        } else {
            &implicit
        };
        assert_eq!(&snapshot.answer_adhoc(&adhoc).unwrap(), want, "{mode:?}");
    }
}

/// Saturation-mode deployments stay entailment-aware under updates: an
/// inserted triple carries its RDFS consequences into the views, and
/// deleting it retracts exactly the entailments that lose their last
/// derivation.
#[test]
fn saturation_deployment_maintains_entailments() {
    let (mut db, schema, vocab) = museum_db();
    // painting ⊑ picture, isExpIn ⊑p isLocatIn (from museum_db).
    let q = parse_query(
        "q(X1, X2) :- t(X1, rdf:type, picture), t(X1, isLocatIn, X2)",
        db.dict_mut(),
    )
    .unwrap()
    .query;
    let mut advisor = Advisor::builder(&db)
        .schema(&schema, &vocab)
        .reasoning(ReasoningMode::Saturation)
        .build()
        .unwrap();
    let rec = advisor.recommend(std::slice::from_ref(&q)).unwrap();
    let mut deployment = advisor.deploy(rec);
    let before = deployment.snapshot().answer(0).unwrap().len();

    // A new *painting* exhibited somewhere: only entailment makes it a
    // picture located there.
    let item = db.dict_mut().intern_uri("freshItem");
    let museum = db.dict_mut().intern_uri("freshMuseum");
    let painting = db.dict().lookup_uri("painting").unwrap();
    let is_exp_in = db.dict().lookup_uri("isExpIn").unwrap();
    let rdf_type = vocab.rdf_type;
    deployment.insert([item, rdf_type, painting]);
    deployment.insert([item, is_exp_in, museum]);
    let after = deployment.snapshot().answer(0).unwrap();
    assert_eq!(after.len(), before + 1, "entailed answer must appear");
    assert!(after.contains(&[item, museum]));

    // Retracting the explicit membership removes the entailed one too.
    deployment.delete([item, rdf_type, painting]);
    let reverted = deployment.snapshot().answer(0).unwrap();
    assert_eq!(reverted.len(), before, "entailed answer must retract");
    // And the base store agrees with a from-scratch saturation of the
    // corresponding explicit state.
    let mut explicit = db.store().clone();
    explicit.insert([item, is_exp_in, museum]);
    let resat = rdfviews::schema::saturated_copy(&explicit, &schema, &vocab);
    assert_eq!(deployment.store().len(), resat.len());

    // Deleting an implicit triple directly is a no-op: it has no explicit
    // counterpart to retract.
    let picture = db.dict().lookup_uri("picture").unwrap();
    let item0 = db.dict().lookup_uri("item0").unwrap(); // a painting ⇒ implicit picture
    let stats = deployment.delete([item0, rdf_type, picture]);
    assert_eq!(stats, MaintenanceStats::default());
}

/// A failed incremental recommendation must not commit the workload
/// change, so a retry does not duplicate the query.
#[test]
fn incremental_add_rolls_back_on_failure() {
    let mut db = painter_db();
    let q = parse_query("q(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)", db.dict_mut())
        .unwrap()
        .query;
    let mut advisor = Advisor::builder(&db)
        .strict_budget(true)
        .max_states(1)
        .build()
        .unwrap();
    let err = advisor
        .recommend_incremental(WorkloadChange::Add(q.clone()))
        .unwrap_err();
    assert!(matches!(err, SelectionError::BudgetExhausted { .. }));
    assert!(advisor.workload().is_empty(), "failed Add must roll back");
    // Retry with a workable budget: exactly one copy of the query.
    advisor = Advisor::builder(&db).build().unwrap();
    advisor
        .recommend_incremental(WorkloadChange::Add(q))
        .unwrap();
    assert_eq!(advisor.workload().len(), 1);
}

/// The incremental workload session: add/remove queries without paying
/// for re-collection of what is already known.
#[test]
fn incremental_workload_session() {
    let mut db = painter_db();
    let q0 = parse_query("q0(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)", db.dict_mut())
        .unwrap()
        .query;
    let q1 = parse_query("q1(X, Y) :- t(X, <p>, Y)", db.dict_mut())
        .unwrap()
        .query;
    let mut advisor = Advisor::builder(&db).build().unwrap();
    let r0 = advisor
        .recommend_incremental(WorkloadChange::Add(q0))
        .unwrap();
    let r01 = advisor
        .recommend_incremental(WorkloadChange::Add(q1))
        .unwrap();
    assert_eq!(r01.original_query_count(), 2);
    let warm = advisor.stats_collections();
    let back = advisor
        .recommend_incremental(WorkloadChange::Remove(1))
        .unwrap();
    assert_eq!(advisor.stats_collections(), warm);
    assert_eq!(back.outcome.best_cost, r0.outcome.best_cost);
    assert_eq!(advisor.workload().len(), 1);
}

/// Warm-started incremental search: after a ±1-query workload delta, the
/// frontier is seeded from the previous best state's surviving views, so
/// the search (a) never recommends worse than a cold run over the new
/// workload, and (b) creates strictly fewer states getting there.
#[test]
fn incremental_warm_start_is_no_worse_and_cheaper() {
    let mut db = painter_db();
    for i in 0..30 {
        db.insert_terms(
            Term::uri(format!("s{i}")),
            Term::uri("r"),
            Term::uri(format!("v{}", i % 2)),
        );
    }
    // q0 and q1 are isomorphic (View Fusion improves on S0), so the
    // session's previous best state is a genuinely non-initial seed.
    let q0 = parse_query("q0(X) :- t(X, <p>, Y), t(X, <q>, <c>)", db.dict_mut())
        .unwrap()
        .query;
    let q1 = parse_query("q1(A) :- t(A, <p>, B), t(A, <q>, <c>)", db.dict_mut())
        .unwrap()
        .query;
    let q2 = parse_query("q2(X, Y) :- t(X, <r>, Y), t(X, <q>, <c>)", db.dict_mut())
        .unwrap()
        .query;

    // Cold baselines from a throwaway session, one per workload.
    let cold = |workload: &[ConjunctiveQuery]| {
        let mut advisor = Advisor::builder(&db).build().unwrap();
        advisor.recommend(workload).unwrap()
    };
    let cold_012 = cold(&[q0.clone(), q1.clone(), q2.clone()]);
    let cold_02 = cold(&[q0.clone(), q2.clone()]);

    // Warm session: grow the workload one query at a time, then shrink.
    let mut advisor = Advisor::builder(&db).build().unwrap();
    advisor
        .recommend_incremental(WorkloadChange::Add(q0))
        .unwrap();
    advisor
        .recommend_incremental(WorkloadChange::Add(q1))
        .unwrap();
    let warm_add = advisor
        .recommend_incremental(WorkloadChange::Add(q2))
        .unwrap();
    assert!(
        warm_add.outcome.best_cost <= cold_012.outcome.best_cost + 1e-9,
        "warm add: {} vs cold {}",
        warm_add.outcome.best_cost,
        cold_012.outcome.best_cost
    );
    assert!(
        warm_add.outcome.stats.created < cold_012.outcome.stats.created,
        "warm add created {} vs cold {}",
        warm_add.outcome.stats.created,
        cold_012.outcome.stats.created
    );

    let warm_remove = advisor
        .recommend_incremental(WorkloadChange::Remove(1))
        .unwrap();
    assert!(
        warm_remove.outcome.best_cost <= cold_02.outcome.best_cost + 1e-9,
        "warm remove: {} vs cold {}",
        warm_remove.outcome.best_cost,
        cold_02.outcome.best_cost
    );
    assert!(
        warm_remove.outcome.stats.created < cold_02.outcome.stats.created,
        "warm remove created {} vs cold {}",
        warm_remove.outcome.stats.created,
        cold_02.outcome.stats.created
    );
    assert_eq!(advisor.workload().len(), 2);
    warm_remove.outcome.best_state.check_invariants().unwrap();
}

/// Deployments can be interrogated for raw tuples (dictionary ids stay
/// valid across the whole lifecycle).
#[test]
fn deployment_tuples_decode() {
    let mut db = painter_db();
    let q = parse_query("q(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)", db.dict_mut())
        .unwrap()
        .query;
    let mut advisor = Advisor::builder(&db).build().unwrap();
    let rec = advisor.recommend(&[q]).unwrap();
    let deployment = advisor.deploy(rec);
    let answers = deployment.snapshot().answer(0).unwrap();
    for tuple in answers.tuples() {
        let term = db.dict().term(tuple[0]);
        assert!(term.to_string().contains('s'), "unexpected term {term}");
    }
    let ids: Vec<Id> = answers.tuples().iter().map(|t| t[0]).collect();
    assert_eq!(ids.len(), answers.len());
}
