//! The ad-hoc query API: planning and answering arbitrary conjunctive
//! queries over a deployed recommendation.
//!
//! * **Workload parity** — for every workload query, `plan()` on a
//!   snapshot of the tuned deployment finds a views-only plan whose answers are set-equal to
//!   direct evaluation (and to the index-based `answer()` delegate).
//! * **Typed failure** — a query with no complete view cover is a
//!   `NoViewsOnlyPlan` error under the views-only policy, never a wrong or
//!   empty result; `BaseFallback` and `Hybrid` answer it correctly.
//! * **Soundness** — proptest: every views-only plan's unfolded rewriting
//!   is equivalent to the (minimized) input query, the same Definition-2.2
//!   yardstick the selection search itself uses.
//! * **Generations** — a plan made before maintenance executes on the
//!   newly published generation, while a snapshot pinned before it keeps
//!   serving the old one; re-planning on a fresh pin agrees with it.

use proptest::prelude::*;

use rdfviews::core::rewrite::{plan_component_count, query_component_count, unfold_plan};
use rdfviews::engine::evaluate;
use rdfviews::prelude::*;
use rdfviews::query::containment::equivalent;
use rdfviews::query::minimize;
use rdfviews::schema::saturated_copy;
use rdfviews::workload::generate_matching_data;

/// A dataset with three linked predicates: paintings → artists → cities,
/// plus an `unindexed` predicate the workload never touches.
fn museum() -> Dataset {
    let mut db = Dataset::new();
    let painted_by = db.dict_mut().intern_uri("paintedBy");
    let exhibited_in = db.dict_mut().intern_uri("exhibitedIn");
    let born_in = db.dict_mut().intern_uri("bornIn");
    for i in 0..36 {
        let painting = db.dict_mut().intern_uri(&format!("painting{i}"));
        let artist = db.dict_mut().intern_uri(&format!("artist{}", i % 6));
        let site = db.dict_mut().intern_uri(&format!("site{}", i % 4));
        db.store_mut().insert([painting, painted_by, artist]);
        db.store_mut().insert([painting, exhibited_in, site]);
    }
    for a in 0..6 {
        let artist = db.dict_mut().intern_uri(&format!("artist{a}"));
        let city = db.dict_mut().intern_uri(&format!("city{}", a % 2));
        db.store_mut().insert([artist, born_in, city]);
    }
    db
}

fn museum_workload(db: &mut Dataset) -> Vec<ConjunctiveQuery> {
    [
        "q1(P, A) :- t(P, <paintedBy>, A)",
        "q2(P, M) :- t(P, <exhibitedIn>, M)",
        "q3(A, M) :- t(P, <paintedBy>, A), t(P, <exhibitedIn>, M)",
    ]
    .iter()
    .map(|s| parse_query(s, db.dict_mut()).unwrap().query)
    .collect()
}

#[test]
fn every_workload_query_gets_a_views_only_plan() {
    let mut db = museum();
    let workload = museum_workload(&mut db);
    let mut advisor = Advisor::builder(&db).build().unwrap();
    let rec = advisor.recommend(&workload).unwrap();
    let views = rec.views.clone();
    let snap = advisor.deploy(rec).snapshot();
    for (idx, q) in workload.iter().enumerate() {
        let plan = snap
            .plan_with(q, AnswerPolicy::ViewsOnly)
            .unwrap_or_else(|e| panic!("workload query {idx} must be views-only plannable: {e}"));
        assert!(plan.is_views_only());
        assert_eq!(plan.residual_atoms(), 0);
        // The plan's unfolding is equivalent to the minimized query.
        for b in plan.branches() {
            assert!(equivalent(&unfold_plan(&views, &b.plan), &b.query));
        }
        // Ad-hoc answers == direct evaluation == the index-based delegate.
        let adhoc = snap.answer_query(&plan).unwrap();
        assert_eq!(adhoc, evaluate(db.store(), q), "query {idx}");
        assert_eq!(adhoc, snap.answer(idx).unwrap(), "query {idx}");
        assert!(plan.estimated_cost() > 0.0);
    }
}

#[test]
fn adhoc_specialization_is_views_only_and_correct() {
    let mut db = museum();
    let workload = museum_workload(&mut db);
    // Not in the workload: a selection + join over covered predicates.
    let adhoc = parse_query(
        "a(P, M) :- t(P, <paintedBy>, <artist2>), t(P, <exhibitedIn>, M)",
        db.dict_mut(),
    )
    .unwrap()
    .query;
    let mut advisor = Advisor::builder(&db).build().unwrap();
    let rec = advisor.recommend(&workload).unwrap();
    let snap = advisor.deploy(rec).snapshot();
    let plan = snap.plan(&adhoc).unwrap();
    assert!(plan.is_views_only());
    assert!(!plan.views_used().is_empty());
    assert_eq!(
        snap.answer_query(&plan).unwrap(),
        evaluate(db.store(), &adhoc)
    );
    let views_only = snap.plan_with(&adhoc, AnswerPolicy::ViewsOnly).unwrap();
    assert!(views_only.is_views_only());
    assert_eq!(
        snap.answer_query(&views_only).unwrap(),
        evaluate(db.store(), &adhoc)
    );
    assert_eq!(
        snap.answer_adhoc(&adhoc).unwrap(),
        evaluate(db.store(), &adhoc)
    );
}

#[test]
fn no_cover_is_a_typed_error_not_wrong_answers() {
    let mut db = museum();
    let workload = museum_workload(&mut db);
    // bornIn appears in no view: no complete views-only rewriting exists.
    let adhoc = parse_query("a(A, C) :- t(A, <bornIn>, C)", db.dict_mut())
        .unwrap()
        .query;
    let mut advisor = Advisor::builder(&db).build().unwrap();
    let rec = advisor.recommend(&workload).unwrap();
    let snap = advisor.deploy(rec).snapshot();

    let err = snap.plan_with(&adhoc, AnswerPolicy::ViewsOnly).unwrap_err();
    assert_eq!(err, SelectionError::NoViewsOnlyPlan { residual_atoms: 1 });

    // BaseFallback answers the whole query from the base store.
    let plan = snap.plan_with(&adhoc, AnswerPolicy::BaseFallback).unwrap();
    assert!(!plan.is_views_only());
    assert_eq!(plan.residual_atoms(), 1);
    assert!(plan.views_used().is_empty());
    assert_eq!(
        snap.answer_query(&plan).unwrap(),
        evaluate(db.store(), &adhoc)
    );
}

#[test]
fn hybrid_plans_mix_views_and_base_without_cross_products() {
    let mut db = museum();
    let workload = museum_workload(&mut db);
    // paintedBy is view-covered; bornIn must come from the base store.
    let adhoc = parse_query(
        "a(P, C) :- t(P, <paintedBy>, A), t(A, <bornIn>, C)",
        db.dict_mut(),
    )
    .unwrap()
    .query;
    let mut advisor = Advisor::builder(&db).build().unwrap();
    let rec = advisor.recommend(&workload).unwrap();
    let views = rec.views.clone();
    let snap = advisor.deploy(rec).snapshot();
    let plan = snap.plan_with(&adhoc, AnswerPolicy::Hybrid).unwrap();
    assert!(!plan.is_views_only());
    assert_eq!(plan.residual_atoms(), 1, "only bornIn needs the base store");
    assert_eq!(
        snap.plan_with(&adhoc, AnswerPolicy::ViewsOnly).unwrap_err(),
        SelectionError::NoViewsOnlyPlan { residual_atoms: 1 },
        "a join over an untuned predicate is a typed views-only error"
    );
    assert!(!plan.views_used().is_empty(), "paintedBy scans a view");
    for b in plan.branches() {
        assert!(equivalent(&unfold_plan(&views, &b.plan), &b.query));
        assert_eq!(
            plan_component_count(&b.plan),
            query_component_count(&b.query),
            "hybrid plans must not introduce cross products"
        );
    }
    assert_eq!(
        snap.answer_query(&plan).unwrap(),
        evaluate(db.store(), &adhoc)
    );
}

#[test]
fn unsafe_and_empty_queries_are_rejected() {
    let mut db = museum();
    let workload = museum_workload(&mut db);
    let mut advisor = Advisor::builder(&db).build().unwrap();
    let rec = advisor.recommend(&workload).unwrap();
    let snap = advisor.deploy(rec).snapshot();
    let empty = ConjunctiveQuery::new(vec![], vec![]);
    assert!(matches!(
        snap.plan(&empty).unwrap_err(),
        SelectionError::UnsupportedQuery { .. }
    ));
    use rdfviews::query::{Atom, QTerm, Var};
    let unsafe_q = ConjunctiveQuery::new(
        vec![QTerm::Var(Var(9))],
        vec![Atom::new(Var(0), Var(1), Var(2))],
    );
    assert!(matches!(
        snap.plan(&unsafe_q).unwrap_err(),
        SelectionError::UnsupportedQuery { .. }
    ));
}

#[test]
fn foreign_plans_are_refused() {
    let mut db = museum();
    let workload = museum_workload(&mut db);
    let adhoc = parse_query("a(P, A) :- t(P, <paintedBy>, A)", db.dict_mut())
        .unwrap()
        .query;
    // Two deployments over the SAME dataset (equal store versions): a plan
    // from one must not execute on the other — view ids are per-lineage.
    let mut advisor = Advisor::builder(&db).build().unwrap();
    let rec_a = advisor.recommend(&workload).unwrap();
    let rec_b = advisor.recommend(&workload[..1]).unwrap();
    let dep_a = advisor.deploy(rec_a);
    let dep_b = advisor.deploy(rec_b);
    let plan_a = dep_a.snapshot().plan(&adhoc).unwrap();
    assert_eq!(
        dep_b.snapshot().answer_query(&plan_a).unwrap_err(),
        SelectionError::ForeignPlan
    );
    // A clone shares the lineage: its plans stay valid.
    let clone_b = dep_b.clone();
    let plan_b = dep_b.snapshot().plan(&adhoc).unwrap();
    assert_eq!(
        clone_b.snapshot().answer_query(&plan_b).unwrap(),
        evaluate(db.store(), &adhoc)
    );
}

#[test]
fn oversized_queries_are_rejected_not_silently_degraded() {
    use rdfviews::query::{Atom, QTerm, Var};
    let mut db = museum();
    let workload = museum_workload(&mut db);
    let mut advisor = Advisor::builder(&db).build().unwrap();
    let rec = advisor.recommend(&workload).unwrap();
    let snap = advisor.deploy(rec).snapshot();
    // A 65-atom chain exceeds the planner's 64-atom coverage mask.
    let atoms: Vec<Atom> = (0..65u32)
        .map(|i| Atom::new(Var(i), rdf_model_id(1), Var(i + 1)))
        .collect();
    let big = ConjunctiveQuery::new(vec![QTerm::Var(Var(0))], atoms);
    for policy in [
        AnswerPolicy::ViewsOnly,
        AnswerPolicy::Hybrid,
        AnswerPolicy::BaseFallback,
    ] {
        assert!(matches!(
            snap.plan_with(&big, policy).unwrap_err(),
            SelectionError::UnsupportedQuery { .. }
        ));
    }
}

fn rdf_model_id(i: u32) -> rdfviews::model::Id {
    rdfviews::model::Id(i)
}

#[test]
fn old_plans_execute_on_new_generations() {
    let mut db = museum();
    let workload = museum_workload(&mut db);
    let adhoc = parse_query(
        "a(P, M) :- t(P, <paintedBy>, <artist2>), t(P, <exhibitedIn>, M)",
        db.dict_mut(),
    )
    .unwrap()
    .query;
    let painting = db.dict_mut().intern_uri("late-painting");
    let painted_by = db.dict().lookup_uri("paintedBy").unwrap();
    let exhibited_in = db.dict().lookup_uri("exhibitedIn").unwrap();
    let artist2 = db.dict().lookup_uri("artist2").unwrap();
    let site0 = db.dict().lookup_uri("site0").unwrap();

    let mut advisor = Advisor::builder(&db).build().unwrap();
    let rec = advisor.recommend(&workload).unwrap();
    let mut dep = advisor.deploy(rec);

    // A snapshot pinned before the batch serves the old generation…
    let pinned = dep.snapshot();
    let plan = pinned.plan(&adhoc).unwrap();
    let before = pinned.answer_query(&plan).unwrap();

    dep.insert_batch(&[
        [painting, painted_by, artist2],
        [painting, exhibited_in, site0],
    ]);

    // …while a fresh pin executes the *same* plan against the newly
    // published generation, answers current.
    let after = dep.snapshot().answer_query(&plan).unwrap();
    assert_eq!(after.len(), before.len() + 1);
    assert_eq!(after, evaluate(dep.store(), &adhoc));
    assert_eq!(pinned.answer_query(&plan).unwrap(), before);
}

/// Carrying a plan across maintenance and re-planning on a fresh pin are
/// interchangeable: both scan the same views and answer alike, through
/// an insert and the delete that undoes it.
#[test]
fn replanning_on_a_fresh_pin_agrees_with_the_carried_plan() {
    let mut db = museum();
    let workload = museum_workload(&mut db);
    let adhoc = parse_query(
        "a(P, M) :- t(P, <paintedBy>, <artist2>), t(P, <exhibitedIn>, M)",
        db.dict_mut(),
    )
    .unwrap()
    .query;
    let painting = db.dict_mut().intern_uri("late-painting");
    let painted_by = db.dict().lookup_uri("paintedBy").unwrap();
    let exhibited_in = db.dict().lookup_uri("exhibitedIn").unwrap();
    let artist2 = db.dict().lookup_uri("artist2").unwrap();
    let site0 = db.dict().lookup_uri("site0").unwrap();
    let batch = [
        [painting, painted_by, artist2],
        [painting, exhibited_in, site0],
    ];

    let mut advisor = Advisor::builder(&db).build().unwrap();
    let rec = advisor.recommend(&workload).unwrap();
    let mut dep = advisor.deploy(rec);
    let carried = dep.snapshot().plan(&adhoc).unwrap();
    let before = dep.snapshot().answer_query(&carried).unwrap();

    dep.insert_batch(&batch);
    let snap = dep.snapshot();
    let fresh = snap.plan(&adhoc).unwrap();
    assert_eq!(fresh.views_used(), carried.views_used());
    assert_eq!(fresh.branches().len(), carried.branches().len());
    let after = snap.answer_query(&fresh).unwrap();
    assert_eq!(after.len(), before.len() + 1);
    assert_eq!(after, snap.answer_query(&carried).unwrap());
    assert_eq!(after, evaluate(dep.store(), &adhoc));

    dep.delete_batch(&batch);
    let snap = dep.snapshot();
    let replanned = snap.plan(&adhoc).unwrap();
    assert_eq!(snap.answer_query(&replanned).unwrap(), before);
    assert_eq!(snap.answer_query(&carried).unwrap(), before);
}

#[test]
fn saturation_deployment_answers_adhoc_under_entailment() {
    let mut db = Dataset::new();
    let vocab = VocabIds::intern(db.dict_mut());
    let painting = db.dict_mut().intern_uri("Painting");
    let picture = db.dict_mut().intern_uri("Picture");
    let exhibited = db.dict_mut().intern_uri("exhibitedIn");
    let located = db.dict_mut().intern_uri("locatedIn");
    let mut schema = Schema::new();
    schema.add(SchemaStatement::SubClassOf(painting, picture));
    schema.add(SchemaStatement::SubPropertyOf(exhibited, located));
    for i in 0..20 {
        let x = db.dict_mut().intern_uri(&format!("item{i}"));
        let class = if i % 2 == 0 { painting } else { picture };
        db.store_mut().insert([x, vocab.rdf_type, class]);
        let site = db.dict_mut().intern_uri(&format!("site{}", i % 3));
        let prop = if i % 3 == 0 { exhibited } else { located };
        db.store_mut().insert([x, prop, site]);
    }
    let workload = vec![
        parse_query(
            "q(X, W) :- t(X, rdf:type, <Picture>), t(X, <locatedIn>, W)",
            db.dict_mut(),
        )
        .unwrap()
        .query,
    ];
    // Ad-hoc: a selection the workload never asked for.
    let adhoc = parse_query(
        "a(X) :- t(X, rdf:type, <Picture>), t(X, <locatedIn>, <site0>)",
        db.dict_mut(),
    )
    .unwrap()
    .query;
    let truth = {
        let sat = saturated_copy(db.store(), &schema, &vocab);
        evaluate(&sat, &adhoc)
    };
    let mut advisor = Advisor::builder(&db)
        .schema(&schema, &vocab)
        .reasoning(ReasoningMode::Saturation)
        .build()
        .unwrap();
    let rec = advisor.recommend(&workload).unwrap();
    let snap = advisor.deploy(rec).snapshot();
    let plan = snap.plan(&adhoc).unwrap();
    let answers = snap.answer_query(&plan).unwrap();
    assert_eq!(
        answers, truth,
        "the deployment's answers must include entailed triples"
    );
    assert!(answers.len() > evaluate(db.store(), &adhoc).len());
}

#[test]
fn post_reformulation_hybrid_reformulates_base_scans() {
    let mut db = Dataset::new();
    let vocab = VocabIds::intern(db.dict_mut());
    let painting = db.dict_mut().intern_uri("Painting");
    let picture = db.dict_mut().intern_uri("Picture");
    let exhibited = db.dict_mut().intern_uri("exhibitedIn");
    let located = db.dict_mut().intern_uri("locatedIn");
    let mut schema = Schema::new();
    schema.add(SchemaStatement::SubClassOf(painting, picture));
    schema.add(SchemaStatement::SubPropertyOf(exhibited, located));
    for i in 0..20 {
        let x = db.dict_mut().intern_uri(&format!("item{i}"));
        let class = if i % 2 == 0 { painting } else { picture };
        db.store_mut().insert([x, vocab.rdf_type, class]);
        let site = db.dict_mut().intern_uri(&format!("site{}", i % 3));
        let prop = if i % 3 == 0 { exhibited } else { located };
        db.store_mut().insert([x, prop, site]);
    }
    // The workload only covers the class atom; locatedIn stays uncovered,
    // so the ad-hoc join goes hybrid — and its base scans must be
    // reformulated (the base store is the *original* one).
    let workload = vec![
        parse_query("q(X) :- t(X, rdf:type, <Picture>)", db.dict_mut())
            .unwrap()
            .query,
    ];
    let adhoc = parse_query(
        "a(X, W) :- t(X, rdf:type, <Picture>), t(X, <locatedIn>, W)",
        db.dict_mut(),
    )
    .unwrap()
    .query;
    let truth = {
        let sat = saturated_copy(db.store(), &schema, &vocab);
        evaluate(&sat, &adhoc)
    };
    let mut advisor = Advisor::builder(&db)
        .schema(&schema, &vocab)
        .reasoning(ReasoningMode::PostReformulation)
        .build()
        .unwrap();
    let rec = advisor.recommend(&workload).unwrap();
    let snap = advisor.deploy(rec).snapshot();
    let plan = snap.plan(&adhoc).unwrap();
    assert!(!plan.is_views_only());
    assert!(
        plan.branches().len() > 1,
        "reformulation must expand the hybrid plan into branches"
    );
    let answers = snap.answer_query(&plan).unwrap();
    assert_eq!(
        answers, truth,
        "hybrid base scans must stay entailment-complete"
    );
    assert!(answers.len() > evaluate(db.store(), &adhoc).len());
}

/// Random workloads: recommend, deploy, and check that every workload
/// query gets a views-only plan whose unfolding is equivalent to the
/// minimized query and whose answers match direct evaluation.
fn prop_setup(seed: u64, shape: Shape, queries: usize) -> (Dataset, Vec<ConjunctiveQuery>) {
    let mut db = Dataset::new();
    let spec = WorkloadSpec::new(queries, 3, shape, Commonality::High).with_seed(seed);
    let workload = generate_workload(&spec, db.dict_mut());
    let (mut dict, mut store) = db.into_parts();
    generate_matching_data(&spec, &mut dict, &mut store, 400);
    (Dataset::from_parts(dict, store), workload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn views_only_plans_unfold_equivalent(seed in 0u64..500, queries in 1usize..3) {
        let (db, workload) = prop_setup(seed, Shape::Star, queries);
        let mut advisor = Advisor::builder(&db).build().unwrap();
        let rec = advisor.recommend(&workload).unwrap();
        let views = rec.views.clone();
        let snap = advisor.deploy(rec).snapshot();
        for (idx, q) in workload.iter().enumerate() {
            let plan = snap.plan_with(q, AnswerPolicy::ViewsOnly).unwrap();
            prop_assert!(plan.is_views_only());
            let minimized = minimize(q).normalized();
            for b in plan.branches() {
                prop_assert!(
                    equivalent(&unfold_plan(&views, &b.plan), &b.query),
                    "unfolded plan must be equivalent to its branch query"
                );
                prop_assert!(equivalent(&b.query, &minimized));
            }
            let adhoc = snap.answer_query(&plan).unwrap();
            prop_assert_eq!(&adhoc, &evaluate(db.store(), q));
            prop_assert_eq!(&adhoc, &snap.answer(idx).unwrap());
        }
    }
}
