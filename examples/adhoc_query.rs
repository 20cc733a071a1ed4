//! Ad-hoc querying: answering queries that were **not** in the tuned
//! workload from an already-deployed recommendation.
//!
//! The advisor tunes a museum portal for its registered workload; then two
//! queries arrive that the workload never mentioned. The deployment's
//! planner rewrites them over the deployed views (bucket/MiniCon cover
//! verified by unfolding equivalence):
//!
//! * one is **fully view-covered** — answered from the views alone, no
//!   base store needed (the paper's offline-client story extended to
//!   ad-hoc queries);
//! * one touches a predicate no view kept — the planner emits a **hybrid**
//!   plan mixing a view scan with a base-store scan.
//!
//! Run with: `cargo run --example adhoc_query`

use rdfviews::prelude::*;

fn main() -> Result<(), SelectionError> {
    // -- 1. Museum data. ---------------------------------------------------
    let mut db = Dataset::new();
    let painted_by = db.dict_mut().intern_uri("museum:paintedBy");
    let exhibited_in = db.dict_mut().intern_uri("museum:exhibitedIn");
    let born_in = db.dict_mut().intern_uri("museum:bornIn");
    for i in 0..40 {
        let painting = db.dict_mut().intern_uri(&format!("museum:painting{i}"));
        let artist = db.dict_mut().intern_uri(&format!("museum:artist{}", i % 8));
        let site = db.dict_mut().intern_uri(&format!("museum:site{}", i % 5));
        db.store_mut().insert([painting, painted_by, artist]);
        db.store_mut().insert([painting, exhibited_in, site]);
    }
    for a in 0..8 {
        let artist = db.dict_mut().intern_uri(&format!("museum:artist{a}"));
        let city = db.dict_mut().intern_uri(&format!("museum:city{}", a % 3));
        db.store_mut().insert([artist, born_in, city]);
    }
    println!("triples: {}", db.len());

    // -- 2. Tune for the portal's registered workload. ---------------------
    let workload = vec![
        parse_query("q1(P, A) :- t(P, <museum:paintedBy>, A)", db.dict_mut())
            .unwrap()
            .query,
        parse_query("q2(P, M) :- t(P, <museum:exhibitedIn>, M)", db.dict_mut())
            .unwrap()
            .query,
        parse_query(
            "q3(A, M) :- t(P, <museum:paintedBy>, A), t(P, <museum:exhibitedIn>, M)",
            db.dict_mut(),
        )
        .unwrap()
        .query,
    ];

    // The ad-hoc queries arrive *after* tuning — neither is in `workload`.
    let covered = parse_query(
        "works(P, M) :- t(P, <museum:paintedBy>, <museum:artist3>), \
         t(P, <museum:exhibitedIn>, M)",
        db.dict_mut(),
    )
    .unwrap()
    .query;
    let hybrid = parse_query(
        "origin(P, C) :- t(P, <museum:paintedBy>, A), t(A, <museum:bornIn>, C)",
        db.dict_mut(),
    )
    .unwrap()
    .query;

    let mut advisor = Advisor::builder(&db).build()?;
    let rec = advisor.recommend(&workload)?;
    println!(
        "tuned: {} views for {} workload queries (rcr {:.2})",
        rec.views.len(),
        workload.len(),
        rec.rcr()
    );
    let deployment = advisor.deploy(rec);
    let snapshot = deployment.snapshot();

    // -- 3. Ad-hoc query #1: fully view-covered. ---------------------------
    let plan = snapshot.plan(&covered)?;
    println!("\nad-hoc #1 — works of artist3 and where they hang:");
    print!("{}", plan.describe(db.dict()));
    assert!(
        plan.is_views_only(),
        "the deployed views cover every atom of this query"
    );
    let answers = snapshot.answer_query(&plan)?;
    println!("answers: {}", answers.len());
    assert_eq!(answers, evaluate(db.store(), &covered));

    // -- 4. Ad-hoc query #2: hybrid (bornIn was never in any view). --------
    let plan = snapshot.plan(&hybrid)?;
    println!("\nad-hoc #2 — paintings and their artist's birth city:");
    print!("{}", plan.describe(db.dict()));
    assert!(!plan.is_views_only() && plan.residual_atoms() > 0);
    assert!(
        !plan.views_used().is_empty(),
        "the paintedBy atom still scans a view"
    );
    let answers = snapshot.answer_query(&plan)?;
    println!("answers: {}", answers.len());
    assert_eq!(answers, evaluate(db.store(), &hybrid));

    // Under the strict views-only policy the same query is a typed error,
    // never a wrong (or silently empty) result.
    let err = snapshot
        .plan_with(&hybrid, AnswerPolicy::ViewsOnly)
        .unwrap_err();
    println!("\nviews-only policy on ad-hoc #2: {err}");
    assert!(matches!(err, SelectionError::NoViewsOnlyPlan { .. }));

    println!("\nboth ad-hoc queries answered correctly from the deployment ✓");
    Ok(())
}
