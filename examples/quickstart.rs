//! Quickstart: open an advisor session, recommend views for a small
//! painter database and answer the workload from the deployed views alone.
//!
//! Run with: `cargo run --example quickstart`

use rdfviews::prelude::*;

fn main() -> Result<(), SelectionError> {
    // -- 1. Build a small RDF database (the paper's running example). ----
    let mut db = Dataset::new();
    let mut add = |s: &str, p: &str, o: &str| {
        db.insert_terms(Term::uri(s), Term::uri(p), Term::uri(o));
    };
    add("vanGogh", "hasPainted", "starryNight");
    add("vanGogh", "isParentOf", "vincentJr");
    add("vincentJr", "hasPainted", "sunflowerSketch");
    add("rembrandt", "hasPainted", "nightWatch");
    add("rembrandt", "isParentOf", "titus");
    add("titus", "hasPainted", "titusPortrait");
    for i in 0..40 {
        let painter = format!("painter{i}");
        db.insert_terms(
            Term::uri(painter.as_str()),
            Term::uri("hasPainted"),
            Term::uri(format!("work{i}")),
        );
    }

    // -- 2. The workload: q1 from the paper's Section 2. -----------------
    // "Painters that have painted Starry Night and having a child that is
    // also a painter, as well as the paintings of their children."
    let q1 = parse_query(
        "q1(X, Z) :- t(X, <hasPainted>, <starryNight>), t(X, <isParentOf>, Y), \
         t(Y, <hasPainted>, Z)",
        db.dict_mut(),
    )
    .expect("valid query");
    let workload = vec![q1.query];

    // -- 3. Open a session and select views (DFS-AVF-STV, the paper's
    //       best configuration, is the builder default). `.parallelism(2)`
    //       expands the search's state space on two explorer threads; the
    //       result is the same as a sequential run, just sooner. ---------
    let mut advisor = Advisor::builder(&db).parallelism(2).build()?;
    let rec = advisor.recommend(&workload)?;

    println!("== search ==");
    println!("initial state cost : {:.1}", rec.outcome.initial_cost);
    println!("best state cost    : {:.1}", rec.outcome.best_cost);
    println!("relative reduction : {:.1}%", rec.rcr() * 100.0);
    println!(
        "states created/dup/discarded: {}/{}/{}",
        rec.outcome.stats.created, rec.outcome.stats.duplicates, rec.outcome.stats.discarded
    );

    println!("\n== recommended views & rewritings ==");
    print!(
        "{}",
        rdfviews::core::display::state_to_string(&rec.outcome.best_state, db.dict())
    );

    // A second recommendation over the same workload reuses every cached
    // statistic — the session counter stays flat.
    let collected = advisor.stats_collections();
    advisor.recommend(&workload)?;
    assert_eq!(advisor.stats_collections(), collected);
    println!("\n(second recommend() reused all {collected} cached atom counts)");

    // -- 4. Deploy: materialize and answer the workload offline. ---------
    let deployment = advisor.deploy(rec);
    let snapshot = deployment.snapshot();
    println!("\n== deployment ==");
    println!(
        "{} views, {} total rows",
        deployment.view_count(),
        snapshot.tables().total_rows()
    );

    let answers = snapshot.answer(0)?;
    println!("\n== q1 answers (from views only) ==");
    for t in answers.rows() {
        let x = db.dict().term(t[0]);
        let z = db.dict().term(t[1]);
        println!("  X = {x}, Z = {z}");
    }

    // Sanity: identical to evaluating q1 directly on the triple table.
    let direct = evaluate(db.store(), &deployment.recommendation().workload[0]);
    assert_eq!(answers, direct);
    println!("\n(matches direct evaluation on the triple table)");
    Ok(())
}
