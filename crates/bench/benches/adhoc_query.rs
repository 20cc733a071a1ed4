//! Ad-hoc query answering: plan + execute over the deployed views vs
//! direct evaluation on the base store.
//!
//! The bench tunes a deployment for a workload, then answers a mixed batch
//! of ad-hoc queries — workload-shaped specializations the views fully
//! cover, and queries over an untuned predicate that force hybrid plans —
//! under three strategies:
//!
//! * **views-only** — `AnswerPolicy::ViewsOnly` (coverable queries only);
//! * **hybrid** — `AnswerPolicy::Hybrid` (every query);
//! * **direct** — plain evaluation on the base store, no views.
//!
//! Correctness is asserted before timing: views-only and hybrid answers
//! must be set-equal to direct evaluation, query by query. Smoke mode
//! (`RDFVIEWS_SMOKE=1` or `--smoke`) shrinks the data so CI finishes fast;
//! the assertions still run.

use std::time::Instant;

use rdfviews::exec::QueryPlan;
use rdfviews::prelude::*;
use rdfviews_bench::Table;

fn time_it(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

fn main() {
    let smoke = std::env::var("RDFVIEWS_SMOKE").is_ok() || std::env::args().any(|a| a == "--smoke");
    let (entities, repeats) = if smoke {
        (300usize, 1usize)
    } else {
        (4_000, 25)
    };

    // -- Dataset: paintings → artists → cities, plus exhibition sites. ----
    let mut db = Dataset::new();
    let painted_by = db.dict_mut().intern_uri("paintedBy");
    let exhibited_in = db.dict_mut().intern_uri("exhibitedIn");
    let born_in = db.dict_mut().intern_uri("bornIn");
    let artists = entities / 8;
    for i in 0..entities {
        let painting = db.dict_mut().intern_uri(&format!("painting{i}"));
        let artist = db.dict_mut().intern_uri(&format!("artist{}", i % artists));
        let site = db.dict_mut().intern_uri(&format!("site{}", i % 12));
        db.store_mut().insert([painting, painted_by, artist]);
        db.store_mut().insert([painting, exhibited_in, site]);
    }
    for a in 0..artists {
        let artist = db.dict_mut().intern_uri(&format!("artist{a}"));
        let city = db.dict_mut().intern_uri(&format!("city{}", a % 5));
        db.store_mut().insert([artist, born_in, city]);
    }

    // -- Tuned workload (bornIn deliberately untuned). ---------------------
    let workload: Vec<ConjunctiveQuery> = [
        "q1(P, A) :- t(P, <paintedBy>, A)",
        "q2(P, M) :- t(P, <exhibitedIn>, M)",
        "q3(A, M) :- t(P, <paintedBy>, A), t(P, <exhibitedIn>, M)",
    ]
    .iter()
    .map(|s| parse_query(s, db.dict_mut()).unwrap().query)
    .collect();

    // -- Ad-hoc batch: coverable specializations + hybrid joins. ----------
    let coverable: Vec<ConjunctiveQuery> = (0..8)
        .map(|k| {
            parse_query(
                &format!(
                    "a{k}(P, M) :- t(P, <paintedBy>, <artist{}>), t(P, <exhibitedIn>, M)",
                    k % artists
                ),
                db.dict_mut(),
            )
            .unwrap()
            .query
        })
        .collect();
    let hybrid_only: Vec<ConjunctiveQuery> = (0..4)
        .map(|k| {
            parse_query(
                &format!(
                    "h{k}(P) :- t(P, <paintedBy>, A), t(A, <bornIn>, <city{}>)",
                    k % 5
                ),
                db.dict_mut(),
            )
            .unwrap()
            .query
        })
        .collect();

    let mut advisor = Advisor::builder(&db).build().expect("plain advisor");
    let rec = advisor.recommend(&workload).expect("recommendation");
    let dep = advisor.deploy(rec).expect("fresh session deploys");
    let snap = dep.snapshot();
    println!(
        "# adhoc_query: {} triples, {} views deployed, {} coverable + {} hybrid ad-hoc queries{}",
        db.len(),
        dep.view_count(),
        coverable.len(),
        hybrid_only.len(),
        if smoke { " [smoke]" } else { "" },
    );

    // -- Correctness gates before any timing. -----------------------------
    let mut views_only_plans: Vec<(QueryPlan, usize)> = Vec::new();
    for (qi, q) in coverable.iter().enumerate() {
        let plan = snap
            .plan_with(q, AnswerPolicy::ViewsOnly)
            .expect("coverable query must be views-only plannable");
        assert!(plan.is_views_only());
        let direct = evaluate(db.store(), q);
        assert_eq!(
            snap.answer_query(&plan).expect("fresh"),
            direct,
            "views-only answers must match direct evaluation (query {qi})"
        );
        views_only_plans.push((plan, qi));
    }
    let mut hybrid_plans: Vec<QueryPlan> = Vec::new();
    for q in coverable.iter().chain(hybrid_only.iter()) {
        let plan = snap.plan_with(q, AnswerPolicy::Hybrid).expect("plannable");
        let direct = evaluate(db.store(), q);
        assert_eq!(
            snap.answer_query(&plan).expect("fresh"),
            direct,
            "hybrid answers must match direct evaluation"
        );
        hybrid_plans.push(plan);
    }
    for q in &hybrid_only {
        assert!(
            matches!(
                snap.plan_with(q, AnswerPolicy::ViewsOnly),
                Err(SelectionError::NoViewsOnlyPlan { .. })
            ),
            "untuned predicate must be a typed views-only error"
        );
    }

    // -- Timed runs. ------------------------------------------------------
    let all: Vec<&ConjunctiveQuery> = coverable.iter().chain(hybrid_only.iter()).collect();
    let t_plan = time_it(|| {
        for _ in 0..repeats {
            for q in &all {
                let _ = snap.plan(q).expect("plannable");
            }
        }
    });
    let t_views = time_it(|| {
        for _ in 0..repeats {
            for (plan, _) in &views_only_plans {
                snap.answer_query(plan).expect("fresh");
            }
        }
    });
    let t_hybrid = time_it(|| {
        for _ in 0..repeats {
            for plan in &hybrid_plans {
                snap.answer_query(plan).expect("fresh");
            }
        }
    });
    let t_direct = time_it(|| {
        for _ in 0..repeats {
            for q in &all {
                evaluate(db.store(), q);
            }
        }
    });

    let table = Table::new(
        &["strategy", "queries", "total (s)", "per query (ms)"],
        &[12, 8, 10, 15],
    );
    let per = |t: f64, n: usize| format!("{:.3}", 1e3 * t / (repeats * n).max(1) as f64);
    table.row(&[
        "plan",
        &all.len().to_string(),
        &format!("{t_plan:.4}"),
        &per(t_plan, all.len()),
    ]);
    table.row(&[
        "views-only",
        &views_only_plans.len().to_string(),
        &format!("{t_views:.4}"),
        &per(t_views, views_only_plans.len()),
    ]);
    table.row(&[
        "hybrid",
        &hybrid_plans.len().to_string(),
        &format!("{t_hybrid:.4}"),
        &per(t_hybrid, hybrid_plans.len()),
    ]);
    table.row(&[
        "direct",
        &all.len().to_string(),
        &format!("{t_direct:.4}"),
        &per(t_direct, all.len()),
    ]);
    let per_query = |t: f64, n: usize| 1e3 * t / (repeats * n).max(1) as f64;
    rdfviews_bench::emit_bench_json(
        "adhoc_query",
        &[
            ("plan_per_query_ms", per_query(t_plan, all.len())),
            (
                "views_only_per_query_ms",
                per_query(t_views, views_only_plans.len()),
            ),
            (
                "hybrid_per_query_ms",
                per_query(t_hybrid, hybrid_plans.len()),
            ),
            ("direct_per_query_ms", per_query(t_direct, all.len())),
            ("triples", db.len() as f64),
        ],
    );
    println!("\n# views-only and hybrid answers verified set-equal to direct evaluation ✓");
}
