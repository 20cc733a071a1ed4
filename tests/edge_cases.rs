//! Edge cases and failure-mode tests across the stack.

use rdfviews::core::transitions::{apply, enumerate, TransitionConfig, TransitionKind};
use rdfviews::core::{
    search, try_select_views, CostModel, CostWeights, PreparedReasoning, SearchConfig,
    SelectionOptions, State,
};
use rdfviews::engine::evaluate;
use rdfviews::exec::{answer_query, materialize_state, Deployment};
use rdfviews::model::{Dataset, Term};
use rdfviews::query::parser::parse_query;
use rdfviews::stats::collect_stats;

fn small_db() -> Dataset {
    let mut db = Dataset::new();
    for i in 0..20 {
        let s = format!("s{i}");
        db.insert_terms(
            Term::uri(s.as_str()),
            Term::uri("p"),
            Term::uri(format!("o{}", i % 4)),
        );
        db.insert_terms(
            Term::uri(s.as_str()),
            Term::uri("loves"),
            Term::uri(s.as_str()),
        );
    }
    db
}

#[test]
fn boolean_query_workload() {
    // A query with an empty head: the view exports nothing; the rewriting
    // is a zero-arity scan. Selection must still handle it gracefully.
    let mut db = small_db();
    let q = parse_query("q() :- t(X, <p>, <o1>)", db.dict_mut())
        .unwrap()
        .query;
    let workload = vec![q.clone()];
    let s0 = State::initial(&workload);
    s0.check_invariants().unwrap();
    // SC on the constants keeps the state well-formed.
    let cfg = TransitionConfig::default();
    for t in enumerate(&s0, TransitionKind::Sc, &cfg) {
        let s1 = apply(&s0, &t);
        s1.check_invariants().unwrap();
        let unfolded = rdfviews::core::unfold::unfold(&s1, 0);
        assert!(rdfviews::query::containment::equivalent(&unfolded, &q));
    }

    // Deployed, its view has no columns and answers as the store does: one
    // empty tuple for a true query, none for a false one — also once a
    // batch makes the false one true, and after a persist/open round trip.
    let never = parse_query("q() :- t(X, <p>, <o9>)", db.dict_mut())
        .unwrap()
        .query;
    let ids = |uris: [&str; 3]| uris.map(|u| db.dict().lookup_uri(u).unwrap());
    let making_true = ids(["s0", "p", "o9"]);
    for (query, holds) in [(&q, true), (&never, false)] {
        let rec = try_select_views(
            db.store(),
            db.dict(),
            None,
            std::slice::from_ref(query),
            &SelectionOptions::recommended(),
        )
        .unwrap();
        let agree = |dep: &Deployment| {
            let want = evaluate(dep.store(), query);
            let snap = dep.snapshot();
            assert_eq!(snap.answer(0).unwrap(), want, "{query:?}");
            assert_eq!(snap.answer_adhoc(query).unwrap(), want, "{query:?}");
            want.len()
        };
        let mut dep = Deployment::new(db.store(), rec, &PreparedReasoning::Plain);
        assert_eq!(agree(&dep), usize::from(holds));
        dep.insert_batch(&[making_true]);
        assert_eq!(agree(&dep), 1);
        let dir =
            std::env::temp_dir().join(format!("rdfviews-boolean-{}-{holds}", std::process::id()));
        dep.persist(&dir, db.dict()).unwrap();
        let (reopened, _) = Deployment::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(agree(&reopened), 1);
    }
}

#[test]
fn single_atom_single_query() {
    let mut db = small_db();
    let q = parse_query("q(X) :- t(X, <p>, <o2>)", db.dict_mut())
        .unwrap()
        .query;
    let rec = try_select_views(
        db.store(),
        db.dict(),
        None,
        &[q],
        &SelectionOptions::recommended(),
    )
    .unwrap();
    let ans = Deployment::new(db.store(), rec, &PreparedReasoning::Plain)
        .snapshot()
        .answer(0)
        .unwrap();
    assert_eq!(ans.len(), 5); // s2, s6, s10, s14, s18
}

#[test]
fn duplicate_queries_fuse() {
    // Identical queries should collapse onto one view via AVF.
    let mut db = small_db();
    let q1 = parse_query("q(X) :- t(X, <p>, Y)", db.dict_mut())
        .unwrap()
        .query;
    let q2 = parse_query("q2(A) :- t(A, <p>, B)", db.dict_mut())
        .unwrap()
        .query;
    let workload = vec![q1, q2];
    let cat = collect_stats(db.store(), db.dict(), &workload);
    let model = CostModel::new(&cat, CostWeights::default());
    let out = search(State::initial(&workload), &model, &SearchConfig::default());
    assert_eq!(out.best_state.view_count(), 1, "duplicates must fuse");
    let mv = materialize_state(db.store(), &out.best_state);
    for (i, q) in workload.iter().enumerate() {
        assert_eq!(
            answer_query(&out.best_state, &mv, i),
            evaluate(db.store(), q)
        );
    }
}

#[test]
fn intra_atom_repeated_variable() {
    // t(X, loves, X): the self-loop must survive transitions and evaluate
    // correctly through views.
    let mut db = small_db();
    let q = parse_query("q(X) :- t(X, <loves>, X), t(X, <p>, Y)", db.dict_mut())
        .unwrap()
        .query;
    let workload = vec![q.clone()];
    let cfg = TransitionConfig::default();
    let mut state = State::initial(&workload);
    // Cut every join, then check evaluation through materialized views.
    loop {
        let ts = enumerate(&state, TransitionKind::Jc, &cfg);
        let Some(t) = ts.first() else { break };
        state = apply(&state, t);
        state.check_invariants().unwrap();
    }
    let mv = materialize_state(db.store(), &state);
    assert_eq!(answer_query(&state, &mv, 0), evaluate(db.store(), &q));
    assert_eq!(answer_query(&state, &mv, 0).len(), 20);
}

#[test]
#[should_panic(expected = "unsafe")]
fn unsafe_query_rejected() {
    let mut db = small_db();
    let mut q = parse_query("q(X) :- t(X, <p>, Y)", db.dict_mut())
        .unwrap()
        .query;
    // Corrupt the head with a variable not in the body.
    q.head
        .push(rdfviews::query::QTerm::Var(rdfviews::query::Var(99)));
    let _ = State::initial(&[q]);
}

#[test]
fn empty_answer_query_still_rewrites() {
    // A satisfiable-looking query with zero matches: the machinery must
    // produce empty views and empty answers, not fail.
    let mut db = small_db();
    let q = parse_query("q(X) :- t(X, <p>, <nothingHasThis>)", db.dict_mut())
        .unwrap()
        .query;
    let rec = try_select_views(
        db.store(),
        db.dict(),
        None,
        &[q],
        &SelectionOptions::recommended(),
    )
    .unwrap();
    let snap = Deployment::new(db.store(), rec, &PreparedReasoning::Plain).snapshot();
    assert!(snap.answer(0).unwrap().is_empty());
}

#[test]
fn wide_star_smoke() {
    // A 14-atom star: transitions enumerate (clique graph!) without
    // blowing up, under a tight budget.
    let mut db = Dataset::new();
    let mut body = String::new();
    for i in 0..14 {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str(&format!("t(X, <p{i}>, Y{i})"));
    }
    let q = parse_query(&format!("q(X) :- {body}"), db.dict_mut())
        .unwrap()
        .query;
    for i in 0..14 {
        db.insert_terms(
            Term::uri("hub"),
            Term::uri(format!("p{i}")),
            Term::uri(format!("v{i}")),
        );
    }
    let workload = vec![q];
    let cat = collect_stats(db.store(), db.dict(), &workload);
    let model = CostModel::new(&cat, CostWeights::default());
    let out = search(
        State::initial(&workload),
        &model,
        &SearchConfig {
            time_budget: Some(std::time::Duration::from_millis(500)),
            max_states: Some(20_000),
            ..SearchConfig::default()
        },
    );
    assert!(out.best_cost <= out.initial_cost);
}

#[test]
fn state_budget_zero_returns_initial() {
    let mut db = small_db();
    let q = parse_query("q(X) :- t(X, <p>, <o1>)", db.dict_mut())
        .unwrap()
        .query;
    let workload = vec![q];
    let cat = collect_stats(db.store(), db.dict(), &workload);
    let model = CostModel::new(&cat, CostWeights::default());
    let out = search(
        State::initial(&workload),
        &model,
        &SearchConfig {
            max_states: Some(1),
            ..SearchConfig::default()
        },
    );
    assert!(out.stats.out_of_budget);
    assert_eq!(out.best_cost, out.initial_cost);
    // The initial state is still a valid recommendation.
    out.best_state.check_invariants().unwrap();
}

#[test]
fn literals_and_blank_nodes_in_data_and_queries() {
    let mut db = Dataset::new();
    db.insert_terms(
        Term::blank("b1"),
        Term::uri("label"),
        Term::literal("thing one"),
    );
    db.insert_terms(
        Term::blank("b2"),
        Term::uri("label"),
        Term::literal("thing two"),
    );
    db.insert_terms(Term::blank("b1"), Term::uri("linksTo"), Term::blank("b2"));
    let q = parse_query(
        "q(L) :- t(X, <linksTo>, Y), t(Y, <label>, L)",
        db.dict_mut(),
    )
    .unwrap()
    .query;
    let rec = try_select_views(
        db.store(),
        db.dict(),
        None,
        &[q],
        &SelectionOptions::recommended(),
    )
    .unwrap();
    let ans = Deployment::new(db.store(), rec, &PreparedReasoning::Plain)
        .snapshot()
        .answer(0)
        .unwrap();
    assert_eq!(ans.len(), 1);
    let lit = db.dict().lookup(&Term::literal("thing two")).unwrap();
    assert!(ans.contains(&[lit]));
}
