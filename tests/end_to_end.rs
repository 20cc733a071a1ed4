//! End-to-end pipeline tests on Barton-like data: every reasoning mode
//! must produce views from which the complete answers (w.r.t. RDFS
//! entailment) of every workload query can be computed.

use rdfviews::core::{
    try_select_views, PreparedReasoning, ReasoningMode, SearchConfig, SelectionOptions,
};
use rdfviews::engine::evaluate;
use rdfviews::exec::Deployment;
use rdfviews::schema::saturated_copy;
use rdfviews::workload::{
    generate_barton, generate_satisfiable, BartonSpec, SatisfiableSpec, Shape,
};

fn options(mode: ReasoningMode) -> SelectionOptions {
    SelectionOptions {
        reasoning: mode,
        calibrate_cm: true,
        search: SearchConfig {
            time_budget: Some(std::time::Duration::from_secs(4)),
            ..SearchConfig::default()
        },
        ..Default::default()
    }
}

#[test]
fn all_reasoning_modes_return_complete_answers() {
    let data = generate_barton(&BartonSpec::tiny());
    let workload = generate_satisfiable(&data.db, &SatisfiableSpec::new(3, 3, Shape::Mixed));
    let saturated = saturated_copy(data.db.store(), &data.schema, &data.vocab);

    for mode in [
        ReasoningMode::Saturation,
        ReasoningMode::PreReformulation,
        ReasoningMode::PostReformulation,
    ] {
        let rec = try_select_views(
            data.db.store(),
            data.db.dict(),
            Some((&data.schema, &data.vocab)),
            &workload,
            &options(mode),
        )
        .unwrap();
        rec.outcome.best_state.check_invariants().unwrap();
        let snap = match mode {
            ReasoningMode::Saturation => {
                Deployment::new(&saturated, rec, &PreparedReasoning::Plain)
            }
            _ => Deployment::new(data.db.store(), rec, &PreparedReasoning::Plain),
        }
        .snapshot();
        for (qi, q) in workload.iter().enumerate() {
            let truth = evaluate(&saturated, &q.normalized());
            let got = snap.answer(qi).unwrap();
            assert_eq!(got, truth, "{mode:?}, query {qi}");
        }
    }
}

#[test]
fn plain_mode_matches_non_saturated_evaluation() {
    let data = generate_barton(&BartonSpec::tiny());
    let workload = generate_satisfiable(&data.db, &SatisfiableSpec::new(3, 3, Shape::Star));
    let rec = try_select_views(
        data.db.store(),
        data.db.dict(),
        None,
        &workload,
        &options(ReasoningMode::Plain),
    )
    .unwrap();
    let snap = Deployment::new(data.db.store(), rec, &PreparedReasoning::Plain).snapshot();
    for (qi, q) in workload.iter().enumerate() {
        let truth = evaluate(data.db.store(), &q.normalized());
        assert_eq!(snap.answer(qi).unwrap(), truth, "query {qi}");
    }
}

#[test]
fn post_reformulation_views_match_saturation_views_materially() {
    // Theorem 4.2 applied to views: materializing the reformulated views
    // over D equals materializing the plain views over saturate(D).
    let data = generate_barton(&BartonSpec::tiny());
    let workload = generate_satisfiable(&data.db, &SatisfiableSpec::new(2, 3, Shape::Chain));
    let saturated = saturated_copy(data.db.store(), &data.schema, &data.vocab);

    let rec = try_select_views(
        data.db.store(),
        data.db.dict(),
        Some((&data.schema, &data.vocab)),
        &workload,
        &options(ReasoningMode::PostReformulation),
    )
    .unwrap();
    for (view, union) in rec.views.iter().zip(rec.materialization.iter()) {
        let via_reform = rdfviews::engine::materialize_union(data.db.store(), union);
        let via_saturation = rdfviews::engine::materialize(&saturated, &view.as_query());
        let rows = |t: &rdfviews::engine::ViewTable| {
            let mut v: Vec<Vec<rdfviews::model::Id>> = t.rows().map(|r| r.to_vec()).collect();
            v.sort();
            v
        };
        assert_eq!(rows(&via_reform), rows(&via_saturation), "view {}", view.id);
    }
}

#[test]
fn pre_reformulation_search_is_larger_than_post() {
    // Section 6.5's qualitative claim: the pre-reformulated initial state
    // is bigger (more views, more rewritings) than the post-reformulated
    // one, which simply keeps the original workload.
    let data = generate_barton(&BartonSpec::tiny());
    let workload = generate_satisfiable(&data.db, &SatisfiableSpec::new(3, 3, Shape::Mixed));
    let pre = try_select_views(
        data.db.store(),
        data.db.dict(),
        Some((&data.schema, &data.vocab)),
        &workload,
        &options(ReasoningMode::PreReformulation),
    )
    .unwrap();
    let post = try_select_views(
        data.db.store(),
        data.db.dict(),
        Some((&data.schema, &data.vocab)),
        &workload,
        &options(ReasoningMode::PostReformulation),
    )
    .unwrap();
    assert!(pre.workload.len() > post.workload.len());
    assert_eq!(post.workload.len(), workload.len());
}

#[test]
fn partitioned_selection_returns_complete_answers() {
    // The Section 8 parallelization: group-wise search must still cover
    // the whole workload with complete (entailment-aware) answers.
    let data = generate_barton(&BartonSpec::tiny());
    let workload = generate_satisfiable(&data.db, &SatisfiableSpec::new(4, 3, Shape::Mixed));
    let saturated = saturated_copy(data.db.store(), &data.schema, &data.vocab);
    for parallelism in [1, 2] {
        let mut opts = options(ReasoningMode::PostReformulation);
        opts.search.parallelism = parallelism;
        let rec = rdfviews::core::try_select_views_partitioned(
            data.db.store(),
            data.db.dict(),
            Some((&data.schema, &data.vocab)),
            &workload,
            &opts,
        )
        .unwrap();
        rec.outcome.best_state.check_invariants().unwrap();
        let snap = Deployment::new(data.db.store(), rec, &PreparedReasoning::Plain).snapshot();
        for (qi, q) in workload.iter().enumerate() {
            let truth = evaluate(&saturated, &q.normalized());
            assert_eq!(
                snap.answer(qi).unwrap(),
                truth,
                "parallelism={parallelism}, query {qi}"
            );
        }
    }
}

#[test]
fn recommendation_views_all_used() {
    // Definition 2.3 (ii): every view participates in at least one
    // rewriting — checked on the *final* recommendation.
    let data = generate_barton(&BartonSpec::tiny());
    let workload = generate_satisfiable(&data.db, &SatisfiableSpec::new(4, 4, Shape::Mixed));
    let rec = try_select_views(
        data.db.store(),
        data.db.dict(),
        Some((&data.schema, &data.vocab)),
        &workload,
        &options(ReasoningMode::PostReformulation),
    )
    .unwrap();
    let used: std::collections::HashSet<_> = rec
        .outcome
        .best_state
        .rewritings()
        .iter()
        .flat_map(|r| r.views_used())
        .collect();
    for v in &rec.views {
        assert!(used.contains(&v.id), "view {} unused", v.id);
    }
}
