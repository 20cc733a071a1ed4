//! Workload partitioning — the paper's future-work direction implemented:
//! "we consider parallelizing our view search algorithms by identifying
//! workload queries that do not have many commonalities and running the
//! search in parallel for each group" (Section 8).
//!
//! Queries are grouped into connected components of a *sharing graph*:
//! two queries are connected when they share an atom shape (same
//! constants, same variable-repetition pattern — the unit View Fusion can
//! factorize across queries). Since no transition can fuse views of
//! queries in different components, searching the components independently
//! loses nothing; the component searches are embarrassingly parallel.
//!
//! The group searches run on one **bounded worker pool** sized by the one
//! thread budget, [`crate::search::SearchConfig::parallelism`] (`0` = one
//! thread per core): `pool = min(budget, groups)` groups run at once,
//! each with `max(budget / pool, 1)` explorers of its own, so one giant
//! sharing group (the Barton-style common case) still gets the whole
//! budget. A budget of 1 runs the groups one after another on the calling
//! thread. Groups are dispatched **largest first** (total body atoms), so
//! the heaviest search starts first and small groups backfill the
//! remaining workers. A group search that panics is captured per group
//! and surfaced as [`SelectionError::SearchPanicked`] instead of aborting
//! the process.

use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rdf_model::{Dictionary, FxHashMap, TripleStore};
use rdf_query::{ConjunctiveQuery, UnionQuery};
use rdf_schema::{Schema, VocabIds};
use rdf_stats::{AtomKey, StatsCatalog};

use crate::error::SelectionError;
use crate::pipeline::{
    check_session, effective_workload, search_session, Preparation, Recommendation,
    SelectionOptions,
};
use crate::search::{SearchOutcome, SearchStats};
use crate::state::State;

/// Groups workload queries into sharing components. Returns the groups as
/// sorted index lists, ordered by smallest member.
pub fn partition_workload(queries: &[ConjunctiveQuery]) -> Vec<Vec<usize>> {
    group_by_shared_keys(queries.iter().map(|q| q.atoms.iter().map(AtomKey::of)))
}

/// The one union-find of the crate: groups the items that share a key.
/// Item `i` carries the `i`-th key list; items sharing a key, directly or
/// through other items, land in one group. Returns the groups as sorted
/// index lists, ordered by smallest member.
pub(crate) fn group_by_shared_keys<K, I>(items: impl IntoIterator<Item = I>) -> Vec<Vec<usize>>
where
    K: Hash + Eq,
    I: IntoIterator<Item = K>,
{
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut parent: Vec<usize> = Vec::new();
    let mut owner: FxHashMap<K, usize> = FxHashMap::default();
    for (i, keys) in items.into_iter().enumerate() {
        parent.push(i);
        for key in keys {
            let other = *owner.entry(key).or_insert(i);
            let (a, b) = (find(&mut parent, i), find(&mut parent, other));
            parent[a] = b;
        }
    }
    let mut group_of_root = vec![usize::MAX; parent.len()];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..parent.len() {
        let root = find(&mut parent, i);
        if group_of_root[root] == usize::MAX {
            group_of_root[root] = groups.len();
            groups.push(Vec::new());
        }
        groups[group_of_root[root]].push(i);
    }
    groups
}

/// Runs view selection per sharing group through a prepared session, on
/// the worker pool that `options.search.parallelism` sizes (see the
/// module docs), and merges the results into one recommendation covering
/// the full workload.
///
/// The session's catalog is topped up for **all** groups first
/// (sequentially), so the group searches share one read-only
/// [`Preparation`] across threads instead of recollecting statistics per
/// group — the saturated copy and every atom count are computed at most
/// once for the session's lifetime.
///
/// The merged `outcome` aggregates costs and counters across groups; its
/// `best_state` holds every group's views and rewritings, with
/// `branch_of` mapping each rewriting back to its original query index.
pub fn select_views_partitioned_session(
    prep: &mut Preparation<'_>,
    workload: &[ConjunctiveQuery],
    options: &SelectionOptions,
) -> Result<Recommendation, SelectionError> {
    check_session(prep, workload, options)?;
    let groups = partition_workload(workload);
    // Phase 1, sequential: effective workloads and catalog top-up.
    let mut jobs: Vec<GroupJob> = Vec::with_capacity(groups.len());
    for group in &groups {
        let queries = group.iter().map(|&i| (i, &workload[i]));
        let (effective, branch_of) = effective_workload(prep.prepared(), queries)?;
        prep.extend(&effective);
        jobs.push((effective, branch_of));
    }
    // Phase 2: group searches, read-only on the shared session.
    let recs = run_group_scheduler(prep, jobs, options)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    merge_recommendations(recs)
}

/// One group's prepared search input: its effective workload and the
/// original query index of each entry.
type GroupJob = (Vec<ConjunctiveQuery>, Vec<usize>);

/// Runs the group searches on `min(budget, groups)` workers, largest
/// group first, each with `max(budget / pool, 1)` explorers, capturing
/// per-group panics. Results come back in group order.
fn run_group_scheduler(
    prep: &Preparation<'_>,
    jobs: Vec<GroupJob>,
    options: &SelectionOptions,
) -> Vec<Result<Recommendation, SelectionError>> {
    let budget = options.search.effective_parallelism();
    let pool = budget.min(jobs.len()).max(1);
    let mut group_options = options.clone();
    group_options.search.parallelism = (budget / pool).max(1);
    // Total body atoms drive a group's search-space size.
    let atoms = |job: &GroupJob| job.0.iter().map(|q| q.atoms.len()).sum();
    crate::sync::ordered_map(jobs, pool, atoms, |(effective, branch_of)| {
        catch_unwind(AssertUnwindSafe(|| {
            search_session(prep, effective, branch_of, &group_options)
        }))
        .unwrap_or_else(|payload| {
            Err(SelectionError::SearchPanicked {
                detail: panic_detail(payload.as_ref()),
            })
        })
    })
}

/// Stringifies a captured panic payload (`&str` and `String` payloads are
/// the common cases; anything else reports its type opaquely).
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One-shot fallible partitioned selection: prepares a throwaway session
/// and runs [`select_views_partitioned_session`] once.
pub fn try_select_views_partitioned(
    store: &TripleStore,
    dict: &Dictionary,
    schema: Option<(&Schema, &VocabIds)>,
    workload: &[ConjunctiveQuery],
    options: &SelectionOptions,
) -> Result<Recommendation, SelectionError> {
    let mut prep = Preparation::new(store, dict, schema, options.reasoning)?;
    select_views_partitioned_session(&mut prep, workload, options)
}

/// Merges per-group recommendations, in group order, into one. An empty
/// list has nothing to merge and is [`SelectionError::EmptyWorkload`].
fn merge_recommendations(recs: Vec<Recommendation>) -> Result<Recommendation, SelectionError> {
    let mut merged: Option<(State, Arc<StatsCatalog>)> = None;
    let mut workload: Vec<ConjunctiveQuery> = Vec::new();
    let mut branch_of: Vec<usize> = Vec::new();
    let mut materialization: Vec<UnionQuery> = Vec::new();
    let mut stats = SearchStats::default();
    let mut initial_cost = 0.0;
    let mut best_cost = 0.0;
    for rec in recs {
        // Group searches already number their entries by original query.
        branch_of.extend(rec.branch_of);
        workload.extend(rec.workload);
        materialization.extend(rec.materialization);
        initial_cost += rec.outcome.initial_cost;
        best_cost += rec.outcome.best_cost;
        stats.created += rec.outcome.stats.created;
        stats.duplicates += rec.outcome.stats.duplicates;
        stats.discarded += rec.outcome.stats.discarded;
        stats.explored += rec.outcome.stats.explored;
        stats.transitions += rec.outcome.stats.transitions;
        stats.reexpansions += rec.outcome.stats.reexpansions;
        stats.frontier_remaining += rec.outcome.stats.frontier_remaining;
        stats.timed_out |= rec.outcome.stats.timed_out;
        stats.out_of_budget |= rec.outcome.stats.out_of_budget;
        stats.elapsed = stats.elapsed.max(rec.outcome.stats.elapsed);
        let best_state = match merged {
            None => rec.outcome.best_state,
            Some((acc, _)) => acc.merge_with(&rec.outcome.best_state),
        };
        merged = Some((best_state, rec.catalog));
    }
    let (best_state, catalog) = merged.ok_or(SelectionError::EmptyWorkload)?;
    debug_assert_eq!(best_state.check_invariants(), Ok(()));
    let views = best_state.views().cloned().collect();
    Ok(Recommendation {
        workload,
        branch_of,
        outcome: SearchOutcome {
            best_state,
            best_cost,
            initial_cost,
            stats,
        },
        views,
        materialization,
        catalog,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::try_select_views;
    use crate::search::SearchConfig;
    use rdf_model::{Dataset, Term};
    use rdf_query::parser::parse_query;

    fn db() -> Dataset {
        let mut db = Dataset::new();
        for i in 0..40 {
            let s = format!("s{i}");
            db.insert_terms(
                Term::uri(s.as_str()),
                Term::uri(format!("p{}", i % 4)),
                Term::uri(format!("o{}", i % 5)),
            );
        }
        db
    }

    #[test]
    fn partition_by_shared_atoms() {
        let mut dict = rdf_model::Dictionary::new();
        // q0 and q1 share t(·, p0, ·); q2 is isolated.
        let q0 = parse_query("q0(X) :- t(X, <p0>, Y), t(X, <p1>, Z)", &mut dict)
            .unwrap()
            .query;
        let q1 = parse_query("q1(A) :- t(A, <p0>, B)", &mut dict)
            .unwrap()
            .query;
        let q2 = parse_query("q2(U) :- t(U, <p9>, <o9>)", &mut dict)
            .unwrap()
            .query;
        let groups = partition_workload(&[q0, q1, q2]);
        assert_eq!(groups, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn grouping_unions_items_that_share_a_key_transitively() {
        // 0 and 3 share key 2, 3 and 4 share key 4, 4 and 2 share key 3;
        // item 1 has no key and stays alone.
        let items: [&[u8]; 5] = [&[1, 2], &[], &[3], &[2, 4], &[4, 3]];
        assert_eq!(
            group_by_shared_keys(items.iter().map(|keys| keys.iter())),
            vec![vec![0, 2, 3, 4], vec![1]]
        );
        assert!(group_by_shared_keys(std::iter::empty::<Vec<u8>>()).is_empty());
    }

    #[test]
    fn transitive_sharing_merges_groups() {
        let mut dict = rdf_model::Dictionary::new();
        let q0 = parse_query("q0(X) :- t(X, <p0>, Y)", &mut dict)
            .unwrap()
            .query;
        let q1 = parse_query("q1(X) :- t(X, <p0>, Y), t(X, <p1>, Z)", &mut dict)
            .unwrap()
            .query;
        let q2 = parse_query("q2(X) :- t(X, <p1>, Y)", &mut dict)
            .unwrap()
            .query;
        let groups = partition_workload(&[q0, q1, q2]);
        assert_eq!(groups, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn constants_distinguish_atom_shapes() {
        let mut dict = rdf_model::Dictionary::new();
        // Same property, different object constants: no sharing.
        let q0 = parse_query("q0(X) :- t(X, <p>, <a>)", &mut dict)
            .unwrap()
            .query;
        let q1 = parse_query("q1(X) :- t(X, <p>, <b>)", &mut dict)
            .unwrap()
            .query;
        let groups = partition_workload(&[q0, q1]);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn partitioned_selection_answers_full_workload() {
        let mut db = db();
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
            let rec = try_select_views_partitioned(
                db.store(),
                db.dict(),
                None,
                &queries,
                &SelectionOptions {
                    calibrate_cm: true,
                    search: SearchConfig {
                        time_budget: Some(std::time::Duration::from_secs(1)),
                        parallelism,
                        ..SearchConfig::default()
                    },
                    ..Default::default()
                },
            )
            .unwrap();
            rec.outcome.best_state.check_invariants().unwrap();
            assert_eq!(rec.branch_of.len(), 3);
            // Every original query must be answerable.
            let mut seen: rdf_model::FxHashSet<usize> = Default::default();
            seen.extend(rec.branch_of.iter().copied());
            assert_eq!(seen.len(), 3);
        }
    }

    #[test]
    fn partitioned_session_shares_one_catalog() {
        let mut db = db();
        let queries = vec![
            parse_query("q0(X) :- t(X, <p0>, Y)", db.dict_mut())
                .unwrap()
                .query,
            parse_query("q1(X) :- t(X, <p1>, <o1>)", db.dict_mut())
                .unwrap()
                .query,
        ];
        let mut opts = SelectionOptions {
            calibrate_cm: true,
            ..Default::default()
        };
        let mut prep = Preparation::new(
            db.store(),
            db.dict(),
            None,
            crate::pipeline::ReasoningMode::Plain,
        )
        .unwrap();
        for parallelism in [1, 2] {
            opts.search.parallelism = parallelism;
            let rec = select_views_partitioned_session(&mut prep, &queries, &opts).unwrap();
            assert_eq!(rec.branch_of.len(), 2);
        }
        let collected = prep.stats_collections();
        // A third run over the same workload must not count anything new.
        select_views_partitioned_session(&mut prep, &queries, &opts).unwrap();
        assert_eq!(prep.stats_collections(), collected);
    }

    #[test]
    fn partitioned_matches_joint_search_on_independent_groups() {
        // For disjoint groups the search spaces are independent, so the
        // sum of per-group best costs equals the joint search's best cost
        // (given enough budget to explore both).
        let mut db = db();
        let queries = vec![
            parse_query("q0(X) :- t(X, <p0>, <o0>), t(X, <p0>, Y)", db.dict_mut())
                .unwrap()
                .query,
            parse_query("q1(A) :- t(A, <p3>, <o2>)", db.dict_mut())
                .unwrap()
                .query,
        ];
        // NOTE: q0 is non-minimal by construction? No: t(X,p0,o0) and
        // t(X,p0,Y) — Y folds onto o0; minimization inside try_select_views
        // reduces it to one atom. Both groups stay independent.
        let opts = SelectionOptions {
            calibrate_cm: false,
            ..Default::default()
        };
        let joint = try_select_views(db.store(), db.dict(), None, &queries, &opts).unwrap();
        let parted =
            try_select_views_partitioned(db.store(), db.dict(), None, &queries, &opts).unwrap();
        let rel = (joint.outcome.best_cost - parted.outcome.best_cost).abs()
            / joint.outcome.best_cost.max(1e-9);
        assert!(
            rel < 1e-6,
            "joint {} vs partitioned {}",
            joint.outcome.best_cost,
            parted.outcome.best_cost
        );
    }
    #[test]
    fn group_search_panic_is_captured_per_group() {
        // The scheduler takes jobs as given: a Cartesian-product job, which
        // `effective_workload` would have rejected, makes `State::initial`
        // panic inside its group search. That group comes back as
        // `SearchPanicked` with the panic message; the others still finish.
        let mut db = db();
        let good = |text: &str, dict: &mut rdf_model::Dictionary| {
            parse_query(text, dict).unwrap().query.normalized()
        };
        let q0 = good("q0(X) :- t(X, <p0>, Y)", db.dict_mut());
        let q1 = good("q1(X, Y) :- t(X, <p2>, Y)", db.dict_mut());
        let bad = good("qbad(X, A) :- t(X, <p1>, Y), t(A, <p3>, B)", db.dict_mut());
        let mut prep = Preparation::new(
            db.store(),
            db.dict(),
            None,
            crate::pipeline::ReasoningMode::Plain,
        )
        .unwrap();
        let jobs = vec![
            (vec![q0], vec![0]),
            (vec![bad], vec![1]),
            (vec![q1], vec![2]),
        ];
        for (effective, _) in &jobs {
            prep.extend(effective);
        }
        for parallelism in [1, 2] {
            let mut opts = SelectionOptions::recommended();
            opts.search.parallelism = parallelism;
            let results = run_group_scheduler(&prep, jobs.clone(), &opts);
            assert_eq!(results.len(), 3);
            match &results[1] {
                Err(SelectionError::SearchPanicked { detail }) => {
                    assert!(detail.contains("Cartesian"), "detail: {detail}");
                }
                other => panic!("expected SearchPanicked, got {other:?}"),
            }
            for i in [0, 2] {
                let rec = results[i].as_ref().unwrap();
                assert_eq!(rec.branch_of, vec![i]);
                rec.outcome.best_state.check_invariants().unwrap();
            }
        }
    }
}
