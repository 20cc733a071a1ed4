//! Unfolding: substituting view definitions back into a rewriting,
//! yielding a plain conjunctive query over the triple table.
//!
//! Unfolding is the semantic yardstick of the whole search: Definition 2.2
//! requires every rewriting to be *equivalent* to its workload query, and
//! the unfolded rewriting is exactly the query the rewriting computes.
//! Tests check `equivalent(unfold(S, i), qᵢ)` after every transition.
//!
//! [`unfold_plan`] is the one unfolding routine: the ad-hoc planner
//! (`crate::rewrite`) verifies its plans with it, and [`unfold`] reads a
//! state rewriting as a plan with no base atoms.

use rdf_model::FxHashMap;
use rdf_query::{ConjunctiveQuery, QTerm, Var};

use crate::rewrite::{PlanAtom, RewritePlan};
use crate::state::{State, View, ViewId};

/// Unfolds the rewriting of query `query_idx` in `state` into a CQ over the
/// triple table.
pub fn unfold(state: &State, query_idx: usize) -> ConjunctiveQuery {
    let r = &state.rewritings()[query_idx];
    let plan = RewritePlan {
        head: r.head.clone(),
        atoms: r.atoms.iter().cloned().map(PlanAtom::View).collect(),
    };
    unfold_plan(state.views(), &plan)
}

/// Unfolds a plan into a conjunctive query over the triple table: view
/// scans are replaced by their definitions (head variables bound to the
/// scan arguments, existentials renamed fresh), base atoms kept as-is.
/// Every view the plan scans must be among `views`.
///
/// A views-only plan is correct iff its unfolding is `equivalent` to the
/// planned query.
pub fn unfold_plan<'v>(
    views: impl IntoIterator<Item = &'v View>,
    plan: &RewritePlan,
) -> ConjunctiveQuery {
    let by_id: FxHashMap<ViewId, &View> = views.into_iter().map(|v| (v.id, v)).collect();
    // Fresh variables for view existentials start above everything the
    // plan's variable space uses.
    let mut next_var = plan
        .head
        .iter()
        .chain(plan.atoms.iter().flat_map(|a| match a {
            PlanAtom::View(ra) => &ra.args[..],
            PlanAtom::Base(a) => &a.terms()[..],
        }))
        .filter_map(|t| t.as_var())
        .map(|v| v.0 + 1)
        .max()
        .unwrap_or(0);
    let mut atoms = Vec::new();
    for pa in &plan.atoms {
        match pa {
            PlanAtom::Base(a) => atoms.push(*a),
            PlanAtom::View(ra) => {
                let view = by_id[&ra.view];
                let mut map: FxHashMap<Var, QTerm> = FxHashMap::default();
                for (k, &h) in view.head.iter().enumerate() {
                    map.insert(h, ra.args[k]);
                }
                for atom in &view.atoms {
                    for v in atom.vars() {
                        map.entry(v).or_insert_with(|| {
                            let t = QTerm::Var(Var(next_var));
                            next_var += 1;
                            t
                        });
                    }
                }
                for atom in &view.atoms {
                    atoms.push(atom.substitute(&map));
                }
            }
        }
    }
    ConjunctiveQuery::new(plan.head.clone(), atoms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Dictionary;
    use rdf_query::containment::equivalent;
    use rdf_query::parser::parse_query;

    #[test]
    fn unfold_initial_state_is_identity() {
        let mut dict = Dictionary::new();
        let q = parse_query(
            "q(X, Z) :- t(X, <p>, Y), t(Y, <q>, Z), t(X, <r>, <c>)",
            &mut dict,
        )
        .unwrap()
        .query;
        let s0 = State::initial(std::slice::from_ref(&q));
        let u = unfold(&s0, 0);
        assert!(equivalent(&u, &q));
    }

    #[test]
    fn unfold_respects_selection_constants() {
        // Manually check an unfold where the rewriting pins a constant.
        let mut dict = Dictionary::new();
        let q = parse_query("q(X) :- t(X, <p>, <c>)", &mut dict)
            .unwrap()
            .query;
        let s0 = State::initial(std::slice::from_ref(&q));
        let cut = crate::transitions::enumerate(
            &s0,
            crate::transitions::TransitionKind::Sc,
            &Default::default(),
        );
        for t in &cut {
            let s1 = crate::transitions::apply(&s0, t);
            let u = unfold(&s1, 0);
            assert!(equivalent(&u, &q), "unfold after {t:?}");
        }
    }
}
