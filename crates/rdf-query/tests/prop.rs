//! Property tests for containment, minimization and canonicalization.

use proptest::prelude::*;
use rdf_model::{FxHashMap, Id};
use rdf_query::canonical::{body_isomorphism, canonical_form, HeadMode};
use rdf_query::containment::{equivalent, is_contained_in};
use rdf_query::minimize::{is_minimal, minimize};
use rdf_query::{Atom, ConjunctiveQuery, QTerm, Var};

/// A random small query over 4 variables, 3 properties, 3 constants.
fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    let term = prop_oneof![
        (0u32..4).prop_map(|v| QTerm::Var(Var(v))),
        (100u32..103).prop_map(|c| QTerm::Const(Id(c))),
    ];
    let prop_term = prop_oneof![
        3 => (200u32..203).prop_map(|c| QTerm::Const(Id(c))),
        1 => (4u32..6).prop_map(|v| QTerm::Var(Var(v))),
    ];
    (
        prop::collection::vec((term.clone(), prop_term, term), 1..4),
        prop::collection::vec(0u32..4, 0..3),
    )
        .prop_map(|(atoms, head)| {
            let atoms: Vec<Atom> = atoms.into_iter().map(|(s, p, o)| Atom([s, p, o])).collect();
            // Head vars restricted to body vars for safety.
            let body_vars: Vec<Var> = {
                let mut out = Vec::new();
                for a in &atoms {
                    for v in a.vars() {
                        if !out.contains(&v) {
                            out.push(v);
                        }
                    }
                }
                out
            };
            let head: Vec<QTerm> = head
                .into_iter()
                .filter_map(|i| body_vars.get(i as usize % body_vars.len().max(1)).copied())
                .map(QTerm::Var)
                .collect();
            ConjunctiveQuery::new(head, atoms)
        })
}

/// A random variable renaming (bijection over a window of variables).
fn renaming_strategy() -> impl Strategy<Value = FxHashMap<Var, QTerm>> {
    Just(()).prop_perturb(|_, mut rng| {
        let mut targets: Vec<u32> = (10..20).collect();
        // Fisher–Yates with the proptest rng.
        for i in (1..targets.len()).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            targets.swap(i, j);
        }
        (0u32..8)
            .map(|v| (Var(v), QTerm::Var(Var(targets[v as usize]))))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn containment_is_reflexive(q in query_strategy()) {
        prop_assert!(is_contained_in(&q, &q));
        prop_assert!(equivalent(&q, &q));
    }

    #[test]
    fn renaming_preserves_equivalence_and_canon(
        q in query_strategy(),
        renaming in renaming_strategy(),
    ) {
        let renamed = q.substitute(&renaming);
        prop_assert!(equivalent(&q, &renamed));
        prop_assert_eq!(
            canonical_form(&q, HeadMode::Ordered).key,
            canonical_form(&renamed, HeadMode::Ordered).key
        );
        // Body isomorphism must find the mapping.
        prop_assert!(body_isomorphism(
            &canonical_form(&q, HeadMode::Ignore),
            &canonical_form(&renamed, HeadMode::Ignore)
        )
        .is_some());
    }

    #[test]
    fn minimize_is_sound_and_idempotent(q in query_strategy()) {
        let m = minimize(&q);
        prop_assert!(equivalent(&q, &m), "minimization must preserve semantics");
        prop_assert!(m.atoms.len() <= q.atoms.len());
        prop_assert!(is_minimal(&m));
        prop_assert_eq!(minimize(&m).atoms.len(), m.atoms.len());
    }

    #[test]
    fn canonical_equal_implies_isomorphic_semantics(
        a in query_strategy(),
        b in query_strategy(),
    ) {
        let ka = canonical_form(&a, HeadMode::Ordered).key;
        let kb = canonical_form(&b, HeadMode::Ordered).key;
        if ka == kb {
            // Equal canonical keys must mean semantically equivalent
            // queries (isomorphism is stronger than equivalence).
            prop_assert!(equivalent(&a, &b));
        }
    }

    #[test]
    fn dropping_an_atom_loses_no_answers(q in query_strategy()) {
        // q with an extra atom is contained in q without it (projection of
        // a superset of constraints).
        if q.atoms.len() >= 2 {
            let mut fewer = q.clone();
            fewer.atoms.pop();
            if fewer.is_safe() {
                prop_assert!(is_contained_in(&q, &fewer));
            }
        }
    }

    #[test]
    fn normalized_preserves_canonical_key(q in query_strategy()) {
        prop_assert_eq!(
            canonical_form(&q, HeadMode::Ordered).key,
            canonical_form(&q.normalized(), HeadMode::Ordered).key
        );
    }
}
