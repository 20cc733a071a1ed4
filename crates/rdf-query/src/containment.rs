//! Containment mappings and query equivalence (Chandra–Merlin, reference
//! 7 of the paper).
//!
//! `q2 ⊆ q1` (every answer of `q2` is an answer of `q1`) iff there is a
//! *containment mapping* from `q1` to `q2`: a substitution of `q1`'s
//! variables by `q2`'s terms sending every atom of `q1` to an atom of `q2`
//! and the head of `q1` to the head of `q2`. The problem is NP-complete but
//! the queries here are small (≤ ~10 atoms), so plain backtracking with a
//! most-constrained-first atom order is enough.
//!
//! [`for_each_homomorphism`] is the one homomorphism search of the tree:
//! [`containment_mapping`] stops it at the first mapping, and the ad-hoc
//! planner (`rdfviews_core::rewrite`) enumerates view embeddings with it.

use std::ops::ControlFlow;

use rdf_model::FxHashMap;

use crate::query::{Atom, ConjunctiveQuery, QTerm, Var};

/// Searches for a homomorphism from `from`'s body into `to`'s body that
/// maps `from.head` pointwise onto `to.head`. Returns the variable mapping
/// if one exists.
pub fn containment_mapping(
    from: &ConjunctiveQuery,
    to: &ConjunctiveQuery,
) -> Option<FxHashMap<Var, QTerm>> {
    if from.head.len() != to.head.len() {
        return None;
    }
    let mut map: FxHashMap<Var, QTerm> = FxHashMap::default();
    // Seed the mapping with the head constraints.
    for (f, t) in from.head.iter().zip(to.head.iter()) {
        match (f, t) {
            (QTerm::Const(a), QTerm::Const(b)) => {
                if a != b {
                    return None;
                }
            }
            (QTerm::Var(v), t) => {
                if let Some(prev) = map.get(v) {
                    if prev != t {
                        return None;
                    }
                } else {
                    map.insert(*v, *t);
                }
            }
            // A constant in `from`'s head cannot map to a variable.
            (QTerm::Const(_), QTerm::Var(_)) => return None,
        }
    }
    // Order atoms most-constrained-first: more constants and already-mapped
    // variables first.
    let mut order: Vec<usize> = (0..from.atoms.len()).collect();
    order.sort_by_key(|&i| {
        let a = &from.atoms[i];
        let bound = a
            .terms()
            .iter()
            .filter(|t| match t {
                QTerm::Const(_) => true,
                QTerm::Var(v) => map.contains_key(v),
            })
            .count();
        std::cmp::Reverse(bound)
    });
    let found = for_each_homomorphism(&from.atoms, &order, &to.atoms, &mut map, |_, _| {
        ControlFlow::Break(())
    });
    found.is_break().then_some(map)
}

/// Enumerates the homomorphisms from the atoms `from` into the atoms `to`
/// that extend `map`: `from`'s atoms are mapped in `order` (a permutation
/// of their indices), each trying the atoms of `to` in order. For every
/// complete homomorphism, `visit` gets the variable map and, per atom of
/// `from`, the index of its image in `to`; it returns
/// [`ControlFlow::Break`] to stop the search.
///
/// On `Break` the result is `Break` and `map` holds the homomorphism the
/// visitor stopped at; otherwise `map` is left as given.
pub fn for_each_homomorphism<F>(
    from: &[Atom],
    order: &[usize],
    to: &[Atom],
    map: &mut FxHashMap<Var, QTerm>,
    mut visit: F,
) -> ControlFlow<()>
where
    F: FnMut(&FxHashMap<Var, QTerm>, &[usize]) -> ControlFlow<()>,
{
    debug_assert_eq!(order.len(), from.len());
    let mut targets = vec![0; from.len()];
    extend(from, order, to, map, &mut targets, &mut visit)
}

/// Maps `order`'s first atom onto each atom of `to` in turn and recurses
/// on the rest of `order`, undoing its own bindings after each target.
fn extend<F>(
    from: &[Atom],
    order: &[usize],
    to: &[Atom],
    map: &mut FxHashMap<Var, QTerm>,
    targets: &mut [usize],
    visit: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&FxHashMap<Var, QTerm>, &[usize]) -> ControlFlow<()>,
{
    let Some((&atom_idx, rest)) = order.split_first() else {
        return visit(map, targets);
    };
    let atom = &from[atom_idx];
    for (target_idx, target) in to.iter().enumerate() {
        // An atom binds at most its three terms.
        let mut bound = [Var(0); 3];
        let mut n = 0;
        let fits = atom
            .terms()
            .iter()
            .zip(target.terms())
            .all(|(f, t)| match *f {
                QTerm::Const(_) => f == t,
                QTerm::Var(v) => match map.get(&v) {
                    Some(prev) => prev == t,
                    None => {
                        map.insert(v, *t);
                        bound[n] = v;
                        n += 1;
                        true
                    }
                },
            });
        if fits {
            targets[atom_idx] = target_idx;
            extend(from, rest, to, map, targets, visit)?;
        }
        for v in &bound[..n] {
            map.remove(v);
        }
    }
    ControlFlow::Continue(())
}

/// `sub ⊑ sup`: every answer of `sub` is an answer of `sup`, i.e. there is a
/// containment mapping from `sup` to `sub`.
pub fn is_contained_in(sub: &ConjunctiveQuery, sup: &ConjunctiveQuery) -> bool {
    containment_mapping(sup, sub).is_some()
}

/// Semantic equivalence: containment in both directions.
pub fn equivalent(a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> bool {
    is_contained_in(a, b) && is_contained_in(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Id;

    fn v(i: u32) -> QTerm {
        QTerm::Var(Var(i))
    }

    #[test]
    fn homomorphisms_come_in_target_order_and_stop_on_break() {
        // t(X, p, Y), t(Y, p, Z) into a p-chain a → b → c plus a q edge.
        let from = [
            Atom::new(Var(0), Id(1), Var(1)),
            Atom::new(Var(1), Id(1), Var(2)),
        ];
        let to = [
            Atom::new(Id(10), Id(1), Id(11)),
            Atom::new(Id(11), Id(2), Id(12)),
            Atom::new(Id(11), Id(1), Id(12)),
        ];
        let mut seen = Vec::new();
        let mut map = FxHashMap::default();
        let all = for_each_homomorphism(&from, &[0, 1], &to, &mut map, |m, targets| {
            seen.push((m[&Var(0)], targets.to_vec()));
            ControlFlow::Continue(())
        });
        assert!(all.is_continue());
        assert!(map.is_empty(), "bindings are undone after the search");
        assert_eq!(seen, vec![(QTerm::Const(Id(10)), vec![0, 2])]);
        // Mapping the second atom first finds the same homomorphism, and
        // a visitor that stops keeps its bindings.
        let stopped = for_each_homomorphism(&from, &[1, 0], &to, &mut map, |_, targets| {
            assert_eq!(targets, [0, 2]);
            ControlFlow::Break(())
        });
        assert!(stopped.is_break());
        assert_eq!(map[&Var(2)], QTerm::Const(Id(12)));
    }

    #[test]
    fn identity_mapping() {
        let q = ConjunctiveQuery::new(
            vec![v(0)],
            vec![
                Atom::new(Var(0), Id(1), Var(1)),
                Atom::new(Var(1), Id(2), Id(9)),
            ],
        );
        assert!(equivalent(&q, &q));
    }

    #[test]
    fn renamed_queries_equivalent() {
        let q1 = ConjunctiveQuery::new(vec![v(0)], vec![Atom::new(Var(0), Id(1), Var(1))]);
        let q2 = ConjunctiveQuery::new(vec![v(5)], vec![Atom::new(Var(5), Id(1), Var(8))]);
        assert!(equivalent(&q1, &q2));
    }

    #[test]
    fn specialization_is_contained() {
        // q_spec(X) :- t(X, p, c)   ⊑   q_gen(X) :- t(X, p, Y)
        let q_gen = ConjunctiveQuery::new(vec![v(0)], vec![Atom::new(Var(0), Id(1), Var(1))]);
        let q_spec = ConjunctiveQuery::new(vec![v(0)], vec![Atom::new(Var(0), Id(1), Id(7))]);
        assert!(is_contained_in(&q_spec, &q_gen));
        assert!(!is_contained_in(&q_gen, &q_spec));
        assert!(!equivalent(&q_gen, &q_spec));
    }

    #[test]
    fn longer_chain_contained_in_shorter() {
        // chain2(X) :- t(X,p,Y), t(Y,p,Z)  ⊑  chain1(X) :- t(X,p,Y)
        let chain1 = ConjunctiveQuery::new(vec![v(0)], vec![Atom::new(Var(0), Id(1), Var(1))]);
        let chain2 = ConjunctiveQuery::new(
            vec![v(0)],
            vec![
                Atom::new(Var(0), Id(1), Var(1)),
                Atom::new(Var(1), Id(1), Var(2)),
            ],
        );
        assert!(is_contained_in(&chain2, &chain1));
        assert!(!is_contained_in(&chain1, &chain2));
    }

    #[test]
    fn head_constants_must_match() {
        let a = ConjunctiveQuery::new(
            vec![QTerm::Const(Id(1))],
            vec![Atom::new(Var(0), Id(1), Var(1))],
        );
        let b = ConjunctiveQuery::new(
            vec![QTerm::Const(Id(2))],
            vec![Atom::new(Var(0), Id(1), Var(1))],
        );
        assert!(!is_contained_in(&a, &b));
        assert!(equivalent(&a, &a));
    }

    #[test]
    fn head_variable_repetition_matters() {
        // q(X,X) vs q(X,Y): the first is contained in the second, not
        // conversely.
        let qxx = ConjunctiveQuery::new(vec![v(0), v(0)], vec![Atom::new(Var(0), Id(1), Var(0))]);
        let qxy = ConjunctiveQuery::new(vec![v(0), v(1)], vec![Atom::new(Var(0), Id(1), Var(1))]);
        assert!(is_contained_in(&qxx, &qxy));
        assert!(!is_contained_in(&qxy, &qxx));
    }

    #[test]
    fn different_arity_never_contained() {
        let q1 = ConjunctiveQuery::new(vec![v(0)], vec![Atom::new(Var(0), Id(1), Var(1))]);
        let q2 = ConjunctiveQuery::new(vec![v(0), v(1)], vec![Atom::new(Var(0), Id(1), Var(1))]);
        assert!(!is_contained_in(&q1, &q2));
    }

    #[test]
    fn folding_redundant_atom() {
        // q(X) :- t(X,p,Y), t(X,p,Z) is equivalent to q(X) :- t(X,p,Y).
        let q_red = ConjunctiveQuery::new(
            vec![v(0)],
            vec![
                Atom::new(Var(0), Id(1), Var(1)),
                Atom::new(Var(0), Id(1), Var(2)),
            ],
        );
        let q_min = ConjunctiveQuery::new(vec![v(0)], vec![Atom::new(Var(0), Id(1), Var(1))]);
        assert!(equivalent(&q_red, &q_min));
    }
}
