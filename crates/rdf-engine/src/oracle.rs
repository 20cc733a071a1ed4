//! The reference evaluator: nested loops over full scans of the triple list.
//!
//! It is the differential oracle the join cores are tested against and the
//! paper's Figure 8 "plain triple table" baseline, so it shares nothing
//! with what it checks: no permutation index, no count estimate, no view
//! atom, no pooled memory. Each atom is matched against every stored triple
//! under a frame of optional bindings, in a static order that places first
//! the atom with the fewest variables not yet bound.

use std::collections::BTreeSet;

use rdf_model::{Id, TripleStore};
use rdf_query::{Atom, ConjunctiveQuery, QTerm};

use crate::answers::Answers;

/// Evaluates `q` over `store` (set semantics). A head variable that no
/// atom binds has no value, so an unsafe query has no answers here.
pub fn evaluate(store: &TripleStore, q: &ConjunctiveQuery) -> Answers {
    let vars = q.atoms.iter().flat_map(Atom::vars);
    let mut frame = vec![None; vars.map(|v| v.0 as usize + 1).max().unwrap_or(0)];
    let mut out = BTreeSet::new();
    join(store, &order(&q.atoms), &q.head, &mut frame, &mut out);
    Answers::from_tuples(q.head.len(), out)
}

/// Greedy static order: repeatedly the atom with the fewest variables the
/// atoms before it leave unbound, ties by position in the query.
fn order(atoms: &[Atom]) -> Vec<Atom> {
    let (mut left, mut placed, mut bound) = (atoms.to_vec(), Vec::new(), BTreeSet::new());
    while !left.is_empty() {
        let fresh = |a: &Atom| BTreeSet::from_iter(a.vars().filter(|v| !bound.contains(v)));
        let mut best = 0;
        for i in 1..left.len() {
            if fresh(&left[i]).len() < fresh(&left[best]).len() {
                best = i;
            }
        }
        let atom = left.remove(best);
        bound.extend(atom.vars());
        placed.push(atom);
    }
    placed
}

/// Extends `frame` by each of `atoms` in turn, then adds the head tuple.
fn join(
    store: &TripleStore,
    atoms: &[Atom],
    head: &[QTerm],
    frame: &mut [Option<Id>],
    out: &mut BTreeSet<Vec<Id>>,
) {
    let Some((atom, rest)) = atoms.split_first() else {
        let value = |t: &QTerm| match t {
            QTerm::Const(c) => Some(*c),
            QTerm::Var(v) => frame.get(v.0 as usize).copied().flatten(),
        };
        out.extend(head.iter().map(value).collect::<Option<Vec<Id>>>());
        return;
    };
    // Each triple is matched from the bindings the scan started with.
    let unbound: Vec<usize> = (0..frame.len()).filter(|&v| frame[v].is_none()).collect();
    for triple in store.triples() {
        let matched = atom.0.iter().zip(triple).all(|(term, &id)| match term {
            QTerm::Const(c) => *c == id,
            QTerm::Var(v) => *frame[v.0 as usize].get_or_insert(id) == id,
        });
        if matched {
            join(store, rest, head, frame, out);
        }
        for &v in &unbound {
            frame[v] = None;
        }
    }
}
