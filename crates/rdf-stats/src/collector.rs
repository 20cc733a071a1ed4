//! Workload-driven statistics collection.
//!
//! "Since the workload is known, we gather only the statistics needed for
//! this workload: (i) we count the triples matching each of the query atoms
//! (ii) we also count the triples matching all relaxations of these atoms,
//! obtained by removing constants (as SC does during the search)."
//! — Section 3.3.

use rdf_engine::evaluate;
use rdf_model::{Dictionary, FxHashSet, StorePattern, TripleStore};
use rdf_query::{Atom, ConjunctiveQuery, QTerm, Var};

use crate::catalog::{AtomKey, StatsCatalog};

/// Exact number of triples matching `atom` (honoring repeated variables,
/// e.g. `t(X, p, X)` counts only self-loops).
///
/// Without a repeated variable the count is the length of the store's
/// index range. With one, the engine filters the range: its answers over
/// the atom's distinct variables are one per matching triple.
pub fn count_atom(store: &TripleStore, atom: &Atom) -> u64 {
    let mut q = ConjunctiveQuery::new(Vec::new(), vec![*atom]);
    let vars = q.body_vars();
    if vars.len() == atom.vars().count() {
        let [s, p, o] = atom.terms();
        let pat = StorePattern::new(s.as_const(), p.as_const(), o.as_const());
        return store.match_count(&pat) as u64;
    }
    q.head = vars.into_iter().map(QTerm::Var).collect();
    evaluate(store, &q).len() as u64
}

/// All relaxations of an atom: every subset of its constants replaced by
/// fresh, pairwise-distinct variables. The atom itself is the empty
/// relaxation and comes first.
pub fn relaxations_of(atom: &Atom) -> Vec<Atom> {
    let const_positions: Vec<usize> = atom
        .terms()
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_var())
        .map(|(i, _)| i)
        .collect();
    let max_var = atom.vars().map(|v| v.0).max().map_or(0, |m| m + 1);
    let mut out = Vec::with_capacity(1 << const_positions.len());
    for mask in 0..(1u8 << const_positions.len()) {
        let mut terms = *atom.terms();
        let mut next = max_var;
        for (bit, &pos) in const_positions.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                terms[pos] = QTerm::Var(Var(next));
                next += 1;
            }
        }
        out.push(Atom(terms));
    }
    out
}

/// The atom shapes `queries` can need — every atom and every relaxation
/// thereof — that `cat` does not record yet, one per [`AtomKey`], in
/// workload order. Empty exactly when the catalog already covers the
/// workload, which is what lets a long-lived advisor session skip
/// re-collection across `recommend` calls.
pub fn missing_shapes(cat: &StatsCatalog, queries: &[ConjunctiveQuery]) -> Vec<(AtomKey, Atom)> {
    let mut listed = FxHashSet::default();
    queries
        .iter()
        .flat_map(|q| &q.atoms)
        .flat_map(relaxations_of)
        .map(|relaxed| (AtomKey::of(&relaxed), relaxed))
        .filter(|(key, _)| cat.key_count(key).is_none() && listed.insert(*key))
        .collect()
}

/// Collects the full catalog for a workload: store-level statistics plus
/// exact counts of every query atom and every relaxation thereof.
pub fn collect_stats(
    store: &TripleStore,
    dict: &Dictionary,
    queries: &[ConjunctiveQuery],
) -> StatsCatalog {
    let mut cat = StatsCatalog::store_level(store, dict);
    for (key, atom) in missing_shapes(&cat, queries) {
        cat.insert_count(key, count_atom(store, &atom));
    }
    cat
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{Dataset, Id, Term};

    fn db() -> Dataset {
        let mut db = Dataset::new();
        let t = |db: &mut Dataset, s: &str, p: &str, o: &str| {
            db.insert_terms(Term::uri(s), Term::uri(p), Term::uri(o));
        };
        t(&mut db, "a", "p", "b");
        t(&mut db, "a", "p", "c");
        t(&mut db, "b", "q", "b");
        t(&mut db, "c", "p", "c");
        db
    }

    #[test]
    fn count_atom_with_constants() {
        let mut db = db();
        let p = db.dict_mut().intern_uri("p");
        let a = db.dict_mut().intern_uri("a");
        assert_eq!(count_atom(db.store(), &Atom::new(Var(0), p, Var(1))), 3);
        assert_eq!(count_atom(db.store(), &Atom::new(a, p, Var(0))), 2);
        assert_eq!(
            count_atom(db.store(), &Atom::new(Var(0), Var(1), Var(2))),
            4
        );
    }

    #[test]
    fn count_atom_with_repeated_vars() {
        let mut db = db();
        let p = db.dict_mut().intern_uri("p");
        let q = db.dict_mut().intern_uri("q");
        // Self loops s = o: (b,q,b) and (c,p,c).
        assert_eq!(
            count_atom(db.store(), &Atom::new(Var(0), Var(1), Var(0))),
            2
        );
        assert_eq!(count_atom(db.store(), &Atom::new(Var(0), p, Var(0))), 1);
        assert_eq!(count_atom(db.store(), &Atom::new(Var(0), q, Var(0))), 1);
    }

    #[test]
    fn relaxations_enumerated() {
        let atom = Atom::new(Var(0), Id(1), Id(2));
        let rs = relaxations_of(&atom);
        assert_eq!(rs.len(), 4); // itself, drop p, drop o, drop both
        assert_eq!(rs[0], atom);
        // The full relaxation has three distinct variables.
        let full = rs.last().unwrap();
        let vars: Vec<Var> = full.vars().collect();
        assert_eq!(vars.len(), 3);
        let set: std::collections::HashSet<Var> = vars.into_iter().collect();
        assert_eq!(set.len(), 3, "fresh vars must be pairwise distinct");
    }

    #[test]
    fn relaxations_preserve_repetition() {
        // Relaxing t(X, p, X) keeps the s=o equality.
        let atom = Atom::new(Var(0), Id(1), Var(0));
        let rs = relaxations_of(&atom);
        assert_eq!(rs.len(), 2);
        let relaxed = rs[1];
        assert_eq!(relaxed.0[0], relaxed.0[2]);
        assert!(relaxed.0[1].is_var());
    }

    #[test]
    fn collect_covers_workload() {
        use rdf_query::parser::parse_query;
        let mut db = db();
        let q = parse_query("q(X) :- t(X, <p>, <b>), t(X, <q>, Y)", db.dict_mut()).unwrap();
        let cat = collect_stats(db.store(), db.dict(), std::slice::from_ref(&q.query));
        // Atom 1 has 2 constants → 4 shapes; atom 2 has 1 constant → 2
        // shapes; the all-var shape is shared.
        assert_eq!(cat.recorded_atoms(), 5);
        for atom in &q.query.atoms {
            assert!(cat.atom_count(atom).is_some());
        }
        // Spot-check: t(X, p, b) matches exactly 1 triple.
        assert_eq!(cat.atom_count(&q.query.atoms[0]), Some(1));
        assert_eq!(cat.dataset_size(), 4);
    }
}
