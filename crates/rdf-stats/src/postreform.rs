//! Post-reformulation statistics (Section 4.3).
//!
//! To account for implicit triples *without* saturating the database and
//! *without* reformulating the workload, the paper reflects entailment into
//! the statistics: each view atom `vᵢ` is reformulated into a union of
//! atoms `Reformulate(vᵢ, S)`, and `|vᵢ|` is replaced by
//! `|Reformulate(vᵢ, S)|` in every cost formula. "This results in having
//! the same statistics as if the database was saturated", so the search
//! finds the same best state as the saturation approach.
//!
//! Every count here is the length of an answer set of
//! [`rdf_engine::evaluate_union`], the one UCQ evaluator, run on the
//! non-saturated store; the store is never written. The saturated triple
//! set exists only as the engine's transient answer to
//! `Reformulate(t(X, Y, Z), S)`, from which the store-level statistics are
//! read: on the Barton draw of the benchmark's `tune_reform` workload
//! (39,859 triples) that union has 704 branches, 196,215 branch rows and
//! 84,494 distinct triples.

use rdf_engine::evaluate_union;
use rdf_model::{Dictionary, TripleStore};
use rdf_query::{Atom, ConjunctiveQuery, Var};
use rdf_reform::reformulate_atom;
use rdf_schema::{Schema, VocabIds};

use crate::catalog::StatsCatalog;
use crate::collector::missing_shapes;

/// `|Reformulate(atom, S)|`: the saturated count of a single atom, computed
/// on the non-saturated store.
///
/// Branch heads may contain constants (rule 5/6 bindings); those constants
/// participate in the answer tuples, which is what makes the union count
/// equal the saturated count of the original atom.
pub fn reformulated_atom_count(
    store: &TripleStore,
    atom: &Atom,
    schema: &Schema,
    vocab: &VocabIds,
) -> u64 {
    evaluate_union(store, &reformulate_atom(atom, schema, vocab)).len() as u64
}

/// Collects a catalog whose statistics reflect implicit triples — the
/// post-reformulation scenario. Both the per-atom counts *and* the
/// store-level statistics (size, distincts, widths) equal those of the
/// saturated database, so the search finds the same best state as the
/// saturation approach without the database ever being saturated.
///
/// The store-level statistics are those of a store built from the answers
/// to `Reformulate(t(X, Y, Z), S)`: each entailed triple surfaces as one
/// answer tuple whose head carries the rule bindings (Theorem 4.2), and the
/// answers come sorted and distinct, so they are adopted as that store's
/// `Spo` run without a sort.
pub fn collect_stats_post_reform(
    store: &TripleStore,
    dict: &Dictionary,
    queries: &[ConjunctiveQuery],
    schema: &Schema,
    vocab: &VocabIds,
) -> StatsCatalog {
    let all = Atom::new(Var(0), Var(1), Var(2));
    let triples = evaluate_union(store, &reformulate_atom(&all, schema, vocab))
        .rows()
        .map(|t| [t[0], t[1], t[2]])
        .collect();
    let mut cat = StatsCatalog::store_level(&TripleStore::from_parts(triples, 0), dict);
    for (key, atom) in missing_shapes(&cat, queries) {
        cat.insert_count(key, reformulated_atom_count(store, &atom, schema, vocab));
    }
    cat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{collect_stats, relaxations_of};
    use rdf_model::Dataset;
    use rdf_query::parser::parse_query;
    use rdf_schema::{saturated_copy, SchemaStatement};

    /// painting ⊑ picture; isExpIn ⊑p isLocatIn; instances of both kinds.
    fn fixture() -> (Dataset, Schema, VocabIds) {
        let mut db = Dataset::new();
        let vocab = VocabIds::intern(db.dict_mut());
        let painting = db.dict_mut().intern_uri("painting");
        let picture = db.dict_mut().intern_uri("picture");
        let is_exp_in = db.dict_mut().intern_uri("isExpIn");
        let is_locat_in = db.dict_mut().intern_uri("isLocatIn");
        let mut schema = Schema::new();
        schema.add(SchemaStatement::SubClassOf(painting, picture));
        schema.add(SchemaStatement::SubPropertyOf(is_exp_in, is_locat_in));
        for i in 0..6 {
            let x = db.dict_mut().intern_uri(&format!("item{i}"));
            let class = if i % 2 == 0 { painting } else { picture };
            db.store_mut().insert([x, vocab.rdf_type, class]);
            let museum = db.dict_mut().intern_uri(&format!("museum{}", i % 3));
            let prop = if i < 3 { is_exp_in } else { is_locat_in };
            db.store_mut().insert([x, prop, museum]);
        }
        (db, schema, vocab)
    }

    #[test]
    fn post_reform_counts_equal_saturated_counts() {
        let (db, schema, vocab) = fixture();
        let mut dict = db.dict().clone();
        let q = parse_query(
            "q(X1, X2) :- t(X1, rdf:type, picture), t(X1, isLocatIn, X2)",
            &mut dict,
        )
        .unwrap();
        let sat = saturated_copy(db.store(), &schema, &vocab);
        let cat_sat = collect_stats(&sat, &dict, std::slice::from_ref(&q.query));
        let cat_post = collect_stats_post_reform(
            db.store(),
            &dict,
            std::slice::from_ref(&q.query),
            &schema,
            &vocab,
        );
        for atom in &q.query.atoms {
            for relaxed in relaxations_of(atom) {
                assert_eq!(
                    cat_post.atom_count(&relaxed),
                    cat_sat.atom_count(&relaxed),
                    "atom {relaxed:?}"
                );
            }
        }
        assert_eq!(cat_post.dataset_size(), cat_sat.dataset_size());
    }

    #[test]
    fn saturated_count_larger_than_plain() {
        let (db, schema, vocab) = fixture();
        let mut dict = db.dict().clone();
        let q = parse_query("q(X) :- t(X, rdf:type, picture)", &mut dict).unwrap();
        let plain = collect_stats(db.store(), &dict, std::slice::from_ref(&q.query));
        let post = collect_stats_post_reform(
            db.store(),
            &dict,
            std::slice::from_ref(&q.query),
            &schema,
            &vocab,
        );
        let atom = &q.query.atoms[0];
        // Plain: 3 explicit picture instances; saturated: all 6.
        assert_eq!(plain.atom_count(atom), Some(3));
        assert_eq!(post.atom_count(atom), Some(6));
    }

    #[test]
    fn empty_schema_matches_plain_collection() {
        let (db, _schema, vocab) = fixture();
        let mut dict = db.dict().clone();
        let q = parse_query("q(X, Y) :- t(X, isLocatIn, Y)", &mut dict).unwrap();
        let plain = collect_stats(db.store(), &dict, std::slice::from_ref(&q.query));
        let post = collect_stats_post_reform(
            db.store(),
            &dict,
            std::slice::from_ref(&q.query),
            &Schema::new(),
            &vocab,
        );
        for atom in &q.query.atoms {
            assert_eq!(plain.atom_count(atom), post.atom_count(atom));
        }
    }
}
