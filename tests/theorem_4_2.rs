//! Property test for Theorem 4.2: for any database D, schema S and query q,
//! `evaluate(q, saturate(D, S)) = evaluate(Reformulate(q, S), D)`.
//!
//! Saturation and reformulation are implemented completely independently
//! (forward chaining over triples vs backward rule application over
//! queries), so agreement over randomized inputs is strong evidence that
//! both are correct.

use std::collections::HashMap;

use proptest::prelude::*;

use rdfviews::engine::{evaluate, evaluate_union};
use rdfviews::model::{Dataset, Id, Triple};
use rdfviews::query::{Atom, ConjunctiveQuery, QTerm, Var};
use rdfviews::reform::{reformulate, theorem_4_1_bound};
use rdfviews::schema::{saturated_copy, Schema, SchemaStatement, VocabIds};
use rdfviews::stats::{collect_stats, collect_stats_post_reform, StatsCatalog};

/// Fixed vocabulary: 5 classes, 5 properties, 8 resources.
struct Vocab {
    vocab: VocabIds,
    classes: Vec<Id>,
    properties: Vec<Id>,
    resources: Vec<Id>,
}

fn build_vocab(db: &mut Dataset) -> Vocab {
    let vocab = VocabIds::intern(db.dict_mut());
    Vocab {
        vocab,
        classes: (0..5)
            .map(|i| db.dict_mut().intern_uri(&format!("c{i}")))
            .collect(),
        properties: (0..5)
            .map(|i| db.dict_mut().intern_uri(&format!("p{i}")))
            .collect(),
        resources: (0..8)
            .map(|i| db.dict_mut().intern_uri(&format!("r{i}")))
            .collect(),
    }
}

/// A schema statement described by indices into the fixed vocabulary.
#[derive(Debug, Clone)]
enum StmtSpec {
    SubClass(usize, usize),
    SubProp(usize, usize),
    Domain(usize, usize),
    Range(usize, usize),
}

fn stmt_strategy() -> impl Strategy<Value = StmtSpec> {
    prop_oneof![
        (0..5usize, 0..5usize).prop_map(|(a, b)| StmtSpec::SubClass(a, b)),
        (0..5usize, 0..5usize).prop_map(|(a, b)| StmtSpec::SubProp(a, b)),
        (0..5usize, 0..5usize).prop_map(|(p, c)| StmtSpec::Domain(p, c)),
        (0..5usize, 0..5usize).prop_map(|(p, c)| StmtSpec::Range(p, c)),
    ]
}

/// A data triple: either a type assertion or a property assertion.
#[derive(Debug, Clone)]
enum TripleSpec {
    Type(usize, usize),
    Prop(usize, usize, usize),
}

fn triple_strategy() -> impl Strategy<Value = TripleSpec> {
    prop_oneof![
        (0..8usize, 0..5usize).prop_map(|(r, c)| TripleSpec::Type(r, c)),
        (0..8usize, 0..5usize, 0..8usize).prop_map(|(s, p, o)| TripleSpec::Prop(s, p, o)),
    ]
}

/// A query atom over two query variables (v0, v1) or vocabulary constants.
#[derive(Debug, Clone)]
enum AtomSpec {
    /// t(?vs, rdf:type, class)
    TypeConst(u8, usize),
    /// t(?vs, rdf:type, ?vo) — exercises rule 5
    TypeVar(u8, u8),
    /// t(?vs, prop, ?vo)
    PropVarVar(u8, usize, u8),
    /// t(?vs, prop, resource)
    PropVarConst(u8, usize, usize),
    /// t(?vs, ?vp, ?vo) — exercises rule 6
    AllVar(u8, u8, u8),
}

fn atom_strategy() -> impl Strategy<Value = AtomSpec> {
    prop_oneof![
        (0..3u8, 0..5usize).prop_map(|(v, c)| AtomSpec::TypeConst(v, c)),
        (0..3u8, 0..3u8).prop_map(|(v, o)| AtomSpec::TypeVar(v, o)),
        (0..3u8, 0..5usize, 0..3u8).prop_map(|(s, p, o)| AtomSpec::PropVarVar(s, p, o)),
        (0..3u8, 0..5usize, 0..8usize).prop_map(|(s, p, o)| AtomSpec::PropVarConst(s, p, o)),
        (0..3u8, 1..3u8, 0..3u8).prop_map(|(s, p, o)| AtomSpec::AllVar(s, p, o)),
    ]
}

fn build_atom(spec: &AtomSpec, v: &Vocab) -> Atom {
    // Variable indexes: 0..3 are data variables, 3.. property variables
    // (kept distinct so property positions stay well-formed joins).
    match spec {
        AtomSpec::TypeConst(s, c) => Atom::new(Var(*s as u32), v.vocab.rdf_type, v.classes[*c]),
        AtomSpec::TypeVar(s, o) => Atom::new(Var(*s as u32), v.vocab.rdf_type, Var(*o as u32)),
        AtomSpec::PropVarVar(s, p, o) => {
            Atom::new(Var(*s as u32), v.properties[*p], Var(*o as u32))
        }
        AtomSpec::PropVarConst(s, p, o) => {
            Atom::new(Var(*s as u32), v.properties[*p], v.resources[*o])
        }
        AtomSpec::AllVar(s, p, o) => Atom::new(Var(*s as u32), Var(3 + *p as u32), Var(*o as u32)),
    }
}

fn build_query(atoms: &[AtomSpec], v: &Vocab) -> ConjunctiveQuery {
    let atoms: Vec<Atom> = atoms.iter().map(|a| build_atom(a, v)).collect();
    // Head: all variables (maximally distinguishing — the strongest
    // equality check).
    let mut head: Vec<QTerm> = Vec::new();
    for a in &atoms {
        for var in a.vars() {
            if !head.contains(&QTerm::Var(var)) {
                head.push(QTerm::Var(var));
            }
        }
    }
    ConjunctiveQuery::new(head, atoms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn reformulation_equals_saturation(
        stmts in prop::collection::vec(stmt_strategy(), 0..8),
        triples in prop::collection::vec(triple_strategy(), 1..40),
        atoms in prop::collection::vec(atom_strategy(), 1..3),
    ) {
        let mut db = Dataset::new();
        let v = build_vocab(&mut db);
        let mut schema = Schema::new();
        for s in &stmts {
            let stmt = match *s {
                StmtSpec::SubClass(a, b) if a != b =>
                    SchemaStatement::SubClassOf(v.classes[a], v.classes[b]),
                StmtSpec::SubClass(..) => continue,
                StmtSpec::SubProp(a, b) if a != b =>
                    SchemaStatement::SubPropertyOf(v.properties[a], v.properties[b]),
                StmtSpec::SubProp(..) => continue,
                StmtSpec::Domain(p, c) => SchemaStatement::Domain(v.properties[p], v.classes[c]),
                StmtSpec::Range(p, c) => SchemaStatement::Range(v.properties[p], v.classes[c]),
            };
            schema.add(stmt);
        }
        for t in &triples {
            let triple: Triple = match *t {
                TripleSpec::Type(r, c) => [v.resources[r], v.vocab.rdf_type, v.classes[c]],
                TripleSpec::Prop(s, p, o) => [v.resources[s], v.properties[p], v.resources[o]],
            };
            db.store_mut().insert(triple);
        }
        let q = build_query(&atoms, &v);

        // Left side: plain evaluation over the saturated database.
        let saturated = saturated_copy(db.store(), &schema, &v.vocab);
        let lhs = evaluate(&saturated, &q);

        // Right side: reformulated evaluation over the original database.
        let ucq = reformulate(&q, &schema, &v.vocab);
        let rhs = evaluate_union(db.store(), &ucq);

        prop_assert_eq!(&lhs, &rhs, "query {:?}\nschema {:?}", &q, schema.statements());

        // The same theorem on the statistics: the catalog counted on the
        // saturated store and the post-reformulation catalog counted on
        // the original store agree field by field.
        let queries = std::slice::from_ref(&q);
        let sat_cat = collect_stats(&saturated, db.dict(), queries);
        let post_cat =
            collect_stats_post_reform(db.store(), db.dict(), queries, &schema, &v.vocab);
        prop_assert_eq!(sat_cat.dataset_size(), post_cat.dataset_size());
        for col in 0..3 {
            prop_assert_eq!(sat_cat.distinct(col), post_cat.distinct(col), "column {}", col);
        }
        prop_assert_eq!(sat_cat.min_max(), post_cat.min_max());
        prop_assert_eq!(
            sat_cat.avg_widths_raw().map(f64::to_bits),
            post_cat.avg_widths_raw().map(f64::to_bits)
        );
        let counts = |cat: &StatsCatalog| -> HashMap<_, _> {
            cat.counts().map(|(k, c)| (*k, c)).collect()
        };
        prop_assert_eq!(counts(&sat_cat), counts(&post_cat));

        // Structural invariants of Algorithm 1: every branch keeps the
        // original atom count and head arity (rules replace atoms 1:1).
        for branch in ucq.branches() {
            prop_assert_eq!(branch.atoms.len(), q.atoms.len());
            prop_assert_eq!(branch.head.len(), q.head.len());
        }
    }
}

/// Theorem 4.1's size bound `(2|S|²)^m`, checked where it is meaningful:
/// on a Barton-scale schema (the asymptotic bound understates tiny
/// schemas, where rule 5's class enumeration can exceed `2|S|²`).
#[test]
fn theorem_4_1_bound_on_barton_schema() {
    use rdfviews::workload::{
        generate_barton, generate_satisfiable, BartonSpec, SatisfiableSpec, Shape,
    };
    let data = generate_barton(&BartonSpec::tiny());
    let qs = generate_satisfiable(&data.db, &SatisfiableSpec::new(4, 3, Shape::Mixed));
    for q in &qs {
        let ucq = reformulate(q, &data.schema, &data.vocab);
        let bound = theorem_4_1_bound(data.schema.len(), q.atoms.len());
        assert!((ucq.len() as u128) <= bound, "{} > {bound}", ucq.len());
        assert!(!ucq.is_empty());
    }
}

/// The reformulated union always contains the original query itself.
#[test]
fn reformulation_contains_original() {
    let mut db = Dataset::new();
    let v = build_vocab(&mut db);
    let mut schema = Schema::new();
    schema.add(SchemaStatement::SubClassOf(v.classes[0], v.classes[1]));
    let q = build_query(&[AtomSpec::TypeConst(0, 1)], &v);
    let ucq = reformulate(&q, &schema, &v.vocab);
    assert!(ucq.contains(&q.normalized()));
    assert_eq!(ucq.len(), 2);
}
