//! The 6-atom cliff, held as a row count rather than a time.
//!
//! Generated 6-atom queries are stars and chains whose arms mostly end in
//! a variable used once and never returned. A join core that enumerates
//! such variables walks the product of the arms' fan-outs for every
//! subject (on some seeds 10⁹ rows, tens of seconds); one that settles an
//! atom whose unbound variables are all lonely by its non-empty extent
//! walks each subject's rows once. The data and queries below are a seed
//! on which the difference is two orders of magnitude yet the enumerating
//! core still finishes in a fraction of a second, so a regression fails
//! this test by its count and not by a timeout.

use rdfviews::engine::{evaluate, evaluate_mixed, MixedAtom};
use rdfviews::model::FxHashMap;
use rdfviews::query::{ConjunctiveQuery, QTerm};
use rdfviews::schema::saturated_copy;
use rdfviews::workload::{
    generate_barton, generate_satisfiable, BartonSpec, SatisfiableSpec, Shape,
};

/// Rows the 12 queries may visit in all. Enumerating the lonely
/// variables visits 8.94M; settling them about 7.6·10⁴.
const MAX_ROWS: u64 = 1_000_000;

#[test]
fn six_atom_queries_settle_their_lonely_arms() {
    let barton = generate_barton(&BartonSpec {
        resources: 1_000,
        triples: 40_000,
        seed: 2,
        ..BartonSpec::default()
    });
    let queries = generate_satisfiable(
        &barton.db,
        &SatisfiableSpec {
            queries: 12,
            atoms: 6,
            shape: Shape::Mixed,
            object_const_prob: 0.15,
            seed: 2,
        },
    );
    assert_eq!(queries.len(), 12);
    let store = saturated_copy(barton.db.store(), &barton.schema, &barton.vocab);

    let (mut rows, mut checks, mut answers) = (0, 0, 0);
    for q in &queries {
        assert_eq!(q.atoms.len(), 6, "a 6-atom query");
        let atoms: Vec<MixedAtom> = q.atoms.iter().map(|a| MixedAtom::Store(*a)).collect();
        let (got, stats) = evaluate_mixed(&store, &atoms, &q.head);
        assert!(!got.is_empty(), "a satisfiable query has answers");
        rows += stats.rows_visited;
        checks += stats.checks;
        answers += got.len();

        // Soundness: every answer, substituted into the head, leaves a
        // boolean query the store satisfies.
        for tuple in got.rows() {
            let mut map = FxHashMap::default();
            for (term, value) in q.head.iter().zip(tuple.iter()) {
                if let QTerm::Var(v) = term {
                    map.insert(*v, QTerm::Const(*value));
                }
            }
            let bound = q.substitute(&map);
            let boolean = ConjunctiveQuery::new(Vec::new(), bound.atoms);
            assert_eq!(
                evaluate(&store, &boolean).len(),
                1,
                "answer {tuple:?} is a witness"
            );
        }
    }
    assert!(
        rows <= MAX_ROWS,
        "{rows} rows visited for {answers} answers (bound {MAX_ROWS})"
    );
    assert!(checks > 0, "some atoms were settled by their extents");
}
