//! The conjunctive-query evaluator: one join core with two kinds of node.
//!
//! A single pipeline serves both query shapes the paper needs: CQs over
//! the triple table (atoms answered through the store's six permutation
//! indexes) and rewritings over materialized views (atoms answered through
//! the tables' cached hash indexes). Every query runs the *compiled* core
//! in [`compiled`]: each query is compiled once into dense variable slots;
//! every atom's matching rows under the current bindings are looked up
//! once, as a borrowed slice with its row count, which both sizes the atom
//! for the adaptive choice of the next one and is what that atom then
//! walks; everything about a join node that does not depend on the row in
//! hand is worked out once per node, as a small program; enumeration stops
//! at the first witness once every head term is bound (the remaining atoms
//! can no longer change the answer); a variable used once in the body and
//! not in the head is never bound, and an atom left with only such
//! variables unbound is settled by its extent being non-empty, never run;
//! and all working memory comes from a thread-local [`scratch`] pool,
//! answers being staged flat, so a call allocates nothing per row and
//! nothing per tuple.
//!
//! A node either *runs* an atom, walking its extent row by row, or
//! *intersects* a group of atoms that each leave one variable open, the
//! same one: their extents are sorted on it, so galloping over them side
//! by side finds the values they share without walking any one of them.
//! That is the step a cyclic query needs — a triangle's last two edges
//! meet on one variable — and the node takes it when one of the group has
//! the smallest extent. [`EvalStats::seeks`] counts its galloping seeks.
//!
//! The core is checked against [`crate::oracle`], nested loops over full
//! scans.

mod compiled;
pub(crate) mod scratch;

use rdf_model::TripleStore;
use rdf_query::{Atom, ConjunctiveQuery, QTerm, UnionQuery};

use crate::answers::Answers;
use crate::view_table::ViewTable;

/// One rewriting atom: a view table applied to argument terms. Constants
/// encode selections; repeated variables encode joins. Both parts are
/// borrowed: a plan's argument lists reach the join core without a copy.
#[derive(Debug, Clone, Copy)]
pub struct ViewAtom<'a> {
    /// The materialized view being scanned.
    pub table: &'a ViewTable,
    /// One term per view head column.
    pub args: &'a [QTerm],
}

/// Per-call evaluation statistics: how many rows the join core visited,
/// how many index lookups it made, how many atoms it settled without
/// running them and how many galloping seeks its intersect nodes made.
/// Tests and benches hold the core's work to these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Rows (index-range triples, view-bucket rows) the core tried to
    /// extend the current bindings with, over all join depths, plus the
    /// values its intersect nodes found shared — the work a projecting
    /// query saves by stopping at its first witness.
    pub rows_visited: u64,
    /// Index lookups: view-bucket probes plus store range searches,
    /// constants' included. An atom is looked up once per binding of its
    /// variables, so this grows with the bindings tried, not with the
    /// atoms left at each of them.
    pub probes: u64,
    /// Remaining atoms the core settled without running them: atoms whose
    /// unbound variables are all lonely (used once in the body and not in
    /// the head), which hold as soon as their extent is non-empty. Counted
    /// once per join node that settles them, not per row.
    pub checks: u64,
    /// Galloping seeks of the intersect nodes: each moves one extent's
    /// cursor to the first value not below the candidate, a cursor already
    /// there costing one compare.
    pub seeks: u64,
}

/// Evaluates a conjunctive query over the triple table.
pub fn evaluate(store: &TripleStore, q: &ConjunctiveQuery) -> Answers {
    let atoms: Vec<MixedAtom> = q.atoms.iter().map(|a| MixedAtom::Store(*a)).collect();
    evaluate_mixed(store, &atoms, &q.head).0
}

/// Evaluates a union of conjunctive queries (set-union of branch answers).
pub fn evaluate_union(store: &TripleStore, ucq: &UnionQuery) -> Answers {
    let arity = ucq.branches().first().map_or(0, |b| b.head.len());
    Answers::union_all(arity, ucq.branches().iter().map(|b| evaluate(store, b)))
}

/// One atom of a mixed evaluation: a triple-table atom or a view scan.
///
/// This is the shape of a set-at-a-time delta join (`rdf_engine::maintain`):
/// one atom position ranges over the Δ set — materialized as a small
/// 3-column [`ViewTable`] and probed through its cached hash indexes —
/// while every other atom ranges over the store. A rewriting over views
/// alone is all [`MixedAtom::View`]s.
#[derive(Debug, Clone, Copy)]
pub enum MixedAtom<'a> {
    /// An atom answered from the triple store's permutation indexes.
    Store(Atom),
    /// An atom answered from a materialized table.
    View(ViewAtom<'a>),
}

/// Evaluates a conjunctive query whose atoms mix triple-table scans and
/// view-table scans, returning the answers with the core's counters — what
/// the deployment layer records per executed plan branch. View tables are
/// probed through their resident hash-index caches, so repeated calls
/// against the same tables (a maintenance batch's per-atom-position delta
/// joins, a served workload's repeated plans) build each index **once**.
/// A query without store atoms reads nothing of `store`.
pub fn evaluate_mixed(
    store: &TripleStore,
    atoms: &[MixedAtom<'_>],
    head: &[QTerm],
) -> (Answers, EvalStats) {
    let plan = compiled::compile(atoms, head);
    let mut stats = EvalStats::default();
    let answers = compiled::execute(store, &plan, &mut stats);
    (answers, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use rdf_model::{Dataset, Id, Term};
    use rdf_query::parser::parse_query;
    use rdf_query::Var;

    /// The evaluation of a store query, with its stats.
    fn with_stats(store: &TripleStore, q: &ConjunctiveQuery) -> (Answers, EvalStats) {
        let atoms: Vec<MixedAtom> = q.atoms.iter().map(|a| MixedAtom::Store(*a)).collect();
        evaluate_mixed(store, &atoms, &q.head)
    }

    /// The evaluation of a rewriting over views alone.
    fn over_views(atoms: &[ViewAtom<'_>], head: &[QTerm]) -> Answers {
        let atoms: Vec<MixedAtom> = atoms.iter().map(|va| MixedAtom::View(*va)).collect();
        evaluate_mixed(&TripleStore::new(), &atoms, head).0
    }

    fn family() -> Dataset {
        let mut db = Dataset::new();
        let t = |db: &mut Dataset, s: &str, p: &str, o: &str| {
            db.insert_terms(Term::uri(s), Term::uri(p), Term::uri(o));
        };
        // rembrandt painted nightWatch; picasso painted guernica;
        // rembrandt parentOf titus; titus painted portrait.
        t(&mut db, "rembrandt", "hasPainted", "nightWatch");
        t(&mut db, "picasso", "hasPainted", "guernica");
        t(&mut db, "rembrandt", "isParentOf", "titus");
        t(&mut db, "titus", "hasPainted", "portrait");
        db
    }

    #[test]
    fn single_atom_with_constant() {
        let mut db = family();
        let q = parse_query("q(X) :- t(X, <hasPainted>, <guernica>)", db.dict_mut()).unwrap();
        let a = evaluate(db.store(), &q.query);
        assert_eq!(a.len(), 1);
        let picasso = db.dict().lookup_uri("picasso").unwrap();
        assert!(a.contains(&[picasso]));
    }

    #[test]
    fn join_across_atoms() {
        let mut db = family();
        let q = parse_query(
            "q(X, Z) :- t(X, <isParentOf>, Y), t(Y, <hasPainted>, Z)",
            db.dict_mut(),
        )
        .unwrap();
        let a = evaluate(db.store(), &q.query);
        assert_eq!(a.len(), 1);
        let rembrandt = db.dict().lookup_uri("rembrandt").unwrap();
        let portrait = db.dict().lookup_uri("portrait").unwrap();
        assert!(a.contains(&[rembrandt, portrait]));
    }

    #[test]
    fn running_example_q1() {
        // Painters of a specific painting with a painter child.
        let mut db = family();
        let q = parse_query(
            "q1(X, Z) :- t(X, <hasPainted>, <nightWatch>), t(X, <isParentOf>, Y), \
             t(Y, <hasPainted>, Z)",
            db.dict_mut(),
        )
        .unwrap();
        let a = evaluate(db.store(), &q.query);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn repeated_variable_in_atom() {
        let mut db = family();
        db.insert_terms(
            Term::uri("narciss"),
            Term::uri("admires"),
            Term::uri("narciss"),
        );
        db.insert_terms(Term::uri("a"), Term::uri("admires"), Term::uri("b"));
        let q = parse_query("q(X) :- t(X, <admires>, X)", db.dict_mut()).unwrap();
        let a = evaluate(db.store(), &q.query);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn variable_property() {
        let mut db = family();
        let q = parse_query("q(P) :- t(<rembrandt>, P, Y)", db.dict_mut()).unwrap();
        let a = evaluate(db.store(), &q.query);
        assert_eq!(a.len(), 2); // hasPainted, isParentOf
    }

    #[test]
    fn boolean_query_semantics() {
        let mut db = family();
        let yes = parse_query("q() :- t(X, <hasPainted>, Y)", db.dict_mut()).unwrap();
        assert_eq!(evaluate(db.store(), &yes.query).len(), 1);
        let no = parse_query("q() :- t(X, <hasEaten>, Y)", db.dict_mut()).unwrap();
        assert!(evaluate(db.store(), &no.query).is_empty());
    }

    #[test]
    fn set_semantics_dedup() {
        let mut db = family();
        // X has painted something: picasso appears once despite join paths.
        let q = parse_query("q(X) :- t(X, <hasPainted>, Y)", db.dict_mut()).unwrap();
        let a = evaluate(db.store(), &q.query);
        assert_eq!(a.len(), 3); // rembrandt, picasso, titus
    }

    #[test]
    fn union_evaluation() {
        let mut db = family();
        let q1 = parse_query("q(X) :- t(X, <hasPainted>, <guernica>)", db.dict_mut()).unwrap();
        let q2 = parse_query("q(X) :- t(X, <isParentOf>, Y)", db.dict_mut()).unwrap();
        let mut u = UnionQuery::new();
        u.push(q1.query);
        u.push(q2.query);
        let a = evaluate_union(db.store(), &u);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn view_rewriting_equals_direct() {
        use crate::materialize;
        let mut db = family();
        // Views: v1(X,Y) = parentOf pairs; v2(Y,Z) = painted pairs.
        let v1 = parse_query("v1(X, Y) :- t(X, <isParentOf>, Y)", db.dict_mut()).unwrap();
        let v2 = parse_query("v2(Y, Z) :- t(Y, <hasPainted>, Z)", db.dict_mut()).unwrap();
        let t1 = materialize(db.store(), &v1.query);
        let t2 = materialize(db.store(), &v2.query);
        // Rewriting r(X,Z) :- v1(X,Y), v2(Y,Z).
        let x = Var(0);
        let y = Var(1);
        let z = Var(2);
        let (xy, yz) = ([x.into(), y.into()], [y.into(), z.into()]);
        let atoms = [
            ViewAtom {
                table: &t1,
                args: &xy,
            },
            ViewAtom {
                table: &t2,
                args: &yz,
            },
        ];
        let via_views = over_views(&atoms, &[x.into(), z.into()]);
        let direct = parse_query(
            "q(X, Z) :- t(X, <isParentOf>, Y), t(Y, <hasPainted>, Z)",
            db.dict_mut(),
        )
        .unwrap();
        assert_eq!(via_views, evaluate(db.store(), &direct.query));
    }

    #[test]
    fn view_rewriting_with_selection_constant() {
        use crate::materialize;
        let mut db = family();
        let v = parse_query("v(X, Y) :- t(X, <hasPainted>, Y)", db.dict_mut()).unwrap();
        let t = materialize(db.store(), &v.query);
        let guernica = db.dict().lookup_uri("guernica").unwrap();
        let x = Var(0);
        let args = [x.into(), guernica.into()];
        let atoms = [ViewAtom {
            table: &t,
            args: &args,
        }];
        let a = over_views(&atoms, &[x.into()]);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn mixed_atoms_equal_direct_evaluation() {
        // One atom answered from a 3-column delta-style table, the other
        // from the store: the mix must agree with pure store evaluation.
        let mut db = family();
        let q = parse_query(
            "q(X, Z) :- t(X, <isParentOf>, Y), t(Y, <hasPainted>, Z)",
            db.dict_mut(),
        )
        .unwrap()
        .query;
        let delta = ViewTable::from_rows(3, db.store().triples().iter().map(|t| t.to_vec()));
        for i in 0..q.atoms.len() {
            let atoms: Vec<MixedAtom> = q
                .atoms
                .iter()
                .enumerate()
                .map(|(j, a)| {
                    if j == i {
                        MixedAtom::View(ViewAtom {
                            table: &delta,
                            args: a.terms(),
                        })
                    } else {
                        MixedAtom::Store(*a)
                    }
                })
                .collect();
            let (mixed, _) = evaluate_mixed(db.store(), &atoms, &q.head);
            assert_eq!(mixed, evaluate(db.store(), &q), "delta at atom {i}");
        }
    }

    #[test]
    fn repeated_mixed_calls_reuse_view_indexes() {
        // The acceptance contract for the view-index caches: a
        // maintenance-style batch (several evaluate_mixed calls probing the
        // same delta table) builds each (mask, version) index once — not
        // once per call.
        let mut db = family();
        let q = parse_query(
            "q(X, Z) :- t(X, <isParentOf>, Y), t(Y, <hasPainted>, Z)",
            db.dict_mut(),
        )
        .unwrap()
        .query;
        let delta = ViewTable::from_rows(3, db.store().triples().iter().map(|t| t.to_vec()));
        let atoms: Vec<MixedAtom> = vec![
            MixedAtom::Store(q.atoms[0]),
            MixedAtom::View(ViewAtom {
                table: &delta,
                args: q.atoms[1].terms(),
            }),
        ];
        let (first, _) = evaluate_mixed(db.store(), &atoms, &q.head);
        let builds_after_first = delta.index_builds();
        assert!(builds_after_first >= 1, "the probed mask built an index");
        for _ in 0..5 {
            assert_eq!(evaluate_mixed(db.store(), &atoms, &q.head).0, first);
        }
        assert_eq!(
            delta.index_builds(),
            builds_after_first,
            "repeated calls reuse the cached view indexes"
        );
    }

    #[test]
    fn scan_only_matches_indexed() {
        let mut db = family();
        let q = parse_query(
            "q(X, Z) :- t(X, <isParentOf>, Y), t(Y, <hasPainted>, Z)",
            db.dict_mut(),
        )
        .unwrap();
        let indexed = evaluate(db.store(), &q.query);
        assert_eq!(indexed, oracle::evaluate(db.store(), &q.query));
    }

    #[test]
    fn cartesian_product_rewriting() {
        use crate::materialize;
        let mut db = family();
        let v = parse_query("v(X) :- t(X, <isParentOf>, Y)", db.dict_mut()).unwrap();
        let t = materialize(db.store(), &v.query);
        let a = Var(0);
        let b = Var(1);
        let (args_a, args_b) = ([a.into()], [b.into()]);
        let atoms = [
            ViewAtom {
                table: &t,
                args: &args_a,
            },
            ViewAtom {
                table: &t,
                args: &args_b,
            },
        ];
        let ans = over_views(&atoms, &[a.into(), b.into()]);
        assert_eq!(ans.len(), 1); // 1×1 product
    }

    fn triangle_db() -> Dataset {
        let mut db = Dataset::new();
        let edge = |db: &mut Dataset, p: &str, s: &str, o: &str| {
            db.insert_terms(Term::uri(s), Term::uri(p), Term::uri(o));
        };
        // Two triangles sharing the edge b->c, plus dead-end edges.
        edge(&mut db, "e", "a", "b");
        edge(&mut db, "e", "b", "c");
        edge(&mut db, "e", "c", "a");
        edge(&mut db, "e", "a2", "b");
        edge(&mut db, "e", "c", "a2");
        edge(&mut db, "e", "a", "x");
        edge(&mut db, "e", "x", "y");
        db
    }

    fn triangle_query(db: &mut Dataset) -> ConjunctiveQuery {
        parse_query(
            "q(X, Y, Z) :- t(X, <e>, Y), t(Y, <e>, Z), t(Z, <e>, X)",
            db.dict_mut(),
        )
        .unwrap()
        .query
    }

    #[test]
    fn a_triangle_intersects_its_last_two_edges() {
        let mut db = triangle_db();
        let q = triangle_query(&mut db);
        let (a, stats) = with_stats(db.store(), &q);
        assert!(stats.seeks > 0, "the last two edges meet by seeks");
        assert_eq!(a.len(), 6, "two triangles, three rotations each");
        assert_eq!(a, oracle::evaluate(db.store(), &q));
    }

    #[test]
    fn a_chain_never_seeks() {
        let mut db = triangle_db();
        let q = parse_query("q(X, Z) :- t(X, <e>, Y), t(Y, <e>, Z)", db.dict_mut())
            .unwrap()
            .query;
        let (a, stats) = with_stats(db.store(), &q);
        assert_eq!(stats.seeks, 0, "no two atoms leave one variable open");
        assert_eq!(a, oracle::evaluate(db.store(), &q));
    }

    #[test]
    fn projection_stops_at_the_first_witness() {
        // q(X) :- t(X, p, Y), t(X, q, Z) over N subjects with fan-out F on
        // both properties. Whichever atom runs first binds X, which decides
        // the head; the other atom is then an existence check that stops at
        // its first row — N·F + N·F rows, not N·F + N·F².
        const N: u64 = 40;
        const F: u64 = 12;
        let mut db = Dataset::new();
        for s in 0..N {
            for o in 0..F {
                for p in ["p", "q"] {
                    db.insert_terms(
                        Term::uri(format!("s{s}")),
                        Term::uri(p),
                        Term::uri(format!("{p}{o}")),
                    );
                }
            }
        }
        let q = parse_query("q(X) :- t(X, <p>, Y), t(X, <q>, Z)", db.dict_mut())
            .unwrap()
            .query;
        let (a, stats) = with_stats(db.store(), &q);
        assert_eq!(a.len() as u64, N);
        assert!(
            stats.rows_visited <= 2 * N * F,
            "{} rows",
            stats.rows_visited
        );
        assert_eq!(a, oracle::evaluate(db.store(), &q));

        // With Z in the head nothing is decided before the last atom, but Y
        // is lonely: the p-atom's rows that bind the same X are one row,
        // and walking them costs N·F; the q-atom's N·F rows are the
        // answer. Enumerating Y would make it N·F + N·F².
        let full = parse_query("q(X, Z) :- t(X, <p>, Y), t(X, <q>, Z)", db.dict_mut())
            .unwrap()
            .query;
        let (a, stats) = with_stats(db.store(), &full);
        assert_eq!(a.len() as u64, N * F);
        assert!(
            stats.rows_visited <= 2 * N * F,
            "{} rows",
            stats.rows_visited
        );
        assert_eq!(a, oracle::evaluate(db.store(), &full));

        // A boolean query is decided before its first row.
        let any = parse_query("q() :- t(X, <p>, Y), t(X, <q>, Z)", db.dict_mut())
            .unwrap()
            .query;
        let (a, stats) = with_stats(db.store(), &any);
        assert_eq!(a.len(), 1);
        assert!(stats.rows_visited <= 2, "{} rows", stats.rows_visited);
    }

    #[test]
    fn an_atom_is_probed_once_per_binding() {
        // q(X) :- t(X, p, A), t(X, q, B), t(X, r, C) over N subjects: three
        // probes place the constants, and each row of the first atom binds
        // X and probes the other two once. A, B and C are lonely, so those
        // two are settled by their non-empty extents and never run: one
        // row per subject. Sizing and reading an atom by separate lookups
        // would make it more probes per subject, and running the settled
        // atoms 3 rows.
        const N: u64 = 50;
        let mut db = Dataset::new();
        for s in 0..N {
            for p in ["p", "q", "r"] {
                db.insert_terms(
                    Term::uri(format!("s{s}")),
                    Term::uri(p),
                    Term::uri(format!("{p}{s}")),
                );
            }
        }
        let q = parse_query(
            "q(X) :- t(X, <p>, A), t(X, <q>, B), t(X, <r>, C)",
            db.dict_mut(),
        )
        .unwrap()
        .query;
        let (a, stats) = with_stats(db.store(), &q);
        assert_eq!(a.len() as u64, N);
        assert_eq!(stats.rows_visited, N);
        assert_eq!(stats.checks, 2 * N, "two atoms settled per subject");
        assert!(stats.probes <= 2 * N + 3, "{} probes", stats.probes);
        assert_eq!(a, oracle::evaluate(db.store(), &q));
        assert_eq!(stats.seeks, 0, "lonely arms leave two terms open");
    }

    #[test]
    fn a_choice_that_flips_on_every_row_rebuilds_its_program() {
        // q(X, V, W) :- t(X, a, U), t(U, b, V), t(U, c, W). The first atom
        // is the smallest and its rows come in the order of X; U has one
        // b-edge and two c-edges for even X and the reverse for odd X, so
        // the atom chosen second changes with every row and no row finds
        // the program of the row before it. The answers and the row count
        // must be what they would be had each node been planned afresh:
        // per X, its own row, the one row of the smaller atom, and under
        // it the two rows of the larger.
        const N: u64 = 64;
        let mut db = Dataset::new();
        for i in 0..N {
            db.insert_terms(
                Term::uri(format!("x{i:02}")),
                Term::uri("a"),
                Term::uri(format!("u{i:02}")),
            );
        }
        for i in 0..N {
            for (p, fan) in [("b", 1 + i % 2), ("c", 2 - i % 2)] {
                for k in 0..fan {
                    db.insert_terms(
                        Term::uri(format!("u{i:02}")),
                        Term::uri(p),
                        Term::uri(format!("{p}{i:02}_{k}")),
                    );
                }
            }
        }
        let q = parse_query(
            "q(X, V, W) :- t(X, <a>, U), t(U, <b>, V), t(U, <c>, W)",
            db.dict_mut(),
        )
        .unwrap()
        .query;
        let (a, stats) = with_stats(db.store(), &q);
        assert_eq!(a, oracle::evaluate(db.store(), &q));
        assert_eq!(a.len() as u64, 2 * N);
        assert_eq!(stats.rows_visited, N + N + 2 * N);
        assert_eq!(stats.probes, 3 + 2 * N);
    }

    #[test]
    #[should_panic(expected = "unsafe query: unbound head variable")]
    fn a_head_variable_missing_from_the_body_panics_at_the_first_answer() {
        let mut db = family();
        let q = parse_query("q(X) :- t(X, <hasPainted>, Y)", db.dict_mut())
            .unwrap()
            .query;
        let unsafe_q = ConjunctiveQuery::new(vec![q.head[0], Var(99).into()], q.atoms);
        evaluate(db.store(), &unsafe_q);
    }

    #[test]
    fn constant_arms_intersect_and_count_their_seeks() {
        // q(X) :- t(X, e, b), t(X, e, c): both atoms leave only X open, in
        // their subject column, so the root intersects them; their
        // extents are the e-b and e-c subject lists.
        let mut db = triangle_db();
        db.insert_terms(Term::uri("a2"), Term::uri("e"), Term::uri("c"));
        let q = parse_query("q(X) :- t(X, <e>, <b>), t(X, <e>, <c>)", db.dict_mut())
            .unwrap()
            .query;
        let (a, stats) = with_stats(db.store(), &q);
        assert_eq!(a, oracle::evaluate(db.store(), &q));
        let a2 = db.dict().lookup_uri("a2").unwrap();
        assert_eq!(a.tuples(), [&[a2][..]]);
        assert!(stats.seeks > 0);
        assert_eq!(stats.rows_visited, 1, "one shared subject");
        assert_eq!(stats.probes, 2, "each extent is looked up once");
    }

    #[test]
    fn cyclic_shapes_match_the_oracle() {
        let mut db = triangle_db();
        let queries = [
            "q(X, Y, Z) :- t(X, <e>, Y), t(Y, <e>, Z), t(Z, <e>, X)",
            // A 4-cycle and a diamond over the same edges.
            "q(W, X, Y, Z) :- t(W, <e>, X), t(X, <e>, Y), t(Y, <e>, Z), t(Z, <e>, W)",
            "q(W, Z) :- t(W, <e>, X), t(W, <e>, Y), t(X, <e>, Z), t(Y, <e>, Z)",
        ];
        for text in queries {
            let q = parse_query(text, db.dict_mut()).unwrap().query;
            assert_eq!(
                evaluate(db.store(), &q),
                oracle::evaluate(db.store(), &q),
                "{text}"
            );
        }
    }

    #[test]
    fn intersect_handles_constants_repeats_and_products() {
        let mut db = triangle_db();
        db.insert_terms(Term::uri("n"), Term::uri("e"), Term::uri("n"));
        let queries = [
            // Anchored triangle corner.
            "q(Y, Z) :- t(<a>, <e>, Y), t(Y, <e>, Z), t(Z, <e>, <a>)",
            // Repeated variable inside an atom.
            "q(X) :- t(X, <e>, X)",
            // Cartesian product of two edges.
            "q(X, Y, U, V) :- t(X, <e>, Y), t(U, <e>, V)",
            // Boolean triangle.
            "q() :- t(X, <e>, Y), t(Y, <e>, Z), t(Z, <e>, X)",
            // Ground atom.
            "q(X) :- t(<a>, <e>, <b>), t(X, <e>, X)",
            // Three atoms meeting on one open variable.
            "q(X) :- t(X, <e>, <b>), t(<c>, <e>, X), t(X, <e>, <x>)",
        ];
        for text in queries {
            let q = parse_query(text, db.dict_mut()).unwrap().query;
            let want = oracle::evaluate(db.store(), &q);
            assert_eq!(evaluate(db.store(), &q), want, "{text}");
        }
    }

    #[test]
    fn a_triangle_over_view_tables_intersects_buckets() {
        use crate::materialize;
        let mut db = triangle_db();
        let v = parse_query("v(X, Y) :- t(X, <e>, Y)", db.dict_mut()).unwrap();
        let t = materialize(db.store(), &v.query);
        let e = db.dict().lookup_uri("e").unwrap();
        let (x, y, z) = (Var(0), Var(1), Var(2));
        let (xy, yz) = ([x.into(), y.into()], [y.into(), z.into()]);
        let atoms: Vec<MixedAtom> = vec![
            MixedAtom::View(ViewAtom {
                table: &t,
                args: &xy,
            }),
            MixedAtom::View(ViewAtom {
                table: &t,
                args: &yz,
            }),
            MixedAtom::Store(Atom([z.into(), QTerm::Const(e), x.into()])),
        ];
        let head = [x.into(), y.into(), z.into()];
        let (a, stats) = evaluate_mixed(db.store(), &atoms, &head);
        let direct = {
            let mut db2 = triangle_db();
            let q = triangle_query(&mut db2);
            evaluate(db2.store(), &q)
        };
        assert_eq!(a, direct);
        assert!(stats.seeks > 0, "a bucket and a range meet by seeks");
        assert!(t.index_builds() >= 1, "view atoms probed their buckets");
        let builds = t.index_builds();
        let (b, _) = evaluate_mixed(db.store(), &atoms, &head);
        assert_eq!(b, direct);
        assert_eq!(t.index_builds(), builds, "bucket indexes are reused");
    }

    #[test]
    fn the_block_triangle_visits_its_first_edges_and_its_answers() {
        // The join_throughput triangle at a small scale: hub x has FY
        // R-edges to y's, every y a BZ-long block of S-edges to z's, and
        // every x a BZ-long block of T-edges — overlapping the S-blocks of
        // its first two y's for one hub in 16, out of their reach for the
        // rest. Once R binds (x, y), S(y, ·) and T(x, ·) share only z:
        // intersected, they cost seeks, not a walk of one block with a
        // probe per row, which would visit |R|·(1 + BZ) + answers rows.
        const NX: u32 = 32;
        const FY: u32 = 4;
        const BZ: u32 = 16;
        let (xb, yb, zb, zhi) = (3_000_000u32, 3_100_000u32, 3_200_000u32, 3_500_000u32);
        let (pr, ps, pt) = (Id(2_000_000), Id(2_000_001), Id(2_000_002));
        let mut batch = Vec::new();
        for i in 0..NX {
            let j0 = (i * FY) % NX;
            for k in 0..FY {
                batch.push([Id(xb + i), pr, Id(yb + j0 + k)]);
            }
            let t0 = if i % 16 == 0 {
                zb + j0 * BZ + BZ - 8
            } else {
                zhi + i * BZ
            };
            for k in 0..BZ {
                batch.push([Id(xb + i), pt, Id(t0 + k)]);
            }
            for k in 0..BZ {
                batch.push([Id(yb + i), ps, Id(zb + i * BZ + k)]);
            }
        }
        let mut store = TripleStore::new();
        store.insert_batch(&batch);
        let (x, y, z) = (QTerm::Var(Var(0)), QTerm::Var(Var(1)), QTerm::Var(Var(2)));
        let q = ConjunctiveQuery::new(
            vec![x, y, z],
            vec![
                Atom([x, QTerm::Const(pr), y]),
                Atom([y, QTerm::Const(ps), z]),
                Atom([x, QTerm::Const(pt), z]),
            ],
        );
        let (a, stats) = with_stats(&store, &q);
        assert_eq!(a, oracle::evaluate(&store, &q));
        assert_eq!(a.len() as u64, u64::from(NX / 16 * BZ));
        let r = u64::from(NX * FY);
        assert!(
            stats.rows_visited <= r + a.len() as u64,
            "{} rows for |R| = {r} and {} answers",
            stats.rows_visited,
            a.len()
        );
        assert!(stats.seeks > 0);
    }

    #[test]
    fn constant_head_terms_survive_compilation() {
        let mut db = family();
        let titus = db.dict().lookup_uri("titus").unwrap();
        // Head mixes a constant (reformulation rules 5–6 produce these)
        // with a variable.
        let q = parse_query("q(X) :- t(X, <isParentOf>, Y)", db.dict_mut())
            .unwrap()
            .query;
        let head = vec![QTerm::Const(titus), q.head[0]];
        let q2 = ConjunctiveQuery::new(head, q.atoms);
        let a = evaluate(db.store(), &q2);
        assert_eq!(a.len(), 1);
        let rembrandt = db.dict().lookup_uri("rembrandt").unwrap();
        assert!(a.contains(&[titus, rembrandt]));
    }

    /// Asserts the oracle's answers to `text` are `want`, by URI name.
    fn oracle_is(db: &mut Dataset, text: &str, want: &[&[&str]]) {
        let q = parse_query(text, db.dict_mut()).unwrap().query;
        let id = |name: &&str| db.dict().lookup_uri(name).unwrap();
        let want = want
            .iter()
            .map(|row| row.iter().map(id).collect::<Vec<Id>>());
        let want = Answers::from_tuples(q.head.len(), want);
        assert_eq!(oracle::evaluate(db.store(), &q), want, "{text}");
    }

    #[test]
    fn the_oracle_answers_the_family_by_hand() {
        let mut db = family();
        let chain = "q(X, Z) :- t(X, <isParentOf>, Y), t(Y, <hasPainted>, Z)";
        oracle_is(&mut db, chain, &[&["rembrandt", "portrait"]]);
        let painted = [
            &["rembrandt", "nightWatch"][..],
            &["picasso", "guernica"],
            &["titus", "portrait"],
        ];
        oracle_is(&mut db, "q(X, Y) :- t(X, <hasPainted>, Y)", &painted);
        let painters = [&["rembrandt"][..], &["picasso"], &["titus"]];
        oracle_is(&mut db, "q(X) :- t(X, <hasPainted>, Y)", &painters);
        let props = [&["hasPainted"][..], &["isParentOf"]];
        oracle_is(&mut db, "q(P) :- t(<rembrandt>, P, Y)", &props);
    }

    #[test]
    fn the_oracle_finds_both_triangles_by_hand() {
        let mut db = triangle_db();
        let rotations = [
            &["a", "b", "c"][..],
            &["b", "c", "a"],
            &["c", "a", "b"],
            &["a2", "b", "c"],
            &["b", "c", "a2"],
            &["c", "a2", "b"],
        ];
        let triangle = "q(X, Y, Z) :- t(X, <e>, Y), t(Y, <e>, Z), t(Z, <e>, X)";
        oracle_is(&mut db, triangle, &rotations);
        let into_b = "q(X, Z) :- t(X, <e>, Y), t(Y, <e>, Z), t(Z, <e>, <b>)";
        oracle_is(&mut db, into_b, &[&["b", "a"], &["b", "a2"]]);
    }

    #[test]
    fn the_oracle_binds_a_repeated_variable_once() {
        let mut db = family();
        db.insert_terms(
            Term::uri("narciss"),
            Term::uri("admires"),
            Term::uri("narciss"),
        );
        db.insert_terms(Term::uri("a"), Term::uri("admires"), Term::uri("b"));
        oracle_is(&mut db, "q(X) :- t(X, <admires>, X)", &[&["narciss"]]);
        oracle_is(&mut db, "q(X, P) :- t(X, P, X)", &[&["narciss", "admires"]]);
        let across = "q(X) :- t(X, <hasPainted>, Y), t(X, <isParentOf>, Z)";
        oracle_is(&mut db, across, &[&["rembrandt"]]);
    }

    #[test]
    fn the_oracle_tests_ground_atoms_for_membership() {
        let mut db = family();
        let held = "q(X) :- t(<rembrandt>, <isParentOf>, <titus>), t(X, <hasPainted>, <guernica>)";
        oracle_is(&mut db, held, &[&["picasso"]]);
        let absent = "q(X) :- t(<picasso>, <isParentOf>, <titus>), t(X, <hasPainted>, <guernica>)";
        oracle_is(&mut db, absent, &[]);
    }

    #[test]
    fn the_oracle_answers_a_boolean_head_with_one_empty_tuple() {
        let mut db = family();
        let yes = "q() :- t(X, <isParentOf>, Y), t(Y, <hasPainted>, Z)";
        oracle_is(&mut db, yes, &[&[]]);
        let no = "q() :- t(X, <hasPainted>, Y), t(Y, <hasPainted>, Z)";
        oracle_is(&mut db, no, &[]);
    }

    #[test]
    fn the_oracle_keeps_a_constant_head_term() {
        let mut db = family();
        let text = "q(<titus>, X) :- t(X, <isParentOf>, Y)";
        oracle_is(&mut db, text, &[&["titus", "rembrandt"]]);
    }
}
