//! The conjunctive-query evaluator.
//!
//! A single join core serves both query shapes the paper needs: CQs over
//! the triple table (atoms answered through the store's six permutation
//! indexes) and rewritings over materialized views (atoms answered through
//! the tables' cached hash indexes). The default engine is the *compiled*
//! core in [`compiled`]: each query is compiled once into dense variable
//! slots; every atom's matching rows under the current bindings are looked
//! up once, as a borrowed slice with its row count, which both sizes the
//! atom for the adaptive choice of the next one and is what that atom then
//! walks; everything about a join node that does not depend on the row in
//! hand is worked out once per node, as a small program; enumeration stops
//! at the first witness once every head term is bound (the remaining atoms
//! can no longer change the answer); and all working memory comes from a
//! thread-local [`scratch`] pool, answers being staged flat, so a call
//! allocates nothing per row and nothing per tuple.
//!
//! Cyclic queries (triangles, diamonds, k-cycles) are routed to the
//! worst-case-optimal leapfrog triejoin in [`wcoj`] instead: it joins one
//! *variable* at a time by multi-way sorted intersection over the same
//! permutation indexes, never materializing the binary-join intermediates
//! that blow up on cyclic shapes. The routing decision — a GYO
//! ear-removal acyclicity test — is adaptive per query
//! ([`EngineChoice::Auto`], the default) and observable through
//! [`EvalStats::engine`]; [`EvalOptions::wcoj`] and
//! [`EvalOptions::compiled`] force either core.
//!
//! The pre-compiled backtracking core — which collected a fresh
//! `Vec<Triple>` of matches at every recursion node and kept bindings in a
//! hash map — is preserved verbatim in [`legacy`] as the comparison
//! baseline: benches report the compiled core's speedup against it, and
//! differential tests check answer equality against its full-scan mode
//! (the "plain clustered triple table" baseline of the paper's Figure 8).

mod compiled;
mod legacy;
pub(crate) mod scratch;
mod wcoj;

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

/// Which join core actually answered a query (recorded in [`EvalStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Pre-compiled core over full scans (the Figure-8 baseline).
    Scan,
    /// Pre-compiled collect-per-node core with index lookups.
    Legacy,
    /// Compiled index-native backtracking core.
    Compiled,
    /// Worst-case-optimal leapfrog triejoin.
    Wcoj,
}

impl Engine {
    /// Stable lowercase name (bench/CI labels).
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Scan => "scan",
            Engine::Legacy => "legacy",
            Engine::Compiled => "compiled",
            Engine::Wcoj => "wcoj",
        }
    }
}

/// Per-call evaluation statistics: which engine ran, how many rows the
/// compiled core visited and how many index lookups it made, and — for the
/// leapfrog engine — how many galloping seeks it performed and how many
/// (pre-dedup) head tuples it emitted. Benches and routing tests assert
/// against these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalStats {
    /// The core that answered the call.
    pub engine: Engine,
    /// Rows (index-range triples, view-bucket rows) the compiled core
    /// tried to extend the current bindings with, over all join depths —
    /// the work a projecting query saves by stopping at its first witness
    /// (0 for the other engines).
    pub rows_visited: u64,
    /// Index lookups by the compiled core: view-bucket probes plus store
    /// range searches, constants' included. An atom is looked up once per
    /// binding of its variables, so this grows with the bindings tried,
    /// not with the atoms left at each of them (0 for the other engines).
    pub probes: u64,
    /// Leapfrog galloping seeks (0 for the other engines).
    pub lf_seeks: u64,
    /// Head tuples emitted by the leapfrog executor before deduplication
    /// (0 for the other engines).
    pub lf_emitted: u64,
}

impl EvalStats {
    fn new(engine: Engine) -> Self {
        Self {
            engine,
            rows_visited: 0,
            probes: 0,
            lf_seeks: 0,
            lf_emitted: 0,
        }
    }
}

/// Engine choice for the index-native path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineChoice {
    /// Adaptive (the default): cyclic queries (GYO ear-removal test on the
    /// atom hypergraph) run the leapfrog triejoin, acyclic ones the
    /// backtracking core.
    #[default]
    Auto,
    /// Always the compiled backtracking core.
    Compiled,
    /// Always the leapfrog triejoin.
    Wcoj,
}

/// Evaluation options: which join core answers the query.
///
/// | `use_indexes` | `legacy` | engine |
/// |---|---|---|
/// | `true`  | `false` | index-native: [`EngineChoice`] picks compiled vs leapfrog |
/// | `true`  | `true`  | pre-compiled collect-per-node core, indexed |
/// | `false` | any     | pre-compiled core over full scans (Figure 8 baseline) |
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// When false, triple-table atoms are answered by filtering full scans
    /// instead of index range lookups — the "plain clustered triple table"
    /// baseline of the paper's Figure 8 configurations.
    pub use_indexes: bool,
    /// When true, run the pre-compiled backtracking core (hash-map
    /// bindings, matches collected per recursion node). Kept as the
    /// measured baseline the compiled core's speedup is reported against.
    pub legacy: bool,
    /// Which index-native core runs when `use_indexes && !legacy`:
    /// adaptive by default, forceable for benches and differential tests.
    pub engine: EngineChoice,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self {
            use_indexes: true,
            legacy: false,
            engine: EngineChoice::Auto,
        }
    }
}

impl EvalOptions {
    /// The full-scan baseline: the pre-compiled core filtering linear
    /// scans (no permutation-index lookups at match time).
    pub fn scan_baseline() -> Self {
        Self {
            use_indexes: false,
            legacy: true,
            engine: EngineChoice::Auto,
        }
    }

    /// The pre-compiled collect-per-node core with index lookups — the
    /// engine every hot path ran through before the compiled core landed.
    pub fn legacy_indexed() -> Self {
        Self {
            use_indexes: true,
            legacy: true,
            engine: EngineChoice::Auto,
        }
    }

    /// Force the compiled backtracking core (no adaptive routing).
    pub fn compiled() -> Self {
        Self {
            engine: EngineChoice::Compiled,
            ..Self::default()
        }
    }

    /// Force the worst-case-optimal leapfrog triejoin.
    pub fn wcoj() -> Self {
        Self {
            engine: EngineChoice::Wcoj,
            ..Self::default()
        }
    }
}

/// Evaluates a conjunctive query over the triple table.
pub fn evaluate(store: &TripleStore, q: &ConjunctiveQuery) -> Answers {
    evaluate_with(store, q, &EvalOptions::default())
}

/// Evaluates a conjunctive query with explicit options.
pub fn evaluate_with(store: &TripleStore, q: &ConjunctiveQuery, opts: &EvalOptions) -> Answers {
    evaluate_with_stats(store, q, opts).0
}

/// Evaluates a conjunctive query with explicit options, also returning
/// which engine ran (and its leapfrog counters) — the observable the
/// adaptive-routing tests and the cyclic bench tier assert on.
pub fn evaluate_with_stats(
    store: &TripleStore,
    q: &ConjunctiveQuery,
    opts: &EvalOptions,
) -> (Answers, EvalStats) {
    let atoms: Vec<MixedAtom> = q.atoms.iter().map(|a| MixedAtom::Store(*a)).collect();
    run_with(store, &atoms, &q.head, opts)
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
/// while every other atom ranges over the store.
#[derive(Debug, Clone, Copy)]
pub enum MixedAtom<'a> {
    /// An atom answered from the triple store's permutation indexes.
    Store(Atom),
    /// An atom answered from a materialized table.
    View(ViewAtom<'a>),
}

/// Evaluates a conjunctive query whose atoms mix triple-table scans and
/// view-table scans, sharing the single join core. View tables are probed
/// through their resident hash-index caches, so repeated calls against the
/// same tables (a maintenance batch's per-atom-position delta joins, a
/// served workload's repeated plans) build each index **once**.
pub fn evaluate_mixed(store: &TripleStore, atoms: &[MixedAtom<'_>], head: &[QTerm]) -> Answers {
    evaluate_mixed_stats(store, atoms, head).0
}

/// [`evaluate_mixed`] with the engine decision and leapfrog counters
/// surfaced — what the deployment layer records per executed plan branch.
pub fn evaluate_mixed_stats(
    store: &TripleStore,
    atoms: &[MixedAtom<'_>],
    head: &[QTerm],
) -> (Answers, EvalStats) {
    run_with(store, atoms, head, &EvalOptions::default())
}

/// Evaluates a rewriting: a conjunctive query whose atoms are view scans.
pub fn evaluate_over_views(atoms: &[ViewAtom<'_>], head: &[QTerm]) -> Answers {
    let atoms: Vec<MixedAtom> = atoms.iter().map(|va| MixedAtom::View(*va)).collect();
    // The store is unused for pure view rewritings; an empty one satisfies
    // the evaluator's signature.
    thread_local! {
        static EMPTY: TripleStore = TripleStore::new();
    }
    EMPTY.with(|store| run_with(store, &atoms, head, &EvalOptions::default()).0)
}

fn run_with(
    store: &TripleStore,
    atoms: &[MixedAtom<'_>],
    head: &[QTerm],
    opts: &EvalOptions,
) -> (Answers, EvalStats) {
    if opts.legacy || !opts.use_indexes {
        let engine = if opts.use_indexes {
            Engine::Legacy
        } else {
            Engine::Scan
        };
        let answers = legacy::run(store, atoms, head, opts.use_indexes);
        return (answers, EvalStats::new(engine));
    }
    let plan = compiled::compile(atoms, head);
    let use_wcoj = match opts.engine {
        EngineChoice::Compiled => false,
        EngineChoice::Wcoj => true,
        // The adaptive selector: cyclic atom hypergraphs are where the
        // backtracking core enumerates intermediates a worst-case-optimal
        // join avoids; acyclic/selective shapes keep the compiled core.
        EngineChoice::Auto => wcoj::is_cyclic(&plan),
    };
    if use_wcoj {
        let mut stats = EvalStats::new(Engine::Wcoj);
        let answers = wcoj::execute(store, &plan, &mut stats);
        (answers, stats)
    } else {
        let mut stats = EvalStats::new(Engine::Compiled);
        let answers = compiled::execute(store, &plan, &mut stats);
        (answers, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{Dataset, Term};
    use rdf_query::parser::parse_query;
    use rdf_query::Var;

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
        let via_views = evaluate_over_views(&atoms, &[x.into(), z.into()]);
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
        let a = evaluate_over_views(&atoms, &[x.into()]);
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
            let mixed = evaluate_mixed(db.store(), &atoms, &q.head);
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
        let first = evaluate_mixed(db.store(), &atoms, &q.head);
        let builds_after_first = delta.index_builds();
        assert!(builds_after_first >= 1, "the probed mask built an index");
        for _ in 0..5 {
            assert_eq!(evaluate_mixed(db.store(), &atoms, &q.head), first);
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
        let scanned = evaluate_with(db.store(), &q.query, &EvalOptions::scan_baseline());
        let legacy = evaluate_with(db.store(), &q.query, &EvalOptions::legacy_indexed());
        assert_eq!(indexed, scanned);
        assert_eq!(indexed, legacy);
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
        let ans = evaluate_over_views(&atoms, &[a.into(), b.into()]);
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
    fn adaptive_selector_routes_cyclic_to_wcoj() {
        let mut db = triangle_db();
        let q = triangle_query(&mut db);
        let (a, stats) = evaluate_with_stats(db.store(), &q, &EvalOptions::default());
        assert_eq!(stats.engine, Engine::Wcoj, "triangle routes to leapfrog");
        assert!(stats.lf_seeks > 0, "leapfrog actually sought");
        assert_eq!(stats.lf_emitted, a.len() as u64, "distinct emits");
        assert_eq!(a.len(), 6, "two triangles, three rotations each");
    }

    #[test]
    fn adaptive_selector_routes_acyclic_to_compiled() {
        let mut db = triangle_db();
        let q = parse_query("q(X, Z) :- t(X, <e>, Y), t(Y, <e>, Z)", db.dict_mut())
            .unwrap()
            .query;
        let (_, stats) = evaluate_with_stats(db.store(), &q, &EvalOptions::default());
        assert_eq!(
            stats.engine,
            Engine::Compiled,
            "chain keeps the compiled core"
        );
        assert_eq!((stats.lf_seeks, stats.lf_emitted), (0, 0));
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
        let (a, stats) = evaluate_with_stats(db.store(), &q, &EvalOptions::default());
        assert_eq!(stats.engine, Engine::Compiled);
        assert_eq!(a.len() as u64, N);
        assert!(
            stats.rows_visited <= 2 * N * F,
            "{} rows",
            stats.rows_visited
        );
        assert_eq!(
            a,
            evaluate_with(db.store(), &q, &EvalOptions::scan_baseline())
        );

        // With Z in the head nothing is decided before the last atom, and
        // the full N·F² enumeration is the answer.
        let full = parse_query("q(X, Z) :- t(X, <p>, Y), t(X, <q>, Z)", db.dict_mut())
            .unwrap()
            .query;
        let (a, stats) = evaluate_with_stats(db.store(), &full, &EvalOptions::default());
        assert_eq!(a.len() as u64, N * F);
        assert!(
            stats.rows_visited >= N * F * F,
            "{} rows",
            stats.rows_visited
        );

        // A boolean query is decided before its first row.
        let any = parse_query("q() :- t(X, <p>, Y), t(X, <q>, Z)", db.dict_mut())
            .unwrap()
            .query;
        let (a, stats) = evaluate_with_stats(db.store(), &any, &EvalOptions::default());
        assert_eq!(a.len(), 1);
        assert!(stats.rows_visited <= 2, "{} rows", stats.rows_visited);

        // The other engines do not count.
        let (_, stats) = evaluate_with_stats(db.store(), &q, &EvalOptions::wcoj());
        assert_eq!(stats.rows_visited, 0);
    }

    #[test]
    fn an_atom_is_probed_once_per_binding() {
        // q(X) :- t(X, p, A), t(X, q, B), t(X, r, C) over N subjects: three
        // probes place the constants, each row of the first atom binds X
        // and probes the other two, and the atom that runs second binds
        // nothing the third contains, so the third keeps the extent it
        // has. Sizing and reading an atom by separate lookups, and looking
        // the last one up again, would make it 4 per subject.
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
        let (a, stats) = evaluate_with_stats(db.store(), &q, &EvalOptions::default());
        assert_eq!(stats.engine, Engine::Compiled);
        assert_eq!(a.len() as u64, N);
        assert_eq!(stats.rows_visited, 3 * N);
        assert!(stats.probes <= 2 * N + 3, "{} probes", stats.probes);
        for opts in [EvalOptions::wcoj(), EvalOptions::legacy_indexed()] {
            let (b, stats) = evaluate_with_stats(db.store(), &q, &opts);
            assert_eq!(
                (b, stats.probes),
                (a.clone(), 0),
                "only the compiled core counts"
            );
        }
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
        let (a, stats) = evaluate_with_stats(db.store(), &q, &EvalOptions::default());
        assert_eq!(stats.engine, Engine::Compiled);
        assert_eq!(
            a,
            evaluate_with(db.store(), &q, &EvalOptions::scan_baseline())
        );
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
    fn forced_engines_report_themselves() {
        let mut db = triangle_db();
        let q = parse_query("q(X, Z) :- t(X, <e>, Y), t(Y, <e>, Z)", db.dict_mut())
            .unwrap()
            .query;
        let engines = [
            (EvalOptions::wcoj(), Engine::Wcoj),
            (EvalOptions::compiled(), Engine::Compiled),
            (EvalOptions::legacy_indexed(), Engine::Legacy),
            (EvalOptions::scan_baseline(), Engine::Scan),
        ];
        let want = evaluate(db.store(), &q);
        for (opts, engine) in engines {
            let (a, stats) = evaluate_with_stats(db.store(), &q, &opts);
            assert_eq!(stats.engine, engine);
            assert_eq!(a, want, "{} agrees on the chain", engine.as_str());
        }
    }

    #[test]
    fn wcoj_matches_other_engines_on_cyclic_shapes() {
        let mut db = triangle_db();
        let q = triangle_query(&mut db);
        let want = evaluate_with(db.store(), &q, &EvalOptions::scan_baseline());
        assert_eq!(evaluate_with(db.store(), &q, &EvalOptions::wcoj()), want);
        assert_eq!(
            evaluate_with(db.store(), &q, &EvalOptions::compiled()),
            want
        );
        assert_eq!(
            evaluate_with(db.store(), &q, &EvalOptions::legacy_indexed()),
            want
        );
    }

    #[test]
    fn wcoj_handles_constants_repeats_and_products() {
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
        ];
        for text in queries {
            let q = parse_query(text, db.dict_mut()).unwrap().query;
            let want = evaluate_with(db.store(), &q, &EvalOptions::scan_baseline());
            assert_eq!(
                evaluate_with(db.store(), &q, &EvalOptions::wcoj()),
                want,
                "wcoj parity on {text}"
            );
        }
    }

    #[test]
    fn wcoj_over_view_tables_matches_compiled() {
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
        let (a, stats) = evaluate_mixed_stats(db.store(), &atoms, &head);
        assert_eq!(stats.engine, Engine::Wcoj, "mixed triangle routes to wcoj");
        let direct = {
            let mut db2 = triangle_db();
            let q = triangle_query(&mut db2);
            evaluate(db2.store(), &q)
        };
        assert_eq!(a, direct);
        assert!(
            t.index_builds() >= 1,
            "view atoms built sorted trie projections"
        );
        let builds = t.index_builds();
        let (b, _) = evaluate_mixed_stats(db.store(), &atoms, &head);
        assert_eq!(b, direct);
        assert_eq!(t.index_builds(), builds, "sorted projections are reused");
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
}
