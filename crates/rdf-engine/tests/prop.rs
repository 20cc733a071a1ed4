//! Property tests for the evaluation engine: both join cores, forced and
//! routed, must agree with the full-scan oracle; view rewritings of a
//! decomposed query must equal direct evaluation; the maintenance deltas
//! must keep views equal to rematerialization; a view index must return
//! exactly the rows a filter would.

use proptest::prelude::*;
use rdf_engine::maintain::MaintainedView;
use rdf_engine::{
    evaluate, evaluate_mixed, evaluate_on, materialize, oracle, Answers, Engine, MixedAtom,
    ViewAtom, ViewTable,
};
use rdf_model::{Id, TripleStore};
use rdf_query::{Atom, ConjunctiveQuery, QTerm, Var};

fn triples_strategy() -> impl Strategy<Value = Vec<[u32; 3]>> {
    prop::collection::vec([0u32..10, 20u32..24, 0u32..10], 1..80)
}

/// Random 1–3 atom connected-ish queries over the same vocabulary.
fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    let atom = (
        prop_oneof![(0u32..3).prop_map(Some), Just(None)],
        20u32..24,
        prop_oneof![
            (0u32..3).prop_map(Some),
            Just(None),
            (0u32..10).prop_map(|c| Some(c + 100))
        ],
    );
    prop::collection::vec(atom, 1..3).prop_map(|atoms| {
        let atoms: Vec<Atom> = atoms
            .into_iter()
            .enumerate()
            .map(|(i, (s, p, o))| {
                let s = match s {
                    Some(v) => QTerm::Var(Var(v)),
                    None => QTerm::Var(Var(3 + i as u32)),
                };
                let o = match o {
                    Some(c) if c >= 100 => QTerm::Const(Id(c - 100)),
                    Some(v) => QTerm::Var(Var(v)),
                    None => QTerm::Var(Var(6 + i as u32)),
                };
                Atom([s, QTerm::Const(Id(p)), o])
            })
            .collect();
        cq(atoms)
    })
}

fn store_from(triples: &[[u32; 3]]) -> TripleStore {
    let mut store = TripleStore::new();
    for t in triples {
        store.insert([Id(t[0]), Id(t[1]), Id(t[2])]);
    }
    store
}

/// Wraps atoms into a query whose head lists every body variable once.
fn cq(atoms: Vec<Atom>) -> ConjunctiveQuery {
    let mut head = Vec::new();
    for a in &atoms {
        for v in a.vars() {
            if !head.contains(&QTerm::Var(v)) {
                head.push(QTerm::Var(v));
            }
        }
    }
    ConjunctiveQuery::new(head, atoms)
}

/// Half the time, replaces the head of a generated query — which lists
/// every body variable — by a projection: a strict subset of the
/// variables, nothing at all (a boolean query), a subset with one variable
/// repeated, or a subset with a constant column. These are the heads under
/// which the compiled core stops enumerating before its last atom.
fn projected(
    inner: impl Strategy<Value = ConjunctiveQuery>,
) -> impl Strategy<Value = ConjunctiveQuery> {
    (inner, any::<bool>(), any::<u64>(), 0u32..4).prop_map(|(q, project, bits, mode)| {
        if !project {
            return q;
        }
        let mut head: Vec<QTerm> = (q.head.iter().enumerate())
            .filter(|(i, _)| bits >> i & 1 == 1)
            .map(|(_, t)| *t)
            .collect();
        if head.len() == q.head.len() {
            head.pop();
        }
        let at = (bits >> 32) as usize % (head.len() + 1);
        match mode {
            0 => {}
            1 => head.clear(),
            2 => head.insert(at, *head.first().unwrap_or(&q.head[0])),
            _ => head.insert(at, QTerm::Const(Id(7))),
        }
        ConjunctiveQuery::new(head, q.atoms)
    })
}

/// Shaped queries that stress specific join-core paths: stars (one shared
/// variable fanning out), chains (variable handoff atom to atom), repeated
/// variables within an atom, constant selections, and cartesian products
/// (disconnected atoms). Together with [`query_strategy`] these drive the
/// differential test of the compiled core against the scan baseline.
fn shaped_query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    let var = |v: u32| QTerm::Var(Var(v));
    let star = (
        prop::collection::vec(20u32..24, 1..4),
        prop::collection::vec(prop_oneof![Just(None), (0u32..10).prop_map(Some)], 1..4),
    )
        .prop_map(move |(preds, leaves)| {
            // t(X, p_i, L_i): shared subject X, leaf either fresh var or
            // constant.
            let atoms = preds
                .iter()
                .zip(leaves.iter().cycle())
                .enumerate()
                .map(|(i, (&p, leaf))| {
                    let o = match leaf {
                        Some(c) => QTerm::Const(Id(*c)),
                        None => var(1 + i as u32),
                    };
                    Atom([var(0), QTerm::Const(Id(p)), o])
                })
                .collect();
            cq(atoms)
        });
    let chain = (
        prop::collection::vec(20u32..24, 1..4),
        prop_oneof![Just(None), (0u32..10).prop_map(Some)],
    )
        .prop_map(move |(preds, start)| {
            // t(X_i, p_i, X_{i+1}), optionally anchored by a constant
            // subject.
            let atoms = preds
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    let s = match (i, start) {
                        (0, Some(c)) => QTerm::Const(Id(c)),
                        _ => var(i as u32),
                    };
                    Atom([s, QTerm::Const(Id(p)), var(1 + i as u32)])
                })
                .collect();
            cq(atoms)
        });
    let repeated = (20u32..24, 20u32..24, any::<bool>()).prop_map(move |(p1, p2, extra)| {
        // t(X, p1, X) exercises the intra-atom Check action; the optional
        // second atom re-joins X across atoms.
        let mut atoms = vec![Atom([var(0), QTerm::Const(Id(p1)), var(0)])];
        if extra {
            atoms.push(Atom([var(0), QTerm::Const(Id(p2)), var(1)]));
        }
        cq(atoms)
    });
    let cartesian = (20u32..24, 20u32..24).prop_map(move |(p1, p2)| {
        // Two atoms sharing no variable: a pure product.
        cq(vec![
            Atom([var(0), QTerm::Const(Id(p1)), var(1)]),
            Atom([var(2), QTerm::Const(Id(p2)), var(3)]),
        ])
    });
    prop_oneof![
        star,
        chain,
        repeated,
        cartesian,
        cyclic_query_strategy(),
        query_strategy()
    ]
}

/// Cyclic shapes — triangle, diamond, 4-cycle — the queries the adaptive
/// selector hands to the leapfrog engine. The triangle variant sometimes
/// anchors its shared corner with a constant, which *breaks* the cycle
/// (GYO removes the two then-subsumed edge atoms), so the differential
/// harness covers the selector's boundary from both sides.
fn cyclic_query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    let var = |v: u32| QTerm::Var(Var(v));
    let triangle = (
        prop::collection::vec(20u32..24, 3),
        prop_oneof![Just(None), (0u32..10).prop_map(Some)],
    )
        .prop_map(move |(p, anchor)| {
            let x = match anchor {
                Some(c) => QTerm::Const(Id(c)),
                None => var(0),
            };
            cq(vec![
                Atom([x, QTerm::Const(Id(p[0])), var(1)]),
                Atom([var(1), QTerm::Const(Id(p[1])), var(2)]),
                Atom([x, QTerm::Const(Id(p[2])), var(2)]),
            ])
        });
    let diamond = prop::collection::vec(20u32..24, 4).prop_map(move |p| {
        cq(vec![
            Atom([var(0), QTerm::Const(Id(p[0])), var(1)]),
            Atom([var(0), QTerm::Const(Id(p[1])), var(2)]),
            Atom([var(1), QTerm::Const(Id(p[2])), var(3)]),
            Atom([var(2), QTerm::Const(Id(p[3])), var(3)]),
        ])
    });
    let four_cycle = prop::collection::vec(20u32..24, 4).prop_map(move |p| {
        cq(vec![
            Atom([var(0), QTerm::Const(Id(p[0])), var(1)]),
            Atom([var(1), QTerm::Const(Id(p[1])), var(2)]),
            Atom([var(2), QTerm::Const(Id(p[2])), var(3)]),
            Atom([var(3), QTerm::Const(Id(p[3])), var(0)]),
        ])
    });
    prop_oneof![triangle, diamond, four_cycle]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn indexed_and_scan_only_agree(
        triples in triples_strategy(),
        q in projected(query_strategy()),
    ) {
        let store = store_from(&triples);
        let a = evaluate(&store, &q);
        let b = oracle::evaluate(&store, &q);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn compiled_core_matches_baselines_on_shaped_queries(
        triples in triples_strategy(),
        q in projected(shaped_query_strategy()),
    ) {
        // Differential test of both cores against the full-scan oracle:
        // the compiled index-native core and the leapfrog triejoin, each
        // forced (so leapfrog also runs the acyclic shapes the router
        // would send elsewhere). Shapes cover stars, chains, repeated
        // variables, constant selections, cartesian products and the
        // cyclic tier (triangles, diamonds, 4-cycles), under full and
        // projecting heads. The routed default must agree too, whichever
        // core it picked.
        let store = store_from(&triples);
        let want = oracle::evaluate(&store, &q);
        let (compiled, _) = evaluate_on(Engine::Compiled, &store, &q);
        let (wcoj, _) = evaluate_on(Engine::Wcoj, &store, &q);
        let auto = evaluate(&store, &q);
        prop_assert_eq!(&compiled, &want);
        prop_assert_eq!(&wcoj, &want);
        prop_assert_eq!(&auto, &want);
    }

    #[test]
    fn mixed_atoms_over_views_match_the_scan_baseline(
        triples in triples_strategy(),
        q in projected(shaped_query_strategy()),
        sources in any::<u64>(),
    ) {
        // Every atom is answered, by the draw, from the store, from a
        // 3-column table of all triples (the atom's constants select), or
        // from its own materialized view (one column per distinct
        // variable; a ground atom has none and stays on the store) — so
        // the view-index probes, the bucket walk and the early exit over
        // buckets face the same oracle as the store path.
        let store = store_from(&triples);
        let all = ViewTable::from_rows(3, store.triples().iter().map(|t| t.to_vec()));
        let own: Vec<(Vec<QTerm>, ViewTable)> = q
            .atoms
            .iter()
            .map(|a| {
                let view = cq(vec![*a]);
                let table = materialize(&store, &view);
                (view.head, table)
            })
            .collect();
        let atoms: Vec<MixedAtom> = q
            .atoms
            .iter()
            .zip(&own)
            .enumerate()
            .map(|(i, (a, (head, table)))| match sources >> (2 * i) & 3 {
                0 => MixedAtom::Store(*a),
                1 => MixedAtom::View(ViewAtom { table: &all, args: a.terms() }),
                _ if head.is_empty() => MixedAtom::Store(*a),
                _ => MixedAtom::View(ViewAtom { table, args: head }),
            })
            .collect();
        let (mixed, _) = evaluate_mixed(&store, &atoms, &q.head);
        prop_assert_eq!(mixed, oracle::evaluate(&store, &q));
    }

    #[test]
    fn view_index_returns_what_a_filter_would(
        arity in 1usize..5,
        rows in prop::collection::vec([0u32..4, 0u32..4, 0u32..4, 0u32..4], 0..60),
        mask_bits in any::<u64>(),
    ) {
        let table = ViewTable::from_rows(
            arity,
            rows.iter().map(|r| r[..arity].iter().map(|&v| Id(v)).collect::<Vec<_>>()),
        );
        let mask = mask_bits % (1 << arity);
        let idx = table.index_for_mask(mask);
        let cols: Vec<usize> = (0..arity).filter(|c| mask >> c & 1 == 1).collect();
        prop_assert_eq!(idx.cols(), &cols[..]);
        // Every key over the value domain plus one value no row has:
        // present keys return their rows, absent ones nothing.
        let mut distinct = 0;
        for code in 0..5usize.pow(cols.len() as u32) {
            let key: Vec<Id> = (0..cols.len())
                .map(|k| Id((code / 5usize.pow(k as u32) % 5) as u32))
                .collect();
            let mut got: Vec<&[Id]> = idx.rows_for(&key).collect();
            let mut want: Vec<&[Id]> = table
                .rows()
                .filter(|row| cols.iter().zip(&key).all(|(&c, k)| row[c] == *k))
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            distinct += usize::from(!want.is_empty());
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(idx.key_count(), distinct);
    }

    #[test]
    fn maintenance_equals_rematerialization(
        base in triples_strategy(),
        feed in prop::collection::vec([0u32..10, 20u32..24, 0u32..10], 1..20),
        q in projected(query_strategy()),
    ) {
        let mut store = store_from(&base);
        let mut view = MaintainedView::new(&store, q.clone());
        for t in feed {
            let t = [Id(t[0]), Id(t[1]), Id(t[2])];
            if store.insert(t) {
                view.apply_insert(&store, t);
            }
        }
        let fresh = evaluate(&store, &q);
        prop_assert_eq!(view.to_answers(), fresh);
    }

    #[test]
    fn batched_maintenance_equals_rematerialization(
        base in triples_strategy(),
        batches in prop::collection::vec(
            (any::<bool>(), prop::collection::vec([0u32..10, 20u32..24, 0u32..10], 1..12)),
            1..8,
        ),
        q in projected(query_strategy()),
    ) {
        // Random interleaved insert/delete batches through the
        // set-at-a-time delta joins: after every batch the maintained view
        // must equal a from-scratch rematerialization.
        let mut store = store_from(&base);
        let mut view = MaintainedView::new(&store, q.clone());
        for (is_delete, raw) in batches {
            let batch: Vec<[Id; 3]> = raw
                .into_iter()
                .map(|t| [Id(t[0]), Id(t[1]), Id(t[2])])
                .collect();
            if is_delete {
                // Prepare while the doomed triples are still stored (the
                // batch may contain absent triples; they are harmless).
                let delta = view.prepare_delete_batch(&store, &batch);
                store.remove_batch(&batch);
                view.commit_delete_batch(&store, &delta);
            } else {
                let added = store.insert_batch(&batch);
                view.apply_insert_batch(&store, &added);
            }
            prop_assert_eq!(view.to_answers(), evaluate(&store, &q));
        }
    }

    #[test]
    fn batched_and_per_triple_maintenance_agree(
        base in triples_strategy(),
        feed in prop::collection::vec([0u32..10, 20u32..24, 0u32..10], 1..20),
        q in query_strategy(),
    ) {
        // One delta-set join pass must produce the same view as per-triple
        // application, with no more delta tuples.
        let feed: Vec<[Id; 3]> = feed
            .into_iter()
            .map(|t| [Id(t[0]), Id(t[1]), Id(t[2])])
            .collect();

        let mut batched_store = store_from(&base);
        let mut batched = MaintainedView::new(&batched_store, q.clone());
        let added = batched_store.insert_batch(&feed);
        let bstats = batched.apply_insert_batch(&batched_store, &added);

        let mut seq_store = store_from(&base);
        let mut seq = MaintainedView::new(&seq_store, q.clone());
        let mut pstats = rdf_engine::MaintenanceStats::default();
        for &t in &feed {
            if seq_store.insert(t) {
                pstats.merge(seq.apply_insert(&seq_store, t));
            }
        }
        prop_assert_eq!(batched.to_answers(), seq.to_answers());
        prop_assert_eq!(bstats.added, pstats.added);
        prop_assert!(
            bstats.delta_tuples <= pstats.delta_tuples,
            "batched {} vs per-triple {}",
            bstats.delta_tuples,
            pstats.delta_tuples
        );
        prop_assert_eq!(batched.to_answers(), evaluate(&batched_store, &q));
    }

    #[test]
    fn answers_satisfy_the_query(
        triples in triples_strategy(),
        q in query_strategy(),
    ) {
        // Soundness spot-check: substituting each answer into the head and
        // re-evaluating the fully-bound query must succeed.
        let store = store_from(&triples);
        let answers = evaluate(&store, &q);
        for tuple in answers.tuples().iter().take(5) {
            let mut map = rdf_model::FxHashMap::default();
            for (term, value) in q.head.iter().zip(tuple.iter()) {
                if let QTerm::Var(v) = term {
                    map.insert(*v, QTerm::Const(*value));
                }
            }
            let bound = q.substitute(&map);
            let res = evaluate(&store, &bound);
            prop_assert!(!res.is_empty(), "answer {tuple:?} must satisfy the query");
        }
    }
}

/// The stress tests' background: a million random triples over 100k
/// subjects and 16 predicates, drawn by a deterministic 64-bit LCG (same
/// constants as Knuth's MMIX) so the store is reproducible without a
/// seeded RNG dependency.
fn million_random_triples() -> Vec<[Id; 3]> {
    let mut state = 0x5eed_u64;
    let mut lcg = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..1_000_000)
        .map(|_| {
            [
                Id(lcg() % 100_000),
                Id(1_000_000 + lcg() % 16),
                Id(lcg() % 100_000),
            ]
        })
        .collect()
}

/// Million-triple differential stress test. Ignored by default (it wants
/// release mode); CI runs it explicitly with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "1M-triple stress test: run in release mode with -- --ignored"]
fn million_triple_compiled_matches_baselines() {
    let batch = million_random_triples();
    let mut store = TripleStore::new();
    store.insert_batch(&batch);
    assert!(store.len() > 990_000, "stress store should be ~1M triples");

    let var = |v: u32| QTerm::Var(Var(v));
    let p0 = QTerm::Const(Id(1_000_000));
    let p1 = QTerm::Const(Id(1_000_001));
    let anchor = QTerm::Const(batch[0][0]);
    // Query shapes chosen so the oracle stays tractable: the single atom
    // costs one full scan; the anchored chain/star fan out from a
    // constant subject before their full-scan inner nodes.
    let single = ConjunctiveQuery::new(vec![var(0), var(1)], vec![Atom([var(0), p0, var(1)])]);
    let chain = ConjunctiveQuery::new(
        vec![var(1), var(2)],
        vec![Atom([anchor, p0, var(1)]), Atom([var(1), p1, var(2)])],
    );
    let star = ConjunctiveQuery::new(
        vec![var(1), var(2)],
        vec![Atom([anchor, p0, var(1)]), Atom([anchor, p1, var(2)])],
    );
    for (name, q) in [("single", &single), ("chain", &chain), ("star", &star)] {
        let compiled = evaluate(&store, q);
        let wcoj = evaluate_on(Engine::Wcoj, &store, q).0;
        assert_eq!(compiled, wcoj, "{name}: compiled vs forced wcoj");
        let want = oracle::evaluate(&store, q);
        assert_eq!(compiled, want, "{name}: compiled vs the oracle");
    }
}

/// Million-triple triangle stress test for the leapfrog engine: a 1M
/// random background plus block-structured triangle edges whose answer
/// count is known by construction. The router must send the triangle to
/// leapfrog, and its answers must match the forced compiled core exactly
/// and the oracle on the triangles of two hubs. Ignored by default (it
/// wants release mode); CI runs it explicitly with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "1M-triple stress test: run in release mode with -- --ignored"]
fn million_triple_triangle_wcoj_matches_compiled() {
    let mut batch = million_random_triples();
    // Triangle tier (same construction as the join_throughput bench):
    // R: x→y fan-out FY, S: y→ contiguous BZ-long z-block, T: x→ BZ-long
    // z-block that overlaps the S-blocks of x's first two y's for one x in
    // 16 and sits in an S-unreachable high z-range otherwise — exactly BZ
    // triangles per overlapping x.
    const NX: u32 = 2_048;
    const FY: u32 = 16;
    const BZ: u32 = 64;
    let (xb, yb, zb, zhi) = (3_000_000u32, 3_100_000u32, 3_200_000u32, 3_500_000u32);
    let (pr, ps, pt) = (Id(2_000_000), Id(2_000_001), Id(2_000_002));
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
    }
    for j in 0..NX {
        for k in 0..BZ {
            batch.push([Id(yb + j), ps, Id(zb + j * BZ + k)]);
        }
    }
    let mut store = TripleStore::new();
    store.insert_batch(&batch);
    assert!(
        store.len() > 1_000_000,
        "stress store should exceed 1M triples"
    );

    let var = |v: u32| QTerm::Var(Var(v));
    let tri = ConjunctiveQuery::new(
        vec![var(0), var(1), var(2)],
        vec![
            Atom([var(0), QTerm::Const(pr), var(1)]),
            Atom([var(1), QTerm::Const(ps), var(2)]),
            Atom([var(0), QTerm::Const(pt), var(2)]),
        ],
    );
    let atoms: Vec<MixedAtom> = tri.atoms.iter().map(|a| MixedAtom::Store(*a)).collect();
    let (auto, stats) = evaluate_mixed(&store, &atoms, &tri.head);
    assert_eq!(
        stats.engine,
        Engine::Wcoj,
        "triangle must route to leapfrog"
    );
    assert!(stats.lf_seeks > 0);
    assert_eq!(stats.lf_emitted, auto.len() as u64);
    assert_eq!(
        auto.len(),
        (NX / 16 * BZ) as usize,
        "block construction fixes the triangle count"
    );
    let (compiled, _) = evaluate_on(Engine::Compiled, &store, &tri);
    assert_eq!(auto, compiled, "wcoj vs compiled at 1M scale");
    // The whole triangle is out of the oracle's reach at this scale (a
    // full scan per binding), so it checks the triangles of one hub that
    // has them and of one that has none: with the hub bound, each costs
    // one scan per edge of the hub's fan-out.
    for (hub, count) in [(Id(xb), BZ as usize), (Id(xb + 1), 0)] {
        let at_hub = [(Var(0), QTerm::Const(hub))].into_iter().collect();
        let want = oracle::evaluate(&store, &tri.substitute(&at_hub));
        assert_eq!(want.len(), count, "triangles at hub {hub:?}");
        let got = Answers::from_tuples(3, auto.rows().filter(|r| r[0] == hub));
        assert_eq!(got, want, "wcoj vs the oracle at hub {hub:?}");
    }
}
