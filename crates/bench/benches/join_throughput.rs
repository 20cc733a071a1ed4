//! Join throughput of the join core at million-triple scale, acyclic and
//! cyclic.
//!
//! Builds a synthetic store of 1M+ triples (deterministic LCG, fixed
//! fan-out), then runs two tiers of join shapes:
//!
//! * **acyclic tier** — chains, stars (one with existential arms),
//!   anchored variants with constants, an intra-atom repeated variable and
//!   a view-mixed delta join;
//! * **cyclic tier** — triangle, diamond and 4-cycle queries over
//!   block-structured edge data, where the core's intersect nodes do the
//!   work: the triangle data is built so that for 15 of 16 hub nodes the
//!   two z-ranges the triangle's last two edges meet on are disjoint
//!   intervals. Walking one range to probe the other pays every candidate;
//!   galloping over both discovers the disjointness in a couple of seeks —
//!   the worst-case-optimality gap made measurable.
//!
//! The core must produce the oracle's answers before anything is timed:
//! the full-scan oracle runs on stores small enough for it, and on the
//! full store on the shapes that fan out from a constant, on the diamond
//! and 4-cycle with their first node bound, and by the known triangle
//! count. The acyclic tier must make no seek; the view-mixed section
//! additionally asserts the delta table's resident hash indexes are built
//! once across the whole timed loop.
//!
//! Smoke mode (`RDFVIEWS_SMOKE=1` or `--smoke`) shrinks the store so CI
//! finishes fast; the parity, seek and index-reuse assertions still run.
//! With `RDFVIEWS_ENFORCE_FLOOR=1` (set by CI) the bench fails if
//! throughput drops below a conservative committed floor. Every mode
//! asserts that a thread-local scratch inflated by large queries does not
//! slow the anchored chain down (the pooled-scratch regression this suite
//! caught), and holds the smoke-scale triangle to a work bound: rows
//! visited, index probes and seeks together at most half what walking one
//! z-range to probe the other costs there.

use std::time::Instant;

use rdfviews::engine::{
    evaluate, evaluate_mixed, oracle, Answers, EvalStats, MixedAtom, ViewAtom, ViewTable,
};
use rdfviews::model::{Id, Triple, TripleStore};
use rdfviews::query::{Atom, ConjunctiveQuery, QTerm, Var};
use rdfviews_bench::Table;

/// Conservative throughput floors (answer tuples per second, acyclic
/// tier, debug-free release build). Measured at ~20x below the reference
/// machine so only a genuine regression — not scheduler noise — trips
/// them.
const FLOOR_FULL_TPS: f64 = 100_000.0;
const FLOOR_SMOKE_TPS: f64 = 50_000.0;

/// Every `BENCH_join_throughput.json` field the CI validation step reads
/// by name. The per-case keys are assembled with `format!` in the timing
/// loops, so this manifest keeps the spellings visible as literals (the
/// xlint X007 rule cross-checks them against `.github/workflows/ci.yml`)
/// and the pre-emit assertion keeps the manifest honest at runtime.
const CI_VALIDATED_FIELDS: &[&str] = &[
    "wall_triangle_s",
    "wall_diamond_s",
    "wall_four_cycle_s",
    "triangle_work_smoke",
];

/// The most rows visited, index probes and seeks together the triangle
/// may cost at the smoke scale: half of what walking each `S(y, ·)` block
/// row by row to probe `T(x, z)` costs there (68,096 rows and 69,635
/// probes).
const TRIANGLE_WORK_BOUND: u64 = 68_865;

/// How much slower the anchored chain may run on a thread whose pooled
/// scratch earlier queries inflated than on a fresh thread.
const INFLATION_MARGIN: f64 = 1.5;
/// Alternating fresh/inflated batches the inflation guard compares.
const INFLATION_BATCHES: usize = 5;

/// Id bases for the cyclic-tier synthetic graph, disjoint from the
/// acyclic tier's subjects (< 200k) and predicates (1_000_000+).
const P_TRI: u32 = 2_000_000; // triangle predicates: +0 (R), +1 (S), +2 (T)
const P_DIA: u32 = 2_000_010; // diamond predicates: +0..+3
const P_CYC: u32 = 2_000_020; // 4-cycle predicates: +0..+3
const TRI_X: u32 = 3_000_000;
const TRI_Y: u32 = 3_100_000;
const TRI_Z: u32 = 3_200_000;
const TRI_Z_HI: u32 = 3_500_000; // z-range unreachable from any S edge
const DIA_N: u32 = 3_700_000; // diamond nodes: +10_000 per position
const CYC_N: u32 = 3_800_000; // 4-cycle nodes: +10_000 per position

/// Deterministic 64-bit LCG (Knuth's MMIX constants).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn synth_triples(n: usize, subjects: u64, predicates: u64) -> Vec<Triple> {
    let mut rng = 0x5eed_u64;
    let mut batch = Vec::with_capacity(n);
    for _ in 0..n {
        let s = Id((lcg(&mut rng) % subjects) as u32);
        let p = Id(1_000_000 + (lcg(&mut rng) % predicates) as u32);
        let o = Id((lcg(&mut rng) % subjects) as u32);
        batch.push([s, p, o]);
    }
    batch
}

/// Size knobs for the cyclic-tier data, scaled per mode.
#[derive(Clone, Copy)]
struct CyclicScale {
    /// Triangle hubs (x nodes, also the y-domain size); multiple of 16.
    nx: u32,
    /// y's per hub (R fan-out); at least 2.
    fy: u32,
    /// z-block length per y (S fan-out) and per hub (T fan-out); above 8.
    bz: u32,
    /// Diamond / 4-cycle: nodes per position and random edges per
    /// predicate.
    dn: u64,
    de: usize,
}

/// The cyclic tier of smoke mode, on which the triangle's work bound is
/// held in every mode.
const SMOKE_SCALE: CyclicScale = CyclicScale {
    nx: 256,
    fy: 8,
    bz: 32,
    dn: 512,
    de: 2_048,
};

/// Appends `fanout` consecutive-destination edges per source node.
fn block_edges(
    batch: &mut Vec<Triple>,
    pred: u32,
    src_base: u32,
    n_src: u32,
    fanout: u32,
    mut dst0: impl FnMut(u32) -> u32,
) {
    for i in 0..n_src {
        let d0 = dst0(i);
        for k in 0..fanout {
            batch.push([Id(src_base + i), Id(pred), Id(d0 + k)]);
        }
    }
}

/// Appends `count` random edges under `pred` between two node domains.
fn rand_edges(
    batch: &mut Vec<Triple>,
    rng: &mut u64,
    pred: u32,
    src_base: u32,
    dst_base: u32,
    n: u64,
    count: usize,
) {
    for _ in 0..count {
        let s = Id(src_base + (lcg(rng) % n) as u32);
        let o = Id(dst_base + (lcg(rng) % n) as u32);
        batch.push([s, Id(pred), o]);
    }
}

/// The cyclic-tier edge data.
///
/// Triangle (R: x→y, S: y→z, T: x→z): every hub x has `fy` y's, every y a
/// contiguous `bz`-long z-block, and every x its own `bz`-long T-block.
/// For one hub in 16 the T-block overlaps the S-blocks of its first two
/// y's (straddling their boundary → exactly `bz` triangles per such hub);
/// for the rest it sits in a high z-range no S edge reaches. Walking one
/// block to probe the other cannot see the difference without enumerating
/// candidate pairs; galloping seeks over both can.
fn cyclic_triples(sc: &CyclicScale) -> Vec<Triple> {
    let mut b = Vec::new();
    let (nx, fy, bz) = (sc.nx, sc.fy, sc.bz);
    assert!(nx % 16 == 0 && fy >= 2 && bz > 8, "triangle scale contract");
    block_edges(&mut b, P_TRI, TRI_X, nx, fy, |i| TRI_Y + (i * fy) % nx);
    block_edges(&mut b, P_TRI + 1, TRI_Y, nx, bz, |j| TRI_Z + j * bz);
    block_edges(&mut b, P_TRI + 2, TRI_X, nx, bz, |i| {
        if i % 16 == 0 {
            TRI_Z + ((i * fy) % nx) * bz + bz - 8
        } else {
            TRI_Z_HI + i * bz
        }
    });
    let mut rng = 0xc1c11c_u64;
    let dia = |k: u32| DIA_N + 10_000 * k;
    for (pred, src, dst) in [
        (P_DIA, dia(0), dia(1)),
        (P_DIA + 1, dia(0), dia(2)),
        (P_DIA + 2, dia(1), dia(3)),
        (P_DIA + 3, dia(2), dia(3)),
    ] {
        rand_edges(&mut b, &mut rng, pred, src, dst, sc.dn, sc.de);
    }
    let cyc = |k: u32| CYC_N + 10_000 * k;
    for (pred, src, dst) in [
        (P_CYC, cyc(0), cyc(1)),
        (P_CYC + 1, cyc(1), cyc(2)),
        (P_CYC + 2, cyc(2), cyc(3)),
        (P_CYC + 3, cyc(3), cyc(0)),
    ] {
        rand_edges(&mut b, &mut rng, pred, src, dst, sc.dn, sc.de);
    }
    b
}

/// Triangle answers the block construction guarantees: one hub in 16
/// carries exactly `bz` triangles.
fn expected_triangles(sc: &CyclicScale) -> usize {
    (sc.nx / 16) as usize * sc.bz as usize
}

struct Case {
    name: &'static str,
    query: ConjunctiveQuery,
    /// Whether the full-scan oracle is tractable on the full store (it
    /// re-scans everything at every recursion node, so only queries that
    /// fan out from a constant qualify at 1M scale).
    scan_on_full: bool,
}

fn cases(anchor: Id) -> Vec<Case> {
    let var = |v: u32| QTerm::Var(Var(v));
    let p = |i: u32| QTerm::Const(Id(1_000_000 + i));
    vec![
        Case {
            name: "single_p",
            query: ConjunctiveQuery::new(vec![var(0), var(1)], vec![Atom([var(0), p(0), var(1)])]),
            scan_on_full: true,
        },
        Case {
            name: "chain2",
            query: ConjunctiveQuery::new(
                vec![var(0), var(2)],
                vec![Atom([var(0), p(0), var(1)]), Atom([var(1), p(1), var(2)])],
            ),
            scan_on_full: false,
        },
        Case {
            name: "chain3",
            query: ConjunctiveQuery::new(
                vec![var(0), var(3)],
                vec![
                    Atom([var(0), p(0), var(1)]),
                    Atom([var(1), p(1), var(2)]),
                    Atom([var(2), p(2), var(3)]),
                ],
            ),
            scan_on_full: false,
        },
        Case {
            name: "star2",
            query: ConjunctiveQuery::new(
                vec![var(0), var(1), var(2)],
                vec![Atom([var(0), p(0), var(1)]), Atom([var(0), p(1), var(2)])],
            ),
            scan_on_full: false,
        },
        Case {
            // Two arms end in variables used once and never returned: the
            // join core settles them by their extents, per subject.
            name: "star3_exists",
            query: ConjunctiveQuery::new(
                vec![var(0), var(1)],
                vec![
                    Atom([var(0), p(0), var(1)]),
                    Atom([var(0), p(1), var(2)]),
                    Atom([var(0), p(2), var(3)]),
                ],
            ),
            scan_on_full: false,
        },
        Case {
            name: "anchored_chain2",
            query: ConjunctiveQuery::new(
                vec![var(1), var(2)],
                vec![
                    Atom([QTerm::Const(anchor), p(0), var(1)]),
                    Atom([var(1), p(1), var(2)]),
                ],
            ),
            scan_on_full: true,
        },
        Case {
            name: "self_loop",
            query: ConjunctiveQuery::new(vec![var(0)], vec![Atom([var(0), p(0), var(0)])]),
            scan_on_full: true,
        },
    ]
}

/// The cyclic-tier queries: triangle, diamond and 4-cycle, full heads so
/// parity checks see every binding.
fn cyclic_cases() -> Vec<(&'static str, ConjunctiveQuery)> {
    let var = |v: u32| QTerm::Var(Var(v));
    let p = |base: u32, i: u32| QTerm::Const(Id(base + i));
    vec![
        (
            "triangle",
            ConjunctiveQuery::new(
                vec![var(0), var(1), var(2)],
                vec![
                    Atom([var(0), p(P_TRI, 0), var(1)]),
                    Atom([var(1), p(P_TRI, 1), var(2)]),
                    Atom([var(0), p(P_TRI, 2), var(2)]),
                ],
            ),
        ),
        (
            "diamond",
            ConjunctiveQuery::new(
                vec![var(0), var(1), var(2), var(3)],
                vec![
                    Atom([var(0), p(P_DIA, 0), var(1)]),
                    Atom([var(0), p(P_DIA, 1), var(2)]),
                    Atom([var(1), p(P_DIA, 2), var(3)]),
                    Atom([var(2), p(P_DIA, 3), var(3)]),
                ],
            ),
        ),
        (
            "four_cycle",
            ConjunctiveQuery::new(
                vec![var(0), var(1), var(2), var(3)],
                vec![
                    Atom([var(0), p(P_CYC, 0), var(1)]),
                    Atom([var(1), p(P_CYC, 1), var(2)]),
                    Atom([var(2), p(P_CYC, 2), var(3)]),
                    Atom([var(3), p(P_CYC, 3), var(0)]),
                ],
            ),
        ),
    ]
}

/// Times `runs` evaluations, returning (wall seconds, answers of one run).
fn time_core(store: &TripleStore, q: &ConjunctiveQuery, runs: usize) -> (f64, usize) {
    let mut tuples = 0;
    let t0 = Instant::now();
    for _ in 0..runs {
        tuples = evaluate(store, q).len();
    }
    (t0.elapsed().as_secs_f64(), tuples)
}

/// `q` evaluated with its statistics.
fn with_stats(store: &TripleStore, q: &ConjunctiveQuery) -> (Answers, EvalStats) {
    let atoms: Vec<MixedAtom> = q.atoms.iter().map(|a| MixedAtom::Store(*a)).collect();
    evaluate_mixed(store, &atoms, &q.head)
}

/// Asserts that the answers of `q` with its first variable bound to
/// `node` are the oracle's — a check the full-scan oracle can afford on
/// the full store when the bound node fans out little.
fn assert_matches_oracle_at(
    store: &TripleStore,
    name: &str,
    q: &ConjunctiveQuery,
    got: &Answers,
    node: Id,
) {
    let at_node = [(Var(0), QTerm::Const(node))].into_iter().collect();
    let want = oracle::evaluate(store, &q.substitute(&at_node));
    let at = Answers::from_tuples(q.head.len(), got.rows().filter(|r| r[0] == node));
    assert_eq!(at, want, "{name}: the core vs the oracle at {node:?}");
}

/// Seconds per run of `q` on a newly spawned thread — which
/// starts with an empty thread-local scratch pool — after that thread has
/// run each of `inflate` once and then `q` as a warm-up.
fn time_on_new_thread(
    store: &TripleStore,
    q: &ConjunctiveQuery,
    inflate: &[&ConjunctiveQuery],
    runs: usize,
) -> f64 {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                for big in inflate {
                    evaluate(store, big);
                }
                time_core(store, q, runs);
                time_core(store, q, runs).0 / runs as f64
            })
            .join()
            .expect("timing thread panicked")
    })
}

fn main() {
    let smoke = std::env::var("RDFVIEWS_SMOKE").is_ok() || std::env::args().any(|a| a == "--smoke");
    let (n, subjects, runs) = if smoke {
        (60_000, 6_000, 2)
    } else {
        (1_200_000, 100_000, 3)
    };
    let predicates = 16;
    let scale = if smoke {
        SMOKE_SCALE
    } else {
        CyclicScale {
            nx: 2_048,
            fy: 16,
            bz: 64,
            dn: 4_096,
            de: 16_384,
        }
    };

    let batch = synth_triples(n, subjects, predicates);
    let cyc_batch = cyclic_triples(&scale);
    let mut store = TripleStore::new();
    store.insert_batch(&batch);
    store.insert_batch(&cyc_batch);
    println!(
        "# join_throughput: {} stored triples ({} subjects, {} predicates, {} cyclic-tier edges){}",
        store.len(),
        subjects,
        predicates,
        cyc_batch.len(),
        if smoke { " [smoke]" } else { "" },
    );
    assert!(
        smoke || store.len() >= 1_000_000,
        "full mode must exercise at least one million stored triples"
    );

    // A prefix store keeps the full-scan oracle tractable for the
    // unanchored joins (it pays a full scan per recursion node).
    let prefix_n = if smoke { batch.len() } else { 50_000 };
    let mut prefix = TripleStore::new();
    prefix.insert_batch(&batch[..prefix_n.min(batch.len())]);

    // Anchor on a subject whose p0 edge reaches a node with an outgoing
    // p1 edge, so the anchored chain fans out to full depth.
    let p1_subjects: std::collections::HashSet<Id> = batch
        .iter()
        .filter(|t| t[1] == Id(1_000_001))
        .map(|t| t[0])
        .collect();
    let anchor = batch
        .iter()
        .find(|t| t[1] == Id(1_000_000) && p1_subjects.contains(&t[2]))
        .map_or(batch[0][0], |t| t[0]);
    let cases = cases(anchor);

    // -- Parity first: the core agrees with the oracle before anything is
    // timed. ---------------------------------------------------------------
    for case in &cases {
        assert_eq!(
            evaluate(&prefix, &case.query),
            oracle::evaluate(&prefix, &case.query),
            "{}: the core vs the oracle",
            case.name
        );
        let (full, stats) = with_stats(&store, &case.query);
        if case.scan_on_full {
            assert_eq!(
                full,
                oracle::evaluate(&store, &case.query),
                "{}: the core vs the oracle (full store)",
                case.name
            );
        }
        // No two atoms of an acyclic shape leave one variable open.
        assert_eq!(stats.seeks, 0, "{}: an acyclic shape seeks", case.name);
    }
    println!("# parity: the core == the oracle on every acyclic shape, no seeks ✓");

    // Cyclic parity: the core against the oracle on a store small enough
    // for it; on the full store by the triangle count and, on the diamond
    // and the 4-cycle, at the first node of their first answer.
    let tiny = cyclic_triples(&CyclicScale {
        nx: 32,
        fy: 4,
        bz: 16,
        dn: 48,
        de: 160,
    });
    let mut cyc_parity = TripleStore::new();
    cyc_parity.insert_batch(&tiny);
    cyc_parity.insert_batch(&batch[..2_000.min(batch.len())]);
    let cyclic = cyclic_cases();
    for (name, q) in &cyclic {
        assert_eq!(
            evaluate(&cyc_parity, q),
            oracle::evaluate(&cyc_parity, q),
            "{name}: the core vs the oracle"
        );
        let (full, stats) = with_stats(&store, q);
        assert!(stats.seeks > 0, "{name}: the last atoms must meet by seeks");
        if *name == "triangle" {
            assert_eq!(
                full.len(),
                expected_triangles(&scale),
                "triangle: block construction answer count"
            );
        } else {
            let Some(first) = full.rows().next() else {
                panic!("{name}: no answers on the full store");
            };
            assert_matches_oracle_at(&store, name, q, &full, first[0]);
        }
    }
    println!("# parity: the core matches the oracle on every cyclic shape ✓");

    // The triangle's work at the smoke scale, in every mode.
    let mut gate_store = TripleStore::new();
    gate_store.insert_batch(&cyclic_triples(&SMOKE_SCALE));
    let (tri_answers, tri) = with_stats(&gate_store, &cyclic[0].1);
    assert_eq!(tri_answers.len(), expected_triangles(&SMOKE_SCALE));
    let triangle_work = tri.rows_visited + tri.probes + tri.seeks;
    println!(
        "# triangle gate: {} rows + {} probes + {} seeks = {triangle_work} ≤ {TRIANGLE_WORK_BOUND} ✓\n",
        tri.rows_visited, tri.probes, tri.seeks
    );
    assert!(
        triangle_work <= TRIANGLE_WORK_BOUND,
        "the smoke triangle costs {triangle_work} > {TRIANGLE_WORK_BOUND}"
    );

    // -- Timed store-atom joins (acyclic tier). ---------------------------
    let table = Table::new(&["query", "answers", "wall (s)"], &[16, 10, 12]);
    let mut summary: Vec<(String, f64)> = Vec::new();
    let mut wall_total = 0.0;
    let mut tuples_total = 0usize;
    let micro_runs = if smoke { 256 } else { 1_024 };
    for case in &cases {
        // Micro-second shapes need far more repetitions than the big
        // scans for a stable average.
        let case_runs = if case.name == "anchored_chain2" {
            micro_runs
        } else {
            runs
        };
        let (wall, tuples) = time_core(&store, &case.query, case_runs);
        let per_run = wall / case_runs as f64;
        wall_total += per_run * runs as f64;
        tuples_total += tuples * runs;
        table.row(&[case.name, &tuples.to_string(), &format!("{per_run:.4}")]);
        summary.push((format!("wall_{}_s", case.name), per_run));
    }
    let throughput = tuples_total as f64 / wall_total.max(1e-9);
    println!("\n# total: {wall_total:.3}s, {throughput:.0} answer tuples/s");

    // -- View-mixed delta join: resident index reuse under repetition. ----
    // The maintenance shape: Δ(X, <p0>, Y) ⋈ t(Y, <p1>, Z). The constant
    // predicate column keeps the delta probed through its hash index (not
    // a full unbound scan), so the reuse assertion below has teeth. It is
    // timed like the anchored chain below, in batches alternating with
    // that chain's.
    let delta = ViewTable::from_rows(3, batch.iter().take(4_096).map(|t| t.to_vec()));
    let var = |v: u32| QTerm::Var(Var(v));
    let head = vec![var(0), var(2)];
    let delta_args = [var(0), QTerm::Const(Id(1_000_000)), var(1)];
    let atoms = vec![
        MixedAtom::View(ViewAtom {
            table: &delta,
            args: &delta_args,
        }),
        MixedAtom::Store(Atom([var(1), QTerm::Const(Id(1_000_001)), var(2)])),
    ];
    let (first, _) = evaluate_mixed(&store, &atoms, &head);
    let builds = delta.index_builds();
    assert!(builds >= 1, "the delta's bound predicate column is indexed");
    let time_mixed = || {
        let t0 = Instant::now();
        for _ in 0..micro_runs {
            assert_eq!(evaluate_mixed(&store, &atoms, &head).0.len(), first.len());
        }
        t0.elapsed().as_secs_f64() / micro_runs as f64
    };

    // -- Scratch-inflation guard. -----------------------------------------
    // The anchored micro-join once paid O(capacity) cleanup of a pooled
    // scratch set that an earlier large query had inflated. Each thread
    // has its own scratch pool, so the same join timed on a fresh thread
    // and on one that first ran the tier's large queries isolates that
    // cost. Minima over alternating batches: one pair alone can differ by
    // almost 2x from the host's clock steps.
    let anchored = &cases
        .iter()
        .find(|c| c.name == "anchored_chain2")
        .expect("the acyclic tier has an anchored chain")
        .query;
    let large: Vec<&ConjunctiveQuery> = cases
        .iter()
        .filter(|c| !c.scan_on_full)
        .map(|c| &c.query)
        .collect();
    let (mut fresh, mut inflated, mut wall_mixed) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..INFLATION_BATCHES {
        fresh = fresh.min(time_on_new_thread(&store, anchored, &[], micro_runs));
        inflated = inflated.min(time_on_new_thread(&store, anchored, &large, micro_runs));
        wall_mixed = wall_mixed.min(time_mixed());
    }
    println!(
        "# anchored_chain2: {:.2}µs on a fresh thread vs {:.2}µs after {} large queries (minima of {INFLATION_BATCHES} batches)",
        fresh * 1e6,
        inflated * 1e6,
        large.len()
    );
    assert!(
        inflated <= INFLATION_MARGIN * fresh,
        "an inflated scratch slows anchored_chain2 down: {:.2}µs vs {:.2}µs fresh",
        inflated * 1e6,
        fresh * 1e6
    );
    summary.push(("wall_anchored_chain2_fresh_s".to_string(), fresh));
    summary.push(("wall_anchored_chain2_inflated_s".to_string(), inflated));
    assert_eq!(evaluate_mixed(&store, &atoms, &head).0, first);
    assert_eq!(
        delta.index_builds(),
        builds,
        "repeated mixed joins must reuse the delta table's cached indexes"
    );
    println!(
        "# mixed delta join: {} answers, {:.2}µs/run (minimum of {INFLATION_BATCHES} batches of {micro_runs}), {} index build(s) across {} runs ✓",
        first.len(),
        wall_mixed * 1e6,
        builds,
        INFLATION_BATCHES * micro_runs + 2
    );

    // -- Timed cyclic tier. ------------------------------------------------
    let cyc_table = Table::new(&["query", "answers", "wall (s)"], &[12, 10, 12]);
    let cyc_runs = runs.min(2);
    for (name, q) in &cyclic {
        let (wall, tuples) = time_core(&store, q, cyc_runs);
        let per_run = wall / cyc_runs as f64;
        cyc_table.row(&[name, &tuples.to_string(), &format!("{per_run:.4}")]);
        summary.push((format!("wall_{name}_s"), per_run));
    }

    // -- Summary + regression floor. --------------------------------------
    summary.push(("triples".to_string(), store.len() as f64));
    summary.push(("throughput_tuples_per_s".to_string(), throughput));
    summary.push(("wall_total_s".to_string(), wall_total));
    summary.push(("wall_mixed_s".to_string(), wall_mixed));
    summary.push(("triangle_work_smoke".to_string(), triangle_work as f64));
    for field in CI_VALIDATED_FIELDS {
        assert!(
            summary.iter().any(|(k, _)| k == field),
            "summary is missing CI-validated field {field:?}"
        );
    }
    let metrics: Vec<(&str, f64)> = summary.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    rdfviews_bench::emit_bench_json("join_throughput", &metrics);

    let floor = if smoke {
        FLOOR_SMOKE_TPS
    } else {
        FLOOR_FULL_TPS
    };
    if std::env::var("RDFVIEWS_ENFORCE_FLOOR").is_ok() {
        assert!(
            throughput >= floor,
            "join throughput regressed: {throughput:.0} tuples/s < floor {floor:.0}"
        );
        println!("# floor guard: {throughput:.0} tuples/s ≥ {floor:.0} ✓");
    } else {
        println!("# floor (informational): {throughput:.0} tuples/s vs {floor:.0}");
    }
}
