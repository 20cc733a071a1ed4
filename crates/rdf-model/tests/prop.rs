//! Property tests for the store: every index order must agree with a
//! linear scan, for arbitrary triple sets and patterns; and for the line
//! format: what the writer writes, the reader reads back as it was.

use std::collections::{BTreeSet, HashSet};
use std::io::BufReader;
use std::sync::Arc;

use proptest::prelude::*;
use rdf_model::{
    ntriples, Dataset, Id, IndexOrder, StorePattern, StoreSnapshot, Term, TermKind, Triple,
    TripleStore,
};

fn ids(t: &[u32; 3]) -> Triple {
    [Id(t[0]), Id(t[1]), Id(t[2])]
}

/// Every run of `store`, as a fresh sort of its triple list would give it.
fn fresh_runs(store: &TripleStore) -> Vec<Vec<Triple>> {
    IndexOrder::ALL
        .iter()
        .map(|order| {
            let perm = order.perm();
            let mut run = store.triples().to_vec();
            run.sort_unstable_by_key(|t| [t[perm[0]], t[perm[1]], t[perm[2]]]);
            run
        })
        .collect()
}

fn triples_strategy() -> impl Strategy<Value = Vec<[u32; 3]>> {
    prop::collection::vec([0u32..12, 0u32..6, 0u32..12], 0..120)
}

fn pattern_strategy() -> impl Strategy<Value = [Option<u32>; 3]> {
    [
        prop::option::of(0u32..12),
        prop::option::of(0u32..6),
        prop::option::of(0u32..12),
    ]
}

proptest! {
    #[test]
    fn index_scans_agree_with_linear_scan(
        triples in triples_strategy(),
        pats in prop::collection::vec(pattern_strategy(), 1..12),
    ) {
        let mut store = TripleStore::new();
        for t in &triples {
            store.insert([Id(t[0]), Id(t[1]), Id(t[2])]);
        }
        for p in pats {
            let pat = StorePattern::new(p[0].map(Id), p[1].map(Id), p[2].map(Id));
            let mut expected: Vec<[Id; 3]> = store
                .triples()
                .iter()
                .copied()
                .filter(|&t| pat.matches(t))
                .collect();
            expected.sort_unstable();
            let mut got = store.matching(&pat);
            got.sort_unstable();
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(store.match_count(&pat), expected.len());
        }
    }

    #[test]
    fn insert_then_contains(triples in triples_strategy()) {
        let mut store = TripleStore::new();
        let mut reference = std::collections::HashSet::new();
        for t in &triples {
            let t = [Id(t[0]), Id(t[1]), Id(t[2])];
            prop_assert_eq!(store.insert(t), reference.insert(t));
        }
        prop_assert_eq!(store.len(), reference.len());
        for t in &reference {
            prop_assert!(store.contains(*t));
        }
    }

    #[test]
    fn distinct_counts_are_exact(triples in triples_strategy()) {
        let mut store = TripleStore::new();
        for t in &triples {
            store.insert([Id(t[0]), Id(t[1]), Id(t[2])]);
        }
        let counts = store.distinct_counts();
        for col in 0..3 {
            let expected: std::collections::HashSet<Id> =
                store.triples().iter().map(|t| t[col]).collect();
            prop_assert_eq!(counts[col], expected.len());
        }
    }

    #[test]
    fn interleaved_insert_and_scan(
        batches in prop::collection::vec(triples_strategy(), 1..4),
    ) {
        // Index snapshots must be correctly invalidated by writes.
        let mut store = TripleStore::new();
        for batch in &batches {
            for t in batch {
                store.insert([Id(t[0]), Id(t[1]), Id(t[2])]);
            }
            let pat = StorePattern::with_p(Id(1));
            let expected = store
                .triples()
                .iter()
                .filter(|t| t[1] == Id(1))
                .count();
            prop_assert_eq!(store.match_count(&pat), expected);
        }
    }

    /// Runs carried across writes by splice equal a fresh sort, whatever
    /// the write holds: a triple at the first and one at the last position
    /// of every run (`(0, 0, 0)` sorts before and `(40, 40, 40)` after all
    /// that is drawn, in every order), repeats within a batch, triples
    /// already present (insert) or absent (remove), and single inserts and
    /// removes, which are batches of one. The insertion-order list agrees
    /// with a model `Vec`, a snapshot pinned before each write keeps the
    /// very runs it had, and `contains` — a search of the `Spo` run —
    /// agrees with the model for every triple drawn, on the live store
    /// after every op and on the pin.
    #[test]
    fn runs_carried_by_splice_equal_a_fresh_sort(
        base in triples_strategy(),
        writes in prop::collection::vec((0u8..4, triples_strategy()), 1..6),
        ends in any::<bool>(),
    ) {
        let mut store = TripleStore::new();
        let mut model: Vec<Triple> = Vec::new();
        for t in base.iter().map(ids) {
            if store.insert(t) {
                model.push(t);
            }
        }
        let mut drawn: Vec<Triple> = base.iter().map(ids).collect();
        for (op, batch) in &writes {
            let (insert, single) = (op % 2 == 0, *op >= 2);
            let mut batch: Vec<Triple> = batch.iter().map(ids).collect();
            if ends {
                batch.push([Id(0), Id(0), Id(0)]);
                batch.push([Id(40), Id(40), Id(40)]);
                batch.extend_from_within(..batch.len().min(3));
            }
            drawn.extend_from_slice(&batch);
            // Build every run so that each is carried, and pin them.
            let before: Vec<Arc<Vec<Triple>>> =
                IndexOrder::ALL.iter().map(|&o| store.index(o)).collect();
            let pinned = store.snapshot();
            let pinned_model = model.clone();
            let pinned_runs = fresh_runs(&pinned);
            let version = store.version();

            let mut changed = Vec::new();
            for &t in &batch {
                if model.contains(&t) != insert && !changed.contains(&t) {
                    changed.push(t);
                }
            }
            if insert {
                model.extend_from_slice(&changed);
            } else {
                model.retain(|t| !changed.contains(t));
            }
            if single {
                for &t in &batch {
                    let was = store.contains(t);
                    let did = if insert { store.insert(t) } else { store.remove(t) };
                    prop_assert_eq!(did, was != insert);
                    prop_assert_eq!(store.contains(t), insert);
                }
            } else {
                let done = if insert { store.insert_batch(&batch) } else { store.remove_batch(&batch) };
                prop_assert_eq!(done, changed.clone());
            }
            let bumps = if single { changed.len() } else { usize::from(!changed.is_empty()) };
            prop_assert_eq!(store.triples(), &model[..]);
            prop_assert_eq!(store.version(), version + bumps as u64);
            for ((order, fresh), old) in IndexOrder::ALL.iter().zip(fresh_runs(&store)).zip(&before) {
                let carried = store.index(*order);
                prop_assert_eq!(&*carried, &fresh, "order {:?}", order);
                // A write that changed something published a new run.
                prop_assert_eq!(Arc::ptr_eq(&carried, old), changed.is_empty());
            }
            for t in &drawn {
                prop_assert_eq!(store.contains(*t), model.contains(t));
                prop_assert_eq!(pinned.contains(*t), pinned_model.contains(t));
            }
            // The pin still answers from the runs it shared.
            prop_assert_eq!(pinned.version(), version);
            prop_assert_eq!(pinned.triples(), &pinned_model[..]);
            for ((order, was), old) in IndexOrder::ALL.iter().zip(&pinned_runs).zip(&before) {
                prop_assert!(Arc::ptr_eq(&pinned.index(*order), old));
                prop_assert_eq!(&**old, was, "pinned order {:?}", order);
            }
        }
    }

    /// A store rebuilt from a strictly `Spo`-sorted list serves its `Spo`
    /// run from that very allocation; from any other list it sorts one.
    /// Either way it then behaves as the store it was rebuilt from.
    #[test]
    fn from_parts_adopts_a_sorted_list_as_the_spo_run(
        triples in triples_strategy(),
        batch in triples_strategy(),
    ) {
        let mut original = TripleStore::new();
        for t in triples.iter().map(ids) {
            original.insert(t);
        }
        let sorted = (*original.index(IndexOrder::Spo)).clone();
        let mut reopened = TripleStore::from_parts(sorted.clone(), original.version());
        prop_assert_eq!(reopened.triples(), &sorted[..]);
        prop_assert_eq!(
            reopened.index(IndexOrder::Spo).as_ptr(),
            reopened.triples().as_ptr(),
            "the list is the run"
        );
        let unsorted = TripleStore::from_parts(original.triples().to_vec(), original.version());
        prop_assert_eq!(&*unsorted.index(IndexOrder::Spo), &sorted);

        // The first mutation un-shares list and run; both stay right.
        let pinned = reopened.snapshot();
        let batch: Vec<Triple> = batch.iter().map(ids).collect();
        reopened.insert_batch(&batch);
        original.insert_batch(&batch);
        reopened.remove_batch(&sorted[..sorted.len() / 2]);
        original.remove_batch(&sorted[..sorted.len() / 2]);
        for order in IndexOrder::ALL {
            prop_assert_eq!(&*reopened.index(order), &*original.index(order));
        }
        prop_assert_eq!(reopened.len(), original.len());
        prop_assert_eq!(pinned.triples(), &sorted[..]);
        prop_assert_eq!(&*pinned.index(IndexOrder::Spo), &sorted);
    }
}

/// A store under test beside its model: the insertion order it must list
/// (`None` for a `Spo`-listed store, which lists `members` in order) and
/// the set of its triples.
struct Modelled {
    store: TripleStore,
    order: Option<Vec<Triple>>,
    members: BTreeSet<Triple>,
}

/// Whether `store` lists its `Spo` run: the same triples in the same
/// allocation.
fn lists_its_spo_run(store: &TripleStore) -> bool {
    std::ptr::eq(store.triples(), &store.index(IndexOrder::Spo)[..])
}

proptest! {
    /// Random histories of batches, clones, `Spo`-listed clones and pins
    /// over both listings, against a model: after every step an
    /// insertion-listed store lists exactly its insertion order, a
    /// `Spo`-listed store lists its `Spo` run (one allocation), every store
    /// holds the model's set, and every pinned snapshot still lists and
    /// holds what it did when it was taken.
    #[test]
    fn both_listings_follow_their_model_through_random_histories(
        steps in prop::collection::vec(
            (0u8..5, 0usize..8, prop::collection::vec([0u32..8, 0u32..4, 0u32..8], 0..24)),
            1..24,
        ),
    ) {
        let mut stores = vec![
            Modelled { store: TripleStore::new(), order: Some(Vec::new()), members: BTreeSet::new() },
            Modelled { store: TripleStore::new().spo_listed(), order: None, members: BTreeSet::new() },
        ];
        let mut pins: Vec<(StoreSnapshot, Vec<Triple>, Vec<Triple>)> = Vec::new();
        for (op, which, drawn) in steps {
            let at = which % stores.len();
            let batch: Vec<Triple> = drawn.iter().map(ids).collect();
            match op {
                0 | 1 => {
                    let m = &mut stores[at];
                    let insert = op == 0;
                    // A removal also names every third triple the store holds.
                    let batch: Vec<Triple> = match insert {
                        true => batch,
                        false => batch.into_iter().chain(m.members.iter().copied().step_by(3)).collect(),
                    };
                    let mut changed = Vec::new();
                    for &t in &batch {
                        if m.members.contains(&t) != insert && !changed.contains(&t) {
                            changed.push(t);
                        }
                    }
                    let done = match insert {
                        true => m.store.insert_batch(&batch),
                        false => m.store.remove_batch(&batch),
                    };
                    prop_assert_eq!(&done, &changed);
                    for t in &changed {
                        match insert {
                            true => m.members.insert(*t),
                            false => m.members.remove(t),
                        };
                    }
                    if let Some(order) = &mut m.order {
                        match insert {
                            true => order.extend_from_slice(&changed),
                            false => order.retain(|t| !changed.contains(t)),
                        }
                    }
                }
                2 | 4 if stores.len() < 6 => {
                    let m = &stores[at];
                    let (store, order) = match op {
                        2 => (m.store.clone(), m.order.clone()),
                        _ => (m.store.spo_listed(), None),
                    };
                    let members = m.members.clone();
                    stores.push(Modelled { store, order, members });
                }
                3 if pins.len() < 8 => {
                    let m = &stores[at];
                    let listed = m.store.triples().to_vec();
                    let set: Vec<Triple> = m.members.iter().copied().collect();
                    pins.push((m.store.snapshot(), listed, set));
                }
                _ => {}
            }
            for m in &stores {
                let set: Vec<Triple> = m.members.iter().copied().collect();
                prop_assert_eq!(&*m.store.index(IndexOrder::Spo), &set);
                prop_assert_eq!(m.store.len(), set.len());
                match &m.order {
                    Some(order) => prop_assert_eq!(m.store.triples(), &order[..]),
                    None => prop_assert!(lists_its_spo_run(&m.store), "Spo-listed"),
                }
            }
            for (pin, listed, set) in &pins {
                prop_assert_eq!(pin.triples(), &listed[..]);
                prop_assert_eq!(&*pin.index(IndexOrder::Spo), set);
            }
        }
    }
}

/// A few thousand triples over ids below `below`: long and dense enough
/// for the store's counting passes.
fn long_strategy(below: u32, len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<[u32; 3]>> {
    prop::collection::vec([0..below, 0..below, 0..below], len)
}

/// `t` as drawn, or — `sparse` — moved to ids near `u32::MAX`, too sparse
/// for a histogram, where the store sorts by comparison.
fn placed(t: &[u32; 3], sparse: bool) -> Triple {
    match sparse {
        true => t.map(|id| Id(u32::MAX - id)),
        false => ids(t),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every run equals a fresh comparison sort, whichever way it was
    /// built: the `Spo` run of a list rebuilt out of order, and each other
    /// order requested first in one sequence (two passes over `Spo`) and
    /// after its one-pass source in another — the sequences start at each
    /// order in turn and go on in declaration order, so `Sop`, `Pos` and
    /// `Ops` are each built both without and with `Osp`/`Ops` or
    /// `Pso`/`Pos` already there. Dense and sparse ids take the two sides
    /// of the store's counting rule.
    #[test]
    fn every_run_is_built_as_a_comparison_sort_would_sort_it(
        drawn in long_strategy(64, 2000..4000),
        sparse in any::<bool>(),
    ) {
        let mut seen = HashSet::new();
        let list: Vec<Triple> = drawn
            .iter()
            .map(|t| placed(t, sparse))
            .filter(|&t| seen.insert(t))
            .collect();
        let store = TripleStore::from_parts(list.clone(), 7);
        prop_assert_eq!(store.triples(), &list[..]);
        let fresh = fresh_runs(&store);
        prop_assert_eq!(&*store.index(IndexOrder::Spo), &fresh[0]);
        for first in 1..6 {
            // A clone shares only the `Spo` run: nothing else is built.
            let fork = store.clone();
            for k in (first..6).chain(1..first) {
                let order = IndexOrder::ALL[k];
                prop_assert_eq!(&*fork.index(order), &fresh[k], "{:?} after {:?}", order, first);
            }
        }
    }

    /// Large batches with repeats, some already in the store (insert) or
    /// not (remove), return exactly the model's first occurrences in batch
    /// order, append or cut the list as the model does, bump the version
    /// once and leave every run equal to a fresh sort — on dense ids, where
    /// the batch is sorted by counting passes, and on sparse ones, where it
    /// is sorted by comparison. The first batch lands on an empty store.
    #[test]
    fn large_batches_return_first_occurrences_in_batch_order(
        base in long_strategy(16, 1000..2000),
        writes in prop::collection::vec((any::<bool>(), long_strategy(16, 1000..3000)), 1..4),
        sparse in any::<bool>(),
    ) {
        let mut store = TripleStore::new();
        let (mut model, mut members): (Vec<Triple>, HashSet<Triple>) = Default::default();
        for (insert, drawn) in std::iter::once((true, base)).chain(writes) {
            let batch: Vec<Triple> = drawn.iter().map(|t| placed(t, sparse)).collect();
            let mut seen = HashSet::new();
            let changed: Vec<Triple> = batch
                .iter()
                .copied()
                .filter(|t| members.contains(t) != insert && seen.insert(*t))
                .collect();
            let version = store.version();
            let done = match insert {
                true => store.insert_batch(&batch),
                false => store.remove_batch(&batch),
            };
            prop_assert_eq!(&done, &changed);
            if insert {
                model.extend_from_slice(&changed);
                members.extend(&changed);
            } else {
                model.retain(|t| !seen.contains(t));
                members.retain(|t| !seen.contains(t));
            }
            prop_assert_eq!(store.triples(), &model[..]);
            prop_assert_eq!(store.version(), version + u64::from(!changed.is_empty()));
            // Build every run, so that the next batch carries them all.
            for (order, fresh) in IndexOrder::ALL.iter().zip(fresh_runs(&store)) {
                prop_assert_eq!(&*store.index(*order), &fresh, "order {:?}", order);
            }
        }
    }
}

/// Characters the reader and writer treat specially, beside plain ones.
const ALPHABET: [char; 15] = [
    'a', 'b', '<', '>', '"', '\\', '_', ':', ' ', '\t', '\n', '\r', '.', 'é', '\u{a0}',
];

/// A term of any kind spelled from [`ALPHABET`], plain letters weighted up.
fn term_strategy() -> impl Strategy<Value = Term> {
    let chars = prop::collection::vec(
        prop_oneof![4 => 0usize..2, 3 => 0..ALPHABET.len()].prop_map(|i| ALPHABET[i]),
        0..6,
    );
    let kinds = [TermKind::Uri, TermKind::Blank, TermKind::Literal];
    (0usize..3, chars).prop_map(move |(kind, chars)| {
        Term::of_kind(kinds[kind], chars.into_iter().collect::<String>())
    })
}

/// `term` as a kind that may stand at `position` (0 subject, 1 property,
/// 2 object), spelled as before.
fn allowed_at(term: Term, position: usize) -> Term {
    match (position, term.kind()) {
        (1, TermKind::Uri) | (0, TermKind::Uri | TermKind::Blank) | (2, _) => term,
        _ => Term::uri(term.lexical()),
    }
}

/// `term` with every character taken out that the writer refuses in its
/// kind, and a blank label never empty.
fn writable(term: Term) -> Term {
    let mut s = term.lexical().to_string();
    match term.kind() {
        TermKind::Uri => s.retain(|c| c != '>' && c != '\n'),
        TermKind::Blank => {
            s.retain(|c| !c.is_whitespace());
            s.insert(0, 'x');
        }
        TermKind::Literal => {}
    }
    Term::of_kind(term.kind(), s)
}

/// The store and the dictionary of `db`, as comparable values.
fn contents(db: &Dataset) -> (Vec<Triple>, Vec<Term>) {
    let terms = db.dict().iter().map(|(_, t)| t.clone()).collect();
    (db.store().triples().to_vec(), terms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The writer either refuses a dataset or writes text its reader turns
    /// back into the same triples, in the same order, with the same ids —
    /// whole, through a 7-byte buffer, with CRLF line ends, and without a
    /// final newline. Terms are drawn as they come (`mode` 0), moved to a
    /// kind their position allows (1), or also stripped of what the writer
    /// refuses (2, never refused).
    #[test]
    fn written_text_reads_back_identically(
        triples in prop::collection::vec([term_strategy(), term_strategy(), term_strategy()], 1..6),
        mode in 0u32..3,
    ) {
        let mut db = Dataset::new();
        let fix = |t: Term, position| match mode {
            0 => t,
            1 => allowed_at(t, position),
            _ => writable(allowed_at(t, position)),
        };
        for [s, p, o] in triples {
            db.insert_terms(fix(s, 0), fix(p, 1), fix(o, 2));
        }
        let mut buf = Vec::new();
        if let Err(e) = ntriples::write_dataset(&db, &mut buf) {
            prop_assert!(mode < 2, "a writable dataset was refused: {e}");
            prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
            return;
        }
        let text = String::from_utf8(buf).unwrap();
        let back = ntriples::parse_dataset(&text).unwrap();
        prop_assert_eq!(contents(&back), contents(&db));

        let crlf = text.replace('\n', "\r\n");
        let variants = [
            text.clone(),
            crlf.clone(),
            text.strip_suffix('\n').unwrap().to_string(),
            crlf.strip_suffix("\r\n").unwrap().to_string(),
        ];
        for variant in &variants {
            let mut read = Dataset::new();
            let reader = BufReader::with_capacity(7, variant.as_bytes());
            ntriples::read_into(&mut read, reader).unwrap();
            prop_assert_eq!(contents(&read), contents(&back));
        }
    }
}
