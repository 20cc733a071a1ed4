//! Incremental view maintenance, set-at-a-time.
//!
//! The paper's VMC cost term models exactly this work: "the addition of a
//! triple t⁺ causes the addition of f₁·f₂·…·f_len(v) tuples to v" — the
//! delta of each view under an update. This module implements the delta
//! rule for select-project-join views **one batch at a time** (semi-naive):
//!
//! ```text
//! Δv(Δ) = ⋃_i  π_head( atom_1 ⋈ … ⋈ Δatom_i ⋈ … ⋈ atom_n )
//! ```
//!
//! where `Δatom_i` binds atom `i` to the *whole* update set Δ, materialized
//! as a small 3-column table and probed through on-demand hash indexes
//! (see [`crate::evaluate_mixed`]). One join pass per atom position
//! replaces the |Δ| passes of the classic per-triple rule. The entry
//! points take a prebuilt [`DeltaSet`] (one per batch, shared by every
//! view it maintains); one triple is a singleton delta set.
//!
//! For insertions the base store must already contain Δ⁺ when the deltas
//! are applied (insert first, then maintain), which makes repeated
//! application converge to the same table as rematerialization. Deletions
//! are two-phase (delete-and-rederive): candidates are collected while Δ⁻
//! is still stored, the triples leave the store, and each candidate is
//! re-derived against the shrunken store.
//!
//! A view's rows, a delta and a candidate set are all [`Answers`]: one
//! row-major buffer of distinct rows in order, no vector per row. That is
//! the layout the join core emits, the layout a [`ViewTable`] serves from
//! and the order a snapshot bundle writes, so rows pass from one to the
//! next without being re-sorted, and a delta is spliced into the rows at
//! binary-searched positions.

use rdf_model::{FxHashMap, Id, Triple, TripleStore};
use rdf_query::{ConjunctiveQuery, QTerm, Var};

use crate::answers::Answers;
use crate::eval::{evaluate, evaluate_mixed, MixedAtom, ViewAtom};
use crate::view_table::ViewTable;

/// A maintainable materialized view: the definition plus its rows.
#[derive(Debug, Clone)]
pub struct MaintainedView {
    def: ConjunctiveQuery,
    rows: Answers,
}

/// Counters for one maintenance operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Distinct delta tuples derived for the batch — |Δv|, deduplicated
    /// across atom positions and batch triples, before deduplication
    /// against the table. This is the measured counterpart of the paper's
    /// VMC estimate.
    pub delta_tuples: usize,
    /// Rows actually added to the view.
    pub added: usize,
    /// Rows actually removed from the view.
    pub removed: usize,
    /// Set-at-a-time maintenance passes executed. The deployment layer
    /// stamps one per batch that reached the delta joins, so a caller can
    /// verify that an n-triple feed ran one fixpoint — not n.
    pub batches: usize,
}

impl MaintenanceStats {
    /// Accumulates another operation's counters.
    pub fn merge(&mut self, other: MaintenanceStats) {
        self.delta_tuples += other.delta_tuples;
        self.added += other.added;
        self.removed += other.removed;
        self.batches += other.batches;
    }
}

/// An update batch snapshotted for delta joins: its triples as a 3-column
/// table, duplicates folded. Built **once** per batch and shared across
/// every maintained view (a deployment maintains several), so the batch is
/// not re-copied per view branch.
#[derive(Debug, Clone)]
pub struct DeltaSet {
    table: ViewTable,
}

impl DeltaSet {
    /// Snapshots `batch` (duplicates are folded by the table).
    pub fn new(batch: &[Triple]) -> Self {
        Self {
            table: ViewTable::from_rows(3, batch),
        }
    }

    /// The batch as a 3-column table. Exposed so callers (and tests) can
    /// watch its resident hash-index cache: one delta join per atom
    /// position probes this same table, and [`ViewTable::index_builds`]
    /// proves each bound-column mask is indexed once per batch, not once
    /// per join.
    pub fn table(&self) -> &ViewTable {
        &self.table
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// The prepared phase of a deletion batch: candidate rows whose
/// derivations may have used a deleted triple. Produced by
/// [`MaintainedView::prepare_delete_delta`] *before* the triples leave the
/// store, consumed by [`MaintainedView::commit_delete_batch`] *after*.
#[derive(Debug, Clone)]
pub struct DeleteDelta {
    /// Kept only to debug-check the commit-after-removal protocol; release
    /// builds carry just the candidates.
    #[cfg(debug_assertions)]
    triples: Vec<Triple>,
    candidates: Answers,
}

impl DeleteDelta {
    /// Candidate rows identified in the prepare phase (deduplicated across
    /// atom positions and batch triples).
    pub fn candidates(&self) -> &Answers {
        &self.candidates
    }
}

impl MaintainedView {
    /// Materializes the view over the current store.
    pub fn new(store: &TripleStore, def: ConjunctiveQuery) -> Self {
        let rows = evaluate(store, &def);
        Self { def, rows }
    }

    /// Reassembles a maintained view from persisted parts without
    /// re-evaluating the definition — the rows are trusted to be exactly
    /// the view's extension at the store version they were serialized
    /// with. Recovery relies on this: a snapshot restores tables directly,
    /// then replays the write-ahead log through the normal delta joins.
    pub fn from_parts(def: ConjunctiveQuery, rows: Answers) -> Self {
        debug_assert_eq!(def.head.len(), rows.arity());
        Self { def, rows }
    }

    /// The materialized rows, distinct and in lexicographic order — the
    /// order a serializer wants, so it writes them as they lie.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Id]> + Clone {
        self.rows.rows()
    }

    /// The view definition.
    pub fn definition(&self) -> &ConjunctiveQuery {
        &self.def
    }

    /// Number of rows currently stored.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Snapshot as sorted [`Answers`].
    pub fn to_answers(&self) -> Answers {
        self.rows.clone()
    }

    /// The delta-set join: Δv = ⋃_i π_head(a₁ ⋈ … ⋈ Δaᵢ ⋈ … ⋈ aₙ), with Δ
    /// materialized as a 3-column table whose hash indexes are built on
    /// demand per bound-column set — one join pass per atom position.
    /// Returns the distinct delta tuples.
    fn delta_join(&self, store: &TripleStore, delta: &DeltaSet) -> Answers {
        // An empty batch joins with nothing, at every position.
        let positions = if delta.is_empty() {
            0
        } else {
            self.def.atoms.len()
        };
        let per_position = (0..positions).map(|i| {
            let atoms: Vec<MixedAtom> = self
                .def
                .atoms
                .iter()
                .enumerate()
                .map(|(j, a)| {
                    if j == i {
                        MixedAtom::View(ViewAtom {
                            table: &delta.table,
                            args: a.terms(),
                        })
                    } else {
                        MixedAtom::Store(*a)
                    }
                })
                .collect();
            evaluate_mixed(store, &atoms, &self.def.head).0
        });
        Answers::union_all(self.def.head.len(), per_position)
    }

    /// Applies a batch of insertions (already present in `store`) from a
    /// prebuilt [`DeltaSet`]: one delta-set join pass per atom position,
    /// merged into the table. Deployments maintaining several views build
    /// the delta set once and share it here.
    pub fn apply_insert_delta(
        &mut self,
        store: &TripleStore,
        delta: &DeltaSet,
    ) -> MaintenanceStats {
        let delta = self.delta_join(store, delta);
        MaintenanceStats {
            delta_tuples: delta.len(),
            added: self.rows.insert_all(&delta),
            ..MaintenanceStats::default()
        }
    }

    /// Phase 1 of a deletion batch (delete-and-rederive) from a prebuilt
    /// [`DeltaSet`]: collects the rows whose derivations may involve any
    /// triple of the batch, in one delta-set join pass per atom position.
    /// Must run while the batch is still in `store` — once the triples are
    /// gone, derivations that used several of them at once can no longer
    /// be enumerated.
    pub fn prepare_delete_delta(&self, store: &TripleStore, delta: &DeltaSet) -> DeleteDelta {
        DeleteDelta {
            #[cfg(debug_assertions)]
            triples: delta.table.rows().map(|t| [t[0], t[1], t[2]]).collect(),
            candidates: self.delta_join(store, delta),
        }
    }

    /// Phase 2 of a deletion batch: re-derives each candidate over the
    /// store *after* the batch was removed, and drops the rows that no
    /// longer have a derivation.
    pub fn commit_delete_batch(
        &mut self,
        store: &TripleStore,
        delta: &DeleteDelta,
    ) -> MaintenanceStats {
        #[cfg(debug_assertions)]
        debug_assert!(
            delta.triples.iter().all(|&t| !store.contains(t)),
            "commit_delete_batch runs after the batch leaves the store"
        );
        let mut lost = delta.candidates.clone();
        lost.retain(|row| self.rows.contains(row) && !self.rederivable(store, row));
        MaintenanceStats {
            delta_tuples: delta.candidates.len(),
            removed: self.rows.remove_all(&lost),
            ..MaintenanceStats::default()
        }
    }

    /// Whether `row` still has a derivation over `store`: evaluates the
    /// definition with its head bound to the row's values.
    fn rederivable(&self, store: &TripleStore, row: &[Id]) -> bool {
        let mut subst: FxHashMap<Var, QTerm> = FxHashMap::default();
        for (term, &value) in self.def.head.iter().zip(row.iter()) {
            match term {
                QTerm::Const(c) => {
                    if *c != value {
                        return false;
                    }
                }
                QTerm::Var(v) => match subst.get(v) {
                    Some(QTerm::Const(prev)) => {
                        if *prev != value {
                            return false;
                        }
                    }
                    _ => {
                        subst.insert(*v, QTerm::Const(value));
                    }
                },
            }
        }
        !evaluate(store, &self.def.substitute(&subst)).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{Dataset, Term};
    use rdf_query::parser::parse_query;

    fn setup() -> (Dataset, ConjunctiveQuery) {
        let mut db = Dataset::new();
        let t = |db: &mut Dataset, s: &str, p: &str, o: &str| {
            db.insert_terms(Term::uri(s), Term::uri(p), Term::uri(o));
        };
        t(&mut db, "a", "knows", "b");
        t(&mut db, "b", "knows", "c");
        t(&mut db, "c", "worksAt", "acme");
        let q = parse_query(
            "v(X, W) :- t(X, <knows>, Y), t(Y, <worksAt>, W)",
            db.dict_mut(),
        )
        .unwrap()
        .query;
        (db, q)
    }

    /// The invariant behind every test: after maintenance, the view equals
    /// a from-scratch rematerialization.
    fn assert_consistent(view: &MaintainedView, store: &TripleStore) {
        let fresh = evaluate(store, view.definition());
        assert_eq!(view.to_answers(), fresh);
    }

    #[test]
    fn insert_extends_join_views() {
        let (mut db, q) = setup();
        let mut view = MaintainedView::new(db.store(), q);
        assert_eq!(view.len(), 1); // (b, acme)

        // d knows c  → (d, acme) must appear.
        let d = db.dict_mut().intern_uri("d");
        let knows = db.dict_mut().intern_uri("knows");
        let c = db.dict_mut().intern_uri("c");
        let triple = [d, knows, c];
        db.store_mut().insert(triple);
        let stats = view.apply_insert_delta(db.store(), &DeltaSet::new(&[triple]));
        assert_eq!(stats.added, 1);
        assert_eq!(view.len(), 2);
        assert_consistent(&view, db.store());
    }

    #[test]
    fn insert_matching_second_atom() {
        let (mut db, q) = setup();
        let mut view = MaintainedView::new(db.store(), q);
        // a works at initech → (X=?, W=initech) via Y=a… wait: needs
        // t(X, knows, a); nothing knows a, so no delta. Then e knows a.
        let a = db.dict().lookup_uri("a").unwrap();
        let works_at = db.dict().lookup_uri("worksAt").unwrap();
        let initech = db.dict_mut().intern_uri("initech");
        let t1 = [a, works_at, initech];
        db.store_mut().insert(t1);
        let s1 = view.apply_insert_delta(db.store(), &DeltaSet::new(&[t1]));
        assert_eq!(s1.added, 0);
        assert_consistent(&view, db.store());

        let e = db.dict_mut().intern_uri("e");
        let knows = db.dict().lookup_uri("knows").unwrap();
        let t2 = [e, knows, a];
        db.store_mut().insert(t2);
        let s2 = view.apply_insert_delta(db.store(), &DeltaSet::new(&[t2]));
        assert_eq!(s2.added, 1); // (e, initech)
        assert_consistent(&view, db.store());
    }

    #[test]
    fn irrelevant_triples_cost_nothing() {
        let (mut db, q) = setup();
        let mut view = MaintainedView::new(db.store(), q);
        let x = db.dict_mut().intern_uri("x");
        let likes = db.dict_mut().intern_uri("likes");
        let y = db.dict_mut().intern_uri("y");
        let t = [x, likes, y];
        db.store_mut().insert(t);
        let stats = view.apply_insert_delta(db.store(), &DeltaSet::new(&[t]));
        assert_eq!(stats, MaintenanceStats::default());
        assert_consistent(&view, db.store());
    }

    #[test]
    fn duplicate_delta_not_double_counted() {
        let (db, q) = setup();
        let mut view = MaintainedView::new(db.store(), q);
        // Re-inserting an existing triple adds no rows (store dedups, but
        // even a forced maintenance call must not add).
        let triple = db.store().triples()[0];
        let stats = view.apply_insert_delta(db.store(), &DeltaSet::new(&[triple]));
        assert_eq!(stats.added, 0);
        assert_consistent(&view, db.store());
    }

    #[test]
    fn batch_maintenance_matches_rematerialization() {
        let (mut db, q) = setup();
        let mut view = MaintainedView::new(db.store(), q);
        let knows = db.dict().lookup_uri("knows").unwrap();
        let works_at = db.dict().lookup_uri("worksAt").unwrap();
        let mut batch = Vec::new();
        for i in 0..10 {
            let s = db.dict_mut().intern_uri(&format!("p{i}"));
            let o = db.dict_mut().intern_uri(&format!("p{}", (i + 1) % 10));
            batch.push([s, knows, o]);
            if i % 3 == 0 {
                let site = db.dict_mut().intern_uri(&format!("site{i}"));
                batch.push([s, works_at, site]);
            }
        }
        let added = db.store_mut().insert_batch(&batch);
        assert_eq!(added.len(), batch.len());
        view.apply_insert_delta(db.store(), &DeltaSet::new(&batch));
        assert_consistent(&view, db.store());
    }

    /// The one-pass-per-atom batch delta agrees — tuple for tuple — with
    /// per-triple application, and never computes *more* delta tuples.
    #[test]
    fn batch_delta_matches_per_triple_and_saves_work() {
        let (mut db, q) = setup();
        let knows = db.dict().lookup_uri("knows").unwrap();
        let works_at = db.dict().lookup_uri("worksAt").unwrap();
        let mut batch = Vec::new();
        for i in 0..12 {
            let s = db.dict_mut().intern_uri(&format!("n{i}"));
            let o = db.dict_mut().intern_uri(&format!("n{}", (i + 1) % 12));
            batch.push([s, knows, o]);
            let site = db.dict_mut().intern_uri(&format!("site{}", i % 2));
            batch.push([s, works_at, site]);
        }
        let mut batched = MaintainedView::new(db.store(), q.clone());
        let mut per_triple = MaintainedView::new(db.store(), q);

        db.store_mut().insert_batch(&batch);
        let bstats = batched.apply_insert_delta(db.store(), &DeltaSet::new(&batch));
        let mut pstats = MaintenanceStats::default();
        for &t in &batch {
            pstats.merge(per_triple.apply_insert_delta(db.store(), &DeltaSet::new(&[t])));
        }
        assert_eq!(batched.to_answers(), per_triple.to_answers());
        assert_eq!(bstats.added, pstats.added);
        assert!(
            bstats.delta_tuples <= pstats.delta_tuples,
            "batched {} vs per-triple {}",
            bstats.delta_tuples,
            pstats.delta_tuples
        );
        assert_consistent(&batched, db.store());
    }

    #[test]
    fn single_atom_view_maintenance() {
        let mut db = Dataset::new();
        db.insert_terms(Term::uri("a"), Term::uri("p"), Term::uri("b"));
        let q = parse_query("v(X, Y) :- t(X, <p>, Y)", db.dict_mut())
            .unwrap()
            .query;
        let mut view = MaintainedView::new(db.store(), q);
        assert_eq!(view.len(), 1);
        let p = db.dict().lookup_uri("p").unwrap();
        let c = db.dict_mut().intern_uri("c");
        let d = db.dict_mut().intern_uri("d");
        let t = [c, p, d];
        db.store_mut().insert(t);
        let stats = view.apply_insert_delta(db.store(), &DeltaSet::new(&[t]));
        assert_eq!(stats.added, 1);
        assert_consistent(&view, db.store());
    }

    /// The deployment-side deletion protocol: prepare while the triple is
    /// still stored, remove it, commit against the shrunken store.
    fn delete_triple(view: &mut MaintainedView, db: &mut Dataset, t: Triple) -> MaintenanceStats {
        let delta = view.prepare_delete_delta(db.store(), &DeltaSet::new(&[t]));
        assert!(db.store_mut().remove(t));
        view.commit_delete_batch(db.store(), &delta)
    }

    #[test]
    fn delete_shrinks_join_views() {
        let (mut db, q) = setup();
        let mut view = MaintainedView::new(db.store(), q);
        assert_eq!(view.len(), 1); // (b, acme)
        let c = db.dict().lookup_uri("c").unwrap();
        let works_at = db.dict().lookup_uri("worksAt").unwrap();
        let acme = db.dict().lookup_uri("acme").unwrap();
        let stats = delete_triple(&mut view, &mut db, [c, works_at, acme]);
        assert_eq!(stats.removed, 1);
        assert!(view.is_empty());
        assert_consistent(&view, db.store());
    }

    #[test]
    fn delete_keeps_rederivable_rows() {
        // (b, acme) is derivable through two "knows" paths; removing one
        // must keep the row.
        let (mut db, _) = setup();
        let a2 = db.dict_mut().intern_uri("a2");
        let knows = db.dict().lookup_uri("knows").unwrap();
        let b = db.dict().lookup_uri("b").unwrap();
        db.store_mut().insert([a2, knows, b]);
        let q2 = parse_query(
            "v(W) :- t(X, <knows>, Y), t(Y, <worksAt>, W)",
            db.dict_mut(),
        )
        .unwrap()
        .query;
        let mut view = MaintainedView::new(db.store(), q2);
        assert_eq!(view.len(), 1); // (acme) via b←a and b←a2
        let a = db.dict().lookup_uri("a").unwrap();
        let stats = delete_triple(&mut view, &mut db, [a, knows, b]);
        assert_eq!(stats.removed, 0, "still derivable via a2");
        assert_eq!(view.len(), 1);
        assert_consistent(&view, db.store());
    }

    #[test]
    fn delete_of_irrelevant_triple_is_cheap() {
        let (mut db, q) = setup();
        let x = db.dict_mut().intern_uri("x");
        let likes = db.dict_mut().intern_uri("likes");
        let y = db.dict_mut().intern_uri("y");
        db.store_mut().insert([x, likes, y]);
        let mut view = MaintainedView::new(db.store(), q);
        let stats = delete_triple(&mut view, &mut db, [x, likes, y]);
        assert_eq!(stats, MaintenanceStats::default());
        assert_consistent(&view, db.store());
    }

    #[test]
    fn delete_with_triple_in_two_atoms() {
        // v(X) :- t(X, p, Y), t(Y, p, X): the pair (a,b),(b,a) derives both
        // a and b; deleting (b,p,a) must drop both rows.
        let mut db = Dataset::new();
        let q = parse_query("v(X) :- t(X, <p>, Y), t(Y, <p>, X)", db.dict_mut())
            .unwrap()
            .query;
        let p = db.dict().lookup_uri("p").unwrap();
        let a = db.dict_mut().intern_uri("a");
        let b = db.dict_mut().intern_uri("b");
        db.store_mut().insert([a, p, b]);
        db.store_mut().insert([b, p, a]);
        db.store_mut().insert([a, p, a]); // self-loop keeps a derivable
        let mut view = MaintainedView::new(db.store(), q);
        assert_eq!(view.len(), 2);
        let stats = delete_triple(&mut view, &mut db, [b, p, a]);
        assert_eq!(stats.removed, 1, "b gone, a survives via its self-loop");
        assert_consistent(&view, db.store());
    }

    #[test]
    fn batched_delete_matches_sequential_deletes() {
        let (mut db, q) = setup();
        let knows = db.dict().lookup_uri("knows").unwrap();
        let works_at = db.dict().lookup_uri("worksAt").unwrap();
        let mut extra = Vec::new();
        for i in 0..10 {
            let s = db.dict_mut().intern_uri(&format!("d{i}"));
            let o = db.dict_mut().intern_uri(&format!("d{}", (i + 1) % 10));
            extra.push([s, knows, o]);
            let site = db.dict_mut().intern_uri(&format!("site{}", i % 3));
            extra.push([s, works_at, site]);
        }
        db.store_mut().insert_batch(&extra);
        let doomed: Vec<Triple> = extra.iter().copied().step_by(2).collect();

        // Batched: one prepare/commit pair for the whole set.
        let mut batched = MaintainedView::new(db.store(), q.clone());
        let mut batched_store = db.store().clone();
        let delta = batched.prepare_delete_delta(&batched_store, &DeltaSet::new(&doomed));
        batched_store.remove_batch(&doomed);
        let bstats = batched.commit_delete_batch(&batched_store, &delta);

        // Sequential per-triple deletes over an identical copy.
        let mut seq = MaintainedView::new(db.store(), q.clone());
        let mut seq_store = db.store().clone();
        let mut pstats = MaintenanceStats::default();
        for &t in &doomed {
            let d = seq.prepare_delete_delta(&seq_store, &DeltaSet::new(&[t]));
            seq_store.remove(t);
            pstats.merge(seq.commit_delete_batch(&seq_store, &d));
        }
        assert_eq!(batched.to_answers(), seq.to_answers());
        assert_eq!(bstats.removed, pstats.removed);
        assert!(
            bstats.delta_tuples <= pstats.delta_tuples,
            "batched {} vs per-triple {}",
            bstats.delta_tuples,
            pstats.delta_tuples
        );
        assert_eq!(
            batched.to_answers(),
            evaluate(&batched_store, batched.definition())
        );
    }

    #[test]
    fn interleaved_inserts_and_deletes_converge() {
        let (mut db, q) = setup();
        let mut view = MaintainedView::new(db.store(), q);
        let knows = db.dict().lookup_uri("knows").unwrap();
        let works_at = db.dict().lookup_uri("worksAt").unwrap();
        let mut triples = Vec::new();
        for i in 0..8 {
            let s = db.dict_mut().intern_uri(&format!("w{i}"));
            let o = db.dict_mut().intern_uri(&format!("w{}", (i + 1) % 8));
            triples.push([s, knows, o]);
            if i % 2 == 0 {
                let site = db.dict_mut().intern_uri(&format!("site{i}"));
                triples.push([s, works_at, site]);
            }
        }
        for &t in &triples {
            if db.store_mut().insert(t) {
                view.apply_insert_delta(db.store(), &DeltaSet::new(&[t]));
            }
            assert_consistent(&view, db.store());
        }
        for &t in triples.iter().rev().step_by(2) {
            delete_triple(&mut view, &mut db, t);
            assert_consistent(&view, db.store());
        }
    }

    #[test]
    fn self_join_view_maintenance() {
        // v(X) :- t(X, p, Y), t(Y, p, X): one new triple can complete a
        // pair in both directions.
        let mut db = Dataset::new();
        let q = parse_query("v(X) :- t(X, <p>, Y), t(Y, <p>, X)", db.dict_mut())
            .unwrap()
            .query;
        let p = db.dict().lookup_uri("p").unwrap();
        let a = db.dict_mut().intern_uri("a");
        let b = db.dict_mut().intern_uri("b");
        db.store_mut().insert([a, p, b]);
        let mut view = MaintainedView::new(db.store(), q);
        assert_eq!(view.len(), 0);
        let t = [b, p, a];
        db.store_mut().insert(t);
        view.apply_insert_delta(db.store(), &DeltaSet::new(&[t]));
        assert_eq!(view.len(), 2); // a and b
        assert_consistent(&view, db.store());
    }
}
