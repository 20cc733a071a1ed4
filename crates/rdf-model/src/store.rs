//! The triple table and its six permutation indexes.
//!
//! The store keeps every distinct triple once, in insertion order, beside
//! its `Spo` run — the same triples sorted by `(s, p, o)` — and builds the
//! five other sorted copies, one per column permutation, on first use, so
//! that any pattern with 1–3 bound columns is answered by a binary-searched
//! range over the best index. This mirrors the sextuple indexing of
//! Hexastore \[23\] and the "indexed the encoded triple table on s, p, o,
//! and all two- and three-column combinations" layout of the paper's
//! evaluation platform.
//!
//! Runs are counted, not compared. Ids are dense dictionary positions, so
//! a stable counting pass orders `n` triples by one column in O(n + K)
//! steps (K = the column's largest id + 1), and a run already sorted
//! leaves the rest of the work done: a new run is one or two passes over
//! a built one ([`TripleStore::index`]), and a large batch's row numbers
//! are sorted by three passes before it is merged against the `Spo` run
//! (`sift`). Where a histogram would cost more than a comparison sort —
//! a small batch, or ids sparse for the input's length — the store sorts
//! by comparison; the rule reads only the length and the largest ids.
//!
//! The `Spo` run is always built, and it is the store's membership set:
//! [`TripleStore::contains`] is a binary search of it, and a caller with
//! many triples to test sorts them and merges them against it in one pass
//! ([`TripleStore::retain_by_membership`]), as the batch entry points do
//! to deduplicate.
//!
//! A sorted run is an immutable `Arc<Vec<Triple>>`, always current: every
//! write — [`TripleStore::insert_batch`], [`TripleStore::remove_batch`] —
//! bumps the store version **once** and carries the `Spo` run and every
//! other built run across by *splice*: each delta triple's position in the
//! old run is found by galloping search and the stretches between
//! positions are copied whole — O(|Δ| log(n / |Δ|)) compares and one
//! `memcpy` of the run, into a **new** `Arc`, so anyone still holding the
//! old run keeps it untouched. A write therefore costs O(n) however small
//! it is: [`TripleStore::insert`] and [`TripleStore::remove`] are batches
//! of one, for tests and small fixtures, and loaders and feeds batch.
//!
//! A store lists its triples ([`TripleStore::triples`]) in one of two
//! ways. A store built by inserting — [`TripleStore::new`] and its
//! batches, every loader and generator, [`TripleStore::clone`] of such a
//! store — keeps an **insertion-order** list beside its `Spo` run, 12 B
//! per triple more, because callers depend on that order: the workload
//! generators draw triples by position and the N-Triples writer emits the
//! list as it lies, so a different order is a different benchmark input.
//! A store the system builds for its own use — a deployment's stores, the
//! advisor's saturated copy, a store decoded from a bundle — lists its
//! triples **in `Spo` order**: its list *is* its `Spo` run, one
//! allocation, and every write points the list at the spliced run
//! ([`TripleStore::spo_listed`], [`TripleStore::from_parts`]). Nothing
//! reads such a store's order, so it keeps no second copy of its triples.
//!
//! The list is `Arc`-shared like the runs, which makes generations
//! copy-on-write: [`TripleStore::snapshot`] pins the current contents as
//! an immutable [`StoreSnapshot`] in O(built runs) time, and the next
//! mutation publishes new runs instead of blocking or invalidating the
//! pinned readers. An insertion-order list is then written once — an
//! insert copies a shared list into an exact-size vector with the batch
//! appended, a removal into one that leaves the doomed triples out — and
//! a list nothing else holds is written in place, to its exact new length.
//! A `Spo`-listed store writes no list at all.

use std::sync::{Arc, RwLock};

use crate::fxhash::FxHashSet;
use crate::pattern::StorePattern;
use crate::sync::{read_unpoisoned, unpoisoned, write_unpoisoned};
use crate::term::Id;

/// An encoded triple in `(s, p, o)` order.
pub type Triple = [Id; 3];

/// Subject / property / object column index.
pub const S: usize = 0;
/// Property column.
pub const P: usize = 1;
/// Object column.
pub const O: usize = 2;

/// One of the six column permutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexOrder {
    /// subject, property, object
    Spo,
    /// subject, object, property
    Sop,
    /// property, subject, object
    Pso,
    /// property, object, subject
    Pos,
    /// object, subject, property
    Osp,
    /// object, property, subject
    Ops,
}

impl IndexOrder {
    /// All six orders.
    pub const ALL: [IndexOrder; 6] = [
        IndexOrder::Spo,
        IndexOrder::Sop,
        IndexOrder::Pso,
        IndexOrder::Pos,
        IndexOrder::Osp,
        IndexOrder::Ops,
    ];

    /// The column permutation: `perm()[k]` is the column compared at sort
    /// level `k`.
    #[inline]
    pub fn perm(self) -> [usize; 3] {
        match self {
            IndexOrder::Spo => [S, P, O],
            IndexOrder::Sop => [S, O, P],
            IndexOrder::Pso => [P, S, O],
            IndexOrder::Pos => [P, O, S],
            IndexOrder::Osp => [O, S, P],
            IndexOrder::Ops => [O, P, S],
        }
    }

    /// Picks the order whose sort prefix covers the pattern's bound columns,
    /// and returns it with the key values in comparison order: the first
    /// `len` entries of the array (a fixed array, so the per-probe hot path
    /// of the join core does not allocate).
    pub fn for_pattern(pat: &StorePattern) -> (IndexOrder, [Id; 3], usize) {
        let slots = pat.slots();
        let order = match (pat.s.is_some(), pat.p.is_some(), pat.o.is_some()) {
            (true, true, _) => IndexOrder::Spo,
            (true, false, true) => IndexOrder::Sop,
            (false, true, true) => IndexOrder::Pos,
            (true, false, false) => IndexOrder::Spo,
            (false, true, false) => IndexOrder::Pso,
            (false, false, true) => IndexOrder::Osp,
            (false, false, false) => IndexOrder::Spo,
        };
        let mut key = [Id(0); 3];
        let mut len = 0;
        for id in order.perm().iter().map_while(|&col| slots[col]) {
            key[len] = id;
            len += 1;
        }
        (order, key, len)
    }

    /// The order whose sort sequence lists the given column `groups`
    /// consecutively, in the given group order (columns *within* a group
    /// may appear in any order), and any column no group names last. A
    /// join uses it to make rows that agree on some columns adjacent: the
    /// first group holds the columns bound when the atom is looked up (the
    /// range key prefix), the next the columns its rows bind, so rows that
    /// bind alike follow each other and the columns left over vary fastest.
    ///
    /// All six permutations exist, so every ordered partition of a subset
    /// of `{S, P, O}` has its order; a column named twice counts in its
    /// first group.
    pub fn for_groups(groups: &[&[usize]]) -> IndexOrder {
        let rank = |col| groups.iter().position(|g| g.contains(&col));
        let [s, p, o] = [S, P, O].map(|col| rank(col).unwrap_or(groups.len()));
        // The order that sorts the columns by rank. Tied columns share a
        // group, so either side of a tie keeps them adjacent.
        match (s <= p, p <= o, s <= o) {
            (true, true, _) => IndexOrder::Spo,
            (true, false, true) => IndexOrder::Sop,
            (true, false, false) => IndexOrder::Osp,
            (false, true, true) => IndexOrder::Pso,
            (false, true, false) => IndexOrder::Pos,
            (false, false, _) => IndexOrder::Ops,
        }
    }
}

/// A resolved `[start, end)` range of one sorted permutation index: every
/// triple in [`IndexRange::as_slice`] has the probed key as its sort-prefix.
///
/// This is the store's public cursor API: the join core iterates matches
/// directly over the `Arc`-shared sorted snapshot — no per-lookup
/// collection into a fresh `Vec` — and the range stays valid (a consistent
/// snapshot) even if the store is mutated afterwards, because snapshots are
/// immutable once built.
#[derive(Debug, Clone)]
pub struct IndexRange {
    sorted: Arc<Vec<Triple>>,
    start: usize,
    end: usize,
}

impl IndexRange {
    /// The matching triples, in index order.
    #[inline]
    pub fn as_slice(&self) -> &[Triple] {
        &self.sorted[self.start..self.end]
    }

    /// Number of matching triples.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the range is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The positions of `sorted` — a run in `order`, such as
/// [`TripleStore::index`] returns — whose leading sort columns equal `key`:
/// the start found by binary search, the end by galloping from it, so a
/// short range costs one search of the run and a few compares. A caller
/// that holds a run for many probes (a join) searches the borrowed slice
/// with this and never goes back to the store; [`TripleStore::range`] is
/// the same search behind one fetch.
pub fn prefix_range(sorted: &[Triple], order: IndexOrder, key: &[Id]) -> std::ops::Range<usize> {
    let cmp = prefix_cmp(order, key);
    let start = sorted.partition_point(|t| cmp(t).is_lt());
    start..start + gallop(&sorted[start..], |t| cmp(t).is_eq())
}

/// [`prefix_range`] for a key that sorts after every row before `from`. A
/// key whose rows start within the next 256 rows is found by galloping
/// from `from`, at the cost of the log of the distance, so a join that
/// probes keys in the run's order pays for the steps between them; any
/// other costs one compare more than [`prefix_range`].
pub fn prefix_range_from(
    sorted: &[Triple],
    order: IndexOrder,
    key: &[Id],
    from: usize,
) -> std::ops::Range<usize> {
    let cmp = prefix_cmp(order, key);
    let before = |t: &Triple| cmp(t).is_lt();
    let near = sorted.len().min(from + 256);
    let start = if near < sorted.len() && before(&sorted[near]) {
        near + 1 + sorted[near + 1..].partition_point(before)
    } else {
        from + gallop(&sorted[from..near], before)
    };
    start..start + gallop(&sorted[start..], |t| cmp(t).is_eq())
}

/// How a triple's leading sort columns in `order` compare with `key`.
fn prefix_cmp(order: IndexOrder, key: &[Id]) -> impl Fn(&Triple) -> std::cmp::Ordering + '_ {
    let perm = order.perm();
    move |t| {
        for (k, &key_val) in key.iter().enumerate() {
            match t[perm[k]].cmp(&key_val) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    }
}

/// A triple's columns in the comparison sequence of `perm`, packed into
/// one integer: runs of that permutation are sorted by this key, and one
/// 128-bit compare is cheaper than three column compares.
#[inline]
fn sort_key(perm: [usize; 3], t: &Triple) -> u128 {
    u128::from(t[perm[0]].0) << 64 | u128::from(t[perm[1]].0) << 32 | u128::from(t[perm[2]].0)
}

/// `run.partition_point(less)`, found by galloping from the front (probes
/// at 1, 2, 4, … then a binary search of the last doubling): O(log answer)
/// compares, so a sorted pass through a run costs its steps, not its length.
fn gallop(run: &[Triple], less: impl Fn(&Triple) -> bool) -> usize {
    let mut end = 1;
    while end <= run.len() && less(&run[end - 1]) {
        end *= 2;
    }
    let start = end / 2;
    start + run[start..end.min(run.len())].partition_point(less)
}

/// Carries a sorted run across a batch: `old` with `delta` merged in
/// (`insert`; no triple of `delta` is in `old`) or taken out (every triple
/// of `delta` is in `old`, once). Both are sorted in `perm` order. Each
/// delta triple's place is found by galloping through what remains of
/// `old`, and the stretch before it is copied whole.
fn splice(old: &[Triple], delta: &[Triple], perm: [usize; 3], insert: bool) -> Vec<Triple> {
    let mut out = Vec::with_capacity(match insert {
        true => old.len() + delta.len(),
        false => old.len() - delta.len(),
    });
    let mut rest = old;
    for d in delta {
        let d_key = sort_key(perm, d);
        let at = gallop(rest, |t| sort_key(perm, t) < d_key);
        out.extend_from_slice(&rest[..at]);
        if insert {
            out.push(*d);
            rest = &rest[at..];
        } else {
            debug_assert_eq!(rest.get(at), Some(d), "a removed triple is in every run");
            rest = &rest[at + 1..];
        }
    }
    out.extend_from_slice(rest);
    out
}

/// Whether `t` is in the `Spo` run `rest`, after moving `rest` past every
/// triple sorting before `t`: probes made in `Spo` order walk the run once,
/// by galloping.
#[inline]
fn in_run(rest: &mut &[Triple], t: &Triple) -> bool {
    let key = sort_key([S, P, O], t);
    *rest = &rest[gallop(rest, |r| sort_key([S, P, O], r) < key)..];
    rest.first() == Some(t)
}

/// Stable counting passes over the dense dictionary ids: `src` ordered by
/// the columns `keys`, *least* significant first, each item as `emit(row,
/// triple)` makes it — the triple itself to build a run, or its row number.
/// Ties keep their `src` order, so one pass by column `c` over a run sorted
/// by `(c1, c2, c3)` orders it by `c` and then by the other two in the
/// run's sequence, and the passes `[O, P, S]` sort any list into `Spo`
/// order with repeats in list order.
///
/// Each pass counts its column's ids in `src` (the counts do not depend on
/// the order), turns the counts into start positions and scatters the
/// items once: O(len + K) for K = the column's largest id + 1. Passes
/// before the last carry 4-byte row numbers, never copies of the triples,
/// and a row buffer is dropped as soon as the next pass has filled its own.
///
/// `None` — sort by comparison instead — when counting does not pay: the
/// passes' `Σ (len + K)` steps are not fewer than a comparison sort's
/// `len · log2 len` compares (a small batch, or sparse ids), a histogram
/// would hold more entries than there are items (it may not outgrow a row
/// buffer), or `len` does not fit a `u32` row number.
#[inline(never)]
fn counting_sort<T: Copy>(
    src: &[Triple],
    keys: &[usize],
    emit: impl Fn(u32, &Triple) -> T,
) -> Option<Vec<T>> {
    let len = u32::try_from(src.len()).ok()?;
    let mut max = [0u32; 3];
    for t in src {
        for (m, id) in max.iter_mut().zip(t) {
            *m = (*m).max(id.0);
        }
    }
    let pass_steps: u64 = keys
        .iter()
        .map(|&c| u64::from(len) + u64::from(max[c]) + 1)
        .sum();
    let sort_steps = u64::from(len) * u64::from(len.checked_ilog2()?);
    if pass_steps >= sort_steps || keys.iter().any(|&c| max[c] >= len) {
        return None;
    }

    /// One pass: the items of `rows` (all of `src` in order when `None`)
    /// into `out`, stably by `src[row][col]`.
    fn pass<T>(
        src: &[Triple],
        rows: Option<&[u32]>,
        col: usize,
        max: u32,
        emit: impl Fn(u32, &Triple) -> T,
        out: &mut [T],
    ) {
        let mut at = vec![0u32; max as usize + 1];
        for t in src {
            at[t[col].index()] += 1;
        }
        let mut start = 0;
        for slot in &mut at {
            start += std::mem::replace(slot, start);
        }
        let mut place = |row: u32, t: &Triple| {
            let slot = &mut at[t[col].index()];
            out[*slot as usize] = emit(row, t);
            *slot += 1;
        };
        match rows {
            None => (0..).zip(src).for_each(|(row, t)| place(row, t)),
            Some(rows) => rows.iter().for_each(|&row| place(row, &src[row as usize])),
        }
    }

    let (&last, firsts) = keys.split_last()?;
    let mut rows: Option<Vec<u32>> = None;
    for &col in firsts {
        let mut next = vec![0; src.len()];
        pass(src, rows.as_deref(), col, max[col], |row, _| row, &mut next);
        rows = Some(next);
    }
    // Every slot is overwritten; any item will do to fill them first.
    let mut out = vec![emit(0, src.first()?); src.len()];
    pass(src, rows.as_deref(), last, max[last], &emit, &mut out);
    Some(out)
}

/// The in-memory triple table.
///
/// The triple list and the runs are `Arc`-shared so that clones and
/// [`TripleStore::snapshot`]s are O(built index runs), and runs are never
/// written in place. The list is either the store's insertion order, kept
/// beside the `Spo` run and copied only when a mutation hits a store whose
/// list is still shared, once, into its new contents; or — in a store
/// from [`TripleStore::spo_listed`] or a sorted [`TripleStore::from_parts`]
/// — the `Spo` run itself, the same `Arc`, which every write replaces
/// with the spliced run and never copies (see the module docs for which
/// stores list how).
#[derive(Debug, Default)]
pub struct TripleStore {
    /// The list [`TripleStore::triples`] returns: the insertion order, or
    /// the very `Arc` of `spo` in a `Spo`-listed store.
    triples: Arc<Vec<Triple>>,
    /// The `Spo` run, always current: the store's membership set.
    spo: Arc<Vec<Triple>>,
    version: u64,
    /// The runs of `IndexOrder::ALL[1..]`, in that sequence: built on
    /// demand, current once built.
    indexes: RwLock<[Option<Arc<Vec<Triple>>>; 5]>,
    distinct: RwLock<Option<(u64, [usize; 3])>>,
}

impl Clone for TripleStore {
    fn clone(&self) -> Self {
        // The list and built index runs are all behind `Arc`s, so a clone
        // shares everything (including warm caches); either side's next
        // mutation un-shares its own copy.
        Self {
            triples: Arc::clone(&self.triples),
            spo: Arc::clone(&self.spo),
            version: self.version,
            indexes: RwLock::new(read_unpoisoned(&self.indexes).clone()),
            distinct: RwLock::new(*read_unpoisoned(&self.distinct)),
        }
    }
}

/// An immutable, pinned generation of a [`TripleStore`].
///
/// Produced by [`TripleStore::snapshot`] in O(built index runs) time: the
/// triple list and every built index run are `Arc`-shared with the live
/// store, which un-shares its own copies on its
/// next mutation (copy-on-write). The snapshot derefs to `TripleStore`, so
/// every read API — `contains`, `range`, `pattern_range`, `match_count`,
/// the engines' cursors — works on a pinned generation unchanged, and
/// keeps answering as-of [`StoreSnapshot::version`] no matter how far the
/// live store moves on. Cloning a snapshot is one `Arc` bump; dropping the
/// last clone releases the pinned generation's share of the data.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    inner: Arc<TripleStore>,
}

impl StoreSnapshot {
    /// The generation this snapshot is pinned to.
    pub fn version(&self) -> u64 {
        self.inner.version
    }
}

impl std::ops::Deref for StoreSnapshot {
    type Target = TripleStore;
    fn deref(&self) -> &TripleStore {
        &self.inner
    }
}

impl TripleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstructs a store from persisted parts: the distinct triples and
    /// the version stamp the store carried when serialized. Restoring the
    /// *same* version matters for durability: sessions and plans pinned to
    /// the persisted store remain valid after a reload, and
    /// write-ahead-log records stamped with pre-apply versions replay
    /// against the exact counter they were logged under.
    ///
    /// A list that is strictly `Spo`-sorted — what a bundle decoder has
    /// just verified — *is* the `Spo` run, so it is adopted as one: the
    /// store is `Spo`-listed, one allocation of 12 B per triple serving as
    /// list and run, and stays so across every write (see
    /// [`TripleStore::spo_listed`]). A reopened store therefore lists its
    /// triples in `Spo` order, not in the order they first arrived; nothing
    /// compares lists across a recovery — the state hash and the answer
    /// checks are set-based, and the workload generators only ever see
    /// freshly loaded stores.
    ///
    /// Any other list is taken as the store's insertion order and sorted
    /// into a new run by three counting passes, O(n + K) for K the largest
    /// id + 1, holding two 4-byte row numbers per triple while it runs; by
    /// comparison, O(n log n), when the list is too short or its ids too
    /// sparse for counting to pay.
    pub fn from_parts(triples: Vec<Triple>, version: u64) -> Self {
        let triples = Arc::new(triples);
        let spo = if triples.windows(2).all(|w| w[0] < w[1]) {
            Arc::clone(&triples)
        } else {
            let run = counting_sort(&triples, &[O, P, S], |_, t| *t).unwrap_or_else(|| {
                let mut run = (*triples).clone();
                run.sort_unstable_by_key(|t| sort_key([S, P, O], t));
                run
            });
            debug_assert!(
                run.windows(2).all(|w| w[0] < w[1]),
                "persisted triples must be distinct"
            );
            Arc::new(run)
        };
        Self {
            triples,
            spo,
            version,
            ..Self::default()
        }
    }

    /// Pins the current generation as an immutable [`StoreSnapshot`].
    ///
    /// O(built index runs): the triple list and every built index run are
    /// shared by `Arc`; no triple is copied. The live store's next mutation
    /// writes the list once, into an exact-size copy of its new contents,
    /// and publishes new index runs — the snapshot's runs are never
    /// touched, so pinned readers run wait-free while writes proceed.
    ///
    /// Memory: a retained snapshot holds the whole generation alive — the
    /// `Spo` run, 12 B per triple, and an insertion-order list of another
    /// 12 B per triple unless the store is `Spo`-listed, plus 12 B per
    /// triple for every other run built at pin time, *shared* with the live
    /// store until a mutation diverges them. A write to the live store
    /// then copies an insertion-order list once; a `Spo`-listed store
    /// copies no list, only the runs its splices write anyway. There is no
    /// membership set beside them, and nothing a run was built from: the
    /// 4-byte row numbers of a two-pass build are dropped before the run is
    /// published. Drop the snapshot to release its pin.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            inner: Arc::new(self.clone()),
        }
    }

    /// A clone that lists its triples in `Spo` order: its
    /// [`TripleStore::triples`] is its `Spo` run, the same `Arc`, and stays
    /// so across every write — a batch splices the run and points the list
    /// at the result, with no append, no close-up and no list copy even
    /// when a snapshot pins the old one. The clone shares every `Arc` with
    /// `self`, so it costs no copy; it keeps 12 B per triple fewer than an
    /// insertion-listed store once `self` is gone.
    ///
    /// For stores the system builds for its own use, whose order nothing
    /// reads: a deployment's base and explicit stores, and the advisor's
    /// saturated copy. A store whose insertion order matters — a loaded or
    /// generated dataset, or one whose appended triples a caller reads back
    /// by position after [`TripleStore::insert_batch`] — stays as it is.
    pub fn spo_listed(&self) -> Self {
        Self {
            triples: Arc::clone(&self.spo),
            ..self.clone()
        }
    }

    /// The store's version stamp: a counter bumped once by every mutation
    /// that changed something. Snapshot caches — and the selection
    /// pipeline's `Preparation` sessions — compare versions to detect that
    /// the data changed underneath them.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Inserts a triple; returns `true` if it was not present before.
    ///
    /// A batch of one ([`TripleStore::insert_batch`]), so O(n): the `Spo`
    /// run and every other built run are copied to carry the triple in.
    /// For tests and small fixtures — a loader or a feed batches.
    pub fn insert(&mut self, t: Triple) -> bool {
        !self.insert_batch(&[t]).is_empty()
    }

    /// Inserts a batch of triples, deduplicated within the batch and
    /// against the store by one sorted merge against the `Spo` run.
    /// Returns the triples that were actually new — first occurrences, in
    /// batch order — and, in an insertion-listed store, appends them to
    /// [`TripleStore::triples`] in that order. A batch long enough for its ids is sorted by three counting
    /// passes over its row numbers, O(|batch| + K) with two 4-byte rows
    /// per batch triple held meanwhile; a shorter one (a feed's few dozen
    /// triples) by comparison. The version stamp is bumped **once** for
    /// the whole batch, and the `Spo` run and every other already-built
    /// run are carried forward by splicing the sorted batch into them —
    /// O(|Δ| log(n / |Δ|)) compares and one copy per run instead of a
    /// fresh O(n log n) sort — published as **new** `Arc`s at the new
    /// version, leaving pinned snapshots' runs untouched. A `Spo`-listed
    /// store's list is then the new `Spo` run: no list is written. An
    /// insertion-order list that a snapshot still shares is copied once,
    /// into an exact-size vector with the new triples appended (12 B per
    /// triple of the store); an unshared one grows in place, to its exact
    /// new length, so no store keeps spare capacity beside its runs (the
    /// splices already make a write O(n), and the allocator extends the
    /// list without a copy where it can).
    pub fn insert_batch(&mut self, batch: &[Triple]) -> Vec<Triple> {
        let (added, delta) = self.sift(batch, false);
        if !delta.is_empty() && self.carry(&delta, true) {
            match Arc::get_mut(&mut self.triples) {
                Some(list) => {
                    list.reserve_exact(added.len());
                    list.extend_from_slice(&added);
                }
                None => self.triples = Arc::new([&self.triples[..], &added[..]].concat()),
            }
        }
        added
    }

    /// The distinct triples of `batch` that are in the store (`present`) or
    /// not (`!present`): first occurrences in batch order, and the same
    /// triples `Spo`-sorted. A batch that [`counting_sort`] takes goes to
    /// `sift_counted`: O(|batch| + K), one walk after the passes. Any other
    /// is sorted by comparison and merged against the `Spo` run; if that
    /// dropped something, each batch triple is looked up in the survivors
    /// and kept the first time it is found.
    fn sift(&self, batch: &[Triple], present: bool) -> (Vec<Triple>, Vec<Triple>) {
        if let Some(sifted) = self.sift_counted(batch, present) {
            return sifted;
        }
        let mut sorted = batch.to_vec();
        sorted.sort_unstable_by_key(|t| sort_key([S, P, O], t));
        sorted.dedup();
        self.retain_by_membership(&mut sorted, present);
        if sorted.len() == batch.len() {
            return (batch.to_vec(), sorted);
        }
        let mut taken = vec![false; sorted.len()];
        let mut first_time = |i: usize| !std::mem::replace(&mut taken[i], true);
        let in_order = batch
            .iter()
            .filter(|t| sorted.binary_search(t).is_ok_and(&mut first_time));
        (in_order.copied().collect(), sorted)
    }

    /// [`TripleStore::sift`] for a batch that [`counting_sort`] takes: its
    /// row numbers sorted by three passes, so repeats sit together with the
    /// first occurrence first, and one walk down them keeps each distinct
    /// triple once and checks it against the `Spo` run. `None` when the
    /// batch is sorted by comparison instead.
    #[inline(never)]
    fn sift_counted(&self, batch: &[Triple], present: bool) -> Option<(Vec<Triple>, Vec<Triple>)> {
        let rows = counting_sort(batch, &[O, P, S], |row, _| row)?;
        let mut kept = vec![false; batch.len()];
        let mut sorted = Vec::with_capacity(batch.len());
        let (mut rest, mut prev) = (&self.spo[..], None);
        for row in rows {
            let t = batch[row as usize];
            if prev.replace(t) != Some(t) && in_run(&mut rest, &t) == present {
                kept[row as usize] = true;
                sorted.push(t);
            }
        }
        if sorted.len() == batch.len() {
            return Some((batch.to_vec(), sorted));
        }
        let mut in_order = Vec::with_capacity(sorted.len());
        in_order.extend(
            batch
                .iter()
                .zip(kept)
                .filter_map(|(t, kept)| kept.then_some(*t)),
        );
        Some((in_order, sorted))
    }

    /// Carries the `Spo` run and every other built run across a batch by
    /// [`splice`] and bumps the version. `delta` is `Spo`-sorted and
    /// distinct, and none of it is in the store (`insert`) or all of it is
    /// (remove). A `Spo`-listed store's list becomes the new `Spo` run, and
    /// `false` says that no list is left to write; `true` asks the caller
    /// to write the insertion-order list, which is still the old one.
    fn carry(&mut self, delta: &[Triple], insert: bool) -> bool {
        let spo_listed = Arc::ptr_eq(&self.triples, &self.spo);
        let mut delta_in_order = delta.to_vec();
        let slots = unpoisoned(self.indexes.get_mut());
        for (entry, order) in slots.iter_mut().zip(&IndexOrder::ALL[1..]) {
            if let Some(run) = entry {
                let perm = order.perm();
                delta_in_order.sort_unstable_by_key(|t| sort_key(perm, t));
                *run = Arc::new(splice(run, &delta_in_order, perm, insert));
            }
        }
        self.spo = Arc::new(splice(&self.spo, delta, [S, P, O], insert));
        self.version += 1;
        if spo_listed {
            self.triples = Arc::clone(&self.spo);
        }
        !spo_listed
    }

    /// Inserts every triple of an iterator as one batch
    /// ([`TripleStore::insert_batch`]); returns how many were new.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = Triple>) -> usize {
        let batch: Vec<Triple> = iter.into_iter().collect();
        self.insert_batch(&batch).len()
    }

    /// Removes a triple; returns `true` if it was present. The list order
    /// of the remaining triples is preserved.
    ///
    /// A batch of one ([`TripleStore::remove_batch`]), so O(n): every
    /// built run is copied to carry the removal, and an insertion-order
    /// list is searched from its end back to the triple.
    pub fn remove(&mut self, t: Triple) -> bool {
        !self.remove_batch(&[t]).is_empty()
    }

    /// Removes a batch of triples. Returns the triples that were actually
    /// present (deduplicated), in batch order, found by one sorted merge
    /// of the batch — sorted as [`TripleStore::insert_batch`] sorts it —
    /// against the `Spo` run. The version stamp is bumped
    /// once for the whole batch, every built run is carried forward by
    /// splicing the batch out of it (new `Arc`s; pinned snapshots' runs
    /// stay untouched), and a `Spo`-listed store is done: its list is the
    /// spliced run. An insertion-order list is searched from its
    /// end only as far back as the earliest doomed triple: a feed retracts
    /// what it recently asserted, so the long prefix before that position
    /// is never examined. The kept triples after it close up in place; a
    /// list that a snapshot still shares is copied once instead, into an
    /// exact-size vector without the doomed triples.
    pub fn remove_batch(&mut self, batch: &[Triple]) -> Vec<Triple> {
        let (removed, doomed) = self.sift(batch, true);
        if doomed.is_empty() || !self.carry(&doomed, false) {
            return removed;
        }
        let is_doomed = |t: &Triple| doomed.binary_search(t).is_ok();
        let (mut first, mut left) = (self.triples.len(), doomed.len());
        while left > 0 {
            first -= 1;
            left -= usize::from(is_doomed(&self.triples[first]));
        }
        match Arc::get_mut(&mut self.triples) {
            // Unshared: the kept triples after `first` close up in place.
            Some(list) => {
                let mut end = first;
                for i in first..list.len() {
                    let t = list[i];
                    if !is_doomed(&t) {
                        list[end] = t;
                        end += 1;
                    }
                }
                list.truncate(end);
            }
            // Shared with a pinned generation: one exact-size copy of the
            // kept triples instead of cloning the list to cut it.
            None => {
                let mut list = Vec::with_capacity(self.triples.len() - doomed.len());
                list.extend_from_slice(&self.triples[..first]);
                list.extend(self.triples[first..].iter().filter(|t| !is_doomed(t)));
                self.triples = Arc::new(list);
            }
        }
        removed
    }

    /// Membership test: a binary search of the `Spo` run, O(log n). To
    /// test many triples, sort them and call
    /// [`TripleStore::retain_by_membership`] instead.
    pub fn contains(&self, t: Triple) -> bool {
        self.spo.binary_search(&t).is_ok()
    }

    /// Keeps the triples of `sorted` that are in the store (`present`) or
    /// not in it (`!present`) — the set-at-a-time form of
    /// [`TripleStore::contains`]. `sorted` must be in `Spo` order, as
    /// `sort_unstable` leaves a `Vec<Triple>`; the check is one galloping
    /// pass over the `Spo` run, O(|sorted| log(n / |sorted|)) compares.
    pub fn retain_by_membership(&self, sorted: &mut Vec<Triple>, present: bool) {
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "Spo-sorted");
        let mut rest = &self.spo[..];
        sorted.retain(|t| in_run(&mut rest, t) == present);
    }

    /// Number of distinct triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// All triples, each once: in insertion order, or in `Spo` order in a
    /// `Spo`-listed store ([`TripleStore::spo_listed`],
    /// [`TripleStore::from_parts`] of a sorted list), where this is the
    /// `Spo` run itself.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// The sorted run for the given order: the `Spo` run as it is, any
    /// other built on first use and shared. A build derives the run from
    /// one already sorted, by stable counting passes over the order's
    /// columns — O(n + K), K the largest id + 1:
    ///
    /// | order | one pass over | else two passes over `Spo`, by |
    /// |-------|---------------|--------------------------------|
    /// | `Pso` | `Spo`         | —                              |
    /// | `Osp` | `Spo`         | —                              |
    /// | `Sop` | `Osp` or `Ops`, if built | `o`, then `s`       |
    /// | `Pos` | `Osp` or `Ops`, if built | `o`, then `p`       |
    /// | `Ops` | `Pso` or `Pos`, if built | `p`, then `o`       |
    ///
    /// A pass writes the new run straight from its source; two passes hold
    /// 4 bytes of row number per triple between them, dropped before the
    /// run is published, and never build another run to derive this one.
    /// When the store is too small or its ids too sparse for counting to
    /// pay, the run is sorted by comparison, O(n log n).
    pub fn index(&self, order: IndexOrder) -> Arc<Vec<Triple>> {
        // `ALL` lists the orders as declared, so slot = discriminant − 1.
        let Some(slot) = (order as usize).checked_sub(1) else {
            return Arc::clone(&self.spo);
        };
        if let Some(run) = &read_unpoisoned(&self.indexes)[slot] {
            return Arc::clone(run);
        }
        self.build(order, slot)
    }

    /// Builds, caches and returns the run of `order` (not `Spo`) from the
    /// source [`TripleStore::index`] tabulates: one pass by the order's
    /// first column over a run whose sequence, that column left out, is the
    /// order's other two; else two passes over `Spo`, by the second column
    /// and then the first.
    #[cold]
    #[inline(never)]
    fn build(&self, order: IndexOrder, slot: usize) -> Arc<Vec<Triple>> {
        let perm = order.perm();
        let built = read_unpoisoned(&self.indexes).clone();
        let runs = std::iter::once(Some(Arc::clone(&self.spo))).chain(built);
        let one_pass = |source: &IndexOrder| {
            let rest = source.perm().into_iter().filter(|&c| c != perm[0]);
            rest.eq(perm[1..].iter().copied())
        };
        let found = IndexOrder::ALL
            .iter()
            .zip(runs)
            .find_map(|(source, run)| run.filter(|_| one_pass(source)));
        let (source, keys) = match found {
            Some(run) => (run, &[perm[0]][..]),
            None => (Arc::clone(&self.spo), &[perm[1], perm[0]][..]),
        };
        let run = counting_sort(&source, keys, |_, t| *t).unwrap_or_else(|| {
            let mut run = (*source).clone();
            run.sort_unstable_by_key(|t| sort_key(perm, t));
            run
        });
        let run = Arc::new(run);
        write_unpoisoned(&self.indexes)[slot] = Some(Arc::clone(&run));
        run
    }

    /// The `[start, end)` range of `index(order)` whose key columns equal
    /// `key` (a prefix in the order's comparison sequence), binary-searched.
    pub fn range(&self, order: IndexOrder, key: &[Id]) -> IndexRange {
        let idx = self.index(order);
        let std::ops::Range { start, end } = prefix_range(&idx, order, key);
        IndexRange {
            sorted: idx,
            start,
            end,
        }
    }

    /// The matches of `pat` as a range over the best permutation index:
    /// the order is chosen so its sort prefix covers every bound column,
    /// making the range exact (no post-filtering needed). An all-free
    /// pattern ranges over the whole SPO snapshot.
    pub fn pattern_range(&self, pat: &StorePattern) -> IndexRange {
        let (order, key, len) = IndexOrder::for_pattern(pat);
        self.range(order, &key[..len])
    }

    /// Calls `f` for every triple matching `pat`, using the best index.
    pub fn for_each_match(&self, pat: &StorePattern, mut f: impl FnMut(Triple)) {
        if pat.bound_count() == 0 {
            for &t in self.triples.iter() {
                f(t);
            }
            return;
        }
        for &t in self.pattern_range(pat).as_slice() {
            // With a full prefix the range is exact; a 2-bound pattern on
            // non-adjacent sort columns cannot happen by construction.
            debug_assert!(pat.matches(t));
            f(t);
        }
    }

    /// Collects every triple matching `pat`.
    pub fn matching(&self, pat: &StorePattern) -> Vec<Triple> {
        let mut out = Vec::new();
        self.for_each_match(pat, |t| out.push(t));
        out
    }

    /// Exact number of triples matching `pat` — the statistic the paper
    /// counts for every workload atom and its relaxations (Section 3.3).
    pub fn match_count(&self, pat: &StorePattern) -> usize {
        match (pat.s, pat.p, pat.o) {
            (None, None, None) => self.len(),
            (Some(s), Some(p), Some(o)) => usize::from(self.contains([s, p, o])),
            _ => self.pattern_range(pat).len(),
        }
    }

    /// Number of distinct values in each column `(s, p, o)` — the paper's
    /// per-column statistics used by the cardinality estimator.
    pub fn distinct_counts(&self) -> [usize; 3] {
        {
            let guard = read_unpoisoned(&self.distinct);
            if let Some((version, counts)) = *guard {
                if version == self.version {
                    return counts;
                }
            }
        }
        // One pass over the triple list with three small hash sets —
        // properties (and often objects) have far fewer distinct values
        // than triples, so this beats forcing three full sorted snapshots
        // into existence just to count runs.
        let mut seen: [FxHashSet<Id>; 3] = Default::default();
        for t in self.triples.iter() {
            for (c, set) in seen.iter_mut().enumerate() {
                set.insert(t[c]);
            }
        }
        let counts = [seen[S].len(), seen[P].len(), seen[O].len()];
        *write_unpoisoned(&self.distinct) = Some((self.version, counts));
        counts
    }

    /// Minimum and maximum id per column, if non-empty.
    pub fn min_max(&self) -> Option<[(Id, Id); 3]> {
        if self.is_empty() {
            return None;
        }
        let mut mm = [(Id(u32::MAX), Id(0)); 3];
        for t in self.triples.iter() {
            for c in 0..3 {
                if t[c] < mm[c].0 {
                    mm[c].0 = t[c];
                }
                if t[c] > mm[c].1 {
                    mm[c].1 = t[c];
                }
            }
        }
        Some(mm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_search_from_a_finger_finds_what_a_whole_search_does() {
        // Subjects 0..600 with 0..3 objects each under one predicate: keys
        // near the finger, far from it, at it and absent.
        let mut run: Vec<Triple> = (0..600u32)
            .flat_map(|s| (0..s % 4).map(move |o| [Id(s), Id(1), Id(o)]))
            .collect();
        run.sort_unstable();
        for from_s in [0u32, 5, 299] {
            let from = prefix_range(&run, IndexOrder::Spo, &[Id(from_s)]).start;
            for s in from_s..600 {
                for key in [&[Id(s)][..], &[Id(s), Id(1)], &[Id(s), Id(2)]] {
                    assert_eq!(
                        prefix_range_from(&run, IndexOrder::Spo, key, from),
                        prefix_range(&run, IndexOrder::Spo, key),
                        "key {key:?} from subject {from_s}"
                    );
                }
            }
        }
    }

    #[test]
    fn for_groups_lists_groups_consecutively() {
        // Constant property, then subject, then object: Pso.
        assert_eq!(IndexOrder::for_groups(&[&[P], &[S], &[O]]), IndexOrder::Pso);
        // A two-column group (repeated variable over s and o) after p.
        assert_eq!(IndexOrder::for_groups(&[&[P], &[S, O]]).perm()[0], P);
        // No constants, object variable first.
        let perm = IndexOrder::for_groups(&[&[O], &[P]]).perm();
        assert_eq!((perm[0], perm[1]), (O, P));
        // Every ordered partition of a subset of {s,p,o} comes out with
        // its groups consecutive, in order.
        let consecutive = |groups: &[&[usize]]| {
            let perm = IndexOrder::for_groups(groups).perm();
            let mut pos = 0;
            for group in groups {
                let end = pos + group.len();
                let held = perm[pos..end].iter().all(|c| group.contains(c));
                assert!(held, "{groups:?} gives {perm:?}");
                pos = end;
            }
        };
        for a in 0..3 {
            for b in 0..3 {
                if a == b {
                    continue;
                }
                let c = 3 - a - b;
                consecutive(&[&[a], &[b]]);
                consecutive(&[&[a], &[b], &[c]]);
                consecutive(&[&[a], &[b, c]]);
                consecutive(&[&[a, b], &[c]]);
                consecutive(&[&[b, a], &[c]]);
            }
        }
        // A column no group names sorts last.
        assert_eq!(IndexOrder::for_groups(&[&[O]]).perm()[0], O);
        assert_eq!(IndexOrder::for_groups(&[&[P, O]]).perm()[2], S);
    }

    fn store_with(n: u32) -> TripleStore {
        // Deterministic little dataset: p in {0,1,2}, s in 0..n, o = s*7 % n.
        let mut st = TripleStore::new();
        for s in 0..n {
            for p in 0..3u32 {
                st.insert([Id(s), Id(100 + p), Id(s * 7 % n)]);
            }
        }
        st
    }

    #[test]
    fn insert_dedups_and_preserves_order() {
        let mut st = TripleStore::new();
        assert!(st.insert([Id(1), Id(2), Id(3)]));
        assert!(!st.insert([Id(1), Id(2), Id(3)]));
        assert!(st.insert([Id(0), Id(0), Id(0)]));
        assert_eq!(
            st.triples(),
            &[[Id(1), Id(2), Id(3)], [Id(0), Id(0), Id(0)]]
        );
    }

    #[test]
    fn all_orders_agree_with_linear_scan() {
        let st = store_with(29);
        let pats = vec![
            StorePattern::ALL,
            StorePattern::with_s(Id(3)),
            StorePattern::with_p(Id(101)),
            StorePattern::with_o(Id(21)),
            StorePattern::with_sp(Id(3), Id(101)),
            StorePattern::with_so(Id(3), Id(21)),
            StorePattern::with_po(Id(101), Id(21)),
            StorePattern::exact(Id(3), Id(101), Id(21)),
            StorePattern::with_p(Id(999)), // no matches
        ];
        for pat in pats {
            let mut expect: Vec<Triple> = st
                .triples()
                .iter()
                .copied()
                .filter(|&t| pat.matches(t))
                .collect();
            expect.sort_unstable();
            let mut got = st.matching(&pat);
            got.sort_unstable();
            assert_eq!(got, expect, "pattern {pat:?}");
            assert_eq!(st.match_count(&pat), expect.len(), "count {pat:?}");
        }
    }

    #[test]
    fn remove_deletes_and_invalidates() {
        let mut st = store_with(5);
        let t = [Id(1), Id(100), Id(7 % 5)];
        let before = st.match_count(&StorePattern::with_p(Id(100)));
        assert!(st.contains(t));
        assert!(st.remove(t));
        assert!(!st.remove(t), "second removal is a no-op");
        assert!(!st.contains(t));
        assert_eq!(st.match_count(&StorePattern::with_p(Id(100))), before - 1);
        // Re-insertion works and is visible to the indexes again.
        assert!(st.insert(t));
        assert_eq!(st.match_count(&StorePattern::with_p(Id(100))), before);
    }

    #[test]
    fn remove_preserves_insertion_order() {
        let mut st = TripleStore::new();
        st.insert([Id(1), Id(2), Id(3)]);
        st.insert([Id(4), Id(5), Id(6)]);
        st.insert([Id(7), Id(8), Id(9)]);
        st.remove([Id(4), Id(5), Id(6)]);
        assert_eq!(
            st.triples(),
            &[[Id(1), Id(2), Id(3)], [Id(7), Id(8), Id(9)]]
        );
    }

    #[test]
    fn batch_insert_dedups_and_bumps_version_once() {
        let mut st = store_with(5);
        let v0 = st.version();
        let existing = st.triples()[0];
        let batch = [
            [Id(90), Id(100), Id(90)],
            existing, // duplicate vs store
            [Id(91), Id(100), Id(91)],
            [Id(90), Id(100), Id(90)], // duplicate within batch
        ];
        let added = st.insert_batch(&batch);
        assert_eq!(
            added,
            vec![[Id(90), Id(100), Id(90)], [Id(91), Id(100), Id(91)]]
        );
        assert_eq!(st.version(), v0 + 1, "one bump per batch");
        // A fully-duplicate batch is a version no-op.
        assert!(st.insert_batch(&batch).is_empty());
        assert_eq!(st.version(), v0 + 1);
        // The indexes see the batch.
        assert_eq!(
            st.match_count(&StorePattern::exact(Id(91), Id(100), Id(91))),
            1
        );

        // A batch far larger than the store, new triples in descending
        // order with present ones and repeats between them: one merge drops
        // both and hands back first occurrences in batch order.
        let present = st.triples().to_vec();
        let new: Vec<Triple> = (0..500u32)
            .rev()
            .map(|i| [Id(1000 + i), Id(100 + i % 3), Id(i % 17)])
            .collect();
        let big: Vec<Triple> = new
            .iter()
            .zip(present.iter().cycle())
            .flat_map(|(&t, &p)| [t, p, t])
            .collect();
        assert_eq!(st.insert_batch(&big), new);
        assert_eq!(st.version(), v0 + 2);
        assert_eq!(&st.triples()[present.len()..], &new[..]);
    }

    #[test]
    fn batch_remove_dedups_and_preserves_order() {
        let mut st = TripleStore::new();
        st.insert([Id(1), Id(2), Id(3)]);
        st.insert([Id(4), Id(5), Id(6)]);
        st.insert([Id(7), Id(8), Id(9)]);
        let v0 = st.version();
        let removed = st.remove_batch(&[
            [Id(4), Id(5), Id(6)],
            [Id(9), Id(9), Id(9)], // absent
            [Id(4), Id(5), Id(6)], // duplicate within batch
            [Id(1), Id(2), Id(3)],
        ]);
        assert_eq!(removed, vec![[Id(4), Id(5), Id(6)], [Id(1), Id(2), Id(3)]]);
        assert_eq!(st.version(), v0 + 1, "one bump per batch");
        assert_eq!(st.triples(), &[[Id(7), Id(8), Id(9)]]);
        // Removing nothing is a version no-op.
        assert!(st.remove_batch(&[[Id(9), Id(9), Id(9)]]).is_empty());
        assert_eq!(st.version(), v0 + 1);
    }

    #[test]
    fn batch_remove_matches_sequential_removes() {
        let mut a = store_with(9);
        let mut b = a.clone();
        let doomed: Vec<Triple> = a.triples().iter().copied().step_by(3).collect();
        let removed = a.remove_batch(&doomed);
        assert_eq!(removed, doomed);
        for &t in &doomed {
            assert!(b.remove(t));
        }
        assert_eq!(a.triples(), b.triples());
    }

    #[test]
    fn index_invalidation_on_insert() {
        let mut st = store_with(5);
        let before = st.match_count(&StorePattern::with_p(Id(100)));
        st.insert([Id(99), Id(100), Id(99)]);
        let after = st.match_count(&StorePattern::with_p(Id(100)));
        assert_eq!(after, before + 1);
    }

    #[test]
    fn distinct_counts_match_naive() {
        let st = store_with(17);
        let naive = |col: usize| {
            let mut set = std::collections::HashSet::new();
            for t in st.triples() {
                set.insert(t[col]);
            }
            set.len()
        };
        assert_eq!(st.distinct_counts(), [naive(0), naive(1), naive(2)]);
    }

    #[test]
    fn min_max_bounds() {
        let st = store_with(4);
        let mm = st.min_max().unwrap();
        assert_eq!(mm[1], (Id(100), Id(102)));
        assert!(mm[0].0 <= mm[0].1);
        assert!(TripleStore::new().min_max().is_none());
    }

    #[test]
    fn from_parts_restores_version_and_contents() {
        let mut st = store_with(7);
        st.insert([Id(200), Id(201), Id(202)]);
        let restored = TripleStore::from_parts(st.triples().to_vec(), st.version());
        assert_eq!(restored.version(), st.version());
        assert_eq!(restored.triples(), st.triples());
        assert!(restored.contains([Id(200), Id(201), Id(202)]));
        assert_eq!(
            restored.match_count(&StorePattern::with_p(Id(100))),
            st.match_count(&StorePattern::with_p(Id(100)))
        );
        assert_eq!(restored.distinct_counts(), st.distinct_counts());
    }

    #[test]
    fn clone_preserves_contents() {
        let st = store_with(7);
        let cl = st.clone();
        assert_eq!(st.triples(), cl.triples());
        assert_eq!(
            cl.match_count(&StorePattern::with_p(Id(102))),
            st.match_count(&StorePattern::with_p(Id(102)))
        );
    }

    #[test]
    fn snapshot_pins_contents_across_mutations() {
        let mut st = store_with(7);
        let pinned_len = st.len();
        let pinned_version = st.version();
        let p100 = StorePattern::with_p(Id(100));
        let pinned_p100 = st.match_count(&p100);
        let snap = st.snapshot();

        st.insert_batch(&[[Id(70), Id(100), Id(70)], [Id(71), Id(100), Id(71)]]);
        st.remove_batch(&[[Id(0), Id(101), Id(0)]]);
        st.insert([Id(72), Id(100), Id(72)]);

        assert_eq!(snap.version(), pinned_version);
        assert_eq!(snap.len(), pinned_len);
        assert_eq!(snap.match_count(&p100), pinned_p100);
        assert!(!snap.contains([Id(70), Id(100), Id(70)]));
        assert!(snap.contains([Id(0), Id(101), Id(0)]));
        // The live store moved on.
        assert_eq!(st.match_count(&p100), pinned_p100 + 3);
        assert!(st.version() > pinned_version);
    }

    #[test]
    fn insert_batch_writes_the_list_once() {
        let batch = [[Id(70), Id(100), Id(70)], [Id(5), Id(100), Id(71)]];
        // Shared with a pinned snapshot: one exact-size copy, the pin kept.
        let mut st = store_with(7);
        let snap = st.snapshot();
        let pinned = snap.triples().to_vec();
        st.insert_batch(&batch);
        assert_eq!(snap.triples(), &pinned[..]);
        assert_eq!(st.triples()[..pinned.len()], pinned[..]);
        assert_eq!(st.triples()[pinned.len()..], batch[..]);
        assert_eq!(st.triples.capacity(), st.triples.len());
        // Unshared: grown in place, contents and insertion order kept.
        drop(snap);
        let before = st.triples().to_vec();
        let more = [[Id(90), Id(101), Id(2)], [Id(0), Id(102), Id(91)]];
        st.insert_batch(&more);
        assert_eq!(st.triples()[..before.len()], before[..]);
        assert_eq!(st.triples()[before.len()..], more[..]);
        assert_eq!(st.len(), before.len() + 2);
    }

    #[test]
    fn snapshot_shares_built_index_runs() {
        let st = store_with(7);
        let live_run = st.index(IndexOrder::Pos);
        let snap = st.snapshot();
        // Pin is O(built runs): the snapshot reuses the same sorted run.
        assert!(Arc::ptr_eq(&live_run, &snap.index(IndexOrder::Pos)));
        // Unbuilt orders are built on the snapshot independently.
        let snap_run = snap.index(IndexOrder::Ops);
        assert_eq!(snap_run.len(), snap.len());
    }

    #[test]
    fn batch_mutations_advance_built_index_runs() {
        let mut st = store_with(9);
        // Build every run, then batch-mutate: runs must be carried forward
        // (spliced), not rebuilt, and must equal a fresh sort.
        for order in IndexOrder::ALL {
            st.index(order);
        }
        let old_run = st.index(IndexOrder::Sop);
        st.insert_batch(&[
            [Id(90), Id(100), Id(90)],
            [Id(0), Id(100), Id(50)],
            [Id(91), Id(102), Id(1)],
        ]);
        st.remove_batch(&[[Id(1), Id(100), Id(7)], [Id(2), Id(101), Id(14 % 9)]]);
        for order in IndexOrder::ALL {
            let advanced = st.index(order);
            let fresh = TripleStore::from_parts(st.triples().to_vec(), 0).index(order);
            assert_eq!(*advanced, *fresh, "order {order:?}");
        }
        // The pre-batch run object was not mutated in place.
        assert_eq!(old_run.len(), 27);
    }

    #[test]
    fn single_mutations_are_batches_of_one() {
        let mut st = store_with(5);
        let (v0, pos) = (st.version(), st.index(IndexOrder::Pos));
        let (new, old) = ([Id(80), Id(100), Id(80)], [Id(1), Id(100), Id(2)]);
        assert!(st.insert(new) && !st.insert(new) && st.remove(old) && !st.remove(old));
        assert_eq!(st.version(), v0 + 2, "one bump per change, none per no-op");
        // Built runs were carried into new `Arc`s.
        let fresh = TripleStore::from_parts(st.triples().to_vec(), 0);
        for order in [IndexOrder::Spo, IndexOrder::Pos] {
            assert_eq!(*st.index(order), *fresh.index(order), "order {order:?}");
        }
        assert_eq!(pos.len(), 15);
    }

    #[test]
    fn clone_shares_then_diverges() {
        let mut a = store_with(5);
        a.index(IndexOrder::Spo);
        let mut b = a.clone();
        assert_eq!(a.triples(), b.triples());
        b.insert([Id(60), Id(100), Id(60)]);
        a.remove([Id(0), Id(100), Id(0)]);
        assert!(b.contains([Id(60), Id(100), Id(60)]));
        assert!(!a.contains([Id(60), Id(100), Id(60)]));
        assert!(b.contains([Id(0), Id(100), Id(0)]));
        assert_eq!(a.len() + 2, b.len());
    }

    #[test]
    fn counting_pays_for_long_dense_input_only() {
        // 4096 distinct triples over ids < 64, and as many near u32::MAX.
        let dense: Vec<Triple> = (0..4096u32)
            .map(|i| [Id(i % 64), Id(i / 64), Id(i * 7 % 64)])
            .collect();
        let sparse: Vec<Triple> = dense
            .iter()
            .map(|t| t.map(|id| Id(u32::MAX - id.0)))
            .collect();
        let by_compare = |list: &[Triple], perm| {
            let mut run = list.to_vec();
            run.sort_unstable_by_key(|t| sort_key(perm, t));
            run
        };
        // The passes `[O, P, S]` are the `Spo` order, and one pass by `p`
        // over `Spo` is `Pso`.
        let spo = counting_sort(&dense, &[O, P, S], |_, t| *t);
        assert_eq!(spo, Some(by_compare(&dense, [S, P, O])));
        let pso = counting_sort(&by_compare(&dense, [S, P, O]), &[P], |_, t| *t);
        assert_eq!(pso, Some(by_compare(&dense, [P, S, O])));
        // Sparse ids, a batch too short for its histograms (64 triples
        // over ids < 64 in every column: 3·(64 + 64) steps against 64·6
        // compares), one shorter than its histograms and an empty one are
        // sorted by comparison.
        let short: Vec<Triple> = (0..64u32)
            .map(|i| [Id(i), Id(63 - i), Id(i * 7 % 64)])
            .collect();
        assert!(counting_sort(&sparse, &[O, P, S], |row, _| row).is_none());
        assert!(counting_sort(&short, &[O, P, S], |row, _| row).is_none());
        assert!(counting_sort(&short[..32], &[P], |row, _| row).is_none());
        assert!(counting_sort(&[], &[S], |row, _| row).is_none());
        // Row numbers come out stable: repeats in batch order.
        let repeats = [dense[5], dense[3], dense[5], dense[3]].repeat(32);
        let rows = counting_sort(&repeats, &[O, P, S], |row, _| row);
        let expect: Vec<u32> = (1..128).step_by(2).chain((0..128).step_by(2)).collect();
        assert_eq!(rows, Some(expect));
    }

    #[test]
    fn full_prefix_three_bound() {
        let st = store_with(11);
        assert_eq!(
            st.match_count(&StorePattern::exact(Id(1), Id(100), Id(7))),
            1
        );
        assert_eq!(
            st.match_count(&StorePattern::exact(Id(1), Id(100), Id(8))),
            0
        );
    }
}
