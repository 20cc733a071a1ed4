//! The triple table and its six permutation indexes.
//!
//! The store keeps every distinct triple once, in insertion order, beside
//! its `Spo` run — the same triples sorted by `(s, p, o)` — and builds the
//! five other sorted copies, one per column permutation, on first use, so
//! that any pattern with 1–3 bound columns is answered by a binary-searched
//! range over the best index. This mirrors the sextuple indexing of
//! Hexastore [23] and the "indexed the encoded triple table on s, p, o,
//! and all two- and three-column combinations" layout of the paper's
//! evaluation platform.
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
//! The insertion-order list is kept because callers depend on it: the
//! workload generators draw triples by position and the N-Triples writer
//! emits the list as it lies, so a different order is a different
//! benchmark input. A store rebuilt by [`TripleStore::from_parts`] from a
//! sorted list shares that one allocation between the list and its `Spo`
//! run.
//!
//! The list is `Arc`-shared like the runs, which makes generations
//! copy-on-write: [`TripleStore::snapshot`] pins the current contents as
//! an immutable [`StoreSnapshot`] in O(built runs) time, and the next
//! mutation clones the list once (`Arc::make_mut`) and publishes new runs
//! instead of blocking or invalidating the pinned readers.

use std::sync::{Arc, PoisonError, RwLock};

use crate::fxhash::FxHashSet;
use crate::pattern::StorePattern;
use crate::sync::{read_unpoisoned, write_unpoisoned};
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
    /// may appear in any order), and any column no group names last. This
    /// is the trie-cursor selection of a leapfrog join: the first group
    /// holds the constant-bound columns (the range key prefix) and each
    /// later group holds the column(s) of one join variable, ordered by the
    /// global variable order — the chosen permutation then exposes the
    /// atom's matches as a trie sorted by variable depth.
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
/// [`TripleStore::index`] returns — whose leading sort columns equal `key`,
/// found by binary search. A caller that holds a run for many probes (a
/// join) searches the borrowed slice with this and never goes back to the
/// store; [`TripleStore::range`] is the same search behind one fetch.
pub fn prefix_range(sorted: &[Triple], order: IndexOrder, key: &[Id]) -> std::ops::Range<usize> {
    let perm = order.perm();
    let cmp_prefix = |t: &Triple| -> std::cmp::Ordering {
        for (k, &key_val) in key.iter().enumerate() {
            match t[perm[k]].cmp(&key_val) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    };
    let start = sorted.partition_point(|t| cmp_prefix(t) == std::cmp::Ordering::Less);
    let end =
        start + sorted[start..].partition_point(|t| cmp_prefix(t) == std::cmp::Ordering::Equal);
    start..end
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

/// The in-memory triple table.
///
/// The triple list and the runs are `Arc`-shared so that clones and
/// [`TripleStore::snapshot`]s are O(built index runs): the list itself is
/// copied only when a mutation hits a store whose list is still shared
/// (`Arc::make_mut`), and runs are never written in place.
#[derive(Debug, Default)]
pub struct TripleStore {
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
    /// The list is taken as the store's insertion order. A snapshot bundle
    /// stores triples sorted, so a reopened store's [`TripleStore::triples`]
    /// starts in `Spo` order and appends from there — not in the order the
    /// triples first arrived. Nothing compares lists across a recovery:
    /// the state hash and the answer checks are set-based, and the workload
    /// generators only ever see freshly loaded stores.
    ///
    /// A list that is strictly `Spo`-sorted — what a bundle decoder has
    /// just verified — *is* the `Spo` run, so it is adopted as one: a
    /// single allocation shared by the list and the run until the first
    /// mutation un-shares them. Any other list is copied and sorted into
    /// the run, O(n log n).
    pub fn from_parts(triples: Vec<Triple>, version: u64) -> Self {
        let triples = Arc::new(triples);
        let spo = if triples.windows(2).all(|w| w[0] < w[1]) {
            Arc::clone(&triples)
        } else {
            let mut run = (*triples).clone();
            run.sort_unstable_by_key(|t| sort_key([S, P, O], t));
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
    /// shared by `Arc`; no triple is copied. The
    /// live store's next mutation copies the list once (`Arc::make_mut`)
    /// and publishes new index runs — the snapshot's runs are never
    /// touched, so pinned readers run wait-free while writes proceed.
    ///
    /// Memory: a retained snapshot holds the whole generation alive — the
    /// list and the `Spo` run, 12 B per triple each (one allocation for
    /// both in a store just rebuilt by [`TripleStore::from_parts`]), plus
    /// 12 B per triple for every other run built at pin time, *shared* with
    /// the live store until a mutation diverges them. There is no
    /// membership set beside them. Drop the snapshot to release its pin.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            inner: Arc::new(self.clone()),
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
    /// batch order — and appends them to [`TripleStore::triples`] in that
    /// order. The version stamp is bumped **once** for the whole batch,
    /// and the `Spo` run and every other already-built run are carried
    /// forward by splicing the sorted batch into them — O(|Δ| log(n / |Δ|))
    /// compares and one copy per run instead of a fresh O(n log n) sort —
    /// published as **new** `Arc`s at the new version, leaving pinned
    /// snapshots' runs untouched.
    pub fn insert_batch(&mut self, batch: &[Triple]) -> Vec<Triple> {
        let (added, delta) = self.sift(batch, false);
        if !delta.is_empty() {
            self.carry(&delta, true);
            Arc::make_mut(&mut self.triples).extend_from_slice(&added);
        }
        added
    }

    /// The distinct triples of `batch` that are in the store (`present`) or
    /// not (`!present`): first occurrences in batch order, and the same
    /// triples `Spo`-sorted. One sort of the batch and one merge against
    /// the `Spo` run; if that dropped something, each batch triple is
    /// looked up in the survivors and kept the first time it is found.
    fn sift(&self, batch: &[Triple], present: bool) -> (Vec<Triple>, Vec<Triple>) {
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

    /// Carries the `Spo` run and every other built run across a batch by
    /// [`splice`] and bumps the version. `delta` is `Spo`-sorted and
    /// distinct, and none of it is in the store (`insert`) or all of it is
    /// (remove). Called **before** the list is written, so a run that
    /// still shares the list's allocation (see [`TripleStore::from_parts`])
    /// is replaced first and the list is then mutated in place, not cloned.
    fn carry(&mut self, delta: &[Triple], insert: bool) {
        let mut delta_in_order = delta.to_vec();
        let slots = self
            .indexes
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for (entry, order) in slots.iter_mut().zip(&IndexOrder::ALL[1..]) {
            if let Some(run) = entry {
                let perm = order.perm();
                delta_in_order.sort_unstable_by_key(|t| sort_key(perm, t));
                *run = Arc::new(splice(run, &delta_in_order, perm, insert));
            }
        }
        self.spo = Arc::new(splice(&self.spo, delta, [S, P, O], insert));
        self.version += 1;
    }

    /// Inserts every triple of an iterator as one batch
    /// ([`TripleStore::insert_batch`]); returns how many were new.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = Triple>) -> usize {
        let batch: Vec<Triple> = iter.into_iter().collect();
        self.insert_batch(&batch).len()
    }

    /// Removes a triple; returns `true` if it was present. Insertion order
    /// of the remaining triples is preserved.
    ///
    /// A batch of one ([`TripleStore::remove_batch`]), so O(n): every
    /// built run is copied to carry the removal, and the list is searched
    /// from its end back to the triple.
    pub fn remove(&mut self, t: Triple) -> bool {
        !self.remove_batch(&[t]).is_empty()
    }

    /// Removes a batch of triples. Returns the triples that were actually
    /// present (deduplicated), in batch order, found by one sorted merge
    /// of the batch against the `Spo` run. The version stamp is bumped
    /// once for the whole batch, every built run is carried forward by
    /// splicing the batch out of it (new `Arc`s; pinned snapshots' runs
    /// stay untouched), and the insertion-order list is searched from its
    /// end only as far back as the earliest doomed triple: a feed retracts
    /// what it recently asserted, so the long prefix before that position
    /// is never examined.
    pub fn remove_batch(&mut self, batch: &[Triple]) -> Vec<Triple> {
        let (removed, doomed) = self.sift(batch, true);
        if doomed.is_empty() {
            return removed;
        }
        self.carry(&doomed, false);
        let is_doomed = |t: &Triple| doomed.binary_search(t).is_ok();
        let (mut first, mut left) = (self.triples.len(), doomed.len());
        while left > 0 {
            first -= 1;
            left -= usize::from(is_doomed(&self.triples[first]));
        }
        let tail: Vec<Triple> = self.triples[first..]
            .iter()
            .copied()
            .filter(|t| !is_doomed(t))
            .collect();
        match Arc::get_mut(&mut self.triples) {
            Some(list) => {
                list.truncate(first);
                list.extend_from_slice(&tail);
            }
            // Shared with a pinned generation: build the new list from
            // the two kept stretches instead of cloning it to cut it.
            None => self.triples = Arc::new([&self.triples[..first], &tail[..]].concat()),
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
        sorted.retain(|t| {
            let key = sort_key([S, P, O], t);
            rest = &rest[gallop(rest, |r| sort_key([S, P, O], r) < key)..];
            (rest.first() == Some(t)) == present
        });
    }

    /// Number of distinct triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// All triples in insertion order.
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// The sorted run for the given order: the `Spo` run as it is, any
    /// other built on first use and shared.
    pub fn index(&self, order: IndexOrder) -> Arc<Vec<Triple>> {
        // `ALL` lists the orders as declared, so slot = discriminant − 1.
        let Some(slot) = (order as usize).checked_sub(1) else {
            return Arc::clone(&self.spo);
        };
        if let Some(run) = &read_unpoisoned(&self.indexes)[slot] {
            return Arc::clone(run);
        }
        let perm = order.perm();
        let mut sorted = (*self.spo).clone();
        sorted.sort_unstable_by_key(|t| sort_key(perm, t));
        let sorted = Arc::new(sorted);
        write_unpoisoned(&self.indexes)[slot] = Some(Arc::clone(&sorted));
        sorted
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
