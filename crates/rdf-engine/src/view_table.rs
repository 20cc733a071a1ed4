//! Materialized view tables and their resident indexes.
//!
//! A [`ViewTable`] is one [`Answers`] — the view's rows, distinct, in
//! lexicographic order, row-major in one buffer — plus the cache of
//! indexes built over them. It is immutable once built, which is what lets
//! its indexes be shared without locks, and what lets a maintained view
//! and every generation that publishes it hold the very same table:
//!
//! * a [`ViewIndex`] answers "which rows have these values in these
//!   columns" for one bound-column mask. It stores the table's rows a
//!   second time, **clustered by key**: one open-addressing slot array
//!   points at a flat array of distinct keys, each key owns a contiguous
//!   run of full rows. A probe is one hash, one or two slot reads, one key
//!   compare — and the bucket it returns is a single row-major slice the
//!   join core walks front to back, with no row-id indirection back into
//!   the table. The copy costs `arity × 4` bytes per row per mask, less
//!   than a heap-allocated key and row-id list per distinct key would.
//!   The rows of a bucket keep the table's order, which is lexicographic,
//!   so a bucket of the index on all columns but one is sorted on that
//!   column — what the join core's intersect nodes gallop over;
//! * the indexes live in an append-only chain of write-once nodes per
//!   table. A lookup walks the chain with acquire loads only — no lock,
//!   no reference-count traffic — so reader threads probing the same
//!   table never write to a cache line they share. A thread that finds
//!   the chain's end builds the index and publishes it with one
//!   compare-and-set; if another thread got there first it re-examines
//!   the slot and adopts that one, so every `(table, mask)` has exactly
//!   one published index and [`ViewTable::index_builds`] counts exactly
//!   those.
//!
//! Maintenance never mutates a table: a batch that changes a view's rows
//! wraps the new rows in a *new* table, which starts with an empty chain,
//! and a batch that changes nothing keeps the table — and its warm
//! indexes — as it is. A table without columns (a boolean view) holds at
//! most one row, the empty tuple, and counts it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use rdf_model::Id;

use crate::answers::Answers;
use crate::eval::scratch::hash_ids;

/// A hash index over one column subset of a [`ViewTable`], holding the
/// table's rows clustered by their values in those columns.
#[derive(Debug)]
pub struct ViewIndex {
    cols: Vec<usize>,
    /// Row width: the table's arity.
    arity: usize,
    /// Open-addressing table: 0 is vacant, `k + 1` names distinct key `k`.
    /// Its length is a power of two at most half full.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a key's home slot is its hash's *high*
    /// bits (the multiplicative hash mixes upward; its low bits are weak).
    shift: u32,
    /// Distinct keys, flat: key `k` is `keys[k * cols.len()..][..cols.len()]`.
    keys: Vec<Id>,
    /// Key `k` owns rows `offsets[k]..offsets[k + 1]` of `rows`.
    offsets: Vec<u32>,
    /// Full rows, row-major, grouped by key.
    rows: Vec<Id>,
}

impl ViewIndex {
    fn build(table: &ViewTable, mask: u64) -> Self {
        let arity = table.arity();
        let cols: Vec<usize> = (0..arity).filter(|&c| mask & (1u64 << c) != 0).collect();
        let width = cols.len();
        let n = table.len();
        let cap = (n * 2).next_power_of_two().max(2);
        let shift = 64 - cap.trailing_zeros();
        let mut slots = vec![0u32; cap];
        let mut keys: Vec<Id> = Vec::new();
        // Pass 1: number the distinct keys and count each one's rows.
        let mut key_of_row: Vec<u32> = Vec::with_capacity(n);
        let mut counts: Vec<u32> = Vec::new();
        let mut key: Vec<Id> = Vec::with_capacity(width);
        for row in table.rows() {
            key.clear();
            key.extend(cols.iter().map(|&c| row[c]));
            let mut pos = (hash_ids(&key) >> shift) as usize;
            let k = loop {
                match slots[pos] {
                    0 => {
                        let k = counts.len() as u32;
                        slots[pos] = k + 1;
                        keys.extend_from_slice(&key);
                        counts.push(0);
                        break k;
                    }
                    s if keys[(s - 1) as usize * width..][..width] == key[..] => break s - 1,
                    _ => pos = (pos + 1) & (cap - 1),
                }
            };
            counts[k as usize] += 1;
            key_of_row.push(k);
        }
        // Pass 2: prefix sums give each key its run; scatter the rows.
        let mut offsets: Vec<u32> = Vec::with_capacity(counts.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for c in &counts {
            total += c;
            offsets.push(total);
        }
        let mut next: Vec<u32> = offsets[..counts.len()].to_vec();
        let mut rows = vec![Id(0); n * arity];
        for (row, &k) in table.rows().zip(&key_of_row) {
            let at = next[k as usize] as usize * arity;
            rows[at..at + arity].copy_from_slice(row);
            next[k as usize] += 1;
        }
        Self {
            cols,
            arity,
            slots,
            shift,
            keys,
            offsets,
            rows,
        }
    }

    /// The indexed columns, ascending.
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// The rows whose key columns equal `key` (values in the same order as
    /// [`ViewIndex::cols`]): one contiguous row-major run of full rows, and
    /// how many there are — read off the key's offsets, so that sizing a
    /// bucket costs no division. Empty when no row matches. (`always`: the
    /// join core probes this once per binding, from two instances of its
    /// loop, and left to itself the compiler makes it a call.)
    #[inline(always)]
    pub fn bucket(&self, key: &[Id]) -> (&[Id], usize) {
        let width = self.cols.len();
        debug_assert_eq!(key.len(), width);
        let mut pos = (hash_ids(key) >> self.shift) as usize;
        let run = loop {
            match self.slots[pos] {
                0 => break 0..0,
                s => {
                    let k = (s - 1) as usize;
                    if self.keys[k * width..][..width] == *key {
                        break self.offsets[k] as usize..self.offsets[k + 1] as usize;
                    }
                    pos = (pos + 1) & (self.slots.len() - 1);
                }
            }
        };
        (
            &self.rows[run.start * self.arity..run.end * self.arity],
            run.len(),
        )
    }

    /// [`ViewIndex::bucket`] row by row. `.len()` is the bucket's row count.
    pub fn rows_for(&self, key: &[Id]) -> impl ExactSizeIterator<Item = &[Id]> {
        let ((ids, rows), arity) = (self.bucket(key), self.arity);
        (0..rows).map(move |r| &ids[r * arity..][..arity])
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// One published index of a [`Chain`].
#[derive(Debug)]
struct Node {
    mask: u64,
    index: Arc<ViewIndex>,
    next: OnceLock<Box<Node>>,
}

/// An append-only list of write-once nodes: the lock-free index cache.
/// Nodes are never removed or changed, so a reference into the chain
/// lives as long as the table does.
#[derive(Debug, Default)]
struct Chain {
    head: OnceLock<Box<Node>>,
}

impl Chain {
    /// The index published under `mask`, building and publishing it when
    /// the chain has none. `builds` ticks once per *published* node: a
    /// thread that loses the publication race keeps its build in hand,
    /// re-examines the slot, and drops the build if the winner's mask is
    /// the one it wanted.
    fn get_or_build(
        &self,
        mask: u64,
        builds: &AtomicUsize,
        build: impl Fn() -> ViewIndex,
    ) -> &ViewIndex {
        let mut built: Option<Arc<ViewIndex>> = None;
        let mut slot = &self.head;
        loop {
            match slot.get() {
                Some(node) if node.mask == mask => return &node.index,
                Some(node) => slot = &node.next,
                None => {
                    let node = Box::new(Node {
                        mask,
                        index: built.take().unwrap_or_else(|| Arc::new(build())),
                        next: OnceLock::new(),
                    });
                    match slot.set(node) {
                        Ok(()) => {
                            builds.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(node) => built = Some(node.index),
                    }
                }
            }
        }
    }
}

/// The per-table index cache: one [`ViewIndex`] per bound-column mask,
/// built on first probe and kept for the table's lifetime.
#[derive(Debug, Default)]
struct IndexCache {
    by_mask: Chain,
    builds: AtomicUsize,
}

/// A materialized view: one [`Answers`] — a fixed-arity set of id tuples,
/// stored flat — and the indexes built over it.
///
/// Indexes over arbitrary column subsets are built on demand and cached
/// inside the table; rewriting evaluation and maintenance delta joins
/// probe them for join lookups.
#[derive(Debug, Default)]
pub struct ViewTable {
    rows: Answers,
    cache: IndexCache,
}

impl ViewTable {
    /// Builds a table over answers, which become its rows as they are.
    pub fn from_answers(rows: Answers) -> Self {
        Self {
            rows,
            cache: IndexCache::default(),
        }
    }

    /// Builds a table from raw rows (deduplicating), owned or borrowed.
    pub fn from_rows<T: AsRef<[Id]>>(arity: usize, rows: impl IntoIterator<Item = T>) -> Self {
        Self::from_answers(Answers::from_tuples(arity, rows))
    }

    /// The rows, as answers.
    pub fn answers(&self) -> &Answers {
        &self.rows
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.rows.arity()
    }

    /// Number of rows; a table without columns has one (the empty tuple)
    /// or none.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates rows.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Id]> + Clone {
        self.rows.rows()
    }

    /// Size in tuples × columns (a proxy for storage bytes before width
    /// weighting).
    pub fn cell_count(&self) -> usize {
        self.rows.cells().len()
    }

    /// Every row, row-major, as one slice.
    pub(crate) fn cells(&self) -> &[Id] {
        self.rows.cells()
    }

    /// The hash index for the column set `mask` (bit `c` set ⇔ column `c`
    /// is a key column). Built on first use, then served by acquire loads
    /// alone — a maintenance batch or a repeated `answer_query` probing
    /// the same table with the same bound columns pays the build exactly
    /// once, and concurrent readers of a built index share no writes.
    pub fn index_for_mask(&self, mask: u64) -> &ViewIndex {
        debug_assert!(self.arity() <= 64, "mask-indexed tables cap at 64 columns");
        self.cache
            .by_mask
            .get_or_build(mask, &self.cache.builds, || ViewIndex::build(self, mask))
    }

    /// How many resident indexes this table has built so far — one per
    /// probed mask, **not** one per evaluator call. Tests and benches use
    /// this to assert that the caches actually carry across calls.
    pub fn index_builds(&self) -> usize {
        self.cache.builds.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ViewTable {
        ViewTable::from_rows(
            2,
            vec![
                vec![Id(1), Id(10)],
                vec![Id(2), Id(10)],
                vec![Id(1), Id(20)],
                vec![Id(1), Id(10)], // dup
            ],
        )
    }

    #[test]
    fn construction_dedups() {
        let t = table();
        assert_eq!(t.arity(), 2);
        assert_eq!(t.len(), 3);
        assert_eq!(t.cell_count(), 6);
    }

    #[test]
    fn a_table_takes_an_answer_buffer_as_it_is() {
        // Answers and tables share one layout, so the buffer moves: the
        // table built from answers and the one built row by row from the
        // same rows (here shuffled and repeated) are the same table.
        for arity in 1..=5usize {
            let rows: Vec<Vec<Id>> = (0..40u32)
                .map(|r| {
                    (0..arity as u32)
                        .map(|c| Id((r * 7 + c * 3) % 11))
                        .collect()
                })
                .collect();
            let answers = Answers::from_tuples(arity, &rows);
            let n = answers.len();
            let moved = ViewTable::from_answers(answers.clone());
            let built = ViewTable::from_rows(arity, rows.iter().rev().chain(&rows));
            assert_eq!((moved.arity(), moved.len()), (arity, n));
            assert_eq!(moved.cell_count(), n * arity);
            assert!(moved.rows().eq(built.rows()));
            assert!(moved.rows().eq(answers.rows()));
        }
    }

    #[test]
    fn row_access_and_iteration() {
        let t = table();
        let rows: Vec<&[Id]> = t.rows().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(t.rows().len(), 3);
        assert_eq!(rows[0], [Id(1), Id(10)]);
    }

    #[test]
    fn index_groups_rows() {
        let t = table();
        let idx = t.index_for_mask(1 << 1);
        assert_eq!(idx.cols(), &[1]);
        assert_eq!(idx.rows_for(&[Id(10)]).len(), 2);
        assert_eq!(idx.rows_for(&[Id(20)]).len(), 1);
        assert_eq!(idx.rows_for(&[Id(99)]).len(), 0);
        let bucket: Vec<&[Id]> = idx.rows_for(&[Id(20)]).collect();
        assert_eq!(bucket, [&[Id(1), Id(20)]], "buckets hold full rows");
        let idx2 = t.index_for_mask(0b11);
        assert_eq!(idx2.key_count(), 3);
    }

    #[test]
    fn index_handles_empty_table_and_64_column_mask() {
        let empty = ViewTable::from_rows(2, Vec::<Vec<Id>>::new());
        let idx = empty.index_for_mask(0b01);
        assert_eq!(idx.key_count(), 0);
        assert_eq!(idx.rows_for(&[Id(1)]).len(), 0);

        // 64 columns, every one a key column: the widest mask there is.
        let wide = |seed: u32| -> Vec<Id> { (0..64).map(|c| Id(seed * 100 + c)).collect() };
        let t = ViewTable::from_rows(64, vec![wide(1), wide(2), wide(3)]);
        let idx = t.index_for_mask(u64::MAX);
        assert_eq!(idx.cols().len(), 64);
        assert_eq!(idx.key_count(), 3);
        let hit: Vec<&[Id]> = idx.rows_for(&wide(2)).collect();
        assert_eq!(hit, [wide(2).as_slice()]);
        // The top bit alone keys on the last column.
        let last = t.index_for_mask(1 << 63);
        assert_eq!(last.cols(), &[63]);
        assert_eq!(last.rows_for(&[Id(363)]).len(), 1);
        assert_eq!(last.rows_for(&[Id(364)]).len(), 0);
    }

    #[test]
    fn index_cache_builds_once_per_mask() {
        let t = table();
        assert_eq!(t.index_builds(), 0);
        let a = t.index_for_mask(1);
        let b = t.index_for_mask(1);
        assert!(std::ptr::eq(a, b), "same mask shares one index");
        assert_eq!(t.index_builds(), 1);
        t.index_for_mask(0b10);
        assert_eq!(t.index_builds(), 2);
        t.index_for_mask(1);
        assert_eq!(t.index_builds(), 2, "cache hit is not a build");
    }

    #[test]
    fn racing_first_probes_publish_one_index_per_mask() {
        // Eight threads released together onto a fresh table, each probing
        // the same three masks in a different rotation: whoever loses a
        // publication race must adopt the winner's index, and only
        // published indexes count as builds.
        let t = ViewTable::from_rows(3, (0..500u32).map(|i| vec![Id(i % 7), Id(i % 11), Id(i)]));
        let masks = [0b001u64, 0b010, 0b011];
        let start = std::sync::Barrier::new(8);
        let seen: Vec<Vec<(u64, usize)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let (t, start) = (&t, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..3)
                            .map(|j| masks[(i + j) % 3])
                            .map(|m| (m, t.index_for_mask(m) as *const ViewIndex as usize))
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for &m in &masks {
            let published = t.index_for_mask(m) as *const ViewIndex as usize;
            for (mask, ptr) in seen.iter().flatten() {
                if *mask == m {
                    assert_eq!(*ptr, published, "mask {m:#b}: one pointer for all");
                }
            }
        }
        assert_eq!(t.index_builds(), 3, "lost races are not builds");
    }

    #[test]
    fn a_table_without_columns_counts_its_one_row() {
        // A boolean view that holds: one empty tuple, no cells.
        let yes = ViewTable::from_rows(0, [[Id(0); 0]; 2]);
        assert_eq!((yes.arity(), yes.len(), yes.cell_count()), (0, 1, 0));
        assert!(!yes.is_empty());
        assert!(
            yes.rows().eq([&[] as &[Id]]),
            "a scan yields the empty tuple"
        );
        let idx = yes.index_for_mask(0);
        assert_eq!(idx.key_count(), 1);
        assert_eq!(idx.bucket(&[]), (&[] as &[Id], 1));
        assert!(idx.rows_for(&[]).eq([&[] as &[Id]]));
        // One that does not: no rows, and an index with no key.
        let no = ViewTable::from_rows(0, Vec::<Vec<Id>>::new());
        assert_eq!((no.len(), no.rows().len()), (0, 0));
        assert!(no.is_empty());
        assert_eq!(no.index_for_mask(0).rows_for(&[]).len(), 0);
    }
}
