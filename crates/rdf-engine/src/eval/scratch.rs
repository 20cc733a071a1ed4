//! Reusable evaluator working memory.
//!
//! A maintenance batch or a workload materialization makes thousands of
//! evaluator calls, most of them visiting a handful of rows; allocating
//! the bindings frame, the node programs, the extent levels and the output
//! staging afresh each time would cost such a call more than its join.
//! Instead a thread-local pool hands out [`EvalScratch`] values whose
//! buffers keep their capacity across calls — the `VisitedPool` idiom: take
//! on entry, clear-and-return on exit, never shrink below the high-water
//! mark (with a cap so one pathological query cannot pin unbounded memory).
//! Buffers whose elements borrow from a call's tables are pooled empty,
//! under `'static` (see `compiled::park`).
//!
//! Output deduplication uses a [`DedupSet`]: a generation-tagged
//! open-addressing table whose clear is a generation bump (O(1), never a
//! bucket sweep). A std `HashSet` here would make `clear`/`drain` cost
//! O(capacity), so a pooled scratch that once served a million-answer
//! query would tax every later microsecond-scale query with a full sweep
//! of the empty table — exactly the `anchored_chain2` regression the
//! bench guards against. The tuples themselves are staged in one flat
//! arena, row after row: a tuple is compared where it lies and never
//! becomes a vector of its own, and the arena, handed over whole, is
//! already the layout [`Answers`](crate::Answers) keeps.

use std::cell::RefCell;
use std::hash::Hasher;

use rdf_model::{FxHasher, Id};

use super::compiled::{CTerm, ColOp, Cursor, Extent, Group, Program, Step};

/// A distinct-tuple staging set with O(1) clear.
///
/// Open addressing with linear probing; each slot stores the generation it
/// was last written in, the tuple's full hash, and the tuple's row number
/// in the arena. Clearing bumps the generation (stale slots read as
/// vacant), and draining hands the arena over by move — neither operation
/// touches the slot array, so a pooled set keeps a large capacity without
/// taxing small queries.
#[derive(Debug)]
pub(crate) struct DedupSet {
    /// Per-slot generation tag; a slot is occupied iff it equals `gen`
    /// (which starts at 1, so zeroed storage reads as vacant).
    gens: Vec<u64>,
    /// Per-slot tuple hash, valid while the generation matches; grows
    /// rehash from here instead of re-hashing tuples.
    hashes: Vec<u64>,
    /// Per-slot row number in `arena`, valid while the generation matches.
    idxs: Vec<u32>,
    gen: u64,
    /// Distinct tuples staged this generation. Kept apart from the arena's
    /// length, which cannot count tuples without columns.
    len: usize,
    /// Width of the tuples staged this generation.
    arity: usize,
    /// The staged distinct tuples, row-major, in insertion order.
    arena: Vec<Id>,
}

impl Default for DedupSet {
    fn default() -> Self {
        Self {
            gens: Vec::new(),
            hashes: Vec::new(),
            idxs: Vec::new(),
            gen: 1,
            len: 0,
            arity: 0,
            arena: Vec::new(),
        }
    }
}

pub(crate) fn hash_ids(tuple: &[Id]) -> u64 {
    let mut h = FxHasher::default();
    for id in tuple {
        h.write_u32(id.0);
    }
    h.finish()
}

impl DedupSet {
    /// Number of distinct tuples staged this generation.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is staged this generation.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a tuple, returning whether it was new this generation. All
    /// tuples of one generation have one width.
    pub fn insert(&mut self, tuple: &[Id]) -> bool {
        debug_assert!(self.len == 0 || self.arity == tuple.len());
        self.arity = tuple.len();
        if (self.len + 1) * 8 >= self.gens.len() * 7 {
            self.grow();
        }
        let hash = hash_ids(tuple);
        let mask = self.gens.len() - 1;
        let mut pos = (hash as usize) & mask;
        loop {
            if self.gens[pos] != self.gen {
                self.gens[pos] = self.gen;
                self.hashes[pos] = hash;
                self.idxs[pos] = self.len as u32;
                self.arena.extend_from_slice(tuple);
                self.len += 1;
                return true;
            }
            let at = self.idxs[pos] as usize * self.arity;
            if self.hashes[pos] == hash && self.arena[at..at + self.arity] == *tuple {
                return false;
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Takes the staged tuples — how many, and the arena that holds them
    /// row-major in insertion order — and clears the set by bumping the
    /// generation: no slot sweep, whatever the capacity.
    pub fn drain(&mut self) -> (usize, Vec<Id>) {
        self.gen += 1;
        (
            std::mem::take(&mut self.len),
            std::mem::take(&mut self.arena),
        )
    }

    fn grow(&mut self) {
        let new_cap = (self.gens.len() * 2).max(16);
        let old_gens = std::mem::replace(&mut self.gens, vec![0; new_cap]);
        let old_hashes = std::mem::replace(&mut self.hashes, vec![0; new_cap]);
        let old_idxs = std::mem::replace(&mut self.idxs, vec![0; new_cap]);
        let mask = new_cap - 1;
        for i in 0..old_gens.len() {
            if old_gens[i] == self.gen {
                let mut pos = (old_hashes[i] as usize) & mask;
                while self.gens[pos] == self.gen {
                    pos = (pos + 1) & mask;
                }
                self.gens[pos] = self.gen;
                self.hashes[pos] = old_hashes[i];
                self.idxs[pos] = old_idxs[i];
            }
        }
    }

    /// Slot-array capacity (for the pool's shrink cap).
    fn capacity(&self) -> usize {
        self.gens.len()
    }
}

/// The evaluator's reusable working memory.
#[derive(Debug, Default)]
pub(crate) struct EvalScratch {
    /// Flat bindings frame, indexed by dense variable slot. Which slots
    /// hold a binding is a matter of where the join stands, which the code
    /// reading the frame knows statically; a stale value is never read.
    pub frame: Vec<Id>,
    /// Remaining-atom permutation: `order[depth..]` are the atoms not yet
    /// placed; the adaptive planner swaps its pick into `order[depth]`.
    pub order: Vec<u32>,
    /// The key of the view-index lookup under way.
    pub key: Vec<Id>,
    /// Staging buffer for the current head tuple.
    pub tuple: Vec<Id>,
    /// Output staging: distinct answer tuples.
    pub out: DedupSet,
    /// The cached node program of each depth (see `compiled::Program`),
    /// and, one stretch per program: its column ops, the sources of its
    /// steps' lookup keys, its steps, the groups of the level it fills.
    pub(super) programs: Vec<Program>,
    pub(super) ops: Vec<ColOp>,
    pub(super) srcs: Vec<CTerm>,
    pub(super) steps: Vec<Step<'static>>,
    pub(super) groups: Vec<Group>,
    /// Per slot, which depth's atom binds it — the working set of a
    /// program build.
    pub stamps: Vec<u32>,
    /// The extents of the unplaced atoms, one level per depth.
    pub(super) levels: Vec<Extent<'static>>,
    /// The cursors of the intersect nodes, one per atom they place.
    pub(super) cursors: Vec<Cursor<'static>>,
}

/// Pooled scratch values per thread; capped so idle threads don't hoard.
const POOL_CAP: usize = 8;
/// Dedup slot arrays larger than this are dropped instead of pooled.
const OUT_SHRINK: usize = 1 << 20;

thread_local! {
    static POOL: RefCell<Vec<EvalScratch>> = const { RefCell::new(Vec::new()) };
}

impl EvalScratch {
    /// Takes a scratch value from the thread-local pool (or a fresh one),
    /// sized for `n_slots` variables and `n_atoms` atoms. The compiled
    /// core sizes its program buffers itself.
    pub fn take(n_slots: usize, n_atoms: usize) -> Self {
        let mut s = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        s.frame.clear();
        s.frame.resize(n_slots, Id(0));
        s.order.clear();
        s.order.extend(0..n_atoms as u32);
        debug_assert!(s.out.is_empty(), "pooled scratch must be drained");
        s
    }

    /// Returns the scratch to the pool for the next evaluator call.
    pub fn release(mut self) {
        if self.out.capacity() > OUT_SHRINK {
            self.out = DedupSet::default();
        }
        let _ = self.out.drain();
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < POOL_CAP {
                pool.push(self);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_release_reuses_capacity() {
        let mut s = EvalScratch::take(4, 3);
        assert_eq!(s.frame.len(), 4);
        assert_eq!(s.order, vec![0, 1, 2]);
        s.key.reserve(1000);
        let cap = s.key.capacity();
        s.release();
        let s2 = EvalScratch::take(2, 1);
        assert!(
            s2.key.capacity() >= cap,
            "pooled buffers keep their capacity"
        );
        assert_eq!(s2.frame.len(), 2);
        assert_eq!(s2.order, vec![0]);
        s2.release();
    }

    #[test]
    fn drain_empties_but_keeps_slots() {
        let mut s = EvalScratch::take(0, 0);
        s.out.insert(&[Id(1)]);
        s.out.insert(&[Id(2)]);
        assert_eq!(s.out.len(), 2);
        assert_eq!(s.out.drain(), (2, vec![Id(1), Id(2)]));
        assert!(s.out.is_empty());
        s.release();
    }

    #[test]
    fn dedup_set_dedups_within_a_generation() {
        let mut d = DedupSet::default();
        assert!(d.insert(&[Id(1), Id(2)]));
        assert!(!d.insert(&[Id(1), Id(2)]));
        assert!(d.insert(&[Id(2), Id(1)]));
        assert_eq!(d.len(), 2);
        assert_eq!(d.drain(), (2, vec![Id(1), Id(2), Id(2), Id(1)]));
        // A new generation accepts the old tuples again, at another width.
        assert!(d.insert(&[Id(1)]));
        assert!(d.insert(&[Id(2)]));
        assert!(!d.insert(&[Id(1)]));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn dedup_set_counts_the_empty_tuple_once() {
        let mut d = DedupSet::default();
        assert!(d.insert(&[]));
        assert!(!d.insert(&[]));
        assert_eq!(d.drain(), (1, Vec::new()));
        assert!(d.is_empty());
    }

    #[test]
    fn dedup_set_survives_growth() {
        let mut d = DedupSet::default();
        for i in 0..10_000u32 {
            assert!(d.insert(&[Id(i % 5_000), Id(i)]));
        }
        for i in 0..10_000u32 {
            assert!(!d.insert(&[Id(i % 5_000), Id(i)]), "duplicate {i} slipped");
        }
        assert_eq!(d.len(), 10_000);
        let (len, arena) = d.drain();
        assert_eq!((len, arena.len()), (10_000, 20_000));
        assert!(d.is_empty());
    }
}
