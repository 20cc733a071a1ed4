//! Reusable evaluator working memory.
//!
//! A maintenance batch or a workload materialization makes thousands of
//! evaluator calls; allocating the bindings frame, trail, key buffers and
//! output staging afresh each time would dominate small joins. Instead a
//! thread-local pool hands out [`EvalScratch`] values whose buffers keep
//! their capacity across calls — the `VisitedPool` idiom: take on entry,
//! clear-and-return on exit, never shrink below the high-water mark (with
//! a cap so one pathological query cannot pin unbounded memory).
//!
//! Output deduplication uses a [`DedupSet`]: a generation-tagged
//! open-addressing table whose clear is a generation bump (O(1), never a
//! bucket sweep). A std `HashSet` here would make `clear`/`drain` cost
//! O(capacity), so a pooled scratch that once served a million-answer
//! query would tax every later microsecond-scale query with a full sweep
//! of the empty table — exactly the `anchored_chain2` regression the
//! bench guards against.

use std::cell::RefCell;
use std::hash::Hasher;

use rdf_model::{FxHasher, Id};

/// One per-column action of the inner join loop, precomputed per recursion
/// node (never per row). Bound columns need no action at all: the access
/// path (index range prefix / hash key) already guarantees them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColAction {
    /// Value guaranteed by the access path (index range prefix / hash key).
    Skip,
    /// First occurrence of an unbound variable: bind the slot, trail it.
    Bind(u32),
    /// Later occurrence of a variable bound by an earlier column of this
    /// atom (repeated variable): compare against the just-bound slot.
    Check(u32),
}

/// A distinct-tuple staging set with O(1) clear.
///
/// Open addressing with linear probing; each slot stores the generation it
/// was last written in, the tuple's full hash, and its index in the staged
/// tuple list. Clearing bumps the generation (stale slots read as vacant),
/// and draining hands the staged tuples over by move — neither operation
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
    /// Per-slot index into `tuples`, valid while the generation matches.
    idxs: Vec<u32>,
    gen: u64,
    len: usize,
    /// The staged distinct tuples, in insertion order.
    tuples: Vec<Vec<Id>>,
}

impl Default for DedupSet {
    fn default() -> Self {
        Self {
            gens: Vec::new(),
            hashes: Vec::new(),
            idxs: Vec::new(),
            gen: 1,
            len: 0,
            tuples: Vec::new(),
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

    /// Inserts a tuple, returning whether it was new this generation.
    pub fn insert(&mut self, tuple: &[Id]) -> bool {
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
                self.idxs[pos] = self.tuples.len() as u32;
                self.tuples.push(tuple.to_vec());
                self.len += 1;
                return true;
            }
            if self.hashes[pos] == hash && self.tuples[self.idxs[pos] as usize] == tuple {
                return false;
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Takes the staged tuples (insertion order, distinct) and clears the
    /// set by bumping the generation — no slot sweep, whatever the
    /// capacity.
    pub fn drain(&mut self) -> Vec<Vec<Id>> {
        self.gen += 1;
        self.len = 0;
        std::mem::take(&mut self.tuples)
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
    /// Flat bindings frame, indexed by dense variable slot.
    pub frame: Vec<Option<Id>>,
    /// Undo trail: slots bound since entry, unwound on backtrack.
    pub trail: Vec<u32>,
    /// Remaining-atom permutation: `order[depth..]` are the atoms not yet
    /// placed; the adaptive planner swaps its pick into `order[depth]`.
    pub order: Vec<u32>,
    /// Per-depth key buffers for view-index probes.
    pub keys: Vec<Vec<Id>>,
    /// Per-depth column-action buffers for view atoms (store atoms use a
    /// fixed-size stack array).
    pub actions: Vec<Vec<ColAction>>,
    /// Staging buffer for the current head tuple.
    pub tuple: Vec<Id>,
    /// Output staging: distinct answer tuples.
    pub out: DedupSet,
    /// Rows the compiled core handed to its per-row step this call.
    pub rows_visited: u64,
    /// Leapfrog range stacks, flat: cursor `c` keeps its per-trie-depth
    /// `[lo, hi)` windows at `roff(c) + depth` (offsets assigned at setup).
    pub lf_ranges: Vec<[u32; 2]>,
    /// Leapfrog per-cursor position within the current level's window.
    pub lf_pos: Vec<u32>,
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
    /// sized for `n_slots` variables and `n_atoms` atoms.
    pub fn take(n_slots: usize, n_atoms: usize) -> Self {
        let mut s = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
        s.frame.clear();
        s.frame.resize(n_slots, None);
        s.trail.clear();
        s.order.clear();
        s.order.extend(0..n_atoms as u32);
        if s.keys.len() < n_atoms {
            s.keys.resize_with(n_atoms, Vec::new);
        }
        if s.actions.len() < n_atoms {
            s.actions.resize_with(n_atoms, Vec::new);
        }
        s.tuple.clear();
        s.rows_visited = 0;
        debug_assert!(s.out.is_empty(), "pooled scratch must be drained");
        s
    }

    /// Drains the staged output (an O(1) handover, not a bucket sweep).
    pub fn drain_out(&mut self) -> Vec<Vec<Id>> {
        self.out.drain()
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
        s.trail.reserve(1000);
        let cap = s.trail.capacity();
        s.release();
        let s2 = EvalScratch::take(2, 1);
        assert!(
            s2.trail.capacity() >= cap,
            "pooled buffers keep their capacity"
        );
        assert_eq!(s2.frame.len(), 2);
        assert_eq!(s2.order, vec![0]);
        s2.release();
    }

    #[test]
    fn drain_out_empties_but_keeps_slots() {
        let mut s = EvalScratch::take(0, 0);
        s.out.insert(&[Id(1)]);
        s.out.insert(&[Id(2)]);
        assert_eq!(s.out.len(), 2);
        let mut tuples = s.drain_out();
        tuples.sort_unstable();
        assert_eq!(tuples, vec![vec![Id(1)], vec![Id(2)]]);
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
        let drained = d.drain();
        assert_eq!(drained, vec![vec![Id(1), Id(2)], vec![Id(2), Id(1)]]);
        // A new generation accepts the old tuples again.
        assert!(d.insert(&[Id(1), Id(2)]));
        assert_eq!(d.len(), 1);
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
        assert_eq!(d.drain().len(), 10_000);
        assert!(d.is_empty());
    }
}
