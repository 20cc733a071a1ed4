//! Query answers under set semantics, stored flat.
//!
//! An answer set is one row-major `Vec<Id>`: row `r` is
//! `data[r * arity..][..arity]`, rows are distinct and in lexicographic
//! order. There is no vector per tuple, so building, comparing, cloning
//! and dropping an answer set are each one pass over one allocation, and a
//! [`ViewTable`](crate::ViewTable) is an answer set plus its indexes. The
//! row count is kept beside the buffer because a
//! boolean query's answers have no columns: `len` is what tells its one
//! empty tuple from none.
//!
//! Ordering rows means comparing them, and a slice compare per step of a
//! sort is a loop behind two pointers. Ids are 32 bits wide, so a row of up
//! to four of them fits an integer whose numeric order *is* the row order:
//! such rows are packed, sorted as integers and unpacked. Wider rows sort
//! their row numbers and are gathered once.

use rdf_model::Id;

/// A set of answer tuples, kept sorted for deterministic iteration and
/// cheap equality.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Answers {
    arity: usize,
    len: usize,
    data: Vec<Id>,
}

impl Answers {
    /// Builds from possibly-duplicated tuples, each of `arity` ids.
    pub fn from_tuples<T: AsRef<[Id]>>(arity: usize, tuples: impl IntoIterator<Item = T>) -> Self {
        let mut data = Vec::new();
        let mut len = 0;
        for tuple in tuples {
            let tuple = tuple.as_ref();
            assert_eq!(tuple.len(), arity, "answer tuple of the wrong width");
            data.extend_from_slice(tuple);
            len += 1;
        }
        Self::from_flat(arity, len, data, false)
    }

    /// Builds from `len` row-major rows. `distinct` is the caller's promise
    /// that no row repeats (rows drained from a dedup set), which saves the
    /// pass that drops duplicates.
    pub(crate) fn from_flat(arity: usize, len: usize, mut data: Vec<Id>, distinct: bool) -> Self {
        debug_assert_eq!(data.len(), len * arity);
        let len = sort_rows(arity, len, &mut data, distinct);
        Self { arity, len, data }
    }

    /// Adopts `len` row-major rows that are already distinct and in
    /// order — what a decoder has read back from a canonical encoding —
    /// without sorting them. `None` if they are not: a wrong cell count, a
    /// row that does not sort strictly after the one before it, or more
    /// than one empty tuple.
    pub fn from_sorted(arity: usize, len: usize, data: Vec<Id>) -> Option<Self> {
        if len.checked_mul(arity) != Some(data.len()) {
            return None;
        }
        let this = Self { arity, len, data };
        let ordered = match arity {
            0 => len <= 1,
            _ => this.rows().zip(this.rows().skip(1)).all(|(a, b)| a < b),
        };
        ordered.then_some(this)
    }

    /// Number of head columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of distinct tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no answers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tuples in order, borrowed from the flat buffer — no allocation.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Id]> + Clone {
        let (arity, data) = (self.arity, &self.data);
        (0..self.len).map(move |r| &data[r * arity..(r + 1) * arity])
    }

    /// The tuples in order, as a vector of row slices built for the call:
    /// the indexable form (`a.tuples()[i][c]`). Loops want [`Answers::rows`].
    pub fn tuples(&self) -> Vec<&[Id]> {
        self.rows().collect()
    }

    /// Row `r`.
    fn row(&self, r: usize) -> &[Id] {
        &self.data[r * self.arity..(r + 1) * self.arity]
    }

    /// The first row at or after `from` that does not sort before `tuple`
    /// (binary search), and whether it is `tuple`.
    fn seek(&self, from: usize, tuple: &[Id]) -> (usize, bool) {
        let (mut lo, mut hi) = (from, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.row(mid) < tuple {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo, lo < self.len && self.row(lo) == tuple)
    }

    /// Membership test (binary search).
    pub fn contains(&self, tuple: &[Id]) -> bool {
        self.seek(0, tuple).1
    }

    /// These rows with the rows of `delta` added (set union), or `None`
    /// when `delta` adds nothing. Each delta row's place is found by binary
    /// search in the rows not yet passed and the stretch before it is
    /// copied whole: O(|delta| log n) compares and one copy of the buffer
    /// into one allocation, where re-sorting the union would compare every
    /// row.
    pub fn plus(&self, delta: &Answers) -> Option<Answers> {
        self.splice(delta, true)
    }

    /// These rows with the rows of `doomed` taken out (set difference), or
    /// `None` when none of them is here. The counterpart of
    /// [`Answers::plus`].
    pub fn minus(&self, doomed: &Answers) -> Option<Answers> {
        self.splice(doomed, false)
    }

    /// One pass over `delta` in order: the rows with each of `delta`'s
    /// present (`insert`) or absent, unless that is how they already are.
    fn splice(&self, delta: &Answers, insert: bool) -> Option<Answers> {
        debug_assert_eq!(self.arity, delta.arity);
        let arity = self.arity;
        if delta.is_empty() {
            return None;
        }
        if arity == 0 {
            // The empty tuple, there or not.
            let len = usize::from(insert);
            return (len != self.len).then_some(Answers {
                arity,
                len,
                data: Vec::new(),
            });
        }
        let mut out = Vec::with_capacity(self.data.len() + delta.data.len() * usize::from(insert));
        let mut at = 0;
        for row in delta.rows() {
            let (next, found) = self.seek(at, row);
            out.extend_from_slice(&self.data[at * arity..next * arity]);
            at = next + usize::from(found && !insert);
            if insert && !found {
                out.extend_from_slice(row);
            }
        }
        out.extend_from_slice(&self.data[at * arity..]);
        let len = out.len() / arity;
        (len != self.len).then_some(Answers {
            arity,
            len,
            data: out,
        })
    }

    /// Keeps the rows `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&[Id]) -> bool) {
        if self.arity == 0 {
            self.len = usize::from(self.len == 1 && keep(&[]));
            return;
        }
        let arity = self.arity;
        let mut kept = 0;
        for r in 0..self.len {
            if keep(&self.data[r * arity..(r + 1) * arity]) {
                self.data
                    .copy_within(r * arity..(r + 1) * arity, kept * arity);
                kept += 1;
            }
        }
        self.data.truncate(kept * arity);
        self.len = kept;
    }

    /// Merges two answer sets (set union); arities must agree.
    pub fn union(self, other: Answers) -> Answers {
        debug_assert_eq!(self.arity, other.arity);
        Answers::union_all(other.arity, [self, other])
    }

    /// The set union of any number of answer sets of one arity. Each input
    /// is already distinct and sorted, so a single input — every
    /// one-branch plan — is returned as it is; several are concatenated,
    /// sorted and deduplicated once.
    pub fn union_all(arity: usize, runs: impl IntoIterator<Item = Answers>) -> Answers {
        let mut runs = runs.into_iter();
        let Some(first) = runs.next() else {
            return Answers::from_flat(arity, 0, Vec::new(), true);
        };
        debug_assert_eq!(first.arity, arity);
        let (mut len, mut data) = (first.len, first.data);
        let sorted = len;
        for run in runs {
            debug_assert_eq!(run.arity, arity);
            len += run.len;
            data.extend_from_slice(&run.data);
        }
        if len == sorted {
            return Answers { arity, len, data };
        }
        Answers::from_flat(arity, len, data, false)
    }

    /// Every row, row-major, as one slice.
    pub(crate) fn cells(&self) -> &[Id] {
        &self.data
    }
}

/// Puts `len` row-major rows of `arity` ids into lexicographic order,
/// dropping repeats unless the rows are `distinct`; returns how many remain.
fn sort_rows(arity: usize, len: usize, data: &mut Vec<Id>, distinct: bool) -> usize {
    match arity {
        // The empty tuple is its own only duplicate.
        0 => len.min(1),
        1 => {
            data.sort_unstable();
            if !distinct {
                data.dedup();
            }
            data.len()
        }
        2 => sort_packed(
            arity,
            data,
            distinct,
            |row| row.iter().fold(0u64, |k, id| k << 32 | u64::from(id.0)),
            |k, c| Id((k >> (32 * c)) as u32),
        ),
        3 | 4 => sort_packed(
            arity,
            data,
            distinct,
            |row| row.iter().fold(0u128, |k, id| k << 32 | u128::from(id.0)),
            |k, c| Id((k >> (32 * c)) as u32),
        ),
        _ => {
            let row = |r: &u32| &data[*r as usize * arity..][..arity];
            let mut order: Vec<u32> = (0..len as u32).collect();
            order.sort_unstable_by(|a, b| row(a).cmp(row(b)));
            if !distinct {
                order.dedup_by(|a, b| row(a) == row(b));
            }
            *data = order.iter().flat_map(row).copied().collect();
            order.len()
        }
    }
}

/// [`sort_rows`] for rows narrow enough to `pack` into an integer that
/// orders as the row does. `unpack(k, c)` is the id `c` columns from the
/// right of `k` — a narrowing cast that keeps exactly that id's 32 bits.
fn sort_packed<K: Ord + Copy>(
    arity: usize,
    data: &mut Vec<Id>,
    distinct: bool,
    pack: impl Fn(&[Id]) -> K,
    unpack: impl Fn(K, usize) -> Id,
) -> usize {
    let mut keys: Vec<K> = data.chunks_exact(arity).map(pack).collect();
    keys.sort_unstable();
    if !distinct {
        keys.dedup();
    }
    data.truncate(keys.len() * arity);
    for (k, row) in keys.iter().zip(data.chunks_exact_mut(arity)) {
        for (c, id) in row.iter_mut().rev().enumerate() {
            *id = unpack(*k, c);
        }
    }
    keys.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn dedup_and_sort() {
        let a = Answers::from_tuples(
            2,
            vec![vec![Id(2), Id(1)], vec![Id(1), Id(1)], vec![Id(2), Id(1)]],
        );
        assert_eq!(a.len(), 2);
        assert_eq!(a.tuples()[0], [Id(1), Id(1)]);
        assert!(a.contains(&[Id(2), Id(1)]));
        assert!(!a.contains(&[Id(9), Id(9)]));
    }

    #[test]
    fn union_merges() {
        let a = Answers::from_tuples(1, vec![vec![Id(1)]]);
        let b = Answers::from_tuples(1, vec![vec![Id(1)], vec![Id(2)]]);
        let u = a.union(b);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn boolean_answers() {
        // Arity-0: at most one tuple (the empty tuple).
        let yes = Answers::from_tuples(0, vec![Vec::<Id>::new(), Vec::new()]);
        let no = Answers::from_tuples(0, Vec::<Vec<Id>>::new());
        assert_eq!(yes.len(), 1);
        assert!(yes.contains(&[]));
        assert_eq!(yes.tuples(), [&[] as &[Id]]);
        assert!(no.is_empty());
        assert!(!no.contains(&[]));
        assert_ne!(yes, no);
        assert_eq!(yes.clone().union(no.clone()), yes);
        assert_eq!(Answers::union_all(0, [no.clone(), no.clone()]), no);
        assert_eq!(Answers::union_all(0, [yes.clone(), yes.clone()]).len(), 1);
    }

    /// SplitMix64: a reproducible stream without a dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Every packing path (arity 0, 1, `u64`, `u128` at both of its widths,
    /// row-number sort) against a `BTreeSet<Vec<Id>>`: order, `len`,
    /// `contains`, equality and `union_all`. Ids are drawn from a handful
    /// of values that includes 0 and `u32::MAX`, so rows repeat and every
    /// column meets both ends of its 32 bits.
    #[test]
    fn flat_answers_match_a_btree_set_for_every_arity() {
        const IDS: [u32; 5] = [0, 1, 0x8000_0000, u32::MAX - 1, u32::MAX];
        let mut rng = 0x5eed_u64;
        for arity in 0..=6usize {
            for round in 0..40 {
                let n = (next(&mut rng) % 60) as usize * usize::from(round > 0);
                let mut draw = |n: usize| -> Vec<Vec<Id>> {
                    (0..n)
                        .map(|_| {
                            (0..arity)
                                .map(|_| Id(IDS[(next(&mut rng) % 5) as usize]))
                                .collect()
                        })
                        .collect()
                };
                let (left, right) = (draw(n), draw(n / 2));
                let oracle: BTreeSet<Vec<Id>> = left.iter().cloned().collect();
                let a = Answers::from_tuples(arity, &left);
                assert_eq!(a.arity(), arity);
                assert_eq!(a.len(), oracle.len(), "arity {arity}");
                assert_eq!(a.is_empty(), oracle.is_empty());
                assert!(a.rows().eq(oracle.iter().map(Vec::as_slice)), "order");
                assert_eq!(a.tuples().len(), a.len());
                assert_eq!(a.rows().len(), a.len());
                for t in left.iter().chain(&right) {
                    assert_eq!(a.contains(t), oracle.contains(t), "contains {t:?}");
                }
                // The same set from another order and multiplicity is equal.
                let mut again: Vec<&Vec<Id>> = left.iter().rev().chain(&left).collect();
                again.rotate_left(n / 3);
                assert_eq!(Answers::from_tuples(arity, again), a);
                // A dedup set's drain takes the `distinct` route.
                let flat: Vec<Id> = oracle.iter().rev().flatten().copied().collect();
                assert_eq!(Answers::from_flat(arity, oracle.len(), flat, true), a);

                let b = Answers::from_tuples(arity, &right);
                let both: BTreeSet<Vec<Id>> = oracle.iter().chain(&right).cloned().collect();
                let u = Answers::union_all(arity, [a.clone(), b.clone(), a.clone()]);
                assert_eq!(u.len(), both.len());
                assert!(u.rows().eq(both.iter().map(Vec::as_slice)), "union order");
                assert_eq!(u, b.clone().union(a.clone()));
                assert_eq!(Answers::union_all(arity, [a.clone()]), a);
                if arity == 0 {
                    assert!(a.len() <= 1 && u.len() <= 1);
                }
                if !right.is_empty() && both.len() > oracle.len() {
                    assert_ne!(u, a);
                }

                // Splices agree with the set operations, answer `None`
                // exactly when nothing changes, and the ordered constructor
                // accepts exactly the ordered buffers.
                let grown = a.plus(&b).unwrap_or_else(|| a.clone());
                assert_eq!(a.plus(&b).is_none(), both.len() == oracle.len());
                assert_eq!(grown, u);
                assert_eq!(grown.plus(&b), None, "a second union adds nothing");
                let less: BTreeSet<Vec<Id>> = oracle
                    .iter()
                    .filter(|t| !right.contains(t))
                    .cloned()
                    .collect();
                let shrunk = a.minus(&b).unwrap_or_else(|| a.clone());
                assert_eq!(a.minus(&b).is_none(), oracle.len() == less.len());
                assert_eq!(shrunk, Answers::from_tuples(arity, &less));
                assert_eq!(shrunk.minus(&b), None);
                let mut kept = a.clone();
                kept.retain(|t| !right.iter().any(|r| r.as_slice() == t));
                assert_eq!(kept, shrunk);
                let flat: Vec<Id> = oracle.iter().flatten().copied().collect();
                assert_eq!(
                    Answers::from_sorted(arity, oracle.len(), flat.clone()),
                    Some(a.clone())
                );
                if oracle.len() > 1 {
                    let reversed: Vec<Id> = oracle.iter().rev().flatten().copied().collect();
                    assert_eq!(Answers::from_sorted(arity, oracle.len(), reversed), None);
                    let twice = [&flat[..arity], &flat[..]].concat();
                    assert_eq!(Answers::from_sorted(arity, oracle.len() + 1, twice), None);
                }
                if arity > 0 || !oracle.is_empty() {
                    assert_eq!(Answers::from_sorted(arity, oracle.len() + 1, flat), None);
                }
            }
        }
    }
}
