//! The worst-case-optimal leapfrog-triejoin executor.
//!
//! The backtracking core ([`super::compiled`]) expands one *atom* at a
//! time: at each depth it iterates every tuple of the chosen atom's range,
//! binding all of that atom's fresh variables at once. On cyclic queries
//! (triangles, diamonds, k-cycles) that enumerates intermediate joins a
//! worst-case-optimal algorithm never materializes. This module joins one
//! *variable* at a time instead — leapfrog triejoin:
//!
//! * a **global variable order** is fixed up front (highest atom degree
//!   first, smallest atom extent as the tie-break), giving every atom a
//!   trie view of its matches: constants first, then its variables in
//!   global order;
//! * store atoms get that trie for free from a permutation index —
//!   [`IndexOrder::for_groups`] picks the order whose sort sequence lists
//!   the constant columns and then each variable's column(s) consecutively,
//!   and [`TripleStore::range`] narrows to the constant prefix; view atoms
//!   use a cached sorted-row projection
//!   ([`ViewTable::sorted_index_for_order`]) the same way;
//! * at each level, every atom containing the variable exposes a sorted
//!   run of candidate values; the **leapfrog** loop repeatedly galloping-
//!   seeks the lagging cursors up to the current maximum until all agree,
//!   binds the value, narrows each participant's window to its value-run,
//!   and descends — multi-way sorted intersection with `O(log n)` seeks;
//! * an atom whose variable occurs in several columns (`t(X, p, X)`) is
//!   pre-filtered once into an owned buffer (the chosen permutation keeps
//!   the filtered rows sorted on the shared value), and a fully-ground
//!   atom degenerates to a setup-time membership test.
//!
//! All mutable cursor state — the per-cursor `[lo, hi)` range stacks and
//! positions — lives in the pooled [`EvalScratch`], so the seek loop
//! allocates nothing.
//!
//! [`is_cyclic`] is the adaptive selector's test: a GYO ear-removal pass
//! over the atoms' variable sets. Acyclic queries keep the backtracking
//! core (its adaptive ordering is strictly better on selective chains);
//! cyclic ones route here.

use rdf_model::{Id, IndexOrder, IndexRange, StorePattern, Triple, TripleStore};

use super::compiled::{emit, CAtom, CTerm, CompiledPlan};
use super::scratch::EvalScratch;
use super::EvalStats;
use crate::answers::Answers;
use crate::view_table::{ViewSortedIndex, ViewTable};

/// GYO ear-removal α-acyclicity test over the plan's atom variable sets:
/// repeatedly drop variables occurring in a single atom and atoms whose
/// variable set is contained in another's; the query is cyclic iff a core
/// survives. (Triangles, diamonds and k-cycles survive; chains, stars and
/// every ≤2-atom query reduce to nothing.)
pub(super) fn is_cyclic(plan: &CompiledPlan) -> bool {
    if plan.atoms.len() < 3 {
        return false;
    }
    let mut sets: Vec<Vec<u32>> = plan
        .atoms
        .iter()
        .map(|a| {
            let mut s: Vec<u32> = a
                .terms()
                .iter()
                .filter_map(|t| match t {
                    CTerm::Slot(v) => Some(*v),
                    CTerm::Const(_) => None,
                })
                .collect();
            s.sort_unstable();
            s.dedup();
            s
        })
        .filter(|s| !s.is_empty())
        .collect();
    loop {
        let mut changed = false;
        // Drop variables that occur in exactly one atom.
        let mut occ: rdf_model::FxHashMap<u32, u32> = rdf_model::FxHashMap::default();
        for s in &sets {
            for &v in s {
                *occ.entry(v).or_insert(0) += 1;
            }
        }
        for s in &mut sets {
            let before = s.len();
            s.retain(|v| occ[v] > 1);
            changed |= s.len() != before;
        }
        let before = sets.len();
        sets.retain(|s| !s.is_empty());
        changed |= sets.len() != before;
        // Drop atoms subsumed by another atom (one survivor per duplicate
        // set: equal sets only remove the higher index).
        for i in (0..sets.len()).rev() {
            let subsumed = sets
                .iter()
                .enumerate()
                .any(|(j, t)| j != i && subset(&sets[i], t) && (sets[i] != *t || j < i));
            if subsumed {
                sets.remove(i);
                changed = true;
            }
        }
        if !changed {
            return !sets.is_empty();
        }
    }
}

/// Whether sorted `a` ⊆ sorted `b`.
fn subset(a: &[u32], b: &[u32]) -> bool {
    let mut bi = b.iter();
    a.iter().all(|x| bi.any(|y| y == x))
}

/// Where one trie cursor reads its rows from.
enum CursorData<'a> {
    /// A store atom's permutation-index range (positions are
    /// range-relative).
    Tri(IndexRange),
    /// A store atom with an intra-atom repeated variable, pre-filtered.
    TriOwned(Vec<Triple>),
    /// A view atom's sorted-row projection (positions are absolute into
    /// the projection; the constant prefix fixes the initial window).
    Rows {
        table: &'a ViewTable,
        idx: &'a ViewSortedIndex,
    },
    /// A view atom with an intra-atom repeated variable, pre-filtered.
    RowsOwned { table: &'a ViewTable, ids: Vec<u32> },
}

/// One atom's trie cursor: its data source, its (level, value-column)
/// sequence in global variable order, and where its range stack lives in
/// the scratch pool.
struct Cursor<'a> {
    data: CursorData<'a>,
    /// `(global level, value column)` per trie depth, level-ascending.
    levels: Vec<(u32, usize)>,
    /// Offset of this cursor's `[lo, hi)` stack in `EvalScratch::lf_ranges`
    /// (entry `roff + d` is the window at trie depth `d`).
    roff: usize,
    /// The depth-0 window.
    init: [u32; 2],
}

/// Immutable per-call context: cursors, per-level participants, the
/// variable order and the plan whose head is emitted.
struct Ctx<'a, 'p> {
    cursors: Vec<Cursor<'a>>,
    /// Per level: `(cursor, trie depth)` of every atom containing the
    /// level's variable.
    parts: Vec<Vec<(u32, u32)>>,
    /// The variable slot joined at each level.
    slots: Vec<u32>,
    plan: &'p CompiledPlan<'a>,
}

impl Ctx<'_, '_> {
    /// The value at `pos` in cursor `c`'s column `col`.
    #[inline]
    fn value(&self, c: usize, col: usize, pos: u32) -> Id {
        match &self.cursors[c].data {
            CursorData::Tri(r) => r.as_slice()[pos as usize][col],
            CursorData::TriOwned(v) => v[pos as usize][col],
            CursorData::Rows { table, idx } => table.row(idx.rows()[pos as usize] as usize)[col],
            CursorData::RowsOwned { table, ids } => table.row(ids[pos as usize] as usize)[col],
        }
    }

    /// Galloping seek: the first position in `[from, hi)` whose value is
    /// `>= target` (`strict` = false) or `> target` (`strict` = true).
    /// Exponential probe out of `from`, then binary search the bracket —
    /// `O(log d)` in the distance `d` advanced, the leapfrog guarantee.
    fn seek(&self, c: usize, col: usize, from: u32, hi: u32, target: Id, strict: bool) -> u32 {
        let below = |v: Id| if strict { v <= target } else { v < target };
        if from >= hi || !below(self.value(c, col, from)) {
            return from;
        }
        let mut lo = from; // invariant: value(lo) is below target
        let mut bound = hi;
        let mut step = 1u32;
        while let Some(p) = lo.checked_add(step).filter(|&p| p < hi) {
            if below(self.value(c, col, p)) {
                lo = p;
                step = step.saturating_mul(2);
            } else {
                bound = p;
                break;
            }
        }
        let mut l = lo + 1;
        let mut h = bound;
        while l < h {
            let m = l + (h - l) / 2;
            if below(self.value(c, col, m)) {
                l = m + 1;
            } else {
                h = m;
            }
        }
        l
    }
}

/// `StorePattern` of an atom's constant columns only.
fn const_pattern(terms: &[CTerm; 3]) -> StorePattern {
    let get = |t: CTerm| match t {
        CTerm::Const(c) => Some(c),
        CTerm::Slot(_) => None,
    };
    StorePattern::new(get(terms[0]), get(terms[1]), get(terms[2]))
}

fn empty(plan: &CompiledPlan) -> Answers {
    Answers::from_flat(plan.head.len(), 0, Vec::new(), true)
}

/// Runs a compiled plan with the leapfrog executor. `stats.engine` is set
/// by the caller; seek and emit counters accumulate here.
pub(super) fn execute(store: &TripleStore, plan: &CompiledPlan, stats: &mut EvalStats) -> Answers {
    // -- Global variable order: degree desc, extent asc, slot asc. --------
    let n_slots = plan.n_slots;
    let mut degree = vec![0u32; n_slots];
    let mut extent = vec![usize::MAX; n_slots];
    // Per atom: its distinct slots with their column positions.
    let mut atom_groups: Vec<Vec<(u32, Vec<usize>)>> = Vec::with_capacity(plan.atoms.len());
    for atom in &plan.atoms {
        let mut groups: Vec<(u32, Vec<usize>)> = Vec::new();
        for (col, t) in atom.terms().iter().enumerate() {
            if let CTerm::Slot(v) = t {
                match groups.iter_mut().find(|(s, _)| s == v) {
                    Some((_, cols)) => cols.push(col),
                    None => groups.push((*v, vec![col])),
                }
            }
        }
        let ext = match atom {
            CAtom::Store { terms } => store.match_count(&const_pattern(terms)),
            CAtom::View { table, .. } => table.len(),
        };
        for (v, _) in &groups {
            degree[*v as usize] += 1;
            extent[*v as usize] = extent[*v as usize].min(ext);
        }
        atom_groups.push(groups);
    }
    let mut slots: Vec<u32> = (0..n_slots as u32)
        .filter(|&v| degree[v as usize] > 0)
        .collect();
    slots.sort_by(|&a, &b| {
        degree[b as usize]
            .cmp(&degree[a as usize])
            .then(extent[a as usize].cmp(&extent[b as usize]))
            .then(a.cmp(&b))
    });
    let mut level_of = vec![u32::MAX; n_slots];
    for (l, &v) in slots.iter().enumerate() {
        level_of[v as usize] = l as u32;
    }

    // -- One trie cursor per non-ground atom. ------------------------------
    let mut cursors: Vec<Cursor> = Vec::new();
    for (ai, atom) in plan.atoms.iter().enumerate() {
        let mut groups = std::mem::take(&mut atom_groups[ai]);
        groups.sort_by_key(|(v, _)| level_of[*v as usize]);
        let needs_filter = groups.iter().any(|(_, cols)| cols.len() > 1);
        match atom {
            CAtom::Store { terms } => {
                if groups.is_empty() {
                    // Ground atom: a setup-time membership test.
                    if store.match_count(&const_pattern(terms)) == 0 {
                        return empty(plan);
                    }
                    continue;
                }
                let consts: Vec<usize> = (0..3)
                    .filter(|&c| matches!(terms[c], CTerm::Const(_)))
                    .collect();
                let mut order_groups: Vec<&[usize]> = Vec::new();
                if !consts.is_empty() {
                    order_groups.push(&consts);
                }
                for (_, cols) in &groups {
                    order_groups.push(cols.as_slice());
                }
                let idx_order = IndexOrder::for_groups(&order_groups);
                let perm = idx_order.perm();
                // The constants, in the order's sort sequence: its prefix.
                let key: Vec<Id> = perm
                    .iter()
                    .filter_map(|&c| match terms[c] {
                        CTerm::Const(id) => Some(id),
                        CTerm::Slot(_) => None,
                    })
                    .collect();
                let range = store.range(idx_order, &key);
                let mut levels = Vec::with_capacity(groups.len());
                let mut pos = consts.len();
                for (v, cols) in &groups {
                    levels.push((level_of[*v as usize], perm[pos]));
                    pos += cols.len();
                }
                let (data, init) = if needs_filter {
                    let rows: Vec<Triple> = range
                        .as_slice()
                        .iter()
                        .copied()
                        .filter(|t| {
                            groups
                                .iter()
                                .all(|(_, cols)| cols.iter().all(|&c| t[c] == t[cols[0]]))
                        })
                        .collect();
                    let len = rows.len() as u32;
                    (CursorData::TriOwned(rows), [0, len])
                } else {
                    let len = range.len() as u32;
                    (CursorData::Tri(range), [0, len])
                };
                cursors.push(Cursor {
                    data,
                    levels,
                    roff: 0,
                    init,
                });
            }
            CAtom::View { table, terms } => {
                let consts: Vec<(usize, Id)> = terms
                    .iter()
                    .enumerate()
                    .filter_map(|(c, t)| match t {
                        CTerm::Const(id) => Some((c, *id)),
                        CTerm::Slot(_) => None,
                    })
                    .collect();
                if groups.is_empty() {
                    let mut mask = 0u64;
                    let mut key = Vec::new();
                    for (c, id) in &consts {
                        mask |= 1 << c;
                        key.push(*id);
                    }
                    let present = if mask == 0 {
                        !table.is_empty()
                    } else {
                        table.index_for_mask(mask).rows_for(&key).len() > 0
                    };
                    if !present {
                        return empty(plan);
                    }
                    continue;
                }
                let mut seq: Vec<usize> = consts.iter().map(|(c, _)| *c).collect();
                let mut levels = Vec::with_capacity(groups.len());
                for (v, cols) in &groups {
                    levels.push((level_of[*v as usize], cols[0]));
                    seq.extend(cols.iter().copied());
                }
                let idx = table.sorted_index_for_order(&seq);
                let key: Vec<Id> = consts.iter().map(|(_, id)| *id).collect();
                let (lo, hi) = idx.prefix_range(table, &key);
                let (data, init) = if needs_filter {
                    let ids: Vec<u32> = idx.rows()[lo..hi]
                        .iter()
                        .copied()
                        .filter(|&r| {
                            let row = table.row(r as usize);
                            groups
                                .iter()
                                .all(|(_, cols)| cols.iter().all(|&c| row[c] == row[cols[0]]))
                        })
                        .collect();
                    let len = ids.len() as u32;
                    (CursorData::RowsOwned { table, ids }, [0, len])
                } else {
                    (CursorData::Rows { table, idx }, [lo as u32, hi as u32])
                };
                cursors.push(Cursor {
                    data,
                    levels,
                    roff: 0,
                    init,
                });
            }
        }
    }
    if cursors.iter().any(|c| c.init[0] == c.init[1]) {
        return empty(plan);
    }

    // -- Range-stack offsets and per-level participants. -------------------
    let mut roff = 0usize;
    for cur in &mut cursors {
        cur.roff = roff;
        roff += cur.levels.len() + 1;
    }
    let mut parts: Vec<Vec<(u32, u32)>> = vec![Vec::new(); slots.len()];
    for (ci, cur) in cursors.iter().enumerate() {
        for (d, &(lvl, _)) in cur.levels.iter().enumerate() {
            parts[lvl as usize].push((ci as u32, d as u32));
        }
    }
    debug_assert!(parts.iter().all(|p| !p.is_empty()));

    let mut s = EvalScratch::take(n_slots, plan.atoms.len());
    s.lf_ranges.clear();
    s.lf_ranges.resize(roff, [0, 0]);
    s.lf_pos.clear();
    s.lf_pos.resize(cursors.len(), 0);
    for cur in &cursors {
        s.lf_ranges[cur.roff] = cur.init;
    }
    let ctx = Ctx {
        cursors,
        parts,
        slots,
        plan,
    };
    join(&ctx, &mut s, stats, 0);
    let (len, data) = s.out.drain();
    s.release();
    Answers::from_flat(plan.head.len(), len, data, true)
}

/// Joins one variable level: leapfrog the participants to agreement, bind,
/// narrow, descend, advance — until any participant exhausts its window.
fn join(ctx: &Ctx, s: &mut EvalScratch, stats: &mut EvalStats, level: usize) {
    if level == ctx.slots.len() {
        stats.lf_emitted += 1;
        emit(ctx.plan, s);
        return;
    }
    let slot = ctx.slots[level] as usize;
    let parts = &ctx.parts[level];
    // Open every participant's window; the intersection starts at the
    // largest first value.
    let mut max = Id(0);
    for &(c, d) in parts {
        let cur = &ctx.cursors[c as usize];
        let [lo, hi] = s.lf_ranges[cur.roff + d as usize];
        if lo == hi {
            return;
        }
        s.lf_pos[c as usize] = lo;
        let v = ctx.value(c as usize, cur.levels[d as usize].1, lo);
        if v > max {
            max = v;
        }
    }
    loop {
        // Leapfrog: seek every lagging cursor up to `max`; a full pass
        // with no raise means all participants sit on `max`.
        let mut raised = false;
        for &(c, d) in parts {
            let cu = c as usize;
            let cur = &ctx.cursors[cu];
            let col = cur.levels[d as usize].1;
            let pos = s.lf_pos[cu];
            if ctx.value(cu, col, pos) < max {
                let hi = s.lf_ranges[cur.roff + d as usize][1];
                stats.lf_seeks += 1;
                let np = ctx.seek(cu, col, pos, hi, max, false);
                if np == hi {
                    return;
                }
                s.lf_pos[cu] = np;
                let v = ctx.value(cu, col, np);
                if v > max {
                    max = v;
                    raised = true;
                }
            }
        }
        if raised {
            continue;
        }
        // Agreement: bind the value, narrow each participant to its run.
        s.frame[slot] = max;
        for &(c, d) in parts {
            let cu = c as usize;
            let cur = &ctx.cursors[cu];
            let roff = cur.roff + d as usize;
            let hi = s.lf_ranges[roff][1];
            stats.lf_seeks += 1;
            let end = ctx.seek(cu, cur.levels[d as usize].1, s.lf_pos[cu], hi, max, true);
            s.lf_ranges[roff + 1] = [s.lf_pos[cu], end];
        }
        join(ctx, s, stats, level + 1);
        // Advance past the run; any exhaustion ends the level.
        max = Id(0);
        for &(c, d) in parts {
            let cu = c as usize;
            let cur = &ctx.cursors[cu];
            let roff = cur.roff + d as usize;
            let next = s.lf_ranges[roff + 1][1];
            if next == s.lf_ranges[roff][1] {
                return;
            }
            s.lf_pos[cu] = next;
            let v = ctx.value(cu, cur.levels[d as usize].1, next);
            if v > max {
                max = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::compiled;
    use super::super::MixedAtom;
    use super::*;
    use rdf_query::{Atom, QTerm, Var};

    fn store_atoms(shape: &[[i64; 3]]) -> Vec<MixedAtom<'static>> {
        // Negative entries are constants, non-negative are variables.
        shape
            .iter()
            .map(|t| {
                let term = |x: i64| {
                    if x < 0 {
                        QTerm::Const(Id((-x) as u32))
                    } else {
                        QTerm::Var(Var(x as u32))
                    }
                };
                MixedAtom::Store(Atom([term(t[0]), term(t[1]), term(t[2])]))
            })
            .collect()
    }

    fn cyclic(shape: &[[i64; 3]]) -> bool {
        let plan = compiled::compile(&store_atoms(shape), &[]);
        is_cyclic(&plan)
    }

    #[test]
    fn gyo_classifies_shapes() {
        // Triangle: cyclic.
        assert!(cyclic(&[[0, -1, 1], [1, -2, 2], [2, -3, 0]]));
        // 4-cycle: cyclic.
        assert!(cyclic(&[[0, -1, 1], [1, -2, 2], [2, -3, 3], [3, -4, 0]]));
        // Diamond (two parallel 2-paths): cyclic.
        assert!(cyclic(&[[0, -1, 1], [1, -2, 3], [0, -3, 2], [2, -4, 3]]));
        // Chain: acyclic.
        assert!(!cyclic(&[[0, -1, 1], [1, -2, 2], [2, -3, 3]]));
        // Star: acyclic.
        assert!(!cyclic(&[[0, -1, 1], [0, -2, 2], [0, -3, 3]]));
        // Single atom, even with a repeated variable: acyclic.
        assert!(!cyclic(&[[0, -1, 0]]));
        // Two atoms always form an acyclic hypergraph.
        assert!(!cyclic(&[[0, -1, 1], [1, -2, 0]]));
        // Duplicate triangle atoms stay cyclic.
        assert!(cyclic(&[[0, -1, 1], [1, -2, 2], [2, -3, 0], [0, -1, 1],]));
        // Triangle with a pendant edge: still cyclic.
        assert!(cyclic(&[[0, -1, 1], [1, -2, 2], [2, -3, 0], [0, -4, 3],]));
        // Cartesian product of two edges: acyclic.
        assert!(!cyclic(&[[0, -1, 1], [2, -2, 3]]));
    }

    #[test]
    fn subset_on_sorted_slices() {
        assert!(subset(&[], &[1, 2]));
        assert!(subset(&[2], &[1, 2, 3]));
        assert!(subset(&[1, 3], &[1, 2, 3]));
        assert!(!subset(&[1, 4], &[1, 2, 3]));
        assert!(!subset(&[0], &[]));
    }
}
