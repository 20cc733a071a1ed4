//! The compiled, index-native, projection-aware join core.
//!
//! [`compile`] turns a query into a [`CompiledPlan`] once: variables get
//! dense slot numbers (so the bindings frame is a flat vector plus an undo
//! trail, not a hash map) and every atom becomes a pre-resolved access
//! path. [`execute`] then runs a backtracking join in which
//!
//! * store atoms iterate **directly** over `Arc`-shared sorted index
//!   ranges ([`TripleStore::pattern_range`]) — no per-node `Vec<Triple>`
//!   materialization;
//! * view atoms probe the table's resident hash indexes
//!   ([`ViewTable::index_for_mask`], a lock-free lookup) and walk the
//!   matching bucket — full rows in one contiguous slice — in place; a
//!   fully unbound view atom walks the table's rows directly;
//! * the atom order is chosen **adaptively per depth**: the atom with the
//!   smallest bound-prefix extent (`match_count` / index-bucket length)
//!   under the current bindings runs next, and a zero-extent atom prunes
//!   the subtree immediately;
//! * **enumeration stops where the answer is decided.** Queries are
//!   conjunctive under set semantics, so once every head term is a
//!   constant or a bound slot the atoms still to run can only say whether
//!   the head tuple in hand has *a* witness, not produce another one.
//!   Every step therefore reports whether its subtree found a witness,
//!   and below the point of decision each row loop ends at the first one.
//!   A boolean query (empty head) is decided from the start and stops at
//!   its first match; a head variable missing from the body is never
//!   bound, so the rule never fires and emitting panics as documented.
//!   The same head tuple can still be reached from different bindings of
//!   variables bound *before* the decision, so output still goes through
//!   the dedup set;
//! * per-column bind/check ops are computed once per recursion node, so
//!   the per-row work is a handful of array reads — **no heap allocation
//!   in the inner loop** (frame, trail, keys and output staging all come
//!   from the pooled [`EvalScratch`]).

use rdf_model::{FxHashMap, Id, StorePattern, TripleStore};
use rdf_query::{QTerm, Var};

use super::scratch::{ColAction, EvalScratch};
use super::{EvalAtom, EvalStats};
use crate::answers::Answers;
use crate::view_table::ViewTable;

/// A compiled term: a constant or a dense variable slot.
#[derive(Debug, Clone, Copy)]
pub(super) enum CTerm {
    Const(Id),
    Slot(u32),
}

/// A compiled atom: its access-path kind plus slot-resolved terms.
pub(super) enum CAtom<'a> {
    Store {
        terms: [CTerm; 3],
    },
    View {
        table: &'a ViewTable,
        terms: Vec<CTerm>,
    },
}

impl CAtom<'_> {
    /// The atom's terms as a slice, whichever access path it uses.
    pub(super) fn terms(&self) -> &[CTerm] {
        match self {
            CAtom::Store { terms } => terms,
            CAtom::View { terms, .. } => terms,
        }
    }
}

/// A query compiled for the index-native core — shared by the backtracking
/// executor here and the leapfrog executor in [`super::wcoj`].
pub(super) struct CompiledPlan<'a> {
    pub(super) atoms: Vec<CAtom<'a>>,
    pub(super) head: Vec<CTerm>,
    pub(super) n_slots: usize,
}

/// Compiles atoms and head into dense slots and access paths.
pub(super) fn compile<'a>(atoms: Vec<EvalAtom<'a>>, head: &[QTerm]) -> CompiledPlan<'a> {
    let mut slots: FxHashMap<Var, u32> = FxHashMap::default();
    let mut cterm = |t: &QTerm| -> CTerm {
        match t {
            QTerm::Const(c) => CTerm::Const(*c),
            QTerm::Var(v) => {
                let next = slots.len() as u32;
                CTerm::Slot(*slots.entry(*v).or_insert(next))
            }
        }
    };
    let atoms = atoms
        .into_iter()
        .map(|a| match a {
            EvalAtom::Store { atom } => CAtom::Store {
                terms: [
                    cterm(&atom.terms()[0]),
                    cterm(&atom.terms()[1]),
                    cterm(&atom.terms()[2]),
                ],
            },
            EvalAtom::View { table, args } => CAtom::View {
                table,
                terms: args.iter().map(&mut cterm).collect(),
            },
        })
        .collect();
    // Head variables missing from the body get fresh (never-bound) slots;
    // emitting then panics with the same "unsafe query" contract as the
    // legacy core.
    let head = head.iter().map(&mut cterm).collect();
    CompiledPlan {
        atoms,
        head,
        n_slots: slots.len(),
    }
}

/// Runs a compiled plan with pooled scratch memory. `stats.engine` is set
/// by the caller; the visited-row count accumulates here.
pub(super) fn execute(store: &TripleStore, plan: &CompiledPlan, stats: &mut EvalStats) -> Answers {
    let mut scratch = EvalScratch::take(plan.n_slots, plan.atoms.len());
    recurse(store, plan, &mut scratch, 0, false);
    stats.rows_visited += scratch.rows_visited;
    let answers = Answers::from_distinct(plan.head.len(), scratch.drain_out());
    scratch.release();
    answers
}

#[inline]
fn value_of(t: CTerm, frame: &[Option<Id>]) -> Option<Id> {
    match t {
        CTerm::Const(c) => Some(c),
        CTerm::Slot(s) => frame[s as usize],
    }
}

#[inline]
fn store_pattern(terms: &[CTerm; 3], frame: &[Option<Id>]) -> StorePattern {
    StorePattern::new(
        value_of(terms[0], frame),
        value_of(terms[1], frame),
        value_of(terms[2], frame),
    )
}

/// Joins the atoms still unplaced at `depth` and reports whether any
/// binding satisfied them all. `decided` says an ancestor already found
/// every head term bound; once it holds here, the first witness ends the
/// row loop.
fn recurse(
    store: &TripleStore,
    plan: &CompiledPlan,
    s: &mut EvalScratch,
    depth: usize,
    decided: bool,
) -> bool {
    let n = plan.atoms.len();
    if depth == n {
        emit(plan, s);
        return true;
    }
    if depth + 1 < n {
        // Adaptive per-depth ordering: pick the remaining atom with the
        // smallest extent under the current bindings. With one atom left
        // the pick is forced and the estimate would duplicate the access
        // path's own lookup, so this block is skipped.
        let mut key = std::mem::take(&mut s.keys[depth]);
        let mut best_pos = depth;
        let mut best_est = usize::MAX;
        for pos in depth..n {
            let est = match &plan.atoms[s.order[pos] as usize] {
                CAtom::Store { terms } => store.match_count(&store_pattern(terms, &s.frame)),
                CAtom::View { table, terms } => {
                    key.clear();
                    let mut mask = 0u64;
                    for (c, t) in terms.iter().enumerate() {
                        if let Some(v) = value_of(*t, &s.frame) {
                            mask |= 1 << c;
                            key.push(v);
                        }
                    }
                    if mask == 0 {
                        table.len()
                    } else {
                        table.index_for_mask(mask).rows_for(&key).len()
                    }
                }
            };
            if est < best_est {
                best_est = est;
                best_pos = pos;
                if est == 0 {
                    break;
                }
            }
        }
        s.keys[depth] = key;
        if best_est == 0 {
            // Some atom has no matches under the current bindings: the
            // whole subtree is dead, whatever order the others run in.
            return false;
        }
        s.order.swap(depth, best_pos);
    }
    let decided = decided || plan.head.iter().all(|t| value_of(*t, &s.frame).is_some());
    match &plan.atoms[s.order[depth] as usize] {
        CAtom::Store { terms } => iter_store(store, plan, s, depth, decided, terms),
        CAtom::View { table, terms } => iter_view(store, plan, s, depth, decided, table, terms),
    }
}

/// Applies `rows` one by one and reports whether any led to a witness —
/// stopping at the first when the head tuple is already `decided`.
#[inline]
fn apply_rows<'r>(
    store: &TripleStore,
    plan: &CompiledPlan,
    s: &mut EvalScratch,
    depth: usize,
    decided: bool,
    acts: &[ColAction],
    rows: impl Iterator<Item = &'r [Id]>,
) -> bool {
    let mut found = false;
    for row in rows {
        if apply_row(store, plan, s, depth, decided, acts, row) {
            if decided {
                return true;
            }
            found = true;
        }
    }
    found
}

/// Iterates a store atom over the matching sorted-index range. The range
/// guarantees every bound column, so per-row work is only binding fresh
/// slots (plus intra-atom repeated-variable checks).
fn iter_store(
    store: &TripleStore,
    plan: &CompiledPlan,
    s: &mut EvalScratch,
    depth: usize,
    decided: bool,
    terms: &[CTerm; 3],
) -> bool {
    let pat = store_pattern(terms, &s.frame);
    let range = store.pattern_range(&pat);
    let mut acts = [ColAction::Skip; 3];
    for c in 0..3 {
        if let CTerm::Slot(slot) = terms[c] {
            if s.frame[slot as usize].is_none() {
                let bound_earlier = acts[..c]
                    .iter()
                    .any(|a| matches!(a, ColAction::Bind(b) if *b == slot));
                acts[c] = if bound_earlier {
                    ColAction::Check(slot)
                } else {
                    ColAction::Bind(slot)
                };
            }
        }
    }
    let rows = range.as_slice().iter().map(|t| &t[..]);
    apply_rows(store, plan, s, depth, decided, &acts, rows)
}

/// Iterates a view atom over its bucket in the hash index for the
/// bound-column mask — or directly over the rows when nothing is bound yet.
fn iter_view(
    store: &TripleStore,
    plan: &CompiledPlan,
    s: &mut EvalScratch,
    depth: usize,
    decided: bool,
    table: &ViewTable,
    terms: &[CTerm],
) -> bool {
    let mut key = std::mem::take(&mut s.keys[depth]);
    let mut acts = std::mem::take(&mut s.actions[depth]);
    key.clear();
    acts.clear();
    let mut mask = 0u64;
    for (c, t) in terms.iter().enumerate() {
        if let Some(v) = value_of(*t, &s.frame) {
            mask |= 1 << c;
            key.push(v);
            acts.push(ColAction::Skip);
        } else if let CTerm::Slot(slot) = *t {
            let bound_earlier = acts
                .iter()
                .any(|a| matches!(a, ColAction::Bind(b) if *b == slot));
            acts.push(if bound_earlier {
                ColAction::Check(slot)
            } else {
                ColAction::Bind(slot)
            });
        }
    }
    let found = if mask == 0 {
        // Fully unbound scan: walk the rows directly, no hash index.
        apply_rows(store, plan, s, depth, decided, &acts, table.rows())
    } else {
        let rows = table.index_for_mask(mask).rows_for(&key);
        apply_rows(store, plan, s, depth, decided, &acts, rows)
    };
    s.keys[depth] = key;
    s.actions[depth] = acts;
    found
}

/// Applies one row under the node's precomputed column ops, recursing on
/// success and unwinding the trail either way; reports whether the row led
/// to a witness. No allocation.
#[inline]
fn apply_row(
    store: &TripleStore,
    plan: &CompiledPlan,
    s: &mut EvalScratch,
    depth: usize,
    decided: bool,
    acts: &[ColAction],
    values: &[Id],
) -> bool {
    s.rows_visited += 1;
    let mark = s.trail.len();
    let mut ok = true;
    for (c, act) in acts.iter().enumerate() {
        match *act {
            ColAction::Skip => {}
            ColAction::Bind(slot) => {
                s.frame[slot as usize] = Some(values[c]);
                s.trail.push(slot);
            }
            ColAction::Check(slot) => {
                if s.frame[slot as usize] != Some(values[c]) {
                    ok = false;
                    break;
                }
            }
        }
    }
    let found = ok && recurse(store, plan, s, depth + 1, decided);
    while s.trail.len() > mark {
        // xlint: allow(X001, reason = "mark was captured from this trail's len before the pushes")
        let slot = s.trail.pop().expect("trail mark within bounds");
        s.frame[slot as usize] = None;
    }
    found
}

/// Emits the current head tuple into the output staging set.
fn emit(plan: &CompiledPlan, s: &mut EvalScratch) {
    s.tuple.clear();
    for t in &plan.head {
        s.tuple.push(match t {
            CTerm::Const(c) => *c,
            CTerm::Slot(slot) => {
                // xlint: allow(X001, reason = "compile() rejects unsafe queries, so head slots are bound at emit depth")
                s.frame[*slot as usize].expect("unsafe query: unbound head variable")
            }
        });
    }
    s.out.insert(&s.tuple);
}
