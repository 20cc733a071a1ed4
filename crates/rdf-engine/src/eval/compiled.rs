//! The compiled, index-native, projection-aware join core.
//!
//! [`compile`] turns a query into a [`CompiledPlan`]: variables get dense
//! slot numbers, so the bindings frame is a flat `Vec<Id>`. [`execute`]
//! then runs a backtracking join that places one atom per depth, choosing
//! at every node the remaining atom with the fewest matching rows under the
//! bindings so far.
//!
//! **Extents.** The matching rows of an atom under given bindings are an
//! [`Extent`]: a borrowed row-major slice and its row count. A view atom's
//! extent is a bucket of the table's resident hash index for the bound
//! columns ([`ViewIndex::bucket`]) or, with nothing bound, the table; a
//! store atom's is a binary-searched range of a permutation run, or the
//! whole store. The count is what the choice of the next atom compares and
//! the slice is what the chosen atom then walks, so an atom is looked up
//! once per binding of its variables, not once to be sized and again to be
//! read. Store runs are fetched from the store once per call ([`Runs`]) and
//! searched as plain slices: inside the join there is no lock and no
//! reference count.
//!
//! **Levels.** `levels[d]` holds the extent of every atom still unplaced at
//! depth `d`. A row of the atom running at depth `d` that passes its
//! checks fills level `d + 1`: an atom none of whose variables the row
//! bound keeps the extent it had, the others are looked up again, and the
//! first empty extent abandons the row — an atom without matches kills the
//! subtree whatever order the others would run in.
//!
//! **Node programs.** Which columns of the running atom bind a slot, which
//! only re-check one, whether the head is already decided, and for every
//! remaining atom whether it keeps its extent or how its lookup key is
//! assembled: all of that depends on *which atoms are placed*, not on the
//! row in hand. It is worked out once, as a [`Program`], and reused for
//! every row of the node. One program is cached per depth, keyed by its
//! atom and by the identity of the program one level up; rows that keep
//! choosing the same next atom — nearly all do — pay for nothing but their
//! own columns, and a row that chooses differently rebuilds the program at
//! the cost of one pass over the atoms' terms. Because a program fixes
//! which slots are bound, the frame needs no `Option` and no undo trail: a
//! slot is only ever read by a program in which it is bound.
//!
//! **Enumeration stops where the answer is decided.** Queries are
//! conjunctive under set semantics, so once every head term is a constant
//! or a bound slot the atoms still to run can only say whether the head
//! tuple in hand has *a* witness, not produce another one. Every node
//! reports whether its subtree found a witness, and below the point of
//! decision each row loop ends at the first one. A boolean query is decided
//! from the start and stops at its first match. The same head tuple can
//! still be reached from different bindings of variables bound *before*
//! the decision, so output goes through the dedup set. A head variable
//! missing from the body is never bound; emitting then panics.
//!
//! All working memory — frame, programs, levels, staging — is pooled in
//! [`EvalScratch`], so a call allocates nothing but its answer.

use std::cell::OnceCell;
use std::sync::Arc;

use rdf_model::{prefix_range, Id, IndexOrder, StorePattern, Triple, TripleStore};
use rdf_query::{QTerm, Var};

use super::scratch::EvalScratch;
use super::{EvalStats, MixedAtom};
use crate::answers::Answers;
use crate::view_table::{ViewIndex, ViewTable};

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
    /// Whether every head variable occurs in the body.
    safe: bool,
}

/// The compiled form of `t`. A slot is a variable's position in `vars`;
/// queries have a handful of variables, so finding one is a short scan, not
/// a hash.
fn cterm(vars: &mut Vec<Var>, t: &QTerm) -> CTerm {
    match t {
        QTerm::Const(c) => CTerm::Const(*c),
        QTerm::Var(v) => {
            let slot = vars.iter().position(|x| x == v).unwrap_or_else(|| {
                vars.push(*v);
                vars.len() - 1
            });
            CTerm::Slot(slot as u32)
        }
    }
}

/// Compiles atoms and head into dense slots and access paths.
pub(super) fn compile<'a>(atoms: &[MixedAtom<'a>], head: &[QTerm]) -> CompiledPlan<'a> {
    let vars = &mut Vec::new();
    let atoms: Vec<CAtom> = atoms
        .iter()
        .map(|a| match a {
            MixedAtom::Store(atom) => {
                let [s, p, o] = atom.terms();
                CAtom::Store {
                    terms: [cterm(vars, s), cterm(vars, p), cterm(vars, o)],
                }
            }
            MixedAtom::View(va) => {
                assert_eq!(va.args.len(), va.table.arity(), "view atom arity mismatch");
                CAtom::View {
                    table: va.table,
                    terms: va.args.iter().map(|t| cterm(vars, t)).collect(),
                }
            }
        })
        .collect();
    // Head variables missing from the body get fresh slots no atom binds.
    let body_slots = vars.len();
    let head = head.iter().map(|t| cterm(vars, t)).collect();
    CompiledPlan {
        atoms,
        head,
        n_slots: vars.len(),
        safe: vars.len() == body_slots,
    }
}

/// Stages the head tuple the frame currently spells out.
pub(super) fn emit(plan: &CompiledPlan, s: &mut EvalScratch) {
    assert!(plan.safe, "unsafe query: unbound head variable");
    s.tuple.clear();
    s.tuple
        .extend(plan.head.iter().map(|t| value_of(*t, &s.frame)));
    s.out.insert(&s.tuple);
}

#[inline]
fn value_of(t: CTerm, frame: &[Id]) -> Id {
    match t {
        CTerm::Const(c) => c,
        CTerm::Slot(s) => frame[s as usize],
    }
}

/// The store's permutation runs, each fetched — one lock, one `Arc` clone —
/// the first time the call needs it and borrowed from here ever after.
struct Runs<'s> {
    store: &'s TripleStore,
    cells: [OnceCell<Arc<Vec<Triple>>>; 6],
}

impl Runs<'_> {
    fn get(&self, order: IndexOrder) -> &[Triple] {
        self.cells[order as usize].get_or_init(|| self.store.index(order))
    }
}

/// The rows of one atom that match the current bindings: `rows` of them,
/// row-major in `ids`. (A store atom with nothing bound has every triple
/// for its rows and leaves `ids` empty; the run is fetched only if the atom
/// is in fact walked unbound — see [`Program::scan_store`].)
#[derive(Debug, Clone, Copy)]
pub(super) struct Extent<'a> {
    ids: &'a [Id],
    rows: usize,
}

/// How a program brings one remaining atom's extent up to date. `key` is
/// the `(start, len)` of the lookup key's sources in the program's stretch
/// of [`EvalScratch::srcs`].
#[derive(Debug, Clone, Copy)]
pub(super) enum Step<'a> {
    /// The program's atom binds none of this atom's variables: the extent
    /// one level up still holds.
    Inherit,
    /// Nothing is bound (which only the root program can find): the whole
    /// table, or the whole store.
    Scan,
    /// A view atom with the columns of `mask` bound: one bucket of the
    /// table's index for that mask. The index is resolved on first use,
    /// not when the program is built, so a step that never runs builds
    /// none.
    Bucket {
        table: &'a ViewTable,
        mask: u64,
        index: Option<&'a ViewIndex>,
        key: (u32, u32),
    },
    /// A store atom with a sort prefix of `order` bound: a range of that
    /// run.
    Range { order: IndexOrder, key: (u32, u32) },
}

/// What the running atom does with a column its extent does not already
/// guarantee. (Constants and slots bound earlier are part of the lookup
/// key, so those columns need nothing.)
#[derive(Debug, Clone, Copy)]
pub(super) enum ColOp {
    /// First occurrence of an unbound variable: the value goes to its slot.
    Bind { col: u32, slot: u32 },
    /// A variable an earlier column of this same atom binds: compare.
    Check { col: u32, slot: u32 },
}

/// Everything about a node that depends only on which atoms are placed.
/// Program `k` runs the atom placed at depth `k - 1` and fills level `k`;
/// program 0 runs no atom and fills level 0 from the constants alone. Its
/// column ops and its steps live in the `k`-th stretches of the scratch
/// arrays.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Program {
    /// The cache key: the atom this program runs, and the id of the
    /// program that filled the level it was chosen from.
    atom: u32,
    parent: u64,
    /// Unique within the call; 0 marks a program not built yet (no program
    /// has a parent 0, so such an entry never matches).
    id: u64,
    /// Every head term is bound before this atom runs: its first row with
    /// a witness is as good as all of them.
    decided: bool,
    /// The atom is a store atom that runs with nothing bound, so its rows
    /// are the whole `Spo` run rather than the extent's slice.
    scan_store: bool,
    n_ops: u32,
}

/// One call's join: the plan, the data it borrows, and the pooled memory.
struct Join<'j> {
    plan: &'j CompiledPlan<'j>,
    runs: &'j Runs<'j>,
    s: &'j mut EvalScratch,
    /// `steps[k * n + a]`: what program `k` does for atom `a`.
    steps: Vec<Step<'j>>,
    /// `levels[d * n + a]`: the extent of atom `a` at depth `d`.
    levels: Vec<Extent<'j>>,
    n: usize,
    /// Widest atom: the length of a program's stretch of `ops`.
    max_arity: usize,
    /// Terms over all atoms: the length of a program's stretch of `srcs`.
    width: usize,
    next_id: u64,
    rows_visited: u64,
    probes: u64,
}

/// Runs a compiled plan with pooled scratch memory. `stats.engine` is set
/// by the caller; the row and probe counts accumulate here.
pub(super) fn execute(store: &TripleStore, plan: &CompiledPlan, stats: &mut EvalStats) -> Answers {
    let runs = Runs {
        store,
        cells: Default::default(),
    };
    let mut s = EvalScratch::take(plan.n_slots, plan.atoms.len());
    let (steps, levels) = (std::mem::take(&mut s.steps), std::mem::take(&mut s.levels));
    let mut join = Join {
        plan,
        runs: &runs,
        s: &mut s,
        steps,
        levels,
        n: plan.atoms.len(),
        max_arity: plan
            .atoms
            .iter()
            .map(|a| a.terms().len())
            .max()
            .unwrap_or(0),
        width: plan.atoms.iter().map(|a| a.terms().len()).sum(),
        next_id: 1,
        rows_visited: 0,
        probes: 0,
    };
    join.run();
    stats.rows_visited += join.rows_visited;
    stats.probes += join.probes;
    let (steps, levels) = (park(join.steps), park(join.levels));
    s.steps = steps;
    s.levels = levels;
    let (len, data) = s.out.drain();
    s.release();
    Answers::from_flat(plan.head.len(), len, data, true)
}

/// An emptied vector owes nothing to the lifetime of what it held: this
/// hands its allocation to a vector of another element type of the same
/// layout — here the same type under `'static`, which is what lets the
/// pool keep buffers whose elements borrowed from one call's tables. The
/// standard library collects an adapter over `vec::IntoIter` in place; were
/// it ever to stop, the pool would merely start each call with an empty
/// buffer.
fn park<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().filter_map(|_| None).collect()
}

impl<'j> Join<'j> {
    fn run(&mut self) {
        let n = self.n;
        if n == 0 {
            emit(self.plan, self.s);
            return;
        }
        self.steps.clear();
        self.steps.resize(n * n, Step::Inherit);
        self.levels.clear();
        self.levels.resize(n * n, Extent { ids: &[], rows: 0 });
        let s = &mut *self.s;
        s.programs.clear();
        s.programs.resize(n + 1, Program::default());
        s.ops.clear();
        s.ops
            .resize((n + 1) * self.max_arity, ColOp::Bind { col: 0, slot: 0 });
        s.srcs.clear();
        s.srcs.resize(n * self.width, CTerm::Slot(0));
        s.stamps.clear();
        s.stamps.resize(self.plan.n_slots, 0);
        self.build(0, 0, 0);
        if let Some(pos) = self.fill(0) {
            self.s.order.swap(0, pos);
            self.node(0, self.s.programs[0].id);
        }
    }

    /// Runs the atom at `order[d]` over its extent in level `d` and reports
    /// whether any row led to a witness — stopping at the first when the
    /// head tuple is already decided. `parent` is the program that filled
    /// level `d`.
    fn node(&mut self, d: usize, parent: u64) -> bool {
        let (n, k) = (self.n, d + 1);
        let a = self.s.order[d];
        let cached = self.s.programs[k];
        if cached.atom != a || cached.parent != parent {
            self.build(k, a, parent);
        }
        let Program {
            id,
            decided,
            scan_store,
            n_ops,
            ..
        } = self.s.programs[k];
        let extent = self.levels[d * n + a as usize];
        let (ids, arity) = match &self.plan.atoms[a as usize] {
            CAtom::Store { .. } if scan_store => (self.runs.get(IndexOrder::Spo).as_flattened(), 3),
            CAtom::Store { .. } => (extent.ids, 3),
            // `max(1)`: a table without columns reports no rows, and an
            // empty slice has no chunks of any width.
            CAtom::View { table, .. } => (extent.ids, table.arity().max(1)),
        };
        let ops = k * self.max_arity..k * self.max_arity + n_ops as usize;
        let mut found = false;
        for row in ids.chunks_exact(arity) {
            self.rows_visited += 1;
            if !self.apply(ops.clone(), row) {
                continue;
            }
            let witness = if k == n {
                emit(self.plan, self.s);
                true
            } else if let Some(pos) = self.fill(k) {
                self.s.order.swap(k, pos);
                self.node(k, id)
            } else {
                false
            };
            if witness {
                if decided {
                    return true;
                }
                found = true;
            }
        }
        found
    }

    /// Binds and checks one row's open columns.
    #[inline]
    fn apply(&mut self, ops: std::ops::Range<usize>, row: &[Id]) -> bool {
        let s = &mut *self.s;
        for op in &s.ops[ops] {
            match *op {
                ColOp::Bind { col, slot } => s.frame[slot as usize] = row[col as usize],
                ColOp::Check { col, slot } => {
                    if s.frame[slot as usize] != row[col as usize] {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Fills level `k` by program `k`, atom by atom in the order the
    /// remaining atoms stand in, and returns the position of the first
    /// smallest extent — or `None` at the first empty one, before the
    /// atoms behind it are looked up.
    fn fill(&mut self, k: usize) -> Option<usize> {
        let n = self.n;
        let (mut best, mut best_pos) = (usize::MAX, k);
        for pos in k..n {
            let a = self.s.order[pos] as usize;
            let extent = self.extent(k, a);
            self.levels[k * n + a] = extent;
            if extent.rows < best {
                best = extent.rows;
                best_pos = pos;
                if best == 0 {
                    return None;
                }
            }
        }
        Some(best_pos)
    }

    /// The extent of atom `a` under the current bindings, by program `k`'s
    /// step for it.
    #[inline]
    fn extent(&mut self, k: usize, a: usize) -> Extent<'j> {
        let s = &mut *self.s;
        let at = k * self.n + a;
        let srcs = &s.srcs[k * self.width..];
        match self.steps[at] {
            Step::Inherit => self.levels[at - self.n],
            Step::Scan => match &self.plan.atoms[a] {
                CAtom::View { table, .. } => Extent {
                    ids: table.cells(),
                    rows: table.len(),
                },
                CAtom::Store { .. } => Extent {
                    ids: &[],
                    rows: self.runs.store.len(),
                },
            },
            Step::Bucket {
                table,
                mask,
                index,
                key: (start, len),
            } => {
                let index = index.unwrap_or_else(|| {
                    let index = table.index_for_mask(mask);
                    self.steps[at] = Step::Bucket {
                        table,
                        mask,
                        index: Some(index),
                        key: (start, len),
                    };
                    index
                });
                let srcs = &srcs[start as usize..][..len as usize];
                s.key.clear();
                s.key.extend(srcs.iter().map(|t| value_of(*t, &s.frame)));
                self.probes += 1;
                let (ids, rows) = index.bucket(&s.key);
                Extent { ids, rows }
            }
            Step::Range {
                order,
                key: (start, len),
            } => {
                let mut key = [Id(0); 3];
                for (k, t) in key.iter_mut().zip(&srcs[start as usize..][..len as usize]) {
                    *k = value_of(*t, &s.frame);
                }
                self.probes += 1;
                let run = self.runs.get(order);
                let range = prefix_range(run, order, &key[..len as usize]);
                Extent {
                    rows: range.len(),
                    ids: run[range].as_flattened(),
                }
            }
        }
    }

    /// Builds program `k` for `atom`, chosen from the level `parent`
    /// filled (`k == 0`: the root program, which has neither). One pass
    /// over the terms of the placed atoms, the head and the remaining
    /// atoms — what every *row* used to cost.
    fn build(&mut self, k: usize, atom: u32, parent: u64) {
        let (n, plan) = (self.n, self.plan);
        let s = &mut *self.s;
        // stamps[slot]: 0 while unbound, else 1 + the depth of the atom
        // that binds it. This program's own atom stamps `k`.
        let stamp = k as u32;
        s.stamps.fill(0);
        for (depth, &placed) in s.order[..k.saturating_sub(1)].iter().enumerate() {
            for t in plan.atoms[placed as usize].terms() {
                if let CTerm::Slot(slot) = *t {
                    if s.stamps[slot as usize] == 0 {
                        s.stamps[slot as usize] = depth as u32 + 1;
                    }
                }
            }
        }
        let decided = plan.head.iter().all(|t| match *t {
            CTerm::Const(_) => true,
            CTerm::Slot(slot) => s.stamps[slot as usize] != 0,
        });
        let (mut n_ops, mut scan_store) = (0, false);
        if k > 0 {
            let running = &plan.atoms[atom as usize];
            let mut open = 0;
            for (col, t) in running.terms().iter().enumerate() {
                let CTerm::Slot(slot) = *t else { continue };
                let (col, at) = (col as u32, &mut s.stamps[slot as usize]);
                let op = if *at == 0 {
                    *at = stamp;
                    ColOp::Bind { col, slot }
                } else if *at == stamp {
                    ColOp::Check { col, slot }
                } else {
                    continue;
                };
                s.ops[k * self.max_arity + n_ops] = op;
                n_ops += 1;
                open += 1;
            }
            scan_store = matches!(running, CAtom::Store { .. }) && open == 3;
        }
        let mut srcs_at = 0;
        for &a in &s.order[k..] {
            let (a, terms) = (a as usize, plan.atoms[a as usize].terms());
            // Level 0 has no level above it to inherit from.
            let touched = k == 0
                || terms
                    .iter()
                    .any(|t| matches!(*t, CTerm::Slot(slot) if s.stamps[slot as usize] == stamp));
            let bound = |t: &CTerm| match *t {
                CTerm::Const(_) => true,
                CTerm::Slot(slot) => s.stamps[slot as usize] != 0,
            };
            let start = srcs_at;
            let out = &mut s.srcs[k * self.width..];
            self.steps[k * n + a] = if !touched {
                Step::Inherit
            } else if let CAtom::View { table, .. } = plan.atoms[a] {
                let mut mask = 0u64;
                for (col, t) in terms.iter().enumerate().filter(|(_, t)| bound(t)) {
                    mask |= 1 << col;
                    out[srcs_at] = *t;
                    srcs_at += 1;
                }
                if mask == 0 {
                    Step::Scan
                } else {
                    Step::Bucket {
                        table,
                        mask,
                        index: None,
                        key: (start as u32, (srcs_at - start) as u32),
                    }
                }
            } else {
                // The run whose sort prefix is the bound columns, found by
                // the store's own rule on a pattern with those columns set.
                let mark = |t: &CTerm| bound(t).then_some(Id(0));
                let pattern = StorePattern::new(mark(&terms[0]), mark(&terms[1]), mark(&terms[2]));
                let (order, _, len) = IndexOrder::for_pattern(&pattern);
                for &col in &order.perm()[..len] {
                    out[srcs_at] = terms[col];
                    srcs_at += 1;
                }
                if len == 0 {
                    Step::Scan
                } else {
                    Step::Range {
                        order,
                        key: (start as u32, len as u32),
                    }
                }
            };
        }
        s.programs[k] = Program {
            atom,
            parent,
            id: self.next_id,
            decided,
            scan_store,
            n_ops: n_ops as u32,
        };
        self.next_id += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_parked_vector_keeps_its_allocation() {
        let ids = [Id(7), Id(8)];
        let mut levels: Vec<Extent<'_>> = Vec::with_capacity(64);
        levels.push(Extent { ids: &ids, rows: 2 });
        let (ptr, cap) = (levels.as_ptr() as usize, levels.capacity());
        let parked: Vec<Extent<'static>> = park(levels);
        assert!(parked.is_empty());
        assert_eq!((parked.as_ptr() as usize, parked.capacity()), (ptr, cap));
    }
}
