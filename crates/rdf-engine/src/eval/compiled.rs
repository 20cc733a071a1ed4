//! The compiled, index-native, projection-aware join core.
//!
//! [`compile`] turns a query into a [`CompiledPlan`]: variables get dense
//! slot numbers, so the bindings frame is a flat `Vec<Id>`. [`execute`]
//! then runs a backtracking join that places one atom per depth, choosing
//! at every node the remaining atom with the fewest matching rows under the
//! bindings so far — or, where that atom and others leave one variable
//! open, places them together by intersecting their extents.
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
//! reference count. Rows walked in a run's order look the next atom up in
//! that order too, so a store lookup reuses or goes on from the step's
//! last one: a repeated key costs no search and a nearby later one a few
//! compares, not a search of the run.
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
//! **Lonely variables are checked, not enumerated.** A variable that
//! occurs once in the body and not in the head is *lonely*: no other atom
//! joins on it and no answer shows it, so which value it takes cannot
//! matter, only that it takes one. [`compile`] marks every lonely slot and
//! the executor never binds one. A remaining atom whose unbound terms are
//! all lonely is *settled* by its extent alone — `fill` has looked it up
//! and found it non-empty — so it is never chosen to run, and a node whose
//! remaining atoms are all settled emits. A running atom leaves its lonely
//! columns unbound and skips every row equal to the row before it on the
//! columns it binds or checks; a store atom's range is taken from the run
//! that sorts those columns before its lonely ones, so such repeats are
//! adjacent. A star whose `k` arms end in lonely variables thus costs its
//! subjects, not the product of the arms' fan-outs. A plan without a
//! lonely variable runs the plain loop: no settled-atom test in `fill`, no
//! repeat compare per row.
//!
//! **Intersect nodes.** Where two or more remaining atoms each leave one
//! term unbound, all the same variable `v`, each extent is already sorted
//! on `v`: a store extent is a range of a run whose sort prefix is the
//! other two columns, and a view extent is a bucket of the index on all
//! the other columns, whose rows keep the table's lexicographic order. So
//! when the smallest extent of a node is such an atom's, the node places
//! the whole group at once: it gallops the extents side by side to the
//! values they share, binds `v` to each and descends — it never walks one
//! extent to probe the others. On a triangle, once `R(x, y)` is placed,
//! `S(y, ·)` and `T(x, ·)` meet on `z` at the cost of their common values
//! and the gaps between, not of one of the two blocks. Which atoms group
//! is fixed by the bound slots, so it is worked out with the program that
//! fills the level; whether a node intersects or runs an atom follows from
//! which extent is smallest.
//!
//! All working memory — frame, programs, levels, staging — is pooled in
//! [`EvalScratch`], so a call allocates nothing but its answer.

use std::cell::OnceCell;
use std::sync::Arc;

use rdf_model::{
    prefix_range, prefix_range_from, Id, IndexOrder, StorePattern, Triple, TripleStore,
};
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
enum CAtom<'a> {
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
    fn terms(&self) -> &[CTerm] {
        match self {
            CAtom::Store { terms } => terms,
            CAtom::View { terms, .. } => terms,
        }
    }

    /// The width of the rows its extents hold.
    fn width(&self) -> usize {
        match self {
            CAtom::Store { .. } => 3,
            CAtom::View { table, .. } => table.arity(),
        }
    }
}

/// A query compiled for the index-native core.
pub(super) struct CompiledPlan<'a> {
    atoms: Vec<CAtom<'a>>,
    head: Vec<CTerm>,
    n_slots: usize,
    /// Bit `s`: slot `s` is lonely — its variable occurs once in the body
    /// and not in the head, so no answer depends on its value. Slots past
    /// 63, and every slot of a plan of more than 64 atoms (a program keeps
    /// its settled atoms as a 64-bit mask), are never marked.
    lonely: u64,
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
    let head: Vec<CTerm> = head.iter().map(|t| cterm(vars, t)).collect();
    // The slots the body uses once, and those it uses more often.
    let (mut once, mut more) = (0, 0);
    for t in atoms.iter().flat_map(CAtom::terms) {
        more |= once & slot_bit(*t);
        once |= slot_bit(*t);
    }
    let in_head = head.iter().fold(0, |m, t| m | slot_bit(*t));
    CompiledPlan {
        lonely: if atoms.len() <= 64 {
            once & !more & !in_head
        } else {
            0
        },
        atoms,
        head,
        n_slots: vars.len(),
        safe: vars.len() == body_slots,
    }
}

/// The bit of a slot term in a 64-bit slot mask; none for a constant or a
/// slot past 63.
fn slot_bit(t: CTerm) -> u64 {
    match t {
        CTerm::Slot(slot) => 1u64.checked_shl(slot).unwrap_or(0),
        CTerm::Const(_) => 0,
    }
}

impl CompiledPlan<'_> {
    fn is_lonely(&self, t: CTerm) -> bool {
        self.lonely & slot_bit(t) != 0
    }
}

/// Stages the head tuple the frame currently spells out.
fn emit(plan: &CompiledPlan, s: &mut EvalScratch) {
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

/// The remaining atoms a level's one open variable groups: the atoms that
/// leave only that variable unbound, in one column each. Program `k` keeps
/// one per remaining atom; `atoms` is empty unless the group has two (and
/// in a plan of more than 64 atoms, which a mask cannot hold).
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Group {
    /// Bit `a`: remaining atom `a` belongs to the group.
    atoms: u64,
    /// The open variable.
    slot: u32,
    /// The column the atom holding this entry has it in.
    col: u32,
}

/// One extent an intersect node walks, sorted on the column it binds, and
/// the row the walk stands at.
#[derive(Debug, Clone, Copy)]
pub(super) struct Cursor<'a> {
    ids: &'a [Id],
    rows: usize,
    width: usize,
    col: usize,
    at: usize,
}

impl Cursor<'_> {
    #[inline(always)]
    fn value_at(&self, row: usize) -> Id {
        self.ids[row * self.width + self.col]
    }

    #[inline(always)]
    fn value(&self) -> Id {
        self.value_at(self.at)
    }

    /// Moves to the first row from here on whose value is not below
    /// `target` by galloping — probing 1, 2, 4, … rows ahead, then
    /// halving the last gap — so a seek costs the log of the distance it
    /// covers. Returns whether such a row exists.
    #[inline]
    fn seek(&mut self, target: Id) -> bool {
        if self.value() >= target {
            return true;
        }
        // value_at(lo) < target <= value_at(hi), a row past the end
        // standing for a value above them all.
        let (mut lo, mut step) = (self.at, 1);
        let mut hi = loop {
            let probe = lo + step;
            if probe >= self.rows {
                break self.rows;
            }
            if self.value_at(probe) >= target {
                break probe;
            }
            lo = probe;
            step *= 2;
        };
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.value_at(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        self.at = hi;
        hi < self.rows
    }
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
    /// run. `last` is the key of the step's last search and the range it
    /// found: the same key again costs no search, and a later one is
    /// searched for from where that range ended.
    Range {
        order: IndexOrder,
        key: (u32, u32),
        last: Option<([Id; 3], usize, usize)>,
    },
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

impl ColOp {
    fn col(self) -> usize {
        match self {
            ColOp::Bind { col, .. } | ColOp::Check { col, .. } => col as usize,
        }
    }
}

/// What `fill` found below a row.
enum Next {
    /// A remaining atom has no matches.
    Dead,
    /// The remaining atom at this position runs next.
    Run(usize),
    /// Every remaining atom is settled by its non-empty extent.
    Emit,
}

/// Everything about a node that depends only on which atoms are placed.
/// Program `k` runs the atom placed at depth `k - 1`, or intersects the
/// group placed at depths `d..k`, and fills level `k`; program 0 runs no
/// atom and fills level 0 from the constants alone. Its column ops, its
/// steps and its groups live in the `k`-th stretches of the scratch
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
    /// are this whole run rather than the extent's slice.
    scan: Option<IndexOrder>,
    /// The atom leaves a lonely column unbound, so a row can bind what the
    /// row before it bound.
    skip_repeats: bool,
    /// Bit `a`: remaining atom `a` is settled by its extent alone.
    settled: u64,
    /// How many of those the level above had not settled.
    settles: u32,
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
    /// `cursors[d + i]`: the `i`-th extent of the intersect node at depth
    /// `d`, which places the atoms at depths `d..k`.
    cursors: Vec<Cursor<'j>>,
    n: usize,
    /// Widest atom: the length of a program's stretch of `ops`.
    max_arity: usize,
    /// Terms over all atoms: the length of a program's stretch of `srcs`.
    width: usize,
    next_id: u64,
    rows_visited: u64,
    probes: u64,
    checks: u64,
    seeks: u64,
}

/// Runs a compiled plan with pooled scratch memory; its counts accumulate
/// in `stats`.
pub(super) fn execute(store: &TripleStore, plan: &CompiledPlan, stats: &mut EvalStats) -> Answers {
    let runs = Runs {
        store,
        cells: Default::default(),
    };
    let mut s = EvalScratch::take(plan.n_slots, plan.atoms.len());
    let steps = std::mem::take(&mut s.steps);
    let levels = std::mem::take(&mut s.levels);
    let cursors = std::mem::take(&mut s.cursors);
    let mut join = Join {
        plan,
        runs: &runs,
        s: &mut s,
        steps,
        levels,
        cursors,
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
        checks: 0,
        seeks: 0,
    };
    join.run();
    stats.rows_visited += join.rows_visited;
    stats.probes += join.probes;
    stats.checks += join.checks;
    stats.seeks += join.seeks;
    let (steps, levels, cursors) = (park(join.steps), park(join.levels), park(join.cursors));
    s.steps = steps;
    s.levels = levels;
    s.cursors = cursors;
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
        self.cursors.clear();
        self.cursors.resize(
            n,
            Cursor {
                ids: &[],
                rows: 0,
                width: 1,
                col: 0,
                at: 0,
            },
        );
        let s = &mut *self.s;
        s.programs.clear();
        s.programs.resize(n + 1, Program::default());
        s.groups.clear();
        s.groups.resize(n * n, Group::default());
        s.ops.clear();
        s.ops
            .resize((n + 1) * self.max_arity, ColOp::Bind { col: 0, slot: 0 });
        s.srcs.clear();
        s.srcs.resize(n * self.width, CTerm::Slot(0));
        s.stamps.clear();
        s.stamps.resize(self.plan.n_slots, 0);
        self.build(0, 0, 0, 0);
        let root = self.s.programs[0].id;
        if self.plan.lonely != 0 {
            self.descend::<true>(0, root);
        } else {
            self.descend::<false>(0, root);
        }
    }

    /// Fills level `k` by the program with id `parent` and searches below
    /// it; reports whether that found a witness. `LONELY` is whether the
    /// plan has a lonely slot: without one no atom is ever settled.
    #[inline(always)]
    fn descend<const LONELY: bool>(&mut self, k: usize, parent: u64) -> bool {
        match self.fill::<LONELY>(k) {
            Next::Dead => false,
            Next::Emit => {
                emit(self.plan, self.s);
                true
            }
            Next::Run(pos) => {
                self.s.order.swap(k, pos);
                let group = self.s.groups[k * self.n + self.s.order[k] as usize].atoms;
                if group == 0 {
                    self.node::<LONELY>(k, parent)
                } else {
                    self.intersect::<LONELY>(k, group, parent)
                }
            }
        }
    }

    /// Runs the atom at `order[d]` over its extent in level `d` and reports
    /// whether any row led to a witness — stopping at the first when the
    /// head tuple is already decided. `parent` is the program that filled
    /// level `d`.
    fn node<const LONELY: bool>(&mut self, d: usize, parent: u64) -> bool {
        let (n, k) = (self.n, d + 1);
        let a = self.s.order[d];
        let cached = self.s.programs[k];
        if cached.atom != a || cached.parent != parent {
            self.build(k, d, a, parent);
        }
        let Program {
            id,
            decided,
            scan,
            skip_repeats,
            n_ops,
            ..
        } = self.s.programs[k];
        let Extent { ids, rows } = match scan {
            Some(order) => {
                let run = self.runs.get(order);
                Extent {
                    ids: run.as_flattened(),
                    rows: run.len(),
                }
            }
            None => self.levels[d * n + a as usize],
        };
        // Walked by count: a view without columns has one row, the empty
        // tuple, and no ids to walk.
        let width = self.plan.atoms[a as usize].width();
        let ops = k * self.max_arity..k * self.max_arity + n_ops as usize;
        let skip_repeats = LONELY && skip_repeats;
        let mut prev: &[Id] = &[];
        let mut found = false;
        for row in (0..rows).map(|r| &ids[r * width..][..width]) {
            self.rows_visited += 1;
            if skip_repeats {
                if self.repeats(ops.clone(), prev, row) {
                    continue;
                }
                prev = row;
            }
            if !self.apply(ops.clone(), row) {
                continue;
            }
            let witness = if k == n {
                emit(self.plan, self.s);
                true
            } else {
                self.descend::<LONELY>(k, id)
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

    /// Places the `group` of atoms that leave only one variable open, the
    /// atom at `order[d]` among them, by intersection: binds the variable
    /// to each value their extents in level `d` share, found by galloping
    /// the extents side by side, and searches below each. Reports whether
    /// any value led to a witness, stopping at the first when the head is
    /// already decided. `parent` is the program that filled level `d`,
    /// whose groups name the variable and its column in each atom.
    fn intersect<const LONELY: bool>(&mut self, d: usize, group: u64, parent: u64) -> bool {
        let n = self.n;
        let a = self.s.order[d];
        let mut k = d + 1;
        for pos in d + 1..n {
            if group >> self.s.order[pos] & 1 == 1 {
                self.s.order.swap(k, pos);
                k += 1;
            }
        }
        let cached = self.s.programs[k];
        if cached.atom != a || cached.parent != parent {
            self.build(k, d, a, parent);
        }
        let Program { id, decided, .. } = self.s.programs[k];
        let slot = self.s.groups[d * n + a as usize].slot as usize;
        // Program `k` inherits from level `k - 1`; the atoms the variable
        // does not reach have the extents there they had in level `d`.
        for &b in &self.s.order[k..] {
            let b = b as usize;
            self.levels[(k - 1) * n + b] = self.levels[d * n + b];
        }
        for pos in d..k {
            let b = self.s.order[pos] as usize;
            let extent = self.levels[d * n + b];
            self.cursors[pos] = Cursor {
                ids: extent.ids,
                rows: extent.rows,
                width: self.plan.atoms[b].width(),
                col: self.s.groups[d * n + b].col as usize,
                at: 0,
            };
        }
        // Leapfrog: seek the cursors in turn up to the largest value any
        // of them stands at, until all of them stand at one value.
        let (g, mut i, mut agree) = (k - d, 0, 1);
        let mut value = self.cursors[d].value();
        let mut found = false;
        loop {
            while agree < g {
                i = (i + 1) % g;
                let cursor = &mut self.cursors[d + i];
                self.seeks += 1;
                if !cursor.seek(value) {
                    return found;
                }
                if cursor.value() == value {
                    agree += 1;
                } else {
                    value = cursor.value();
                    agree = 1;
                }
            }
            self.rows_visited += 1;
            self.s.frame[slot] = value;
            let witness = if k == n {
                emit(self.plan, self.s);
                true
            } else {
                self.descend::<LONELY>(k, id)
            };
            if witness {
                if decided {
                    return true;
                }
                found = true;
            }
            // An extent holds a value once: the next row of any cursor
            // is the next candidate.
            let cursor = &mut self.cursors[d + i];
            cursor.at += 1;
            if cursor.at == cursor.rows {
                return found;
            }
            value = cursor.value();
            agree = 1;
        }
    }

    /// Binds and checks one row's open columns. (`always`: with two
    /// instances of the row loop the compiler stops inlining this and
    /// `extent` on its own, and a call per row made reads that settle
    /// nothing 5–20 % slower.)
    #[inline(always)]
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

    /// Whether `row` binds and checks what `prev`, the row before it, did —
    /// and so leads where `prev` led.
    #[inline]
    fn repeats(&self, ops: std::ops::Range<usize>, prev: &[Id], row: &[Id]) -> bool {
        !prev.is_empty()
            && self.s.ops[ops]
                .iter()
                .all(|op| prev[op.col()] == row[op.col()])
    }

    /// Fills level `k` by program `k`, atom by atom in the order the
    /// remaining atoms stand in, and returns the position of the first
    /// smallest extent among the atoms not settled — [`Next::Emit`] if all
    /// are settled, [`Next::Dead`] at the first empty extent, before the
    /// atoms behind it are looked up.
    fn fill<const LONELY: bool>(&mut self, k: usize) -> Next {
        let n = self.n;
        let settled = if LONELY {
            self.s.programs[k].settled
        } else {
            0
        };
        let (mut best, mut best_pos) = (usize::MAX, k);
        for pos in k..n {
            let a = self.s.order[pos] as usize;
            let extent = self.extent(k, a);
            self.levels[k * n + a] = extent;
            if LONELY && settled >> a & 1 == 1 {
                if extent.rows == 0 {
                    return Next::Dead;
                }
            } else if extent.rows < best {
                best = extent.rows;
                best_pos = pos;
                if best == 0 {
                    return Next::Dead;
                }
            }
        }
        if LONELY {
            self.checks += u64::from(self.s.programs[k].settles);
            if best == usize::MAX {
                return Next::Emit;
            }
        }
        Next::Run(best_pos)
    }

    /// The extent of atom `a` under the current bindings, by program `k`'s
    /// step for it.
    #[inline(always)]
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
                last,
            } => {
                let mut key = [Id(0); 3];
                for (k, t) in key.iter_mut().zip(&srcs[start as usize..][..len as usize]) {
                    *k = value_of(*t, &s.frame);
                }
                let run = self.runs.get(order);
                let range = match last {
                    Some((seen, from, to)) if seen == key => from..to,
                    _ => {
                        self.probes += 1;
                        let range = match last {
                            Some((seen, _, to)) if seen < key => {
                                prefix_range_from(run, order, &key[..len as usize], to)
                            }
                            _ => prefix_range(run, order, &key[..len as usize]),
                        };
                        self.steps[at] = Step::Range {
                            order,
                            key: (start, len),
                            last: Some((key, range.start, range.end)),
                        };
                        range
                    }
                };
                Extent {
                    rows: range.len(),
                    ids: run[range].as_flattened(),
                }
            }
        }
    }

    /// Builds program `k` for `atom`, chosen from level `d`, which the
    /// program `parent` filled: a node that runs `atom` when `k == d + 1`,
    /// one that intersects the group of `atom` at depths `d..k` when `k`
    /// is larger (`k == 0`: the root program, which has neither). One pass
    /// over the terms of the placed atoms, the head and the remaining
    /// atoms — what every *row* used to cost.
    fn build(&mut self, k: usize, d: usize, atom: u32, parent: u64) {
        let (n, plan) = (self.n, self.plan);
        let s = &mut *self.s;
        // stamps[slot]: 0 while unbound, else 1 + the depth of the atom
        // that binds it. This program's own atoms stamp `k`.
        let stamp = k as u32;
        s.stamps.fill(0);
        for (depth, &placed) in s.order[..d].iter().enumerate() {
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
        let (mut n_ops, mut scan, mut skip_repeats) = (0, None, false);
        if k > d + 1 {
            // The group's one open variable is all the node binds.
            s.stamps[s.groups[d * n + atom as usize].slot as usize] = stamp;
        } else if k > 0 {
            let running = &plan.atoms[atom as usize];
            let (mut open, mut lonely) = (0, 0);
            for (col, t) in running.terms().iter().enumerate() {
                let CTerm::Slot(slot) = *t else { continue };
                if plan.is_lonely(*t) {
                    lonely += 1;
                    continue;
                }
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
            skip_repeats = lonely > 0;
            if matches!(running, CAtom::Store { .. }) && open + lonely == 3 {
                // Nothing bound: the rows are a whole run, the one that
                // sorts the columns the atom binds or checks first.
                let mut cols = [0; 3];
                for (c, op) in cols.iter_mut().zip(&s.ops[k * self.max_arity..][..n_ops]) {
                    *c = op.col();
                }
                scan = Some(IndexOrder::for_groups(&[&cols[..n_ops]]));
            }
        }
        let (mut srcs_at, mut settled, mut settles) = (0, 0, 0);
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
            // Only a plan with a lonely slot settles atoms, and it has at
            // most 64.
            let lonely_or_bound = |t: &CTerm| bound(t) || plan.is_lonely(*t);
            if plan.lonely != 0 && terms.iter().all(lonely_or_bound) {
                settled |= 1 << a;
                settles += u32::from(touched);
            }
            if n <= 64 {
                // Marked with its own bit while it leaves one variable
                // open; the pass below gathers the groups.
                let mut open = terms.iter().enumerate().filter(|(_, t)| !bound(t));
                s.groups[k * n + a] = match (open.next(), open.next()) {
                    (Some((col, CTerm::Slot(slot))), None) => Group {
                        atoms: 1 << a,
                        slot: *slot,
                        col: col as u32,
                    },
                    _ => Group::default(),
                };
            }
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
                let (order, len) = store_order(plan, terms, bound);
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
                        last: None,
                    }
                }
            };
        }
        if n <= 64 && k < n {
            let groups = &mut s.groups[k * n..][..n];
            for &a in &s.order[k..] {
                let Group { atoms, slot, .. } = groups[a as usize];
                if atoms != 0 {
                    let mates = (s.order[k..].iter())
                        .map(|&b| groups[b as usize])
                        .filter(|g| g.atoms != 0 && g.slot == slot)
                        .fold(0, |m, g| m | g.atoms);
                    // The bits of a group's members: their own, or all of it.
                    groups[a as usize].atoms = if mates == atoms { 0 } else { mates };
                }
            }
        }
        s.programs[k] = Program {
            atom,
            parent,
            id: self.next_id,
            decided,
            scan,
            skip_repeats,
            settled,
            settles,
            n_ops: n_ops as u32,
        };
        self.next_id += 1;
    }
}

/// The run a store atom's extent is a range of, and the length of the
/// range's key: the run whose sort prefix is the `bound` columns, found by
/// the store's own rule on a pattern with those columns set — unless the
/// atom has a lonely column and would bind another, in which case the
/// columns it would bind sort before the lonely ones, so that rows binding
/// alike are adjacent. (`Ops` is the one run this can ask for that the
/// store's rule never does; building it and carrying it across every write
/// would cost more than the repeats it groups, so `Osp` stands in.)
fn store_order(
    plan: &CompiledPlan,
    terms: &[CTerm],
    bound: impl Fn(&CTerm) -> bool,
) -> (IndexOrder, usize) {
    let (mut key, mut open) = ([0; 3], [0; 3]);
    let (mut n_key, mut n_open, mut lonely) = (0, 0, false);
    for (col, t) in terms.iter().enumerate() {
        if bound(t) {
            key[n_key] = col;
            n_key += 1;
        } else if plan.is_lonely(*t) {
            lonely = true;
        } else {
            open[n_open] = col;
            n_open += 1;
        }
    }
    if lonely && n_open > 0 {
        let order = match IndexOrder::for_groups(&[&key[..n_key], &open[..n_open]]) {
            IndexOrder::Ops => IndexOrder::Osp,
            order => order,
        };
        return (order, n_key);
    }
    let mark = |t: &CTerm| bound(t).then_some(Id(0));
    let pattern = StorePattern::new(mark(&terms[0]), mark(&terms[1]), mark(&terms[2]));
    let (order, _, len) = IndexOrder::for_pattern(&pattern);
    (order, len)
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
