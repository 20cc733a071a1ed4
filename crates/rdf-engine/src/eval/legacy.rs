//! The pre-compiled backtracking join core, preserved as a baseline.
//!
//! This is the evaluator every hot path ran through before the compiled
//! index-native core ([`super::compiled`]) landed: a static greedy atom
//! order, bindings in a `FxHashMap<Var, Id>`, matches **collected into a
//! fresh `Vec<Triple>` at every recursion node**, per-row `unify`
//! dispatch, and view hash indexes rebuilt per evaluator call. It is kept
//! for two jobs:
//!
//! * `use_indexes: false` is the paper's Figure-8 "plain clustered triple
//!   table" baseline (filtering full scans), and doubles as the
//!   structurally-independent reference the differential proptests compare
//!   the compiled core against;
//! * `use_indexes: true` is the collect-per-node core the
//!   `join_throughput` bench reports the compiled core's speedup over.

use rdf_model::{FxHashMap, FxHashSet, Id, StorePattern, TripleStore};
use rdf_query::{QTerm, Var};

use super::{MixedAtom, ViewAtom};
use crate::answers::Answers;

fn args<'a>(atom: &'a MixedAtom<'_>) -> &'a [QTerm] {
    match atom {
        MixedAtom::Store(atom) => atom.terms(),
        MixedAtom::View(va) => va.args,
    }
}

/// Extent estimate ignoring variable bindings, used by the static ordering.
fn base_count(atom: &MixedAtom<'_>, store: &TripleStore) -> usize {
    match atom {
        MixedAtom::Store(atom) => {
            let [s, p, o] = atom.terms();
            let pat = StorePattern::new(s.as_const(), p.as_const(), o.as_const());
            store.match_count(&pat)
        }
        MixedAtom::View(va) => va.table.len(),
    }
}

pub(super) fn run(
    store: &TripleStore,
    atoms: &[MixedAtom<'_>],
    head: &[QTerm],
    use_indexes: bool,
) -> Answers {
    let order = plan_order(store, atoms);
    let mut ctx = Ctx {
        store,
        atoms,
        order,
        head,
        bindings: FxHashMap::default(),
        out: FxHashSet::default(),
        view_indexes: FxHashMap::default(),
        use_indexes,
    };
    ctx.recurse(0);
    Answers::from_tuples(head.len(), ctx.out)
}

/// Greedy static join order: fewest unbound variables first, breaking ties
/// by estimated extent.
fn plan_order(store: &TripleStore, atoms: &[MixedAtom<'_>]) -> Vec<usize> {
    let n = atoms.len();
    let counts: Vec<usize> = atoms.iter().map(|a| base_count(a, store)).collect();
    let mut chosen = vec![false; n];
    let mut bound: FxHashSet<Var> = FxHashSet::default();
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let mut best: Option<(usize, (usize, usize))> = None;
        for (i, atom) in atoms.iter().enumerate() {
            if chosen[i] {
                continue;
            }
            let unbound = args(atom)
                .iter()
                .filter_map(|t| t.as_var())
                .collect::<FxHashSet<_>>()
                .iter()
                .filter(|v| !bound.contains(v))
                .count();
            let key = (unbound, counts[i]);
            if best.is_none_or(|(_, bk)| key < bk) {
                best = Some((i, key));
            }
        }
        // xlint: allow(X001, reason = "the loop runs while unchosen atoms remain, so a best always exists")
        let (i, _) = best.expect("atom available");
        chosen[i] = true;
        for t in args(&atoms[i]) {
            if let QTerm::Var(v) = t {
                bound.insert(*v);
            }
        }
        order.push(i);
    }
    order
}

struct Ctx<'a, 'h> {
    store: &'a TripleStore,
    atoms: &'h [MixedAtom<'a>],
    order: Vec<usize>,
    head: &'h [QTerm],
    bindings: FxHashMap<Var, Id>,
    out: FxHashSet<Vec<Id>>,
    /// Cache of view hash-indexes, keyed by atom index and bound-column
    /// mask — rebuilt per evaluator call, exactly as the pre-compiled core
    /// did (the resident `ViewTable` caches did not exist yet).
    view_indexes: FxHashMap<(usize, u64), FxHashMap<Vec<Id>, Vec<usize>>>,
    /// Whether triple-table atoms may use the permutation indexes.
    use_indexes: bool,
}

impl Ctx<'_, '_> {
    fn recurse(&mut self, depth: usize) {
        if depth == self.order.len() {
            let tuple: Vec<Id> = self
                .head
                .iter()
                .map(|t| match t {
                    QTerm::Const(c) => *c,
                    QTerm::Var(v) => *self
                        .bindings
                        .get(v)
                        // xlint: allow(X001, reason = "callers evaluate safe queries whose head vars occur in the body")
                        .expect("unsafe query: unbound head variable"),
                })
                .collect();
            self.out.insert(tuple);
            return;
        }
        let atom_idx = self.order[depth];
        match self.atoms[atom_idx] {
            MixedAtom::Store(atom) => {
                let [s, p, o] = atom.terms();
                let slot = |t: &QTerm| match t {
                    QTerm::Const(c) => Some(*c),
                    QTerm::Var(v) => self.bindings.get(v).copied(),
                };
                let pat = StorePattern::new(slot(s), slot(p), slot(o));
                // Collect matches first: the borrow of `store` is fine, but
                // `for_each_match` borrowing `self` while recursing is not.
                let matches = if self.use_indexes {
                    self.store.matching(&pat)
                } else {
                    self.store
                        .triples()
                        .iter()
                        .copied()
                        .filter(|&t| pat.matches(t))
                        .collect()
                };
                for triple in matches {
                    let mut trail: Vec<Var> = Vec::new();
                    if self.unify(&atom.terms()[..], &triple[..], &mut trail) {
                        self.recurse(depth + 1);
                    }
                    for v in trail {
                        self.bindings.remove(&v);
                    }
                }
            }
            MixedAtom::View(ViewAtom { table, args }) => {
                let mut bound_cols: Vec<usize> = Vec::new();
                let mut key: Vec<Id> = Vec::new();
                let mut mask = 0u64;
                for (c, t) in args.iter().enumerate() {
                    let val = match t {
                        QTerm::Const(cst) => Some(*cst),
                        QTerm::Var(v) => self.bindings.get(v).copied(),
                    };
                    if let Some(val) = val {
                        bound_cols.push(c);
                        key.push(val);
                        mask |= 1 << c;
                    }
                }
                let row_ids: Vec<usize> = if bound_cols.is_empty() {
                    (0..table.len()).collect()
                } else {
                    let idx = self
                        .view_indexes
                        .entry((atom_idx, mask))
                        .or_insert_with(|| {
                            let mut idx: FxHashMap<Vec<Id>, Vec<usize>> = FxHashMap::default();
                            for r in 0..table.len() {
                                let row = table.row(r);
                                let key: Vec<Id> = bound_cols.iter().map(|&c| row[c]).collect();
                                idx.entry(key).or_default().push(r);
                            }
                            idx
                        });
                    idx.get(&key).cloned().unwrap_or_default()
                };
                for r in row_ids {
                    let row: Vec<Id> = table.row(r).to_vec();
                    let mut trail: Vec<Var> = Vec::new();
                    if self.unify(args, &row, &mut trail) {
                        self.recurse(depth + 1);
                    }
                    for v in trail {
                        self.bindings.remove(&v);
                    }
                }
            }
        }
    }

    /// Extends the bindings so that `args` matches `values`; handles
    /// repeated variables within the atom. Newly bound vars go on `trail`.
    fn unify(&mut self, args: &[QTerm], values: &[Id], trail: &mut Vec<Var>) -> bool {
        for (t, &val) in args.iter().zip(values.iter()) {
            match t {
                QTerm::Const(c) => {
                    if *c != val {
                        return false;
                    }
                }
                QTerm::Var(v) => match self.bindings.get(v) {
                    Some(&prev) => {
                        if prev != val {
                            return false;
                        }
                    }
                    None => {
                        self.bindings.insert(*v, val);
                        trail.push(*v);
                    }
                },
            }
        }
        true
    }
}
