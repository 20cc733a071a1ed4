//! States: candidate view sets with their rewritings (Sections 2 and 3.1).

use std::collections::BTreeMap;

use rdf_model::{FxHashMap, FxHashSet};
use rdf_query::canonical::{canonical_form, HeadMode};
use rdf_query::{Atom, ConjunctiveQuery, QTerm, Var};

/// Identifier of a view within a state lineage. Fresh ids are allocated by
/// transitions, so a view keeps its id across the states it survives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewId(pub u32);

impl std::fmt::Display for ViewId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A view: a conjunctive query over the triple table whose head is an
/// ordered list of distinct variables.
///
/// View bodies never contain Cartesian products (Section 3.1): every
/// transition preserves connectedness of the view's join graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// Stable identifier.
    pub id: ViewId,
    /// Ordered distinct head variables.
    pub head: Vec<Var>,
    /// Body atoms.
    pub atoms: Vec<Atom>,
}

impl View {
    /// `len(v)`: the number of atoms (the paper's maintenance exponent).
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the body is empty (never true for well-formed views).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The view as a plain conjunctive query.
    pub fn as_query(&self) -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            self.head.iter().map(|&v| QTerm::Var(v)).collect(),
            self.atoms.clone(),
        )
    }

    /// Position of a head variable.
    pub fn head_index(&self, v: Var) -> Option<usize> {
        self.head.iter().position(|&h| h == v)
    }

    /// A variable index unused by this view.
    pub fn fresh_var(&self) -> Var {
        let body = self.atoms.iter().flat_map(|a| a.vars()).map(|v| v.0);
        let head = self.head.iter().map(|v| v.0);
        Var(body.chain(head).max().map_or(0, |m| m + 1))
    }

    /// Whether the view has no constants at all (the `stop_var` condition —
    /// its space occupancy is considered too high).
    pub fn all_variables(&self) -> bool {
        self.atoms.iter().all(|a| a.const_count() == 0)
    }

    /// Whether the view is exactly the full triple table `t(s, p, o)`
    /// (the `stop_tt` condition).
    pub fn is_triple_table(&self) -> bool {
        self.atoms.len() == 1 && self.atoms[0].const_count() == 0 && {
            let vars: Vec<Var> = self.atoms[0].vars().collect();
            vars.len() == 3 && vars.iter().collect::<FxHashSet<_>>().len() == 3
        }
    }
}

/// One atom of a rewriting: a view applied to argument terms.
///
/// The relational-algebra expressions of Definitions 3.2–3.5 are encoded in
/// the conjunctive formalism the paper itself uses for rewritings:
/// a constant argument is a selection `σ`, a repeated variable is a join
/// `⋈`, and the rewriting head is the final projection `π`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewAtom {
    /// The view scanned.
    pub view: ViewId,
    /// One term per view head column.
    pub args: Vec<QTerm>,
}

/// The rewriting of one workload query over the state's views
/// (Definition 2.2: equivalent to the query, using only view relations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rewriting {
    /// Index of the workload query this rewriting answers.
    pub query_index: usize,
    /// The query's head, in the rewriting's variable space.
    pub head: Vec<QTerm>,
    /// View atoms.
    pub atoms: Vec<RewAtom>,
    /// Fresh-variable counter for this rewriting's variable space.
    next_var: u32,
}

impl Rewriting {
    /// Reassembles a rewriting from persisted parts. `next_var` must be
    /// at least one past every variable used in `head`/`atoms` (it is
    /// whatever [`Rewriting::next_var`] reported when serialized).
    pub fn from_parts(
        query_index: usize,
        head: Vec<QTerm>,
        atoms: Vec<RewAtom>,
        next_var: u32,
    ) -> Self {
        Rewriting {
            query_index,
            head,
            atoms,
            next_var,
        }
    }

    /// The fresh-variable counter (for serialization).
    pub fn next_var(&self) -> u32 {
        self.next_var
    }

    /// Allocates a fresh rewriting variable.
    pub fn fresh_var(&mut self) -> Var {
        let v = Var(self.next_var);
        self.next_var += 1;
        v
    }

    /// All view ids used by this rewriting.
    pub fn views_used(&self) -> impl Iterator<Item = ViewId> + '_ {
        self.atoms.iter().map(|a| a.view)
    }
}

/// A state `S(Q) = ⟨V, R⟩`: the candidate view set and one rewriting per
/// workload query (Definition 2.3). Both invariants of that definition are
/// maintained by construction: every query has exactly one rewriting, and
/// every view occurs in at least one rewriting.
#[derive(Debug, Clone)]
pub struct State {
    views: BTreeMap<ViewId, View>,
    rewritings: Vec<Rewriting>,
    next_view_id: u32,
}

/// A collision-resistant 128-bit signature of a state's view set, used to
/// deduplicate states reached through different transition paths.
pub type StateSignature = u128;

/// Canonicalizes one rewriting up to variable renaming and atom order by
/// encoding it as a conjunctive query over the triple table and reusing
/// [`canonical_form`]: each view scan becomes a fresh *scan node* variable
/// `w` with one atom `(w, P, arg)` per argument, where the pseudo-predicate
/// constant `P` encodes the scanned view's isomorphism class and the
/// argument's canonical head column. Scan nodes glue an atom's arguments
/// together, the pseudo-predicates pin them to (class, column), and the
/// rewriting head participates in declared order — so the canonical key is
/// identical for every representative of the same abstract rewriting.
fn rewriting_canonical_key(
    r: &Rewriting,
    class_of: &dyn Fn(ViewId) -> u32,
    forms: &FxHashMap<ViewId, (Vec<rdf_query::canonical::CTok>, Vec<u32>)>,
) -> Vec<rdf_query::canonical::CTok> {
    // Pseudo-predicate ids live at the top of the id space, far above any
    // dictionary id a real workload produces.
    const PSEUDO_TOP: u32 = u32::MAX;
    const MAX_COLS: u32 = 256;
    let first_free_var = r
        .atoms
        .iter()
        .flat_map(|a| a.args.iter())
        .chain(r.head.iter())
        .filter_map(|t| match t {
            QTerm::Var(v) => Some(v.0 + 1),
            QTerm::Const(_) => None,
        })
        .max()
        .unwrap_or(0);
    let mut atoms: Vec<Atom> = Vec::new();
    for (si, scan) in r.atoms.iter().enumerate() {
        let w = Var(first_free_var + si as u32);
        let class = class_of(scan.view);
        let ranks = &forms[&scan.view].1;
        debug_assert!((ranks.len() as u32) < MAX_COLS);
        if scan.args.is_empty() {
            // Zero-arity scan: a marker atom so the scan still appears.
            let p = rdf_model::Id(PSEUDO_TOP - class * MAX_COLS);
            atoms.push(Atom::new(QTerm::Var(w), QTerm::Const(p), QTerm::Var(w)));
        }
        for (pos, arg) in scan.args.iter().enumerate() {
            let p = rdf_model::Id(PSEUDO_TOP - (class * MAX_COLS + ranks[pos] + 1));
            atoms.push(Atom::new(QTerm::Var(w), QTerm::Const(p), *arg));
        }
    }
    let encoded = ConjunctiveQuery::new(r.head.clone(), atoms);
    canonical_form(&encoded, rdf_query::canonical::HeadMode::Ordered).key
}

/// Where one query of a re-seeded workload takes its rewriting from (see
/// [`State::reseed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReseedSource {
    /// Transplant rewriting `j` of the previous best state.
    Carry(usize),
    /// Start from the query's initial single-scan view.
    Fresh,
}

impl State {
    /// The initial state `S0(Q)`: one view per query (`V0 = Q`), each
    /// rewriting a plain view scan (Section 5.1).
    ///
    /// Queries must be safe and connected (Definition 2.1 assumes queries
    /// without Cartesian products; represent a product query by its
    /// independent sub-queries instead).
    pub fn initial(queries: &[ConjunctiveQuery]) -> State {
        let mut views = BTreeMap::new();
        let rewritings = queries
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                let (view, rewriting) = Self::scan_of(qi, ViewId(qi as u32), q);
                views.insert(view.id, view);
                rewriting
            })
            .collect();
        State {
            views,
            rewritings,
            next_view_id: queries.len() as u32,
        }
    }

    /// Query `qi`'s initial view, numbered `id` — the query itself, its
    /// head the query's distinct head variables in order — and the trivial
    /// rewriting that scans it: qi = π_head(vi).
    fn scan_of(qi: usize, id: ViewId, q: &ConjunctiveQuery) -> (View, Rewriting) {
        assert!(q.is_safe(), "workload query {qi} is unsafe");
        assert!(
            rdf_query::graph::JoinGraph::new(&q.atoms).is_connected(),
            "workload query {qi} contains a Cartesian product; split it first"
        );
        let head = q.head_vars();
        debug_assert_eq!(head.iter().collect::<FxHashSet<_>>().len(), head.len());
        let args: Vec<QTerm> = head.iter().map(|&v| QTerm::Var(v)).collect();
        let rewriting = Rewriting {
            query_index: qi,
            head: q.head.clone(),
            atoms: vec![RewAtom { view: id, args }],
            next_var: q.max_var().map_or(0, |m| m + 1),
        };
        let view = View {
            id,
            head,
            atoms: q.atoms.clone(),
        };
        (view, rewriting)
    }

    /// Reassembles a state from persisted parts: the view set, one
    /// rewriting per workload query, and the view-id counter reported by
    /// [`State::next_view_id`] at serialization time. The caller vouches
    /// that the parts came from a valid state; `check_invariants` can be
    /// run afterwards as a defense-in-depth check.
    pub fn from_parts(
        views: impl IntoIterator<Item = View>,
        rewritings: Vec<Rewriting>,
        next_view_id: u32,
    ) -> State {
        State {
            views: views.into_iter().map(|v| (v.id, v)).collect(),
            rewritings,
            next_view_id,
        }
    }

    /// The fresh-view-id counter (for serialization).
    pub fn next_view_id(&self) -> u32 {
        self.next_view_id
    }

    /// The views, ordered by id.
    pub fn views(&self) -> impl Iterator<Item = &View> {
        self.views.values()
    }

    /// Number of views.
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// Looks a view up.
    pub fn view(&self, id: ViewId) -> &View {
        &self.views[&id]
    }

    /// The rewritings, one per workload query.
    pub fn rewritings(&self) -> &[Rewriting] {
        &self.rewritings
    }

    /// Mutable access for transitions (kept `pub(crate)`).
    pub(crate) fn rewritings_mut(&mut self) -> &mut [Rewriting] {
        &mut self.rewritings
    }

    /// Allocates a fresh view id.
    pub(crate) fn fresh_view_id(&mut self) -> ViewId {
        let id = ViewId(self.next_view_id);
        self.next_view_id += 1;
        id
    }

    /// Removes a view (transitions only; the caller must rewire
    /// rewritings).
    pub(crate) fn remove_view(&mut self, id: ViewId) -> View {
        // xlint: allow(X001, reason = "transitions only remove views their source state provably contains")
        self.views.remove(&id).expect("removing unknown view")
    }

    /// Inserts a view.
    pub(crate) fn insert_view(&mut self, view: View) {
        self.views.insert(view.id, view);
    }

    /// Checks Definition 2.3's invariants; used by debug assertions and
    /// tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut used: FxHashSet<ViewId> = FxHashSet::default();
        for (ri, r) in self.rewritings.iter().enumerate() {
            if r.atoms.is_empty() {
                return Err(format!("rewriting {ri} is empty"));
            }
            for atom in &r.atoms {
                let Some(view) = self.views.get(&atom.view) else {
                    return Err(format!("rewriting {ri} uses unknown view {}", atom.view));
                };
                if atom.args.len() != view.head.len() {
                    return Err(format!(
                        "rewriting {ri}: arity mismatch on {} ({} args, head {})",
                        atom.view,
                        atom.args.len(),
                        view.head.len()
                    ));
                }
                used.insert(atom.view);
            }
        }
        for &id in self.views.keys() {
            if !used.contains(&id) {
                return Err(format!("view {id} participates in no rewriting"));
            }
        }
        for view in self.views.values() {
            if !rdf_query::graph::JoinGraph::new(&view.atoms).is_connected() {
                return Err(format!("view {} has a Cartesian product", view.id));
            }
            let set: FxHashSet<Var> = view.head.iter().copied().collect();
            if set.len() != view.head.len() {
                return Err(format!("view {} has duplicate head vars", view.id));
            }
            let body: FxHashSet<Var> = view.atoms.iter().flat_map(|a| a.vars()).collect();
            if !view.head.iter().all(|v| body.contains(v)) {
                return Err(format!("view {} head not covered by body", view.id));
            }
        }
        Ok(())
    }

    /// The state signature: two states collide exactly when they are the
    /// same `⟨V, R⟩` of Definition 2.3 up to variable renaming, atom
    /// order, head-column order and re-identification of isomorphic views.
    ///
    /// Both components matter. The view component is the sorted multiset
    /// of canonical view forms. The rewriting component canonicalizes each
    /// rewriting as a conjunctive query over *pseudo-predicates* encoding
    /// `(view isomorphism class, canonical head column)`, so two paths
    /// that reach the same view set but rewrite a query over *different*
    /// views (or join columns) yield distinct states — they have different
    /// evaluation costs, and conflating them would make the best cost
    /// depend on exploration order (a sequential-vs-parallel divergence
    /// the test suite checks for).
    pub fn signature(&self) -> StateSignature {
        use std::hash::{Hash, Hasher};
        // Canonical form and canonical column ranks per view.
        let mut forms: FxHashMap<ViewId, (Vec<rdf_query::canonical::CTok>, Vec<u32>)> =
            FxHashMap::default();
        for v in self.views.values() {
            let cf = canonical_form(&v.as_query(), HeadMode::Sorted);
            // Rank of each head column under the canonical variable
            // numbering: invariant across representatives that permute
            // head columns.
            let numbers: Vec<u32> = v.head.iter().map(|h| cf.var_map[h]).collect();
            let ranks = numbers
                .iter()
                .map(|n| numbers.iter().filter(|x| *x < n).count() as u32)
                .collect();
            forms.insert(v.id, (cf.key, ranks));
        }
        let mut keys: Vec<&Vec<rdf_query::canonical::CTok>> =
            forms.values().map(|(k, _)| k).collect();
        keys.sort_unstable();
        keys.dedup();
        let class_of = |id: ViewId| -> u32 {
            let key = &forms[&id].0;
            keys.partition_point(|k| *k < key) as u32
        };
        let mut view_keys: Vec<Vec<rdf_query::canonical::CTok>> = self
            .views
            .values()
            .map(|v| forms[&v.id].0.clone())
            .collect();
        view_keys.sort_unstable();
        // Rewriting component, one canonical key per query (rewritings are
        // indexed by query, so their order is stable across paths).
        let rewriting_keys: Vec<Vec<rdf_query::canonical::CTok>> = self
            .rewritings
            .iter()
            .map(|r| rewriting_canonical_key(r, &class_of, &forms))
            .collect();
        let mut h1 = rdf_model::fxhash::FxHasher::default();
        view_keys.hash(&mut h1);
        rewriting_keys.hash(&mut h1);
        // Second, independent hash: seed with a constant and hash the keys
        // in reverse, so a collision must defeat both.
        let mut h2 = rdf_model::fxhash::FxHasher::default();
        0xdead_beef_u64.hash(&mut h2);
        for k in view_keys.iter().rev() {
            k.hash(&mut h2);
        }
        for k in rewriting_keys.iter().rev() {
            k.hash(&mut h2);
        }
        ((h1.finish() as u128) << 64) | h2.finish() as u128
    }

    /// Re-assembles a state for a changed workload from a previous best
    /// state — the warm-start seed for ±1-query workload deltas.
    ///
    /// `sources[i]` says where query `i` of the new workload gets its
    /// rewriting: [`ReseedSource::Carry`]`(j)` transplants the previous
    /// state's rewriting `j` (the query texts must be identical — the
    /// pipeline matches minimized, normalized queries), while
    /// [`ReseedSource::Fresh`] gives the query its initial single-scan
    /// view, exactly as [`State::initial`] would. Previous views that no
    /// surviving rewriting uses are dropped, so the seed satisfies
    /// Definition 2.3's invariants by construction.
    pub(crate) fn reseed(
        prev: &State,
        sources: &[ReseedSource],
        queries: &[ConjunctiveQuery],
    ) -> State {
        assert_eq!(sources.len(), queries.len());
        let mut next_view_id = prev.next_view_id;
        let mut rewritings: Vec<Rewriting> = Vec::with_capacity(queries.len());
        let mut views: BTreeMap<ViewId, View> = BTreeMap::new();
        for (qi, (source, q)) in sources.iter().zip(queries).enumerate() {
            match source {
                ReseedSource::Carry(j) => {
                    let mut r = prev.rewritings[*j].clone();
                    r.query_index = qi;
                    for atom in &r.atoms {
                        let v = prev.views[&atom.view].clone();
                        views.insert(v.id, v);
                    }
                    rewritings.push(r);
                }
                ReseedSource::Fresh => {
                    let (view, rewriting) = Self::scan_of(qi, ViewId(next_view_id), q);
                    next_view_id += 1;
                    views.insert(view.id, view);
                    rewritings.push(rewriting);
                }
            }
        }
        let seeded = State {
            views,
            rewritings,
            next_view_id,
        };
        debug_assert_eq!(seeded.check_invariants(), Ok(()));
        seeded
    }

    /// Merges two states over disjoint workload fragments: views of `other`
    /// are re-identified, its rewritings appended with shifted query
    /// indexes. Used by the divide-and-conquer competitor strategies.
    pub(crate) fn merge_with(&self, other: &State) -> State {
        let mut merged = self.clone();
        let mut id_map: FxHashMap<ViewId, ViewId> = FxHashMap::default();
        for view in other.views.values() {
            let new_id = merged.fresh_view_id();
            id_map.insert(view.id, new_id);
            merged.insert_view(View {
                id: new_id,
                head: view.head.clone(),
                atoms: view.atoms.clone(),
            });
        }
        let offset = merged.rewritings.len();
        for r in &other.rewritings {
            let mut r2 = r.clone();
            r2.query_index += offset;
            for atom in &mut r2.atoms {
                atom.view = id_map[&atom.view];
            }
            merged.rewritings.push(r2);
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Dictionary;
    use rdf_query::parser::parse_query;

    fn workload(dict: &mut Dictionary) -> Vec<ConjunctiveQuery> {
        vec![
            parse_query(
                "q1(X, Z) :- t(X, <hasPainted>, <starryNight>), t(X, <isParentOf>, Y), \
                 t(Y, <hasPainted>, Z)",
                dict,
            )
            .unwrap()
            .query,
            parse_query("q2(A) :- t(A, <rdf:type>, <painter>)", dict)
                .unwrap()
                .query,
        ]
    }

    #[test]
    fn initial_state_structure() {
        let mut dict = Dictionary::new();
        let qs = workload(&mut dict);
        let s0 = State::initial(&qs);
        assert_eq!(s0.view_count(), 2);
        assert_eq!(s0.rewritings().len(), 2);
        s0.check_invariants().unwrap();
        // Each rewriting is a single view scan.
        for r in s0.rewritings() {
            assert_eq!(r.atoms.len(), 1);
        }
    }

    #[test]
    fn signature_is_renaming_invariant() {
        let mut dict = Dictionary::new();
        let qs = workload(&mut dict);
        let s0 = State::initial(&qs);
        // The same workload with renamed variables, parsed against the same
        // dictionary (constant ids must agree for signatures to compare).
        let renamed: Vec<ConjunctiveQuery> = [
            "q1(A, C) :- t(A, <hasPainted>, <starryNight>), t(A, <isParentOf>, B), \
             t(B, <hasPainted>, C)",
            "q2(Z) :- t(Z, <rdf:type>, <painter>)",
        ]
        .iter()
        .map(|s| parse_query(s, &mut dict).unwrap().query)
        .collect();
        let s0r = State::initial(&renamed);
        assert_eq!(s0.signature(), s0r.signature());
    }

    #[test]
    fn signature_distinguishes_different_workloads() {
        let mut dict = Dictionary::new();
        let qs = workload(&mut dict);
        let s0 = State::initial(&qs);
        let other = vec![qs[0].clone()];
        let s1 = State::initial(&other);
        assert_ne!(s0.signature(), s1.signature());
    }

    #[test]
    fn triple_table_and_all_var_detection() {
        let v_tt = View {
            id: ViewId(0),
            head: vec![Var(0), Var(1), Var(2)],
            atoms: vec![Atom::new(Var(0), Var(1), Var(2))],
        };
        assert!(v_tt.is_triple_table());
        assert!(v_tt.all_variables());
        let v_loop = View {
            id: ViewId(1),
            head: vec![Var(0), Var(1)],
            atoms: vec![Atom::new(Var(0), Var(1), Var(0))],
        };
        assert!(!v_loop.is_triple_table());
        assert!(v_loop.all_variables());
        let mut dict = Dictionary::new();
        let q = parse_query("q(X) :- t(X, <p>, Y)", &mut dict)
            .unwrap()
            .query;
        let v_const = View {
            id: ViewId(2),
            head: vec![Var(0)],
            atoms: q.atoms,
        };
        assert!(!v_const.all_variables());
    }

    #[test]
    #[should_panic(expected = "Cartesian product")]
    fn initial_rejects_products() {
        let mut dict = Dictionary::new();
        let q = parse_query("q(X, A) :- t(X, <p>, Y), t(A, <p>, B)", &mut dict).unwrap();
        let _ = State::initial(&[q.query]);
    }
}
