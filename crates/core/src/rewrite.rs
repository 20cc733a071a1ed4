//! View-based rewriting of **ad-hoc** conjunctive queries — the
//! production-facing half of view selection (RDFViewS serves the tuned
//! workload; a real front end must also answer queries that arrive after
//! tuning).
//!
//! Given a query `q` and the deployed views, the planner computes either a
//! **complete views-only rewriting** (every atom of `q` answered from view
//! tables) or a **hybrid plan** mixing view scans with base-store scans for
//! the atoms no view covers. The algorithm is a bucket/MiniCon-style cover
//! search:
//!
//! 1. **Candidates** — every homomorphic embedding of a view body into
//!    `q`'s body (enumerated by [`for_each_homomorphism`], the search
//!    behind containment mappings) yields a candidate view application:
//!    its arguments are the images of the view's head variables, and it
//!    covers the image atoms. Candidates satisfying the MiniCon property
//!    (every existential of the view maps injectively to a query variable
//!    that is needed nowhere outside the covered atoms) are preferred; the
//!    rest are kept as a fallback, since the final equivalence check is
//!    the real arbiter.
//! 2. **Cover search** — a most-constrained-atom-first backtracking search
//!    combines candidates into complete covers; each complete cover is
//!    **verified** by unfolding it back to a query over the triple table
//!    ([`unfold_plan`], the one unfolding routine, which the search's state
//!    rewritings go through too) and checking Chandra–Merlin equivalence
//!    with `q` (Definition 2.2 — the same yardstick the view-selection
//!    search uses).
//! 3. **Hybrid** — when no complete cover verifies, candidates are added
//!    greedily (largest coverage first) as long as the mixed unfolding
//!    stays equivalent to `q` and the plan stays cross-product-free;
//!    uncovered atoms remain base-store scans. Components of the join
//!    graph are counted by `crate::partition`'s union-find, the one that
//!    groups workload queries.
//!
//! The planner assumes `q` is **minimized** (Definition 2.1 assumes minimal
//! queries; `rdf_query::minimize` is cheap) — callers should minimize and
//! normalize first, as the pipeline does for workload queries.

use std::ops::ControlFlow;

use rdf_model::{FxHashMap, FxHashSet};
use rdf_query::containment::{equivalent, for_each_homomorphism};
use rdf_query::{Atom, ConjunctiveQuery, QTerm, Var};

use crate::partition::group_by_shared_keys;
use crate::state::{RewAtom, View, ViewId};
pub use crate::unfold::unfold_plan;

/// One atom of an executable plan: a deployed-view scan or a base-store
/// scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanAtom {
    /// A scan of a materialized view (constants in `args` are selections,
    /// repeated variables joins — exactly like a state rewriting atom).
    View(RewAtom),
    /// A triple-table atom answered from the base store.
    Base(Atom),
}

impl PlanAtom {
    /// The variables this atom binds (view-scan arguments or triple terms).
    fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        let terms: &[QTerm] = match self {
            PlanAtom::View(ra) => &ra.args,
            PlanAtom::Base(a) => a.terms(),
        };
        terms.iter().filter_map(|t| t.as_var())
    }
}

/// An executable rewriting of one conjunctive query over deployed views
/// (and, for hybrid plans, the base store).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewritePlan {
    /// The query head, in the query's variable space.
    pub head: Vec<QTerm>,
    /// The plan atoms.
    pub atoms: Vec<PlanAtom>,
}

impl RewritePlan {
    /// Whether every atom is answered from the views.
    pub fn is_views_only(&self) -> bool {
        self.atoms.iter().all(|a| matches!(a, PlanAtom::View(_)))
    }

    /// Number of base-store atoms (0 for a views-only plan).
    pub fn residual_atoms(&self) -> usize {
        self.atoms
            .iter()
            .filter(|a| matches!(a, PlanAtom::Base(_)))
            .count()
    }

    /// Number of view-scan atoms.
    pub fn view_atoms(&self) -> usize {
        self.atoms.len() - self.residual_atoms()
    }

    /// The distinct views this plan scans, in id order.
    pub fn views_used(&self) -> Vec<ViewId> {
        let mut ids: Vec<ViewId> = self
            .atoms
            .iter()
            .filter_map(|a| match a {
                PlanAtom::View(ra) => Some(ra.view),
                PlanAtom::Base(_) => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// The trivial plan: every atom a base-store scan (what a deployment
/// without useful views falls back to).
pub fn base_plan(q: &ConjunctiveQuery) -> RewritePlan {
    RewritePlan {
        head: q.head.clone(),
        atoms: q.atoms.iter().map(|a| PlanAtom::Base(*a)).collect(),
    }
}

/// Number of connected components of a plan's join graph (atoms are nodes,
/// shared variables edges). A correct planner never returns a plan with
/// more components than the query it rewrites — view scans that would
/// disconnect the join graph (because the connecting variable is projected
/// out of the view head) are rejected.
pub fn plan_component_count(plan: &RewritePlan) -> usize {
    component_count(plan.atoms.iter().map(PlanAtom::vars))
}

/// Number of connected components of a query's join graph (same metric as
/// [`plan_component_count`], for comparison).
pub fn query_component_count(q: &ConjunctiveQuery) -> usize {
    component_count(q.atoms.iter().map(Atom::vars))
}

/// Atoms are the items, their variables the keys they share.
fn component_count<I: IntoIterator<Item = Var>>(atoms: impl IntoIterator<Item = I>) -> usize {
    group_by_shared_keys(atoms).len()
}

/// A candidate view application: one homomorphic embedding of a view body
/// into the query body.
#[derive(Debug, Clone)]
struct Candidate {
    /// Index into the planner's view slice.
    view_pos: usize,
    /// Scan arguments (images of the view's head variables).
    args: Vec<QTerm>,
    /// Sorted indices of the query atoms this application covers.
    covered: Vec<usize>,
    /// Bitmask over query atoms (the planner caps queries at 64 atoms).
    mask: u64,
    /// Whether the embedding satisfies the MiniCon property — existentials
    /// of the view map injectively to query variables that appear nowhere
    /// outside the covered atoms. Such candidates are sound by
    /// construction; the rest may still verify (redundant coverage) and
    /// are kept as a second tier.
    minicon: bool,
}

/// Safety caps for candidate enumeration and cover search; queries and
/// view sets here are small (≤ ~10 atoms), so these are generous.
const MAX_EMBEDDINGS_PER_VIEW: usize = 256;
const MAX_CANDIDATES: usize = 2048;
const MAX_COVER_NODES: usize = 20_000;
const MAX_EQUIV_CHECKS: usize = 64;

/// Hard cap on plannable query size (the cover search tracks coverage in a
/// 64-bit mask). Callers should reject larger queries up front rather than
/// rely on the planner's silent all-base degradation.
pub const MAX_QUERY_ATOMS: usize = 64;

/// Enumerates the homomorphisms of `view`'s body into `q`'s body (at most
/// [`MAX_EMBEDDINGS_PER_VIEW`]), as (variable map, per-view-atom target
/// index) pairs, mapping the view's atoms in their own order.
fn embeddings(view: &View, q: &ConjunctiveQuery) -> Vec<(FxHashMap<Var, QTerm>, Vec<usize>)> {
    let mut out = Vec::new();
    let order: Vec<usize> = (0..view.atoms.len()).collect();
    let _ = for_each_homomorphism(
        &view.atoms,
        &order,
        &q.atoms,
        &mut FxHashMap::default(),
        |map, targets| {
            out.push((map.clone(), targets.to_vec()));
            if out.len() < MAX_EMBEDDINGS_PER_VIEW {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        },
    );
    out
}

/// Builds the candidate set for `q` over `views`, deduplicated and tagged
/// with the MiniCon property.
fn candidates(q: &ConjunctiveQuery, views: &[View]) -> Vec<Candidate> {
    // Which atoms each query variable occurs in, and the head variables —
    // the "needed outside the cover" test.
    let mut var_atoms: FxHashMap<Var, Vec<usize>> = FxHashMap::default();
    for (i, a) in q.atoms.iter().enumerate() {
        for v in a.vars() {
            var_atoms.entry(v).or_default().push(i);
        }
    }
    let head_vars: FxHashSet<Var> = q.head_vars().into_iter().collect();

    let mut seen: FxHashSet<(usize, Vec<QTerm>, Vec<usize>)> = FxHashSet::default();
    let mut out: Vec<Candidate> = Vec::new();
    for (view_pos, view) in views.iter().enumerate() {
        for (map, targets) in embeddings(view, q) {
            if out.len() >= MAX_CANDIDATES {
                return out;
            }
            let mut covered = targets.clone();
            covered.sort_unstable();
            covered.dedup();
            let args: Vec<QTerm> = view.head.iter().map(|h| map[h]).collect();
            if !seen.insert((view_pos, args.clone(), covered.clone())) {
                continue;
            }
            let mask = covered.iter().fold(0u64, |m, &i| m | (1 << i));
            // MiniCon property: each view existential maps injectively to
            // a query variable not needed outside the covered atoms.
            let head_set: FxHashSet<Var> = view.head.iter().copied().collect();
            let mut image_count: FxHashMap<Var, u32> = FxHashMap::default();
            for t in map.values() {
                if let QTerm::Var(x) = t {
                    *image_count.entry(*x).or_insert(0) += 1;
                }
            }
            let minicon = map.iter().all(|(u, t)| {
                if head_set.contains(u) {
                    return true;
                }
                match t {
                    QTerm::Const(_) => false,
                    QTerm::Var(x) => {
                        image_count[x] == 1
                            && !head_vars.contains(x)
                            && var_atoms[x].iter().all(|i| covered.contains(i))
                    }
                }
            });
            out.push(Candidate {
                view_pos,
                args,
                covered,
                mask,
                minicon,
            });
        }
    }
    out
}

fn assemble(
    q: &ConjunctiveQuery,
    views: &[View],
    chosen: &[&Candidate],
    covered: u64,
) -> RewritePlan {
    let mut atoms: Vec<PlanAtom> = Vec::new();
    for c in chosen {
        let pa = PlanAtom::View(RewAtom {
            view: views[c.view_pos].id,
            args: c.args.clone(),
        });
        if !atoms.contains(&pa) {
            atoms.push(pa);
        }
    }
    for (i, a) in q.atoms.iter().enumerate() {
        if covered & (1 << i) == 0 {
            atoms.push(PlanAtom::Base(*a));
        }
    }
    RewritePlan {
        head: q.head.clone(),
        atoms,
    }
}

struct CoverCtx<'a> {
    q: &'a ConjunctiveQuery,
    views: &'a [View],
    cands: &'a [Candidate],
    /// Candidate indices covering each atom, best-first.
    per_atom: Vec<Vec<usize>>,
    full: u64,
    nodes_left: usize,
    checks_left: usize,
}

fn cover_search(
    ctx: &mut CoverCtx<'_>,
    covered: u64,
    chosen: &mut Vec<usize>,
) -> Option<RewritePlan> {
    if ctx.nodes_left == 0 {
        return None;
    }
    ctx.nodes_left -= 1;
    if covered == ctx.full {
        if ctx.checks_left == 0 {
            return None;
        }
        ctx.checks_left -= 1;
        let picked: Vec<&Candidate> = chosen.iter().map(|&i| &ctx.cands[i]).collect();
        let plan = assemble(ctx.q, ctx.views, &picked, covered);
        if equivalent(&unfold_plan(ctx.views, &plan), ctx.q) {
            return Some(plan);
        }
        return None;
    }
    // Most-constrained first: the uncovered atom with fewest candidates.
    let pick = (0..ctx.q.atoms.len())
        .filter(|&i| covered & (1 << i) == 0)
        .min_by_key(|&i| ctx.per_atom[i].len())?;
    let options = ctx.per_atom[pick].clone();
    for ci in options {
        chosen.push(ci);
        if let Some(plan) = cover_search(ctx, covered | ctx.cands[ci].mask, chosen) {
            return Some(plan);
        }
        chosen.pop();
        if ctx.nodes_left == 0 || ctx.checks_left == 0 {
            return None;
        }
    }
    None
}

/// A complete views-only rewriting of `q` over an existing candidate set,
/// verified equivalent ([`unfold_plan`] + Chandra–Merlin), or `None` when
/// the cover search finds none.
fn views_only_from(
    q: &ConjunctiveQuery,
    views: &[View],
    cands: &[Candidate],
) -> Option<RewritePlan> {
    let mut per_atom: Vec<Vec<usize>> = vec![Vec::new(); q.atoms.len()];
    for (ci, c) in cands.iter().enumerate() {
        for &i in &c.covered {
            per_atom[i].push(ci);
        }
    }
    // Best-first per atom: MiniCon candidates before fallbacks, larger
    // coverage before smaller (fewer scans ≈ cheaper plans, found sooner).
    for list in &mut per_atom {
        list.sort_by_key(|&ci| {
            let c = &cands[ci];
            (!c.minicon, std::cmp::Reverse(c.covered.len()))
        });
    }
    let mut ctx = CoverCtx {
        q,
        views,
        cands,
        per_atom,
        full: if q.atoms.len() == 64 {
            u64::MAX
        } else {
            (1u64 << q.atoms.len()) - 1
        },
        nodes_left: MAX_COVER_NODES,
        checks_left: MAX_EQUIV_CHECKS,
    };
    cover_search(&mut ctx, 0, &mut Vec::new())
}

/// Computes the best plan for `q` in **one pass** over one candidate
/// enumeration: a complete views-only rewriting when the cover search
/// finds one, otherwise view scans for the atoms the views can cover
/// (greedy, largest coverage first, each addition verified equivalent and
/// cross-product-free) and base-store scans for the rest. Always succeeds;
/// the worst case is the all-base plan. `q` should be minimized and
/// normalized. Check [`RewritePlan::is_views_only`] to tell the outcomes
/// apart: the one candidate enumeration serves both the cover search and
/// the fallback.
pub fn rewrite_best(q: &ConjunctiveQuery, views: &[View]) -> RewritePlan {
    if q.atoms.is_empty() || q.atoms.len() > MAX_QUERY_ATOMS {
        return base_plan(q);
    }
    let cands = candidates(q, views);
    if let Some(plan) = views_only_from(q, views, &cands) {
        return plan;
    }
    hybrid_from(q, views, &cands)
}

/// The greedy hybrid assembly over an existing candidate set.
fn hybrid_from(q: &ConjunctiveQuery, views: &[View], cands: &[Candidate]) -> RewritePlan {
    let base_components = query_component_count(q);
    let mut order: Vec<usize> = (0..cands.len()).filter(|&i| cands[i].minicon).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cands[i].covered.len()));
    let mut chosen: Vec<&Candidate> = Vec::new();
    let mut covered = 0u64;
    for ci in order {
        let c = &cands[ci];
        if c.mask & !covered == 0 {
            continue;
        }
        let mut tentative = chosen.clone();
        tentative.push(c);
        let plan = assemble(q, views, &tentative, covered | c.mask);
        if plan_component_count(&plan) <= base_components
            && equivalent(&unfold_plan(views, &plan), q)
        {
            chosen = tentative;
            covered |= c.mask;
        }
    }
    assemble(q, views, &chosen, covered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::State;
    use rdf_model::Dictionary;
    use rdf_query::minimize;
    use rdf_query::parser::parse_query;

    fn q(dict: &mut Dictionary, text: &str) -> ConjunctiveQuery {
        parse_query(text, dict).unwrap().query
    }

    /// Views of the initial state of a workload: one per query.
    fn views_of(workload: &[ConjunctiveQuery]) -> Vec<View> {
        State::initial(workload).views().cloned().collect()
    }

    #[test]
    fn single_atom_view_covers_specialization() {
        let mut dict = Dictionary::new();
        let views = views_of(&[q(&mut dict, "v(X, Y) :- t(X, <p>, Y)")]);
        let adhoc = minimize(&q(&mut dict, "a(X) :- t(X, <p>, <o1>)")).normalized();
        let plan = rewrite_best(&adhoc, &views);
        assert!(plan.is_views_only());
        assert_eq!(plan.atoms.len(), 1);
        assert!(equivalent(&unfold_plan(&views, &plan), &adhoc));
    }

    #[test]
    fn star_join_covered_by_two_views() {
        let mut dict = Dictionary::new();
        let views = views_of(&[
            q(&mut dict, "v1(X, Y) :- t(X, <p>, Y)"),
            q(&mut dict, "v2(X, Y) :- t(X, <q>, Y)"),
        ]);
        let adhoc = minimize(&q(&mut dict, "a(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)")).normalized();
        let plan = rewrite_best(&adhoc, &views);
        assert!(plan.is_views_only());
        assert_eq!(plan.views_used().len(), 2);
        assert!(equivalent(&unfold_plan(&views, &plan), &adhoc));
    }

    #[test]
    fn joined_view_covers_its_own_shape_but_not_half_of_it() {
        let mut dict = Dictionary::new();
        // A 2-atom view joining through an existential: covers the full
        // chain, but q asking only for the first hop is NOT expressible
        // (the view's join restricts X to parents of painters).
        let views = views_of(&[q(
            &mut dict,
            "v(X, Z) :- t(X, <isParentOf>, Y), t(Y, <hasPainted>, Z)",
        )]);
        let chain = minimize(&q(
            &mut dict,
            "a(X, Z) :- t(X, <isParentOf>, Y), t(Y, <hasPainted>, Z)",
        ))
        .normalized();
        let plan = rewrite_best(&chain, &views);
        assert!(plan.is_views_only(), "the view is the query");

        let first_hop = minimize(&q(&mut dict, "a(X, Y) :- t(X, <isParentOf>, Y)")).normalized();
        let plan = rewrite_best(&first_hop, &views);
        assert!(
            !plan.is_views_only() && plan.view_atoms() == 0,
            "the joined view must not pretend to answer the bare first hop"
        );
    }

    #[test]
    fn uncoverable_atom_goes_hybrid_without_cross_products() {
        let mut dict = Dictionary::new();
        let views = views_of(&[q(&mut dict, "v(X, Y) :- t(X, <p>, Y)")]);
        let adhoc = minimize(&q(&mut dict, "a(X) :- t(X, <p>, Y), t(Y, <r>, <c>)")).normalized();
        let plan = rewrite_best(&adhoc, &views);
        assert!(!plan.is_views_only());
        assert_eq!(plan.view_atoms(), 1);
        assert_eq!(plan.residual_atoms(), 1);
        assert!(equivalent(&unfold_plan(&views, &plan), &adhoc));
        assert_eq!(plan_component_count(&plan), query_component_count(&adhoc));
    }

    #[test]
    fn existential_projection_blocks_unsound_cover() {
        let mut dict = Dictionary::new();
        // The view projects the join variable away: using it for the first
        // atom would lose the join with the second.
        let views = views_of(&[q(&mut dict, "v(X) :- t(X, <p>, Y)")]);
        let adhoc = minimize(&q(&mut dict, "a(X) :- t(X, <p>, Y), t(Y, <q>, <c>)")).normalized();
        let plan = rewrite_best(&adhoc, &views);
        assert!(!plan.is_views_only());
        // The sound hybrid keeps BOTH atoms on the base store — scanning
        // v for atom 1 cannot restore the join on Y.
        assert_eq!(plan.residual_atoms(), 2);
        assert!(equivalent(&unfold_plan(&views, &plan), &adhoc));
    }

    #[test]
    fn boolean_query_over_boolean_view() {
        let mut dict = Dictionary::new();
        let views = views_of(&[q(&mut dict, "v() :- t(X, <p>, Y)")]);
        let adhoc = minimize(&q(&mut dict, "a() :- t(X, <p>, Y)")).normalized();
        let plan = rewrite_best(&adhoc, &views);
        assert!(plan.is_views_only(), "boolean cover");
        assert!(equivalent(&unfold_plan(&views, &plan), &adhoc));
    }

    #[test]
    fn base_plan_is_identity() {
        let mut dict = Dictionary::new();
        let adhoc = q(&mut dict, "a(X) :- t(X, <p>, Y), t(Y, <q>, Z)");
        let plan = base_plan(&adhoc);
        assert_eq!(plan.residual_atoms(), 2);
        assert_eq!(unfold_plan(&[], &plan), adhoc);
    }
}
