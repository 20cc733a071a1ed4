//! The paper's *state graph*, per view (Definition 3.1): one node per body
//! atom, a **join edge** per pair of occurrences of a variable in two
//! distinct atoms, and a **selection edge** (self-loop) per constant.
//!
//! Views must not contain Cartesian products, so the graph of every view is
//! connected; this module supplies the connectivity tests and the
//! connected-subset enumeration that View Break needs.

use rdf_model::{FxHashMap, FxHashSet, Id};

use crate::query::{Atom, QTerm, Var};

/// A variable occurrence: atom index and column (0 = s, 1 = p, 2 = o).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Occurrence {
    /// Index of the atom within the body.
    pub atom: usize,
    /// Column position within the atom.
    pub pos: usize,
}

/// A join edge: two occurrences of the same variable in distinct atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinEdge {
    /// The shared variable.
    pub var: Var,
    /// Occurrence in the lower-indexed atom.
    pub a: Occurrence,
    /// Occurrence in the higher-indexed atom.
    pub b: Occurrence,
}

/// A selection edge: a constant in some atom position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SelectionEdge {
    /// The atom holding the constant.
    pub atom: usize,
    /// Column position of the constant.
    pub pos: usize,
    /// The constant id.
    pub constant: Id,
}

/// The join/selection multigraph of a conjunctive body.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    n: usize,
    join_edges: Vec<JoinEdge>,
    selection_edges: Vec<SelectionEdge>,
    adj: Vec<Vec<usize>>,
}

impl JoinGraph {
    /// Builds the graph of a body.
    pub fn new(atoms: &[Atom]) -> Self {
        let n = atoms.len();
        let mut occurrences: FxHashMap<Var, Vec<Occurrence>> = FxHashMap::default();
        let mut selection_edges = Vec::new();
        for (ai, atom) in atoms.iter().enumerate() {
            for (pos, term) in atom.terms().iter().enumerate() {
                match term {
                    QTerm::Var(v) => occurrences
                        .entry(*v)
                        .or_default()
                        .push(Occurrence { atom: ai, pos }),
                    QTerm::Const(c) => selection_edges.push(SelectionEdge {
                        atom: ai,
                        pos,
                        constant: *c,
                    }),
                }
            }
        }
        let mut join_edges = Vec::new();
        let mut adj = vec![Vec::new(); n];
        let mut vars: Vec<_> = occurrences.into_iter().collect();
        vars.sort_unstable_by_key(|(v, _)| *v);
        for (var, occs) in vars {
            for i in 0..occs.len() {
                for j in i + 1..occs.len() {
                    if occs[i].atom != occs[j].atom {
                        join_edges.push(JoinEdge {
                            var,
                            a: occs[i],
                            b: occs[j],
                        });
                        adj[occs[i].atom].push(occs[j].atom);
                        adj[occs[j].atom].push(occs[i].atom);
                    }
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        Self {
            n,
            join_edges,
            selection_edges,
            adj,
        }
    }

    /// Number of nodes (atoms).
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// All join edges.
    pub fn join_edges(&self) -> &[JoinEdge] {
        &self.join_edges
    }

    /// All selection edges.
    pub fn selection_edges(&self) -> &[SelectionEdge] {
        &self.selection_edges
    }

    /// Neighbors of a node.
    pub fn neighbors(&self, node: usize) -> &[usize] {
        &self.adj[node]
    }

    /// Whether the whole graph is connected (trivially true for ≤ 1 node).
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        self.component_of(0).len() == self.n
    }

    fn component_of(&self, start: usize) -> Vec<usize> {
        let mut seen = vec![false; self.n];
        seen[start] = true;
        let mut stack = vec![start];
        let mut out = vec![start];
        while let Some(x) = stack.pop() {
            for &nb in &self.adj[x] {
                if !seen[nb] {
                    seen[nb] = true;
                    out.push(nb);
                    stack.push(nb);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The connected components, each sorted, ordered by smallest member.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.n];
        let mut comps = Vec::new();
        for start in 0..self.n {
            if seen[start] {
                continue;
            }
            let comp = self.component_of(start);
            for &x in &comp {
                seen[x] = true;
            }
            comps.push(comp);
        }
        comps
    }

    /// Whether the given node subset induces a connected subgraph.
    pub fn is_connected_subset(&self, nodes: &[usize]) -> bool {
        if nodes.is_empty() {
            return false;
        }
        if nodes.len() == 1 {
            return true;
        }
        let in_set: FxHashSet<usize> = nodes.iter().copied().collect();
        let mut seen = FxHashSet::default();
        seen.insert(nodes[0]);
        let mut stack = vec![nodes[0]];
        while let Some(x) = stack.pop() {
            for &nb in &self.adj[x] {
                if in_set.contains(&nb) && seen.insert(nb) {
                    stack.push(nb);
                }
            }
        }
        seen.len() == nodes.len()
    }

    /// Enumerates **all** connected node subsets (non-empty), each sorted.
    ///
    /// Uses the classic fixed-smallest-element growth: subsets containing
    /// `v` as their minimum are grown only through neighbors `> v`, so each
    /// subset is produced exactly once. Worst case exponential (it must be:
    /// a clique has `2^n - 1` connected subsets) — view bodies are small.
    pub fn connected_subsets(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for v in 0..self.n {
            let mut current = vec![v];
            let candidates: Vec<usize> = self.adj[v].iter().copied().filter(|&u| u > v).collect();
            self.grow(
                v,
                &mut current,
                candidates,
                &mut FxHashSet::default(),
                &mut out,
            );
        }
        out
    }

    fn grow(
        &self,
        min: usize,
        current: &mut Vec<usize>,
        mut candidates: Vec<usize>,
        forbidden: &mut FxHashSet<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        let mut sorted = current.clone();
        sorted.sort_unstable();
        out.push(sorted);
        // Nodes forbidden at this level; restored before returning so that
        // the caller's sibling branches see its own forbidden set.
        let mut added_here = Vec::new();
        while let Some(u) = candidates.pop() {
            if forbidden.contains(&u) || current.contains(&u) {
                continue;
            }
            // Branch 1: include u, extending candidates with its frontier.
            current.push(u);
            let mut next: Vec<usize> = candidates.clone();
            for &nb in &self.adj[u] {
                if nb > min && !current.contains(&nb) && !forbidden.contains(&nb) {
                    next.push(nb);
                }
            }
            self.grow(min, current, next, forbidden, out);
            current.pop();
            // Branch 2: exclude u from every later subset of this subtree,
            // which is what makes each subset appear exactly once.
            forbidden.insert(u);
            added_here.push(u);
        }
        for u in added_here {
            forbidden.remove(&u);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Id;

    fn chain(n: usize) -> Vec<Atom> {
        // t(X0, p, X1), t(X1, p, X2), ...
        (0..n)
            .map(|i| Atom::new(Var(i as u32), Id(0), Var(i as u32 + 1)))
            .collect()
    }

    fn star(n: usize) -> Vec<Atom> {
        // t(X0, pi, Yi) — all atoms share the subject.
        (0..n)
            .map(|i| Atom::new(Var(0), Id(i as u32), Var(i as u32 + 1)))
            .collect()
    }

    #[test]
    fn edges_of_running_example() {
        // q1: t(X, hasPainted, starryNight), t(X, isParentOf, Y),
        //     t(Y, hasPainted, Z) — Figure 1's S0.
        let atoms = vec![
            Atom::new(Var(0), Id(10), Id(20)),
            Atom::new(Var(0), Id(11), Var(1)),
            Atom::new(Var(1), Id(10), Var(2)),
        ];
        let g = JoinGraph::new(&atoms);
        assert_eq!(g.node_count(), 3);
        // X joins atoms 0–1 (s=s); Y joins atoms 1–2 (o=s).
        assert_eq!(g.join_edges().len(), 2);
        // Constants: hasPainted, starryNight, isParentOf, hasPainted.
        assert_eq!(g.selection_edges().len(), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn multi_edges_between_atom_pairs() {
        // t(X, p, Y), t(X, q, Y): two join edges between the same node pair.
        let atoms = vec![
            Atom::new(Var(0), Id(1), Var(1)),
            Atom::new(Var(0), Id(2), Var(1)),
        ];
        let g = JoinGraph::new(&atoms);
        assert_eq!(g.join_edges().len(), 2);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn intra_atom_repetition_is_not_an_edge() {
        let atoms = vec![Atom::new(Var(0), Id(1), Var(0))];
        let g = JoinGraph::new(&atoms);
        assert!(g.join_edges().is_empty());
    }

    #[test]
    fn disconnected_components() {
        let atoms = vec![
            Atom::new(Var(0), Id(1), Var(1)),
            Atom::new(Var(2), Id(1), Var(3)),
        ];
        let g = JoinGraph::new(&atoms);
        assert!(!g.is_connected());
        assert_eq!(g.components(), vec![vec![0], vec![1]]);
    }

    #[test]
    fn connected_subset_checks() {
        let g = JoinGraph::new(&chain(3)); // path of 4 atoms? no: 3 atoms 0-1-2
        assert!(g.is_connected_subset(&[0, 1]));
        assert!(g.is_connected_subset(&[0, 1, 2]));
        assert!(!g.is_connected_subset(&[0, 2]));
        assert!(g.is_connected_subset(&[2]));
        assert!(!g.is_connected_subset(&[]));
    }

    #[test]
    fn connected_subsets_of_path() {
        // Path on 3 nodes: subsets {0},{1},{2},{01},{12},{012} = 6.
        let g = JoinGraph::new(&chain(3));
        let mut subs = g.connected_subsets();
        subs.sort();
        assert_eq!(subs.len(), 6);
        assert!(subs.contains(&vec![0, 1, 2]));
        assert!(!subs.contains(&vec![0, 2]));
    }

    #[test]
    fn connected_subsets_of_star_is_powerset_minus_disconnected() {
        // Star with center node... every atom shares X0, so the atom graph
        // is a clique: all 2^n - 1 subsets are connected.
        let g = JoinGraph::new(&star(4));
        assert_eq!(g.connected_subsets().len(), 15);
    }

    #[test]
    fn connected_subsets_unique() {
        let g = JoinGraph::new(&chain(5));
        let subs = g.connected_subsets();
        let set: FxHashSet<Vec<usize>> = subs.iter().cloned().collect();
        assert_eq!(set.len(), subs.len(), "no duplicates");
        // Path on n nodes has n(n+1)/2 connected subsets.
        assert_eq!(subs.len(), 5 * 6 / 2);
    }
}
