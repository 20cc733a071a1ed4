//! Conjunctive queries over the triple table.

use rdf_model::{FxHashMap, FxHashSet, Id};

/// A query variable, identified by a query-local index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl std::fmt::Display for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "X{}", self.0)
    }
}

/// A term of a query atom or head: a variable or a constant.
///
/// Heads may contain constants: reformulation rules 5 and 6 substitute
/// schema constants for head variables (`q4(X1, isLocatIn) :- …` in the
/// paper's Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QTerm {
    /// A variable.
    Var(Var),
    /// A dictionary-encoded constant.
    Const(Id),
}

impl QTerm {
    /// The variable inside, if any.
    #[inline]
    pub fn as_var(self) -> Option<Var> {
        match self {
            QTerm::Var(v) => Some(v),
            QTerm::Const(_) => None,
        }
    }

    /// The constant inside, if any.
    #[inline]
    pub fn as_const(self) -> Option<Id> {
        match self {
            QTerm::Var(_) => None,
            QTerm::Const(c) => Some(c),
        }
    }

    /// Whether this term is a variable.
    #[inline]
    pub fn is_var(self) -> bool {
        matches!(self, QTerm::Var(_))
    }
}

impl From<Var> for QTerm {
    fn from(v: Var) -> Self {
        QTerm::Var(v)
    }
}

impl From<Id> for QTerm {
    fn from(c: Id) -> Self {
        QTerm::Const(c)
    }
}

/// One atom `t(s, p, o)` of a conjunctive query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom(pub [QTerm; 3]);

impl Atom {
    /// Builds an atom from three terms.
    pub fn new(s: impl Into<QTerm>, p: impl Into<QTerm>, o: impl Into<QTerm>) -> Self {
        Atom([s.into(), p.into(), o.into()])
    }

    /// The three terms.
    #[inline]
    pub fn terms(&self) -> &[QTerm; 3] {
        &self.0
    }

    /// Iterates the variables of this atom (with duplicates).
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.0.iter().filter_map(|t| t.as_var())
    }

    /// Number of constants in the atom.
    pub fn const_count(&self) -> usize {
        self.0.iter().filter(|t| !t.is_var()).count()
    }

    /// Applies a variable substitution (vars absent from the map are kept).
    pub fn substitute(&self, map: &FxHashMap<Var, QTerm>) -> Atom {
        Atom(self.0.map(|t| match t {
            QTerm::Var(v) => map.get(&v).copied().unwrap_or(t),
            c => c,
        }))
    }
}

/// A conjunctive query (or view) over the triple table `t(s, p, o)`:
/// `q(head) :- atom₁, …, atomₙ` (Definition 2.1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConjunctiveQuery {
    /// The distinguished (answer) terms, in order.
    pub head: Vec<QTerm>,
    /// The body atoms.
    pub atoms: Vec<Atom>,
}

impl ConjunctiveQuery {
    /// Builds a query from head terms and atoms.
    pub fn new(head: Vec<QTerm>, atoms: Vec<Atom>) -> Self {
        Self { head, atoms }
    }

    /// `len(q)` in the paper: the number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the body is empty (degenerate).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// All distinct body variables, in first-occurrence order.
    pub fn body_vars(&self) -> Vec<Var> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for atom in &self.atoms {
            for v in atom.vars() {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// All distinct head variables, in head order.
    pub fn head_vars(&self) -> Vec<Var> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for t in &self.head {
            if let QTerm::Var(v) = t {
                if seen.insert(*v) {
                    out.push(*v);
                }
            }
        }
        out
    }

    /// Largest variable index used (head or body), if any.
    pub fn max_var(&self) -> Option<u32> {
        let body = self.atoms.iter().flat_map(|a| a.vars()).map(|v| v.0);
        let head = self.head.iter().filter_map(|t| t.as_var()).map(|v| v.0);
        body.chain(head).max()
    }

    /// A variable index strictly larger than any in use.
    pub fn fresh_var(&self) -> Var {
        Var(self.max_var().map_or(0, |m| m + 1))
    }

    /// Total number of constants in body atoms — `#c(Q)` of the paper's
    /// Table 3 counts these across a workload.
    pub fn const_count(&self) -> usize {
        self.atoms.iter().map(|a| a.const_count()).sum()
    }

    /// Whether every head variable occurs in the body (safety).
    pub fn is_safe(&self) -> bool {
        let body: FxHashSet<Var> = self.atoms.iter().flat_map(|a| a.vars()).collect();
        self.head_vars().iter().all(|v| body.contains(v))
    }

    /// Applies a variable substitution to body and head.
    pub fn substitute(&self, map: &FxHashMap<Var, QTerm>) -> ConjunctiveQuery {
        ConjunctiveQuery {
            head: self
                .head
                .iter()
                .map(|t| match t {
                    QTerm::Var(v) => map.get(v).copied().unwrap_or(*t),
                    c => *c,
                })
                .collect(),
            atoms: self.atoms.iter().map(|a| a.substitute(map)).collect(),
        }
    }

    /// Renumbers variables densely starting from 0 (first-occurrence order
    /// over head then body). Useful before comparing or storing queries.
    pub fn normalized(&self) -> ConjunctiveQuery {
        let mut map: FxHashMap<Var, QTerm> = FxHashMap::default();
        let mut next = 0u32;
        let mut touch = |v: Var, map: &mut FxHashMap<Var, QTerm>| {
            map.entry(v).or_insert_with(|| {
                let t = QTerm::Var(Var(next));
                next += 1;
                t
            });
        };
        for t in &self.head {
            if let QTerm::Var(v) = t {
                touch(*v, &mut map);
            }
        }
        for a in &self.atoms {
            for v in a.vars() {
                touch(v, &mut map);
            }
        }
        self.substitute(&map)
    }

    /// Replaces the atom at `idx` with `atom`, returning a new query.
    pub fn with_atom_replaced(&self, idx: usize, atom: Atom) -> ConjunctiveQuery {
        let mut atoms = self.atoms.clone();
        atoms[idx] = atom;
        ConjunctiveQuery {
            head: self.head.clone(),
            atoms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> QTerm {
        QTerm::Var(Var(i))
    }
    fn c(i: u32) -> QTerm {
        QTerm::Const(Id(i))
    }

    #[test]
    fn var_collections() {
        // q(X0, 5) :- t(X0, c1, X1), t(X1, c2, X2)
        let q = ConjunctiveQuery::new(
            vec![v(0), c(5)],
            vec![
                Atom::new(Var(0), Id(1), Var(1)),
                Atom::new(Var(1), Id(2), Var(2)),
            ],
        );
        assert_eq!(q.body_vars(), vec![Var(0), Var(1), Var(2)]);
        assert_eq!(q.head_vars(), vec![Var(0)]);
        assert_eq!(q.max_var(), Some(2));
        assert_eq!(q.fresh_var(), Var(3));
        assert_eq!(q.const_count(), 2);
        assert!(q.is_safe());
    }

    #[test]
    fn unsafe_head_detected() {
        let q = ConjunctiveQuery::new(vec![v(9)], vec![Atom::new(Var(0), Id(1), Var(1))]);
        assert!(!q.is_safe());
    }

    #[test]
    fn substitution() {
        let q = ConjunctiveQuery::new(vec![v(0)], vec![Atom::new(Var(0), Id(1), Var(1))]);
        let mut map = FxHashMap::default();
        map.insert(Var(1), c(7));
        let q2 = q.substitute(&map);
        assert_eq!(q2.atoms[0].0[2], c(7));
        assert_eq!(q2.head, vec![v(0)]);
    }

    #[test]
    fn normalization_is_dense_and_stable() {
        let q = ConjunctiveQuery::new(
            vec![v(17)],
            vec![
                Atom::new(Var(17), Id(1), Var(40)),
                Atom::new(Var(40), Id(2), Var(3)),
            ],
        );
        let n = q.normalized();
        assert_eq!(n.head, vec![v(0)]);
        assert_eq!(n.atoms[0], Atom::new(Var(0), Id(1), Var(1)));
        assert_eq!(n.atoms[1], Atom::new(Var(1), Id(2), Var(2)));
        assert_eq!(n.normalized(), n);
    }

    #[test]
    fn atom_helpers() {
        let a = Atom::new(Var(0), Id(3), Var(0));
        assert_eq!(a.vars().count(), 2);
        assert_eq!(a.const_count(), 1);
    }
}
