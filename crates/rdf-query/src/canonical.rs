//! Canonical forms of conjunctive queries up to variable renaming.
//!
//! Two places in the paper need a renaming-invariant identity for queries:
//!
//! * **View Fusion** (Definition 3.5) fuses views whose "graphs are
//!   isomorphic (their bodies are equivalent up to variable renaming)";
//! * **state deduplication** — "two states are equivalent if they have the
//!   same view sets" — which the search uses to recognize states reached by
//!   multiple paths (Section 6.3 measures exactly these duplicates).
//!
//! The canonical form is the lexicographically smallest token sequence over
//! all atom orders and dense variable numberings. The search is greedy on
//! atom blocks (choosing a non-minimal next atom can only produce a larger
//! sequence, since all completions have equal length) and branches only on
//! exact ties, so it is exponential only in the number of mutually
//! indistinguishable atoms — rare and small for the ≤ ~10-atom views the
//! paper's workloads produce.

use rdf_model::{FxHashMap, Id};

use crate::query::{Atom, ConjunctiveQuery, QTerm, Var};

/// A token of the canonical encoding. `Const` sorts before `Var` by variant
/// order, which fixes the total order the minimization uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CTok {
    /// A constant id.
    Const(Id),
    /// A canonically numbered variable.
    Var(u32),
    /// Separator between body and head sections.
    HeadMark,
}

/// How the head participates in the canonical form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadMode {
    /// Body only — the View Fusion isomorphism test.
    Ignore,
    /// Head appended in declared order — full query identity.
    Ordered,
    /// Head appended as a sorted multiset — view identity up to column
    /// order, used for state signatures.
    Sorted,
}

/// The canonical form: a token key plus the variable numbering achieving it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalForm {
    /// The minimal token sequence. Equal keys ⟺ isomorphic queries (under
    /// the chosen [`HeadMode`]).
    pub key: Vec<CTok>,
    /// Maps each original variable to its canonical number.
    pub var_map: FxHashMap<Var, u32>,
}

impl CanonicalForm {
    /// Inverse of `var_map`: canonical number → original variable.
    pub fn number_to_var(&self) -> Vec<Var> {
        let mut inv = vec![Var(u32::MAX); self.var_map.len()];
        for (&v, &n) in &self.var_map {
            inv[n as usize] = v;
        }
        inv
    }
}

/// Computes the canonical form of `q` under the given head mode.
pub fn canonical_form(q: &ConjunctiveQuery, mode: HeadMode) -> CanonicalForm {
    let search = Search { q, mode };
    let mut state = PartialState {
        placed: vec![false; q.atoms.len()],
        mapping: FxHashMap::default(),
        next_num: 0,
        tokens: Vec::with_capacity(q.atoms.len() * 3 + q.head.len() + 1),
    };
    search.rec(&mut state, q.atoms.len())
}

struct Search<'a> {
    q: &'a ConjunctiveQuery,
    mode: HeadMode,
}

struct PartialState {
    placed: Vec<bool>,
    mapping: FxHashMap<Var, u32>,
    next_num: u32,
    tokens: Vec<CTok>,
}

impl Search<'_> {
    /// The smallest leaf below `st` — the first found among equals — when
    /// `remaining` atoms are still to place.
    fn rec(&self, st: &mut PartialState, remaining: usize) -> CanonicalForm {
        if remaining == 0 {
            return self.leaf(st);
        }
        // Encode each unplaced atom under the current mapping, numbering its
        // unseen variables on the fly.
        let mut min_enc: Option<[CTok; 3]> = None;
        let mut ties: Vec<(usize, [CTok; 3])> = Vec::new();
        for (i, placed) in st.placed.iter().enumerate() {
            if *placed {
                continue;
            }
            let enc = encode_atom(&self.q.atoms[i], &st.mapping, st.next_num);
            match &min_enc {
                None => {
                    min_enc = Some(enc);
                    ties.push((i, enc));
                }
                Some(cur) => match enc.cmp(cur) {
                    std::cmp::Ordering::Less => {
                        min_enc = Some(enc);
                        ties.clear();
                        ties.push((i, enc));
                    }
                    std::cmp::Ordering::Equal => ties.push((i, enc)),
                    std::cmp::Ordering::Greater => {}
                },
            }
        }
        // `remaining` atoms are unplaced, so at least one ties.
        let mut best = self.place(st, ties[0], remaining);
        for &tie in &ties[1..] {
            let leaf = self.place(st, tie, remaining);
            if leaf.key < best.key {
                best = leaf;
            }
        }
        best
    }

    /// Places atom `i`, encoded `enc`, and returns the smallest leaf below.
    fn place(
        &self,
        st: &mut PartialState,
        (i, enc): (usize, [CTok; 3]),
        remaining: usize,
    ) -> CanonicalForm {
        st.placed[i] = true;
        let token_mark = st.tokens.len();
        st.tokens.extend_from_slice(&enc);
        // Commit the new variable numbers this atom introduces.
        let mut added: Vec<Var> = Vec::new();
        let saved_next = st.next_num;
        for term in self.q.atoms[i].terms() {
            if let QTerm::Var(v) = term {
                if !st.mapping.contains_key(v) {
                    st.mapping.insert(*v, st.next_num);
                    st.next_num += 1;
                    added.push(*v);
                }
            }
        }
        let best = self.rec(st, remaining - 1);
        for v in added {
            st.mapping.remove(&v);
        }
        st.next_num = saved_next;
        st.tokens.truncate(token_mark);
        st.placed[i] = false;
        best
    }

    /// The complete placement `st` as a canonical form.
    fn leaf(&self, st: &PartialState) -> CanonicalForm {
        let mut key = st.tokens.clone();
        let mut mapping = st.mapping.clone();
        if self.mode != HeadMode::Ignore {
            key.push(CTok::HeadMark);
            let mut next = st.next_num;
            let mut head_toks: Vec<CTok> = Vec::with_capacity(self.q.head.len());
            for t in &self.q.head {
                head_toks.push(match t {
                    QTerm::Const(c) => CTok::Const(*c),
                    QTerm::Var(v) => {
                        // Head vars missing from the body (unsafe queries)
                        // are numbered after all body vars.
                        let n = *mapping.entry(*v).or_insert_with(|| {
                            let n = next;
                            next += 1;
                            n
                        });
                        CTok::Var(n)
                    }
                });
            }
            if self.mode == HeadMode::Sorted {
                head_toks.sort_unstable();
            }
            key.extend_from_slice(&head_toks);
        }
        CanonicalForm {
            key,
            var_map: mapping,
        }
    }
}

fn encode_atom(atom: &Atom, mapping: &FxHashMap<Var, u32>, next_num: u32) -> [CTok; 3] {
    let mut next = next_num;
    let mut local: FxHashMap<Var, u32> = FxHashMap::default();
    let mut out = [CTok::HeadMark; 3];
    for (k, term) in atom.terms().iter().enumerate() {
        out[k] = match term {
            QTerm::Const(c) => CTok::Const(*c),
            QTerm::Var(v) => {
                let n = mapping.get(v).copied().or_else(|| local.get(v).copied());
                let n = n.unwrap_or_else(|| {
                    let n = next;
                    next += 1;
                    local.insert(*v, n);
                    n
                });
                CTok::Var(n)
            }
        };
    }
    out
}

/// Derives the variable renaming sending the body of `b`'s query onto the
/// body of `a`'s (a bijection making the bodies syntactically identical)
/// from their [`HeadMode::Ignore`] canonical forms, or `None` if the bodies
/// are not isomorphic.
///
/// The returned map renames `b`'s variables to `a`'s — the `⟨2→1⟩` renaming
/// of the paper's View Fusion definition.
pub fn body_isomorphism(a: &CanonicalForm, b: &CanonicalForm) -> Option<FxHashMap<Var, Var>> {
    if a.key != b.key {
        return None;
    }
    let num_to_a = a.number_to_var();
    Some(
        b.var_map
            .iter()
            .map(|(&v_b, &n)| (v_b, num_to_a[n as usize]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> QTerm {
        QTerm::Var(Var(i))
    }

    fn ignore(q: &ConjunctiveQuery) -> CanonicalForm {
        canonical_form(q, HeadMode::Ignore)
    }

    #[test]
    fn renaming_invariance() {
        let q1 = ConjunctiveQuery::new(
            vec![v(0)],
            vec![
                Atom::new(Var(0), Id(1), Var(1)),
                Atom::new(Var(1), Id(2), Var(2)),
            ],
        );
        let q2 = ConjunctiveQuery::new(
            vec![v(7)],
            vec![
                Atom::new(Var(9), Id(2), Var(4)),
                Atom::new(Var(7), Id(1), Var(9)),
            ],
        );
        assert_eq!(
            canonical_form(&q1, HeadMode::Ordered).key,
            canonical_form(&q2, HeadMode::Ordered).key
        );
    }

    #[test]
    fn head_distinguishes_queries() {
        let body = vec![Atom::new(Var(0), Id(1), Var(1))];
        let qx = ConjunctiveQuery::new(vec![v(0)], body.clone());
        let qy = ConjunctiveQuery::new(vec![v(1)], body.clone());
        assert_eq!(
            canonical_form(&qx, HeadMode::Ignore).key,
            canonical_form(&qy, HeadMode::Ignore).key
        );
        assert_ne!(
            canonical_form(&qx, HeadMode::Ordered).key,
            canonical_form(&qy, HeadMode::Ordered).key
        );
    }

    #[test]
    fn sorted_head_ignores_column_order() {
        let body = vec![Atom::new(Var(0), Id(1), Var(1))];
        let qxy = ConjunctiveQuery::new(vec![v(0), v(1)], body.clone());
        let qyx = ConjunctiveQuery::new(vec![v(1), v(0)], body.clone());
        assert_ne!(
            canonical_form(&qxy, HeadMode::Ordered).key,
            canonical_form(&qyx, HeadMode::Ordered).key
        );
        assert_eq!(
            canonical_form(&qxy, HeadMode::Sorted).key,
            canonical_form(&qyx, HeadMode::Sorted).key
        );
    }

    #[test]
    fn different_structure_different_key() {
        let chain = ConjunctiveQuery::new(
            vec![],
            vec![
                Atom::new(Var(0), Id(1), Var(1)),
                Atom::new(Var(1), Id(1), Var(2)),
            ],
        );
        let star = ConjunctiveQuery::new(
            vec![],
            vec![
                Atom::new(Var(0), Id(1), Var(1)),
                Atom::new(Var(0), Id(1), Var(2)),
            ],
        );
        assert_ne!(
            canonical_form(&chain, HeadMode::Ignore).key,
            canonical_form(&star, HeadMode::Ignore).key
        );
    }

    #[test]
    fn isomorphism_mapping_is_exact() {
        let a = ConjunctiveQuery::new(
            vec![v(0)],
            vec![
                Atom::new(Var(0), Id(1), Var(1)),
                Atom::new(Var(1), Id(2), Id(5)),
            ],
        );
        let b = ConjunctiveQuery::new(
            vec![v(3)],
            vec![
                Atom::new(Var(8), Id(2), Id(5)),
                Atom::new(Var(3), Id(1), Var(8)),
            ],
        );
        let map = body_isomorphism(&ignore(&a), &ignore(&b)).expect("isomorphic");
        // Applying the renaming to b's atoms must reproduce a's atoms as a set.
        let qmap: FxHashMap<Var, QTerm> = map
            .iter()
            .map(|(&from, &to)| (from, QTerm::Var(to)))
            .collect();
        let mut renamed: Vec<Atom> = b.atoms.iter().map(|at| at.substitute(&qmap)).collect();
        renamed.sort_by_key(|a| format!("{a:?}"));
        let mut orig = a.atoms.clone();
        orig.sort_by_key(|a| format!("{a:?}"));
        assert_eq!(renamed, orig);
    }

    #[test]
    fn non_isomorphic_rejected() {
        let a = ConjunctiveQuery::new(vec![], vec![Atom::new(Var(0), Id(1), Var(1))]);
        let b = ConjunctiveQuery::new(vec![], vec![Atom::new(Var(0), Id(2), Var(1))]);
        assert!(body_isomorphism(&ignore(&a), &ignore(&b)).is_none());
        let c = ConjunctiveQuery::new(
            vec![],
            vec![
                Atom::new(Var(0), Id(1), Var(1)),
                Atom::new(Var(0), Id(1), Var(1)),
            ],
        );
        assert!(body_isomorphism(&ignore(&a), &ignore(&c)).is_none());
    }

    #[test]
    fn symmetric_queries_terminate() {
        // A clique of same-property atoms: many ties, still exact & fast.
        let mut atoms = Vec::new();
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i != j {
                    atoms.push(Atom::new(Var(i), Id(1), Var(j)));
                }
            }
        }
        let q = ConjunctiveQuery::new(vec![], atoms);
        let c1 = canonical_form(&q, HeadMode::Ignore);
        // A relabeled version must agree.
        let mut map = FxHashMap::default();
        for i in 0..4u32 {
            map.insert(Var(i), QTerm::Var(Var(10 + (7 * i) % 4)));
        }
        let q2 = q.substitute(&map);
        let c2 = canonical_form(&q2, HeadMode::Ignore);
        assert_eq!(c1.key, c2.key);
    }

    #[test]
    fn intra_atom_repetition_encoded() {
        let loops = ConjunctiveQuery::new(vec![], vec![Atom::new(Var(0), Id(1), Var(0))]);
        let plain = ConjunctiveQuery::new(vec![], vec![Atom::new(Var(0), Id(1), Var(1))]);
        assert_ne!(
            canonical_form(&loops, HeadMode::Ignore).key,
            canonical_form(&plain, HeadMode::Ignore).key
        );
    }
}
