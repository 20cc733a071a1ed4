//! Query answers under set semantics.

use rdf_model::{FxHashSet, Id};

/// A set of answer tuples, kept sorted for deterministic iteration and
/// cheap equality.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Answers {
    arity: usize,
    tuples: Vec<Vec<Id>>,
}

impl Answers {
    /// Builds from a deduplicated set of tuples.
    pub fn from_set(arity: usize, set: FxHashSet<Vec<Id>>) -> Self {
        let mut tuples: Vec<Vec<Id>> = set.into_iter().collect();
        tuples.sort_unstable();
        Self { arity, tuples }
    }

    /// Builds from possibly-duplicated tuples.
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Vec<Id>>) -> Self {
        let mut tuples: Vec<Vec<Id>> = tuples.into_iter().collect();
        tuples.sort_unstable();
        tuples.dedup();
        Self { arity, tuples }
    }

    /// Builds from tuples the caller guarantees are already distinct
    /// (e.g. drained from a dedup set) — skips the re-hashing pass that
    /// [`Answers::from_tuples`] would pay.
    pub fn from_distinct(arity: usize, mut tuples: Vec<Vec<Id>>) -> Self {
        tuples.sort_unstable();
        debug_assert!(
            tuples.windows(2).all(|w| w[0] != w[1]),
            "from_distinct caller passed duplicates"
        );
        Self { arity, tuples }
    }

    /// Number of head columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of distinct tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether there are no answers.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples, sorted.
    pub fn tuples(&self) -> &[Vec<Id>] {
        &self.tuples
    }

    /// Membership test (binary search).
    pub fn contains(&self, tuple: &[Id]) -> bool {
        self.tuples
            .binary_search_by(|t| t.as_slice().cmp(tuple))
            .is_ok()
    }

    /// Merges two answer sets (set union); arities must agree.
    pub fn union(self, other: Answers) -> Answers {
        debug_assert_eq!(self.arity, other.arity);
        Answers::union_all(other.arity, [self, other])
    }

    /// The set union of any number of answer sets of one arity. Each input
    /// is already distinct and sorted, so a single input — every
    /// one-branch plan — is returned as it is; several are concatenated,
    /// sorted and deduplicated once.
    pub fn union_all(arity: usize, runs: impl IntoIterator<Item = Answers>) -> Answers {
        let mut runs = runs.into_iter();
        let mut tuples = runs.next().map_or_else(Vec::new, |first| first.tuples);
        let sorted = tuples.len();
        for run in runs {
            debug_assert_eq!(run.arity, arity);
            tuples.extend(run.tuples);
        }
        if tuples.len() > sorted {
            tuples.sort_unstable();
            tuples.dedup();
        }
        Answers { arity, tuples }
    }

    /// Consumes into the sorted tuple list.
    pub fn into_tuples(self) -> Vec<Vec<Id>> {
        self.tuples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_sort() {
        let a = Answers::from_tuples(
            2,
            vec![vec![Id(2), Id(1)], vec![Id(1), Id(1)], vec![Id(2), Id(1)]],
        );
        assert_eq!(a.len(), 2);
        assert_eq!(a.tuples()[0], vec![Id(1), Id(1)]);
        assert!(a.contains(&[Id(2), Id(1)]));
        assert!(!a.contains(&[Id(9), Id(9)]));
    }

    #[test]
    fn union_merges() {
        let a = Answers::from_tuples(1, vec![vec![Id(1)]]);
        let b = Answers::from_tuples(1, vec![vec![Id(1)], vec![Id(2)]]);
        let u = a.union(b);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn boolean_answers() {
        // Arity-0: at most one tuple (the empty tuple).
        let yes = Answers::from_tuples(0, vec![vec![]]);
        let no = Answers::from_tuples(0, Vec::<Vec<Id>>::new());
        assert_eq!(yes.len(), 1);
        assert!(no.is_empty());
    }
}
