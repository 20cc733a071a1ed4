//! The statistics catalog.

use rdf_model::{Dictionary, FxHashMap, Id, TripleStore};
use rdf_query::{Atom, QTerm};

/// A renaming-invariant key for a triple atom: constants stay, variables
/// are numbered by first occurrence (so `t(X, p, X)` and `t(Y, p, Y)` share
/// a key, distinct from `t(X, p, Y)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AtomKey(pub [KeySlot; 3]);

/// One slot of an [`AtomKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeySlot {
    /// A constant id.
    Const(Id),
    /// A variable, numbered by first occurrence within the atom.
    Var(u8),
}

impl AtomKey {
    /// Canonicalizes an atom into its key.
    pub fn of(atom: &Atom) -> Self {
        let mut groups: Vec<rdf_query::Var> = Vec::with_capacity(3);
        let slots = atom.terms().map(|t| match t {
            QTerm::Const(c) => KeySlot::Const(c),
            QTerm::Var(v) => {
                let g = groups.iter().position(|&x| x == v).unwrap_or_else(|| {
                    groups.push(v);
                    groups.len() - 1
                });
                KeySlot::Var(g as u8)
            }
        });
        AtomKey(slots)
    }

    /// Number of constants in the key.
    pub fn const_count(&self) -> usize {
        self.0
            .iter()
            .filter(|s| matches!(s, KeySlot::Const(_)))
            .count()
    }
}

/// Collected statistics for a workload over one store (Section 3.3).
#[derive(Debug, Clone, Default)]
pub struct StatsCatalog {
    /// Exact triple counts per atom shape (workload atoms + relaxations).
    counts: FxHashMap<AtomKey, u64>,
    /// Total triples in the store.
    dataset_size: u64,
    /// Distinct values per column (s, p, o).
    distinct: [u64; 3],
    /// Min/max id per column, if the store is non-empty.
    min_max: Option<[(Id, Id); 3]>,
    /// Average lexical byte width per column (s, p, o).
    avg_width: [f64; 3],
}

impl StatsCatalog {
    /// Builds an empty catalog carrying only store-level statistics.
    pub fn store_level(store: &TripleStore, dict: &Dictionary) -> Self {
        let mut widths = [0.0f64; 3];
        if !store.is_empty() {
            let mut sums = [0u64; 3];
            for t in store.triples() {
                for c in 0..3 {
                    sums[c] += dict.byte_width(t[c]) as u64;
                }
            }
            for c in 0..3 {
                widths[c] = sums[c] as f64 / store.len() as f64;
            }
        }
        Self {
            counts: FxHashMap::default(),
            dataset_size: store.len() as u64,
            distinct: store.distinct_counts().map(|d| d as u64),
            min_max: store.min_max(),
            avg_width: widths,
        }
    }

    /// Records an exact count for an atom shape.
    pub fn insert_count(&mut self, key: AtomKey, count: u64) {
        self.counts.insert(key, count);
    }

    /// The exact count recorded for this atom, if collected.
    pub fn atom_count(&self, atom: &Atom) -> Option<u64> {
        self.counts.get(&AtomKey::of(atom)).copied()
    }

    /// The exact count for an atom key.
    pub fn key_count(&self, key: &AtomKey) -> Option<u64> {
        self.counts.get(key).copied()
    }

    /// Number of atom shapes recorded.
    pub fn recorded_atoms(&self) -> usize {
        self.counts.len()
    }

    /// Total triples in the underlying store (the size of any 0-constant
    /// single-variable-per-slot atom).
    pub fn dataset_size(&self) -> u64 {
        self.dataset_size
    }

    /// Distinct values in column `col` (0 = s, 1 = p, 2 = o).
    pub fn distinct(&self, col: usize) -> u64 {
        self.distinct[col]
    }

    /// Min/max ids per column.
    pub fn min_max(&self) -> Option<[(Id, Id); 3]> {
        self.min_max
    }

    /// Average byte width of column `col` values.
    pub fn avg_width(&self, col: usize) -> f64 {
        // An empty store has no widths; 8 bytes is the neutral default (an
        // encoded integer column).
        if self.avg_width[col] == 0.0 {
            8.0
        } else {
            self.avg_width[col]
        }
    }

    /// The raw per-column average widths, without the empty-store default
    /// substitution (for exact serialization round-trips).
    pub fn avg_widths_raw(&self) -> [f64; 3] {
        self.avg_width
    }

    /// Every recorded `(atom key, count)` pair, in arbitrary order.
    /// Serializers must impose their own canonical order.
    pub fn counts(&self) -> impl Iterator<Item = (&AtomKey, u64)> {
        self.counts.iter().map(|(k, &c)| (k, c))
    }

    /// Reassembles a catalog from persisted parts (the exact fields the
    /// accessors above expose).
    pub fn from_parts(
        counts: impl IntoIterator<Item = (AtomKey, u64)>,
        dataset_size: u64,
        distinct: [u64; 3],
        min_max: Option<[(Id, Id); 3]>,
        avg_width: [f64; 3],
    ) -> Self {
        Self {
            counts: counts.into_iter().collect(),
            dataset_size,
            distinct,
            min_max,
            avg_width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_query::Var;

    #[test]
    fn atom_key_renaming_invariance() {
        let a = Atom::new(Var(3), Id(1), Var(3));
        let b = Atom::new(Var(7), Id(1), Var(7));
        let c = Atom::new(Var(1), Id(1), Var(2));
        assert_eq!(AtomKey::of(&a), AtomKey::of(&b));
        assert_ne!(AtomKey::of(&a), AtomKey::of(&c));
        assert_eq!(AtomKey::of(&a).const_count(), 1);
    }

    #[test]
    fn store_level_stats() {
        use rdf_model::{Dataset, Term};
        let mut db = Dataset::new();
        db.insert_terms(Term::uri("aa"), Term::uri("pppp"), Term::literal("x"));
        db.insert_terms(Term::uri("bb"), Term::uri("pppp"), Term::literal("y"));
        let cat = StatsCatalog::store_level(db.store(), db.dict());
        assert_eq!(cat.dataset_size(), 2);
        assert_eq!(cat.distinct(0), 2);
        assert_eq!(cat.distinct(1), 1);
        assert!((cat.avg_width(0) - 2.0).abs() < 1e-9);
        assert!((cat.avg_width(1) - 4.0).abs() < 1e-9);
        assert!((cat.avg_width(2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn from_parts_round_trips() {
        use rdf_model::{Dataset, Term};
        let mut db = Dataset::new();
        db.insert_terms(Term::uri("aa"), Term::uri("p"), Term::literal("x"));
        let mut cat = StatsCatalog::store_level(db.store(), db.dict());
        cat.insert_count(AtomKey::of(&Atom::new(Var(0), Id(1), Var(1))), 17);
        let parts: Vec<(AtomKey, u64)> = cat.counts().map(|(k, c)| (*k, c)).collect();
        let rebuilt = StatsCatalog::from_parts(
            parts,
            cat.dataset_size(),
            [cat.distinct(0), cat.distinct(1), cat.distinct(2)],
            cat.min_max(),
            cat.avg_widths_raw(),
        );
        assert_eq!(rebuilt.dataset_size(), cat.dataset_size());
        assert_eq!(rebuilt.recorded_atoms(), 1);
        assert_eq!(
            rebuilt.key_count(&AtomKey::of(&Atom::new(Var(5), Id(1), Var(9)))),
            Some(17)
        );
        assert_eq!(rebuilt.min_max(), cat.min_max());
        assert_eq!(rebuilt.avg_widths_raw(), cat.avg_widths_raw());
    }

    #[test]
    fn empty_store_defaults() {
        let store = TripleStore::new();
        let dict = Dictionary::new();
        let cat = StatsCatalog::store_level(&store, &dict);
        assert_eq!(cat.dataset_size(), 0);
        assert_eq!(cat.avg_width(0), 8.0);
        assert!(cat.min_max().is_none());
    }
}
