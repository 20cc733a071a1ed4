//! # rdf-model
//!
//! Dictionary-encoded RDF data model: terms, triples, patterns and an
//! in-memory triple store with all six permutation indexes
//! (SPO, SOP, PSO, POS, OSP, OPS), in the style of Hexastore and of the
//! heavily-indexed PostgreSQL layout used by *View Selection in Semantic Web
//! Databases* (Goasdoué et al., VLDB 2011).
//!
//! The store views an RDF database exactly as the paper does: a single large
//! triple table `t(s, p, o)` whose values are dictionary-encoded integers.
//! Blank nodes are first-class terms (they join like any constant inside the
//! data, and behave as existential variables in queries, handled by
//! `rdf-query`).
//!
//! ## Quick tour
//!
//! ```
//! use rdf_model::{Dataset, Term};
//!
//! let mut db = Dataset::new();
//! db.insert_terms(
//!     Term::uri("ex:picasso"),
//!     Term::uri("ex:hasPainted"),
//!     Term::uri("ex:guernica"),
//! );
//! assert_eq!(db.store().len(), 1);
//!
//! let painted = db.dict().lookup(&Term::uri("ex:hasPainted")).unwrap();
//! assert_eq!(db.store().match_count(&rdf_model::StorePattern::with_p(painted)), 1);
//! ```

pub mod dict;
pub mod error;
pub mod fxhash;
pub mod ntriples;
pub mod pattern;
pub mod store;
pub mod sync;
pub mod term;
pub mod vocab;

pub use dict::Dictionary;
pub use error::ModelError;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use pattern::StorePattern;
pub use store::{
    prefix_range, prefix_range_from, IndexOrder, IndexRange, StoreSnapshot, Triple, TripleStore,
};
pub use term::{Id, Term, TermKind};

/// A dictionary plus a triple store: the paper's "RDF database".
///
/// This is the convenience façade most users want: it owns the
/// [`Dictionary`] used for encoding and the [`TripleStore`] holding the
/// encoded triples, and keeps the two consistent.
#[derive(Debug, Default, Clone)]
pub struct Dataset {
    dict: Dictionary,
    store: TripleStore,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// The dictionary mapping terms to integer ids.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Mutable access to the dictionary (for pre-interning vocabulary).
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        &mut self.dict
    }

    /// The encoded triple table.
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// Mutable access to the triple table.
    pub fn store_mut(&mut self) -> &mut TripleStore {
        &mut self.store
    }

    /// Splits the dataset into its parts.
    pub fn into_parts(self) -> (Dictionary, TripleStore) {
        (self.dict, self.store)
    }

    /// Rebuilds a dataset from parts (the ids in `store` must come from
    /// `dict`).
    pub fn from_parts(dict: Dictionary, store: TripleStore) -> Self {
        Self { dict, store }
    }

    /// Interns the three terms and inserts the resulting triple.
    /// Returns `true` if the triple was new. One [`TripleStore::insert`],
    /// so O(n): to load many triples, use [`ntriples::read_into`] or batch
    /// them into [`TripleStore::insert_batch`].
    pub fn insert_terms(&mut self, s: Term, p: Term, o: Term) -> bool {
        let s = self.dict.intern(s);
        let p = self.dict.intern(p);
        let o = self.dict.intern(o);
        self.store.insert([s, p, o])
    }

    /// Decodes an encoded triple back to terms. Panics if an id is unknown,
    /// which indicates the store and dictionary are out of sync.
    pub fn decode(&self, t: Triple) -> (&Term, &Term, &Term) {
        (
            self.dict.term(t[0]),
            self.dict.term(t[1]),
            self.dict.term(t[2]),
        )
    }

    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the dataset holds no triples.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_roundtrip() {
        let mut db = Dataset::new();
        assert!(db.is_empty());
        assert!(db.insert_terms(Term::uri("ex:a"), Term::uri("ex:p"), Term::literal("v")));
        // Duplicate insert is a no-op.
        assert!(!db.insert_terms(Term::uri("ex:a"), Term::uri("ex:p"), Term::literal("v")));
        assert_eq!(db.len(), 1);
        let t = db.store().triples()[0];
        let (s, p, o) = db.decode(t);
        assert_eq!(s, &Term::uri("ex:a"));
        assert_eq!(p, &Term::uri("ex:p"));
        assert_eq!(o, &Term::literal("v"));
    }
}
