//! The encoding dictionary.
//!
//! As in the paper's experimental platform, data is stored in a
//! dictionary-encoded triple table "using a distinct integer for each
//! distinct URI or literal appearing in an s, p or o value", with the
//! dictionary indexed both ways (id → term and term → id).

use std::collections::HashMap;

use crate::term::{Id, Term, TermKind};

/// Bidirectional term ↔ id mapping.
///
/// Ids are dense and allocated in interning order, which lets downstream
/// components use them directly as vector indexes.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    terms: Vec<Term>,
    /// One map per [`TermKind`] (at `kind as usize`), keyed by the lexical
    /// form, so that a term given as a borrowed `(kind, &str)` is found
    /// without building a [`Term`]. The keys come from outside the program,
    /// so the maps keep the standard library's keyed hasher; it is also
    /// faster than Fx on short strings.
    ids: [HashMap<Box<str>, Id>; 3],
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a dictionary with room for `cap` terms of any one kind
    /// before it reallocates.
    pub fn with_capacity(cap: usize) -> Self {
        let map = || HashMap::with_capacity(cap);
        Self {
            terms: Vec::with_capacity(cap),
            ids: [map(), map(), map()],
        }
    }

    /// Interns a term, returning its id (allocating a fresh one if new).
    /// A term already interned is found by one hash lookup and `term` is
    /// dropped; a new one is moved in, and its lexical form copied once
    /// into the lookup map.
    pub fn intern(&mut self, term: Term) -> Id {
        match self.lookup(&term) {
            Some(id) => id,
            None => self.push(term),
        }
    }

    /// Interns the term of `kind` spelled `lexical`, returning its id. The
    /// lookup borrows `lexical`; only a term the dictionary has not seen
    /// allocates (its [`Term`] and the map's copy of its spelling).
    pub fn intern_lexical(&mut self, kind: TermKind, lexical: &str) -> Id {
        match self.lookup_lexical(kind, lexical) {
            Some(id) => id,
            None => self.push(Term::of_kind(kind, lexical)),
        }
    }

    /// Appends a term known to be new.
    fn push(&mut self, term: Term) -> Id {
        let id =
            // xlint: allow(X001, reason = "u32 ids are a documented capacity limit of the dictionary")
            Id(u32::try_from(self.terms.len()).expect("dictionary overflow: > u32::MAX terms"));
        self.ids[term.kind() as usize].insert(term.lexical().into(), id);
        self.terms.push(term);
        id
    }

    /// Convenience: intern a URI given as a string.
    pub fn intern_uri(&mut self, uri: &str) -> Id {
        self.intern_lexical(TermKind::Uri, uri)
    }

    /// Convenience: intern a literal given as a string.
    pub fn intern_literal(&mut self, lit: &str) -> Id {
        self.intern_lexical(TermKind::Literal, lit)
    }

    /// Convenience: intern a blank node given by label.
    pub fn intern_blank(&mut self, label: &str) -> Id {
        self.intern_lexical(TermKind::Blank, label)
    }

    /// Looks up an already-interned term: one hash lookup, no allocation.
    pub fn lookup(&self, term: &Term) -> Option<Id> {
        self.lookup_lexical(term.kind(), term.lexical())
    }

    /// Looks up the term of `kind` spelled `lexical` without building it.
    pub fn lookup_lexical(&self, kind: TermKind, lexical: &str) -> Option<Id> {
        self.ids[kind as usize].get(lexical).copied()
    }

    /// Looks up a URI by spelling.
    pub fn lookup_uri(&self, uri: &str) -> Option<Id> {
        self.lookup_lexical(TermKind::Uri, uri)
    }

    /// Decodes an id. Panics on unknown ids (they can only come from a
    /// foreign dictionary, which is a programming error).
    pub fn term(&self, id: Id) -> &Term {
        &self.terms[id.index()]
    }

    /// Decodes an id if it is known.
    pub fn get(&self, id: Id) -> Option<&Term> {
        self.terms.get(id.index())
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, &Term)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (Id(i as u32), t))
    }

    /// Byte width of an id's lexical form (used for space-occupancy
    /// estimates).
    pub fn byte_width(&self, id: Id) -> usize {
        self.term(id).byte_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(Term::uri("ex:a"));
        let b = d.intern(Term::uri("ex:b"));
        let a2 = d.intern(Term::uri("ex:a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut d = Dictionary::new();
        for i in 0..100 {
            let id = d.intern(Term::literal(format!("{i}")));
            assert_eq!(id, Id(i));
        }
    }

    #[test]
    fn lookup_and_decode_roundtrip() {
        let mut d = Dictionary::new();
        let t = Term::blank("node1");
        let id = d.intern(t.clone());
        assert_eq!(d.lookup(&t), Some(id));
        assert_eq!(d.term(id), &t);
        assert_eq!(d.get(Id(999)), None);
    }

    #[test]
    fn kinds_do_not_collide() {
        let mut d = Dictionary::new();
        let u = d.intern(Term::uri("x"));
        let l = d.intern(Term::literal("x"));
        let b = d.intern(Term::blank("x"));
        assert_ne!(u, l);
        assert_ne!(u, b);
        assert_ne!(l, b);
    }

    #[test]
    fn iter_visits_in_id_order() {
        let mut d = Dictionary::new();
        d.intern_uri("a");
        d.intern_uri("b");
        let ids: Vec<u32> = d.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
