//! RDF terms and dictionary ids.
//!
//! Following the RDF specification (and Section 2 of the paper), a triple
//! `(s, p, o)` is *well-formed* when the subject is a URI or blank node, the
//! property is a URI, and the object is a URI, blank node or literal.

use std::fmt;

/// A dictionary-encoded term identifier.
///
/// `Id` is a plain `u32` newtype: 4 bytes per slot keeps a triple at
/// 12 bytes, which matters because the six permutation indexes each hold a
/// full copy of the triple table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Id(pub u32);

impl Id {
    /// The raw index value.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The lexical kind of a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TermKind {
    /// A URI reference.
    Uri,
    /// A blank node (placeholder for an unknown URI or literal).
    Blank,
    /// A literal value.
    Literal,
}

/// An RDF term: URI, blank node, or literal.
///
/// Blank nodes carry a label so that distinct blank nodes of one dataset stay
/// distinct after encoding; from a database perspective they are existential
/// constants that — unlike SQL `NULL` — *do* join with themselves.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A URI reference, e.g. `ex:hasPainted`.
    Uri(Box<str>),
    /// A blank node with a dataset-local label, e.g. `_:b42`.
    Blank(Box<str>),
    /// A literal, e.g. `"Starry Night"`.
    Literal(Box<str>),
}

impl Term {
    /// Builds a URI term.
    pub fn uri(s: impl Into<Box<str>>) -> Self {
        Term::Uri(s.into())
    }

    /// Builds a blank-node term.
    pub fn blank(s: impl Into<Box<str>>) -> Self {
        Term::Blank(s.into())
    }

    /// Builds a literal term.
    pub fn literal(s: impl Into<Box<str>>) -> Self {
        Term::Literal(s.into())
    }

    /// Builds the term of `kind` with lexical form `s`.
    pub fn of_kind(kind: TermKind, s: impl Into<Box<str>>) -> Self {
        match kind {
            TermKind::Uri => Term::Uri(s.into()),
            TermKind::Blank => Term::Blank(s.into()),
            TermKind::Literal => Term::Literal(s.into()),
        }
    }

    /// The lexical form without kind markers.
    pub fn lexical(&self) -> &str {
        match self {
            Term::Uri(s) | Term::Blank(s) | Term::Literal(s) => s,
        }
    }

    /// The kind of this term.
    pub fn kind(&self) -> TermKind {
        match self {
            Term::Uri(_) => TermKind::Uri,
            Term::Blank(_) => TermKind::Blank,
            Term::Literal(_) => TermKind::Literal,
        }
    }

    /// Size in bytes of the lexical form — the unit used by the paper's view
    /// space occupancy estimate ("average size of a subject, property,
    /// respectively object").
    pub fn byte_width(&self) -> usize {
        self.lexical().len()
    }

    /// Whether this term may appear in subject position.
    pub fn valid_subject(&self) -> bool {
        matches!(self, Term::Uri(_) | Term::Blank(_))
    }

    /// Whether this term may appear in property position.
    pub fn valid_property(&self) -> bool {
        matches!(self, Term::Uri(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Uri(s) => write!(f, "<{s}>"),
            Term::Blank(s) => write!(f, "_:{s}"),
            Term::Literal(s) => write!(f, "\"{s}\""),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_constructors_and_kinds() {
        assert_eq!(Term::uri("a").kind(), TermKind::Uri);
        assert_eq!(Term::blank("b").kind(), TermKind::Blank);
        assert_eq!(Term::literal("c").kind(), TermKind::Literal);
    }

    #[test]
    fn well_formedness_positions() {
        assert!(Term::uri("a").valid_subject());
        assert!(Term::blank("b").valid_subject());
        assert!(!Term::literal("c").valid_subject());
        assert!(Term::uri("a").valid_property());
        assert!(!Term::blank("b").valid_property());
    }

    #[test]
    fn byte_width_is_lexical_length() {
        assert_eq!(Term::uri("ex:hasPainted").byte_width(), 13);
        assert_eq!(Term::literal("").byte_width(), 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::uri("ex:a").to_string(), "<ex:a>");
        assert_eq!(Term::blank("b1").to_string(), "_:b1");
        assert_eq!(Term::literal("v").to_string(), "\"v\"");
    }

    #[test]
    fn kinds_distinguish_equal_lexicals() {
        // A URI and a literal with the same spelling are different terms.
        assert_ne!(Term::uri("x"), Term::literal("x"));
        assert_ne!(Term::uri("x"), Term::blank("x"));
    }
}
