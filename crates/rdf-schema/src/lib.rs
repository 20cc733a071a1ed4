//! # rdf-schema
//!
//! RDF Schema support: the four semantic relationships of the paper's
//! Table 1 (class inclusion, property inclusion, domain typing, range
//! typing), transitive closures over them, and **database saturation** —
//! deriving all implicit triples entailed by an RDFS (Section 4.2 of
//! *View Selection in Semantic Web Databases*).
//!
//! ```
//! use rdf_model::{Dataset, Term, vocab};
//! use rdf_schema::{Schema, SchemaStatement, VocabIds, saturate};
//!
//! let mut db = Dataset::new();
//! let vocab = VocabIds::intern(db.dict_mut());
//! let painting = db.dict_mut().intern_uri("ex:painting");
//! let picture = db.dict_mut().intern_uri("ex:picture");
//! let mona = db.dict_mut().intern_uri("ex:monaLisa");
//!
//! let mut schema = Schema::new();
//! schema.add(SchemaStatement::SubClassOf(painting, picture));
//!
//! db.store_mut().insert([mona, vocab.rdf_type, painting]);
//! let added = saturate(db.store_mut(), &schema, &vocab);
//! assert_eq!(added, 1); // (mona, rdf:type, picture) was implicit
//! assert!(db.store().contains([mona, vocab.rdf_type, picture]));
//! ```

pub mod saturation;
pub mod schema;

pub use saturation::{entailed_delta, retracted_delta, saturate, saturated_copy};
pub use schema::{Schema, SchemaStatement, StatementKind};

use rdf_model::{vocab, Dictionary, Id};

/// The dictionary ids of the special RDF/RDFS URIs.
///
/// Both the saturation engine and the reformulation algorithm need to
/// recognize `rdf:type` (and the schema properties when extracting a schema
/// from data), so these are interned once and passed around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VocabIds {
    /// `rdf:type`
    pub rdf_type: Id,
    /// `rdfs:subClassOf`
    pub sub_class_of: Id,
    /// `rdfs:subPropertyOf`
    pub sub_property_of: Id,
    /// `rdfs:domain`
    pub domain: Id,
    /// `rdfs:range`
    pub range: Id,
}

impl VocabIds {
    /// Interns the vocabulary into `dict` (idempotent).
    pub fn intern(dict: &mut Dictionary) -> Self {
        Self {
            rdf_type: dict.intern_uri(vocab::RDF_TYPE),
            sub_class_of: dict.intern_uri(vocab::RDFS_SUB_CLASS_OF),
            sub_property_of: dict.intern_uri(vocab::RDFS_SUB_PROPERTY_OF),
            domain: dict.intern_uri(vocab::RDFS_DOMAIN),
            range: dict.intern_uri(vocab::RDFS_RANGE),
        }
    }

    /// Looks the vocabulary up without interning; `None` when the dataset
    /// never mentions one of the URIs.
    pub fn lookup(dict: &Dictionary) -> Option<Self> {
        Some(Self {
            rdf_type: dict.lookup_uri(vocab::RDF_TYPE)?,
            sub_class_of: dict.lookup_uri(vocab::RDFS_SUB_CLASS_OF)?,
            sub_property_of: dict.lookup_uri(vocab::RDFS_SUB_PROPERTY_OF)?,
            domain: dict.lookup_uri(vocab::RDFS_DOMAIN)?,
            range: dict.lookup_uri(vocab::RDFS_RANGE)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocab_intern_idempotent() {
        let mut d = Dictionary::new();
        let v1 = VocabIds::intern(&mut d);
        let v2 = VocabIds::intern(&mut d);
        assert_eq!(v1, v2);
        assert_eq!(VocabIds::lookup(&d), Some(v1));
    }

    #[test]
    fn vocab_lookup_missing() {
        let d = Dictionary::new();
        assert_eq!(VocabIds::lookup(&d), None);
    }
}
