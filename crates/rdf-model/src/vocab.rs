//! RDF / RDFS vocabulary constants.
//!
//! Only the handful of special URIs the paper's entailment rules need
//! (Table 1 and Section 4.1).

/// `rdf:type` — class membership.
pub const RDF_TYPE: &str = "rdf:type";

/// `rdfs:subClassOf` — class inclusion.
pub const RDFS_SUB_CLASS_OF: &str = "rdfs:subClassOf";

/// `rdfs:subPropertyOf` — property inclusion.
pub const RDFS_SUB_PROPERTY_OF: &str = "rdfs:subPropertyOf";

/// `rdfs:domain` — domain typing of a property.
pub const RDFS_DOMAIN: &str = "rdfs:domain";

/// `rdfs:range` — range typing of a property.
pub const RDFS_RANGE: &str = "rdfs:range";

/// `rdfs:Class` — the class of classes.
pub const RDFS_CLASS: &str = "rdfs:Class";
