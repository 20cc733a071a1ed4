//! # rdf-query
//!
//! Conjunctive queries (and unions thereof) over the single RDF triple table
//! `t(s, p, o)` — the query and view language of *View Selection in Semantic
//! Web Databases* (Definition 2.1).
//!
//! Provided machinery:
//!
//! * [`ConjunctiveQuery`] / [`Atom`] / [`QTerm`]: queries whose heads may
//!   contain constants (reformulation rules 5–6 bind head variables to
//!   schema constants, see Table 2 of the paper);
//! * [`graph::JoinGraph`]: the paper's *state graph* per view — join edges
//!   and selection edges (Definition 3.1), connectivity, connected-subset
//!   enumeration (for View Break);
//! * [`containment`]: containment mappings (Chandra–Merlin), equivalence;
//! * [`minimize`](mod@minimize): core computation (queries and views are assumed minimal,
//!   Definition 2.1);
//! * [`canonical`]: canonical forms up to variable renaming — the engine
//!   behind state deduplication and View Fusion's isomorphism test;
//! * [`parser`]: a small Datalog-style text format used by tests, examples
//!   and the workload tooling.
//!
//! ```
//! use rdf_model::Dictionary;
//! use rdf_query::parser::parse_query;
//!
//! let mut dict = Dictionary::new();
//! // The paper's running example q1: painters of "Starry Night" with a
//! // painter child.
//! let q1 = parse_query(
//!     "q1(X, Z) :- t(X, <hasPainted>, <starryNight>), \
//!                  t(X, <isParentOf>, Y), t(Y, <hasPainted>, Z)",
//!     &mut dict,
//! )
//! .unwrap();
//! assert_eq!(q1.query.atoms.len(), 3);
//! assert_eq!(q1.query.head.len(), 2);
//! ```

pub mod canonical;
pub mod containment;
pub mod display;
pub mod graph;
pub mod minimize;
pub mod parser;
pub mod query;
pub mod ucq;

pub use canonical::{body_isomorphism, canonical_form, CanonicalForm};
pub use containment::{equivalent, is_contained_in};
pub use minimize::minimize;
pub use query::{Atom, ConjunctiveQuery, QTerm, Var};
pub use ucq::UnionQuery;
