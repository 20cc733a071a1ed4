//! # rdf-stats
//!
//! Workload-driven statistics and cardinality estimation — Section 3.3 of
//! *View Selection in Semantic Web Databases*.
//!
//! Because the workload is known up front, the paper gathers **exact**
//! counts only for the patterns the search can ever produce:
//!
//! 1. the number of triples matching each workload query atom, and
//! 2. the counts of all *relaxations* of those atoms (constants replaced by
//!    fresh variables — exactly what Selection Cut does during the search),
//!
//! plus per-column distinct-value counts, min/max, and average term widths.
//! Multi-atom view cardinalities are then estimated with the classic
//! uniformity + independence formulas of the relational literature
//! (Ramakrishnan & Gehrke \[18\]).
//!
//! Three catalog flavors correspond to the paper's three reasoning
//! scenarios (Section 4.3):
//!
//! * [`collect_stats`] on the original store — no implicit triples;
//! * [`collect_stats`] on a saturated store — the *database saturation*
//!   scenario;
//! * [`collect_stats_post_reform`] — the *post-reformulation* scenario:
//!   counts of `Reformulate(atom, S)` evaluated on the **non-saturated**
//!   store, which equal the saturated counts (Theorem 4.2). The store is
//!   never written: every count is the answer length of
//!   [`rdf_engine::evaluate_union`], and the saturated triple set exists
//!   only as the engine's transient answer to `Reformulate(t(X, Y, Z), S)`,
//!   read once for the store-level statistics and dropped (84,494 triples
//!   from 196,215 branch rows over 704 branches, for the 39,859-triple
//!   Barton draw of the benchmark's `tune_reform` workload).
//!
//! Every flavor counts the same shapes, listed by [`missing_shapes`]: the
//! relaxed workload atoms the catalog does not record yet.

mod catalog;
mod collector;
mod estimator;
mod postreform;

pub use catalog::{AtomKey, KeySlot, StatsCatalog};
pub use collector::{collect_stats, count_atom, missing_shapes, relaxations_of};
pub use estimator::{estimate_conjunction, CardinalityEstimator, RelAtom, RelStats};
pub use postreform::{collect_stats_post_reform, reformulated_atom_count};
