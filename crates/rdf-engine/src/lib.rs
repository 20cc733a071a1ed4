//! # rdf-engine
//!
//! Select-project-join evaluation over the triple table and over
//! materialized views.
//!
//! The paper's platform requirement is deliberately modest: "an execution
//! framework capable of evaluating our simple select-project-join
//! rewritings" (Section 7). This crate provides exactly that:
//!
//! * [`evaluate`] / [`evaluate_union`] — conjunctive queries and UCQs over
//!   the triple table, answered with index-backed nested-loop joins using
//!   the store's six permutation indexes (the "heavily indexed triple
//!   table" configurations of Figure 8);
//! * [`materialize`] / [`materialize_union`] — view materialization,
//!   producing [`ViewTable`]s (Section 6.6 materializes both plain and
//!   reformulated views);
//! * [`evaluate_over_views`] — rewritings, i.e. conjunctive queries whose
//!   atoms range over view tables (selections encoded by constants in the
//!   arguments, joins by repeated variables), with hash indexes built on
//!   demand per bound-column set and kept in the table;
//! * [`evaluate_mixed`] — atoms mixing store scans and table scans: the
//!   delta-join shape of set-at-a-time view maintenance ([`maintain`]),
//!   where one atom position is bound to the whole update batch, and the
//!   deployment layer's plan branches; it returns the [`EvalStats`] of the
//!   call with its answers;
//! * [`evaluate_on`] — a CQ on a forced join core, for the differential
//!   tests and the benches that time one core against the other;
//! * [`oracle::evaluate`] — the reference: nested loops over full scans.
//!
//! Answers use **set semantics**, matching the conjunctive-query formalism
//! of the paper (equivalence is defined through containment mappings).
//!
//! ## Evaluation internals
//!
//! There are two join cores and one oracle. Every entry point funnels into
//! one router, which sends acyclic queries to the **compiled index-native
//! core** (`eval::compiled`) and cyclic ones to the leapfrog triejoin
//! below. The compiled core is built so that a read does the work its
//! answer needs and no more — per query, per join node, per row and per
//! answer tuple:
//!
//! * **per query**, variables get dense slot numbers, so the bindings
//!   frame is a flat vector of ids. Store queries, view rewritings and
//!   delta joins all arrive as [`MixedAtom`]s and are compiled from that
//!   one form;
//! * **an atom's matching rows are looked up once per binding of its
//!   variables.** The lookup yields a borrowed row-major slice together
//!   with its row count: the count is what the adaptive choice of the next
//!   atom compares, the slice is what the chosen atom walks, so sizing an
//!   atom and reading it are one probe, and an atom that the row in hand
//!   binds nothing of keeps the slice it already has. A view atom's slice
//!   is a bucket of a [`ViewIndex`] resident in its [`ViewTable`], one per
//!   bound-column mask: the index keeps the table's rows *clustered by
//!   key* behind one open-addressing array, and the per-table cache is an
//!   append-only chain of write-once nodes, so finding a built index is a
//!   few acquire loads (see [`ViewTable::index_for_mask`]). A store atom's
//!   slice is a binary-searched range
//!   ([`rdf_model::prefix_range`]) of the permutation run whose sort
//!   prefix covers its bound columns; a call fetches each run it needs
//!   from the store once and searches the borrowed slice from then on.
//!   Inside the join there is no lock and no reference count, on either
//!   kind of atom, so any number of reader threads share nothing they
//!   write;
//! * **per join node**, everything that depends on which atoms are placed
//!   rather than on the row — which columns of the running atom bind a
//!   slot, which re-check one, whether the head is decided, how each
//!   remaining atom's lookup key is assembled or that it keeps its slice —
//!   is worked out once, as a small *node program*, and reused for every
//!   row of the node. One program is cached per depth; a row that chooses
//!   another next atom than the row before rebuilds it. A program fixes
//!   which slots are bound, so the frame needs no `Option` and no undo
//!   trail;
//! * the join order is chosen adaptively at each node from those row
//!   counts, and the first remaining atom found empty abandons the row
//!   before the others are looked up;
//! * the join is **projection-aware**. Queries are conjunctive under set
//!   semantics, and the rewritings the planner stores mostly project
//!   (their heads are strict subsets of their body variables). Once every
//!   head term is bound, the atoms that remain can only confirm that the
//!   head tuple has a witness, so each row loop below that point stops at
//!   the first one; a boolean query stops at its first match;
//! * **per answer tuple, nothing is allocated.** Head tuples are staged
//!   row after row in one flat arena behind a generation-tagged
//!   open-addressing table (whose clear is O(1), so a pooled scratch that
//!   once served a million-answer query costs a microsecond-scale query
//!   nothing); the arena becomes the [`Answers`] as it is, sorted by
//!   packing each row into an integer that orders as the row does; and a
//!   [`ViewTable`], which has the same layout, takes an answer buffer by
//!   move. [`Answers::union_all`] hands a single branch's answers through
//!   untouched and merges several by one concatenate-sort-dedup, which is
//!   what [`evaluate_union`] and the deployment layer's plan executor use;
//! * all working memory — frame, programs, slices, staging — comes from a
//!   thread-local scratch pool, so a call that visits two rows costs about
//!   as much as its two rows.
//!
//! [`EvalStats::rows_visited`] counts the rows the core tried and
//! [`EvalStats::probes`] the index lookups it made, which is how tests
//! hold the early exit and the once-per-binding rule to their bounds.
//!
//! **Cyclic queries run a worst-case-optimal leapfrog triejoin instead**
//! (`eval::wcoj`). The compiled core expands one *atom* at a time, so on a
//! triangle it enumerates binary-join intermediates the output never
//! needs; the leapfrog mode joins one *variable* at a time:
//!
//! * a global variable order is fixed up front — highest atom degree
//!   first, smallest containing-atom extent as tie-break — and every atom
//!   exposes its matches as a trie in that order: store atoms through the
//!   permutation index whose sort sequence lists constants, then each
//!   variable's column(s) consecutively
//!   ([`rdf_model::IndexOrder::for_groups`]), view atoms through a cached
//!   sorted-row projection ([`ViewTable::sorted_index_for_order`], built
//!   once per column sequence and kept in the same kind of lock-free
//!   chain as the hash indexes);
//! * each level intersects the participating cursors by leapfrog:
//!   galloping (exponential-probe + binary-search) seeks to the current
//!   maximum until all agree, then bind, narrow each cursor to its
//!   value-run, descend;
//! * the router runs a GYO ear-removal acyclicity test on the atom
//!   hypergraph per query: cyclic shapes (triangles, diamonds, k-cycles)
//!   route to leapfrog, acyclic ones keep the compiled core, and
//!   [`EvalStats::engine`] (from [`evaluate_mixed`]) records the decision
//!   along with seek/emit counters. Its search loop enumerates every
//!   binding of every variable; the early exit above is the compiled
//!   core's alone. [`evaluate_on`] bypasses the test.
//!
//! The **oracle** ([`oracle::evaluate`]) shares nothing with either core:
//! nested loops over full scans of the triple list under a frame of
//! optional bindings. It is the reference the differential property tests
//! hold both cores (forced and routed) to, and the "plain clustered triple
//! table" configuration of the paper's Figure 8.
//!
//! ```
//! use rdf_model::{Dataset, Term};
//! use rdf_query::parser::parse_query;
//! use rdf_engine::evaluate;
//!
//! let mut db = Dataset::new();
//! db.insert_terms(Term::uri("a"), Term::uri("knows"), Term::uri("b"));
//! db.insert_terms(Term::uri("b"), Term::uri("knows"), Term::uri("c"));
//!
//! let q = parse_query("q(X, Z) :- t(X, <knows>, Y), t(Y, <knows>, Z)", db.dict_mut()).unwrap();
//! let answers = evaluate(db.store(), &q.query);
//! assert_eq!(answers.len(), 1); // (a, c)
//! ```

mod answers;
mod eval;
pub mod maintain;
pub mod oracle;
mod view_table;

pub use answers::Answers;
pub use eval::{
    evaluate, evaluate_mixed, evaluate_on, evaluate_over_views, evaluate_union, Engine, EvalStats,
    MixedAtom, ViewAtom,
};
pub use maintain::{DeleteDelta, DeltaSet, MaintainedView, MaintenanceStats};
pub use view_table::{ViewIndex, ViewSortedIndex, ViewTable};

use rdf_model::TripleStore;
use rdf_query::{ConjunctiveQuery, UnionQuery};

/// Materializes a view (a CQ over the triple table) into a table whose
/// columns follow the view's head.
pub fn materialize(store: &TripleStore, view: &ConjunctiveQuery) -> ViewTable {
    ViewTable::from_answers(view.head.len(), evaluate(store, view))
}

/// Materializes a union view — e.g. a reformulated view in the
/// post-reformulation pipeline (Section 4.3): the union of the branch
/// results, deduplicated.
pub fn materialize_union(store: &TripleStore, view: &UnionQuery) -> ViewTable {
    let arity = view.branches().first().map_or(0, |b| b.head.len());
    ViewTable::from_answers(arity, evaluate_union(store, view))
}
