//! Cardinality estimation under uniformity and independence.
//!
//! Section 3.3: "We assume that values in each triple table column are
//! uniformly distributed, and that values of different columns are
//! independently distributed. […] we compute |v|ǫ based on the exact counts
//! |vi| and the above assumptions and statistics, applying known relational
//! formulas [18]."
//!
//! The formulas are the System-R classics:
//!
//! * equi-join on columns `a`, `b`: reduction factor `1 / max(d(a), d(b))`;
//! * selection `col = const`: reduction factor `1 / d(col)`;
//!
//! where `d(·)` is the distinct-value count. Triple-table atoms are special:
//! their cardinalities (with their constants and intra-atom equalities) were
//! counted **exactly** by the collector, so the estimator must not apply
//! selectivities for them again — the [`RelAtom::baked`] flag captures this.

use rdf_model::FxHashMap;
use rdf_query::{Atom, ConjunctiveQuery, QTerm, Var};

use crate::catalog::StatsCatalog;

/// Statistics of one relation (a triple-table atom or a view).
#[derive(Debug, Clone, PartialEq)]
pub struct RelStats {
    /// Estimated (or exact) tuple count.
    pub card: f64,
    /// Estimated distinct values per column.
    pub distinct: Vec<f64>,
}

impl RelStats {
    /// Distinct count of a column, floored at 1 to keep divisions sane.
    pub fn d(&self, col: usize) -> f64 {
        self.distinct[col].max(1.0)
    }
}

/// One conjunct of a conjunction to estimate.
#[derive(Debug, Clone)]
pub struct RelAtom {
    /// Relation statistics.
    pub stats: RelStats,
    /// Argument terms, one per relation column.
    pub args: Vec<QTerm>,
    /// Whether constants and intra-atom variable equalities are already
    /// reflected in `stats.card` (true for collector-counted triple atoms).
    pub baked: bool,
}

/// Estimates the result cardinality of a conjunction of relation atoms
/// joined by shared variables.
pub fn estimate_conjunction(atoms: &[RelAtom]) -> f64 {
    if atoms.is_empty() {
        return 0.0;
    }
    let mut card: f64 = 1.0;
    // (relation index, column, distinct) occurrences per variable.
    let mut occurrences: FxHashMap<Var, Vec<(usize, f64)>> = FxHashMap::default();
    for (ri, atom) in atoms.iter().enumerate() {
        card *= atom.stats.card;
        let mut seen_here: FxHashMap<Var, usize> = FxHashMap::default();
        for (col, term) in atom.args.iter().enumerate() {
            match term {
                QTerm::Const(_) => {
                    if !atom.baked {
                        card /= atom.stats.d(col);
                    }
                }
                QTerm::Var(v) => {
                    let prior_here = seen_here.get(v).copied();
                    match prior_here {
                        Some(_) if atom.baked => {
                            // Intra-atom equality already counted exactly.
                        }
                        _ => {
                            // Every occurrence (intra- and cross-atom)
                            // joins through the same symmetric pool below,
                            // so the estimate does not depend on column or
                            // atom order — a requirement for parallel
                            // search runs to agree on state costs.
                            occurrences
                                .entry(*v)
                                .or_default()
                                .push((ri, atom.stats.d(col)));
                        }
                    }
                    seen_here.entry(*v).or_insert(col);
                }
            }
        }
    }
    // Cross-relation joins, as a left-deep chain: each equi-join step
    // divides by max(d_running, d_next); the joined result's distinct
    // count for the variable is min(d_running, d_next). Anchoring on the
    // running minimum (not the first occurrence) keeps the estimate
    // monotone when an atom is relaxed — which the paper's "SC always
    // increases the state cost" law depends on.
    for occs in occurrences.values() {
        let mut running = occs[0].1;
        for &(_, d) in &occs[1..] {
            card /= running.max(d);
            running = running.min(d);
        }
    }
    card.max(0.0)
}

/// Cardinality estimation for queries, views and view columns, backed by a
/// [`StatsCatalog`].
#[derive(Debug, Clone, Copy)]
pub struct CardinalityEstimator<'a> {
    cat: &'a StatsCatalog,
}

impl<'a> CardinalityEstimator<'a> {
    /// Wraps a catalog.
    pub fn new(cat: &'a StatsCatalog) -> Self {
        Self { cat }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &'a StatsCatalog {
        self.cat
    }

    /// Statistics of one triple-table atom: exact count when collected,
    /// uniform-selectivity fallback otherwise.
    pub fn atom_stats(&self, atom: &Atom) -> RelStats {
        let card = match self.cat.atom_count(atom) {
            Some(n) => n as f64,
            None => {
                // Fallback for shapes outside the collected workload:
                // dataset size scaled by 1/d per constant and intra-atom
                // equality.
                let mut card = self.cat.dataset_size() as f64;
                let mut seen: Vec<Var> = Vec::new();
                for (col, term) in atom.terms().iter().enumerate() {
                    match term {
                        QTerm::Const(_) => card /= (self.cat.distinct(col) as f64).max(1.0),
                        QTerm::Var(v) => {
                            if seen.contains(v) {
                                card /= (self.cat.distinct(col) as f64).max(1.0);
                            } else {
                                seen.push(*v);
                            }
                        }
                    }
                }
                card
            }
        };
        let distinct = (0..3)
            .map(|col| match atom.terms()[col] {
                QTerm::Const(_) => 1.0,
                QTerm::Var(_) => (self.cat.distinct(col) as f64).min(card).max(1.0),
            })
            .collect();
        RelStats { card, distinct }
    }

    /// Estimated cardinality of a conjunctive query body over the triple
    /// table — `|v|ǫ` of Section 3.3.
    pub fn cq_card(&self, q: &ConjunctiveQuery) -> f64 {
        let atoms: Vec<RelAtom> = q
            .atoms
            .iter()
            .map(|a| RelAtom {
                stats: self.atom_stats(a),
                args: a.terms().to_vec(),
                baked: true,
            })
            .collect();
        estimate_conjunction(&atoms)
    }

    /// Column role (0 = s, 1 = p, 2 = o) of each head term of a view: the
    /// smallest column in which the variable occurs anywhere in the body
    /// (minimum over all occurrences, so the role — and everything derived
    /// from it — is independent of the body's atom order). Constants and
    /// body-absent variables default to the object role.
    pub fn head_roles(&self, q: &ConjunctiveQuery) -> Vec<usize> {
        q.head
            .iter()
            .map(|t| match t {
                QTerm::Var(v) => q
                    .atoms
                    .iter()
                    .filter_map(|a| a.terms().iter().position(|x| x == &QTerm::Var(*v)))
                    .min()
                    .unwrap_or(2),
                QTerm::Const(_) => 2,
            })
            .collect()
    }

    /// Full relation statistics for a view: estimated cardinality plus
    /// per-head-column distinct estimates (capped by the cardinality).
    pub fn view_stats(&self, view: &ConjunctiveQuery) -> RelStats {
        let card = self.cq_card(view);
        let roles = self.head_roles(view);
        let distinct = view
            .head
            .iter()
            .zip(roles.iter())
            .map(|(t, &role)| match t {
                QTerm::Const(_) => 1.0,
                QTerm::Var(_) => (self.cat.distinct(role) as f64).min(card).max(1.0),
            })
            .collect();
        RelStats { card, distinct }
    }

    /// Average byte width of each head column of a view, by column role.
    pub fn head_widths(&self, view: &ConjunctiveQuery) -> Vec<f64> {
        self.head_roles(view)
            .into_iter()
            .map(|role| self.cat.avg_width(role))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::collect_stats;
    use rdf_model::Id;
    use rdf_model::{Dataset, Term};
    use rdf_query::parser::parse_query;

    /// 20 persons; each works in 1 of 4 cities; each has painted 3 works.
    fn db() -> Dataset {
        let mut db = Dataset::new();
        for i in 0..20 {
            let p = format!("person{i}");
            db.insert_terms(
                Term::uri(p.as_str()),
                Term::uri("livesIn"),
                Term::uri(format!("city{}", i % 4)),
            );
            for j in 0..3 {
                db.insert_terms(
                    Term::uri(p.as_str()),
                    Term::uri("hasPainted"),
                    Term::uri(format!("work{i}_{j}")),
                );
            }
        }
        db
    }

    #[test]
    fn one_atom_exact() {
        let mut db = db();
        let q = parse_query("q(X, Y) :- t(X, <livesIn>, Y)", db.dict_mut()).unwrap();
        let cat = collect_stats(db.store(), db.dict(), std::slice::from_ref(&q.query));
        let est = CardinalityEstimator::new(&cat);
        assert_eq!(est.cq_card(&q.query), 20.0);
    }

    #[test]
    fn join_estimate_close_to_truth() {
        let mut db = db();
        let q = parse_query(
            "q(X, Y, Z) :- t(X, <livesIn>, Y), t(X, <hasPainted>, Z)",
            db.dict_mut(),
        )
        .unwrap();
        let cat = collect_stats(db.store(), db.dict(), std::slice::from_ref(&q.query));
        let est = CardinalityEstimator::new(&cat);
        let estimate = est.cq_card(&q.query);
        // Truth: every person has 1 city × 3 works = 60 rows. The estimate
        // divides 20×60 by max(d_s, d_s)=20 → 60. Exact here.
        assert!((estimate - 60.0).abs() < 1e-6, "estimate {estimate}");
    }

    #[test]
    fn selection_fallback_for_uncollected_atom() {
        let mut db = db();
        let q = parse_query("q(X, Y) :- t(X, <livesIn>, Y)", db.dict_mut()).unwrap();
        let cat = collect_stats(db.store(), db.dict(), std::slice::from_ref(&q.query));
        let est = CardinalityEstimator::new(&cat);
        // An atom never collected: t(X, Y, city0) — fallback kicks in.
        let city0 = db.dict().lookup_uri("city0").unwrap();
        let atom = Atom::new(Var(0), Var(1), city0);
        let st = est.atom_stats(&atom);
        assert!(st.card > 0.0);
        assert!(st.card <= cat.dataset_size() as f64);
    }

    #[test]
    fn view_stats_caps_distincts() {
        let mut db = db();
        let q = parse_query("q(X) :- t(X, <livesIn>, <city0>)", db.dict_mut()).unwrap();
        let cat = collect_stats(db.store(), db.dict(), std::slice::from_ref(&q.query));
        let est = CardinalityEstimator::new(&cat);
        let st = est.view_stats(&q.query);
        assert_eq!(st.card, 5.0); // persons 0,4,8,12,16
        assert!(st.distinct[0] <= 5.0);
    }

    #[test]
    fn widths_follow_roles() {
        let mut db = db();
        let q = parse_query("q(Y, X) :- t(X, <livesIn>, Y)", db.dict_mut()).unwrap();
        let cat = collect_stats(db.store(), db.dict(), std::slice::from_ref(&q.query));
        let est = CardinalityEstimator::new(&cat);
        let w = est.head_widths(&q.query);
        // Y is an object (city names, 5 chars); X a subject (~8 chars).
        assert!(w[0] < w[1]);
    }

    #[test]
    fn unbaked_relation_selectivities() {
        // A view with 100 rows, 10 distinct values in col 0; selecting
        // col0 = const should give ~10 rows.
        let rel = RelAtom {
            stats: RelStats {
                card: 100.0,
                distinct: vec![10.0, 50.0],
            },
            args: vec![QTerm::Const(Id(1)), QTerm::Var(Var(0))],
            baked: false,
        };
        let est = estimate_conjunction(&[rel]);
        assert!((est - 10.0).abs() < 1e-9);
    }

    #[test]
    fn join_of_two_views() {
        let a = RelAtom {
            stats: RelStats {
                card: 100.0,
                distinct: vec![20.0, 100.0],
            },
            args: vec![QTerm::Var(Var(0)), QTerm::Var(Var(1))],
            baked: false,
        };
        let b = RelAtom {
            stats: RelStats {
                card: 50.0,
                distinct: vec![25.0, 50.0],
            },
            args: vec![QTerm::Var(Var(0)), QTerm::Var(Var(2))],
            baked: false,
        };
        // 100 × 50 / max(20, 25) = 200.
        assert!((estimate_conjunction(&[a, b]) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_conjunction_is_zero() {
        assert_eq!(estimate_conjunction(&[]), 0.0);
    }

    #[test]
    fn fallback_intra_atom_equality() {
        // An uncollected atom with a repeated variable: the fallback
        // divides by the column's distinct count for the equality.
        let mut db = db();
        let q = parse_query("q(X, Y) :- t(X, <livesIn>, Y)", db.dict_mut()).unwrap();
        let cat = collect_stats(db.store(), db.dict(), std::slice::from_ref(&q.query));
        let est = CardinalityEstimator::new(&cat);
        let plain = est.atom_stats(&Atom::new(Var(0), Var(1), Var(2))).card;
        let repeated = est.atom_stats(&Atom::new(Var(0), Var(1), Var(0))).card;
        assert!(repeated < plain, "{repeated} !< {plain}");
        assert!(repeated > 0.0);
    }

    #[test]
    fn running_min_monotone_under_relaxation() {
        // Growing one relation's cardinality (and distincts) must never
        // shrink the join estimate — the property behind the paper's "SC
        // always increases cost" law.
        let base = |card: f64, d: f64| RelAtom {
            stats: RelStats {
                card,
                distinct: vec![d, card.min(50.0)],
            },
            args: vec![QTerm::Var(Var(0)), QTerm::Var(Var(1))],
            baked: false,
        };
        let other = RelAtom {
            stats: RelStats {
                card: 40.0,
                distinct: vec![20.0, 40.0],
            },
            args: vec![QTerm::Var(Var(0)), QTerm::Var(Var(2))],
            baked: false,
        };
        let mut prev = 0.0;
        for k in 1..=8 {
            let card = 2.0 * k as f64;
            let est = estimate_conjunction(&[base(card, card.min(30.0)), other.clone()]);
            assert!(est >= prev - 1e-9, "estimate dropped: {est} < {prev}");
            prev = est;
        }
    }
}
