//! The free-form query generator: "queries of controllable size, shape,
//! and commonality" (Section 6, "Data and queries").

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rdf_model::{Dictionary, Id};
use rdf_query::{Atom, ConjunctiveQuery, QTerm, Var};

/// Query shapes used across the paper's experiments (Sections 6.2/6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// All atoms share the subject variable — the query graph is a clique,
    /// the hardest case for the search (most edges).
    Star,
    /// Each atom's object is the next atom's subject — the average case.
    Chain,
    /// A chain whose last object closes on the first subject.
    Cycle,
    /// Random connected query graph, few shared variables.
    RandomSparse,
    /// Random connected query graph, many shared variables.
    RandomDense,
    /// A round-robin mix of all of the above.
    Mixed,
}

impl Shape {
    /// The non-mixed shapes, for round-robin assignment.
    pub const BASIC: [Shape; 5] = [
        Shape::Star,
        Shape::Chain,
        Shape::Cycle,
        Shape::RandomSparse,
        Shape::RandomDense,
    ];

    /// Display name used by the experiment harness.
    pub fn name(&self) -> &'static str {
        match self {
            Shape::Star => "star",
            Shape::Chain => "chain",
            Shape::Cycle => "cycle",
            Shape::RandomSparse => "random-sparse",
            Shape::RandomDense => "random-dense",
            Shape::Mixed => "mixed",
        }
    }
}

/// Query commonality across the workload: how much structure (and which
/// constants) queries share — high commonality creates the factorization
/// opportunities View Fusion exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Commonality {
    /// Queries derive from a small pool of templates.
    High,
    /// Queries are generated independently.
    Low,
}

/// Parameters of a generated workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of queries.
    pub queries: usize,
    /// Atoms per query.
    pub atoms: usize,
    /// Query shape.
    pub shape: Shape,
    /// Cross-query commonality.
    pub commonality: Commonality,
    /// Probability that an atom's object is a constant.
    pub object_const_prob: f64,
    /// Size of the property vocabulary to draw from.
    pub property_pool: usize,
    /// RNG seed (generation is fully deterministic).
    pub seed: u64,
}

impl WorkloadSpec {
    /// A spec with the paper's common defaults (10-atom queries).
    pub fn new(queries: usize, atoms: usize, shape: Shape, commonality: Commonality) -> Self {
        Self {
            queries,
            atoms,
            shape,
            commonality,
            object_const_prob: 0.4,
            property_pool: match commonality {
                Commonality::High => (atoms * 2).max(4),
                Commonality::Low => (queries * atoms).max(16),
            },
            seed: 0x5eed,
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Generates a workload, interning its constants into `dict`.
///
/// Every query is connected, safe, and minimal by construction (atoms
/// within a query carry pairwise distinct property constants, so no atom
/// folds onto another).
pub fn generate_workload(spec: &WorkloadSpec, dict: &mut Dictionary) -> Vec<ConjunctiveQuery> {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let properties: Vec<Id> = (0..spec.property_pool.max(spec.atoms))
        .map(|i| dict.intern_uri(&format!("wl:p{i}")))
        .collect();
    let objects: Vec<Id> = (0..spec.property_pool.max(8))
        .map(|i| dict.intern_uri(&format!("wl:o{i}")))
        .collect();

    let mut out = Vec::with_capacity(spec.queries);
    // High commonality: a small template pool; each query perturbs a
    // template's tail. Low commonality: every query fresh.
    let template_count = match spec.commonality {
        Commonality::High => spec.queries.div_ceil(3).max(1),
        Commonality::Low => spec.queries,
    };
    let mut templates: Vec<ConjunctiveQuery> = Vec::with_capacity(template_count);
    for qi in 0..spec.queries {
        let shape = match spec.shape {
            Shape::Mixed => Shape::BASIC[qi % Shape::BASIC.len()],
            s => s,
        };
        let q = if qi < template_count {
            let q = generate_one(shape, spec, &properties, &objects, &mut rng);
            templates.push(q.clone());
            q
        } else {
            let template = &templates[rng.random_range(0..templates.len())];
            perturb(template, spec, &properties, &objects, &mut rng)
        };
        out.push(q);
    }
    out
}

/// Generates one query of the given shape.
fn generate_one(
    shape: Shape,
    spec: &WorkloadSpec,
    properties: &[Id],
    objects: &[Id],
    rng: &mut SmallRng,
) -> ConjunctiveQuery {
    let n = spec.atoms.max(1);
    // Pairwise-distinct properties keep the query minimal.
    let props = distinct_sample(properties, n, rng);
    let mut atoms = Vec::with_capacity(n);
    let mut next_var = 0u32;
    let fresh = |next_var: &mut u32| {
        let v = Var(*next_var);
        *next_var += 1;
        v
    };
    match shape {
        Shape::Star => {
            let center = fresh(&mut next_var);
            for (i, &p) in props.iter().enumerate() {
                let obj = object_term(spec, objects, &mut next_var, rng, i == n - 1);
                atoms.push(Atom::new(center, p, obj));
            }
        }
        Shape::Chain | Shape::Cycle => {
            let first = fresh(&mut next_var);
            let mut current = first;
            for (i, &p) in props.iter().enumerate() {
                let last = i == n - 1;
                if last && shape == Shape::Cycle && n > 1 {
                    atoms.push(Atom::new(current, p, first));
                } else if last && rng.random_bool(spec.object_const_prob) {
                    atoms.push(Atom::new(
                        current,
                        p,
                        objects[rng.random_range(0..objects.len())],
                    ));
                } else {
                    let nxt = fresh(&mut next_var);
                    atoms.push(Atom::new(current, p, nxt));
                    current = nxt;
                }
            }
        }
        Shape::RandomSparse | Shape::RandomDense => {
            let reuse_prob = if shape == Shape::RandomDense {
                0.8
            } else {
                0.25
            };
            let mut vars = vec![fresh(&mut next_var)];
            for &p in &props {
                // Subject from the existing pool keeps the graph connected.
                let s = vars[rng.random_range(0..vars.len())];
                let o: QTerm = if rng.random_bool(spec.object_const_prob) {
                    QTerm::Const(objects[rng.random_range(0..objects.len())])
                } else if rng.random_bool(reuse_prob) && vars.len() > 1 {
                    let mut v = vars[rng.random_range(0..vars.len())];
                    // Avoid a self-loop that could make the atom foldable.
                    if v == s {
                        v = vars[(rng.random_range(0..vars.len()) + 1) % vars.len()];
                    }
                    QTerm::Var(v)
                } else {
                    let v = fresh(&mut next_var);
                    vars.push(v);
                    QTerm::Var(v)
                };
                if let QTerm::Var(v) = o {
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
                atoms.push(Atom::new(s, p, o));
            }
        }
        // xlint: allow(X001, reason = "Mixed is resolved to a concrete shape before dispatch")
        Shape::Mixed => unreachable!("mixed resolves per query"),
    }
    finish_query(atoms, rng)
}

fn object_term(
    spec: &WorkloadSpec,
    objects: &[Id],
    next_var: &mut u32,
    rng: &mut SmallRng,
    _last: bool,
) -> QTerm {
    if rng.random_bool(spec.object_const_prob) {
        QTerm::Const(objects[rng.random_range(0..objects.len())])
    } else {
        let v = Var(*next_var);
        *next_var += 1;
        QTerm::Var(v)
    }
}

/// Head: 1–3 distinct variables, always including the first variable.
fn finish_query(atoms: Vec<Atom>, rng: &mut SmallRng) -> ConjunctiveQuery {
    let mut vars: Vec<Var> = Vec::new();
    for a in &atoms {
        for v in a.vars() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    let head_size = rng.random_range(1..=3usize.min(vars.len()));
    let mut head: Vec<QTerm> = vec![QTerm::Var(vars[0])];
    for &v in vars.iter().skip(1) {
        if head.len() >= head_size {
            break;
        }
        if rng.random_bool(0.5) {
            head.push(QTerm::Var(v));
        }
    }
    ConjunctiveQuery::new(head, atoms).normalized()
}

/// High-commonality perturbation: keep ~70% of the template's atoms,
/// regenerate the tail with fresh properties (constants shared through the
/// same pools).
fn perturb(
    template: &ConjunctiveQuery,
    spec: &WorkloadSpec,
    properties: &[Id],
    objects: &[Id],
    rng: &mut SmallRng,
) -> ConjunctiveQuery {
    let keep = (template.atoms.len() * 7).div_ceil(10).max(1);
    let mut atoms: Vec<Atom> = template.atoms[..keep].to_vec();
    let mut next_var = template.max_var().map_or(0, |m| m + 1);
    let used: Vec<Id> = atoms
        .iter()
        .filter_map(|a| a.terms()[1].as_const())
        .collect();
    let mut candidates: Vec<Id> = properties
        .iter()
        .copied()
        .filter(|p| !used.contains(p))
        .collect();
    for i in keep..template.atoms.len() {
        // Attach to a variable of the kept prefix to stay connected.
        let anchor = atoms[rng.random_range(0..atoms.len().min(keep))]
            .vars()
            .next()
            // xlint: allow(X001, reason = "every generated atom binds at least its subject variable")
            .expect("kept atoms have variables");
        let p = if candidates.is_empty() {
            properties[rng.random_range(0..properties.len())]
        } else {
            candidates.swap_remove(rng.random_range(0..candidates.len()))
        };
        let o: QTerm = if rng.random_bool(spec.object_const_prob) {
            QTerm::Const(objects[rng.random_range(0..objects.len())])
        } else {
            let v = Var(next_var);
            next_var += 1;
            QTerm::Var(v)
        };
        atoms.push(Atom::new(anchor, p, o));
        let _ = i;
    }
    finish_query(atoms, rng)
}

/// Generates a dataset whose vocabulary matches a workload spec's pools,
/// so that every generated query atom has non-trivial statistics.
///
/// The paper's first generator "simply outputs the desired queries"; for
/// the cost model to be meaningful the data must contain triples matching
/// the query atoms (the search only consumes per-atom counts, not full
/// join satisfiability). Subjects are drawn from a resource pool, and
/// (property, object) pairs from the same pools the query generator uses.
/// The triples enter `store` as one batch, in the order they were drawn.
pub fn generate_matching_data(
    spec: &WorkloadSpec,
    dict: &mut Dictionary,
    store: &mut rdf_model::TripleStore,
    triples: usize,
) {
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0xda7a);
    let properties: Vec<Id> = (0..spec.property_pool.max(spec.atoms))
        .map(|i| dict.intern_uri(&format!("wl:p{i}")))
        .collect();
    let objects: Vec<Id> = (0..spec.property_pool.max(8))
        .map(|i| dict.intern_uri(&format!("wl:o{i}")))
        .collect();
    // A deliberately small resource pool gives every property a join
    // fan-out well above 1 (many triples per subject), as in real RDF
    // datasets where popular properties dominate. This is what makes
    // multi-atom view cardinality estimates grow with the atom count —
    // the effect behind the paper's large relative cost reductions. The
    // pool scales inversely with the property vocabulary so the average
    // per-property fan-out (≈ triples / (pool × resources)) stays ≈ 4
    // regardless of workload commonality.
    let n_resources = (triples / (4 * spec.property_pool.max(spec.atoms))).clamp(8, 1_000);
    let resources: Vec<Id> = (0..n_resources)
        .map(|i| dict.intern_uri(&format!("wl:r{i}")))
        .collect();
    let prop_zipf = crate::zipf::Zipf::new(properties.len(), 0.8);
    let mut batch = Vec::with_capacity(triples);
    for _ in 0..triples {
        let s = resources[rng.random_range(0..resources.len())];
        let p = properties[prop_zipf.sample(&mut rng)];
        // Mix constant-pool objects (matched by object-constant atoms) and
        // resource objects (join partners for chain queries).
        let o = if rng.random_bool(0.5) {
            objects[rng.random_range(0..objects.len())]
        } else {
            resources[rng.random_range(0..resources.len())]
        };
        batch.push([s, p, o]);
    }
    store.insert_batch(&batch);
}

/// Samples `n` distinct items (repeats allowed only if the pool is too
/// small).
fn distinct_sample(pool: &[Id], n: usize, rng: &mut SmallRng) -> Vec<Id> {
    if pool.len() >= n {
        let mut idx: Vec<usize> = (0..pool.len()).collect();
        // Partial Fisher–Yates.
        for i in 0..n {
            let j = rng.random_range(i..idx.len());
            idx.swap(i, j);
        }
        idx[..n].iter().map(|&i| pool[i]).collect()
    } else {
        (0..n)
            .map(|_| pool[rng.random_range(0..pool.len())])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_query::graph::JoinGraph;
    use rdf_query::minimize::is_minimal;

    fn check_workload(shape: Shape, commonality: Commonality) -> Vec<ConjunctiveQuery> {
        let mut dict = Dictionary::new();
        let spec = WorkloadSpec::new(6, 5, shape, commonality);
        let qs = generate_workload(&spec, &mut dict);
        assert_eq!(qs.len(), 6);
        for q in &qs {
            assert_eq!(q.atoms.len(), 5, "{shape:?}");
            assert!(q.is_safe());
            assert!(JoinGraph::new(&q.atoms).is_connected(), "{shape:?} {q:?}");
            assert!(is_minimal(q), "{shape:?} {q:?}");
        }
        qs
    }

    #[test]
    fn all_shapes_produce_valid_queries() {
        for shape in Shape::BASIC {
            check_workload(shape, Commonality::Low);
            check_workload(shape, Commonality::High);
        }
        check_workload(Shape::Mixed, Commonality::High);
    }

    #[test]
    fn star_is_a_clique() {
        let qs = check_workload(Shape::Star, Commonality::Low);
        for q in &qs {
            let g = JoinGraph::new(&q.atoms);
            for i in 0..q.atoms.len() {
                assert_eq!(g.neighbors(i).len(), q.atoms.len() - 1);
            }
        }
    }

    #[test]
    fn chain_is_a_path() {
        let qs = check_workload(Shape::Chain, Commonality::Low);
        for q in &qs {
            let g = JoinGraph::new(&q.atoms);
            let degree_one = (0..q.atoms.len())
                .filter(|&i| g.neighbors(i).len() == 1)
                .count();
            assert!(degree_one >= 1, "a path has endpoints: {q:?}");
        }
    }

    #[test]
    fn determinism() {
        let mut d1 = Dictionary::new();
        let mut d2 = Dictionary::new();
        let spec = WorkloadSpec::new(4, 6, Shape::RandomDense, Commonality::High);
        assert_eq!(
            generate_workload(&spec, &mut d1),
            generate_workload(&spec, &mut d2)
        );
    }

    #[test]
    fn seeds_differ() {
        let mut dict = Dictionary::new();
        let spec = WorkloadSpec::new(4, 6, Shape::Chain, Commonality::Low);
        let a = generate_workload(&spec, &mut dict);
        let b = generate_workload(&spec.clone().with_seed(99), &mut dict);
        assert_ne!(a, b);
    }

    #[test]
    fn high_commonality_shares_atoms() {
        let mut dict = Dictionary::new();
        // Commonality proxy: the largest pairwise overlap of atom
        // signatures between two queries. Template-derived queries share
        // whole prefixes, so some pair overlaps heavily; low-commonality
        // overlap is incidental (single-property coincidences).
        let shared = |qs: &[ConjunctiveQuery]| {
            let sig = |q: &ConjunctiveQuery| -> std::collections::HashSet<(Id, Option<Id>)> {
                q.atoms
                    .iter()
                    .filter_map(|a| {
                        a.terms()[1]
                            .as_const()
                            .map(|p| (p, a.terms()[2].as_const()))
                    })
                    .collect()
            };
            let sigs: Vec<_> = qs.iter().map(sig).collect();
            let mut best = 0;
            for i in 0..sigs.len() {
                for j in i + 1..sigs.len() {
                    best = best.max(sigs[i].intersection(&sigs[j]).count());
                }
            }
            best
        };
        let hi = generate_workload(
            &WorkloadSpec::new(12, 8, Shape::Chain, Commonality::High),
            &mut dict,
        );
        let lo = generate_workload(
            &WorkloadSpec::new(12, 8, Shape::Chain, Commonality::Low).with_seed(5),
            &mut dict,
        );
        assert!(
            shared(&hi) > shared(&lo),
            "high {} vs low {}",
            shared(&hi),
            shared(&lo)
        );
    }
}
