//! A Barton-like dataset: same schema shape as the MIT Barton library
//! catalog used in the paper's experiments, synthetic instance data.
//!
//! The paper reports: "The schema consists of 39 classes, 61 properties,
//! and 106 RDFS statements of the kinds listed in Table 1" over ≈35M
//! distinct triples. This generator reproduces the schema shape exactly
//! (38 subclass + 30 subproperty + 20 domain + 18 range statements = 106,
//! over 39 classes and 61 properties by default) and synthesizes
//! Zipf-skewed instance triples at any scale.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rdf_model::{Dataset, Id};
use rdf_schema::{Schema, SchemaStatement, VocabIds};

use crate::zipf::Zipf;

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct BartonSpec {
    /// Number of classes (paper: 39).
    pub classes: usize,
    /// Number of properties (paper: 61).
    pub properties: usize,
    /// Number of distinct resources.
    pub resources: usize,
    /// Approximate number of instance triples to generate (distinct count
    /// may be slightly lower after deduplication).
    pub triples: usize,
    /// Zipf skew of class/property usage.
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BartonSpec {
    fn default() -> Self {
        Self {
            classes: 39,
            properties: 61,
            resources: 10_000,
            triples: 100_000,
            skew: 1.0,
            seed: 0xb_a770,
        }
    }
}

impl BartonSpec {
    /// A small spec for unit tests and examples.
    pub fn tiny() -> Self {
        Self {
            resources: 300,
            triples: 2_000,
            ..Self::default()
        }
    }

    /// Scales the instance data.
    pub fn with_size(mut self, resources: usize, triples: usize) -> Self {
        self.resources = resources;
        self.triples = triples;
        self
    }
}

/// The generated dataset: data, schema, vocabulary ids, and the generated
/// class/property ids for workload construction.
#[derive(Debug, Clone)]
pub struct BartonDataset {
    /// Dictionary + triple store (instance triples only; the schema is
    /// kept separately, as a Tbox).
    pub db: Dataset,
    /// The RDFS.
    pub schema: Schema,
    /// Interned vocabulary.
    pub vocab: VocabIds,
    /// The class ids, most-used first.
    pub classes: Vec<Id>,
    /// The property ids, most-used first.
    pub properties: Vec<Id>,
}

/// Generates a Barton-like dataset.
pub fn generate_barton(spec: &BartonSpec) -> BartonDataset {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut db = Dataset::new();
    let vocab = VocabIds::intern(db.dict_mut());

    let classes: Vec<Id> = (0..spec.classes)
        .map(|i| db.dict_mut().intern_uri(&format!("barton:Class{i}")))
        .collect();
    let properties: Vec<Id> = (0..spec.properties)
        .map(|i| db.dict_mut().intern_uri(&format!("barton:prop{i}")))
        .collect();

    // --- Schema: 106 statements with the Barton shape. -----------------
    let mut schema = Schema::new();
    // Subclass forest: every class except the root points to an earlier
    // class (38 statements for 39 classes).
    for i in 1..classes.len() {
        let parent = rng.random_range(0..i);
        schema.add(SchemaStatement::SubClassOf(classes[i], classes[parent]));
    }
    // Subproperty forest over the *unpopular tail* of the property
    // vocabulary (indexes 30‥): Zipf-sampled instance data and queries
    // concentrate on the low indexes, so queried properties have few
    // subproperty descendants — which is what keeps the paper's |Qr|/|Q|
    // in the 4–23× range rather than exploding combinatorially.
    let tail_start = spec.properties.saturating_sub(31).min(30);
    let sp_count = spec.properties.saturating_sub(tail_start + 1).min(30);
    for k in 1..=sp_count {
        let i = tail_start + k;
        let parent = rng.random_range(tail_start..i);
        schema.add(SchemaStatement::SubPropertyOf(
            properties[i],
            properties[parent],
        ));
    }
    // Domain typing for 20 properties, range typing for 18.
    for (k, &p) in properties.iter().enumerate().take(20) {
        let c = classes[(k * 7) % classes.len()];
        schema.add(SchemaStatement::Domain(p, c));
    }
    for (k, &p) in properties.iter().enumerate().skip(20).take(18) {
        let c = classes[(k * 5) % classes.len()];
        schema.add(SchemaStatement::Range(p, c));
    }

    // --- Instance data. -------------------------------------------------
    let resources: Vec<Id> = (0..spec.resources)
        .map(|i| db.dict_mut().intern_uri(&format!("barton:r{i}")))
        .collect();
    let literals: Vec<Id> = (0..(spec.resources / 4).max(8))
        .map(|i| db.dict_mut().intern_literal(&format!("value {i}")))
        .collect();
    let class_zipf = Zipf::new(classes.len(), spec.skew);
    let prop_zipf = Zipf::new(properties.len(), spec.skew);
    let res_zipf = Zipf::new(resources.len(), spec.skew / 2.0);

    // Every resource gets a type; remaining budget goes to property
    // triples. They enter the store as one batch: repeats of a draw are
    // dropped and the rest keep the order they were drawn in.
    let budget = spec.triples.saturating_sub(resources.len());
    let mut batch = Vec::with_capacity(resources.len() + budget);
    for &r in &resources {
        let c = classes[class_zipf.sample(&mut rng)];
        batch.push([r, vocab.rdf_type, c]);
    }
    for _ in 0..budget {
        let s = resources[res_zipf.sample(&mut rng)];
        let p = properties[prop_zipf.sample(&mut rng)];
        let o = if rng.random_bool(0.3) {
            literals[rng.random_range(0..literals.len())]
        } else {
            resources[res_zipf.sample(&mut rng)]
        };
        batch.push([s, p, o]);
    }
    db.store_mut().insert_batch(&batch);

    BartonDataset {
        db,
        schema,
        vocab,
        classes,
        properties,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_schema::StatementKind;

    #[test]
    fn schema_shape_matches_paper() {
        let d = generate_barton(&BartonSpec::tiny());
        assert_eq!(d.schema.class_count(), 39);
        // Not all 61 properties necessarily appear in schema statements,
        // but the generated vocabulary has 61.
        assert_eq!(d.properties.len(), 61);
        assert_eq!(d.schema.len(), 106);
        let count = |k: StatementKind| {
            d.schema
                .statements()
                .iter()
                .filter(|s| s.kind() == k)
                .count()
        };
        assert_eq!(count(StatementKind::SubClassOf), 38);
        assert_eq!(count(StatementKind::SubPropertyOf), 30);
        assert_eq!(count(StatementKind::Domain), 20);
        assert_eq!(count(StatementKind::Range), 18);
    }

    #[test]
    fn instance_data_has_types_and_properties() {
        let spec = BartonSpec::tiny();
        let d = generate_barton(&spec);
        assert!(d.db.len() > spec.resources);
        // Every resource is typed.
        let type_count =
            d.db.store()
                .match_count(&rdf_model::StorePattern::with_p(d.vocab.rdf_type));
        assert_eq!(type_count, spec.resources);
    }

    #[test]
    fn skew_concentrates_usage() {
        let d = generate_barton(&BartonSpec::tiny());
        let count_p = |p: Id| {
            d.db.store()
                .match_count(&rdf_model::StorePattern::with_p(p))
        };
        // The most popular property is used far more than the tail.
        assert!(count_p(d.properties[0]) > count_p(d.properties[59]).max(1));
    }

    #[test]
    fn determinism() {
        let a = generate_barton(&BartonSpec::tiny());
        let b = generate_barton(&BartonSpec::tiny());
        assert_eq!(a.db.store().triples(), b.db.store().triples());
        assert_eq!(a.schema.len(), b.schema.len());
    }

    #[test]
    fn saturation_adds_implicit_triples() {
        let d = generate_barton(&BartonSpec::tiny());
        let mut store = d.db.store().clone();
        let added = rdf_schema::saturate(&mut store, &d.schema, &d.vocab);
        assert!(added > 0, "the hierarchy must entail something");
        // Linear bound from Section 6.5: O(|D| × |S|).
        assert!(added <= d.db.len() * d.schema.len());
    }
}
