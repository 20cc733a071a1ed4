//! Entailment-aware maintenance against the oracle.
//!
//! A saturation deployment keeps its base store equal to the saturation
//! of its explicit triples *by delta*: an insert batch adds the forward
//! closure of the batch, a delete batch retracts what lost its last
//! derivation (delete-and-rederive over the delta). Here every batch of
//! random insert/delete sequences over random schemas is checked against
//! the slow definition — `saturated_copy` of a model of the explicit
//! triples, and a rematerialisation of every view — and the cases the
//! delta rules turn on are pinned by name.

use std::collections::BTreeSet;

use proptest::prelude::*;

use rdfviews::exec::materialize_recommendation;
use rdfviews::model::{Id, Triple};
use rdfviews::prelude::*;
use rdfviews::schema::saturated_copy;

const CLASSES: usize = 6;
const PROPS: usize = 5;
const NODES: usize = 8;

/// A dataset whose dictionary holds the vocabulary, `CLASSES` classes,
/// `PROPS` properties and `NODES` instances, with their ids.
struct World {
    db: Dataset,
    vocab: VocabIds,
    classes: Vec<Id>,
    props: Vec<Id>,
    nodes: Vec<Id>,
}

impl World {
    fn new() -> Self {
        let mut db = Dataset::new();
        let vocab = VocabIds::intern(db.dict_mut());
        let mut named = |prefix: &str, n: usize| -> Vec<Id> {
            (0..n)
                .map(|i| db.dict_mut().intern_uri(&format!("{prefix}{i}")))
                .collect()
        };
        let classes = named("c", CLASSES);
        let props = named("p", PROPS);
        let nodes = named("x", NODES);
        World {
            db,
            vocab,
            classes,
            props,
            nodes,
        }
    }

    /// `(s, k, o)` drawn as small numbers: `k < PROPS` is the property
    /// triple `(x_s, p_k, x_o)`, anything else the membership
    /// `(x_s, rdf:type, c_o)`.
    fn triple(&self, [s, k, o]: [usize; 3]) -> Triple {
        if k < PROPS {
            [self.nodes[s % NODES], self.props[k], self.nodes[o % NODES]]
        } else {
            [
                self.nodes[s % NODES],
                self.vocab.rdf_type,
                self.classes[o % CLASSES],
            ]
        }
    }

    /// The fixed part — a sub-class chain c0 ⊑ c1 ⊑ c2, a diamond
    /// c3 ⊑ {c1, c4} ⊑ c5 (with c1 ⊑ c5), a sub-property chain
    /// p0 ⊑ p1 ⊑ p2, a domain and a range — plus the drawn statements.
    fn schema(&self, extra: &[[usize; 3]]) -> Schema {
        let (c, p) = (&self.classes, &self.props);
        let mut schema = Schema::new();
        for (a, b) in [(0, 1), (1, 2), (3, 1), (3, 4), (1, 5), (4, 5)] {
            schema.add(SchemaStatement::SubClassOf(c[a], c[b]));
        }
        schema.add(SchemaStatement::SubPropertyOf(p[0], p[1]));
        schema.add(SchemaStatement::SubPropertyOf(p[1], p[2]));
        schema.add(SchemaStatement::Domain(p[1], c[0]));
        schema.add(SchemaStatement::Range(p[2], c[3]));
        for &[kind, a, b] in extra {
            schema.add(match kind % 4 {
                0 => SchemaStatement::SubClassOf(c[a % CLASSES], c[b % CLASSES]),
                1 => SchemaStatement::SubPropertyOf(p[a % PROPS], p[b % PROPS]),
                2 => SchemaStatement::Domain(p[a % PROPS], c[b % CLASSES]),
                _ => SchemaStatement::Range(p[a % PROPS], c[b % CLASSES]),
            });
        }
        schema
    }

    /// Views over the entailed vocabulary: memberships of a class deep in
    /// the hierarchy, a super-property's pairs, and a join of the two.
    fn workload(&mut self) -> Vec<ConjunctiveQuery> {
        [
            "q1(X) :- t(X, <rdf:type>, <c5>)",
            "q2(X, Y) :- t(X, <p2>, Y)",
            "q3(X, Y) :- t(X, <p1>, Y), t(Y, <rdf:type>, <c1>)",
            "q4(X, C) :- t(X, <rdf:type>, C), t(X, <p2>, X)",
        ]
        .iter()
        .map(|s| parse_query(s, self.db.dict_mut()).unwrap().query)
        .collect()
    }

    /// Loads `explicit`, tunes the workload under saturation and deploys.
    fn deploy(&mut self, schema: &Schema, explicit: &[Triple]) -> Deployment {
        for &t in explicit {
            self.db.store_mut().insert(t);
        }
        let workload = self.workload();
        let mut advisor = Advisor::builder(&self.db)
            .schema(schema, &self.vocab)
            .reasoning(ReasoningMode::Saturation)
            .max_states(200)
            .build()
            .unwrap();
        let rec = advisor.recommend(&workload).unwrap();
        advisor.deploy(rec)
    }
}

fn as_set(store: &TripleStore) -> BTreeSet<Triple> {
    store.triples().iter().copied().collect()
}

/// The two halves of the gate: the base store is the saturation of the
/// explicit triples, and every view table is what materialising it over
/// that store gives.
fn assert_matches_the_oracle(
    dep: &Deployment,
    explicit: &BTreeSet<Triple>,
    schema: &Schema,
    vocab: &VocabIds,
) {
    let mut model = TripleStore::new();
    model.insert_batch(&explicit.iter().copied().collect::<Vec<_>>());
    let oracle = saturated_copy(&model, schema, vocab);
    assert_eq!(as_set(dep.store()), as_set(&oracle), "base store");
    let snapshot = dep.snapshot();
    assert_eq!(snapshot.version(), dep.store().version());
    let fresh = materialize_recommendation(dep.store(), dep.recommendation());
    for view in &dep.recommendation().views {
        let served: Vec<&[Id]> = snapshot.tables().table(view.id).rows().collect();
        let expect: Vec<&[Id]> = fresh.table(view.id).rows().collect();
        assert_eq!(served, expect, "view {}", view.id);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every batch of a random insert/delete sequence over a random
    /// schema, the deployment equals its definition, a batch that moved
    /// the base store cost one maintenance pass and one version, and one
    /// that did not cost none.
    #[test]
    fn every_batch_leaves_the_deployment_equal_to_its_definition(
        extra in prop::collection::vec([0usize..4, 0usize..8, 0usize..8], 0..6),
        initial in prop::collection::vec([0usize..NODES, 0usize..PROPS + 2, 0usize..NODES], 0..24),
        batches in prop::collection::vec(
            (any::<bool>(), prop::collection::vec([0usize..NODES, 0usize..PROPS + 2, 0usize..NODES], 1..8)),
            1..8,
        ),
    ) {
        let mut world = World::new();
        let schema = world.schema(&extra);
        let initial: Vec<Triple> = initial.iter().map(|&t| world.triple(t)).collect();
        let mut explicit: BTreeSet<Triple> = initial.iter().copied().collect();
        let mut dep = world.deploy(&schema, &initial);
        assert_matches_the_oracle(&dep, &explicit, &schema, &world.vocab);

        for (insert, batch) in &batches {
            let batch: Vec<Triple> = batch.iter().map(|&t| world.triple(t)).collect();
            let before = as_set(dep.store());
            let version = dep.store().version();
            let stats = if *insert {
                explicit.extend(batch.iter().copied());
                dep.insert_batch(&batch)
            } else {
                // Deleting an implicit or absent triple is a no-op: only
                // explicit triples can be retracted.
                for t in &batch {
                    explicit.remove(t);
                }
                dep.delete_batch(&batch)
            };
            assert_matches_the_oracle(&dep, &explicit, &schema, &world.vocab);
            let moved = as_set(dep.store()) != before;
            prop_assert_eq!(stats.batches, usize::from(moved));
            prop_assert_eq!(dep.store().version(), version + u64::from(moved));
            if !moved {
                prop_assert_eq!(stats, MaintenanceStats::default());
            }
        }
    }
}

/// x0 is a c0 twice over — explicitly, and by the domain of p1 through
/// (x0, p0, x1) — and so a c1, c2 and c5 by the chain.
fn two_derivations() -> (World, Schema, Deployment, [Triple; 2]) {
    let mut world = World::new();
    let schema = world.schema(&[]);
    let by_domain = [world.nodes[0], world.props[0], world.nodes[1]];
    let by_membership = [world.nodes[0], world.vocab.rdf_type, world.classes[0]];
    let dep = world.deploy(&schema, &[by_domain, by_membership]);
    (world, schema, dep, [by_domain, by_membership])
}

#[test]
fn deleting_an_explicit_triple_that_is_still_entailed_keeps_it() {
    let (world, schema, mut dep, [by_domain, by_membership]) = two_derivations();
    let version = dep.store().version();
    let stats = dep.delete_batch(&[by_membership]);
    assert!(
        dep.store().contains(by_membership),
        "the domain still types x0"
    );
    assert_eq!(stats, MaintenanceStats::default());
    assert_eq!(
        dep.store().version(),
        version,
        "the base store did not move"
    );
    let explicit = BTreeSet::from([by_domain]);
    assert_matches_the_oracle(&dep, &explicit, &schema, &world.vocab);
    // It is implicit now: deleting it again is a no-op, and it falls with
    // its last derivation.
    assert_eq!(dep.delete_batch(&[by_membership]).batches, 0);
    assert!(dep.store().contains(by_membership));
    assert_eq!(dep.delete_batch(&[by_domain]).batches, 1);
    assert!(dep.store().is_empty());
}

#[test]
fn deleting_one_of_two_derivations_of_a_type_keeps_it_and_both_retracts_it() {
    let (world, schema, mut dep, [by_domain, by_membership]) = two_derivations();
    let ty = world.vocab.rdf_type;
    let deep = [world.nodes[0], ty, world.classes[5]];
    let q1 = |dep: &Deployment| dep.snapshot().answer(0).unwrap();
    assert!(q1(&dep).contains(&[world.nodes[0]]));

    // One derivation gone: the property triples go, the types stay.
    let stats = dep.delete_batch(&[by_domain]);
    assert_eq!(stats.batches, 1);
    assert!(!dep.store().contains(by_domain));
    assert!(dep.store().contains(by_membership) && dep.store().contains(deep));
    assert!(q1(&dep).contains(&[world.nodes[0]]));
    let explicit = BTreeSet::from([by_membership]);
    assert_matches_the_oracle(&dep, &explicit, &schema, &world.vocab);

    // Both gone: every type is retracted, from the store and the views.
    let stats = dep.delete_batch(&[by_membership]);
    assert_eq!(stats.batches, 1);
    assert!(stats.removed > 0);
    assert!(dep.store().is_empty());
    assert!(q1(&dep).is_empty());
    assert_matches_the_oracle(&dep, &BTreeSet::new(), &schema, &world.vocab);
}

#[test]
fn inserting_an_already_entailed_triple_changes_the_explicit_store_only() {
    let mut world = World::new();
    let schema = world.schema(&[]);
    let by_domain = [world.nodes[0], world.props[0], world.nodes[1]];
    let entailed = [world.nodes[0], world.vocab.rdf_type, world.classes[2]];
    let mut dep = world.deploy(&schema, &[by_domain]);
    assert!(dep.store().contains(entailed));
    let dict = world.db.dict().clone();
    let (version, hash) = (dep.store().version(), dep.content_hash(&dict).unwrap());
    let base = as_set(dep.store());

    let stats = dep.insert_batch(&[entailed]);
    assert_eq!(stats, MaintenanceStats::default(), "no delta join ran");
    assert_eq!(
        dep.store().version(),
        version,
        "no generation was published"
    );
    assert_eq!(as_set(dep.store()), base);
    assert_ne!(
        dep.content_hash(&dict).unwrap(),
        hash,
        "the state did change: the triple is explicit now"
    );
    // ... which shows once its other derivation goes.
    dep.delete_batch(&[by_domain]);
    assert!(dep.store().contains(entailed));
    assert!(!dep.store().contains(by_domain));
    let explicit = BTreeSet::from([entailed]);
    assert_matches_the_oracle(&dep, &explicit, &schema, &world.vocab);
}

#[test]
fn one_batch_is_one_pass_and_one_write_whatever_it_entails() {
    let mut world = World::new();
    let schema = world.schema(&[]);
    let mut dep = world.deploy(&schema, &[]);
    // 8 property triples at the bottom of the chain: 16 carried up by
    // rule 2, and memberships by domain, range and both class chains.
    let batch: Vec<Triple> = (0..NODES)
        .map(|i| [world.nodes[i], world.props[0], world.nodes[(i + 1) % NODES]])
        .collect();
    let version = dep.store().version();
    let stats = dep.insert_batch(&batch);
    assert_eq!(stats.batches, 1);
    assert_eq!(dep.store().version(), version + 1);
    assert!(dep.store().len() > 3 * batch.len());
    let explicit: BTreeSet<Triple> = batch.iter().copied().collect();
    assert_matches_the_oracle(&dep, &explicit, &schema, &world.vocab);
    let stats = dep.delete_batch(&batch[..3]);
    assert_eq!(stats.batches, 1);
    assert_eq!(dep.store().version(), version + 2);
    let explicit: BTreeSet<Triple> = batch[3..].iter().copied().collect();
    assert_matches_the_oracle(&dep, &explicit, &schema, &world.vocab);
}

/// A post-reformulation deployment holds one reasoning too: its base store
/// takes each batch as given, explicit triples only, while its
/// reformulated views and its reformulated ad-hoc plans answer what the
/// batch entails — and stop answering it once the batch is deleted.
#[test]
fn reformulation_deployment_stores_explicit_triples_and_answers_entailments() {
    let mut world = World::new();
    let schema = world.schema(&[]);
    let workload = world.workload();
    let adhoc = parse_query("a(X) :- t(X, <rdf:type>, <c2>)", world.db.dict_mut())
        .unwrap()
        .query;
    let unrelated = [world.nodes[2], world.props[3], world.nodes[3]];
    world.db.store_mut().insert(unrelated);
    let mut advisor = Advisor::builder(&world.db)
        .schema(&schema, &world.vocab)
        .reasoning(ReasoningMode::PostReformulation)
        .max_states(200)
        .build()
        .unwrap();
    let rec = advisor.recommend(&workload).unwrap();
    let mut dep = advisor.deploy(rec);

    // x0 is a c0 by the domain of p1 through p0 ⊑ p1, so a c2 by the chain.
    let by_sub_property = [world.nodes[0], world.props[0], world.nodes[1]];
    dep.insert_batch(&[by_sub_property]);
    assert_eq!(
        as_set(dep.store()),
        BTreeSet::from([unrelated, by_sub_property])
    );
    let saturated = saturated_copy(dep.store(), &schema, &world.vocab);
    let snapshot = dep.snapshot();
    for (qi, q) in dep.recommendation().workload.iter().enumerate() {
        assert_eq!(
            snapshot.answer(qi).unwrap(),
            evaluate(&saturated, q),
            "q{qi}"
        );
    }
    let typed = snapshot.answer_adhoc(&adhoc).unwrap();
    assert_eq!(typed, evaluate(&saturated, &adhoc));
    assert!(!typed.is_empty() && evaluate(dep.store(), &adhoc).is_empty());

    dep.delete_batch(&[by_sub_property]);
    assert_eq!(as_set(dep.store()), BTreeSet::from([unrelated]));
    assert!(dep.snapshot().answer_adhoc(&adhoc).unwrap().is_empty());
}
