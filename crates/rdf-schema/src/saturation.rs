//! Entailment by delta: the implicit triples an RDFS adds to a database,
//! and the ones it takes back.
//!
//! The paper's Section 4.2 describes saturation as the inflationary fixpoint
//! of the RDF entailment rules; as in its experiments, we consider the four
//! instance-level rules derived from an RDFS (Table 1):
//!
//! 1. `(s, rdf:type, c1)` and `c1 ⊑ c2`     ⇒ `(s, rdf:type, c2)`
//! 2. `(s, p1, o)` and `p1 ⊑p p2`           ⇒ `(s, p2, o)`
//! 3. `(s, p, o)` and `p rdfs:domain c`     ⇒ `(s, rdf:type, c)`
//! 4. `(s, p, o)` and `p rdfs:range c`      ⇒ `(o, rdf:type, c)`
//!
//! Each rule has **one** instance premise (the other is a schema
//! statement, and the schema is fixed), so every entailed triple hangs off
//! one explicit triple by a chain of rule applications. Two consequences
//! carry the whole module:
//!
//! * *Forward.* The consequences of a set of triples are the forward
//!   closure of that set alone — no other triple of the database takes
//!   part. [`entailed_delta`] is the one worklist that computes it: seeded
//!   with a batch it yields what an insertion adds to a saturated store;
//!   seeded with the whole store it yields the saturation, which is how
//!   [`saturate`] is written. Each triple is processed once, and rule
//!   chaining (subproperty, then domain, then subclass) is the worklist.
//!   The worklist keeps a consequence iff it is in neither the store nor
//!   its own set of triples met so far; [`saturate`] puts the store's
//!   derivable triples into that set before it starts, so the question
//!   is one insertion into one hash set.
//!   The derived-triple bound `O(|D| × |S|)` quoted in Section 6.5
//!   follows: each data triple triggers at most one derivation per schema
//!   statement per chain step.
//! * *Backward.* A triple stays entailed after a deletion iff some
//!   *remaining* explicit triple still has it in its forward closure, and
//!   only triples in the forward closure of the deleted ones can have lost
//!   theirs. [`retracted_delta`] therefore checks those candidates, each by
//!   walking the rules backwards to the few explicit triples that could
//!   derive it — point and prefix probes of the explicit store's sorted
//!   runs, over the same closures query reformulation walks (Theorems 4.1
//!   and 4.2 are two views of one closure).
//!
//! The rules do not recurse through `rdf:type` as a property: a type triple
//! fires rule 1 only, as the paper's Table 1 has it. The backward walk
//! mirrors that exactly, so the two directions agree on every schema.

use std::cell::OnceCell;
use std::sync::Arc;

use rdf_model::{prefix_range, FxHashSet, Id, IndexOrder, Triple, TripleStore};

use crate::schema::Schema;
use crate::VocabIds;

/// Counters describing a saturation run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SaturationStats {
    /// Triples present before saturation.
    pub explicit: usize,
    /// Implicit triples added.
    pub implicit: usize,
    /// Worklist items processed (explicit + implicit).
    pub processed: usize,
}

impl SaturationStats {
    /// Total triples after saturation.
    pub fn total(&self) -> usize {
        self.explicit + self.implicit
    }
}

/// The forward closure of `seeds` under the four rules, less the seeds
/// themselves and everything `keep` refuses: each derived triple is
/// offered to `keep` once per derivation, and only a kept one is reported
/// and expanded further. Returns the kept triples in derivation order.
fn forward_closure(
    seeds: &[Triple],
    schema: &Schema,
    vocab: &VocabIds,
    mut keep: impl FnMut(Triple) -> bool,
) -> Vec<Triple> {
    let mut queue: Vec<Triple> = seeds.to_vec();
    let mut derived: Vec<Triple> = Vec::new();
    let mut out: Vec<Triple> = Vec::new();
    while let Some(t) = queue.pop() {
        derive_one(t, vocab.rdf_type, schema, &mut derived);
        for nt in derived.drain(..) {
            if keep(nt) {
                out.push(nt);
                queue.push(nt);
            }
        }
    }
    out
}

/// The consequences of `seeds` that `store` lacks: every triple the four
/// rules derive from the seeds, directly or through a chain, that is
/// neither in `store` nor a seed — each once, in derivation order, **not
/// inserted**.
///
/// A derived triple the store already holds is not expanded, so `store`
/// must hold the consequences of whatever it holds, *or* hold nothing but
/// seeds: a saturated store with a batch of new triples as seeds (what an
/// insertion adds), or any store seeded with all of its own triples (its
/// saturation, see [`saturate`]).
///
/// The seeds are checked against the store in one merge with its `Spo`
/// run; each consequence met for the first time is a binary search of the
/// run — a batch has a few hundred.
pub fn entailed_delta(
    store: &TripleStore,
    seeds: &[Triple],
    schema: &Schema,
    vocab: &VocabIds,
) -> Vec<Triple> {
    let mut fresh = seeds.to_vec();
    fresh.sort_unstable();
    fresh.dedup();
    store.retain_by_membership(&mut fresh, false);
    let mut met: FxHashSet<Triple> = fresh.into_iter().collect();
    forward_closure(seeds, schema, vocab, |t| {
        !met.contains(&t) && !store.contains(t) && met.insert(t)
    })
}

/// Saturates `store` in place; returns the number of implicit triples
/// added. The implicit triples are appended to the store's insertion
/// order in derivation order, as one batch (one version bump).
pub fn saturate(store: &mut TripleStore, schema: &Schema, vocab: &VocabIds) -> usize {
    saturate_with_stats(store, schema, vocab).implicit
}

/// Saturates `store` in place and reports counters.
///
/// This is [`entailed_delta`] seeded with the whole store, with the store
/// moved into the worklist's set. A derived triple has `rdf:type` or a
/// property with a sub-property as its property, so only the store's
/// triples of those properties can be met again: one pass over the `Spo`
/// run cuts them out, and they go into a set sized once for them plus as
/// many consequences as there are explicit triples (it still grows if
/// there are more). A consequence is then kept iff inserting it into the
/// set succeeds — one hash probe where [`entailed_delta`] asks three
/// questions. Derivation order cannot change: the worklist pops and
/// expands triples in the same order as long as it keeps the same ones,
/// and it does — a consequence is refused iff the store holds it or it
/// was kept before, exactly what the store and a set starting empty
/// answered together (every seed is in the store, so no seed is ever kept
/// or expanded twice).
pub fn saturate_with_stats(
    store: &mut TripleStore,
    schema: &Schema,
    vocab: &VocabIds,
) -> SaturationStats {
    let explicit = store.len();
    let derivable: Vec<Triple> = store
        .index(IndexOrder::Spo)
        .iter()
        .filter(|&&[_, p, _]| p == vocab.rdf_type || !schema.direct_sub_properties(p).is_empty())
        .copied()
        .collect();
    let mut met =
        FxHashSet::with_capacity_and_hasher(derivable.len() + explicit, Default::default());
    met.extend(derivable);
    let implicit = forward_closure(store.triples(), schema, vocab, |t| met.insert(t));
    store.insert_batch(&implicit);
    SaturationStats {
        explicit,
        implicit: implicit.len(),
        // Every triple, given or derived, passes through the worklist once.
        processed: explicit + implicit.len(),
    }
}

/// Applies each rule once to `t`, pushing consequents into `out`.
fn derive_one(t: Triple, rdf_type: Id, schema: &Schema, out: &mut Vec<Triple>) {
    let [s, p, o] = t;
    if p == rdf_type {
        // Rule 1: propagate membership to direct superclasses.
        for &c2 in schema.direct_super_classes(o) {
            out.push([s, rdf_type, c2]);
        }
    } else {
        // Rule 2: propagate the triple to direct superproperties.
        for &p2 in schema.direct_super_properties(p) {
            out.push([s, p2, o]);
        }
        // Rule 3: domain typing.
        for &c in schema.domains(p) {
            out.push([s, rdf_type, c]);
        }
        // Rule 4: range typing.
        for &c in schema.ranges(p) {
            out.push([o, rdf_type, c]);
        }
    }
}

/// Returns a saturated copy, leaving `store` untouched (the paper's
/// "reformulation scenario" keeps the database unchanged; this helper exists
/// for comparing the two sides of Theorem 4.2, and as the oracle the
/// incremental paths are tested against).
pub fn saturated_copy(store: &TripleStore, schema: &Schema, vocab: &VocabIds) -> TripleStore {
    let mut copy = store.clone();
    saturate(&mut copy, schema, vocab);
    copy
}

/// Delete-and-rederive over the delta: the triples of `saturated` that
/// lose their last derivation once `removed` have left the explicit
/// store. `explicit` is the explicit store **after** the removal and
/// `saturated` its saturation **before** it; the result is what must leave
/// `saturated` for it to be the saturation of `explicit` again.
///
/// Candidates are the removed triples and their forward closure, as far as
/// `saturated` holds them; a candidate survives iff a remaining explicit
/// triple derives it ([`Support::holds`]).
pub fn retracted_delta(
    explicit: &TripleStore,
    saturated: &TripleStore,
    removed: &[Triple],
    schema: &Schema,
    vocab: &VocabIds,
) -> Vec<Triple> {
    if removed.is_empty() {
        return Vec::new();
    }
    let mut met: FxHashSet<Triple> = removed.iter().copied().collect();
    let consequences = forward_closure(removed, schema, vocab, |t| {
        saturated.contains(t) && met.insert(t)
    });
    let support = Support::new(explicit, schema, vocab.rdf_type);
    removed
        .iter()
        .chain(&consequences)
        .copied()
        .filter(|&t| saturated.contains(t) && !support.holds(t))
        .collect()
}

/// The backward reading of the four rules against one explicit store:
/// whether some explicit triple has a given triple in its forward closure.
struct Support<'a> {
    explicit: &'a TripleStore,
    schema: &'a Schema,
    rdf_type: Id,
    spo: Arc<Vec<Triple>>,
    /// Fetched only if a range statement is ever walked.
    pos: OnceCell<Arc<Vec<Triple>>>,
}

impl<'a> Support<'a> {
    fn new(explicit: &'a TripleStore, schema: &'a Schema, rdf_type: Id) -> Self {
        Self {
            explicit,
            schema,
            rdf_type,
            spo: explicit.index(IndexOrder::Spo),
            pos: OnceCell::new(),
        }
    }

    /// `p` and every property whose triples rule 2 carries to `p`: the
    /// sub-property closure, walked downwards, never entering `rdf:type` —
    /// a type triple fires rule 1 alone, so nothing reaches a property
    /// *through* it.
    fn rule2_sources(&self, p: Id) -> Vec<Id> {
        let mut out = vec![p];
        let mut next = 0;
        while let Some(&x) = out.get(next) {
            next += 1;
            for &sub in self.schema.direct_sub_properties(x) {
                if sub != self.rdf_type && !out.contains(&sub) {
                    out.push(sub);
                }
            }
        }
        out
    }

    /// Whether the explicit store holds `(s, p1, o)` for `p` or a property
    /// rule 2 carries to `p`.
    fn carried(&self, s: Id, p: Id, o: Id) -> bool {
        self.rule2_sources(p)
            .into_iter()
            .any(|p1| self.explicit.contains([s, p1, o]))
    }

    /// Whether `x` is the subject of an explicit triple of `p` or of a
    /// property rule 2 carries to `p` — the premise of rule 3. Rules 3 and
    /// 4 never fire on a type triple.
    fn subject_of(&self, x: Id, p: Id) -> bool {
        if p == self.rdf_type {
            return false;
        }
        self.rule2_sources(p)
            .into_iter()
            .any(|p1| !prefix_range(&self.spo, IndexOrder::Spo, &[x, p1]).is_empty())
    }

    /// [`Support::subject_of`] for the object position — the premise of
    /// rule 4.
    fn object_of(&self, x: Id, p: Id) -> bool {
        if p == self.rdf_type {
            return false;
        }
        let pos = self
            .pos
            .get_or_init(|| self.explicit.index(IndexOrder::Pos));
        self.rule2_sources(p)
            .into_iter()
            .any(|p1| !prefix_range(pos, IndexOrder::Pos, &[p1, x]).is_empty())
    }

    /// Whether some explicit triple derives `t` (itself included).
    fn holds(&self, [s, p, o]: Triple) -> bool {
        if p != self.rdf_type {
            return self.carried(s, p, o);
        }
        // (s, rdf:type, o): by rule 1 from membership in o or any subclass
        // c of it; that membership is explicit, or carried by rule 2, or
        // typed by the domain (rule 3) or range (rule 4) of a property s
        // occurs with.
        let mut classes = self.schema.sub_class_closure(o);
        classes.push(o);
        classes.into_iter().any(|c| {
            let domains = self.schema.domain_properties(c);
            let ranges = self.schema.range_properties(c);
            self.carried(s, self.rdf_type, c)
                || domains.iter().any(|&p| self.subject_of(s, p))
                || ranges.iter().any(|&p| self.object_of(s, p))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaStatement;
    use rdf_model::{Dataset, Dictionary};

    struct Fixture {
        vocab: VocabIds,
        ids: std::collections::HashMap<&'static str, Id>,
    }

    fn fixture(names: &[&'static str]) -> (Dictionary, Fixture) {
        let mut dict = Dictionary::new();
        let vocab = VocabIds::intern(&mut dict);
        let ids = names.iter().map(|&n| (n, dict.intern_uri(n))).collect();
        (dict, Fixture { vocab, ids })
    }

    #[test]
    fn paper_section_4_1_example() {
        // hasPainted ⊑ hasCreated; range(hasPainted)=painting;
        // range(hasCreated)=masterpiece; painting ⊑ masterpiece ⊑ work.
        // (u, hasPainted, b) must entail (u, hasCreated, b) and
        // b : painting, masterpiece, work.
        let (mut dict, f) = fixture(&[
            "hasPainted",
            "hasCreated",
            "painting",
            "masterpiece",
            "work",
            "u",
        ]);
        let b = dict.intern_blank("b");
        let id = |n: &str| f.ids[n];
        let mut schema = Schema::new();
        schema.add(SchemaStatement::SubPropertyOf(
            id("hasPainted"),
            id("hasCreated"),
        ));
        schema.add(SchemaStatement::Range(id("hasPainted"), id("painting")));
        schema.add(SchemaStatement::Range(id("hasCreated"), id("masterpiece")));
        schema.add(SchemaStatement::SubClassOf(
            id("painting"),
            id("masterpiece"),
        ));
        schema.add(SchemaStatement::SubClassOf(id("masterpiece"), id("work")));

        let mut store = TripleStore::new();
        store.insert([id("u"), id("hasPainted"), b]);
        let stats = saturate_with_stats(&mut store, &schema, &f.vocab);

        let ty = f.vocab.rdf_type;
        assert!(store.contains([id("u"), id("hasCreated"), b]));
        assert!(store.contains([b, ty, id("painting")]));
        assert!(store.contains([b, ty, id("masterpiece")]));
        assert!(store.contains([b, ty, id("work")]));
        assert_eq!(stats.explicit, 1);
        assert_eq!(stats.implicit, 4);
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn introduction_driver_license_example() {
        // domain(driverLicenseNo) = person; the fact that John has a license
        // implies John is a person.
        let (_dict, f) = fixture(&["driverLicenseNo", "person", "john", "12345"]);
        let id = |n: &str| f.ids[n];
        let mut schema = Schema::new();
        schema.add(SchemaStatement::Domain(id("driverLicenseNo"), id("person")));
        let mut store = TripleStore::new();
        store.insert([id("john"), id("driverLicenseNo"), id("12345")]);
        saturate(&mut store, &schema, &f.vocab);
        assert!(store.contains([id("john"), f.vocab.rdf_type, id("person")]));
    }

    #[test]
    fn saturation_is_idempotent() {
        let (_dict, f) = fixture(&["p", "q", "c", "a", "b"]);
        let id = |n: &str| f.ids[n];
        let mut schema = Schema::new();
        schema.add(SchemaStatement::SubPropertyOf(id("p"), id("q")));
        schema.add(SchemaStatement::Domain(id("q"), id("c")));
        let mut store = TripleStore::new();
        store.insert([id("a"), id("p"), id("b")]);
        let first = saturate(&mut store, &schema, &f.vocab);
        assert_eq!(first, 2); // (a,q,b) and (a,type,c)
        let second = saturate(&mut store, &schema, &f.vocab);
        assert_eq!(second, 0);
    }

    #[test]
    fn saturated_copy_leaves_original() {
        let (_dict, f) = fixture(&["p", "c", "a", "b"]);
        let id = |n: &str| f.ids[n];
        let mut schema = Schema::new();
        schema.add(SchemaStatement::Range(id("p"), id("c")));
        let mut store = TripleStore::new();
        store.insert([id("a"), id("p"), id("b")]);
        let sat = saturated_copy(&store, &schema, &f.vocab);
        assert_eq!(store.len(), 1);
        assert_eq!(sat.len(), 2);
    }

    #[test]
    fn empty_schema_adds_nothing() {
        let (_dict, f) = fixture(&["p", "a", "b"]);
        let id = |n: &str| f.ids[n];
        let mut store = TripleStore::new();
        store.insert([id("a"), id("p"), id("b")]);
        assert_eq!(saturate(&mut store, &Schema::new(), &f.vocab), 0);
    }

    #[test]
    fn cyclic_schema_terminates() {
        let (_dict, f) = fixture(&["c1", "c2", "x"]);
        let id = |n: &str| f.ids[n];
        let mut schema = Schema::new();
        schema.add(SchemaStatement::SubClassOf(id("c1"), id("c2")));
        schema.add(SchemaStatement::SubClassOf(id("c2"), id("c1")));
        let mut store = TripleStore::new();
        store.insert([id("x"), f.vocab.rdf_type, id("c1")]);
        let added = saturate(&mut store, &schema, &f.vocab);
        assert_eq!(added, 1); // only (x, type, c2)
    }

    #[test]
    fn diamond_saturation_no_duplicates() {
        let (_dict, f) = fixture(&["a", "b", "c", "d", "x"]);
        let id = |n: &str| f.ids[n];
        let mut schema = Schema::new();
        schema.add(SchemaStatement::SubClassOf(id("d"), id("b")));
        schema.add(SchemaStatement::SubClassOf(id("d"), id("c")));
        schema.add(SchemaStatement::SubClassOf(id("b"), id("a")));
        schema.add(SchemaStatement::SubClassOf(id("c"), id("a")));
        let mut store = TripleStore::new();
        store.insert([id("x"), f.vocab.rdf_type, id("d")]);
        let added = saturate(&mut store, &schema, &f.vocab);
        // b, c, and a (once, despite two derivation paths).
        assert_eq!(added, 3);
    }

    #[test]
    fn domain_of_superproperty_applies_to_subproperty_triples() {
        // p1 ⊑ p2, domain(p2) = c: (s, p1, o) entails (s, type, c) through
        // the chained rules.
        let (_dict, f) = fixture(&["p1", "p2", "c", "s", "o"]);
        let id = |n: &str| f.ids[n];
        let mut schema = Schema::new();
        schema.add(SchemaStatement::SubPropertyOf(id("p1"), id("p2")));
        schema.add(SchemaStatement::Domain(id("p2"), id("c")));
        let mut store = TripleStore::new();
        store.insert([id("s"), id("p1"), id("o")]);
        saturate(&mut store, &schema, &f.vocab);
        assert!(store.contains([id("s"), f.vocab.rdf_type, id("c")]));
    }

    #[test]
    fn bound_is_linear_in_data_times_schema() {
        // |implicit| ≤ |D| × |S| for a subclass chain.
        let mut db = Dataset::new();
        let vocab = VocabIds::intern(db.dict_mut());
        let classes: Vec<Id> = (0..10)
            .map(|i| db.dict_mut().intern_uri(&format!("c{i}")))
            .collect();
        let mut schema = Schema::new();
        for w in classes.windows(2) {
            schema.add(SchemaStatement::SubClassOf(w[0], w[1]));
        }
        let instances: Vec<Id> = (0..20)
            .map(|i| db.dict_mut().intern_uri(&format!("x{i}")))
            .collect();
        for &x in &instances {
            db.store_mut().insert([x, vocab.rdf_type, classes[0]]);
        }
        let explicit = db.store().len();
        let added = saturate(db.store_mut(), &schema, &vocab);
        assert_eq!(added, instances.len() * (classes.len() - 1));
        assert!(added <= explicit * schema.len());
    }

    /// The fixpoint written the slow, obvious way — apply every rule to
    /// every triple until nothing is new — as the oracle for the worklist.
    fn naive_fixpoint(store: &TripleStore, schema: &Schema, vocab: &VocabIds) -> Vec<Triple> {
        let mut all: Vec<Triple> = store.triples().to_vec();
        loop {
            let mut derived = Vec::new();
            for &t in &all {
                derive_one(t, vocab.rdf_type, schema, &mut derived);
            }
            derived.retain(|t| !all.contains(t));
            derived.sort_unstable();
            derived.dedup();
            if derived.is_empty() {
                all.sort_unstable();
                return all;
            }
            all.extend(derived);
        }
    }

    /// Random schemas over a few classes and properties — `rdf:type`
    /// among the properties — so subclass and subproperty cycles, self
    /// loops, diamonds and domains and ranges on super-properties all
    /// occur; and random data over them.
    mod fixpoint {
        use super::*;
        use proptest::prelude::*;

        const CLASSES: u32 = 5;
        const PROPERTIES: u32 = 5;
        const RESOURCES: u32 = 6;

        fn class(i: u32) -> Id {
            Id(100 + i)
        }

        /// Property `PROPERTIES` is `rdf:type`.
        fn property(i: u32, vocab: &VocabIds) -> Id {
            if i == PROPERTIES {
                vocab.rdf_type
            } else {
                Id(200 + i)
            }
        }

        fn vocab() -> VocabIds {
            VocabIds::intern(&mut Dictionary::new())
        }

        fn schema_of(statements: &[(u32, u32, u32)], vocab: &VocabIds) -> Schema {
            let mut schema = Schema::new();
            for &(kind, a, b) in statements {
                schema.add(match kind {
                    0 => SchemaStatement::SubClassOf(class(a % CLASSES), class(b % CLASSES)),
                    1 => SchemaStatement::SubPropertyOf(property(a, vocab), property(b, vocab)),
                    2 => SchemaStatement::Domain(property(a, vocab), class(b % CLASSES)),
                    _ => SchemaStatement::Range(property(a, vocab), class(b % CLASSES)),
                });
            }
            schema
        }

        /// Subjects are resources; objects resources or classes.
        fn store_of(data: &[(u32, u32, u32)], vocab: &VocabIds) -> TripleStore {
            let mut store = TripleStore::new();
            let triples: Vec<Triple> = data
                .iter()
                .map(|&(s, p, o)| {
                    let o = if o < RESOURCES {
                        Id(300 + o)
                    } else {
                        class(o - RESOURCES)
                    };
                    [Id(300 + s), property(p, vocab), o]
                })
                .collect();
            store.insert_batch(&triples);
            store
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn saturate_is_the_naive_fixpoint(
                statements in prop::collection::vec((0u32..4, 0..=PROPERTIES, 0..=PROPERTIES), 0..14),
                data in prop::collection::vec(
                    (0..RESOURCES, 0..=PROPERTIES, 0..RESOURCES + CLASSES),
                    1..16,
                ),
            ) {
                let vocab = vocab();
                let schema = schema_of(&statements, &vocab);
                let store = store_of(&data, &vocab);
                let mut saturated = store.clone();
                let stats = saturate_with_stats(&mut saturated, &schema, &vocab);

                let explicit = store.triples();
                let (prefix, implicit) = saturated.triples().split_at(explicit.len());
                prop_assert_eq!(prefix, explicit);
                let distinct: FxHashSet<Triple> = implicit.iter().copied().collect();
                prop_assert_eq!(distinct.len(), implicit.len());
                prop_assert!(implicit.iter().all(|&t| !store.contains(t)));
                prop_assert_eq!(sorted(&saturated), naive_fixpoint(&store, &schema, &vocab));
                prop_assert_eq!(
                    stats,
                    SaturationStats {
                        explicit: explicit.len(),
                        implicit: implicit.len(),
                        processed: explicit.len() + implicit.len(),
                    }
                );
                // The general worklist derives the same triples in the
                // same order.
                prop_assert_eq!(entailed_delta(&store, explicit, &schema, &vocab), implicit);
            }
        }
    }

    fn sorted(store: &TripleStore) -> Vec<Triple> {
        store.index(IndexOrder::Spo).to_vec()
    }

    /// The Section 4.1 schema plus a domain, over three painters.
    fn section_4_1() -> (Fixture, Schema, TripleStore) {
        let (mut dict, f) = fixture(&[
            "hasPainted",
            "hasCreated",
            "painting",
            "masterpiece",
            "work",
            "artist",
            "u",
            "v",
        ]);
        let id = |n: &str| f.ids[n];
        let mut schema = Schema::new();
        schema.add(SchemaStatement::SubPropertyOf(
            id("hasPainted"),
            id("hasCreated"),
        ));
        schema.add(SchemaStatement::Range(id("hasPainted"), id("painting")));
        schema.add(SchemaStatement::Range(id("hasCreated"), id("masterpiece")));
        schema.add(SchemaStatement::Domain(id("hasCreated"), id("artist")));
        schema.add(SchemaStatement::SubClassOf(
            id("painting"),
            id("masterpiece"),
        ));
        schema.add(SchemaStatement::SubClassOf(id("masterpiece"), id("work")));
        let mut store = TripleStore::new();
        let (b, c) = (dict.intern_blank("b"), dict.intern_blank("c"));
        store.insert([id("u"), id("hasPainted"), b]);
        store.insert([id("v"), id("hasCreated"), b]);
        store.insert([id("v"), id("hasCreated"), c]);
        store.insert([c, f.vocab.rdf_type, id("painting")]);
        (f, schema, store)
    }

    #[test]
    fn delta_worklist_seeded_with_everything_equals_the_full_fixpoint_on_section_4_1() {
        let (f, schema, store) = section_4_1();
        let oracle = naive_fixpoint(&store, &schema, &f.vocab);
        let implicit = entailed_delta(&store, store.triples(), &schema, &f.vocab);
        // Not inserted, each once, none of them a seed.
        assert_eq!(store.len(), 4);
        let distinct: FxHashSet<Triple> = implicit.iter().copied().collect();
        assert_eq!(distinct.len(), implicit.len());
        assert!(implicit.iter().all(|&t| !store.contains(t)));
        let mut all: Vec<Triple> = store.triples().iter().chain(&implicit).copied().collect();
        all.sort_unstable();
        assert_eq!(all, oracle);
        // saturate() is that list applied as one batch, in that order.
        let mut saturated = store.clone();
        let v0 = saturated.version();
        assert_eq!(saturate(&mut saturated, &schema, &f.vocab), implicit.len());
        assert_eq!(saturated.version(), v0 + 1, "one write");
        assert_eq!(&saturated.triples()[..4], store.triples());
        assert_eq!(&saturated.triples()[4..], &implicit[..]);
    }

    #[test]
    fn a_batch_delta_is_what_saturating_the_grown_store_adds() {
        let (f, schema, store) = section_4_1();
        let id = |n: &str| f.ids[n];
        let saturated = saturated_copy(&store, &schema, &f.vocab);
        let ty = f.vocab.rdf_type;
        // A new painter; a triple whose only consequence is the other seed;
        // a triple the store already entails (no seed of an insertion is
        // in the store, but the worklist does not rely on that).
        let seeds = [
            [id("v"), id("hasPainted"), id("u")],
            [id("v"), id("hasCreated"), id("u")],
            [id("u"), ty, id("artist")],
        ];
        let delta = entailed_delta(&saturated, &seeds, &schema, &f.vocab);
        let mut expect = store.clone();
        expect.insert_batch(&seeds);
        let expect = saturated_copy(&expect, &schema, &f.vocab);
        let mut got = saturated.clone();
        got.insert_batch(&seeds);
        assert_eq!(got.insert_batch(&delta), delta, "all new, each once");
        assert_eq!(sorted(&got), sorted(&expect));
        // (u, type, painting), (u, type, masterpiece), (u, type, work).
        assert_eq!(delta.len(), 3);
    }

    /// `explicit` after the removal against the saturation before it: what
    /// `retracted_delta` names must be exactly what re-saturating loses.
    fn assert_retraction_is_exact(
        before: &TripleStore,
        removed: &[Triple],
        schema: &Schema,
        vocab: &VocabIds,
    ) -> Vec<Triple> {
        let saturated = saturated_copy(before, schema, vocab);
        let mut explicit = before.clone();
        let removed = explicit.remove_batch(removed);
        let mut lost = retracted_delta(&explicit, &saturated, &removed, schema, vocab);
        let still = saturated_copy(&explicit, schema, vocab);
        let mut expect: Vec<Triple> = saturated
            .triples()
            .iter()
            .copied()
            .filter(|&t| !still.contains(t))
            .collect();
        expect.sort_unstable();
        lost.sort_unstable();
        assert_eq!(lost, expect);
        lost
    }

    #[test]
    fn deleting_an_explicit_triple_that_is_still_entailed_keeps_it() {
        let (f, schema, mut store) = section_4_1();
        let id = |n: &str| f.ids[n];
        let b = store.triples()[0][2];
        // (u, hasCreated, b) is explicit *and* follows from (u, hasPainted, b).
        store.insert([id("u"), id("hasCreated"), b]);
        let lost = assert_retraction_is_exact(
            &store,
            &[[id("u"), id("hasCreated"), b]],
            &schema,
            &f.vocab,
        );
        assert!(lost.is_empty(), "still entailed: {lost:?}");
    }

    #[test]
    fn deleting_one_of_two_derivations_of_a_type_keeps_it_and_both_retracts_it() {
        let (f, schema, store) = section_4_1();
        let id = |n: &str| f.ids[n];
        let ty = f.vocab.rdf_type;
        let c = store.triples()[2][2];
        // (c, type, masterpiece) has two derivations: the range of
        // (v, hasCreated, c) and the explicit subclass membership
        // (c, type, painting).
        let by_range = [id("v"), id("hasCreated"), c];
        let by_subclass = [c, ty, id("painting")];
        let lost = assert_retraction_is_exact(&store, &[by_range], &schema, &f.vocab);
        assert_eq!(lost, [by_range], "the type survives through the subclass");
        let lost = assert_retraction_is_exact(&store, &[by_subclass], &schema, &f.vocab);
        assert_eq!(lost, [by_subclass], "the type survives through the range");
        let lost = assert_retraction_is_exact(&store, &[by_range, by_subclass], &schema, &f.vocab);
        assert!(lost.contains(&[c, ty, id("masterpiece")]));
        assert!(lost.contains(&[c, ty, id("work")]));
        // v stays an artist through (v, hasCreated, b).
        assert!(!lost.contains(&[id("v"), ty, id("artist")]));
        assert_eq!(lost.len(), 4);
    }

    #[test]
    fn retraction_is_exact_for_every_subset_of_the_example() {
        let (f, schema, store) = section_4_1();
        for mask in 0u32..16 {
            let removed: Vec<Triple> = store
                .triples()
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &t)| t)
                .collect();
            assert_retraction_is_exact(&store, &removed, &schema, &f.vocab);
        }
    }

    #[test]
    fn rules_never_recurse_through_rdf_type_in_either_direction() {
        // `isA ⊑ rdf:type ⊑ related`, domain(rdf:type) = thing: rule 2
        // carries an `isA` triple to a type triple, which then fires rule
        // 1 only — it is neither carried on to `related` nor typed by the
        // domain of `rdf:type`. The backward walk must agree.
        let (_dict, f) = fixture(&["isA", "related", "cat", "animal", "thing", "tom"]);
        let id = |n: &str| f.ids[n];
        let ty = f.vocab.rdf_type;
        let mut schema = Schema::new();
        schema.add(SchemaStatement::SubPropertyOf(id("isA"), ty));
        schema.add(SchemaStatement::SubPropertyOf(ty, id("related")));
        schema.add(SchemaStatement::Domain(ty, id("thing")));
        schema.add(SchemaStatement::SubClassOf(id("cat"), id("animal")));
        let mut store = TripleStore::new();
        store.insert([id("tom"), id("isA"), id("cat")]);
        store.insert([id("tom"), ty, id("animal")]);
        store.insert([id("tom"), id("related"), id("cat")]);
        let saturated = saturated_copy(&store, &schema, &f.vocab);
        assert_eq!(
            sorted(&saturated),
            naive_fixpoint(&store, &schema, &f.vocab)
        );
        assert!(saturated.contains([id("tom"), ty, id("cat")]));
        assert!(!saturated.contains([id("tom"), ty, id("thing")]));
        assert_eq!(saturated.len(), 4);
        for mask in 0u32..8 {
            let removed: Vec<Triple> = store
                .triples()
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &t)| t)
                .collect();
            assert_retraction_is_exact(&store, &removed, &schema, &f.vocab);
        }
    }
}
