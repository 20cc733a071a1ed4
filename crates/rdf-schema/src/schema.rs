//! RDFS schema statements and closure queries.

use std::collections::BTreeSet;

use rdf_model::{Dataset, FxHashMap, FxHashSet, Id};

use crate::VocabIds;

/// The kind of a schema statement (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StatementKind {
    /// `c1 rdfs:subClassOf c2`
    SubClassOf,
    /// `p1 rdfs:subPropertyOf p2`
    SubPropertyOf,
    /// `p rdfs:domain c`
    Domain,
    /// `p rdfs:range c`
    Range,
}

/// One RDFS statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemaStatement {
    /// `∀X (c1(X) ⇒ c2(X))`
    SubClassOf(Id, Id),
    /// `∀X∀Y (p1(X,Y) ⇒ p2(X,Y))`
    SubPropertyOf(Id, Id),
    /// `∀X∀Y (p(X,Y) ⇒ c(X))`
    Domain(Id, Id),
    /// `∀X∀Y (p(X,Y) ⇒ c(Y))`
    Range(Id, Id),
}

impl SchemaStatement {
    /// The statement's kind tag.
    pub fn kind(&self) -> StatementKind {
        match self {
            SchemaStatement::SubClassOf(..) => StatementKind::SubClassOf,
            SchemaStatement::SubPropertyOf(..) => StatementKind::SubPropertyOf,
            SchemaStatement::Domain(..) => StatementKind::Domain,
            SchemaStatement::Range(..) => StatementKind::Range,
        }
    }

    /// The two ids of the statement as a pair.
    pub fn pair(&self) -> (Id, Id) {
        match *self {
            SchemaStatement::SubClassOf(a, b)
            | SchemaStatement::SubPropertyOf(a, b)
            | SchemaStatement::Domain(a, b)
            | SchemaStatement::Range(a, b) => (a, b),
        }
    }
}

/// An RDF Schema: a set of statements with adjacency maps in both
/// directions, sized for the fixpoint algorithms that consume it.
///
/// `|S|` in the paper's Theorem 4.1 is [`Schema::len`].
#[derive(Debug, Default, Clone)]
pub struct Schema {
    statements: Vec<SchemaStatement>,
    seen: FxHashSet<SchemaStatement>,
    // c2 -> direct subclasses c1 (c1 ⊑ c2 ∈ S); reformulation rule 1 walks this.
    sub_classes_of: FxHashMap<Id, Vec<Id>>,
    // c1 -> direct superclasses c2; saturation walks this.
    super_classes_of: FxHashMap<Id, Vec<Id>>,
    sub_props_of: FxHashMap<Id, Vec<Id>>,
    super_props_of: FxHashMap<Id, Vec<Id>>,
    // p -> [c : p domain c]
    domains_of: FxHashMap<Id, Vec<Id>>,
    // c -> [p : p domain c]; reformulation rule 3 walks this.
    domain_props_of: FxHashMap<Id, Vec<Id>>,
    ranges_of: FxHashMap<Id, Vec<Id>>,
    range_props_of: FxHashMap<Id, Vec<Id>>,
    classes: BTreeSet<Id>,
    properties: BTreeSet<Id>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a statement; duplicates are ignored. Returns `true` if new.
    pub fn add(&mut self, stmt: SchemaStatement) -> bool {
        if !self.seen.insert(stmt) {
            return false;
        }
        self.statements.push(stmt);
        match stmt {
            SchemaStatement::SubClassOf(c1, c2) => {
                self.sub_classes_of.entry(c2).or_default().push(c1);
                self.super_classes_of.entry(c1).or_default().push(c2);
                self.classes.insert(c1);
                self.classes.insert(c2);
            }
            SchemaStatement::SubPropertyOf(p1, p2) => {
                self.sub_props_of.entry(p2).or_default().push(p1);
                self.super_props_of.entry(p1).or_default().push(p2);
                self.properties.insert(p1);
                self.properties.insert(p2);
            }
            SchemaStatement::Domain(p, c) => {
                self.domains_of.entry(p).or_default().push(c);
                self.domain_props_of.entry(c).or_default().push(p);
                self.properties.insert(p);
                self.classes.insert(c);
            }
            SchemaStatement::Range(p, c) => {
                self.ranges_of.entry(p).or_default().push(c);
                self.range_props_of.entry(c).or_default().push(p);
                self.properties.insert(p);
                self.classes.insert(c);
            }
        }
        true
    }

    /// Number of statements — `|S|` in Theorem 4.1.
    pub fn len(&self) -> usize {
        self.statements.len()
    }

    /// Whether the schema has no statements.
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// All statements, in insertion order.
    pub fn statements(&self) -> &[SchemaStatement] {
        &self.statements
    }

    /// All classes mentioned by the schema (rule 5 of Figure 2 iterates
    /// these).
    pub fn classes(&self) -> impl Iterator<Item = Id> + '_ {
        self.classes.iter().copied()
    }

    /// All properties mentioned by the schema (rule 6 of Figure 2).
    pub fn properties(&self) -> impl Iterator<Item = Id> + '_ {
        self.properties.iter().copied()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Direct subclasses `c1` with `c1 ⊑ c ∈ S`.
    pub fn direct_sub_classes(&self, c: Id) -> &[Id] {
        self.sub_classes_of.get(&c).map_or(&[], Vec::as_slice)
    }

    /// Direct superclasses `c2` with `c ⊑ c2 ∈ S`.
    pub fn direct_super_classes(&self, c: Id) -> &[Id] {
        self.super_classes_of.get(&c).map_or(&[], Vec::as_slice)
    }

    /// Direct subproperties of `p`.
    pub fn direct_sub_properties(&self, p: Id) -> &[Id] {
        self.sub_props_of.get(&p).map_or(&[], Vec::as_slice)
    }

    /// Direct superproperties of `p`.
    pub fn direct_super_properties(&self, p: Id) -> &[Id] {
        self.super_props_of.get(&p).map_or(&[], Vec::as_slice)
    }

    /// Classes `c` with `p rdfs:domain c ∈ S`.
    pub fn domains(&self, p: Id) -> &[Id] {
        self.domains_of.get(&p).map_or(&[], Vec::as_slice)
    }

    /// Classes `c` with `p rdfs:range c ∈ S`.
    pub fn ranges(&self, p: Id) -> &[Id] {
        self.ranges_of.get(&p).map_or(&[], Vec::as_slice)
    }

    /// Properties `p` with `p rdfs:domain c ∈ S` (rule 3 walks this).
    pub fn domain_properties(&self, c: Id) -> &[Id] {
        self.domain_props_of.get(&c).map_or(&[], Vec::as_slice)
    }

    /// Properties `p` with `p rdfs:range c ∈ S` (rule 4 walks this).
    pub fn range_properties(&self, c: Id) -> &[Id] {
        self.range_props_of.get(&c).map_or(&[], Vec::as_slice)
    }

    /// Transitive (non-reflexive) subclass closure of `c`.
    pub fn sub_class_closure(&self, c: Id) -> Vec<Id> {
        closure(c, |x| self.direct_sub_classes(x))
    }

    /// Extracts the schema encoded in a dataset's triples (statements using
    /// the four RDFS properties), ignoring everything else.
    pub fn from_dataset(db: &Dataset) -> Self {
        let mut schema = Schema::new();
        let Some(vocab) = VocabIds::lookup(db.dict()) else {
            return schema;
        };
        for &[s, p, o] in db.store().triples() {
            let stmt = if p == vocab.sub_class_of {
                SchemaStatement::SubClassOf(s, o)
            } else if p == vocab.sub_property_of {
                SchemaStatement::SubPropertyOf(s, o)
            } else if p == vocab.domain {
                SchemaStatement::Domain(s, o)
            } else if p == vocab.range {
                SchemaStatement::Range(s, o)
            } else {
                continue;
            };
            schema.add(stmt);
        }
        schema
    }

    /// Writes the schema statements as triples into a dataset (the inverse
    /// of [`Schema::from_dataset`]).
    pub fn add_to_dataset(&self, db: &mut Dataset) {
        let vocab = VocabIds::intern(db.dict_mut());
        for stmt in &self.statements {
            let (a, b) = stmt.pair();
            let p = match stmt.kind() {
                StatementKind::SubClassOf => vocab.sub_class_of,
                StatementKind::SubPropertyOf => vocab.sub_property_of,
                StatementKind::Domain => vocab.domain,
                StatementKind::Range => vocab.range,
            };
            db.store_mut().insert([a, p, b]);
        }
    }
}

/// BFS transitive closure over a successor function; tolerates cycles.
fn closure<'a>(start: Id, succ: impl Fn(Id) -> &'a [Id]) -> Vec<Id> {
    let mut out = Vec::new();
    let mut seen = FxHashSet::default();
    seen.insert(start);
    let mut stack = vec![start];
    while let Some(x) = stack.pop() {
        for &nxt in succ(x) {
            if seen.insert(nxt) {
                out.push(nxt);
                stack.push(nxt);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<Id> {
        (0..n).map(Id).collect()
    }

    #[test]
    fn duplicate_statements_ignored() {
        let v = ids(2);
        let mut s = Schema::new();
        assert!(s.add(SchemaStatement::SubClassOf(v[0], v[1])));
        assert!(!s.add(SchemaStatement::SubClassOf(v[0], v[1])));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn closure_chains() {
        // painting ⊑ masterpiece ⊑ work (the paper's Section 4.1 example)
        let v = ids(3);
        let mut s = Schema::new();
        s.add(SchemaStatement::SubClassOf(v[0], v[1]));
        s.add(SchemaStatement::SubClassOf(v[1], v[2]));
        let mut down = s.sub_class_closure(v[2]);
        down.sort_unstable();
        assert_eq!(down, vec![v[0], v[1]]);
        assert!(s.sub_class_closure(v[0]).is_empty());
    }

    #[test]
    fn diamond_hierarchy_closure() {
        // d ⊑ b, d ⊑ c, b ⊑ a, c ⊑ a: the closure of a is {b, c, d}, with
        // d appearing once despite the two paths.
        let v = ids(4);
        let (a, b, c, d) = (v[0], v[1], v[2], v[3]);
        let mut s = Schema::new();
        s.add(SchemaStatement::SubClassOf(d, b));
        s.add(SchemaStatement::SubClassOf(d, c));
        s.add(SchemaStatement::SubClassOf(b, a));
        s.add(SchemaStatement::SubClassOf(c, a));
        let mut down = s.sub_class_closure(a);
        down.sort_unstable();
        assert_eq!(down, vec![b, c, d]);
    }

    #[test]
    fn multiple_domains_and_ranges() {
        // RDF allows several domain/range statements for one property.
        let v = ids(3);
        let mut s = Schema::new();
        s.add(SchemaStatement::Domain(v[0], v[1]));
        s.add(SchemaStatement::Domain(v[0], v[2]));
        assert_eq!(s.domains(v[0]), &[v[1], v[2]]);
        assert_eq!(s.domain_properties(v[1]), &[v[0]]);
        assert_eq!(s.domain_properties(v[2]), &[v[0]]);
    }

    #[test]
    fn closure_tolerates_cycles() {
        let v = ids(2);
        let mut s = Schema::new();
        s.add(SchemaStatement::SubClassOf(v[0], v[1]));
        s.add(SchemaStatement::SubClassOf(v[1], v[0]));
        let down = s.sub_class_closure(v[0]);
        assert_eq!(down, vec![v[1]]); // v0 itself excluded (non-reflexive)
    }

    #[test]
    fn classes_and_properties_registration() {
        let v = ids(4);
        let mut s = Schema::new();
        s.add(SchemaStatement::Domain(v[0], v[1]));
        s.add(SchemaStatement::Range(v[0], v[2]));
        s.add(SchemaStatement::SubPropertyOf(v[3], v[0]));
        let classes: Vec<Id> = s.classes().collect();
        assert_eq!(classes, vec![v[1], v[2]]);
        let props: Vec<Id> = s.properties().collect();
        assert_eq!(props, vec![v[0], v[3]]);
        assert_eq!(s.domain_properties(v[1]), &[v[0]]);
        assert_eq!(s.range_properties(v[2]), &[v[0]]);
    }

    #[test]
    fn dataset_roundtrip() {
        use rdf_model::Term;
        let mut db = Dataset::new();
        let _vocab = VocabIds::intern(db.dict_mut());
        let a = db.dict_mut().intern(Term::uri("ex:a"));
        let b = db.dict_mut().intern(Term::uri("ex:b"));
        let p = db.dict_mut().intern(Term::uri("ex:p"));
        let mut s = Schema::new();
        s.add(SchemaStatement::SubClassOf(a, b));
        s.add(SchemaStatement::Domain(p, a));
        s.add_to_dataset(&mut db);
        assert_eq!(db.len(), 2);
        let s2 = Schema::from_dataset(&db);
        assert_eq!(s2.len(), 2);
        assert_eq!(s2.direct_super_classes(a), &[b]);
        assert_eq!(s2.domains(p), &[a]);
    }

    #[test]
    fn from_dataset_without_vocab_is_empty() {
        let mut db = Dataset::new();
        db.insert_terms(
            rdf_model::Term::uri("ex:s"),
            rdf_model::Term::uri("ex:p"),
            rdf_model::Term::uri("ex:o"),
        );
        assert!(Schema::from_dataset(&db).is_empty());
    }
}
