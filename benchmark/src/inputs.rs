//! Input generation: everything a run feeds the library, made from the
//! seed alone.
//!
//! The generators (`generate_barton`, `generate_satisfiable`) run on the
//! harness's side of the fence. What crosses to the library is **text** —
//! N-Triples for the data, the schema and the update feed, Datalog lines
//! for the queries — loaded through the library's own parsers, so the
//! load path is part of what `setup_s` times and the library's ids are
//! whatever its dictionary assigns.
//!
//! Seed robustness: the raw generators have cliffs (a query with a
//! hundred-thousand-row answer, a reformulation with hundreds of
//! branches) that would make one seed's run minutes long. Candidates are
//! therefore drawn 4× over and admitted by two *count-based* tests (see
//! [`Admission`]); the first `Q` admitted, in generation order, are the
//! workload. Nothing here looks at a clock, so the same seed always gives
//! byte-identical inputs — [`Inputs::hash`] is printed to prove it.

use rdfviews::advisor::parse_workload_queries;
use rdfviews::engine::{evaluate, Answers};
use rdfviews::model::{ntriples, Dataset, FxHashMap, Triple, TripleStore};
use rdfviews::query::display::query_to_string;
use rdfviews::query::{ConjunctiveQuery, QTerm, Var};
use rdfviews::reform::reformulate;
use rdfviews::schema::{saturated_copy, Schema, VocabIds};
use rdfviews::workload::{
    generate_barton, generate_satisfiable, BartonSpec, SatisfiableSpec, Shape,
};

use std::time::Instant;

use crate::workloads::{Workload, BATCH_TRIPLES};

/// Atoms per generated query. Six-atom queries are a known cliff (some
/// seeds materialise for minutes); see the README.
pub const QUERY_ATOMS: usize = 4;
/// `SatisfiableSpec::object_const_prob` for every workload.
pub const OBJECT_CONST_PROB: f64 = 0.15;
/// Candidates drawn per admitted query.
const OVERDRAW: usize = 4;
/// Ad-hoc selection variants derived per workload query.
const ADHOC_PER_QUERY: usize = 4;
/// Share of reads that are ad-hoc, in percent.
const ADHOC_READ_PCT: usize = 20;
/// Length of the cyclic read plan of the concurrent workload.
const CONCURRENT_PLAN: usize = 4000;

/// The count-based admission filter for generated queries.
#[derive(Debug, Clone, Copy)]
pub struct Admission {
    pub min_answers: usize,
    pub max_answers: usize,
    pub max_branches: usize,
}

impl Admission {
    pub const DEFAULT: Admission = Admission {
        min_answers: 1,
        max_answers: 5_000,
        max_branches: 64,
    };

    fn admits(&self, answers: usize, branches: usize) -> bool {
        (self.min_answers..=self.max_answers).contains(&answers) && branches <= self.max_branches
    }
}

/// One read of the serving phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReadOp {
    /// `snapshot.answer(i)`: a tuned workload query, by index.
    Workload(usize),
    /// `snapshot.answer_adhoc(&adhoc[j])`: a query the tuner never saw.
    Adhoc(usize),
}

/// One batch of the update feed.
#[derive(Debug, Clone)]
pub struct Batch {
    pub insert: bool,
    pub triples: Vec<Triple>,
}

/// The oracle's answers at one database state: `saturated_copy` of the
/// explicit triples, then `engine::evaluate` — Theorem 4.2's right-hand
/// side, which every reasoning mode must reproduce.
#[derive(Debug, Clone)]
pub struct Expected {
    pub workload: Vec<Answers>,
    pub adhoc: Vec<Answers>,
}

impl Expected {
    fn of(sat: &TripleStore, workload: &[ConjunctiveQuery], adhoc: &[ConjunctiveQuery]) -> Self {
        Expected {
            workload: workload.iter().map(|q| evaluate(sat, q)).collect(),
            adhoc: adhoc.iter().map(|q| evaluate(sat, q)).collect(),
        }
    }

    pub fn for_op(&self, op: ReadOp) -> &Answers {
        match op {
            ReadOp::Workload(i) => &self.workload[i],
            ReadOp::Adhoc(j) => &self.adhoc[j],
        }
    }
}

/// The texts that cross from the generators to the library.
#[derive(Debug, Clone)]
pub struct Texts {
    pub data_nt: String,
    pub schema_nt: String,
    pub feed_nt: String,
    pub candidates_rq: String,
}

/// Everything one run needs, in the library's ids.
#[derive(Debug)]
pub struct Inputs {
    pub db: Dataset,
    pub schema: Schema,
    pub vocab: VocabIds,
    pub workload: Vec<ConjunctiveQuery>,
    pub adhoc: Vec<ConjunctiveQuery>,
    pub reads: Vec<ReadOp>,
    pub feed: Vec<Batch>,
    /// Oracle answers before the feed and after all of it.
    pub expect_base: Expected,
    pub expect_fed: Expected,
    /// Explicit triples alive after the whole feed: the denominator of
    /// `bytes_per_triple`.
    pub live_explicit: usize,
    /// Implicit triples per explicit triple in the base data.
    pub implicit_ratio: f64,
    /// Candidates examined / admitted by the filter.
    pub candidates_seen: usize,
    /// FNV-1a over every generated text, the ad-hoc variants and the read
    /// plan.
    pub hash: u64,
    pub texts: Texts,
    /// Seconds each stage of this set-up took, in order.
    pub stages: Vec<(&'static str, f64)>,
}

/// Splits a set-up into its stages: every `lap` closes the stage that ran
/// since the one before. `setup_s` is the sum over stages of each stage's
/// fastest repeat, so a set-up needs no repeat that ran clean from end to
/// end, only a clean repeat of each stage.
#[derive(Debug)]
pub struct Laps {
    last: Instant,
    stages: Vec<(&'static str, f64)>,
}

impl Laps {
    pub fn starting(at: Instant) -> Laps {
        Laps {
            last: at,
            stages: Vec::new(),
        }
    }

    fn lap(&mut self, stage: &'static str) {
        let now = Instant::now();
        self.stages.push((stage, (now - self.last).as_secs_f64()));
        self.last = now;
    }
}

/// SplitMix64: the harness's own deterministic generator (the benchmark
/// package depends on nothing but the library).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// FNV-1a, 64 bit: fingerprints inputs and answers without leaning on the
/// library's own hasher.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fingerprint of an answer set (tuples are sorted, so equal sets hash
/// equal).
pub fn answers_hash(a: &Answers) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &(a.arity() as u32).to_le_bytes());
    for tuple in a.tuples() {
        for id in tuple {
            h = fnv1a(h, &id.0.to_le_bytes());
        }
    }
    h
}

/// Generator side: the texts for `(workload, seed)`.
///
/// The **reference draw** (constant seed, part of the workload's
/// definition) is the application and its database: the RDFS, the base
/// triples and the query log grown from them. `--seed` drives what
/// *arrives*: which triples the update feed brings and in which order,
/// which constants the ad-hoc queries select on, and the order of reads.
///
/// Why the base data and the queries do not follow `--seed`: Barton
/// draws are Zipf-skewed, so the size of a join through a popular
/// resource — and with it materialisation time and the read tail —
/// moves by tens of percent from draw to draw (measured: `deploy_s`
/// spread 46 %, `read_p99_us` 39 % over six seeds). A benchmark whose
/// numbers move that much with the seed cannot tell a 10 % regression
/// from a change of seed.
pub fn generate_texts(w: &Workload, seed: u64, laps: &mut Laps) -> Texts {
    let spec = |seed| BartonSpec {
        resources: w.resources,
        triples: w.triples,
        seed,
        ..BartonSpec::default()
    };
    let reference = generate_barton(&spec(w.reference_seed));

    let mut data_nt = Vec::new();
    ntriples::write_dataset(&reference.db, &mut data_nt).expect("write to memory");

    let mut tbox = Dataset::from_parts(reference.db.dict().clone(), TripleStore::new());
    reference.schema.add_to_dataset(&mut tbox);
    let mut schema_nt = Vec::new();
    ntriples::write_dataset(&tbox, &mut schema_nt).expect("write to memory");
    laps.lap("generate.reference");

    let candidates = generate_satisfiable(
        &reference.db,
        &SatisfiableSpec {
            queries: w.queries * OVERDRAW,
            atoms: QUERY_ATOMS,
            shape: Shape::Mixed,
            object_const_prob: OBJECT_CONST_PROB,
            seed: w.reference_seed,
        },
    );
    let candidates_rq: String = candidates
        .iter()
        .enumerate()
        .map(|(i, q)| query_to_string(&format!("c{i}"), q, reference.db.dict()) + "\n")
        .collect();
    laps.lap("generate.queries");

    // The feed: triples of a second, seeded Barton draw that the base
    // lacks, shuffled so type and property triples mix, cut to what a
    // round inserts. Terms travel as strings, so nothing depends on the
    // two draws interning in the same order.
    let other = generate_barton(&spec(seed ^ 0xfeed));
    let in_base = |t: Triple| {
        let (s, p, o) = other.db.decode(t);
        let dict = reference.db.dict();
        match (dict.lookup(s), dict.lookup(p), dict.lookup(o)) {
            (Some(s), Some(p), Some(o)) => reference.db.store().contains([s, p, o]),
            _ => false,
        }
    };
    let mut fresh: Vec<Triple> = other
        .db
        .store()
        .triples()
        .iter()
        .copied()
        .filter(|&t| !in_base(t))
        .collect();
    let mut rng = Rng::new(seed ^ 0x5eed_feed);
    for i in (1..fresh.len()).rev() {
        fresh.swap(i, rng.below(i + 1));
    }
    fresh.truncate(w.insert_batches * BATCH_TRIPLES);
    let mut feed_store = TripleStore::new();
    feed_store.extend(fresh);
    let feed_db = Dataset::from_parts(other.db.dict().clone(), feed_store);
    let mut feed_nt = Vec::new();
    ntriples::write_dataset(&feed_db, &mut feed_nt).expect("write to memory");

    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("the writer emits UTF-8");
    let texts = Texts {
        data_nt: text(data_nt),
        schema_nt: text(schema_nt),
        feed_nt: text(feed_nt),
        candidates_rq,
    };
    laps.lap("generate.feed");
    texts
}

/// Parses N-Triples `text` with the library's reader into a side store
/// that shares (and grows) `db`'s dictionary, and hands the side dataset
/// to `read`. The data store itself is untouched: the schema and the feed
/// must not become base triples.
fn parse_alongside<T>(
    db: &mut Dataset,
    text: &str,
    read: impl FnOnce(&Dataset) -> T,
) -> Result<T, String> {
    let (dict, store) = std::mem::take(db).into_parts();
    let mut side = Dataset::from_parts(dict, TripleStore::new());
    let parsed = ntriples::read_into(&mut side, text.as_bytes());
    let out = read(&side);
    *db = Dataset::from_parts(side.into_parts().0, store);
    parsed.map_err(|e| e.to_string())?;
    Ok(out)
}

/// The feed schedule: insert batches in order, and after every second
/// insert delete the *first* of that pair again. Deletes therefore always
/// hit explicit, present triples, and half the inserted data stays.
pub fn schedule_feed(triples: &[Triple]) -> Vec<Batch> {
    let inserts: Vec<&[Triple]> = triples.chunks(BATCH_TRIPLES).collect();
    let mut feed = Vec::with_capacity(inserts.len() * 3 / 2);
    for (i, chunk) in inserts.iter().enumerate() {
        feed.push(Batch {
            insert: true,
            triples: chunk.to_vec(),
        });
        if i % 2 == 1 {
            feed.push(Batch {
                insert: false,
                triples: inserts[i - 1].to_vec(),
            });
        }
    }
    feed
}

/// The read plan: a stratified mix in seeded order. Every block of `5 Q`
/// reads holds each of the `Q` workload queries four times and `Q` ad-hoc
/// variants (taken round-robin from their pool), so the 80/20 mix and the
/// share of every query are the same for every seed; the seed only
/// shuffles the order. (A plan drawn read by read has a binomial mix, and
/// a percentile that falls between two queries' latency clusters then
/// jumps from seed to seed: `read_p50_us` spread 55 % on 1000 reads.)
pub fn read_plan(queries: usize, adhoc: usize, len: usize, rng: &mut Rng) -> Vec<ReadOp> {
    let mut next_adhoc = 0;
    let mut plan = Vec::with_capacity(len + 5 * queries);
    while plan.len() < len {
        for i in 0..queries {
            plan.extend([ReadOp::Workload(i); 100 / ADHOC_READ_PCT - 1]);
            if adhoc > 0 {
                plan.push(ReadOp::Adhoc(next_adhoc % adhoc));
                next_adhoc += 1;
            }
        }
    }
    plan.truncate(len);
    for i in (1..plan.len()).rev() {
        plan.swap(i, rng.below(i + 1));
    }
    plan
}

/// An ad-hoc selection variant of `q`: one head variable bound to a value
/// it takes in `answers` (so the variant is satisfiable by construction).
fn selection_variant(q: &ConjunctiveQuery, answers: &Answers, rng: &mut Rng) -> ConjunctiveQuery {
    let row = &answers.tuples()[rng.below(answers.len())];
    let vars: Vec<(usize, Var)> = q
        .head
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.as_var().map(|v| (i, v)))
        .collect();
    let (pos, var) = vars[rng.below(vars.len())];
    let mut map: FxHashMap<Var, QTerm> = FxHashMap::default();
    map.insert(var, QTerm::Const(row[pos]));
    q.substitute(&map)
}

/// Library side: loads the texts, admits the workload, derives the ad-hoc
/// variants, the read plan and the feed schedule, and builds the oracle.
pub fn load(
    w: &Workload,
    seed: u64,
    texts: Texts,
    admission: Admission,
    mut laps: Laps,
) -> Result<Inputs, String> {
    let mut db = ntriples::parse_dataset(&texts.data_nt).map_err(|e| e.to_string())?;
    let vocab = VocabIds::intern(db.dict_mut());

    let schema = parse_alongside(&mut db, &texts.schema_nt, Schema::from_dataset)?;
    let feed_triples = parse_alongside(&mut db, &texts.feed_nt, |side| {
        side.store().triples().to_vec()
    })?;
    let candidates =
        parse_workload_queries(&texts.candidates_rq, db.dict_mut()).map_err(|e| e.to_string())?;
    laps.lap("load.parse");

    let sat = saturated_copy(db.store(), &schema, &vocab);
    let implicit_ratio = (sat.len() - db.len()) as f64 / db.len() as f64;

    let mut workload: Vec<ConjunctiveQuery> = Vec::with_capacity(w.queries);
    let mut base_answers: Vec<Answers> = Vec::with_capacity(w.queries);
    let mut candidates_seen = 0;
    for q in &candidates {
        if workload.len() == w.queries {
            break;
        }
        candidates_seen += 1;
        if workload.contains(q) {
            continue;
        }
        let answers = evaluate(&sat, q);
        let branches = reformulate(q, &schema, &vocab).len();
        if admission.admits(answers.len(), branches) {
            workload.push(q.clone());
            base_answers.push(answers);
        }
    }
    if workload.len() < w.queries {
        return Err(format!(
            "seed {seed}: only {} of {} candidate queries pass the admission filter \
             ({admission:?}); {} are needed",
            workload.len(),
            candidates.len(),
            w.queries
        ));
    }

    let mut rng = Rng::new(seed ^ 0xad_0c);
    let mut adhoc: Vec<ConjunctiveQuery> = Vec::new();
    for (q, answers) in workload.iter().zip(&base_answers) {
        for _ in 0..ADHOC_PER_QUERY {
            let variant = selection_variant(q, answers, &mut rng);
            let branches = reformulate(&variant, &schema, &vocab).len();
            if branches <= admission.max_branches && !adhoc.contains(&variant) {
                adhoc.push(variant);
            }
        }
    }

    let plan_len = if w.concurrent {
        CONCURRENT_PLAN
    } else {
        w.reads
    };
    let reads = read_plan(workload.len(), adhoc.len(), plan_len, &mut rng);
    laps.lap("load.admit");

    let feed = schedule_feed(&feed_triples);
    let mut fed = db.store().clone();
    for batch in &feed {
        if batch.insert {
            fed.insert_batch(&batch.triples);
        } else {
            fed.remove_batch(&batch.triples);
        }
    }
    let live_explicit = fed.len();
    let sat_fed = saturated_copy(&fed, &schema, &vocab);

    let expect_base = Expected {
        adhoc: adhoc.iter().map(|q| evaluate(&sat, q)).collect(),
        workload: base_answers,
    };
    let expect_fed = Expected::of(&sat_fed, &workload, &adhoc);

    let mut hash = FNV_OFFSET;
    for text in [
        &texts.data_nt,
        &texts.schema_nt,
        &texts.feed_nt,
        &texts.candidates_rq,
    ] {
        hash = fnv1a(hash, text.as_bytes());
        hash = fnv1a(hash, &[0xff]);
    }
    for q in &adhoc {
        hash = fnv1a(hash, query_to_string("a", q, db.dict()).as_bytes());
    }
    for op in &reads {
        let (tag, i) = match *op {
            ReadOp::Workload(i) => (0u8, i),
            ReadOp::Adhoc(j) => (1u8, j),
        };
        hash = fnv1a(hash, &[tag]);
        hash = fnv1a(hash, &(i as u32).to_le_bytes());
    }
    laps.lap("load.oracle");

    Ok(Inputs {
        db,
        schema,
        vocab,
        workload,
        adhoc,
        reads,
        feed,
        expect_base,
        expect_fed,
        live_explicit,
        implicit_ratio,
        candidates_seen,
        hash,
        texts,
        stages: laps.stages,
    })
}

/// The whole set-up of a run: generate, then load. `start` is when this
/// set-up began (process start, for the first one of a run).
pub fn build(w: &Workload, seed: u64, start: Instant) -> Result<Inputs, String> {
    let mut laps = Laps::starting(start);
    let texts = generate_texts(w, seed, &mut laps);
    load(w, seed, texts, Admission::DEFAULT, laps)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Workload {
        Workload::named("tune_reform", true).unwrap()
    }

    fn build(w: &Workload, seed: u64) -> Result<Inputs, String> {
        super::build(w, seed, Instant::now())
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let w = smoke();
        let a = build(&w, 7).unwrap();
        let b = build(&w, 7).unwrap();
        assert_eq!(a.hash, b.hash);
        let stage_names = |i: &Inputs| i.stages.iter().map(|s| s.0).collect::<Vec<_>>();
        assert_eq!(stage_names(&a), stage_names(&b));
        assert_eq!(a.stages.len(), 6);
        assert_eq!(a.texts.data_nt, b.texts.data_nt);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.adhoc, b.adhoc);
        assert_eq!(a.reads, b.reads);
        let c = build(&w, 8).unwrap();
        assert_ne!(a.hash, c.hash);
    }

    #[test]
    fn admission_keeps_the_first_q_passing_candidates_in_order() {
        let w = smoke();
        let inputs = build(&w, 11).unwrap();
        assert_eq!(inputs.workload.len(), w.queries);
        let sat = saturated_copy(inputs.db.store(), &inputs.schema, &inputs.vocab);
        for q in &inputs.workload {
            let n = evaluate(&sat, q).len();
            assert!((1..=5_000).contains(&n));
            assert!(reformulate(q, &inputs.schema, &inputs.vocab).len() <= 64);
        }
        // A filter nothing passes is an error that names the seed, not a
        // short workload.
        let strict = Admission {
            min_answers: usize::MAX,
            ..Admission::DEFAULT
        };
        let mut laps = Laps::starting(Instant::now());
        let texts = generate_texts(&w, 11, &mut laps);
        let err = load(&w, 11, texts, strict, laps).unwrap_err();
        assert!(err.contains("seed 11"), "{err}");
    }

    #[test]
    fn read_plan_has_the_same_mix_for_every_seed() {
        let count = |plan: &[ReadOp], op: ReadOp| plan.iter().filter(|&&o| o == op).count();
        let a = read_plan(8, 16, 4_000, &mut Rng::new(1));
        let b = read_plan(8, 16, 4_000, &mut Rng::new(2));
        assert_ne!(a, b, "the seed shuffles the order");
        for plan in [&a, &b] {
            assert_eq!(plan.len(), 4_000);
            for i in 0..8 {
                assert_eq!(count(plan, ReadOp::Workload(i)), 400);
            }
            for j in 0..16 {
                assert_eq!(count(plan, ReadOp::Adhoc(j)), 50);
            }
        }
    }

    #[test]
    fn feed_schedule_deletes_every_second_inserted_batch() {
        let triples: Vec<Triple> = (0..4 * BATCH_TRIPLES as u32)
            .map(|i| {
                [
                    rdfviews::model::Id(i),
                    rdfviews::model::Id(0),
                    rdfviews::model::Id(1),
                ]
            })
            .collect();
        let feed = schedule_feed(&triples);
        let kinds: Vec<bool> = feed.iter().map(|b| b.insert).collect();
        assert_eq!(kinds, [true, true, false, true, true, false]);
        assert_eq!(feed[2].triples, feed[0].triples);
        assert_eq!(feed[5].triples, feed[3].triples);
    }

    #[test]
    fn adhoc_variants_are_satisfiable_selections() {
        let inputs = build(&smoke(), 3).unwrap();
        assert!(!inputs.adhoc.is_empty());
        for (q, a) in inputs.adhoc.iter().zip(&inputs.expect_base.adhoc) {
            assert!(q.is_safe());
            assert!(!a.is_empty());
        }
        assert!(inputs.reads.iter().any(|op| matches!(op, ReadOp::Adhoc(_))));
    }

    #[test]
    fn feed_triples_are_absent_from_the_base_and_present_in_the_dictionary() {
        let inputs = build(&smoke(), 5).unwrap();
        for batch in inputs.feed.iter().filter(|b| b.insert) {
            assert_eq!(batch.triples.len(), BATCH_TRIPLES);
            for &t in &batch.triples {
                assert!(!inputs.db.store().contains(t));
                assert!(t.iter().all(|id| id.index() < inputs.db.dict().len()));
            }
        }
    }
}
