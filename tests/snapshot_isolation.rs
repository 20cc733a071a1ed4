//! Snapshot isolation under concurrency: pinned readers vs a live writer.
//!
//! The contract under test:
//!
//! * a reader that pins a generation keeps getting **exactly** the answers
//!   that generation had — bit-identical to a sequential evaluation at the
//!   pinned store version — no matter how many maintenance batches the
//!   writer applies concurrently;
//! * readers never fail and never block the writer;
//! * re-reading the same pin is stable: same version, same answers.
//!
//! The sequential truth comes from an oracle clone of the deployment that
//! absorbs the identical batch feed ahead of time, recording every
//! published generation's answers keyed by store version.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

use rdfviews::engine::Answers;
use rdfviews::model::{Id, Triple};
use rdfviews::prelude::*;

const READERS: usize = 4;
const BATCHES: usize = 40;
/// Reads the writer waits for (across all readers) before raising stop.
const MIN_READS: usize = 64;

/// Deterministic MMIX linear congruential generator — the feed must be
/// identical for the oracle and the live deployment.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Base data: 20 subjects with `(s_i, p, o_{i%4})` and `(s_i, q, c)`,
/// plus a pre-interned pool of feed subjects `x_0..x_149`.
fn feed_dataset() -> (Dataset, Vec<Id>, [Id; 4]) {
    let mut db = Dataset::new();
    let p = db.dict_mut().intern_uri("p");
    let q = db.dict_mut().intern_uri("q");
    let o1 = db.dict_mut().intern_uri("o1");
    let c = db.dict_mut().intern_uri("c");
    for i in 0..20 {
        let s = db.dict_mut().intern_uri(&format!("s{i}"));
        let o = db.dict_mut().intern_uri(&format!("o{}", i % 4));
        db.store_mut().insert([s, p, o]);
        db.store_mut().insert([s, q, c]);
    }
    let pool: Vec<Id> = (0..150)
        .map(|k| db.dict_mut().intern_uri(&format!("x{k}")))
        .collect();
    (db, pool, [p, q, o1, c])
}

/// The interleaved maintenance feed: each step is `(is_insert, triples)`.
/// Inserts draw fresh pool subjects; deletes retract previously inserted
/// ones — every batch is well-defined (inserts absent, deletes present).
fn build_feed(pool: &[Id], ids: [Id; 4]) -> Vec<(bool, Vec<Triple>)> {
    let [p, q, o1, c] = ids;
    let mut rng = Lcg(0x5eed_1234_abcd_0001);
    let mut next_fresh = 0usize;
    let mut active: Vec<Id> = Vec::new();
    let mut feed = Vec::with_capacity(BATCHES);
    for step in 0..BATCHES {
        let delete = step % 2 == 1 && active.len() >= 4;
        let mut batch = Vec::new();
        if delete {
            let n = 1 + (rng.next() as usize) % 3;
            for _ in 0..n.min(active.len()) {
                let victim = active.swap_remove((rng.next() as usize) % active.len());
                batch.push([victim, p, o1]);
                batch.push([victim, q, c]);
            }
        } else {
            let n = 1 + (rng.next() as usize) % 4;
            for _ in 0..n {
                let s = pool[next_fresh];
                next_fresh += 1;
                active.push(s);
                batch.push([s, p, o1]);
                batch.push([s, q, c]);
            }
        }
        feed.push((!delete, batch));
    }
    feed
}

fn apply(dep: &mut Deployment, step: &(bool, Vec<Triple>)) {
    if step.0 {
        dep.insert_batch(&step.1);
    } else {
        dep.delete_batch(&step.1);
    }
}

/// Compile-time proof that the snapshot handles cross threads.
#[test]
fn snapshot_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DeploymentSnapshot>();
    assert_send_sync::<SnapshotReader>();
}

#[test]
fn pinned_readers_see_sequential_answers_under_concurrent_batches() {
    let (mut db, pool, ids) = feed_dataset();
    let workload = vec![
        parse_query("q1(X) :- t(X, <p>, <o1>), t(X, <q>, <c>)", db.dict_mut())
            .unwrap()
            .query,
        parse_query("q2(X, Y) :- t(X, <p>, Y)", db.dict_mut())
            .unwrap()
            .query,
    ];
    let adhoc = parse_query("a(X) :- t(X, <p>, <o1>)", db.dict_mut())
        .unwrap()
        .query;
    let mut advisor = Advisor::builder(&db).build().unwrap();
    let rec = advisor.recommend(&workload).unwrap();
    let mut dep = advisor.deploy(rec);
    let feed = build_feed(&pool, ids);

    // -- Sequential truth: an oracle clone absorbs the identical feed,
    //    recording every published generation's answers by version. The
    //    clone shares the version counter start, so versions line up.
    let mut oracle = dep.clone();
    let mut truth: HashMap<u64, Vec<Answers>> = HashMap::new();
    let record = |o: &mut Deployment, t: &mut HashMap<u64, Vec<Answers>>| {
        let snap = o.snapshot();
        let mut per_query: Vec<Answers> = (0..2).map(|qi| snap.answer(qi).unwrap()).collect();
        per_query.push(snap.answer_adhoc(&adhoc).unwrap());
        t.insert(snap.version(), per_query);
    };
    record(&mut oracle, &mut truth);
    for step in &feed {
        apply(&mut oracle, step);
        record(&mut oracle, &mut truth);
    }
    assert!(
        truth.len() > BATCHES / 2,
        "feed must publish many distinct generations"
    );

    // -- Concurrent phase: READERS pin-and-check in a loop while the main
    //    thread applies the same feed to the live deployment.
    let reader = dep.reader();
    let stop = AtomicBool::new(false);
    let reads = AtomicUsize::new(0);
    thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    let snap = reader.snapshot();
                    let v = snap.version();
                    let expected = truth
                        .get(&v)
                        .unwrap_or_else(|| panic!("pinned unpublished generation v{v}"));
                    // Bit-identical to the sequential evaluation at v.
                    for (qi, exp) in expected[..2].iter().enumerate() {
                        let got = snap.answer(qi).expect("pinned workload read failed");
                        assert_eq!(&got, exp, "workload q{qi} diverged at v{v}");
                    }
                    let got = snap
                        .answer_adhoc(&adhoc)
                        .expect("pinned ad-hoc read failed");
                    assert_eq!(&got, &expected[2], "ad-hoc answers diverged at v{v}");
                    // Pin stability: the same snapshot re-read is unchanged
                    // even if the writer published since.
                    assert_eq!(snap.version(), v);
                    assert_eq!(
                        snap.answer_adhoc(&adhoc).expect("pinned re-read failed"),
                        got,
                        "re-reading the same pin changed answers at v{v}"
                    );
                    reads.fetch_add(1, Ordering::AcqRel);
                }
            });
        }
        for step in &feed {
            apply(&mut dep, step);
            thread::yield_now();
        }
        // Let readers demonstrably overlap the final published state too.
        while reads.load(Ordering::Acquire) < MIN_READS {
            thread::yield_now();
        }
        stop.store(true, Ordering::Release);
    });

    // The live deployment converged to the oracle's final state.
    assert_eq!(dep.store().version(), oracle.store().version());
    assert_eq!(
        dep.snapshot().answer_adhoc(&adhoc).unwrap(),
        oracle.snapshot().answer_adhoc(&adhoc).unwrap()
    );
}
