//! The memory contract of recovery and live writes: replaying a
//! write-ahead log costs at most one triple run and one snapshot's bytes
//! beyond what the recovered deployment keeps; a deployment's store lists
//! its `Spo` run, one allocation for both, whether deployed, written to or
//! recovered; and a live batch applied while a generation is pinned
//! allocates the runs it splices and no copy of a triple list, and the
//! rows of a view it grows once: the view and the generation that
//! publishes it share one table.
//!
//! Recovery replays the log into the decoded store, views and reasoning
//! before the first generation is published, so no pinned copy of the
//! store outlives a record: each spliced run frees its predecessor, the
//! triple list grows in place, and the first generation publishes the
//! view tables once, at the end. A replay that copied the store for every record — the list and
//! every built run, held beside the generation that pins the originals —
//! needs several runs' worth of transient heap and fails here.
//!
//! Its own test binary, because it installs a counting global allocator:
//! live bytes and their high-water mark, with a reallocation counted as a
//! fresh allocation that frees the old block after the copy (the worst
//! case of a moving `realloc`). While `RECORDING` is set it also notes the
//! size of every large allocation and counts the large reallocations.
//! The tests take turns (`SERIAL`), so one records none of another's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use rdfviews::exec::SNAPSHOT_FILE;
use rdfviews::model::{Id, IndexOrder, Triple, TripleStore};
use rdfviews::prelude::*;
use rdfviews::query::{Atom, QTerm, Var};
use rdfviews::workload::BartonDataset;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Allocations of at least this many bytes are large: a list or a run
/// of 4096 triples.
const LARGE: usize = 12 * 4096;

static RECORDING: AtomicBool = AtomicBool::new(false);
static LARGE_SIZES: [AtomicUsize; 256] = [const { AtomicUsize::new(0) }; 256];
static LARGE_COUNT: AtomicUsize = AtomicUsize::new(0);
static LARGE_REALLOCS: AtomicUsize = AtomicUsize::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

/// The sizes of the large allocations made while `f` runs.
fn large_allocations<R>(f: impl FnOnce() -> R) -> (R, Vec<usize>) {
    LARGE_COUNT.store(0, Ordering::Relaxed);
    LARGE_REALLOCS.store(0, Ordering::Relaxed);
    RECORDING.store(true, Ordering::Relaxed);
    let out = f();
    RECORDING.store(false, Ordering::Relaxed);
    let recorded = LARGE_COUNT.load(Ordering::Relaxed);
    assert!(
        recorded <= LARGE_SIZES.len(),
        "{recorded} large allocations"
    );
    let sizes = LARGE_SIZES[..recorded]
        .iter()
        .map(|size| size.load(Ordering::Relaxed))
        .collect();
    (out, sizes)
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn noted(bytes: usize) {
    if bytes >= LARGE && RECORDING.load(Ordering::Relaxed) {
        let i = LARGE_COUNT.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = LARGE_SIZES.get(i) {
            slot.store(bytes, Ordering::Relaxed);
        }
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
            noted(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
            noted(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grew(new_size);
            shrank(layout.size());
            if new_size >= LARGE && RECORDING.load(Ordering::Relaxed) {
                LARGE_REALLOCS.fetch_add(1, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A scratch directory, removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// `n` fresh resources, each typed with a schema class (so saturation
/// derives its superclasses) and linked by a schema property to an
/// existing subject.
fn fresh_batch(
    dict: &mut Dictionary,
    data: &BartonDataset,
    subjects: &[Id],
    from: usize,
    n: usize,
) -> Vec<Triple> {
    (from..from + n)
        .flat_map(|i| {
            let item = dict.intern_uri(&format!("fresh{i}"));
            let class = data.classes[i % data.classes.len()];
            let property = data.properties[i % 7];
            let object = subjects[i % subjects.len()];
            [[item, data.vocab.rdf_type, class], [item, property, object]]
        })
        .collect()
}

/// Whether `store` lists its `Spo` run: the same triples in the same
/// allocation.
fn lists_its_spo_run(store: &TripleStore) -> bool {
    std::ptr::eq(store.triples(), &store.index(IndexOrder::Spo)[..])
}

#[test]
fn recovery_holds_at_most_one_run_and_one_snapshot_beyond_its_result() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let data = generate_barton(&BartonSpec::default().with_size(4_000, 24_000));
    assert!(data.db.store().len() >= 20_000);
    let workload = generate_satisfiable(&data.db, &SatisfiableSpec::new(3, 3, Shape::Mixed));
    let mut advisor = Advisor::builder(&data.db)
        .schema(&data.schema, &data.vocab)
        .reasoning(ReasoningMode::Saturation)
        // A state cap, not a clock, ends the search: the views, and so
        // every byte counted below, are the same on any machine.
        .max_states(300)
        .budget(Duration::from_secs(600))
        .build()
        .unwrap();
    let rec = advisor.recommend(&workload).unwrap();

    let dir = TempDir(
        std::env::temp_dir().join(format!("rdfviews-recovery-memory-{}", std::process::id())),
    );
    std::fs::remove_dir_all(&dir.0).ok();
    let mut durable = advisor.deploy_durable(rec, &dir.0).unwrap();
    assert!(lists_its_spo_run(durable.deployment().store()), "deployed");
    let subjects: Vec<_> = data.db.store().triples()[..500]
        .iter()
        .map(|t| t[0])
        .collect();
    let mut inserted = Vec::new();
    for k in 0..4 {
        let batch = fresh_batch(durable.dict_mut(), &data, &subjects, 64 * k, 64);
        assert!(durable.insert_batch(&batch).unwrap().batches > 0);
        inserted.push(batch);
    }
    // Retract fresh triples and snapshot ones alike.
    let explicit = data.db.store().triples();
    for batch in [
        [&inserted[0][..40], &explicit[..24]].concat(),
        [&inserted[2][..40], &explicit[100..124]].concat(),
    ] {
        assert!(durable.delete_batch(&batch).unwrap().batches > 0);
    }
    assert!(lists_its_spo_run(durable.deployment().store()), "written");
    let live_hash = {
        let (dep, dict) = (durable.deployment(), durable.dict());
        dep.content_hash(dict).unwrap()
    };
    drop(durable);
    drop(advisor);
    let snapshot_bytes = std::fs::metadata(dir.0.join(SNAPSHOT_FILE)).unwrap().len() as usize;

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let (mut dep, mut dict, report) = Deployment::recover(&dir.0).unwrap();
    let peak = PEAK.load(Ordering::Relaxed);
    let after = LIVE.load(Ordering::Relaxed);

    assert_eq!(report.records_replayed, 6);
    assert_eq!(report.state_hash, live_hash);
    let saturated = dep.store().len();
    let run = 12 * saturated;
    let transient = peak - after;
    eprintln!(
        "recovery: {saturated} saturated triples, snapshot {snapshot_bytes} B, \
         deployment {} B, transient peak {transient} B (bound {} B)",
        after - before,
        run + snapshot_bytes
    );
    assert!(
        transient < run + snapshot_bytes,
        "recovery peaked {transient} B above the {} B its deployment holds; the bound is one \
         run ({run} B) plus the snapshot ({snapshot_bytes} B)",
        after - before
    );
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    assert!(lists_its_spo_run(dep.store()), "recovered");

    // A live batch while a generation is pinned, every run of the store
    // built: each run is spliced into one new block of the store's new
    // size, and no block of that size holds a copy of the list. No large
    // block is reallocated: no list grows in place either.
    for order in IndexOrder::ALL {
        dep.store().index(order);
    }
    let pinned = dep.snapshot();
    let batch = fresh_batch(&mut dict, &data, &subjects, 64 * 4, 32);
    assert_eq!(batch.len(), 64);
    let (stats, sizes) = large_allocations(|| dep.insert_batch(&batch));
    assert!(stats.batches > 0 && dep.store().len() > saturated);
    let list_sized = sizes
        .iter()
        .filter(|&&size| size == 12 * dep.store().len())
        .count();
    assert_eq!(
        list_sized,
        IndexOrder::ALL.len(),
        "one block per spliced run, none for a copy of the triple list"
    );
    assert_eq!(
        LARGE_REALLOCS.load(Ordering::Relaxed),
        0,
        "no list grew in place"
    );
    assert!(lists_its_spo_run(dep.store()), "written while pinned");
    assert_eq!(pinned.store().len(), saturated);
    drop(pinned);
    drop((dep, dict));
}

/// A batch that grows a large one-branch view allocates the view's new
/// rows once — the splice of the delta into them — although a generation
/// pins the old ones: the new table is the maintained branch's, and the
/// generation the batch publishes takes it as it is, no copy.
#[test]
fn a_grown_view_is_allocated_once_and_published_as_it_is() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let data = generate_barton(&BartonSpec::default().with_size(2_000, 12_000));
    // Every typed subject and each of its classes, saturated: a large
    // view that every fresh typed item grows.
    let typed = ConjunctiveQuery::new(
        vec![QTerm::Var(Var(0)), QTerm::Var(Var(1))],
        vec![Atom([
            QTerm::Var(Var(0)),
            QTerm::Const(data.vocab.rdf_type),
            QTerm::Var(Var(1)),
        ])],
    );
    let mut dict = data.db.dict().clone();
    let mut advisor = Advisor::builder(&data.db)
        .schema(&data.schema, &data.vocab)
        .reasoning(ReasoningMode::Saturation)
        .max_states(50)
        .budget(Duration::from_secs(600))
        .build()
        .unwrap();
    let rec = advisor.recommend(&[typed]).unwrap();
    let mut dep = advisor.deploy(rec);
    let ids: Vec<_> = dep.recommendation().views.iter().map(|v| v.id).collect();
    let cells = |dep: &Deployment| -> Vec<usize> {
        let snap = dep.snapshot();
        ids.iter()
            .map(|&id| snap.tables().table(id).cell_count())
            .collect()
    };
    let old = cells(&dep);
    let pinned = dep.snapshot();
    let subjects: Vec<_> = data.db.store().triples()[..500]
        .iter()
        .map(|t| t[0])
        .collect();
    let batch = fresh_batch(&mut dict, &data, &subjects, 0, 64);
    let (stats, sizes) = large_allocations(|| dep.insert_batch(&batch));
    assert!(stats.added > 0);
    let new = cells(&dep);
    // The view that grew the most, and the bytes of its new rows.
    let (grown, bytes) = (0..ids.len())
        .filter(|&v| new[v] > old[v])
        .map(|v| (v, 4 * new[v]))
        .max_by_key(|&(_, bytes)| bytes)
        .expect("the batch grows a view");
    assert!(bytes >= LARGE, "a large view: {bytes} B");
    let copies = sizes.iter().filter(|&&size| size == bytes).count();
    assert_eq!(copies, 1, "view {grown}'s new rows, allocated: {sizes:?}");
    assert_eq!(
        pinned.tables().table(ids[grown]).cell_count(),
        old[grown],
        "the pin keeps the old rows"
    );
    drop(pinned);
    drop((dep, dict));
}
