//! The reader's allocation contract, counted exactly.
//!
//! Reading N-Triples looks every term up by its borrowed spelling, so a
//! line whose terms the dictionary already holds allocates nothing: the
//! number of fresh allocations a read makes does not depend on how many
//! such lines it reads, and a new term costs exactly its own two (the
//! dictionary's [`Term`] and its lookup map's copy of the spelling).
//!
//! A counting global allocator counts the allocations of the thread that
//! asked for counting. Growing a buffer in place (`realloc`) is counted
//! apart: the reader's line buffer and the batch of encoded triples grow
//! by doubling, so their count is logarithmic in the input, not constant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rdf_model::{ntriples, Dataset, Dictionary, Term, TripleStore};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static REALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    if COUNTING.with(Cell::get) {
        counter.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counters
// are const-initialised thread locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `alloc`'s contract, passed on unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    // SAFETY: the caller upholds `alloc_zeroed`'s contract, passed on.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    // SAFETY: the caller upholds `realloc`'s contract, passed on unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: the caller upholds `dealloc`'s contract, passed on unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Fresh allocations and in-place growths made by `f` on this thread.
fn counted(f: impl FnOnce()) -> (usize, usize) {
    ALLOCS.with(|c| c.set(0));
    REALLOCS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get))
}

/// `n` lines over a vocabulary of a few dozen terms: URIs, blank nodes,
/// and literals with and without escapes.
fn lines(n: usize) -> String {
    (0..n)
        .map(|i| {
            let object = match i % 4 {
                0 => format!("<ex:o{}>", i % 7),
                1 => format!("\"value {}\"", i % 5),
                2 => format!("\"tab\\t{}\\\"q\\\"\"", i % 3),
                _ => format!("_:b{}", i % 6),
            };
            format!("<ex:s{}> <ex:p{}> {object} .\n", i % 11, i % 3)
        })
        .collect()
}

/// A dataset that has read `text` once, with room for every term it will
/// be asked to hold so that no map or vector is resized under the count.
fn loaded(text: &str) -> Dataset {
    let mut db = Dataset::from_parts(Dictionary::with_capacity(256), TripleStore::new());
    ntriples::read_into(&mut db, text.as_bytes()).expect("the text parses");
    db
}

/// One test, so that no other test's thread runs while this one counts.
#[test]
fn reading_allocates_only_for_new_terms() {
    // Re-reading interned lines: the same fresh allocations at every size.
    let big = lines(20_000);
    let mut db = loaded(&big);
    let mut at = Vec::new();
    for n in [2_500, 10_000, 20_000] {
        let text = lines(n);
        let terms = db.dict().len();
        let counts = counted(|| {
            let added = ntriples::read_into(&mut db, text.as_bytes()).expect("parses");
            assert_eq!(added, 0);
        });
        assert_eq!(db.dict().len(), terms, "nothing new was interned");
        at.push(counts);
    }
    let (allocs, reallocs): (Vec<usize>, Vec<usize>) = at.iter().copied().unzip();
    assert!(
        allocs.iter().all(|&a| a == allocs[0]),
        "fresh allocations grew with the line count: {at:?}"
    );
    assert!(
        reallocs[2] <= reallocs[1] + 1,
        "doubling the lines may grow a buffer once more, no more: {at:?}"
    );

    // One new term on an otherwise known line costs two allocations more
    // than a line that is as new a triple but spelled from known terms.
    let base = lines(10_000);
    let known = format!("{base}<ex:o1> <ex:p0> \"value 4\" .\n");
    let fresh = format!("{base}<ex:o1> <ex:p0> \"a new value\" .\n");
    let mut with_known = loaded(&big);
    let mut with_fresh = loaded(&big);
    let (known_allocs, _) = counted(|| {
        assert_eq!(
            ntriples::read_into(&mut with_known, known.as_bytes()),
            Ok(1)
        );
    });
    let (fresh_allocs, _) = counted(|| {
        assert_eq!(
            ntriples::read_into(&mut with_fresh, fresh.as_bytes()),
            Ok(1)
        );
    });
    assert_eq!(with_fresh.dict().len(), with_known.dict().len() + 1);
    assert_eq!(
        with_fresh
            .dict()
            .lookup(&Term::literal("a new value"))
            .map(|id| id.index()),
        Some(with_known.dict().len())
    );
    assert_eq!(
        fresh_allocs,
        known_allocs + 2,
        "the term and its lookup key"
    );
}
