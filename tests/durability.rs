//! Durable deployments: snapshot bundles, the write-ahead log, and
//! deterministic replay recovery.
//!
//! * **Round trip** — `persist` → `open` reproduces the deployment
//!   exactly: equal content hash, equal answers, across plain,
//!   saturation-mode, and post-reformulation deployments.
//! * **Corruption is typed** — any flipped bit in the snapshot is a
//!   `CorruptBundle` at load time; filesystem failures are `Io`; a torn
//!   WAL tail under strict verification is `WalTornTail`. Never a panic,
//!   never a wrong answer.
//! * **Crash-point matrix** — the WAL is truncated at *every byte* from
//!   the header to the full length; every cut recovers to exactly the
//!   state whose batches were durably framed before the cut, proven by
//!   content hash against live checkpoints recorded batch by batch.
//! * **Compaction** — checkpoints absorb the log crash-safely: a newer
//!   snapshot with a stale un-reset WAL (the crash window between the two
//!   steps) recovers by skipping the absorbed records.
//! * **Golden fixtures** — the committed v2 bundles (a plain deployment,
//!   and a saturation and a post-reformulation one) keep loading, and
//!   re-encoding them reproduces their bytes exactly; logging the same
//!   three batches on the reasoning ones reproduces their committed logs
//!   byte for byte, and recovering from snapshot and log reaches the
//!   committed state hash (format stability; an intentional format change
//!   must bump the version and regenerate); the committed v1 bundle is
//!   refused at the version check.
//! * **The state, not the history** — deployments that reach the same
//!   triples and rows by different batch orders have one content hash,
//!   and a section that spells its state any other way than the canonical
//!   one is a `CorruptBundle`; so is a meta section whose recorded store
//!   version is not the store's.
//! * **Proptest** — random feeds round-trip: live hash == recovered hash.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use rdfviews::durability::bundle;
use rdfviews::durability::wire::Writer;
use rdfviews::engine::evaluate;
use rdfviews::exec::{SNAPSHOT_FILE, WAL_FILE};
use rdfviews::model::{IndexOrder, Triple};
use rdfviews::prelude::*;
use rdfviews::schema::saturated_copy;

/// A scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "rdfviews-durability-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        std::fs::remove_dir_all(&dir).ok();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Paintings → artists → cities; `bornIn` deliberately untuned.
fn museum(entities: usize) -> Dataset {
    let mut db = Dataset::new();
    let painted_by = db.dict_mut().intern_uri("paintedBy");
    let exhibited_in = db.dict_mut().intern_uri("exhibitedIn");
    let born_in = db.dict_mut().intern_uri("bornIn");
    let artists = (entities / 6).max(2);
    for i in 0..entities {
        let painting = db.dict_mut().intern_uri(&format!("painting{i}"));
        let artist = db.dict_mut().intern_uri(&format!("artist{}", i % artists));
        let site = db.dict_mut().intern_uri(&format!("site{}", i % 4));
        db.store_mut().insert([painting, painted_by, artist]);
        db.store_mut().insert([painting, exhibited_in, site]);
    }
    for a in 0..artists {
        let artist = db.dict_mut().intern_uri(&format!("artist{a}"));
        let city = db.dict_mut().intern_uri(&format!("city{}", a % 2));
        db.store_mut().insert([artist, born_in, city]);
    }
    db
}

fn museum_workload(db: &mut Dataset) -> Vec<ConjunctiveQuery> {
    [
        "q1(P, A) :- t(P, <paintedBy>, A)",
        "q2(P, M) :- t(P, <exhibitedIn>, M)",
        "q3(A, M) :- t(P, <paintedBy>, A), t(P, <exhibitedIn>, M)",
    ]
    .iter()
    .map(|s| parse_query(s, db.dict_mut()).unwrap().query)
    .collect()
}

/// Tunes and deploys the museum workload, returning the deployment and
/// the dictionary its ids refer to.
fn deployed(entities: usize) -> (Deployment, Dictionary) {
    let mut db = museum(entities);
    let workload = museum_workload(&mut db);
    let mut advisor = Advisor::builder(&db).build().unwrap();
    let rec = advisor.recommend(&workload).unwrap();
    let dep = advisor.deploy(rec);
    (dep, db.dict().clone())
}

/// The museum under a small RDFS schema — `paintedBy ⊑ painter`, the
/// range of `painter` is `Artist`, `Artist ⊑ Person` — and a workload
/// that only the entailed triples answer.
fn reasoning_museum(entities: usize) -> (Dataset, Schema, VocabIds, Vec<ConjunctiveQuery>) {
    let mut db = museum(entities);
    let [painter, painted_by, artist, person] =
        ["painter", "paintedBy", "Artist", "Person"].map(|uri| db.dict_mut().intern_uri(uri));
    let vocab = VocabIds::intern(db.dict_mut());
    let mut schema = Schema::new();
    schema.add(SchemaStatement::SubPropertyOf(painted_by, painter));
    schema.add(SchemaStatement::Range(painter, artist));
    schema.add(SchemaStatement::SubClassOf(artist, person));
    let workload = [
        "q(P, A) :- t(P, <painter>, A)",
        "r(A) :- t(A, <rdf:type>, <Person>)",
    ]
    .iter()
    .map(|s| parse_query(s, db.dict_mut()).unwrap().query)
    .collect();
    (db, schema, vocab, workload)
}

/// Tunes and deploys `workload` over `db` under `mode`.
fn deploy_reasoning(
    db: &Dataset,
    schema: &Schema,
    vocab: &VocabIds,
    workload: &[ConjunctiveQuery],
    mode: ReasoningMode,
) -> Deployment {
    let mut advisor = Advisor::builder(db)
        .schema(schema, vocab)
        .reasoning(mode)
        .build()
        .unwrap();
    let rec = advisor.recommend(workload).unwrap();
    advisor.deploy(rec)
}

/// A feed of fresh museum triples (new paintings by known artists).
fn feed(dict: &mut Dictionary, from: usize, n: usize) -> Vec<Triple> {
    let painted_by = dict.lookup_uri("paintedBy").unwrap();
    let exhibited_in = dict.lookup_uri("exhibitedIn").unwrap();
    (0..n)
        .map(|i| {
            let painting = dict.intern_uri(&format!("painting{}", from + i));
            if i % 3 == 2 {
                let site = dict.intern_uri(&format!("site{}", i % 5));
                [painting, exhibited_in, site]
            } else {
                let artist = dict.intern_uri(&format!("artist{}", i % 3));
                [painting, painted_by, artist]
            }
        })
        .collect()
}

/// A bundle's sections as owned payloads, for tests that re-frame edited
/// copies of them.
fn owned_sections(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
    let sections = bundle::decode(bytes).unwrap();
    sections
        .into_iter()
        .map(|(tag, p)| (tag, p.to_vec()))
        .collect()
}

// ---------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------

#[test]
fn persist_open_round_trips_plain_deployment() {
    let tmp = TempDir::new("roundtrip");
    let (dep, dict) = deployed(24);
    let hash = dep.persist(tmp.path(), &dict).unwrap();
    assert_eq!(dep.content_hash(&dict).unwrap(), hash);

    let (mut reopened, mut redict) = Deployment::open(tmp.path()).unwrap();
    assert_eq!(reopened.content_hash(&redict).unwrap(), hash);
    assert_eq!(redict.len(), dict.len());
    assert_eq!(reopened.lineage(), dep.lineage());
    assert_eq!(reopened.view_count(), dep.view_count());
    let (live, served) = (dep.snapshot(), reopened.snapshot());
    for idx in 0..dep.recommendation().workload.len() {
        assert_eq!(
            served.answer(idx).unwrap(),
            live.answer(idx).unwrap(),
            "workload query {idx} must answer identically after reopen"
        );
    }
    // A reopened deployment keeps maintaining correctly.
    let batch = feed(&mut redict, 1000, 6);
    reopened.insert_batch(&batch);
    assert!(reopened.snapshot().answer(0).unwrap().len() > live.answer(0).unwrap().len());
}

#[test]
fn persist_open_round_trips_saturation_deployment() {
    let tmp = TempDir::new("saturation");
    let (db, schema, vocab, workload) = reasoning_museum(18);
    let dep = deploy_reasoning(&db, &schema, &vocab, &workload, ReasoningMode::Saturation);
    let dict = db.dict().clone();
    let hash = dep.persist(tmp.path(), &dict).unwrap();

    let (reopened, redict) = Deployment::open(tmp.path()).unwrap();
    assert_eq!(reopened.content_hash(&redict).unwrap(), hash);
    let saturated = saturated_copy(db.store(), &schema, &vocab);
    let served = reopened.snapshot();
    for (idx, q) in workload.iter().enumerate() {
        assert_eq!(
            served.answer(idx).unwrap(),
            evaluate(&saturated, q),
            "saturation-mode answers must stay entailment-complete after reopen"
        );
        assert_eq!(
            served.answer(idx).unwrap(),
            dep.snapshot().answer(idx).unwrap()
        );
    }
}

#[test]
fn persist_open_round_trips_post_reformulation_deployment() {
    let tmp = TempDir::new("postreform");
    let (db, schema, vocab, workload) = reasoning_museum(18);
    let mode = ReasoningMode::PostReformulation;
    let dep = deploy_reasoning(&db, &schema, &vocab, &workload, mode);
    let dict = db.dict().clone();
    let hash = dep.persist(tmp.path(), &dict).unwrap();

    let (reopened, redict) = Deployment::open(tmp.path()).unwrap();
    assert_eq!(reopened.content_hash(&redict).unwrap(), hash);
    for idx in 0..workload.len() {
        assert_eq!(
            reopened.snapshot().answer(idx).unwrap(),
            dep.snapshot().answer(idx).unwrap()
        );
    }
}

/// The reformulation section carries the schema that ad-hoc plans
/// reformulate with: a reopened pre- or post-reformulation deployment
/// still answers implicit triples through a hybrid plan over its original
/// base store, and holds the state it was persisted with.
#[test]
fn reopened_reformulation_deployments_still_reformulate_adhoc_queries() {
    for mode in [
        ReasoningMode::PreReformulation,
        ReasoningMode::PostReformulation,
    ] {
        let tmp = TempDir::new(&format!("reopen-{mode:?}"));
        let (mut db, schema, vocab, workload) = reasoning_museum(12);
        // Artists are typed only by the range of `painter`, and no view
        // holds the untuned `bornIn`.
        let adhoc = parse_query(
            "a(A, C) :- t(A, <rdf:type>, <Artist>), t(A, <bornIn>, C)",
            db.dict_mut(),
        )
        .unwrap()
        .query;
        let dep = deploy_reasoning(&db, &schema, &vocab, &workload, mode);
        let hash = dep.persist(tmp.path(), db.dict()).unwrap();

        let (reopened, redict) = Deployment::open(tmp.path()).unwrap();
        assert_eq!(reopened.content_hash(&redict).unwrap(), hash, "{mode:?}");
        let want = evaluate(&saturated_copy(db.store(), &schema, &vocab), &adhoc);
        assert!(!want.is_empty() && evaluate(db.store(), &adhoc).is_empty());
        let snapshot = reopened.snapshot();
        assert!(!snapshot.plan(&adhoc).unwrap().is_views_only(), "{mode:?}");
        assert_eq!(snapshot.answer_adhoc(&adhoc).unwrap(), want, "{mode:?}");
    }
}

#[test]
fn reopened_deployment_gets_fresh_identity_but_keeps_lineage() {
    let tmp = TempDir::new("lineage");
    let (dep, dict) = deployed(12);
    dep.persist(tmp.path(), &dict).unwrap();
    let q = dep.recommendation().workload[0].clone();
    let plan = dep.snapshot().plan(&q).unwrap();

    let (reopened, _) = Deployment::open(tmp.path()).unwrap();
    assert_eq!(reopened.lineage(), dep.lineage());
    // A plan from the pre-persist process must not execute on the
    // reloaded deployment — `open` issues a fresh process-scoped
    // identity, so the plan is foreign there, same as a plan from any
    // other deployment.
    assert!(matches!(
        reopened.snapshot().answer_query(&plan),
        Err(SelectionError::ForeignPlan)
    ));
}

// ---------------------------------------------------------------------
// Typed failures.
// ---------------------------------------------------------------------

#[test]
fn every_corrupted_snapshot_byte_is_detected() {
    let tmp = TempDir::new("corrupt");
    let (dep, dict) = deployed(8);
    dep.persist(tmp.path(), &dict).unwrap();
    let snapshot = tmp.path().join(SNAPSHOT_FILE);
    let pristine = std::fs::read(&snapshot).unwrap();
    // Flipping a bit anywhere must be a typed CorruptBundle. Every 97th
    // byte keeps the test fast while still crossing every section; the
    // durability crate's own tests cover every byte of a small bundle.
    for pos in (0..pristine.len()).step_by(97).chain([pristine.len() - 1]) {
        let mut bytes = pristine.clone();
        bytes[pos] ^= 0x10;
        std::fs::write(&snapshot, &bytes).unwrap();
        match Deployment::open(tmp.path()) {
            Err(SelectionError::CorruptBundle { .. }) => {}
            other => panic!("flipped byte {pos}: expected CorruptBundle, got {other:?}"),
        }
    }
    // Truncation anywhere is detected too.
    std::fs::write(&snapshot, &pristine[..pristine.len() / 2]).unwrap();
    assert!(matches!(
        Deployment::open(tmp.path()),
        Err(SelectionError::CorruptBundle { .. })
    ));
}

#[test]
fn missing_snapshot_is_a_typed_io_error() {
    let tmp = TempDir::new("missing");
    match Deployment::open(tmp.path()) {
        Err(SelectionError::Io { context, .. }) => {
            assert!(context.contains(SNAPSHOT_FILE), "context: {context}")
        }
        other => panic!("expected Io, got {other:?}"),
    }
}

#[test]
fn strict_wal_verification_reports_torn_tail() {
    let tmp = TempDir::new("strict");
    let (dep, dict) = deployed(8);
    let mut durable = DurableDeployment::create(tmp.path(), dep, dict).unwrap();
    let batch = feed(durable.dict_mut(), 500, 3);
    durable.insert_batch(&batch).unwrap();
    drop(durable);
    assert_eq!(Deployment::verify_wal(tmp.path()).unwrap(), 1);

    // Chop the last byte: the record frame is incomplete.
    let wal = tmp.path().join(WAL_FILE);
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 1]).unwrap();
    match Deployment::verify_wal(tmp.path()) {
        Err(SelectionError::WalTornTail { offset }) => {
            assert!(offset < bytes.len() as u64)
        }
        other => panic!("expected WalTornTail, got {other:?}"),
    }
    // Recovery itself stays graceful: the torn record is dropped.
    let (_, _, report) = Deployment::recover(tmp.path()).unwrap();
    assert_eq!(report.records_replayed, 0);
    assert!(report.torn_tail.is_some());
}

// ---------------------------------------------------------------------
// The crash-point matrix.
// ---------------------------------------------------------------------

/// The WAL header length (magic + format version) — cuts shorter than
/// this simulate a crash during `create`, before any batch could have
/// been acknowledged.
const WAL_HEADER_LEN: usize = 12;

/// Truncates the WAL at **every byte offset** from the header to the full
/// log and recovers at each cut. Every cut must reproduce — by content
/// hash — exactly the deployment state whose batches were durably framed
/// before the cut, with any partial record dropped, never a panic.
#[test]
fn recovery_at_every_wal_cut_matches_the_live_state() {
    let tmp = TempDir::new("matrix");
    let (dep, dict) = deployed(8);
    let mut durable = DurableDeployment::create(tmp.path(), dep, dict)
        .unwrap()
        .with_compact_threshold(u64::MAX); // no auto-checkpoint: keep every record
                                           // `expected[k]` = live content hash after k batches; `frame_end[k]` =
                                           // first byte offset at which batch k is fully durable.
    let mut expected = vec![durable.deployment().content_hash(durable.dict()).unwrap()];
    let mut frame_end: Vec<u64> = Vec::new();
    let mut inserted: Vec<Triple> = Vec::new();
    for k in 0..4 {
        let batch = feed(durable.dict_mut(), 600 + 10 * k, 3);
        if k == 2 {
            // One deletion batch in the middle: replay must handle both
            // record kinds.
            let victims: Vec<Triple> = inserted.drain(..2).collect();
            durable.delete_batch(&victims).unwrap();
            frame_end.push(durable.wal_size());
            expected.push(durable.deployment().content_hash(durable.dict()).unwrap());
        }
        durable.insert_batch(&batch).unwrap();
        inserted.extend(batch);
        frame_end.push(durable.wal_size());
        expected.push(durable.deployment().content_hash(durable.dict()).unwrap());
    }
    let wal_path = tmp.path().join(WAL_FILE);
    let full = std::fs::read(&wal_path).unwrap();
    assert_eq!(full.len() as u64, *frame_end.last().unwrap());
    drop(durable);

    for cut in WAL_HEADER_LEN..=full.len() {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let (dep, dict, report) = Deployment::recover(tmp.path())
            .unwrap_or_else(|e| panic!("cut at byte {cut} must recover gracefully: {e}"));
        let durable_batches = frame_end.iter().filter(|&&end| end <= cut as u64).count();
        assert_eq!(
            report.records_replayed, durable_batches,
            "cut at byte {cut}: wrong replay count"
        );
        assert_eq!(
            report.state_hash, expected[durable_batches],
            "cut at byte {cut} must recover the state after {durable_batches} batches"
        );
        assert_eq!(dep.content_hash(&dict).unwrap(), report.state_hash);
        let clean_boundary = cut == WAL_HEADER_LEN || frame_end.contains(&(cut as u64));
        assert_eq!(
            report.torn_tail.is_some(),
            !clean_boundary,
            "cut at byte {cut}: torn-tail report"
        );
    }
}

// ---------------------------------------------------------------------
// Compaction.
// ---------------------------------------------------------------------

#[test]
fn compaction_resets_the_wal_and_recovery_still_matches() {
    let tmp = TempDir::new("compact");
    let (dep, dict) = deployed(10);
    // Threshold 0: every batch triggers a checkpoint.
    let mut durable = DurableDeployment::create(tmp.path(), dep, dict)
        .unwrap()
        .with_compact_threshold(0);
    let empty_wal = durable.wal_size();
    for k in 0..3 {
        let batch = feed(durable.dict_mut(), 700 + 10 * k, 3);
        durable.insert_batch(&batch).unwrap();
        assert_eq!(durable.wal_size(), empty_wal, "batch {k} must compact");
    }
    let live = durable.deployment().content_hash(durable.dict()).unwrap();
    drop(durable);
    let (recovered, report) = DurableDeployment::recover(tmp.path()).unwrap();
    assert_eq!(report.records_scanned, 0, "the wal was fully absorbed");
    assert_eq!(report.state_hash, live);
    drop(recovered);
}

/// The crash window *between* checkpoint's two steps: the new snapshot is
/// on disk but the WAL was not yet reset. Recovery must skip the absorbed
/// records (their version stamps predate the snapshot) instead of
/// replaying them twice.
#[test]
fn stale_wal_records_after_checkpoint_crash_are_skipped() {
    let tmp = TempDir::new("stalewal");
    let (dep, dict) = deployed(10);
    let mut durable = DurableDeployment::create(tmp.path(), dep, dict)
        .unwrap()
        .with_compact_threshold(u64::MAX);
    let batch = feed(durable.dict_mut(), 800, 4);
    durable.insert_batch(&batch).unwrap();
    // Simulate the crash: write the newer snapshot directly, leaving the
    // logged record in place (checkpoint() would have reset it).
    let live = durable
        .deployment()
        .persist(tmp.path(), durable.dict())
        .unwrap();
    drop(durable);

    let (recovered, report) = DurableDeployment::recover(tmp.path()).unwrap();
    assert_eq!(report.records_scanned, 1);
    assert_eq!(report.records_skipped, 1, "absorbed record must be skipped");
    assert_eq!(report.records_replayed, 0);
    assert_eq!(report.state_hash, live);
    drop(recovered);
}

#[test]
fn recovered_handle_keeps_logging_durably() {
    let tmp = TempDir::new("relog");
    let (dep, dict) = deployed(10);
    let durable = DurableDeployment::create(tmp.path(), dep, dict).unwrap();
    drop(durable);
    let (mut durable, _) = DurableDeployment::recover(tmp.path()).unwrap();
    let batch = feed(durable.dict_mut(), 900, 3);
    durable.insert_batch(&batch).unwrap();
    let live = durable.deployment().content_hash(durable.dict()).unwrap();
    drop(durable);
    let (_, report) = DurableDeployment::recover(tmp.path()).unwrap();
    assert_eq!(report.records_replayed, 1);
    assert_eq!(report.state_hash, live);
}

// ---------------------------------------------------------------------
// Golden fixtures: format stability.
// ---------------------------------------------------------------------

// Section tags, as `src/exec_persist.rs` numbers them.
const SEC_STORE: u32 = 2;
const SEC_ENTAIL: u32 = 5;
const SEC_REFORM: u32 = 6;
/// The meta section: the store version, then the lineage.
const SEC_META: u32 = 7;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/{name}"))
}

fn read_fixture(name: &str) -> Vec<u8> {
    std::fs::read(fixture(name)).unwrap_or_else(|e| {
        panic!("tests/fixtures/{name} must be committed (see regenerate_golden_fixture): {e}")
    })
}

/// Opens a committed fixture from a scratch directory.
fn open_golden(
    version: u32,
    tag: &str,
) -> (Vec<u8>, Result<(Deployment, Dictionary), SelectionError>) {
    let fixture = read_fixture(&format!("golden_v{version}.rdfb"));
    let tmp = TempDir::new(tag);
    std::fs::create_dir_all(tmp.path()).unwrap();
    std::fs::write(tmp.path().join(SNAPSHOT_FILE), &fixture).unwrap();
    (fixture, Deployment::open(tmp.path()))
}

/// The reasoning fixtures `golden_v2_<kind>.{rdfb,rdfl}`: a deployment of
/// [`reasoning_museum`] under each reasoning mode a bundle records, its
/// write-ahead log of [`log_golden_batches`], and the state hash recovery
/// reaches from the two.
const GOLDEN_REASONING: [(&str, ReasoningMode, u128); 2] = [
    (
        "saturation",
        ReasoningMode::Saturation,
        0xf1863f7ab42057cb65e594f8581d65bd,
    ),
    (
        "reformulation",
        ReasoningMode::PostReformulation,
        0x555e2a6afb66ece0c8d3ee3894a181a9,
    ),
];

/// The three batches of every reasoning fixture's log: an insert that
/// interns new terms, a delete of two fed triples and a base one, and a
/// second insert.
fn log_golden_batches(durable: &mut DurableDeployment) {
    let first = feed(durable.dict_mut(), 5000, 6);
    durable.insert_batch(&first).unwrap();
    let dict = durable.dict();
    let base = ["painting0", "paintedBy", "artist0"].map(|uri| dict.lookup_uri(uri).unwrap());
    durable.delete_batch(&[first[0], first[2], base]).unwrap();
    let second = feed(durable.dict_mut(), 5100, 4);
    durable.insert_batch(&second).unwrap();
}

/// A scratch deployment directory holding the committed reasoning
/// fixture `kind`, with the snapshot and log bytes it was made from.
fn golden_reasoning_dir(kind: &str) -> (TempDir, Vec<u8>, Vec<u8>) {
    let snapshot = read_fixture(&format!("golden_v2_{kind}.rdfb"));
    let log = read_fixture(&format!("golden_v2_{kind}.rdfl"));
    let tmp = TempDir::new(&format!("golden-{kind}"));
    std::fs::create_dir_all(tmp.path()).unwrap();
    std::fs::write(tmp.path().join(SNAPSHOT_FILE), &snapshot).unwrap();
    std::fs::write(tmp.path().join(WAL_FILE), &log).unwrap();
    (tmp, snapshot, log)
}

/// Regenerates the committed fixtures: `golden_v2.rdfb`, and the
/// snapshot and log of every [`GOLDEN_REASONING`] kind (whose state
/// hashes must then be copied into that table). Run explicitly after an
/// *intentional* format change (with a `FORMAT_VERSION` bump and new file
/// names; the old fixtures stay, to be refused):
/// `cargo test --test durability regenerate_golden_fixture -- --ignored`
#[test]
#[ignore = "writes the committed fixtures; run only to regenerate them"]
fn regenerate_golden_fixture() {
    let version = bundle::FORMAT_VERSION;
    let tmp = TempDir::new("golden-gen");
    let (dep, dict) = deployed(6);
    dep.persist(tmp.path(), &dict).unwrap();
    let path = fixture(&format!("golden_v{version}.rdfb"));
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::copy(tmp.path().join(SNAPSHOT_FILE), path).unwrap();

    for (kind, mode, _) in GOLDEN_REASONING {
        let tmp = TempDir::new(&format!("golden-gen-{kind}"));
        let (db, schema, vocab, workload) = reasoning_museum(6);
        let dep = deploy_reasoning(&db, &schema, &vocab, &workload, mode);
        let mut durable = DurableDeployment::create(tmp.path(), dep, db.dict().clone())
            .unwrap()
            .with_compact_threshold(u64::MAX);
        log_golden_batches(&mut durable);
        println!(
            "{kind}: state hash {:#034x}",
            durable.deployment().content_hash(durable.dict()).unwrap()
        );
        drop(durable);
        for (file, ext) in [(SNAPSHOT_FILE, "rdfb"), (WAL_FILE, "rdfl")] {
            let to = fixture(&format!("golden_v{version}_{kind}.{ext}"));
            std::fs::copy(tmp.path().join(file), to).unwrap();
        }
    }
}

#[test]
fn golden_fixture_still_loads_and_reencodes_byte_for_byte() {
    let (fixture, opened) = open_golden(2, "golden");
    let (dep, dict) = opened.unwrap();
    assert!(dep.view_count() > 0);
    // Structural sanity: the fixture deployment still answers.
    for idx in 0..dep.recommendation().workload.len() {
        let q = dep.recommendation().workload[idx].clone();
        assert_eq!(
            dep.snapshot().answer(idx).unwrap(),
            evaluate(dep.store(), &q)
        );
    }
    // Byte-for-byte stability: open → persist reproduces the exact file.
    let out = TempDir::new("golden-out");
    dep.persist(out.path(), &dict).unwrap();
    let rewritten = std::fs::read(out.path().join(SNAPSHOT_FILE)).unwrap();
    assert_eq!(
        rewritten, fixture,
        "re-encoding the golden bundle changed its bytes — a format change \
         requires a FORMAT_VERSION bump and a regenerated fixture"
    );
}

/// The reasoning fixtures carry what `golden_v2.rdfb` cannot: a schema,
/// vocabulary ids and an explicit subset (saturation) or a reformulation
/// context. Each still opens, and open → persist reproduces its bytes.
#[test]
fn golden_reasoning_bundles_reencode_byte_for_byte() {
    for (kind, mode, _) in GOLDEN_REASONING {
        let (tmp, snapshot, _) = golden_reasoning_dir(kind);
        let sections = bundle::decode(&snapshot).unwrap();
        let context = if mode == ReasoningMode::Saturation {
            SEC_ENTAIL
        } else {
            SEC_REFORM
        };
        let recorded = &sections.iter().find(|s| s.0 == context).unwrap().1;
        assert!(recorded.len() > 1, "{kind}: the fixture records a schema");
        let (dep, dict) = Deployment::open(tmp.path()).unwrap();
        let out = TempDir::new(&format!("golden-{kind}-out"));
        dep.persist(out.path(), &dict).unwrap();
        assert!(
            std::fs::read(out.path().join(SNAPSHOT_FILE)).unwrap() == snapshot,
            "{kind}: re-encoding the golden bundle changed its bytes"
        );
    }
}

/// Logging the same three batches on the opened snapshot writes the
/// committed log byte for byte: record kinds, version stamps, the terms a
/// batch interns and its triples keep their spelling.
#[test]
fn golden_reasoning_logs_replay_byte_for_byte() {
    for (kind, _, state_hash) in GOLDEN_REASONING {
        let (tmp, _, log) = golden_reasoning_dir(kind);
        let (dep, dict) = Deployment::open(tmp.path()).unwrap();
        let out = TempDir::new(&format!("golden-{kind}-relog"));
        let mut durable = DurableDeployment::create(out.path(), dep, dict)
            .unwrap()
            .with_compact_threshold(u64::MAX);
        log_golden_batches(&mut durable);
        assert_eq!(
            durable.deployment().content_hash(durable.dict()).unwrap(),
            state_hash,
            "{kind}: live state after the logged batches"
        );
        assert!(
            std::fs::read(out.path().join(WAL_FILE)).unwrap() == log,
            "{kind}: re-logging the golden batches changed the log's bytes"
        );
    }
}

/// Recovering a reasoning fixture replays its three records to the
/// committed state hash.
#[test]
fn golden_reasoning_logs_recover_to_the_committed_state_hash() {
    for (kind, _, state_hash) in GOLDEN_REASONING {
        let (tmp, _, _) = golden_reasoning_dir(kind);
        let (dep, dict, report) = Deployment::recover(tmp.path()).unwrap();
        assert_eq!(report.records_replayed, 3, "{kind}");
        assert_eq!(report.torn_tail, None, "{kind}");
        assert_eq!(report.state_hash, state_hash, "{kind}: recovered state");
        assert_eq!(dep.content_hash(&dict).unwrap(), state_hash, "{kind}");
    }
}

/// No decoder is kept for an older layout: the v1 fixture is intact (its
/// trailer hash and checksums still verify) and is refused by its format
/// version, before any section is read.
#[test]
fn golden_v1_fixture_is_refused_at_the_version_check() {
    let (_, opened) = open_golden(1, "golden-v1");
    match opened {
        Err(SelectionError::CorruptBundle { detail }) => assert!(
            detail.contains("unsupported bundle format version 1")
                && detail.contains("this build reads 2"),
            "detail: {detail}"
        ),
        other => panic!("expected the version refusal, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// The state, not the history.
// ---------------------------------------------------------------------

/// The same final state reached by different batch orders — and through
/// different interleavings of deletes — has one content hash and one
/// snapshot file; a different state has another.
#[test]
fn same_state_by_different_histories_has_one_content_hash() {
    let (dep, mut dict) = deployed(12);
    let a = feed(&mut dict, 3000, 5);
    let b = feed(&mut dict, 3100, 4);
    let c = feed(&mut dict, 3200, 3);

    // Three batches each, so the version counters agree too.
    let mut forward = dep.clone();
    forward.insert_batch(&a);
    forward.insert_batch(&b);
    forward.insert_batch(&c);
    let mut backward = dep.clone();
    backward.insert_batch(&c);
    backward.insert_batch(&b);
    backward.insert_batch(&a);
    // All at once, then one triple taken out and put back.
    let mut detour = dep.clone();
    let all: Vec<Triple> = b.iter().chain(&c).chain(&a).copied().collect();
    detour.insert_batch(&all);
    detour.delete_batch(&b[..1]);
    detour.insert_batch(&b[..1]);

    let hash = forward.content_hash(&dict).unwrap();
    assert_eq!(backward.content_hash(&dict).unwrap(), hash);
    assert_eq!(detour.content_hash(&dict).unwrap(), hash);
    // A deployment's stores list their `Spo` runs, so the three histories
    // leave one listing, whatever order the batches came in.
    for dep in [&forward, &backward, &detour] {
        let run = dep.store().index(IndexOrder::Spo);
        assert_eq!(
            dep.store().triples(),
            &run[..],
            "the store lists its Spo run"
        );
        assert_eq!(dep.store().triples(), forward.store().triples());
    }
    let files: Vec<Vec<u8>> = [&forward, &backward, &detour]
        .iter()
        .enumerate()
        .map(|(i, dep)| {
            let tmp = TempDir::new(&format!("history{i}"));
            assert_eq!(dep.persist(tmp.path(), &dict).unwrap(), hash);
            std::fs::read(tmp.path().join(SNAPSHOT_FILE)).unwrap()
        })
        .collect();
    assert_eq!(files[0], files[1]);
    assert_eq!(files[0], files[2]);

    let mut other = dep.clone();
    other.insert_batch(&a);
    other.insert_batch(&b);
    other.insert_batch(&c[1..]);
    assert_ne!(other.content_hash(&dict).unwrap(), hash);
}

/// The meta section records the store version a bundle was written at —
/// after durable batches and a checkpoint, exactly the live store's — and
/// `open` refuses a bundle whose meta version disagrees with its store.
#[test]
fn bundle_meta_records_the_version_of_its_store() {
    let tmp = TempDir::new("meta");
    let (dep, dict) = deployed(8);
    let mut durable = DurableDeployment::create(tmp.path(), dep, dict).unwrap();
    for k in 0..3 {
        let batch = feed(durable.dict_mut(), 4000 + 10 * k, 3);
        durable.insert_batch(&batch).unwrap();
    }
    durable.checkpoint().unwrap();
    let (version, lineage) = (
        durable.deployment().store().version(),
        durable.deployment().lineage(),
    );
    assert_eq!(durable.snapshot().version(), version);
    drop(durable);

    let snapshot = tmp.path().join(SNAPSHOT_FILE);
    let bytes = std::fs::read(&snapshot).unwrap();
    let pristine = owned_sections(&bytes);
    let meta = |version: u64| {
        let mut w = Writer::new();
        w.u64(version);
        w.u64(lineage);
        w.into_bytes()
    };
    let recorded = &pristine.iter().find(|s| s.0 == SEC_META).unwrap().1;
    assert_eq!(*recorded, meta(version));
    let (reopened, _) = Deployment::open(tmp.path()).unwrap();
    assert_eq!(reopened.store().version(), version);
    assert_eq!(reopened.snapshot().version(), version);

    let mut sections = pristine.clone();
    sections.iter_mut().find(|s| s.0 == SEC_META).unwrap().1 = meta(version + 1);
    std::fs::write(&snapshot, bundle::encode(&sections)).unwrap();
    match Deployment::open(tmp.path()) {
        Err(SelectionError::CorruptBundle { detail }) => {
            assert!(
                detail.contains("does not match store version"),
                "detail: {detail}"
            )
        }
        other => panic!("expected CorruptBundle, got {other:?}"),
    }
}

/// A bundle whose container is sound — hash, checksums, framing — but
/// whose store section spells its state in some other way than the
/// canonical one is a `CorruptBundle` from `open`. (The codec's own tests
/// in `src/exec_persist.rs` refuse the other spellings section by section:
/// store runs, explicit subsets and view rows out of order or repeated,
/// catalog keys out of byte order or repeated, repeated schema
/// statements, state views out of id order or repeated, and ids the
/// dictionary lacks in queries, views, rewritings, schemas, vocabularies
/// and catalogs.)
#[test]
fn non_canonical_sections_are_corrupt_bundles() {
    let tmp = TempDir::new("noncanon");
    let (dep, dict) = deployed(8);
    dep.persist(tmp.path(), &dict).unwrap();
    let snapshot = tmp.path().join(SNAPSHOT_FILE);
    let bytes = std::fs::read(&snapshot).unwrap();
    let pristine = owned_sections(&bytes);
    let open_with = |tag: u32, payload: Vec<u8>| {
        let mut sections = pristine.clone();
        sections.iter_mut().find(|s| s.0 == tag).unwrap().1 = payload;
        std::fs::write(&snapshot, bundle::encode(&sections)).unwrap();
        Deployment::open(tmp.path())
    };
    // Unchanged sections re-frame to a bundle that opens.
    let (tag, payload) = pristine[1].clone();
    assert_eq!(tag, SEC_STORE);
    open_with(SEC_STORE, payload).unwrap();

    let store = |count: u64, varints: &[u64], tail: &[u8]| {
        let mut w = Writer::new();
        w.u64(dep.store().version());
        w.u64(count);
        for &v in varints {
            w.varint(v);
        }
        w.raw(tail);
        w.into_bytes()
    };
    let big = dict.len() as u64;
    for (why, payload) in [
        ("a repeated triple", store(2, &[1, 2, 3, 0, 0, 0], &[])),
        ("an id outside the dictionary", store(1, &[1, big, 3], &[])),
        (
            "a difference past the dictionary",
            store(2, &[1, 2, 3, big, 0, 0], &[]),
        ),
        (
            "a difference that overflows",
            store(2, &[1, 2, 3, u64::MAX, 0, 0], &[]),
        ),
        ("an overlong varint", store(1, &[1, 2], &[0x83, 0x00])),
        ("trailing bytes", store(1, &[1, 2, 3], &[0x00])),
        (
            "a count the bytes cannot hold",
            store(u64::MAX, &[1, 2, 3], &[]),
        ),
    ] {
        match open_with(SEC_STORE, payload) {
            Err(SelectionError::CorruptBundle { .. }) => {}
            other => panic!("{why}: expected CorruptBundle, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Proptest: random feeds round-trip.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any sequence of insert/delete batches over a durable deployment
    /// recovers to the live state, by content hash.
    #[test]
    fn random_feeds_recover_exactly(
        seed in 0u32..1000,
        sizes in prop::collection::vec(1usize..5, 1..4),
        deletes in prop::collection::vec(any::<bool>(), 3),
    ) {
        let tmp = TempDir::new(&format!("prop{seed}"));
        let (dep, dict) = deployed(8);
        let mut durable = DurableDeployment::create(tmp.path(), dep, dict)
            .unwrap()
            .with_compact_threshold(u64::MAX);
        let mut inserted: Vec<Triple> = Vec::new();
        for (k, &n) in sizes.iter().enumerate() {
            let batch = feed(durable.dict_mut(), 2000 + 100 * k + seed as usize % 7, n);
            if deletes[k % deletes.len()] && !inserted.is_empty() {
                let victims: Vec<Triple> = inserted.drain(..1).collect();
                durable.delete_batch(&victims).unwrap();
            }
            durable.insert_batch(&batch).unwrap();
            inserted.extend(batch);
        }
        let live = durable.deployment().content_hash(durable.dict()).unwrap();
        drop(durable);
        let (_, report) = DurableDeployment::recover(tmp.path()).unwrap();
        prop_assert_eq!(report.state_hash, live);
        prop_assert!(report.torn_tail.is_none());
    }

    /// persist → open is the identity on content hash for deployments of
    /// any museum size.
    #[test]
    fn persist_open_identity(entities in 4usize..20) {
        let tmp = TempDir::new(&format!("ident{entities}"));
        let (dep, dict) = deployed(entities);
        let hash = dep.persist(tmp.path(), &dict).unwrap();
        let (reopened, redict) = Deployment::open(tmp.path()).unwrap();
        prop_assert_eq!(reopened.content_hash(&redict).unwrap(), hash);
    }
}
