//! One round of the lifecycle: tune → deploy → serve → maintain → crash →
//! recover, on fresh state, through the library's public API only.
//!
//! The API surface this file may call is pinned in the README (it is the
//! surface ROADMAP's simplification items keep). In particular it never
//! calls `select_views*`, `answer_original_query`, `&mut
//! Deployment::answer*`, `last_eval_stats`, `set_strict`, `store_mut`,
//! `rematerialize` or `EvalOptions::legacy*`.
//!
//! All work is fixed-count: the search stops on `max_states` (no time
//! budget, one explorer thread), the serving phase issues the read plan
//! once, the feed is a fixed batch list. Only time varies between
//! rounds; [`Round::counts`] must repeat exactly.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rdfviews::advisor::Advisor;
use rdfviews::core::{Recommendation, SearchConfig, SearchStats, SelectionError, SelectionOptions};
use rdfviews::engine::{Answers, MaintenanceStats};
use rdfviews::exec::{
    Deployment, DeploymentSnapshot, DurableDeployment, RecoveryReport, SnapshotReader,
    SNAPSHOT_FILE, WAL_FILE,
};

use crate::inputs::{answers_hash, fnv1a, Expected, Inputs, ReadOp, FNV_OFFSET};
use crate::stats::median;
use crate::trace::Hooks;
use crate::workloads::{Phase, Workload};

/// A deploy or a single batch slower than this aborts the run with a
/// message instead of silently taking minutes: the admission filter is
/// supposed to keep every seed far below it.
pub const PREFLIGHT_LIMIT: Duration = Duration::from_secs(2);

/// In the concurrent workload, reads pinned to a generation whose version
/// is a multiple of this are re-verified against a sequential replay.
pub const VERIFY_VERSION_STRIDE: u64 = 8;

/// Size of an empty write-ahead log (its header): a log this short after
/// a batch means a checkpoint just absorbed every record.
const WAL_HEADER_LEN: u64 = 12;

/// Deliberate faults, to show the checks bite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    None,
    /// Drop a tuple from one oracle answer (done once, at set-up).
    Oracle,
    /// Flip the last byte of the write-ahead log before every recovery
    /// phase.
    Wal,
}

/// A concurrent read pinned to a sampled generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub version: u64,
    pub op: ReadOp,
    pub hash: u64,
}

/// Batches the sequential replay applies. It costs as much as the
/// concurrent window it checks, so it covers the window's first part;
/// reads pinned to later generations are not checked.
pub const REPLAY_BATCHES: usize = 160;

/// Sequential truth for the concurrent workload: answer hash by (pinned
/// version, op) at every sampled generation up to `last_version`.
#[derive(Debug)]
pub struct Replay {
    answers: HashMap<(u64, ReadOp), u64>,
    last_version: u64,
}

/// Operations attempted and failed. Anything the library refuses, and any
/// answer or hash that differs from the oracle, is a failure.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Ledger {
    /// Failure messages kept for the report; the counts keep counting.
    const KEPT_MESSAGES: usize = 8;

    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < Self::KEPT_MESSAGES {
            self.messages.push(what());
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.pass();
        } else {
            self.fail(what);
        }
    }

    pub fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Self::KEPT_MESSAGES.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }
}

/// The library's own counters, copied out for the layer metrics.
#[derive(Debug, Clone, Default)]
pub struct LibCounters {
    pub search: SearchStats,
    pub stats_collections: usize,
    pub saturation_runs: usize,
    pub views: usize,
    pub view_rows: usize,
    pub view_cells: usize,
    /// `view_index_builds` after the first answers / after the reads.
    pub index_builds_warm: usize,
    pub index_builds_served: usize,
    pub insert_stats: MaintenanceStats,
    pub delete_stats: MaintenanceStats,
    pub checkpoints: usize,
    pub snapshot_bytes_deploy: u64,
    pub snapshot_bytes_crash: u64,
    pub wal_bytes_crash: u64,
    /// Sum of WAL growth over all batches (checkpoints reset the file).
    pub wal_bytes_appended: u64,
    pub recovery: Option<RecoveryReport>,
    pub generations_published: usize,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Seconds of every tuning session and every recovery of the round
    /// (each repeats identical work; see `Workload::tunes`).
    pub tune_s: Vec<f64>,
    pub recover_s: Vec<f64>,
    /// Seconds from `deploy_durable` to the first answer of every
    /// workload query.
    pub deploy_s: f64,
    pub rcr: f64,
    pub read_us: Vec<f64>,
    pub batch_ms: Vec<f64>,
    pub triples_written: usize,
    pub bytes_per_triple: f64,
    /// Wall time of the whole round, checks included.
    pub wall_s: f64,
    /// Counts that must be identical in every round of a run.
    pub counts: Vec<(&'static str, u128)>,
    pub ledger: Ledger,
    pub lib: LibCounters,
    /// Concurrent workload only.
    pub samples: Vec<Sample>,
    pub replay: Option<Replay>,
    /// Traced rounds only: an in-memory clone of the deployment as it was
    /// right after deploy, for the shadow probes.
    pub shadow: Option<Deployment>,
}

impl Round {
    fn read_busy_s(&self) -> f64 {
        self.read_us.iter().sum::<f64>() / 1e6
    }

    fn write_busy_s(&self) -> f64 {
        self.batch_ms.iter().sum::<f64>() / 1e3
    }

    /// Seconds the round spent in the phase its workload is about, a
    /// repeated step counted once.
    pub fn phase_s(&self, phase: Phase) -> f64 {
        match phase {
            Phase::Tune => median(&self.tune_s),
            Phase::Read => self.read_busy_s(),
            Phase::WriteAndRecover => self.write_busy_s() + median(&self.recover_s),
            // Reads overlap the writes; the window is as long as the writes.
            Phase::ConcurrentWindow => self.write_busy_s(),
        }
    }

    /// The timed round: one tuning session, one deployment, the reads,
    /// the feed and one recovery (repeats and checks excluded).
    pub fn timed_s(&self, concurrent: bool) -> f64 {
        let reads = if concurrent { 0.0 } else { self.read_busy_s() };
        median(&self.tune_s) + self.deploy_s + reads + self.write_busy_s() + median(&self.recover_s)
    }
}

fn options(w: &Workload) -> SelectionOptions {
    SelectionOptions {
        reasoning: w.mode,
        search: SearchConfig {
            max_states: Some(w.max_states),
            time_budget: None,
            parallelism: 1,
            ..SearchConfig::default()
        },
        ..SelectionOptions::recommended()
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn fatal(what: &str, e: SelectionError) -> String {
    format!("{what} failed: {e}")
}

/// Answers every workload query from `snap`, in index order.
fn answer_all(snap: &DeploymentSnapshot, n: usize) -> Vec<Result<Answers, SelectionError>> {
    (0..n).map(|i| snap.answer(i)).collect()
}

/// Compares one batch of answers with the oracle's.
fn check_answers(
    ledger: &mut Ledger,
    point: &str,
    kind: &str,
    got: &[Result<Answers, SelectionError>],
    want: &[Answers],
) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        match g {
            Ok(a) => ledger.check(a == w, || {
                format!(
                    "{point}: {kind} query {i} has {} answers, the oracle {}",
                    a.len(),
                    w.len()
                )
            }),
            Err(e) => ledger.fail(|| format!("{point}: {kind} query {i} failed: {e}")),
        }
    }
}

/// The full oracle check at one point of the round: every workload query
/// and every ad-hoc variant.
fn check_point(
    ledger: &mut Ledger,
    point: &str,
    snap: &DeploymentSnapshot,
    inputs: &Inputs,
    want: &Expected,
    workload_answers: Option<Vec<Result<Answers, SelectionError>>>,
) {
    let got = workload_answers.unwrap_or_else(|| answer_all(snap, inputs.workload.len()));
    check_answers(ledger, point, "workload", &got, &want.workload);
    let adhoc: Vec<_> = inputs.adhoc.iter().map(|q| snap.answer_adhoc(q)).collect();
    check_answers(ledger, point, "ad-hoc", &adhoc, &want.adhoc);
}

/// Answers one read of the plan from a pinned snapshot.
pub fn answer_op(
    snap: &DeploymentSnapshot,
    inputs: &Inputs,
    op: ReadOp,
) -> Result<Answers, SelectionError> {
    match op {
        ReadOp::Workload(i) => snap.answer(i),
        ReadOp::Adhoc(j) => snap.answer_adhoc(&inputs.adhoc[j]),
    }
}

/// One read: pin, then answer. With tracing on, the answer is split into
/// the two public calls it is made of (plan, execute), so each layer gets
/// its own span.
fn read_once<H: Hooks>(
    h: &mut H,
    reader: &SnapshotReader,
    inputs: &Inputs,
    op: ReadOp,
) -> (Duration, u64, Result<Answers, SelectionError>) {
    let start = Instant::now();
    let span = h.begin_op("exec.read");
    let pin = h.begin("exec.pin");
    let snap = reader.snapshot();
    h.end(pin);
    let answers = if H::TRACED {
        let (planning, plan) = match op {
            ReadOp::Workload(i) => {
                let s = h.begin("exec.plan_workload");
                (s, snap.plan_workload(i))
            }
            ReadOp::Adhoc(j) => {
                let s = h.begin("exec.plan_adhoc");
                (s, snap.plan(&inputs.adhoc[j]))
            }
        };
        h.end(planning);
        plan.and_then(|plan| {
            let s = h.begin("rdf-engine.answer_query");
            let a = snap.answer_query(&plan);
            h.end(s);
            a
        })
    } else {
        answer_op(&snap, inputs, op)
    };
    h.end(span);
    (start.elapsed(), snap.version(), answers)
}

/// The serving phase of the sequential workloads: the read plan, once,
/// one client, closed loop. Every answer is compared with the oracle
/// after its clock has stopped.
fn serve<H: Hooks>(
    h: &mut H,
    reader: &SnapshotReader,
    inputs: &Inputs,
    ledger: &mut Ledger,
) -> Vec<f64> {
    let phase = h.begin("phase.serve");
    let mut lat = Vec::with_capacity(inputs.reads.len());
    for (k, &op) in inputs.reads.iter().enumerate() {
        let (took, _, answers) = read_once(h, reader, inputs, op);
        lat.push(took.as_secs_f64() * 1e6);
        match answers {
            Ok(a) => ledger.check(&a == inputs.expect_base.for_op(op), || {
                format!("read {k} ({op:?}) differs from the oracle")
            }),
            Err(e) => ledger.fail(|| format!("read {k} ({op:?}) failed: {e}")),
        }
    }
    h.end(phase);
    lat
}

/// What the feed loop observed.
struct Fed {
    batch_ms: Vec<f64>,
    /// Published version after each batch.
    versions: Vec<u64>,
    /// Batches acknowledged since the last checkpoint.
    since_checkpoint: usize,
}

/// Applies the feed through the durable handle, one batch at a time.
fn feed<H: Hooks>(
    h: &mut H,
    durable: &mut DurableDeployment,
    inputs: &Inputs,
    dir: &Path,
    ledger: &mut Ledger,
    lib: &mut LibCounters,
) -> Result<Fed, String> {
    let wal = dir.join(WAL_FILE);
    let mut fed = Fed {
        batch_ms: Vec::with_capacity(inputs.feed.len()),
        versions: Vec::with_capacity(inputs.feed.len()),
        since_checkpoint: 0,
    };
    let mut wal_before = file_len(&wal);
    let mut version_before = durable.snapshot().version();
    for (k, batch) in inputs.feed.iter().enumerate() {
        let start = Instant::now();
        let result = if batch.insert {
            let s = h.begin_op("exec_persist.insert_batch");
            let r = durable.insert_batch(&batch.triples);
            h.end(s);
            r
        } else {
            let s = h.begin_op("exec_persist.delete_batch");
            let r = durable.delete_batch(&batch.triples);
            h.end(s);
            r
        };
        let took = start.elapsed();
        fed.batch_ms.push(took.as_secs_f64() * 1e3);
        match result {
            Ok(stats) => {
                ledger.pass();
                if batch.insert {
                    lib.insert_stats.merge(stats);
                } else {
                    lib.delete_stats.merge(stats);
                }
            }
            Err(e) => ledger.fail(|| format!("batch {k} failed: {e}")),
        }
        if took > PREFLIGHT_LIMIT {
            return Err(format!(
                "preflight: batch {k} took {:.1} s (limit {} s); this seed's views are a \
                 maintenance cliff the admission filter should have kept out",
                took.as_secs_f64(),
                PREFLIGHT_LIMIT.as_secs()
            ));
        }
        let wal_after = file_len(&wal);
        if wal_after <= WAL_HEADER_LEN {
            lib.checkpoints += 1;
            fed.since_checkpoint = 0;
        } else {
            fed.since_checkpoint += 1;
            lib.wal_bytes_appended += wal_after.saturating_sub(wal_before);
        }
        wal_before = wal_after.max(WAL_HEADER_LEN);
        let version = durable.snapshot().version();
        if version != version_before {
            lib.generations_published += 1;
            version_before = version;
        }
        fed.versions.push(version);
    }
    Ok(fed)
}

/// The reader thread of the concurrent workload: cycles through the read
/// plan until the writer is done.
fn read_until_done<H: Hooks>(
    h: &mut H,
    reader: &SnapshotReader,
    inputs: &Inputs,
    start: &Barrier,
    done: &AtomicBool,
) -> (Vec<f64>, Vec<Sample>, Ledger) {
    let mut lat = Vec::new();
    let mut samples = Vec::new();
    let mut ledger = Ledger::default();
    start.wait();
    // Relaxed: the flag publishes no data; results travel through join.
    while !done.load(Ordering::Relaxed) {
        let op = inputs.reads[lat.len() % inputs.reads.len()];
        let (took, version, answers) = read_once(h, reader, inputs, op);
        lat.push(took.as_secs_f64() * 1e6);
        match answers {
            Ok(a) => {
                ledger.pass();
                if version.is_multiple_of(VERIFY_VERSION_STRIDE) {
                    samples.push(Sample {
                        version,
                        op,
                        hash: answers_hash(&a),
                    });
                }
            }
            Err(e) => ledger.fail(|| format!("concurrent read ({op:?}) failed: {e}")),
        }
    }
    (lat, samples, ledger)
}

/// Sequential truth for the concurrent workload: the same feed applied to
/// a twin deployment with no reader beside it, answers hashed at every
/// sampled generation. (That the sequential path itself agrees with the
/// oracle is what the three check points of every round establish.)
fn sequential_replay(
    advisor: &Advisor<'_>,
    rec: Recommendation,
    inputs: &Inputs,
    dir: &Path,
) -> Result<Replay, String> {
    let mut twin = advisor
        .deploy_durable(rec, dir)
        .map_err(|e| fatal("deploying the replay twin", e))?;
    let ops: Vec<ReadOp> = (0..inputs.workload.len())
        .map(ReadOp::Workload)
        .chain((0..inputs.adhoc.len()).map(ReadOp::Adhoc))
        .collect();
    let mut replay = HashMap::new();
    let mut record = |twin: &DurableDeployment| -> Result<(), String> {
        let snap = twin.snapshot();
        if !snap.version().is_multiple_of(VERIFY_VERSION_STRIDE) {
            return Ok(());
        }
        for &op in &ops {
            let a = answer_op(&snap, inputs, op).map_err(|e| fatal("a replay read", e))?;
            replay.insert((snap.version(), op), answers_hash(&a));
        }
        Ok(())
    };
    record(&twin)?;
    for batch in inputs.feed.iter().take(REPLAY_BATCHES) {
        if batch.insert {
            twin.insert_batch(&batch.triples)
        } else {
            twin.delete_batch(&batch.triples)
        }
        .map_err(|e| fatal("a replay batch", e))?;
        record(&twin)?;
    }
    Ok(Replay {
        last_version: twin.snapshot().version(),
        answers: replay,
    })
}

/// One timed deploy or recovery: the handle, its first answer of every
/// workload query, and how long both took together — time to full
/// service, so index builds deferred to the first read cannot hide.
struct InService {
    durable: DurableDeployment,
    first: Vec<Result<Answers, SelectionError>>,
    took: Duration,
}

fn first_answers<H: Hooks>(
    h: &mut H,
    start: Instant,
    durable: DurableDeployment,
    queries: usize,
) -> InService {
    let s = h.begin_op("exec.first_answers");
    let first = answer_all(&durable.snapshot(), queries);
    h.end(s);
    InService {
        durable,
        first,
        took: start.elapsed(),
    }
}

/// The tune phase: `w.tunes` identical sessions, each a fresh
/// `Advisor::build` plus `recommend`. Returns the last session, its
/// recommendation, and the seconds of each.
fn tune<'a, H: Hooks>(
    h: &mut H,
    inputs: &'a Inputs,
    w: &Workload,
) -> Result<(Advisor<'a>, Recommendation, Vec<f64>), String> {
    let phase = h.begin("phase.tune");
    let mut times = Vec::with_capacity(w.tunes);
    let mut kept = None;
    for _ in 0..w.tunes {
        let start = Instant::now();
        let s = h.begin_op("advisor.build");
        let advisor = Advisor::builder(&inputs.db)
            .schema(&inputs.schema, &inputs.vocab)
            .options(options(w))
            .build();
        h.end(s);
        let mut advisor = advisor.map_err(|e| fatal("Advisor::build", e))?;
        let s = h.begin_op("advisor.recommend");
        let rec = advisor.recommend(&inputs.workload);
        h.end(s);
        times.push(start.elapsed().as_secs_f64());
        kept = Some((advisor, rec.map_err(|e| fatal("Advisor::recommend", e))?));
    }
    h.end(phase);
    let (advisor, rec) = kept.ok_or("a workload tunes at least once")?;
    Ok((advisor, rec, times))
}

/// The deploy phase: `rec` deployed into the empty `dir` and serving.
fn deploy<H: Hooks>(
    h: &mut H,
    advisor: &Advisor<'_>,
    rec: &Recommendation,
    inputs: &Inputs,
    dir: &Path,
) -> Result<InService, String> {
    let phase = h.begin("phase.deploy");
    let rec = rec.clone();
    let start = Instant::now();
    let s = h.begin_op("advisor.deploy_durable");
    let durable = advisor.deploy_durable(rec, dir);
    h.end(s);
    let durable = durable.map_err(|e| fatal("Advisor::deploy_durable", e))?;
    let service = first_answers(h, start, durable, inputs.workload.len());
    h.end(phase);
    if service.took > PREFLIGHT_LIMIT {
        return Err(format!(
            "preflight: deploy took {:.1} s (limit {} s); this workload's views are a \
             materialisation cliff the admission filter should have kept out",
            service.took.as_secs_f64(),
            PREFLIGHT_LIMIT.as_secs()
        ));
    }
    Ok(service)
}

/// The recover phase: `w.recovers` recoveries of the crashed directory
/// (recovery leaves the directory as it found it). Every one is checked:
/// the recovered state hash is the pre-crash hash, and exactly the
/// batches acknowledged since the last checkpoint were replayed or
/// skipped. Returns the last one and the seconds of each.
fn recover<H: Hooks>(
    h: &mut H,
    inputs: &Inputs,
    w: &Workload,
    dir: &Path,
    live_hash: u128,
    acknowledged: usize,
    ledger: &mut Ledger,
) -> Result<(InService, RecoveryReport, Vec<f64>), String> {
    let phase = h.begin("phase.recover");
    let mut times = Vec::with_capacity(w.recovers);
    let mut kept = None;
    for _ in 0..w.recovers {
        let start = Instant::now();
        let s = h.begin_op("exec_persist.recover");
        let recovered = DurableDeployment::recover(dir);
        h.end(s);
        let (durable, report) = recovered.map_err(|e| fatal("DurableDeployment::recover", e))?;
        let service = first_answers(h, start, durable, inputs.workload.len());
        times.push(service.took.as_secs_f64());
        ledger.check(report.state_hash == live_hash, || {
            format!(
                "recovered state hash {:032x} differs from the live hash {live_hash:032x}",
                report.state_hash
            )
        });
        ledger.check(
            report.records_replayed + report.records_skipped == acknowledged
                && report.torn_tail.is_none(),
            || {
                format!(
                    "recovery replayed {} + skipped {} records (torn tail: {:?}); {acknowledged} \
                     batches were acknowledged since the last checkpoint",
                    report.records_replayed, report.records_skipped, report.torn_tail
                )
            },
        );
        kept = Some((service, report));
    }
    h.end(phase);
    let (service, report) = kept.ok_or("a workload recovers at least once")?;
    Ok((service, report, times))
}

/// Runs one round in `dir` (which must not exist yet). `build_replay`
/// asks the concurrent workload for its sequential truth table.
pub fn run_round<H: Hooks + Send>(
    h: &mut H,
    inputs: &Inputs,
    w: &Workload,
    dir: &Path,
    inject: Inject,
    build_replay: bool,
) -> Result<Round, String> {
    let round_start = Instant::now();
    let round_span = h.begin("round");
    let mut ledger = Ledger::default();
    let mut lib = LibCounters::default();

    // --- tune -----------------------------------------------------------
    let (advisor, rec, tune_s) = tune(h, inputs, w)?;
    ledger.pass();
    let rcr = rec.rcr();
    lib.search = rec.outcome.stats.clone();
    lib.stats_collections = advisor.stats_collections();
    lib.saturation_runs = advisor.saturation_runs();
    lib.views = rec.views.len();
    let best_cost = rec.outcome.best_cost;

    // --- deploy ---------------------------------------------------------
    let service = deploy(h, &advisor, &rec, inputs, dir)?;
    let deploy_s = service.took.as_secs_f64();
    ledger.pass();
    let mut durable = service.durable;
    if let Some(bytes) = w.compact_threshold {
        durable = durable.with_compact_threshold(bytes);
    }
    let snap = durable.snapshot();
    lib.view_rows = snap.tables().total_rows();
    lib.view_cells = snap.tables().total_cells();
    lib.snapshot_bytes_deploy = file_len(&dir.join(SNAPSHOT_FILE));
    check_point(
        &mut ledger,
        "after deploy",
        &snap,
        inputs,
        &inputs.expect_base,
        Some(service.first),
    );
    drop(snap);
    lib.index_builds_warm = durable.deployment().view_index_builds();
    let shadow = H::TRACED.then(|| durable.deployment().clone());

    // --- serve and maintain ----------------------------------------------
    let reader = durable.reader();
    let (read_us, fed, samples) = if w.concurrent {
        let phase = h.begin("phase.concurrent");
        let barrier = Barrier::new(2);
        let done = AtomicBool::new(false);
        let mut side = h.sibling();
        let (fed, (lat, samples, read_ledger)) = std::thread::scope(|scope| {
            let reading =
                scope.spawn(|| read_until_done(&mut side, &reader, inputs, &barrier, &done));
            barrier.wait();
            let fed = feed(h, &mut durable, inputs, dir, &mut ledger, &mut lib);
            done.store(true, Ordering::Relaxed);
            (fed, reading.join().expect("the reader thread panicked"))
        });
        h.end(phase);
        h.adopt(side, phase);
        ledger.absorb(read_ledger);
        (lat, fed?, samples)
    } else {
        let lat = serve(h, &reader, inputs, &mut ledger);
        lib.index_builds_served = durable.deployment().view_index_builds();
        let phase = h.begin("phase.maintain");
        let fed = feed(h, &mut durable, inputs, dir, &mut ledger, &mut lib);
        h.end(phase);
        (lat, fed?, Vec::new())
    };
    if w.concurrent {
        lib.index_builds_served = durable.deployment().view_index_builds();
    }
    check_point(
        &mut ledger,
        "after the feed",
        &durable.snapshot(),
        inputs,
        &inputs.expect_fed,
        None,
    );

    // --- crash ------------------------------------------------------------
    let live_hash = durable
        .deployment()
        .content_hash(durable.dict())
        .map_err(|e| fatal("content_hash", e))?;
    lib.snapshot_bytes_crash = file_len(&dir.join(SNAPSHOT_FILE));
    lib.wal_bytes_crash = file_len(&dir.join(WAL_FILE));
    let bytes_per_triple =
        (lib.snapshot_bytes_crash + lib.wal_bytes_crash) as f64 / inputs.live_explicit as f64;
    // Every acknowledged record was fsync'd before it was applied, so
    // dropping the handle is a crash at a record boundary.
    drop(reader);
    drop(durable);
    if inject == Inject::Wal {
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        *bytes.last_mut().ok_or("empty write-ahead log")? ^= 0x40;
        std::fs::write(&path, bytes).map_err(|e| e.to_string())?;
    }

    // --- recover ------------------------------------------------------------
    let (service, report, recover_s) = recover(
        h,
        inputs,
        w,
        dir,
        live_hash,
        fed.since_checkpoint,
        &mut ledger,
    )?;
    ledger.pass();
    check_point(
        &mut ledger,
        "after recovery",
        &service.durable.snapshot(),
        inputs,
        &inputs.expect_fed,
        Some(service.first),
    );
    drop(service.durable);

    // --- the concurrent workload's sequential truth ---------------------------
    let replay = if w.concurrent && build_replay {
        let twin_dir = dir.with_extension("twin");
        let replay = sequential_replay(&advisor, rec, inputs, &twin_dir);
        let _ = std::fs::remove_dir_all(&twin_dir);
        Some(replay?)
    } else {
        None
    };
    h.end(round_span);

    let versions_hash = fed
        .versions
        .iter()
        .fold(FNV_OFFSET, |hash, v| fnv1a(hash, &v.to_le_bytes()));
    let counts: Vec<(&'static str, u128)> = vec![
        ("search.created", lib.search.created.into()),
        ("search.explored", lib.search.explored.into()),
        ("search.duplicates", lib.search.duplicates.into()),
        ("search.discarded", lib.search.discarded.into()),
        ("search.transitions", lib.search.transitions.into()),
        ("search.best_cost_bits", best_cost.to_bits().into()),
        ("search.rcr_bits", rcr.to_bits().into()),
        ("views", lib.views as u128),
        ("view_rows", lib.view_rows as u128),
        ("view_cells", lib.view_cells as u128),
        ("snapshot_bytes_deploy", lib.snapshot_bytes_deploy.into()),
        ("snapshot_bytes_crash", lib.snapshot_bytes_crash.into()),
        ("wal_bytes_crash", lib.wal_bytes_crash.into()),
        ("wal_bytes_appended", lib.wal_bytes_appended.into()),
        ("checkpoints", lib.checkpoints as u128),
        ("generations_published", lib.generations_published as u128),
        ("versions_hash", versions_hash.into()),
        ("insert.delta_tuples", lib.insert_stats.delta_tuples as u128),
        ("insert.added", lib.insert_stats.added as u128),
        ("delete.delta_tuples", lib.delete_stats.delta_tuples as u128),
        ("delete.removed", lib.delete_stats.removed as u128),
        ("recovery.records_replayed", report.records_replayed as u128),
        ("recovery.records_skipped", report.records_skipped as u128),
        ("recovery.triples_inserted", report.triples_inserted as u128),
        ("recovery.triples_deleted", report.triples_deleted as u128),
    ];
    lib.recovery = Some(report);

    Ok(Round {
        tune_s,
        deploy_s,
        recover_s,
        rcr,
        read_us,
        triples_written: inputs.feed.iter().map(|b| b.triples.len()).sum(),
        batch_ms: fed.batch_ms,
        bytes_per_triple,
        wall_s: round_start.elapsed().as_secs_f64(),
        counts,
        ledger,
        lib,
        samples,
        replay,
        shadow,
    })
}

/// Checks a round's sampled concurrent reads against the sequential
/// truth. A sample from the replayed part of the window whose generation
/// the replay never published is itself a failure: the reader saw a state
/// that does not exist.
pub fn verify_samples(samples: &[Sample], replay: &Replay, ledger: &mut Ledger) {
    for s in samples.iter().filter(|s| s.version <= replay.last_version) {
        match replay.answers.get(&(s.version, s.op)) {
            Some(&want) => ledger.check(s.hash == want, || {
                format!(
                    "concurrent read of {:?} pinned at version {} differs from the sequential \
                     replay",
                    s.op, s.version
                )
            }),
            None => ledger.fail(|| {
                format!(
                    "concurrent read pinned version {}, which the sequential replay never \
                     published",
                    s.version
                )
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(version: u64, hash: u64) -> Sample {
        Sample {
            version,
            op: ReadOp::Workload(0),
            hash,
        }
    }

    #[test]
    fn samples_are_checked_only_inside_the_replayed_part_of_the_window() {
        let replay = Replay {
            answers: HashMap::from([
                ((8, ReadOp::Workload(0)), 1),
                ((16, ReadOp::Workload(0)), 2),
            ]),
            last_version: 16,
        };
        let mut ledger = Ledger::default();
        // Right hash, wrong hash, a generation that never existed, and a
        // generation past the replay (not checked at all).
        verify_samples(
            &[sample(8, 1), sample(16, 7), sample(12, 1), sample(24, 9)],
            &replay,
            &mut ledger,
        );
        assert_eq!((ledger.attempted, ledger.failed), (3, 2));
    }

    #[test]
    fn ledger_keeps_counting_after_it_stops_keeping_messages() {
        let mut ledger = Ledger::default();
        for i in 0..20 {
            ledger.check(i % 2 == 0, || format!("odd {i}"));
        }
        assert_eq!((ledger.attempted, ledger.failed), (20, 10));
        assert_eq!(ledger.messages.len(), 8);
    }
}
