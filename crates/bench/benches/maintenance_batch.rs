//! Set-at-a-time maintenance: delta-set joins vs the per-triple delta rule.
//!
//! The paper's VMC term prices the delta tuples each view gains per
//! update. This bench deploys a recommendation, then streams the same
//! insertion + deletion feed through `Deployment::insert_batch` /
//! `delete_batch` at batch sizes 1 / 32 / 1024. Batch size 1 *is* the
//! classic per-triple delta rule (the wrappers are delegates), so the
//! comparison is apples-to-apples on one code path. Two contracts are
//! asserted at every size:
//!
//! 1. **identical final view tables** — every workload answer and the
//!    total row/cell counts match the per-triple run;
//! 2. **no extra work** — batched `delta_tuples` ≤ per-triple
//!    `delta_tuples` (the delta-set join dedups tuples derivable from
//!    several batch triples), and `batches` counts exactly one
//!    maintenance pass per chunk.
//!
//! Smoke mode (`RDFVIEWS_SMOKE=1` or `--smoke`) shrinks the data so CI
//! finishes in a fraction of a second; the assertions still run.

use std::time::Instant;

use rdfviews::exec::Deployment;
use rdfviews::model::Triple;
use rdfviews::prelude::*;
use rdfviews_bench::Table;

/// One full feed run at a given batch size: insert phase then a deletion
/// phase retracting every third triple.
struct RunResult {
    insert: MaintenanceStats,
    delete: MaintenanceStats,
    wall: f64,
    answers: Vec<Answers>,
    total_rows: usize,
    total_cells: usize,
}

fn run_at(
    pristine: &Deployment,
    feed: &[Triple],
    retractions: &[Triple],
    size: usize,
    query_count: usize,
) -> RunResult {
    let mut dep = pristine.clone();
    let t0 = Instant::now();
    let mut insert = MaintenanceStats::default();
    for chunk in feed.chunks(size) {
        insert.merge(dep.insert_batch(chunk));
    }
    let mut delete = MaintenanceStats::default();
    for chunk in retractions.chunks(size) {
        delete.merge(dep.delete_batch(chunk));
    }
    let wall = t0.elapsed().as_secs_f64();
    let snap = dep.snapshot();
    let answers = (0..query_count)
        .map(|qi| snap.answer(qi).expect("maintained deployment answers"))
        .collect();
    RunResult {
        insert,
        delete,
        wall,
        total_rows: snap.tables().total_rows(),
        total_cells: snap.tables().total_cells(),
        answers,
    }
}

fn main() {
    let smoke = std::env::var("RDFVIEWS_SMOKE").is_ok() || std::env::args().any(|a| a == "--smoke");
    let (data_triples, feed_triples) = if smoke { (1_500, 300) } else { (6_000, 2_048) };

    // -- Dataset, workload, recommendation, pristine deployment. ----------
    let mut db = Dataset::new();
    let spec = rdfviews::workload::WorkloadSpec::new(3, 4, Shape::Chain, Commonality::High);
    let workload = generate_workload(&spec, db.dict_mut());
    let (mut dict, mut store) = db.into_parts();
    rdfviews::workload::generate_matching_data(&spec, &mut dict, &mut store, data_triples);
    let db = Dataset::from_parts(dict, store);

    let mut advisor = Advisor::builder(&db).build().expect("plain advisor");
    let rec = advisor.recommend(&workload).expect("recommendation");
    let pristine = advisor.deploy(rec).expect("fresh session deploys");
    println!(
        "# maintenance_batch: {} base triples, {} views, {} workload queries{}",
        db.len(),
        pristine.view_count(),
        workload.len(),
        if smoke { " [smoke]" } else { "" },
    );

    // -- The update feed (fresh triples over the same vocabulary). --------
    let feed: Vec<Triple> = {
        let mut feed_store = rdfviews::model::TripleStore::new();
        let mut feed_spec = spec.clone();
        feed_spec.seed = 0xfeed;
        let mut dict = db.dict().clone();
        rdfviews::workload::generate_matching_data(
            &feed_spec,
            &mut dict,
            &mut feed_store,
            feed_triples,
        );
        feed_store
            .triples()
            .iter()
            .copied()
            .filter(|t| !pristine.store().contains(*t))
            .collect()
    };
    let retractions: Vec<Triple> = feed.iter().copied().step_by(3).collect();
    println!(
        "# feed: {} insertions, then {} retractions\n",
        feed.len(),
        retractions.len()
    );

    let table = Table::new(
        &[
            "batch",
            "wall (s)",
            "ins Δ-tuples",
            "del Δ-tuples",
            "passes",
            "speedup",
        ],
        &[6, 9, 13, 13, 7, 7],
    );
    let mut summary: Vec<(String, f64)> = Vec::new();
    let mut baseline: Option<RunResult> = None;
    for &size in &[1usize, 32, 1024] {
        let run = run_at(&pristine, &feed, &retractions, size, workload.len());
        let expected_passes = feed.len().div_ceil(size) + retractions.len().div_ceil(size);
        assert_eq!(
            run.insert.batches + run.delete.batches,
            expected_passes,
            "one maintenance pass per chunk at batch size {size}"
        );
        let speedup = match &baseline {
            None => 1.0,
            Some(base) => {
                // Contract 1: identical final view tables at every size.
                assert_eq!(run.answers, base.answers, "answers diverged at {size}");
                assert_eq!(run.total_rows, base.total_rows);
                assert_eq!(run.total_cells, base.total_cells);
                // Contract 2: the delta-set join never does more work
                // than the per-triple rule.
                assert!(
                    run.insert.delta_tuples <= base.insert.delta_tuples,
                    "insert Δ at {size}: {} vs per-triple {}",
                    run.insert.delta_tuples,
                    base.insert.delta_tuples
                );
                assert!(
                    run.delete.delta_tuples <= base.delete.delta_tuples,
                    "delete Δ at {size}: {} vs per-triple {}",
                    run.delete.delta_tuples,
                    base.delete.delta_tuples
                );
                assert_eq!(run.insert.added, base.insert.added);
                assert_eq!(run.delete.removed, base.delete.removed);
                base.wall / run.wall.max(1e-9)
            }
        };
        table.row(&[
            &size.to_string(),
            &format!("{:.3}", run.wall),
            &run.insert.delta_tuples.to_string(),
            &run.delete.delta_tuples.to_string(),
            &(run.insert.batches + run.delete.batches).to_string(),
            &format!("{speedup:.2}x"),
        ]);
        summary.push((format!("wall_batch{size}_s"), run.wall));
        summary.push((
            format!("delta_tuples_batch{size}"),
            (run.insert.delta_tuples + run.delete.delta_tuples) as f64,
        ));
        if baseline.is_none() {
            baseline = Some(run);
        }
    }
    summary.push(("feed_triples".to_string(), feed.len() as f64));
    let metrics: Vec<(&str, f64)> = summary.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    rdfviews_bench::emit_bench_json("maintenance_batch", &metrics);
    println!("\n# batched and per-triple maintenance converge to identical views ✓");
}
