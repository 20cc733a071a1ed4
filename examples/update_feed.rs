//! Keeping recommended views fresh under an update feed — set-at-a-time.
//!
//! The paper's cost model charges every view `f^len(v)` maintenance cost
//! per update (Section 3.3). This example closes the loop: it selects
//! views, deploys them, and streams insertions *and deletions* into the
//! deployment as **batches** — each batch runs one saturation fixpoint and
//! one delta-set join per view (Δv = ⋃ᵢ π_head(a₁ ⋈ … ⋈ Δaᵢ ⋈ … ⋈ aₙ))
//! instead of one pass per triple. A per-triple control deployment absorbs
//! the same feed one triple at a time, so the run prints the measured
//! delta-tuple and pass savings of batching.
//!
//! Run with: `cargo run --release --example update_feed`

use rdfviews::engine::evaluate;
use rdfviews::model::Triple;
use rdfviews::prelude::*;

fn main() -> Result<(), SelectionError> {
    // -- 1. Base data + workload + view selection. ------------------------
    let mut db = Dataset::new();
    let spec = rdfviews::workload::WorkloadSpec::new(3, 4, Shape::Chain, Commonality::High);
    let workload = generate_workload(&spec, db.dict_mut());
    let (mut dict, mut store) = db.into_parts();
    rdfviews::workload::generate_matching_data(&spec, &mut dict, &mut store, 3_000);
    let mut db = Dataset::from_parts(dict, store);

    let mut advisor = Advisor::builder(&db).build()?;
    let rec = advisor.recommend(&workload)?;
    println!("selected {} views (rcr {:.3})", rec.views.len(), rec.rcr());

    // -- 2. Deploy twice: one batched, one per-triple control. ------------
    let mut deployment = advisor.deploy(rec);
    let mut per_triple = deployment.clone();
    let initial_rows = deployment.snapshot().tables().total_rows();
    println!(
        "deployed {initial_rows} rows across {} views",
        deployment.view_count()
    );

    // -- 3. Stream insertions as one batch vs one at a time. --------------
    let feed: Vec<Triple> = {
        let mut feed_store = rdfviews::model::TripleStore::new();
        let mut feed_spec = spec.clone();
        feed_spec.seed = 0xfeed;
        let mut dict = db.dict().clone();
        rdfviews::workload::generate_matching_data(&feed_spec, &mut dict, &mut feed_store, 400);
        *db.dict_mut() = dict;
        feed_store
            .triples()
            .iter()
            .copied()
            .filter(|t| !deployment.store().contains(*t))
            .collect()
    };
    println!("\napplying {} insertions …", feed.len());
    let batched = deployment.insert_batch(&feed);
    let mut single = MaintenanceStats::default();
    for &t in &feed {
        single.merge(per_triple.insert(t));
    }
    println!(
        "  batched   : {} delta tuples, {} rows added, {} maintenance pass(es)",
        batched.delta_tuples, batched.added, batched.batches
    );
    println!(
        "  per-triple: {} delta tuples, {} rows added, {} maintenance passes",
        single.delta_tuples, single.added, single.batches
    );
    let savings = 100.0 * (1.0 - batched.delta_tuples as f64 / single.delta_tuples.max(1) as f64);
    println!(
        "  → the delta-set join saved {savings:.1}% of the delta tuples and \
         {} of {} passes",
        single.batches - batched.batches,
        single.batches
    );
    assert!(batched.delta_tuples <= single.delta_tuples);
    assert_eq!(batched.added, single.added);

    // -- 4. Retract part of the feed again (batched delete-and-rederive),
    //       serving reads from a pinned snapshot throughout. ---------------
    // Pin the post-insertion generation: a front end keeps answering from
    // it — same answers, wait-free — while the maintenance batch below
    // builds and publishes the next generation.
    let pinned = deployment.snapshot();
    let pinned_answers = pinned.answer(0)?;
    let retractions: Vec<Triple> = feed.iter().copied().step_by(3).collect();
    let bdel = deployment.delete_batch(&retractions);
    let live = deployment.snapshot();
    println!(
        "\nsnapshot reads across the maintenance batch: pinned generation v{} \
         still serves {} answers; live generation v{} serves {}",
        pinned.version(),
        pinned.answer(0)?.len(),
        live.version(),
        live.answer(0)?.len(),
    );
    assert_eq!(
        pinned.answer(0)?,
        pinned_answers,
        "pinned snapshot answers changed under a concurrent delete batch"
    );
    assert!(pinned.version() < live.version());
    let mut sdel = MaintenanceStats::default();
    for &t in &retractions {
        sdel.merge(per_triple.delete(t));
    }
    println!(
        "\nretracted every third insertion — batched: {} candidates re-derived in \
         {} pass(es); per-triple: {} candidates in {} passes",
        bdel.delta_tuples, bdel.batches, sdel.delta_tuples, sdel.batches
    );
    assert!(bdel.delta_tuples <= sdel.delta_tuples);
    assert_eq!(bdel.removed, sdel.removed);

    // -- 5. Both deployments still answer the workload exactly. -----------
    let control = per_triple.snapshot();
    for qi in 0..workload.len() {
        let from_views = live.answer(qi)?;
        let direct = evaluate(
            deployment.store(),
            &deployment.recommendation().workload[qi],
        );
        assert_eq!(from_views, direct, "query {qi} diverged after maintenance");
        assert_eq!(
            from_views,
            control.answer(qi)?,
            "batched and per-triple deployments diverged on query {qi}"
        );
        println!(
            "q{qi}: {} answers ✓ (views ≡ base after updates)",
            direct.len()
        );
    }
    println!("\nall views stayed consistent through the batched update feed ✓");
    Ok(())
}
