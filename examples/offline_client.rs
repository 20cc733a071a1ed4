//! Three-tier / offline deployment (the paper's Section 1 motivation):
//! the client receives only the deployed views and answers its whole
//! workload without ever connecting to the database server.
//!
//! Uses a Barton-like dataset and a satisfiable workload, then measures
//! view footprint and per-query latency of views vs the triple table
//! (the flavor of the paper's Figure 8). Finally ships the deployment to
//! the client as a **snapshot bundle** on disk and answers the workload
//! again from the reopened copy — the offline story made literal: the
//! client machine gets a directory, not a database connection.
//!
//! Run with: `cargo run --release --example offline_client`

use std::time::Instant;

use rdfviews::prelude::*;

fn main() -> Result<(), SelectionError> {
    // -- 1. The server side: data + workload. ----------------------------
    let data = generate_barton(&BartonSpec::default().with_size(3_000, 30_000));
    println!(
        "dataset: {} triples, schema: {} statements",
        data.db.len(),
        data.schema.len()
    );

    let workload = generate_satisfiable(&data.db, &SatisfiableSpec::new(5, 4, Shape::Mixed));
    for (i, q) in workload.iter().enumerate() {
        println!(
            "q{i}: {}",
            rdfviews::query::display::query_to_string(&format!("q{i}"), q, data.db.dict())
        );
    }

    // -- 2. The advisor session: select and deploy the views. ------------
    let started = Instant::now();
    let mut advisor = Advisor::builder(&data.db)
        .schema(&data.schema, &data.vocab)
        .reasoning(ReasoningMode::PostReformulation)
        .budget(std::time::Duration::from_secs(5))
        .build()?;
    let rec = advisor.recommend(&workload)?;
    println!(
        "\nsearch: {:.2}s, rcr {:.3}, {} views recommended",
        started.elapsed().as_secs_f64(),
        rec.rcr(),
        rec.views.len()
    );

    let started = Instant::now();
    let client = advisor.deploy(rec);
    let served = client.snapshot();
    println!(
        "deployed {} views / {} rows in {:.2}s — this is ALL the client needs",
        client.view_count(),
        served.tables().total_rows(),
        started.elapsed().as_secs_f64()
    );
    let view_cells = served.tables().total_cells();
    let base_cells = data.db.len() * 3;
    println!(
        "client footprint: {view_cells} cells vs {base_cells} cells in the full triple table \
         ({:.1}%)",
        100.0 * view_cells as f64 / base_cells as f64
    );

    // -- 3. The client side: answer everything from the views. -----------
    // Ground truth comes from the saturated database (complete answers).
    let saturated = rdfviews::schema::saturated_copy(data.db.store(), &data.schema, &data.vocab);
    println!("\nper-query latency (views vs saturated triple table):");
    for i in 0..workload.len() {
        let t0 = Instant::now();
        let offline = served.answer(i)?;
        let t_views = t0.elapsed();
        let t0 = Instant::now();
        let direct = evaluate(&saturated, &client.recommendation().workload[i]);
        let t_direct = t0.elapsed();
        assert_eq!(offline, direct, "offline answers must be complete");
        println!(
            "  q{i}: {} answers | views {:>8.1?} | triple table {:>8.1?}",
            offline.len(),
            t_views,
            t_direct
        );
    }
    println!("\nall workload queries answered offline, completely ✓");

    // -- 4. Ship it: persist the deployment, reopen it "on the client". --
    let dir = std::env::temp_dir().join(format!("rdfviews-offline-client-{}", std::process::id()));
    let started = Instant::now();
    let hash = client.persist(&dir, data.db.dict())?;
    let bundle_bytes = std::fs::metadata(dir.join(rdfviews::exec::SNAPSHOT_FILE))
        .map(|m| m.len())
        .unwrap_or(0);
    println!(
        "\npersisted the deployment: {bundle_bytes} bytes in {:.2}s, content hash {hash:032x}",
        started.elapsed().as_secs_f64()
    );

    let started = Instant::now();
    let (shipped, shipped_dict) = Deployment::open(&dir)?;
    println!(
        "reopened it in {:.2}s — every byte checksummed on the way in",
        started.elapsed().as_secs_f64()
    );
    assert_eq!(shipped.content_hash(&shipped_dict)?, hash);
    let reopened = shipped.snapshot();
    for i in 0..workload.len() {
        assert_eq!(
            reopened.answer(i)?,
            served.answer(i)?,
            "the shipped deployment must answer exactly like the live one"
        );
    }
    println!("the round-tripped deployment answers the whole workload identically ✓");
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
