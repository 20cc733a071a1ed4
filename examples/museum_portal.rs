//! A cultural-heritage portal with RDFS reasoning: the recommended views
//! must contain the *implicit* triples too, or the portal would silently
//! lose answers (Section 4 of the paper).
//!
//! The example contrasts the three entailment strategies: saturation,
//! pre-reformulation and the paper's post-reformulation — one advisor
//! session per mode — and checks that all three deployments return
//! complete answers. (Deployment picks the right materialization store
//! automatically: the session's cached saturated copy under saturation,
//! the original store under the reformulation modes.)
//!
//! Run with: `cargo run --example museum_portal`

use rdfviews::prelude::*;

fn main() -> Result<(), SelectionError> {
    // -- 1. Museum data with an RDFS. -------------------------------------
    let mut db = Dataset::new();
    let vocab = VocabIds::intern(db.dict_mut());
    let painting = db.dict_mut().intern_uri("museum:Painting");
    let picture = db.dict_mut().intern_uri("museum:Picture");
    let artwork = db.dict_mut().intern_uri("museum:Artwork");
    let exhibited_in = db.dict_mut().intern_uri("museum:exhibitedIn");
    let located_in = db.dict_mut().intern_uri("museum:locatedIn");

    // Painting ⊑ Picture ⊑ Artwork; exhibitedIn ⊑ locatedIn;
    // domain(locatedIn) = Artwork.
    let mut schema = Schema::new();
    schema.add(SchemaStatement::SubClassOf(painting, picture));
    schema.add(SchemaStatement::SubClassOf(picture, artwork));
    schema.add(SchemaStatement::SubPropertyOf(exhibited_in, located_in));
    schema.add(SchemaStatement::Domain(located_in, artwork));

    for i in 0..60 {
        let item = db.dict_mut().intern_uri(&format!("museum:item{i}"));
        let class = match i % 3 {
            0 => painting,
            1 => picture,
            _ => artwork,
        };
        db.store_mut().insert([item, vocab.rdf_type, class]);
        let site = db.dict_mut().intern_uri(&format!("museum:site{}", i % 5));
        let prop = if i % 2 == 0 { exhibited_in } else { located_in };
        db.store_mut().insert([item, prop, site]);
    }
    println!("explicit triples: {}", db.len());

    // -- 2. The portal's workload. ----------------------------------------
    // "Every picture and where it is located" — the answers must include
    // paintings (subclass) and exhibited items (subproperty).
    let q = parse_query(
        "q(X, W) :- t(X, rdf:type, <museum:Picture>), t(X, <museum:locatedIn>, W)",
        db.dict_mut(),
    )
    .expect("valid query");
    let workload = vec![q.query];

    // Ground truth: evaluate on a saturated copy.
    let saturated = rdfviews::schema::saturated_copy(db.store(), &schema, &vocab);
    println!(
        "saturated triples: {} (+{} implicit)",
        saturated.len(),
        saturated.len() - db.len()
    );
    let truth = evaluate(&saturated, &workload[0]);
    println!("complete answers: {}", truth.len());

    // A misconfigured session fails fast instead of panicking mid-search.
    let err = Advisor::builder(&db)
        .reasoning(ReasoningMode::Saturation)
        .build()
        .unwrap_err();
    println!("(without a schema: {err})");

    // -- 3. Compare the three entailment strategies. ----------------------
    for mode in [
        ReasoningMode::Saturation,
        ReasoningMode::PreReformulation,
        ReasoningMode::PostReformulation,
    ] {
        let mut advisor = Advisor::builder(&db)
            .schema(&schema, &vocab)
            .reasoning(mode)
            .build()?;
        let rec = advisor.recommend(&workload)?;
        let view_count = rec.views.len();
        let rcr = rec.rcr();
        let snapshot = advisor.deploy(rec).snapshot();
        let answers = snapshot.answer(0)?;
        println!(
            "{mode:?}: {} views, {} rows materialized, rcr {:.2}, answers {}",
            view_count,
            snapshot.tables().total_rows(),
            rcr,
            answers.len()
        );
        assert_eq!(answers, truth, "{mode:?} must return the complete answers");
    }
    println!("\nall three strategies return the complete answers ✓");
    Ok(())
}
