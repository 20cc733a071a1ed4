//! The triple orders that loading and saturation produce, pinned to
//! constants. The order of `TripleStore::triples()` is an input, not an
//! implementation detail: the N-Triples writer emits the list as it lies
//! (so it decides the text the benchmark hashes and cuts its feed from),
//! the satisfiable query generator draws triples by position, and the
//! implicit triples follow the saturation worklist's derivation order. A
//! change to how the loaders batch or how the worklist checks membership
//! must leave all of these exactly where they were.

use rdf_model::{ntriples, Dictionary, Triple, TripleStore};
use rdfviews_workload::{
    generate_barton, generate_matching_data, BartonSpec, Commonality, Shape, WorkloadSpec,
};

/// Length and 64-bit FNV-1a over the little-endian ids, in list order.
fn fingerprint(triples: &[Triple]) -> (usize, u64) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for id in triples.iter().flatten() {
        for byte in id.0.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    (triples.len(), hash)
}

#[test]
fn loader_and_saturation_orders_match_the_recorded_constants() {
    // The benchmark's reference draw for its 80k-triple workloads.
    let d = generate_barton(&BartonSpec {
        resources: 2_000,
        triples: 80_000,
        seed: 4,
        ..BartonSpec::default()
    });
    let explicit = d.db.store().triples();

    let mut saturated = d.db.store().clone();
    rdf_schema::saturate(&mut saturated, &d.schema, &d.vocab);
    assert_eq!(&saturated.triples()[..explicit.len()], explicit);
    let implicit = &saturated.triples()[explicit.len()..];

    let mut text = Vec::new();
    ntriples::write_dataset(&d.db, &mut text).expect("write to memory");
    let text = String::from_utf8(text).expect("the writer emits UTF-8");
    let parsed = ntriples::parse_dataset(&text).expect("the writer's output parses");

    let mut dict = Dictionary::new();
    let mut matching = TripleStore::new();
    let spec = WorkloadSpec::new(8, 4, Shape::Chain, Commonality::High);
    generate_matching_data(&spec, &mut dict, &mut matching, 5_000);

    // Recorded from the loaders' per-triple inserts and the hash-set
    // worklist, before membership moved to the `Spo` run.
    assert_eq!(fingerprint(explicit), (79_839, 15_403_442_912_927_507_958));
    assert_eq!(fingerprint(implicit), (89_153, 11_640_814_969_571_099_697));
    assert_eq!(
        fingerprint(parsed.store().triples()),
        (79_839, 9_467_028_547_541_698_920)
    );
    assert_eq!(
        fingerprint(matching.triples()),
        (4_554, 6_380_034_292_075_045_512)
    );
}
