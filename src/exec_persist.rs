//! Durable deployments: snapshot bundles, the write-ahead log, and
//! deterministic replay recovery.
//!
//! A deployment directory holds two artifacts:
//!
//! * **`snapshot.rdfb`** — a [`rdfviews_durability::bundle`] serializing
//!   the complete deployment: dictionary, base store at its version, the
//!   recommendation (workload, search outcome, views, materialization
//!   definitions, statistics catalog), the maintained view rows per
//!   branch, the entailment/reformulation context, and the lineage id.
//!   Written atomically (temp file + fsync + rename).
//! * **`wal.rdfl`** — a [`rdfviews_durability::wal`] of every
//!   `insert_batch`/`delete_batch` applied since the snapshot. Records are
//!   CRC-framed, stamped with the pre-apply store version, and fsync'd
//!   **before** the in-memory apply, so a crash at any instant loses at
//!   most an un-applied (and un-acknowledged) batch.
//!
//! The bundle records the **state, not the history**. Triples and view
//! rows — nearly all of its bytes — are sets, so they are written in their
//! one sorted order and, being sorted, as small differences:
//!
//! * a store is its version, its count and its `Spo` run as LEB128
//!   varints, each triple against the one before it: Δs; then p and o
//!   whole if s moved, else Δp; then o whole if p moved, else Δo, which is
//!   then at least 1 (the first triple is written as if s moved);
//! * the explicit store of a saturation deployment is a subset of the
//!   saturated one, so it is its version, its count and one bit per triple
//!   of the saturated run;
//! * a view branch's rows are written in order, the first column as a
//!   difference from the row before, the others whole.
//!
//! The other sets are written in one order too: catalog entries by their
//! key bytes, a state's views by id.
//!
//! The encoding is a bijection between states and byte strings, and the
//! decoder is total. Each of these is a [`SelectionError::CorruptBundle`],
//! so every accepted file re-encodes to itself:
//!
//! * an id outside the dictionary — in the store, a view row, a query,
//!   view or rewriting constant, a schema statement, the vocabulary, a
//!   catalog key or a catalog bound;
//! * a sum that overflows, or a varint in anything but its shortest form;
//! * a triple, row, catalog key or state view that does not sort strictly
//!   after its predecessor, and a schema statement written twice;
//! * a set padding bit, or a bit count that disagrees with the stored
//!   count.
//!
//! Two deployments that reach the same triples and rows by different
//! histories therefore write the same bytes and have the same state hash.
//!
//! Recovery ([`Deployment::recover`]) decodes the snapshot and replays the
//! WAL suffix through the set-at-a-time maintenance core the live
//! deployment runs — the same joins, the same entailment deltas — before
//! the first publish: no generation pins the decoded store while the log
//! replays, so a record copies no run or list that it replaces, and the
//! view tables are assembled once, at the end. Replay is
//! *deterministic*: the recovered state reproduces the pre-crash state
//! bit-for-bit, proven by the 128-bit **state hash** (domain
//! `rdfviews.state.v3`, over the canonical semantic sections). Torn tail
//! records are dropped gracefully; records already absorbed by a newer
//! snapshot (a crash between checkpoint and WAL reset) are skipped by
//! their version stamps.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use rdf_model::{Id, IndexOrder, Term, TermKind};
use rdf_query::{Atom, QTerm, UnionQuery, Var};
use rdf_schema::SchemaStatement;
use rdf_stats::{AtomKey, KeySlot, StatsCatalog};
use rdfviews_core::{RewAtom, Rewriting, SearchOutcome, SearchStats, View};
use rdfviews_durability::hash::Hasher128;
use rdfviews_durability::wire::{Reader, Writer};
use rdfviews_durability::{bundle, fsutil, wal, DurabilityError};

use super::*;

/// File name of the snapshot bundle inside a deployment directory.
pub const SNAPSHOT_FILE: &str = "snapshot.rdfb";
/// File name of the write-ahead log inside a deployment directory.
pub const WAL_FILE: &str = "wal.rdfl";

/// Domain string of the semantic state hash (see [`Deployment::content_hash`]).
const STATE_DOMAIN: &str = "rdfviews.state.v3";

// Section tags, in their required file order.
const SEC_DICT: u32 = 1;
const SEC_STORE: u32 = 2;
const SEC_REC: u32 = 3;
const SEC_VIEWS: u32 = 4;
const SEC_ENTAIL: u32 = 5;
const SEC_REFORM: u32 = 6;
const SEC_META: u32 = 7;
const SECTION_ORDER: [u32; 7] = [
    SEC_DICT, SEC_STORE, SEC_REC, SEC_VIEWS, SEC_ENTAIL, SEC_REFORM, SEC_META,
];

fn lift(e: DurabilityError) -> SelectionError {
    match e {
        DurabilityError::Io { context, message } => SelectionError::Io { context, message },
        DurabilityError::Corrupt { detail } => SelectionError::CorruptBundle { detail },
        DurabilityError::TornTail { offset } => SelectionError::WalTornTail { offset },
    }
}

fn corrupt(detail: impl Into<String>) -> DurabilityError {
    DurabilityError::Corrupt {
        detail: detail.into(),
    }
}

type DResult<T> = Result<T, DurabilityError>;

// ---------------------------------------------------------------------
// Canonical encoding of the domain types. Sets are written in sorted
// order (triples and view rows are kept that way; catalog counts are
// sorted here) so that equal states always produce equal bytes — the
// property the state hash relies on.
// ---------------------------------------------------------------------

/// Writes `items` behind their count.
fn enc_seq<T>(w: &mut Writer, items: &[T], mut enc: impl FnMut(&mut Writer, &T)) {
    w.len_prefix(items.len());
    for item in items {
        enc(w, item);
    }
}

/// Reads a count, then that many items with `dec`; each item takes at
/// least `min_bytes`, which bounds the count by the bytes left.
fn dec_seq<T>(
    r: &mut Reader<'_>,
    what: &str,
    min_bytes: usize,
    mut dec: impl FnMut(&mut Reader<'_>) -> DResult<T>,
) -> DResult<Vec<T>> {
    let n = r.len_prefix(what, min_bytes)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(dec(r)?);
    }
    Ok(items)
}

fn enc_term(w: &mut Writer, t: &Term) {
    w.u8(match t.kind() {
        TermKind::Uri => 0,
        TermKind::Blank => 1,
        TermKind::Literal => 2,
    });
    w.str(t.lexical());
}

fn dec_term(r: &mut Reader<'_>) -> DResult<Term> {
    let kind = r.u8("term kind")?;
    let lex = r.str("term lexical")?;
    Ok(match kind {
        0 => Term::uri(lex),
        1 => Term::blank(lex),
        2 => Term::literal(lex),
        other => return Err(corrupt(format!("unknown term kind {other}"))),
    })
}

fn enc_dict_into(w: &mut Writer, dict: &Dictionary) {
    w.len_prefix(dict.len());
    for (_, term) in dict.iter() {
        enc_term(w, term);
    }
}

fn dec_dict(bytes: &[u8]) -> DResult<Dictionary> {
    let mut r = Reader::new(bytes);
    let n = r.len_prefix("dictionary size", 2)?;
    let mut dict = Dictionary::new();
    for i in 0..n {
        let term = dec_term(&mut r)?;
        let id = dict.intern(term);
        if id.index() != i {
            return Err(corrupt(format!(
                "dictionary entry {i} is a duplicate of id {}",
                id.index()
            )));
        }
    }
    r.expect_exhausted("dictionary section")?;
    Ok(dict)
}

/// Reads one varint and adds it to `base`: an id, which must fall inside
/// the dictionary.
fn dec_id(r: &mut Reader<'_>, base: Id, dict_len: usize, what: &str) -> DResult<Id> {
    let delta = r.varint(what)?;
    u64::from(base.0)
        .checked_add(delta)
        .filter(|&id| id < dict_len as u64)
        .and_then(|id| u32::try_from(id).ok())
        .map(Id)
        .ok_or_else(|| {
            corrupt(format!(
                "{what}: {} + {delta} is outside the dictionary of {dict_len} terms",
                base.0
            ))
        })
}

/// Reads a fixed-width id, which must fall inside the dictionary.
fn dec_known_id(r: &mut Reader<'_>, dict_len: usize, what: &str) -> DResult<Id> {
    let id = r.u32(what)?;
    if (id as usize) < dict_len {
        Ok(Id(id))
    } else {
        Err(corrupt(format!(
            "{what}: id {id} is outside the dictionary of {dict_len} terms"
        )))
    }
}

/// Writes a strictly `Spo`-sorted run, each triple as its difference from
/// the one before: Δs; p and o whole if s moved, else Δp; o whole if p
/// moved, else Δo. The first triple is written as if s moved.
fn enc_run_into(w: &mut Writer, run: &[Triple]) {
    let mut prev: Option<Triple> = None;
    for &[s, p, o] in run {
        match prev {
            Some([ps, pp, po]) if ps == s => {
                w.varint(0);
                w.varint(u64::from(p.0 - pp.0));
                w.varint(u64::from(if pp == p { o.0 - po.0 } else { o.0 }));
            }
            _ => {
                w.varint(u64::from(s.0 - prev.map_or(0, |t| t[0].0)));
                w.varint(u64::from(p.0));
                w.varint(u64::from(o.0));
            }
        }
        prev = Some([s, p, o]);
    }
}

/// Reads back `n` triples of [`enc_run_into`]; strictly increasing by
/// construction, every id checked against the dictionary.
fn dec_run(r: &mut Reader<'_>, n: usize, dict_len: usize) -> DResult<Vec<Triple>> {
    const ZERO: Id = Id(0);
    let mut run: Vec<Triple> = Vec::with_capacity(n);
    for _ in 0..n {
        let [ps, pp, po] = run.last().copied().unwrap_or([ZERO; 3]);
        let s = dec_id(r, ps, dict_len, "triple subject")?;
        let t = if run.is_empty() || s != ps {
            let p = dec_id(r, ZERO, dict_len, "triple property")?;
            [s, p, dec_id(r, ZERO, dict_len, "triple object")?]
        } else {
            let p = dec_id(r, pp, dict_len, "triple property")?;
            if p != pp {
                [s, p, dec_id(r, ZERO, dict_len, "triple object")?]
            } else {
                let o = dec_id(r, po, dict_len, "triple object")?;
                if o == po {
                    return Err(corrupt("store run repeats a triple"));
                }
                [s, p, o]
            }
        };
        run.push(t);
    }
    Ok(run)
}

fn enc_store_into(w: &mut Writer, store: &TripleStore) {
    w.u64(store.version());
    w.len_prefix(store.len());
    enc_run_into(w, &store.index(IndexOrder::Spo));
}

fn dec_store(r: &mut Reader<'_>, dict_len: usize) -> DResult<TripleStore> {
    let version = r.u64("store version")?;
    // Three varints a triple, a byte each at least.
    let n = r.len_prefix("store triple count", 3)?;
    Ok(TripleStore::from_parts(dec_run(r, n, dict_len)?, version))
}

/// Writes `explicit` — a subset of the store whose `Spo` run is `run` —
/// as its version, its count and one bit per triple of `run`, low bit
/// first. The subset relation is the saturation deployment's invariant;
/// should it not hold the bundle could not be read back, so it is refused
/// here.
fn enc_subset_into(w: &mut Writer, explicit: &TripleStore, run: &[Triple]) -> DResult<()> {
    w.u64(explicit.version());
    w.len_prefix(explicit.len());
    let members = explicit.index(IndexOrder::Spo);
    let mut members = members.iter().peekable();
    let mut bits = vec![0u8; run.len().div_ceil(8)];
    for (i, t) in run.iter().enumerate() {
        if members.next_if_eq(&t).is_some() {
            bits[i / 8] |= 1 << (i % 8);
        }
    }
    if let Some(stray) = members.next() {
        return Err(corrupt(format!(
            "explicit triple {stray:?} is missing from the saturated store"
        )));
    }
    w.raw(&bits);
    Ok(())
}

fn dec_subset(r: &mut Reader<'_>, run: &[Triple]) -> DResult<TripleStore> {
    let version = r.u64("explicit store version")?;
    let n = r.len_prefix("explicit triple count", 0)?;
    let bits = r.raw(run.len().div_ceil(8), "explicit store bitmap")?;
    let members: Vec<Triple> = run
        .iter()
        .enumerate()
        .filter(|(i, _)| bits[i / 8] >> (i % 8) & 1 == 1)
        .map(|(_, &t)| t)
        .collect();
    let set_bits: u64 = bits.iter().map(|b| u64::from(b.count_ones())).sum();
    if set_bits != members.len() as u64 {
        return Err(corrupt("explicit store bitmap has padding bits set"));
    }
    if members.len() != n {
        return Err(corrupt(format!(
            "explicit store bitmap marks {} triples, its count says {n}",
            members.len()
        )));
    }
    Ok(TripleStore::from_parts(members, version))
}

fn enc_qterm(w: &mut Writer, t: QTerm) {
    match t {
        QTerm::Var(v) => {
            w.u8(0);
            w.u32(v.0);
        }
        QTerm::Const(c) => {
            w.u8(1);
            w.u32(c.0);
        }
    }
}

fn dec_qterm(r: &mut Reader<'_>, dict_len: usize) -> DResult<QTerm> {
    match r.u8("qterm tag")? {
        0 => Ok(QTerm::Var(Var(r.u32("qterm var")?))),
        1 => Ok(QTerm::Const(dec_known_id(r, dict_len, "qterm const")?)),
        other => Err(corrupt(format!("unknown qterm tag {other}"))),
    }
}

fn enc_atom(w: &mut Writer, a: &Atom) {
    for &t in a.terms() {
        enc_qterm(w, t);
    }
}

fn dec_atom(r: &mut Reader<'_>, dict_len: usize) -> DResult<Atom> {
    Ok(Atom([
        dec_qterm(r, dict_len)?,
        dec_qterm(r, dict_len)?,
        dec_qterm(r, dict_len)?,
    ]))
}

fn enc_cq(w: &mut Writer, q: &ConjunctiveQuery) {
    enc_seq(w, &q.head, |w, &t| enc_qterm(w, t));
    enc_seq(w, &q.atoms, enc_atom);
}

fn dec_cq(r: &mut Reader<'_>, dict_len: usize) -> DResult<ConjunctiveQuery> {
    let head = dec_seq(r, "query head", 5, |r| dec_qterm(r, dict_len))?;
    let atoms = dec_seq(r, "query atoms", 15, |r| dec_atom(r, dict_len))?;
    Ok(ConjunctiveQuery::new(head, atoms))
}

fn enc_view(w: &mut Writer, v: &View) {
    w.u32(v.id.0);
    enc_seq(w, &v.head, |w, h| w.u32(h.0));
    enc_seq(w, &v.atoms, enc_atom);
}

fn dec_view(r: &mut Reader<'_>, dict_len: usize) -> DResult<View> {
    let id = ViewId(r.u32("view id")?);
    let head = dec_seq(r, "view head", 4, |r| Ok(Var(r.u32("view head var")?)))?;
    let atoms = dec_seq(r, "view atoms", 15, |r| dec_atom(r, dict_len))?;
    Ok(View { id, head, atoms })
}

fn enc_rewriting(w: &mut Writer, rw: &Rewriting) {
    w.u64(rw.query_index as u64);
    enc_seq(w, &rw.head, |w, &t| enc_qterm(w, t));
    enc_seq(w, &rw.atoms, |w, a| {
        w.u32(a.view.0);
        enc_seq(w, &a.args, |w, &arg| enc_qterm(w, arg));
    });
    w.u32(rw.next_var());
}

fn dec_rewriting(r: &mut Reader<'_>, dict_len: usize) -> DResult<Rewriting> {
    let query_index = r.u64("rewriting query index")? as usize;
    let head = dec_seq(r, "rewriting head", 5, |r| dec_qterm(r, dict_len))?;
    let atoms = dec_seq(r, "rewriting atoms", 12, |r| {
        let view = ViewId(r.u32("rewriting atom view")?);
        let args = dec_seq(r, "rewriting atom args", 5, |r| dec_qterm(r, dict_len))?;
        Ok(RewAtom { view, args })
    })?;
    let next_var = r.u32("rewriting next_var")?;
    Ok(Rewriting::from_parts(query_index, head, atoms, next_var))
}

fn enc_state(w: &mut Writer, s: &State) {
    w.len_prefix(s.view_count());
    for v in s.views() {
        enc_view(w, v);
    }
    enc_seq(w, s.rewritings(), enc_rewriting);
    w.u32(s.next_view_id());
}

fn dec_state(r: &mut Reader<'_>, dict_len: usize) -> DResult<State> {
    let views = dec_seq(r, "state views", 20, |r| dec_view(r, dict_len))?;
    // A state keeps its views by id: written in id order, each once.
    if views.windows(2).any(|pair| pair[0].id >= pair[1].id) {
        return Err(corrupt(
            "state views are not in strictly increasing id order",
        ));
    }
    let rewritings = dec_seq(r, "state rewritings", 20, |r| dec_rewriting(r, dict_len))?;
    let next_view_id = r.u32("state next_view_id")?;
    Ok(State::from_parts(views, rewritings, next_view_id))
}

fn enc_stats(w: &mut Writer, s: &SearchStats) {
    w.u64(s.created);
    w.u64(s.duplicates);
    w.u64(s.discarded);
    w.u64(s.explored);
    w.u64(s.transitions);
    w.u64(s.reexpansions);
    w.u64(s.frontier_remaining);
    enc_seq(w, &s.best_cost_trace, |w, &(t, c)| {
        w.f64(t);
        w.f64(c);
    });
    w.bool(s.out_of_budget);
    w.bool(s.timed_out);
    w.u64(s.elapsed.as_secs());
    w.u32(s.elapsed.subsec_nanos());
}

fn dec_stats(r: &mut Reader<'_>) -> DResult<SearchStats> {
    let mut s = SearchStats {
        created: r.u64("stats created")?,
        duplicates: r.u64("stats duplicates")?,
        discarded: r.u64("stats discarded")?,
        explored: r.u64("stats explored")?,
        transitions: r.u64("stats transitions")?,
        reexpansions: r.u64("stats reexpansions")?,
        frontier_remaining: r.u64("stats frontier")?,
        ..SearchStats::default()
    };
    s.best_cost_trace = dec_seq(r, "stats trace", 16, |r| {
        Ok((r.f64("trace time")?, r.f64("trace cost")?))
    })?;
    s.out_of_budget = r.bool("stats out_of_budget")?;
    s.timed_out = r.bool("stats timed_out")?;
    let secs = r.u64("stats elapsed secs")?;
    let nanos = r.u32("stats elapsed nanos")?;
    if nanos >= 1_000_000_000 {
        return Err(corrupt("stats elapsed nanos out of range"));
    }
    s.elapsed = Duration::new(secs, nanos);
    Ok(s)
}

fn enc_catalog(w: &mut Writer, cat: &StatsCatalog) {
    // HashMap entries sorted by their encoded bytes (KeySlot has no Ord).
    let mut entries: Vec<Vec<u8>> = cat
        .counts()
        .map(|(key, count)| {
            let mut ew = Writer::new();
            for slot in key.0 {
                match slot {
                    KeySlot::Const(id) => {
                        ew.u8(0);
                        ew.u32(id.0);
                    }
                    KeySlot::Var(v) => {
                        ew.u8(1);
                        ew.u32(v as u32);
                    }
                }
            }
            ew.u64(count);
            ew.into_bytes()
        })
        .collect();
    entries.sort_unstable();
    enc_seq(w, &entries, |w, e| w.raw(e));
    w.u64(cat.dataset_size());
    for col in 0..3 {
        w.u64(cat.distinct(col));
    }
    match cat.min_max() {
        Some(mm) => {
            w.bool(true);
            for (lo, hi) in mm {
                w.u32(lo.0);
                w.u32(hi.0);
            }
        }
        None => w.bool(false),
    }
    for width in cat.avg_widths_raw() {
        w.f64(width);
    }
}

/// The bytes of one catalog key: a tag and a `u32` for each slot.
const CATALOG_KEY_LEN: usize = 15;

fn dec_catalog(r: &mut Reader<'_>, dict_len: usize) -> DResult<StatsCatalog> {
    let n = r.len_prefix("catalog entries", CATALOG_KEY_LEN + 8)?;
    let mut counts = Vec::with_capacity(n);
    let mut above: &[u8] = &[];
    for _ in 0..n {
        let key = r.raw(CATALOG_KEY_LEN, "catalog key")?;
        // Keys are written in the strictly increasing order of their
        // bytes: the one order, and no key twice.
        if key <= above {
            return Err(corrupt(
                "catalog keys are not in strictly increasing byte order",
            ));
        }
        above = key;
        let mut kr = Reader::new(key);
        let mut slots = [KeySlot::Var(0); 3];
        for slot in &mut slots {
            *slot = match kr.u8("catalog key slot tag")? {
                0 => KeySlot::Const(dec_known_id(&mut kr, dict_len, "catalog key const")?),
                1 => {
                    let v = kr.u32("catalog key var")?;
                    if v > u8::MAX as u32 {
                        return Err(corrupt("catalog key var out of range"));
                    }
                    KeySlot::Var(v as u8)
                }
                other => return Err(corrupt(format!("unknown key slot tag {other}"))),
            };
        }
        let count = r.u64("catalog count")?;
        counts.push((AtomKey(slots), count));
    }
    let dataset_size = r.u64("catalog dataset size")?;
    let mut distinct = [0u64; 3];
    for d in &mut distinct {
        *d = r.u64("catalog distinct")?;
    }
    let min_max = if r.bool("catalog min_max flag")? {
        let mut mm = [(Id(0), Id(0)); 3];
        for pair in &mut mm {
            pair.0 = dec_known_id(r, dict_len, "catalog min")?;
            pair.1 = dec_known_id(r, dict_len, "catalog max")?;
        }
        Some(mm)
    } else {
        None
    };
    let mut widths = [0.0f64; 3];
    for width in &mut widths {
        *width = r.f64("catalog avg width")?;
    }
    Ok(StatsCatalog::from_parts(
        counts,
        dataset_size,
        distinct,
        min_max,
        widths,
    ))
}

fn enc_rec_into(w: &mut Writer, rec: &Recommendation) {
    enc_seq(w, &rec.workload, enc_cq);
    enc_seq(w, &rec.branch_of, |w, &orig| w.u64(orig as u64));
    enc_state(w, &rec.outcome.best_state);
    w.f64(rec.outcome.best_cost);
    w.f64(rec.outcome.initial_cost);
    enc_stats(w, &rec.outcome.stats);
    enc_seq(w, &rec.views, enc_view);
    enc_seq(w, &rec.materialization, |w, u| {
        enc_seq(w, u.branches(), enc_cq)
    });
    enc_catalog(w, &rec.catalog);
}

fn dec_rec(bytes: &[u8], dict_len: usize) -> DResult<Recommendation> {
    let mut r = Reader::new(bytes);
    let workload = dec_seq(&mut r, "workload", 16, |r| dec_cq(r, dict_len))?;
    let branch_of = dec_seq(&mut r, "branch_of", 8, |r| {
        Ok(r.u64("branch_of entry")? as usize)
    })?;
    let best_state = dec_state(&mut r, dict_len)?;
    let best_cost = r.f64("best cost")?;
    let initial_cost = r.f64("initial cost")?;
    let stats = dec_stats(&mut r)?;
    let views = dec_seq(&mut r, "recommended views", 20, |r| dec_view(r, dict_len))?;
    let materialization = dec_seq(&mut r, "materialization", 8, |r| {
        let mut u = UnionQuery::new();
        for b in dec_seq(r, "union branches", 16, |r| dec_cq(r, dict_len))? {
            if !u.push(b) {
                return Err(corrupt("materialization union has duplicate branches"));
            }
        }
        Ok(u)
    })?;
    let catalog = Arc::new(dec_catalog(&mut r, dict_len)?);
    r.expect_exhausted("recommendation section")?;
    if branch_of.len() != workload.len() {
        return Err(corrupt("branch_of length does not match workload"));
    }
    if views.len() != materialization.len() {
        return Err(corrupt("views and materialization lengths differ"));
    }
    Ok(Recommendation {
        workload,
        branch_of,
        outcome: SearchOutcome {
            best_state,
            best_cost,
            initial_cost,
            stats,
        },
        views,
        materialization,
        catalog,
    })
}

fn enc_deployed_views_into(w: &mut Writer, views: &[DeployedView]) {
    enc_seq(w, views, |w, dv| {
        w.u32(dv.id.0);
        w.len_prefix(dv.arity);
        enc_seq(w, &dv.branches, |w, b| {
            enc_cq(w, b.definition());
            // Rows lie distinct and in order: the first column is written
            // as its difference from the row before, the others whole.
            w.len_prefix(b.len());
            let mut above = Id(0);
            for row in b.rows() {
                if let [first, rest @ ..] = row {
                    w.varint(u64::from(first.0 - above.0));
                    above = *first;
                    for id in rest {
                        w.varint(u64::from(id.0));
                    }
                }
            }
        });
    });
}

fn dec_deployed_views(bytes: &[u8], dict_len: usize) -> DResult<Vec<DeployedView>> {
    let mut r = Reader::new(bytes);
    let views = dec_seq(&mut r, "deployed views", 20, |r| {
        let id = ViewId(r.u32("deployed view id")?);
        let arity = r.len_prefix("deployed view arity", 0)?;
        let branches = dec_seq(r, "deployed view branches", 16, |r| {
            let def = dec_cq(r, dict_len)?;
            if def.head.len() != arity {
                return Err(corrupt("branch arity does not match its view"));
            }
            // A varint a cell, a byte each at least; a row without columns
            // takes no bytes, and there is only one such row.
            let rn = r.len_prefix("branch rows", arity)?;
            if arity == 0 && rn > 1 {
                return Err(corrupt("a boolean branch has at most one row"));
            }
            let mut cells = Vec::with_capacity(rn * arity);
            let mut above = Id(0);
            for _ in 0..rn {
                for col in 0..arity {
                    let base = if col == 0 { above } else { Id(0) };
                    let id = dec_id(r, base, dict_len, "branch row id")?;
                    if col == 0 {
                        above = id;
                    }
                    cells.push(id);
                }
            }
            let rows = Answers::from_sorted(arity, rn, cells)
                .ok_or_else(|| corrupt("branch rows are not strictly increasing"))?;
            Ok(MaintainedView::from_parts(def, rows))
        })?;
        Ok(DeployedView {
            id,
            arity,
            branches,
        })
    })?;
    r.expect_exhausted("deployed views section")?;
    Ok(views)
}

fn enc_schema_into(w: &mut Writer, schema: &Schema, vocab: &VocabIds) {
    enc_seq(w, schema.statements(), |w, stmt| {
        let (tag, (a, b)) = match stmt {
            SchemaStatement::SubClassOf(..) => (0u8, stmt.pair()),
            SchemaStatement::SubPropertyOf(..) => (1, stmt.pair()),
            SchemaStatement::Domain(..) => (2, stmt.pair()),
            SchemaStatement::Range(..) => (3, stmt.pair()),
        };
        w.u8(tag);
        w.u32(a.0);
        w.u32(b.0);
    });
    for id in [
        vocab.rdf_type,
        vocab.sub_class_of,
        vocab.sub_property_of,
        vocab.domain,
        vocab.range,
    ] {
        w.u32(id.0);
    }
}

fn dec_schema(r: &mut Reader<'_>, dict_len: usize) -> DResult<(Schema, VocabIds)> {
    let n = r.len_prefix("schema statements", 9)?;
    let mut schema = Schema::new();
    for _ in 0..n {
        let tag = r.u8("schema statement tag")?;
        let a = dec_known_id(r, dict_len, "schema statement lhs")?;
        let b = dec_known_id(r, dict_len, "schema statement rhs")?;
        let stmt = match tag {
            0 => SchemaStatement::SubClassOf(a, b),
            1 => SchemaStatement::SubPropertyOf(a, b),
            2 => SchemaStatement::Domain(a, b),
            3 => SchemaStatement::Range(a, b),
            other => return Err(corrupt(format!("unknown schema statement tag {other}"))),
        };
        if !schema.add(stmt) {
            return Err(corrupt(format!("schema repeats the statement {stmt:?}")));
        }
    }
    let mut ids = [Id(0); 5];
    for id in &mut ids {
        *id = dec_known_id(r, dict_len, "vocab id")?;
    }
    Ok((
        schema,
        VocabIds {
            rdf_type: ids[0],
            sub_class_of: ids[1],
            sub_property_of: ids[2],
            domain: ids[3],
            range: ids[4],
        },
    ))
}

// ---------------------------------------------------------------------
// Bundle assembly.
// ---------------------------------------------------------------------

impl Deployment {
    /// Encodes the bundle's sections, in [`SECTION_ORDER`], one after
    /// another into one reused buffer, hands each to `section` as soon as
    /// it is written, and returns the state hash: every section but the
    /// meta one (which holds the lineage id) length-prefixed into the hash
    /// under the state domain, so section boundaries cannot alias, then
    /// the store version. The transient memory is the largest section's
    /// buffer, not a second snapshot.
    fn encode_sections(
        &self,
        dict: &Dictionary,
        mut section: impl FnMut(u32, &[u8]),
    ) -> DResult<u128> {
        let Maintained {
            store,
            views,
            reasoning,
        } = &self.maintained;
        let mut h = Hasher128::with_domain(STATE_DOMAIN);
        let mut w = Writer::new();
        let mut emit = |tag: u32, w: &mut Writer| {
            let payload = w.as_bytes();
            if tag != SEC_META {
                h.update(&(payload.len() as u64).to_le_bytes());
                h.update(payload);
            }
            section(tag, payload);
            w.clear();
        };
        enc_dict_into(&mut w, dict);
        emit(SEC_DICT, &mut w);
        enc_store_into(&mut w, store);
        emit(SEC_STORE, &mut w);
        enc_rec_into(&mut w, &self.ctx.rec);
        emit(SEC_REC, &mut w);
        enc_deployed_views_into(&mut w, views);
        emit(SEC_VIEWS, &mut w);
        // One flag-led section each for entailment and reformulation; the
        // reasoning is one value, so at most one flag is ever set.
        match reasoning {
            PreparedReasoning::Saturation(schema, vocab, explicit) => {
                w.bool(true);
                enc_schema_into(&mut w, schema, vocab);
                enc_subset_into(&mut w, explicit, &store.index(IndexOrder::Spo))?;
                emit(SEC_ENTAIL, &mut w);
                w.bool(false);
                emit(SEC_REFORM, &mut w);
            }
            PreparedReasoning::PreReformulation(schema, vocab)
            | PreparedReasoning::PostReformulation(schema, vocab) => {
                w.bool(false);
                emit(SEC_ENTAIL, &mut w);
                w.bool(true);
                enc_schema_into(&mut w, schema, vocab);
                emit(SEC_REFORM, &mut w);
            }
            PreparedReasoning::Plain => {
                w.bool(false);
                emit(SEC_ENTAIL, &mut w);
                w.bool(false);
                emit(SEC_REFORM, &mut w);
            }
        }
        w.u64(store.version());
        w.u64(self.ctx.lineage);
        emit(SEC_META, &mut w);
        h.update(&store.version().to_le_bytes());
        Ok(h.finish())
    }

    /// Decodes a bundle into its planning context, its maintained state
    /// and its dictionary. No generation is assembled:
    /// [`Deployment::open`] assembles one at once, [`Deployment::recover`]
    /// after it has replayed the log.
    fn decode_bundle(bytes: &[u8]) -> DResult<(PlanCtx, Maintained, Dictionary)> {
        let sections = bundle::decode(bytes)?;
        if sections.len() != SECTION_ORDER.len() {
            return Err(corrupt(format!(
                "bundle has {} sections, expected {}",
                sections.len(),
                SECTION_ORDER.len()
            )));
        }
        for (got, want) in sections.iter().zip(SECTION_ORDER) {
            if got.0 != want {
                return Err(corrupt(format!(
                    "unexpected section tag {} (expected {want})",
                    got.0
                )));
            }
        }

        let dict = dec_dict(sections[0].1)?;
        let mut store_r = Reader::new(sections[1].1);
        let store = dec_store(&mut store_r, dict.len())?;
        store_r.expect_exhausted("store section")?;
        let rec = dec_rec(sections[2].1, dict.len())?;
        let views = dec_deployed_views(sections[3].1, dict.len())?;

        let mut ent_r = Reader::new(sections[4].1);
        let entailment = if ent_r.bool("entailment flag")? {
            let (schema, vocab) = dec_schema(&mut ent_r, dict.len())?;
            let explicit = dec_subset(&mut ent_r, &store.index(IndexOrder::Spo))?;
            Some(PreparedReasoning::Saturation(schema, vocab, explicit))
        } else {
            None
        };
        ent_r.expect_exhausted("entailment section")?;

        let mut ref_r = Reader::new(sections[5].1);
        let reform = if ref_r.bool("reformulation flag")? {
            let (schema, vocab) = dec_schema(&mut ref_r, dict.len())?;
            // The section does not record which reformulation mode chose
            // the views; a deployment serves both alike.
            Some(PreparedReasoning::PostReformulation(schema, vocab))
        } else {
            None
        };
        ref_r.expect_exhausted("reformulation section")?;
        let reasoning = match (entailment, reform) {
            (Some(_), Some(_)) => {
                return Err(corrupt(
                    "both the entailment and the reformulation flag are set",
                ))
            }
            (Some(r), None) | (None, Some(r)) => r,
            (None, None) => PreparedReasoning::Plain,
        };

        let mut meta_r = Reader::new(sections[6].1);
        let meta_version = meta_r.u64("maintained version")?;
        let lineage = meta_r.u64("lineage")?;
        meta_r.expect_exhausted("meta section")?;

        if meta_version != store.version() {
            return Err(corrupt(format!(
                "maintained version {meta_version} does not match store version {}",
                store.version()
            )));
        }
        if views.len() != rec.views.len() {
            return Err(corrupt("deployed view count does not match recommendation"));
        }

        // Fresh process-scoped id: plans from the pre-crash process must
        // not execute against the reloaded deployment.
        let ctx = PlanCtx::new(
            rec,
            &reasoning,
            DEPLOYMENT_IDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            lineage,
        );
        let maintained = Maintained {
            store,
            views,
            reasoning,
        };
        Ok((ctx, maintained, dict))
    }

    /// Reads and decodes `dir`'s snapshot bundle; its bytes are dropped
    /// before this returns.
    fn read_bundle(dir: &Path) -> Result<(PlanCtx, Maintained, Dictionary), SelectionError> {
        let bytes = fsutil::read_file(&dir.join(SNAPSHOT_FILE)).map_err(lift)?;
        Self::decode_bundle(&bytes).map_err(lift)
    }

    /// Serializes the deployment (and the dictionary its ids refer to)
    /// into `dir/snapshot.rdfb`, written atomically. Returns the 128-bit
    /// **state hash** — the canonical content fingerprint that
    /// [`Deployment::recover`] reproduces exactly.
    ///
    /// Fails with [`SelectionError::Io`] on filesystem failures, and with
    /// [`SelectionError::CorruptBundle`] if a
    /// saturation deployment's explicit store is not a subset of its base
    /// store — the bundle stores it as one, and a file that cannot be read
    /// back is never written.
    pub fn persist(&self, dir: &Path, dict: &Dictionary) -> Result<u128, SelectionError> {
        fsutil::ensure_dir(dir).map_err(lift)?;
        let mut sections = Vec::with_capacity(SECTION_ORDER.len());
        let state_hash = self
            .encode_sections(dict, |tag, payload| sections.push((tag, payload.to_vec())))
            .map_err(lift)?;
        let bytes = bundle::encode(&sections);
        fsutil::atomic_write(&dir.join(SNAPSHOT_FILE), &bytes).map_err(lift)?;
        Ok(state_hash)
    }

    /// Loads the snapshot bundle from `dir`, ignoring any write-ahead log
    /// (use [`Deployment::recover`] to replay one). Returns the deployment
    /// and the dictionary it was persisted with. All structural validation
    /// happens here: a corrupted or version-mixed bundle is a
    /// [`SelectionError::CorruptBundle`] at load time, never a wrong
    /// answer at query time.
    pub fn open(dir: &Path) -> Result<(Deployment, Dictionary), SelectionError> {
        let (ctx, maintained, dict) = Self::read_bundle(dir)?;
        Ok((Self::assemble(ctx, maintained), dict))
    }

    /// The deployment's canonical 128-bit content fingerprint (domain
    /// `rdfviews.state.v3`), over the same canonical encoding
    /// [`Deployment::persist`] writes — equal hashes mean equal
    /// dictionary, store, recommendation, and view tables, **however they
    /// were reached**: the encoding is of the state (sorted sets and
    /// version counters), not of the order in which batches arrived. The
    /// lineage id is excluded, so a live deployment and its recovered twin
    /// compare equal. Each section is hashed as it is encoded, into one
    /// reused buffer: the call holds the largest section, never the bundle.
    pub fn content_hash(&self, dict: &Dictionary) -> Result<u128, SelectionError> {
        self.encode_sections(dict, |_, _| {}).map_err(lift)
    }

    /// Recovers a deployment from `dir`: decodes the snapshot, then
    /// replays the write-ahead log suffix through the maintenance core the
    /// live deployment runs (the same delta joins and entailment deltas).
    /// The log replays **before the first publish**: no generation exists
    /// yet, so nothing pins the store a record replaces — each spliced run
    /// frees its predecessor, and the decoded stores list their `Spo` runs
    /// (see [`TripleStore::from_parts`]), so no record writes a triple
    /// list — and no record rebuilds a table. The first generation's tables are
    /// assembled once, after the last record. A torn tail record — the
    /// signature of a crash mid-append — is dropped gracefully and
    /// reported; records already absorbed by a newer snapshot are skipped
    /// by their version stamps; a record from the *future* (version stamp
    /// ahead of the store) is corruption.
    pub fn recover(dir: &Path) -> Result<(Deployment, Dictionary, RecoveryReport), SelectionError> {
        let (ctx, mut maintained, mut dict) = Self::read_bundle(dir)?;
        let wal_path = dir.join(WAL_FILE);
        let scan = if wal_path.exists() {
            wal::scan(&fsutil::read_file(&wal_path).map_err(lift)?).map_err(lift)?
        } else {
            wal::WalScan {
                records: Vec::new(),
                valid_len: 0,
                torn_tail: None,
            }
        };
        let mut report = RecoveryReport {
            records_scanned: scan.records.len(),
            records_replayed: 0,
            records_skipped: 0,
            torn_tail: scan.torn_tail,
            wal_valid_len: scan.valid_len,
            triples_inserted: 0,
            triples_deleted: 0,
            state_hash: 0,
        };
        for record in &scan.records {
            let (kind, pre_version, new_terms, triples) =
                dec_wal_record(&record.payload).map_err(lift)?;
            // Dictionary growth replays idempotently: terms already known
            // (snapshot newer than the record) re-intern to their ids.
            for term in new_terms {
                dict.intern(term);
            }
            for t in &triples {
                for &id in t {
                    if id.index() >= dict.len() {
                        return Err(SelectionError::CorruptBundle {
                            detail: format!(
                                "wal record at byte {} references id {} outside the dictionary",
                                record.offset, id.0
                            ),
                        });
                    }
                }
            }
            let current = maintained.store.version();
            if pre_version > current {
                return Err(SelectionError::CorruptBundle {
                    detail: format!(
                        "wal record at byte {} expects store version {pre_version} but the \
                         store is at {current}",
                        record.offset
                    ),
                });
            }
            if pre_version < current {
                // Already absorbed by a newer snapshot (crash between
                // checkpoint write and wal reset).
                report.records_skipped += 1;
                continue;
            }
            match kind {
                WalKind::Insert => {
                    maintained.insert_batch(&triples);
                    report.triples_inserted += triples.len();
                }
                WalKind::Delete => {
                    maintained.delete_batch(&triples);
                    report.triples_deleted += triples.len();
                }
            }
            report.records_replayed += 1;
        }
        let dep = Self::assemble(ctx, maintained);
        report.state_hash = dep.content_hash(&dict)?;
        Ok((dep, dict, report))
    }

    /// Strictly verifies the write-ahead log in `dir`: returns the number
    /// of valid records, [`SelectionError::WalTornTail`] if the log ends
    /// in an incomplete record, [`SelectionError::CorruptBundle`] on a
    /// malformed header. A missing log is an empty one.
    pub fn verify_wal(dir: &Path) -> Result<usize, SelectionError> {
        let wal_path = dir.join(WAL_FILE);
        if !wal_path.exists() {
            return Ok(0);
        }
        let bytes = fsutil::read_file(&wal_path).map_err(lift)?;
        Ok(wal::scan_strict(&bytes).map_err(lift)?.len())
    }
}

/// What [`Deployment::recover`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid WAL records found (replayed + skipped).
    pub records_scanned: usize,
    /// Records replayed through the maintenance path.
    pub records_replayed: usize,
    /// Records skipped because a newer snapshot had already absorbed them
    /// (their version stamp predates the snapshot's store version).
    pub records_skipped: usize,
    /// Offset of a torn tail record that was dropped, if any.
    pub torn_tail: Option<u64>,
    /// Length of the trusted WAL prefix (what an appender must truncate
    /// to).
    pub wal_valid_len: u64,
    /// Triples submitted through replayed insert records.
    pub triples_inserted: usize,
    /// Triples submitted through replayed delete records.
    pub triples_deleted: usize,
    /// The recovered deployment's content hash — equal to the pre-crash
    /// deployment's [`Deployment::content_hash`] at the last durable
    /// record.
    pub state_hash: u128,
}

// ---------------------------------------------------------------------
// WAL records.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WalKind {
    Insert,
    Delete,
}

fn enc_wal_record(
    kind: WalKind,
    pre_version: u64,
    new_terms: &[&Term],
    batch: &[Triple],
) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(match kind {
        WalKind::Insert => 0,
        WalKind::Delete => 1,
    });
    w.u64(pre_version);
    enc_seq(&mut w, new_terms, |w, term| enc_term(w, term));
    enc_seq(&mut w, batch, |w, t| {
        for &id in t {
            w.u32(id.0);
        }
    });
    w.into_bytes()
}

fn dec_wal_record(payload: &[u8]) -> DResult<(WalKind, u64, Vec<Term>, Vec<Triple>)> {
    let mut r = Reader::new(payload);
    let kind = match r.u8("wal record kind")? {
        0 => WalKind::Insert,
        1 => WalKind::Delete,
        other => return Err(corrupt(format!("unknown wal record kind {other}"))),
    };
    let pre_version = r.u64("wal record version")?;
    let new_terms = dec_seq(&mut r, "wal record terms", 2, dec_term)?;
    let batch = dec_seq(&mut r, "wal record triples", 12, |r| {
        let mut t = [Id(0); 3];
        for slot in &mut t {
            *slot = Id(r.u32("wal record triple id")?);
        }
        Ok(t)
    })?;
    r.expect_exhausted("wal record")?;
    Ok((kind, pre_version, new_terms, batch))
}

// ---------------------------------------------------------------------
// The durable wrapper: a deployment whose batches tee into the WAL.
// ---------------------------------------------------------------------

/// A [`Deployment`] bound to a directory: every
/// [`DurableDeployment::insert_batch`] / [`DurableDeployment::delete_batch`]
/// is appended to the write-ahead log (and fsync'd) *before* it is applied
/// in memory, so the deployment state is recoverable after a crash at any
/// instant. Once the WAL exceeds the compaction threshold, a fresh
/// snapshot absorbs it automatically.
///
/// The wrapper owns the [`Dictionary`]: terms interned after deployment
/// (new subjects arriving in update feeds) travel inside the WAL records
/// that first reference them, so recovery rebuilds the dictionary too.
#[derive(Debug)]
pub struct DurableDeployment {
    dep: Deployment,
    dict: Dictionary,
    dir: PathBuf,
    wal: wal::WalWriter,
    /// Dictionary length already captured by the snapshot or an earlier
    /// WAL record; the next record carries the terms beyond it.
    persisted_dict_len: usize,
    compact_threshold: u64,
}

impl DurableDeployment {
    /// Default WAL size (bytes) that triggers a compaction checkpoint.
    pub const DEFAULT_COMPACT_THRESHOLD: u64 = 1 << 20;

    /// Persists `dep` into `dir` (snapshot + empty WAL) and returns the
    /// durable handle. The dictionary is the one the deployment's ids
    /// refer to — usually the advisor's (see `Advisor::deploy_durable`).
    pub fn create(
        dir: &Path,
        dep: Deployment,
        dict: Dictionary,
    ) -> Result<DurableDeployment, SelectionError> {
        fsutil::ensure_dir(dir).map_err(lift)?;
        dep.persist(dir, &dict)?;
        let wal = wal::WalWriter::create(&dir.join(WAL_FILE)).map_err(lift)?;
        Ok(DurableDeployment {
            dep,
            persisted_dict_len: dict.len(),
            dict,
            dir: dir.to_path_buf(),
            wal,
            compact_threshold: Self::DEFAULT_COMPACT_THRESHOLD,
        })
    }

    /// Recovers the deployment in `dir` (snapshot + WAL replay) and
    /// reopens the WAL for appending, truncating any torn tail.
    pub fn recover(dir: &Path) -> Result<(DurableDeployment, RecoveryReport), SelectionError> {
        let (dep, dict, report) = Deployment::recover(dir)?;
        let wal =
            wal::WalWriter::open_at(&dir.join(WAL_FILE), report.wal_valid_len).map_err(lift)?;
        Ok((
            DurableDeployment {
                dep,
                persisted_dict_len: dict.len(),
                dict,
                dir: dir.to_path_buf(),
                wal,
                compact_threshold: Self::DEFAULT_COMPACT_THRESHOLD,
            },
            report,
        ))
    }

    /// Overrides the WAL size threshold that triggers automatic
    /// compaction (`0` compacts after every batch).
    pub fn with_compact_threshold(mut self, bytes: u64) -> Self {
        self.compact_threshold = bytes;
        self
    }

    /// The deployment directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Read access to the wrapped deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.dep
    }

    /// The dictionary the deployment's ids refer to.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Mutable dictionary access (interning terms for new triples or
    /// ad-hoc queries). Newly interned terms become durable with the next
    /// logged batch or checkpoint.
    pub fn dict_mut(&mut self) -> &mut Dictionary {
        &mut self.dict
    }

    /// Pins the wrapped deployment's published read generation — see
    /// [`Deployment::snapshot`]. Snapshot readers keep answering as-of
    /// their pinned generation while this handle logs and applies further
    /// batches against the **write generation** (WAL records are stamped
    /// with the live store's pre-apply version, which never depends on
    /// what readers have pinned).
    pub fn snapshot(&self) -> DeploymentSnapshot {
        self.dep.snapshot()
    }

    /// A thread-safe handle onto the published-generation slot — see
    /// [`Deployment::reader`].
    pub fn reader(&self) -> SnapshotReader {
        self.dep.reader()
    }

    /// Current WAL size in bytes (header included).
    pub fn wal_size(&self) -> u64 {
        self.wal.size()
    }

    /// Consumes the handle, releasing the deployment and dictionary.
    pub fn into_parts(self) -> (Deployment, Dictionary) {
        (self.dep, self.dict)
    }

    fn log_and_apply(
        &mut self,
        kind: WalKind,
        batch: &[Triple],
    ) -> Result<MaintenanceStats, SelectionError> {
        if batch.is_empty() {
            return Ok(MaintenanceStats::default());
        }
        let new_terms: Vec<&Term> = (self.persisted_dict_len..self.dict.len())
            .map(|i| self.dict.term(Id(i as u32)))
            .collect();
        let record = enc_wal_record(kind, self.dep.store().version(), &new_terms, batch);
        // Durability point: the record is on disk before the apply.
        self.wal.append(&record).map_err(lift)?;
        self.persisted_dict_len = self.dict.len();
        let stats = match kind {
            WalKind::Insert => self.dep.insert_batch(batch),
            WalKind::Delete => self.dep.delete_batch(batch),
        };
        if self.wal.size() >= self.compact_threshold {
            self.checkpoint()?;
        }
        Ok(stats)
    }

    /// Logs and applies an insertion batch (see
    /// [`Deployment::insert_batch`] for maintenance semantics).
    pub fn insert_batch(&mut self, batch: &[Triple]) -> Result<MaintenanceStats, SelectionError> {
        self.log_and_apply(WalKind::Insert, batch)
    }

    /// Logs and applies a deletion batch (see
    /// [`Deployment::delete_batch`]).
    pub fn delete_batch(&mut self, batch: &[Triple]) -> Result<MaintenanceStats, SelectionError> {
        self.log_and_apply(WalKind::Delete, batch)
    }

    /// Writes a fresh snapshot absorbing every logged record, then resets
    /// the WAL. Crash-safe in both orders: a crash before the snapshot
    /// rename keeps the old snapshot + full WAL; a crash between rename
    /// and reset leaves a newer snapshot + stale records, which recovery
    /// skips by their version stamps. Returns the snapshot's state hash.
    pub fn checkpoint(&mut self) -> Result<u128, SelectionError> {
        let hash = self.dep.persist(&self.dir, &self.dict)?;
        self.wal.reset().map_err(lift)?;
        self.persisted_dict_len = self.dict.len();
        Ok(hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a reproducible stream without a dependency.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    const DICT_LEN: usize = 300;

    fn is_corrupt<T: std::fmt::Debug>(r: DResult<T>) -> bool {
        matches!(r.map_err(lift), Err(SelectionError::CorruptBundle { .. }))
    }

    /// Stores over ids `0..DICT_LEN`: the shapes a delta coder can get
    /// wrong, then random ones. Built by single inserts in a scrambled
    /// order, so the list is *not* the run.
    fn stores() -> Vec<TripleStore> {
        let last = Id(DICT_LEN as u32 - 1);
        let mut shapes: Vec<Vec<Triple>> = vec![
            vec![],
            vec![[Id(0), Id(0), Id(0)]],
            vec![[last, last, last]],
            vec![[Id(0), Id(0), Id(0)], [last, last, last]],
            // Every subject distinct; one subject and one property; one
            // subject, every property distinct.
            (0..200).map(|i| [Id(i), Id(7), Id(200 - i)]).collect(),
            (0..200).map(|i| [Id(5), Id(7), Id(i)]).collect(),
            (0..200).map(|i| [Id(5), Id(i), Id(9)]).collect(),
        ];
        let mut rng = 0xb0d1e_u64;
        for round in 0..20 {
            let n = next(&mut rng) % 400;
            let spread = [3, 40, DICT_LEN as u64][round % 3];
            shapes.push(
                (0..n)
                    .map(|_| [(); 3].map(|()| Id((next(&mut rng) % spread) as u32)))
                    .collect(),
            );
        }
        shapes
            .into_iter()
            .map(|mut triples| {
                triples.reverse();
                let mut store = TripleStore::new();
                for t in triples {
                    store.insert(t);
                }
                store
            })
            .collect()
    }

    #[test]
    fn store_sections_round_trip_and_reencode_byte_for_byte() {
        for store in stores() {
            let mut w = Writer::new();
            enc_store_into(&mut w, &store);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = dec_store(&mut r, DICT_LEN).unwrap();
            r.expect_exhausted("store").unwrap();
            assert_eq!(back.version(), store.version());
            let run = store.index(IndexOrder::Spo);
            assert_eq!(back.triples(), &run[..], "decoded in Spo order");
            assert_eq!(
                back.index(IndexOrder::Spo).as_ptr(),
                back.triples().as_ptr(),
                "the decoded list is adopted as the Spo run"
            );
            let mut again = Writer::new();
            enc_store_into(&mut again, &back);
            assert_eq!(again.into_bytes(), bytes);
            // 16 bytes of header, then at most 3 varints of 2 bytes a triple.
            assert!(bytes.len() <= 16 + 6 * store.len());
            // One term fewer in the dictionary and the largest id is out.
            let top = run.iter().flatten().max().map_or(0, |id| id.index());
            assert_eq!(
                is_corrupt(dec_store(&mut Reader::new(&bytes), top)),
                !store.is_empty()
            );
        }
    }

    /// A store section spelled by hand: `count`, then the varints given.
    fn store_section(count: u64, varints: &[u64]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(9);
        w.u64(count);
        for &v in varints {
            w.varint(v);
        }
        w.into_bytes()
    }

    #[test]
    fn non_canonical_store_sections_are_refused() {
        let dec = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            dec_store(&mut r, DICT_LEN).and_then(|s| r.expect_exhausted("store").map(|()| s))
        };
        // The canonical spelling of {(1,2,3), (1,2,5), (1,4,0), (2,0,0)}.
        let good = store_section(4, &[1, 2, 3, 0, 0, 2, 0, 2, 0, 1, 0, 0]);
        let store = dec(&good).unwrap();
        assert_eq!(
            store.triples(),
            &[
                [Id(1), Id(2), Id(3)],
                [Id(1), Id(2), Id(5)],
                [Id(1), Id(4), Id(0)],
                [Id(2), Id(0), Id(0)],
            ]
        );
        let big = DICT_LEN as u64;
        for (why, bytes) in [
            (
                "Δo = 0 repeats a triple",
                store_section(2, &[1, 2, 3, 0, 0, 0]),
            ),
            (
                "subject outside the dictionary",
                store_section(1, &[big, 0, 0]),
            ),
            (
                "property outside the dictionary",
                store_section(1, &[0, big, 0]),
            ),
            (
                "object outside the dictionary",
                store_section(1, &[0, 0, big]),
            ),
            (
                "Δs past the dictionary",
                store_section(2, &[1, 0, 0, big - 1, 0, 0]),
            ),
            (
                "Δp past the dictionary",
                store_section(2, &[1, 5, 0, 0, big - 5, 0]),
            ),
            (
                "Δo past the dictionary",
                store_section(2, &[1, 5, 5, 0, 0, big - 5]),
            ),
            (
                "Δs overflows u64",
                store_section(2, &[1, 0, 0, u64::MAX, 0, 0]),
            ),
            (
                "Δs overflows u32",
                store_section(2, &[1, 0, 0, 1 << 32, 0, 0]),
            ),
            (
                "fewer triples than counted",
                store_section(3, &[1, 2, 3, 0, 0, 2]),
            ),
            (
                "more triples than counted",
                store_section(1, &[1, 2, 3, 0, 0, 2]),
            ),
            (
                "a count the bytes cannot hold",
                store_section(u64::MAX / 2, &[1, 2, 3]),
            ),
        ] {
            assert!(is_corrupt(dec(&bytes)), "{why}");
        }
        // An overlong varint: 3 spelled in two bytes.
        let mut overlong = store_section(1, &[1, 2]);
        overlong.extend_from_slice(&[0x83, 0x00]);
        assert!(is_corrupt(dec(&overlong)), "overlong varint");
    }

    #[test]
    fn explicit_stores_round_trip_as_bitmaps_of_the_saturated_run() {
        let mut rng = 0x5ab5e7_u64;
        for saturated in stores() {
            let run = saturated.index(IndexOrder::Spo);
            for keep_one_in in [1, 2, 9, u64::MAX] {
                let members: Vec<Triple> = run
                    .iter()
                    .copied()
                    .filter(|_| next(&mut rng).is_multiple_of(keep_one_in))
                    .collect();
                let mut explicit = TripleStore::new();
                explicit.insert_batch(&members);
                let mut w = Writer::new();
                enc_subset_into(&mut w, &explicit, &run).unwrap();
                let bytes = w.into_bytes();
                assert_eq!(bytes.len(), 16 + run.len().div_ceil(8), "a bit a triple");
                let mut r = Reader::new(&bytes);
                let back = dec_subset(&mut r, &run).unwrap();
                r.expect_exhausted("explicit").unwrap();
                assert_eq!(back.version(), explicit.version());
                assert_eq!(back.triples(), &members[..]);
                let mut again = Writer::new();
                enc_subset_into(&mut again, &back, &run).unwrap();
                assert_eq!(again.into_bytes(), bytes);

                // The stored count must be the population count ...
                let mut miscounted = bytes.clone();
                miscounted[8] ^= 1;
                assert!(is_corrupt(dec_subset(&mut Reader::new(&miscounted), &run)));
                // ... and the bits past the run's end must be clear.
                if !run.len().is_multiple_of(8) {
                    let mut padded = bytes.clone();
                    *padded.last_mut().unwrap() |= 0x80;
                    assert!(is_corrupt(dec_subset(&mut Reader::new(&padded), &run)));
                }
                // A member the saturated store lacks cannot be written.
                explicit.insert([Id(299), Id(298), Id(297)]);
                if !saturated.contains([Id(299), Id(298), Id(297)]) {
                    assert!(is_corrupt(enc_subset_into(
                        &mut Writer::new(),
                        &explicit,
                        &run
                    )));
                }
            }
        }
    }

    /// A deployed view of `arity` columns over `rows`, one branch.
    fn deployed(arity: usize, rows: &[Vec<Id>]) -> DeployedView {
        let var = |v: u32| QTerm::Var(Var(v));
        let def = ConjunctiveQuery::new(
            (0..arity as u32).map(var).collect(),
            vec![
                Atom([var(0), var(1), var(2)]),
                Atom([var(2), var(3), var(4)]),
            ],
        );
        DeployedView {
            id: ViewId(arity as u32),
            arity,
            branches: vec![MaintainedView::from_parts(
                def,
                Answers::from_tuples(arity, rows),
            )],
        }
    }

    #[test]
    fn view_sections_round_trip_for_every_arity() {
        let mut rng = 0x71e5_u64;
        let last = DICT_LEN as u64 - 1;
        for arity in 0..=4usize {
            for round in 0..12 {
                let n = [0, 1, 2, 50, 300][round % 5];
                let spread = [2, 30, DICT_LEN as u64][round % 3];
                let mut rows: Vec<Vec<Id>> = (0..n)
                    .map(|_| {
                        (0..arity)
                            .map(|_| Id((next(&mut rng) % spread) as u32))
                            .collect()
                    })
                    .collect();
                if round > 5 && n > 0 {
                    rows.push(vec![Id(0); arity]);
                    rows.push(vec![Id(last as u32); arity]);
                }
                let views = vec![deployed(arity, &rows), deployed(arity, &[])];
                let bytes = views_section(&views);
                let back = dec_deployed_views(&bytes, DICT_LEN).unwrap();
                assert_eq!(back.len(), 2);
                for (a, b) in views.iter().zip(&back) {
                    assert_eq!((a.id, a.arity), (b.id, b.arity));
                    assert_eq!(a.branches[0].definition(), b.branches[0].definition());
                    assert_eq!(a.branches[0].to_answers(), b.branches[0].to_answers());
                }
                assert_eq!(views_section(&back), bytes);
            }
        }
    }

    #[test]
    fn non_canonical_view_rows_are_refused() {
        // The bytes of a two-column view with no rows, re-spelled with a
        // row count and cells of our choosing.
        let empty = views_section(&[deployed(2, &[])]);
        let with_rows = |arity: usize, count: u64, varints: &[u64]| {
            let template = views_section(&[deployed(arity, &[])]);
            let mut w = Writer::new();
            w.raw(&template[..template.len() - 8]);
            w.u64(count);
            for &v in varints {
                w.varint(v);
            }
            w.into_bytes()
        };
        assert_eq!(with_rows(2, 0, &[]), empty);
        let rows_of = |bytes: &[u8]| {
            dec_deployed_views(bytes, DICT_LEN).map(|views| views[0].branches[0].to_answers())
        };
        // (3,9), (3,10), (7,0): the first column is a difference.
        let good = rows_of(&with_rows(2, 3, &[3, 9, 0, 10, 4, 0])).unwrap();
        assert_eq!(
            good,
            Answers::from_tuples(2, [[Id(3), Id(9)], [Id(3), Id(10)], [Id(7), Id(0)]])
        );
        let big = DICT_LEN as u64;
        for (why, bytes) in [
            ("a row repeated", with_rows(2, 2, &[3, 9, 0, 9])),
            ("rows out of order", with_rows(2, 2, &[3, 9, 0, 8])),
            (
                "first column outside the dictionary",
                with_rows(2, 1, &[big, 0]),
            ),
            (
                "first column summed past the dictionary",
                with_rows(2, 2, &[9, 0, big - 9, 0]),
            ),
            (
                "other column outside the dictionary",
                with_rows(2, 1, &[0, big]),
            ),
            (
                "a difference that overflows",
                with_rows(2, 2, &[9, 0, u64::MAX, 0]),
            ),
            ("fewer rows than counted", with_rows(2, 2, &[3, 9])),
            ("more rows than counted", with_rows(2, 1, &[3, 9, 0, 10])),
            ("two empty tuples", with_rows(0, 2, &[])),
            (
                "a row count the bytes cannot hold",
                with_rows(0, u64::MAX, &[]),
            ),
            ("one-column rows repeated", with_rows(1, 2, &[4, 0])),
        ] {
            assert!(is_corrupt(rows_of(&bytes)), "{why}");
        }
        assert_eq!(rows_of(&with_rows(0, 1, &[])).unwrap().len(), 1);
    }

    /// A saturation deployment of `x a painting` under `painting ⊑
    /// picture`, its views chosen for `?x a picture`; with its dictionary,
    /// schema, vocabulary and the ids of `painting` and `x`.
    fn pictures_deployment() -> (Deployment, Dictionary, Schema, VocabIds, [Id; 2]) {
        let mut dict = Dictionary::new();
        let vocab = VocabIds::intern(&mut dict);
        let [painting, picture, x] = ["painting", "picture", "x"].map(|u| dict.intern_uri(u));
        let mut schema = Schema::new();
        schema.add(SchemaStatement::SubClassOf(painting, picture));
        let mut store = TripleStore::new();
        store.insert([x, vocab.rdf_type, painting]);
        let pictures = ConjunctiveQuery::new(
            vec![QTerm::Var(Var(0))],
            vec![Atom([
                QTerm::Var(Var(0)),
                QTerm::Const(vocab.rdf_type),
                QTerm::Const(picture),
            ])],
        );
        let mode = rdfviews_core::ReasoningMode::Saturation;
        let mut prep =
            rdfviews_core::Preparation::new(&store, &dict, Some((&schema, &vocab)), mode).unwrap();
        let options = rdfviews_core::SelectionOptions {
            reasoning: mode,
            ..Default::default()
        };
        let rec = rdfviews_core::select_views_session(&mut prep, &[pictures], &options).unwrap();
        let dep = Deployment::new(&store, rec, prep.prepared());
        (dep, dict, schema, vocab, [painting, x])
    }

    /// Whether `store` lists its `Spo` run: the same triples in the same
    /// allocation.
    fn lists_its_spo_run(store: &TripleStore) -> bool {
        std::ptr::eq(store.triples(), &store.index(IndexOrder::Spo)[..])
    }

    /// Both stores of a saturation deployment — the base store and the
    /// explicit one — list their `Spo` runs when deployed, after live
    /// writes, when decoded from a bundle and after a replayed write.
    #[test]
    fn deployment_stores_list_their_spo_runs_built_written_and_decoded() {
        let lists = |m: &Maintained| match &m.reasoning {
            PreparedReasoning::Saturation(_, _, explicit) => {
                lists_its_spo_run(&m.store) && lists_its_spo_run(explicit)
            }
            _ => false,
        };
        let (mut dep, mut dict, _, vocab, [painting, x]) = pictures_deployment();
        assert!(lists(&dep.maintained), "deployed");
        let y = dict.intern_uri("y");
        let pinned = dep.snapshot();
        dep.insert_batch(&[[y, vocab.rdf_type, painting]]);
        dep.delete_batch(&[[x, vocab.rdf_type, painting]]);
        assert!(lists(&dep.maintained), "written");
        assert_eq!(pinned.store().len(), 2, "the pin keeps its generation");
        let mut sections = Vec::new();
        dep.encode_sections(&dict, |tag, payload| sections.push((tag, payload.to_vec())))
            .unwrap();
        let (_, mut maintained, _) = Deployment::decode_bundle(&bundle::encode(&sections)).unwrap();
        assert!(lists(&maintained), "decoded");
        maintained.insert_batch(&[[x, vocab.rdf_type, painting]]);
        assert!(lists(&maintained), "replayed");
        assert_eq!(maintained.store.len(), 4);
    }

    #[test]
    fn entailment_and_reformulation_flags_together_are_refused() {
        // A saturation deployment's bundle, its reformulation section
        // re-spelled with the flag set: a deployment holds one reasoning,
        // so no encoder writes both flags and no decoder accepts them.
        let (dep, dict, schema, vocab, _) = pictures_deployment();
        let mut sections = Vec::new();
        dep.encode_sections(&dict, |tag, payload| sections.push((tag, payload.to_vec())))
            .unwrap();
        assert!(Deployment::decode_bundle(&bundle::encode(&sections)).is_ok());
        let mut reform = Writer::new();
        reform.bool(true);
        enc_schema_into(&mut reform, &schema, &vocab);
        sections[5] = (SEC_REFORM, reform.into_bytes());
        assert!(is_corrupt(Deployment::decode_bundle(&bundle::encode(
            &sections
        ))));
    }

    /// The views section of `views`.
    fn views_section(views: &[DeployedView]) -> Vec<u8> {
        let mut w = Writer::new();
        enc_deployed_views_into(&mut w, views);
        w.into_bytes()
    }

    /// Decodes a whole section with `dec`, refusing trailing bytes.
    fn section<T>(bytes: &[u8], dec: impl FnOnce(&mut Reader<'_>) -> DResult<T>) -> DResult<T> {
        let mut r = Reader::new(bytes);
        let value = dec(&mut r)?;
        r.expect_exhausted("section")?;
        Ok(value)
    }

    /// The one constant these tests put where the dictionary must know it.
    const UNKNOWN: Id = Id(4_000_000_000);

    /// `t(?0, c, ?1)`.
    fn atom_with(c: Id) -> Atom {
        Atom([QTerm::Var(Var(0)), QTerm::Const(c), QTerm::Var(Var(1))])
    }

    #[test]
    fn catalog_entries_out_of_key_order_or_repeated_are_refused() {
        let key = |c: Id, v: u8| AtomKey([KeySlot::Var(0), KeySlot::Const(c), KeySlot::Var(v)]);
        let catalog = |counts: Vec<(AtomKey, u64)>, hi: Id| {
            let cat =
                StatsCatalog::from_parts(counts, 40, [4, 3, 9], Some([(Id(0), hi); 3]), [1.5; 3]);
            let mut w = Writer::new();
            enc_catalog(&mut w, &cat);
            w.into_bytes()
        };
        let dec = |bytes: &[u8]| section(bytes, |r| dec_catalog(r, DICT_LEN));
        let good = catalog(
            vec![(key(Id(3), 1), 10), (key(Id(5), 1), 20), (key(Id(3), 2), 7)],
            Id(9),
        );
        let mut again = Writer::new();
        enc_catalog(&mut again, &dec(&good).unwrap());
        assert_eq!(again.into_bytes(), good);

        // After the entry count, each entry is its key and a u64 count.
        let entry = |i: usize| {
            let start = 8 + i * (CATALOG_KEY_LEN + 8);
            start..start + CATALOG_KEY_LEN + 8
        };
        let mut swapped = good.clone();
        swapped[entry(0)].copy_from_slice(&good[entry(1)]);
        swapped[entry(1)].copy_from_slice(&good[entry(0)]);
        assert!(is_corrupt(dec(&swapped)), "two entries swapped");
        let mut repeated = good.clone();
        repeated[entry(1)][..CATALOG_KEY_LEN].copy_from_slice(&good[entry(0)][..CATALOG_KEY_LEN]);
        assert_ne!(repeated[entry(1)], good[entry(0)], "the counts differ");
        assert!(is_corrupt(dec(&repeated)), "a key repeated");

        let unknown_key = catalog(vec![(key(UNKNOWN, 1), 1)], Id(9));
        assert!(is_corrupt(dec(&unknown_key)), "a key constant");
        let unknown_bound = catalog(vec![(key(Id(3), 1), 1)], UNKNOWN);
        assert!(is_corrupt(dec(&unknown_bound)), "a max bound");
    }

    #[test]
    fn repeated_schema_statements_and_unknown_schema_ids_are_refused() {
        let schema_section = |statements: &[(u8, Id, Id)], vocab: Id| {
            let mut w = Writer::new();
            w.len_prefix(statements.len());
            for &(tag, a, b) in statements {
                w.u8(tag);
                w.u32(a.0);
                w.u32(b.0);
            }
            for i in 0..5 {
                w.u32(vocab.0 + i);
            }
            w.into_bytes()
        };
        let dec = |bytes: &[u8]| section(bytes, |r| dec_schema(r, DICT_LEN));
        let sub = (1, Id(7), Id(8));
        let range = (3, Id(8), Id(9));
        let good = schema_section(&[sub, range], Id(20));
        let (schema, vocab) = dec(&good).unwrap();
        let mut again = Writer::new();
        enc_schema_into(&mut again, &schema, &vocab);
        assert_eq!(again.into_bytes(), good);

        for (why, bytes) in [
            (
                "a repeated statement",
                schema_section(&[sub, range, sub], Id(20)),
            ),
            (
                "a statement id",
                schema_section(&[(0, Id(7), UNKNOWN)], Id(20)),
            ),
            (
                "a vocabulary id",
                schema_section(&[sub], Id(DICT_LEN as u32 - 2)),
            ),
        ] {
            assert!(is_corrupt(dec(&bytes)), "{why}");
        }
    }

    #[test]
    fn state_views_out_of_id_order_or_repeated_are_refused() {
        let view = |id: u32, c: Id| View {
            id: ViewId(id),
            head: vec![Var(0)],
            atoms: vec![atom_with(c)],
        };
        let state_section = |views: &[View], rewriting_const: Id| {
            let mut w = Writer::new();
            enc_seq(&mut w, views, enc_view);
            let rewriting = Rewriting::from_parts(
                0,
                vec![QTerm::Var(Var(0))],
                vec![RewAtom {
                    view: ViewId(1),
                    args: vec![QTerm::Const(rewriting_const)],
                }],
                1,
            );
            enc_seq(&mut w, &[rewriting], enc_rewriting);
            w.u32(9);
            w.into_bytes()
        };
        let dec = |bytes: &[u8]| section(bytes, |r| dec_state(r, DICT_LEN));
        let good = state_section(&[view(1, Id(5)), view(4, Id(6))], Id(2));
        let mut again = Writer::new();
        enc_state(&mut again, &dec(&good).unwrap());
        assert_eq!(again.into_bytes(), good);

        for (why, bytes) in [
            (
                "views out of id order",
                state_section(&[view(4, Id(6)), view(1, Id(5))], Id(2)),
            ),
            (
                "a view id repeated",
                state_section(&[view(1, Id(5)), view(1, Id(6))], Id(2)),
            ),
            ("a view constant", state_section(&[view(1, UNKNOWN)], Id(2))),
            (
                "a rewriting constant",
                state_section(&[view(1, Id(5))], UNKNOWN),
            ),
        ] {
            assert!(is_corrupt(dec(&bytes)), "{why}");
        }
    }

    #[test]
    fn query_constants_the_dictionary_lacks_are_refused() {
        let query = |c: Id| {
            let mut w = Writer::new();
            let head = vec![QTerm::Var(Var(0))];
            enc_cq(&mut w, &ConjunctiveQuery::new(head, vec![atom_with(c)]));
            w.into_bytes()
        };
        let dec = |bytes: &[u8]| section(bytes, |r| dec_cq(r, DICT_LEN));
        let last = Id(DICT_LEN as u32 - 1);
        assert_eq!(dec(&query(last)).unwrap().atoms, [atom_with(last)]);
        assert!(is_corrupt(dec(&query(Id(DICT_LEN as u32)))));
        assert!(is_corrupt(dec(&query(UNKNOWN))));
    }
}
