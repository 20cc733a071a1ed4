//! The traced run: per-layer metrics, named `<crate>.<metric>`.
//!
//! End-to-end numbers never come from here. A traced run replays the same
//! inputs three ways:
//!
//! 1. one **plain** round (tracing off), the baseline for
//!    `trace.overhead_pct`;
//! 2. one **traced** round: the same round code with spans on, reads
//!    split into the public calls they are made of (pin → plan →
//!    execute);
//! 3. **shadow probes**: where a composite call cannot be split from
//!    outside (a durable batch, a recommendation, a recovery), the next
//!    layer's public functions are called directly on shadow copies with
//!    the same inputs, each under its own span.
//!
//! The library's own counters (`SearchStats`, `MaintenanceStats`,
//! `RecoveryReport`, `view_index_builds`, `stats_collections`,
//! `saturation_runs`, file sizes) are copied in beside the timings.
//! Instrumentation *inside* the library is a later issue; until then a
//! few things stay invisible from here (fsync counts, plan-cache hits).

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use rdfviews::advisor::Advisor;
use rdfviews::core::{
    rewrite_best, CostModel, CostWeights, ReasoningMode, SearchConfig, SelectionOptions, State,
};
use rdfviews::durability::wal;
use rdfviews::engine::{evaluate, materialize_union, DeltaSet, MaintainedView};
use rdfviews::exec::{Deployment, DurableDeployment, SnapshotReader, WAL_FILE};
use rdfviews::model::{ntriples, StorePattern, Triple, TripleStore};
use rdfviews::query::canonical::HeadMode;
use rdfviews::query::parser::parse_query;
use rdfviews::query::{canonical_form, is_contained_in, minimize, ConjunctiveQuery};
use rdfviews::reform::reformulate;
use rdfviews::schema::{saturate, saturated_copy};
use rdfviews::stats::{collect_stats, collect_stats_post_reform};

use crate::estimate::long_steps;
use crate::inputs::{Batch, Inputs, ReadOp};
use crate::round::{answer_op, run_round, verify_samples, Inject, Ledger, Round};
use crate::stats::{median, percentile};
use crate::trace::{Agg, Hooks, NoTrace, Trace};
use crate::workloads::{Workload, BATCH_TRIPLES};
use crate::Metric;

/// Batches the write-path shadows apply: enough to average, few enough
/// that three shadows fit the run.
const SHADOW_BATCHES: usize = 24;
/// Reads of the read-path shadows.
const SHADOW_READS: usize = 2_000;
/// States of the pre-reformulation search probe.
const PRE_REFORM_STATES: usize = 2_000;

/// Runs `f` once under a span; returns its value and its seconds.
fn spanned<T>(trace: &mut Trace, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = trace.begin_op(name);
    let start = Instant::now();
    let out = f();
    let took = start.elapsed().as_secs_f64();
    trace.end(span);
    (out, took)
}

/// Mean seconds of `f` over every item, `reps` passes.
fn mean_s<I: Copy, T>(items: &[I], reps: usize, mut f: impl FnMut(I) -> T) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    for _ in 0..reps {
        for &item in items {
            black_box(f(item));
        }
    }
    start.elapsed().as_secs_f64() / (reps * items.len()) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What every probe looks at: the inputs, the traced round, the deployed
/// state it cloned right after deploy, and the batches the write-path
/// shadows apply.
#[derive(Clone, Copy)]
struct Scene<'a> {
    inputs: &'a Inputs,
    w: &'a Workload,
    traced: &'a Round,
    shadow: &'a Deployment,
    feed: &'a [Batch],
}

struct Out(Vec<Metric>);

impl Out {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        // A probe that had nothing to measure reports 0, never NaN: the
        // result line must stay valid JSON.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric::new(name, value, unit));
    }
}

/// The store a deployment of this mode materialises over and maintains,
/// with the explicit store beside it in saturation mode.
struct ShadowStore {
    store: TripleStore,
    explicit: Option<TripleStore>,
}

impl ShadowStore {
    fn new(inputs: &Inputs, mode: ReasoningMode, saturated: &TripleStore) -> Self {
        match mode {
            ReasoningMode::Saturation => ShadowStore {
                store: saturated.clone(),
                explicit: Some(inputs.db.store().clone()),
            },
            _ => ShadowStore {
                store: inputs.db.store().clone(),
                explicit: None,
            },
        }
    }

    /// Applies an insert batch the way a deployment does and returns the
    /// triples that entered the maintained store (entailed ones included).
    fn insert(&mut self, inputs: &Inputs, batch: &[Triple]) -> Vec<Triple> {
        match &mut self.explicit {
            Some(explicit) => {
                let fresh = explicit.insert_batch(batch);
                let mut added = self.store.insert_batch(&fresh);
                let before = self.store.len();
                saturate(&mut self.store, &inputs.schema, &inputs.vocab);
                added.extend_from_slice(&self.store.triples()[before..]);
                added
            }
            None => self.store.insert_batch(batch),
        }
    }

    /// The triples a delete batch removes from the maintained store
    /// (entailments that lose their last derivation included). Does not
    /// remove them yet: delta joins run while they are still present.
    fn doomed(&mut self, inputs: &Inputs, batch: &[Triple]) -> Vec<Triple> {
        match &mut self.explicit {
            Some(explicit) => {
                explicit.remove_batch(batch);
                let still = saturated_copy(explicit, &inputs.schema, &inputs.vocab);
                self.store
                    .triples()
                    .iter()
                    .copied()
                    .filter(|&t| !still.contains(t))
                    .collect()
            }
            None => batch
                .iter()
                .copied()
                .filter(|&t| self.store.contains(t))
                .collect(),
        }
    }
}

/// Solo closed-loop reads through `reader`; returns reads per second.
fn solo_qps(reader: &SnapshotReader, inputs: &Inputs, reads: usize) -> f64 {
    let start = Instant::now();
    for k in 0..reads {
        black_box(read(reader, inputs, inputs.reads[k % inputs.reads.len()]));
    }
    reads as f64 / start.elapsed().as_secs_f64()
}

fn read(reader: &SnapshotReader, inputs: &Inputs, op: ReadOp) -> usize {
    answer_op(&reader.snapshot(), inputs, op).map_or(0, |a| a.len())
}

/// Seconds spent in the insert and the delete batches of a shadow feed.
#[derive(Debug, Default, Clone, Copy)]
struct BatchTimes {
    insert_s: f64,
    inserts: usize,
    delete_s: f64,
    deletes: usize,
}

impl BatchTimes {
    fn add(&mut self, insert: bool, seconds: f64) {
        if insert {
            self.insert_s += seconds;
            self.inserts += 1;
        } else {
            self.delete_s += seconds;
            self.deletes += 1;
        }
    }

    fn insert_mean_s(&self) -> f64 {
        ratio(self.insert_s, self.inserts as f64)
    }

    fn delete_mean_s(&self) -> f64 {
        ratio(self.delete_s, self.deletes as f64)
    }

    fn mean_s(&self) -> f64 {
        ratio(
            self.insert_s + self.delete_s,
            (self.inserts + self.deletes) as f64,
        )
    }
}

/// Applies `feed` to an in-memory deployment, timing every batch.
fn apply_in_memory(dep: &mut Deployment, feed: &[Batch]) -> BatchTimes {
    let mut times = BatchTimes::default();
    for batch in feed {
        let start = Instant::now();
        if batch.insert {
            black_box(dep.insert_batch(&batch.triples));
        } else {
            black_box(dep.delete_batch(&batch.triples));
        }
        times.add(batch.insert, start.elapsed().as_secs_f64());
    }
    times
}

/// `rdf-model.*`: the parser and the bare triple store, on the same data
/// and the same batches.
fn probe_model(trace: &mut Trace, scene: Scene<'_>, out: &mut Out) -> f64 {
    let Scene { inputs, feed, .. } = scene;
    let (parsed, parse_s) = spanned(trace, "rdf-model.parse_dataset", || {
        ntriples::parse_dataset(&inputs.texts.data_nt)
    });
    let triples = parsed.map_or(0, |db| db.len());
    out.put(
        "rdf-model.parse_triples_per_s",
        ratio(triples as f64, parse_s),
        "1/s",
    );

    // A bare store with the index runs the workload uses already built,
    // like the deployed one after its first answers.
    let mut store = inputs.db.store().clone();
    for q in &inputs.workload {
        black_box(evaluate(&store, q));
    }
    let patterns: Vec<StorePattern> = inputs
        .workload
        .iter()
        .flat_map(|q| q.atoms.iter())
        .map(|a| {
            let [s, p, o] = (*a.terms()).map(|t| t.as_const());
            StorePattern::new(s, p, o)
        })
        .filter(|p| p.bound_count() > 0)
        .collect();
    let span = trace.begin_op("rdf-model.pattern_range");
    let range_s = mean_s(&patterns, 2_000, |p| store.pattern_range(&p).len());
    trace.end(span);
    out.put("rdf-model.pattern_range_ns", range_s * 1e9, "ns");

    let span = trace.begin_op("rdf-model.snapshot");
    let snapshot_s = mean_s(&[(); 1], 20_000, |()| store.snapshot().version());
    trace.end(span);
    out.put("rdf-model.snapshot_ns", snapshot_s * 1e9, "ns");

    let span = trace.begin_op("rdf-model.batches");
    let mut times = BatchTimes::default();
    for batch in feed {
        let start = Instant::now();
        if batch.insert {
            black_box(store.insert_batch(&batch.triples));
        } else {
            black_box(store.remove_batch(&batch.triples));
        }
        times.add(batch.insert, start.elapsed().as_secs_f64());
    }
    trace.end(span);
    out.put(
        "rdf-model.insert_batch_us",
        times.insert_mean_s() * 1e6,
        "us",
    );
    out.put(
        "rdf-model.remove_batch_us",
        times.delete_mean_s() * 1e6,
        "us",
    );
    times.mean_s()
}

/// `rdf-schema.*`, `rdf-stats.*`, `rdf-reform.*`, `rdf-query.*`: what
/// `Advisor::build` and `recommend` do before the search starts, and the
/// query-algebra primitives the search leans on.
fn probe_preparation(trace: &mut Trace, scene: Scene<'_>, out: &mut Out) -> TripleStore {
    let Scene { inputs, w, .. } = scene;
    let rec = scene.shadow.recommendation();
    let (saturated, saturate_s) = spanned(trace, "rdf-schema.saturated_copy", || {
        saturated_copy(inputs.db.store(), &inputs.schema, &inputs.vocab)
    });
    out.put("rdf-schema.saturate_s", saturate_s, "s");
    out.put("rdf-schema.implicit_ratio", inputs.implicit_ratio, "ratio");

    let (catalog, collect_s) = spanned(trace, "rdf-stats.collect", || match w.mode {
        ReasoningMode::Saturation => collect_stats(&saturated, inputs.db.dict(), &rec.workload),
        _ => collect_stats_post_reform(
            inputs.db.store(),
            inputs.db.dict(),
            &rec.workload,
            &inputs.schema,
            &inputs.vocab,
        ),
    });
    out.put("rdf-stats.collect_s", collect_s, "s");
    out.put(
        "rdf-stats.catalog_entries",
        catalog.recorded_atoms() as f64,
        "count",
    );

    let queries: Vec<&ConjunctiveQuery> = rec.workload.iter().collect();
    let span = trace.begin_op("rdf-reform.reformulate");
    let reformulate_s = mean_s(&queries, 5, |q| {
        reformulate(q, &inputs.schema, &inputs.vocab).len()
    });
    trace.end(span);
    let branches: usize = queries
        .iter()
        .map(|q| reformulate(q, &inputs.schema, &inputs.vocab).len())
        .sum();
    out.put("rdf-reform.reformulate_us", reformulate_s * 1e6, "us");
    out.put(
        "rdf-reform.branches_per_query",
        ratio(branches as f64, queries.len() as f64),
        "count",
    );

    let views: Vec<ConjunctiveQuery> = rec.views.iter().map(|v| v.as_query()).collect();
    let view_refs: Vec<&ConjunctiveQuery> = views.iter().collect();
    let span = trace.begin_op("rdf-query.canonical_form");
    let canonical_s = mean_s(&view_refs, 200, |q| {
        canonical_form(q, HeadMode::Sorted).key.len()
    });
    trace.end(span);
    out.put("rdf-query.canonical_form_us", canonical_s * 1e6, "us");

    let pairs: Vec<(&ConjunctiveQuery, &ConjunctiveQuery)> = queries
        .iter()
        .flat_map(|a| queries.iter().map(move |b| (*a, *b)))
        .collect();
    let span = trace.begin_op("rdf-query.containment");
    let containment_s = mean_s(&pairs, 50, |(a, b)| is_contained_in(a, b));
    trace.end(span);
    out.put("rdf-query.containment_us", containment_s * 1e6, "us");

    let lines: Vec<&str> = inputs.texts.candidates_rq.lines().collect();
    let mut dict = inputs.db.dict().clone();
    let span = trace.begin_op("rdf-query.parse");
    let parse_s = mean_s(&lines, 20, |line| parse_query(line, &mut dict).is_ok());
    trace.end(span);
    out.put("rdf-query.parse_us", parse_s * 1e6, "us");

    saturated
}

/// `core.*`: the search's own counters, the cost model, the
/// pre-reformulation search, and the ad-hoc rewrite planner.
fn probe_core(trace: &mut Trace, scene: Scene<'_>, out: &mut Out) {
    let Scene {
        inputs, w, traced, ..
    } = scene;
    let rec = scene.shadow.recommendation();
    let s = &traced.lib.search;
    let search_s = s.elapsed.as_secs_f64();
    out.put("core.search_s", search_s, "s");
    out.put("core.search_states_created", s.created as f64, "count");
    out.put("core.search_states_explored", s.explored as f64, "count");
    out.put("core.search_duplicates", s.duplicates as f64, "count");
    out.put("core.search_transitions", s.transitions as f64, "count");
    out.put(
        "core.search_states_per_s",
        ratio(s.created as f64, search_s),
        "1/s",
    );
    out.put(
        "core.search_dup_ratio",
        ratio(s.duplicates as f64, s.created as f64),
        "ratio",
    );
    out.put(
        "core.search_time_to_best_s",
        s.best_cost_trace.last().map_or(0.0, |&(at, _)| at),
        "s",
    );
    out.put("core.search_rcr", traced.rcr, "ratio");
    out.put("core.recommended_views", traced.lib.views as f64, "count");

    let model = CostModel::new(&rec.catalog, CostWeights::default());
    let initial = State::initial(&rec.workload);
    let states = [&initial, &rec.outcome.best_state];
    let span = trace.begin_op("core.cost");
    let cost_s = mean_s(&states, 500, |state| model.cost(state));
    trace.end(span);
    out.put("core.cost_eval_us", cost_s * 1e6, "us");

    // The same search layer on a very different input: every query
    // expanded into its reformulation branches *before* the search.
    let span = trace.begin_op("core.search_pre_reformulation");
    let pre = Advisor::builder(&inputs.db)
        .schema(&inputs.schema, &inputs.vocab)
        .options(SelectionOptions {
            reasoning: ReasoningMode::PreReformulation,
            search: SearchConfig {
                max_states: Some(PRE_REFORM_STATES.min(w.max_states)),
                time_budget: None,
                parallelism: 1,
                ..SearchConfig::default()
            },
            ..SelectionOptions::recommended()
        })
        .build()
        .and_then(|mut advisor| advisor.recommend(&inputs.workload));
    trace.end(span);
    let pre_rate = pre.map_or(0.0, |rec| {
        let s = &rec.outcome.stats;
        ratio(s.created as f64, s.elapsed.as_secs_f64())
    });
    out.put("core.search_pre_states_per_s", pre_rate, "1/s");

    let adhoc: Vec<ConjunctiveQuery> = inputs
        .adhoc
        .iter()
        .map(|q| minimize(q).normalized())
        .collect();
    let adhoc_refs: Vec<&ConjunctiveQuery> = adhoc.iter().collect();
    let span = trace.begin_op("core.rewrite_best");
    let rewrite_s = mean_s(&adhoc_refs, 20, |q| {
        rewrite_best(q, &rec.views).is_views_only()
    });
    trace.end(span);
    let views_only = adhoc
        .iter()
        .filter(|q| rewrite_best(q, &rec.views).is_views_only())
        .count();
    out.put("core.rewrite_plan_us", rewrite_s * 1e6, "us");
    out.put(
        "core.rewrite_views_only_ratio",
        ratio(views_only as f64, adhoc.len() as f64),
        "ratio",
    );
}

/// `rdf-engine.*`: materialisation, evaluation over views against
/// evaluation over the saturated triple table, and standalone view
/// maintenance on the same batches. Returns mean maintenance seconds per
/// batch.
fn probe_engine(
    trace: &mut Trace,
    scene: Scene<'_>,
    saturated: &TripleStore,
    out: &mut Out,
) -> f64 {
    let Scene {
        inputs,
        w,
        traced,
        shadow,
        feed,
    } = scene;
    let rec = shadow.recommendation();
    let mut stores = ShadowStore::new(inputs, w.mode, saturated);

    let (tables, materialize_s) = spanned(trace, "rdf-engine.materialize", || {
        rec.materialization
            .iter()
            .map(|u| materialize_union(&stores.store, u).len())
            .sum::<usize>()
    });
    black_box(tables);
    out.put("rdf-engine.materialize_s", materialize_s, "s");
    out.put("rdf-engine.view_rows", traced.lib.view_rows as f64, "count");
    out.put(
        "rdf-engine.view_cells",
        traced.lib.view_cells as f64,
        "count",
    );

    let snap = shadow.snapshot();
    let plans: Vec<_> = (0..inputs.workload.len())
        .filter_map(|i| snap.plan_workload(i).ok())
        .collect();
    let plan_refs: Vec<_> = plans.iter().collect();
    let tuples: usize = plans
        .iter()
        .map(|p| snap.answer_query(p).map_or(0, |a| a.len()))
        .sum();
    let span = trace.begin_op("rdf-engine.eval_views");
    let views_s = mean_s(&plan_refs, 20, |p| {
        snap.answer_query(p).map_or(0, |a| a.len())
    });
    trace.end(span);
    let queries: Vec<&ConjunctiveQuery> = rec.workload.iter().collect();
    let span = trace.begin_op("rdf-engine.eval_base");
    let base_s = mean_s(&queries, 3, |q| evaluate(saturated, q).len());
    trace.end(span);
    out.put("rdf-engine.eval_views_us", views_s * 1e6, "us");
    out.put("rdf-engine.eval_base_us", base_s * 1e6, "us");
    out.put("rdf-engine.views_speedup", ratio(base_s, views_s), "ratio");
    out.put(
        "rdf-engine.answer_tuples_per_s",
        ratio(tuples as f64, views_s * plans.len() as f64),
        "1/s",
    );
    out.put(
        "rdf-engine.view_index_builds",
        traced.lib.index_builds_warm as f64,
        "count",
    );
    out.put(
        "rdf-engine.view_index_builds_served",
        traced.lib.index_builds_served as f64,
        "count",
    );

    // Standalone maintained views, one per materialisation branch, fed
    // the same batches through the same store transitions a deployment
    // makes (one shared delta set per batch); only the calls into
    // `rdf_engine::maintain` are timed.
    let mut views: Vec<MaintainedView> = rec
        .materialization
        .iter()
        .flat_map(|u| u.branches())
        .map(|b| MaintainedView::new(&stores.store, b.clone()))
        .collect();
    let span = trace.begin_op("rdf-engine.maintain");
    let mut times = BatchTimes::default();
    for batch in feed {
        if batch.insert {
            let added = stores.insert(inputs, &batch.triples);
            let start = Instant::now();
            let delta = DeltaSet::new(&added);
            for v in &mut views {
                black_box(v.apply_insert_delta(&stores.store, &delta));
            }
            times.add(true, start.elapsed().as_secs_f64());
        } else {
            let doomed = stores.doomed(inputs, &batch.triples);
            let start = Instant::now();
            let delta = DeltaSet::new(&doomed);
            let deltas: Vec<_> = views
                .iter()
                .map(|v| v.prepare_delete_delta(&stores.store, &delta))
                .collect();
            let prepared = start.elapsed().as_secs_f64();
            stores.store.remove_batch(&doomed);
            let start = Instant::now();
            for (v, delta) in views.iter_mut().zip(&deltas) {
                black_box(v.commit_delete_batch(&stores.store, delta));
            }
            times.add(false, prepared + start.elapsed().as_secs_f64());
        }
    }
    trace.end(span);
    out.put(
        "rdf-engine.maintain_insert_us",
        times.insert_mean_s() * 1e6,
        "us",
    );
    out.put(
        "rdf-engine.maintain_delete_us",
        times.delete_mean_s() * 1e6,
        "us",
    );
    let delta_tuples =
        (traced.lib.insert_stats.delta_tuples + traced.lib.delete_stats.delta_tuples) as f64;
    out.put("rdf-engine.delta_tuples", delta_tuples, "count");
    out.put(
        "rdf-engine.delta_per_triple",
        ratio(delta_tuples, traced.triples_written as f64),
        "ratio",
    );
    times.mean_s()
}

/// `exec.*`: the read path from the traced round's spans, the write path
/// and the two concurrency ratios from in-memory clones of the deployed
/// state.
fn probe_exec(
    trace: &mut Trace,
    scene: Scene<'_>,
    store_batch_s: f64,
    maintain_batch_s: f64,
    out: &mut Out,
) {
    let Scene {
        inputs,
        w,
        traced,
        shadow,
        feed,
    } = scene;
    let spans = trace.by_name();
    let agg = |name: &str| spans.get(name).copied().unwrap_or_default();
    out.put("exec.pin_ns", agg("exec.pin").mean_us() * 1e3, "ns");
    out.put(
        "exec.plan_cached_us",
        agg("exec.plan_workload").mean_us(),
        "us",
    );
    out.put("exec.plan_adhoc_us", agg("exec.plan_adhoc").mean_us(), "us");
    out.put("exec.answer_self_us", agg("exec.read").mean_self_us(), "us");
    // The traced round's own latency distribution, every sample as it
    // fell: too noisy on a shared machine to be bounded end to end (see
    // the README), still the only place where a publish stall or a
    // checkpoint shows.
    out.put("exec.read_p99_us", percentile(&traced.read_us, 99.0), "us");
    out.put(
        "exec.write_batch_p50_ms",
        percentile(&traced.batch_ms, 50.0),
        "ms",
    );
    out.put(
        "exec.write_batch_p95_ms",
        percentile(&traced.batch_ms, 95.0),
        "ms",
    );

    let span = trace.begin_op("exec.batches_in_memory");
    let mut solo = shadow.clone();
    let times = apply_in_memory(&mut solo, feed);
    trace.end(span);
    drop(solo);
    out.put("exec.insert_batch_ms", times.insert_mean_s() * 1e3, "ms");
    out.put("exec.delete_batch_ms", times.delete_mean_s() * 1e3, "ms");
    out.put(
        "exec.write_unattributed_ms",
        (times.mean_s() - store_batch_s - maintain_batch_s) * 1e3,
        "ms",
    );
    out.put(
        "exec.generations_published",
        traced.lib.generations_published as f64,
        "count",
    );

    // One reader alone, then two readers splitting the same reads.
    let reader = shadow.reader();
    let span = trace.begin_op("exec.read_scaling");
    let one = solo_qps(&reader, inputs, SHADOW_READS);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| solo_qps(&reader, inputs, SHADOW_READS / 2));
        }
    });
    let two = SHADOW_READS as f64 / start.elapsed().as_secs_f64();
    trace.end(span);
    out.put("exec.read_scaling_2t", ratio(two, one), "ratio");

    // Reads beside a live writer against reads alone. The concurrent
    // workload measured its window already; the others get a short one
    // on a clone.
    let under_write = if w.concurrent {
        ratio(
            traced.read_us.len() as f64,
            traced.read_us.iter().sum::<f64>() / 1e6,
        )
    } else {
        let span = trace.begin_op("exec.read_under_write");
        let mut live = shadow.clone();
        let reader = live.reader();
        let barrier = Barrier::new(2);
        let done = AtomicBool::new(false);
        let qps = std::thread::scope(|scope| {
            let reading = scope.spawn(|| {
                barrier.wait();
                let start = Instant::now();
                let mut reads = 0usize;
                // Relaxed: the flag publishes no data.
                while !done.load(Ordering::Relaxed) {
                    black_box(read(
                        &reader,
                        inputs,
                        inputs.reads[reads % inputs.reads.len()],
                    ));
                    reads += 1;
                }
                reads as f64 / start.elapsed().as_secs_f64()
            });
            barrier.wait();
            apply_in_memory(&mut live, feed);
            done.store(true, Ordering::Relaxed);
            reading.join().expect("the shadow reader panicked")
        });
        trace.end(span);
        qps
    };
    out.put(
        "exec.read_under_write_ratio",
        ratio(under_write, one),
        "ratio",
    );
}

/// `durability.*` and `exec_persist.*`: the log, the snapshot bundle and
/// the pieces of recovery, on the directory the traced round left behind.
fn probe_durability(
    trace: &mut Trace,
    traced: &Round,
    dir: &Path,
    out: &mut Out,
) -> Result<(), String> {
    let lib = &traced.lib;
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");

    // A side log with records the size of this feed's: append cost
    // (frame, write, fsync) and scan throughput.
    let side = dir.join("probe.wal");
    let payload = vec![0x5au8; BATCH_TRIPLES * 12 + 17];
    let mut log = wal::WalWriter::create(&side).map_err(|e| err("creating the probe log", &e))?;
    let appends = 100;
    let span = trace.begin_op("durability.wal_append");
    let start = Instant::now();
    for _ in 0..appends {
        log.append(&payload)
            .map_err(|e| err("appending to the probe log", &e))?;
    }
    let append_s = start.elapsed().as_secs_f64() / appends as f64;
    trace.end(span);
    drop(log);
    let bytes = std::fs::read(&side).map_err(|e| err("reading the probe log", &e))?;
    let _ = std::fs::remove_file(&side);
    let span = trace.begin_op("durability.wal_scan");
    let scan_s = mean_s(&[(); 1], 50, |()| {
        wal::scan(&bytes).map_or(0, |s| s.records.len())
    });
    trace.end(span);
    out.put("durability.wal_append_us", append_s * 1e6, "us");
    out.put(
        "durability.wal_scan_mb_per_s",
        ratio(bytes.len() as f64 / 1e6, scan_s),
        "MB/s",
    );
    out.put(
        "durability.wal_bytes_per_triple",
        ratio(lib.wal_bytes_appended as f64, traced.triples_written as f64),
        "B",
    );
    out.put("durability.checkpoints", lib.checkpoints as f64, "count");
    out.put(
        "durability.snapshot_bytes",
        lib.snapshot_bytes_crash as f64,
        "B",
    );

    // The pieces of recovery, separately: decode the bundle, scan the
    // real log; what is left of the traced round's recover call is replay.
    let (opened, open_s) = spanned(trace, "exec_persist.open", || Deployment::open(dir));
    opened.map_err(|e| err("Deployment::open", &e))?;
    out.put("durability.open_s", open_s, "s");
    let real_log = std::fs::read(dir.join(WAL_FILE)).map_err(|e| err("reading the log", &e))?;
    let real_scan_s = mean_s(&[(); 1], 1, |()| {
        wal::scan(&real_log).map_or(0, |s| s.records.len())
    });
    let recover_s = trace
        .by_name()
        .get("exec_persist.recover")
        .map_or(0.0, |a| a.mean_us() / 1e6);
    let replayed = lib.recovery.as_ref().map_or(0, |r| r.records_replayed);
    out.put(
        "exec_persist.replay_records_per_s",
        ratio(replayed as f64, recover_s - open_s - real_scan_s),
        "1/s",
    );

    let (mut durable, _) =
        DurableDeployment::recover(dir).map_err(|e| err("recovering for the probes", &e))?;
    let (hash, hash_s) = spanned(trace, "exec_persist.content_hash", || {
        durable.deployment().content_hash(durable.dict())
    });
    hash.map_err(|e| err("content_hash", &e))?;
    out.put(
        "exec_persist.hash_mb_per_s",
        ratio(lib.snapshot_bytes_crash as f64 / 1e6, hash_s),
        "MB/s",
    );
    let mut checkpoint_s = Vec::new();
    for _ in 0..3 {
        let (done, took) = spanned(trace, "exec_persist.checkpoint", || durable.checkpoint());
        done.map_err(|e| err("checkpoint", &e))?;
        checkpoint_s.push(took);
    }
    let checkpoint_s = median(&checkpoint_s);
    out.put("durability.checkpoint_ms", checkpoint_s * 1e3, "ms");
    out.put(
        "durability.persist_mb_per_s",
        ratio(lib.snapshot_bytes_crash as f64 / 1e6, checkpoint_s),
        "MB/s",
    );
    Ok(())
}

/// Runs the plain round, the traced round and the probes; writes the
/// span log next to `work`; returns every per-layer metric.
pub fn traced_run(
    inputs: &Inputs,
    w: &Workload,
    work: &Path,
    inject: Inject,
    ledger: &mut Ledger,
) -> Result<Vec<Metric>, String> {
    let plain_dir = work.join("plain");
    let plain = run_round(&mut NoTrace, inputs, w, &plain_dir, inject, false);
    let _ = std::fs::remove_dir_all(&plain_dir);
    let plain = plain?;

    let mut trace = Trace::new(Instant::now());
    let dir = work.join("traced");
    let mut traced = run_round(&mut trace, inputs, w, &dir, inject, true)?;
    if let Some(replay) = traced.replay.take() {
        verify_samples(&plain.samples, &replay, ledger);
        verify_samples(&traced.samples, &replay, ledger);
    }
    let shadow = traced
        .shadow
        .take()
        .ok_or("the traced round kept no shadow deployment")?;
    let scene = Scene {
        inputs,
        w,
        traced: &traced,
        shadow: &shadow,
        feed: &inputs.feed[..inputs.feed.len().min(SHADOW_BATCHES)],
    };

    let mut out = Out(Vec::new());
    let (plain_s, traced_s) = (plain.timed_s(w.concurrent), traced.timed_s(w.concurrent));
    out.put(
        "trace.overhead_pct",
        100.0 * (traced_s - plain_s) / plain_s,
        "%",
    );
    out.put(
        "trace.dominant_phase_pct",
        100.0 * traced.phase_s(w.dominant) / traced_s,
        "%",
    );
    let spans = trace.by_name();
    out.put(
        "advisor.build_s",
        spans.get("advisor.build").map_or(0.0, Agg::total_s),
        "s",
    );
    // The long steps of the lifecycle as the plain round had them, each
    // at the fastest of its few repeats: too noisy on a shared machine to
    // hold a bound end to end.
    out.0.extend(long_steps(
        std::slice::from_ref(&plain),
        [
            "advisor.tune_s",
            "advisor.deploy_s",
            "exec.write_triples_per_s",
            "exec_persist.recover_s",
        ],
    ));
    out.put(
        "advisor.stats_collections",
        traced.lib.stats_collections as f64,
        "count",
    );
    out.put(
        "advisor.saturation_runs",
        traced.lib.saturation_runs as f64,
        "count",
    );

    let store_batch_s = probe_model(&mut trace, scene, &mut out);
    let saturated = probe_preparation(&mut trace, scene, &mut out);
    probe_core(&mut trace, scene, &mut out);
    let maintain_batch_s = probe_engine(&mut trace, scene, &saturated, &mut out);
    probe_exec(&mut trace, scene, store_batch_s, maintain_batch_s, &mut out);
    probe_durability(&mut trace, &traced, &dir, &mut out)?;
    let _ = std::fs::remove_dir_all(&dir);

    // The span log outlives the work directory: it sits beside it.
    if let Some(parent) = work.parent() {
        let path = parent.join(format!("lifecycle-trace-{}.jsonl", w.name));
        let written = std::fs::File::create(&path)
            .map(std::io::BufWriter::new)
            .and_then(|mut f| {
                trace.write_jsonl(&mut f)?;
                std::io::Write::flush(&mut f)
            });
        match written {
            Ok(()) => println!(
                "# {} spans written to {}",
                trace.spans().len(),
                path.display()
            ),
            Err(e) => return Err(format!("writing {}: {e}", path.display())),
        }
    }

    ledger.absorb(plain.ledger);
    ledger.absorb(traced.ledger);
    Ok(out.0)
}
