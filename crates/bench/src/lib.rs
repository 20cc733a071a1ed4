//! Shared harness for the experiment benches.
//!
//! Every `benches/exp_*.rs` target regenerates one table or figure of the
//! paper, named in its file (`exp_fig4` … `exp_fig8`, `exp_table3`,
//! `exp_vmc`); `exp_vb_ablation` goes beyond the paper. Each bench's
//! module doc states its setup, what stands in for the paper's systems
//! and the findings it checks for. Budgets are laptop-scale by
//! default and overridable through `RDFVIEWS_*` environment variables:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `RDFVIEWS_BUDGET_SECS` | per-search wall-clock budget | 2 (fig4/6), 4 (fig7) |
//! | `RDFVIEWS_MAX_STATES` | state budget (simulated memory limit) | 300000 |
//! | `RDFVIEWS_FIG6_SIZES` | comma-separated workload sizes | `5,10,20,50` |
//! | `RDFVIEWS_FIG8_TRIPLES` | Barton-like dataset size for Figure 8 | 40000 |

use std::time::Duration;

use rdfviews::core::{
    search, CostModel, CostWeights, SearchConfig, SearchOutcome, State, StrategyKind,
};
use rdfviews::model::Dataset;
use rdfviews::query::ConjunctiveQuery;
use rdfviews::stats::collect_stats;
use rdfviews::workload::{
    generate_barton, generate_matching_data, generate_satisfiable, generate_workload,
    BartonDataset, BartonSpec, Commonality, SatisfiableSpec, Shape, WorkloadSpec,
};

/// Reads a `Duration` from the environment in whole seconds.
pub fn env_secs(var: &str, default: u64) -> Duration {
    Duration::from_secs(
        std::env::var(var)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default),
    )
}

/// Reads a `usize` from the environment.
pub fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a comma-separated usize list from the environment.
pub fn env_usize_list(var: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(var)
        .ok()
        .map(|v| v.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_else(|| default.to_vec())
}

/// Writes a machine-readable `BENCH_<name>.json` summary — a flat map of
/// metric name to number — for CI trend tracking. The output directory is
/// the current one unless `RDFVIEWS_BENCH_DIR` overrides it. Failures are
/// reported on stderr, never panicked on (a bench must not fail because a
/// summary could not be written).
pub fn emit_bench_json(name: &str, metrics: &[(&str, f64)]) {
    let dir = std::env::var("RDFVIEWS_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{name}.json"));
    let mut body = format!("{{\n  \"bench\": \"{name}\"");
    for (key, value) in metrics {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        body.push_str(&format!(",\n  \"{key}\": {rendered}"));
    }
    body.push_str("\n}\n");
    match std::fs::write(&path, body) {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => eprintln!("# warning: cannot write {}: {e}", path.display()),
    }
}

/// A minimal fixed-width table printer for the bench reports.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Creates a table and prints the header row.
    pub fn new(headers: &[&str], widths: &[usize]) -> Self {
        let t = Table {
            widths: widths.to_vec(),
        };
        t.row(headers);
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
        println!("{}", "-".repeat(total));
        t
    }

    /// Prints one row.
    pub fn row(&self, cells: &[&str]) {
        let mut line = String::new();
        for (cell, w) in cells.iter().zip(self.widths.iter()) {
            line.push_str(&format!("{cell:>w$}  ", w = w));
        }
        println!("{}", line.trim_end());
    }
}

/// A generated workload together with the data matching its vocabulary.
pub struct Bench {
    /// The database.
    pub db: Dataset,
    /// The workload queries.
    pub workload: Vec<ConjunctiveQuery>,
}

/// Builds a free-form workload plus matching data (the paper's first
/// generator). `object_const_prob = 0` mimics the unselective atoms of
/// Barton-scale queries.
pub fn free_workload(
    shape: Shape,
    commonality: Commonality,
    queries: usize,
    atoms: usize,
    seed: u64,
    object_const_prob: f64,
    triples: usize,
) -> Bench {
    let mut db = Dataset::new();
    let mut spec = WorkloadSpec::new(queries, atoms, shape, commonality).with_seed(seed);
    spec.object_const_prob = object_const_prob;
    let workload = generate_workload(&spec, db.dict_mut());
    let (mut dict, mut store) = db.into_parts();
    generate_matching_data(&spec, &mut dict, &mut store, triples);
    Bench {
        db: Dataset::from_parts(dict, store),
        workload,
    }
}

/// Runs one search over a bench with the given strategy configuration and
/// calibrated weights (the paper's Section 6 settings).
pub fn run_strategy(
    bench: &Bench,
    strategy: StrategyKind,
    avf: bool,
    stop_var: bool,
    budget: Duration,
    max_states: usize,
) -> SearchOutcome {
    let cat = collect_stats(bench.db.store(), bench.db.dict(), &bench.workload);
    let mut model = CostModel::new(&cat, CostWeights::default());
    let s0 = State::initial(&bench.workload);
    model.calibrate_cm(&s0);
    search(
        s0,
        &model,
        &SearchConfig {
            strategy,
            avf,
            stop_var,
            stop_tt: false,
            time_budget: Some(budget),
            max_states: Some(max_states),
            vb_overlap_limit: 1,
            parallelism: 1,
        },
    )
}

/// The Barton-like setup for the reformulation experiments (Table 3,
/// Figures 7 and 8): a dataset plus the workloads Q1 (5 queries) and
/// Q2 ⊇ Q1 (10 queries), both satisfiable.
pub struct ReformBench {
    /// The dataset with its schema.
    pub data: BartonDataset,
    /// Q1: 5 satisfiable queries.
    pub q1: Vec<ConjunctiveQuery>,
    /// Q2: 10 satisfiable queries, the first 5 being Q1.
    pub q2: Vec<ConjunctiveQuery>,
}

/// Builds the reformulation bench at a given scale. The resource pool is
/// kept small relative to the triple count so that popular properties have
/// a join fan-out well above 1 — the regime (as in the real Barton
/// catalog) where multi-atom view estimates grow and the search has room
/// to improve on the initial state.
pub fn reform_bench(resources: usize, triples: usize) -> ReformBench {
    let resources = resources.min((triples / 40).max(8));
    let data = generate_barton(&BartonSpec::default().with_size(resources, triples));
    // Q1 ⊂ Q2, mirroring Table 3 ("Q1 is a subset of Q2"); ~6 atoms per
    // query approximates the paper's #a(Q1) = 33 over 5 queries. A low
    // object-constant probability keeps the queries unselective enough
    // that the initial state is improvable (Figure 7's decreasing curves).
    let mut spec = SatisfiableSpec::new(10, 6, Shape::Mixed).with_seed(0x71);
    spec.object_const_prob = 0.15;
    let q2 = generate_satisfiable(&data.db, &spec);
    let q1 = q2[..5].to_vec();
    ReformBench { data, q1, q2 }
}

/// A selective variant of [`reform_bench`] for the execution-time
/// experiment (Figure 8): a larger resource pool keeps per-property
/// fan-out ≈ 1, so the pre-reformulation branch views stay small enough to
/// materialize quickly. (The fan-out-heavy [`reform_bench`] is the right
/// regime for the *search* experiments, but its unselective branch views
/// can hold millions of rows — the very storage blow-up the cost model
/// penalizes — which makes wall-clock materialization of all ~10² of them
/// impractical for a bench.)
pub fn reform_bench_selective(resources: usize, triples: usize) -> ReformBench {
    let data = generate_barton(&BartonSpec::default().with_size(resources, triples));
    let q2 = generate_satisfiable(
        &data.db,
        &SatisfiableSpec::new(10, 6, Shape::Mixed).with_seed(0x71),
    );
    let q1 = q2[..5].to_vec();
    ReformBench { data, q1, q2 }
}

/// Formats an rcr for the tables: "OOM" when the state budget (the
/// simulated memory limit) died before any solution, a plain number
/// otherwise (0.000 = ran, found nothing better — e.g. the paper's Greedy
/// on star queries).
pub fn fmt_rcr(outcome: &SearchOutcome) -> String {
    if outcome.stats.out_of_budget && outcome.rcr() == 0.0 {
        "OOM".to_string()
    } else {
        format!("{:.3}", outcome.rcr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_workload_builds() {
        let b = free_workload(Shape::Chain, Commonality::High, 3, 5, 1, 0.2, 500);
        assert_eq!(b.workload.len(), 3);
        assert!(b.db.len() > 100);
    }

    #[test]
    fn run_strategy_smoke() {
        let b = free_workload(Shape::Chain, Commonality::High, 2, 3, 2, 0.2, 300);
        let out = run_strategy(
            &b,
            StrategyKind::Dfs,
            true,
            true,
            Duration::from_millis(300),
            50_000,
        );
        assert!(out.best_cost <= out.initial_cost);
    }

    #[test]
    fn reform_bench_builds() {
        let rb = reform_bench(200, 1500);
        assert_eq!(rb.q1.len(), 5);
        assert_eq!(rb.q2.len(), 10);
        assert_eq!(&rb.q2[..5], &rb.q1[..]);
    }

    #[test]
    fn bench_json_is_written() {
        let dir = std::env::temp_dir().join(format!("rdfviews-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("RDFVIEWS_BENCH_DIR", &dir);
        emit_bench_json("unit", &[("wall_s", 0.25), ("rows", 42.0)]);
        std::env::remove_var("RDFVIEWS_BENCH_DIR");
        let body = std::fs::read_to_string(dir.join("BENCH_unit.json")).unwrap();
        assert!(body.contains("\"bench\": \"unit\""));
        assert!(body.contains("\"wall_s\": 0.25"));
        assert!(body.contains("\"rows\": 42"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn env_helpers() {
        assert_eq!(env_usize("RDFVIEWS_DOES_NOT_EXIST", 7), 7);
        assert_eq!(
            env_secs("RDFVIEWS_DOES_NOT_EXIST", 3),
            Duration::from_secs(3)
        );
        assert_eq!(
            env_usize_list("RDFVIEWS_DOES_NOT_EXIST", &[1, 2]),
            vec![1, 2]
        );
    }
}
