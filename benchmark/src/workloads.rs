//! The four workloads of record and their tiny `--smoke` twins.
//!
//! Sizes were tuned to the time targets in the README (a round of 2-3 s,
//! so that a run holds ten or more; the largest phase of a round is its
//! workload's subject). The *structure* — data generator, query
//! generator, reasoning mode, which phase is the largest — is the
//! benchmark's definition and does not change with the sizes.

use rdfviews::core::ReasoningMode;

/// The phase a workload exists to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Tune,
    Read,
    WriteAndRecover,
    ConcurrentWindow,
}

/// One workload: what is generated and how much of each phase a round
/// runs. Every quantity is a count; nothing in a round is bounded by time
/// except the `concurrent` window, whose length is the writer's fixed
/// batch count.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// The phase that should take most of a timed round.
    pub dominant: Phase,
    /// Seed of the reference draw: the schema and the query log (see
    /// `inputs::generate_texts`). Part of the workload's definition.
    pub reference_seed: u64,
    /// Barton-like instance triples / distinct resources.
    pub triples: usize,
    pub resources: usize,
    /// Workload queries (4 atoms each, star/chain alternating).
    pub queries: usize,
    pub mode: ReasoningMode,
    /// Search budget in created states; no time budget is ever set.
    pub max_states: usize,
    /// Tuning sessions and recoveries per round: a round repeats them
    /// (each session a fresh advisor, each recovery of the same crashed
    /// directory) so that a run has a dozen or more repeats of each to
    /// take the fastest of.
    pub tunes: usize,
    pub recovers: usize,
    /// Sequential reads per round (ignored when `concurrent`).
    pub reads: usize,
    /// Inserted batches per round; every second one is deleted again, so
    /// a round applies `insert_batches * 3 / 2` batches.
    pub insert_batches: usize,
    /// WAL size that triggers a compaction checkpoint; `None` keeps the
    /// library default (1 MiB, never reached by these feeds).
    pub compact_threshold: Option<u64>,
    /// Reads run on a second thread *while* the feed is applied.
    pub concurrent: bool,
}

/// Triples per feed batch.
pub const BATCH_TRIPLES: usize = 64;

pub const NAMES: [&str; 4] = ["tune_reform", "serve_sat", "feed_durable", "mixed_rw"];

impl Workload {
    /// Looks a workload up by name; `smoke` swaps in sizes that finish in
    /// a few seconds with every check still on.
    pub fn named(name: &str, smoke: bool) -> Option<Workload> {
        let full = match name {
            "tune_reform" => Workload {
                name: "tune_reform",
                dominant: Phase::Tune,
                reference_seed: 4,
                triples: 40_000,
                resources: 1_000,
                queries: 12,
                mode: ReasoningMode::PostReformulation,
                max_states: 20_000,
                tunes: 1,
                recovers: 3,
                reads: 1_500,
                insert_batches: 20,
                compact_threshold: None,
                concurrent: false,
            },
            "serve_sat" => Workload {
                name: "serve_sat",
                dominant: Phase::Read,
                reference_seed: 4,
                triples: 80_000,
                resources: 2_000,
                queries: 8,
                mode: ReasoningMode::Saturation,
                max_states: 5_000,
                tunes: 2,
                recovers: 2,
                reads: 3_000,
                insert_batches: 4,
                compact_threshold: None,
                concurrent: false,
            },
            "feed_durable" => Workload {
                name: "feed_durable",
                dominant: Phase::WriteAndRecover,
                reference_seed: 4,
                triples: 80_000,
                resources: 2_000,
                queries: 8,
                mode: ReasoningMode::Saturation,
                max_states: 5_000,
                tunes: 2,
                recovers: 2,
                reads: 1_000,
                insert_batches: 12,
                compact_threshold: Some(5 * 1024),
                concurrent: false,
            },
            "mixed_rw" => Workload {
                name: "mixed_rw",
                dominant: Phase::ConcurrentWindow,
                reference_seed: 4,
                triples: 40_000,
                resources: 1_000,
                queries: 8,
                mode: ReasoningMode::PostReformulation,
                max_states: 8_000,
                tunes: 2,
                recovers: 2,
                reads: 0,
                insert_batches: 120,
                compact_threshold: Some(24 * 1024),
                concurrent: true,
            },
            _ => return None,
        };
        Some(if smoke { full.smoke() } else { full })
    }

    fn smoke(self) -> Workload {
        Workload {
            triples: 4_000,
            resources: 200,
            queries: 4,
            tunes: 2,
            recovers: 2,
            max_states: 2_000,
            reads: if self.concurrent { 0 } else { 100 },
            insert_batches: 8,
            compact_threshold: self.compact_threshold.map(|_| 4 * 1024),
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_in_both_sizes() {
        for name in NAMES {
            let full = Workload::named(name, false).unwrap();
            let smoke = Workload::named(name, true).unwrap();
            assert_eq!(full.name, name);
            assert_eq!(smoke.mode, full.mode);
            assert_eq!(smoke.concurrent, full.concurrent);
            assert!(smoke.triples < full.triples);
            assert_eq!(full.insert_batches % 2, 0);
            assert_eq!(smoke.insert_batches % 2, 0);
        }
        assert!(Workload::named("nope", false).is_none());
    }
}
