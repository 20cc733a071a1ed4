//! From the rounds of a run to its end-to-end metrics.
//!
//! One rule: **identical work, repeated, is reported as its fastest
//! repeat.** The sandbox's noise only ever adds time, in bursts that last
//! from a fraction of a millisecond to seconds and whose density drifts
//! over minutes, so the fastest of many repeats is the one number that
//! does not move with the machine's other tenants; a median of the same
//! repeats moves by 20 % and more (README, "Noise, and the fastest-repeat
//! rule"). What counts as "identical work" is the smallest piece that
//! really repeats:
//!
//! * a tuning session, a deployment, a recovery — each repeats in every
//!   round, sessions and recoveries inside a round too;
//! * a stage of the set-up — the set-up is repeated between rounds;
//! * one read of one query on one database state — every query of the
//!   read plan comes round hundreds of times in a run;
//! * the `k`-th batch of the feed — once per round, on the same state.
//!
//! Medians are kept for what they are for: how *different* pieces of work
//! are distributed — the queries of a workload, the batches of a feed.
//!
//! The concurrent workload goes by the same rule. What its reader and
//! writer do to each other all the time (a shared core, shared cache
//! lines) is in every repeat and so in the fastest one; what they do to
//! each other now and then (an index rebuilt after a publish, a pin that
//! waits) is not, and is read off the traced run instead
//! (`exec.read_under_write_ratio`, `exec.read_p99_us`, `exec.pin_ns`,
//! `rdf-engine.view_index_builds_served`). A best-of-windows estimate
//! would keep it and was tried: its ten-run spread was 17-21 % where the
//! rule's is 2-5 %.

use std::collections::BTreeMap;

use crate::inputs::ReadOp;
use crate::round::Round;
use crate::stats::{fastest, median};
use crate::Metric;

/// Every repeat of a repeated step, over all rounds.
fn all(rounds: &[Round], f: impl Fn(&Round) -> &[f64]) -> Vec<f64> {
    rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
}

/// Per distinct read of the plan: (the read, its fastest repeat in µs,
/// times issued), over all rounds. The plan is cyclic: the concurrent
/// reader goes round it as often as its window lasts.
pub fn read_floors(rounds: &[Round], plan: &[ReadOp]) -> Vec<(ReadOp, f64, f64)> {
    let mut by_op: BTreeMap<ReadOp, (f64, f64)> = BTreeMap::new();
    for round in rounds {
        for (&us, op) in round.read_us.iter().zip(plan.iter().cycle()) {
            let e = by_op.entry(*op).or_insert((f64::INFINITY, 0.0));
            e.0 = e.0.min(us);
            e.1 += 1.0;
        }
    }
    by_op
        .into_iter()
        .map(|(op, (floor, issued))| (op, floor, issued))
        .collect()
}

/// Per batch of the feed: its fastest repeat over the rounds, in ms.
pub fn batch_floors(rounds: &[Round]) -> Vec<f64> {
    (0..rounds[0].batch_ms.len())
        .map(|k| fastest(&rounds.iter().map(|r| r.batch_ms[k]).collect::<Vec<_>>()))
        .collect()
}

/// One set-up's stages, as `inputs::build` timed them.
pub type Stages = Vec<(&'static str, f64)>;

/// Seconds of a set-up with every stage at its fastest repeat: a set-up
/// is half a second, too long for any repeat to run clean from end to
/// end on a busy machine; its stages are shorter and need only a clean
/// repeat each.
pub fn setup_s(setups: &[Stages]) -> f64 {
    (0..setups[0].len())
        .map(|k| fastest(&setups.iter().map(|s| s[k].1).collect::<Vec<_>>()))
        .sum()
}

/// The long steps of the lifecycle — a tuning session, a deployment to
/// full service, the feed, a recovery to full service — each at its
/// fastest repeat, under the four `names` the caller reports them by.
/// They are reported beside the end-to-end metrics, unbounded: a step of
/// 6 ms to 1 s has no clean repeat in a run when the machine's other
/// tenants are busy for all of it, and cannot hold a bound (README,
/// "End-to-end metrics").
pub fn long_steps(rounds: &[Round], names: [&str; 4]) -> Vec<Metric> {
    let deploys: Vec<f64> = rounds.iter().map(|r| r.deploy_s).collect();
    let feed_s = batch_floors(rounds).iter().sum::<f64>() / 1e3;
    vec![
        Metric::new(names[0], fastest(&all(rounds, |r| &r.tune_s)), "s"),
        Metric::new(names[1], fastest(&deploys), "s"),
        Metric::new(names[2], rounds[0].triples_written as f64 / feed_s, "1/s"),
        Metric::new(names[3], fastest(&all(rounds, |r| &r.recover_s)), "s"),
    ]
}

/// The 6 end-to-end metrics of a run.
pub fn end_to_end(
    rounds: &[Round],
    plan: &[ReadOp],
    setups: &[Stages],
    peak_rss_mb: f64,
) -> Vec<Metric> {
    // Service time of the mix with every distinct read at its fastest
    // repeat.
    let reads = read_floors(rounds, plan);
    let issued: f64 = reads.iter().map(|r| r.2).sum();
    let read_service_us: f64 = reads.iter().map(|r| r.1 * r.2).sum();
    // The tuned queries are the same for every seed and issued equally
    // often; the ad-hoc variants select on seeded constants, and with
    // them in it the median moved by 30 % for one seed in fifteen.
    let tuned: Vec<f64> = reads
        .iter()
        .filter(|r| matches!(r.0, ReadOp::Workload(_)))
        .map(|r| r.1)
        .collect();
    vec![
        Metric::new("setup_s", setup_s(setups), "s"),
        Metric::new("tune_rcr", rounds[0].rcr, "ratio"),
        Metric::new("read_qps", issued / read_service_us * 1e6, "1/s"),
        Metric::new("read_p50_us", median(&tuned), "us"),
        Metric::new("bytes_per_triple", rounds[0].bytes_per_triple, "B"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q0: ReadOp = ReadOp::Workload(0);
    const Q1: ReadOp = ReadOp::Workload(1);
    const A0: ReadOp = ReadOp::Adhoc(0);

    fn round(read_us: &[f64], batch_ms: &[f64], once: f64) -> Round {
        Round {
            tune_s: vec![once, once * 2.0],
            deploy_s: once / 10.0,
            recover_s: vec![once],
            read_us: read_us.to_vec(),
            batch_ms: batch_ms.to_vec(),
            triples_written: 64 * batch_ms.len(),
            ..Round::default()
        }
    }

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).expect(name).value
    }

    fn assert_close(got: f64, want: f64) {
        assert!((got - want).abs() <= 1e-9 * want.abs(), "{got} vs {want}");
    }

    #[test]
    fn reads_and_batches_are_taken_at_their_fastest_repeat() {
        // Plan Q0 Q1 A0, issued twice per round. Q0 costs 100 us, Q1
        // 300 us, the ad-hoc variant 20 us; every repeat but one of each
        // met a burst.
        let plan = [Q0, Q1, A0];
        let rounds = [
            round(&[150.0, 300.0, 25.0, 180.0, 900.0, 20.0], &[4.0, 9.0], 2.0),
            round(&[100.0, 450.0, 30.0, 130.0, 310.0, 22.0], &[5.0, 8.0], 1.0),
        ];
        assert_eq!(
            read_floors(&rounds, &plan),
            [(Q0, 100.0, 4.0), (Q1, 300.0, 4.0), (A0, 20.0, 4.0)]
        );
        assert_eq!(batch_floors(&rounds), [4.0, 8.0]);
        // Two set-ups of two stages; each stage has its own fastest repeat.
        let setups = [vec![("a", 0.3), ("b", 0.2)], vec![("a", 0.4), ("b", 0.1)]];
        let m = end_to_end(&rounds, &plan, &setups, 10.0);
        // Every read counts towards the throughput, the tuned queries
        // alone towards the median.
        assert_close(value(&m, "read_qps"), 12.0 / 1680.0 * 1e6);
        assert_close(value(&m, "read_p50_us"), 200.0);
        assert_close(value(&m, "setup_s"), 0.4);

        let m = long_steps(&rounds, ["t", "d", "w", "r"]);
        assert_close(value(&m, "t"), 1.0);
        assert_close(value(&m, "d"), 0.1);
        assert_close(value(&m, "w"), 128.0 / 12.0 * 1e3);
        assert_close(value(&m, "r"), 1.0);
    }
}
