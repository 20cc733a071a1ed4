//! `lifecycle`: the rdfviews benchmark of record.
//!
//! ```text
//! lifecycle --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1]
//!           [--smoke] [--inject oracle|wal]
//! ```
//!
//! One run drives the whole lifecycle — tune → deploy → serve → maintain →
//! crash → recover — through the library's public API, in `R` back-to-back
//! rounds on identical generated inputs and fresh state. Every timing it
//! reports is the fastest repeat of identical work (see `estimate`); every
//! count must repeat in every round or the run fails. See the README for
//! the metric glossary.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod estimate;
mod inputs;
mod layers;
mod round;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rdfviews::engine::Answers;

use estimate::{long_steps, Stages};
use inputs::Inputs;
use round::{run_round, verify_samples, Inject, Ledger, Round};
use stats::median;
use trace::NoTrace;
use workloads::Workload;

/// Times the set-up is done in a run: once before the first round and
/// once after each of the next few, so the repeats are spread over the
/// run; `setup_s` takes every stage of it at its fastest repeat.
const SETUP_REPEATS: usize = 8;
/// Rounds a run never goes below, whatever `--seconds` says (one repeat
/// is a single sample again), and never exceeds, however short they are.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 64;

/// One reported metric. Names use `[A-Za-z0-9_.-]` only.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        let name = name.into();
        assert!(valid_name(&name), "metric name {name:?} leaves the charset");
        Metric { name, value, unit }
    }
}

/// The contract's charset for names: starts with a letter or digit, then
/// letters, digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    inject: Inject,
}

fn usage() -> String {
    format!(
        "usage: lifecycle --workload <{}> --seed <u64> [--seconds <n>] [--trace 0|1] [--smoke] \
         [--inject oracle|wal]",
        workloads::NAMES.join("|")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        smoke: false,
        inject: Inject::None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}: 0 or 1")),
                }
            }
            "--smoke" => args.smoke = true,
            "--inject" => {
                args.inject = match value("oracle or wal")?.as_str() {
                    "oracle" => Inject::Oracle,
                    "wal" => Inject::Wal,
                    v => return Err(format!("bad --inject {v:?}: oracle or wal")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A scratch directory next to the executable, so everything the run
/// writes stays inside the build directory of its checkout. Removed when
/// dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let parent = exe.parent().ok_or("the executable has no directory")?;
        let dir = parent.join(format!("lifecycle-work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Does the whole set-up once more; returns the seconds of its stages.
/// The same bytes as the first time are the "same seed, same inputs"
/// check.
fn set_up_again(w: &Workload, seed: u64, first: &Inputs) -> Result<Stages, String> {
    let again = inputs::build(w, seed, Instant::now())?;
    if again.hash != first.hash {
        return Err(format!(
            "seed {seed} generated inputs {:016x} and then {:016x}: generation is not \
             deterministic",
            first.hash, again.hash
        ));
    }
    Ok(again.stages)
}

/// Drops one tuple from the first oracle answer: the checks must notice.
fn corrupt_oracle(inputs: &mut Inputs) {
    let a = &inputs.expect_base.workload[0];
    let kept = a.tuples()[1..].to_vec();
    inputs.expect_base.workload[0] = Answers::from_tuples(a.arity(), kept);
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs rounds, each in a fresh directory, until the process has used up
/// `args.seconds` (never fewer than `MIN_ROUNDS`), and repeats the set-up
/// between the first of them. Returns the rounds and the stages of every
/// set-up, the one before the first round included.
fn run_rounds(
    inputs: &Inputs,
    w: &Workload,
    work: &Path,
    args: &Args,
    process_start: Instant,
) -> Result<(Vec<Round>, Vec<Stages>), String> {
    let mut setups = vec![inputs.stages.clone()];
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let dir = work.join(format!("round-{}", rounds.len()));
        let round = run_round(
            &mut NoTrace,
            inputs,
            w,
            &dir,
            args.inject,
            rounds.is_empty(),
        );
        let _ = std::fs::remove_dir_all(&dir);
        rounds.push(round?);
        let per_round = start.elapsed().as_secs_f64() / rounds.len() as f64;
        let used = process_start.elapsed().as_secs_f64();
        let enough = rounds.len() >= MIN_ROUNDS && used + per_round > args.seconds;
        if enough || rounds.len() == MAX_ROUNDS {
            return Ok((rounds, setups));
        }
        if setups.len() < SETUP_REPEATS {
            setups.push(set_up_again(w, args.seed, inputs)?);
        }
    }
}

/// Every count of every round must equal round 0's.
fn check_counts_repeat(rounds: &[Round], ledger: &mut Ledger) {
    for (r, round) in rounds.iter().enumerate().skip(1) {
        for (a, b) in rounds[0].counts.iter().zip(&round.counts) {
            ledger.check(a == b, || {
                format!(
                    "count {} is {} in round 0 and {} in round {r}: rounds must repeat exactly",
                    a.0, a.1, b.1
                )
            });
        }
    }
}

/// The median over rounds of a per-round quantity.
fn median_over(rounds: &[Round], f: &dyn Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Median time of each timed phase and its share of the timed round.
fn phase_shares(rounds: &[Round], w: &Workload) -> String {
    let over = |f: &dyn Fn(&Round) -> f64| median_over(rounds, f);
    let total = over(&|r| r.timed_s(w.concurrent));
    format!(
        "timed round {total:.2} s: tune {:.2} s, deploy {:.2} s, recover {:.2} s; {:?} is {:.0}%",
        over(&|r| median(&r.tune_s)),
        over(&|r| r.deploy_s),
        over(&|r| median(&r.recover_s)),
        w.dominant,
        100.0 * over(&|r| r.phase_s(w.dominant)) / total
    )
}

fn json_line(correct: bool, ledger: &Ledger, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    )
}

/// What a run reports: the ledger, the metrics of its JSON line, and with
/// `--trace 0` the long steps of the lifecycle, printed beside them.
type Report = (Ledger, Vec<Metric>, Vec<Metric>);

fn run(args: &Args, process_start: Instant) -> Result<Report, String> {
    let w = Workload::named(&args.workload, args.smoke)
        .ok_or_else(|| format!("unknown workload {:?}\n{}", args.workload, usage()))?;
    let work = WorkDir::create()?;
    // The first set-up is charged from process start.
    let mut inputs = inputs::build(&w, args.seed, process_start)?;
    println!(
        "# workload {} seed {} on {} cpus, inputs {:016x}: {} triples, {} queries ({} candidates \
         seen), {} ad-hoc variants, {} reads, {} batches",
        w.name,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        inputs.hash,
        inputs.db.len(),
        inputs.workload.len(),
        inputs.candidates_seen,
        inputs.adhoc.len(),
        inputs.reads.len(),
        inputs.feed.len()
    );
    if args.inject == Inject::Oracle {
        corrupt_oracle(&mut inputs);
    }

    let mut ledger = Ledger::default();
    let mut steps = Vec::new();
    let metrics = if args.trace {
        layers::traced_run(&inputs, &w, work.path(), args.inject, &mut ledger)?
    } else {
        let (mut rounds, setups) = run_rounds(&inputs, &w, work.path(), args, process_start)?;
        check_counts_repeat(&rounds, &mut ledger);
        if let Some(replay) = rounds[0].replay.take() {
            for round in &rounds {
                verify_samples(&round.samples, &replay, &mut ledger);
            }
        }
        let metrics = estimate::end_to_end(&rounds, &inputs.reads, &setups, peak_rss_mb());
        steps = long_steps(
            &rounds,
            ["tune_s", "deploy_s", "write_triples_per_s", "recover_s"],
        );
        println!(
            "# {} rounds, {:.2} s each; {} reads and {} batches per round; {} set-ups",
            rounds.len(),
            median_over(&rounds, &|r| r.wall_s),
            rounds[0].read_us.len(),
            rounds[0].batch_ms.len(),
            setups.len()
        );
        println!("# {}", phase_shares(&rounds, &w));
        for round in rounds {
            ledger.absorb(round.ledger);
        }
        metrics
    };
    Ok((ledger, metrics, steps))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lifecycle: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok((ledger, metrics, steps)) => {
            for m in &metrics {
                println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
            }
            if !steps.is_empty() {
                println!("# the long steps, each at its fastest repeat (unbounded):");
            }
            for m in &steps {
                println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{:<40} {:>16}", "ops_attempted", ledger.attempted);
            println!("{:<40} {:>16}", "ops_failed", ledger.failed);
            for m in &ledger.messages {
                eprintln!("lifecycle: FAILED: {m}");
            }
            let correct = ledger.failed == 0;
            println!("{}", json_line(correct, &ledger, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("lifecycle: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_stay_in_the_contract_charset() {
        for ok in [
            "setup_s",
            "rdf-model.insert_batch_us",
            "exec.read_scaling_2t",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let ledger = Ledger {
            attempted: 10,
            failed: 0,
            messages: Vec::new(),
        };
        let line = json_line(true, &ledger, &[Metric::new("tune_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"tune_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    /// The `"name"` values inside the array that follows `"<section>":`
    /// in BENCHMARK.json (flat objects, so the first `]` ends it).
    fn declared_names(section: &str) -> Vec<String> {
        let spec = include_str!("../../BENCHMARK.json");
        let start = spec.find(&format!("\"{section}\":")).expect("section");
        let body = &spec[start..start + spec[start..].find(']').expect("array end")];
        body.split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a string").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_a_run_reports() {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let args = Args {
                workload: "feed_durable".into(),
                seed: 3,
                seconds: 0.5,
                trace,
                smoke: true,
                inject: Inject::None,
            };
            let (ledger, metrics, _) = run(&args, Instant::now()).unwrap();
            assert_eq!(ledger.failed, 0, "{:?}", ledger.messages);
            let reported: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(reported, declared_names(section), "{section}");
            assert!(metrics.iter().all(|m| m.value.is_finite()));
        }
        assert_eq!(declared_names("workloads"), workloads::NAMES);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload serve_sat --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("serve_sat", 42, true)
        );
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload x --trace 2").is_err());
        assert!(parse("--workload x --bogus").is_err());
    }
}
