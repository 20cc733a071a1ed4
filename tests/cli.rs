//! The `rdfviews` command line, driven as a subprocess over a five-triple
//! fixture whose one `rdfs:subPropertyOf` statement makes `<d> <p> <b>`
//! implicit.
//!
//! * **Pinned reads** — `rdfviews query` answers every ad-hoc query from
//!   one snapshot generation and says which, with per-branch statistics
//!   under `--stats`.
//! * **No `--pin`** — pinning is not optional, so the flag is gone: it is
//!   a usage error, and the usage text does not offer it.
//! * **Theorem 4.2** — `--materialize` reports the same view totals under
//!   saturation and post-reformulation, implicit rows included.
//! * **One thread budget** — `--partition` prints the same best cost and
//!   views at `--threads 1` (groups one after another) and `--threads 2`.
//! * **No panics** — a Cartesian-product workload query exits 1 with an
//!   `error:` line, not 101 with a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

const DATA: &str = "<a> <p> <b> .\n<a> <q> <c> .\n<p2> <rdfs:subPropertyOf> <p> .\n\
                    <d> <p2> <b> .\n<d> <q> <c> .\n";
const WORKLOAD: &str = "q1(X) :- t(X, <p>, <b>), t(X, <q>, <c>)\nq2(X, Y) :- t(X, <p>, Y)\n";

/// The fixture's data and workload files, removed on drop.
struct Fixture(PathBuf);

impl Fixture {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "rdfviews-cli-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("data.nt"), DATA).unwrap();
        std::fs::write(dir.join("workload.rq"), WORKLOAD).unwrap();
        Fixture(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// Runs the binary on the fixture: `lead` before the two file
    /// arguments, `rest` after them.
    fn run(&self, lead: &[&str], rest: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_rdfviews"))
            .args(lead)
            .arg(self.file("data.nt"))
            .arg(self.file("workload.rq"))
            .args(["--budget", "2"])
            .args(rest)
            .output()
            .unwrap()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}; stderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn lines_with<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
    text.lines().filter(|l| l.starts_with(prefix)).collect()
}

#[test]
fn query_mode_answers_every_query_from_one_pinned_generation() {
    let fixture = Fixture::new("query");
    let out = fixture.run(
        &["query"],
        &[
            "--stats",
            "--query",
            "a(X) :- t(X, <q>, <c>)",
            "--query",
            "b(X, Y) :- t(X, <p>, Y)",
        ],
    );
    let stdout = stdout_of(&out);
    let pinned = lines_with(&stdout, "# pinned generation: store version ");
    assert_eq!(pinned.len(), 1, "one pin for all queries:\n{stdout}");
    let version = pinned[0].rsplit(' ').next().unwrap();
    assert!(version.parse::<u64>().is_ok(), "{}", pinned[0]);
    assert_eq!(
        lines_with(&stdout, "# answers: "),
        ["# answers: 2", "# answers: 1"],
        "plain mode: <a> and <d> have <q> <c>; only <a> has an explicit <p>"
    );
    let stats = lines_with(&stdout, "#   branch 0: ");
    assert_eq!(stats.len(), 2, "one --stats line per one-branch query");
    assert!(stats
        .iter()
        .all(|l| l.contains("rows visited") && l.contains("atoms settled") && l.contains("seeks")));
}

#[test]
fn pin_flag_is_a_usage_error() {
    let fixture = Fixture::new("pin");
    let out = fixture.run(&["query"], &["--pin", "--query", "a(X) :- t(X, <q>, <c>)"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.starts_with("usage: rdfviews"), "stderr:\n{stderr}");
    assert!(!stderr.contains("--pin"), "usage must not offer --pin");
}

#[test]
fn materialized_totals_agree_between_saturation_and_post_reformulation() {
    let fixture = Fixture::new("materialize");
    let deployed = |mode: &str| {
        let out = fixture.run(&[], &["--mode", mode, "--materialize"]);
        let stdout = stdout_of(&out);
        let line = lines_with(&stdout, "# deployed: ");
        assert_eq!(line.len(), 1, "--mode {mode}:\n{stdout}");
        line[0].to_string()
    };
    let saturated = deployed("saturate");
    assert_eq!(saturated, deployed("post"));
    // v0 holds <a> and <d>; v1 holds (<a>, <b>) and the implicit (<d>, <b>).
    assert!(
        saturated.starts_with("# deployed: 2 views, 4 rows, 6 cells"),
        "{saturated}"
    );
}

#[test]
fn partitioned_search_agrees_at_one_and_two_threads() {
    let fixture = Fixture::new("partition");
    let tuned = |threads: &str| {
        let out = fixture.run(&[], &["--partition", "--threads", threads]);
        let stdout = stdout_of(&out);
        let mut kept = lines_with(&stdout, "# best cost");
        kept.extend(lines_with(&stdout, "v"));
        kept.iter().map(|l| l.to_string()).collect::<Vec<_>>()
    };
    let one = tuned("1");
    assert_eq!(one.len(), 3, "a best cost and one view per group: {one:?}");
    assert_eq!(one, tuned("2"));
}

#[test]
fn cartesian_workload_query_is_an_error_not_a_panic() {
    let fixture = Fixture::new("cartesian");
    std::fs::write(
        fixture.file("workload.rq"),
        "qbad(X, A) :- t(X, <p>, Y), t(A, <q>, B)\n",
    )
    .unwrap();
    for partition in [&[][..], &["--partition", "--threads", "2"][..]] {
        let out = fixture.run(&[], partition);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
        assert!(
            stderr.contains(
                "error: unsupported query: workload query 0 contains a Cartesian product"
            ),
            "stderr:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    }
}
