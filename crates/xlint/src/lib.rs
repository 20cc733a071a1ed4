//! `xlint` — the rdfviews workspace's in-tree static analysis pass.
//!
//! The workspace carries three invariant-heavy subsystems whose
//! correctness rules used to live only in reviewers' heads: the
//! lock-striped parallel search core (explicit atomic orderings, no
//! panics on library paths), the byte-deterministic persistence codec
//! (deterministic encode order, unique wire tags), and the pooled-
//! scratch join engines. `xlint` machine-checks those rules with a
//! hand-rolled Rust lexer ([`lexer`]) and a repo-specific rule engine
//! ([`rules`]) over every `.rs` file under `src/`, `crates/`, and
//! `examples/`.
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p xlint -- --deny-all
//! ```
//!
//! Findings print as `file:line: X00N message` and a nonzero exit code
//! gates CI. Genuine exceptions are suppressed inline with a mandatory
//! reason:
//!
//! ```text
//! // xlint: allow(X001, reason = "slot index handed to exactly one worker")
//! ```
//!
//! The pragma covers its own line and the next one. See [`rules`] for
//! the rule catalog.

pub mod lexer;
pub mod rules;

pub use rules::{check_ci_contract, classify, Analysis, FileKind, Finding, Rule};

use std::io;
use std::path::{Path, PathBuf};

/// The directories scanned in repo mode, relative to the workspace root.
pub const SCAN_ROOTS: [&str; 3] = ["src", "crates", "examples"];

/// Recursively collect `.rs` files under `dir`, sorted for
/// deterministic output. Skips build `target/` trees and xlint's own
/// fixture `corpus/` snippets (which contain violations on purpose).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name == "corpus" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lint one file as classified by its path relative to `root`.
pub fn lint_file(root: &Path, path: &Path) -> io::Result<Vec<Finding>> {
    let src = std::fs::read(path)?;
    let rel = relative(root, path);
    Ok(Analysis::from_path(&rel, &src).run())
}

/// Lint one file under a forced [`FileKind`] (fixture / self-test mode).
pub fn lint_file_as(root: &Path, path: &Path, kind: FileKind) -> io::Result<Vec<Finding>> {
    let src = std::fs::read(path)?;
    let rel = relative(root, path);
    Ok(Analysis::new(&rel, &src, kind).run())
}

/// Repo mode: lint every `.rs` file under the scan roots plus the
/// cross-file CI contract check (X007). Returns sorted findings.
pub fn scan_repo(root: &Path) -> io::Result<(usize, Vec<Finding>)> {
    let mut files = Vec::new();
    for sub in SCAN_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    let mut findings = Vec::new();
    for file in &files {
        findings.extend(lint_file(root, file)?);
    }
    findings.extend(check_ci_contract(root));
    findings.sort();
    Ok((files.len(), findings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scopes() {
        assert_eq!(classify("src/lib.rs"), FileKind::Library);
        assert_eq!(
            classify("crates/core/src/search/engine.rs"),
            FileKind::Library
        );
        assert_eq!(classify("src/bin/rdfviews.rs"), FileKind::Binary);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Binary);
        assert_eq!(
            classify("crates/rdf-model/tests/prop.rs"),
            FileKind::TestCode
        );
        assert_eq!(
            classify("crates/bench/benches/join_throughput.rs"),
            FileKind::TestCode
        );
    }
}
