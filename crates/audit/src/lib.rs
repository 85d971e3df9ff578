//! `fairnn-audit`: a hand-rolled, std-only static-analysis pass enforcing
//! this workspace's core invariant — bit-for-bit deterministic sampling,
//! build and snapshot output — at lint time instead of only at test time.
//!
//! The pipeline is deliberately small: a comment/string-aware byte lexer
//! ([`lexer`]), a per-file context pass ([`analysis`]) that tracks test
//! regions and hash-container receivers, a rule set ([`rules`]) with the
//! project-specific lints, and inline waivers ([`waiver`]) that require a
//! written reason surfaced in the report ([`report`]). There is no
//! dependency on `syn` or any crate — the environment has no registry
//! access, and the auditor must not be able to perturb what it audits.
//!
//! Rules (see [`rules::RULES`] for the live table):
//!
//! * `unordered-iter` — deny un-ordered `HashMap`/`HashSet` iteration in
//!   non-test code of the deterministic crates (space, sketch, lsh, core,
//!   engine, snapshot).
//! * `wall-clock` — deny `Instant`/`SystemTime`/`available_parallelism`/
//!   ambient entropy outside `fairnn-bench`, `fairnn-parallel` and
//!   `fairnn-obs`.
//! * `snapshot-panic` / `snapshot-index` — deny `unwrap`/`expect`/`panic!`
//!   and direct slice indexing in `fairnn-snapshot`; decoders return typed
//!   `SnapshotError`s.
//! * `raw-thread` — deny `std::thread::{spawn, scope}` outside
//!   `fairnn-parallel`.
//! * `direct-instant` — deny `Instant::now()`/`SystemTime::now()` outside
//!   `fairnn-obs` and `fairnn-bench`; timing goes through the
//!   `fairnn_obs::Clock` seam so tests can inject a manual clock.
//! * `nested-parallel` — warn on nested substrate calls (they run
//!   serially by design).
//! * `zero-copy-unsafe` — deny `unsafe`, `transmute` and raw-pointer
//!   casts everywhere except the blessed byte-view module
//!   `crates/snapshot/src/bytes.rs`, where each use must carry a written
//!   waiver; outside that module waivers for this rule are ignored.
//! * `waiver-reason` — waivers must be well-formed and carry a reason.
//!
//! Waiver syntax, on the finding's line or the line above:
//!
//! ```text
//! // fairnn-audit: allow(unordered-iter) — collected and key-sorted below
//! ```

pub mod analysis;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod waiver;

pub use report::AuditReport;
pub use rules::{audit_tokens, Finding, Severity};

use std::path::{Path, PathBuf};

/// Audits one file's source bytes. `rel_path` is used for diagnostics and
/// crate attribution (see [`crate_name_of`]).
pub fn audit_source(rel_path: &str, bytes: &[u8]) -> Vec<Finding> {
    let tokens = lexer::lex(bytes);
    rules::audit_tokens(rel_path, &crate_name_of(rel_path), &tokens)
}

/// Maps a workspace-relative path to the crate whose rule scope applies:
/// `crates/<name>/…` → `fairnn-<name>`; the umbrella sources (`src/`,
/// `scripts/`, `examples/`) → `fairnn`.
pub fn crate_name_of(rel_path: &str) -> String {
    let normalized = rel_path.replace('\\', "/");
    let mut parts = normalized.split('/');
    match parts.next() {
        Some("crates") => match parts.next() {
            Some(dir) => format!("fairnn-{dir}"),
            None => "fairnn".to_string(),
        },
        _ => "fairnn".to_string(),
    }
}

/// Directories that never contribute auditable non-test code: vendored
/// stand-ins, build output, test/bench/example trees, VCS metadata.
const SKIP_DIRS: &[&str] = &[
    "target",
    "third_party",
    ".git",
    ".github",
    "tests",
    "benches",
    "examples",
];

/// Walks `root` (a workspace checkout) and audits every non-test `.rs`
/// file, in sorted path order so the report is deterministic.
pub fn audit_workspace(root: &Path) -> Result<AuditReport, std::io::Error> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    let files_scanned = files.len();
    for rel in &files {
        let bytes = std::fs::read(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        findings.extend(audit_source(&rel_str, &bytes));
    }
    Ok(AuditReport {
        files_scanned,
        findings,
    })
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), std::io::Error> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// CLI driver for the `fairnn-audit` binary. Flags: `--root <dir>` (default
/// `.`), `--json <path>` (write the machine-readable report), `--verbose`
/// (print waived findings and warnings too). Exit codes: 0 clean, 1
/// unwaived findings, 2 usage or I/O error.
pub fn run_cli(args: &[String]) -> i32 {
    let mut root = PathBuf::from(".");
    let mut json_path: Option<PathBuf> = None;
    let mut verbose = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" if i + 1 < args.len() => {
                root = PathBuf::from(&args[i + 1]);
                i += 2;
            }
            "--json" if i + 1 < args.len() => {
                json_path = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--verbose" | "-v" => {
                verbose = true;
                i += 1;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return 0;
            }
            other => {
                eprintln!("fairnn-audit: unknown argument `{other}`\n{}", usage());
                return 2;
            }
        }
    }
    if !root.join("Cargo.toml").is_file() {
        eprintln!(
            "fairnn-audit: `{}` does not look like the workspace root (no Cargo.toml); \
             pass --root",
            root.display()
        );
        return 2;
    }
    let report = match audit_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fairnn-audit: I/O error while scanning: {e}");
            return 2;
        }
    };
    print!("{}", report.render_human(verbose));
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("fairnn-audit: cannot write {}: {e}", path.display());
            return 2;
        }
    }
    if report.unwaived_denies().next().is_some() {
        1
    } else {
        0
    }
}

fn usage() -> String {
    let mut out = String::from(
        "usage: fairnn-audit [--root <workspace>] [--json <report.json>] [--verbose]\n\nrules:\n",
    );
    for (rule, severity, summary) in rules::RULES {
        out.push_str(&format!(
            "  {rule:<16} {:<5} {summary}\n",
            match severity {
                Severity::Deny => "deny",
                Severity::Warn => "warn",
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_attribution_follows_the_workspace_layout() {
        assert_eq!(crate_name_of("crates/lsh/src/table.rs"), "fairnn-lsh");
        assert_eq!(
            crate_name_of("crates/snapshot/src/codec.rs"),
            "fairnn-snapshot"
        );
        assert_eq!(crate_name_of("src/lib.rs"), "fairnn");
        assert_eq!(crate_name_of("scripts/fairnn_audit.rs"), "fairnn");
    }

    #[test]
    fn audit_source_ties_the_pipeline_together() {
        let src =
            "fn f(m: &std::collections::HashMap<u32, u32>) { for k in m.keys() { use_(k); } }";
        let findings = audit_source("crates/engine/src/x.rs", src.as_bytes());
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "unordered-iter" && !f.waived),
            "{findings:?}"
        );
        // The same file under a non-determinism crate produces nothing.
        assert!(audit_source("crates/bench/src/x.rs", src.as_bytes()).is_empty());
    }
}
