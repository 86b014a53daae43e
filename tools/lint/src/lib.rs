//! `autotune-lint` — static panic-safety & concurrency analysis for the
//! autotune workspace.
//!
//! The repo's trustworthiness rests on invariants no type system checks:
//! trials replay byte-identically, every random draw derives from the
//! campaign seed, time flows only through the virtual clock, and the
//! tuner never panics mid-campaign. The invariants that ban a name (no
//! clock reads, hash-ordered containers, unseeded randomness, raw std
//! lock calls or library stdout) are clippy's, configured in
//! `clippy.toml`; this crate machine-checks the ones that need token
//! patterns or statement flow, as seven named diagnostics (see
//! [`rules`]) over every `crates/*/src` file, with an inline
//! `// lint: allow(Dx) <reason>` escape hatch for the sites that are
//! proven safe. D4–D5 are per-token panic-safety rules; D7–D11 are the
//! concurrency and crash-safety pack, driven by a second pass ([`flow`])
//! that recovers per-function lock acquisitions, guard lifetimes, and
//! protocol events, and by a cross-crate lock-order graph ([`graph`]).
//!
//! Run it from anywhere in the workspace:
//!
//! ```text
//! cargo run -p autotune-lint -- --deny-all
//! ```
//!
//! The analyzer is self-contained (a hand-rolled lexer plus an item-scope
//! tracker) because the build environment is offline and cannot vendor
//! `syn`; the lexer handles the full literal/comment syntax so rules
//! never misfire inside strings or docs.

pub mod allow;
pub mod flow;
pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;

pub use graph::LockEdge;
pub use report::{Report, Violation};
pub use rules::CrateKind;

use std::path::{Path, PathBuf};

/// Lints one source file's text without the global graph pass; `file` is
/// used only for reporting. Returns the file's report plus its
/// contribution to the cross-crate lock-order graph.
pub fn analyze_source(file: &str, kind: CrateKind, src: &str) -> (Report, Vec<LockEdge>) {
    let toks = lexer::lex(src);
    let mask = scope::test_mask(&toks);
    let mut allows = allow::collect(&toks);
    let (violations, allowed, edges) = rules::check(file, kind, &toks, &mask, &mut allows);
    let mut report = Report {
        files: 1,
        ..Report::default()
    };
    report.violations = violations;
    for (code, _line) in allowed {
        *report.allowed.entry(code).or_insert(0) += 1;
    }
    (report, edges)
}

/// Lints one source file's text, including a lock-order cycle check over
/// the file's own edges (the workspace walk runs that check globally
/// instead, so cross-file cycles are seen).
pub fn lint_source(file: &str, kind: CrateKind, src: &str) -> Report {
    let (mut report, edges) = analyze_source(file, kind, src);
    report.violations.extend(graph::cycle_violations(&edges));
    report
        .violations
        .sort_by(|a, b| (a.file.as_str(), a.line, a.code).cmp(&(b.file.as_str(), b.line, b.code)));
    report
}

/// Classifies a crate directory name.
pub fn crate_kind(name: &str) -> CrateKind {
    match name {
        "bench" => CrateKind::Bench,
        "serve" => CrateKind::Serve,
        _ => CrateKind::Library,
    }
}

/// Walks `<root>/crates/*/src` and lints every `.rs` file.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    lint_workspace_graph(root).map(|(report, _)| report)
}

/// Walks `<root>/crates/*/src`, lints every `.rs` file, and runs the
/// lock-order cycle check over the union of all files' edges. The edge
/// union is returned too (for `--lock-graph` DOT output).
///
/// Paths in the returned report are workspace-relative. Read failures on
/// individual files surface as `A1` violations rather than aborting the
/// run, so CI output always shows everything it could check.
pub fn lint_workspace_graph(root: &Path) -> std::io::Result<(Report, Vec<LockEdge>)> {
    let mut report = Report::default();
    let mut edges: Vec<LockEdge> = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let kind = crate_kind(&name);
        let src_dir = dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for f in files {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .into_owned();
            match std::fs::read_to_string(&f) {
                Ok(src) => {
                    let (r, mut e) = analyze_source(&rel, kind, &src);
                    report.absorb(r);
                    edges.append(&mut e);
                }
                Err(e) => report.violations.push(Violation {
                    file: rel,
                    line: 0,
                    code: "A1",
                    message: format!("unreadable source file: {e}"),
                }),
            }
        }
    }
    let mut cycle = graph::cycle_violations(&edges);
    report.violations.append(&mut cycle);
    Ok((report, edges))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Finds the workspace root by walking up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
