//! Snapshot tests over the fixture corpus: every violating fixture must
//! reproduce its `.expected` output byte-for-byte, every clean fixture
//! must be silent, and the allow hatch must suppress exactly its own
//! line. A final pair of tests drives the installed binary to pin the
//! `--deny-all` exit-code contract CI relies on.

use autotune_lint::{lint_source, CrateKind};
use std::path::PathBuf;
use std::process::Command;

const DIAGNOSTICS: [&str; 7] = ["d4", "d5", "d7", "d8", "d9", "d10", "d11"];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn read(name: &str) -> String {
    let path = fixture_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// D10 (append-before-ack) only applies to the serving crate, so its
/// fixtures lint under `CrateKind::Serve`; everything else is library code.
fn kind_of(diag: &str) -> CrateKind {
    if diag == "d10" {
        CrateKind::Serve
    } else {
        CrateKind::Library
    }
}

/// Lints a fixture under the given crate kind and renders violations one
/// per line.
fn render_as(name: &str, kind: CrateKind) -> String {
    let report = lint_source(name, kind, &read(name));
    report.violations.iter().map(|v| format!("{v}\n")).collect()
}

#[test]
fn violating_fixtures_match_snapshots() {
    for d in DIAGNOSTICS {
        let name = format!("{d}_violating.rs");
        let expected = read(&format!("{d}_violating.expected"));
        let got = render_as(&name, kind_of(d));
        assert!(!got.is_empty(), "{name} must produce violations");
        assert_eq!(got, expected, "snapshot mismatch for {name}");
    }
}

#[test]
fn clean_fixtures_are_silent() {
    for d in DIAGNOSTICS {
        let name = format!("{d}_clean.rs");
        assert_eq!(render_as(&name, kind_of(d)), "", "{name} should lint clean");
    }
}

#[test]
fn allow_suppresses_exactly_its_own_line() {
    let name = "allow_lines.rs";
    let report = lint_source(name, CrateKind::Library, &read(name));
    // Line 5 carries the allow; the identical unwrap on line 6 still
    // fires, and nothing else does.
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert_eq!(report.violations[0].line, 6);
    assert_eq!(report.violations[0].code, "D5");
    assert_eq!(report.allowed.get("D5"), Some(&1));
}

#[test]
fn flow_allow_suppresses_exactly_its_own_line() {
    // Two identical decision-feeding Relaxed stores; only the line that
    // carries a written happens-before argument is spared.
    let src = "fn publish(heat: &AtomicU64, t: u64) {\n\
               heat.store(t, Ordering::Relaxed); // lint: allow(D9) handoff is ordered by thread::join\n\
               heat.store(t, Ordering::Relaxed);\n\
               }\n";
    let report = lint_source("inline.rs", CrateKind::Library, src);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert_eq!(report.violations[0].line, 3);
    assert_eq!(report.violations[0].code, "D9");
    assert_eq!(report.allowed.get("D9"), Some(&1));
}

#[test]
fn d9_clean_fixture_allow_is_counted() {
    let report = lint_source("d9_clean.rs", CrateKind::Library, &read("d9_clean.rs"));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.allowed.get("D9"), Some(&1));
}

#[test]
fn deny_all_binary_fails_on_violating_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_autotune-lint"))
        .arg("--deny-all")
        .arg(fixture_dir().join("d5_violating.rs"))
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "deny-all must fail on violations");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("D5"), "violations printed: {stdout}");
}

#[test]
fn deny_all_binary_passes_on_clean_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_autotune-lint"))
        .arg("--deny-all")
        .arg(fixture_dir().join("d5_clean.rs"))
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "deny-all must pass on clean input");
}

#[test]
fn deny_all_binary_fails_on_flow_pack_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_autotune-lint"))
        .arg("--deny-all")
        .arg(fixture_dir().join("d7_violating.rs"))
        .output()
        .expect("binary runs");
    assert!(
        !out.status.success(),
        "deny-all must fail on lock-order violations"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("D7"), "violations printed: {stdout}");
    assert!(
        stdout.contains("lock-order inversion"),
        "cycle reported: {stdout}"
    );
}

#[test]
fn deny_all_binary_passes_on_flow_pack_clean_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_autotune-lint"))
        .arg("--deny-all")
        .arg(fixture_dir().join("d7_clean.rs"))
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "deny-all must pass on clean input");
}
