//! Violation records and rendering.

use std::collections::BTreeMap;
use std::fmt;

/// One diagnostic finding at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path as given to the analyzer (workspace-relative in CI).
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Diagnostic code (`D4`..`D11`, or `A1`/`A2` for allow hygiene).
    pub code: &'static str,
    /// Human message, including the suggested fix.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.code, self.message
        )
    }
}

/// Aggregated results of a run.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations, in file/line order.
    pub violations: Vec<Violation>,
    /// Suppression count per diagnostic code (well-formed, *used* allows).
    pub allowed: BTreeMap<&'static str, usize>,
    /// Files scanned.
    pub files: usize,
}

impl Report {
    /// Merges another file's findings into this run.
    pub fn absorb(&mut self, mut other: Report) {
        self.violations.append(&mut other.violations);
        for (code, n) in other.allowed {
            *self.allowed.entry(code).or_insert(0) += n;
        }
        self.files += other.files;
    }

    /// Violation count per code.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for v in &self.violations {
            *m.entry(v.code).or_insert(0) += 1;
        }
        m
    }

    /// One-line summary: `D5: 3 denied, 12 allowed` per active code.
    pub fn summary(&self) -> String {
        let counts = self.counts();
        let mut codes: Vec<&'static str> =
            counts.keys().chain(self.allowed.keys()).copied().collect();
        codes.sort_unstable();
        codes.dedup();
        let mut out = format!("{} files scanned", self.files);
        for code in codes {
            let denied = counts.get(code).copied().unwrap_or(0);
            let allowed = self.allowed.get(code).copied().unwrap_or(0);
            out.push_str(&format!("\n  {code}: {denied} denied, {allowed} allowed"));
        }
        out
    }
}
