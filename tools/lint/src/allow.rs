//! The `// lint: allow(Dx) <reason>` escape hatch.
//!
//! An allow comment suppresses the named diagnostics **on its own line
//! only** — it is written trailing on the violating line, so every
//! surviving violation carries its justification at the site. A reason
//! is mandatory (an allow without one is itself a diagnostic), and an
//! allow that suppresses nothing is reported too, so stale suppressions
//! cannot accumulate silently.

use crate::lexer::{Tok, TokKind};
use crate::rules;
use std::collections::BTreeMap;

/// One parsed allow comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Diagnostic codes this comment suppresses (e.g. `["D5"]`).
    pub codes: Vec<String>,
    /// 1-based line the comment sits on (and therefore suppresses).
    pub line: u32,
    /// Codes that actually matched a violation; filled by the rule pass.
    pub used: Vec<String>,
}

/// A malformed allow comment, reported as its own violation.
#[derive(Debug, Clone)]
pub struct MalformedAllow {
    /// 1-based line of the comment.
    pub line: u32,
    /// What is wrong with it.
    pub problem: &'static str,
}

/// All allow comments of a file, keyed by line.
#[derive(Debug, Default)]
pub struct Allows {
    /// Well-formed allows by source line.
    pub by_line: BTreeMap<u32, Allow>,
    /// Comments that look like allows but do not parse.
    pub malformed: Vec<MalformedAllow>,
}

impl Allows {
    /// True (and records the use) when `code` is allowed on `line`.
    pub fn permits(&mut self, code: &str, line: u32) -> bool {
        if let Some(a) = self.by_line.get_mut(&line) {
            if a.codes.iter().any(|c| c == code) {
                if !a.used.iter().any(|c| c == code) {
                    a.used.push(code.to_string());
                }
                return true;
            }
        }
        false
    }

    /// Allows with at least one code that never fired.
    pub fn unused(&self) -> impl Iterator<Item = (&Allow, Vec<&str>)> {
        self.by_line.values().filter_map(|a| {
            let dead: Vec<&str> = a
                .codes
                .iter()
                .filter(|c| !a.used.contains(c))
                .map(|c| c.as_str())
                .collect();
            if dead.is_empty() {
                None
            } else {
                Some((a, dead))
            }
        })
    }
}

/// Extracts allow comments from a lexed file.
pub fn collect(toks: &[Tok]) -> Allows {
    let mut out = Allows::default();
    for t in toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(rest) = rest.strip_prefix("allow") else {
            out.malformed.push(MalformedAllow {
                line: t.line,
                problem: "expected `allow(..)` after `lint:`",
            });
            continue;
        };
        let rest = rest.trim_start();
        let (Some(open), Some(close)) = (rest.find('('), rest.find(')')) else {
            out.malformed.push(MalformedAllow {
                line: t.line,
                problem: "missing `(codes)` after `allow`",
            });
            continue;
        };
        if open != 0 || close < open {
            out.malformed.push(MalformedAllow {
                line: t.line,
                problem: "missing `(codes)` after `allow`",
            });
            continue;
        }
        let codes: Vec<String> = rest[open + 1..close]
            .split(',')
            .map(|c| c.trim().to_string())
            .filter(|c| !c.is_empty())
            .collect();
        let valid = !codes.is_empty() && codes.iter().all(|c| rules::is_rule(c));
        if !valid {
            out.malformed.push(MalformedAllow {
                line: t.line,
                problem: "codes must name a rule: D4, D5, D7..D11 (comma-separated)",
            });
            continue;
        }
        let reason = rest[close + 1..].trim();
        if reason.is_empty() {
            out.malformed.push(MalformedAllow {
                line: t.line,
                problem: "a reason is required after the code list",
            });
            continue;
        }
        out.by_line.insert(
            t.line,
            Allow {
                codes,
                line: t.line,
                used: Vec::new(),
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn parses_codes_and_requires_reason() {
        let toks =
            lex("x(); // lint: allow(D5) lock poisoning propagates\ny(); // lint: allow(D4)");
        let allows = collect(&toks);
        assert_eq!(allows.by_line.len(), 1);
        assert!(allows.by_line.contains_key(&1));
        assert_eq!(allows.malformed.len(), 1);
        assert_eq!(allows.malformed[0].line, 2);
    }

    #[test]
    fn multiple_codes() {
        let toks = lex("x(); // lint: allow(D4, D5) scores proven finite above");
        let mut allows = collect(&toks);
        assert!(allows.permits("D4", 1));
        assert!(allows.permits("D5", 1));
        assert!(!allows.permits("D1", 1));
        assert!(!allows.permits("D4", 2));
        assert_eq!(allows.unused().count(), 0);
    }

    #[test]
    fn unused_codes_surface() {
        let toks = lex("x(); // lint: allow(D4, D5) only D5 fires here");
        let mut allows = collect(&toks);
        assert!(allows.permits("D5", 1));
        let unused: Vec<Vec<&str>> = allows.unused().map(|(_, dead)| dead).collect();
        assert_eq!(unused, vec![vec!["D4"]]);
    }

    #[test]
    fn unrelated_comments_ignored() {
        let toks = lex("// just a note about lint behaviour\nx();");
        let allows = collect(&toks);
        assert!(allows.by_line.is_empty());
        assert!(allows.malformed.is_empty());
    }

    #[test]
    fn bad_code_shape_is_malformed() {
        // D1 names no rule here: clock reads are a clippy disallowed method.
        let toks = lex("x(); // lint: allow(D99) nope\ny(); // lint: allow(D1) a clock read");
        let allows = collect(&toks);
        assert_eq!(allows.malformed.len(), 2);
    }
}
