//! The invariant diagnostics, matched over the token stream and the
//! statement-flow pass.
//!
//! | code | invariant | exempt |
//! |------|-----------|--------|
//! | D1 | no wall-clock reads (`Instant::now`, `SystemTime::now`) — time enters through an injected `WallTimer` | tests |
//! | D2 | no `HashMap`/`HashSet` — hash iteration order leaks into RNG-consuming paths; use `BTreeMap`/`BTreeSet` | tests |
//! | D3 | no unseeded randomness (`thread_rng`, `from_entropy`, `rand::random`, `OsRng`) | tests |
//! | D4 | no NaN-panicking float comparisons (`partial_cmp(..).unwrap()/expect()/unwrap_or(..)`) — use `total_cmp` | tests |
//! | D5 | no `.unwrap()`/`.expect()`/`panic!`-family in library paths — return `Result` or allow with a reason | bench, tests |
//! | D6 | no `println!`/`eprintln!`/`dbg!` in library crates — route through telemetry | bench, tests |
//! | D7 | consistent lock order — nested acquisitions feed a cross-crate graph that must stay acyclic; re-acquiring a held lock is flagged at the site | bench, tests |
//! | D8 | no lock guard held across `catch_unwind`, `par_map*`, or WAL `append`/`append_aux` | bench, tests |
//! | D9 | no `Ordering::Relaxed` on non-counter atomics (`fetch_add`/`fetch_sub` are counters) without a happens-before argument | bench, tests |
//! | D10 | in `crates/serve`, every durable-state ack (`Response::{Registered,Stopped,CacheMiss}`) must be dominated by a durable append/journal call; a `CacheHit` is a read and promises none | library, bench, tests |
//! | D11 | no non-associative float reductions (`.sum()`, captured `+=`) inside `par_map*` closures — use the ordered-reduction helpers | bench, tests |
//! | D12 | no poison-panicking `.lock()/.read()/.write()` adapters in library paths — go through `autotune::sync::PoisonFree` | bench, tests |
//!
//! Each rule reports at the line of its anchor token and honours the
//! `// lint: allow(Dx) <reason>` escape hatch on that exact line. D7's
//! graph half is special: an allow on a nested-acquisition line drops
//! that *edge* from the global graph (see [`crate::graph`]).

use crate::allow::Allows;
use crate::flow::{self, EventKind, LockMode};
use crate::graph::LockEdge;
use crate::lexer::{Tok, TokKind};
use crate::report::Violation;

/// How a crate is classified for exemption purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateKind {
    /// A library crate that feeds deterministic campaigns; all rules on
    /// except the serve-only D10.
    Library,
    /// `crates/serve`: everything a library gets, plus the D10
    /// append-before-ack protocol check.
    Serve,
    /// The bench/experiment crate: panics and stdout are its job, but
    /// what `repro` prints is checked in and diffed, so the determinism
    /// rules (D1-D3) and D4 (NaN-safe comparisons) apply.
    Bench,
}

/// Static description of one diagnostic.
struct Rule {
    code: &'static str,
    applies_to_bench: bool,
}

const RULES: [Rule; 12] = [
    Rule {
        code: "D1",
        applies_to_bench: true,
    },
    Rule {
        code: "D2",
        applies_to_bench: true,
    },
    Rule {
        code: "D3",
        applies_to_bench: true,
    },
    Rule {
        code: "D4",
        applies_to_bench: true,
    },
    Rule {
        code: "D5",
        applies_to_bench: false,
    },
    Rule {
        code: "D6",
        applies_to_bench: false,
    },
    Rule {
        code: "D7",
        applies_to_bench: false,
    },
    Rule {
        code: "D8",
        applies_to_bench: false,
    },
    Rule {
        code: "D9",
        applies_to_bench: false,
    },
    Rule {
        code: "D10",
        applies_to_bench: false,
    },
    Rule {
        code: "D11",
        applies_to_bench: false,
    },
    Rule {
        code: "D12",
        applies_to_bench: false,
    },
];

/// Durable-state acks: the server must not send these before the
/// corresponding WAL append. Read-only and terminal responses
/// (`Stepped`, `Snapshot`, `Stats`, `Fleet`, `CacheHit`, `Error`,
/// `Overloaded`, `Bye`) carry no new durable state: a hit journals
/// nothing, and what it left in the cache is logged with the next
/// record the router writes.
const ACK_VARIANTS: [&str; 3] = ["Registered", "Stopped", "CacheMiss"];

/// Receivers that make a bare `append(..)` a WAL call rather than
/// `Vec::append`.
const WAL_RECEIVERS: [&str; 4] = ["durable", "wal", "journal", "log"];

/// Violation sink: routes findings through the allow table.
struct Sink<'a> {
    file: &'a str,
    allows: &'a mut Allows,
    violations: Vec<Violation>,
    allowed: Vec<(&'static str, u32)>,
}

impl Sink<'_> {
    fn emit(&mut self, code: &'static str, line: u32, message: String) {
        if self.permits(code, line) {
            return;
        }
        self.violations.push(Violation {
            file: self.file.to_string(),
            line,
            code,
            message,
        });
    }

    /// True (recording the use) when `code` is allowed on `line`.
    fn permits(&mut self, code: &'static str, line: u32) -> bool {
        if self.allows.permits(code, line) {
            self.allowed.push((code, line));
            return true;
        }
        false
    }
}

/// Runs every applicable rule over a lexed file.
///
/// `mask[i]` is the in-test flag for `toks[i]` (see [`crate::scope`]);
/// `allows` records which findings were suppressed. The third return is
/// the file's contribution to the global lock-order graph (D7 edges not
/// suppressed by an allow).
pub fn check(
    file: &str,
    kind: CrateKind,
    toks: &[Tok],
    mask: &[bool],
    allows: &mut Allows,
) -> (Vec<Violation>, Vec<(&'static str, u32)>, Vec<LockEdge>) {
    // Dense index of non-comment tokens for sequence matching.
    let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut sink = Sink {
        file,
        allows,
        violations: Vec::new(),
        allowed: Vec::new(),
    };

    for (si, &ti) in sig.iter().enumerate() {
        if mask[ti] {
            continue; // test code is exempt from every rule
        }
        let t = &toks[ti];
        let enabled = |code: &str| match kind {
            CrateKind::Bench => RULES.iter().any(|r| r.code == code && r.applies_to_bench),
            CrateKind::Serve => true,
            CrateKind::Library => code != "D10",
        };

        // D1: wall-clock reads.
        if enabled("D1")
            && (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && seq_is(toks, &sig, si + 1, &[":", ":", "now"])
        {
            sink.emit(
                "D1",
                t.line,
                format!(
                    "wall-clock read `{}::now()` — inject a WallTimer (core::telemetry) instead",
                    t.text
                ),
            );
        }

        // D2: hash-ordered containers.
        if enabled("D2") && (t.is_ident("HashMap") || t.is_ident("HashSet")) {
            sink.emit(
                "D2",
                t.line,
                format!(
                    "`{}` in a deterministic crate — hash iteration order leaks into \
                     RNG-consuming paths; use BTreeMap/BTreeSet or a sorted drain",
                    t.text
                ),
            );
        }

        // D3: unseeded randomness.
        if enabled("D3") {
            if t.is_ident("thread_rng") || t.is_ident("from_entropy") || t.is_ident("OsRng") {
                sink.emit(
                    "D3",
                    t.line,
                    format!(
                        "unseeded randomness `{}` — derive every stream from the campaign seed",
                        t.text
                    ),
                );
            } else if t.is_ident("rand") && seq_is(toks, &sig, si + 1, &[":", ":", "random"]) {
                sink.emit(
                    "D3",
                    t.line,
                    "unseeded randomness `rand::random` — derive every stream from the campaign \
                     seed"
                        .to_string(),
                );
            }
        }

        // D4: NaN-panicking (or NaN-inconsistent) float comparisons.
        if enabled("D4") && t.is_ident("partial_cmp") {
            if let Some(method) = panicky_suffix(toks, &sig, si) {
                sink.emit(
                    "D4",
                    t.line,
                    format!(
                        "`partial_cmp(..).{method}(..)` is NaN-unsafe — use `f64::total_cmp` \
                         (or filter non-finite values first)"
                    ),
                );
            }
        }

        // D5: panicking calls in library paths. Sites already owned by a
        // more specific diagnostic stay quiet: D4 owns
        // `partial_cmp(..).unwrap()`, D12 owns `.lock().unwrap()`.
        if enabled("D5") {
            if (t.is_ident("unwrap") || t.is_ident("expect"))
                && si > 0
                && toks[sig[si - 1]].is_punct('.')
                && seq_is(toks, &sig, si + 1, &["("])
                && !follows_partial_cmp(toks, &sig, si)
                && !follows_lock_acquire(toks, &sig, si)
            {
                sink.emit(
                    "D5",
                    t.line,
                    format!(
                        "`.{}()` in a library code path — return a Result, or allow with a \
                         proven-infallible reason",
                        t.text
                    ),
                );
            }
            if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
                && seq_is(toks, &sig, si + 1, &["!"])
            {
                sink.emit(
                    "D5",
                    t.line,
                    format!(
                        "`{}!` in a library code path — return a Result, or allow with a \
                         proven-infallible reason",
                        t.text
                    ),
                );
            }
        }

        // D6: stdout/stderr writes from library crates.
        if enabled("D6")
            && t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "println" | "eprintln" | "print" | "eprint" | "dbg"
            )
            && seq_is(toks, &sig, si + 1, &["!"])
        {
            sink.emit(
                "D6",
                t.line,
                format!(
                    "`{}!` in a library crate — route output through telemetry",
                    t.text
                ),
            );
        }
    }

    // Pass 2: the statement-flow rules (D7–D12) over per-function
    // acquisitions and events.
    let mut edges: Vec<LockEdge> = Vec::new();
    if kind != CrateKind::Bench {
        let flows = flow::analyze(toks, &sig, mask);
        for f in &flows {
            // D7, local half: overlapping acquisitions. Same lock while
            // held is an immediate self-deadlock finding; distinct locks
            // become an order edge for the global graph.
            for (i, a) in f.acquires.iter().enumerate() {
                for b in f.acquires.iter().skip(i + 1) {
                    if b.di >= a.release {
                        continue;
                    }
                    if a.lock == b.lock && a.lock != "?" {
                        if a.mode == LockMode::Read && b.mode == LockMode::Read {
                            // Shared re-entry: still an edge-free hazard
                            // under writer-priority, but the repo's
                            // RwLocks are std (no priority policy); the
                            // graph stays quiet here.
                            continue;
                        }
                        sink.emit(
                            "D7",
                            b.line,
                            format!(
                                "lock `{}` (held since line {}) re-acquired in `{}` — \
                                 self-deadlock; drop the first guard before re-locking",
                                a.lock, a.line, f.name
                            ),
                        );
                    } else if a.lock != "?" && b.lock != "?" {
                        if sink.permits("D7", b.line) {
                            continue;
                        }
                        edges.push(LockEdge {
                            from: a.lock.clone(),
                            to: b.lock.clone(),
                            file: file.to_string(),
                            line: b.line,
                            func: f.name.clone(),
                        });
                    }
                }
            }
            // D8: risky calls under a live guard.
            for a in &f.acquires {
                for e in &f.events {
                    if e.di <= a.di || e.di >= a.release {
                        continue;
                    }
                    if let EventKind::Risky { callee, receiver } = &e.kind {
                        if callee == "append"
                            && !receiver
                                .as_deref()
                                .is_some_and(|r| WAL_RECEIVERS.contains(&r))
                        {
                            continue; // Vec::append etc., not the WAL
                        }
                        sink.emit(
                            "D8",
                            e.line,
                            format!(
                                "`{}` called while the guard on `{}` (line {}) is held in `{}` — \
                                 a panic or slow append poisons/blocks the lock; drop the guard \
                                 first",
                                callee, a.lock, a.line, f.name
                            ),
                        );
                    }
                }
            }
            for e in &f.events {
                match &e.kind {
                    // D9: Relaxed on non-counter atomics.
                    EventKind::RelaxedAtomic { method } => {
                        sink.emit(
                            "D9",
                            e.line,
                            format!(
                                "`{method}(Ordering::Relaxed)` on a non-counter atomic in `{}` — \
                                 upgrade to Acquire/Release or allow with a written \
                                 happens-before argument",
                                f.name
                            ),
                        );
                    }
                    // D11: non-associative reductions in par_map closures.
                    EventKind::Reduction { what } => {
                        sink.emit(
                            "D11",
                            e.line,
                            format!(
                                "non-associative float reduction ({what}) inside a `par_map*` \
                                 closure in `{}` — use the ordered helpers \
                                 (autotune_linalg::par::ordered_sum/ordered_mean)",
                                f.name
                            ),
                        );
                    }
                    // D12: poison-panicking lock adapters.
                    EventKind::PoisonUnwrap { method, lock } => {
                        sink.emit(
                            "D12",
                            e.line,
                            format!(
                                "`.{lock}().{method}(..)` panics (or hand-recovers) on poisoning \
                                 in `{}` — go through autotune::sync::PoisonFree \
                                 (`.p{lock}()`)",
                                f.name
                            ),
                        );
                    }
                    // D10: durable-state acks must follow a durable call.
                    EventKind::Ack { variant, end } if kind == CrateKind::Serve => {
                        if !ACK_VARIANTS.contains(&variant.as_str()) {
                            continue;
                        }
                        // A durable call anywhere before the construction
                        // closes dominates it — field expressions run
                        // before the Response value exists.
                        let dominated = f
                            .events
                            .iter()
                            .any(|d| matches!(d.kind, EventKind::Durable { .. }) && d.di < *end);
                        if !dominated {
                            sink.emit(
                                "D10",
                                e.line,
                                format!(
                                    "`Response::{variant}` built in `{}` with no durable \
                                     append/journal call before it — the ack must not outrun \
                                     the WAL (append-before-ack)",
                                    f.name
                                ),
                            );
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    let Sink {
        mut violations,
        allowed,
        ..
    } = sink;

    // Allow hygiene: malformed allows and allows that suppressed nothing
    // are violations themselves, so suppressions cannot rot in place.
    for m in &allows.malformed {
        violations.push(Violation {
            file: file.to_string(),
            line: m.line,
            code: "A1",
            message: format!("malformed lint allow: {}", m.problem),
        });
    }
    for (a, dead) in allows.unused() {
        violations.push(Violation {
            file: file.to_string(),
            line: a.line,
            code: "A2",
            message: format!(
                "unused lint allow({}) — the diagnostic no longer fires on this line",
                dead.join(", ")
            ),
        });
    }
    violations.sort_by(|a, b| (a.line, a.code).cmp(&(b.line, b.code)));
    violations.dedup_by(|a, b| a.line == b.line && a.code == b.code && a.message == b.message);
    (violations, allowed, edges)
}

/// True when the non-comment tokens starting at dense index `si` spell the
/// given texts (idents or single-char puncts).
fn seq_is(toks: &[Tok], sig: &[usize], si: usize, texts: &[&str]) -> bool {
    texts.iter().enumerate().all(|(k, want)| {
        sig.get(si + k).is_some_and(|&ti| {
            let t = &toks[ti];
            match t.kind {
                TokKind::Ident | TokKind::Punct => t.text == *want,
                _ => false,
            }
        })
    })
}

/// If `partial_cmp` at dense index `si` is followed by its argument list
/// and then `.unwrap/.expect/.unwrap_or/.unwrap_or_else`, returns that
/// method name.
fn panicky_suffix(toks: &[Tok], sig: &[usize], si: usize) -> Option<&'static str> {
    let mut j = si + 1;
    if !sig.get(j).is_some_and(|&ti| toks[ti].is_punct('(')) {
        return None;
    }
    let mut depth = 0usize;
    while let Some(&ti) = sig.get(j) {
        if toks[ti].is_punct('(') {
            depth += 1;
        } else if toks[ti].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                j += 1;
                break;
            }
        }
        j += 1;
    }
    if !sig.get(j).is_some_and(|&ti| toks[ti].is_punct('.')) {
        return None;
    }
    let ti = *sig.get(j + 1)?;
    for m in ["unwrap_or_else", "unwrap_or", "unwrap", "expect"] {
        if toks[ti].is_ident(m) {
            return Some(match m {
                "unwrap_or_else" => "unwrap_or_else",
                "unwrap_or" => "unwrap_or",
                "unwrap" => "unwrap",
                _ => "expect",
            });
        }
    }
    None
}

/// Walks back from the `.unwrap`/`.expect` at dense index `si` to the
/// call whose result it adapts; returns the callee identifier's dense
/// index (the ident before the matching `(`), if the shape is
/// `ident(..).unwrap()`.
fn adapted_callee(toks: &[Tok], sig: &[usize], si: usize) -> Option<usize> {
    if si < 2 {
        return None;
    }
    let mut j = si - 2;
    if !toks[sig[j]].is_punct(')') {
        return None;
    }
    let mut depth = 0usize;
    loop {
        let t = &toks[sig[j]];
        if t.is_punct(')') {
            depth += 1;
        } else if t.is_punct('(') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    j.checked_sub(1)
}

/// True when the `.unwrap`/`.expect` at dense index `si` terminates a
/// `partial_cmp(..)` chain — that site is already reported as D4 (the fix
/// is `total_cmp`, not a Result), so D5 stays quiet to avoid demanding two
/// allows for one defect.
fn follows_partial_cmp(toks: &[Tok], sig: &[usize], si: usize) -> bool {
    adapted_callee(toks, sig, si).is_some_and(|j| toks[sig[j]].is_ident("partial_cmp"))
}

/// True when the `.unwrap`/`.expect` at dense index `si` adapts an
/// empty-argument `.lock()/.read()/.write()` call — that site is already
/// reported as D12 (the fix is `PoisonFree`, not a Result), so D5 stays
/// quiet.
fn follows_lock_acquire(toks: &[Tok], sig: &[usize], si: usize) -> bool {
    let Some(j) = adapted_callee(toks, sig, si) else {
        return false;
    };
    let t = &toks[sig[j]];
    let is_lock = t.is_ident("lock") || t.is_ident("read") || t.is_ident("write");
    // Empty args: callee at j, `(` at j+1, `)` at j+2 == si-2, `.` at
    // j+3, adapter at j+4 == si.
    is_lock && j + 4 == si
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{allow, lexer, scope};

    fn run(kind: CrateKind, src: &str) -> Vec<String> {
        let toks = lexer::lex(src);
        let mask = scope::test_mask(&toks);
        let mut allows = allow::collect(&toks);
        let (violations, _, _) = check("f.rs", kind, &toks, &mask, &mut allows);
        violations.into_iter().map(|v| format!("{v}")).collect()
    }

    fn codes(kind: CrateKind, src: &str) -> Vec<String> {
        run(kind, src)
            .iter()
            .map(|l| l.split(": ").nth(1).expect("code field").to_string())
            .collect()
    }

    fn edges_of(kind: CrateKind, src: &str) -> Vec<(String, String)> {
        let toks = lexer::lex(src);
        let mask = scope::test_mask(&toks);
        let mut allows = allow::collect(&toks);
        let (_, _, edges) = check("f.rs", kind, &toks, &mask, &mut allows);
        edges.into_iter().map(|e| (e.from, e.to)).collect()
    }

    #[test]
    fn d1_fires_outside_tests_only() {
        let src = "fn f() { let t = Instant::now(); }\n#[cfg(test)]\nmod tests { fn g() { let t = Instant::now(); } }";
        assert_eq!(codes(CrateKind::Library, src), vec!["D1"]);
    }

    #[test]
    fn the_experiment_crate_reads_no_clock() {
        let src = "fn f() { let t = std::time::Instant::now(); let s = SystemTime::now(); }";
        assert_eq!(codes(CrateKind::Bench, src), vec!["D1", "D1"]);
    }

    #[test]
    fn d4_applies_to_bench_but_d5_does_not() {
        let src = "fn f() { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); ys.last().unwrap(); }";
        assert_eq!(codes(CrateKind::Bench, src), vec!["D4"]);
        assert_eq!(codes(CrateKind::Library, src), vec!["D4", "D5"]);
    }

    #[test]
    fn d4_subsumes_the_trailing_unwrap() {
        // One defect, one diagnostic: the unwrap that terminates a
        // partial_cmp chain is not double-reported as D5.
        let src = "fn f() { xs.sort_by(|a, b| a.partial_cmp(b).expect(\"finite\")); }";
        assert_eq!(codes(CrateKind::Library, src), vec!["D4"]);
    }

    #[test]
    fn d4_catches_unwrap_or_equal() {
        let src = "fn f() { xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal)); }";
        assert_eq!(codes(CrateKind::Library, src), vec!["D4"]);
    }

    #[test]
    fn allow_suppresses_only_its_line() {
        let src = "fn f() {\n a.unwrap(); // lint: allow(D5) proven nonempty\n b.unwrap();\n}";
        let out = run(CrateKind::Library, src);
        assert_eq!(out.len(), 1);
        assert!(out[0].starts_with("f.rs:3: D5"), "{out:?}");
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "fn f() { x(); } // lint: allow(D5) nothing here\n";
        assert_eq!(codes(CrateKind::Library, src), vec!["A2"]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src =
            "fn f() { let s = \"Instant::now() .unwrap() panic!\"; }\n// Instant::now() in prose\n";
        assert!(run(CrateKind::Library, src).is_empty());
    }

    #[test]
    fn d2_d3_d6_basics() {
        let src =
            "use std::collections::HashMap;\nfn f() { let r = thread_rng(); println!(\"x\"); }";
        assert_eq!(codes(CrateKind::Library, src), vec!["D2", "D3", "D6"]);
        assert_eq!(codes(CrateKind::Bench, src), vec!["D2", "D3"]);
    }

    #[test]
    fn d7_same_lock_reacquired() {
        let src = "fn f() { let g = m.plock(); let h = m.plock(); }";
        assert_eq!(codes(CrateKind::Library, src), vec!["D7"]);
    }

    #[test]
    fn d7_read_read_overlap_is_quiet() {
        let src = "fn f() { let g = m.pread(); let h = m.pread(); }";
        assert!(run(CrateKind::Library, src).is_empty());
    }

    #[test]
    fn d7_nested_distinct_locks_make_an_edge_not_a_violation() {
        let src = "fn f() { let g = a.plock(); let h = b.plock(); }";
        assert!(run(CrateKind::Library, src).is_empty());
        assert_eq!(
            edges_of(CrateKind::Library, src),
            vec![("a".to_string(), "b".to_string())]
        );
    }

    #[test]
    fn d7_released_guard_makes_no_edge() {
        let src = "fn f() { { let g = a.plock(); } let h = b.plock(); }";
        assert!(edges_of(CrateKind::Library, src).is_empty());
        let src2 = "fn f() { let g = a.plock(); drop(g); let h = b.plock(); }";
        assert!(edges_of(CrateKind::Library, src2).is_empty());
    }

    #[test]
    fn d7_allow_drops_the_edge_and_counts_used() {
        let src = "fn f() { let g = a.plock();\n let h = b.plock(); // lint: allow(D7) a before b is the blessed order here\n }";
        assert!(edges_of(CrateKind::Library, src).is_empty());
        // No A2: the allow was consumed by the edge.
        assert!(run(CrateKind::Library, src).is_empty());
    }

    #[test]
    fn d8_guard_across_catch_unwind() {
        let src = "fn f() { let g = m.plock(); let r = catch_unwind(|| work()); }";
        assert_eq!(codes(CrateKind::Library, src), vec!["D8"]);
        let ok = "fn f() { { let g = m.plock(); } let r = catch_unwind(|| work()); }";
        assert!(run(CrateKind::Library, ok).is_empty());
    }

    #[test]
    fn d8_vec_append_is_not_wal_append() {
        let src = "fn f() { let g = m.plock(); out.append(&mut xs); }";
        assert!(run(CrateKind::Library, src).is_empty());
        let bad = "fn f() { let g = m.plock(); self.durable.append(rec)?; }";
        assert_eq!(codes(CrateKind::Library, bad), vec!["D8"]);
    }

    #[test]
    fn d9_relaxed_store_flagged_counter_exempt() {
        let src =
            "fn f() { hits.fetch_add(1, Ordering::Relaxed); heat.store(t, Ordering::Relaxed); }";
        assert_eq!(codes(CrateKind::Library, src), vec!["D9"]);
        let allowed = "fn f() { heat.store(t, Ordering::Relaxed); // lint: allow(D9) heat is advisory; eviction re-reads under the shard write lock\n }";
        assert!(run(CrateKind::Library, allowed).is_empty());
    }

    #[test]
    fn d10_only_in_serve_and_wants_domination() {
        let bad = "fn f() -> Response { Response::Registered { id: 7 } }";
        assert_eq!(codes(CrateKind::Serve, bad), vec!["D10"]);
        assert!(run(CrateKind::Library, bad).is_empty());
        let ok = "fn f() -> R { self.durable.append_aux(op)?; Ok(Response::Registered { id: 7 }) }";
        assert!(run(CrateKind::Serve, ok).is_empty());
        let field_expr =
            "fn f() -> R { Ok(Response::Registered { id: self.admit_spec(&spec, rid)? }) }";
        assert!(run(CrateKind::Serve, field_expr).is_empty());
    }

    #[test]
    fn d10_a_hit_is_a_read_and_a_miss_is_an_ack() {
        let hit = "fn f() -> Response { Response::CacheHit { config: self.cache.get(&k) } }";
        assert!(run(CrateKind::Serve, hit).is_empty());
        let miss = "fn f() -> Response { Response::CacheMiss { campaign: 3, enqueued: true } }";
        assert_eq!(codes(CrateKind::Serve, miss), vec!["D10"]);
        let ok = "fn f() -> R { Ok(match self.lookup(&fp, &spec)? { Hit(h) => reply(h), \
                  Miss { campaign, enqueued } => Response::CacheMiss { campaign, enqueued } }) }";
        assert!(run(CrateKind::Serve, ok).is_empty());
    }

    #[test]
    fn d10_patterns_are_not_acks() {
        let src =
            "fn f(r: Response) { match r { Response::Registered { id } => go(id), _ => {} } }";
        assert!(run(CrateKind::Serve, src).is_empty());
    }

    #[test]
    fn d11_captured_accumulator() {
        let src = "fn f() { par_map(&pool, xs, |x| { total += x; x }); }";
        assert_eq!(codes(CrateKind::Library, src), vec!["D11"]);
        let ok = "fn f() { par_map(&pool, xs, |x| { let mut acc = 0.0; acc += x; acc }); }";
        assert!(run(CrateKind::Library, ok).is_empty());
    }

    #[test]
    fn d12_subsumes_d5_on_lock_unwraps() {
        let src = "fn f() { let g = m.lock().unwrap(); }";
        assert_eq!(codes(CrateKind::Library, src), vec!["D12"]);
        let src2 = "fn f() { let g = m.read().unwrap_or_else(PoisonError::into_inner); }";
        assert_eq!(codes(CrateKind::Library, src2), vec!["D12"]);
    }

    #[test]
    fn new_rules_exempt_in_bench_and_tests() {
        let src = "fn f() { let g = m.lock().unwrap(); heat.store(t, Ordering::Relaxed); }";
        assert!(run(CrateKind::Bench, src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests { fn f() { let g = m.lock().unwrap(); } }";
        assert!(run(CrateKind::Library, test_src).is_empty());
    }
}
