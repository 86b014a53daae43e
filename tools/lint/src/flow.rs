//! Pass 2: per-file symbol table and intraprocedural statement flow.
//!
//! The token rules in [`crate::rules`] see one token at a time; the
//! concurrency pack (D7–D11) needs more: which function a token is in,
//! which lock guards are live at a given statement, and whether an ack
//! construction is preceded by a durable append. This module extracts
//! that structure from the same lexed stream, still dependency-free:
//!
//! * [`analyze`] discovers every `fn` body (a brace-matched span over the
//!   dense non-comment token index) and, per function, extracts lock
//!   **acquisitions** with an estimated guard lifetime and a list of
//!   flow **events** (risky calls, relaxed atomics, ack constructions,
//!   durable calls, parallel reductions).
//! * Guard lifetimes are estimated conservatively from statement shape:
//!   a `let`-bound guard lives until `drop(guard)` or its block's `}`;
//!   a temporary guard dies at the end of its statement (`;`, or the `{`
//!   opening the block its condition guards).
//!
//! The analysis is intraprocedural and name-based: a lock is identified
//! by the last field/call name of its receiver chain (`self.shards[i]
//! .read()` → `shards`), which is exactly the granularity the global
//! lock-order graph in [`crate::graph`] unifies on across crates.

use crate::lexer::{Tok, TokKind};

/// How an acquisition takes its lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// `read()` / `pread()` / `read_lock(..)` — shared.
    Read,
    /// `write()` / `pwrite()` / `write_lock(..)` — exclusive RwLock.
    Write,
    /// `lock()` / `plock()` / `lock_queue(..)` — Mutex.
    Exclusive,
}

/// One lock acquisition with its estimated guard lifetime.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Unified lock name (receiver field or helper-argument name).
    pub lock: String,
    /// Shared/exclusive mode.
    pub mode: LockMode,
    /// Dense index of the acquiring method/helper identifier.
    pub di: usize,
    /// 1-based source line of the acquisition.
    pub line: u32,
    /// Dense index past which the guard is certainly dead (exclusive).
    pub release: usize,
    /// Binding name for `let`-bound guards; `None` for temporaries.
    pub binding: Option<String>,
}

/// What a flow event is.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// Call that must not run under a held guard (D8): `catch_unwind`,
    /// `par_map*`, WAL `append`/`append_aux`.
    Risky {
        /// Callee identifier.
        callee: String,
        /// Receiver chain name for method calls, when recoverable.
        receiver: Option<String>,
    },
    /// Atomic op passing `Ordering::Relaxed` (D9); `fetch_add`/`fetch_sub`
    /// counters are exempt at extraction time.
    RelaxedAtomic {
        /// The atomic method (`load`, `store`, `swap`, ...).
        method: String,
    },
    /// `Response::Variant { .. }` construction (D10). Patterns (match
    /// arms, `if let`, `..` rests) are filtered out.
    Ack {
        /// Variant name.
        variant: String,
        /// Dense index of the construction's closing brace; durable calls
        /// anywhere before this dominate the ack (field expressions are
        /// evaluated before the value exists).
        end: usize,
    },
    /// Call into the durability layer (D10 dominator).
    Durable {
        /// Callee identifier.
        callee: String,
    },
    /// Non-associative float reduction inside a `par_map*` argument list
    /// (D11).
    Reduction {
        /// Human description of the reduction shape.
        what: String,
    },
}

/// One flow event at a source position.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event payload.
    pub kind: EventKind,
    /// Dense index of the anchor token.
    pub di: usize,
    /// 1-based source line.
    pub line: u32,
}

/// Everything the statement-flow pass learned about one function.
#[derive(Debug)]
pub struct FnFlow {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Dense index of the body's `{`.
    pub open: usize,
    /// Dense index of the body's `}`.
    pub close: usize,
    /// Lock acquisitions in source order.
    pub acquires: Vec<Acquire>,
    /// Flow events in source order.
    pub events: Vec<Event>,
}

const ATOMIC_METHODS: [&str; 12] = [
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_update",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_nand",
    "fetch_min",
    "fetch_max",
];

/// The `par_map*` family: every entry point of `autotune_linalg::par`.
const PAR_MAPS: [&str; 4] = [
    "par_map",
    "par_map_threads",
    "par_map_mut",
    "par_map_mut_threads",
];

const RISKY_CALLS: [&str; 3] = ["catch_unwind", "append", "append_aux"];

const DURABLE_CALLS: [&str; 7] = [
    "append",
    "append_aux",
    "journal_op",
    "admit_spec",
    "register_spec",
    "stop",
    // `TenantRouter::lookup` journals on its miss path, the one that
    // answers the `CacheMiss` ack; its hit path writes nothing.
    "lookup",
];

const POISON_ADAPTERS: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

fn tok<'a>(toks: &'a [Tok], sig: &[usize], di: usize) -> Option<&'a Tok> {
    sig.get(di).map(|&ti| &toks[ti])
}

fn is_punct(toks: &[Tok], sig: &[usize], di: usize, c: char) -> bool {
    tok(toks, sig, di).is_some_and(|t| t.is_punct(c))
}

fn is_ident(toks: &[Tok], sig: &[usize], di: usize) -> bool {
    tok(toks, sig, di).is_some_and(|t| t.kind == TokKind::Ident)
}

/// Dense index of the closer matching the opener at `di` (`(`/`[`/`{`).
fn match_forward(toks: &[Tok], sig: &[usize], di: usize) -> Option<usize> {
    let (open, close) = match tok(toks, sig, di)?.text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0usize;
    let mut j = di;
    while let Some(t) = tok(toks, sig, j) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j += 1;
    }
    None
}

/// Dense index of the opener matching the closer at `di` (`)`/`]`/`}`).
fn match_backward(toks: &[Tok], sig: &[usize], di: usize) -> Option<usize> {
    let (open, close) = match tok(toks, sig, di)?.text.as_str() {
        ")" => ('(', ')'),
        "]" => ('[', ']'),
        "}" => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0usize;
    let mut j = di;
    loop {
        let t = tok(toks, sig, j)?;
        if t.is_punct(close) {
            depth += 1;
        } else if t.is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
}

/// Name of the receiver chain segment closest to the `.` before the
/// method at `di`: `self.state.lock()` → `state`, `self.shard_of(f)
/// .read()` → `shard_of`, `shards[i].write()` → `shards`.
fn receiver_name(toks: &[Tok], sig: &[usize], di: usize) -> Option<String> {
    if !is_punct(toks, sig, di.checked_sub(1)?, '.') {
        return None;
    }
    let mut j = di.checked_sub(2)?;
    loop {
        let t = tok(toks, sig, j)?;
        if t.is_punct(')') || t.is_punct(']') {
            j = match_backward(toks, sig, j)?.checked_sub(1)?;
            continue;
        }
        if t.kind == TokKind::Ident {
            return Some(t.text.clone());
        }
        return None;
    }
}

/// Lock name for the helper form `read_lock(&self.clusters)` /
/// `write_lock(cache.shard_of(f))`: the last *called* identifier inside
/// the argument list, else the last non-`self` identifier.
fn helper_arg_name(toks: &[Tok], sig: &[usize], open: usize, close: usize) -> Option<String> {
    let mut last_ident = None;
    let mut last_call = None;
    for j in open + 1..close {
        let t = tok(toks, sig, j)?;
        if t.kind == TokKind::Ident && t.text != "self" {
            if is_punct(toks, sig, j + 1, '(') {
                last_call = Some(t.text.clone());
            } else {
                last_ident = Some(t.text.clone());
            }
        }
    }
    last_call.or(last_ident)
}

/// Dense index where the statement containing `di` starts (never before
/// `floor`, the function's opening brace).
fn stmt_start(toks: &[Tok], sig: &[usize], di: usize, floor: usize) -> usize {
    let (mut p, mut bk) = (0i32, 0i32);
    let mut j = di;
    while j > floor + 1 {
        j -= 1;
        let Some(t) = tok(toks, sig, j) else {
            break;
        };
        if t.is_punct(')') {
            p += 1;
        } else if t.is_punct('(') {
            if p == 0 {
                return j + 1;
            }
            p -= 1;
        } else if t.is_punct(']') {
            bk += 1;
        } else if t.is_punct('[') {
            if bk == 0 {
                return j + 1;
            }
            bk -= 1;
        } else if p == 0
            && bk == 0
            && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct(','))
        {
            return j + 1;
        }
    }
    floor + 1
}

/// If the statement starting at `start` begins `let [mut] name =`,
/// returns `name`.
fn let_binding(toks: &[Tok], sig: &[usize], start: usize) -> Option<String> {
    if !tok(toks, sig, start)?.is_ident("let") {
        return None;
    }
    let mut k = start + 1;
    if tok(toks, sig, k)?.is_ident("mut") {
        k += 1;
    }
    let name = tok(toks, sig, k)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    if !is_punct(toks, sig, k + 1, '=') {
        return None;
    }
    Some(name.text.clone())
}

/// True when, after the acquisition call's `)` at `call_close`, the only
/// tokens before the statement's `;` are poison adapters (`.unwrap()`,
/// `.expect(..)`, `.unwrap_or_else(..)`) and `?` — i.e. the statement's
/// bound value *is* the guard, not something derived from it.
fn guard_is_statement_value(toks: &[Tok], sig: &[usize], call_close: usize) -> bool {
    let mut j = call_close + 1;
    loop {
        let Some(t) = tok(toks, sig, j) else {
            return false;
        };
        if t.is_punct('?') {
            j += 1;
            continue;
        }
        if t.is_punct(';') {
            return true;
        }
        if t.is_punct('.') {
            let adapter = tok(toks, sig, j + 1);
            if adapter.is_some_and(|a| POISON_ADAPTERS.contains(&a.text.as_str()))
                && is_punct(toks, sig, j + 2, '(')
            {
                match match_forward(toks, sig, j + 2) {
                    Some(close) => {
                        j = close + 1;
                        continue;
                    }
                    None => return false,
                }
            }
            return false;
        }
        return false;
    }
}

/// Release point for a temporary guard acquired at `di`: the end of its
/// statement (`;`), the `{` opening the block its condition guards, or
/// the `}` closing the enclosing block.
fn temp_release(toks: &[Tok], sig: &[usize], di: usize, limit: usize) -> usize {
    let (mut p, mut bk, mut bc) = (0i32, 0i32, 0i32);
    let mut j = di;
    while j < limit {
        let Some(t) = tok(toks, sig, j) else {
            break;
        };
        if t.is_punct('(') {
            p += 1;
        } else if t.is_punct(')') {
            p -= 1;
        } else if t.is_punct('[') {
            bk += 1;
        } else if t.is_punct(']') {
            bk -= 1;
        } else if t.is_punct('{') {
            if p <= 0 && bk <= 0 && bc == 0 {
                return j;
            }
            bc += 1;
        } else if t.is_punct('}') {
            if bc == 0 {
                return j;
            }
            bc -= 1;
        } else if t.is_punct(';') && p <= 0 && bk <= 0 && bc == 0 {
            return j;
        }
        j += 1;
    }
    limit
}

/// Release point for a `let`-bound guard: the first `drop(binding)` after
/// `di`, else the `}` closing the binding's block.
fn binding_release(toks: &[Tok], sig: &[usize], di: usize, limit: usize, binding: &str) -> usize {
    let mut bc = 0i32;
    let mut block_end = limit;
    let mut j = di;
    let mut found_end = false;
    while j < limit {
        let Some(t) = tok(toks, sig, j) else {
            break;
        };
        if t.is_ident("drop")
            && is_punct(toks, sig, j + 1, '(')
            && tok(toks, sig, j + 2).is_some_and(|t| t.is_ident(binding))
            && is_punct(toks, sig, j + 3, ')')
        {
            return j + 3;
        }
        if t.is_punct('{') {
            bc += 1;
        } else if t.is_punct('}') {
            if bc == 0 && !found_end {
                block_end = j;
                found_end = true;
            }
            if bc > 0 {
                bc -= 1;
            }
        }
        j += 1;
    }
    block_end
}

/// Idents declared inside the span (`let`/`for` bindings and closure
/// params) — used to tell closure-local accumulators from captured ones.
fn declared_names(toks: &[Tok], sig: &[usize], open: usize, close: usize) -> Vec<String> {
    let mut names = Vec::new();
    let mut j = open;
    while j < close {
        let Some(t) = tok(toks, sig, j) else {
            break;
        };
        if t.is_ident("let") || t.is_ident("for") {
            // Collect pattern idents up to `=` / `in` / statement break.
            let mut k = j + 1;
            while k < close {
                let Some(u) = tok(toks, sig, k) else {
                    break;
                };
                if u.is_punct('=') || u.is_ident("in") || u.is_punct(';') || u.is_punct('{') {
                    break;
                }
                if u.kind == TokKind::Ident && !u.is_ident("mut") {
                    names.push(u.text.clone());
                }
                k += 1;
            }
            j = k;
            continue;
        }
        if t.is_punct('|') {
            // Closure params: idents until the closing `|` (loose — also
            // harvests pattern idents, which is the right direction).
            let mut k = j + 1;
            while k < close {
                let Some(u) = tok(toks, sig, k) else {
                    break;
                };
                if u.is_punct('|') {
                    break;
                }
                if u.kind == TokKind::Ident {
                    names.push(u.text.clone());
                }
                k += 1;
            }
            j = k + 1;
            continue;
        }
        j += 1;
    }
    names
}

/// Scans a `par_map*` argument list for non-associative reductions:
/// `.sum()` / `.product()` calls and `+=` onto captured (not
/// closure-declared) accumulators.
fn scan_par_reductions(
    toks: &[Tok],
    sig: &[usize],
    open: usize,
    close: usize,
    events: &mut Vec<Event>,
) {
    let declared = declared_names(toks, sig, open, close);
    for j in open + 1..close {
        let Some(t) = tok(toks, sig, j) else {
            break;
        };
        if (t.is_ident("sum") || t.is_ident("product"))
            && is_punct(toks, sig, j.wrapping_sub(1), '.')
        {
            // Plain call or turbofish `sum::<f64>()`.
            let called = is_punct(toks, sig, j + 1, '(')
                || (is_punct(toks, sig, j + 1, ':') && is_punct(toks, sig, j + 2, ':'));
            if called {
                events.push(Event {
                    kind: EventKind::Reduction {
                        what: format!("`.{}()`", t.text),
                    },
                    di: j,
                    line: t.line,
                });
            }
        }
        if t.is_punct('+') && is_punct(toks, sig, j + 1, '=') {
            // Target: ident directly before, skipping one index group.
            let mut k = j.wrapping_sub(1);
            if is_punct(toks, sig, k, ']') {
                match match_backward(toks, sig, k).and_then(|o| o.checked_sub(1)) {
                    Some(o) => k = o,
                    None => continue,
                }
            }
            if let Some(target) = tok(toks, sig, k) {
                if target.kind == TokKind::Ident && !declared.contains(&target.text) {
                    events.push(Event {
                        kind: EventKind::Reduction {
                            what: format!("`{} +=` on a captured accumulator", target.text),
                        },
                        di: j,
                        line: target.line,
                    });
                }
            }
        }
    }
}

/// Discovers every `fn` body: `(name, line, open, close)` over dense
/// indices. Nested functions are discovered too; [`analyze`] assigns each
/// token to its innermost function.
fn functions(toks: &[Tok], sig: &[usize]) -> Vec<(String, u32, usize, usize)> {
    let mut fns = Vec::new();
    let mut di = 0usize;
    while di < sig.len() {
        let t = &toks[sig[di]];
        if !t.is_ident("fn") || !is_ident(toks, sig, di + 1) {
            di += 1;
            continue;
        }
        let name = toks[sig[di + 1]].text.clone();
        let line = t.line;
        // Scan the signature for the body's `{` (a `;` at depth 0 means a
        // trait declaration without a body).
        let (mut p, mut bk) = (0i32, 0i32);
        let mut j = di + 2;
        let mut open = None;
        while let Some(u) = tok(toks, sig, j) {
            if u.is_punct('(') {
                p += 1;
            } else if u.is_punct(')') {
                p -= 1;
            } else if u.is_punct('[') {
                bk += 1;
            } else if u.is_punct(']') {
                bk -= 1;
            } else if u.is_punct('{') {
                if p == 0 && bk == 0 {
                    open = Some(j);
                    break;
                }
                // Brace group inside the signature (const-generic expr):
                // skip it wholesale.
                match match_forward(toks, sig, j) {
                    Some(c) => j = c,
                    None => break,
                }
            } else if u.is_punct(';') && p == 0 && bk == 0 {
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            di = j + 1;
            continue;
        };
        let Some(close) = match_forward(toks, sig, open) else {
            break;
        };
        fns.push((name, line, open, close));
        di = open + 1;
    }
    fns
}

/// Runs the statement-flow pass over a lexed file. `mask[ti]` marks
/// test-scope tokens (exempt from extraction).
pub fn analyze(toks: &[Tok], sig: &[usize], mask: &[bool]) -> Vec<FnFlow> {
    let fns = functions(toks, sig);
    // Innermost-function ownership per dense index: later (inner) fns
    // overwrite their enclosing fn's claim.
    let mut owner = vec![usize::MAX; sig.len()];
    for (k, f) in fns.iter().enumerate() {
        for slot in owner.iter_mut().take(f.3 + 1).skip(f.2) {
            *slot = k;
        }
    }
    let mut flows: Vec<FnFlow> = fns
        .iter()
        .map(|(name, line, open, close)| FnFlow {
            name: name.clone(),
            line: *line,
            open: *open,
            close: *close,
            acquires: Vec::new(),
            events: Vec::new(),
        })
        .collect();

    for (k, f) in fns.iter().enumerate() {
        let (open, close) = (f.2, f.3);
        let mut d = open + 1;
        while d < close {
            if owner[d] != k || mask[sig[d]] {
                d += 1;
                continue;
            }
            let t = &toks[sig[d]];
            if t.kind != TokKind::Ident && !t.is_punct('+') {
                d += 1;
                continue;
            }
            let flow = &mut flows[k];
            let dotted = is_punct(toks, sig, d.wrapping_sub(1), '.') && d > 0;
            let called = is_punct(toks, sig, d + 1, '(');

            // Lock acquisition, method form: `.lock()/.read()/.write()`
            // and the PoisonFree `.plock()/.pread()/.pwrite()` — empty
            // argument lists only, so `io::Read::read(&mut buf)` never
            // matches.
            let mode = match t.text.as_str() {
                "lock" | "plock" => Some(LockMode::Exclusive),
                "read" | "pread" => Some(LockMode::Read),
                "write" | "pwrite" => Some(LockMode::Write),
                _ => None,
            };
            if let Some(mode) = mode {
                if dotted && called && is_punct(toks, sig, d + 2, ')') {
                    let lock = receiver_name(toks, sig, d).unwrap_or_else(|| "?".to_string());
                    push_acquire(toks, sig, flow, d, close, lock, mode, t.line);
                    d += 1;
                    continue;
                }
            }
            // Lock acquisition, helper form: `read_lock(..)` etc. —
            // skipping the helper *definitions* themselves.
            let helper_mode = match t.text.as_str() {
                "read_lock" => Some(LockMode::Read),
                "write_lock" => Some(LockMode::Write),
                "lock_queue" => Some(LockMode::Exclusive),
                _ => None,
            };
            if let Some(mode) = helper_mode {
                let defined_here = d > 0 && tok(toks, sig, d - 1).is_some_and(|p| p.is_ident("fn"));
                if called && !defined_here {
                    if let Some(args_close) = match_forward(toks, sig, d + 1) {
                        let lock = helper_arg_name(toks, sig, d + 1, args_close)
                            .unwrap_or_else(|| t.text.clone());
                        push_acquire(toks, sig, flow, d, close, lock, mode, t.line);
                    }
                    d += 1;
                    continue;
                }
            }

            // Risky calls (D8) — `append` is disambiguated from
            // `Vec::append` by receiver name in the rules layer.
            let par_map = PAR_MAPS.contains(&t.text.as_str());
            if called && (par_map || RISKY_CALLS.contains(&t.text.as_str())) {
                flow.events.push(Event {
                    kind: EventKind::Risky {
                        callee: t.text.clone(),
                        receiver: if dotted {
                            receiver_name(toks, sig, d)
                        } else {
                            None
                        },
                    },
                    di: d,
                    line: t.line,
                });
            }
            // Durable calls (D10 dominators).
            if called && DURABLE_CALLS.contains(&t.text.as_str()) {
                flow.events.push(Event {
                    kind: EventKind::Durable {
                        callee: t.text.clone(),
                    },
                    di: d,
                    line: t.line,
                });
            }
            // par_map* argument lists: scan once for reductions (D11).
            if called && par_map {
                if let Some(args_close) = match_forward(toks, sig, d + 1) {
                    scan_par_reductions(toks, sig, d + 1, args_close, &mut flow.events);
                }
            }
            // Relaxed atomics (D9) — fetch_add/fetch_sub counters exempt.
            if dotted && called && ATOMIC_METHODS.contains(&t.text.as_str()) {
                if let Some(args_close) = match_forward(toks, sig, d + 1) {
                    let relaxed = (d + 2..args_close)
                        .any(|j| tok(toks, sig, j).is_some_and(|u| u.is_ident("Relaxed")));
                    if relaxed {
                        flow.events.push(Event {
                            kind: EventKind::RelaxedAtomic {
                                method: t.text.clone(),
                            },
                            di: d,
                            line: t.line,
                        });
                    }
                }
            }
            // Ack constructions (D10): `Response::Variant { .. }` used as
            // a value, not a pattern.
            if t.is_ident("Response")
                && is_punct(toks, sig, d + 1, ':')
                && is_punct(toks, sig, d + 2, ':')
                && is_ident(toks, sig, d + 3)
                && is_punct(toks, sig, d + 4, '{')
            {
                if let Some(end) = match_forward(toks, sig, d + 4) {
                    let rest_pattern = (d + 5..end)
                        .any(|j| is_punct(toks, sig, j, '.') && is_punct(toks, sig, j + 1, '.'));
                    let arm_or_let = is_punct(toks, sig, end + 1, '=');
                    if !rest_pattern && !arm_or_let {
                        let variant = toks[sig[d + 3]].text.clone();
                        flow.events.push(Event {
                            kind: EventKind::Ack { variant, end },
                            di: d,
                            line: t.line,
                        });
                    }
                }
            }
            d += 1;
        }
    }
    flows
}

/// Builds one [`Acquire`] (lifetime estimation) and records it.
#[expect(
    clippy::too_many_arguments,
    reason = "the scan's cursor state, passed down unbundled"
)]
fn push_acquire(
    toks: &[Tok],
    sig: &[usize],
    flow: &mut FnFlow,
    d: usize,
    fn_close: usize,
    lock: String,
    mode: LockMode,
    line: u32,
) {
    // The call's closing paren: method form has `( )` at d+1..d+2; helper
    // form has a balanced list.
    let call_close = match match_forward(toks, sig, d + 1) {
        Some(c) => c,
        None => {
            return;
        }
    };
    let start = stmt_start(toks, sig, d, flow.open);
    let binding =
        let_binding(toks, sig, start).filter(|_| guard_is_statement_value(toks, sig, call_close));
    let release = match &binding {
        Some(name) => binding_release(toks, sig, d, fn_close, name),
        None => temp_release(toks, sig, call_close, fn_close),
    };
    flow.acquires.push(Acquire {
        lock,
        mode,
        di: d,
        line,
        release,
        binding,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope;

    fn flows(src: &str) -> Vec<FnFlow> {
        let toks = lex(src);
        let sig: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        let mask = scope::test_mask(&toks);
        analyze(&toks, &sig, &mask)
    }

    #[test]
    fn finds_functions_and_nesting() {
        let src = "fn outer() { fn inner() { x.lock(); } y.read(); }";
        let fs = flows(src);
        assert_eq!(fs.len(), 2);
        let outer = fs.iter().find(|f| f.name == "outer").unwrap();
        let inner = fs.iter().find(|f| f.name == "inner").unwrap();
        // Each acquisition belongs to its innermost fn.
        assert_eq!(outer.acquires.len(), 1);
        assert_eq!(outer.acquires[0].lock, "y");
        assert_eq!(inner.acquires.len(), 1);
        assert_eq!(inner.acquires[0].lock, "x");
    }

    #[test]
    fn binding_guard_lives_to_block_end_or_drop() {
        let src = "fn f() { let g = m.lock().unwrap(); touch(); drop(g); after(); }";
        let fs = flows(src);
        let a = &fs[0].acquires[0];
        assert_eq!(a.binding.as_deref(), Some("g"));
        // Released at the `)` of drop(g) — before `after()`.
        let after_di = fs[0].close - 4;
        assert!(
            a.release < after_di,
            "release {} after {}",
            a.release,
            after_di
        );
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "fn f() { m.lock().unwrap().push(1); n.lock(); }";
        let fs = flows(src);
        let a = &fs[0].acquires[0];
        assert!(a.binding.is_none());
        let b = &fs[0].acquires[1];
        assert!(
            a.release < b.di,
            "temporary must be dead before second lock"
        );
    }

    #[test]
    fn derived_value_is_not_a_guard_binding() {
        // `let n = m.read().unwrap().len();` — n is a usize, not a guard.
        let src = "fn f() { let n = m.read().unwrap().len(); other.write(); }";
        let fs = flows(src);
        let a = &fs[0].acquires[0];
        assert!(a.binding.is_none());
        assert!(a.release < fs[0].acquires[1].di);
    }

    #[test]
    fn condition_guard_dies_at_block_open() {
        let src = "fn f() { if m.lock().unwrap().ready { n.lock(); } }";
        let fs = flows(src);
        let a = &fs[0].acquires[0];
        let b = &fs[0].acquires[1];
        assert!(a.release <= b.di, "condition temporary must die at `{{`");
    }

    #[test]
    fn helper_form_names_the_argument() {
        let src =
            "fn f() { let g = read_lock(&self.clusters); let h = write_lock(self.shard_of(k)); }";
        let fs = flows(src);
        assert_eq!(fs[0].acquires[0].lock, "clusters");
        assert_eq!(fs[0].acquires[0].mode, LockMode::Read);
        assert_eq!(fs[0].acquires[1].lock, "shard_of");
        assert_eq!(fs[0].acquires[1].mode, LockMode::Write);
    }

    #[test]
    fn helper_definition_is_not_an_acquisition() {
        let src = "fn read_lock(l: &RwLock<T>) -> Guard { l.read().unwrap_or_else(p) }";
        let fs = flows(src);
        // The body's `l.read()` is a real acquisition; the `fn read_lock`
        // ident itself is not.
        assert_eq!(fs[0].acquires.len(), 1);
        assert_eq!(fs[0].acquires[0].lock, "l");
    }

    #[test]
    fn io_read_with_args_is_not_a_lock() {
        let src = "fn f() { file.read(&mut buf).unwrap(); }";
        let fs = flows(src);
        assert!(fs[0].acquires.is_empty());
        assert!(fs[0].events.is_empty());
    }

    #[test]
    fn ack_construction_vs_pattern() {
        let src = r#"
fn f() -> Response {
    match r {
        Response::Registered { id } => use_it(id),
        Response::CacheHit { .. } => other(),
    }
    Response::Stopped { was_active: true }
}
"#;
        let fs = flows(src);
        let acks: Vec<&str> = fs[0]
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Ack { variant, .. } => Some(variant.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec!["Stopped"]);
    }

    #[test]
    fn durable_call_inside_ack_braces_is_recorded() {
        let src = "fn f() -> R { Ok(Response::Registered { id: self.admit_spec(&spec, rid)?, }) }";
        let fs = flows(src);
        let ack_end = fs[0]
            .events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Ack { end, .. } => Some(*end),
                _ => None,
            })
            .unwrap();
        let durable_di = fs[0]
            .events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Durable { .. } => Some(e.di),
                _ => None,
            })
            .unwrap();
        assert!(
            durable_di < ack_end,
            "field-expr durable call dominates the ack"
        );
    }

    #[test]
    fn relaxed_atomics_flagged_counters_exempt() {
        let src = "fn f() { c.fetch_add(1, Ordering::Relaxed); h.store(t, Ordering::Relaxed); h.load(Ordering::Acquire); }";
        let fs = flows(src);
        let relaxed: Vec<&str> = fs[0]
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::RelaxedAtomic { method } => Some(method.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(relaxed, vec!["store"]);
    }

    #[test]
    fn captured_accumulator_in_par_map_flagged_local_not() {
        let src = "fn f() { par_map(&pool, xs, |x| { let mut local = 0.0; local += x; total += x; local }); }";
        let fs = flows(src);
        let red: Vec<String> = fs[0]
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Reduction { what } => Some(what.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(red.len(), 1, "{red:?}");
        assert!(red[0].contains("total"));
    }
}
