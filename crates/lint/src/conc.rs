//! Interprocedural concurrency analysis: lock-acquisition summaries, the
//! global lock-order graph, and the C1/C2 rule families.
//!
//! ## Model
//!
//! A **lock identity** is a string `crate.name`: the workspace crate the
//! acquisition site lives in plus the field/static the guard came from
//! (`obs.sinks`, `core.board`). Three acquisition shapes are recognized:
//!
//! * `named_lock("id", &mutex)` — the explicit form; the literal *is* the
//!   identity, which is what ties the static graph to the runtime lock
//!   witness in `skipper-obs` (both sides use the same string).
//! * `lock_unpoisoned(expr)` — identity from the last top-level
//!   identifier of `expr` (`threads()` → `threads`, `&ts.stack` →
//!   `stack`).
//! * `recv.lock()` / `recv.read()` / `recv.write()` with **no arguments**
//!   — identity from the receiver chain's last field (`self.board.lock()`
//!   → `board`). `.read(buf)`/`.write(buf)` *with* arguments are I/O, and
//!   blocking (see C2).
//!
//! **Guard lifetimes** are approximated syntactically: a `let`-bound
//! guard lives to the end of its enclosing block (or an explicit
//! `drop(name)`); an unbound guard lives to the end of its statement, or
//! through the whole block when the statement is a control-flow header
//! (`for x in m.lock().iter()`, `match m.lock() { … }` — scrutinee
//! temporaries really do live that long). Guards are assumed not to
//! escape the function that acquired them; the two helpers that *do*
//! hand guards around (`lock_unpoisoned`, `named_lock`) are modeled as
//! acquisition primitives, and condvar-style guard round-trips surface
//! anyway because the blocking wait is seen at the caller.
//!
//! **Summaries** are computed per function and propagated over the call
//! graph to a fixpoint: the set of lock identities a function may acquire
//! anywhere below it, and whether it may block. Calls resolve by name
//! within the caller's crate first (free functions and methods from the
//! symbol table), then workspace-wide; `skipper_obs::`-style paths
//! resolve into the named crate. A list of well-known std method names
//! (`len`, `push`, `iter`, …) is never resolved to workspace functions —
//! resolving every `.get(` to some crate's unrelated `get` would drown
//! the graph in false edges.
//!
//! Closures are inlined into their enclosing function — right for the
//! immediately-invoked combinator style (`unwrap_or_else`, `map`) that
//! dominates this workspace — **except** arguments to `spawn(...)`,
//! which run on another thread: those are analyzed as detached root
//! scopes (their internal edges and C2 findings still count; they just
//! don't propagate into the spawning function's summary). `span!` /
//! `instant!` macro sites are modeled as touching the span stack, the
//! sink list and (via the non-LIFO repair counter) the metrics registry,
//! because the guard's `Drop` does exactly that.
//!
//! ## Rules
//!
//! * **C1 lock-order inversion** — every edge `A → B` (B acquired while A
//!   held, directly or through calls) joins one global graph; any edge on
//!   a cycle (including `A → A` re-entry) is reported at its acquisition
//!   or call site.
//! * **C2 lock held across a blocking call** — `recv`/`send` and channel
//!   friends, socket/file I/O (`read_exact`, `write_all`, `flush`, I/O
//!   `read`/`write` with a buffer argument), `sleep`, zero-arg `join`,
//!   condvar `wait`/`wait_timeout`, `accept`/`connect` — while any lock
//!   is held, directly or through a call chain (reported with the chain).

use crate::lexer::{Tok, TokKind};
use crate::parser::parse_fns;
use std::collections::{BTreeMap, BTreeSet};

/// Input: one already-lexed file.
pub struct ConcFile<'a> {
    /// Workspace-relative path, forward slashes.
    pub rel: &'a str,
    pub toks: &'a [Tok],
    /// Token-index ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: &'a [(usize, usize)],
}

/// One observed acquisition-order edge: `to` acquired while `from` held.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    /// File (rel path) and position of the acquisition or call site.
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// Callee chain for edges introduced through a call, e.g.
    /// `counter_add`; `None` for directly nested acquisitions.
    pub via: Option<String>,
}

/// A C1/C2 finding before waiver resolution.
#[derive(Debug, Clone)]
pub struct ConcFinding {
    pub file_idx: usize,
    pub line: u32,
    pub col: u32,
    pub rule: &'static str,
    pub message: String,
    pub hint: String,
}

/// The full analysis result.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Deduplicated edges, sorted.
    pub edges: Vec<LockEdge>,
    pub findings: Vec<ConcFinding>,
}

impl Analysis {
    /// Distinct `(from, to)` pairs.
    pub fn edge_pairs(&self) -> BTreeSet<(String, String)> {
        self.edges
            .iter()
            .map(|e| (e.from.clone(), e.to.clone()))
            .collect()
    }

    /// Is there a directed path `from ⇝ to` in the lock-order graph?
    /// The runtime witness records an edge from *every* held lock, so a
    /// chain `A → B → C` legitimately shows up as `A → C` at runtime;
    /// path-reachability is the right containment check.
    pub fn has_path(&self, from: &str, to: &str) -> bool {
        let pairs = self.edge_pairs();
        let adj = adjacency(&pairs);
        reachable(&adj, from, to)
    }
}

fn adjacency(pairs: &BTreeSet<(String, String)>) -> BTreeMap<&str, BTreeSet<&str>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in pairs {
        adj.entry(a.as_str()).or_default().insert(b.as_str());
    }
    adj
}

fn reachable(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        let Some(next) = adj.get(n) else { continue };
        for m in next {
            if *m == to {
                return true;
            }
            if seen.insert(m) {
                stack.push(m);
            }
        }
    }
    false
}

/// Shortest `from ⇝ to` node path for the C1 message, if one exists.
fn find_path(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> Option<Vec<String>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    let mut seen: BTreeSet<&str> = BTreeSet::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to && !prev.is_empty() {
            break;
        }
        let Some(next) = adj.get(n) else { continue };
        for m in next {
            if seen.insert(m) || (*m == to && !prev.contains_key(m)) {
                prev.entry(m).or_insert(n);
                queue.push_back(m);
            }
        }
    }
    prev.contains_key(to).then(|| {
        let mut path = vec![to.to_string()];
        let mut cur = to;
        while let Some(p) = prev.get(cur) {
            path.push(p.to_string());
            if *p == from {
                break;
            }
            cur = p;
        }
        path.reverse();
        path
    })
}

/// The crate component of a lock identity for a workspace-relative path:
/// `crates/obs/src/lib.rs` → `obs`, anything under the root `src/` →
/// `skipper`.
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_string(),
        _ => "skipper".to_string(),
    }
}

/// Methods that block the calling thread (C2), recognized by name.
const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "recv_deadline",
    "send",
    "send_timeout",
    "wait",
    "wait_timeout",
    "accept",
    "connect",
    "read_exact",
    "write_all",
    "read_to_end",
    "read_to_string",
    "flush",
    "sync_all",
    "park",
    "sleep",
];

/// Std-library method names never resolved to workspace functions: a
/// `.get(` on a Vec must not resolve to some crate's unrelated `get`.
const STD_PURE_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "get",
    "get_mut",
    "entry",
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "contains",
    "contains_key",
    "remove",
    "extend",
    "clear",
    "sort",
    "sort_by",
    "sort_by_key",
    "retain",
    "drain",
    "dedup",
    "split",
    "splitn",
    "join",
    "clone",
    "to_string",
    "to_owned",
    "to_vec",
    "as_str",
    "as_ref",
    "as_mut",
    "as_bytes",
    "as_slice",
    "from",
    "into",
    "try_into",
    "try_from",
    "parse",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "position",
    "any",
    "all",
    "fold",
    "sum",
    "product",
    "count",
    "min",
    "max",
    "min_by",
    "max_by",
    "rev",
    "zip",
    "chain",
    "take",
    "take_while",
    "skip",
    "skip_while",
    "enumerate",
    "flat_map",
    "flatten",
    "collect",
    "next",
    "peek",
    "last",
    "first",
    "chars",
    "bytes",
    "lines",
    "trim",
    "trim_start",
    "trim_end",
    "starts_with",
    "ends_with",
    "strip_prefix",
    "strip_suffix",
    "replace",
    "replacen",
    "split_whitespace",
    "to_ascii_lowercase",
    "to_ascii_uppercase",
    "eq_ignore_ascii_case",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "is_some_and",
    "is_none_or",
    "is_ok_and",
    "cmp",
    "partial_cmp",
    "eq",
    "ne",
    "hash",
    "fmt",
    "default",
    "deref",
    "deref_mut",
    "index",
    "borrow",
    "borrow_mut",
    "abs",
    "floor",
    "ceil",
    "round",
    "sqrt",
    "powi",
    "powf",
    "exp",
    "ln",
    "min_by_key",
    "max_by_key",
    "clamp",
    "saturating_sub",
    "saturating_add",
    "saturating_duration_since",
    "checked_sub",
    "checked_add",
    "wrapping_mul",
    "wrapping_add",
    "duration_since",
    "elapsed",
    "as_secs_f64",
    "as_micros",
    "as_millis",
    "as_secs",
    "copied",
    "cloned",
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "load",
    "store",
    "compare_exchange",
    "swap",
    "push_str",
    "push_back",
    "push_front",
    "pop_front",
    "pop_back",
    "front",
    "back",
    "windows",
    "chunks",
    "split_at",
    "split_first",
    "split_last",
    "binary_search",
    "to_le_bytes",
    "to_be_bytes",
    "from_le_bytes",
    "from_be_bytes",
    "rposition",
    "ptr_eq",
    "shape",
    "dims",
];

/// Keywords that can directly precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "loop", "move", "in", "as", "ref", "let", "else",
    "break", "continue", "fn", "impl", "where", "use", "pub", "dyn",
];

/// Std lock-handle receivers that are not deadlock-relevant locks.
const NON_LOCK_RECEIVERS: &[&str] = &["stdout", "stderr", "stdin"];

/// Helper-function names whose *bodies* are acquisition primitives and
/// must not contribute their own (receiver-named) acquisitions.
const PRIMITIVE_FNS: &[&str] = &["lock_unpoisoned", "named_lock"];

/// Synthetic acquire-set for a `span!` / `instant!` macro site: opening
/// pushes the thread's span stack and submits to the sink list; the
/// guard's `Drop` does the same and may bump the non-LIFO repair counter
/// (metrics registry). Modeled so runtime witness edges through span
/// machinery are always a subset of the static graph.
const OBS_MACRO_ACQUIRES: &[&str] = &["obs.span_stack", "obs.sinks", "obs.registry"];

#[derive(Debug, Clone, Default)]
struct Summary {
    acquires: BTreeSet<String>,
    /// `Some(chain)` when the function may block; the chain names the
    /// path down to the primitive (`wait_on → wait_timeout`).
    blocks: Option<String>,
}

#[derive(Debug, Clone)]
struct Call {
    name: String,
    /// Crate the callee lives in when the path names one
    /// (`skipper_obs::…`); `None` → caller's crate, then workspace.
    crate_hint: Option<String>,
    is_method: bool,
    line: u32,
    col: u32,
    held: Vec<String>,
}

#[derive(Debug, Default)]
struct ScopeScan {
    acquires: Vec<(String, u32, u32)>,
    /// Blocking primitive uses: op name, position, locks held there.
    blocking: Vec<(String, u32, u32, Vec<String>)>,
    calls: Vec<Call>,
    /// Directly nested acquisitions: (from, to, line, col).
    edges: Vec<(String, String, u32, u32)>,
    /// `span!`/`instant!` sites with held locks: (line, col, held).
    obs_macros: Vec<(u32, u32, Vec<String>)>,
}

#[derive(Debug)]
struct FnScope {
    file_idx: usize,
    name: String,
    has_self: bool,
    /// Contributes to the named function's summary (false for detached
    /// `spawn` closures).
    root: bool,
    scan: ScopeScan,
}

/// Run the interprocedural analysis over a file set.
pub fn analyze(files: &[ConcFile]) -> Analysis {
    let mut scopes: Vec<FnScope> = Vec::new();
    for (file_idx, f) in files.iter().enumerate() {
        collect_file_scopes(file_idx, f, &mut scopes);
    }
    resolve(files, scopes)
}

fn in_ranges(ranges: &[(usize, usize)], idx: usize) -> bool {
    ranges.iter().any(|&(s, e)| idx >= s && idx <= e)
}

fn collect_file_scopes(file_idx: usize, f: &ConcFile, out: &mut Vec<FnScope>) {
    let fns = parse_fns(f.toks);
    let krate = crate_of(f.rel);
    for (i, item) in fns.iter().enumerate() {
        let Some((open, close)) = item.body else {
            continue;
        };
        if in_ranges(f.test_ranges, item.fn_tok) {
            continue; // Test code is exempt and unreachable from prod code.
        }
        if PRIMITIVE_FNS.contains(&item.name.as_str()) {
            continue; // Modeled as acquisition primitives at call sites.
        }
        // Token spans of *other* functions nested strictly inside this
        // body: excluded from this scope's linear scan.
        let nested: Vec<(usize, usize)> = fns
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .filter_map(|(_, g)| g.body)
            .filter(|&(o, c)| o > open && c < close)
            .collect();
        let code: Vec<usize> = (open + 1..close)
            .filter(|&k| !f.toks[k].is_comment())
            .filter(|&k| !nested.iter().any(|&(o, c)| k >= o && k <= c))
            .collect();
        let mut spawns: Vec<Vec<usize>> = Vec::new();
        let scan = scan_scope(f, &krate, &code, &mut spawns);
        out.push(FnScope {
            file_idx,
            name: item.name.clone(),
            has_self: item.has_self,
            root: true,
            scan,
        });
        // Detached thread bodies: scanned with a fresh held set; their
        // findings and edges are real, but they do not run under the
        // spawning function's locks.
        let mut queue = spawns;
        while let Some(sub) = queue.pop() {
            let mut inner: Vec<Vec<usize>> = Vec::new();
            let scan = scan_scope(f, &krate, &sub, &mut inner);
            queue.extend(inner);
            out.push(FnScope {
                file_idx,
                name: format!("«spawn in {}»", item.name),
                has_self: false,
                root: false,
                scan,
            });
        }
    }
}

/// A lock held at some point of the scan.
#[derive(Debug, Clone)]
struct Held {
    lock: String,
    binding: Option<String>,
    until: Until,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Until {
    /// Released once the scan passes this token index.
    Tok(usize),
    /// Released when brace depth drops below this value.
    Depth(i32),
}

/// Linear scan of one scope's code positions (token indices into
/// `f.toks`), tracking the approximate held-lock set.
fn scan_scope(
    f: &ConcFile,
    krate: &str,
    code: &[usize],
    spawns: &mut Vec<Vec<usize>>,
) -> ScopeScan {
    let toks = f.toks;
    let mut scan = ScopeScan::default();
    let mut held: Vec<Held> = Vec::new();
    let mut depth: i32 = 0;
    let mut stmt_start: usize = 0; // position in `code`
    let mut p = 0usize;
    while p < code.len() {
        let idx = code[p];
        held.retain(|h| !matches!(h.until, Until::Tok(j) if idx > j));
        let t = &toks[idx];
        if t.is_punct('{') {
            depth += 1;
            stmt_start = p + 1;
            p += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            held.retain(|h| !matches!(h.until, Until::Depth(d) if depth < d));
            stmt_start = p + 1;
            p += 1;
            continue;
        }
        if t.is_punct(';') {
            stmt_start = p + 1;
            p += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            p += 1;
            continue;
        }
        let next_is = |c: char| code.get(p + 1).is_some_and(|&k| toks[k].is_punct(c));
        let prev_is_dot = p > 0 && toks[code[p - 1]].is_punct('.');

        // Detached thread bodies: skip the whole `spawn(...)` argument
        // list here, queue it for a fresh scan.
        if t.text == "spawn" && next_is('(') {
            if let Some(close) = match_code_delim(toks, code, p + 1, '(', ')') {
                spawns.push(code[p + 2..close].to_vec());
                p = close + 1;
                continue;
            }
        }

        // `drop(name)` releases a named guard.
        if t.text == "drop" && next_is('(') && !prev_is_dot {
            if let Some(&arg_idx) = code.get(p + 2) {
                let arg = &toks[arg_idx];
                if arg.kind == TokKind::Ident
                    && code.get(p + 3).is_some_and(|&k| toks[k].is_punct(')'))
                {
                    if let Some(pos) = held
                        .iter()
                        .rposition(|h| h.binding.as_deref() == Some(arg.text.as_str()))
                    {
                        held.remove(pos);
                    }
                    p += 4;
                    continue;
                }
            }
        }

        // span!/instant! macro sites: synthetic obs acquisitions.
        if (t.text == "span" || t.text == "instant") && next_is('!') {
            if !held.is_empty() {
                let held_names: Vec<String> = held.iter().map(|h| h.lock.clone()).collect();
                for h in &held_names {
                    for m in OBS_MACRO_ACQUIRES {
                        scan.edges.push((h.clone(), m.to_string(), t.line, t.col));
                    }
                }
                scan.obs_macros.push((t.line, t.col, held_names));
            }
            for m in OBS_MACRO_ACQUIRES {
                scan.acquires.push((m.to_string(), t.line, t.col));
            }
            p += 1;
            continue;
        }

        // Acquisition primitives.
        if let Some(lock) = acquisition_at(toks, code, p, krate) {
            for h in &held {
                scan.edges
                    .push((h.lock.clone(), lock.clone(), t.line, t.col));
            }
            scan.acquires.push((lock.clone(), t.line, t.col));
            let binding = let_binding(toks, code, stmt_start, p);
            let until = if binding.is_some() || stmt_starts_with_let(toks, code, stmt_start) {
                Until::Depth(depth)
            } else {
                Until::Tok(temp_release_tok(toks, code, p))
            };
            held.push(Held {
                lock,
                binding,
                until,
            });
            p += 1;
            continue;
        }

        // Blocking primitives.
        if let Some(op) = blocking_at(toks, code, p) {
            let held_names: Vec<String> = held.iter().map(|h| h.lock.clone()).collect();
            scan.blocking.push((op, t.line, t.col, held_names));
            p += 1;
            continue;
        }

        // Ordinary calls feeding the call graph.
        if next_is('(')
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str())
            && !(prev_is_dot && STD_PURE_METHODS.contains(&t.text.as_str()))
        {
            let crate_hint = path_crate_hint(toks, code, p);
            scan.calls.push(Call {
                name: t.text.clone(),
                crate_hint,
                is_method: prev_is_dot,
                line: t.line,
                col: t.col,
                held: held.iter().map(|h| h.lock.clone()).collect(),
            });
        }
        p += 1;
    }
    scan
}

/// Matching close delimiter within a code-position list; `open_pos` is
/// the code position of the opening delimiter.
fn match_code_delim(
    toks: &[Tok],
    code: &[usize],
    open_pos: usize,
    o: char,
    c: char,
) -> Option<usize> {
    let mut depth = 0i64;
    for (q, &k) in code.iter().enumerate().skip(open_pos) {
        if toks[k].is_punct(o) {
            depth += 1;
        } else if toks[k].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(q);
            }
        }
    }
    None
}

/// Does the statement beginning at code position `s` start with `let`?
fn stmt_starts_with_let(toks: &[Tok], code: &[usize], s: usize) -> bool {
    code.get(s).is_some_and(|&k| toks[k].is_ident("let"))
}

/// `let [mut] NAME = … acquisition …` → `Some(NAME)`; tuple/struct
/// patterns yield `None` (still block-scoped, just not `drop`-trackable).
fn let_binding(toks: &[Tok], code: &[usize], stmt_start: usize, _acq: usize) -> Option<String> {
    if !stmt_starts_with_let(toks, code, stmt_start) {
        return None;
    }
    let mut q = stmt_start + 1;
    while code.get(q).is_some_and(|&k| toks[k].is_ident("mut")) {
        q += 1;
    }
    let &k = code.get(q)?;
    (toks[k].kind == TokKind::Ident).then(|| toks[k].text.clone())
}

/// Token index after which an unbound guard's temporary dies: the end of
/// the current statement (`;`), or — when the statement opens a block
/// before ending (`for`/`if let`/`match` headers) — the block's `}`.
fn temp_release_tok(toks: &[Tok], code: &[usize], p: usize) -> usize {
    let mut depth = 0i64;
    let mut q = p + 1;
    while q < code.len() {
        let k = code[q];
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth < 0 {
                return k; // We were inside an argument list: die with it.
            }
        } else if depth == 0 {
            if t.is_punct(';') || t.is_punct('}') {
                return k;
            }
            if t.is_punct('{') {
                return match_code_delim(toks, code, q, '{', '}')
                    .map(|cq| code[cq])
                    .unwrap_or(k);
            }
        }
        q += 1;
    }
    code.last().copied().unwrap_or(usize::MAX)
}

/// Is the ident at code position `p` a lock acquisition? Returns the lock
/// identity.
fn acquisition_at(toks: &[Tok], code: &[usize], p: usize, krate: &str) -> Option<String> {
    let t = &toks[code[p]];
    let next_is = |off: usize, c: char| code.get(p + off).is_some_and(|&k| toks[k].is_punct(c));
    match t.text.as_str() {
        "named_lock" if next_is(1, '(') => {
            let &k = code.get(p + 2)?;
            (toks[k].kind == TokKind::Str).then(|| toks[k].text.clone())
        }
        "lock_unpoisoned" if next_is(1, '(') => {
            let close = match_code_delim(toks, code, p + 1, '(', ')')?;
            let name = last_arg_ident(toks, code, p + 2, close)?;
            Some(format!("{krate}.{name}"))
        }
        "lock" | "read" | "write" => {
            let prev_dot = p > 0 && toks[code[p - 1]].is_punct('.');
            // Zero-argument call: `.lock()`, RwLock `.read()`/`.write()`.
            if !(prev_dot && next_is(1, '(') && next_is(2, ')')) {
                return None;
            }
            let name = receiver_name(toks, code, p)?;
            if NON_LOCK_RECEIVERS.contains(&name.as_str()) {
                return None;
            }
            Some(format!("{krate}.{name}"))
        }
        _ => None,
    }
}

/// Last meaningful depth-0 identifier of an argument span, skipping
/// accessor combinators (`LOCK.get_or_init(…)` names `LOCK`).
fn last_arg_ident(toks: &[Tok], code: &[usize], start: usize, close: usize) -> Option<String> {
    const ACCESSORS: &[&str] = &["get_or_init", "get", "as_ref", "borrow", "clone", "unwrap"];
    let mut depth = 0i64;
    let mut best: Option<String> = None;
    for &k in code.get(start..close)? {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('|') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.kind == TokKind::Ident && !ACCESSORS.contains(&t.text.as_str()) {
            best = Some(t.text.clone());
        }
    }
    best
}

/// Receiver field name for a `.lock()`-style acquisition at code
/// position `p` (the ident): the last field in the receiver chain,
/// skipping call/index groups (`self.board.lock` → `board`,
/// `threads().lock` → `threads`, `carries[i].lock` → `carries`).
fn receiver_name(toks: &[Tok], code: &[usize], p: usize) -> Option<String> {
    let mut q = p.checked_sub(2)?; // Skip the `.`.
    let mut hops = 0usize;
    loop {
        hops += 1;
        if hops > 16 {
            return None;
        }
        let k = code[q];
        let t = &toks[k];
        if t.is_punct(')') || t.is_punct(']') {
            // Walk back over the group to its opener.
            let (open, close) = if t.is_punct(')') {
                ('(', ')')
            } else {
                ('[', ']')
            };
            let mut depth = 0i64;
            loop {
                let tk = &toks[code[q]];
                if tk.is_punct(close) {
                    depth += 1;
                } else if tk.is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                q = q.checked_sub(1)?;
            }
            q = q.checked_sub(1)?;
            continue;
        }
        if t.kind == TokKind::Ident {
            return Some(t.text.clone());
        }
        return None;
    }
}

/// Is the ident at code position `p` a blocking primitive? Returns the
/// op name for the message.
fn blocking_at(toks: &[Tok], code: &[usize], p: usize) -> Option<String> {
    let t = &toks[code[p]];
    let name = t.text.as_str();
    let next_is = |off: usize, c: char| code.get(p + off).is_some_and(|&k| toks[k].is_punct(c));
    if !next_is(1, '(') {
        return None;
    }
    let prev_dot = p > 0 && toks[code[p - 1]].is_punct('.');
    match name {
        // `.join()` with no args is JoinHandle::join; `.join(sep)` is
        // slice join.
        "join" if prev_dot && next_is(2, ')') => Some("join".to_string()),
        // `.read(buf)` / `.write(buf)` *with* args: socket/file I/O (the
        // zero-arg forms are RwLock acquisitions, handled elsewhere).
        "read" | "write" if prev_dot && !next_is(2, ')') => Some(format!("{name} (I/O)")),
        _ if BLOCKING_METHODS.contains(&name) && name != "sleep" && prev_dot => {
            Some(name.to_string())
        }
        // `sleep`, `thread::sleep`, `park` as free/path calls.
        "sleep" | "park" if !prev_dot => Some(name.to_string()),
        _ => None,
    }
}

/// For a path call `head::…::f(`, the crate the head names, when it is a
/// workspace crate alias.
fn path_crate_hint(toks: &[Tok], code: &[usize], p: usize) -> Option<String> {
    // Walk back over `::`-joined segments to the head ident.
    let mut q = p;
    loop {
        if q < 2 {
            break;
        }
        if toks[code[q - 1]].is_punct(':') && toks[code[q - 2]].is_punct(':') {
            let mut r = q.checked_sub(3)?;
            // Skip a turbofish/generic args group `::<…>` conservatively.
            if toks[code[r]].is_punct('>') {
                let mut depth = 0i64;
                loop {
                    let tk = &toks[code[r]];
                    if tk.is_punct('>') {
                        depth += 1;
                    } else if tk.is_punct('<') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    r = r.checked_sub(1)?;
                }
                r = r.checked_sub(1)?;
            }
            if toks[code[r]].kind == TokKind::Ident {
                q = r;
                continue;
            }
            break;
        }
        break;
    }
    if q == p {
        return None;
    }
    let head = toks[code[q]].text.as_str();
    crate_alias(head).map(str::to_string)
}

/// Workspace crate for a path head like `skipper_obs`.
fn crate_alias(head: &str) -> Option<&'static str> {
    Some(match head {
        "skipper_obs" => "obs",
        "skipper_core" => "core",
        "skipper_lint" => "lint",
        "skipper_serve" => "serve",
        "skipper_report" => "report",
        "skipper_tensor" => "tensor",
        "skipper_snn" => "snn",
        "skipper_autograd" => "autograd",
        "skipper_data" => "data",
        "skipper_memprof" => "memprof",
        "skipper_bench" => "bench",
        "skipper" => "skipper",
        _ => return None,
    })
}

/// Resolve summaries to a fixpoint and emit edges + findings.
fn resolve(files: &[ConcFile], scopes: Vec<FnScope>) -> Analysis {
    // Symbol table: (crate, name) → scope indices, split free/method.
    let mut by_crate: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut global: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, s) in scopes.iter().enumerate() {
        if !s.root {
            continue;
        }
        let krate = crate_of(files[s.file_idx].rel);
        by_crate.entry((krate, s.name.clone())).or_default().push(i);
        global.entry(s.name.clone()).or_default().push(i);
    }
    let scopes_ref = &scopes;
    let resolve_call = |caller_crate: &str, c: &Call| -> Vec<usize> {
        // Method-call syntax resolves to fns with a self receiver when
        // any exist; free/assoc calls take every same-named candidate.
        let pick = |cands: Vec<usize>| -> Vec<usize> {
            if c.is_method {
                let methods: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| scopes_ref[i].has_self)
                    .collect();
                if !methods.is_empty() {
                    return methods;
                }
            }
            cands
        };
        let krate = c.crate_hint.as_deref().unwrap_or(caller_crate);
        let local = by_crate
            .get(&(krate.to_string(), c.name.clone()))
            .cloned()
            .unwrap_or_default();
        if !local.is_empty() {
            return pick(local);
        }
        if c.crate_hint.is_some() {
            return Vec::new(); // Explicit crate, nothing there: miss.
        }
        pick(global.get(&c.name).cloned().unwrap_or_default())
    };

    // Fixpoint over acquire-sets and blocking flags.
    let mut sums: Vec<Summary> = scopes
        .iter()
        .map(|s| Summary {
            acquires: s.scan.acquires.iter().map(|(l, _, _)| l.clone()).collect(),
            blocks: s.scan.blocking.first().map(|(op, _, _, _)| op.clone()),
        })
        .collect();
    loop {
        let mut changed = false;
        for (i, s) in scopes.iter().enumerate() {
            let caller_crate = crate_of(files[s.file_idx].rel);
            for c in &s.scan.calls {
                for t in resolve_call(&caller_crate, c) {
                    if t == i {
                        // A same-named call from inside the function is
                        // almost always delegation to an inner type's
                        // method (Registry::observe → Histogram::observe),
                        // not recursion; resolving it to ourselves would
                        // fabricate a self-deadlock edge.
                        continue;
                    }
                    let (extra, t_blocks) = (sums[t].acquires.clone(), sums[t].blocks.clone());
                    let before = sums[i].acquires.len();
                    sums[i].acquires.extend(extra);
                    if sums[i].acquires.len() != before {
                        changed = true;
                    }
                    if sums[i].blocks.is_none() {
                        if let Some(chain) = t_blocks {
                            sums[i].blocks = Some(format!("{} → {}", c.name, chain));
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edges: direct nestings + call-propagated; C2 findings.
    let mut edges: BTreeSet<LockEdge> = BTreeSet::new();
    let mut findings: Vec<ConcFinding> = Vec::new();
    let mut c2_seen: BTreeSet<(usize, u32, u32)> = BTreeSet::new();
    for (si, s) in scopes.iter().enumerate() {
        let rel = files[s.file_idx].rel;
        let caller_crate = crate_of(rel);
        for (from, to, line, col) in &s.scan.edges {
            edges.insert(LockEdge {
                from: from.clone(),
                to: to.clone(),
                file: rel.to_string(),
                line: *line,
                col: *col,
                via: None,
            });
        }
        for (op, line, col, held) in &s.scan.blocking {
            if held.is_empty() {
                continue;
            }
            if c2_seen.insert((s.file_idx, *line, *col)) {
                findings.push(c2_finding(s.file_idx, *line, *col, op, held, None));
            }
        }
        for c in &s.scan.calls {
            if c.held.is_empty() {
                continue;
            }
            let targets = resolve_call(&caller_crate, c);
            let mut acq: BTreeSet<String> = BTreeSet::new();
            let mut chain: Option<String> = None;
            for t in &targets {
                if *t == si {
                    continue; // Same-name delegation, as in the fixpoint.
                }
                acq.extend(sums[*t].acquires.iter().cloned());
                if chain.is_none() {
                    chain = sums[*t].blocks.clone();
                }
            }
            for h in &c.held {
                for m in &acq {
                    if h == m {
                        // Re-acquiring the lock already held through a
                        // call: a self-edge, reported by C1.
                    }
                    edges.insert(LockEdge {
                        from: h.clone(),
                        to: m.clone(),
                        file: rel.to_string(),
                        line: c.line,
                        col: c.col,
                        via: Some(c.name.clone()),
                    });
                }
            }
            if let Some(chain) = chain {
                if c2_seen.insert((s.file_idx, c.line, c.col)) {
                    findings.push(c2_finding(
                        s.file_idx,
                        c.line,
                        c.col,
                        &chain,
                        &c.held,
                        Some(&c.name),
                    ));
                }
            }
        }
    }

    // C1: edges on cycles.
    let analysis_edges: Vec<LockEdge> = edges.into_iter().collect();
    let pairs: BTreeSet<(String, String)> = analysis_edges
        .iter()
        .map(|e| (e.from.clone(), e.to.clone()))
        .collect();
    let adj = adjacency(&pairs);
    let mut c1_seen: BTreeSet<(usize, u32, String, String)> = BTreeSet::new();
    // Map rel path back to file index for findings.
    let rel_to_idx: BTreeMap<&str, usize> =
        files.iter().enumerate().map(|(i, f)| (f.rel, i)).collect();
    for e in &analysis_edges {
        let on_cycle = e.from == e.to || reachable(&adj, &e.to, &e.from);
        if !on_cycle {
            continue;
        }
        let Some(&file_idx) = rel_to_idx.get(e.file.as_str()) else {
            continue;
        };
        if !c1_seen.insert((file_idx, e.line, e.from.clone(), e.to.clone())) {
            continue;
        }
        let cycle = if e.from == e.to {
            format!(
                "`{}` re-acquired while already held (self-deadlock)",
                e.from
            )
        } else {
            let back = find_path(&adj, &e.to, &e.from)
                .map(|p| p.join(" → "))
                .unwrap_or_else(|| format!("{} → … → {}", e.to, e.from));
            format!("cycle: {} → {back}", e.from)
        };
        let via = e
            .via
            .as_deref()
            .map(|v| format!(" (through `{v}`)"))
            .unwrap_or_default();
        findings.push(ConcFinding {
            file_idx,
            line: e.line,
            col: e.col,
            rule: "C1",
            message: format!(
                "lock-order inversion: `{}` acquired while holding `{}`{via}; {cycle}",
                e.to, e.from
            ),
            hint: "two threads taking these locks in opposite orders deadlock; pick one \
                   global order and acquire in that order everywhere, or waive with the \
                   argument why both orders can never run concurrently: \
                   // lint:allow(lock-order): <reason>"
                .to_string(),
        });
    }
    findings.sort_by(|a, b| {
        (a.file_idx, a.line, a.col, a.rule).cmp(&(b.file_idx, b.line, b.col, b.rule))
    });
    Analysis {
        edges: analysis_edges,
        findings,
    }
}

fn c2_finding(
    file_idx: usize,
    line: u32,
    col: u32,
    op: &str,
    held: &[String],
    callee: Option<&str>,
) -> ConcFinding {
    let held_list = held.join("`, `");
    let message = match callee {
        Some(name) => {
            format!("call to `{name}` may block ({op}) while holding lock(s) `{held_list}`")
        }
        None => format!("blocking `{op}` while holding lock(s) `{held_list}`"),
    };
    ConcFinding {
        file_idx,
        line,
        col,
        rule: "C2",
        message,
        hint: "a blocked holder starves every thread queued on the lock (and deadlocks \
               outright if the unblock needs the lock); release the guard before \
               blocking, or waive with the argument why the wait is bounded and safe: \
               // lint:allow(blocking): <reason>"
            .to_string(),
    }
}
