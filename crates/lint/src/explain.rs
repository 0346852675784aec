//! `--explain <rule>` documentation, kept next to the code so the two
//! cannot drift apart silently.

/// Long-form documentation for one rule id (case-insensitive), or `None`
/// for an unknown id.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule.to_ascii_uppercase().as_str() {
        "D2" => D2,
        "O1" => O1,
        "O2" => O2,
        "C1" => C1,
        "C2" => C2,
        "W1" => W1,
        _ => return None,
    })
}

const D2: &str = "\
D2 · float-order — fixed-order float accumulation on the gradient path

Scope: crates/core/src/{engine,shard,checkpoint,sam,windowed,lbp}.rs,
       crates/autograd/src/**, crates/snn/src/**  (non-test code)

Flagged: .sum::<f32|f64>(), .product::<f32|f64>(), .fold(<float seed>, …).

Why: float addition does not associate. The sharded engine guarantees
bitwise-identical losses, SAM spike sums, SST thresholds and gradients
across worker counts by reducing shard results through one fixed-order
pairwise tree (crates/core/src/shard.rs `tree_reduce`). A free-form
iterator reduction on the same path re-introduces an ordering degree of
freedom; it is only safe when the iteration order itself is fixed and
shard-local. If that is the case, say so in a waiver; if not, route the
accumulation through the tree reduction.

Waiver: // lint:allow(float-order): <why the order is fixed>
";

const O1: &str = "\
O1 · metric — observability names must be declared in the manifest

Scope: all scanned files (non-test code).

Checked call shapes: counter_add(\"…\"), gauge_set(\"…\"), observe(\"…\"),
register_histogram(\"…\"), labeled(\"family\", \"label\", …), span!(\"…\"),
instant!(level, \"…\"). Labelled families are declared as family{label}.

Why: dashboards, the bench-gate manifests and DESIGN.md §8.5 all key on
literal metric names. A typo'd name (skipper.steps_skiped) silently forks
the registry: the dashboard flatlines while the code \"works\". The
committed manifest (crates/lint/metrics.toml) is the single source of
truth; adding a metric means adding it to the manifest and the DESIGN.md
§8.5 table in the same change, so docs, code and manifest agree at merge
time. Dynamic names (built at runtime) are not checked — keep them built
from declared labeled() families.

Fix: declare the name in the right section of crates/lint/metrics.toml,
or fix the spelling at the call site.
Waiver: // lint:allow(metric): <reason>   (rarely appropriate)
";

const O2: &str = "\
O2 · env — SKIPPER_* environment knobs must be declared in the manifest

Scope: all scanned files (non-test code).

Flagged: any string literal that IS a knob name (matches
SKIPPER_[A-Z0-9_]+ exactly), wherever it appears — env::var sites,
constants, bench harness defaults.

Why: knobs are read in 20+ binaries; a misspelled knob
(SKIPPER_OBS_ADR) reads as unset and silently disables the feature it
was meant to configure. Declaring knobs in [env] of
crates/lint/metrics.toml catches the typo at build time and keeps the
README knob table honest.

Fix: declare the knob in [env], or fix the spelling.
Waiver: // lint:allow(env): <reason>
";

const C1: &str = "\
C1 · lock-order — the global lock-order graph must be acyclic

Scope: all scanned files (non-test code), analyzed as one unit.

The interprocedural engine parses every fn, derives which Mutex/RwLock
each function may acquire (directly, or through calls — summaries are
propagated over the call graph to a fixpoint), and records an edge
A -> B whenever B is acquired while A is held. Lock identities are
crate.field names from the acquisition receiver (self.board.lock() in
crates/core → core.board); the named_lock(\"id\", &m) helper in
skipper-obs makes the identity explicit and shared with the runtime
lock witness. Any edge participating in a cycle — including A -> A
re-entry, which self-deadlocks on std::sync::Mutex — is flagged at its
acquisition or call site, with an example cycle in the message.

Why: the engine worker pool, TCP cluster, serving gateway, SLO thread
and the collector's sinks and span fold all run concurrently over
shared registries. Two threads taking the same pair of locks in
opposite orders deadlock rarely, under load, in production — exactly
where a stalled training step or a frozen gateway is most expensive.
An acyclic acquisition order makes that class of hang impossible by
construction.

Fix: pick one global order and acquire in that order everywhere, or
narrow a guard's scope so the nesting disappears.
Waiver: // lint:allow(lock-order): <why both orders can never run
concurrently>
";

const C2: &str = "\
C2 · blocking — no lock held across a blocking call

Scope: all scanned files (non-test code), analyzed as one unit.

Flagged while any lock is held: channel recv/recv_timeout/send, condvar
wait/wait_timeout, socket accept/connect, I/O read/write with a buffer
argument, read_exact/write_all/read_to_end/flush/sync_all, sleep, park,
zero-arg join — directly, or through a call chain (the diagnostic names
the chain: `call to wait_on may block (wait_timeout) while holding
serve.queue`). RwLock .read()/.write() with no arguments are lock
acquisitions, not I/O, and feed C1 instead.

Why: a holder blocked on I/O starves every thread queued on that lock —
the event sinks, the metrics registry and the gateway queue are all
on hot paths — and deadlocks outright when the unblock itself needs the
lock (recv while holding the lock the sender needs). The fix is almost
always to move data out under the guard, drop it, then block.

Waiver: // lint:allow(blocking): <why the wait is bounded and the lock
must stay held — condvar protocols are the expected case>
";

const W1: &str = "\
W1 · waiver — every lint:allow must still waive a live finding

Scope: all scanned files (non-test code); runs after every other rule.

Flagged: a `// lint:allow(<key>)` comment whose key is a real rule id or
category but which waived nothing — the rule no longer fires on that
line (or the line below it), or the waiver is missing its mandatory
`: <reason>`. Keys that are not rule ids/categories are ignored (docs
may quote the syntax), and `lint:allow(waiver)` itself is never flagged.

Why: waivers are per-site arguments (\"this wait is bounded because …\");
when the code moves on, a stale waiver keeps making an argument about
code that no longer exists, and the next reader extends trust it never
earned. Dead waivers also mask typos: a misspelled key waives nothing
silently — W1 makes the silence loud.

Fix: delete the comment, or repair its reason.

Clippy holds the same line for `#[expect(clippy::…, reason = \"…\")]`:
an expectation that no longer fires is rustc's
`unfulfilled_lint_expectations`, which `cargo clippy -- -D warnings`
turns into an error.
";
