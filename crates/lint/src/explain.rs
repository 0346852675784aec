//! `--explain <rule>` documentation, kept next to the code so the two
//! cannot drift apart silently.

/// Long-form documentation for one rule id (case-insensitive), or `None`
/// for an unknown id.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule.to_ascii_uppercase().as_str() {
        "D1" => D1,
        "D2" => D2,
        "P1" => P1,
        "O1" => O1,
        "O2" => O2,
        "S1" => S1,
        "C1" => C1,
        "C2" => C2,
        "W1" => W1,
        _ => return None,
    })
}

const D1: &str = "\
D1 · determinism — no nondeterminism sources in the numeric core

Scope: crates/core/src/{engine,shard,checkpoint,sam,windowed,lbp}.rs,
       crates/autograd/src/**, crates/snn/src/**  (non-test code)

Forbidden: HashMap / HashSet (iteration order varies per process),
Instant::now / SystemTime (wall-clock reads), thread_rng / from_entropy /
OsRng (unseeded RNG).

Why: Skipper's time-skipping is *stateful* approximation. The per-timestep
spike sum s_t feeds the SST percentile, and the percentile decides which
timesteps are recomputed versus skipped. Any nondeterminism upstream of
that decision does not average out — it changes the recompute schedule
itself, so two runs of the same seed diverge structurally, and the
engine's bitwise sharded-vs-unsharded contract (engine_determinism tests)
cannot hold. Deterministic alternatives: BTreeMap / BTreeSet / ordered
Vec; seeded StdRng plumbed from the session config; clock reads moved to
telemetry code outside the numeric core.

Waiver: // lint:allow(determinism): <reason>   (same line or line above)
Telemetry-only wall-clock reads inside the worker pool are the expected
waiver case; say so explicitly in the reason.
";

const D2: &str = "\
D2 · float-order — fixed-order float accumulation on the gradient path

Scope: same file set as D1 (non-test code).

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

const P1: &str = "\
P1 · panic — library crates must not panic

Scope: crates/{core,obs,report,tensor,autograd,snn,data,memprof}/src/**
       excluding src/bin/ and #[cfg(test)] / #[test] code.

Flagged: .unwrap(), .expect(…), panic!, todo!, unimplemented!.

Why: library code runs on worker-pool threads and inside the
fault-tolerance path. A panic in a worker is caught and re-raised by the
pool (taking the whole training step down), and a panic during snapshot
restore turns a recoverable divergence into a crash. Recoverable errors
must flow as SkipperError / Result so sentinels and the resume machinery
can do their job. Binaries and tests may still panic: a CLI aborting on
bad input is fine, a library deciding to abort for the host process is
not.

Waiver: // lint:allow(panic): <why this cannot fail>
The reason must argue infallibility (e.g. \"index < len checked above\"),
not convenience.
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

const S1: &str = "\
S1 · safety — unsafe requires a SAFETY comment

Scope: all scanned files, including test code.

Flagged: the `unsafe` keyword without a comment containing `SAFETY:` on
the same line or within the two lines above.

Why: the workspace has one unsafe block, the call in
crates/tensor/src/matmul.rs that runs a GEMM compiled with AVX2 or
AVX-512 enabled, after checking that the CPU has those features (the
benchmark package, outside the workspace, has two more: its affinity
syscalls). Each unsafe block rests on an invariant the compiler cannot
check; it must be stated where it can be reviewed and re-checked after
every edit.

Fix: // SAFETY: <the invariant that makes this sound>
Waiver: // lint:allow(safety): <reason>   (prefer a real SAFETY comment)
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

Inspect: skipper-lint --dump-lock-graph   (DOT; red edges = cycles)
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
may quote the syntax), and `lint:allow(waiver)` itself is never GC'd.

Why: waivers are per-site arguments (\"this cannot fail because …\");
when the code moves on, a stale waiver keeps making an argument about
code that no longer exists, and the next reader extends trust it never
earned. Dead waivers also mask typos: a misspelled key waives nothing
silently — W1 makes the silence loud.

Fix: delete the comment — `skipper-lint --fix-waivers` lists them,
`--fix-waivers --apply` edits files in place.
";
