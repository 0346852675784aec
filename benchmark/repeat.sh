#!/usr/bin/env bash
# Runs every workload twice from one seed, untraced and traced, with the
# command and run length BENCHMARK.json names, and fails if
#   - any end-to-end metric of the second run is worse than the first by
#     more than its bound, or
#   - any exact metric (peak bytes, step counts, FLOPs, losses, allocation
#     and tape counts, densities, attempted/failed) differs at all, or
#   - any run reports correct=false or a failed operation.
#
# usage: benchmark/repeat.sh [seed]        (from anywhere; ~6 minutes)
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-1}" <<'EOF'
import fnmatch, json, subprocess, sys

seed = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
EXACT = ["*_peak_bytes", "core.*_steps", "core.flops_per_iter.*", "core.bytes_per_iter.*",
         "core.loss_final.*", "memprof.*", "autograd.tape_nodes_per_step",
         "autograd.activation_bytes_per_step", "snn.input_density", "snn.hidden_density"]

def run(workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", seed,
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} trace {trace}: exit code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} trace {trace}: correct={result['correct']} failed={result['failed']}")
    return result

problems = []
for workload in [w["name"] for w in spec["workloads"]]:
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        first, second = run(workload, trace), run(workload, trace)
        names = [m["name"] for m in declared]
        for result in (first, second):
            if sorted(result["metrics"]) != sorted(names):
                odd = set(result["metrics"]) ^ set(names)
                sys.exit(f"{workload} trace {trace}: printed and declared metrics differ: {sorted(odd)}")
        print(f"== {workload} --trace {trace} (attempted {first['attempted']} / {second['attempted']})")
        for m in declared:
            a = first["metrics"][m["name"]]["value"]
            b = second["metrics"][m["name"]]["value"]
            exact = any(fnmatch.fnmatch(m["name"], p) for p in EXACT)
            change = (b - a) / a if a else float(b != a)
            worse = change if m["better"] == "lower" else -change
            verdict = ""
            if exact and a != b:
                verdict = "  <-- exact metric differs"
            elif "bound" in m and worse > m["bound"]:
                verdict = f"  <-- worse by more than {m['bound']:.0%}"
            if verdict:
                problems.append(f"{workload} {m['name']}: {a} then {b}{verdict}")
            tag = "exact" if exact else f"{100 * change:+6.2f}%"
            print(f"  {m['name']:42} {a:>16.8g} {b:>16.8g}  {tag}{verdict}")
if problems:
    print("\nFAILED:\n  " + "\n  ".join(problems))
    sys.exit(1)
print("\nevery end-to-end metric within its bound, every exact metric identical")
EOF
