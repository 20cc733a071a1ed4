#!/usr/bin/env bash
# A/A self-check: does the benchmark agree with itself?
#
#   benchmark/aa.sh [N]          (default N = 5)
#
# Runs two interleaved sets (A, B) of N runs per workload of the *same*
# build, every run with a seed of its own (A: 1..N, B: N+1..2N), and
# prints per metric × workload: median and quartiles of each set, the
# spread of each set (distance between its quartiles as a share of its
# median), the relative delta between the two medians in the metric's
# worse direction, and the metric's bound from BENCHMARK.json. That is the
# check the driver makes with N = 10. Exits non-zero if a spread (except
# that of setup_s, which the driver does not judge) or a delta exceeds its
# bound. The table it prints is the one committed in README.md.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
n="${1:-5}"

cd "$here"
cargo build --release --offline --quiet

N="$n" SPEC="$here/../BENCHMARK.json" python3 - <<'PY'
import json, os, statistics, subprocess, sys

n = int(os.environ["N"])
run_cmd = ["cargo", "run", "--release", "--offline", "--quiet", "--"]
spec = json.load(open(os.environ["SPEC"]))
seconds = str(spec["run_seconds"])
metrics = spec["end_to_end"]

def run(workload, seed):
    out = subprocess.run(
        run_cmd + ["--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]

failed = []
print("| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | spread A | spread B | delta B vs A | bound |")
print("|---|---|---|---|---|---|---|---|---|")
for w in spec["workloads"]:
    name = w["name"]
    sets = {"A": [], "B": []}
    for i in range(1, n + 1):
        for which, seed in (("A", i), ("B", n + i)):
            sets[which].append(run(name, seed))
            print(f"  {name} {which} seed {seed} done", file=sys.stderr)
    for m in metrics:
        a = [r[m["name"]]["value"] for r in sets["A"]]
        b = [r[m["name"]]["value"] for r in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        spreads = ((a3 - a1) / ma, (b3 - b1) / mb)
        flag = ""
        if worse > m["bound"]:
            flag = " **FAIL**"
            failed.append(f"{name}.{m['name']}: delta {worse:+.1%} exceeds bound {m['bound']:.0%}")
        if m["name"] != "setup_s" and max(spreads) > m["bound"]:
            flag = " **FAIL**"
            failed.append(f"{name}.{m['name']}: spread {max(spreads):.1%} exceeds bound {m['bound']:.0%}")
        print(f"| {name} | {m['name']} | {m['unit']} | {ma:.4g} [{a1:.4g}, {a3:.4g}] | "
              f"{mb:.4g} [{b1:.4g}, {b3:.4g}] | {spreads[0]:.1%} | {spreads[1]:.1%} | "
              f"{worse:+.1%}{flag} | {m['bound']:.0%} |")
if failed:
    sys.exit("A/A check failed:\n  " + "\n  ".join(failed))
print("A/A check passed: every spread and every delta is within its bound", file=sys.stderr)
PY
