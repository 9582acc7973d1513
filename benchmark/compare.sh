#!/usr/bin/env bash
# Compares two results.json files of benchmark/run.sh, metric by metric.
#
#   benchmark/compare.sh [--bounds BENCHMARK.json] base.json new.json
#
# Prints one row per workload x metric with both values and new/base. Refuses
# (exit 2) when the two machine descriptions differ in CPU model, core count,
# toolchain, N or window length: such numbers do not compare. With --bounds,
# exits 1 if an end-to-end metric differs, either way, by more than its bound.
set -euo pipefail
exec python3 - "$@" <<'PY'
import json, sys

args = sys.argv[1:]
bounds = {}
if args[:1] == ["--bounds"]:
    with open(args[1]) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    args = args[2:]
if len(args) != 2:
    sys.exit("usage: compare.sh [--bounds BENCHMARK.json] base.json new.json")
with open(args[0]) as f:
    base = json.load(f)
with open(args[1]) as f:
    new = json.load(f)

same = ["cpu_model", "nproc", "rustc", "jobs_n", "seconds"]
differing = [k for k in same if base["machine"][k] != new["machine"][k]]
if differing:
    for k in differing:
        print(f"machine.{k}: {base['machine'][k]!r} vs {new['machine'][k]!r}", file=sys.stderr)
    sys.exit(2)

print(f"base: commit {base['machine']['commit']} seed {base['machine']['seed']} load {base['machine']['load_average']}")
print(f"new:  commit {new['machine']['commit']} seed {new['machine']['seed']} load {new['machine']['load_average']}")
print(f"{'workload':<14} {'metric':<40} {'base':>16} {'new':>16} {'new/base':>9}  unit")
new_by_name = {w["workload"]: w for w in new["workloads"]}
out_of_bound = []
for w in base["workloads"]:
    other = new_by_name.get(w["workload"])
    if other is None:
        continue
    for group in ("end_to_end", "per_layer"):
        for name, m in w[group].items():
            if name not in other[group]:
                continue
            a, b = m["value"], other[group][name]["value"]
            ratio = b / a if a else (1.0 if b == 0 else float("inf"))
            flag = ""
            if group == "end_to_end" and name in bounds and abs(ratio - 1.0) > bounds[name]:
                flag = f"  <-- differs by more than {bounds[name]:.1%}"
                out_of_bound.append((w["workload"], name))
            print(f"{w['workload']:<14} {name:<40} {a:>16.6f} {b:>16.6f} {ratio:>9.4f}  {m['unit']}{flag}")
if out_of_bound:
    print(f"{len(out_of_bound)} end-to-end metric(s) out of bound: {out_of_bound}", file=sys.stderr)
    sys.exit(1)
PY
